//! Wall-clock measurement in place of an external benchmarking framework.
//! Only these host-time figures vary; simulated ticks are deterministic.

use std::hint::black_box;
use std::time::Instant;

/// Run `f` once to warm up, then `iters` times; print the mean per-call
/// wall time as `name ... mean <t> (N iters)`.
pub fn bench_host<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    println!("{name:<32} mean {:.3?} ({iters} iters)", t0.elapsed() / iters);
}

/// Simulated events retired per *host* second. Never part of a metrics
/// document: it varies run to run, the documents are byte-compared.
pub fn fmt_rate(events: u64, secs: f64) -> String {
    if secs <= 0.0 {
        return "-".to_string();
    }
    let r = events as f64 / secs;
    if r >= 1e6 {
        format!("{:.2} Mev/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1} kev/s", r / 1e3)
    } else {
        format!("{r:.0} ev/s")
    }
}
