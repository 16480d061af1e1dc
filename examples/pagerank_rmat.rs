//! PageRank on an RMAT graph across a sweep of machine sizes — the §4.1
//! workload at example scale.
//!
//! `cargo run --release --example pagerank_rmat -- [scale] [iters]`

use updown_apps::pagerank::{run_pagerank, PrConfig, DAMPING};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_and_shuffle};
use updown_graph::{algorithms, Csr};
use updown_sim::MachineConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let iters: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    println!("generating RMAT scale-{scale} (a=0.57 b=0.19 c=0.19, ef=16)...");
    let el = dedup_sort(rmat(scale, RmatParams::default(), 42));
    let (sg, _perm) = split_and_shuffle(&el, 512, 7);
    let shuffled = {
        let (sh, _) = updown_graph::preprocess::shuffle_ids(&el, 7);
        Csr::from_edges(&sh)
    };
    println!(
        "  n = {}, m = {}, sub-vertices = {}",
        sg.n_orig,
        sg.neighbors.len(),
        sg.n_sub()
    );

    let oracle = algorithms::pagerank(&shuffled, iters, DAMPING);

    println!("\n{:>6} {:>14} {:>10} {:>8}", "nodes", "ticks", "time(ms)", "speedup");
    let mut base = 0u64;
    for nodes in [1u32, 2, 4, 8] {
        let mut cfg = PrConfig::new(nodes);
        cfg.machine = MachineConfig::small(nodes, 8, 32);
        cfg.iterations = iters;
        let res = run_pagerank(&sg, &cfg);
        // Verify against the host oracle.
        let max_err = res
            .values
            .iter()
            .zip(&oracle)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "max err {max_err}");
        if nodes == 1 {
            base = res.final_tick;
        }
        println!(
            "{:>6} {:>14} {:>10.3} {:>8.2}",
            nodes,
            res.final_tick,
            cfg.machine.ticks_to_seconds(res.final_tick) * 1e3,
            base as f64 / res.final_tick as f64
        );
    }
    println!("\nall configurations verified against the host PageRank oracle");
}
