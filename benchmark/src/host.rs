//! Host-resource readers: heap allocations, peak resident set and CPU
//! time of this process. Everything the benchmark knows about the host
//! beyond `Instant` comes from this file, and so does the only `unsafe`
//! in the repository (the counting allocator and one `clock_gettime`
//! call). Linux on a 64-bit target only, like the `/proc` reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls that asked the allocator for memory (`alloc`, `alloc_zeroed`,
/// `realloc`) since process start. A statistic that publishes no other
/// data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter in front.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment, which neither allocates nor touches the block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocation calls made by this process so far (all threads).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed by all threads of this process,
/// live or already joined, at nanosecond resolution. `/proc/self/stat`
/// carries the same total but in 10 ms steps, which a one-second rep
/// would turn into visibly quantized readings.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout 64-bit
    // Linux expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A fixed piece of integer and dependent-load work, timed, to tell how
/// fast the machine's memory system is while a sample runs.
///
/// The sandbox this benchmark runs in shares its last-level cache and
/// memory bus. For tens of seconds to minutes at a time memory-bound code
/// runs up to three times slower (arithmetic does not), wall time and CPU
/// time alike, and no statistic inside a ten-second sample can see
/// through a phase that outlasts it. The gauge is read between the timed
/// intervals of a sample; [`SpeedGauge::slowdown`] relates the sample's
/// readings to [`SpeedGauge::NOMINAL_S`], and [`time_scale`] turns that
/// into the factor by which a workload's measured host times are
/// multiplied to report them at nominal machine speed.
///
/// The kernel never changes with the simulator, so a faster simulator
/// still reads faster. It walks 8 MiB (beyond the private caches) with
/// each load's address depending on the previous load, as event dispatch
/// chases pointers.
pub struct SpeedGauge {
    buf: Vec<u64>,
    /// Every kernel time taken so far, in seconds.
    times: Vec<f64>,
}

impl SpeedGauge {
    /// Seconds one kernel run takes, undisturbed, on the machine the
    /// first baseline was recorded on. Only fixes the scale.
    pub const NOMINAL_S: f64 = 0.0053;
    const WORDS: usize = 1 << 20;
    const STEPS: u32 = 150_000;
    /// Kernel runs per reading.
    const RUNS: usize = 9;

    pub fn new() -> SpeedGauge {
        SpeedGauge {
            buf: (0..Self::WORDS as u64).collect(),
            times: Vec::new(),
        }
    }

    fn kernel(&mut self) -> f64 {
        let t0 = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[x as usize & (Self::WORDS - 1)];
            *slot = slot.wrapping_add(x);
            x = x.wrapping_add(*slot >> 3);
        }
        std::hint::black_box(x);
        t0.elapsed().as_secs_f64()
    }

    /// Take a reading: [`Self::RUNS`] runs of the kernel (about 50 ms).
    pub fn read(&mut self) {
        for _ in 0..Self::RUNS {
            let t = self.kernel();
            self.times.push(t);
        }
    }

    /// How much slower than nominal memory-bound code ran over the
    /// readings so far (1 = nominal, 2 = twice as slow). Interference only
    /// ever adds time, and short bursts hit a 5 ms kernel run far harder
    /// than a one-second rep, so this is taken from the 10th percentile of
    /// the kernel times — the runs least disturbed — which a sustained
    /// slow phase still moves.
    ///
    /// # Panics
    ///
    /// Panics before the first [`SpeedGauge::read`].
    pub fn slowdown(&self) -> f64 {
        let mut t = self.times.clone();
        t.sort_by(f64::total_cmp);
        t[t.len() / 10] / Self::NOMINAL_S
    }
}

/// Factor that takes a host time measured while memory-bound code ran
/// `slowdown` times slower than nominal to the time at nominal speed, for
/// code that spends `memory_bound_share` of its nominal time waiting on
/// memory: `t = t_compute + t_memory * slowdown`, so
/// `t_nominal = t / (1 - share + share * slowdown)`.
pub fn time_scale(memory_bound_share: f64, slowdown: f64) -> f64 {
    1.0 / (1.0 - memory_bound_share + memory_bound_share * slowdown)
}

impl Default for SpeedGauge {
    fn default() -> Self {
        SpeedGauge::new()
    }
}

/// Cores the host offers this process; recorded beside every result that
/// depends on threads.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_number_of_boxes() {
        const N: u64 = 1000;
        // Other test threads may allocate while we count, which can only
        // add; the smallest of a few attempts is the boxes alone.
        let fewest = (0..8)
            .map(|_| {
                let mut keep = Vec::with_capacity(N as usize);
                let before = allocations();
                for i in 0..N {
                    keep.push(black_box(Box::new(i)));
                }
                allocations() - before
            })
            .min();
        assert_eq!(fewest, Some(N));
    }

    #[test]
    fn gauge_reads_and_time_scale_inverts_the_model() {
        let mut g = SpeedGauge::new();
        g.read();
        assert!(g.slowdown() > 0.0);
        assert_eq!(time_scale(0.0, 3.0), 1.0);
        assert_eq!(time_scale(0.5, 1.0), 1.0);
        // Half memory-bound, memory twice as slow: 1.5x the nominal time.
        assert!((1.5 * time_scale(0.5, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rss_and_cpu_are_positive_and_monotonic() {
        let rss = peak_rss_mb();
        assert!(rss > 0.5, "peak rss {rss} MB");
        let c0 = cpu_seconds();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            cpu_seconds() > c0,
            "cpu time did not advance over 60 ms of spinning"
        );
        assert!(peak_rss_mb() >= rss);
    }
}
