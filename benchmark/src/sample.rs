//! One sample = one process: set-up, a timed region that repeats the
//! workload's rep until the requested seconds have passed, then
//! verification against the host oracle. This is what someone
//! regenerating a figure pays, it makes peak RSS and allocation counts
//! per-sample, and a fresh process per sample keeps one sample's warm
//! caches out of the next.
//!
//! The untraced sample yields the end-to-end metrics. The traced sample
//! turns the span recorder on, adds the layer probes, and yields the
//! per-layer metrics; it is never the source of an end-to-end number.

use crate::metrics::{Clock, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{lower_quartile, median};
use crate::workloads::{BfsTc, IngestPm, Pagerank, Rep, Tooling, Workload};
use crate::{host, probes, Layer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use updown_sim::json::JsonWriter;
use updown_sim::TopologyKind;

/// Length of a sample's timed region unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 10.0;

/// The layer probes are small simulations; see
/// [`Workload::memory_bound_share`].
const PROBE_MEMORY_BOUND_SHARE: f64 = 0.25;

/// Set-ups per sample; `setup_s` is their lower quartile.
const SETUPS: usize = 15;

#[derive(Clone, Debug)]
pub struct SampleOpts {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed region; a rep in flight when it ends completes.
    pub seconds: f64,
    pub trace: bool,
    /// `cargo test` sizes.
    pub tiny: bool,
    /// Perturb the oracle's expectation (test hook: failures must count).
    pub corrupt_oracle: bool,
}

#[derive(Clone, Debug)]
pub struct Sample {
    pub workload: &'static str,
    /// Simulated runs / tool calls executed over all reps.
    pub attempted: u64,
    /// Runs that panicked, disagreed with the oracle, or whose digest
    /// differed from the first rep's.
    pub failed: u64,
    pub reps: usize,
    /// Digest of the first rep's runs, to compare across rounds.
    pub digest: u64,
    /// End-to-end metrics (untraced sample) or per-layer metrics (traced
    /// sample), in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Times as measured, before scaling to nominal machine speed, and
    /// the machine speed itself; for the reader, never judged.
    pub raw: Vec<(&'static str, f64)>,
    /// Traced sample only: self seconds per span name.
    pub self_seconds: BTreeMap<&'static str, f64>,
    /// Traced sample only: the Chrome trace document.
    pub chrome_trace: Option<String>,
}

impl Sample {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("correct").bool(self.failed == 0);
        w.key("attempted").u64(self.attempted);
        w.key("failed").u64(self.failed);
        w.key("metrics").begin_obj();
        for &(name, value, unit) in &self.metrics {
            w.key(name)
                .begin_obj()
                .key("value")
                .f64(value)
                .key("unit")
                .string(unit)
                .end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

/// Run one sample of the named workload.
pub fn run(opts: &SampleOpts) -> Result<Sample, String> {
    match opts.workload.as_str() {
        "pr_1n" => Ok(run_with(&Pagerank::pr_1n(opts.tiny), opts)),
        "pr_16n_t2" => Ok(run_with(&Pagerank::pr_16n_t2(opts.tiny), opts)),
        "bfs_tc_torus" => Ok(run_with(&BfsTc::new(opts.tiny), opts)),
        "ingest_pm" => Ok(run_with(&IngestPm::new(opts.tiny), opts)),
        "tooling" => Ok(run_with(&Tooling::new(opts.tiny), opts)),
        other => Err(format!(
            "unknown workload '{other}' (one of {})",
            crate::workloads::WORKLOADS.join(", ")
        )),
    }
}

/// Host cost of one rep, as measured.
struct RepCost {
    threads: u32,
    recorded: bool,
    wall: f64,
    cpu: f64,
    allocs: u64,
    events: u64,
    timed: Layer,
}

/// Whether a per-layer metric is a host time, to be reported at nominal
/// machine speed like the end-to-end times. Ratios, counts and simulated
/// values are never scaled.
fn is_host_time(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|d| d.name == name && d.clock == Clock::Host && matches!(d.unit, "s" | "ns"))
}

fn run_with<W: Workload>(w: &W, o: &SampleOpts) -> Sample {
    let compares_threads = w.threads() > 1;
    let mut spans = Spans::new(o.trace);
    let mut gauge = host::SpeedGauge::new();
    spans.begin("sample");

    // Set-up, several times over; the last one's inputs are used.
    spans.begin("setup");
    let mut setup_raw = Vec::new();
    let mut setup_layers = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let mut layer = Layer::new();
        let t0 = Instant::now();
        inputs = Some(w.setup(o.seed, &mut spans, &mut layer));
        setup_raw.push(t0.elapsed().as_secs_f64());
        setup_layers.push(layer);
    }
    let inputs = inputs.expect("SETUPS >= 1");
    spans.end();

    // Timed region. The traced sample records spans on every other rep,
    // so the recorder's own cost is the ratio between the two halves; a
    // workload that compares thread counts switches every two reps.
    spans.begin("timed_region");
    let min_reps = match (o.trace, compares_threads) {
        (false, _) => 1,
        (true, false) => 2,
        (true, true) => 4,
    };
    spans.time("host.gauge", || gauge.read());
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds.max(0.0));
    let mut costs: Vec<RepCost> = Vec::new();
    let mut first: Option<Rep<W::Results>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut panicked = false;
    while costs.len() < min_reps || Instant::now() < deadline {
        let i = costs.len();
        let recorded = o.trace && i.is_multiple_of(2);
        let threads = if o.trace && compares_threads && (i / 2) % 2 == 1 {
            1
        } else {
            w.threads()
        };
        spans.set_recording(recorded);
        let depth = spans.depth();
        spans.begin("rep");
        let (a0, c0, t0) = (host::allocations(), host::cpu_seconds(), Instant::now());
        let rep = catch_unwind(AssertUnwindSafe(|| w.rep(&inputs, threads, &mut spans)));
        let (wall, cpu, allocs) = (
            t0.elapsed().as_secs_f64(),
            host::cpu_seconds() - c0,
            host::allocations() - a0,
        );
        spans.unwind(depth);
        spans.set_recording(o.trace);
        spans.time("host.gauge", || gauge.read());
        let Ok(mut rep) = rep else {
            attempted += w.runs_per_rep();
            failed += w.runs_per_rep();
            panicked = true;
            break;
        };
        attempted += rep.runs.len() as u64;
        if let Some(first) = &first {
            failed += first
                .runs
                .iter()
                .zip(&rep.runs)
                .filter(|(a, b)| a.digest != b.digest)
                .count() as u64;
            failed += first.runs.len().abs_diff(rep.runs.len()) as u64;
        }
        costs.push(RepCost {
            threads,
            recorded,
            wall,
            cpu,
            allocs,
            events: rep.runs.iter().map(|r| r.events).sum(),
            timed: std::mem::take(&mut rep.timed),
        });
        first.get_or_insert(rep);
    }
    spans.end();
    let peak_rss_mb = host::peak_rss_mb();

    // Verification, outside the timed region. A run the oracle rejects
    // is rejected in every rep that reproduced it.
    let mut verify_raw = 0.0;
    if let (Some(first), false) = (&first, panicked) {
        spans.begin("verify");
        let t0 = Instant::now();
        let verdicts = w.verify(&inputs, &first.results, o.corrupt_oracle, &mut spans);
        verify_raw = t0.elapsed().as_secs_f64();
        spans.end();
        assert_eq!(verdicts.len(), first.runs.len(), "one verdict per run");
        for (run, ok) in first.runs.iter().zip(&verdicts) {
            if !ok {
                eprintln!(
                    "udbench: {}: run '{}' disagrees with its oracle",
                    w.name(),
                    run.name
                );
                failed += costs.len() as u64;
            }
        }
    }
    failed = failed.min(attempted);

    // Layer probes belong to the traced sample; they run before the
    // machine speed is read off so that the gauge brackets them too.
    let mut probed = Layer::new();
    if o.trace {
        let iters = if o.tiny {
            probes::TINY_ITERS
        } else {
            probes::ITERS
        };
        probes::run_all(&mut spans, iters, &mut probed);
        if let Some((sg, machine)) = w.device_graph(&inputs) {
            probed.insert(
                "graph.device_load_s",
                probes::device_load(&mut spans, iters, sg, &machine),
            );
        }
        spans.time("host.gauge", || gauge.read());
    }

    // Every host time of the timed region is a lower quartile over reps,
    // brought to nominal machine speed. Set-up and verification (graph
    // generation, sorting, host oracles) are reported as measured: across
    // two sets of ten samples between which the gauge slowed 1.0 -> 2.0,
    // raw set-up medians moved 2 to 6% and scaled ones 18 to 35%.
    let slowdown = gauge.slowdown();
    let speed = host::time_scale(w.memory_bound_share(), slowdown);
    let own: Vec<&RepCost> = costs.iter().filter(|c| c.threads == w.threads()).collect();
    let low = |f: &dyn Fn(&RepCost) -> f64| -> f64 {
        if own.is_empty() {
            0.0
        } else {
            lower_quartile(&own.iter().map(|c| f(c)).collect::<Vec<_>>())
        }
    };
    let (wall_raw, cpu_raw, setup_low) = (
        low(&|c| c.wall),
        low(&|c| c.cpu),
        lower_quartile(&setup_raw),
    );
    let wall_s = wall_raw * speed;
    let events = own.first().map_or(0, |c| c.events);
    let digest = first.as_ref().map_or(0, |f| {
        crate::workloads::Digest::new()
            .words(f.runs.iter().map(|r| r.digest))
            .finish()
    });

    let mut sample = Sample {
        workload: w.name(),
        attempted,
        failed,
        reps: costs.len(),
        digest,
        metrics: Vec::new(),
        raw: vec![
            ("machine_slowdown", slowdown),
            ("time_scale", speed),
            ("setup_s", setup_low),
            ("wall_s", wall_raw),
            ("cpu_s", cpu_raw),
        ],
        self_seconds: BTreeMap::new(),
        chrome_trace: None,
    };

    if !o.trace {
        let sim_ticks: u64 = first
            .as_ref()
            .map_or(0, |f| f.runs.iter().map(|r| r.sim_ticks).sum());
        let values: [f64; 7] = [
            setup_low,
            wall_s,
            cpu_raw * speed,
            if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            peak_rss_mb,
            median(
                &own.iter()
                    .map(|c| c.allocs as f64 / c.events.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
            sim_ticks as f64,
        ];
        sample.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.def.name, v, m.def.unit))
            .collect();
        return sample;
    }

    // Per-layer metrics: exact counts from the first rep, host timings
    // from the reps at the workload's own thread count, the layer probes,
    // and the estimates that combine them.
    let mut layer = first.as_ref().map(|f| f.exact.clone()).unwrap_or_default();
    let mut keys: Vec<&'static str> = own.iter().flat_map(|c| c.timed.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let xs: Vec<f64> = own
            .iter()
            .filter_map(|c| c.timed.get(key).copied())
            .collect();
        let scale = if is_host_time(key) { speed } else { 1.0 };
        layer.insert(key, lower_quartile(&xs) * scale);
    }
    for key in ["graph.generate_s", "graph.preprocess_s"] {
        let xs: Vec<f64> = setup_layers
            .iter()
            .filter_map(|l| l.get(key).copied())
            .collect();
        if !xs.is_empty() {
            layer.insert(key, lower_quartile(&xs));
        }
    }
    if let Some(&edges) = setup_layers[0].get("graph.edges") {
        layer.insert("graph.edges", edges);
        layer.insert(
            "graph.generate_edges_per_s",
            edges / layer["graph.generate_s"],
        );
    }
    layer.insert("apps.verify_s", verify_raw);
    layer.insert("host.machine_slowdown", slowdown);
    layer.insert("host.wall_raw_s", wall_raw);
    // The probes are simulator code whatever the workload.
    let probe_scale = host::time_scale(PROBE_MEMORY_BOUND_SHARE, slowdown);
    layer.extend(probed.into_iter().map(|(k, v)| (k, v * probe_scale)));

    let get = |l: &Layer, k: &str| l.get(k).copied().unwrap_or(0.0);
    if events > 0 && wall_s > 0.0 {
        let (events, wall_ns) = (events as f64, wall_s * 1e9);
        layer.insert("sim.engine.ns_per_event", wall_ns / events);
        layer.insert(
            "sim.calendar.est_share",
            get(&layer, "sim.calendar.ns_per_op") * events / wall_ns,
        );
        layer.insert(
            "sim.memory.est_share",
            get(&layer, "sim.memory.dram_ns_per_access") * get(&layer, "sim.memory.dram_accesses")
                / wall_ns,
        );
        let transit = match w.topology() {
            TopologyKind::Uniform => "sim.network.transit_ns.uniform",
            TopologyKind::Torus => "sim.network.transit_ns.torus",
            TopologyKind::Dragonfly => "sim.network.transit_ns.dragonfly",
            TopologyKind::Polar => "sim.network.transit_ns.polar",
        };
        layer.insert(
            "sim.network.est_share",
            get(&layer, transit) * get(&layer, "sim.network.msgs_inter_node") / wall_ns,
        );
    }
    if compares_threads {
        let t1: Vec<f64> = costs
            .iter()
            .filter(|c| c.threads == 1)
            .map(|c| c.wall)
            .collect();
        if !t1.is_empty() && wall_raw > 0.0 {
            layer.insert("sim.engine.par_speedup_t2", lower_quartile(&t1) / wall_raw);
        }
        // The speed-up this machine and this workload's skew allow:
        // min(cores, shards / imbalance), capped by the threads asked for.
        let imbalance = get(&layer, "sim.engine.imbalance").max(1.0);
        let shards = w
            .device_graph(&inputs)
            .map_or(1.0, |(_, m)| f64::from(m.nodes));
        layer.insert(
            "sim.engine.par_cap",
            (host::host_cores() as f64)
                .min(shards / imbalance)
                .min(f64::from(w.threads())),
        );
    }
    let walls = |recorded: bool| -> Vec<f64> {
        own.iter()
            .filter(|c| c.recorded == recorded)
            .map(|c| c.wall)
            .collect()
    };
    let (on, off) = (walls(true), walls(false));
    if !on.is_empty() && !off.is_empty() {
        layer.insert(
            "trace_overhead_ratio",
            lower_quartile(&on) / lower_quartile(&off),
        );
    }
    spans.end();

    sample.metrics = PER_LAYER
        .iter()
        .map(|d| (d.name, get(&layer, d.name), d.unit))
        .collect();
    sample.self_seconds = spans.self_seconds();
    sample.chrome_trace = Some(spans.chrome_trace_json(w.name()));
    sample
}
