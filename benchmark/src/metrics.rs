//! The names every later change quotes. `BENCHMARK.json` repeats these
//! tables (the package's test holds the two in step); the README explains
//! each metric.
//!
//! Two clocks: *host* is what the simulator costs to run, *sim* is what
//! the modelled machine would take. A change that only speeds the
//! simulator must leave every `exact` metric bit-identical for a seed.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Repeats bit for bit for a given seed at any commit that does not
    /// change the machine model.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Host,
        better,
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Sim,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

/// What a user of the system waits for or pays; every workload reports
/// all of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        def: host("setup_s", "s", Lower),
        bound: 0.25,
    },
    EndToEnd {
        def: host("wall_s", "s", Lower),
        bound: 0.25,
    },
    EndToEnd {
        def: host("cpu_s", "s", Lower),
        bound: 0.25,
    },
    EndToEnd {
        def: host("host_events_per_s", "1/s", Higher),
        bound: 0.25,
    },
    EndToEnd {
        def: host("peak_rss_mb", "MB", Lower),
        bound: 0.2,
    },
    EndToEnd {
        def: host("allocs_per_event", "count", Lower),
        bound: 0.05,
    },
    EndToEnd {
        def: sim("sim_ticks", "ticks", Lower),
        bound: 0.25,
    },
];

/// Single-layer metrics, reported by the traced sample. A metric whose
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim.engine
    sim("sim.engine.events", "count", Lower),
    sim("sim.engine.windows", "count", Lower),
    sim("sim.engine.events_per_window", "count", Higher),
    host("sim.engine.ns_per_event", "ns", Lower),
    sim("sim.engine.peak_calendar", "count", Lower),
    sim("sim.engine.imbalance", "ratio", Lower),
    host("sim.engine.barrier_rounds", "count", Lower),
    host("sim.engine.batched_windows", "count", Higher),
    host("sim.engine.steals", "count", Higher),
    host("sim.engine.idle_spins", "count", Lower),
    host("sim.engine.window_ns", "ns", Lower),
    host("sim.engine.par_speedup_t2", "ratio", Higher),
    host("sim.engine.par_cap", "ratio", Higher),
    // sim.calendar
    host("sim.calendar.ns_per_op", "ns", Lower),
    host("sim.calendar.est_share", "ratio", Lower),
    // sim.lane
    host("sim.lane.dispatch_ns", "ns", Lower),
    host("sim.lane.fanout_ns", "ns", Lower),
    sim("sim.lane.utilization", "ratio", Higher),
    sim("sim.lane.threads_created", "count", Lower),
    sim("sim.lane.thread_table_stalls", "count", Lower),
    // sim.memory
    host("sim.memory.translate_ns", "ns", Lower),
    host("sim.memory.dram_ns_per_access", "ns", Lower),
    sim("sim.memory.dram_accesses", "count", Lower),
    sim("sim.memory.dram_bytes", "B", Lower),
    sim("sim.memory.dram_remote_accesses", "count", Lower),
    host("sim.memory.est_share", "ratio", Lower),
    // sim.network
    host("sim.network.transit_ns.uniform", "ns", Lower),
    host("sim.network.transit_ns.torus", "ns", Lower),
    host("sim.network.transit_ns.dragonfly", "ns", Lower),
    host("sim.network.transit_ns.polar", "ns", Lower),
    host("sim.network.nic_inject_ns", "ns", Lower),
    sim("sim.network.msgs_inter_node", "count", Lower),
    sim("sim.network.msgs_intra_node", "count", Lower),
    sim("sim.network.msgs_intra_accel", "count", Lower),
    sim("sim.network.msgs_dropped", "count", Lower),
    sim("sim.network.link_bytes", "B", Lower),
    sim("sim.network.peak_link_gbps", "GB/s", Lower),
    sim("sim.network.peak_link_utilization", "ratio", Lower),
    host("sim.network.est_share", "ratio", Lower),
    // sim.stats, sim.trace, sim.probe, sim.spec, sim.race, sim.snapshot
    host("sim.stats.to_json_s", "s", Lower),
    sim("sim.stats.json_bytes", "B", Lower),
    host("sim.trace.overhead_ratio", "ratio", Lower),
    host("sim.trace.chrome_export_s", "s", Lower),
    sim("sim.trace.events", "count", Lower),
    host("sim.probe.overhead_ratio", "ratio", Lower),
    host("sim.spec.enforce_overhead_ratio", "ratio", Lower),
    host("sim.race.overhead_ratio", "ratio", Lower),
    host("sim.race.ns_per_event", "ns", Lower),
    sim("sim.snapshot.bytes", "B", Lower),
    host("sim.snapshot.write_s", "s", Lower),
    host("sim.snapshot.restore_s", "s", Lower),
    host("sim.snapshot.checkpoint_overhead_ratio", "ratio", Lower),
    // kvmsr
    sim("kvmsr.ticks.map", "ticks", Lower),
    sim("kvmsr.ticks.reduce", "ticks", Lower),
    sim("kvmsr.ticks.epilogue", "ticks", Lower),
    sim("kvmsr.jobs", "count", Lower),
    sim("kvmsr.map_tasks", "count", Lower),
    // graph
    host("graph.generate_s", "s", Lower),
    host("graph.generate_edges_per_s", "1/s", Higher),
    host("graph.preprocess_s", "s", Lower),
    sim("graph.edges", "count", Lower),
    host("graph.device_load_s", "s", Lower),
    // apps
    host("apps.pr.wall_s", "s", Lower),
    host("apps.bfs.wall_s", "s", Lower),
    host("apps.tc.wall_s", "s", Lower),
    host("apps.ingest.wall_s", "s", Lower),
    host("apps.pm.wall_s", "s", Lower),
    sim("apps.pr.sim_gups", "G/s", Higher),
    sim("apps.bfs.sim_gteps", "G/s", Higher),
    sim("apps.bfs.rounds", "count", Lower),
    sim("apps.tc.triangles", "count", Lower),
    sim("apps.ingest.sim_mrecords_per_s", "M/s", Higher),
    sim("apps.ingest.phase1_ticks", "ticks", Lower),
    sim("apps.ingest.phase2_ticks", "ticks", Lower),
    sim("apps.pm.mean_latency_ticks", "ticks", Lower),
    sim("apps.pm.p99_latency_ticks", "ticks", Lower),
    host("apps.verify_s", "s", Lower),
    // analysis
    host("analysis.udcheck_s", "s", Lower),
    host("analysis.udrace_s", "s", Lower),
    host("analysis.udrace.pagerank_s", "s", Lower),
    host("analysis.udrace.bfs_s", "s", Lower),
    host("analysis.udspec_s", "s", Lower),
    host("analysis.udcost_s", "s", Lower),
    sim("analysis.udcost.worst_factor", "ratio", Lower),
    sim("analysis.findings", "count", Lower),
    // the benchmark's own recorder and machine-speed gauge
    host("trace_overhead_ratio", "ratio", Lower),
    host("host.machine_slowdown", "ratio", Lower),
    host("host.wall_raw_s", "s", Lower),
];

/// Whether a metric must repeat bit for bit for a seed. The scheduler
/// counters from `Metrics::host_sched` are counts but depend on thread
/// timing once more than one worker runs, so they are host-clock and not
/// exact.
pub fn is_exact(name: &str) -> bool {
    name == "sim_ticks" || PER_LAYER.iter().any(|d| d.name == name && d.exact)
}
