//! Workspace integration tests: full pipelines from generator through
//! preprocessing, device load, KVMSR execution, and oracle validation.

use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::tc::{run_tc, TcConfig, TcVariant};
use updown_graph::generators::{erdos_renyi, forest_fire, rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split, split_in_out};
use updown_graph::{algorithms, Csr};
use updown_sim::MachineConfig;

fn machine(nodes: u32) -> MachineConfig {
    MachineConfig::small(nodes, 2, 16)
}

#[test]
fn pagerank_full_pipeline_all_generators() {
    for (name, el) in [
        ("rmat", rmat(9, RmatParams::default(), 10)),
        ("er", erdos_renyi(9, 8, 10)),
        ("ff", forest_fire(9, 0.35, 10)),
    ] {
        let g = Csr::from_edges(&dedup_sort(el));
        let sg = split_in_out(&g, 64);
        let mut cfg = PrConfig::new(1);
        cfg.machine = machine(2);
        cfg.iterations = 2;
        let res = run_pagerank(&sg, &cfg);
        let oracle = algorithms::pagerank(&g, 2, cfg.damping);
        for (v, &ov) in oracle.iter().enumerate() {
            assert!(
                (res.values[v] - ov).abs() < 1e-9,
                "{name} v{v}: {} vs {}",
                res.values[v],
                oracle[v]
            );
        }
    }
}

#[test]
fn bfs_full_pipeline_many_roots() {
    let g = Csr::from_edges(&dedup_sort(rmat(9, RmatParams::default(), 11).symmetrize()));
    for root in [0u32, 7, 100] {
        let mut cfg = BfsConfig::new(1, root);
        cfg.machine = machine(2);
        let res = run_bfs(&g, &cfg);
        assert_eq!(res.dist, algorithms::bfs(&g, root), "root {root}");
    }
}

#[test]
fn tc_both_variants_agree_with_oracle() {
    let mut g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), 12).symmetrize()));
    g.sort_neighbors();
    let expect = algorithms::triangle_count(&g);
    for variant in [TcVariant::DualStream, TcVariant::SpdReuse] {
        let mut cfg = TcConfig::new(1);
        cfg.machine = machine(2);
        cfg.variant = variant;
        let res = run_tc(&g, &cfg);
        assert_eq!(res.triangles, expect, "{variant:?}");
    }
}

#[test]
fn determinism_across_runs() {
    let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), 13)));
    let sg = split(&g, 32);
    let run = || {
        let mut cfg = PrConfig::new(1);
        cfg.machine = machine(2);
        cfg.iterations = 1;
        let r = run_pagerank(&sg, &cfg);
        (r.final_tick, r.report.stats.events_executed)
    };
    assert_eq!(run(), run(), "identical inputs must simulate identically");
}

#[test]
fn results_independent_of_machine_shape() {
    // The machine is a performance parameter, never a correctness one.
    let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), 14).symmetrize()));
    let oracle = algorithms::bfs(&g, 3);
    for (nodes, accels, lanes) in [(1u32, 1u32, 8u32), (2, 2, 8), (4, 4, 4), (8, 2, 16)] {
        let mut cfg = BfsConfig::new(nodes, 3);
        cfg.machine = MachineConfig::small(nodes, accels, lanes);
        let res = run_bfs(&g, &cfg);
        assert_eq!(res.dist, oracle, "{nodes}x{accels}x{lanes}");
    }
}

#[test]
fn placement_affects_timing_not_results() {
    let g = Csr::from_edges(&dedup_sort(rmat(9, RmatParams::default(), 15)));
    let sg = split_in_out(&g, 64);
    let oracle = algorithms::pagerank(&g, 1, 0.85);
    let mut ticks = Vec::new();
    for mem_nodes in [1u32, 4] {
        let mut cfg = PrConfig::new(4);
        cfg.machine = machine(4);
        cfg.mem_nodes = Some(mem_nodes);
        cfg.iterations = 1;
        let res = run_pagerank(&sg, &cfg);
        for (v, &ov) in oracle.iter().enumerate() {
            assert!((res.values[v] - ov).abs() < 1e-9);
        }
        ticks.push(res.final_tick);
    }
    assert_ne!(ticks[0], ticks[1], "placement must affect timing");
}

#[test]
fn ingestion_then_partial_match_share_semantics() {
    use updown_apps::ingest::{datagen, expected_graph, run_ingest, IngestConfig};
    use updown_apps::partial_match::{run_partial_match, sequential_matches, PmConfig};

    let ds = datagen::generate(300, 150, 5);
    let mut icfg = IngestConfig::new(1);
    icfg.machine = machine(1);
    let ing = run_ingest(&ds, &icfg);
    let (ev, ee) = expected_graph(&ds.records);
    assert_eq!((ing.vertices, ing.edges), (ev, ee));

    let mut pcfg = PmConfig::new(8, vec![1, 2]);
    pcfg.machine = machine(1);
    pcfg.batch = 1;
    pcfg.interval = 40_000;
    pcfg.feeders = 1;
    let pm = run_partial_match(&ds.records, &pcfg);
    assert_eq!(pm.matches, sequential_matches(&ds.records, &[1, 2]));
}

#[test]
fn gups_and_gteps_are_sane() {
    let g = Csr::from_edges(&dedup_sort(rmat(10, RmatParams::default(), 16).symmetrize()));
    let sg = split_in_out(&g, 64);
    let mut cfg = PrConfig::new(2);
    cfg.machine = machine(2);
    cfg.iterations = 1;
    let pr = run_pagerank(&sg, &cfg);
    let gups = pr.gups(&cfg.machine);
    assert!(gups > 0.0 && gups < 10_000.0, "gups = {gups}");

    let mut bcfg = BfsConfig::new(2, 0);
    bcfg.machine = machine(2);
    let bfs = run_bfs(&g, &bcfg);
    let gteps = bfs.gteps(&bcfg.machine);
    assert!(gteps > 0.0 && gteps < 10_000.0, "gteps = {gteps}");
    assert!(bfs.traversed_edges > 0);
}

/// The calendar ring sizes itself to the machine's backlog: neither a
/// one-node PageRank nor a 16-node BFS on the bandwidth-scaled bench
/// machine — whose DRAM-channel queues run thousands of ticks ahead, past
/// the initial 2048-tick ring (RMAT scale 10 would still fit it, 11 does
/// not) — pushes a single entry into the binary-heap overflow rung. Read
/// through the host-only `Metrics::host_calendar`, which no metrics
/// document carries.
#[test]
fn app_runs_never_take_the_calendar_overflow_rung() {
    use updown_apps::harness::bench_machine;
    use updown_sim::calendar::{MAX_RING_BUCKETS, MIN_RING_BUCKETS};

    let g = Csr::from_edges(&dedup_sort(rmat(11, RmatParams::default(), 10)));
    let mut cfg = PrConfig::new(1);
    cfg.machine = bench_machine(1);
    cfg.iterations = 2;
    let pr = run_pagerank(&split_in_out(&g, 64), &cfg).report;
    assert_eq!(pr.host_calendar.rung_pushes, 0, "PageRank, 1 node");
    let width = pr.host_calendar.ring_width;
    assert!(
        width > MIN_RING_BUCKETS && width <= MAX_RING_BUCKETS,
        "the DRAM backlog should have grown the ring, within its cap: {width}"
    );
    assert!(!pr.to_json().contains("rung"), "host-only numbers stay out of the metrics JSON");

    let g = Csr::from_edges(&dedup_sort(rmat(10, RmatParams::default(), 11).symmetrize()));
    let mut cfg = BfsConfig::new(16, 0);
    cfg.machine = bench_machine(16);
    let bfs = run_bfs(&g, &cfg);
    assert_eq!(bfs.dist, algorithms::bfs(&g, 0));
    assert_eq!(bfs.report.host_calendar.rung_pushes, 0, "BFS, 16 nodes");
}

/// What a tracer or race probe keeps per pending entry lives beside the
/// slab and the cross-shard buffers, not inside their records, and a run
/// with neither attached never allocates it: a 16-node PageRank leaves
/// every side table and every exchange tag vector at zero capacity. The
/// same run traced does fill them.
#[test]
fn an_unobserved_run_allocates_no_observer_side_table() {
    let g = Csr::from_edges(&dedup_sort(rmat(9, RmatParams::default(), 10)));
    let sg = split_in_out(&g, 64);
    let mut cfg = PrConfig::new(16);
    cfg.machine = machine(16);
    cfg.machine.threads = 2;
    cfg.iterations = 2;
    let plain = run_pagerank(&sg, &cfg);
    assert!(
        plain.report.stats.msgs_inter_node > 1000,
        "the run must cross shards"
    );
    assert_eq!(plain.report.host_calendar.observer_tags, 0);

    cfg.trace = true;
    let traced = run_pagerank(&sg, &cfg);
    assert!(
        traced.report.host_calendar.observer_tags > 0,
        "a traced run tags its DRAM stages"
    );
    assert_eq!(
        traced.report.to_json(),
        plain.report.to_json(),
        "tracing moved the run"
    );
}
