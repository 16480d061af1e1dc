//! Cross-layer observability tests: the event trace must have zero
//! observer effect on the simulation, and the exported Chrome-trace /
//! metrics JSON must round-trip through the in-repo parser with sane
//! track structure.

use updown_apps::bfs::{run_bfs, BfsConfig, BfsResult};
use updown_apps::pagerank::{run_pagerank, PrConfig, PrResult};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, shuffle_ids, split_in_out};
use updown_graph::Csr;
use updown_sim::json::JsonValue;
use updown_sim::MachineConfig;

fn small_pr(trace: bool) -> PrResult {
    let el = rmat(5, RmatParams::default(), 3);
    let (sh, _) = shuffle_ids(&el, 5);
    let sg = split_in_out(&Csr::from_edges(&sh), 64);
    let mut cfg = PrConfig::new(2);
    cfg.machine = MachineConfig::small(2, 2, 4);
    cfg.iterations = 2;
    cfg.trace = trace;
    run_pagerank(&sg, &cfg)
}

fn small_bfs(trace: bool) -> BfsResult {
    let el = rmat(5, RmatParams::default(), 3);
    let g = Csr::from_edges(&dedup_sort(el.symmetrize()));
    let mut cfg = BfsConfig::new(2, 0);
    cfg.machine = MachineConfig::small(2, 2, 4);
    cfg.trace = trace;
    run_bfs(&g, &cfg)
}

/// Tracing must not perturb simulated time, counters, phases, or results:
/// the whole metrics document — every cycle count in it — is byte-equal.
#[test]
fn tracing_has_zero_observer_effect() {
    let off = small_pr(false);
    let on = small_pr(true);
    assert!(off.trace_json.is_none());
    assert!(on.trace_json.is_some());
    assert_eq!(off.final_tick, on.final_tick);
    assert_eq!(off.values, on.values);
    assert_eq!(off.report.to_json(), on.report.to_json());

    let off = small_bfs(false);
    let on = small_bfs(true);
    assert_eq!(off.final_tick, on.final_tick);
    assert_eq!(off.dist, on.dist);
    assert_eq!(off.report.to_json(), on.report.to_json());
}

/// The Chrome trace parses back, and every lane track's busy spans are
/// monotone and non-overlapping (a lane runs one handler at a time).
#[test]
fn chrome_trace_round_trips_with_monotone_lane_spans() {
    let r = small_pr(true);
    let v = JsonValue::parse(&r.trace_json.as_ref().unwrap().to_json()).expect("valid JSON");
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!evs.is_empty());

    let final_us = r.final_tick as f64 / (small_pr_clock_ghz() * 1000.0);
    let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> = Default::default();
    let mut phase_names = std::collections::BTreeSet::new();
    for e in evs {
        let cat = e.get("cat").and_then(|c| c.as_str());
        if cat == Some("lane") {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            assert!(ts >= 0.0 && dur >= 0.0);
            assert!(ts + dur <= final_us + 1e-9, "span past the end of the run");
            let key = (
                e.get("pid").unwrap().as_u64().unwrap(),
                e.get("tid").unwrap().as_u64().unwrap(),
            );
            lanes.entry(key).or_default().push((ts, dur));
        } else if cat == Some("phase") {
            phase_names.insert(e.get("name").unwrap().as_str().unwrap().to_string());
        }
    }
    assert!(!lanes.is_empty(), "no lane spans recorded");
    for ((pid, tid), spans) in &lanes {
        let mut prev_end = -1.0f64;
        for (ts, dur) in spans {
            assert!(
                *ts >= prev_end - 1e-9,
                "overlapping spans on node {} lane {tid}",
                pid - 1
            );
            prev_end = ts + dur;
        }
    }
    // PageRank runs as KVMSR jobs: the machine track shows its phases.
    assert!(phase_names.contains("map"), "missing map phase: {phase_names:?}");
    assert!(phase_names.contains("reduce"));
}

fn small_pr_clock_ghz() -> f64 {
    MachineConfig::small(2, 2, 8).clock_ghz
}

/// The metrics document parses back with the documented schema and
/// internally consistent totals.
#[test]
fn metrics_json_round_trips() {
    let r = small_pr(true);
    let m = &r.report;
    let v = JsonValue::parse(&m.to_json()).expect("valid JSON");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("updown-metrics/v1"));
    assert_eq!(v.get("final_tick").unwrap().as_u64(), Some(r.final_tick));

    let nodes = v.get("nodes").unwrap().as_arr().unwrap();
    assert_eq!(nodes.len(), 2);
    for (i, n) in nodes.iter().enumerate() {
        assert_eq!(n.get("node").unwrap().as_u64(), Some(i as u64));
        let hist = n.get("lane_util_hist").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), updown_sim::UTIL_HIST_BUCKETS);
        let total: u64 = hist.iter().map(|b| b.as_u64().unwrap()).sum();
        assert_eq!(
            total,
            n.get("lanes").unwrap().as_u64().unwrap(),
            "every lane lands in exactly one utilization bucket"
        );
    }

    let phases = v.get("phases").unwrap().as_arr().unwrap();
    assert!(!phases.is_empty());
    for p in phases {
        let start = p.get("start").unwrap().as_u64().unwrap();
        let end = p.get("end").unwrap().as_u64().unwrap();
        assert!(start <= end && end <= r.final_tick);
    }
    assert!(m.phase_cycles().get("map").copied().unwrap_or(0) > 0);

    // KVMSR custom counters surface in the document.
    let jobs = v.get("custom").unwrap().get("kvmsr.jobs").unwrap().as_u64().unwrap();
    assert!(jobs >= 2, "2-iteration PageRank must run at least 2 KVMSR jobs");
}
