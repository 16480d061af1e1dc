//! End-to-end tests of `udcost`: every app's workload descriptor yields a
//! static cost report with zero simulation ticks, the `udcost/v1` JSON
//! document is stable, and predictions calibrate against real conformance
//! runs within the advertised tolerance.

use udcheck::apps::{case, conformance_machine, workload_for, ALL_APPS};
use udcheck::{analyze_cost, calibrate, render_cost_document, CostReport};
use updown_sim::fnv1a;
use updown_sim::json::JsonValue;

const SEED: u64 = 10;

fn report_for(app: &str) -> CostReport {
    report_at(app, 1)
}

fn report_at(app: &str, threads: u32) -> CostReport {
    let (w, mc, spec) = workload_for(app, threads, SEED);
    analyze_cost(app, &spec, &w, &mc)
}

/// Every app yields a non-trivial static prediction — no engine is
/// constructed anywhere in this test.
#[test]
fn all_apps_produce_static_cost_reports() {
    for app in ALL_APPS {
        let r = report_for(app);
        assert!(r.is_clean(), "{app}: error findings: {:?}", r.findings);
        assert!(r.total_events > 100.0, "{app}: {} events", r.total_events);
        assert!(r.total_msgs > 0.0, "{app}: no messages predicted");
        assert!(r.total_bytes > 0.0, "{app}: no bytes predicted");
        assert_eq!(
            r.shard_hints().len(),
            r.nodes as usize,
            "{app}: one hint per node-shard"
        );
        assert!(
            r.events.iter().any(|e| e.pinned),
            "{app}: workload pinned nothing"
        );
    }
}

/// The udcost/v1 document is valid JSON with the advertised schema and is
/// byte-identical when regenerated from scratch.
#[test]
fn document_schema_and_determinism() {
    let reports: Vec<CostReport> = ALL_APPS.iter().map(|a| report_for(a)).collect();
    let d1 = render_cost_document(&reports);
    let reports2: Vec<CostReport> = ALL_APPS.iter().map(|a| report_for(a)).collect();
    let d2 = render_cost_document(&reports2);
    assert_eq!(d1, d2, "regenerated document differs");
    let v = JsonValue::parse(&d1).expect("valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udcost/v1"));
    let rs = v.get("reports").and_then(|r| r.as_arr()).expect("reports");
    assert_eq!(rs.len(), ALL_APPS.len());
    for r in rs {
        assert!(r.get("shard_hints").is_some());
        assert!(r.get("totals").is_some());
    }
}

/// The full `udcost/v1` document over all five apps at seed 10 hashes to
/// the value this test produced at commit bffb298, when `udcost` was a
/// binary of its own, and is the same for a one- and a four-thread machine.
#[test]
fn udcost_document_bytes_are_those_of_the_udcost_binary() {
    for threads in [1, 4] {
        let reports: Vec<CostReport> = ALL_APPS.iter().map(|a| report_at(a, threads)).collect();
        let doc = render_cost_document(&reports);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            0x549D_63E7_D53C_2C84,
            "threads={threads}: document moved:\n{doc}"
        );
    }
}

/// The static prediction lands within 2x of a real simulated run on
/// every calibrated counter (events, messages, inter-node traffic,
/// injected bytes, per-node imbalance), and its worst factor is pinned
/// exactly: a prediction or simulator change that moves it either way,
/// even inside 2x, has to say so here.
#[test]
fn pagerank_prediction_calibrates_within_2x() {
    let r = report_for("pagerank");
    let sim = case("pagerank", SEED, conformance_machine()).run();
    let cal = calibrate(&r, &sim.metrics().to_json()).expect("valid metrics export");
    let entries: Vec<String> = cal
        .entries
        .iter()
        .map(|e| format!("{} p={:.0} a={:.0} f={:.2}", e.counter, e.predicted, e.actual, e.factor))
        .collect();
    assert!(cal.within(2.0), "worst factor {:.2}x; entries: {entries:?}", cal.worst);
    assert_eq!(cal.worst, 1.6760231667253753, "worst factor drifted; entries: {entries:?}");
}

/// `calibrate` rejects non-metrics documents, and metrics exports whose
/// graded counters are missing, non-numeric or negative, instead of
/// comparing junk; the error names the counter.
#[test]
fn calibrate_rejects_foreign_schemas() {
    let r = report_for("pagerank");
    assert!(calibrate(&r, r#"{"schema":"udcost/v1"}"#).is_err());
    assert!(calibrate(&r, "{").is_err());
    let good = r#""events_executed":10,"total_msgs":8,"msgs_inter_node":4"#;
    for (counters, rest, named) in [
        (r#""total_msgs":8,"msgs_inter_node":4"#, "", "counters.events_executed"),
        (r#""events_executed":10,"total_msgs":"8","msgs_inter_node":4"#, "", "counters.total_msgs"),
        (r#""events_executed":10,"total_msgs":8,"msgs_inter_node":-4"#, "", "counters.msgs_inter_node"),
        (good, r#","fabric":{}"#, "fabric.nic_injected_bytes"),
        (good, r#","nodes":[{"events":6},{"events":-6}]"#, "nodes[1].events"),
    ] {
        let export = format!(r#"{{"schema":"updown-metrics/v1","counters":{{{counters}}}{rest}}}"#);
        let err = calibrate(&r, &export).expect_err(&export);
        assert!(err.contains(named), "{export}: {err}");
    }
    let export = format!(r#"{{"schema":"updown-metrics/v1","counters":{{{good}}}}}"#);
    assert!(calibrate(&r, &export).is_ok(), "{export}");
}
