//! End-to-end tests of the `udcheck` static analyzer: every application is
//! protocol-clean at conformance scale (the regression net for the
//! `yield_terminate` fixes in tc / ingest / exact-match), and each static
//! check fires on an engine-level program that actually commits the
//! violation — not just on a synthetic [`ProbeReport`].

use integration_tests::fnv1a;
use kvmsr::{JobSpec, Kvmsr, Outcome};
use udcheck::apps::{check_app, ALL_APPS};
use udcheck::{analyze, Analysis, Finding, Severity};
use udweave::LaneSet;
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::exact_match::{run_exact_match, EmConfig, Query};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::partial_match::{run_partial_match, PmConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::Csr;
use updown_sim::json::JsonValue;
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId, ProtocolProbe};

const SEED: u64 = 10;

/// Conformance-scale machine with the probe attached, which arms the
/// sanitizer — the same configuration `repro check` runs.
fn machine(nodes: u32, threads: u32, probe: &ProtocolProbe) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m.probe = Some(probe.clone());
    m
}

fn assert_clean(a: &Analysis) {
    assert!(
        a.findings.is_empty(),
        "{}: unexpected findings:\n{}",
        a.app,
        a.findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        a.report.diagnostics.is_empty(),
        "{}: sanitizer diagnostics: {:?}",
        a.app,
        a.report.diagnostics
    );
    assert!(a.is_clean());
}

#[test]
fn pagerank_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), SEED)));
    let sg = split_in_out(&g, 64);
    let mut cfg = PrConfig::new(2);
    cfg.machine = machine(2, 2, &probe);
    cfg.iterations = 2;
    run_pagerank(&sg, &cfg);
    assert_clean(&Analysis::of("pagerank", &probe));
}

#[test]
fn bfs_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let g = Csr::from_edges(&dedup_sort(
        rmat(8, RmatParams::default(), SEED).symmetrize(),
    ));
    let mut cfg = BfsConfig::new(2, 0);
    cfg.machine = machine(2, 2, &probe);
    run_bfs(&g, &cfg);
    assert_clean(&Analysis::of("bfs", &probe));
}

/// Regression: tc's `tc_launcher_done` notification context used to leak
/// (missing `yield_terminate`), showing up as a never-terminates finding.
#[test]
fn tc_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let mut g = Csr::from_edges(&dedup_sort(
        rmat(7, RmatParams::default(), SEED).symmetrize(),
    ));
    g.sort_neighbors();
    let mut cfg = TcConfig::new(2);
    cfg.machine = machine(2, 2, &probe);
    run_tc(&g, &cfg);
    assert_clean(&Analysis::of("tc", &probe));
}

/// Regression: ingest's `phase2_done` notification context used to leak
/// (missing `yield_terminate`).
#[test]
fn ingest_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let ds = datagen::generate(250, 120, SEED);
    let mut cfg = IngestConfig::new(2);
    cfg.machine = machine(2, 2, &probe);
    run_ingest(&ds, &cfg);
    assert_clean(&Analysis::of("ingest", &probe));
}

#[test]
fn partial_match_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let ds = datagen::generate(200, 60, SEED);
    let mut cfg = PmConfig::new(8, vec![1, 2]);
    cfg.machine = machine(2, 2, &probe);
    cfg.batch = 16;
    cfg.interval = 200;
    cfg.feeders = 2;
    run_partial_match(&ds.records, &cfg);
    assert_clean(&Analysis::of("partial_match", &probe));
}

/// Regression: exact-match's `done` notification context used to leak
/// (missing `yield_terminate`).
#[test]
fn exact_match_is_protocol_clean() {
    let probe = ProtocolProbe::new();
    let ds = datagen::generate(150, 50, SEED);
    // Register queries matching a few real edge records so both the hit
    // and miss paths run.
    let queries: Vec<Query> = ds
        .records
        .iter()
        .filter(|r| r.rtype == 1)
        .take(4)
        .map(|r| Query {
            src: r.fields[0],
            dst: r.fields[1],
            etype: r.fields[2] as u16,
        })
        .collect();
    assert!(!queries.is_empty());
    let mut cfg = EmConfig::new(2);
    cfg.machine = machine(2, 2, &probe);
    run_exact_match(&ds.records, &queries, &cfg);
    assert_clean(&Analysis::of("exact_match", &probe));
}

#[test]
fn clean_document_round_trips_as_json() {
    let probe = ProtocolProbe::new();
    let ds = datagen::generate(100, 40, SEED);
    let mut cfg = IngestConfig::new(2);
    cfg.machine = machine(2, 1, &probe);
    run_ingest(&ds, &cfg);
    let a = Analysis::of("ingest", &probe);
    let doc = udcheck::render_document(std::slice::from_ref(&a));
    let v = JsonValue::parse(&doc).expect("valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udcheck/v1"));
    assert!(matches!(v.get("clean"), Some(JsonValue::Bool(true))));
    assert_eq!(v.get("errors").and_then(|e| e.as_u64()), Some(0));
    let runs = v.get("runs").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("app").and_then(|s| s.as_str()), Some("ingest"));
    assert!(runs[0]
        .get("graph")
        .and_then(|g| g.get("nodes"))
        .and_then(|n| n.as_arr())
        .map(|n| !n.is_empty())
        .unwrap());
}

/// The full `udcheck/v1` document over all five apps at seed 10 hashes to
/// the value this test produced at commit bffb298, when `udcheck` was a
/// binary of its own, and is the same at one and at four worker threads.
#[test]
fn udcheck_document_bytes_are_those_of_the_udcheck_binary() {
    for threads in [1, 4] {
        let analyses: Vec<Analysis> = ALL_APPS
            .iter()
            .map(|app| check_app(app, threads, SEED))
            .collect();
        let doc = udcheck::render_document(&analyses);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            0x5BBF_BB68_E4C6_300C,
            "threads={threads}: document moved:\n{doc}"
        );
    }
}

// ---------------------------------------------------------------------------
// Engine-level violation fixtures: each static check fires on a real run
// ---------------------------------------------------------------------------

/// Run an ad-hoc program with probe + sanitizer and return the findings.
fn findings_of(build: impl Fn(&mut Engine)) -> Vec<Finding> {
    let probe = ProtocolProbe::new();
    let mut eng = Engine::new(machine(2, 1, &probe));
    build(&mut eng);
    eng.run();
    analyze(&probe.snapshot())
}

fn has(findings: &[Finding], check: &str, severity: Severity) -> bool {
    findings
        .iter()
        .any(|f| f.check == check && f.severity == severity)
}

#[test]
fn never_terminates_is_an_error_on_a_drained_run() {
    let findings = findings_of(|eng| {
        let l = udweave::simple_event(eng, "fixture::immortal", |_ctx| {});
        eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
    });
    assert!(
        has(&findings, "never-terminates", Severity::Error),
        "got: {findings:?}"
    );
}

/// A second `run()` on one engine re-sweeps the lanes instead of adding
/// to the first sweep: one thread that never terminates is one leaked
/// thread and one `thread-leak-at-exit` site after any number of drained
/// runs.
#[test]
fn a_second_run_does_not_double_count_a_leak() {
    let probe = ProtocolProbe::new();
    let mut eng = Engine::new(machine(2, 1, &probe));
    let l = udweave::simple_event(&mut eng, "fixture::immortal", |_ctx| {});
    eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
    eng.run();
    let first = probe.snapshot();
    eng.run();
    let report = probe.snapshot();
    assert!(report.drained);
    assert_eq!(report.groups[&l.0].live_at_exit, 1);
    let leaks: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == updown_sim::DiagKind::ThreadLeakAtExit)
        .map(|d| d.detail.as_str())
        .collect();
    assert_eq!(
        leaks,
        ["1 thread(s) of this group still live after the run drained"]
    );
    assert_eq!(report.diagnostics, first.diagnostics);
}

#[test]
fn unread_continuation_is_an_error() {
    let findings = findings_of(|eng| {
        let reply = udweave::simple_event(eng, "fixture::reply", |_ctx| {});
        let sink = udweave::simple_event(eng, "fixture::sink", |ctx| ctx.yield_terminate());
        eng.send(
            EventWord::new(NetworkId(0), sink),
            [0u64; 0],
            EventWord::new(NetworkId(0), reply),
        );
    });
    assert!(
        has(&findings, "unread-continuation", Severity::Error),
        "got: {findings:?}"
    );
}

#[test]
fn operand_mismatch_is_an_error() {
    let findings = findings_of(|eng| {
        let l = udweave::simple_event(eng, "fixture::greedy", |ctx| {
            let _ = ctx.arg(3); // message carries a single operand
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), l), [7u64], EventWord::IGNORE);
    });
    assert!(
        has(&findings, "operand-mismatch", Severity::Error),
        "got: {findings:?}"
    );
}

#[test]
fn send_to_unregistered_label_is_an_error() {
    let findings = findings_of(|eng| {
        let l = udweave::simple_event(eng, "fixture::wild", |ctx| {
            ctx.send_event(
                EventWord::new(NetworkId(0), updown_sim::EventLabel(999)),
                [0u64; 0],
                EventWord::IGNORE,
            );
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
    });
    assert!(
        has(&findings, "send-unregistered", Severity::Error),
        "got: {findings:?}"
    );
}

/// A KVMSR job whose map tasks emit but never call `map_done` can never
/// complete; message conservation (`map_done` sends vs tasks spawned)
/// catches it as an error on the drained run.
#[test]
fn kvmsr_conservation_catches_a_map_that_never_retires() {
    let findings = findings_of(|eng| {
        let rt = Kvmsr::install(eng);
        let spec = JobSpec::new(
            "broken_map",
            LaneSet::new(NetworkId(0), 4),
            |ctx, task, rt| {
                rt.emit(ctx, task, task.key, &[1]);
                // Bug under test: stays Async and never calls map_done, so
                // the task is spawned but never retires.
                Outcome::Async
            },
        )
        .with_reduce(|_ctx, _task, _vals, _rt| Outcome::Done);
        let job = rt.define_job(eng, spec);
        let (evw, args) = rt.start_msg(eng, job, 4, 0);
        eng.send(evw, args, EventWord::IGNORE);
    });
    let f = findings
        .iter()
        .find(|f| f.check == "kvmsr-conservation")
        .unwrap_or_else(|| panic!("no kvmsr-conservation finding in {findings:?}"));
    assert_eq!(f.severity, Severity::Error);
    assert!(
        f.message.contains("only 0 map_done"),
        "unexpected message: {}",
        f.message
    );
}
