//! End-to-end tests of `udspec`: the applications' declared-effects specs
//! analyze clean with zero simulation ticks, the seeded-defect fixtures
//! are flagged statically, runtime enforcement agrees with the
//! declarations (and is byte-identical across host thread counts), and a
//! deliberately wrong spec is caught by checking the probe's report after
//! the run.

use integration_tests::fnv1a;
use udcheck::apps::{spec_app, spec_for, ALL_APPS};
use udcheck::spec::{spm_blowup_fixture, wait_cycle_fixture};
use udcheck::{render_spec_document, Finding, Report, Severity, SpecAnalysis};
use updown_sim::json::JsonValue;
use updown_sim::spec::check_report;
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId, ProtocolProbe};

const SEED: u64 = 10;

fn caps() -> MachineConfig {
    MachineConfig::small(2, 2, 8)
}

/// Every application's spec analyzes clean — statically, from the
/// declarations alone. No engine is constructed anywhere in this test.
#[test]
fn all_app_specs_are_statically_clean() {
    for app in ALL_APPS {
        let a = SpecAnalysis::of(app, &spec_for(app), &caps());
        assert!(
            a.is_clean(),
            "{app}: static spec findings:\n{}",
            a.render_text()
        );
        assert!(a.n_events > 0, "{app}: empty spec");
    }
}

/// The seeded wait-for-cycle fixture is flagged as an error with zero
/// simulation ticks.
#[test]
fn wait_cycle_fixture_is_flagged() {
    let a = SpecAnalysis::of("fixture", &wait_cycle_fixture(), &caps());
    assert!(!a.is_clean());
    assert!(
        a.findings
            .iter()
            .any(|f| f.check == "wait-cycle" && f.severity == Severity::Error),
        "findings: {:?}",
        a.findings
    );
}

/// The seeded resource-blowup fixture is flagged against both per-lane
/// capacities (thread table and scratchpad), again with zero ticks.
#[test]
fn spm_blowup_fixture_is_flagged() {
    let a = SpecAnalysis::of("fixture", &spm_blowup_fixture(), &caps());
    assert!(!a.is_clean());
    for check in ["spm-bound-capacity", "thread-bound-capacity"] {
        assert!(
            a.findings
                .iter()
                .any(|f| f.check == check && f.severity == Severity::Error),
            "missing {check} in {:?}",
            a.findings
        );
    }
}

/// Run `app` at conformance scale and check its probe's report against its
/// spec, as `repro spec --enforce` does; return the full observed-vs-declared
/// report, which may hold no error.
fn enforce(app: &str, threads: u32) -> Vec<Finding> {
    let findings = spec_app(app, threads, SEED, true)
        .enforced
        .expect("--enforce records an observed-vs-declared report");
    assert!(
        findings.iter().all(|f| f.severity != Severity::Error),
        "{app}: spec violations at --threads {threads}: {findings:?}"
    );
    findings
}

/// Observed behavior of every app matches its declarations at runtime.
#[test]
fn all_apps_enforce_clean() {
    for app in ALL_APPS {
        let findings = enforce(app, 2);
        assert!(
            findings
                .iter()
                .all(|f| f.severity != Severity::Error),
            "{app}: enforcement errors: {findings:?}"
        );
    }
}

/// Enforcement findings are byte-identical across host thread counts —
/// the probe summary is commutative and `check_report` is deterministic.
#[test]
fn enforcement_is_thread_count_invariant() {
    let base = format!("{:?}", enforce("ingest", 1));
    for threads in [2, 4] {
        let got = format!("{:?}", enforce("ingest", threads));
        assert_eq!(base, got, "ingest enforcement diverged at --threads {threads}");
    }
}

/// A deliberately wrong spec is caught after the run: the engine runs
/// with only a probe attached, and `check_report` on the probe's report
/// finds the deviations as error findings — the one enforcement path,
/// shared by `repro spec --enforce` and `repro --spec`.
#[test]
fn engine_enforcement_catches_a_lying_spec() {
    let mut spec = updown_sim::ProgramSpec::new();
    // The handler will receive one operand and terminate; the spec claims
    // three operands and no terminate edge.
    spec.thread("fixture").event("victim").args(3, 3);
    let probe = ProtocolProbe::new();
    let mut mc = caps();
    mc.probe = Some(probe.clone());
    let mut eng = Engine::new(mc.clone());
    let l = udweave::simple_event(&mut eng, "fixture::victim", |ctx| {
        let _ = ctx.arg(0);
        ctx.yield_terminate();
    });
    eng.send(EventWord::new(NetworkId(0), l), [7u64], EventWord::IGNORE);
    eng.run();
    let report = probe.snapshot();
    assert!(report.diagnostics.is_empty(), "no protocol violation: {:?}", report.diagnostics);
    let findings = check_report(&spec, &report, mc.max_threads_per_lane, mc.spm_words);
    let errors: Vec<&str> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| f.check)
        .collect();
    for check in ["arity-mismatch", "undeclared-terminate"] {
        assert!(errors.contains(&check), "missing {check} in {findings:?}");
    }
}

/// The full `udspec/v1` document over all five apps at seed 10, static and
/// with `--enforce`, hashes to the value this test produced at commit
/// bffb298, when `udspec` was a binary of its own, and is the same at one
/// and at four worker threads.
#[test]
fn udspec_document_bytes_are_those_of_the_udspec_binary() {
    for (enforce, golden) in [(false, 0xC3F4_54AB_7AF1_DE30), (true, 0xCE6C_1229_095F_1840)] {
        for threads in [1, 4] {
            let analyses: Vec<SpecAnalysis> = ALL_APPS
                .iter()
                .map(|app| spec_app(app, threads, SEED, enforce))
                .collect();
            let doc = render_spec_document(&analyses);
            assert_eq!(
                fnv1a(doc.as_bytes()),
                golden,
                "enforce={enforce} threads={threads}: document moved:\n{doc}"
            );
        }
    }
}

/// The `udspec/v1` document round-trips as JSON and carries the schema,
/// certification and findings fields the CI job consumes.
#[test]
fn spec_document_round_trips_as_json() {
    let analyses: Vec<SpecAnalysis> = ["pagerank", "bfs"]
        .iter()
        .map(|app| SpecAnalysis::of(app, &spec_for(app), &caps()))
        .collect();
    let doc = render_spec_document(&analyses);
    let v = JsonValue::parse(&doc).expect("valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udspec/v1"));
    assert!(matches!(v.get("clean"), Some(JsonValue::Bool(true))));
    assert_eq!(v.get("errors").and_then(|e| e.as_u64()), Some(0));
    let specs = v.get("specs").and_then(|s| s.as_arr()).unwrap();
    assert_eq!(specs.len(), 2);
    for s in specs {
        assert!(s.get("certification").is_some());
        assert!(s.get("findings").and_then(|f| f.as_arr()).is_some());
    }
}

/// The declared-spec Graphviz renderer (`repro spec --dot`) emits one cluster
/// per thread class, a node per declared event, and distinguishes send
/// edges (fanout labels) from same-thread resumptions (dashed). Output is
/// deterministic — it feeds byte-compared CI artifacts.
#[test]
fn spec_renders_as_deterministic_dot() {
    use udcheck::spec::spec_to_dot;
    for app in ALL_APPS {
        let spec = spec_for(app);
        let d1 = spec_to_dot(&spec, app);
        let d2 = spec_to_dot(&spec, app);
        assert_eq!(d1, d2, "{app}: dot output not deterministic");
        assert!(d1.starts_with(&format!("digraph \"{app}\"")), "{app}");
        assert!(d1.contains("subgraph cluster_0"), "{app}: no clusters");
        assert!(d1.contains("->"), "{app}: no edges");
        let n_nodes = d1.matches("label=\"").count();
        assert!(n_nodes > spec.events().count(), "{app}: nodes missing");
    }
    // Host-injected events render doubled; resume edges render dashed.
    let pr = spec_to_dot(&spec_for("pagerank"), "pagerank");
    assert!(pr.contains("peripheries=2"), "no host-injected marker");
    assert!(pr.contains("style=dashed"), "no resume edges");
    assert!(pr.contains(" cont"), "no continuation-wait labels");
}
