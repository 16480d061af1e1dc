//! The five applications at conformance scale, and the per-app drivers
//! `repro`'s analyzer subcommands, the integration tests and the benchmark share. Each app
//! runs at the same tiny deterministic scale as
//! `tests/tests/conformance.rs`, so a clean bill here covers the exact
//! protocols the conformance matrix exercises.

use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::ingest::datagen::{self, Dataset};
use updown_apps::ingest::{run_ingest, IngestConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::partial_match::{run_partial_match, PmConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out, SplitGraph};
use updown_graph::Csr;
use updown_sim::spec::Workload;
use updown_sim::{MachineConfig, ProgramSpec, ProtocolProbe, RaceProbe};

use crate::{Analysis, RaceAnalysis, SpecAnalysis};

/// Canonical names of all five applications, in report order.
pub const ALL_APPS: &[&str] = &["pagerank", "bfs", "tc", "ingest", "partial_match"];

/// Canonicalize an app name from the command line (`pr`/`pm` aliases).
pub fn canon_app(app: &str) -> Option<&'static str> {
    match app {
        "pagerank" | "pr" => Some("pagerank"),
        "bfs" => Some("bfs"),
        "tc" => Some("tc"),
        "ingest" => Some("ingest"),
        "partial_match" | "pm" => Some("partial_match"),
        _ => None,
    }
}

/// Declared-effects protocol spec for an app (see `docs/udspec.md`).
/// `app` must be canonical (see [`canon_app`]).
///
/// # Panics
///
/// Panics on a non-canonical app name.
pub fn spec_for(app: &str) -> ProgramSpec {
    match app {
        "pagerank" => updown_apps::pagerank::spec(),
        "bfs" => updown_apps::bfs::spec(),
        "tc" => updown_apps::tc::spec(),
        "ingest" => updown_apps::ingest::spec(),
        "partial_match" => updown_apps::partial_match::spec(),
        other => panic!("unknown app '{other}' (use canon_app first)"),
    }
}

/// Instrumentation to attach to a conformance-scale run.
#[derive(Clone, Default)]
pub struct Probes {
    /// Protocol probe (event-flow summary), which also arms the runtime
    /// sanitizer; `repro check` always attaches one, `repro race` attaches one
    /// to build the flow graph for may-race.
    pub probe: Option<ProtocolProbe>,
    /// Race probe (happens-before detector).
    pub race: Option<RaceProbe>,
    /// No effect: attaching `probe` is what arms the sanitizer. Kept only
    /// because the frozen benchmark still sets it.
    pub sanitize: bool,
    /// No effect: a spec is enforced after the run, on the probe's report
    /// ([`SpecAnalysis::enforce`]). Kept only because the frozen benchmark
    /// still sets it.
    pub spec: Option<ProgramSpec>,
}

/// The conformance-scale machine: what every app below runs on, and whose
/// per-lane thread table and scratchpad certified bounds must fit.
pub fn conformance_machine() -> MachineConfig {
    MachineConfig::small(2, 2, 8)
}

/// The conformance machine on `threads` host threads with the probes attached.
fn machine(threads: u32, p: &Probes) -> MachineConfig {
    let mut m = conformance_machine();
    m.threads = threads;
    m.probe = p.probe.clone();
    m.race = p.race.clone();
    m
}

/// One app's conformance-scale input and configuration.
enum Case {
    Pagerank(SplitGraph, PrConfig),
    Bfs(Csr, BfsConfig),
    Tc(Csr, TcConfig),
    Ingest(Dataset, IngestConfig),
    PartialMatch(Dataset, PmConfig),
}

/// Build `app`'s deterministic input from `seed` and its configuration on
/// `machine` — the one place the conformance inputs are defined, so what
/// [`run_app`] simulates and what [`workload_for`] describes cannot drift.
///
/// # Panics
///
/// Panics on a non-canonical app name.
fn case(app: &str, seed: u64, machine: MachineConfig) -> Case {
    match app {
        "pagerank" => {
            let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), seed)));
            let mut cfg = PrConfig::new(2);
            cfg.machine = machine;
            cfg.iterations = 2;
            Case::Pagerank(split_in_out(&g, 64), cfg)
        }
        "bfs" => {
            let g = Csr::from_edges(&dedup_sort(
                rmat(8, RmatParams::default(), seed).symmetrize(),
            ));
            let mut cfg = BfsConfig::new(2, 0);
            cfg.machine = machine;
            Case::Bfs(g, cfg)
        }
        "tc" => {
            let mut g = Csr::from_edges(&dedup_sort(
                rmat(7, RmatParams::default(), seed).symmetrize(),
            ));
            g.sort_neighbors();
            let mut cfg = TcConfig::new(2);
            cfg.machine = machine;
            Case::Tc(g, cfg)
        }
        "ingest" => {
            let mut cfg = IngestConfig::new(2);
            cfg.machine = machine;
            Case::Ingest(datagen::generate(250, 120, seed), cfg)
        }
        "partial_match" => {
            let mut cfg = PmConfig::new(8, vec![1, 2]);
            cfg.machine = machine;
            cfg.batch = 16;
            cfg.interval = 200;
            cfg.feeders = 2;
            Case::PartialMatch(datagen::generate(200, 60, seed), cfg)
        }
        other => panic!("unknown app '{other}' (use canon_app first)"),
    }
}

/// Build the conformance-scale workload descriptor for one app: the inputs
/// of [`run_app`], fed to each app's `workload()` hook instead of its
/// simulator entry point. Returns the workload, the machine it describes,
/// and the app's declared spec — everything `repro cost` needs, with zero
/// simulation.
///
/// `app` must be canonical (see [`canon_app`]).
///
/// # Panics
///
/// Panics on a non-canonical app name.
pub fn workload_for(app: &str, threads: u32, seed: u64) -> (Workload, MachineConfig, ProgramSpec) {
    let mc = machine(threads, &Probes::default());
    let w = match case(app, seed, mc.clone()) {
        Case::Pagerank(sg, cfg) => updown_apps::pagerank::workload(&sg, &cfg),
        Case::Bfs(g, cfg) => updown_apps::bfs::workload(&g, &cfg),
        Case::Tc(g, cfg) => updown_apps::tc::workload(&g, &cfg),
        Case::Ingest(ds, cfg) => updown_apps::ingest::workload(&ds, &cfg),
        Case::PartialMatch(ds, cfg) => updown_apps::partial_match::workload(&ds.records, &cfg),
    };
    (w, mc, spec_for(app))
}

/// Run one app at conformance scale with the given probes attached.
/// `app` must be canonical (see [`canon_app`]).
///
/// # Panics
///
/// Panics on a non-canonical app name.
pub fn run_app(app: &str, threads: u32, seed: u64, probes: &Probes) {
    match case(app, seed, machine(threads, probes)) {
        Case::Pagerank(sg, cfg) => drop(run_pagerank(&sg, &cfg)),
        Case::Bfs(g, cfg) => drop(run_bfs(&g, &cfg)),
        Case::Tc(g, cfg) => drop(run_tc(&g, &cfg)),
        Case::Ingest(ds, cfg) => drop(run_ingest(&ds, &cfg)),
        Case::PartialMatch(ds, cfg) => drop(run_partial_match(&ds.records, &cfg)),
    }
}

/// `repro check`: run one app with the protocol probe (and so the sanitizer)
/// attached and analyze what the probe saw.
pub fn check_app(app: &str, threads: u32, seed: u64) -> Analysis {
    let probe = ProtocolProbe::new();
    let probes = Probes {
        probe: Some(probe.clone()),
        ..Probes::default()
    };
    run_app(app, threads, seed, &probes);
    Analysis::of(app, &probe)
}

/// `repro race`: run one app under the race detector, with a protocol probe
/// for the event-flow graph the may-race pass reads (and so the sanitizer
/// armed; see [`RaceAnalysis::with_flow`]).
pub fn race_app(app: &str, threads: u32, seed: u64) -> RaceAnalysis {
    let (flow, race) = (ProtocolProbe::new(), RaceProbe::new());
    let probes = Probes {
        probe: Some(flow.clone()),
        race: Some(race.clone()),
        ..Probes::default()
    };
    run_app(app, threads, seed, &probes);
    RaceAnalysis::with_flow(app, &race, &flow)
}

/// `repro spec`: statically analyze one app's declared spec against the
/// conformance machine's capacities; with `enforce`, also run the app with
/// a probe attached and record what [`SpecAnalysis::enforce`] finds in
/// its report.
pub fn spec_app(app: &str, threads: u32, seed: u64, enforce: bool) -> SpecAnalysis {
    let mc = conformance_machine();
    let spec = spec_for(app);
    let mut analysis = SpecAnalysis::of(app, &spec, &mc);
    if enforce {
        let probe = ProtocolProbe::new();
        let probes = Probes {
            probe: Some(probe.clone()),
            ..Probes::default()
        };
        run_app(app, threads, seed, &probes);
        analysis.enforce(&probe, &mc);
    }
    analysis
}
