//! The one driver every simulated run of `repro` goes through.

use std::time::Instant;

use updown_apps::ingest::{IngestConfig, IngestResult};
use updown_apps::partial_match::{PmConfig, PmResult};
use updown_apps::{BfsConfig, BfsResult, PrConfig, PrResult, TcConfig, TcResult};
use updown_sim::{ChromeTrace, MachineConfig, Metrics, ProgramSpec};

use crate::cli::{Cli, Exporter, Gates, Surface};
use crate::timing::fmt_rate;

/// An app's config and result, as [`Sweep::run`] drives them.
pub trait Job {
    type Out;
    /// The protocol `--spec` holds the run to.
    fn spec() -> ProgramSpec;
    fn machine(&mut self) -> &mut MachineConfig;
    fn set_trace(&mut self, on: bool);
    /// The run's metrics and, when it was traced, its Chrome trace.
    fn report(out: &Self::Out) -> (&Metrics, Option<&ChromeTrace>);
}

macro_rules! job {
    ($($app:ident: $cfg:ty => $out:ty),*) => {$(
        impl Job for $cfg {
            type Out = $out;
            fn spec() -> ProgramSpec { updown_apps::$app::spec() }
            fn machine(&mut self) -> &mut MachineConfig { &mut self.machine }
            fn set_trace(&mut self, on: bool) { self.trace = on; }
            fn report(out: &$out) -> (&Metrics, Option<&ChromeTrace>) { (&out.report, out.trace_json.as_ref()) }
        }
    )*};
}

job!(pagerank: PrConfig => PrResult, bfs: BfsConfig => BfsResult, tc: TcConfig => TcResult,
    ingest: IngestConfig => IngestResult, partial_match: PmConfig => PmResult);

/// Owns the observer [`Gates`] and the [`Exporter`] of one `repro` run.
pub struct Sweep {
    gates: Gates,
    exporter: Exporter,
    failed: bool,
}

impl Sweep {
    /// The observers and exports `surface` reads from the command line.
    pub fn from_cli(cli: &Cli, surface: &Surface) -> Sweep {
        let gates = if surface.gates { Gates::from_cli(cli) } else { Gates::default() };
        let exporter = if surface.export { Exporter::from_cli(cli) } else { Exporter::default() };
        Sweep { gates, exporter, failed: false }
    }

    /// Arm `job`, trace it while the first export is pending, time `run` on
    /// it, export it if first, and print its host rate to stderr (stdout is
    /// diffed as a conformance check). Returns the result and host seconds.
    pub fn run<J: Job>(&mut self, label: &str, job: &mut J, run: impl FnOnce(&J) -> J::Out) -> (J::Out, f64) {
        self.gates.arm(label, &J::spec(), job.machine());
        job.set_trace(self.exporter.want_trace());
        let t0 = Instant::now();
        let out = run(job);
        let secs = t0.elapsed().as_secs_f64();
        let (metrics, trace) = J::report(&out);
        self.exporter.export(label, metrics, trace);
        let rate = fmt_rate(metrics.stats.events_executed, secs);
        eprintln!("  {label}: {} ticks, {rate} host", metrics.final_tick);
        (out, secs)
    }

    /// Report a failed check of the subcommand's own: exit status 1.
    pub fn fail(&mut self, msg: &str) {
        eprintln!("{msg}");
        self.failed = true;
    }

    /// Report what the observers found; exit 1 if they or a check did.
    pub fn finish(&self) {
        if self.gates.dirty() | self.failed {
            std::process::exit(1);
        }
    }
}
