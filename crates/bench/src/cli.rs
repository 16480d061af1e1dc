//! The unified command-line surface of the figure binaries.
//!
//! Every binary parses [`Cli`] and understands the shared flags in
//! [`StdOpts`] (`--nodes`, `--scale`, `--seed`, `--threads`, `--steal`,
//! `--window-batch`, `--trace`, `--metrics-json`, `--full`) on top of its
//! own specifics. The
//! [`Exporter`] turns the observability flags into files: when a binary
//! sweeps many configurations, the *first* simulated run is the one that
//! gets traced and exported — enough to inspect one representative run in
//! `chrome://tracing` without multi-gigabyte outputs.

use updown_sim::{
    DiagKind, MachineConfig, Metrics, ProgramSpec, ProtocolProbe, RaceProbe, SpecSeverity,
    TopologyKind,
};

/// Minimal flag parsing: `--key value` pairs plus positional args.
pub struct Cli {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Cli {
    pub fn parse() -> Cli {
        Self::from_args(std::env::args().skip(1))
    }

    pub fn from_args(args: impl IntoIterator<Item = String>) -> Cli {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                match args.peek() {
                    Some(v) if !v.starts_with("--") => {
                        pairs.push((key.to_string(), args.next().unwrap()));
                    }
                    _ => flags.push(key.to_string()),
                }
            } else {
                positional.push(a);
            }
        }
        Cli {
            positional,
            pairs,
            flags,
        }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// Last `--key value` occurrence parsed as `T`, `None` if absent.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }

    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key) || self.pairs.iter().any(|(k, _)| k == key)
    }
}

/// The flags every figure binary shares.
pub struct StdOpts {
    /// `--nodes` / legacy `--max-nodes`: top of the node sweep.
    pub max_nodes: u32,
    /// `--scale` / legacy `--scale-shift`: graph-scale shift vs defaults.
    pub scale_shift: i32,
    /// `--seed`: generator seed.
    pub seed: u64,
    /// `--threads`: simulator worker threads (1 = sequential engine).
    /// Results are byte-identical across values; only wall-clock changes.
    pub threads: u32,
    /// `--steal on|off`: work-stealing shard scheduling (default on).
    /// Scheduling-only; results are byte-identical either way.
    pub steal: bool,
    /// `--window-batch K`: max windows per barrier round under horizon
    /// batching (default 8; 1 disables). Results are byte-identical for
    /// every value.
    pub window_batch: u64,
    /// `--topology`: system-network topology (`uniform`, `polar`,
    /// `torus`, `dragonfly`). Results are byte-identical across thread
    /// counts for every value; `uniform` reproduces the pre-fabric model.
    pub topology: TopologyKind,
    /// `--full`: paper-sized sweep.
    pub full: bool,
    /// `--sanitize`: arm the runtime protocol sanitizer on every run
    /// (see [`Sanitizer`] and docs/udcheck.md).
    pub sanitize: bool,
    /// `--race`: arm the happens-before race detector on every run
    /// (see [`RaceGate`] and docs/udrace.md).
    pub race: bool,
    /// `--trace <path>` / `--metrics-json <path>` exporter.
    pub exporter: Exporter,
}

impl StdOpts {
    /// Parse the shared flags with per-binary defaults: `nodes_default`
    /// applies without `--full`, `nodes_full` with it (same for shift).
    pub fn parse(
        cli: &Cli,
        (nodes_default, nodes_full): (u32, u32),
        (shift_default, shift_full): (i32, i32),
    ) -> StdOpts {
        let full = cli.has("full");
        let max_nodes = cli
            .opt("nodes")
            .or_else(|| cli.opt("max-nodes"))
            .unwrap_or(if full { nodes_full } else { nodes_default });
        let scale_shift = cli
            .opt("scale")
            .or_else(|| cli.opt("scale-shift"))
            .unwrap_or(if full { shift_full } else { shift_default });
        StdOpts {
            max_nodes,
            scale_shift,
            seed: cli.get("seed", 0),
            threads: cli.get("threads", 1).max(1),
            steal: parse_on_off(cli, "steal", true),
            window_batch: cli.get::<u64>("window-batch", 8).max(1),
            topology: parse_topology(cli),
            full,
            sanitize: cli.has("sanitize"),
            race: cli.has("race"),
            exporter: Exporter::from_cli(cli),
        }
    }
}

/// Parse an `--key on|off` toggle (also accepts `true|false`/`1|0`; the
/// bare flag means "on"). Exits on anything else — a typo like
/// `--steal of` must not silently pick either setting.
pub fn parse_on_off(cli: &Cli, key: &str, default: bool) -> bool {
    match cli.opt::<String>(key) {
        None => {
            if cli.has(key) {
                true
            } else {
                default
            }
        }
        Some(v) => match v.as_str() {
            "on" | "true" | "1" => true,
            "off" | "false" | "0" => false,
            other => {
                eprintln!("--{key} {other}: expected on|off");
                std::process::exit(2);
            }
        },
    }
}

/// Apply the shared scheduler knobs (`--steal on|off`, `--window-batch K`)
/// to a machine built outside [`StdOpts::machine`] — the bins that parse
/// [`Cli`] directly share the same defaults this way.
pub fn sched_knobs(cli: &Cli, cfg: &mut MachineConfig) {
    cfg.steal = parse_on_off(cli, "steal", true);
    cfg.window_batch = cli.get::<u64>("window-batch", 8).max(1);
}

/// Parse `--topology`, exiting with the list of valid values on a bad
/// one (a silent fallback to the default would quietly benchmark the
/// wrong network).
pub fn parse_topology(cli: &Cli) -> TopologyKind {
    match cli.opt::<String>("topology") {
        None => TopologyKind::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("--topology {s}: {e}");
            std::process::exit(2);
        }),
    }
}

/// `--sanitize` support for the figure binaries: arms every simulated run
/// with [`MachineConfig::sanitize`] plus a fresh
/// [`ProtocolProbe`], then reports the collected
/// diagnostics at the end of `main`. Simulated results are unchanged for
/// violation-free programs (see docs/udcheck.md), so sanitized sweeps
/// reproduce the exact figures while cross-checking the event protocol.
pub struct Sanitizer {
    enabled: bool,
    runs: std::sync::Mutex<Vec<(String, ProtocolProbe)>>,
}

impl Sanitizer {
    pub fn from_cli(cli: &Cli) -> Sanitizer {
        Sanitizer {
            enabled: cli.has("sanitize"),
            runs: std::sync::Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arm `cfg` with the sanitizer and a fresh probe when `--sanitize`
    /// was given; `label` names the run in the final report.
    pub fn arm(&self, label: &str, cfg: &mut MachineConfig) {
        if !self.enabled {
            return;
        }
        let probe = ProtocolProbe::new();
        cfg.sanitize = true;
        cfg.probe = Some(probe.clone());
        self.runs.lock().unwrap().push((label.to_string(), probe));
    }

    /// Print every diagnostic recorded across the armed runs to stderr;
    /// returns whether any run reported a violation.
    pub fn dirty(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let runs = self.runs.lock().unwrap();
        let mut dirty = false;
        for (label, probe) in runs.iter() {
            for d in probe.diagnostics() {
                dirty = true;
                eprintln!(
                    "sanitizer[{}] {label}: {} — {} (x{}, first at tick {} lane {})",
                    d.kind.as_str(),
                    d.handler,
                    d.detail,
                    d.count,
                    d.first_tick,
                    d.lane
                );
            }
        }
        if !dirty {
            eprintln!("sanitizer: {} run(s), no protocol violations", runs.len());
        }
        dirty
    }

    /// Tail-of-`main` helper: report and exit non-zero on violations.
    pub fn exit_if_dirty(&self) {
        if self.dirty() {
            std::process::exit(1);
        }
    }
}

/// `--race` support for the figure binaries: arms every simulated run
/// with a fresh [`RaceProbe`] (the happens-before race detector, see
/// docs/udrace.md), then reports every unordered conflicting access pair
/// at the end of `main`. Like the sanitizer, the probe has zero observer
/// effect: simulated results and metrics are unchanged.
pub struct RaceGate {
    enabled: bool,
    runs: std::sync::Mutex<Vec<(String, RaceProbe)>>,
}

impl RaceGate {
    pub fn from_cli(cli: &Cli) -> RaceGate {
        RaceGate {
            enabled: cli.has("race"),
            runs: std::sync::Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arm `cfg` with a fresh race probe when `--race` was given; `label`
    /// names the run in the final report.
    pub fn arm(&self, label: &str, cfg: &mut MachineConfig) {
        if !self.enabled {
            return;
        }
        let probe = RaceProbe::new();
        cfg.race = Some(probe.clone());
        self.runs.lock().unwrap().push((label.to_string(), probe));
    }

    /// Print every race site recorded across the armed runs to stderr;
    /// returns whether any run reported a race (or overflowed the site
    /// cap, which hides potential races).
    pub fn dirty(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let runs = self.runs.lock().unwrap();
        let mut dirty = false;
        for (label, probe) in runs.iter() {
            let r = probe.snapshot();
            for s in &r.sites {
                dirty = true;
                eprintln!(
                    "udrace[{label}] '{}' races with '{}': {} (x{}, first at tick {} lane {})",
                    s.current, s.prior, s.detail, s.count, s.first_tick, s.lane
                );
            }
            if r.sites_truncated > 0 {
                dirty = true;
                eprintln!(
                    "udrace[{label}] warning: {} distinct site(s) dropped past the site cap",
                    r.sites_truncated
                );
            }
        }
        if !dirty {
            eprintln!("udrace: {} run(s), no races", runs.len());
        }
        dirty
    }

    /// Tail-of-`main` helper: report and exit non-zero on races.
    pub fn exit_if_dirty(&self) {
        if self.dirty() {
            std::process::exit(1);
        }
    }
}

/// `--spec` support for the figure binaries: arms every simulated run
/// with runtime protocol-spec enforcement
/// ([`MachineConfig::enforce_spec`] plus a fresh [`ProtocolProbe`]), then
/// reports every observed-vs-declared deviation at the end of `main`.
/// Like the sanitizer the probe has zero observer effect, so enforced
/// sweeps reproduce the exact figures; see docs/udspec.md.
pub struct SpecGate {
    enabled: bool,
    runs: std::sync::Mutex<Vec<(String, ProtocolProbe)>>,
}

impl SpecGate {
    pub fn from_cli(cli: &Cli) -> SpecGate {
        SpecGate {
            enabled: cli.has("spec"),
            runs: std::sync::Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arm `cfg` to enforce `spec` when `--spec` was given; `label` names
    /// the run in the final report. Reuses a probe another gate already
    /// attached (e.g. `--sanitize`) so both report from the same summary.
    pub fn arm(&self, label: &str, spec: &ProgramSpec, cfg: &mut MachineConfig) {
        if !self.enabled {
            return;
        }
        let probe = match &cfg.probe {
            Some(p) => p.clone(),
            None => {
                let p = ProtocolProbe::new();
                cfg.probe = Some(p.clone());
                p
            }
        };
        cfg.enforce_spec = Some(spec.clone());
        self.runs.lock().unwrap().push((label.to_string(), probe));
    }

    /// Print every spec violation recorded across the armed runs to
    /// stderr; returns whether any run deviated from its declarations.
    pub fn dirty(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let runs = self.runs.lock().unwrap();
        let mut dirty = false;
        for (label, probe) in runs.iter() {
            for d in probe.diagnostics() {
                if d.kind != DiagKind::SpecViolation {
                    continue;
                }
                dirty = true;
                eprintln!("udspec[{label}] {}: {} (x{})", d.handler, d.detail, d.count);
            }
        }
        if !dirty {
            eprintln!("udspec: {} run(s), no spec violations", runs.len());
        }
        dirty
    }

    /// Tail-of-`main` helper: report and exit non-zero on violations.
    pub fn exit_if_dirty(&self) {
        if self.dirty() {
            std::process::exit(1);
        }
    }
}

/// `--cost` support for the figure binaries: before each armed run,
/// predict its load and traffic statically with `udcost`
/// ([`udcheck::analyze_cost`]) and seed the parallel scheduler's shard
/// claim order with the prediction ([`MachineConfig::cost_hints`]), so
/// window 0 claims the predicted-heaviest shard first instead of
/// discovering the ranking one window late. Scheduling-only: simulated
/// results are byte-identical with hints on or off. At the end of `main`
/// the gate prints one prediction summary per run and exits non-zero if
/// any prediction carried error-severity findings; see docs/analysis.md.
pub struct CostGate {
    enabled: bool,
    runs: std::sync::Mutex<Vec<udcheck::CostReport>>,
}

impl CostGate {
    pub fn from_cli(cli: &Cli) -> CostGate {
        CostGate {
            enabled: cli.has("cost"),
            runs: std::sync::Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Predict the run `label` describes and seed `cfg.cost_hints` from
    /// the prediction. Callers gate the workload construction on
    /// [`CostGate::enabled`] (`cg.enabled().then(|| app::workload(..))`)
    /// so disabled sweeps pay nothing.
    pub fn arm(
        &self,
        label: &str,
        spec: &ProgramSpec,
        workload: Option<updown_sim::spec::Workload>,
        cfg: &mut MachineConfig,
    ) {
        let Some(w) = workload else { return };
        if !self.enabled {
            return;
        }
        let report = udcheck::analyze_cost(label, spec, &w, cfg);
        cfg.cost_hints = report.shard_hints();
        self.runs.lock().unwrap().push(report);
    }

    /// Print every prediction summary to stderr; returns whether any
    /// prediction carried an error-severity finding.
    pub fn dirty(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let runs = self.runs.lock().unwrap();
        let mut dirty = false;
        for r in runs.iter() {
            eprintln!(
                "udcost[{}]: predicted {:.0} events, {:.0} msgs \
                 ({:.0} inter-node), imbalance {:.2}x; hints {:?}",
                r.app,
                r.total_events,
                r.total_msgs,
                r.inter_node_msgs,
                r.imbalance,
                r.shard_hints()
            );
            for f in &r.findings {
                dirty |= f.severity == SpecSeverity::Error;
                eprintln!("udcost[{}] [{}] {}: {}", r.app, f.severity, f.check, f.message);
            }
        }
        dirty
    }

    /// Tail-of-`main` helper: report and exit non-zero on errors.
    pub fn exit_if_dirty(&self) {
        if self.dirty() {
            std::process::exit(1);
        }
    }
}

/// `--checkpoint` / `--restore` / `--checkpoint-every` support for the
/// figure binaries (see docs/checkpoint.md).
///
/// * `--checkpoint-every N` sets [`MachineConfig::checkpoint_every`] on
///   every armed run: the engine pauses every `N` scheduler windows,
///   snapshots, round-trips the snapshot and continues. Results are
///   byte-identical with checkpointing on or off.
/// * `--checkpoint <path>` additionally writes an `updown-snapshot/v2`
///   file at the first checkpoint boundary of the *first* armed run
///   (first-run-wins, like the [`Exporter`]). Defaults the cadence to 8
///   windows when `--checkpoint-every` is absent.
/// * `--restore <path>` re-drives the first armed run against the
///   snapshot: at the recorded window the engine byte-compares its live
///   state against the file, round-trips the decoder, and continues.
///   The header is validated up front so a bad path or corrupt file is a
///   clean CLI error. Defaults the cadence to the snapshot's window so
///   the boundary lands exactly once.
pub struct Checkpoint {
    every: u64,
    write_path: Option<String>,
    restore_path: Option<String>,
    /// First-run-wins: paths attach to the first armed run only.
    armed_paths: std::sync::atomic::AtomicBool,
}

impl Checkpoint {
    pub fn from_cli(cli: &Cli) -> Checkpoint {
        let write_path: Option<String> = cli.opt("checkpoint");
        let restore_path: Option<String> = cli.opt("restore");
        let mut every: u64 = cli.get("checkpoint-every", 0);
        if let Some(p) = &restore_path {
            // Validate the header up front: a missing or corrupt snapshot
            // should be a CLI error, not a mid-sweep panic.
            match updown_sim::snapshot::read_header(std::path::Path::new(p)) {
                Ok(h) => {
                    if every == 0 {
                        every = h.window.max(1);
                    } else if h.window % every != 0 {
                        eprintln!(
                            "--restore {p}: snapshot was taken at window {} which is not a \
                             multiple of --checkpoint-every {every}",
                            h.window
                        );
                        std::process::exit(2);
                    }
                }
                Err(e) => {
                    eprintln!("--restore {p}: {e}");
                    std::process::exit(2);
                }
            }
        }
        if write_path.is_some() && every == 0 {
            every = 8;
        }
        Checkpoint {
            every,
            write_path,
            restore_path,
            armed_paths: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// Arm `cfg` with the checkpoint cadence; the snapshot file paths
    /// (write or restore) attach to the first armed run only.
    pub fn arm(&self, cfg: &mut MachineConfig) {
        if self.every == 0 {
            return;
        }
        cfg.checkpoint_every = self.every;
        if !self.armed_paths.swap(true, std::sync::atomic::Ordering::Relaxed) {
            cfg.checkpoint_path = self.write_path.clone().map(Into::into);
            cfg.restore_path = self.restore_path.clone().map(Into::into);
        }
    }
}

/// `--record` / `--replay` support for the figure binaries (see
/// docs/checkpoint.md): `--record` makes every armed run capture its
/// cross-shard message schedule (measures recording overhead); `--replay`
/// additionally re-executes every shard of every recording in isolation
/// after the run and byte-compares the replayed event stream against the
/// recorded one, reporting divergences at the end of `main`.
pub struct ReplayGate {
    record: bool,
    check: Option<updown_sim::ReplayCheck>,
}

impl ReplayGate {
    pub fn from_cli(cli: &Cli) -> ReplayGate {
        let replay = cli.has("replay");
        ReplayGate {
            record: cli.has("record") || replay,
            check: replay.then(updown_sim::ReplayCheck::new),
        }
    }

    pub fn enabled(&self) -> bool {
        self.record
    }

    /// Arm `cfg` to record (and, under `--replay`, verify) the run.
    pub fn arm(&self, cfg: &mut MachineConfig) {
        if self.record {
            cfg.record = true;
        }
        if let Some(check) = &self.check {
            cfg.replay = Some(check.clone());
        }
    }

    /// Print the per-run replay verdicts to stderr; returns whether any
    /// replayed shard diverged from its recording.
    pub fn dirty(&self) -> bool {
        let Some(check) = &self.check else {
            return false;
        };
        let reports = check.reports();
        let mut dirty = false;
        for r in &reports {
            if r.ok() {
                eprintln!(
                    "replay[{}]: {} shard(s), {} window(s), {} event(s) — byte-identical",
                    r.label, r.shards, r.rounds, r.events
                );
            } else {
                dirty = true;
                for m in &r.mismatches {
                    eprintln!("replay[{}] DIVERGED: {m}", r.label);
                }
            }
        }
        if reports.is_empty() {
            eprintln!("replay: no runs verified");
        }
        dirty
    }

    /// Tail-of-`main` helper: report and exit non-zero on divergence.
    pub fn exit_if_dirty(&self) {
        if self.dirty() {
            std::process::exit(1);
        }
    }
}

/// Host-throughput annotation for sweep progress lines: simulated events
/// retired per *host* second, formatted via [`crate::timing::fmt_rate`].
///
/// This figure goes to stdout/stderr next to the simulated-cycle numbers
/// and is deliberately kept out of every metrics JSON: host throughput
/// varies run to run, while the metrics files are byte-compared across
/// engines and thread counts (see docs/perf.md).
pub fn host_rate(events: u64, secs: f64) -> String {
    crate::timing::fmt_rate(events, secs)
}

/// Writes the `--trace` and `--metrics-json` files for the first run of a
/// sweep; subsequent calls are no-ops.
pub struct Exporter {
    trace_path: Option<String>,
    metrics_path: Option<String>,
    exported: bool,
}

impl Exporter {
    pub fn from_cli(cli: &Cli) -> Exporter {
        Exporter {
            trace_path: cli.opt("trace"),
            metrics_path: cli.opt("metrics-json"),
            exported: false,
        }
    }

    /// Should the *next* simulated run record an event trace? True until
    /// the first export happens, and only when `--trace` was given.
    pub fn want_trace(&self) -> bool {
        self.trace_path.is_some() && !self.exported
    }

    /// True when either output flag was given and nothing is written yet.
    pub fn pending(&self) -> bool {
        !self.exported && (self.trace_path.is_some() || self.metrics_path.is_some())
    }

    /// Export the run (first call wins). `trace_json` is the Chrome-trace
    /// JSON from the app result; pass `None` when tracing was off.
    pub fn export(&mut self, label: &str, metrics: &Metrics, trace_json: Option<&str>) {
        if self.exported {
            return;
        }
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, metrics.to_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("  [{label}] metrics JSON -> {path}");
        }
        if let Some(path) = &self.trace_path {
            match trace_json {
                Some(json) => {
                    std::fs::write(path, json)
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                    eprintln!("  [{label}] Chrome trace -> {path} (open in chrome://tracing)");
                }
                None => eprintln!("  [{label}] --trace given but the run recorded no trace"),
            }
        }
        self.exported = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn std_opts_parse_shared_flags() {
        let c = cli(&[
            "pr",
            "--nodes",
            "8",
            "--scale",
            "-2",
            "--seed",
            "7",
            "--trace",
            "/tmp/t.json",
        ]);
        let o = StdOpts::parse(&c, (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 8);
        assert_eq!(o.scale_shift, -2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 1, "sequential engine by default");
        assert!(!o.full);
        assert!(o.exporter.want_trace());
        assert_eq!(c.positional, vec!["pr"]);
    }

    #[test]
    fn std_opts_defaults_follow_full() {
        let o = StdOpts::parse(&cli(&["--full"]), (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 256);
        assert_eq!(o.scale_shift, 3);
        assert!(!o.exporter.want_trace());
    }

    #[test]
    fn threads_flag_parses_and_clamps() {
        let o = StdOpts::parse(&cli(&["--threads", "4"]), (32, 256), (1, 3));
        assert_eq!(o.threads, 4);
        let o = StdOpts::parse(&cli(&["--threads", "0"]), (32, 256), (1, 3));
        assert_eq!(o.threads, 1, "0 clamps to the sequential engine");
    }

    #[test]
    fn legacy_flag_names_still_work() {
        let o = StdOpts::parse(&cli(&["--max-nodes", "4", "--scale-shift", "0"]), (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 4);
        assert_eq!(o.scale_shift, 0);
    }

    #[test]
    fn exporter_writes_first_run_only() {
        let dir = std::env::temp_dir();
        let mp = dir.join("updown_cli_test.metrics.json");
        let mp_s = mp.to_str().unwrap().to_string();
        let mut ex = Exporter {
            trace_path: None,
            metrics_path: Some(mp_s.clone()),
            exported: false,
        };
        assert!(ex.pending());
        let m = sample_metrics(100);
        ex.export("first", &m, None);
        assert!(!ex.pending());
        let m2 = sample_metrics(999);
        ex.export("second", &m2, None);
        let written = std::fs::read_to_string(&mp).unwrap();
        let v = updown_sim::json::JsonValue::parse(&written).unwrap();
        assert_eq!(v.get("final_tick").unwrap().as_u64(), Some(100));
        let _ = std::fs::remove_file(&mp);
    }

    fn sample_metrics(final_tick: u64) -> Metrics {
        Metrics {
            final_tick,
            clock_ghz: 2.0,
            stats: Default::default(),
            total_busy: 0,
            active_lanes: 0,
            total_lanes: 4,
            nodes: vec![],
            hot_lanes: vec![],
            phases: vec![],
            custom: Default::default(),
            fabric: Default::default(),
            sched: Default::default(),
            host_sched: Default::default(),
            host_calendar: Default::default(),
        }
    }

    #[test]
    fn scheduler_knobs_parse_and_default() {
        let o = StdOpts::parse(&cli(&[]), (32, 256), (1, 3));
        assert!(o.steal, "work-stealing defaults on");
        assert_eq!(o.window_batch, 8, "horizon batching defaults to 8");
        let o = StdOpts::parse(
            &cli(&["--steal", "off", "--window-batch", "1"]),
            (32, 256),
            (1, 3),
        );
        assert!(!o.steal);
        assert_eq!(o.window_batch, 1);
        let o = StdOpts::parse(&cli(&["--window-batch", "0"]), (32, 256), (1, 3));
        assert_eq!(o.window_batch, 1, "0 clamps to batching off");
        let o = StdOpts::parse(&cli(&["--steal", "on"]), (32, 256), (1, 3));
        assert!(o.steal);
    }

    #[test]
    fn topology_flag_parses_and_defaults() {
        let o = StdOpts::parse(&cli(&[]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Uniform);
        let o = StdOpts::parse(&cli(&["--topology", "torus"]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Torus);
        let o = StdOpts::parse(&cli(&["--topology", "PolarStar"]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Polar);
    }
}
