//! The unified command-line surface of the figure binaries.
//!
//! Every binary parses [`Cli`] and understands the shared flags in
//! [`StdOpts`] (`--nodes`, `--scale`, `--seed`, `--threads`,
//! `--topology`, `--trace`, `--metrics-json`, `--full`) on top of its own
//! specifics, builds one [`Gates`] for the observer flags, and ends its
//! flag reading with [`Cli::reject_unknown`]. The
//! [`Exporter`] turns the observability flags into files: when a binary
//! sweeps many configurations, the *first* simulated run is the one that
//! gets traced and exported — enough to inspect one representative run in
//! `chrome://tracing` without multi-gigabyte outputs.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Display;
use std::str::FromStr;

use updown_sim::{
    DiagKind, MachineConfig, Metrics, ProgramSpec, ProtocolProbe, RaceProbe, ReplayCheck,
    TopologyKind,
};

/// Minimal flag parsing: `--key value` pairs plus positional args.
///
/// Nonsense ends in a diagnostic and exit status 2, never in a quiet
/// default: a value that does not parse names its flag, and every key a
/// binary asked about is remembered so [`Cli::reject_unknown`] can refuse
/// the ones nobody read (typos, flags of another binary, retired flags).
pub struct Cli {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    /// Keys some `opt`/`has` call has asked about.
    queried: RefCell<BTreeSet<String>>,
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
            queried: RefCell::new(BTreeSet::new()),
        }
    }

    pub fn get<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// Last `--key value` occurrence parsed as `T`, `None` if absent.
    /// Exits with status 2 when the value does not parse.
    pub fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Option<T> {
        self.try_opt(key).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`Cli::opt`] with the failure as a value: `Err` names the flag and
    /// the text that did not parse (or says the flag came without one).
    pub fn try_opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        self.queried.borrow_mut().insert(key.to_string());
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => match v.parse() {
                Ok(x) => Ok(Some(x)),
                Err(e) => Err(format!("--{key} {v}: {e}")),
            },
            None if self.flags.iter().any(|f| f == key) => Err(format!("--{key}: expects a value")),
            None => Ok(None),
        }
    }

    /// `--key a,b,c` with every element parsed as `T`; same failure
    /// behaviour as [`Cli::opt`].
    pub fn list<T: FromStr<Err: Display>>(&self, key: &str) -> Option<Vec<T>> {
        let text: String = self.opt(key)?;
        Some(
            text.split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .unwrap_or_else(|e| usage_error(&format!("--{key} {text}: '{v}': {e}")))
                })
                .collect(),
        )
    }

    pub fn has(&self, key: &str) -> bool {
        self.queried.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key) || self.pairs.iter().any(|(k, _)| k == key)
    }

    /// Flags on the command line that no `opt`/`get`/`has` call has asked
    /// about so far, in command-line order.
    pub fn unknown(&self) -> Vec<&str> {
        let queried = self.queried.borrow();
        let mut out: Vec<&str> = Vec::new();
        for k in self.pairs.iter().map(|(k, _)| k).chain(&self.flags) {
            if !queried.contains(k) && !out.contains(&k.as_str()) {
                out.push(k);
            }
        }
        out
    }

    /// Call once, after the last flag has been read: exits with status 2
    /// naming every flag this binary never looked at.
    pub fn reject_unknown(&self) {
        let unknown = self.unknown();
        if !unknown.is_empty() {
            let names: Vec<String> = unknown.iter().map(|k| format!("--{k}")).collect();
            usage_error(&format!("unknown flag {}", names.join(" ")));
        }
    }
}

/// Print `msg` and exit with status 2: a command line this binary cannot
/// carry out.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The flags every figure binary shares.
pub struct StdOpts {
    /// `--nodes`: top of the node sweep.
    pub max_nodes: u32,
    /// `--scale`: graph-scale shift vs defaults.
    pub scale_shift: i32,
    /// `--seed`: generator seed.
    pub seed: u64,
    /// `--threads`: simulator worker threads (1 runs the window loop
    /// inline). Results are byte-identical across values; only wall-clock
    /// changes.
    pub threads: u32,
    /// `--topology`: system-network topology (`uniform`, `polar`,
    /// `torus`, `dragonfly`). Results are byte-identical across thread
    /// counts for every value; `uniform` reproduces the pre-fabric model.
    pub topology: TopologyKind,
    /// `--full`: paper-sized sweep.
    pub full: bool,
    /// `--trace <path>` / `--metrics-json <path>` exporter.
    pub exporter: Exporter,
}

impl StdOpts {
    /// Parse the shared flags with per-binary defaults: `nodes_default`
    /// applies without `--full`, `nodes_full` with it (same for shift).
    /// Exits with status 2 on a node count or scale shift no sweep can
    /// build ([`updown_apps::harness::check_bench_args`]).
    pub fn parse(
        cli: &Cli,
        (nodes_default, nodes_full): (u32, u32),
        (shift_default, shift_full): (i32, i32),
    ) -> StdOpts {
        let full = cli.has("full");
        let max_nodes = cli.get("nodes", if full { nodes_full } else { nodes_default });
        let scale_shift = cli.get("scale", if full { shift_full } else { shift_default });
        if let Err(e) = updown_apps::harness::check_bench_args(max_nodes, scale_shift) {
            usage_error(&e);
        }
        StdOpts {
            max_nodes,
            scale_shift,
            seed: cli.get("seed", 0),
            threads: cli.get("threads", 1).max(1),
            topology: parse_topology(cli),
            full,
            exporter: Exporter::from_cli(cli),
        }
    }
}

/// `--nodes` and an *absolute* R-MAT `--scale`, as `figure12` and
/// `baseline_compare` take them. Exits with status 2 on a value no run can
/// build ([`updown_apps::harness::check_bench_args`],
/// [`updown_apps::harness::check_rmat_scale`]).
pub fn nodes_and_rmat_scale(cli: &Cli, nodes_default: u32, scale_default: u32) -> (u32, u32) {
    let nodes = cli.get("nodes", nodes_default);
    let scale = cli.get("scale", scale_default);
    let checked = updown_apps::harness::check_bench_args(nodes, 0)
        .and_then(|()| updown_apps::harness::check_rmat_scale(scale));
    if let Err(e) = checked {
        usage_error(&e);
    }
    (nodes, scale)
}

/// `--iters`, the PageRank iteration count. Exits with status 2 on 0: the
/// driver stops when an iteration completes, so no run would ever end.
pub fn pagerank_iters(cli: &Cli, default: u32) -> u32 {
    let iters = cli.get("iters", default);
    if iters == 0 {
        usage_error("--iters 0: expects at least 1 (PageRank stops when an iteration completes)");
    }
    iters
}

/// Parse `--topology`, exiting with the list of valid values on a bad
/// one (a silent fallback to the default would quietly benchmark the
/// wrong network).
pub fn parse_topology(cli: &Cli) -> TopologyKind {
    cli.get("topology", TopologyKind::default())
}

/// The observers a figure binary can arm on its simulated runs, built
/// once from the command line:
///
/// * `--sanitize` — [`MachineConfig::sanitize`] plus a fresh
///   [`ProtocolProbe`] per run (docs/udcheck.md).
/// * `--race` — a fresh [`RaceProbe`] per run, the happens-before race
///   detector (docs/udrace.md).
/// * `--spec` — runtime protocol-spec enforcement
///   ([`MachineConfig::enforce_spec`]) against the run's declared spec,
///   reporting through the same probe as the sanitizer (docs/udspec.md).
/// * `--checkpoint-every N` / `--checkpoint <path>` / `--restore <path>`
///   (docs/checkpoint.md) — the engine pauses every `N` windows,
///   snapshots, round-trips the snapshot and continues. `--checkpoint`
///   also writes an `updown-snapshot/v2` file at the first boundary of the
///   *first* armed run (first-run-wins, like the [`Exporter`]; the cadence
///   defaults to 8). `--restore` re-drives the first armed run against
///   such a file: at the recorded window the engine byte-compares its live
///   state against it and round-trips the decoder. The header is validated
///   up front so a bad path or corrupt file is a clean CLI error; the
///   cadence defaults to the snapshot's window.
/// * `--replay` — capture every run's cross-shard message schedule, then
///   re-execute each shard of each recording in isolation and compare the
///   event streams.
///
/// None of them has an observer effect: armed sweeps print the same
/// figures. [`Gates::exit_if_dirty`] at the end of `main` reports what
/// they found.
pub struct Gates {
    sanitize: bool,
    race: bool,
    spec: bool,
    /// Checkpoint cadence in windows, 0 = off.
    every: u64,
    write_path: Option<String>,
    restore_path: Option<String>,
    /// First-run-wins: the snapshot paths attach to the first armed run.
    paths_armed: bool,
    replay: Option<ReplayCheck>,
    /// Label and probes of every run armed with `--sanitize`, `--race` or
    /// `--spec`.
    runs: Vec<(String, Option<ProtocolProbe>, Option<RaceProbe>)>,
}

impl Gates {
    pub fn from_cli(cli: &Cli) -> Gates {
        let write_path: Option<String> = cli.opt("checkpoint");
        let restore_path: Option<String> = cli.opt("restore");
        let mut every: u64 = cli.get("checkpoint-every", 0);
        if let Some(p) = &restore_path {
            // Validate the header up front: a missing or corrupt snapshot
            // should be a CLI error, not a mid-sweep panic.
            match updown_sim::snapshot::read_header(std::path::Path::new(p)) {
                Ok(h) if every == 0 => every = h.window.max(1),
                Ok(h) if h.window % every != 0 => usage_error(&format!(
                    "--restore {p}: snapshot was taken at window {} which is not a \
                     multiple of --checkpoint-every {every}",
                    h.window
                )),
                Ok(_) => {}
                Err(e) => usage_error(&format!("--restore {p}: {e}")),
            }
        }
        if write_path.is_some() && every == 0 {
            every = 8;
        }
        Gates {
            sanitize: cli.has("sanitize"),
            race: cli.has("race"),
            spec: cli.has("spec"),
            every,
            write_path,
            restore_path,
            paths_armed: false,
            replay: cli.has("replay").then(ReplayCheck::new),
            runs: Vec::new(),
        }
    }

    /// Arm `cfg` with every observer the command line asked for. `label`
    /// names the run in the final report; `spec` is the protocol `--spec`
    /// holds it to.
    pub fn arm(&mut self, label: &str, spec: &ProgramSpec, cfg: &mut MachineConfig) {
        let probe = (self.sanitize || self.spec).then(ProtocolProbe::new);
        let race = self.race.then(RaceProbe::new);
        if self.sanitize {
            cfg.sanitize = true;
        }
        if self.spec {
            cfg.enforce_spec = Some(spec.clone());
        }
        if probe.is_some() {
            cfg.probe = probe.clone();
        }
        if race.is_some() {
            cfg.race = race.clone();
        }
        if probe.is_some() || race.is_some() {
            self.runs.push((label.to_string(), probe, race));
        }
        if self.every != 0 {
            cfg.checkpoint_every = self.every;
            if !std::mem::replace(&mut self.paths_armed, true) {
                cfg.checkpoint_path = self.write_path.clone().map(Into::into);
                cfg.restore_path = self.restore_path.clone().map(Into::into);
            }
        }
        if let Some(check) = &self.replay {
            cfg.replay = Some(check.clone());
        }
    }

    /// Print what every armed observer found to stderr, one block per
    /// observer; returns whether any of them found something.
    fn dirty(&self) -> bool {
        let mut any = false;
        if self.sanitize {
            let mut dirty = false;
            for (label, probe, _) in &self.runs {
                for d in probe.iter().flat_map(|p| p.diagnostics()) {
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
                eprintln!("sanitizer: {} run(s), no protocol violations", self.runs.len());
            }
            any |= dirty;
        }
        if self.race {
            // A run that overflowed the site cap is dirty too: the cap
            // hides potential races.
            let mut dirty = false;
            for (label, _, race) in &self.runs {
                let Some(r) = race.as_ref().map(|p| p.snapshot()) else {
                    continue;
                };
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
                eprintln!("udrace: {} run(s), no races", self.runs.len());
            }
            any |= dirty;
        }
        if self.spec {
            let mut dirty = false;
            for (label, probe, _) in &self.runs {
                for d in probe.iter().flat_map(|p| p.diagnostics()) {
                    if d.kind != DiagKind::SpecViolation {
                        continue;
                    }
                    dirty = true;
                    eprintln!("udspec[{label}] {}: {} (x{})", d.handler, d.detail, d.count);
                }
            }
            if !dirty {
                eprintln!("udspec: {} run(s), no spec violations", self.runs.len());
            }
            any |= dirty;
        }
        if let Some(check) = &self.replay {
            let reports = check.reports();
            for r in &reports {
                if r.ok() {
                    eprintln!(
                        "replay[{}]: {} shard(s), {} window(s), {} event(s) — byte-identical",
                        r.label, r.shards, r.rounds, r.events
                    );
                } else {
                    any = true;
                    for m in &r.mismatches {
                        eprintln!("replay[{}] DIVERGED: {m}", r.label);
                    }
                }
            }
            if reports.is_empty() {
                eprintln!("replay: no runs verified");
            }
        }
        any
    }

    /// Tail-of-`main` helper: report, and exit non-zero if any observer
    /// found something.
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
        assert_eq!(o.threads, 1, "one worker by default");
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
        assert_eq!(o.threads, 1, "0 clamps to one worker");
    }

    #[test]
    fn legacy_flag_names_are_unknown_flags() {
        let c = cli(&["--max-nodes", "4", "--scale-shift", "0"]);
        let o = StdOpts::parse(&c, (32, 256), (1, 3));
        assert_eq!((o.max_nodes, o.scale_shift), (32, 1), "the retired spellings set nothing");
        assert_eq!(c.unknown(), vec!["max-nodes", "scale-shift"]);
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
    fn an_unparsable_value_is_an_error_naming_flag_and_value() {
        let c = cli(&["--nodes", "two", "--scale", "-3", "--threads"]);
        let e = c.try_opt::<u32>("nodes").unwrap_err();
        assert!(e.starts_with("--nodes two:"), "{e}");
        assert_eq!(c.try_opt::<i32>("scale"), Ok(Some(-3)));
        assert_eq!(c.try_opt::<u32>("seed"), Ok(None));
        // A valued flag given bare is not "absent".
        let e = c.try_opt::<u32>("threads").unwrap_err();
        assert_eq!(e, "--threads: expects a value");
    }

    #[test]
    fn flags_nobody_read_are_reported_unknown() {
        let c = cli(&["pr", "--nodes", "4", "--steal", "off", "--bogus", "--cost", "--race"]);
        let _ = StdOpts::parse(&c, (32, 256), (1, 3));
        let _ = Gates::from_cli(&c);
        assert_eq!(c.unknown(), vec!["steal", "bogus", "cost"]);
        // A retired spelling next to the current one is still refused.
        let c = cli(&["--max-nodes", "4", "--nodes", "8", "--full"]);
        let o = StdOpts::parse(&c, (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 8);
        assert_eq!(c.unknown(), vec!["max-nodes"]);
    }

    #[test]
    fn gates_arm_what_was_asked_and_share_one_probe() {
        let spec = ProgramSpec::new();
        let mut g = Gates::from_cli(&cli(&["--sanitize", "--spec", "--checkpoint-every", "3"]));
        let mut a = MachineConfig::small(1, 1, 2);
        let mut b = a.clone();
        g.arm("a", &spec, &mut a);
        g.arm("b", &spec, &mut b);
        assert!(a.sanitize && a.probe.is_some() && a.enforce_spec.is_some());
        assert!(a.race.is_none() && a.replay.is_none());
        assert_eq!((a.checkpoint_every, b.checkpoint_every), (3, 3));
        assert_eq!(g.runs.len(), 2);
        assert!(!g.dirty(), "nothing ran, nothing found");

        let mut g = Gates::from_cli(&cli(&[]));
        let mut c = MachineConfig::small(1, 1, 2);
        g.arm("c", &spec, &mut c);
        assert!(!c.sanitize && c.probe.is_none() && c.race.is_none() && c.checkpoint_every == 0);
        assert!(g.runs.is_empty() && !g.dirty());
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
