//! The command line of `repro`: [`Cli`], the shared flags in [`StdOpts`],
//! and the observer [`Gates`] and [`Exporter`] a [`crate::sweep::Sweep`] owns.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, Write as _};
use std::str::FromStr;

use updown_apps::harness::{bench_machine_topo, check_bench_args, check_rmat_scale};
use updown_sim::spec::check_report;
use updown_sim::{
    ChromeTrace, Diagnostic, MachineConfig, Metrics, ProgramSpec, ProtocolProbe, RaceProbe,
    ReplayCheck, Severity, SnapshotError, TopologyKind,
};

/// The flags that never take a value: the token after one is a positional
/// argument or the next flag, never the flag's value.
const BARE: [&str; 8] = ["full", "sanitize", "race", "spec", "replay", "json", "dot", "enforce"];

/// `--key value` pairs, bare `--flag`s and positional args. A value that
/// does not parse exits with status 2 naming its flag, and
/// [`Cli::reject_unknown`] refuses whatever nobody asked about.
#[derive(Default)]
pub struct Cli {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    /// Keys and the count of positional args something asked about.
    queried: RefCell<BTreeSet<String>>,
    args_read: Cell<usize>,
}

impl Cli {
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli::default();
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            match (a.strip_prefix("--"), args.peek()) {
                (Some(key), Some(v)) if !v.starts_with("--") && !BARE.contains(&key) => {
                    cli.pairs.push((key.to_string(), args.next().unwrap()))
                }
                (Some(key), _) => cli.flags.push(key.to_string()),
                (None, _) => cli.positional.push(a),
            }
        }
        cli
    }

    /// The `i`-th positional argument, if given.
    pub fn arg(&self, i: usize) -> Option<&str> {
        self.args_read.set(self.args_read.get().max(i + 1));
        self.positional.get(i).map(String::as_str)
    }

    /// The positional arguments from the `from`-th on.
    pub fn args(&self, from: usize) -> &[String] {
        self.args_read.set(self.args_read.get().max(self.positional.len()));
        self.positional.get(from..).unwrap_or_default()
    }

    pub fn get<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// The last `--key value` parsed as `T`; exits with status 2 when it
    /// does not parse.
    pub fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Option<T> {
        self.try_opt(key).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`Cli::opt`] with the failure as a value: `Err` names the flag and
    /// the text that did not parse (or says the flag came without one).
    pub fn try_opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        Ok(self.try_all(key)?.pop())
    }

    /// Every `--key value`, in command-line order, each parsed as by
    /// [`Cli::opt`].
    pub fn all<T: FromStr<Err: Display>>(&self, key: &str) -> Vec<T> {
        self.try_all(key).unwrap_or_else(|e| usage_error(&e))
    }

    fn try_all<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Vec<T>, String> {
        self.queried.borrow_mut().insert(key.to_string());
        if self.flags.iter().any(|f| f == key) {
            return Err(format!("--{key}: expects a value"));
        }
        let values = self.pairs.iter().filter(|(k, _)| k == key);
        values.map(|(_, v)| v.parse().map_err(|e| format!("--{key} {v}: {e}"))).collect()
    }

    /// `--key a,b,c`, each element parsed as by [`Cli::opt`].
    pub fn list<T: FromStr<Err: Display>>(&self, key: &str) -> Option<Vec<T>> {
        let text: String = self.opt(key)?;
        let parse = |v: &str| {
            let e = |e| usage_error(&format!("--{key} {text}: '{v}': {e}"));
            v.trim().parse().unwrap_or_else(e)
        };
        Some(text.split(',').map(parse).collect())
    }

    /// Whether the bare `--key` was given; `key` is one of `BARE`.
    pub fn has(&self, key: &str) -> bool {
        debug_assert!(BARE.contains(&key), "--{key} takes a value");
        self.queried.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// Flags nobody has asked about so far, in command-line order.
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

    /// After the last flag is read: exit with status 2 naming an argument
    /// or every flag nobody asked about.
    pub fn reject_unknown(&self) {
        if let Some(a) = self.positional.get(self.args_read.get()) {
            usage_error(&format!("unexpected argument '{a}'"));
        }
        let unknown: Vec<String> = self.unknown().iter().map(|k| format!("--{k}")).collect();
        if !unknown.is_empty() {
            usage_error(&format!("unknown flag {}", unknown.join(" ")));
        }
    }
}

/// Print `msg` and exit with status 2: a command line `repro` cannot run.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// How a subcommand reads `--scale`: not at all, as a shift of the graph
/// menu's scales or as one R-MAT scale; default without and with `--full`.
#[derive(Clone, Copy)]
pub enum Scale {
    None,
    Shift([i32; 2]),
    Rmat([u32; 2]),
}

/// The shared flags one subcommand reads; it refuses the others.
#[derive(Clone, Copy)]
pub struct Surface {
    /// `--nodes`, with its default without and with `--full`.
    pub nodes: Option<[u32; 2]>,
    pub scale: Scale,
    /// `--full`: paper-sized defaults.
    pub full: bool,
    /// `--seed`, with its default.
    pub seed: Option<u64>,
    pub topology: bool,
    /// One `--threads` count for every run; `par` reads its own list.
    pub threads: bool,
    /// The observer flags of [`Gates`].
    pub gates: bool,
    /// `--trace` / `--metrics-json`, exporting the first run ([`Exporter`]).
    pub export: bool,
}

/// The shared flags, as one subcommand's [`Surface`] reads them.
pub struct StdOpts {
    /// Top of the node sweep, or the machine size.
    pub nodes: u32,
    /// A menu shift or an absolute R-MAT scale, as [`Scale`] says.
    pub scale: i32,
    pub seed: u64,
    /// Host threads walking the window loop; results are byte-identical
    /// across values.
    pub threads: u32,
    pub topology: TopologyKind,
    pub full: bool,
}

impl StdOpts {
    /// Parse the flags `surface` names; exits with status 2 on values no
    /// run can build ([`check_bench_args`], [`check_rmat_scale`]).
    pub fn parse(cli: &Cli, surface: &Surface) -> StdOpts {
        let full = surface.full && cli.has("full");
        let nodes = surface.nodes.map_or(1, |n| cli.get("nodes", n[full as usize]));
        let (scale, shift) = match surface.scale {
            Scale::None => (0, 0),
            Scale::Shift(s) => {
                let s = cli.get("scale", s[full as usize]);
                (s, s)
            }
            Scale::Rmat(s) => {
                let s = cli.get("scale", s[full as usize]);
                check_rmat_scale(s).unwrap_or_else(|e| usage_error(&e));
                (s as i32, 0)
            }
        };
        check_bench_args(nodes, shift).unwrap_or_else(|e| usage_error(&e));
        let topology = TopologyKind::default();
        StdOpts {
            nodes,
            scale,
            seed: surface.seed.map_or(0, |seed| cli.get("seed", seed)),
            threads: if surface.threads { cli.get("threads", 1).max(1) } else { 1 },
            topology: if surface.topology { cli.get("topology", topology) } else { topology },
            full,
        }
    }

    /// `nodes` nodes at `--threads` workers on the `--topology` network.
    pub fn machine(&self, nodes: u32) -> MachineConfig {
        bench_machine_topo(nodes, self.threads, self.topology)
    }
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

/// Label and probes of one run armed with `--sanitize`, `--race`, `--spec`
/// or `--replay`, under `--spec` the spec it is held to with the machine's
/// per-lane thread-table and scratchpad sizes, and under `--replay` the
/// run's own verdict handle.
type ArmedRun = (String, Option<ProtocolProbe>, Option<RaceProbe>, Option<(ProgramSpec, u16, u32)>, Option<ReplayCheck>);
/// An observer's report lines for one armed run.
type Findings = fn(&ArmedRun) -> Vec<String>;

/// `--spec`'s report lines for one run: the probe's report held to the
/// run's spec once the run is over, one line per error.
fn spec_errors((label, probe, _, spec, _): &ArmedRun) -> Vec<String> {
    let (Some(probe), Some((spec, threads, spm))) = (probe, spec) else { return Vec::new() };
    let errors = check_report(spec, &probe.snapshot(), *threads, *spm);
    let errors = errors.into_iter().filter(|f| f.severity == Severity::Error);
    errors.map(|f| format!("udspec[{label}] {}: [{}] {} (x1)", f.subject, f.check, f.message)).collect()
}

/// A snapshot the re-driven run refuses (another workload's, or one its
/// checkpoint boundaries skip) ends the run in a panic carrying the
/// engine's `SnapshotError`: report it as the bad argument it is, exit 2.
fn report_refused_restore(path: String) {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| match info.payload().downcast_ref::<SnapshotError>() {
        Some(e) => usage_error(&format!("--restore {path}: {e}")),
        None => default(info),
    }));
}

/// The observers armed on every simulated run, none with an observer
/// effect: `--sanitize`, `--race`, `--spec`, `--replay`, and
/// `--checkpoint-every N` with `--checkpoint` / `--restore` (cadence 8, or
/// the restored snapshot's window), whose paths go to the first armed run.
/// See docs/udcheck.md, docs/udrace.md, docs/udspec.md, docs/checkpoint.md.
#[derive(Default)]
pub struct Gates {
    sanitize: bool,
    race: bool,
    spec: bool,
    /// Checkpoint cadence in windows, 0 = off.
    every: u64,
    /// `--checkpoint` and `--restore`, until the first armed run takes them.
    paths: Option<(Option<String>, Option<String>)>,
    replay: bool,
    runs: Vec<ArmedRun>,
}

impl Gates {
    pub fn from_cli(cli: &Cli) -> Gates {
        let (write_path, restore_path): (Option<String>, Option<String>) = (cli.opt("checkpoint"), cli.opt("restore"));
        let mut every: u64 = cli.get("checkpoint-every", 0);
        if let Some(p) = &restore_path {
            match updown_sim::snapshot::read_header(std::path::Path::new(p)) {
                Ok(h) if every == 0 => every = h.window.max(1),
                Ok(h) if h.window % every != 0 => usage_error(&format!(
                    "--restore {p}: snapshot was taken at window {} which is not a multiple of --checkpoint-every {every}",
                    h.window
                )),
                Ok(_) => {}
                Err(e) => usage_error(&format!("--restore {p}: {e}")),
            }
            report_refused_restore(p.clone());
        }
        if write_path.is_some() && every == 0 {
            every = 8;
        }
        let (sanitize, race, spec, replay) = (cli.has("sanitize"), cli.has("race"), cli.has("spec"), cli.has("replay"));
        let paths = Some((write_path, restore_path));
        Gates { sanitize, race, spec, every, paths, replay, runs: Vec::new() }
    }

    /// Arm `cfg` with every observer asked for; `label` names the run in
    /// the report, `spec` is the protocol `--spec` holds it to.
    pub fn arm(&mut self, label: &str, spec: &ProgramSpec, cfg: &mut MachineConfig) {
        // One probe serves both: attaching it arms the sanitizer, and
        // `--spec` checks its report once the run is over.
        let probe = (self.sanitize || self.spec).then(ProtocolProbe::new);
        let race = self.race.then(RaceProbe::new);
        let replay = self.replay.then(ReplayCheck::new);
        if probe.is_some() || race.is_some() || replay.is_some() {
            (cfg.probe, cfg.race, cfg.replay) = (probe.clone(), race.clone(), replay.clone());
            let spec = self.spec.then(|| (spec.clone(), cfg.max_threads_per_lane, cfg.spm_words));
            self.runs.push((label.to_string(), probe, race, spec, replay));
        }
        if self.every != 0 {
            cfg.checkpoint_every = self.every;
            if let Some((write, restore)) = self.paths.take() {
                (cfg.checkpoint_path, cfg.restore_path) = (write.map(Into::into), restore.map(Into::into));
            }
        }
    }

    /// Print what each armed observer found to stderr; whether any found
    /// something.
    pub fn dirty(&self) -> bool {
        let sanitizer: Findings = |(label, probe, ..)| {
            let at = |d: &Diagnostic| format!("x{}, first at tick {} lane {}", d.count, d.first_tick, d.lane);
            let line = |d: Diagnostic| {
                format!("sanitizer[{}] {label}: {} — {} ({})", d.kind.as_str(), d.handler, d.detail, at(&d))
            };
            probe.iter().flat_map(ProtocolProbe::diagnostics).map(line).collect()
        };
        // A run that overflowed the site cap is dirty too: the cap hides
        // potential races.
        let udrace: Findings = |(label, _, race, ..)| {
            let Some(r) = race.as_ref().map(RaceProbe::snapshot) else { return Vec::new() };
            let sites = r.sites.iter().map(|s| {
                let at = format!("x{}, first at tick {} lane {}", s.count, s.first_tick, s.lane);
                format!("udrace[{label}] '{}' races with '{}': {} ({at})", s.current, s.prior, s.detail)
            });
            let cap = "distinct site(s) dropped past the site cap";
            let dropped = (r.sites_truncated > 0).then(|| format!("udrace[{label}] warning: {} {cap}", r.sites_truncated));
            sites.chain(dropped).collect()
        };
        // (armed, asked for, ...): `--spec`'s probe arms the sanitizer too,
        // so its protocol violations fail the run without `--sanitize`; only
        // an observer asked for prints its clean line.
        let observers: [(bool, bool, &str, &str, Findings); 3] = [
            (self.sanitize || self.spec, self.sanitize, "sanitizer", "no protocol violations", sanitizer),
            (self.race, true, "udrace", "no races", udrace),
            (self.spec, true, "udspec", "no spec violations", spec_errors),
        ];
        let mut any = false;
        for (_, asked, tool, clean, findings) in observers.into_iter().filter(|o| o.0) {
            let lines: Vec<String> = self.runs.iter().flat_map(findings).collect();
            lines.iter().for_each(|line| eprintln!("{line}"));
            if lines.is_empty() && asked {
                eprintln!("{tool}: {} run(s), {clean}", self.runs.len());
            }
            any |= !lines.is_empty();
        }
        // One verdict line per run, summed over the run's recordings (one
        // per scheduler invocation); a replay that verified nothing fails.
        if self.replay && self.runs.is_empty() {
            eprintln!("replay: no runs verified");
            any = true;
        }
        for (label, .., check) in &self.runs {
            let Some(reports) = check.as_ref().map(ReplayCheck::reports) else { continue };
            let diverged: Vec<&String> = reports.iter().flat_map(|r| &r.mismatches).collect();
            diverged.iter().for_each(|m| eprintln!("replay[{label}] DIVERGED: {m}"));
            if reports.is_empty() {
                eprintln!("replay[{label}]: nothing verified");
            } else if diverged.is_empty() {
                let (rounds, events) = reports.iter().fold((0, 0), |(w, e), r| (w + r.rounds, e + r.events));
                let shards = reports[0].shards;
                eprintln!("replay[{label}]: {shards} shard(s), {rounds} window(s), {events} event(s) — byte-identical");
            }
            any |= reports.is_empty() || !diverged.is_empty();
        }
        any
    }
}

/// Writes the `--trace` and `--metrics-json` files of the *first* run of
/// a sweep, enough to inspect one representative run in
/// `chrome://tracing` without multi-gigabyte outputs; later calls are
/// no-ops.
#[derive(Default)]
pub struct Exporter {
    trace_path: Option<String>,
    metrics_path: Option<String>,
    exported: bool,
}

impl Exporter {
    pub fn from_cli(cli: &Cli) -> Exporter {
        Exporter { trace_path: cli.opt("trace"), metrics_path: cli.opt("metrics-json"), exported: false }
    }

    /// Whether the next run should record an event trace.
    pub fn want_trace(&self) -> bool {
        self.trace_path.is_some() && !self.exported
    }

    /// Export the run if it is the first; `trace` is `None` when tracing
    /// was off. The trace is streamed to its file, never rendered whole.
    pub fn export(&mut self, label: &str, metrics: &Metrics, trace: Option<&ChromeTrace>) {
        if std::mem::replace(&mut self.exported, true) {
            return;
        }
        if let Some(path) = &self.metrics_path {
            write_or_exit("--metrics-json", path, &metrics.to_json());
            eprintln!("  [{label}] metrics JSON -> {path}");
        }
        match (&self.trace_path, trace) {
            (Some(path), Some(trace)) => {
                stream_or_exit("--trace", path, |f| trace.write_to(f));
                eprintln!("  [{label}] Chrome trace -> {path} (open in chrome://tracing)");
            }
            (Some(_), None) => eprintln!("  [{label}] --trace given but the run recorded no trace"),
            (None, _) => {}
        }
    }
}

/// Write the file `flag` names, or exit with status 2 saying why.
pub fn write_or_exit(flag: &str, path: &str, text: &str) {
    stream_or_exit(flag, path, |f| f.write_all(text.as_bytes()));
}

/// Create the file `flag` names and let `write` fill it, or exit with
/// status 2 saying why.
fn stream_or_exit(flag: &str, path: &str, write: impl FnOnce(&mut File) -> io::Result<()>) {
    if let Err(e) = File::create(path).and_then(|mut f| write(&mut f)) {
        usage_error(&format!("{flag} {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_sim::{Engine, EventWord, NetworkId};

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    /// `repro fig9`'s surface.
    const FIG9: Surface = Surface {
        nodes: Some([32, 256]),
        scale: Scale::Shift([1, 3]),
        full: true,
        seed: Some(0),
        topology: true,
        threads: true,
        gates: true,
        export: true,
    };

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
        let o = StdOpts::parse(&c, &FIG9);
        assert_eq!(o.nodes, 8);
        assert_eq!(o.scale, -2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 1, "one worker by default");
        assert!(!o.full);
        assert!(Exporter::from_cli(&c).want_trace());
        assert_eq!(c.arg(0), Some("pr"));
        assert_eq!(c.arg(1), None);
    }

    #[test]
    fn std_opts_defaults_follow_full() {
        let c = cli(&["--full"]);
        let o = StdOpts::parse(&c, &FIG9);
        assert_eq!(o.nodes, 256);
        assert_eq!(o.scale, 3);
        assert!(!Exporter::from_cli(&c).want_trace());
        // An absolute R-MAT scale follows `--full` the same way; a
        // surface without `--full` leaves the flag unread.
        let fig12 = Surface { nodes: Some([64, 64]), scale: Scale::Rmat([16, 17]), ..FIG9 };
        assert_eq!(StdOpts::parse(&c, &fig12).scale, 17);
        let c = cli(&["--full"]);
        let baseline = Surface { full: false, ..fig12 };
        assert_eq!(StdOpts::parse(&c, &baseline).scale, 16);
        assert_eq!(c.unknown(), vec!["full"]);
    }

    #[test]
    fn threads_flag_parses_and_clamps() {
        let o = StdOpts::parse(&cli(&["--threads", "4"]), &FIG9);
        assert_eq!(o.threads, 4);
        let o = StdOpts::parse(&cli(&["--threads", "0"]), &FIG9);
        assert_eq!(o.threads, 1, "0 clamps to one worker");
    }

    #[test]
    fn legacy_flag_names_are_unknown_flags() {
        let c = cli(&["--max-nodes", "4", "--scale-shift", "0"]);
        let o = StdOpts::parse(&c, &FIG9);
        assert_eq!((o.nodes, o.scale), (32, 1), "the retired spellings set nothing");
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
        let m = sample_metrics(100);
        ex.export("first", &m, None);
        assert!(ex.exported);
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
    fn a_bare_flag_leaves_the_next_token_positional() {
        let c = cli(&["fig9", "--sanitize", "pr", "--json", "--nodes", "4", "--full", "2"]);
        assert!(c.has("sanitize") && c.has("json") && c.has("full"));
        assert_eq!(c.args(1), ["pr", "2"]);
        assert_eq!(c.get("nodes", 0), 4);
        assert!(c.unknown().is_empty());
    }

    #[test]
    fn flags_nobody_read_are_reported_unknown() {
        let c = cli(&["pr", "--nodes", "4", "--steal", "off", "--bogus", "--cost", "--race"]);
        let _ = StdOpts::parse(&c, &FIG9);
        let _ = Gates::from_cli(&c);
        assert_eq!(c.unknown(), vec!["steal", "bogus", "cost"]);
        // A retired spelling next to the current one is still refused.
        let c = cli(&["--max-nodes", "4", "--nodes", "8", "--full"]);
        let o = StdOpts::parse(&c, &FIG9);
        assert_eq!(o.nodes, 8);
        assert_eq!(c.unknown(), vec!["max-nodes"]);
        // A surface that runs nothing reads no flag at all.
        let table1 = Surface {
            nodes: None,
            scale: Scale::None,
            full: false,
            seed: None,
            topology: false,
            threads: false,
            gates: false,
            export: false,
        };
        let c = cli(&["--topology", "torus", "--sanitize"]);
        let _ = StdOpts::parse(&c, &table1);
        assert_eq!(c.unknown(), vec!["topology", "sanitize"]);
    }

    #[test]
    fn gates_arm_what_was_asked_and_share_one_probe() {
        let spec = ProgramSpec::new();
        let mut g = Gates::from_cli(&cli(&["--sanitize", "--spec", "--checkpoint-every", "3"]));
        let mut a = MachineConfig::small(1, 1, 2);
        let mut b = a.clone();
        g.arm("a", &spec, &mut a);
        g.arm("b", &spec, &mut b);
        assert!(a.probe.is_some() && a.race.is_none() && a.replay.is_none());
        assert_eq!((a.checkpoint_every, b.checkpoint_every), (3, 3));
        assert_eq!(g.runs.len(), 2);
        let caps = |run: &ArmedRun| run.3.as_ref().map(|(_, threads, spm)| (*threads, *spm));
        assert!(g.runs.iter().all(|r| caps(r) == Some((a.max_threads_per_lane, a.spm_words))));
        assert!(!g.dirty(), "nothing ran, nothing found");

        let mut g = Gates::from_cli(&cli(&[]));
        let mut c = MachineConfig::small(1, 1, 2);
        g.arm("c", &spec, &mut c);
        assert!(c.probe.is_none() && c.race.is_none() && c.checkpoint_every == 0);
        assert!(g.runs.is_empty() && !g.dirty());
    }

    /// `--spec` fails a run whose spec certifies more per-lane threads and
    /// scratchpad than the machine has, with `repro spec`'s two errors.
    #[test]
    fn the_spec_gate_fails_an_over_capacity_run() {
        let mut g = Gates::from_cli(&cli(&["--spec"]));
        let mut cfg = MachineConfig::small(1, 1, 2);
        g.arm("blowup", &udcheck::spec::spm_blowup_fixture(), &mut cfg);
        Engine::new(cfg).run();
        assert_eq!(
            spec_errors(&g.runs[0]),
            [
                "udspec[blowup] machine: [spm-bound-capacity] certified per-lane scratchpad bound 65536 words \
                 exceeds the scratchpad (8192 words/lane) (x1)",
                "udspec[blowup] machine: [thread-bound-capacity] certified per-lane live-thread bound 1025 \
                 exceeds the thread table (512 contexts/lane) (x1)",
            ]
        );
        assert!(g.dirty());
    }

    /// `--replay` arms one check per run. A replay that verified nothing —
    /// no run armed, or an armed run that never ran — fails; one run that
    /// replayed clean passes.
    #[test]
    fn a_replay_that_verified_nothing_fails() {
        assert!(Gates::from_cli(&cli(&["--replay"])).dirty(), "no run armed");
        let mut g = Gates::from_cli(&cli(&["--replay"]));
        let mut cfg = MachineConfig::small(1, 1, 2);
        g.arm("idle", &ProgramSpec::new(), &mut cfg);
        assert!(cfg.replay.is_some() && cfg.probe.is_none());
        assert!(g.dirty(), "an armed run that never ran verified nothing");
        Engine::new(cfg).run();
        assert!(!g.dirty(), "one run, one clean verdict");
    }

    /// `--spec` alone arms the sanitizer through its probe: a send to a
    /// dead thread is a diagnostic that fails the run, not a panic.
    #[test]
    fn the_spec_gate_fails_a_run_that_sends_to_a_dead_thread() {
        let mut g = Gates::from_cli(&cli(&["--spec"]));
        let mut cfg = MachineConfig::small(1, 1, 2);
        g.arm("dead", &ProgramSpec::new(), &mut cfg);
        let mut eng = Engine::new(cfg);
        let late = udweave::simple_event(&mut eng, "fixture::late", |_ctx| {});
        let first = udweave::simple_event(&mut eng, "fixture::first", move |ctx| {
            let dst = ctx.self_event(late);
            ctx.send_event_after(50, dst, [0u64; 0], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), first), [0u64; 0], EventWord::IGNORE);
        eng.run();
        assert!(g.dirty());
    }

    /// `--spec` holds a run to its spec after the run: a spec that gets
    /// the handler's arity and terminate wrong makes the run dirty, with
    /// one `udspec[...]` line per error.
    #[test]
    fn the_spec_gate_fails_a_run_that_breaks_its_spec() {
        let mut spec = ProgramSpec::new();
        spec.thread("fixture").event("victim").args(3, 3);
        let mut g = Gates::from_cli(&cli(&["--spec"]));
        let mut cfg = MachineConfig::small(1, 1, 2);
        g.arm("liar", &spec, &mut cfg);
        let mut eng = Engine::new(cfg);
        let victim = udweave::simple_event(&mut eng, "fixture::victim", |ctx| {
            let _ = ctx.arg(0);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), victim), [7u64], EventWord::IGNORE);
        eng.run();
        assert_eq!(
            spec_errors(&g.runs[0]),
            [
                "udspec[liar] fixture::victim: [arity-mismatch] received 1-operand message; \
                 spec declares 3..3 (x1)",
                "udspec[liar] machine: [thread-bound-exceeded] lane 0 reached 1 live threads; \
                 certified per-lane bound is 0 (x1)",
                "udspec[liar] fixture::victim: [undeclared-terminate] terminated its thread 1 \
                 times but spec declares no terminate edge (x1)",
            ]
        );
        assert!(g.dirty());
    }

    #[test]
    fn topology_flag_parses_and_defaults() {
        let o = StdOpts::parse(&cli(&[]), &FIG9);
        assert_eq!(o.topology, TopologyKind::Uniform);
        let o = StdOpts::parse(&cli(&["--topology", "torus"]), &FIG9);
        assert_eq!(o.topology, TopologyKind::Torus);
        let o = StdOpts::parse(&cli(&["--topology", "PolarStar"]), &FIG9);
        assert_eq!(o.topology, TopologyKind::Polar);
    }
}
