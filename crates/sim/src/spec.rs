//! Declared-effects protocol specifications, and the vocabulary every
//! analysis built on them shares: [`declared_edges`], [`propagate`],
//! [`Finding`], [`Severity`].
//!
//! A [`ProgramSpec`] describes, ahead of any simulation, what each event
//! handler of a protocol is allowed to do: which events it sends to (by
//! full `thread::event` name), whether those sends spawn new threads or
//! carry continuations, operand arity ranges, terminate edges, and
//! per-lane resource bounds for the thread *group* each spawn-target
//! event roots.
//!
//! The spec serves two purposes:
//!
//! 1. **Static analysis** (`repro spec` and `repro cost`, crate `udcheck`): wait-for
//!    cycle detection, resource-bound certification against
//!    [`MachineConfig`](crate::MachineConfig) capacities, and
//!    spec-consistency checks — all from declarations alone, with zero
//!    simulation ticks.
//! 2. **Runtime enforcement** (`repro spec --enforce`, `--spec` on the bench
//!    bins): after a run, [`check_report`] replays the recorded
//!    [`ProbeReport`] against the declarations. Any
//!    undeclared send/spawn, arity violation, or certified-bound overrun
//!    becomes a deterministic finding that is byte-identical across host
//!    thread counts (the probe itself is commutative).
//!
//! Groups follow the probe's model: a thread group is keyed by the event
//! label that *created* the thread (the spawn target). Events that run on
//! a thread created at a different label declare membership with
//! [`EventDecl::on`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::probe::ProbeReport;

/// An upper bound that is either a finite count or not certifiable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    Finite(u64),
    Unbounded,
}

impl Bound {
    // Saturating arithmetic, not the std traits: `Unbounded` absorbs and
    // there is no sensible `Output` for overflow to surface through.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(0), _) | (_, Bound::Finite(0)) => Bound::Finite(0),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_mul(b)),
            _ => Bound::Unbounded,
        }
    }

    pub fn is_finite(self) -> bool {
        matches!(self, Bound::Finite(_))
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// The class prefix of a full `thread::event` name (everything before the
/// last `::`). Names without a separator are their own class.
pub fn class_of(name: &str) -> &str {
    match name.rfind("::") {
        Some(i) => &name[..i],
        None => name,
    }
}

/// One declared send edge out of an event handler.
///
/// `targets` lists the full event names the send may address; more than
/// one entry means "any of these" (used where the destination label is a
/// runtime parameter, e.g. a tree broadcast delivering a caller-chosen
/// event).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendDecl {
    pub targets: Vec<String>,
    pub min_args: u32,
    pub max_args: Option<u32>,
    /// The send addresses `ThreadId::NEW`, allocating a thread at the
    /// destination lane.
    pub to_new: bool,
    /// The send carries a real continuation (the sender waits for a
    /// reply); these are the edges that form wait-for cycles.
    pub with_cont: bool,
    /// The send only happens on some control paths.
    pub conditional: bool,
    /// The send is part of an ordered/hierarchical recursion (e.g. a tree
    /// relay fanning out to strictly deeper levels), so a self-class
    /// cycle through it cannot deadlock.
    pub ordered: bool,
    /// How many copies of this send one handler execution may issue,
    /// per destination lane (used for spawn fan-out certification).
    pub fanout: Bound,
}

impl SendDecl {
    fn to_targets(targets: &[&str]) -> SendDecl {
        SendDecl {
            targets: targets.iter().map(|s| s.to_string()).collect(),
            min_args: 0,
            max_args: None,
            to_new: false,
            with_cont: false,
            conditional: false,
            ordered: false,
            fanout: Bound::Finite(1),
        }
    }

    /// Declare the exact inclusive operand-count range of this send.
    pub fn args(&mut self, min: u32, max: u32) -> &mut Self {
        self.min_args = min;
        self.max_args = Some(max);
        self
    }

    /// Declare a lower bound only on the operand count.
    pub fn args_at_least(&mut self, min: u32) -> &mut Self {
        self.min_args = min;
        self.max_args = None;
        self
    }

    pub fn to_new(&mut self) -> &mut Self {
        self.to_new = true;
        self
    }

    pub fn with_cont(&mut self) -> &mut Self {
        self.with_cont = true;
        self
    }

    pub fn conditional(&mut self) -> &mut Self {
        self.conditional = true;
        self
    }

    pub fn ordered(&mut self) -> &mut Self {
        self.ordered = true;
        self
    }

    pub fn fanout(&mut self, n: u64) -> &mut Self {
        self.fanout = Bound::Finite(n);
        self
    }

    pub fn fanout_unbounded(&mut self) -> &mut Self {
        self.fanout = Bound::Unbounded;
        self
    }

    fn accepts_argc(&self, argc: u32) -> bool {
        argc >= self.min_args && self.max_args.is_none_or(|m| argc <= m)
    }
}

/// Declared effects of one event handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventDecl {
    /// Full `thread::event` name.
    pub name: String,
    pub min_args: u32,
    /// `None` leaves incoming arity unchecked.
    pub max_args: Option<u32>,
    pub sends: Vec<SendDecl>,
    /// The handler may reply on a stored continuation (a send whose
    /// destination is a runtime continuation word, carrying no further
    /// continuation itself). Such sends need no explicit [`SendDecl`].
    pub replies: bool,
    /// The handler may `yield_terminate`, freeing its thread context.
    pub terminates: bool,
    /// Same-thread resumption targets: labels this handler's thread
    /// continues at without a recorded send (DRAM read returns, atomic
    /// acks, replies delivered to a stored continuation).
    pub resumes: Vec<String>,
    /// The event is injected by the host driver.
    pub from_host: bool,
    /// Full name of the spawn-target event whose thread group this
    /// handler runs on. `None` means the handler roots its own group
    /// (it is itself a spawn target or host entry point).
    pub on: Option<String>,
    /// Declared per-lane live-thread bound for the group this event
    /// roots, overriding the spawn-fan-out derivation.
    pub live_per_lane: Option<Bound>,
    /// Per-lane scratchpad words the group this event roots may allocate.
    pub spm_per_lane: Bound,
}

impl EventDecl {
    fn new(name: String) -> EventDecl {
        EventDecl {
            name,
            min_args: 0,
            max_args: None,
            sends: Vec::new(),
            replies: false,
            terminates: false,
            resumes: Vec::new(),
            from_host: false,
            on: None,
            live_per_lane: None,
            spm_per_lane: Bound::Finite(0),
        }
    }

    /// Declare the exact inclusive incoming operand-count range.
    pub fn args(&mut self, min: u32, max: u32) -> &mut Self {
        self.min_args = min;
        self.max_args = Some(max);
        self
    }

    pub fn args_at_least(&mut self, min: u32) -> &mut Self {
        self.min_args = min;
        self.max_args = None;
        self
    }

    /// Declare a send to a single target event.
    pub fn send(&mut self, target: &str, cfg: impl FnOnce(&mut SendDecl)) -> &mut Self {
        let mut sd = SendDecl::to_targets(&[target]);
        cfg(&mut sd);
        self.sends.push(sd);
        self
    }

    /// Declare a send whose destination is any of `targets`.
    pub fn send_any(&mut self, targets: &[&str], cfg: impl FnOnce(&mut SendDecl)) -> &mut Self {
        let mut sd = SendDecl::to_targets(targets);
        cfg(&mut sd);
        self.sends.push(sd);
        self
    }

    pub fn replies(&mut self) -> &mut Self {
        self.replies = true;
        self
    }

    pub fn terminates(&mut self) -> &mut Self {
        self.terminates = true;
        self
    }

    /// Declare a same-thread resumption target (see [`EventDecl::resumes`]).
    pub fn resumes(&mut self, target: &str) -> &mut Self {
        self.resumes.push(target.to_string());
        self
    }

    pub fn from_host(&mut self) -> &mut Self {
        self.from_host = true;
        self
    }

    /// Declare that this handler runs on threads of the group rooted at
    /// `root` (a spawn-target event name) instead of rooting its own.
    pub fn on(&mut self, root: &str) -> &mut Self {
        self.on = Some(root.to_string());
        self
    }

    pub fn live_per_lane(&mut self, n: u64) -> &mut Self {
        self.live_per_lane = Some(Bound::Finite(n));
        self
    }

    pub fn live_unbounded(&mut self) -> &mut Self {
        self.live_per_lane = Some(Bound::Unbounded);
        self
    }

    pub fn spm_per_lane(&mut self, words: u64) -> &mut Self {
        self.spm_per_lane = Bound::Finite(words);
        self
    }

    pub fn spm_unbounded(&mut self) -> &mut Self {
        self.spm_per_lane = Bound::Unbounded;
        self
    }

    fn accepts_argc(&self, argc: u32) -> bool {
        argc >= self.min_args && self.max_args.is_none_or(|m| argc <= m)
    }
}

/// Declared events of one thread-type class.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ThreadDecl {
    pub name: String,
    /// Keyed by full `thread::event` name.
    pub events: BTreeMap<String, EventDecl>,
}

impl ThreadDecl {
    /// Get-or-create the declaration for event `event` (short name,
    /// without the class prefix).
    pub fn event(&mut self, event: &str) -> &mut EventDecl {
        let full = format!("{}::{}", self.name, event);
        self.events
            .entry(full.clone())
            .or_insert_with(|| EventDecl::new(full))
    }
}

/// A whole-program protocol specification: thread-type classes and their
/// declared events.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ProgramSpec {
    pub threads: BTreeMap<String, ThreadDecl>,
}

impl ProgramSpec {
    pub fn new() -> ProgramSpec {
        ProgramSpec::default()
    }

    /// Get-or-create the declaration block for thread-type `name`.
    pub fn thread(&mut self, name: &str) -> &mut ThreadDecl {
        self.threads
            .entry(name.to_string())
            .or_insert_with(|| ThreadDecl {
                name: name.to_string(),
                events: BTreeMap::new(),
            })
    }

    /// Get-or-create an event declaration by full `thread::event` name.
    pub fn event_mut(&mut self, full: &str) -> &mut EventDecl {
        let class = class_of(full).to_string();
        let td = self.thread(&class);
        td.events
            .entry(full.to_string())
            .or_insert_with(|| EventDecl::new(full.to_string()))
    }

    /// Look up an event declaration by full name.
    pub fn event(&self, full: &str) -> Option<&EventDecl> {
        self.threads.get(class_of(full))?.events.get(full)
    }

    /// Whether the class of `full` has any declarations (enforcement
    /// scope: events of undeclared classes are ignored).
    pub fn declares_class(&self, class: &str) -> bool {
        self.threads.contains_key(class)
    }

    /// All declared events in deterministic order.
    pub fn events(&self) -> impl Iterator<Item = &EventDecl> {
        self.threads.values().flat_map(|t| t.events.values())
    }

    /// The group root for a declared event: its `on` target if declared,
    /// otherwise itself.
    pub fn group_of<'a>(&'a self, full: &'a str) -> &'a str {
        match self.event(full).and_then(|e| e.on.as_deref()) {
            Some(root) => root,
            None => full,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }
}

/// One edge of the declared event-flow graph: a send — one per target of
/// its [`SendDecl`], which carries the fanout, the operand range and the
/// `to_new` / `with_cont` / `conditional` / `ordered` flags — or, with
/// `send: None`, a same-thread resumption.
#[derive(Clone, Copy, Debug)]
pub struct DeclEdge<'a> {
    pub src: &'a str,
    pub dst: &'a str,
    pub send: Option<&'a SendDecl>,
}

/// The declared graph of `spec` as one edge list, the only walk every
/// analysis starts from. Order is deterministic: events by name, each
/// event's sends (target by target, as declared) before its resumptions.
pub fn declared_edges(spec: &ProgramSpec) -> impl Iterator<Item = DeclEdge<'_>> {
    spec.events().flat_map(|ev| {
        let src = ev.name.as_str();
        let sends = ev.sends.iter().flat_map(move |sd| {
            let send = Some(sd);
            sd.targets.iter().map(move |dst| DeclEdge { src, dst, send })
        });
        let resumes = ev.resumes.iter().map(move |dst| DeclEdge {
            src,
            dst,
            send: None,
        });
        sends.chain(resumes)
    })
}

/// How [`propagate`] starts a node: `Pinned` is its value outright (its
/// in-edges are never walked), `Seed` is what its in-edges add to.
#[derive(Clone, Copy, Debug)]
pub enum Start<T> {
    Pinned(T),
    Seed(T),
}

/// What [`propagate`] computed.
#[derive(Clone, Debug)]
pub struct Propagation<'a, T> {
    /// The value of every node the walk reached.
    pub values: BTreeMap<&'a str, T>,
    /// Each node the walk re-entered while its own value was still open,
    /// in the order it met them; that in-edge read the cycle value.
    pub cycles: Vec<&'a str>,
}

/// The one memoized propagation over a graph's in-edges that [`certify`]
/// and `repro cost` run. A node's value is its [`Start`] folded with
/// `step(acc, value(src), edge)` over `in_edges[node]` (`(src, edge)`
/// pairs, walked in their given order). Nodes are visited in `order`. A
/// node met again before its value is done is a cycle: that in-edge reads
/// `cycle`. A value is memoized when first done, so on a cycle it depends
/// on where the walk entered it.
pub fn propagate<'a, T: Copy, E>(
    order: impl IntoIterator<Item = &'a str>,
    in_edges: &BTreeMap<&'a str, Vec<(&'a str, E)>>,
    start: impl Fn(&str) -> Start<T>,
    mut step: impl FnMut(T, T, &E) -> T,
    cycle: T,
) -> Propagation<'a, T> {
    enum Memo<T> {
        Computing,
        Done(T),
    }
    struct Walk<'a, 'w, T, E> {
        in_edges: &'w BTreeMap<&'a str, Vec<(&'a str, E)>>,
        start: &'w dyn Fn(&str) -> Start<T>,
        step: &'w mut dyn FnMut(T, T, &E) -> T,
        cycle: T,
        memo: BTreeMap<&'a str, Memo<T>>,
        cycles: Vec<&'a str>,
    }
    impl<'a, T: Copy, E> Walk<'a, '_, T, E> {
        fn value(&mut self, node: &'a str) -> T {
            let mut acc = match self.memo.get(node) {
                Some(Memo::Done(v)) => return *v,
                Some(Memo::Computing) => {
                    self.cycles.push(node);
                    return self.cycle;
                }
                None => match (self.start)(node) {
                    Start::Pinned(v) => {
                        self.memo.insert(node, Memo::Done(v));
                        return v;
                    }
                    Start::Seed(v) => v,
                },
            };
            self.memo.insert(node, Memo::Computing);
            let in_edges = self.in_edges;
            for (src, e) in in_edges.get(node).into_iter().flatten() {
                let v = self.value(src);
                acc = (self.step)(acc, v, e);
            }
            self.memo.insert(node, Memo::Done(acc));
            acc
        }
    }
    let mut walk = Walk {
        in_edges,
        start: &start,
        step: &mut step,
        cycle,
        memo: BTreeMap::new(),
        cycles: Vec::new(),
    };
    for node in order {
        walk.value(node);
    }
    // Every visit has returned, so every memo entry is done.
    let values = walk.memo.into_iter().filter_map(|(n, m)| match m {
        Memo::Done(v) => Some((n, v)),
        Memo::Computing => None,
    });
    Propagation {
        values: values.collect(),
        cycles: walk.cycles,
    }
}

/// Certified per-lane bounds for one thread group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupBound {
    /// Full name of the group's root (spawn-target) event.
    pub root: String,
    /// Per-lane live-thread upper bound.
    pub live: Bound,
    /// `true` if `live` was derived from spawn fan-out rather than
    /// declared with `live_per_lane`.
    pub derived: bool,
    /// Per-lane scratchpad-word upper bound.
    pub spm: Bound,
}

/// Whole-program per-lane resource certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certification {
    pub groups: Vec<GroupBound>,
    pub threads_per_lane: Bound,
    pub spm_words_per_lane: Bound,
}

/// Derive per-lane resource bounds from spawn fan-out declarations.
///
/// A group's live bound is, unless declared with `live_per_lane`, the sum
/// over all `to_new` send edges targeting its root of
/// `live(sender's group) * fanout`, plus 1 if the root is host-injected.
/// A spawn cycle reads as `Unbounded` ([`propagate`]).
pub fn certify(spec: &ProgramSpec) -> Certification {
    // Spawn edges lifted to groups, keyed by the spawned group.
    let mut spawns: BTreeMap<&str, Vec<(&str, Bound)>> = BTreeMap::new();
    for e in declared_edges(spec) {
        if let Some(sd) = e.send.filter(|sd| sd.to_new) {
            let edge = (spec.group_of(e.src), sd.fanout);
            spawns.entry(spec.group_of(e.dst)).or_default().push(edge);
        }
    }
    // Group roots: every spawned group, every host-injected event, plus
    // anything with a declared live bound or a nonzero spm bound that
    // roots itself.
    let roots: BTreeSet<&str> = spec
        .events()
        .filter(|ev| {
            ev.on.is_none()
                && (ev.from_host
                    || ev.live_per_lane.is_some()
                    || ev.spm_per_lane != Bound::Finite(0))
        })
        .map(|ev| ev.name.as_str())
        .chain(spawns.keys().copied())
        .collect();
    let start = |root: &str| match spec.event(root) {
        Some(EventDecl { live_per_lane: Some(declared), .. }) => Start::Pinned(*declared),
        ev => Start::Seed(Bound::Finite(ev.is_some_and(|e| e.from_host).into())),
    };
    let step = |acc: Bound, src: Bound, &fanout: &Bound| acc.add(src.mul(fanout));
    let walk = propagate(roots.iter().copied(), &spawns, start, step, Bound::Unbounded);

    let mut groups = Vec::new();
    let mut threads_total = Bound::Finite(0);
    let mut spm_total = Bound::Finite(0);
    for root in roots {
        let derived = spec.event(root).is_none_or(|e| e.live_per_lane.is_none());
        let live = walk.values[root];
        let spm = spec
            .event(root)
            .map_or(Bound::Finite(0), |e| e.spm_per_lane);
        threads_total = threads_total.add(live);
        spm_total = spm_total.add(spm);
        groups.push(GroupBound {
            root: root.to_string(),
            live,
            derived,
            spm,
        });
    }
    Certification {
        groups,
        threads_per_lane: threads_total,
        spm_words_per_lane: spm_total,
    }
}

/// Concrete workload facts for static cost prediction (`repro cost`).
///
/// The symbolic pass over a [`ProgramSpec`] yields per-event count
/// *bounds* (root multiplicity × fanout products); a `Workload` pins the
/// numbers an actual input implies: absolute execution counts for events
/// whose multiplicity depends on the data (map tasks, per-edge reduce
/// messages), average dynamic fan-outs for send edges declared
/// `fanout_unbounded`, and the per-node weight distribution the
/// partitioner / DRAMmalloc layout produced. Each app exposes a
/// `workload()` hook that builds one from the same inputs its `run_*`
/// driver uses — host-side arithmetic only, zero simulation ticks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workload {
    /// Pinned absolute execution counts by full `thread::event` name.
    /// A pinned count overrides edge propagation for that event.
    pub counts: BTreeMap<String, f64>,
    /// Average dynamic multiplier for a `(src, dst)` send edge — e.g.
    /// the mean emits per map task for an edge declared
    /// `fanout_unbounded`. Overrides the declared [`SendDecl::fanout`].
    pub fanouts: BTreeMap<(String, String), f64>,
    /// Relative per-node work weights from the data layout (length =
    /// machine nodes; empty = uniform). Need not be normalized.
    pub node_weights: Vec<f64>,
    /// `(src, dst)` send edges known to stay on the sender's node
    /// (lane-local routing), excluded from predicted cross-node traffic.
    pub local_edges: Vec<(String, String)>,
}

impl Workload {
    pub fn new() -> Workload {
        Workload::default()
    }

    /// Pin the absolute execution count of `event`.
    pub fn count(&mut self, event: &str, n: f64) -> &mut Self {
        self.counts.insert(event.to_string(), n);
        self
    }

    /// Declare the mean dynamic fan-out of the `src` → `dst` send edge.
    pub fn fanout(&mut self, src: &str, dst: &str, mean: f64) -> &mut Self {
        self.fanouts
            .insert((src.to_string(), dst.to_string()), mean);
        self
    }

    /// Mark the `src` → `dst` send edge as node-local.
    pub fn local(&mut self, src: &str, dst: &str) -> &mut Self {
        self.local_edges.push((src.to_string(), dst.to_string()));
        self
    }

    /// Set the per-node work-weight distribution.
    pub fn weights(&mut self, w: Vec<f64>) -> &mut Self {
        self.node_weights = w;
        self
    }
}

/// Finding severity, shared by every analyzer; `Error` sorts first and is
/// the only level that makes a report unclean.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
    Info,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding. The derived order (severity, check, subject,
/// message) is the order every report lists them in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub severity: Severity,
    /// Check id (kebab-case, stable — part of every `*/v1` schema).
    pub check: &'static str,
    /// What the finding is about: a handler or full event name, a thread
    /// group (named by its root), an app, or `machine`.
    pub subject: String,
    pub message: String,
}

impl Finding {
    pub fn new(
        severity: Severity,
        check: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            severity,
            check,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

/// `severity[check] subject: message` — the line `repro check` and `repro race`
/// print.
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.check, self.subject, self.message
        )
    }
}

/// Check an observed [`ProbeReport`] against declarations: the runtime
/// enforcement half of `repro spec`.
///
/// Scope rule: only events whose *class* appears in the spec are checked;
/// host bookkeeping events of undeclared classes are ignored. The result
/// is deterministic and independent of host thread count because the
/// probe report itself is.
pub fn check_report(
    spec: &ProgramSpec,
    report: &ProbeReport,
    max_threads_per_lane: u16,
    spm_words: u32,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if spec.is_empty() {
        return out;
    }
    for (&label, h) in &report.handlers {
        if h.executions == 0 {
            continue;
        }
        let name = report.handler_name(label);
        if !spec.declares_class(class_of(name)) {
            continue;
        }
        let Some(decl) = spec.event(name) else {
            out.push(Finding::new(
                Severity::Error,
                "undeclared-event",
                name,
                format!(
                    "executed {} times but not declared by thread-type spec `{}`",
                    h.executions,
                    class_of(name)
                ),
            ));
            continue;
        };
        for &argc in &h.incoming_argcs {
            if !decl.accepts_argc(argc) {
                out.push(Finding::new(
                    Severity::Error,
                    "arity-mismatch",
                    name,
                    format!(
                        "received {argc}-operand message; spec declares {}..{}",
                        decl.min_args,
                        decl.max_args
                            .map_or("*".to_string(), |m| m.to_string())
                    ),
                ));
            }
        }
        if h.terminates > 0 && !decl.terminates {
            out.push(Finding::new(
                Severity::Error,
                "undeclared-terminate",
                name,
                format!(
                    "terminated its thread {} times but spec declares no terminate edge",
                    h.terminates
                ),
            ));
        }
        for (&dst, edge) in &h.sends {
            let dst_name = report.handler_name(dst);
            let matching: Vec<&SendDecl> = decl
                .sends
                .iter()
                .filter(|sd| sd.targets.iter().any(|t| *t == dst_name))
                .collect();
            if matching.is_empty() {
                // Replies to stored continuations carry no continuation
                // of their own and need no explicit declaration.
                if decl.replies && edge.with_cont == 0 {
                    continue;
                }
                out.push(Finding::new(
                    Severity::Error,
                    "undeclared-send",
                    name,
                    format!(
                        "sent {} message(s) to `{}` with no matching declared send",
                        edge.count, dst_name
                    ),
                ));
                continue;
            }
            for &argc in &edge.argcs {
                if !matching.iter().any(|sd| sd.accepts_argc(argc)) {
                    out.push(Finding::new(
                        Severity::Error,
                        "send-arity",
                        name,
                        format!(
                            "sent {argc}-operand message to `{dst_name}`; no declared send to it allows that arity"
                        ),
                    ));
                }
            }
            if edge.to_new > 0 && !matching.iter().any(|sd| sd.to_new) {
                out.push(Finding::new(
                    Severity::Error,
                    "undeclared-spawn",
                    name,
                    format!(
                        "spawned {} thread(s) at `{}` but no declared send to it is marked to_new",
                        edge.to_new, dst_name
                    ),
                ));
            }
            if edge.with_cont > 0 && !matching.iter().any(|sd| sd.with_cont) {
                out.push(Finding::new(
                    Severity::Error,
                    "undeclared-continuation",
                    name,
                    format!(
                        "sent {} message(s) to `{}` carrying a continuation; declared send has none",
                        edge.with_cont, dst_name
                    ),
                ));
            }
        }
    }

    // Cross-check observed per-lane highwaters against certified bounds.
    let cert = certify(spec);
    if let Bound::Finite(b) = cert.threads_per_lane {
        let worst = report
            .thread_highwater
            .iter()
            .map(|(&lane, &hw)| (hw, lane))
            .max();
        if let Some((hw, lane)) = worst {
            if u64::from(hw) > b {
                out.push(Finding::new(
                    Severity::Error,
                    "thread-bound-exceeded",
                    "machine".to_string(),
                    format!(
                        "lane {lane} reached {hw} live threads; certified per-lane bound is {b}"
                    ),
                ));
            }
        }
    }
    if let Bound::Finite(b) = cert.spm_words_per_lane {
        let worst = report
            .spm_highwater
            .iter()
            .map(|(&lane, &hw)| (hw, lane))
            .max();
        if let Some((hw, lane)) = worst {
            if u64::from(hw) > b {
                out.push(Finding::new(
                    Severity::Error,
                    "spm-bound-exceeded",
                    "machine".to_string(),
                    format!(
                        "lane {lane} allocated {hw} scratchpad words; certified per-lane bound is {b}"
                    ),
                ));
            }
        }
    }
    // Certified bounds must themselves fit the machine the run used.
    if let Bound::Finite(b) = cert.threads_per_lane {
        if b > u64::from(max_threads_per_lane) {
            out.push(Finding::new(
                Severity::Warning,
                "thread-bound-capacity",
                "machine".to_string(),
                format!(
                    "certified per-lane thread bound {b} exceeds machine capacity {max_threads_per_lane}"
                ),
            ));
        }
    }
    if let Bound::Finite(b) = cert.spm_words_per_lane {
        if b > u64::from(spm_words) {
            out.push(Finding::new(
                Severity::Warning,
                "spm-bound-capacity",
                "machine".to_string(),
                format!(
                    "certified per-lane scratchpad bound {b} words exceeds machine capacity {spm_words}"
                ),
            ));
        }
    }

    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> ProgramSpec {
        let mut s = ProgramSpec::new();
        {
            let t = s.thread("drv");
            t.event("start")
                .from_host()
                .args(1, 1)
                .terminates()
                .send("wk::run", |sd| {
                    sd.to_new().with_cont().fanout(4).args(2, 2);
                });
        }
        {
            let t = s.thread("wk");
            t.event("run")
                .args(2, 2)
                .replies()
                .terminates()
                .spm_per_lane(16);
        }
        s
    }

    #[test]
    fn certify_derives_fanout_bounds() {
        let cert = certify(&toy_spec());
        let wk = cert.groups.iter().find(|g| g.root == "wk::run").unwrap();
        assert_eq!(wk.live, Bound::Finite(4));
        assert!(wk.derived);
        assert_eq!(wk.spm, Bound::Finite(16));
        let drv = cert.groups.iter().find(|g| g.root == "drv::start").unwrap();
        assert_eq!(drv.live, Bound::Finite(1));
        assert_eq!(cert.threads_per_lane, Bound::Finite(5));
        assert_eq!(cert.spm_words_per_lane, Bound::Finite(16));
    }

    #[test]
    fn certify_spawn_cycle_is_unbounded() {
        let mut s = ProgramSpec::new();
        s.thread("a").event("go").from_host().send("b::go", |sd| {
            sd.to_new();
        });
        s.thread("b").event("go").send("a::go", |sd| {
            sd.to_new();
        });
        let cert = certify(&s);
        assert_eq!(cert.threads_per_lane, Bound::Unbounded);
    }

    #[test]
    fn certify_fanout_zero_self_spawn_spawns_nothing() {
        // A spawn edge back into its own group reads the cycle value,
        // Unbounded; times fanout 0 it adds nothing, as on a longer cycle.
        let mut s = ProgramSpec::new();
        s.thread("a").event("go").from_host().send("a::go", |sd| {
            sd.to_new().fanout(0);
        });
        assert_eq!(certify(&s).threads_per_lane, Bound::Finite(1));
        s.event_mut("a::go").sends[0].fanout = Bound::Finite(1);
        assert_eq!(certify(&s).threads_per_lane, Bound::Unbounded);
    }

    #[test]
    fn declared_live_overrides_derivation() {
        let mut s = toy_spec();
        s.event_mut("wk::run").live_per_lane(2);
        let cert = certify(&s);
        let wk = cert.groups.iter().find(|g| g.root == "wk::run").unwrap();
        assert_eq!(wk.live, Bound::Finite(2));
        assert!(!wk.derived);
    }

    #[test]
    fn certify_fanout_zero_annihilates() {
        // A to_new edge with fanout 0 spawns nothing, even from an
        // unbounded source group: 0 × unbounded = 0.
        let mut s = ProgramSpec::new();
        s.thread("drv")
            .event("start")
            .from_host()
            .send("wk::run", |sd| {
                sd.to_new().fanout_unbounded();
            });
        s.thread("wk").event("run").send("aux::never", |sd| {
            sd.to_new().fanout(0);
        });
        let cert = certify(&s);
        let wk = cert.groups.iter().find(|g| g.root == "wk::run").unwrap();
        assert_eq!(wk.live, Bound::Unbounded);
        let aux = cert.groups.iter().find(|g| g.root == "aux::never").unwrap();
        assert_eq!(aux.live, Bound::Finite(0), "0 x unbounded must be 0");
        assert_eq!(Bound::Unbounded.mul(Bound::Finite(0)), Bound::Finite(0));
    }

    #[test]
    fn certify_conditional_only_spawn_chain() {
        // Conditional sends still count toward the upper bound: a chain
        // of conditional-only spawns multiplies fan-outs like an
        // unconditional one (certification is worst-case).
        let mut s = ProgramSpec::new();
        s.thread("a").event("go").from_host().send("b::go", |sd| {
            sd.to_new().conditional().fanout(3);
        });
        s.thread("b").event("go").send("c::go", |sd| {
            sd.to_new().conditional().fanout(2);
        });
        s.thread("c").event("go").terminates();
        let cert = certify(&s);
        let b = cert.groups.iter().find(|g| g.root == "b::go").unwrap();
        assert_eq!(b.live, Bound::Finite(3));
        let c = cert.groups.iter().find(|g| g.root == "c::go").unwrap();
        assert_eq!(c.live, Bound::Finite(6));
        assert_eq!(cert.threads_per_lane, Bound::Finite(10));
    }

    #[test]
    fn certify_mixed_finite_unbounded_products() {
        // One bounded and one unbounded in-edge into the same group: the
        // sum is unbounded, and downstream finite fan-outs stay
        // unbounded (unbounded × finite = unbounded for nonzero).
        let mut s = ProgramSpec::new();
        s.thread("drv")
            .event("start")
            .from_host()
            .send("wk::run", |sd| {
                sd.to_new().fanout(4);
            })
            .send("wk::run", |sd| {
                sd.to_new().fanout_unbounded();
            });
        s.thread("wk").event("run").send("dn::fin", |sd| {
            sd.to_new().fanout(2);
        });
        s.thread("dn").event("fin").terminates();
        let cert = certify(&s);
        let wk = cert.groups.iter().find(|g| g.root == "wk::run").unwrap();
        assert_eq!(wk.live, Bound::Unbounded);
        let dn = cert.groups.iter().find(|g| g.root == "dn::fin").unwrap();
        assert_eq!(dn.live, Bound::Unbounded);
        // Bound arithmetic corner cases the derivation relies on.
        assert_eq!(
            Bound::Finite(4).add(Bound::Unbounded),
            Bound::Unbounded
        );
        assert_eq!(
            Bound::Unbounded.mul(Bound::Finite(2)),
            Bound::Unbounded
        );
        assert_eq!(Bound::Finite(0).mul(Bound::Unbounded), Bound::Finite(0));
    }

    #[test]
    fn workload_builders_accumulate() {
        let mut w = Workload::new();
        w.count("wk::run", 128.0)
            .fanout("wk::run", "wk::emit", 7.5)
            .local("wk::run", "wk::done")
            .weights(vec![2.0, 1.0]);
        assert_eq!(w.counts.get("wk::run"), Some(&128.0));
        assert_eq!(
            w.fanouts
                .get(&("wk::run".to_string(), "wk::emit".to_string())),
            Some(&7.5)
        );
        assert_eq!(w.local_edges.len(), 1);
        assert_eq!(w.node_weights, vec![2.0, 1.0]);
    }

    #[test]
    fn class_of_splits_on_last_separator() {
        assert_eq!(class_of("a::b::c"), "a::b");
        assert_eq!(class_of("plain"), "plain");
    }

    #[test]
    fn empty_spec_checks_clean() {
        let report = ProbeReport::default();
        assert!(check_report(&ProgramSpec::new(), &report, 512, 8192).is_empty());
    }
}
