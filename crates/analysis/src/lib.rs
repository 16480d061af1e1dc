#![forbid(unsafe_code)]
//! # udcheck — analysis of UDWeave programs, four analyzers over one vocabulary
//!
//! UDWeave programs are webs of event handlers exchanging messages with
//! operands and continuations; the protocol invariants that make them
//! correct (every spawned task eventually terminates, every continuation is
//! eventually resumed, senders and receivers agree on operand counts, KVMSR
//! tasks conserve their `emit`/`map_done` messages) live entirely in the
//! programmer's head. This crate makes them checkable. It is a library:
//! `repro` (`crates/bench`) parses the command line and prints, and this
//! crate has one module per analyzer subcommand, each producing per-app
//! [`Report`]s of [`Finding`]s that render as text or as one versioned JSON
//! [`document`] (docs/analysis.md):
//!
//! | subcommand | module | question | schema |
//! |------------|--------|----------|--------|
//! | `repro check` | this one | did the protocol *shape* go wrong in a probed run? | `udcheck/v1` |
//! | `repro race`  | [`race`] | can two memory accesses race? | `udrace/v1` |
//! | `repro spec`  | [`spec`] | can the declared protocol deadlock or blow a bound? | `udspec/v1` |
//! | `repro cost`  | [`cost`] | how much load, traffic and link demand will it cost? | `udcost/v1` |
//!
//! [`apps`] holds the conformance-scale inputs and the per-app drivers
//! `repro`, the tests and the benchmark share.
//!
//! ## `repro check`
//!
//! 1. the simulator's [`ProtocolProbe`] records a
//!    commutative summary of everything a (tiny, deterministic) run did,
//! 2. [`EventFlowGraph::from_report`] lifts the summary into an event-flow
//!    graph — handler nodes, send edges annotated with operand counts,
//!    continuation and thread-creation flags,
//! 3. [`analyze`] runs the static checks below over the graph and summary,
//!    producing deterministic [`Finding`]s.
//!
//! The paired *runtime sanitizer*, armed by attaching the probe
//! ([`MachineConfig::probe`](updown_sim::MachineConfig)), cross-validates:
//! every static check has a dynamic counterpart that fires at the
//! violating event execution, so a `repro check` report carries both views.
//!
//! | id                   | severity | what it catches                                      |
//! |----------------------|----------|------------------------------------------------------|
//! | `send-unregistered`  | error    | edges to labels no handler is registered for         |
//! | `never-terminates`   | error/info | thread groups that spawn but never terminate       |
//! | `unread-continuation`| error    | handlers receiving continuations they never read     |
//! | `scratchpad-leak`    | error/info | `spm_alloc` by groups that never fully terminate   |
//! | `operand-mismatch`   | error    | handler reads past the operand count senders supply  |
//! | `kvmsr-conservation` | error/warning | map tasks whose `map_done` count ≠ tasks spawned |
//!
//! Severity softens to *info*/*warning* where the run ended via `ctx.stop()`
//! (a stopped run legitimately leaves service threads live and may cut a
//! KVMSR phase mid-flight); on a naturally drained run the same facts are
//! hard errors. "Clean" means zero error-severity findings and zero
//! sanitizer diagnostics.

use std::collections::{BTreeMap, BTreeSet};

use updown_sim::json::JsonWriter;
use updown_sim::{ProbeReport, ProtocolProbe};

pub mod apps;
pub mod cost;
pub mod race;
pub mod spec;

pub use cost::{analyze_cost, calibrate, render_cost_document, Calibration, CostReport};
pub use race::{may_race, race_findings, render_race_document, RaceAnalysis};
pub use spec::{render_spec_document, SpecAnalysis};
pub use updown_sim::spec::{Finding, Severity};

// ---------------------------------------------------------------------------
// Reports and documents
// ---------------------------------------------------------------------------

/// One app's result of one analyzer subcommand: everything the CLI's output
/// tail and the JSON envelope need, whichever analysis produced it.
pub trait Report {
    /// Schema tag of the JSON document (`udcheck/v1`, ...).
    const SCHEMA: &'static str;
    /// Counters the envelope sums over its reports, written between
    /// `schema` and `clean`.
    const COUNTERS: &'static [&'static str];
    /// Key of the envelope's per-app array.
    const ITEMS: &'static str;

    /// Name of the analyzed program.
    fn app(&self) -> &str;
    /// Whether this report lets `repro` exit 0.
    fn is_clean(&self) -> bool;
    /// This report's share of `COUNTERS[i]`.
    fn counter(&self, i: usize) -> u64;
    /// Append this report's object to the per-app array.
    fn write_json(&self, w: &mut JsonWriter);
    /// Human-readable rendering (the CLI's default output).
    fn render_text(&self) -> String;
    /// Graphviz rendering, for the subcommands that take `--dot`.
    fn dot(&self) -> Option<String> {
        None
    }
}

/// Render the full JSON document of `R`'s schema over a set of reports.
pub fn document<R: Report>(reports: &[R]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("schema").string(R::SCHEMA);
    for (i, name) in R::COUNTERS.iter().enumerate() {
        w.key(name).u64(reports.iter().map(|r| r.counter(i)).sum());
    }
    w.key("clean").bool(reports.iter().all(|r| r.is_clean()));
    w.key(R::ITEMS).begin_arr();
    for r in reports {
        r.write_json(&mut w);
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Error-severity findings in `findings`.
fn count_errors<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> usize {
    findings
        .into_iter()
        .filter(|f| f.severity == Severity::Error)
        .count()
}

/// Write `findings` as a JSON array. `subject_key` is what the schema calls
/// [`Finding::subject`]: `"handler"` in `udcheck/v1` and `udrace/v1`,
/// `"subject"` in `udspec/v1` and `udcost/v1`.
fn write_findings(w: &mut JsonWriter, subject_key: &str, findings: &[Finding]) {
    w.begin_arr();
    for f in findings {
        w.begin_obj();
        w.key("check").string(f.check);
        w.key("severity").string(f.severity.as_str());
        w.key(subject_key).string(&f.subject);
        w.key("message").string(&f.message);
        w.end_obj();
    }
    w.end_arr();
}

/// A [`Bound`](updown_sim::spec::Bound) as JSON: the count, or `null` for unbounded.
fn write_bound(w: &mut JsonWriter, b: updown_sim::spec::Bound) {
    match b {
        updown_sim::spec::Bound::Finite(n) => w.u64(n),
        updown_sim::spec::Bound::Unbounded => w.null(),
    };
}

/// `[severity] check subject: message` — the line `repro spec` and `repro cost`
/// print.
fn bracketed(f: &Finding) -> String {
    format!("[{}] {} {}: {}", f.severity, f.check, f.subject, f.message)
}

/// The sanitizer's diagnostics in a probe that rode along with another
/// observer (`repro race`, `repro spec --enforce`), as `sanitizer` error
/// findings: attaching the probe armed the sanitizer, so a violation it
/// tolerated must still fail the run.
fn sanitizer_findings(report: &ProbeReport) -> impl Iterator<Item = Finding> + '_ {
    report.diagnostics.iter().map(|d| {
        let at = format!("x{}, first at tick {} lane {}", d.count, d.first_tick, d.lane);
        let message = format!("{}: {} ({at})", d.kind.as_str(), d.detail);
        Finding::new(Severity::Error, "sanitizer", d.handler.clone(), message)
    })
}

/// Transitive reachability over a directed edge list, generic over the node
/// key: the one relation behind may-race ordering (over handler labels) and
/// wait-for cycles (over thread-group names). Graphs here have tens of
/// nodes, so a search per node is fine.
struct Reach<K> {
    /// Each node an edge leaves, with every node a path of one or more
    /// edges leads to from it.
    from: BTreeMap<K, BTreeSet<K>>,
}

impl<K: Ord + Copy> Reach<K> {
    fn of(edges: impl IntoIterator<Item = (K, K)>) -> Reach<K> {
        let mut succ: BTreeMap<K, BTreeSet<K>> = BTreeMap::new();
        for (a, b) in edges {
            succ.entry(a).or_default().insert(b);
        }
        let reached = |n: K| {
            let (mut seen, mut work) = (BTreeSet::new(), vec![n]);
            while let Some(k) = work.pop() {
                for &d in succ.get(&k).into_iter().flatten() {
                    if seen.insert(d) {
                        work.push(d);
                    }
                }
            }
            seen
        };
        let from = succ.keys().map(|&n| (n, reached(n))).collect();
        Reach { from }
    }

    /// Whether a path of one or more edges leads from `a` to `b`.
    fn reaches(&self, a: K, b: K) -> bool {
        self.from.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// The strongly connected components (classes of mutually reachable
    /// nodes) of the nodes an edge leaves, each sorted, listed by their
    /// smallest node.
    fn components(&self) -> Vec<Vec<K>> {
        let mut out: Vec<Vec<K>> = Vec::new();
        for &n in self.from.keys() {
            if !out.iter().any(|comp| comp.contains(&n)) {
                let mutual = |&m: &K| m == n || (self.reaches(n, m) && self.reaches(m, n));
                out.push(self.from.keys().copied().filter(mutual).collect());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Event-flow graph
// ---------------------------------------------------------------------------

/// One handler node of the event-flow graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowNode {
    pub label: u16,
    pub name: String,
    pub executions: u64,
    /// Executions that ended in `yield_terminate`.
    pub terminates: u64,
    /// Threads allocated by NEW-addressed messages to this label.
    pub spawns: u64,
    pub spm_alloc_words: u64,
}

/// One send edge of the event-flow graph (all sends src → dst, merged).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowEdge {
    pub src: u16,
    pub dst: u16,
    pub count: u64,
    /// Distinct operand counts observed on this edge.
    pub argcs: Vec<u32>,
    /// Sends carrying a (non-IGNORE) continuation.
    pub with_cont: u64,
    /// Sends addressed to `ThreadId::NEW` (thread-creating).
    pub to_new: u64,
}

/// The event-flow graph of one program run, extracted from a
/// [`ProbeReport`]. Node and edge order is deterministic (label order).
#[derive(Clone, Debug, Default)]
pub struct EventFlowGraph {
    pub nodes: Vec<FlowNode>,
    pub edges: Vec<FlowEdge>,
}

impl EventFlowGraph {
    pub fn from_report(r: &ProbeReport) -> EventFlowGraph {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for (&label, h) in &r.handlers {
            nodes.push(FlowNode {
                label,
                name: r.handler_name(label).to_string(),
                executions: h.executions,
                terminates: h.terminates,
                spawns: r.groups.get(&label).map_or(0, |g| g.spawned),
                spm_alloc_words: h.spm_alloc_words,
            });
            for (&dst, e) in &h.sends {
                edges.push(FlowEdge {
                    src: label,
                    dst,
                    count: e.count,
                    argcs: e.argcs.iter().copied().collect(),
                    with_cont: e.with_cont,
                    to_new: e.to_new,
                });
            }
        }
        EventFlowGraph { nodes, edges }
    }

    /// Graphviz rendering (debugging aid; `repro check --dot`).
    pub fn to_dot(&self, title: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("digraph \"{title}\" {{\n  rankdir=LR;\n"));
        for n in &self.nodes {
            s.push_str(&format!(
                "  n{} [label=\"{}\\nexec={} term={}\"];\n",
                n.label, n.name, n.executions, n.terminates
            ));
        }
        for e in &self.edges {
            s.push_str(&format!(
                "  n{} -> n{} [label=\"x{}{}{}\"];\n",
                e.src,
                e.dst,
                e.count,
                if e.with_cont > 0 { " cont" } else { "" },
                if e.to_new > 0 { " new" } else { "" },
            ));
        }
        s.push_str("}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Run all static checks over a probe report. Findings are deterministic
/// and sorted ([`Finding`]'s order).
pub fn analyze(r: &ProbeReport) -> Vec<Finding> {
    let mut out = Vec::new();
    check_send_unregistered(r, &mut out);
    check_never_terminates(r, &mut out);
    check_unread_continuation(r, &mut out);
    check_scratchpad_leak(r, &mut out);
    check_operand_mismatch(r, &mut out);
    check_kvmsr_conservation(r, &mut out);
    out.sort();
    out
}

/// Check 1: sends to event labels no handler was registered for. Such a
/// message would fault real hardware; under the sanitizer it is dropped.
fn check_send_unregistered(r: &ProbeReport, out: &mut Vec<Finding>) {
    for (&src, h) in &r.handlers {
        for (&dst, e) in &h.sends {
            if (dst as usize) >= r.handler_names.len() {
                out.push(Finding::new(
                    Severity::Error,
                    "send-unregistered",
                    r.handler_name(src),
                    format!(
                        "sends to unregistered event label {dst} ({} send(s))",
                        e.count
                    ),
                ));
            }
        }
    }
}

/// Check 2: thread groups (keyed by creating label) that spawn contexts but
/// never terminate any. On a drained run this is a proven context leak; on
/// a stopped run it is reported as info — persistent service threads are a
/// legitimate UDWeave idiom, but a group with *zero* terminations across a
/// whole run is worth a look.
fn check_never_terminates(r: &ProbeReport, out: &mut Vec<Finding>) {
    for (&label, g) in &r.groups {
        if g.spawned == 0 || g.terminated > 0 {
            continue;
        }
        let name = r.handler_name(label).to_string();
        if r.drained {
            out.push(Finding::new(
                Severity::Error,
                "never-terminates",
                name,
                format!(
                    "group spawned {} thread context(s) and terminated none; \
                     {} still live when the run drained",
                    g.spawned, g.live_at_exit
                ),
            ));
        } else {
            out.push(Finding::new(
                Severity::Info,
                "never-terminates",
                name,
                format!(
                    "group spawned {} thread context(s) and terminated none \
                     (run was stopped; fine for persistent service threads)",
                    g.spawned
                ),
            ));
        }
    }
}

/// Check 3: handlers that receive continuations but never read them. The
/// sender paid to create a resumable continuation that is provably dead —
/// either the sender should pass `IGNORE` or the handler should reply.
fn check_unread_continuation(r: &ProbeReport, out: &mut Vec<Finding>) {
    for (&label, h) in &r.handlers {
        if h.recv_with_cont > 0 && h.cont_reads == 0 {
            out.push(Finding::new(
                Severity::Error,
                "unread-continuation",
                r.handler_name(label),
                format!(
                    "received {} message(s) carrying a continuation but never \
                     read ctx.cont(); those continuations can never resume",
                    h.recv_with_cont
                ),
            ));
        }
    }
}

/// Check 4: scratchpad allocated by thread groups that never fully
/// terminate. `spm_alloc` is a bump allocator reclaimed only by group
/// turnover, so a group that allocates and leaks contexts pins scratchpad
/// for the life of the lane.
fn check_scratchpad_leak(r: &ProbeReport, out: &mut Vec<Finding>) {
    for (&label, g) in &r.groups {
        if g.spm_alloc_words == 0 {
            continue;
        }
        let name = r.handler_name(label).to_string();
        if r.drained && g.live_at_exit > 0 {
            out.push(Finding::new(
                Severity::Error,
                "scratchpad-leak",
                name,
                format!(
                    "{} scratchpad word(s) allocated by a group with {} \
                     context(s) still live at drain",
                    g.spm_alloc_words, g.live_at_exit
                ),
            ));
        } else if !r.drained && g.spawned > 0 && g.terminated == 0 {
            out.push(Finding::new(
                Severity::Info,
                "scratchpad-leak",
                name,
                format!(
                    "{} scratchpad word(s) allocated by a group that \
                     terminated no contexts before the run was stopped",
                    g.spm_alloc_words
                ),
            ));
        }
    }
}

/// Check 5: operand-count mismatches between senders and handlers. The
/// probe keys the max operand index each handler reads by the operand count
/// of the triggering message (guarded handlers legitimately read different
/// ranges under different arities); a max read index ≥ the arity means the
/// handler read past what its senders supplied.
fn check_operand_mismatch(r: &ProbeReport, out: &mut Vec<Finding>) {
    for (&label, h) in &r.handlers {
        for (&argc, &max_idx) in &h.reads_by_argc {
            if max_idx < argc {
                continue;
            }
            // Attribute: which senders supply this arity?
            let senders: Vec<&str> = r
                .handlers
                .iter()
                .filter(|(_, s)| s.sends.get(&label).is_some_and(|e| e.argcs.contains(&argc)))
                .map(|(&s, _)| r.handler_name(s))
                .collect();
            let via = if senders.is_empty() {
                String::from("host sends")
            } else {
                senders.join(", ")
            };
            out.push(Finding::new(
                Severity::Error,
                "operand-mismatch",
                r.handler_name(label),
                format!(
                    "reads operand index {max_idx} but messages of this shape \
                     carry only {argc} operand(s) (senders: {via})"
                ),
            ));
        }
    }
}

/// Check 6: KVMSR message conservation. Every map task spawned by the
/// launcher must send exactly one `map_done` back (`kvmsr_launcher::task_done`);
/// tasks that `emit` to the reducer but never complete, or complete more
/// than once, break the runtime's in-flight accounting and hang or
/// double-free the job.
fn check_kvmsr_conservation(r: &ProbeReport, out: &mut Vec<Finding>) {
    let label_of = |name: &str| -> Option<u16> {
        r.handler_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u16)
    };
    let (Some(map), Some(done)) = (label_of("kvmsr::kv_map"), label_of("kvmsr_launcher::task_done"))
    else {
        return; // program does not use KVMSR
    };
    let reduce = label_of("kvmsr::kv_reduce");
    let Some(g) = r.groups.get(&map) else {
        return; // KVMSR registered but no map phase ran
    };
    // Sends from any label executing on map-task threads. Labels are
    // attributed to the group they execute on, so async continuation
    // handlers of map tasks are covered.
    let sum_sends_to = |dst: u16| -> u64 {
        g.labels
            .iter()
            .filter_map(|l| r.handlers.get(l))
            .filter_map(|h| h.sends.get(&dst))
            .map(|e| e.count)
            .sum()
    };
    let dones = sum_sends_to(done);
    let emits = reduce.map_or(0, sum_sends_to);
    let name = r.handler_name(map).to_string();
    if dones > g.spawned {
        out.push(Finding::new(
            Severity::Error,
            "kvmsr-conservation",
            name,
            format!(
                "{} map task(s) spawned but {dones} map_done message(s) sent — \
                 a task completed more than once",
                g.spawned
            ),
        ));
    } else if dones < g.spawned {
        out.push(Finding::new(
            if r.drained {
                Severity::Error
            } else {
                Severity::Warning
            },
            "kvmsr-conservation",
            name,
            format!(
                "{} map task(s) spawned but only {dones} map_done message(s) \
                 sent ({emits} emit(s) observed){}",
                g.spawned,
                if r.drained {
                    "; the job can never complete"
                } else {
                    "; run was stopped — possible mid-phase truncation"
                }
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

/// Analysis of one program run: graph + findings + the sanitizer's dynamic
/// diagnostics, bundled for rendering.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub app: String,
    pub report: ProbeReport,
    pub graph: EventFlowGraph,
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Analyze a finished run's probe. `app` names the program in reports.
    pub fn of(app: &str, probe: &ProtocolProbe) -> Analysis {
        let report = probe.snapshot();
        let graph = EventFlowGraph::from_report(&report);
        let findings = analyze(&report);
        Analysis {
            app: app.to_string(),
            report,
            graph,
            findings,
        }
    }

    pub fn errors(&self) -> usize {
        count_errors(&self.findings)
    }

    /// Clean = no error findings and no sanitizer diagnostics.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.report.diagnostics.is_empty()
    }
}

impl Report for Analysis {
    const SCHEMA: &'static str = "udcheck/v1";
    const COUNTERS: &'static [&'static str] = &["errors", "diagnostics"];
    const ITEMS: &'static str = "runs";

    fn app(&self) -> &str {
        &self.app
    }

    fn is_clean(&self) -> bool {
        Analysis::is_clean(self)
    }

    fn counter(&self, i: usize) -> u64 {
        [self.errors(), self.report.diagnostics.len()][i] as u64
    }

    fn dot(&self) -> Option<String> {
        Some(self.graph.to_dot(&self.app))
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("app").string(&self.app);
        w.key("drained").bool(self.report.drained);
        w.key("clean").bool(self.is_clean());
        w.key("graph").begin_obj();
        w.key("nodes").begin_arr();
        for n in &self.graph.nodes {
            w.begin_obj();
            w.key("label").u64(n.label as u64);
            w.key("name").string(&n.name);
            w.key("executions").u64(n.executions);
            w.key("terminates").u64(n.terminates);
            w.key("spawns").u64(n.spawns);
            w.key("spm_alloc_words").u64(n.spm_alloc_words);
            w.end_obj();
        }
        w.end_arr();
        w.key("edges").begin_arr();
        for e in &self.graph.edges {
            w.begin_obj();
            w.key("src").u64(e.src as u64);
            w.key("dst").u64(e.dst as u64);
            w.key("count").u64(e.count);
            w.key("argcs").begin_arr();
            for &a in &e.argcs {
                w.u64(a as u64);
            }
            w.end_arr();
            w.key("with_cont").u64(e.with_cont);
            w.key("to_new").u64(e.to_new);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj(); // graph
        w.key("findings");
        write_findings(w, "handler", &self.findings);
        w.key("diagnostics").begin_arr();
        for d in &self.report.diagnostics {
            w.begin_obj();
            w.key("kind").string(d.kind.as_str());
            w.key("handler").string(&d.handler);
            w.key("detail").string(&d.detail);
            w.key("first_tick").u64(d.first_tick);
            w.key("lane").u64(d.lane as u64);
            w.key("count").u64(d.count);
            w.end_obj();
        }
        w.end_arr();
        w.key("suppressed").u64(self.report.suppressed);
        w.key("sites_truncated").u64(self.report.sites_truncated);
        w.end_obj();
    }

    fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "udcheck: {}  ({} handlers, {} edges, {})\n",
            self.app,
            self.graph.nodes.len(),
            self.graph.edges.len(),
            if self.report.drained {
                "drained"
            } else {
                "stopped"
            }
        ));
        if self.findings.is_empty() {
            s.push_str("  findings: none\n");
        } else {
            for f in &self.findings {
                s.push_str(&format!("  {f}\n"));
            }
        }
        if self.report.diagnostics.is_empty() {
            s.push_str("  sanitizer: clean\n");
        } else {
            for d in &self.report.diagnostics {
                s.push_str(&format!(
                    "  sanitizer[{}] {}: {} (x{}, first at tick {} lane {})\n",
                    d.kind.as_str(),
                    d.handler,
                    d.detail,
                    d.count,
                    d.first_tick,
                    d.lane
                ));
            }
        }
        if self.report.suppressed > 0 {
            s.push_str(&format!(
                "  warning: {} occurrence(s) at {} distinct diagnostic site(s) \
                 dropped past the site cap\n",
                self.report.suppressed, self.report.sites_truncated
            ));
        }
        s
    }
}

/// Render a full `udcheck/v1` document over a set of analyses.
pub fn render_document(analyses: &[Analysis]) -> String {
    document(analyses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_sim::probe::{EdgeRecord, GroupRecord, HandlerRecord};

    fn base_report(names: &[&str]) -> ProbeReport {
        ProbeReport {
            handler_names: names.iter().map(|s| s.to_string()).collect(),
            drained: true,
            ..ProbeReport::default()
        }
    }

    fn handler(executions: u64) -> HandlerRecord {
        HandlerRecord {
            executions,
            ..HandlerRecord::default()
        }
    }

    #[test]
    fn clean_report_has_no_findings() {
        let mut r = base_report(&["a", "b"]);
        let mut h = handler(3);
        h.sends.insert(
            1,
            EdgeRecord {
                count: 3,
                ..EdgeRecord::default()
            },
        );
        r.handlers.insert(0, h);
        r.handlers.insert(1, handler(3));
        assert!(analyze(&r).is_empty());
    }

    #[test]
    fn flags_send_to_unregistered_label() {
        let mut r = base_report(&["a"]);
        let mut h = handler(1);
        h.sends.insert(9, EdgeRecord::default());
        r.handlers.insert(0, h);
        let f = analyze(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "send-unregistered");
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].subject, "a");
    }

    #[test]
    fn never_terminates_severity_tracks_drain() {
        let mut r = base_report(&["spawner"]);
        r.groups.insert(
            0,
            GroupRecord {
                spawned: 4,
                terminated: 0,
                live_at_exit: 4,
                ..GroupRecord::default()
            },
        );
        let f = analyze(&r);
        assert_eq!(f[0].check, "never-terminates");
        assert_eq!(f[0].severity, Severity::Error);

        r.drained = false;
        r.groups.get_mut(&0).unwrap().live_at_exit = 0;
        let f = analyze(&r);
        assert_eq!(f[0].severity, Severity::Info, "stopped run softens to info");
    }

    #[test]
    fn flags_unread_continuation() {
        let mut r = base_report(&["replyless"]);
        let mut h = handler(2);
        h.recv_with_cont = 2;
        h.cont_reads = 0;
        r.handlers.insert(0, h);
        let f = analyze(&r);
        assert_eq!(f[0].check, "unread-continuation");
        assert_eq!(f[0].severity, Severity::Error);

        // Reading it even once clears the finding.
        r.handlers.get_mut(&0).unwrap().cont_reads = 1;
        assert!(analyze(&r).is_empty());
    }

    #[test]
    fn flags_scratchpad_leak_on_drained_run() {
        let mut r = base_report(&["alloc"]);
        r.groups.insert(
            0,
            GroupRecord {
                spawned: 2,
                terminated: 2, // terminates, so never-terminates stays quiet
                live_at_exit: 1,
                spm_alloc_words: 64,
                ..GroupRecord::default()
            },
        );
        let f = analyze(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "scratchpad-leak");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn operand_mismatch_is_keyed_by_arity() {
        let mut r = base_report(&["sender", "guarded"]);
        let mut s = handler(2);
        s.sends.insert(
            1,
            EdgeRecord {
                count: 2,
                argcs: [2u32, 4].into_iter().collect(),
                ..EdgeRecord::default()
            },
        );
        r.handlers.insert(0, s);
        let mut h = handler(2);
        // Reads index 3 under 4-operand messages: fine. Reads index 3
        // under 2-operand messages: out of range.
        h.reads_by_argc.insert(4, 3);
        h.reads_by_argc.insert(2, 1);
        r.handlers.insert(1, h.clone());
        assert!(analyze(&r).is_empty(), "guarded multi-arity reads are clean");

        h.reads_by_argc.insert(2, 3);
        r.handlers.insert(1, h);
        let f = analyze(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "operand-mismatch");
        assert!(f[0].message.contains("sender"), "attributes the sender");
    }

    #[test]
    fn kvmsr_conservation_counts_dones_against_spawns() {
        let names = &["kvmsr::kv_map", "kvmsr_launcher::task_done", "kvmsr::kv_reduce"];
        let mut r = base_report(names);
        let mut map = handler(8);
        map.terminates = 8;
        map.sends.insert(
            1,
            EdgeRecord {
                count: 8,
                ..EdgeRecord::default()
            },
        );
        map.sends.insert(
            2,
            EdgeRecord {
                count: 20,
                ..EdgeRecord::default()
            },
        );
        r.handlers.insert(0, map);
        r.groups.insert(
            0,
            GroupRecord {
                spawned: 8,
                terminated: 8,
                labels: [0u16].into_iter().collect(),
                ..GroupRecord::default()
            },
        );
        assert!(analyze(&r).is_empty(), "balanced job is clean");

        // Drop half the map_done sends: conservation violated.
        r.handlers.get_mut(&0).unwrap().sends.get_mut(&1).unwrap().count = 4;
        let f = analyze(&r);
        assert_eq!(f[0].check, "kvmsr-conservation");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("only 4 map_done"));

        // Over-completion is an error even on a stopped run.
        r.drained = false;
        r.handlers.get_mut(&0).unwrap().sends.get_mut(&1).unwrap().count = 12;
        let f = analyze(&r);
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("more than once"));
    }

    #[test]
    fn json_document_is_parseable_and_tagged() {
        let mut r = base_report(&["a"]);
        r.handlers.insert(0, handler(1));
        let graph = EventFlowGraph::from_report(&r);
        let a = Analysis {
            app: "unit".into(),
            findings: analyze(&r),
            graph,
            report: r,
        };
        let doc = render_document(&[a]);
        let v = updown_sim::json::JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udcheck/v1"));
        assert_eq!(
            v.get("runs").and_then(|r| r.as_arr()).map(|a| a.len()),
            Some(1)
        );
    }
}
