//! `ud spec`: static deadlock and resource-bound checks over a
//! [`ProgramSpec`] — declarations alone, zero simulation ticks.
//!
//! Three check families run over the declared event-flow graph
//! ([`declared_edges`]):
//!
//! 1. **Wait-for cycles** (`wait-cycle`): strongly connected components of
//!    the *group* digraph whose edges are continuation-carrying sends
//!    (the sender's thread holds its context until the reply arrives).
//!    A cycle of unconditional, unordered waits is a certain deadlock
//!    shape under thread-table saturation (error); a cycle whose every
//!    internal edge is declared `ordered` is hierarchical recursion that
//!    strictly descends (info); anything in between is a warning.
//! 2. **Resource-bound certification** (`thread-bound-*`, `spm-bound-*`):
//!    [`certify`] folds spawn fan-out declarations into per-lane
//!    live-thread and scratchpad-word upper bounds per thread group; the
//!    totals must fit the target machine's thread table and scratchpad.
//!    Groups that only admit an unbounded derivation are reported at
//!    info severity — the program relies on a dynamic throttle (credit
//!    counters, windows) the spec cannot see.
//! 3. **Spec consistency** (`unknown-send-target`, `arity-incompatible`,
//!    `unknown-group-root`, `unknown-resume-target`, `unreachable-event`):
//!    the declarations must close over themselves — every declared send
//!    names a declared event with a satisfiable operand range, and every
//!    declared event is reachable from a host injection.
//!
//! Clean means zero error-severity findings, as for every subcommand.

use std::collections::{BTreeMap, BTreeSet};

use updown_sim::json::JsonWriter;
use updown_sim::spec::{
    certify, check_report, declared_edges, Bound, Certification, ProgramSpec, SendDecl,
};
use updown_sim::{MachineConfig, ProtocolProbe};

use crate::{
    bracketed, count_errors, document, write_bound, write_findings, Finding, Report, Severity,
};

/// One continuation-carrying (wait) edge of the group digraph.
struct WaitEdge<'a> {
    src: &'a str,
    dst: &'a str,
    send: &'a SendDecl,
}

/// Strongly connected components of the wait digraph, via iterative
/// Tarjan over a deterministic (sorted) node order.
fn sccs<'a>(nodes: &[&'a str], edges: &[WaitEdge<'a>]) -> Vec<Vec<&'a str>> {
    let idx: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[idx[e.src]].push(idx[e.dst]);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }

    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<&str>> = Vec::new();

    // Iterative Tarjan: (node, next-child-offset) call frames.
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    out.push(comp);
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out.sort();
    out
}

/// Wait-for-cycle detection over continuation edges (check family 1):
/// the sends declared `with_cont`, lifted from events to thread groups.
pub fn wait_cycle_findings(spec: &ProgramSpec) -> Vec<Finding> {
    let edges: Vec<WaitEdge> = declared_edges(spec)
        .filter_map(|e| {
            let send = e.send.filter(|sd| sd.with_cont)?;
            Some(WaitEdge { src: spec.group_of(e.src), dst: spec.group_of(e.dst), send })
        })
        .collect();
    let nodes: BTreeSet<&str> = edges.iter().flat_map(|e| [e.src, e.dst]).collect();
    let nodes: Vec<&str> = nodes.into_iter().collect();
    let mut out = Vec::new();
    for comp in sccs(&nodes, &edges) {
        let internal: Vec<&SendDecl> = edges
            .iter()
            .filter(|e| comp.contains(&e.src) && comp.contains(&e.dst))
            .map(|e| e.send)
            .collect();
        // A singleton without a self-loop is not a cycle.
        if internal.is_empty() {
            continue;
        }
        let severity = if internal.iter().all(|e| e.ordered) {
            Severity::Info
        } else if internal.iter().all(|e| !e.conditional && !e.ordered) {
            Severity::Error
        } else {
            Severity::Warning
        };
        let shape = match severity {
            Severity::Info => "ordered recursion (strictly descending, cannot deadlock)",
            Severity::Error => {
                "every wait is unconditional and unordered; deadlocks under thread-table saturation"
            }
            Severity::Warning => "some waits are conditional; may deadlock on adverse paths",
        };
        out.push(Finding::new(
            severity,
            "wait-cycle",
            comp[0],
            format!(
                "continuation wait cycle through {{{}}} ({} edge(s)): {shape}",
                comp.join(", "),
                internal.len()
            ),
        ));
    }
    out
}

/// Resource-bound certification against machine capacities (family 2).
pub fn bound_findings(cert: &Certification, mc: &MachineConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for g in &cert.groups {
        if g.live == Bound::Unbounded {
            out.push(Finding::new(
                Severity::Info,
                "thread-bound-uncertified",
                g.root.clone(),
                if g.derived {
                    "spawn fan-out admits no finite per-lane live-thread bound \
                     (spawn cycle or unbounded fanout); relies on a dynamic throttle"
                        .to_string()
                } else {
                    "declared live_unbounded; relies on a dynamic throttle".to_string()
                },
            ));
        }
        if g.spm == Bound::Unbounded {
            out.push(Finding::new(
                Severity::Info,
                "spm-bound-uncertified",
                g.root.clone(),
                "no finite per-lane scratchpad bound declared".to_string(),
            ));
        }
    }
    if let Bound::Finite(b) = cert.threads_per_lane {
        if b > u64::from(mc.max_threads_per_lane) {
            out.push(Finding::new(
                Severity::Error,
                "thread-bound-capacity",
                "machine".to_string(),
                format!(
                    "certified per-lane live-thread bound {b} exceeds the thread \
                     table ({} contexts/lane)",
                    mc.max_threads_per_lane
                ),
            ));
        }
    }
    if let Bound::Finite(b) = cert.spm_words_per_lane {
        if b > u64::from(mc.spm_words) {
            out.push(Finding::new(
                Severity::Error,
                "spm-bound-capacity",
                "machine".to_string(),
                format!(
                    "certified per-lane scratchpad bound {b} words exceeds the \
                     scratchpad ({} words/lane)",
                    mc.spm_words
                ),
            ));
        }
    }
    out
}

/// Spec self-consistency (family 3).
pub fn consistency_findings(spec: &ProgramSpec) -> Vec<Finding> {
    let mut out = Vec::new();
    let targeted: BTreeSet<&str> = declared_edges(spec).map(|e| e.dst).collect();
    for ev in spec.events() {
        for sd in &ev.sends {
            for t in &sd.targets {
                let Some(dst) = spec.event(t) else {
                    out.push(Finding::new(
                        Severity::Error,
                        "unknown-send-target",
                        ev.name.clone(),
                        format!("declares a send to `{t}`, which no thread-type declares"),
                    ));
                    continue;
                };
                // Operand ranges must intersect, or no message on this
                // edge can ever be accepted.
                let hi_ok = dst.max_args.is_none_or(|m| sd.min_args <= m);
                let lo_ok = sd.max_args.is_none_or(|m| m >= dst.min_args);
                if !(hi_ok && lo_ok) {
                    out.push(Finding::new(
                        Severity::Error,
                        "arity-incompatible",
                        ev.name.clone(),
                        format!(
                            "send to `{t}` carries {}..{} operands but the target accepts {}..{}",
                            sd.min_args,
                            sd.max_args.map_or("*".to_string(), |m| m.to_string()),
                            dst.min_args,
                            dst.max_args.map_or("*".to_string(), |m| m.to_string()),
                        ),
                    ));
                }
            }
        }
        for r in &ev.resumes {
            if spec.event(r).is_none() {
                out.push(Finding::new(
                    Severity::Warning,
                    "unknown-resume-target",
                    ev.name.clone(),
                    format!("declares resumption at `{r}`, which no thread-type declares"),
                ));
            }
        }
        if let Some(root) = &ev.on {
            if spec.event(root).is_none() {
                out.push(Finding::new(
                    Severity::Error,
                    "unknown-group-root",
                    ev.name.clone(),
                    format!("declares membership in group `{root}`, which no thread-type declares"),
                ));
            }
        }
        // Reachability: host-injected, a send/resume target, or a member
        // of a thread group (whose root delivers it via continuations).
        if !ev.from_host && ev.on.is_none() && !targeted.contains(ev.name.as_str()) {
            out.push(Finding::new(
                Severity::Warning,
                "unreachable-event",
                ev.name.clone(),
                "not host-injected and never the target of a declared send or \
                 resumption; likely a stale or misspelled declaration"
                    .to_string(),
            ));
        }
    }
    out
}

/// Static analysis of one program spec: all three check families plus the
/// certification itself, bundled for rendering.
#[derive(Clone, Debug)]
pub struct SpecAnalysis {
    pub app: String,
    /// The analyzed declarations (what `--dot` draws).
    pub spec: ProgramSpec,
    pub n_threads: usize,
    pub n_events: usize,
    pub cert: Certification,
    pub findings: Vec<Finding>,
    /// Runtime-enforcement findings (`--enforce` only; empty for pure
    /// static runs).
    pub enforced: Option<Vec<Finding>>,
}

impl SpecAnalysis {
    /// Analyze `spec` against `mc`'s per-lane capacities. Pure: reads the
    /// declarations only, never constructs an engine.
    pub fn of(app: &str, spec: &ProgramSpec, mc: &MachineConfig) -> SpecAnalysis {
        let cert = certify(spec);
        let mut findings = Vec::new();
        findings.extend(consistency_findings(spec));
        findings.extend(wait_cycle_findings(spec));
        findings.extend(bound_findings(&cert, mc));
        findings.sort();
        findings.dedup();
        SpecAnalysis {
            app: app.to_string(),
            spec: spec.clone(),
            n_threads: spec.threads.len(),
            n_events: spec.events().count(),
            cert,
            findings,
            enforced: None,
        }
    }

    /// Record `--enforce`'s findings for a run that carried `probe` with
    /// this spec enforced on `mc`: the observed-vs-declared deviations, and,
    /// since attaching the probe armed the sanitizer, its diagnostics.
    pub fn enforce(&mut self, probe: &ProtocolProbe, mc: &MachineConfig) {
        let report = probe.snapshot();
        let mut enforced = check_report(&self.spec, &report, mc.max_threads_per_lane, mc.spm_words);
        enforced.extend(crate::sanitizer_findings(&report));
        self.enforced = Some(enforced);
    }

    pub fn errors(&self) -> usize {
        count_errors(self.findings.iter().chain(self.enforced.iter().flatten()))
    }

    /// Clean = zero error-severity findings (static and, if run,
    /// enforcement).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

impl Report for SpecAnalysis {
    const SCHEMA: &'static str = "udspec/v1";
    const COUNTERS: &'static [&'static str] = &["errors"];
    const ITEMS: &'static str = "specs";

    fn app(&self) -> &str {
        &self.app
    }

    fn is_clean(&self) -> bool {
        SpecAnalysis::is_clean(self)
    }

    fn counter(&self, _: usize) -> u64 {
        self.errors() as u64
    }

    fn dot(&self) -> Option<String> {
        Some(spec_to_dot(&self.spec, &self.app))
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("app").string(&self.app);
        w.key("threads").u64(self.n_threads as u64);
        w.key("events").u64(self.n_events as u64);
        w.key("clean").bool(self.is_clean());
        w.key("certification").begin_obj();
        w.key("threads_per_lane");
        write_bound(w, self.cert.threads_per_lane);
        w.key("spm_words_per_lane");
        write_bound(w, self.cert.spm_words_per_lane);
        w.key("groups").begin_arr();
        for g in &self.cert.groups {
            w.begin_obj();
            w.key("root").string(&g.root);
            w.key("live");
            write_bound(w, g.live);
            w.key("derived").bool(g.derived);
            w.key("spm");
            write_bound(w, g.spm);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj(); // certification
        w.key("findings");
        write_findings(w, "subject", &self.findings);
        if let Some(enf) = &self.enforced {
            w.key("enforced");
            write_findings(w, "subject", enf);
        }
        w.end_obj();
    }

    fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "udspec: {}  ({} thread type(s), {} event(s); certified {} thread(s), \
             {} spm word(s) per lane)\n",
            self.app,
            self.n_threads,
            self.n_events,
            self.cert.threads_per_lane,
            self.cert.spm_words_per_lane,
        ));
        if self.findings.is_empty() {
            s.push_str("  findings: none\n");
        } else {
            for f in &self.findings {
                s.push_str(&format!("  {}\n", bracketed(f)));
            }
        }
        match &self.enforced {
            None => {}
            Some(enf) if enf.is_empty() => s.push_str("  enforcement: clean\n"),
            Some(enf) => {
                for f in enf {
                    s.push_str(&format!("  enforcement{}\n", bracketed(f)));
                }
            }
        }
        s
    }
}

/// Render a declared [`ProgramSpec`] as a Graphviz digraph: one cluster
/// per declared thread class, one node per event, solid edges for
/// declared sends (labelled with their fanout; `cont` marks
/// continuation-carrying waits, `new` thread-spawning sends) and dashed
/// edges for same-thread resumptions. Host-injected events render as
/// doubled boxes. Parity with `ud check --dot`, but from declarations
/// alone — no run, no probe.
pub fn spec_to_dot(spec: &ProgramSpec, title: &str) -> String {
    // Stable node ids: position in the spec's sorted event order.
    let ids: BTreeMap<&str, usize> = spec
        .events()
        .enumerate()
        .map(|(i, e)| (e.name.as_str(), i))
        .collect();
    let mut s = String::new();
    s.push_str(&format!("digraph \"{title}\" {{\n  rankdir=LR;\n"));
    for (ci, (tname, t)) in spec.threads.iter().enumerate() {
        s.push_str(&format!(
            "  subgraph cluster_{ci} {{\n    label=\"{tname}\";\n"
        ));
        for e in t.events.values() {
            let shape = if e.from_host { "box, peripheries=2" } else { "box" };
            let short = e.name.rsplit("::").next().unwrap_or(&e.name);
            s.push_str(&format!(
                "    n{} [label=\"{}\\nargs {}..{}\", shape={}];\n",
                ids[e.name.as_str()],
                short,
                e.min_args,
                e.max_args.map_or("*".to_string(), |m| m.to_string()),
                shape
            ));
        }
        s.push_str("  }\n");
    }
    for e in declared_edges(spec) {
        // An edge to an undeclared event has no node to point at.
        let Some(&dst) = ids.get(e.dst) else { continue };
        let attrs = match e.send {
            None => "style=dashed".to_string(),
            Some(sd) => format!(
                "label=\"x{}{}{}\"{}",
                match sd.fanout {
                    Bound::Finite(n) => n.to_string(),
                    Bound::Unbounded => "*".to_string(),
                },
                if sd.with_cont { " cont" } else { "" },
                if sd.to_new { " new" } else { "" },
                if sd.conditional { ", style=dotted" } else { "" },
            ),
        };
        s.push_str(&format!("  n{} -> n{dst} [{attrs}];\n", ids[e.src]));
    }
    s.push_str("}\n");
    s
}

/// Render a full `udspec/v1` document over a set of analyses.
pub fn render_spec_document(analyses: &[SpecAnalysis]) -> String {
    document(analyses)
}

/// Seeded-defect fixture: two worker classes that unconditionally wait on
/// each other — the canonical wait-for deadlock shape `udspec` must flag
/// without running anything.
pub fn wait_cycle_fixture() -> ProgramSpec {
    let mut s = ProgramSpec::new();
    {
        let t = s.thread("fix_drv");
        let e = t.event("start");
        e.args(0, 0).from_host().live_per_lane(1).terminates();
        e.send("fix_a::work", |sd| {
            sd.args(1, 1).to_new().with_cont();
        });
    }
    {
        let t = s.thread("fix_a");
        let e = t.event("work");
        e.args(1, 1).replies().terminates();
        e.send("fix_b::work", |sd| {
            sd.args(1, 1).to_new().with_cont();
        });
    }
    {
        let t = s.thread("fix_b");
        let e = t.event("work");
        e.args(1, 1).replies().terminates();
        e.send("fix_a::work", |sd| {
            sd.args(1, 1).to_new().with_cont();
        });
    }
    s
}

/// Seeded-defect fixture: a host-seeded group whose declared scratchpad
/// footprint and spawn fan-out both exceed a small machine's per-lane
/// capacities.
pub fn spm_blowup_fixture() -> ProgramSpec {
    let mut s = ProgramSpec::new();
    {
        let t = s.thread("fix_drv");
        let e = t.event("start");
        e.args(0, 0).from_host().live_per_lane(1).terminates();
        // 1024 workers per driver on one lane: blows a 512-context table.
        e.send("fix_wk::run", |sd| {
            sd.args(2, 2).to_new().fanout(1024);
        });
    }
    {
        let t = s.thread("fix_wk");
        // 64 Ki words of combining cache per lane: blows an 8 Ki pad.
        t.event("run")
            .args(2, 2)
            .terminates()
            .spm_per_lane(65536);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> MachineConfig {
        MachineConfig::small(2, 2, 8)
    }

    #[test]
    fn wait_cycle_fixture_is_flagged_statically() {
        let a = SpecAnalysis::of("fixture", &wait_cycle_fixture(), &caps());
        assert!(!a.is_clean());
        assert!(a
            .findings
            .iter()
            .any(|f| f.check == "wait-cycle" && f.severity == Severity::Error));
    }

    #[test]
    fn ordered_self_recursion_is_info() {
        let mut s = ProgramSpec::new();
        {
            let t = s.thread("tree");
            let e = t.event("relay");
            e.args(1, 1).from_host().live_per_lane(1).terminates();
            e.send("tree::relay", |sd| {
                sd.args(1, 1).to_new().with_cont().conditional().ordered();
            });
        }
        let a = SpecAnalysis::of("tree", &s, &caps());
        let f = a
            .findings
            .iter()
            .find(|f| f.check == "wait-cycle")
            .expect("self-loop reported");
        assert_eq!(f.severity, Severity::Info);
        assert!(a.is_clean());
    }

    #[test]
    fn spm_blowup_fixture_is_flagged_statically() {
        let a = SpecAnalysis::of("fixture", &spm_blowup_fixture(), &caps());
        assert!(!a.is_clean());
        assert!(a.findings.iter().any(|f| f.check == "spm-bound-capacity"));
        assert!(a.findings.iter().any(|f| f.check == "thread-bound-capacity"));
    }

    #[test]
    fn consistency_flags_typos_and_arity_gaps() {
        let mut s = ProgramSpec::new();
        {
            let t = s.thread("drv");
            let e = t.event("start");
            e.from_host().terminates();
            e.send("wk::rnu", |sd| {
                sd.args(2, 2).to_new();
            });
            e.send("wk::run", |sd| {
                sd.args(9, 9).to_new();
            });
        }
        s.thread("wk").event("run").args(2, 2).terminates();
        s.thread("wk").event("stale").args(0, 0).terminates();
        let fs = consistency_findings(&s);
        assert!(fs
            .iter()
            .any(|f| f.check == "unknown-send-target" && f.message.contains("wk::rnu")));
        assert!(fs
            .iter()
            .any(|f| f.check == "arity-incompatible" && f.message.contains("wk::run")));
        assert!(fs
            .iter()
            .any(|f| f.check == "unreachable-event" && f.subject == "wk::stale"));
    }

    #[test]
    fn spec_document_schema_and_determinism() {
        let a = SpecAnalysis::of("fixture", &wait_cycle_fixture(), &caps());
        let d1 = render_spec_document(std::slice::from_ref(&a));
        let d2 = render_spec_document(std::slice::from_ref(&a));
        assert_eq!(d1, d2);
        assert!(d1.contains("\"schema\":\"udspec/v1\""));
    }
}
