//! `repro spec`: static deadlock and resource-bound checks over a
//! [`ProgramSpec`] — declarations alone, zero simulation ticks.
//!
//! Three check families run over the declared event-flow graph
//! ([`declared_edges`]):
//!
//! 1. **Wait-for cycles** (`wait-cycle`): strongly connected components
//!    of the *group* digraph whose edges are continuation-carrying sends
//!    (the sender's thread holds its context until the reply arrives). A
//!    component is a set of mutually reachable groups under the one
//!    reachability relation `repro race`'s may-race pass also uses;
//!    components are listed by their smallest group name. A cycle of
//!    unconditional, unordered waits is a certain deadlock
//!    shape under thread-table saturation (error); a cycle whose every
//!    internal edge is declared `ordered` is hierarchical recursion that
//!    strictly descends (info); anything in between is a warning.
//! 2. **Resource-bound certification** (`thread-bound-*`, `spm-bound-*`):
//!    [`certify`] (the propagation walk `repro cost` also runs) folds spawn
//!    fan-out declarations into per-lane live-thread and scratchpad-word
//!    upper bounds per thread group; the totals must fit the target
//!    machine's thread table and scratchpad.
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
    bracketed, count_errors, document, write_bound, write_findings, Finding, Reach, Report,
    Severity,
};

/// Wait-for-cycle detection over continuation edges (check family 1):
/// the sends declared `with_cont`, lifted from events to thread groups.
/// A component is a set of mutually reachable groups (`Reach`).
pub fn wait_cycle_findings(spec: &ProgramSpec) -> Vec<Finding> {
    let edges: Vec<(&str, &str, &SendDecl)> = declared_edges(spec)
        .filter_map(|e| {
            let send = e.send.filter(|sd| sd.with_cont)?;
            Some((spec.group_of(e.src), spec.group_of(e.dst), send))
        })
        .collect();
    let mut out = Vec::new();
    for comp in Reach::of(edges.iter().map(|&(src, dst, _)| (src, dst))).components() {
        let internal: Vec<&SendDecl> = edges
            .iter()
            .filter(|(src, dst, _)| comp.contains(src) && comp.contains(dst))
            .map(|&(_, _, send)| send)
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

    /// Record `--enforce`'s findings for a run on `mc` that carried
    /// `probe`: its report checked against this spec (the observed-vs-
    /// declared deviations), and, since attaching the probe armed the
    /// sanitizer, its diagnostics.
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
/// doubled boxes. Parity with `repro check --dot`, but from declarations
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
    fn wait_cycle_findings_pin_components_order_and_severity() {
        let mut s = ProgramSpec::new();
        // Unconditional x::a ⇄ x::b, plus x::b's member x::b_ack waiting on
        // x::a: three edges once lifted to groups.
        s.thread("x").event("a").send("x::b", |sd| {
            sd.with_cont();
        });
        s.thread("x").event("b").send("x::a", |sd| {
            sd.with_cont();
        });
        s.thread("x").event("b_ack").on("x::b").send("x::a", |sd| {
            sd.with_cont();
        });
        // y::p → y::q → y::r → y::p with one conditional wait, and a tail
        // y::r → z::tail → z::end that closes no cycle. z::end's plain send
        // back to y::p carries no continuation and is no wait edge.
        s.thread("y").event("p").send("y::q", |sd| {
            sd.with_cont();
        });
        s.thread("y").event("q").send("y::r", |sd| {
            sd.with_cont().conditional();
        });
        s.thread("y")
            .event("r")
            .send("y::p", |sd| {
                sd.with_cont();
            })
            .send("z::tail", |sd| {
                sd.with_cont();
            });
        s.thread("z").event("tail").send("z::end", |sd| {
            sd.with_cont();
        });
        s.thread("z").event("end").send("y::p", |_| {});
        // An ordered self-loop.
        s.thread("t").event("relay").send("t::relay", |sd| {
            sd.with_cont().conditional().ordered();
        });
        let got: Vec<String> = wait_cycle_findings(&s).iter().map(|f| f.to_string()).collect();
        assert_eq!(
            got,
            [
                "info[wait-cycle] t::relay: continuation wait cycle through {t::relay} \
                 (1 edge(s)): ordered recursion (strictly descending, cannot deadlock)",
                "error[wait-cycle] x::a: continuation wait cycle through {x::a, x::b} \
                 (3 edge(s)): every wait is unconditional and unordered; deadlocks under \
                 thread-table saturation",
                "warning[wait-cycle] y::p: continuation wait cycle through {y::p, y::q, y::r} \
                 (3 edge(s)): some waits are conditional; may deadlock on adverse paths",
            ]
        );
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
