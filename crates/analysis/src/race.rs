//! # `ud race`, static layer — conflict-pair analysis over the event-flow graph
//!
//! The dynamic race probe ([`RaceProbe`](updown_sim::RaceProbe)) reports
//! *observed* unordered conflicting accesses over every word the run
//! touched. This module adds the static half of `ud race`, the **may-race
//! pass**: handler pairs whose footprints touch the same region (DRAM
//! allocation or lane scratchpad) with at least one plain-write access,
//! and which have *no directed path either way* in the observed
//! event-flow graph. A send path is a happens-before proxy (messages order
//! their endpoints), so pairs without one *may* race even when the
//! instrumented run happened to order them.
//!
//! The flow-graph path test is a heuristic (it does not model barrier
//! counts or operand-dependent joins), so may-race findings are warnings
//! or infos, never errors; only dynamic sites, and the diagnostics of the
//! sanitizer the flow probe arms ([`RaceAnalysis::with_flow`]), are errors.

use std::collections::BTreeMap;

use updown_sim::json::JsonWriter;
use updown_sim::{ProtocolProbe, RaceKind, RaceProbe, RaceReport, Region};

use crate::{document, write_findings, EventFlowGraph, Finding, Reach, Report, Severity};

/// Human-readable name of a footprint region.
pub fn region_str(r: Region) -> String {
    match r {
        Region::Dram(base) => format!("dram alloc {base:#x}"),
        Region::Spm(lane) => format!("lane {lane} scratchpad"),
    }
}

fn region_json(w: &mut JsonWriter, r: Region) {
    w.begin_obj();
    match r {
        Region::Dram(base) => {
            w.key("space").string("dram");
            w.key("base").u64(base);
        }
        Region::Spm(lane) => {
            w.key("space").string("spm");
            w.key("lane").u64(lane as u64);
        }
    }
    w.end_obj();
}

fn by_region(report: &RaceReport) -> BTreeMap<Region, Vec<&updown_sim::Footprint>> {
    let mut out: BTreeMap<Region, Vec<&updown_sim::Footprint>> = BTreeMap::new();
    for fp in &report.footprints {
        out.entry(fp.region).or_default().push(fp);
    }
    out
}

/// Classification of one footprint pair sharing a region. `None` means the
/// pair cannot race (reads only, or every write-class access on both sides
/// is atomic-class — lane-serialized commutative RMW, which orders).
fn pair_kind(
    a: &updown_sim::Footprint,
    b: &updown_sim::Footprint,
) -> Option<RaceKind> {
    let (aw, ar, aa) = (a.writes > 0, a.reads > 0, a.atomics > 0);
    let (bw, br, ba) = (b.writes > 0, b.reads > 0, b.atomics > 0);
    // Write-write: a plain write against any write-class access.
    if (aw && (bw || ba)) || (bw && aa) {
        return Some(RaceKind::WriteWrite);
    }
    // Read-write: a plain write (or atomic write, which still conflicts
    // with plain accesses) against a plain read.
    if (aw || aa) && br || (bw || ba) && ar {
        return Some(RaceKind::ReadWrite);
    }
    None
}

/// The may-race pre-pass: footprint pairs sharing a region with a
/// conflicting access mix and no directed flow-graph path either way.
///
/// Severity is drain-aware: an unordered write-write pair on a naturally
/// drained run is a [`Warning`](Severity::Warning) (the program finished,
/// but nothing orders those writes); read-write pairs and stopped runs
/// soften to [`Info`](Severity::Info). Dynamic sites are the errors — see
/// [`race_findings`].
pub fn may_race(graph: &EventFlowGraph, report: &RaceReport) -> Vec<Finding> {
    let reach = Reach::of(graph.edges.iter().map(|e| (e.src, e.dst)));
    let mut out = Vec::new();
    for (region, fps) in by_region(report) {
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                if a.handler == b.handler {
                    continue; // same-handler parallelism is judged dynamically
                }
                let Some(kind) = pair_kind(a, b) else { continue };
                // A send path either way orders the pair.
                if reach.reaches(a.handler, b.handler) || reach.reaches(b.handler, a.handler) {
                    continue;
                }
                let severity = match kind {
                    RaceKind::WriteWrite if report.drained => Severity::Warning,
                    _ => Severity::Info,
                };
                out.push(Finding::new(
                    severity,
                    "may-race",
                    report.handler_name(a.handler),
                    format!(
                        "may {} race with '{}' on {}: both touch it ({} vs {} \
                         write(s)) with no event-flow path between the handlers",
                        kind.as_str(),
                        report.handler_name(b.handler),
                        region_str(region),
                        a.writes,
                        b.writes
                    ),
                ));
            }
        }
    }
    out
}

/// Dynamic race sites as error findings (attributed to the later access).
pub fn race_findings(report: &RaceReport) -> Vec<Finding> {
    report
        .sites
        .iter()
        .map(|s| {
            let message = format!(
                "{} {} race with '{}' on {}: {} (x{}, first at tick {} lane {})",
                s.space.as_str(),
                s.kind.as_str(),
                s.prior,
                region_str(s.region),
                s.detail,
                s.count,
                s.first_tick,
                s.lane
            );
            Finding::new(Severity::Error, "race", s.current.clone(), message)
        })
        .collect()
}

/// One app's `ud race` result: dynamic report + static findings, bundled for
/// rendering (`udrace/v1`).
#[derive(Clone, Debug)]
pub struct RaceAnalysis {
    pub app: String,
    pub report: RaceReport,
    pub findings: Vec<Finding>,
}

impl RaceAnalysis {
    /// Bundle a finished run's race probe. When the run also carried a
    /// protocol probe, pass its flow graph to enable the may-race pre-pass.
    pub fn of(app: &str, probe: &RaceProbe, graph: Option<&EventFlowGraph>) -> RaceAnalysis {
        let report = probe.snapshot();
        let mut findings = race_findings(&report);
        if let Some(g) = graph {
            findings.extend(may_race(g, &report));
        }
        findings.sort();
        RaceAnalysis {
            app: app.to_string(),
            report,
            findings,
        }
    }

    /// `ud race`'s analysis of a run that also carried the protocol probe
    /// `flow`: its flow graph feeds the may-race pass, and since attaching
    /// it armed the sanitizer, its diagnostics are error findings.
    pub fn with_flow(app: &str, probe: &RaceProbe, flow: &ProtocolProbe) -> RaceAnalysis {
        let report = flow.snapshot();
        let mut a = RaceAnalysis::of(app, probe, Some(&EventFlowGraph::from_report(&report)));
        a.findings.extend(crate::sanitizer_findings(&report));
        a.findings.sort();
        a
    }

    pub fn errors(&self) -> usize {
        crate::count_errors(&self.findings)
    }

    /// Clean = no dynamic race sites, no truncated sites and no other
    /// error finding ([`RaceAnalysis::with_flow`] adds the sanitizer's).
    /// May-race warnings/infos do not make a run unclean.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.errors() == 0
    }
}

impl Report for RaceAnalysis {
    const SCHEMA: &'static str = "udrace/v1";
    const COUNTERS: &'static [&'static str] = &["races"];
    const ITEMS: &'static str = "runs";

    fn app(&self) -> &str {
        &self.app
    }

    fn is_clean(&self) -> bool {
        RaceAnalysis::is_clean(self)
    }

    fn counter(&self, _: usize) -> u64 {
        self.report.sites.len() as u64
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("app").string(&self.app);
        w.key("drained").bool(self.report.drained);
        w.key("clean").bool(self.is_clean());
        w.key("accesses").u64(self.report.accesses);
        w.key("words_tracked").u64(self.report.words_tracked);
        w.key("sites").begin_arr();
        for s in &self.report.sites {
            w.begin_obj();
            w.key("space").string(s.space.as_str());
            w.key("kind").string(s.kind.as_str());
            w.key("prior").string(&s.prior);
            w.key("current").string(&s.current);
            w.key("region");
            region_json(w, s.region);
            w.key("detail").string(&s.detail);
            w.key("first_tick").u64(s.first_tick);
            w.key("lane").u64(s.lane as u64);
            w.key("count").u64(s.count);
            w.end_obj();
        }
        w.end_arr();
        w.key("sites_truncated").u64(self.report.sites_truncated);
        w.key("footprints").begin_arr();
        for f in &self.report.footprints {
            w.begin_obj();
            w.key("handler").string(self.report.handler_name(f.handler));
            w.key("region");
            region_json(w, f.region);
            w.key("reads").u64(f.reads);
            w.key("writes").u64(f.writes);
            w.key("atomics").u64(f.atomics);
            w.end_obj();
        }
        w.end_arr();
        w.key("findings");
        write_findings(w, "handler", &self.findings);
        w.end_obj();
    }

    fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "udrace: {}  ({} access(es) over {} word(s), {})\n",
            self.app,
            self.report.accesses,
            self.report.words_tracked,
            if self.report.drained {
                "drained"
            } else {
                "stopped"
            }
        ));
        if self.findings.is_empty() {
            s.push_str("  races: none\n");
        } else {
            for f in &self.findings {
                s.push_str(&format!("  {f}\n"));
            }
        }
        if self.report.sites_truncated > 0 {
            s.push_str(&format!(
                "  warning: {} distinct race site(s) dropped past the site cap\n",
                self.report.sites_truncated
            ));
        }
        s
    }
}

/// Render a full `udrace/v1` document over a set of analyses.
pub fn render_race_document(analyses: &[RaceAnalysis]) -> String {
    document(analyses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowEdge, FlowNode};
    use updown_sim::{Footprint, RaceSite, RaceSpace};

    fn graph(nodes: &[(u16, &str, u64)], edges: &[(u16, u16)]) -> EventFlowGraph {
        EventFlowGraph {
            nodes: nodes
                .iter()
                .map(|&(label, name, executions)| FlowNode {
                    label,
                    name: name.to_string(),
                    executions,
                    terminates: executions,
                    spawns: 0,
                    spm_alloc_words: 0,
                })
                .collect(),
            edges: edges
                .iter()
                .map(|&(src, dst)| FlowEdge {
                    src,
                    dst,
                    count: 1,
                    argcs: vec![0],
                    with_cont: 0,
                    to_new: 0,
                })
                .collect(),
        }
    }

    fn fp(handler: u16, region: Region, reads: u64, writes: u64, atomics: u64) -> Footprint {
        Footprint {
            handler,
            region,
            reads,
            writes,
            atomics,
        }
    }

    fn report(names: &[&str], footprints: Vec<Footprint>, drained: bool) -> RaceReport {
        RaceReport {
            handler_names: names.iter().map(|s| s.to_string()).collect(),
            footprints,
            drained,
            ..RaceReport::default()
        }
    }

    #[test]
    fn unconnected_writers_may_race_path_orders() {
        let r = report(
            &["a", "b"],
            vec![
                fp(0, Region::Dram(0x100), 0, 5, 0),
                fp(1, Region::Dram(0x100), 0, 3, 0),
            ],
            true,
        );
        // No edges: write-write pair on a drained run is a warning.
        let f = may_race(&graph(&[(0, "a", 1), (1, "b", 1)], &[]), &r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "may-race");
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].message.contains("write-write"));

        // A path in either direction orders the pair.
        let f = may_race(&graph(&[(0, "a", 1), (1, "b", 1)], &[(0, 1)]), &r);
        assert!(f.is_empty());
        let f = may_race(&graph(&[(0, "a", 1), (1, "b", 1)], &[(1, 0)]), &r);
        assert!(f.is_empty());
    }

    #[test]
    fn transitive_paths_count_and_severity_tracks_drain_and_kind() {
        let g = graph(&[(0, "a", 1), (1, "mid", 1), (2, "b", 1)], &[(0, 1), (1, 2)]);
        let wr = |drained| {
            report(
                &["a", "mid", "b"],
                vec![
                    fp(0, Region::Dram(0x100), 0, 5, 0),
                    fp(2, Region::Dram(0x100), 0, 3, 0),
                ],
                drained,
            )
        };
        assert!(may_race(&g, &wr(true)).is_empty(), "a→mid→b orders the pair");

        let disconnected = graph(&[(0, "a", 1), (2, "b", 1)], &[]);
        assert_eq!(may_race(&disconnected, &wr(true))[0].severity, Severity::Warning);
        assert_eq!(
            may_race(&disconnected, &wr(false))[0].severity,
            Severity::Info,
            "stopped runs soften write-write to info"
        );

        let rw = report(
            &["a", "mid", "b"],
            vec![
                fp(0, Region::Dram(0x100), 4, 0, 0),
                fp(2, Region::Dram(0x100), 0, 3, 0),
            ],
            true,
        );
        let f = may_race(&disconnected, &rw);
        assert_eq!(f[0].severity, Severity::Info, "read-write is info");
        assert!(f[0].message.contains("read-write"));
    }

    #[test]
    fn atomic_only_pairs_and_readers_do_not_conflict() {
        let g = graph(&[(0, "a", 1), (1, "b", 1)], &[]);
        // Both sides atomic-class: fetch-adds order, never race.
        let r = report(
            &["a", "b"],
            vec![
                fp(0, Region::Dram(0x100), 0, 0, 9),
                fp(1, Region::Dram(0x100), 0, 0, 4),
            ],
            true,
        );
        assert!(may_race(&g, &r).is_empty());
        // Read-only sharing is fine too.
        let r = report(
            &["a", "b"],
            vec![
                fp(0, Region::Dram(0x100), 9, 0, 0),
                fp(1, Region::Dram(0x100), 4, 0, 0),
            ],
            true,
        );
        assert!(may_race(&g, &r).is_empty());
        // But an atomic writer against a plain reader conflicts.
        let r = report(
            &["a", "b"],
            vec![
                fp(0, Region::Dram(0x100), 0, 0, 9),
                fp(1, Region::Dram(0x100), 4, 0, 0),
            ],
            true,
        );
        assert_eq!(may_race(&g, &r).len(), 1);
    }

    #[test]
    fn single_node_self_pairs_do_not_conflict() {
        // One handler's own footprints never form a cross pair: whether
        // its parallel instances race is for the dynamic probe to say.
        let g = graph(&[(0, "solo", 8)], &[]);
        let r = report(
            &["solo"],
            vec![
                fp(0, Region::Dram(0x100), 4, 0, 0),
                fp(0, Region::Dram(0x100), 0, 2, 0),
                fp(0, Region::Spm(1), 3, 1, 0),
            ],
            true,
        );
        let f = may_race(&g, &r);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dynamic_sites_are_errors_and_unclean() {
        let mut r = report(&["w1", "w2"], vec![], true);
        r.sites.push(RaceSite {
            space: RaceSpace::Dram,
            kind: RaceKind::WriteWrite,
            prior: "w1".into(),
            current: "w2".into(),
            region: Region::Dram(0x100),
            detail: "dram word 0x100: write at tick 3 vs write at tick 7 (unordered)".into(),
            first_tick: 7,
            lane: 0,
            count: 2,
        });
        let probe = RaceProbe::new();
        let _ = probe; // findings built straight from the report here
        let findings = race_findings(&r);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, "race");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("'w1'"));
        assert!(!r.is_clean());
    }

    #[test]
    fn race_document_is_parseable_and_tagged() {
        let probe = RaceProbe::new();
        let a = RaceAnalysis::of("unit", &probe, None);
        let doc = render_race_document(&[a]);
        let v = updown_sim::json::JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udrace/v1"));
        assert_eq!(v.get("clean"), Some(&updown_sim::json::JsonValue::Bool(true)));
    }
}
