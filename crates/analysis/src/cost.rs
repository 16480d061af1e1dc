//! `repro cost`: static cost & communication analysis — predict per-event
//! execution counts, per-node load, message traffic, and per-link demand
//! from a [`ProgramSpec`] plus a [`Workload`] — declarations and host-side
//! arithmetic only, zero simulation ticks.
//!
//! The analysis runs in three passes over the declared event-flow graph
//! ([`declared_edges`]: send edges *and* same-thread resumptions). The
//! first two are the one walk `certify` also runs ([`propagate`]), over
//! two value types:
//!
//! 1. **Symbolic pass** over [`Bound`] — execution-count bounds from
//!    host-injected roots along the edges (cycles and `fanout_unbounded`
//!    edges yield [`Bound::Unbounded`]). This classifies every event as
//!    statically bounded or data-dependent.
//! 2. **Concrete pass** over `f64` — the numbers a [`Workload`] pins:
//!    pinned counts take precedence over propagation, workload mean
//!    fan-outs replace `fanout_unbounded` declarations, and whatever
//!    remains unpinned is derived as `Σ count(src) × fanout(src→dst)`. A
//!    cycle contributes zero (a `cost-cycle` finding); an unbounded edge
//!    with no workload mean contributes zero (an `unbounded-cost` finding).
//! 3. **Traffic pass** — executions delivered by *send* edges are
//!    messages (same-thread resumptions are DRAM round-trips, not NIC
//!    traffic); declared operand ranges give wire bytes per message; the
//!    workload's node-weight distribution splits totals across nodes, and
//!    the machine's [`Topology`](updown_sim::Topology) routes the
//!    resulting node-pair flows into per-link byte demand.
//!
//! The prediction is used three ways: [`CostReport::shard_hints`] ranks
//! the shards by predicted work, [`calibrate`] grades the prediction
//! against a recorded `updown-metrics/v1` export, and severity-graded
//! [`Finding`]s (shard imbalance, link hot-spots, unbounded-cost events)
//! grade the placement.

use std::collections::BTreeMap;

use updown_sim::json::{JsonValue, JsonWriter};
use updown_sim::message::wire_bytes;
use updown_sim::spec::{declared_edges, propagate, Bound, ProgramSpec, Start, Workload};
use updown_sim::MachineConfig;

use crate::{
    bracketed, count_errors, document, write_bound, write_findings, Finding, Report, Severity,
};

/// Imbalance factor above which a shard-imbalance finding is a warning;
/// above [`IMBALANCE_INFO`] it is reported at info severity.
pub const IMBALANCE_WARN: f64 = 2.0;
pub const IMBALANCE_INFO: f64 = 1.25;
/// Per-link demand spread (max/mean) above which a routed topology gets a
/// `link-hotspot` finding.
pub const LINK_HOTSPOT_FACTOR: f64 = 3.0;

/// How one declared edge moves execution count from `src` to `dst`.
struct Edge<'a> {
    src: &'a str,
    dst: &'a str,
    /// A declared send: each traversal is a real message on the fabric.
    /// Otherwise a same-thread resumption (DRAM read return, atomic ack,
    /// stored continuation): drives executions but is not NIC traffic.
    is_send: bool,
    /// Declared per-execution multiplicity.
    fanout: Bound,
    /// Mean dynamic multiplicity: the workload override if given, else
    /// the finite declared fanout, else `None` (unbounded, unpinned).
    mean: Option<f64>,
    /// Max declared operand count (for wire bytes). Resumes carry none.
    max_args: u32,
}

/// Predicted cost of one declared event.
#[derive(Clone, Debug)]
pub struct EventCost {
    pub name: String,
    /// Symbolic per-host-injection execution bound.
    pub bound: Bound,
    /// Predicted executions under the workload.
    pub count: f64,
    /// The count was pinned by the workload (vs derived by propagation).
    pub pinned: bool,
    /// Predicted executions delivered by send edges (= messages in).
    pub msgs: f64,
}

/// Predicted traffic of one declared send edge.
#[derive(Clone, Debug)]
pub struct EdgeCost {
    pub src: String,
    pub dst: String,
    pub msgs: f64,
    pub bytes: f64,
    /// Declared node-local by the workload (no cross-node traffic).
    pub local: bool,
}

/// Predicted byte demand of one directed fabric link.
#[derive(Clone, Debug)]
pub struct LinkDemand {
    pub src: u32,
    pub dst: u32,
    pub bytes: f64,
}

/// One calibration comparison: a predicted counter against the same
/// counter from a recorded `updown-metrics/v1` export.
#[derive(Clone, Debug)]
pub struct CalEntry {
    pub counter: String,
    pub predicted: f64,
    pub actual: f64,
    /// Relative error factor `max(p/a, a/p)`; 1.0 = exact, infinite when
    /// exactly one side is zero.
    pub factor: f64,
}

/// Calibration of a [`CostReport`] against a recorded metrics export.
#[derive(Clone, Debug)]
pub struct Calibration {
    pub entries: Vec<CalEntry>,
    /// Worst factor across entries (1.0 = perfect).
    pub worst: f64,
}

impl Calibration {
    /// All entries within `tol` (e.g. 2.0 = within 2x either way).
    pub fn within(&self, tol: f64) -> bool {
        self.worst <= tol
    }
}

/// The full static cost prediction for one app: per-event counts,
/// per-node load split, message/byte traffic, per-link demand, findings.
#[derive(Clone, Debug)]
pub struct CostReport {
    pub app: String,
    pub nodes: u32,
    pub topology: String,
    pub events: Vec<EventCost>,
    pub edges: Vec<EdgeCost>,
    pub links: Vec<LinkDemand>,
    pub total_events: f64,
    pub total_msgs: f64,
    pub total_bytes: f64,
    pub inter_node_msgs: f64,
    pub inter_node_bytes: f64,
    /// Predicted events per node (the workload weight split).
    pub per_node_events: Vec<f64>,
    /// Predicted NIC-injected bytes per node.
    pub per_node_inject_bytes: Vec<f64>,
    /// Predicted load-imbalance factor (max/mean per-node events).
    pub imbalance: f64,
    pub findings: Vec<Finding>,
    /// Present after [`calibrate`] ran against a metrics export.
    pub calibration: Option<Calibration>,
}

impl CostReport {
    /// Predicted per-shard (per-node) work in events, rounded — the
    /// `shard_hints` array of the `udcost/v1` document. The scheduler
    /// does not read it: it orders shards by the cost it observed in the
    /// previous window.
    pub fn shard_hints(&self) -> Vec<u64> {
        self.per_node_events.iter().map(|&e| e.round().max(0.0) as u64).collect()
    }

    pub fn errors(&self) -> usize {
        count_errors(&self.findings)
    }

    /// Clean = no error-severity findings (warnings are advisory).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

/// The declared edge list with workload fan-out overrides applied.
fn edges_of<'a>(spec: &'a ProgramSpec, w: &Workload) -> Vec<Edge<'a>> {
    declared_edges(spec)
        .map(|e| {
            let over = w.fanouts.get(&(e.src.to_string(), e.dst.to_string())).copied();
            let (fanout, max_args) = match e.send {
                Some(sd) => (sd.fanout, sd.max_args.unwrap_or(sd.min_args)),
                None => (Bound::Finite(1), 0),
            };
            let declared = match fanout {
                Bound::Finite(n) => Some(n as f64),
                Bound::Unbounded => None,
            };
            Edge {
                src: e.src,
                dst: e.dst,
                is_send: e.send.is_some(),
                fanout,
                mean: over.or(declared),
                max_args,
            }
        })
        .collect()
}

/// Run the full static cost analysis of `spec` under `workload` on `mc`.
pub fn analyze_cost(
    app: &str,
    spec: &ProgramSpec,
    workload: &Workload,
    mc: &MachineConfig,
) -> CostReport {
    let edges = edges_of(spec, workload);
    let mut in_edges: BTreeMap<&str, Vec<(&str, &Edge)>> = BTreeMap::new();
    for e in &edges {
        in_edges.entry(e.dst).or_default().push((e.src, e));
    }

    // ---- symbolic and concrete passes ----------------------------------
    let order = || spec.events().map(|ev| ev.name.as_str());
    let from_host = |name: &str| u64::from(spec.event(name).is_some_and(|e| e.from_host));
    let bounds = propagate(
        order(),
        &in_edges,
        |name| Start::Seed(Bound::Finite(from_host(name))),
        |acc: Bound, src: Bound, e: &&Edge| acc.add(src.mul(e.fanout)),
        Bound::Unbounded,
    )
    .values;
    let mut findings = Vec::new();
    let counts = propagate(
        order(),
        &in_edges,
        |name| match workload.counts.get(name) {
            Some(&c) => Start::Pinned(c),
            None => Start::Seed(from_host(name) as f64),
        },
        |acc: f64, src: f64, e: &&Edge| match e.mean {
            Some(m) => acc + src * m,
            None => {
                if src > 0.0 {
                    findings.push(Finding::new(
                        Severity::Warning,
                        "unbounded-cost",
                        e.dst,
                        format!(
                            "reached through the unbounded-fanout edge `{}` → `{}` with no \
                             workload fanout or pinned count; that edge contributes zero \
                             to the prediction",
                            e.src, e.dst
                        ),
                    ));
                }
                acc
            }
        },
        0.0,
    );
    findings.extend(counts.cycles.iter().map(|&name| {
        Finding::new(
            Severity::Info,
            "cost-cycle",
            name,
            "event is on a propagation cycle with no pinned count; \
             the cyclic contribution is dropped from the prediction",
        )
    }));
    let counts = counts.values;

    // ---- traffic pass ----------------------------------------------------
    let nodes = mc.nodes.max(1);
    let weights: Vec<f64> = if workload.node_weights.len() == nodes as usize
        && workload.node_weights.iter().sum::<f64>() > 0.0
    {
        workload.node_weights.clone()
    } else {
        vec![1.0; nodes as usize]
    };
    let wsum: f64 = weights.iter().sum();
    let share: Vec<f64> = weights.iter().map(|&x| x / wsum).collect();
    // Probability a weight-distributed sender and receiver land on
    // different nodes (the cross-node fraction of a non-local edge).
    let cross_frac: f64 = 1.0 - share.iter().map(|s| s * s).sum::<f64>();
    let is_local = |src: &str, dst: &str| {
        workload
            .local_edges
            .iter()
            .any(|(s, d)| s == src && d == dst)
    };

    // Per-destination inflow split: an event's executions are prorated
    // across its in-edges by `count(src) × mean`; only the send-edge part
    // is message traffic. Events with no inflow at all (host injections,
    // reply-delivered acks the spec cannot name an edge for) count whole.
    let mut edge_costs: Vec<EdgeCost> = Vec::new();
    let mut msgs_in: BTreeMap<&str, f64> = BTreeMap::new();
    for ev in spec.events() {
        let x = counts[ev.name.as_str()];
        if x <= 0.0 {
            continue;
        }
        let ins = in_edges.get(ev.name.as_str());
        let inflow = |e: &Edge| counts[e.src] * e.mean.unwrap_or(0.0);
        let total_in: f64 = ins.map_or(0.0, |ins| ins.iter().map(|(_, e)| inflow(e)).sum());
        if total_in <= 0.0 {
            // No predicted inflow: host injection or a reply path the
            // declarations cannot attribute. Count the executions as
            // messages with no edge to carry bytes.
            msgs_in.insert(ev.name.as_str(), x);
            continue;
        }
        let mut msg_total = 0.0;
        for &(_, e) in ins.into_iter().flatten() {
            if !e.is_send {
                continue;
            }
            let m = x * inflow(e) / total_in;
            if m <= 0.0 {
                continue;
            }
            msg_total += m;
            edge_costs.push(EdgeCost {
                src: e.src.to_string(),
                dst: e.dst.to_string(),
                msgs: m,
                bytes: m * wire_bytes(e.max_args as usize) as f64,
                local: is_local(e.src, e.dst),
            });
        }
        msgs_in.insert(ev.name.as_str(), msg_total);
    }
    edge_costs.sort_by(|a, b| (&a.src, &a.dst).cmp(&(&b.src, &b.dst)));

    let total_events: f64 = counts.values().sum();
    let total_msgs: f64 = msgs_in.values().sum();
    let total_bytes: f64 = edge_costs.iter().map(|e| e.bytes).sum();
    let remote_msgs: f64 = edge_costs
        .iter()
        .filter(|e| !e.local)
        .map(|e| e.msgs)
        .sum();
    let remote_bytes: f64 = edge_costs
        .iter()
        .filter(|e| !e.local)
        .map(|e| e.bytes)
        .sum();
    let inter_node_msgs = remote_msgs * cross_frac;
    let inter_node_bytes = remote_bytes * cross_frac;

    // Node split and link demand via the machine's routed topology.
    let per_node_events: Vec<f64> = share.iter().map(|s| s * total_events).collect();
    let topo = mc.net.topology.build(nodes, &mc.net);
    let mut link_bytes: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut per_node_inject = vec![0.0; nodes as usize];
    if nodes > 1 && remote_bytes > 0.0 {
        for s in 0..nodes {
            for d in 0..nodes {
                if s == d {
                    continue;
                }
                let flow = remote_bytes * share[s as usize] * share[d as usize];
                if flow <= 0.0 {
                    continue;
                }
                per_node_inject[s as usize] += flow;
                for lid in topo.route(s, d) {
                    let l = topo.links()[lid.0 as usize];
                    *link_bytes.entry((l.src, l.dst)).or_insert(0.0) += flow;
                }
            }
        }
    }
    let links: Vec<LinkDemand> = link_bytes
        .into_iter()
        .map(|((src, dst), bytes)| LinkDemand { src, dst, bytes })
        .collect();

    // ---- severity-graded findings ---------------------------------------
    let mean_node = total_events / nodes as f64;
    let max_node = per_node_events.iter().cloned().fold(0.0, f64::max);
    let imbalance = if mean_node > 0.0 { max_node / mean_node } else { 1.0 };
    if nodes > 1 && imbalance > IMBALANCE_INFO {
        let sev = if imbalance > IMBALANCE_WARN {
            Severity::Warning
        } else {
            Severity::Info
        };
        findings.push(Finding::new(
            sev,
            "shard-imbalance",
            app.to_string(),
            format!(
                "predicted per-node load is imbalanced {imbalance:.2}x \
                 (max {max_node:.0} events vs mean {mean_node:.0}); the \
                 busiest shard gates every window — consider a different \
                 map binding or placement"
            ),
        ));
    }
    if !links.is_empty() {
        let lmean = links.iter().map(|l| l.bytes).sum::<f64>() / links.len() as f64;
        let lmax = links.iter().map(|l| l.bytes).fold(0.0, f64::max);
        if lmean > 0.0 && lmax / lmean > LINK_HOTSPOT_FACTOR {
            let hot = links
                .iter()
                .max_by(|a, b| a.bytes.partial_cmp(&b.bytes).unwrap())
                .unwrap();
            findings.push(Finding::new(
                Severity::Warning,
                "link-hotspot",
                app.to_string(),
                format!(
                    "predicted demand on link {}→{} is {:.1}x the mean \
                     ({:.0} vs {:.0} bytes) on the {} topology; placement \
                     and topology are mismatched",
                    hot.src,
                    hot.dst,
                    lmax / lmean,
                    lmax,
                    lmean,
                    mc.net.topology
                ),
            ));
        }
    }
    findings.sort();
    findings.dedup();

    let events: Vec<EventCost> = spec
        .events()
        .map(|ev| EventCost {
            name: ev.name.clone(),
            bound: bounds[ev.name.as_str()],
            count: counts[ev.name.as_str()],
            pinned: workload.counts.contains_key(&ev.name),
            msgs: msgs_in.get(ev.name.as_str()).copied().unwrap_or(0.0),
        })
        .collect();

    CostReport {
        app: app.to_string(),
        nodes,
        topology: mc.net.topology.name().to_string(),
        events,
        edges: edge_costs,
        links,
        total_events,
        total_msgs,
        total_bytes,
        inter_node_msgs,
        inter_node_bytes,
        per_node_events,
        per_node_inject_bytes: per_node_inject,
        imbalance,
        findings,
        calibration: None,
    }
}

/// Relative error factor between a prediction and a measurement.
fn factor(p: f64, a: f64) -> f64 {
    if p <= 0.0 && a <= 0.0 {
        1.0
    } else if p <= 0.0 || a <= 0.0 {
        f64::INFINITY
    } else {
        (p / a).max(a / p)
    }
}

/// Grade a [`CostReport`] against a recorded `updown-metrics/v1` export
/// (the `--export` JSON of any bench bin). Returns the per-counter
/// comparison; attach it to the report for rendering.
pub fn calibrate(report: &CostReport, metrics_json: &str) -> Result<Calibration, String> {
    let v = JsonValue::parse(metrics_json)
        .map_err(|e| format!("metrics file is not valid JSON: {e}"))?;
    let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if schema != "updown-metrics/v1" {
        return Err(format!(
            "expected an updown-metrics/v1 export, got schema '{schema}'"
        ));
    }
    let counters = v.get("counters").ok_or("export has no `counters` object")?;
    // A count the export must carry: a missing, non-numeric or negative
    // one is a malformed export, not a zero to grade against.
    let count = |obj: &JsonValue, at: &str, key: &str| {
        obj.get(key)
            .and_then(JsonValue::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("export has no non-negative number at `{at}.{key}`"))
    };
    let entry = |counter: &str, predicted: f64, actual: f64| CalEntry {
        counter: counter.into(),
        predicted,
        actual,
        factor: factor(predicted, actual),
    };
    let mut entries = Vec::new();
    for (name, predicted) in [
        ("events_executed", report.total_events),
        ("total_msgs", report.total_msgs),
        ("msgs_inter_node", report.inter_node_msgs),
    ] {
        let actual = count(counters, "counters", name)?;
        entries.push(entry(name, predicted, actual));
    }
    if let Some(fab) = v.get("fabric") {
        let nic = count(fab, "fabric", "nic_injected_bytes")?;
        entries.push(entry("nic_injected_bytes", report.inter_node_bytes, nic));
    }
    if let Some(nodes) = v.get("nodes").and_then(|n| n.as_arr()) {
        let per = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| count(n, &format!("nodes[{i}]"), "events"))
            .collect::<Result<Vec<f64>, String>>()?;
        if !per.is_empty() {
            let mean = per.iter().sum::<f64>() / per.len() as f64;
            let max = per.iter().cloned().fold(0.0, f64::max);
            let actual_imb = if mean > 0.0 { max / mean } else { 1.0 };
            entries.push(CalEntry {
                counter: "node_imbalance".into(),
                predicted: report.imbalance,
                actual: actual_imb,
                factor: factor(report.imbalance, actual_imb),
            });
        }
    }
    let worst = entries.iter().map(|e| e.factor).fold(1.0, f64::max);
    Ok(Calibration { entries, worst })
}

impl Report for CostReport {
    const SCHEMA: &'static str = "udcost/v1";
    const COUNTERS: &'static [&'static str] = &["errors"];
    const ITEMS: &'static str = "reports";

    fn app(&self) -> &str {
        &self.app
    }

    fn is_clean(&self) -> bool {
        CostReport::is_clean(self)
    }

    fn counter(&self, _: usize) -> u64 {
        self.errors() as u64
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("app").string(&self.app);
        w.key("nodes").u64(self.nodes as u64);
        w.key("topology").string(&self.topology);
        w.key("clean").bool(self.is_clean());
        w.key("totals").begin_obj();
        w.key("events").f64(self.total_events);
        w.key("msgs").f64(self.total_msgs);
        w.key("bytes").f64(self.total_bytes);
        w.key("inter_node_msgs").f64(self.inter_node_msgs);
        w.key("inter_node_bytes").f64(self.inter_node_bytes);
        w.key("imbalance").f64(self.imbalance);
        w.end_obj();
        w.key("per_node").begin_arr();
        for i in 0..self.per_node_events.len() {
            w.begin_obj();
            w.key("events").f64(self.per_node_events[i]);
            w.key("inject_bytes").f64(self.per_node_inject_bytes[i]);
            w.end_obj();
        }
        w.end_arr();
        w.key("shard_hints").begin_arr();
        for h in self.shard_hints() {
            w.u64(h);
        }
        w.end_arr();
        w.key("events").begin_arr();
        for e in &self.events {
            w.begin_obj();
            w.key("name").string(&e.name);
            w.key("bound");
            write_bound(w, e.bound);
            w.key("count").f64(e.count);
            w.key("pinned").bool(e.pinned);
            w.key("msgs").f64(e.msgs);
            w.end_obj();
        }
        w.end_arr();
        w.key("edges").begin_arr();
        for e in &self.edges {
            w.begin_obj();
            w.key("src").string(&e.src);
            w.key("dst").string(&e.dst);
            w.key("msgs").f64(e.msgs);
            w.key("bytes").f64(e.bytes);
            w.key("local").bool(e.local);
            w.end_obj();
        }
        w.end_arr();
        w.key("links").begin_arr();
        for l in &self.links {
            w.begin_obj();
            w.key("src").u64(l.src as u64);
            w.key("dst").u64(l.dst as u64);
            w.key("bytes").f64(l.bytes);
            w.end_obj();
        }
        w.end_arr();
        w.key("findings");
        write_findings(w, "subject", &self.findings);
        if let Some(cal) = &self.calibration {
            w.key("calibration").begin_obj();
            w.key("entries").begin_arr();
            for e in &cal.entries {
                w.begin_obj();
                w.key("counter").string(&e.counter);
                w.key("predicted").f64(e.predicted);
                w.key("actual").f64(e.actual);
                w.key("factor").f64(e.factor);
                w.end_obj();
            }
            w.end_arr();
            w.key("worst_factor").f64(cal.worst);
            w.end_obj();
        }
        w.end_obj();
    }

    fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "udcost: {}  ({} node(s), {} topology)\n",
            self.app, self.nodes, self.topology
        ));
        s.push_str(&format!(
            "  predicted: {:.0} events, {:.0} msgs ({:.0} inter-node), \
             {:.0} bytes on the wire, imbalance {:.2}x\n",
            self.total_events, self.total_msgs, self.inter_node_msgs, self.total_bytes, self.imbalance
        ));
        s.push_str(&format!(
            "  shard hints: {:?}\n",
            self.shard_hints()
        ));
        let mut top: Vec<&EventCost> = self.events.iter().filter(|e| e.count > 0.0).collect();
        top.sort_by(|a, b| b.count.partial_cmp(&a.count).unwrap().then(a.name.cmp(&b.name)));
        for e in top.iter().take(8) {
            s.push_str(&format!(
                "    {:<44} {:>12.0}{}\n",
                e.name,
                e.count,
                if e.pinned { "  (pinned)" } else { "" }
            ));
        }
        if self.findings.is_empty() {
            s.push_str("  findings: none\n");
        } else {
            for f in &self.findings {
                s.push_str(&format!("  {}\n", bracketed(f)));
            }
        }
        if let Some(cal) = &self.calibration {
            s.push_str(&format!(
                "  calibration: worst factor {:.2}x over {} counter(s)\n",
                cal.worst,
                cal.entries.len()
            ));
            for e in &cal.entries {
                s.push_str(&format!(
                    "    {:<20} predicted {:>12}  actual {:>12}  factor {:.2}x\n",
                    e.counter,
                    format!("{:.*}", if e.predicted < 100.0 { 2 } else { 0 }, e.predicted),
                    format!("{:.*}", if e.actual < 100.0 { 2 } else { 0 }, e.actual),
                    e.factor
                ));
            }
        }
        s
    }
}

/// Render a full `udcost/v1` document over a set of reports.
pub fn render_cost_document(reports: &[CostReport]) -> String {
    document(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec() -> ProgramSpec {
        // host → a (1) → b (fanout 4) → c (fanout unbounded)
        let mut s = ProgramSpec::new();
        {
            let t = s.thread("t");
            let e = t.event("a");
            e.args(0, 0).from_host().live_per_lane(1).terminates();
            e.send("t::b", |sd| {
                sd.args(2, 2).to_new().fanout(4);
            });
            t.event("b").args(2, 2).terminates().send("t::c", |sd| {
                sd.args(1, 1).to_new().fanout_unbounded();
            });
            t.event("c").args(1, 1).terminates();
        }
        s
    }

    fn mc() -> MachineConfig {
        MachineConfig::small(2, 2, 8)
    }

    #[test]
    fn propagation_follows_declared_fanout() {
        let w = Workload::new();
        let r = analyze_cost("chain", &chain_spec(), &w, &mc());
        let count = |n: &str| r.events.iter().find(|e| e.name == n).unwrap().count;
        assert_eq!(count("t::a"), 1.0);
        assert_eq!(count("t::b"), 4.0);
        // The unbounded edge contributes zero without a workload override
        // and surfaces as a warning.
        assert_eq!(count("t::c"), 0.0);
        assert!(r
            .findings
            .iter()
            .any(|f| f.check == "unbounded-cost" && f.severity == Severity::Warning));
        // Symbolic pass still classifies c as unbounded.
        let c = r.events.iter().find(|e| e.name == "t::c").unwrap();
        assert_eq!(c.bound, Bound::Unbounded);
        let b = r.events.iter().find(|e| e.name == "t::b").unwrap();
        assert_eq!(b.bound, Bound::Finite(4));
    }

    /// Two host roots enter the cycle a ⇄ b from both ends. Events sort
    /// a, b, c, d, e, r1, r2, so every walk starts at a, reaches b through
    /// b's in-edge from a while a is still open, and memoizes b before a
    /// is done. c is pinned (a declared live bound, a workload count), e
    /// hangs off a through an unbounded fanout, d is b's resumption.
    fn two_root_cycle() -> (ProgramSpec, Workload) {
        let mut s = ProgramSpec::new();
        let t = s.thread("cyc");
        t.event("r1").from_host().send("cyc::a", |sd| {
            sd.to_new().fanout(2);
        });
        t.event("r2").from_host().send("cyc::b", |sd| {
            sd.to_new().fanout(3);
        });
        t.event("a")
            .send("cyc::b", |sd| {
                sd.to_new();
            })
            .send("cyc::c", |sd| {
                sd.to_new().fanout_unbounded();
            })
            .send("cyc::e", |sd| {
                sd.to_new().fanout_unbounded();
            });
        t.event("b")
            .send("cyc::a", |sd| {
                sd.to_new().fanout(0);
            })
            .send("cyc::a", |_| {})
            .resumes("cyc::d");
        t.event("c").live_per_lane(5).terminates();
        t.event("d").terminates();
        t.event("e").terminates();
        let mut w = Workload::new();
        w.count("cyc::c", 7.0);
        (s, w)
    }

    #[test]
    fn cycle_entered_from_two_roots_keeps_its_visit_order() {
        let (s, w) = two_root_cycle();
        let live: Vec<(String, Bound)> = updown_sim::spec::certify(&s)
            .groups
            .into_iter()
            .map(|g| (g.root, g.live))
            .collect();
        let (u, f) = (Bound::Unbounded, Bound::Finite);
        let expect_live = [
            ("cyc::a", f(2)),
            ("cyc::b", u),
            ("cyc::c", f(5)),
            ("cyc::e", u),
            ("cyc::r1", f(1)),
            ("cyc::r2", f(1)),
        ];
        let expect_live: Vec<(String, Bound)> =
            expect_live.iter().map(|&(n, b)| (n.to_string(), b)).collect();
        assert_eq!(live, expect_live, "certify");

        let r = analyze_cost("cyc", &s, &w, &mc());
        let got: Vec<(&str, Bound, f64)> =
            r.events.iter().map(|e| (e.name.as_str(), e.bound, e.count)).collect();
        assert_eq!(
            got,
            [
                ("cyc::a", u, 5.0),
                ("cyc::b", u, 3.0),
                ("cyc::c", u, 7.0),
                ("cyc::d", u, 3.0),
                ("cyc::e", u, 0.0),
                ("cyc::r1", f(1), 1.0),
                ("cyc::r2", f(1), 1.0),
            ],
            "symbolic bound and concrete count per event"
        );
        let flow: Vec<String> = r
            .findings
            .iter()
            .filter(|f| matches!(f.check, "cost-cycle" | "unbounded-cost"))
            .map(|f| f.to_string())
            .collect();
        assert_eq!(
            flow,
            [
                "warning[unbounded-cost] cyc::e: reached through the unbounded-fanout edge \
                 `cyc::a` → `cyc::e` with no workload fanout or pinned count; that edge \
                 contributes zero to the prediction",
                "info[cost-cycle] cyc::a: event is on a propagation cycle with no pinned \
                 count; the cyclic contribution is dropped from the prediction",
            ]
        );
    }

    #[test]
    fn workload_fanout_and_pin_override_declarations() {
        let mut w = Workload::new();
        w.fanout("t::b", "t::c", 2.5);
        let r = analyze_cost("chain", &chain_spec(), &w, &mc());
        let count = |n: &str| r.events.iter().find(|e| e.name == n).unwrap().count;
        assert_eq!(count("t::c"), 10.0);
        assert!(r.findings.iter().all(|f| f.check != "unbounded-cost"));

        let mut w = Workload::new();
        w.count("t::b", 7.0);
        let r = analyze_cost("chain", &chain_spec(), &w, &mc());
        let b = r.events.iter().find(|e| e.name == "t::b").unwrap();
        assert!(b.pinned);
        assert_eq!(b.count, 7.0, "pinned count beats propagation");
    }

    #[test]
    fn send_edges_are_messages_resumes_are_not() {
        let mut s = ProgramSpec::new();
        {
            let t = s.thread("t");
            let e = t.event("a");
            e.from_host().live_per_lane(1).terminates();
            e.send("t::b", |sd| {
                sd.args(1, 1).fanout(3);
            });
            e.resumes("t::r");
            t.event("b").args(1, 1).terminates();
            t.event("r").terminates();
        }
        let r = analyze_cost("msgs", &s, &Workload::new(), &mc());
        let ev = |n: &str| r.events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(ev("t::b").count, 3.0);
        assert_eq!(ev("t::b").msgs, 3.0, "send-delivered executions are messages");
        assert_eq!(ev("t::r").count, 1.0);
        assert_eq!(ev("t::r").msgs, 0.0, "resume-delivered executions are not");
        // a itself is host-injected: one message.
        assert_eq!(ev("t::a").msgs, 1.0);
        assert_eq!(r.total_msgs, 4.0);
        // One edge with bytes: 3 msgs × (8 + 64) bytes.
        assert_eq!(r.edges.len(), 1);
        assert_eq!(r.edges[0].bytes, 3.0 * 72.0);
    }

    #[test]
    fn skewed_weights_trigger_imbalance_finding_and_order_hints() {
        let mut w = Workload::new();
        w.count("t::b", 100.0);
        w.weights(vec![9.0, 1.0]);
        let r = analyze_cost("skew", &chain_spec(), &w, &mc());
        assert!(r.imbalance > 1.7, "imbalance {}", r.imbalance);
        assert!(r
            .findings
            .iter()
            .any(|f| f.check == "shard-imbalance"));
        let hints = r.shard_hints();
        assert_eq!(hints.len(), 2);
        assert!(hints[0] > hints[1], "heavy shard ranks first: {hints:?}");
    }

    #[test]
    fn local_edges_carry_no_inter_node_traffic() {
        let mut w = Workload::new();
        w.local("t::a", "t::b");
        let r = analyze_cost("local", &chain_spec(), &w, &mc());
        assert_eq!(r.inter_node_bytes, 0.0);
        assert_eq!(r.inter_node_msgs, 0.0);
        let w2 = Workload::new();
        let r2 = analyze_cost("remote", &chain_spec(), &w2, &mc());
        assert!(r2.inter_node_bytes > 0.0, "non-local edges split across nodes");
        // Uniform 2-node machine: half the remote traffic crosses.
        assert!((r2.inter_node_msgs - r2.edges[0].msgs * 0.5).abs() < 1e-9);
    }

    #[test]
    fn link_demand_routes_through_topology() {
        let w = Workload::new();
        let mut m = mc();
        m.net.topology = updown_sim::TopologyKind::Torus;
        let r = analyze_cost("torus", &chain_spec(), &w, &m);
        assert!(!r.links.is_empty());
        let total_link: f64 = r.links.iter().map(|l| l.bytes).sum();
        assert!(total_link > 0.0);
        // Every link byte is inter-node traffic times hops.
        assert!(total_link + 1e-9 >= r.inter_node_bytes);
    }

    #[test]
    fn calibrate_grades_against_metrics_export() {
        let mut w = Workload::new();
        w.count("t::b", 10.0);
        let mut r = analyze_cost("cal", &chain_spec(), &w, &mc());
        let json = format!(
            r#"{{"schema":"updown-metrics/v1","counters":{{"events_executed":{},"total_msgs":{},"msgs_inter_node":{}}},"fabric":{{"nic_injected_bytes":{}}},"nodes":[{{"events":6}},{{"events":5}}]}}"#,
            r.total_events, r.total_msgs * 2.0, r.inter_node_msgs, r.inter_node_bytes
        );
        let cal = calibrate(&r, &json).expect("valid export");
        let by = |n: &str| cal.entries.iter().find(|e| e.counter == n).unwrap();
        assert_eq!(by("events_executed").factor, 1.0);
        assert_eq!(by("total_msgs").factor, 2.0);
        assert!(cal.worst >= 2.0);
        assert!(cal.within(2.0));
        r.calibration = Some(cal);
        let doc = render_cost_document(std::slice::from_ref(&r));
        assert!(doc.contains("worst_factor"));
    }

    #[test]
    fn calibrate_rejects_wrong_schema() {
        let r = analyze_cost("x", &chain_spec(), &Workload::new(), &mc());
        assert!(calibrate(&r, r#"{"schema":"udcheck/v1"}"#).is_err());
        assert!(calibrate(&r, "not json").is_err());
    }

    #[test]
    fn document_schema_and_determinism() {
        let r = analyze_cost("chain", &chain_spec(), &Workload::new(), &mc());
        let d1 = render_cost_document(std::slice::from_ref(&r));
        let d2 = render_cost_document(std::slice::from_ref(&r));
        assert_eq!(d1, d2);
        let v = JsonValue::parse(&d1).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("udcost/v1"));
        let reports = v.get("reports").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].get("shard_hints").is_some());
    }
}
