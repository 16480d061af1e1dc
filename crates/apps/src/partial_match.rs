//! Partial Match (§5.2.4, Figure 11): records stream in over time, are
//! inserted into the graph, and are incrementally matched against a
//! registered pattern; the metric is *latency* from record arrival to
//! match-processing completion.
//!
//! The pattern is a typed edge path `[t0, t1, ..., t_{L-1}]`. A scalable
//! hash table keyed by vertex holds a bitmask of matched prefix lengths
//! ending at that vertex (bit `i` ⇒ a path matching `t0..t_{i-1}` ends
//! here; bit 0 — the empty prefix — is implicit at every vertex). When
//! edge `(s, d, t)` arrives: any prefix `i` at `s` with `t_i = t` extends
//! to prefix `i+1` at `d`; reaching bit `L` is a full match.
//!
//! Matching is incremental and non-retroactive (a new edge does not
//! re-propagate existing state through older edges) — the streaming
//! partial-match semantics, not an offline subgraph enumeration.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use drammalloc::{Layout, Region};
use udweave::LaneSet;
use updown_graph::{Pga, ShtLib};
use updown_sim::{ChromeTrace, Engine, EventWord, MachineConfig, NetworkId, Metrics};

use crate::ingest::tform::RawRecord;

/// Least buckets per lane of the vertex, edge and pattern-state tables.
pub const VERTEX_BL: u32 = 128;
/// Entries per bucket of the vertex, edge and pattern-state tables.
pub const VERTEX_EB: u32 = 32;

#[derive(Clone, Debug)]
pub struct PmConfig {
    pub machine: MachineConfig,
    /// Lanes used for processing + state tables ("1/8 node" = 256 lanes).
    pub lanes: u32,
    /// The typed-edge path pattern.
    pub pattern: Vec<u16>,
    /// Records injected per arrival batch, and the inter-batch gap.
    pub batch: usize,
    pub interval: u64,
    /// Parallel network-ingress threads (records arrive at several ports).
    pub feeders: u32,
    /// Credit-based flow control: max records in flight per lane (ingress
    /// backpressure; prevents thread-context exhaustion under overload —
    /// queueing then happens at the port and still counts toward latency).
    pub inflight_per_lane: u32,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl PmConfig {
    pub fn new(lanes: u32, pattern: Vec<u16>) -> PmConfig {
        PmConfig {
            machine: MachineConfig::with_nodes(
                (lanes.div_ceil(2048)).next_power_of_two().max(1),
            ),
            lanes,
            pattern,
            batch: 16,
            interval: 3000,
            feeders: 8,
            inflight_per_lane: 96,
            trace: false,
        }
    }
}

pub struct PmResult {
    pub matches: u64,
    /// Per-record latency in ticks (arrival -> processing complete).
    pub latencies: Vec<u64>,
    pub final_tick: u64,
    pub report: Metrics,
    /// The recorded Chrome trace, present when the config asked for one;
    /// rendered only when written (`ChromeTrace::write_to`).
    pub trace_json: Option<ChromeTrace>,
}

impl PmResult {
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    pub fn p99_latency(&self) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut v = self.latencies.clone();
        v.sort_unstable();
        v[(v.len() - 1) * 99 / 100]
    }
}

/// Host oracle: sequential incremental matcher (the device result equals
/// this when records are processed in arrival order — e.g. batch size 1
/// with a large interval).
pub fn sequential_matches(records: &[RawRecord], pattern: &[u16]) -> u64 {
    let l = pattern.len();
    let mut state: HashMap<u64, u64> = HashMap::new();
    let mut matches = 0;
    for r in records {
        if r.rtype != 1 {
            continue;
        }
        let (s, d, t) = (r.fields[0], r.fields[1], r.fields[2] as u16);
        let bits = state.get(&s).copied().unwrap_or(0) | 1;
        let mut new = 0u64;
        for (i, &pt) in pattern.iter().enumerate() {
            if pt == t && bits & (1 << i) != 0 {
                new |= 1 << (i + 1);
            }
        }
        if new == 0 {
            continue;
        }
        if new & (1 << l) != 0 {
            matches += 1;
        }
        *state.entry(d).or_insert(0) |= new;
    }
    matches
}

#[derive(Clone, Default)]
struct RecSt {
    recid: u64,
    src: u64,
    dst: u64,
    etype: u64,
}

#[derive(Clone, Default)]
struct FeedSt {
    next: usize,
    stride: usize,
    per_batch: usize,
}

/// What partial match keeps per shard, all read back after the run.
#[derive(Clone, Default)]
struct PmShard {
    /// (record id, latency) of every record completed here.
    latencies: Vec<(u64, u64)>,
    matches: u64,
    /// Admissions a feeder on this shard put off because the credit gate
    /// was shut.
    throttled: u64,
}

/// Records admitted and not yet completed: the credit gate's counter.
/// Feeders and completions of a one-node run share a shard, hence a
/// worker; a run that spans nodes must never find the gate shut (asserted
/// after the run), so what a feeder read there cannot have mattered.
#[derive(Default)]
struct Credits {
    in_flight: std::sync::atomic::AtomicU64, // det-lint: allow — one shard, or a gate that never shuts
}

impl Clone for Credits {
    fn clone(&self) -> Credits {
        Credits {
            in_flight: self.in_flight.load(Ordering::Relaxed).into(),
        }
    }
}

updown_sim::snap_state!(RecSt, "pm.record", { recid, src, dst, etype });
updown_sim::snap_state!(FeedSt, "pm.feeder", { next, stride, per_batch });

/// Stream `records` through ingestion + partial match on a lane subset.
pub fn run_partial_match(records: &[RawRecord], cfg: &PmConfig) -> PmResult {
    let mc = &cfg.machine;
    let mut eng = Engine::new(mc.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    assert!(cfg.lanes >= 2 && cfg.lanes <= mc.total_lanes());
    assert!(cfg.pattern.len() < 48, "pattern too long for the bitmask");
    let set = LaneSet::new(NetworkId(0), cfg.lanes);
    let layout = Layout::cyclic(mc.nodes);

    let sht = ShtLib::install(&mut eng);
    // Size tables for the stream: ~6x headroom over the record count so
    // hashed bucket tails fit (the artifact exposes the same BL/EB knobs).
    let eb = VERTEX_EB;
    let need_bl = (records.len() as u64 * 6).div_ceil(cfg.lanes as u64 * eb as u64) as u32;
    let bl = need_bl.max(VERTEX_BL).next_power_of_two();
    let pga = Pga::create(&mut eng, &sht, set, bl, eb, bl, eb, layout);
    // Pattern state table, keyed by vertex.
    let state = sht.create(&mut eng, set, bl, eb, layout);
    let match_cell = Region::alloc_words(&mut eng, 1, Layout::cyclic(1)).expect("matches");

    let shard = eng.shard_slot::<PmShard>();
    let credits = eng.table(Credits::default());
    let credit_cap = cfg.inflight_per_lane as u64 * cfg.lanes as u64;
    let pattern = cfg.pattern.clone();
    let plen = pattern.len() as u64;
    let batch = cfg.batch.max(1);
    let interval = cfg.interval;

    // ---- per-record processing thread ------------------------------------
    let complete = udweave::event::<RecSt>(&mut eng, "pm::complete", move |ctx, st| {
        // Latency counts from the record's *nominal* arrival at the
        // port (its place in the stream schedule), so port
        // backpressure queueing is included. The nominal tick is a
        // pure function of the record id — no cross-shard host
        // lookup, which keeps isolated shard replay faithful.
        let t0 = (st.recid / batch as u64) * interval;
        let latency = ctx.now().saturating_sub(t0);
        ctx.shard_state(shard).latencies.push((st.recid, latency));
        ctx.table(credits).in_flight.fetch_sub(1, Ordering::Relaxed);
        ctx.yield_terminate();
    });
    let or_ack = udweave::event::<RecSt>(&mut eng, "pm::orAck", move |ctx, st| {
        let _ = st;
        let me = ctx.self_event(complete);
        ctx.send_event(me, [], EventWord::IGNORE);
    });
    let state_ret = udweave::event::<RecSt>(&mut eng, "pm::stateRet", move |ctx, st| {
        let found = ctx.arg(0);
        let bits = if found != 0 { ctx.arg(1) } else { 0 } | 1;
        let mut new = 0u64;
        for (i, &pt) in pattern.iter().enumerate() {
            if pt as u64 == st.etype && bits & (1 << i) != 0 {
                new |= 1 << (i + 1);
            }
        }
        ctx.charge(pattern.len() as u64 + 2);
        if new == 0 {
            let me = ctx.self_event(complete);
            ctx.send_event(me, [], EventWord::IGNORE);
            return;
        }
        if new & (1 << plen) != 0 {
            // Full match: counted where the artifact prints an alert.
            ctx.shard_state(shard).matches += 1;
            ctx.dram_fetch_add_u64(match_cell.base, 1, None, None);
        }
        let ack = ctx.self_event(or_ack);
        sht.fetch_or(ctx, state, st.dst, new, ack);
    });
    let edge_ack = udweave::event::<RecSt>(&mut eng, "pm::edgeAck", move |ctx, st| {
        let ret = ctx.self_event(state_ret);
        sht.get(ctx, state, st.src, ret);
    });
    let rec_proc = udweave::event::<RecSt>(&mut eng, "pm::recProc", move |ctx, st| {
        st.recid = ctx.arg(4);
        if ctx.arg(0) == 0 {
            st.src = ctx.arg(1);
            let ack = ctx.self_event(complete);
            pga.add_vertex(ctx, &sht, ctx.arg(1), ctx.arg(2) as u16, ack);
        } else {
            st.src = ctx.arg(1);
            st.dst = ctx.arg(2);
            st.etype = ctx.arg(3);
            let ack = ctx.self_event(edge_ack);
            pga.add_edge(ctx, &sht, st.src, st.dst, st.etype as u16, ack);
        }
    });

    // ---- feeders: the network stream arrives at several ingress lanes ----
    let recs: Arc<Vec<RawRecord>> = Arc::new(records.to_vec());
    let n_feeders = cfg.feeders.clamp(1, cfg.lanes);
    let per_batch = batch.div_ceil(n_feeders as usize).max(1);
    let lanes = cfg.lanes;
    let feeder = udweave::event::<FeedSt>(&mut eng, "pm::feeder", move |ctx, st| {
        if st.stride == 0 {
            // First firing: args carry this feeder's lane offset.
            st.next = ctx.arg(0) as usize;
            st.stride = n_feeders as usize;
            st.per_batch = per_batch;
        }
        let in_flight = &ctx.table(credits).in_flight;
        let mut sent = 0;
        while sent < st.per_batch && st.next < recs.len() {
            if in_flight.load(Ordering::Relaxed) >= credit_cap {
                ctx.shard_state(shard).throttled += 1;
                break;
            }
            let idx = st.next;
            let r = &recs[idx];
            in_flight.fetch_add(1, Ordering::Relaxed);
            let lane = set.lane(idx as u32 % lanes);
            ctx.send_event(
                EventWord::new(lane, rec_proc),
                [r.rtype, r.fields[0], r.fields[1], r.fields[2], idx as u64],
                EventWord::IGNORE,
            );
            st.next += st.stride;
            sent += 1;
        }
        if st.next < recs.len() {
            let me = ctx.cur_evw();
            // Back off a little harder when throttled by credits.
            let delay = if sent == 0 { interval.max(50) } else { interval };
            ctx.send_event_after(delay, me, [], EventWord::IGNORE);
        } else {
            ctx.yield_terminate();
        }
    });

    for f in 0..n_feeders {
        // Spread ingress ports across the lane set.
        let port = set.lane(f * (lanes / n_feeders).max(1) % lanes);
        eng.send(EventWord::new(port, feeder), [f as u64], EventWord::IGNORE);
    }
    let report = eng.run();

    // The gate reads a counter that completions on other shards decrement
    // inside the same window: once it shuts, what a feeder admits depends
    // on host timing. Until credits travel as messages (ROADMAP item 8b),
    // a run whose lanes span nodes has to fit under the cap.
    let span = mc.node_of(set.lane(cfg.lanes - 1)) + 1;
    let throttled: u64 = eng.shard_states(shard).map(|s| s.throttled).sum();
    assert!(
        span == 1 || throttled == 0,
        "partial_match: the credit gate ({credit_cap} credits) put off {throttled} admission(s) on a \
         run spanning {span} nodes, where its counter is read across shards and the admission \
         schedule would depend on host timing; raise inflight_per_lane or run on one node"
    );

    let mut lat: Vec<(u64, u64)> =
        eng.shard_states(shard).flat_map(|s| s.latencies.iter().copied()).collect();
    if lat.len() != records.len() {
        let mut seen = std::collections::HashMap::new();
        for (id, _) in &lat {
            *seen.entry(*id).or_insert(0u32) += 1;
        }
        let dups: Vec<_> = seen.iter().filter(|(_, &c)| c > 1).take(5).collect();
        let missing: Vec<_> = (0..records.len() as u64)
            .filter(|i| !seen.contains_key(i))
            .take(5)
            .collect();
        panic!(
            "completions {} != records {}; dups {:?} missing {:?}",
            lat.len(),
            records.len(),
            dups,
            missing
        );
    }
    lat.sort_unstable();
    let matches_out = eng.shard_states(shard).map(|s| s.matches).sum();
    let trace_json = cfg.trace.then(|| eng.take_chrome_trace());
    PmResult {
        matches: matches_out,
        latencies: lat.into_iter().map(|(_, l)| l).collect(),
        final_tick: report.final_tick,
        report,
        trace_json,
    }
}

/// Declared-effects spec for the streaming partial-match app (`udspec`).
///
/// No KVMSR here: host-seeded `thread::pm::feeder` threads stream records
/// to fresh `thread::pm::recProc` threads, each of which walks the
/// ingest-then-match chain (`edgeAck` → `stateRet` → `orAck` →
/// `complete`) through `thread::sht::op` requests.
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = udweave::ProgramSpec::new();
    ShtLib::spec_decl(&mut spec);
    let t = spec.thread("thread::pm");
    {
        let e = t.event("feeder");
        e.args(0, 1).from_host().live_per_lane(1);
        e.send("thread::pm::recProc", |s| {
            s.args(5, 5).to_new().conditional().fanout_unbounded();
        });
        // Credit-throttled self-reschedule until the stream drains.
        e.send("thread::pm::feeder", |s| {
            s.args(0, 0).conditional();
        });
        e.terminates();
    }
    {
        let e = t.event("recProc");
        e.args(5, 5).live_unbounded();
        // Exactly one PGA insert per record: add_vertex (acked at
        // `complete`) or add_edge (acked at `edgeAck`).
        e.send("thread::sht::op", |s| {
            s.args(4, 4).to_new().with_cont();
        });
    }
    {
        let e = t.event("edgeAck");
        e.args(2, 2).on("thread::pm::recProc");
        e.send("thread::sht::op", |s| {
            s.args(4, 4).to_new().with_cont();
        });
    }
    {
        let e = t.event("stateRet");
        e.args(2, 2).on("thread::pm::recProc");
        e.send("thread::sht::op", |s| {
            s.args(4, 4).to_new().with_cont().conditional();
        });
        e.send("thread::pm::complete", |s| {
            s.args(0, 0).conditional();
        });
    }
    {
        let e = t.event("orAck");
        e.args(2, 2).on("thread::pm::recProc");
        e.send("thread::pm::complete", |s| {
            s.args(0, 0);
        });
    }
    t.event("complete")
        .args(0, 2)
        .on("thread::pm::recProc")
        .terminates();
    spec
}

/// Workload descriptor for `udcost` (docs/analysis.md): predicted event
/// counts for [`run_partial_match`] on this exact stream and config.
///
/// Feeder firings replay the batch/stride schedule (credit backpressure
/// ignored — it delays firings, it does not add any). The match chain is
/// replayed in sequential arrival order, which is an approximation: under
/// parallel arrival a record can observe more or less prefix state, so
/// the `fetch_or` count (and with it `orAck`) can shift slightly.
pub fn workload(records: &[RawRecord], cfg: &PmConfig) -> udweave::Workload {
    let n = records.len();
    let n_feeders = cfg.feeders.clamp(1, cfg.lanes) as usize;
    let batch = cfg.batch.max(1);
    let per_batch = batch.div_ceil(n_feeders).max(1);
    let mut feeder = 0.0;
    for f in 0..n_feeders {
        let count_f = n.saturating_sub(f).div_ceil(n_feeders);
        feeder += count_f.div_ceil(per_batch).max(1) as f64;
    }

    // Sequential replay of the match chain (see `sequential_matches`).
    let mut state: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut n_edges = 0.0;
    let mut n_or = 0.0;
    for r in records {
        if r.rtype == 0 {
            continue;
        }
        n_edges += 1.0;
        let (s, d, t) = (r.fields[0], r.fields[1], r.fields[2] as u16);
        let bits = state.get(&s).copied().unwrap_or(0) | 1;
        let mut new = 0u64;
        for (i, &pt) in cfg.pattern.iter().enumerate() {
            if pt == t && bits & (1 << i) != 0 {
                new |= 1 << (i + 1);
            }
        }
        if new == 0 {
            continue;
        }
        n_or += 1.0;
        *state.entry(d).or_insert(0) |= new;
    }
    let n_verts = n as f64 - n_edges;
    let ops = n_verts + 2.0 * n_edges + n_or;

    let mut w = udweave::Workload::new();
    w.count("thread::pm::feeder", feeder)
        .count("thread::pm::recProc", n as f64)
        .count("thread::pm::edgeAck", n_edges)
        .count("thread::pm::stateRet", n_edges)
        .count("thread::pm::orAck", n_or)
        .count("thread::pm::complete", n as f64)
        .count("thread::sht::op", ops)
        .count("thread::sht::op_fin", ops);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(s: u64, d: u64, t: u64) -> RawRecord {
        RawRecord::edge(s, d, t)
    }

    #[test]
    fn sequential_oracle_counts_paths() {
        // Pattern 1 -> 2: edges forming one full path.
        let recs = vec![edge(0, 1, 1), edge(1, 2, 2)];
        assert_eq!(sequential_matches(&recs, &[1, 2]), 1);
        // Reverse arrival order: non-retroactive, no match.
        let recs = vec![edge(1, 2, 2), edge(0, 1, 1)];
        assert_eq!(sequential_matches(&recs, &[1, 2]), 0);
    }

    #[test]
    fn device_matches_sequential_when_serialized() {
        // Serialize: batch = 1, huge interval.
        let recs = vec![
            RawRecord::vertex(0, 1),
            edge(0, 1, 1),
            edge(1, 2, 2),
            edge(2, 3, 3),
            edge(5, 1, 1),
            edge(1, 9, 2),
            edge(9, 4, 3),
        ];
        let mut cfg = PmConfig::new(8, vec![1, 2, 3]);
        cfg.machine = MachineConfig::small(1, 2, 8);
        cfg.batch = 1;
        cfg.interval = 60_000;
        cfg.feeders = 1;
        let res = run_partial_match(&recs, &cfg);
        let expect = sequential_matches(&recs, &[1, 2, 3]);
        assert_eq!(res.matches, expect);
        assert!(expect >= 2, "both 3-paths complete");
        assert_eq!(res.latencies.len(), recs.len());
        assert!(res.mean_latency() > 0.0);
    }

    #[test]
    #[should_panic(expected = "spanning 2 nodes")]
    fn a_shut_credit_gate_is_refused_across_nodes() {
        let ds = crate::ingest::datagen::generate(400, 60, 5);
        let mut cfg = PmConfig::new(16, vec![1, 2]);
        cfg.machine = MachineConfig::small(2, 1, 8);
        cfg.inflight_per_lane = 1;
        run_partial_match(&ds.records, &cfg);
    }

    #[test]
    fn more_lanes_cut_latency_under_load() {
        // The arrival rate overloads 4 lanes (queueing latency explodes)
        // but not 64 — the Figure 11 effect: adding compute resources
        // reduces match latency.
        let ds = crate::ingest::datagen::generate(2000, 100, 3);
        let run = |lanes: u32| {
            let mut cfg = PmConfig::new(lanes, vec![1, 2]);
            cfg.machine = MachineConfig::small(1, 4, 16);
            cfg.batch = 200;
            cfg.interval = 1000;
            run_partial_match(&ds.records, &cfg).mean_latency()
        };
        let slow = run(4);
        let fast = run(64);
        assert!(
            fast * 3.0 < slow,
            "64 lanes ({fast:.0}) should be far below 4 lanes ({slow:.0})"
        );
    }
}
