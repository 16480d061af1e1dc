//! Exact Match (Table 3: "doAll using kvmap"): scan a record set against a
//! table of registered exact queries — the WF2 kernel that filters a
//! stream for records matching registered (src, dst, type) triples.
//!
//! Structure: the registered queries load into a Scalable Hash Table; a
//! map-only KVMSR (`do_all` pattern) runs one task per record, each task
//! probing the SHT and appending hits to a result region. The reduction
//! provides only synchronization, exactly the Table-3 characterization.

use std::sync::Arc;

use drammalloc::{Layout, Region};
use kvmsr::{JobSpec, Kvmsr, MapTask, Outcome};
use udweave::LaneSet;
use updown_graph::pga::edge_key;
use updown_graph::{ShtLib, ShtOp};
use updown_sim::{ChromeTrace, Engine, EventWord, MachineConfig, NetworkId, Metrics};

use crate::ingest::tform::{RawRecord, RECORD_WORDS};

#[derive(Clone, Debug)]
pub struct EmConfig {
    pub machine: MachineConfig,
    pub lanes: Option<u32>,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl EmConfig {
    pub fn new(nodes: u32) -> EmConfig {
        EmConfig {
            machine: MachineConfig::with_nodes(nodes),
            lanes: None,
            trace: false,
        }
    }
}

pub struct EmResult {
    /// Indices of records that matched a registered query.
    pub hits: Vec<u64>,
    pub final_tick: u64,
    pub report: Metrics,
    /// The recorded Chrome trace, present when the config asked for one;
    /// rendered only when written (`ChromeTrace::write_to`).
    pub trace_json: Option<ChromeTrace>,
}

/// A registered exact query over edge records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub src: u64,
    pub dst: u64,
    pub etype: u16,
}

impl Query {
    fn key(&self) -> u64 {
        edge_key(self.src, self.dst, self.etype)
    }
}

/// Host oracle.
pub fn expected_hits(records: &[RawRecord], queries: &[Query]) -> Vec<u64> {
    let set: std::collections::HashSet<u64> = queries.iter().map(|q| q.key()).collect();
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.rtype == 1 && set.contains(&edge_key(r.fields[0], r.fields[1], r.fields[2] as u16))
        })
        .map(|(i, _)| i as u64)
        .collect()
}

#[derive(Clone, Default)]
struct EmSt {
    task: Option<MapTask>,
    recid: u64,
}

updown_sim::snap_state!(EmSt, "em.map", { task, recid });

/// Run exact match: load `records` into device memory, register `queries`
/// in an SHT, scan with a map-only KVMSR.
pub fn run_exact_match(records: &[RawRecord], queries: &[Query], cfg: &EmConfig) -> EmResult {
    let mc = &cfg.machine;
    let mut eng = Engine::new(mc.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    let layout = Layout::cyclic(mc.nodes);
    let n = records.len() as u64;

    // Device record array (as produced by ingestion phase 1).
    let recs = Region::alloc_words(&mut eng, n.max(1) * RECORD_WORDS as u64, layout)
        .expect("records");
    {
        let mem = eng.mem_mut();
        for (i, r) in records.iter().enumerate() {
            mem.write_words(recs.word(i as u64 * RECORD_WORDS as u64), &r.to_words())
                .unwrap();
        }
    }

    let rt = Kvmsr::install(&mut eng);
    let sht = ShtLib::install(&mut eng);
    let set = match cfg.lanes {
        Some(l) => LaneSet::new(NetworkId(0), l.min(mc.total_lanes())),
        None => LaneSet::all(mc),
    };
    // Registered queries: a device-resident table. Loaded in-sim so the
    // load is part of the machine's work (it is tiny next to the scan).
    let qtable = sht.create(&mut eng, set, 64, 16, layout);
    // Read back after the run: matching record ids, per shard.
    let hits = eng.shard_slot::<Vec<u64>>();

    let probe_ret = udweave::event::<EmSt>(&mut eng, "exact_match::probeRet", move |ctx, st| {
        let found = ctx.arg(0);
        if found != 0 {
            // A hit: record it (stands for the artifact's alert print).
            ctx.shard_state(hits).push(st.recid);
            ctx.charge(2);
        }
        let task = st.task.expect("probe before map");
        rt.map_done(ctx, &task);
        ctx.yield_terminate();
    });
    let rec_ret = udweave::event::<EmSt>(&mut eng, "exact_match::returnRecord", move |ctx, st| {
        let r = RawRecord::from_words(ctx.args());
        if r.rtype != 1 {
            let task = st.task.expect("rec before map");
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
            return;
        }
        let key = edge_key(r.fields[0], r.fields[1], r.fields[2] as u16);
        let ret = ctx.self_event(probe_ret);
        sht.op(ctx, qtable, ShtOp::Get, key, 0, ret);
        ctx.charge(4); // key mix
    });
    let scan_job = rt.define_job(&mut eng, JobSpec::new("exact_match_scan", set, move |ctx, task, _rt| {
        let st = ctx.state_mut::<EmSt>();
        st.task = Some(*task);
        st.recid = task.key;
        ctx.send_dram_read(recs.word(task.key * RECORD_WORDS as u64), RECORD_WORDS, rec_ret);
        Outcome::Async
    }));

    // Query loading as a tiny do_all over the query list.
    let queries_vec: Arc<Vec<Query>> = Arc::new(queries.to_vec());
    let load_job = {
        let queries_vec = queries_vec.clone();
        kvmsr::define_do_all(&mut eng, &rt, "exact_match_load", set, move |ctx, key, _arg| {
            let q = queries_vec[key as usize];
            sht.insert(ctx, qtable, q.key(), 1, EventWord::IGNORE);
        })
    };

    let nrec = n;
    let done = udweave::simple_event(&mut eng, "exact_match::done", |ctx| {
        ctx.stop();
        ctx.yield_terminate();
    });
    let loaded = udweave::simple_event(&mut eng, "exact_match::loaded", move |ctx| {
        let cont = EventWord::new(ctx.nwid(), done);
        rt.start_from(ctx, scan_job, nrec, 0, cont);
        ctx.yield_terminate();
    });
    let nq = queries.len() as u64;
    let init = udweave::simple_event(&mut eng, "exact_match::init", move |ctx| {
        let cont = EventWord::new(ctx.nwid(), loaded);
        rt.start_from(ctx, load_job, nq, 0, cont);
        ctx.yield_terminate();
    });

    eng.send(EventWord::new(NetworkId(0), init), [], EventWord::IGNORE);
    let report = eng.run();

    let mut out: Vec<u64> = eng.shard_states(hits).flatten().copied().collect();
    out.sort_unstable();
    let trace_json = cfg.trace.then(|| eng.take_chrome_trace());
    EmResult {
        hits: out,
        final_tick: report.final_tick,
        report,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::datagen;

    #[test]
    fn finds_exactly_the_registered_records() {
        let ds = datagen::generate(400, 120, 31);
        // Register queries for a handful of actual edge records plus one
        // that matches nothing.
        let mut queries: Vec<Query> = ds
            .records
            .iter()
            .filter(|r| r.rtype == 1)
            .step_by(17)
            .map(|r| Query {
                src: r.fields[0],
                dst: r.fields[1],
                etype: r.fields[2] as u16,
            })
            .collect();
        queries.push(Query {
            src: 999_999,
            dst: 999_998,
            etype: 3,
        });
        let mut cfg = EmConfig::new(1);
        cfg.machine = MachineConfig::small(2, 2, 8);
        let res = run_exact_match(&ds.records, &queries, &cfg);
        assert_eq!(res.hits, expected_hits(&ds.records, &queries));
        assert!(!res.hits.is_empty());
    }

    #[test]
    fn no_queries_no_hits() {
        let ds = datagen::generate(50, 30, 5);
        let mut cfg = EmConfig::new(1);
        cfg.machine = MachineConfig::small(1, 1, 8);
        // One query that cannot match (vertex ids out of range).
        let res = run_exact_match(
            &ds.records,
            &[Query {
                src: u64::MAX - 1,
                dst: u64::MAX - 2,
                etype: 1,
            }],
            &cfg,
        );
        assert!(res.hits.is_empty());
    }

    #[test]
    fn duplicate_matching_records_all_hit() {
        let rec = RawRecord::edge(5, 6, 2);
        let records = vec![rec, RawRecord::vertex(5, 1), rec, rec];
        let q = [Query {
            src: 5,
            dst: 6,
            etype: 2,
        }];
        let mut cfg = EmConfig::new(1);
        cfg.machine = MachineConfig::small(1, 1, 4);
        let res = run_exact_match(&records, &q, &cfg);
        assert_eq!(res.hits, vec![0, 2, 3]);
    }
}
