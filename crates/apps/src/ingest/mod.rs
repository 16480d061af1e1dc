//! Streaming ingestion (§5.2.4, Figure 10): TFORM parses a parallel CSV
//! file with KVMSR mapping over blocks (phase 1), then the binary records
//! are inserted into the Parallel Graph Abstraction with scalable atomic
//! operations (phase 2) — the two phases the artifact's `perflog.tsv`
//! brackets with "UDKVMSR started/finished [for phase2]".

pub mod datagen;
pub mod tform;

use std::sync::Arc;

use drammalloc::{Layout, Region};
use kvmsr::{JobSpec, Kvmsr, MapTask, Outcome};
use udweave::LaneSet;
use updown_graph::{Pga, ShtLib};
use updown_sim::{ChromeTrace, Engine, EventWord, MachineConfig, NetworkId, Metrics};

use datagen::Dataset;
use tform::{parse_block, RawRecord, RECORD_WORDS};

/// Parse block size in bytes (a parallel-file stripe).
pub const PARSE_BLOCK_BYTES: usize = 2048;

/// Buckets per lane of the PGA vertex table (the artifact's VERTEX_BL).
pub const VERTEX_BL: u32 = 64;
/// Entries per bucket of the PGA vertex table (VERTEX_EB).
pub const VERTEX_EB: u32 = 16;
/// Buckets per lane of the PGA edge table (EDGE_BL).
pub const EDGE_BL: u32 = 64;
/// Entries per bucket of the PGA edge table (EDGE_EB).
pub const EDGE_EB: u32 = 64;

#[derive(Clone, Debug)]
pub struct IngestConfig {
    pub machine: MachineConfig,
    /// Lanes used (defaults to the whole machine); the artifact's
    /// `NUM_TFORM_LANES` / `NUM_PGA_LANES`.
    pub lanes: Option<u32>,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl IngestConfig {
    pub fn new(nodes: u32) -> IngestConfig {
        IngestConfig {
            machine: MachineConfig::with_nodes(nodes),
            lanes: None,
            trace: false,
        }
    }
}

pub struct IngestResult {
    /// Tick when phase 1 (parse + binary record write) finished.
    pub phase1_tick: u64,
    /// Tick when phase 2 (graph structure insert) finished.
    pub phase2_tick: u64,
    pub final_tick: u64,
    pub n_records: u64,
    pub vertices: usize,
    pub edges: usize,
    pub report: Metrics,
    /// The recorded Chrome trace, present when the config asked for one;
    /// rendered only when written (`ChromeTrace::write_to`).
    pub trace_json: Option<ChromeTrace>,
}

impl IngestResult {
    /// Records parsed+ingested per second of simulated time.
    pub fn records_per_second(&self, cfg: &MachineConfig) -> f64 {
        self.n_records as f64 / cfg.ticks_to_seconds(self.final_tick)
    }
}

#[derive(Clone, Default)]
struct P1St {
    task: Option<MapTask>,
    pending_reads: u32,
    pending_writes: u32,
}

#[derive(Clone, Default)]
struct P2St {
    task: Option<MapTask>,
    pending_acks: u32,
}

updown_sim::snap_state!(P1St, "ingest.p1", { task, pending_reads, pending_writes });
updown_sim::snap_state!(P2St, "ingest.p2", { task, pending_acks });

/// Expected graph contents of a record stream (oracle for tests).
pub fn expected_graph(records: &[RawRecord]) -> (usize, usize) {
    use std::collections::HashSet;
    let mut verts: HashSet<u64> = HashSet::new();
    let mut edges: HashSet<(u64, u64, u64)> = HashSet::new();
    for r in records {
        if r.rtype == 0 {
            verts.insert(r.fields[0]);
        } else {
            verts.insert(r.fields[0]);
            verts.insert(r.fields[1]);
            edges.insert((r.fields[0], r.fields[1], r.fields[2]));
        }
    }
    (verts.len(), edges.len())
}

/// Run the two-phase ingestion pipeline on a dataset.
pub fn run_ingest(ds: &Dataset, cfg: &IngestConfig) -> IngestResult {
    let mc = &cfg.machine;
    let mut eng = Engine::new(mc.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    let nodes = mc.nodes;
    let layout = Layout::cyclic(nodes);

    // ---- the parallel file -------------------------------------------------
    let file_bytes = ds.csv.len();
    let file_words = file_bytes.div_ceil(8).max(1) as u64;
    let file = Region::alloc_words(&mut eng, file_words, layout).expect("file");
    {
        let mut padded = ds.csv.clone();
        padded.resize(file_words as usize * 8, 0);
        eng.mem_mut().write_bytes(file.base, &padded).unwrap();
    }

    // Host-side shadow of the parallel parse (per-block record lists and
    // output offsets); the device run charges the reads/parse/writes.
    let bs = PARSE_BLOCK_BYTES;
    let n_blocks = file_bytes.div_ceil(bs).max(1);
    let mut per_block: Vec<Vec<RawRecord>> = Vec::with_capacity(n_blocks);
    let mut prefix: Vec<u64> = Vec::with_capacity(n_blocks + 1);
    prefix.push(0);
    for b in 0..n_blocks {
        let recs = parse_block(&ds.csv, b * bs, ((b + 1) * bs).min(file_bytes));
        prefix.push(prefix[b] + recs.len() as u64);
        per_block.push(recs);
    }
    let n_records = prefix[n_blocks];
    assert_eq!(n_records as usize, ds.records.len(), "block parse lost records");

    let records = Region::alloc_words(
        &mut eng,
        n_records.max(1) * RECORD_WORDS as u64,
        layout,
    )
    .expect("records");

    // ---- device structures ----------------------------------------------------
    let rt = Kvmsr::install(&mut eng);
    let sht = ShtLib::install(&mut eng);
    let set = match cfg.lanes {
        Some(l) => LaneSet::new(NetworkId(0), l.min(mc.total_lanes())),
        None => LaneSet::all(mc),
    };
    let pga = Pga::create(
        &mut eng,
        &sht,
        set,
        VERTEX_BL,
        VERTEX_EB,
        EDGE_BL,
        EDGE_EB,
        layout,
    );

    // ---- phase 1: TFORM parse over blocks ------------------------------------
    let per_block = Arc::new(per_block);
    let prefix = Arc::new(prefix);
    // Record writes are acked so phase 2 can never read a record slot
    // before its write has been serviced ("synchronizing and ordering as
    // necessary", §5.2.4).
    let p1_wack = udweave::event::<P1St>(&mut eng, "tform::writeAck", move |ctx, st| {
        st.pending_writes -= 1;
        ctx.charge(1);
        if st.pending_writes == 0 {
            let task = st.task.expect("ack before map");
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let p1_ret = {
        let per_block = per_block.clone();
        let prefix = prefix.clone();
        udweave::event::<P1St>(&mut eng, "tform::returnBlock", move |ctx, st| {
            st.pending_reads -= 1;
            if st.pending_reads > 0 {
                return;
            }
            let task = st.task.expect("block read before map");
            let b = task.key as usize;
            // Transduce: ~2 bytes per cycle (sub-byte DFA, TFORM).
            ctx.charge((bs as u64).div_ceil(2));
            // Emit the 64-byte binary records.
            let recs = &per_block[b];
            let base = prefix[b];
            if recs.is_empty() {
                rt.map_done(ctx, &task);
                ctx.yield_terminate();
                return;
            }
            st.pending_writes = recs.len() as u32;
            for (i, r) in recs.iter().enumerate() {
                let w = r.to_words();
                let va = records.word((base + i as u64) * RECORD_WORDS as u64);
                ctx.send_dram_write(va, &w, Some(p1_wack));
            }
        })
    };
    let phase1 = rt.define_job(&mut eng, JobSpec::new("tform_parse", set, move |ctx, task, _rt| {
        let b = task.key as usize;
        let start_w = (b * bs) as u64 / 8;
        let end_w = (((b + 1) * bs).min(file_bytes) as u64).div_ceil(8) + 8; // spillover
        let end_w = end_w.min(file_words);
        let mut pending = 0u32;
        let mut w = start_w;
        while w < end_w {
            let k = (end_w - w).min(8);
            pending += 1;
            ctx.send_dram_read(file.word(w), k as usize, p1_ret);
            w += k;
        }
        let st = ctx.state_mut::<P1St>();
        st.task = Some(*task);
        st.pending_reads = pending;
        Outcome::Async
    }));

    // ---- phase 2: insert records into the PGA ----------------------------------
    let p2_ack = udweave::event::<P2St>(&mut eng, "ingest::insertAck", move |ctx, st| {
        st.pending_acks -= 1;
        ctx.charge(1);
        if st.pending_acks == 0 {
            let task = st.task.expect("ack before map");
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let p2_rec = udweave::event::<P2St>(&mut eng, "ingest::returnRecord", move |ctx, st| {
        let rec = RawRecord::from_words(ctx.args());
        let ack = ctx.self_event(p2_ack);
        if rec.rtype == 0 {
            st.pending_acks = 1;
            pga.add_vertex(ctx, &sht, rec.fields[0], rec.fields[1] as u16, ack);
        } else {
            st.pending_acks = 3;
            pga.add_vertex(ctx, &sht, rec.fields[0], 0, ack);
            pga.add_vertex(ctx, &sht, rec.fields[1], 0, ack);
            pga.add_edge(
                ctx,
                &sht,
                rec.fields[0],
                rec.fields[1],
                rec.fields[2] as u16,
                ack,
            );
        }
        ctx.charge(3);
    });
    let phase2 = rt.define_job(&mut eng, JobSpec::new("pga_insert", set, move |ctx, task, _rt| {
        ctx.state_mut::<P2St>().task = Some(*task);
        ctx.send_dram_read(
            records.word(task.key * RECORD_WORDS as u64),
            RECORD_WORDS,
            p2_rec,
        );
        Outcome::Async
    }));

    // ---- driver: phase 1 then phase 2 ---------------------------------------
    // Read back after the run: (phase-1 tick, phase-2 tick), written on
    // the driver's shard.
    let ticks = eng.shard_slot::<(u64, u64)>();
    let p2_done = udweave::simple_event(&mut eng, "main::phase2_done", move |ctx| {
        ctx.shard_state(ticks).1 = ctx.now();
        ctx.stop();
        ctx.yield_terminate();
    });
    let p1_done = udweave::simple_event(&mut eng, "main::phase1_done", move |ctx| {
        ctx.shard_state(ticks).0 = ctx.now();
        let cont = EventWord::new(ctx.nwid(), p2_done);
        rt.start_from(ctx, phase2, n_records, 0, cont);
        ctx.yield_terminate();
    });
    let init = udweave::simple_event(&mut eng, "main::init", move |ctx| {
        let cont = EventWord::new(ctx.nwid(), p1_done);
        rt.start_from(ctx, phase1, n_blocks as u64, 0, cont);
        ctx.yield_terminate();
    });

    eng.send(EventWord::new(NetworkId(0), init), [], EventWord::IGNORE);
    let report = eng.run();

    let (vertices, edges) = pga.counts(&eng, &sht);
    let (phase1_tick, phase2_tick) = eng
        .shard_states(ticks)
        .fold((0, 0), |a, t| (a.0.max(t.0), a.1.max(t.1)));
    let trace_json = cfg.trace.then(|| eng.take_chrome_trace());
    IngestResult {
        phase1_tick,
        phase2_tick,
        final_tick: report.final_tick,
        n_records,
        vertices,
        edges,
        report,
        trace_json,
    }
}

/// Declared-effects spec for the two-phase ingest pipeline (`udspec`).
///
/// Phase 1 (`tform_parse`) maps blocks: `kv_map` issues block reads that
/// resume `thread::tform::returnBlock`, which writes records with acked
/// DRAM writes resuming `thread::tform::writeAck`.  Phase 2
/// (`pga_insert`) maps records: `kv_map` reads a record resuming
/// `thread::ingest::returnRecord`, which inserts into the PGA via up to
/// three `thread::sht::op` requests acked at `thread::ingest::insertAck`.
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = kvmsr::spec();
    updown_graph::ShtLib::spec_decl(&mut spec);
    spec.event_mut("kvmsr::kv_map")
        .resumes("thread::tform::returnBlock")
        .resumes("thread::ingest::returnRecord");
    {
        let t = spec.thread("thread::tform");
        {
            let e = t.event("returnBlock");
            e.args(1, 8).on("kvmsr::kv_map").resumes("thread::tform::writeAck");
            e.send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            });
            e.terminates();
        }
        {
            let e = t.event("writeAck");
            e.args(0, 2).on("kvmsr::kv_map");
            e.send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            });
            e.terminates();
        }
    }
    {
        let t = spec.thread("thread::ingest");
        {
            let e = t.event("returnRecord");
            e.args(8, 8).on("kvmsr::kv_map");
            e.send("thread::sht::op", |s| {
                s.args(4, 4).to_new().with_cont().fanout(3);
            });
        }
        {
            let e = t.event("insertAck");
            e.args(2, 2).on("kvmsr::kv_map");
            e.send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            });
            e.terminates();
        }
    }
    {
        let t = spec.thread("main");
        {
            let e = t.event("init");
            e.args(0, 0).from_host().live_per_lane(1);
            e.send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            });
            e.terminates();
        }
        {
            let e = t.event("phase1_done");
            e.args(2, 2);
            e.send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            });
            e.terminates();
        }
        t.event("phase2_done").args(2, 2).terminates();
    }
    // Job-completion replies spawn the driver's done events as fresh
    // threads; declare the edges so the static flow graph reaches them.
    for ev in ["maps_done", "poll_result", "epilogue_done"] {
        spec.event_mut(&format!("kvmsr_master::{ev}")).send_any(
            &["main::phase1_done", "main::phase2_done"],
            |s| {
                s.args(2, 2).to_new().conditional();
            },
        );
    }
    spec
}

/// Workload descriptor for `udcost` (docs/analysis.md): predicted event
/// counts for [`run_ingest`] on this exact dataset and config.
///
/// Both phases are replayed host-side: phase 1's block reads mirror the
/// chunking loop in `tform_parse` (including the spill-over words), and
/// phase 2's PGA insert fan-out is 1 op per vertex record and 3 per edge
/// record, each individually acked.
pub fn workload(ds: &Dataset, cfg: &IngestConfig) -> udweave::Workload {
    let mc = &cfg.machine;
    let file_bytes = ds.csv.len();
    let file_words = file_bytes.div_ceil(8).max(1) as u64;
    let bs = PARSE_BLOCK_BYTES;
    let n_blocks = file_bytes.div_ceil(bs).max(1);
    let mut return_block = 0.0;
    for b in 0..n_blocks {
        let start_w = (b * bs) as u64 / 8;
        let end_w = ((((b + 1) * bs).min(file_bytes) as u64).div_ceil(8) + 8).min(file_words);
        return_block += ((end_w - start_w) as f64 / 8.0).ceil();
    }
    let n_records = ds.records.len() as f64;
    let n_edge_recs = ds.records.iter().filter(|r| r.rtype != 0).count() as f64;
    let ops = (n_records - n_edge_recs) + 3.0 * n_edge_recs;

    let mut w = udweave::Workload::new();
    // Two back-to-back map-only jobs (no reduce phase): blocks, records.
    kvmsr::skeleton_workload(&mut w, mc, 2.0, n_blocks as f64 + n_records, 0.0);
    w.count("thread::tform::returnBlock", return_block)
        .count("thread::tform::writeAck", n_records)
        .count("thread::ingest::returnRecord", n_records)
        .count("thread::ingest::insertAck", ops)
        .count("thread::sht::op", ops)
        .count("thread::sht::op_fin", ops)
        .count("main::init", 1.0)
        .count("main::phase1_done", 1.0)
        .count("main::phase2_done", 1.0);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingests_exact_graph() {
        let ds = datagen::generate(400, 300, 7);
        let mut cfg = IngestConfig::new(2);
        cfg.machine = MachineConfig::small(2, 2, 8);
        let res = run_ingest(&ds, &cfg);
        let (ev, ee) = expected_graph(&ds.records);
        assert_eq!(res.vertices, ev);
        assert_eq!(res.edges, ee);
        assert_eq!(res.n_records, 400);
        assert!(res.phase1_tick > 0 && res.phase2_tick > res.phase1_tick);
    }

    #[test]
    fn phase_ticks_scale_with_data() {
        let small = datagen::sized(200, 0.5, 200, 1);
        let big = datagen::sized(200, 2.0, 200, 1);
        let mut cfg = IngestConfig::new(1);
        cfg.machine = MachineConfig::small(1, 2, 8);
        let a = run_ingest(&small, &cfg);
        let b = run_ingest(&big, &cfg);
        assert!(b.final_tick > a.final_tick);
    }

    #[test]
    fn lane_subset_still_correct() {
        let ds = datagen::generate(200, 100, 11);
        let mut cfg = IngestConfig::new(1);
        cfg.machine = MachineConfig::small(1, 2, 8);
        cfg.lanes = Some(4);
        let res = run_ingest(&ds, &cfg);
        let (ev, ee) = expected_graph(&ds.records);
        assert_eq!((res.vertices, res.edges), (ev, ee));
    }
}
