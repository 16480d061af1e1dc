//! Both snapshot tiers: the in-memory [`Snapshot`] (a deep copy) and the
//! on-disk `updown-snapshot/v2` body codecs, plus the checkpoint boundary
//! that exercises them mid-run. See `docs/checkpoint.md`.

use std::any::TypeId;
use std::collections::BTreeMap;

use super::core::{Action, ActionArena, EngineCore, MemOp, MemResp, MemStage, Table, Tag};
use super::{Engine, RestoreSlot};
use crate::calendar::{CalendarQueue, Links};
use crate::ids::{EventWord, NetworkId};
use crate::lane::{Lane, SimState, ThreadSlot};
use crate::memory::{MemChannel, MemoryImage, VAddr};
use crate::message::{Message, Operands};
use crate::network::{Fabric, Nics};
use crate::race::RaceState;
use crate::snapshot::{
    self, SnapField, SnapHeader, SnapReader, SnapState, SnapWriter, SnapshotError,
};
use crate::stats::Counters;
use crate::trace::TraceEvent;

/// A full in-memory snapshot of the simulator: per-shard calendars,
/// action arenas, lane thread tables and scratchpads, DRAM, fabric/NIC/
/// channel occupancy, counters, the shards' protocol records — plus the
/// engine-level observability buffers (trace, print, phases) and the
/// race-probe clocks. Restoring one is an exact rewind: continuing from it is
/// byte-identical to never having left (including udcheck/udrace
/// reports).
///
/// This is the deep-copy tier of the two snapshot tiers; the on-disk
/// `updown-snapshot/v2` format ([`Engine::write_snapshot`]) carries the
/// functional machine state only. See `docs/checkpoint.md`.
pub struct Snapshot {
    cores: Vec<EngineCore>,
    mem: MemoryImage,
    windows: u64,
    /// Deterministic per-window imbalance aggregates at the snapshot
    /// point — rewound with `windows` so a resumed run's `SchedMetrics`
    /// match an uninterrupted one. Also carried in the on-disk
    /// `updown-snapshot/v2` body: a fresh process restoring from bytes
    /// never ran the prefix, so these must migrate with the counters.
    sched_win_max_sum: u64,
    sched_win_max_peak: u64,
    merged_trace: Vec<TraceEvent>,
    race: Option<RaceState>,
    /// The program tables; per-shard state travels inside `cores`.
    tables: Vec<Table>,
}

impl Snapshot {
    /// Absolute conservative-window index the snapshot was taken at.
    pub fn window(&self) -> u64 {
        self.windows
    }

    /// Total lane events executed up to the snapshot point.
    pub fn events(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.events_executed).sum()
    }
}

type StateSaveFn = fn(&dyn SimState, &mut SnapWriter) -> Result<(), SnapshotError>;

type StateLoadFn = fn(&mut SnapReader<'_>) -> Result<Box<dyn SimState>, SnapshotError>;

/// Registry mapping live thread-state types to their on-disk codecs.
/// Encode looks up by `TypeId`, decode by the stable string key — both
/// maps are `BTreeMap` so snapshot bytes never depend on hash order.
#[derive(Default)]
pub(super) struct StateCodecs {
    by_type: BTreeMap<TypeId, (&'static str, StateSaveFn)>,
    by_key: BTreeMap<&'static str, StateLoadFn>,
}

fn codec_save<T: SnapState>(s: &dyn SimState, w: &mut SnapWriter) -> Result<(), SnapshotError> {
    let v = s.as_any().downcast_ref::<T>().ok_or_else(|| {
        SnapshotError::Format(format!("state codec '{}': type mismatch", T::KEY))
    })?;
    v.save(w);
    Ok(())
}

fn codec_load<T: SnapState>(r: &mut SnapReader<'_>) -> Result<Box<dyn SimState>, SnapshotError> {
    Ok(Box::new(T::load(r)?))
}

// --- on-disk body codecs for the engine's private types ------------------
//
// The binary body of `updown-snapshot/v2` is written field-by-field in a
// fixed order by these helpers. A DRAM transaction's trace id is written
// from the slab's side table, where it lives; the race contexts beside it
// are intentionally *not* serialized (vector clocks are process-local); see
// `Engine::checkpoint_boundary` for how `--restore` stays correct
// regardless.

fn save_msg(m: &Message, w: &mut SnapWriter) {
    m.dst.put(w);
    m.args.put(w);
    m.cont.put(w);
    m.src.put(w);
}

fn load_msg(r: &mut SnapReader<'_>) -> Result<Message, SnapshotError> {
    Ok(Message {
        dst: EventWord::take(r)?,
        args: Operands::take(r)?,
        cont: EventWord::take(r)?,
        src: NetworkId::take(r)?,
    })
}

fn save_memop(op: &MemOp, w: &mut SnapWriter) {
    match op {
        MemOp::Read {
            va,
            nwords,
            ret,
            tag,
        } => {
            w.u8(0);
            va.put(w);
            w.u8(*nwords);
            ret.put(w);
            tag.put(w);
        }
        MemOp::Write {
            va,
            words,
            ack,
            tag,
        } => {
            w.u8(1);
            va.put(w);
            words.put(w);
            put_reply(*ack, w);
            tag.put(w);
        }
        MemOp::AddU64 { va, delta, ret, tag } => {
            w.u8(2);
            va.put(w);
            w.u64(*delta);
            put_reply(*ret, w);
            tag.put(w);
        }
        MemOp::AddF64 { va, delta, ret, tag } => {
            w.u8(3);
            va.put(w);
            w.f64(*delta);
            put_reply(*ret, w);
            tag.put(w);
        }
    }
}

fn load_memop(r: &mut SnapReader<'_>) -> Result<MemOp, SnapshotError> {
    Ok(match r.u8()? {
        0 => MemOp::Read {
            va: VAddr::take(r)?,
            nwords: r.u8()?,
            ret: EventWord::take(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        1 => MemOp::Write {
            va: VAddr::take(r)?,
            words: Operands::take(r)?,
            ack: take_reply(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        2 => MemOp::AddU64 {
            va: VAddr::take(r)?,
            delta: r.u64()?,
            ret: take_reply(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        3 => MemOp::AddF64 {
            va: VAddr::take(r)?,
            delta: r.f64()?,
            ret: take_reply(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        t => return Err(SnapshotError::Format(format!("bad MemOp tag {t}"))),
    })
}

/// A reply word in the `Option<EventWord>` encoding of the first writers:
/// `IGNORE` (no reply) is `None`.
fn put_reply(ret: EventWord, w: &mut SnapWriter) {
    (!ret.is_ignore()).then_some(ret).put(w);
}

fn take_reply(r: &mut SnapReader<'_>) -> Result<EventWord, SnapshotError> {
    match <Option<EventWord> as SnapField>::take(r)? {
        Some(ret) if ret.is_ignore() => Err(SnapshotError::Format("a DRAM reply word of IGNORE".to_string())),
        ret => Ok(ret.unwrap_or(EventWord::IGNORE)),
    }
}

/// `trace_id` is the slot's, from the side table (0 when untraced);
/// `shard` is the id of the shard whose slab holds `a`, recorded as a
/// request's owner.
fn save_action(a: &Action, trace_id: u64, shard: u32, w: &mut SnapWriter) {
    match a {
        Action::Deliver(m) => {
            w.u8(0);
            save_msg(m, w);
        }
        Action::Mem { stage, op, src_node } => {
            w.u8(match stage {
                MemStage::Arrive => 2,
                MemStage::Served => 3,
            });
            save_memop(op, w);
            w.u32(*src_node);
            w.u32(shard);
            w.u64(trace_id);
        }
        Action::MemDone { resp, owner } => {
            w.u8(4);
            match &resp.reply {
                Some(m) => {
                    w.bool(true);
                    save_msg(m, w);
                }
                None => w.bool(false),
            }
            w.u64(resp.bytes as u64);
            w.bool(resp.write);
            w.u32(*owner);
            w.u64(trace_id);
        }
    }
}

/// An action of shard `shard`'s slab and its trace id (0 for a
/// delivery). A request is only ever pending on its owner's shard, so one
/// that names another owner is refused.
fn load_action(r: &mut SnapReader<'_>, shard: u32) -> Result<(Action, u64), SnapshotError> {
    // Tag 1 is not assigned: a lane's run entry is an id, not an action.
    Ok(match r.u8()? {
        0 => (Action::Deliver(load_msg(r)?), 0),
        tag @ (2 | 3) => {
            let stage = if tag == 2 { MemStage::Arrive } else { MemStage::Served };
            let (op, src_node, owner) = (load_memop(r)?, r.u32()?, r.u32()?);
            if owner != shard {
                return Err(SnapshotError::Format(format!(
                    "shard {shard} holds a DRAM request owned by node {owner}"
                )));
            }
            (Action::Mem { stage, op, src_node }, r.u64()?)
        }
        4 => {
            let reply = if r.bool()? { Some(load_msg(r)?) } else { None };
            let bytes = r.u64()?;
            let bytes = u32::try_from(bytes)
                .map_err(|_| SnapshotError::Format(format!("DRAM response of {bytes} bytes")))?;
            let resp = MemResp {
                reply,
                bytes,
                write: r.bool()?,
            };
            (Action::MemDone { resp, owner: r.u32()? }, r.u64()?)
        }
        t => return Err(SnapshotError::Format(format!("bad Action tag {t}"))),
    })
}

fn save_counters(c: &Counters, w: &mut SnapWriter) {
    w.u64(c.events_executed);
    w.u64(c.threads_created);
    w.u64(c.threads_terminated);
    w.u64(c.msgs_intra_accel);
    w.u64(c.msgs_intra_node);
    w.u64(c.msgs_inter_node);
    w.u64(c.dram_reads);
    w.u64(c.dram_writes);
    w.u64(c.dram_read_bytes);
    w.u64(c.dram_write_bytes);
    w.u64(c.dram_remote_accesses);
    w.u64(c.thread_table_stalls);
    w.usize(c.peak_calendar);
    w.u64(c.msgs_delivered);
    w.u64(c.msgs_dropped);
    w.u64(c.windows);
}

fn load_counters(r: &mut SnapReader<'_>) -> Result<Counters, SnapshotError> {
    Ok(Counters {
        events_executed: r.u64()?,
        threads_created: r.u64()?,
        threads_terminated: r.u64()?,
        msgs_intra_accel: r.u64()?,
        msgs_intra_node: r.u64()?,
        msgs_inter_node: r.u64()?,
        dram_reads: r.u64()?,
        dram_writes: r.u64()?,
        dram_read_bytes: r.u64()?,
        dram_write_bytes: r.u64()?,
        dram_remote_accesses: r.u64()?,
        thread_table_stalls: r.u64()?,
        peak_calendar: r.usize()?,
        msgs_delivered: r.u64()?,
        msgs_dropped: r.u64()?,
        windows: r.u64()?,
    })
}

fn save_lane(
    codecs: &StateCodecs,
    links: &Links,
    lane: &Lane,
    w: &mut SnapWriter,
) -> Result<(), SnapshotError> {
    links.save_list(&lane.inbox, w);
    links.save_list(&lane.parked, w);
    w.u64(lane.free_at);
    w.bool(lane.scheduled);
    w.u64(lane.busy);
    w.u64(lane.events);
    lane.spm.words.put(w);
    w.u32(lane.spm.high_water);
    w.u32(lane.spm_brk);
    w.usize(lane.threads.slots.len());
    for s in &lane.threads.slots {
        w.bool(s.live);
        w.u32(s.gen);
        w.u16(s.created_by);
        match &s.state {
            Some(st) => {
                let (key, save) = codecs
                    .by_type
                    .get(&st.as_any().type_id())
                    .ok_or_else(|| SnapshotError::UnencodableState(st.type_label().to_string()))?;
                w.bool(true);
                w.str(key);
                save(st.as_ref(), w)?;
            }
            None => w.bool(false),
        }
    }
    w.usize(lane.threads.live);
    w.u16(lane.threads.next_tid);
    Ok(())
}

fn load_lane(
    codecs: &StateCodecs,
    links: &mut Links,
    r: &mut SnapReader<'_>,
) -> Result<Lane, SnapshotError> {
    let mut lane = Lane {
        inbox: links.load_list(r)?,
        parked: links.load_list(r)?,
        free_at: r.u64()?,
        scheduled: r.bool()?,
        busy: r.u64()?,
        events: r.u64()?,
        ..Lane::default()
    };
    lane.spm.words = Vec::<u64>::take(r)?;
    lane.spm.high_water = r.u32()?;
    lane.spm_brk = r.u32()?;
    let nslots = r.len(1)?;
    lane.threads.slots.reserve(nslots);
    for _ in 0..nslots {
        let live = r.bool()?;
        let gen = r.u32()?;
        let created_by = r.u16()?;
        let state = if r.bool()? {
            let key = r.str()?;
            let load = codecs.by_key.get(key).ok_or_else(|| {
                SnapshotError::Incompatible(format!(
                    "snapshot carries thread state '{key}' but no such codec is registered"
                ))
            })?;
            Some(load(r)?)
        } else {
            None
        };
        lane.threads.slots.push(ThreadSlot {
            live,
            gen,
            created_by,
            state,
        });
    }
    lane.threads.live = r.usize()?;
    lane.threads.next_tid = r.u16()?;
    let live_count = lane.threads.slots.iter().filter(|s| s.live).count();
    if live_count != lane.threads.live {
        return Err(SnapshotError::Format(format!(
            "thread table live count {} disagrees with {} live slots",
            lane.threads.live, live_count
        )));
    }
    Ok(lane)
}

/// One shard's decoded on-disk state, fully validated before anything is
/// installed — a corrupted snapshot errors out without mutating the
/// engine.
struct DecodedCore {
    now: u64,
    stop: bool,
    sent_seq: u64,
    last_completion: u64,
    calendar: CalendarQueue,
    arena: ActionArena,
    lanes: Vec<Lane>,
    channel: MemChannel,
    nic: Nics,
    fabric: Fabric,
    stats: Counters,
    custom_add: BTreeMap<&'static str, u64>,
    custom_peak: BTreeMap<&'static str, u64>,
    handler_stats: Vec<(u64, u64)>,
}

fn save_core(codecs: &StateCodecs, core: &EngineCore, w: &mut SnapWriter) -> Result<(), SnapshotError> {
    w.u64(core.now);
    w.bool(core.stop);
    w.u64(core.sent_seq);
    w.u64(core.last_completion);
    w.usize(core.arena.slots.len());
    for (slot, id) in core.arena.slots.iter().zip(core.arena.first_id..) {
        match slot {
            Some(a) => {
                w.bool(true);
                save_action(a, core.arena.trace_id(id), core.id, w);
            }
            None => w.bool(false),
        }
    }
    core.calendar.save(w);
    core.calendar.links().save_list(&core.arena.free, w);
    w.usize(core.lanes.len());
    for lane in &core.lanes {
        save_lane(codecs, core.calendar.links(), lane, w)?;
    }
    core.channel.save(w);
    core.nic.save(w);
    core.fabric.save(w);
    save_counters(&core.stats, w);
    w.usize(core.custom_add.len());
    for (k, v) in &core.custom_add {
        w.str(k);
        w.u64(*v);
    }
    w.usize(core.custom_peak.len());
    for (k, v) in &core.custom_peak {
        w.str(k);
        w.u64(*v);
    }
    w.usize(core.handler_stats.len());
    for (count, last) in &core.handler_stats {
        w.u64(*count);
        w.u64(*last);
    }
    Ok(())
}

/// Intern a decoded custom-counter key as `&'static str`. Keys come from
/// `Engine::add_counter`-style call sites, so the set is tiny and fixed
/// per program; the leak is bounded by (decodes × distinct keys).
fn leak_key(existing: &BTreeMap<&'static str, u64>, key: &str) -> &'static str {
    match existing.get_key_value(key) {
        Some((k, _)) => k,
        None => Box::leak(key.to_string().into_boxed_str()),
    }
}

fn load_core(
    codecs: &StateCodecs,
    proto: &EngineCore,
    r: &mut SnapReader<'_>,
) -> Result<DecodedCore, SnapshotError> {
    let now = r.u64()?;
    let stop = r.bool()?;
    let sent_seq = r.u64()?;
    let last_completion = r.u64()?;
    let first_id = proto.arena.first_id;
    let nslots = r.len(1)?;
    let mut arena = ActionArena::new(first_id);
    arena.slots.reserve(nslots);
    for id in (first_id..).take(nslots) {
        if r.bool()? {
            let (action, trace_id) = load_action(r, proto.id)?;
            arena.slots.push(Some(action));
            arena.set_tag(
                id,
                Tag {
                    trace_id,
                    ..Tag::default()
                },
            );
        } else {
            arena.slots.push(None);
        }
    }
    // Ids are not trusted: the shared link array refuses an id that is out
    // of range or in two lists (a cycle would hang the run), and the slab
    // cross-check below refuses a pending id without a payload, a payload
    // no list reaches, and a freelist entry that is not vacant.
    let ids = u32::try_from(nslots)
        .ok()
        .and_then(|n| n.checked_add(first_id))
        .ok_or_else(|| SnapshotError::Format(format!("{nslots} slab slots overflow the id space")))?;
    let mut calendar = CalendarQueue::load(r, ids)?;
    arena.free = calendar.links_mut().load_list(r)?;
    let nlanes = r.len(1)?;
    if nlanes != proto.lanes.len() {
        return Err(SnapshotError::Incompatible(format!(
            "shard {} has {} lanes, snapshot has {nlanes}",
            proto.id,
            proto.lanes.len()
        )));
    }
    let mut lanes = Vec::with_capacity(nlanes);
    for l in 0..nlanes {
        let lane = load_lane(codecs, calendar.links_mut(), r)?;
        let links = calendar.links();
        // At a window boundary a lane is marked scheduled exactly when its
        // run entry is pending, and only a scheduled lane has an inbox: a
        // flag without the entry would strand the inbox for good.
        if links.is_linked(l as u32) != lane.scheduled {
            return Err(SnapshotError::Format(if lane.scheduled {
                format!("lane {l} is marked scheduled but has no run entry pending")
            } else {
                format!("lane {l} has a run entry pending but is not marked scheduled")
            }));
        }
        if !lane.scheduled && !lane.inbox.is_empty() {
            return Err(SnapshotError::Format(format!(
                "lane {l} has an inbox but no run entry pending"
            )));
        }
        for id in links.iter(&lane.inbox).chain(links.iter(&lane.parked)) {
            let holds_message = id >= first_id
                && arena.slots[(id - first_id) as usize]
                    .as_ref()
                    .is_some_and(|a| a.message().is_some());
            if !holds_message {
                return Err(SnapshotError::Format(format!(
                    "lane {l} queues id {id}, which is not a slot holding a message"
                )));
            }
        }
        lanes.push(lane);
    }
    // Every slot is now in exactly one list or in none. The freelist must
    // be exactly the vacant slots, and no slot may be unreachable; what
    // the calendar and the lanes hold is then exactly the live slots.
    let links = calendar.links();
    if let Some(id) = (first_id..ids).find(|&id| !links.is_linked(id)) {
        return Err(SnapshotError::Format(format!(
            "slab slot {} is reached by no list",
            id - first_id
        )));
    }
    let mut vacant = arena.slots.iter().filter(|s| s.is_none()).count();
    for id in links.iter(&arena.free) {
        if id < first_id || arena.slots[(id - first_id) as usize].is_some() {
            return Err(SnapshotError::Format(format!(
                "slab freelist entry {id} is not a vacant slot"
            )));
        }
        vacant -= 1;
    }
    if vacant != 0 {
        return Err(SnapshotError::Format(format!(
            "{vacant} pending id(s) name a vacant slab slot"
        )));
    }
    let mut channel = proto.channel.clone();
    channel.load_into(r)?;
    let mut nic = proto.nic.clone();
    nic.load_into(r)?;
    let mut fabric = proto.fabric.clone();
    fabric.load_into(r)?;
    let stats = load_counters(r)?;
    let mut custom_add = BTreeMap::new();
    for _ in 0..r.len(1)? {
        let key = leak_key(&proto.custom_add, r.str()?);
        let v = r.u64()?;
        custom_add.insert(key, v);
    }
    let mut custom_peak = BTreeMap::new();
    for _ in 0..r.len(1)? {
        let key = leak_key(&proto.custom_peak, r.str()?);
        let v = r.u64()?;
        custom_peak.insert(key, v);
    }
    let nh = r.len(16)?;
    let mut handler_stats = Vec::with_capacity(nh);
    for _ in 0..nh {
        handler_stats.push((r.u64()?, r.u64()?));
    }
    Ok(DecodedCore {
        now,
        stop,
        sent_seq,
        last_completion,
        calendar,
        arena,
        lanes,
        channel,
        nic,
        fabric,
        stats,
        custom_add,
        custom_peak,
        handler_stats,
    })
}

impl DecodedCore {
    /// Install the decoded functional state into a live core, leaving the
    /// observability fields (trace, tracer, phases) untouched — the
    /// re-driving run already reproduced those.
    fn install(self, core: &mut EngineCore) {
        core.now = self.now;
        core.stop = self.stop;
        core.sent_seq = self.sent_seq;
        core.last_completion = self.last_completion;
        core.calendar = self.calendar;
        core.arena = self.arena;
        core.lanes = self.lanes;
        core.channel = self.channel;
        core.nic = self.nic;
        core.fabric = self.fabric;
        core.stats = self.stats;
        core.custom_add = self.custom_add;
        core.custom_peak = self.custom_peak;
        core.handler_stats = self.handler_stats;
    }
}

/// Refuse a deferred restore that does not fit the re-driven run. The
/// file is bad input, not a bug, so the panic carries it as a
/// [`SnapshotError`] payload for a caller to report (`repro` exits 2 on
/// it).
pub(super) fn refuse_restore(why: String) -> ! {
    std::panic::panic_any(SnapshotError::Incompatible(why))
}

impl Engine {
    /// Register the on-disk codec for a thread-state type `T`. Required
    /// before `write_snapshot`/`snapshot_bytes` can serialize live
    /// threads whose state is a `T`, and before a snapshot containing
    /// `T::KEY` sections can be restored. Typed events register theirs
    /// (`udweave::ThreadType::event`); call this for a state a raw
    /// handler keeps with [`crate::EventCtx::state_mut`]. Registering
    /// twice is a no-op.
    pub fn register_state_codec<T: SnapState>(&mut self) {
        self.codecs
            .by_type
            .insert(TypeId::of::<T>(), (T::KEY, codec_save::<T>));
        self.codecs.by_key.insert(T::KEY, codec_load::<T>);
    }

    /// Take a full in-memory [`Snapshot`]: per-shard state (protocol
    /// records included), DRAM image, observability buffers, and race
    /// clocks. Restoring it with [`Engine::restore`] is an exact rewind.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cores: self.shards.clone(),
            mem: self.shared.mem.image(),
            windows: self.windows,
            sched_win_max_sum: self.sched_win_max_sum,
            sched_win_max_peak: self.sched_win_max_peak,
            merged_trace: self.merged_trace.clone(),
            race: self.shared.cfg.race.as_ref().map(|rp| rp.snapshot_state()),
            tables: self.shared.tables.clone(),
        }
    }

    /// Rewind the engine to `snap`. Continuing afterwards is byte-identical
    /// to never having left: metrics, traces, and udcheck/udrace reports
    /// all match an uninterrupted run.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if snap.cores.len() != self.shards.len() {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot has {} shards, machine has {}",
                snap.cores.len(),
                self.shards.len()
            )));
        }
        let slots = |cores: &[EngineCore], tables: &[Table]| (cores[0].state.len(), tables.len());
        if slots(&snap.cores, &snap.tables) != slots(&self.shards, &self.shared.tables) {
            return Err(SnapshotError::Incompatible(
                "shard-state slots or program tables were declared after the snapshot".to_string(),
            ));
        }
        self.shared.mem.restore_image(&snap.mem)?;
        self.shards = snap.cores.clone();
        self.windows = snap.windows;
        self.sched_win_max_sum = snap.sched_win_max_sum;
        self.sched_win_max_peak = snap.sched_win_max_peak;
        self.merged_trace = snap.merged_trace.clone();
        if let (Some(rp), Some(st)) = (&self.shared.cfg.race, &snap.race) {
            rp.restore_state(st);
        }
        self.shared.tables = snap.tables.clone();
        Ok(())
    }

    /// Binary body of the on-disk snapshot (shard sections + DRAM image +
    /// the engine-level scheduler aggregates, which a restoring process
    /// cannot reproduce from shard state alone).
    fn encode_body(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapWriter::new();
        w.usize(self.shards.len());
        for core in &self.shards {
            save_core(&self.codecs, core, &mut w)?;
        }
        self.shared.mem.image().save(&mut w);
        w.u64(self.sched_win_max_sum);
        w.u64(self.sched_win_max_peak);
        Ok(w.into_bytes())
    }

    /// Serialize the functional machine state as a complete
    /// `updown-snapshot/v2` byte stream (framing, header, body, checksum).
    /// Fails cleanly when a live thread state has no registered codec.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let body = self.encode_body()?;
        let cfg = &self.shared.cfg;
        let header = SnapHeader {
            nodes: cfg.nodes,
            accels_per_node: cfg.accels_per_node,
            lanes_per_accel: cfg.lanes_per_accel,
            window: self.windows,
            events: self.shards.iter().map(|s| s.stats.events_executed).sum(),
        };
        Ok(snapshot::frame(&header, &body))
    }

    /// Write an `updown-snapshot/v2` file of the current machine state.
    pub fn write_snapshot(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.snapshot_bytes()?)?;
        Ok(())
    }

    /// Decode a full `updown-snapshot/v2` byte stream and install it.
    /// Validation is all-or-nothing: a corrupted, truncated, or
    /// incompatible snapshot returns an error without mutating the engine.
    pub fn restore_snapshot_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let (header, body) = snapshot::unframe(bytes)?;
        self.decode_install(&header, body)
    }

    /// Read and install a snapshot file (see [`Engine::restore_snapshot_bytes`]).
    pub fn read_snapshot(&mut self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let bytes = std::fs::read(path)?;
        self.restore_snapshot_bytes(&bytes)
    }

    /// Decode `body` against this machine and swap the functional state in.
    fn decode_install(&mut self, header: &SnapHeader, body: &[u8]) -> Result<(), SnapshotError> {
        let cfg = &self.shared.cfg;
        if (header.nodes, header.accels_per_node, header.lanes_per_accel)
            != (cfg.nodes, cfg.accels_per_node, cfg.lanes_per_accel)
        {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot machine {}x{}x{}, this machine {}x{}x{}",
                header.nodes,
                header.accels_per_node,
                header.lanes_per_accel,
                cfg.nodes,
                cfg.accels_per_node,
                cfg.lanes_per_accel
            )));
        }
        let mut r = SnapReader::new(body);
        let n = r.len(1)?;
        if n != self.shards.len() {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot has {n} shards, machine has {}",
                self.shards.len()
            )));
        }
        let mut decoded = Vec::with_capacity(n);
        for core in &self.shards {
            let dec = load_core(&self.codecs, core, &mut r)?;
            if dec.handler_stats.len() != self.shared.handlers.len() {
                return Err(SnapshotError::Incompatible(format!(
                    "snapshot has {} handlers, this program registered {}",
                    dec.handler_stats.len(),
                    self.shared.handlers.len()
                )));
            }
            decoded.push(dec);
        }
        let mem = MemoryImage::load(&mut r)?;
        let win_max_sum = r.u64()?;
        let win_max_peak = r.u64()?;
        r.finish()?;
        self.shared.mem.restore_image(&mem)?;
        for (core, dec) in self.shards.iter_mut().zip(decoded) {
            dec.install(core);
        }
        self.windows = header.window;
        self.sched_win_max_sum = win_max_sum;
        self.sched_win_max_peak = win_max_peak;
        Ok(())
    }

    /// Work done at every `checkpoint_every` pause, in order:
    ///
    /// 1. `checkpoint_path`: write the snapshot file (first boundary only).
    /// 2. `restore_path`: when the re-driven run has reached the recorded
    ///    window, verify that the file matches the live machine
    ///    byte-for-byte, then install the *decoded* state and verify it
    ///    re-encodes to the same bytes — both directions of the codec are
    ///    exercised on every restore. With a race probe attached the
    ///    verified-equal live state continues instead (in-flight vector
    ///    clocks are process-local and not serialized).
    /// 3. Round-trip self-check: take an in-memory snapshot and restore
    ///    it, so every checkpointed run continuously proves that
    ///    snapshot/restore is an exact rewind.
    pub(super) fn checkpoint_boundary(&mut self) {
        if let Some(path) = self.shared.cfg.checkpoint_path.clone() {
            if !self.checkpoint_written {
                self.checkpoint_written = true;
                self.write_snapshot(&path)
                    .unwrap_or_else(|e| panic!("checkpoint: writing {}: {e}", path.display()));
            }
        }
        if let RestoreSlot::Pending { header, .. } = &self.restore {
            if self.windows >= header.window {
                let RestoreSlot::Pending { header, body } =
                    std::mem::replace(&mut self.restore, RestoreSlot::Done)
                else {
                    unreachable!()
                };
                if self.windows != header.window {
                    refuse_restore(format!(
                        "checkpoint boundaries (every {} windows) skipped over the snapshot's \
                         window {}; the restoring run must use the same checkpoint_every \
                         cadence as the snapshotting run",
                        self.shared.cfg.checkpoint_every, header.window
                    ));
                }
                let live = self
                    .encode_body()
                    .unwrap_or_else(|e| panic!("restore: encoding live state: {e}"));
                if live != body {
                    refuse_restore(format!(
                        "the snapshot disagrees with the re-driven machine at window {}; it \
                         must come from this exact workload and config",
                        header.window
                    ));
                }
                if self.shared.cfg.race.is_none() {
                    self.decode_install(&header, &body)
                        .unwrap_or_else(|e| panic!("restore: {e}"));
                    let re = self
                        .encode_body()
                        .unwrap_or_else(|e| panic!("restore: re-encoding: {e}"));
                    assert!(
                        re == body,
                        "restore: decode/encode round-trip diverged at window {}",
                        header.window
                    );
                }
            }
        }
        let snap = self.snapshot();
        self.restore(&snap)
            .expect("checkpoint: in-memory snapshot round-trip");
    }
}
