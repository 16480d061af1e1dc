//! One shard of the machine and everything it executes: the pending-event
//! slab, the window loop body, lane dispatch, and the fabric and DRAM
//! paths. Imports none of its sibling modules.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, MutexGuard};

use crate::calendar::{CalendarQueue, IdList, Links};
use crate::config::{MachineConfig, INTRA_NODE_LATENCY, OP_COSTS};
use crate::ids::{EventWord, NetworkId, ThreadId};
use crate::lane::{Lane, SimState};
use crate::memory::{GlobalMemory, MemChannel, VAddr};
use crate::message::{wire_bytes, Message, Operands, HW_OPERANDS, MSG_HEADER_BYTES};
use crate::network::{Fabric, Nics, Topology};
use crate::probe::{DiagKind, ProtocolRecord};
use crate::race::{RaceAccess, RaceExec, ThreadKey, VClock};
use crate::stats::Counters;
use crate::trace::{DramStage, PhaseSpan, TraceEvent, Tracer};

/// A handler executes one event. It may read/write its thread state, send
/// messages, and issue DRAM requests through the [`EventCtx`]. Handlers
/// are `Send + Sync` so shards can execute on scheduler worker threads.
pub type Handler = Arc<dyn Fn(&mut EventCtx<'_>) + Send + Sync>;

pub(super) struct HandlerEntry {
    pub(super) name: String,
    pub(super) f: Handler,
}

/// A DRAM transaction payload, applied when channel service completes on
/// the owning shard. A reply word of [`EventWord::IGNORE`] asks for no
/// reply, as a continuation does; a write's words are [`Operands`], so
/// writes of up to [`INLINE_OPERANDS`](crate::message::INLINE_OPERANDS)
/// words need no heap block.
#[derive(Clone, Debug)]
pub(super) enum MemOp {
    Read {
        va: VAddr,
        nwords: u8,
        ret: EventWord,
        tag: Option<u64>,
    },
    Write {
        va: VAddr,
        words: Operands,
        ack: EventWord,
        tag: Option<u64>,
    },
    AddU64 {
        va: VAddr,
        delta: u64,
        ret: EventWord,
        tag: Option<u64>,
    },
    AddF64 {
        va: VAddr,
        delta: f64,
        ret: EventWord,
        tag: Option<u64>,
    },
}

impl MemOp {
    /// Payload bytes moved by the transaction (response for reads, data
    /// for writes).
    fn bytes(&self) -> u64 {
        match self {
            MemOp::Read { nwords, .. } => *nwords as u64 * 8,
            MemOp::Write { words, .. } => words.len() as u64 * 8,
            MemOp::AddU64 { .. } | MemOp::AddF64 { .. } => 8,
        }
    }

    pub(super) fn is_write(&self) -> bool {
        !matches!(self, MemOp::Read { .. })
    }

    pub(super) fn is_atomic(&self) -> bool {
        matches!(self, MemOp::AddU64 { .. } | MemOp::AddF64 { .. })
    }

    fn va(&self) -> VAddr {
        match self {
            MemOp::Read { va, .. }
            | MemOp::Write { va, .. }
            | MemOp::AddU64 { va, .. }
            | MemOp::AddF64 { va, .. } => *va,
        }
    }

    /// Apply the transaction's effect to `mem` and build the reply the
    /// issuer asked for: a read's data, a write's ack (the address), an
    /// atomic's old value — each followed by the issuer's tag.
    // Forced inline: left as calls, this and `EventCtx::push_dram` cost
    // `udbench` pr_1n 2–3 % more `wall_s` (interleaved pairs, PR 25).
    #[inline(always)]
    pub(super) fn apply(&self, mem: &GlobalMemory) -> Option<Message> {
        fn fault<T>(e: crate::memory::MemError) -> T {
            panic!("DRAM fault applying a request: {e}")
        }
        let reply = |to: EventWord, words: &[u64], tag| {
            (!to.is_ignore()).then(|| Message::new(to, reply_args(words, tag), EventWord::IGNORE, to.nwid()))
        };
        match *self {
            MemOp::Read { va, nwords, ret, tag } => {
                let mut data = [0u64; HW_OPERANDS];
                let data = &mut data[..nwords as usize];
                mem.read_words_into(va, data).unwrap_or_else(fault);
                reply(ret, data, tag)
            }
            MemOp::Write { va, ref words, ack, tag } => {
                mem.write_words(va, words).unwrap_or_else(fault);
                reply(ack, &[va.0], tag)
            }
            MemOp::AddU64 { va, delta, ret, tag } => {
                let old = mem.fetch_add_u64(va, delta).unwrap_or_else(fault);
                reply(ret, &[old], tag)
            }
            MemOp::AddF64 { va, delta, ret, tag } => {
                let old = mem.fetch_add_f64(va, delta).unwrap_or_else(fault);
                reply(ret, &[old.to_bits()], tag)
            }
        }
    }
}

/// The response of a completed DRAM transaction travelling back to the
/// issuing shard. Memory contents were already updated at service time on
/// the owning shard (the deterministic serialization point); only the
/// pre-built reply message is still in flight.
#[derive(Clone, Debug)]
pub(super) struct MemResp {
    pub(super) reply: Option<Message>,
    /// Payload bytes, at most 64.
    pub(super) bytes: u32,
    pub(super) write: bool,
}

/// Where a DRAM request is on its way through the owning node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum MemStage {
    /// Arrived at the owning node's memory channel; waiting for service.
    Arrive,
    /// Channel service complete: apply the effect and send the response.
    Served,
}

/// DRAM transactions are staged through the calendar so each shared
/// resource (source NIC, memory channel, owner NIC) is reserved at the
/// moment the transaction actually reaches it — reservations happen in
/// time order, which keeps the FIFO pipelines honest.
///
/// A payload is written into its slab slot once and stays there: a
/// transaction advances by changing `stage` (or being overwritten by its
/// response) in place and re-queueing the same id, and a message waits in
/// its lane's inbox *as its slot id* until the handler starts.
///
/// Nothing here is observer data: what a tracer or a race probe keeps per
/// pending entry is a [`Tag`] beside the slot.
#[derive(Clone, Debug)]
pub(super) enum Action {
    Deliver(Message),
    /// A request at the owning node: always dispatched on the owner's
    /// shard, so the owner is that shard's id.
    Mem {
        stage: MemStage,
        op: MemOp,
        src_node: u32,
    },
    /// Response arrived back at the issuing shard: deliver the reply.
    MemDone {
        resp: MemResp,
        owner: u32,
    },
}

/// Observer data of one pending entry, kept beside its [`Action`] instead
/// of inside it: the trace id that correlates the stages of one DRAM
/// transaction in the event trace (0 when untraced), and its race data.
/// Empty unless a tracer or a [`RaceProbe`](crate::RaceProbe) is attached;
/// never affects simulated time, wire size or cost.
#[derive(Clone, Default)]
pub(super) struct Tag {
    pub(super) trace_id: u64,
    pub(super) race: RaceTag,
}

/// What the race probe keeps for one pending entry.
#[derive(Clone, Default)]
pub(super) enum RaceTag {
    #[default]
    None,
    /// The clock a message carries to its handler: the happens-before
    /// edge of delivery.
    Clock(Arc<VClock>),
    /// The issuer's race context of a DRAM request.
    Access(RaceAccess),
}

impl Tag {
    /// A message's tag: its race clock, if any.
    fn clock(clock: Option<Arc<VClock>>) -> Tag {
        Tag {
            trace_id: 0,
            race: clock.map_or(RaceTag::None, RaceTag::Clock),
        }
    }

    fn is_empty(&self) -> bool {
        self.trace_id == 0 && matches!(self.race, RaceTag::None)
    }
}

/// Entry `i` of a side vector, growing it with defaults to reach `i`.
fn side_entry<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl Action {
    /// The message a lane's inbox holds this slot for: a delivery, or the
    /// reply of a completed DRAM transaction.
    pub(super) fn message(&self) -> Option<&Message> {
        match self {
            Action::Deliver(m) => Some(m),
            Action::MemDone { resp, .. } => resp.reply.as_ref(),
            Action::Mem { .. } => None,
        }
    }

    fn into_message(self) -> Option<Message> {
        match self {
            Action::Deliver(m) => Some(m),
            Action::MemDone { resp, .. } => resp.reply,
            Action::Mem { .. } => None,
        }
    }
}

/// Reply operands of a served DRAM transaction: the data words (at most
/// [`HW_OPERANDS`]), then the issuer's tag. Assembled on the stack so a
/// tagged full-width read reply is built in one step.
fn reply_args(words: &[u64], tag: Option<u64>) -> Operands {
    let mut buf = [0u64; HW_OPERANDS + 1];
    buf[..words.len()].copy_from_slice(words);
    let mut n = words.len();
    if let Some(tag) = tag {
        buf[n] = tag;
        n += 1;
    }
    Operands::from(&buf[..n])
}

/// Record stage `stage` of DRAM transaction `id` when tracing is on.
#[inline]
fn trace_dram(
    tracer: &mut Option<Tracer>,
    id: u64,
    stage: DramStage,
    node: u32,
    time: u64,
    bytes: u64,
    write: bool,
) {
    if let Some(tr) = tracer {
        tr.record(TraceEvent::Dram { id, stage, node, time, bytes, write });
    }
}

/// Record one `Link` row per hop of the route `src -> dst` that a message
/// departing at `depart` has just taken through `fabric`, when tracing is
/// on. A minimal route never repeats a link, so each link's cumulative
/// bytes are still what they were right after its hop.
fn trace_route(
    tracer: &mut Option<Tracer>,
    topo: &Topology,
    fabric: &Fabric,
    depart: u64,
    src: u32,
    dst: u32,
) {
    if let Some(tr) = tracer {
        for (k, &l) in topo.route(src, dst).iter().enumerate() {
            let link = topo.links()[l.0 as usize];
            tr.record(TraceEvent::Link {
                src: link.src,
                dst: link.dst,
                node: src,
                time: topo.hop_time(depart, k),
                value: fabric.bytes(l),
            });
        }
    }
}

/// Slab storage for pending [`Action`]s: every calendar entry with a
/// payload and every message waiting on a lane. The calendar and the lane
/// inboxes hold bare `u32` ids, so queueing never moves a payload. A
/// shard's ids `0..first_id` name its lanes (a lane's pending run entry is
/// the lane's own id and has no slot); slot `i` is id `first_id + i`.
/// Vacant slots form a LIFO freelist threaded through the calendar's link
/// array like every other list of ids, so the slab allocates only when it
/// grows. (What the whole event path still allocates per event is
/// budgeted in `docs/perf.md`, "Allocation budget".)
///
/// Snapshots serialize the slab *and* the freelist verbatim: the lists
/// store ids, so slot numbering (and hence future freelist reuse order)
/// must survive a restore exactly for re-encoded snapshots to stay
/// byte-identical.
///
/// Observer data ([`Tag`]) lives in two side vectors keyed by the same
/// slot index: ids are unique among pending entries, and a vacant slot's
/// entries are always empty. Each grows only when its half of an
/// inserted tag is non-empty, so a run with no tracer and no race probe
/// allocates neither, and a traced run touches 8 bytes per slot.
#[derive(Clone)]
pub(super) struct ActionArena {
    pub(super) first_id: u32,
    pub(super) slots: Vec<Option<Action>>,
    pub(super) free: IdList,
    /// `trace_ids[i]` and `races[i]` belong to slot `i`; slots past the end
    /// of either have none.
    pub(super) trace_ids: Vec<u64>,
    pub(super) races: Vec<RaceTag>,
}

impl ActionArena {
    pub(super) fn new(first_id: u32) -> ActionArena {
        ActionArena {
            first_id,
            slots: Vec::new(),
            free: IdList::default(),
            trace_ids: Vec::new(),
            races: Vec::new(),
        }
    }

    fn insert(&mut self, links: &mut Links, action: Action, tag: Tag) -> u32 {
        let id = match links.pop_front(&mut self.free) {
            Some(id) => {
                self.slots[(id - self.first_id) as usize] = Some(action);
                id
            }
            None => {
                let id = self.first_id + self.slots.len() as u32;
                links.ensure(id);
                self.slots.push(Some(action));
                id
            }
        };
        self.set_tag(id, tag);
        id
    }

    pub(super) fn take(&mut self, links: &mut Links, id: u32) -> Action {
        let i = (id - self.first_id) as usize;
        let a = self.slots[i].take().expect("live arena slot");
        if let Some(t) = self.trace_ids.get_mut(i) {
            *t = 0;
        }
        if let Some(r) = self.races.get_mut(i) {
            *r = RaceTag::None;
        }
        links.push_front(&mut self.free, id);
        a
    }

    /// Move slot `id`'s race data out, leaving it empty.
    pub(super) fn take_race(&mut self, id: u32) -> RaceTag {
        self.races
            .get_mut((id - self.first_id) as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Give slot `id`, whose observer data is empty, the data of `tag`.
    pub(super) fn set_tag(&mut self, id: u32, tag: Tag) {
        let i = (id - self.first_id) as usize;
        if tag.trace_id != 0 {
            *side_entry(&mut self.trace_ids, i) = tag.trace_id;
        }
        if !matches!(tag.race, RaceTag::None) {
            *side_entry(&mut self.races, i) = tag.race;
        }
    }

    /// The trace id of slot `id`'s DRAM transaction; 0 when untraced.
    pub(super) fn trace_id(&self, id: u32) -> u64 {
        self.trace_ids.get((id - self.first_id) as usize).copied().unwrap_or(0)
    }

    fn get_mut(&mut self, id: u32) -> &mut Action {
        self.slots[(id - self.first_id) as usize]
            .as_mut()
            .expect("live arena slot")
    }

    /// The message waiting in slot `id` (an inbox or parked entry).
    fn message(&self, id: u32) -> &Message {
        self.slots[(id - self.first_id) as usize]
            .as_ref()
            .and_then(Action::message)
            .expect("inbox entry names a slot holding a message")
    }
}

/// Outgoing effects collected during one event execution; the engine turns
/// them into scheduled actions at the event's completion time.
pub(super) enum Outgoing {
    /// A message, the cycles it waits after the event before entering the
    /// network, and the sender's race clock.
    Msg(Message, u64, Option<Arc<VClock>>),
    /// A DRAM request and the issuer's race context.
    Dram(MemOp, Option<RaceAccess>),
}

/// A calendar entry crossing shards at a window boundary.
#[derive(Clone)]
pub(super) struct XEntry {
    pub(super) time: u64,
    pub(super) action: Action,
}

/// One source shard's cross-shard entries for one destination, in send
/// order, with their observer data beside them: `tags[i]` belongs to
/// `entries[i]`, and entries past the end of `tags` have none, so an
/// unobserved run never fills it.
#[derive(Clone, Default)]
pub(super) struct XBuf {
    pub(super) entries: Vec<XEntry>,
    pub(super) tags: Vec<Tag>,
    /// Capacity the pair's last flushed buffer had ([`Route::hint`]): a
    /// full buffer grows straight to it (or doubles, if that is more).
    pub(super) hint: usize,
}

/// Entries a cross-shard buffer allocates room for first.
const XBUF_FIRST: usize = 32;

impl XBuf {
    fn push(&mut self, time: u64, action: Action, tag: Tag) {
        if !tag.is_empty() {
            self.tags.resize_with(self.entries.len(), Tag::default);
            self.tags.push(tag);
        }
        let len = self.entries.len();
        if len == self.entries.capacity() {
            let cap = (2 * len).max(self.hint).max(XBUF_FIRST);
            self.entries.reserve_exact(cap - len);
        }
        self.entries.push(XEntry { time, action });
    }
}

/// The cross-shard exchange: one cell per (source, destination, parity),
/// owned by the [`Engine`](super::Engine) so its buffers keep their
/// capacity from run to run.
///
/// Double-buffered by round parity: pushes in round `r` go to parity
/// `r % 2` and are drained at the start of round `r + 1` — a fast worker
/// can never consume entries from the round still in progress. A cell is
/// used by its source in round `r` and by its destination in round `r + 1`,
/// a barrier apart, so its lock is never contended; it is there so safe
/// Rust can hand the buffer from one worker to another.
///
/// So a (source, destination) pair that sends owns exactly two buffers,
/// one per parity, and a pair that never sends owns none. The first time
/// a round-`r` window sends to a destination, its source takes the buffer
/// of its parity-`r % 2` cell, which the destination emptied a round
/// earlier (a fresh one the first time the pair sends at that parity),
/// and appends to it in send order; at the end of the window it puts each
/// buffer it took back, filled, and marks the cell. No entry is copied
/// from buffer to buffer, and every buffer keeps its capacity. A
/// destination drains its cells in source order, which is the `(source
/// shard, send order)` merge a serial exchange produces, and visits only
/// the sources its mark bits name.
pub(super) struct Exchange {
    pub(super) shards: usize,
    /// Words per bitset row: one bit per shard.
    pub(super) words: usize,
    /// The cell of `(src, dst, par)` is `cells[(par * shards + src) *
    /// shards + dst]`, so a source's cells of one parity are adjacent. It
    /// is empty until the pair first sends at that parity, and while its
    /// source holds the buffer during a window.
    cells: Vec<std::sync::Mutex<Option<Box<XBuf>>>>, // det-lint: allow — uncontended: source, destination a barrier apart
    /// The sources that filled a cell of `(dst, par)` are the bits of the
    /// `words` words from `(par * shards + dst) * words`. Marks are set and
    /// cleared `Relaxed`: a mark set in round `r` is read in round `r + 1`,
    /// and the window barrier's `Release` / `Acquire` pairing orders the
    /// two; a cell's contents are published by its own lock.
    marks: Vec<AtomicU64>,
    /// The destinations `src` has allocated a cell for are the bits of the
    /// `words` words from `src * words`; only `src` sets them. Lets a
    /// host-side walk visit the allocated cells only.
    allocated: Vec<AtomicU64>,
}

impl Exchange {
    pub(super) fn new(shards: usize) -> Exchange {
        let words = shards.div_ceil(64);
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Exchange {
            shards,
            words,
            cells: (0..2 * shards * shards).map(|_| Default::default()).collect(),
            marks: zeros(2 * shards * words),
            allocated: zeros(shards * words),
        }
    }

    pub(super) fn cell(&self, src: usize, dst: usize, par: usize) -> MutexGuard<'_, Option<Box<XBuf>>> {
        self.cells[(par * self.shards + src) * self.shards + dst]
            .lock()
            .expect("a worker panicked holding an exchange cell")
    }

    /// Word `w` of the bitset of sources that filled a cell of `(dst, par)`.
    pub(super) fn mark(&self, dst: usize, par: usize, w: usize) -> &AtomicU64 {
        &self.marks[(par * self.shards + dst) * self.words + w]
    }

    /// Take the buffer of cell `(src, dst, par)`, which its destination
    /// emptied a round ago, for a window of `src` to fill; the first time
    /// the pair sends at this parity, a fresh one.
    fn take(&self, src: usize, dst: usize, par: usize) -> Box<XBuf> {
        let buf = self.cell(src, dst, par).take().unwrap_or_else(|| {
            self.allocated[src * self.words + dst / 64].fetch_or(1 << (dst % 64), Relaxed);
            Box::default()
        });
        assert!(buf.entries.is_empty(), "cell ({src}, {dst}, {par}) was not drained");
        buf
    }

    /// The `(source, destination)` pairs that have allocated a cell, in
    /// source then destination order.
    pub(super) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.shards).flat_map(move |src| {
            (0..self.words).flat_map(move |w| {
                let mut bits = self.allocated[src * self.words + w].load(Relaxed);
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let dst = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        (src, dst)
                    })
                })
            })
        })
    }

    /// Observer tags the allocated cells have room for (host-side memory
    /// report).
    pub(super) fn tag_capacity(&self) -> usize {
        let cap = |src, dst, par| self.cell(src, dst, par).as_ref().map_or(0, |b| b.tags.capacity());
        self.pairs().map(|(src, dst)| cap(src, dst, 0) + cap(src, dst, 1)).sum()
    }
}

/// Where a window's cross-shard entries go.
#[derive(Clone, Copy)]
pub(super) enum Sends<'a> {
    /// Into the exchange cells of the window's round parity.
    Exchange(&'a Exchange, usize),
    /// Into buffers of the shard's own that are dropped after the window:
    /// a replayed window never touches the exchange, whose cells may
    /// still hold the recorded run's last entries.
    Discard,
}

/// What a shard knows of its pair with one destination.
#[derive(Clone, Copy, Default)]
pub(super) struct Route {
    /// 1 + the index in [`EngineCore::outbox`] of the buffer this window
    /// took for the destination; 0 when it has sent there nothing yet.
    pub(super) taken: u32,
    /// Capacity of the pair's last flushed buffer: the next buffer taken
    /// grows straight to it.
    pub(super) hint: u32,
}

/// One executed lane event in a shard's recorded execution stream; the
/// unit a replay compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct ExecRec {
    time: u64,
    lane: u32,
    tid: u16,
    label: u16,
    /// Scratchpad high-water mark of the lane after the event — pins the
    /// scratchpad progression into the replayed stream.
    spm_high: u32,
}

/// One conservative window of a shard's recording: the horizon it ran
/// under, the event budget it was handed, and the cross-shard entries
/// drained into its calendar at the window start.
#[derive(Clone, Default)]
pub(super) struct RoundRec {
    pub(super) horizon: u64,
    pub(super) budget: u64,
    pub(super) inject: Vec<XEntry>,
}

/// Everything one shard contributes to the recording of one scheduler
/// invocation.
#[derive(Clone, Default)]
pub(super) struct ShardRecord {
    pub(super) rounds: Vec<RoundRec>,
    pub(super) exec: Vec<ExecRec>,
}

/// Typed index of an engine-owned value; the flag tells the two kinds
/// apart so one cannot be passed for the other.
pub struct Slot<T, const TABLE: bool>(pub(super) u32, PhantomData<fn() -> T>);

/// One `T` per shard, lent as `&mut T` to the handler the shard is
/// executing ([`Engine::shard_slot`](super::Engine::shard_slot)).
pub type ShardSlot<T> = Slot<T, false>;

/// One `T` built at set-up and lent to every handler as `&T`
/// ([`Engine::table`](super::Engine::table)).
pub type TableSlot<T> = Slot<T, true>;

// A handle is a plain index; `derive` would ask for `T: Copy`.
impl<T, const TABLE: bool> Clone for Slot<T, TABLE> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, const TABLE: bool> Copy for Slot<T, TABLE> {}

impl<T, const TABLE: bool> Slot<T, TABLE> {
    pub(super) fn new(idx: usize) -> Self {
        Slot(idx as u32, PhantomData)
    }
}

/// The `T` in a shard-state cell, defaulted at first touch.
pub(super) fn shard_value<T: Default + Send + Clone + 'static>(
    cell: &mut Option<Box<dyn SimState>>,
) -> &mut T {
    cell.get_or_insert_with(|| Box::<T>::default())
        .as_any_mut()
        .downcast_mut()
        .expect("shard slot holds its own type")
}

/// One program table: the value and how to deep-copy it into a
/// [`Snapshot`](super::Snapshot). Tables are `Sync`, which `SimState`
/// boxes are not, so the clone is a function pointer taken where `T` is
/// still known.
pub(super) struct Table {
    value: Box<dyn Any + Send + Sync>,
    clone: fn(&dyn Any) -> Box<dyn Any + Send + Sync>,
}

impl Table {
    pub(super) fn new<T: Clone + Send + Sync + 'static>(value: T) -> Table {
        Table {
            value: Box::new(value),
            clone: |v| Box::new(v.downcast_ref::<T>().expect("table holds its own type").clone()),
        }
    }

    pub(super) fn get<T: 'static>(&self) -> &T {
        self.value.downcast_ref().expect("table slot holds its own type")
    }

    pub(super) fn get_mut<T: 'static>(&mut self) -> &mut T {
        self.value.downcast_mut().expect("table slot holds its own type")
    }
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            value: (self.clone)(&*self.value),
            clone: self.clone,
        }
    }
}

/// State shared read-only by all shards during a run.
pub(super) struct Shared {
    pub(super) cfg: MachineConfig,
    pub(super) mem: Arc<GlobalMemory>,
    pub(super) handlers: Vec<HandlerEntry>,
    /// Program tables, indexed by [`TableSlot`]; they change only through
    /// `&mut Engine`, i.e. between runs.
    pub(super) tables: Vec<Table>,
    /// The system-network topology ([`MachineConfig::net`]`.topology`),
    /// shared read-only across shards.
    pub(super) topo: Arc<Topology>,
    /// Conservative time-window length: the minimum time by which any
    /// cross-node effect can trail its injection
    /// ([`Topology::min_transit`], floored at 1).
    pub(super) lookahead: u64,
}

/// One shard of the machine: a node's lanes, calendar and per-node
/// resources. The unit of parallel execution.
pub(super) struct EngineCore {
    /// Shard id == node id.
    pub(super) id: u32,
    /// Global network id of this shard's first lane.
    pub(super) base_lane: u32,
    pub(super) now: u64,
    pub(super) calendar: CalendarQueue,
    pub(super) arena: ActionArena,
    pub(super) lanes: Vec<Lane>,
    /// Shard state, one entry per declared [`ShardSlot`], defaulted at
    /// first touch. Cloned with the core, so rewinds carry it; not part
    /// of the on-disk format (a restoring run re-drives it).
    pub(super) state: Vec<Option<Box<dyn SimState>>>,
    /// This node's memory channel.
    pub(super) channel: MemChannel,
    /// This node's NIC (single-node instance, index 0).
    pub(super) nic: Nics,
    /// Per-link fabric counters for traffic *injected by this shard*
    /// (sum-merged across shards at metrics time).
    pub(super) fabric: Fabric,
    pub(super) stats: Counters,
    pub(super) stop: bool,
    /// Event tracer; present only when event tracing is enabled. All
    /// recording paths are read-only with respect to simulated time,
    /// costs, and calendar sequence numbers (zero observer effect).
    pub(super) tracer: Option<Tracer>,
    /// This shard's protocol recording; present iff a
    /// [`ProtocolProbe`](crate::ProtocolProbe) is attached, and its
    /// presence arms the sanitizer. Cloned with the core, so rewinds carry
    /// it; the engine merges every shard's at the end of a run.
    pub(super) protocol: Option<Box<ProtocolRecord>>,
    /// Device-side phase spans opened on this shard, in begin order.
    pub(super) phases: Vec<PhaseSpan>,
    /// Runtime-defined counters, split by merge rule: `custom_add`
    /// entries are summed across shards, `custom_peak` entries are
    /// max-merged.
    pub(super) custom_add: BTreeMap<&'static str, u64>,
    pub(super) custom_peak: BTreeMap<&'static str, u64>,
    /// Completion time of the latest-finishing executed event.
    pub(super) last_completion: u64,
    /// Per-handler (execution count, last tick); only the
    /// `updown-snapshot/v2` body reads it.
    pub(super) handler_stats: Vec<(u64, u64)>,
    /// Cross-shard entries sent so far; only the `updown-snapshot/v2`
    /// body reads it.
    pub(super) sent_seq: u64,
    /// Cross-shard entries buffered during a window: one buffer per
    /// destination sent to, taken from the exchange at the first send
    /// there and put back at the window boundary, in first-send order.
    /// Empty between windows.
    pub(super) outbox: Vec<(u32, Box<XBuf>)>,
    /// Per destination shard this one has sent to, indexed by its id;
    /// grown to the highest id sent to.
    pub(super) routes: Vec<Route>,
    /// Recycled `Outgoing` buffer for [`EventCtx`] (capacity persists
    /// across events; one less allocation per sending event).
    pub(super) out_scratch: Vec<Outgoing>,
    /// Live recording for record-replay; `None` unless a scheduler
    /// invocation under [`MachineConfig::replay`] is running, or this shard
    /// is being replayed in isolation.
    pub(super) record: Option<Box<ShardRecord>>,
}

/// Deep copy of a shard's simulation state. The `record` field is *not*
/// cloned: a recording belongs to the invocation it records, not to the
/// machine state a [`Snapshot`] holds.
impl Clone for EngineCore {
    fn clone(&self) -> EngineCore {
        EngineCore {
            id: self.id,
            base_lane: self.base_lane,
            now: self.now,
            calendar: self.calendar.clone(),
            arena: self.arena.clone(),
            lanes: self.lanes.clone(),
            state: self.state.iter().map(|s| s.as_ref().map(|b| b.clone_state())).collect(),
            channel: self.channel.clone(),
            nic: self.nic.clone(),
            fabric: self.fabric.clone(),
            stats: self.stats.clone(),
            stop: self.stop,
            tracer: self.tracer.clone(),
            protocol: self.protocol.clone(),
            phases: self.phases.clone(),
            custom_add: self.custom_add.clone(),
            custom_peak: self.custom_peak.clone(),
            last_completion: self.last_completion,
            handler_stats: self.handler_stats.clone(),
            sent_seq: self.sent_seq,
            outbox: self.outbox.clone(),
            routes: self.routes.clone(),
            // The scratch buffer holds no state between events; a fresh
            // empty keeps the clone cheap and content-identical.
            out_scratch: Vec::new(),
            record: None,
        }
    }
}

impl EngineCore {
    /// Open a recording round: remember the horizon and budget this
    /// window runs under; the window's exchange drain is attributed to it.
    pub(super) fn record_begin_round(&mut self, horizon: u64, budget: u64) {
        if let Some(rec) = &mut self.record {
            rec.rounds.push(RoundRec {
                horizon,
                budget,
                inject: Vec::new(),
            });
        }
    }

    /// Observer tags this shard's side table and cross-shard buffers have
    /// room for (host-side memory report).
    pub(super) fn tag_capacity(&self) -> usize {
        let arena = self.arena.trace_ids.capacity() + self.arena.races.capacity();
        arena + self.outbox.iter().map(|(_, b)| b.tags.capacity()).sum::<usize>()
    }

    pub(super) fn schedule(&mut self, time: u64, action: Action, tag: Tag) {
        let id = self.arena.insert(self.calendar.links_mut(), action, tag);
        self.push_id(time, id);
    }

    /// Schedule lane `l` (a global lane id of this shard) to run at
    /// `time`: the calendar entry is the lane's own shard-local id.
    fn schedule_lane_run(&mut self, time: u64, l: u32) {
        self.push_id(time, l - self.base_lane);
    }

    fn push_id(&mut self, time: u64, id: u32) {
        self.calendar.push(time, id);
        // `peak_calendar` counts logical pending entries (see `stats.rs`):
        // `CalendarQueue::len` spans ring, fast lane, and overflow rung,
        // matching the historical heap's `len()` exactly.
        self.stats.peak_calendar = self.stats.peak_calendar.max(self.calendar.len());
    }

    /// Time of the earliest pending calendar entry, `u64::MAX` when empty.
    pub(super) fn next_time(&self) -> u64 {
        self.calendar.peek_time().unwrap_or(u64::MAX)
    }

    /// Host-side injection: give `msg` (and its race clock) a slot and
    /// queue it on its lane.
    pub(super) fn deliver(&mut self, t: u64, msg: Message, clock: Option<Arc<VClock>>) {
        let l = msg.dst.nwid();
        let id = self.arena.insert(self.calendar.links_mut(), Action::Deliver(msg), Tag::clock(clock));
        self.enqueue(t, l, id);
    }

    /// Append slot `id`, which holds a message for lane `l`, to that
    /// lane's inbox, scheduling the lane if it is idle. The payload stays
    /// in its slot until `lane_run` starts the handler.
    fn enqueue(&mut self, t: u64, l: NetworkId, id: u32) {
        let idx = (l.0 - self.base_lane) as usize;
        assert!(
            l.0 >= self.base_lane && idx < self.lanes.len(),
            "message to nonexistent lane {} (shard {} owns {}..{})",
            l.0,
            self.id,
            self.base_lane,
            self.base_lane + self.lanes.len() as u32
        );
        let lane = &mut self.lanes[idx];
        self.calendar.links_mut().push_back(&mut lane.inbox, id);
        if !lane.scheduled {
            lane.scheduled = true;
            let at = t.max(lane.free_at);
            self.schedule_lane_run(at, l.0);
        }
    }

    /// Buffer a cross-shard calendar entry for delivery at the next
    /// window boundary, taking the pair's buffer on the window's first
    /// send to `dst`.
    fn push_cross(&mut self, sends: Sends<'_>, dst: u32, time: u64, action: Action, tag: Tag) {
        self.sent_seq += 1;
        let d = dst as usize;
        if d >= self.routes.len() {
            self.routes.resize(d + 1, Route::default());
        }
        let route = &mut self.routes[d];
        if route.taken == 0 {
            let mut buf = match sends {
                Sends::Exchange(ex, par) => ex.take(self.id as usize, d, par),
                Sends::Discard => Box::default(),
            };
            buf.hint = route.hint as usize;
            self.outbox.push((dst, buf));
            route.taken = self.outbox.len() as u32;
        }
        self.outbox[route.taken as usize - 1].1.push(time, action, tag);
    }

    /// Drop the buffers a [`Sends::Discard`] window filled.
    pub(super) fn discard_outbox(&mut self) {
        for (dst, _) in self.outbox.drain(..) {
            self.routes[dst as usize].taken = 0;
        }
    }

    /// Carry `bytes` from this node to remote `dst_node`: serialize them
    /// at this node's NIC and advance the message hop-by-hop across the
    /// fabric, attributing per-link counters at each hop's traversal time.
    /// Returns `(depart, arrival)`; the caller buffers the cross-shard
    /// delivery at `arrival` ([`Self::push_cross`]).
    ///
    /// All fabric state touched here belongs to this (source) shard, and
    /// the arrival trails `depart` by at least [`Topology::min_transit`]
    /// = the scheduler lookahead, so the conservative-window invariant
    /// holds for every topology and results stay byte-identical across
    /// thread counts.
    fn fabric_send(&mut self, shared: &Shared, ready: u64, dst_node: u32, bytes: u64) -> (u64, u64) {
        let depart = self.nic.inject(0, ready, bytes);
        let arrival = self.fabric.transit(&shared.topo, depart, self.id, dst_node, bytes);
        trace_route(&mut self.tracer, &shared.topo, &self.fabric, depart, self.id, dst_node);
        (depart, arrival)
    }

    /// Count a DRAM transaction issued at `t` from `src` and route its
    /// channel-arrival stage to the owning shard: across the fabric for a
    /// remote owner, one on-node hop for a local one.
    fn dram_issue(
        &mut self,
        shared: &Shared,
        sends: Sends<'_>,
        t: u64,
        src: NetworkId,
        op: MemOp,
        access: Option<RaceAccess>,
    ) {
        if op.is_write() {
            self.stats.dram_writes += 1;
            self.stats.dram_write_bytes += op.bytes();
        } else {
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += op.bytes();
        }
        let va = op.va();
        let owner = match shared.mem.owner_node(va) {
            Ok(n) => n,
            Err(e) => panic!("DRAM access fault from lane {}: {e} ({va:?})", src.0),
        };
        let src_node = shared.cfg.node_of(src);
        let trace_id = match &mut self.tracer {
            Some(tr) => tr.alloc_id(),
            None => 0,
        };
        let request = Action::Mem {
            stage: MemStage::Arrive,
            op,
            src_node,
        };
        let tag = Tag {
            trace_id,
            race: access.map_or(RaceTag::None, RaceTag::Access),
        };
        if owner != src_node {
            self.stats.dram_remote_accesses += 1;
            // A request is one message unit regardless of payload.
            let (_, arrival) = self.fabric_send(shared, t, owner, wire_bytes(0));
            self.push_cross(sends, owner, arrival, request, tag);
        } else {
            self.schedule(t + INTRA_NODE_LATENCY, request, tag);
        }
    }

    pub(super) fn phase_begin(&mut self, name: &str) {
        let now = self.now;
        self.phases.push(PhaseSpan {
            name: name.to_string(),
            start: now,
            end: u64::MAX,
        });
    }

    /// Close the most recent open span with this name; ignored when no
    /// such span exists (so instrumentation is safe on partial runs).
    pub(super) fn phase_end(&mut self, name: &str) {
        let now = self.now;
        if let Some(p) = self
            .phases
            .iter_mut()
            .rev()
            .find(|p| p.is_open() && p.name == name)
        {
            p.end = now;
        }
    }

    /// Execute calendar entries strictly below `horizon`, up to `budget`
    /// events, sending cross-shard entries through `sends`. Returns the
    /// number of events executed in this window.
    pub(super) fn window(&mut self, shared: &Shared, sends: Sends<'_>, horizon: u64, budget: u64) -> u64 {
        let before = self.stats.events_executed;
        while !self.stop && self.stats.events_executed - before < budget {
            let Some((t, id)) = self.calendar.pop_if_before(horizon) else {
                break;
            };
            if t < self.now {
                panic!(
                    "time went backwards on shard {}: popped t={} behind clock t={}",
                    self.id, t, self.now
                );
            }
            self.now = t;
            if id < self.arena.first_id {
                self.lane_run(shared, sends, self.base_lane + id);
            } else {
                self.dispatch(shared, sends, id);
            }
        }
        self.stats.events_executed - before
    }

    /// Advance the pending entry in slab slot `id` by one stage, in place.
    fn dispatch(&mut self, shared: &Shared, sends: Sends<'_>, id: u32) {
        let now = self.now;
        match self.arena.get_mut(id) {
            Action::Deliver(msg) => {
                let l = msg.dst.nwid();
                self.stats.msgs_delivered += 1;
                self.enqueue(now, l, id);
            }
            Action::Mem {
                stage: stage @ MemStage::Arrive,
                op,
                ..
            } => {
                let (owner, bytes, write) = (self.id, op.bytes(), op.is_write());
                *stage = MemStage::Served;
                let trace_id = self.arena.trace_id(id);
                trace_dram(&mut self.tracer, trace_id, DramStage::Arrive, owner, now, bytes, write);
                let served = self.channel.service(now, bytes);
                self.push_id(served, id);
            }
            Action::Mem {
                stage: MemStage::Served,
                op,
                src_node,
            } => {
                let (src_node, owner) = (*src_node, self.id);
                let (va, bytes, write, atomic) = (op.va(), op.bytes(), op.is_write(), op.is_atomic());
                // Apply the memory effect now, on the owning shard: channel
                // service order is the deterministic serialization point
                // for all accesses to this node's memory.
                let reply = op.apply(&shared.mem);
                let trace_id = self.arena.trace_id(id);
                let race = self.arena.take_race(id);
                trace_dram(&mut self.tracer, trace_id, DramStage::Served, owner, now, bytes, write);
                // Record the access for race detection at the same point;
                // the probe reads no memory. The reply carries the issuer's
                // clock so replies order with the issue (write -> ack ->
                // send -> read chains); an atomic's reply carries the
                // acquired clock instead, ordering the issuer after every
                // earlier fetch-and-add on the word (barrier
                // release-acquire).
                let mut clock = None;
                if let (Some(rp), RaceTag::Access(acc)) = (&shared.cfg.race, race) {
                    let base = shared.mem.descriptor(va).map(|d| d.base.0).unwrap_or(va.0);
                    let words = (bytes / 8) as u32;
                    let replied = reply.is_some();
                    let acquired = rp.record_dram(&acc, self.id, va, base, words, atomic, write, now, replied);
                    if replied {
                        clock = Some(acquired.unwrap_or(acc.clock));
                    }
                }
                let done = Action::MemDone {
                    resp: MemResp {
                        reply,
                        bytes: bytes as u32,
                        write,
                    },
                    owner,
                };
                let tag = Tag {
                    trace_id,
                    race: clock.map_or(RaceTag::None, RaceTag::Clock),
                };
                if owner != src_node {
                    self.arena.take(self.calendar.links_mut(), id);
                    let (_, arrival) = self.fabric_send(shared, now, src_node, MSG_HEADER_BYTES + bytes);
                    self.push_cross(sends, src_node, arrival, done, tag);
                } else {
                    // The response overwrites the request in its slot.
                    *self.arena.get_mut(id) = done;
                    self.arena.set_tag(id, tag);
                    self.push_id(now + INTRA_NODE_LATENCY, id);
                }
            }
            Action::MemDone { resp, owner } => {
                let (owner, bytes, write) = (*owner, resp.bytes as u64, resp.write);
                let lane = resp.reply.as_ref().map(|msg| msg.dst.nwid());
                let trace_id = self.arena.trace_id(id);
                trace_dram(&mut self.tracer, trace_id, DramStage::Respond, owner, now, bytes, write);
                match lane {
                    // The lane takes the reply straight out of this slot.
                    Some(l) => self.enqueue(now, l, id),
                    None => {
                        self.arena.take(self.calendar.links_mut(), id);
                    }
                }
            }
        }
    }

    fn lane_run(&mut self, shared: &Shared, sends: Sends<'_>, l: u32) {
        let t = self.now;
        let max_threads = shared.cfg.max_threads_per_lane;
        let li = (l - self.base_lane) as usize;
        let lane = &mut self.lanes[li];
        debug_assert!(lane.scheduled);
        let Some(id) = self.calendar.links_mut().pop_front(&mut lane.inbox) else {
            lane.scheduled = false;
            return;
        };
        // The message stays in its slot until its handler is about to
        // start: one that is dropped or parked below is never moved.
        let dst = self.arena.message(id).dst;
        let label = dst.label();
        let is_new = dst.tid() == ThreadId::NEW;
        // Sanitizer (armed by a protocol record): messages that cannot be
        // dispatched (unregistered label or dead target thread) are
        // diagnosed and dropped instead of panicking. Violation-free
        // programs never reach either branch.
        if let Some(p) = &mut self.protocol {
            let unregistered = label.0 as usize >= shared.handlers.len();
            let dead = !unregistered && !is_new && !lane.threads.contains(dst.tid());
            if unregistered || dead {
                if unregistered {
                    p.diag(DiagKind::SendUnregistered, label.0, label.0 as u64, t, l, || {
                        format!("message delivered to unregistered event label {}", label.0)
                    });
                } else {
                    let tid = dst.tid().0;
                    p.diag(DiagKind::SendToDeadThread, label.0, tid as u64, t, l, || {
                        format!(
                            "message for '{}' targets dead thread {tid} on lane {l}",
                            shared.handlers[label.0 as usize].name
                        )
                    });
                }
                self.arena.take(self.calendar.links_mut(), id);
                self.stats.msgs_dropped += 1;
                self.lane_next(li, t);
                return;
            }
        }
        // Resolve the thread context.
        let Some(tid) = lane.resolve_thread(dst, max_threads) else {
            // Thread table full: park this message and try the next.
            self.calendar.links_mut().push_back(&mut lane.parked, id);
            self.stats.thread_table_stalls += 1;
            self.lane_next(li, t);
            return;
        };
        let incoming = match self.arena.take_race(id) {
            RaceTag::Clock(clock) => Some(clock),
            _ => None,
        };
        let msg = self
            .arena
            .take(self.calendar.links_mut(), id)
            .into_message()
            .expect("slot held a message a moment ago");
        if is_new {
            self.stats.threads_created += 1;
            lane.threads.set_created_by(tid, label.0);
            if let Some(p) = &mut self.protocol {
                p.spawn(label.0, l, lane.threads.len() as u32);
            }
        }
        let created_by = lane.threads.created_by(tid);
        // Race detection: join the message's clock into the thread, bump
        // its epoch, and snapshot once for every effect of this execution.
        // The probe takes the message's clock, so a thread's own snapshot
        // coming home is let go before the bump.
        let race_exec = shared.cfg.race.as_ref().map(|rp| {
            let key = ThreadKey {
                lane: l,
                tid: tid.0,
                gen: lane.threads.generation(tid),
            };
            rp.begin_event(key, incoming)
        });
        let state = lane
            .threads
            .state_mut(tid)
            .unwrap_or_else(|| panic!("event {:?} targets dead thread on lane {l}", msg.dst))
            .take();
        let entry = &shared.handlers[label.0 as usize];
        let hs = &mut self.handler_stats[label.0 as usize];
        hs.0 += 1;
        hs.1 = t;

        let base = OP_COSTS.event_dispatch + if is_new { OP_COSTS.thread_create } else { 0 };
        let out_buf = std::mem::take(&mut self.out_scratch);
        let mut ctx = EventCtx {
            shard: self,
            shared,
            lane: l,
            tid,
            event_name: &entry.name,
            msg: &msg,
            cost: base,
            out: out_buf,
            terminated: false,
            state,
            stopped: false,
            created_by,
            cont_read: Cell::new(false),
            race: race_exec,
        };
        (entry.f)(&mut ctx);

        let EventCtx {
            cost,
            mut out,
            terminated,
            state,
            stopped,
            cont_read,
            race: race_exec,
            ..
        } = ctx;

        if let Some(p) = &mut self.protocol {
            let argc = msg.args.len() as u32;
            p.end_arg_reads(label.0, argc, (t, l), &entry.name);
            p.exec(
                label.0,
                created_by,
                argc,
                !msg.cont.is_ignore(),
                cont_read.get(),
                terminated,
            );
            // A continuation is carried per message: once the receiving
            // execution terminates the thread without reading it, nothing
            // can ever resume it.
            if terminated && !msg.cont.is_ignore() && !cont_read.get() {
                p.diag(DiagKind::UnconsumedContinuation, label.0, 0, t, l, || {
                    format!(
                        "'{}' terminated its thread without reading the continuation \
                         carried by the triggering message",
                        entry.name
                    )
                });
            }
        }

        // Every event ends in yield or yield_terminate (§2.1.1).
        let end_cost = if terminated { OP_COSTS.thread_dealloc } else { OP_COSTS.yield_ };
        let total = cost + end_cost;
        let t_end = t + total;

        let lane = &mut self.lanes[li];
        lane.busy += total;
        lane.events += 1;
        lane.free_at = t_end;
        self.stats.events_executed += 1;
        self.last_completion = self.last_completion.max(t_end);
        if let Some(tr) = &mut self.tracer {
            tr.record(TraceEvent::Exec {
                lane: l,
                label: label.0,
                tid: tid.0,
                start: t,
                end: t_end,
            });
        }
        if let Some(rec) = &mut self.record {
            rec.exec.push(ExecRec {
                time: t,
                lane: l,
                tid: tid.0,
                label: label.0,
                spm_high: self.lanes[li].spm.high_water,
            });
        }

        if terminated {
            let lane = &mut self.lanes[li];
            lane.dealloc_thread(tid);
            // A freed context unparks one waiting creation.
            let links = self.calendar.links_mut();
            if let Some(parked) = links.pop_front(&mut lane.parked) {
                links.push_front(&mut lane.inbox, parked);
            }
            self.stats.threads_terminated += 1;
            if let (Some(rp), Some(r)) = (&shared.cfg.race, &race_exec) {
                rp.end_thread(r);
            }
        } else {
            *self.lanes[li]
                .threads
                .state_mut(tid)
                .expect("live thread") = state;
        }

        // Emit collected effects at completion time.
        let src = NetworkId(l);
        let src_node = self.id;
        for o in out.drain(..) {
            match o {
                Outgoing::Msg(msg, delay, clock) => {
                    let tag = Tag::clock(clock);
                    let ready = t_end + delay;
                    let dst = msg.dst.nwid();
                    assert!(
                        dst.0 < shared.cfg.total_lanes(),
                        "message to nonexistent lane {} (machine has {})",
                        dst.0,
                        shared.cfg.total_lanes()
                    );
                    let bytes = wire_bytes(msg.args.len());
                    let dst_node = shared.cfg.node_of(dst);
                    let label = msg.dst.label().0;
                    let (depart, arrival) = if dst_node != src_node {
                        self.stats.msgs_inter_node += 1;
                        let (depart, arrival) = self.fabric_send(shared, ready, dst_node, bytes);
                        self.push_cross(sends, dst_node, arrival, Action::Deliver(msg), tag);
                        (depart, arrival)
                    } else {
                        if shared.cfg.accel_of(src) == shared.cfg.accel_of(dst) {
                            self.stats.msgs_intra_accel += 1;
                        } else {
                            self.stats.msgs_intra_node += 1;
                        }
                        let arrival = ready + shared.cfg.local_msg_latency(src, dst);
                        self.schedule(arrival, Action::Deliver(msg), tag);
                        (ready, arrival)
                    };
                    if let Some(tr) = &mut self.tracer {
                        let id = tr.alloc_id();
                        tr.record(TraceEvent::MsgTransit {
                            id,
                            src: l,
                            dst: dst.0,
                            label,
                            depart,
                            arrive: arrival,
                        });
                    }
                }
                Outgoing::Dram(op, access) => self.dram_issue(shared, sends, t_end, src, op, access),
            }
        }

        self.out_scratch = out;

        if stopped {
            self.stop = true;
        }

        self.lane_next(li, t_end);
    }

    /// The lane at shard index `li` is done with its current message at
    /// `t`: run it again then if its inbox holds more, else mark it idle
    /// (the next [`Self::enqueue`] schedules it).
    fn lane_next(&mut self, li: usize, t: u64) {
        if self.lanes[li].inbox.is_empty() {
            self.lanes[li].scheduled = false;
        } else {
            self.schedule_lane_run(t, self.base_lane + li as u32);
        }
    }
}

/// Execution context handed to event handlers: the UDWeave "machine
/// interface". Every operation charges its Table-2 cost.
pub struct EventCtx<'a> {
    pub(super) shard: &'a mut EngineCore,
    pub(super) shared: &'a Shared,
    pub(super) lane: u32,
    pub(super) tid: ThreadId,
    pub(super) event_name: &'a str,
    pub(super) msg: &'a Message,
    pub(super) cost: u64,
    pub(super) out: Vec<Outgoing>,
    pub(super) terminated: bool,
    /// The thread's state box.
    pub(super) state: Option<Box<dyn SimState>>,
    pub(super) stopped: bool,
    /// Creating label of this thread (protocol-probe bookkeeping).
    pub(super) created_by: u16,
    /// Whether this execution read `cont()`; a `Cell` because the reads go
    /// through `&self` accessors. Probe bookkeeping only.
    pub(super) cont_read: Cell<bool>,
    /// Race-detection context of this execution (clock snapshot), present
    /// only when a [`RaceProbe`](crate::RaceProbe) is attached.
    pub(super) race: Option<RaceExec>,
}
