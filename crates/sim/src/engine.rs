//! The discrete-event engine: executes events on lanes under the Table-2
//! cost model, routes messages through the network model, and services DRAM
//! requests through per-node memory channels.
//!
//! # Sharded conservative-window execution
//!
//! The machine is partitioned into **shards, one per node**. Each shard
//! ([`EngineCore`]) owns its node's lanes, event calendar, NIC and memory
//! channel, so a shard can execute independently as long as it does not run
//! past the point where another shard could still affect it.
//!
//! That point is governed by the **lookahead**: every cross-node effect
//! (message delivery, remote DRAM request or response) traverses the
//! system network and pays at least the topology's minimum transit time
//! ([`Topology::min_transit`] — the full inter-node latency for the
//! uniform model, one hop for routed topologies), so an event executing
//! at time `t` on one shard cannot influence another shard before
//! `t + lookahead`. The
//! scheduler therefore runs in *windows*: a coordinator computes the global
//! floor (earliest pending entry anywhere), opens the window
//! `[floor, floor + lookahead)`, and every shard executes exactly its
//! calendar entries below the horizon. Cross-shard effects produced inside
//! a window land at or beyond the horizon and are exchanged through
//! deterministic per-destination mailboxes at the window boundary.
//!
//! **Determinism:** shard count equals node count (fixed by the
//! [`MachineConfig`]), mailbox entries are merged in `(source shard,
//! source sequence)` order, and [`MachineConfig::threads`] only decides
//! how many OS threads walk the *same* window loop (one worker runs it
//! inline) — so the merged event order, every counter, and every trace
//! span are byte-identical across thread counts.
//!
//! **One scheduling policy:** every window is one barrier round. Within
//! a round the workers claim shards through a shared cursor, heaviest
//! shard of the previous window first; there is nothing to configure.
//! See `docs/parallel-engine.md`.

use std::any::{Any, TypeId};
use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::{Arc, Mutex};

use crate::calendar::{CalendarQueue, IdList, Links};
use crate::config::MachineConfig;
use crate::ids::{EventLabel, EventWord, NetworkId, ThreadId};
use crate::lane::{Lane, SimState, ThreadSlot};
use crate::memory::{GlobalMemory, MemChannels, MemoryImage, VAddr};
use crate::message::{Message, Operands, HW_OPERANDS};
use crate::network::{Fabric, LinkId, Nics, Topology};
use crate::probe::{DiagKind, Diagnostic, ProbeState, ProtocolProbe};
use crate::race::{RaceAccess, RaceExec, RaceState, ThreadKey};
use crate::snapshot::{
    self, ReplayRunReport, SnapField, SnapHeader, SnapReader, SnapState, SnapWriter, SnapshotError,
};
use crate::stats::{
    Counters, FabricMetrics, HostCalendarStats, HostSchedStats, LaneMetrics, LinkMetrics, Metrics,
    NodeMetrics, SchedMetrics, UTIL_HIST_BUCKETS,
};
use crate::trace::{DramStage, PhaseSpan, TraceEvent, Tracer};

/// Number of lanes in the [`Metrics::hot_lanes`] report.
const HOT_LANES_TOP_K: usize = 8;

/// Number of links in the [`FabricMetrics::top_links`] report.
const FABRIC_TOP_LINKS: usize = 16;

/// A handler executes one event. It may read/write its thread state, send
/// messages, and issue DRAM requests through the [`EventCtx`]. Handlers
/// are `Send + Sync` so shards can execute on scheduler worker threads.
pub type Handler = Arc<dyn Fn(&mut EventCtx<'_>) + Send + Sync>;

pub(super) struct HandlerEntry {
    pub(super) name: String,
    pub(super) f: Handler,
}

/// A DRAM transaction payload, applied when channel service completes on
/// the owning shard.
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
        words: Vec<u64>,
        ack: Option<EventWord>,
        tag: Option<u64>,
    },
    AddU64 {
        va: VAddr,
        delta: u64,
        ret: Option<EventWord>,
        tag: Option<u64>,
    },
    AddF64 {
        va: VAddr,
        delta: f64,
        ret: Option<EventWord>,
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

    fn is_write(&self) -> bool {
        !matches!(self, MemOp::Read { .. })
    }
}

/// The response of a completed DRAM transaction travelling back to the
/// issuing shard. Memory contents were already updated at service time on
/// the owning shard (the deterministic serialization point); only the
/// pre-built reply message is still in flight.
#[derive(Clone, Debug)]
pub(super) struct MemResp {
    pub(super) reply: Option<Message>,
    pub(super) bytes: u64,
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
#[derive(Clone, Debug)]
pub(super) enum Action {
    Deliver(Message),
    /// A request at the owning node. `trace_id` correlates the stages of
    /// one transaction in the event trace; 0 when tracing is off. `race`
    /// is the issuer's race context when a [`RaceProbe`] is attached.
    Mem {
        stage: MemStage,
        op: MemOp,
        src_node: u32,
        owner: u32,
        trace_id: u64,
        race: Option<RaceAccess>,
    },
    /// Response arrived back at the issuing shard: deliver the reply.
    MemDone {
        resp: MemResp,
        owner: u32,
        trace_id: u64,
    },
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
#[derive(Clone)]
pub(super) struct ActionArena {
    pub(super) first_id: u32,
    pub(super) slots: Vec<Option<Action>>,
    pub(super) free: IdList,
}

impl ActionArena {
    pub(super) fn new(first_id: u32) -> ActionArena {
        ActionArena {
            first_id,
            slots: Vec::new(),
            free: IdList::default(),
        }
    }

    fn insert(&mut self, links: &mut Links, action: Action) -> u32 {
        match links.pop_front(&mut self.free) {
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
        }
    }

    pub(super) fn take(&mut self, links: &mut Links, id: u32) -> Action {
        let a = self.slots[(id - self.first_id) as usize]
            .take()
            .expect("live arena slot");
        links.push_front(&mut self.free, id);
        a
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
    Msg(Message, u64),
    DramRead {
        va: VAddr,
        nwords: u8,
        ret: EventWord,
        tag: Option<u64>,
        race: Option<RaceAccess>,
    },
    DramWrite {
        va: VAddr,
        words: Vec<u64>,
        ack: Option<EventWord>,
        tag: Option<u64>,
        race: Option<RaceAccess>,
    },
    AtomicAddU64 {
        va: VAddr,
        delta: u64,
        ret: Option<EventWord>,
        tag: Option<u64>,
        race: Option<RaceAccess>,
    },
    AtomicAddF64 {
        va: VAddr,
        delta: f64,
        ret: Option<EventWord>,
        tag: Option<u64>,
        race: Option<RaceAccess>,
    },
}

/// A calendar entry crossing shards at a window boundary. Merged into the
/// destination calendar in `(src, order)` order, which reproduces the
/// exact creation order a serial exchange would have produced.
#[derive(Clone)]
pub(super) struct XEntry {
    pub(super) time: u64,
    pub(super) src: u32,
    pub(super) order: u64,
    pub(super) action: Action,
}

/// One executed lane event in a shard's recorded execution stream; the
/// unit compared by [`Engine::replay_shard`].
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
/// under, the event budget it was handed, the cross-shard entries drained
/// into its calendar at the window start, and how many lane events it
/// executed.
#[derive(Clone, Default)]
pub(super) struct RoundRec {
    pub(super) horizon: u64,
    pub(super) budget: u64,
    pub(super) executed: u64,
    pub(super) inject: Vec<XEntry>,
}

/// Everything one shard contributes to a run recording. `open` marks the
/// round currently being recorded (the post-run mailbox drain happens with
/// no round open, so leftover entries are not mis-attributed).
#[derive(Clone, Default)]
pub(super) struct ShardRecord {
    pub(super) rounds: Vec<RoundRec>,
    pub(super) exec: Vec<ExecRec>,
    pub(super) open: bool,
}

/// One recorded run for deterministic record-replay: a full in-memory
/// snapshot of the engine at run start, plus every shard's per-window
/// cross-shard message schedule and execution stream. Produced when
/// [`crate::MachineConfig::record`] (or `replay`) is set; consumed by
/// [`Engine::replay_shard`] / [`Engine::finish_replay`].
pub struct Recording {
    pub(super) start: Box<Snapshot>,
    pub(super) shards: Vec<ShardRecord>,
    pub(super) rounds: u64,
}

impl Recording {
    /// Conservative windows executed by the recorded run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Lane events executed, summed over shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.exec.len() as u64).sum()
    }

    /// Number of shards in the recording.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }
}

/// A full in-memory snapshot of the simulator: per-shard calendars,
/// action arenas, lane thread tables and scratchpads, DRAM, fabric/NIC/
/// channel occupancy, counters — plus the engine-level observability
/// buffers (trace, print, phases) and the protocol-probe / race-probe
/// clocks. Restoring one is an exact rewind: continuing from it is
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
    host_phases: Vec<PhaseSpan>,
    phases_cache: Vec<PhaseSpan>,
    merged_trace: Vec<TraceEvent>,
    merged_print: Vec<String>,
    merged_stats: Counters,
    probe: Option<ProbeState>,
    race: Option<RaceState>,
    /// One saved value per registered host-state hook, in registration
    /// order (see [`Engine::register_host_state`]).
    host: Vec<Box<dyn Any + Send>>,
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

/// State shared read-only by all shards during a run.
pub(super) struct Shared {
    pub(super) cfg: MachineConfig,
    pub(super) mem: Arc<GlobalMemory>,
    pub(super) handlers: Vec<HandlerEntry>,
    /// The system-network topology ([`MachineConfig::net`]`.topology`),
    /// shared read-only across shards.
    pub(super) topo: Arc<dyn Topology>,
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
    /// This node's memory channel (single-node instance, index 0).
    pub(super) channel: MemChannels,
    /// This node's NIC (single-node instance, index 0).
    pub(super) nic: Nics,
    /// Per-link fabric counters for traffic *injected by this shard*
    /// (sum-merged across shards at metrics time).
    pub(super) fabric: Fabric,
    pub(super) stats: Counters,
    pub(super) stop: bool,
    pub(super) trace: Option<Vec<String>>,
    /// Event tracer; present only when event tracing is enabled. All
    /// recording paths are read-only with respect to simulated time,
    /// costs, and calendar sequence numbers (zero observer effect).
    pub(super) tracer: Option<Tracer>,
    /// Device-side phase spans opened on this shard, in begin order.
    pub(super) phases: Vec<PhaseSpan>,
    /// Runtime-defined counters, split by merge rule: `custom_add`
    /// entries are summed across shards, `custom_peak` entries are
    /// max-merged.
    pub(super) custom_add: BTreeMap<&'static str, u64>,
    pub(super) custom_peak: BTreeMap<&'static str, u64>,
    /// Completion time of the latest-finishing executed event.
    pub(super) last_completion: u64,
    /// Per-handler (execution count, last tick) for diagnostics.
    pub(super) handler_stats: Vec<(u64, u64)>,
    /// Monotone order stamp for cross-shard entries produced here.
    pub(super) sent_seq: u64,
    /// Cross-shard entries buffered during a window, per destination
    /// shard; flushed into the mailboxes at the window boundary.
    pub(super) outbuf: Vec<Vec<XEntry>>,
    /// Recycled `Outgoing` buffer for [`EventCtx`] (capacity persists
    /// across events; one less allocation per sending event).
    pub(super) out_scratch: Vec<Outgoing>,
    /// Recycled mailbox-drain buffer ([`XEntry`] capacity persists across
    /// windows, swapped with the mailbox's storage each round).
    pub(super) xentry_scratch: Vec<XEntry>,
    /// Live recording for record-replay; `None` unless the current run
    /// was started with [`MachineConfig::record`] / `replay`, or this
    /// shard is being replayed in isolation.
    pub(super) record: Option<Box<ShardRecord>>,
}

/// Deep copy of a shard's simulation state. The `record` field is *not*
/// cloned: recordings are run artifacts owned by the engine, and cloning
/// cores into a [`Snapshot`] (or restoring one) must neither duplicate
/// nor destroy an in-progress recording.
impl Clone for EngineCore {
    fn clone(&self) -> EngineCore {
        EngineCore {
            id: self.id,
            base_lane: self.base_lane,
            now: self.now,
            calendar: self.calendar.clone(),
            arena: self.arena.clone(),
            lanes: self.lanes.clone(),
            channel: self.channel.clone(),
            nic: self.nic.clone(),
            fabric: self.fabric.clone(),
            stats: self.stats.clone(),
            stop: self.stop,
            trace: self.trace.clone(),
            tracer: self.tracer.clone(),
            phases: self.phases.clone(),
            custom_add: self.custom_add.clone(),
            custom_peak: self.custom_peak.clone(),
            last_completion: self.last_completion,
            handler_stats: self.handler_stats.clone(),
            sent_seq: self.sent_seq,
            outbuf: self.outbuf.clone(),
            // Scratch buffers hold no state between events/windows; fresh
            // empties keep the clone cheap and content-identical.
            out_scratch: Vec::new(),
            xentry_scratch: Vec::new(),
            record: None,
        }
    }
}

impl EngineCore {
    /// Open a recording round: remember the horizon and budget this
    /// window runs under, and start attributing mailbox drains to it.
    pub(super) fn record_begin_round(&mut self, horizon: u64, budget: u64) {
        if let Some(rec) = &mut self.record {
            rec.rounds.push(RoundRec {
                horizon,
                budget,
                executed: 0,
                inject: Vec::new(),
            });
            rec.open = true;
        }
    }

    /// Close the recording round with the number of lane events executed.
    pub(super) fn record_end_round(&mut self, executed: u64) {
        if let Some(rec) = &mut self.record {
            if let Some(r) = rec.rounds.last_mut() {
                r.executed = executed;
            }
            rec.open = false;
        }
    }

    pub(super) fn schedule(&mut self, time: u64, action: Action) {
        let id = self.arena.insert(self.calendar.links_mut(), action);
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

    /// Host-side injection: give `msg` a slot and queue it on its lane.
    pub(super) fn deliver(&mut self, t: u64, msg: Message) {
        let l = msg.dst.nwid();
        let id = self.arena.insert(self.calendar.links_mut(), Action::Deliver(msg));
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
    /// window boundary.
    fn push_cross(&mut self, dst: u32, time: u64, action: Action) {
        self.sent_seq += 1;
        self.outbuf[dst as usize].push(XEntry {
            time,
            src: self.id,
            order: self.sent_seq,
            action,
        });
    }

    /// Carry `action` from this node to remote `dst_node`: serialize the
    /// bytes at this node's NIC, advance the message hop-by-hop across the
    /// fabric (attributing per-link counters at each hop's traversal
    /// time), and buffer the cross-shard delivery at the arrival time.
    /// Returns `(depart, arrival)` for tracing.
    ///
    /// All fabric state touched here belongs to this (source) shard, and
    /// the arrival trails `depart` by at least [`Topology::min_transit`]
    /// = the scheduler lookahead, so the conservative-window invariant
    /// holds for every topology and results stay byte-identical across
    /// thread counts.
    fn fabric_send(
        &mut self,
        shared: &Shared,
        ready: u64,
        dst_node: u32,
        bytes: u64,
        action: Action,
    ) -> (u64, u64) {
        let depart = self.nic.inject(0, ready, bytes);
        let src_node = self.id;
        let route = shared.topo.route(src_node, dst_node);
        let hops = route.len();
        for (k, &l) in route.iter().enumerate() {
            let t = shared.topo.hop_time(depart, k, hops);
            let cumulative = self.fabric.record(l, t, bytes);
            if let Some(tr) = &mut self.tracer {
                let link = shared.topo.links()[l.0 as usize];
                tr.record(TraceEvent::Link {
                    src: link.src,
                    dst: link.dst,
                    node: src_node,
                    time: t,
                    value: cumulative,
                });
            }
        }
        let arrival = depart + shared.topo.latency(src_node, dst_node);
        self.push_cross(dst_node, arrival, action);
        (depart, arrival)
    }

    /// Latency for a lane->memory or memory->lane hop.
    fn mem_hop_latency(shared: &Shared, lane_node: u32, mem_node: u32) -> u64 {
        if lane_node == mem_node {
            shared.cfg.net.intra_node_latency
        } else {
            shared.cfg.net.inter_node_latency
        }
    }

    /// Issue a DRAM transaction at `t` from `src`: reserve the source NIC
    /// (remote targets) and route the channel-arrival stage to the owning
    /// shard.
    fn dram_issue(
        &mut self,
        shared: &Shared,
        t: u64,
        src: NetworkId,
        va: VAddr,
        op: MemOp,
        race: Option<RaceAccess>,
    ) {
        let owner = match shared.mem.owner_node(va) {
            Ok(n) => n,
            Err(e) => panic!("DRAM access fault from lane {}: {e} ({va:?})", src.0),
        };
        let src_node = shared.cfg.node_of(src);
        let trace_id = match &mut self.tracer {
            Some(tr) => tr.alloc_id(),
            None => 0,
        };
        if owner != src_node {
            self.stats.dram_remote_accesses += 1;
            // Request messages are one 72-byte unit regardless of payload.
            self.fabric_send(
                shared,
                t,
                owner,
                72,
                Action::Mem {
                    stage: MemStage::Arrive,
                    op,
                    src_node,
                    owner,
                    trace_id,
                    race,
                },
            );
        } else {
            let arrival = t + Self::mem_hop_latency(shared, src_node, owner);
            self.schedule(
                arrival,
                Action::Mem {
                    stage: MemStage::Arrive,
                    op,
                    src_node,
                    owner,
                    trace_id,
                    race,
                },
            );
        }
    }

    pub(super) fn trace_line(&mut self, line: String) {
        if let Some(t) = &mut self.trace {
            t.push(line);
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
    /// events. Returns the number of events executed in this window.
    pub(super) fn window(&mut self, shared: &Shared, horizon: u64, budget: u64) -> u64 {
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
                self.lane_run(shared, self.base_lane + id);
            } else {
                self.dispatch(shared, id);
            }
        }
        self.stats.events_executed - before
    }

    /// Advance the pending entry in slab slot `id` by one stage, in place.
    fn dispatch(&mut self, shared: &Shared, id: u32) {
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
                owner,
                trace_id,
                ..
            } => {
                let bytes = op.bytes();
                if let Some(tr) = &mut self.tracer {
                    tr.record(TraceEvent::Dram {
                        id: *trace_id,
                        stage: DramStage::Arrive,
                        node: *owner,
                        time: now,
                        bytes,
                        write: op.is_write(),
                    });
                }
                *stage = MemStage::Served;
                let served = self.channel.service(0, now, bytes);
                self.push_id(served, id);
            }
            Action::Mem {
                stage: MemStage::Served,
                op,
                src_node,
                owner,
                trace_id,
                race,
            } => {
                let (src_node, owner, trace_id) = (*src_node, *owner, *trace_id);
                let bytes = op.bytes();
                let write = op.is_write();
                if let Some(tr) = &mut self.tracer {
                    tr.record(TraceEvent::Dram {
                        id: trace_id,
                        stage: DramStage::Served,
                        node: owner,
                        time: now,
                        bytes,
                        write,
                    });
                }
                // Record the access for race detection here: channel
                // service order on the owning shard is the deterministic
                // serialization point for this word's state. Atomic ops
                // hand back an acquired clock for the reply to carry.
                let mut race_acquired = None;
                if let (Some(rp), Some(acc)) = (&shared.cfg.race, race.as_ref()) {
                    let (va, nwords, atomic, is_wr) = match &*op {
                        MemOp::Read { va, nwords, .. } => (*va, *nwords as u32, false, false),
                        MemOp::Write { va, words, .. } => (*va, words.len() as u32, false, true),
                        MemOp::AddU64 { va, .. } | MemOp::AddF64 { va, .. } => (*va, 1, true, true),
                    };
                    let base = shared.mem.descriptor(va).map(|d| d.base.0).unwrap_or(va.0);
                    race_acquired = rp.record_dram(acc, va, base, nwords, atomic, is_wr, now);
                }
                // Apply the memory effect now, on the owning shard: channel
                // service order is the deterministic serialization point
                // for all accesses to this node's memory.
                let mut reply = match &*op {
                    &MemOp::Read {
                        va,
                        nwords,
                        ret,
                        tag,
                    } => {
                        let mut data = [0u64; HW_OPERANDS];
                        let data = &mut data[..nwords as usize];
                        shared
                            .mem
                            .read_words_into(va, data)
                            .unwrap_or_else(|e| panic!("DRAM read fault at service time: {e}"));
                        Some(Message::new(ret, reply_args(data, tag), EventWord::IGNORE, ret.nwid()))
                    }
                    MemOp::Write {
                        va,
                        words,
                        ack,
                        tag,
                    } => {
                        shared
                            .mem
                            .write_words(*va, words)
                            .unwrap_or_else(|e| panic!("DRAM write fault at service time: {e}"));
                        ack.map(|ack| {
                            Message::new(ack, reply_args(&[va.0], *tag), EventWord::IGNORE, ack.nwid())
                        })
                    }
                    &MemOp::AddU64 {
                        va,
                        delta,
                        ret,
                        tag,
                    } => {
                        let old = shared
                            .mem
                            .fetch_add_u64(va, delta)
                            .unwrap_or_else(|e| panic!("DRAM atomic fault: {e}"));
                        ret.map(|ret| {
                            Message::new(ret, reply_args(&[old], tag), EventWord::IGNORE, ret.nwid())
                        })
                    }
                    &MemOp::AddF64 {
                        va,
                        delta,
                        ret,
                        tag,
                    } => {
                        let old = shared
                            .mem
                            .fetch_add_f64(va, delta)
                            .unwrap_or_else(|e| panic!("DRAM atomic fault: {e}"));
                        ret.map(|ret| {
                            let args = reply_args(&[old.to_bits()], tag);
                            Message::new(ret, args, EventWord::IGNORE, ret.nwid())
                        })
                    }
                };
                // The reply carries the issuer's clock so replies order
                // with the issue (write -> ack -> send -> read chains);
                // an atomic's reply carries the acquired clock instead,
                // ordering the issuer after every earlier fetch-and-add
                // on the word (barrier release-acquire).
                if let (Some(acc), Some(m)) = (race.as_ref(), reply.as_mut()) {
                    m.race = Some(race_acquired.take().unwrap_or_else(|| acc.clock.clone()));
                }
                let done = Action::MemDone {
                    resp: MemResp {
                        reply,
                        bytes,
                        write,
                    },
                    owner,
                    trace_id,
                };
                if owner != src_node {
                    self.arena.take(self.calendar.links_mut(), id);
                    self.fabric_send(shared, now, src_node, 8 + bytes, done);
                } else {
                    // The response overwrites the request in its slot.
                    *self.arena.get_mut(id) = done;
                    let arrival = now + Self::mem_hop_latency(shared, src_node, owner);
                    self.push_id(arrival, id);
                }
            }
            Action::MemDone {
                resp,
                owner,
                trace_id,
            } => {
                if let Some(tr) = &mut self.tracer {
                    tr.record(TraceEvent::Dram {
                        id: *trace_id,
                        stage: DramStage::Respond,
                        node: *owner,
                        time: now,
                        bytes: resp.bytes,
                        write: resp.write,
                    });
                }
                match &resp.reply {
                    // The lane takes the reply straight out of this slot.
                    Some(msg) => {
                        let l = msg.dst.nwid();
                        self.enqueue(now, l, id);
                    }
                    None => {
                        self.arena.take(self.calendar.links_mut(), id);
                    }
                }
            }
        }
    }

    fn lane_run(&mut self, shared: &Shared, l: u32) {
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
        // Sanitizer: messages that cannot be dispatched (unregistered label
        // or dead target thread) are diagnosed and dropped instead of
        // panicking. Violation-free programs never reach either branch.
        if shared.cfg.sanitize {
            let unregistered = label.0 as usize >= shared.handlers.len();
            let dead = !unregistered && !is_new && !lane.threads.contains(dst.tid());
            if unregistered || dead {
                let more = !lane.inbox.is_empty();
                if !more {
                    lane.scheduled = false;
                }
                if let Some(p) = &shared.cfg.probe {
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
                }
                self.arena.take(self.calendar.links_mut(), id);
                self.stats.msgs_dropped += 1;
                if more {
                    self.schedule_lane_run(t, l);
                }
                return;
            }
        }
        // Resolve the thread context.
        let tid = match lane.resolve_thread(dst, max_threads) {
            Some(tid) => tid,
            None => {
                // Thread table full: park this message and try the next.
                self.calendar.links_mut().push_back(&mut lane.parked, id);
                let more = !lane.inbox.is_empty();
                if !more {
                    lane.scheduled = false;
                }
                self.stats.thread_table_stalls += 1;
                if more {
                    self.schedule_lane_run(t, l);
                }
                return;
            }
        };
        let msg = self
            .arena
            .take(self.calendar.links_mut(), id)
            .into_message()
            .expect("slot held a message a moment ago");
        if is_new {
            self.stats.threads_created += 1;
            lane.threads.set_created_by(tid, label.0);
            if let Some(p) = &shared.cfg.probe {
                p.spawn(label.0, l, lane.threads.len() as u32);
            }
        }
        let created_by = lane.threads.created_by(tid);
        // Race detection: join the message's clock into the thread, bump
        // its epoch, and snapshot once for every effect of this execution.
        let race_exec = shared.cfg.race.as_ref().map(|rp| {
            let key = ThreadKey {
                lane: l,
                tid: tid.0,
                gen: lane.threads.generation(tid),
            };
            rp.begin_event(key, msg.race.as_ref())
        });
        let state = lane
            .threads
            .state_mut(tid)
            .unwrap_or_else(|| panic!("event {:?} targets dead thread on lane {l}", msg.dst))
            .take()
            .map_or_else(OnceCell::new, OnceCell::from);
        let entry = &shared.handlers[label.0 as usize];
        let hs = &mut self.handler_stats[label.0 as usize];
        hs.0 += 1;
        hs.1 = t;

        let base = shared.cfg.costs.event_dispatch
            + if is_new {
                shared.cfg.costs.thread_create
            } else {
                0
            };
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
            detached_default: None,
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

        if let Some(p) = &shared.cfg.probe {
            p.exec(
                label.0,
                created_by,
                msg.args.len() as u32,
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
        let end_cost = if terminated {
            shared.cfg.costs.thread_dealloc
        } else {
            shared.cfg.costs.yield_
        };
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
                .expect("live thread") = state.into_inner();
        }

        // Emit collected effects at completion time.
        let src = NetworkId(l);
        let src_node = self.id;
        for o in out.drain(..) {
            match o {
                Outgoing::Msg(msg, delay) => {
                    let ready = t_end + delay;
                    let dst = msg.dst.nwid();
                    assert!(
                        dst.0 < shared.cfg.total_lanes(),
                        "message to nonexistent lane {} (machine has {})",
                        dst.0,
                        shared.cfg.total_lanes()
                    );
                    let bytes = msg.wire_bytes(shared.cfg.net.msg_header_bytes);
                    let dst_node = shared.cfg.node_of(dst);
                    let label = msg.dst.label().0;
                    let (depart, arrival) = if dst_node != src_node {
                        self.stats.msgs_inter_node += 1;
                        self.fabric_send(shared, ready, dst_node, bytes, Action::Deliver(msg))
                    } else {
                        if shared.cfg.accel_of(src) == shared.cfg.accel_of(dst) {
                            self.stats.msgs_intra_accel += 1;
                        } else {
                            self.stats.msgs_intra_node += 1;
                        }
                        let arrival = ready + shared.cfg.local_msg_latency(src, dst);
                        self.schedule(arrival, Action::Deliver(msg));
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
                Outgoing::DramRead {
                    va,
                    nwords,
                    ret,
                    tag,
                    race,
                } => {
                    self.stats.dram_reads += 1;
                    self.stats.dram_read_bytes += nwords as u64 * 8;
                    self.dram_issue(
                        shared,
                        t_end,
                        src,
                        va,
                        MemOp::Read {
                            va,
                            nwords,
                            ret,
                            tag,
                        },
                        race,
                    );
                }
                Outgoing::DramWrite {
                    va,
                    words,
                    ack,
                    tag,
                    race,
                } => {
                    self.stats.dram_writes += 1;
                    self.stats.dram_write_bytes += words.len() as u64 * 8;
                    self.dram_issue(
                        shared,
                        t_end,
                        src,
                        va,
                        MemOp::Write {
                            va,
                            words,
                            ack,
                            tag,
                        },
                        race,
                    );
                }
                Outgoing::AtomicAddU64 {
                    va,
                    delta,
                    ret,
                    tag,
                    race,
                } => {
                    self.stats.dram_writes += 1;
                    self.stats.dram_write_bytes += 8;
                    self.dram_issue(shared, t_end, src, va, MemOp::AddU64 { va, delta, ret, tag }, race);
                }
                Outgoing::AtomicAddF64 {
                    va,
                    delta,
                    ret,
                    tag,
                    race,
                } => {
                    self.stats.dram_writes += 1;
                    self.stats.dram_write_bytes += 8;
                    self.dram_issue(shared, t_end, src, va, MemOp::AddF64 { va, delta, ret, tag }, race);
                }
            }
        }

        self.out_scratch = out;

        if stopped {
            self.stop = true;
        }

        let lane = &mut self.lanes[li];
        if lane.inbox.is_empty() {
            lane.scheduled = false;
        } else {
            self.schedule_lane_run(t_end, l);
        }
    }

    /// Move all entries out of `mb` into this shard's calendar, in
    /// deterministic `(source shard, source order)` order.
    fn drain_mailbox(&mut self, mb: &Mailbox) {
        // Swap the mailbox's storage with the recycled drain buffer so
        // both vectors keep their capacity across windows.
        let mut entries = std::mem::take(&mut self.xentry_scratch);
        debug_assert!(entries.is_empty());
        std::mem::swap(&mut *mb.q.lock().unwrap(), &mut entries);
        if !entries.is_empty() {
            entries.sort_unstable_by_key(|e| (e.src, e.order));
            if let Some(rec) = &mut self.record {
                // Only drains inside an open round belong to the recorded
                // schedule; the post-run parity drain re-queues leftovers
                // for a later run and is reproduced by that run's record.
                if rec.open {
                    if let Some(r) = rec.rounds.last_mut() {
                        r.inject.extend(entries.iter().cloned());
                    }
                }
            }
            for e in entries.drain(..) {
                self.schedule(e.time, e.action);
            }
        }
        self.xentry_scratch = entries;
    }

    /// Publish this window's buffered cross-shard entries into the
    /// destination mailboxes (parity `par`). Returns the earliest entry
    /// time flushed (`u64::MAX` when nothing was buffered) so the worker
    /// can fold it into the next round's floor accumulator.
    fn flush_outbuf(&mut self, mailboxes: &[[Mailbox; 2]], par: usize) -> u64 {
        let mut flushed_min = u64::MAX;
        for (dst, buf) in self.outbuf.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            for e in buf.iter() {
                flushed_min = flushed_min.min(e.time);
            }
            mailboxes[dst][par].q.lock().unwrap().append(buf);
        }
        flushed_min
    }
}

/// A per-(destination, parity) queue of cross-shard calendar entries.
/// Double-buffered by round parity: pushes in round `r` go to parity
/// `r % 2` and are drained at the start of round `r + 1` — a fast worker
/// can never consume entries from the round still in progress.
#[derive(Default)]
struct Mailbox {
    q: Mutex<Vec<XEntry>>,
}

/// A sense-reversing (generation-counting) barrier. `std::sync::Barrier`
/// takes a mutex on every `wait`, which dominates short windows; this one
/// is two atomics on the hot path, degenerates to a no-op for a single
/// worker, and counts its spin iterations as a clock-free idle proxy
/// (see [`HostSchedStats::idle_spins`]).
struct SpinBarrier {
    total: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Cumulative spin/yield iterations over all workers and rounds.
    spins: AtomicU64,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            total,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            spins: AtomicU64::new(0),
        }
    }

    /// Block until all `total` workers arrive. The arrival (`AcqRel`) and
    /// the generation bump (`Release`) / spin load (`Acquire`) form the
    /// happens-before edges that publish every worker's pre-barrier
    /// writes to every worker after the barrier.
    fn wait(&self) {
        if self.total == 1 {
            return;
        }
        let gen = self.generation.load(Acquire);
        if self.arrived.fetch_add(1, AcqRel) + 1 == self.total {
            self.arrived.store(0, Relaxed);
            self.generation.fetch_add(1, Release);
        } else {
            let mut spins = 0u64;
            while self.generation.load(Acquire) == gen {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed host or a long window elsewhere:
                    // hand the core to whoever holds the work.
                    std::thread::yield_now();
                }
            }
            if spins > 0 {
                self.spins.fetch_add(spins, Relaxed);
            }
        }
    }
}

/// Shared control block for one scheduler invocation.
struct Ctl {
    barrier: SpinBarrier,
    /// Upper bound (exclusive) of the current window; `u64::MAX` signals
    /// completion.
    horizon: AtomicU64,
    /// Per-destination double-buffered cross-shard queues.
    mailboxes: Vec<[Mailbox; 2]>,
    /// Double-buffered floor accumulators, indexed by round parity:
    /// during round `r` every worker folds its shards' next-event times
    /// and flushed mailbox minima into `floor_acc[r % 2]`; the
    /// coordinator consumes that value as round `r + 1`'s floor with a
    /// single `swap`, so no per-shard scan sits on the serial section.
    floor_acc: [AtomicU64; 2],
    /// Per-round budget snapshot, taken once by the coordinator between
    /// the barriers. Workers must not read `events` for this themselves:
    /// a fast worker could bump `events` before a slow one samples it,
    /// making the budget depend on thread timing.
    round_budget: AtomicU64,
    stop: AtomicBool,
    /// Cumulative executed events (seeded with the pre-run total so the
    /// event limit is cumulative across runs).
    events: AtomicU64,
    /// Windows opened, one per barrier round (feeds `Counters::windows`).
    rounds: AtomicU64,
    event_limit: u64,
    lookahead: u64,
    /// Pause (don't terminate) after this many rounds — the checkpoint
    /// cadence within one scheduler invocation. `u64::MAX` disables it.
    round_limit: u64,
    /// Set by the coordinator when the round limit (not completion)
    /// ended the invocation.
    paused: AtomicBool,
    /// Claim cursor into `order`, reset each round: each index is handed
    /// out once, to whichever worker asks first.
    claim: AtomicUsize,
    /// Shard execution order for the current round: heaviest estimated
    /// cost first, so a skewed shard starts immediately instead of
    /// serializing behind lighter ones.
    order: Vec<AtomicU32>,
    /// Per-shard events executed in the previous round — the cost
    /// estimate behind `order`. Scheduling-only: never affects results.
    cost: Vec<AtomicU64>,
    /// Largest per-shard event count in the round being executed; folded
    /// into the deterministic aggregates by the coordinator.
    round_max: AtomicU64,
    /// Sum over windows of the per-window max shard event count.
    win_max_sum: AtomicU64,
    /// Peak per-window shard event count.
    win_max_peak: AtomicU64,
    /// Claims outside the claimer's home range (thread-timing dependent;
    /// never serialized).
    steals: AtomicU64,
}

/// A shard slot: exactly one worker claims each slot per round (the claim
/// cursor hands out each index once), so the lock is uncontended — it
/// exists to let safe Rust move a `&mut` shard between worker threads
/// round by round.
type ShardSlot<'a> = Mutex<&'a mut EngineCore>;

/// Execute one shard's share of a round: drain its mailbox, run the
/// window, publish cross-shard output, and fold the floor/imbalance
/// accumulators.
fn run_shard_round(
    core: &mut EngineCore,
    ctl: &Ctl,
    shared: &Shared,
    horizon: u64,
    budget: u64,
    drain_par: usize,
    push_par: usize,
) {
    core.record_begin_round(horizon, budget);
    core.drain_mailbox(&ctl.mailboxes[core.id as usize][drain_par]);
    let executed = core.window(shared, horizon, budget);
    core.record_end_round(executed);
    if executed > 0 {
        ctl.events.fetch_add(executed, Relaxed);
    }
    let flushed_min = core.flush_outbuf(&ctl.mailboxes, push_par);
    ctl.floor_acc[push_par].fetch_min(core.next_time().min(flushed_min), Relaxed);
    ctl.cost[core.id as usize].store(executed, Relaxed);
    ctl.round_max.fetch_max(executed, Relaxed);
    if core.stop {
        ctl.stop.store(true, Relaxed);
    }
}

/// One scheduler worker: claims shards round by round through the
/// cost-ordered cursor, under the window barrier. `home` is the
/// contiguous range an even split would have given this worker; it only
/// decides which claims count as steals. The coordinator (worker 0)
/// additionally decides each round between the two barrier waits: fold
/// the finished round's accumulators, compute the floor,
/// terminate/pause/open, and re-sort the claim order by observed cost.
fn worker_loop(
    home: std::ops::Range<usize>,
    slots: &[ShardSlot<'_>],
    is_coord: bool,
    ctl: &Ctl,
    shared: &Shared,
) {
    let mut round: u64 = 0;
    // Coordinator-local scratch for the cost sort (ids + sampled costs).
    let mut order_buf: Vec<(u64, u32)> = Vec::new();
    loop {
        ctl.barrier.wait();
        if is_coord {
            let drain_par = ((round + 1) % 2) as usize;
            // Fold the finished round's imbalance sample. (Round 0 folds
            // the initial zero; the final round folds on the terminating
            // iteration below, which always runs.)
            let m = ctl.round_max.swap(0, Relaxed);
            ctl.win_max_sum.fetch_add(m, Relaxed);
            ctl.win_max_peak.fetch_max(m, Relaxed);
            // The floor was pre-reduced by the workers as they published.
            let floor = ctl.floor_acc[drain_par].swap(u64::MAX, Relaxed);
            let done = floor == u64::MAX
                || ctl.stop.load(Relaxed)
                || ctl.events.load(Relaxed) >= ctl.event_limit;
            if done {
                ctl.horizon.store(u64::MAX, Relaxed);
            } else if ctl.rounds.load(Relaxed) >= ctl.round_limit {
                // Checkpoint boundary: stop opening windows but remember
                // that the machine is paused, not finished. The post-run
                // mailbox drain folds in-flight entries back into the
                // calendars, so the paused state is self-contained.
                ctl.paused.store(true, Relaxed);
                ctl.horizon.store(u64::MAX, Relaxed);
            } else {
                ctl.rounds.fetch_add(1, Relaxed);
                // Re-sort the claim order: heaviest previous-round shard
                // first. Scheduling-only — results never depend on which
                // worker runs a shard, or when within the round.
                if slots.len() > 1 {
                    order_buf.clear();
                    for (i, c) in ctl.cost.iter().enumerate() {
                        order_buf.push((c.load(Relaxed), i as u32));
                    }
                    order_buf.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                    for (slot, (_, id)) in ctl.order.iter().zip(&order_buf) {
                        slot.store(*id, Relaxed);
                    }
                }
                ctl.claim.store(0, Relaxed);
                // Budget snapshot for the round, identical for every
                // worker and thread count.
                ctl.round_budget
                    .store(ctl.event_limit.saturating_sub(ctl.events.load(Relaxed)), Relaxed);
                let h = floor.saturating_add(ctl.lookahead).min(u64::MAX - 1);
                ctl.horizon.store(h, Relaxed);
            }
        }
        ctl.barrier.wait();
        let horizon = ctl.horizon.load(Acquire);
        if horizon == u64::MAX {
            break;
        }
        let drain_par = ((round + 1) % 2) as usize;
        let push_par = (round % 2) as usize;
        let budget = ctl.round_budget.load(Relaxed);
        loop {
            let k = ctl.claim.fetch_add(1, Relaxed);
            if k >= slots.len() {
                break;
            }
            let idx = ctl.order[k].load(Relaxed) as usize;
            if !home.contains(&idx) {
                ctl.steals.fetch_add(1, Relaxed);
            }
            let mut core = slots[idx].lock().unwrap();
            run_shard_round(&mut core, ctl, shared, horizon, budget, drain_par, push_par);
        }
        round += 1;
    }
}

/// What one scheduler invocation reports back to [`Engine::run`].
pub(super) struct RoundsOutcome {
    /// Windows opened (= barrier rounds).
    pub(super) rounds: u64,
    /// A handler called `stop()`.
    pub(super) stopped: bool,
    /// The round limit — not completion — ended the invocation.
    pub(super) paused: bool,
    /// Deterministic imbalance aggregates (sum / peak of the per-window
    /// max shard event count).
    pub(super) win_max_sum: u64,
    pub(super) win_max_peak: u64,
    /// Host-side diagnostics (thread-timing dependent).
    pub(super) steals: u64,
    pub(super) idle_spins: u64,
}

/// Execute conservative window rounds over `shards` with `workers` OS
/// threads until the calendars drain, a handler stops the run, the
/// cumulative event count reaches `event_limit`, or `round_limit` rounds
/// have run (a checkpoint pause; `u64::MAX` disables it). One worker runs
/// the identical loop inline, so results agree across thread counts by
/// construction.
pub(super) fn run_rounds(
    shards: &mut [EngineCore],
    shared: &Shared,
    workers: usize,
    event_limit: u64,
    round_limit: u64,
) -> RoundsOutcome {
    let n = shards.len();
    let workers = workers.min(n).max(1);
    let ctl = Ctl {
        barrier: SpinBarrier::new(workers),
        horizon: AtomicU64::new(0),
        mailboxes: (0..n).map(|_| [Mailbox::default(), Mailbox::default()]).collect(),
        // Round 0 drains parity 1: seed its floor accumulator with the
        // initial global floor, as if a previous round had published it.
        floor_acc: [
            AtomicU64::new(u64::MAX),
            AtomicU64::new(shards.iter().map(|s| s.next_time()).min().unwrap_or(u64::MAX)),
        ],
        round_budget: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        events: AtomicU64::new(shards.iter().map(|s| s.stats.events_executed).sum()),
        rounds: AtomicU64::new(0),
        event_limit,
        lookahead: shared.lookahead,
        round_limit,
        paused: AtomicBool::new(false),
        claim: AtomicUsize::new(0),
        order: (0..n as u32).map(AtomicU32::new).collect(),
        cost: (0..n).map(|_| AtomicU64::new(0)).collect(),
        round_max: AtomicU64::new(0),
        win_max_sum: AtomicU64::new(0),
        win_max_peak: AtomicU64::new(0),
        steals: AtomicU64::new(0),
    };
    {
        // Shard slots: workers move `&mut` shards between threads round
        // by round through these (uncontended) mutexes.
        let slots: Vec<ShardSlot<'_>> = shards.iter_mut().map(Mutex::new).collect();
        // Home ranges (sizes differ by at most one): the baseline a claim
        // is compared against to count as a steal.
        let home = |i: usize| {
            let start = i * (n / workers) + i.min(n % workers);
            start..start + n / workers + usize::from(i < n % workers)
        };
        if workers == 1 {
            worker_loop(home(0), &slots, true, &ctl, shared);
        } else {
            std::thread::scope(|s| {
                for i in 1..workers {
                    let (ctl, slots) = (&ctl, &slots);
                    s.spawn(move || worker_loop(home(i), slots, false, ctl, shared));
                }
                worker_loop(home(0), &slots, true, &ctl, shared);
            });
        }
    }
    // Entries still parked in the mailboxes (stop or event-limit endings)
    // go back into the destination calendars so a later `run()` resumes
    // them; drain order is deterministic (parity, then (src, order)).
    let rounds = ctl.rounds.load(Relaxed);
    for core in shards.iter_mut() {
        let mb = &ctl.mailboxes[core.id as usize];
        // When recording, capture this drain as a zero-width round: a
        // replay must merge these entries into the calendar at exactly
        // this point (with these seq stamps) even though no window runs —
        // a checkpoint pause otherwise hides them from the inject
        // schedule and the replayed shard diverges.
        if core.record.is_some() {
            core.record_begin_round(0, 0);
        }
        for par in [(rounds % 2) as usize, ((rounds + 1) % 2) as usize] {
            core.drain_mailbox(&mb[par]);
        }
        if core.record.is_some() {
            core.record_end_round(0);
        }
    }
    RoundsOutcome {
        rounds,
        stopped: ctl.stop.load(Relaxed),
        paused: ctl.paused.load(Relaxed),
        win_max_sum: ctl.win_max_sum.load(Relaxed),
        win_max_peak: ctl.win_max_peak.load(Relaxed),
        steals: ctl.steals.load(Relaxed),
        idle_spins: ctl.barrier.spins.load(Relaxed),
    }
}

/// The simulator.
pub struct Engine {
    shared: Shared,
    shards: Vec<EngineCore>,
    event_limit: u64,
    /// Logical conservative windows accumulated over all runs (reported
    /// as `Counters::windows`).
    windows: u64,
    /// Deterministic per-window imbalance aggregates accumulated over all
    /// runs (reported as [`SchedMetrics`]).
    sched_win_max_sum: u64,
    sched_win_max_peak: u64,
    /// Host-side scheduler diagnostics accumulated over all runs
    /// (thread-timing dependent; reported but never serialized).
    host_sched: HostSchedStats,
    /// Host-side phase spans (`Engine::phase_begin`), in begin order.
    host_phases: Vec<PhaseSpan>,
    /// Host + device phase spans, stable-sorted by start time.
    phases_cache: Vec<PhaseSpan>,
    /// Trace events drained from the shard tracers after each run, in
    /// shard order.
    merged_trace: Vec<TraceEvent>,
    /// `[PRINT]` lines drained from the shards after each run, in shard
    /// order.
    merged_print: Vec<String>,
    /// Counters merged across shards after each run (for `stats()`).
    merged_stats: Counters,
    /// Registered thread-state codecs for the on-disk snapshot format.
    codecs: StateCodecs,
    /// Host-state hooks ([`Engine::register_host_state`]): deep
    /// save/restore closures for library and application state that lives
    /// *outside* the machine (the `Arc<Mutex<…>>` cells the Send+Sync
    /// handler model keeps host-side). Participates in the in-memory
    /// [`Snapshot`] tier so rewinds — including the record-replay rewind
    /// to a recording's start — restore that state too.
    host_hooks: Vec<HostHook>,
    /// Recordings harvested from completed runs (record/replay mode).
    recordings: Vec<Recording>,
    /// `--checkpoint` writes the snapshot once, at the first boundary.
    checkpoint_written: bool,
    /// Deferred `--restore` state (loaded lazily on the first run).
    restore: RestoreSlot,
}

/// State of a deferred on-disk restore (see `MachineConfig::restore_path`
/// and `docs/checkpoint.md`): the file is loaded on the first run, then
/// verified and installed when the re-driven run reaches the recorded
/// window.
enum RestoreSlot {
    Unloaded,
    Pending { header: SnapHeader, body: Vec<u8> },
    Done,
}

type HostSaveFn = Box<dyn Fn() -> Box<dyn Any + Send> + Send + Sync>;
type HostLoadFn = Box<dyn Fn(&dyn Any) + Send + Sync>;

/// One registered host-state save/restore pair (see
/// [`Engine::register_host_state`]). The saved value travels inside the
/// in-memory [`Snapshot`] as a type-erased deep copy.
struct HostHook {
    save: HostSaveFn,
    load: HostLoadFn,
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
// fixed order by these helpers. Race contexts riding in-flight actions and
// messages are intentionally *not* serialized (vector clocks are process-
// local); see `Engine::checkpoint_boundary` for how `--restore` stays
// correct regardless.

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
        race: None,
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
            ack.put(w);
            tag.put(w);
        }
        MemOp::AddU64 { va, delta, ret, tag } => {
            w.u8(2);
            va.put(w);
            w.u64(*delta);
            ret.put(w);
            tag.put(w);
        }
        MemOp::AddF64 { va, delta, ret, tag } => {
            w.u8(3);
            va.put(w);
            w.f64(*delta);
            ret.put(w);
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
            words: Vec::<u64>::take(r)?,
            ack: <Option<EventWord> as SnapField>::take(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        2 => MemOp::AddU64 {
            va: VAddr::take(r)?,
            delta: r.u64()?,
            ret: <Option<EventWord> as SnapField>::take(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        3 => MemOp::AddF64 {
            va: VAddr::take(r)?,
            delta: r.f64()?,
            ret: <Option<EventWord> as SnapField>::take(r)?,
            tag: <Option<u64> as SnapField>::take(r)?,
        },
        t => return Err(SnapshotError::Format(format!("bad MemOp tag {t}"))),
    })
}

fn save_action(a: &Action, w: &mut SnapWriter) {
    match a {
        Action::Deliver(m) => {
            w.u8(0);
            save_msg(m, w);
        }
        Action::Mem {
            stage,
            op,
            src_node,
            owner,
            trace_id,
            race: _,
        } => {
            w.u8(match stage {
                MemStage::Arrive => 2,
                MemStage::Served => 3,
            });
            save_memop(op, w);
            w.u32(*src_node);
            w.u32(*owner);
            w.u64(*trace_id);
        }
        Action::MemDone {
            resp,
            owner,
            trace_id,
        } => {
            w.u8(4);
            match &resp.reply {
                Some(m) => {
                    w.bool(true);
                    save_msg(m, w);
                }
                None => w.bool(false),
            }
            w.u64(resp.bytes);
            w.bool(resp.write);
            w.u32(*owner);
            w.u64(*trace_id);
        }
    }
}

fn load_action(r: &mut SnapReader<'_>) -> Result<Action, SnapshotError> {
    // Tag 1 is not assigned: a lane's run entry is an id, not an action.
    Ok(match r.u8()? {
        0 => Action::Deliver(load_msg(r)?),
        tag @ (2 | 3) => Action::Mem {
            stage: if tag == 2 { MemStage::Arrive } else { MemStage::Served },
            op: load_memop(r)?,
            src_node: r.u32()?,
            owner: r.u32()?,
            trace_id: r.u64()?,
            race: None,
        },
        4 => Action::MemDone {
            resp: MemResp {
                reply: if r.bool()? { Some(load_msg(r)?) } else { None },
                bytes: r.u64()?,
                write: r.bool()?,
            },
            owner: r.u32()?,
            trace_id: r.u64()?,
        },
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
    channel: MemChannels,
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
    for slot in &core.arena.slots {
        match slot {
            Some(a) => {
                w.bool(true);
                save_action(a, w);
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
    for _ in 0..nslots {
        arena.slots.push(if r.bool()? {
            Some(load_action(r)?)
        } else {
            None
        });
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
    /// observability fields (trace, tracer, phases) and any in-progress
    /// recording untouched — the re-driving run already reproduced those.
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

/// Compare a recorded execution stream against a replayed one.
fn diff_exec(want: &[ExecRec], got: &[ExecRec]) -> Vec<String> {
    const MAX_REPORTED: usize = 8;
    let mut out = Vec::new();
    if want.len() != got.len() {
        out.push(format!(
            "event count: recorded {}, replayed {}",
            want.len(),
            got.len()
        ));
    }
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        if a != b {
            out.push(format!("event {i}: recorded {a:?}, replayed {b:?}"));
            if out.len() >= MAX_REPORTED {
                out.push(format!("... (stopped after {MAX_REPORTED} divergences)"));
                break;
            }
        }
    }
    out
}

impl Engine {
    pub fn new(mut cfg: MachineConfig) -> Engine {
        // The sanitizer and spec enforcement report through a probe;
        // create one when the caller asked for either without supplying
        // their own.
        if (cfg.sanitize || cfg.enforce_spec.is_some()) && cfg.probe.is_none() {
            cfg.probe = Some(ProtocolProbe::new());
        }
        let lanes_per_node = cfg.lanes_per_node();
        let mem = Arc::new(GlobalMemory::new(cfg.nodes));
        let n = cfg.nodes;
        let topo = cfg.net.topology.build(n, &cfg.net);
        debug_assert_eq!(topo.nodes(), n);
        let n_links = topo.links().len();
        let shards = (0..n)
            .map(|id| EngineCore {
                id,
                base_lane: id * lanes_per_node,
                now: 0,
                calendar: CalendarQueue::new(),
                arena: ActionArena::new(lanes_per_node),
                lanes: {
                    let mut v = Vec::with_capacity(lanes_per_node as usize);
                    v.resize_with(lanes_per_node as usize, Lane::default);
                    v
                },
                channel: MemChannels::new(1, &cfg.mem),
                nic: Nics::new(1, &cfg.net),
                fabric: Fabric::new(n_links, cfg.net.link_stat_window),
                stats: Counters::default(),
                stop: false,
                trace: None,
                tracer: None,
                phases: Vec::new(),
                custom_add: BTreeMap::new(),
                custom_peak: BTreeMap::new(),
                last_completion: 0,
                handler_stats: Vec::new(),
                sent_seq: 0,
                outbuf: (0..n).map(|_| Vec::new()).collect(),
                out_scratch: Vec::new(),
                xentry_scratch: Vec::new(),
                record: None,
            })
            .collect();
        let lookahead = topo.min_transit().max(1);
        let mut eng = Engine {
            shared: Shared {
                cfg,
                mem,
                handlers: Vec::new(),
                topo,
                lookahead,
            },
            shards,
            event_limit: u64::MAX,
            windows: 0,
            sched_win_max_sum: 0,
            sched_win_max_peak: 0,
            host_sched: HostSchedStats::default(),
            host_phases: Vec::new(),
            phases_cache: Vec::new(),
            merged_trace: Vec::new(),
            merged_print: Vec::new(),
            merged_stats: Counters::default(),
            codecs: StateCodecs::default(),
            host_hooks: Vec::new(),
            recordings: Vec::new(),
            checkpoint_written: false,
            restore: RestoreSlot::Unloaded,
        };
        // `u64` is the one thread-state type the engine itself blesses
        // (plenty of tests and simple kernels use a bare counter).
        eng.register_state_codec::<u64>();
        eng
    }

    /// Register the on-disk codec for a thread-state type `T`. Required
    /// before `write_snapshot`/`snapshot_bytes` can serialize live
    /// threads whose state is a `T`, and before a snapshot containing
    /// `T::KEY` sections can be restored.
    pub fn register_state_codec<T: SnapState>(&mut self) {
        self.codecs
            .by_type
            .insert(TypeId::of::<T>(), (T::KEY, codec_save::<T>));
        self.codecs.by_key.insert(T::KEY, codec_load::<T>);
    }

    /// Register a host-state hook: a deep-save / restore pair for state a
    /// handler closure keeps *outside* the machine (the `Arc<Mutex<…>>`
    /// cells of the Send+Sync handler model — SHT shadows, KVMSR run
    /// bookkeeping, app accumulators). The in-memory [`Snapshot`] tier
    /// calls every registered `save` at [`Engine::snapshot`] and the
    /// matching `load` at [`Engine::restore`], in registration order — so
    /// rewinds (checkpoint self-checks, record-replay's rewind to a
    /// recording's start, and the post-replay restore) carry that state
    /// too. Any handler-visible mutable host state that is **read back**
    /// by handlers (control flow, costs, send targets) MUST be registered,
    /// or an isolated replay re-executes against end-of-run state and
    /// diverges; registering write-only accumulators as well keeps them
    /// from being double-counted by replay. The on-disk tier is unaffected
    /// (a restoring process re-drives the workload, rebuilding host state
    /// deterministically). See `docs/checkpoint.md`.
    pub fn register_host_state<T: Send + 'static>(
        &mut self,
        save: impl Fn() -> T + Send + Sync + 'static,
        load: impl Fn(&T) + Send + Sync + 'static,
    ) {
        self.host_hooks.push(HostHook {
            save: Box::new(move || Box::new(save())),
            load: Box::new(move |any| {
                let v = any
                    .downcast_ref::<T>()
                    .expect("host-state hook: snapshot value type mismatch");
                load(v);
            }),
        });
    }

    /// [`Engine::register_host_state`] for the common `Arc<Mutex<T>>`
    /// shape: snapshots clone the contents, restores overwrite them.
    pub fn host_state_cell<T: Clone + Send + 'static>(&mut self, cell: &Arc<Mutex<T>>) {
        let a = Arc::clone(cell);
        let b = Arc::clone(cell);
        self.register_host_state(
            move || a.lock().unwrap().clone(),
            move |v| *b.lock().unwrap() = v.clone(),
        );
    }

    pub fn config(&self) -> &MachineConfig {
        &self.shared.cfg
    }

    /// The conservative window length used by the scheduler: the minimum
    /// latency of any cross-node effect ([`Topology::min_transit`]).
    pub fn lookahead(&self) -> u64 {
        self.shared.lookahead
    }

    /// The system-network topology this machine runs on — the routing
    /// authority for cross-node transit (per-pair routes, hop latency,
    /// link enumeration).
    pub fn topology(&self) -> &dyn Topology {
        &*self.shared.topo
    }

    /// Register an event handler; returns its label.
    pub fn register(&mut self, name: &str, f: Handler) -> EventLabel {
        assert!(
            self.shared.handlers.len() < u16::MAX as usize,
            "handler table full"
        );
        let label = EventLabel(self.shared.handlers.len() as u16);
        self.shared.handlers.push(HandlerEntry {
            name: name.to_string(),
            f,
        });
        label
    }

    /// Name of a registered event (for traces and diagnostics).
    pub fn event_name(&self, label: EventLabel) -> &str {
        &self.shared.handlers[label.0 as usize].name
    }

    /// Host-side (TOP core) injection of an initial event at the current
    /// simulation time.
    pub fn send(&mut self, dst: EventWord, args: impl Into<Operands>, cont: EventWord) {
        let l = dst.nwid();
        assert!(
            l.0 < self.shared.cfg.total_lanes(),
            "message to nonexistent lane {} (machine has {})",
            l.0,
            self.shared.cfg.total_lanes()
        );
        let mut msg = Message::new(dst, args, cont, NetworkId(0));
        // Host sends are ordered with each other and after every prior
        // completed run; the executions they spawn stay mutually unordered.
        msg.race = self.shared.cfg.race.as_ref().map(|rp| rp.host_send());
        let t = self.now();
        let node = self.shared.cfg.node_of(l);
        self.shards[node as usize].deliver(t, msg);
    }

    /// Functional access to global memory for host-side setup/inspection
    /// (the TOP core's mmap-style access; not charged simulation time).
    pub fn mem(&self) -> &GlobalMemory {
        &self.shared.mem
    }

    pub fn mem_mut(&mut self) -> &mut GlobalMemory {
        Arc::get_mut(&mut self.shared.mem)
            .expect("exclusive memory access outside a run")
    }

    /// Cap the number of executed events (runaway guard). The run stops
    /// with [`Metrics`] when exceeded.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// The attached protocol probe, if any ([`MachineConfig::probe`], or
    /// auto-created by [`MachineConfig::sanitize`]).
    pub fn probe(&self) -> Option<&ProtocolProbe> {
        self.shared.cfg.probe.as_ref()
    }

    /// Diagnostics collected by the protocol probe / runtime sanitizer so
    /// far; empty when no probe is attached (and for violation-free runs).
    pub fn sanitizer_diagnostics(&self) -> Vec<Diagnostic> {
        self.shared
            .cfg
            .probe
            .as_ref()
            .map(|p| p.diagnostics())
            .unwrap_or_default()
    }

    /// Record `[PRINT]`-style trace lines emitted via [`EventCtx::print`].
    pub fn enable_trace(&mut self) {
        for s in &mut self.shards {
            if s.trace.is_none() {
                s.trace = Some(Vec::new());
            }
        }
    }

    pub fn trace(&self) -> &[String] {
        &self.merged_print
    }

    /// Enable the structured event trace (lane busy spans, message
    /// transits, DRAM stages, counters). Recording has **zero observer
    /// effect**: simulated cycle counts are byte-identical with tracing
    /// on or off. Export with [`Engine::chrome_trace_json`].
    pub fn enable_event_trace(&mut self) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            if s.tracer.is_none() {
                s.tracer = Some(Tracer::with_id_base((i as u64) << 48));
            }
        }
    }

    pub fn event_trace_enabled(&self) -> bool {
        self.shards.first().map(|s| s.tracer.is_some()).unwrap_or(false)
    }

    /// Recorded trace events (empty when event tracing is disabled),
    /// merged in shard order after each run.
    pub fn event_trace(&self) -> &[TraceEvent] {
        &self.merged_trace
    }

    /// Begin a named phase span at the current simulation time (host
    /// side; device code uses [`EventCtx::phase_begin`]).
    pub fn phase_begin(&mut self, name: &str) {
        let now = self.now();
        self.host_phases.push(PhaseSpan {
            name: name.to_string(),
            start: now,
            end: u64::MAX,
        });
        self.rebuild_phases();
    }

    /// End the open span with this name that started most recently,
    /// searching host-side and device-side spans.
    pub fn phase_end(&mut self, name: &str) {
        let now = self.now();
        let mut best: Option<(&mut PhaseSpan, u64)> = None;
        for p in self
            .host_phases
            .iter_mut()
            .chain(self.shards.iter_mut().flat_map(|s| s.phases.iter_mut()))
        {
            if p.is_open() && p.name == name {
                let start = p.start;
                if best.as_ref().map(|(_, s)| start >= *s).unwrap_or(true) {
                    best = Some((p, start));
                }
            }
        }
        if let Some((p, _)) = best {
            p.end = now;
        }
        self.rebuild_phases();
    }

    /// Phase spans recorded so far (open spans have `end == u64::MAX`),
    /// host and device combined, stable-sorted by start time.
    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases_cache
    }

    fn rebuild_phases(&mut self) {
        let mut all: Vec<PhaseSpan> = self.host_phases.clone();
        for s in &self.shards {
            all.extend(s.phases.iter().cloned());
        }
        all.sort_by_key(|p| p.start);
        self.phases_cache = all;
    }

    /// Export the event trace in Chrome `trace_event` JSON format (open
    /// in `chrome://tracing` or Perfetto). Includes phase spans even when
    /// event tracing is disabled.
    pub fn chrome_trace_json(&self) -> String {
        let names: Vec<String> = self
            .shared
            .handlers
            .iter()
            .map(|h| h.name.clone())
            .collect();
        crate::trace::chrome_trace_json(
            &self.merged_trace,
            &self.phases_cache,
            &names,
            self.shared.cfg.lanes_per_node(),
            self.shared.cfg.clock_ghz,
            self.final_tick(),
        )
    }

    /// Write the Chrome trace JSON to `path`.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Machine-wide counters, merged across shards after each run.
    pub fn stats(&self) -> &Counters {
        &self.merged_stats
    }

    fn merged_counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.shards {
            c.merge_from(&s.stats);
        }
        c.windows = self.windows;
        c
    }

    /// Per-lane busy-cycle maximum and its lane id (diagnostics: detects
    /// serialization hot spots).
    pub fn busiest_lane(&self) -> (u32, u64) {
        let mut best = (0u32, 0u64);
        for s in &self.shards {
            for (i, l) in s.lanes.iter().enumerate() {
                if l.busy > best.1 {
                    best = (s.base_lane + i as u32, l.busy);
                }
            }
        }
        best
    }

    /// Lane with the most executed events (diagnostics).
    pub fn most_events_lane(&self) -> (u32, u64) {
        let mut best = (0u32, 0u64);
        for s in &self.shards {
            for (i, l) in s.lanes.iter().enumerate() {
                if l.events > best.1 {
                    best = (s.base_lane + i as u32, l.events);
                }
            }
        }
        best
    }

    /// Execution counts per event name, descending (diagnostics).
    pub fn event_counts(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = Vec::new();
        for (i, h) in self.shared.handlers.iter().enumerate() {
            let mut count = 0u64;
            let mut last = 0u64;
            for s in &self.shards {
                if let Some((c, t)) = s.handler_stats.get(i) {
                    count += c;
                    last = last.max(*t);
                }
            }
            if count > 0 {
                v.push((format!("{} (last @{})", h.name, last), count));
            }
        }
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    /// Current simulation time: the maximum of the shard clocks.
    pub fn now(&self) -> u64 {
        self.shards.iter().map(|s| s.now).max().unwrap_or(0)
    }

    fn final_tick(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.now.max(s.last_completion))
            .max()
            .unwrap_or(0)
    }

    /// Run until the calendars drain, `stop()` is called, or the event
    /// limit is hit. A stopped engine can be run again: the stop flag is
    /// cleared on entry (pending calendar actions resume).
    ///
    /// The window loop runs on [`MachineConfig::threads`] OS threads
    /// (`1` runs it inline); results are byte-identical for every value.
    ///
    /// When [`MachineConfig::checkpoint_every`] is set the run proceeds
    /// in segments of that many windows; between segments the engine
    /// takes a checkpoint (see [`Engine::checkpoint_boundary`]). Results
    /// are byte-identical to an unsegmented run: a paused scheduler
    /// invocation folds all in-flight cross-shard entries back into the
    /// per-shard calendars, so segment boundaries are self-contained and
    /// the next segment recomputes the exact same window floors.
    pub fn run(&mut self) -> Metrics {
        for s in &mut self.shards {
            s.stop = false;
            s.handler_stats.resize(self.shared.handlers.len(), (0, 0));
        }
        let record_mode = self.shared.cfg.record || self.shared.cfg.replay.is_some();
        let record_start = if record_mode {
            let start = Box::new(self.snapshot());
            for s in &mut self.shards {
                s.record = Some(Box::default());
            }
            Some(start)
        } else {
            None
        };
        if let RestoreSlot::Unloaded = self.restore {
            self.restore = match self.shared.cfg.restore_path.clone() {
                Some(path) => {
                    assert!(
                        self.shared.cfg.checkpoint_every != 0,
                        "restore_path requires checkpoint_every: the restored state is \
                         verified and installed at a checkpoint boundary"
                    );
                    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                        panic!("restore: cannot read {}: {e}", path.display())
                    });
                    let (header, body) = snapshot::unframe(&bytes)
                        .unwrap_or_else(|e| panic!("restore: {}: {e}", path.display()));
                    RestoreSlot::Pending {
                        header,
                        body: body.to_vec(),
                    }
                }
                None => RestoreSlot::Done,
            };
        }
        let ck = self.shared.cfg.checkpoint_every;
        let round_limit = if ck == 0 { u64::MAX } else { ck };
        let mut total_rounds = 0u64;
        let workers = self.shared.cfg.threads.max(1) as usize;
        let stopped = loop {
            let out = run_rounds(&mut self.shards, &self.shared, workers, self.event_limit, round_limit);
            self.windows += out.rounds;
            self.sched_win_max_sum += out.win_max_sum;
            self.sched_win_max_peak = self.sched_win_max_peak.max(out.win_max_peak);
            self.host_sched.steals += out.steals;
            self.host_sched.idle_spins += out.idle_spins;
            self.host_sched.barrier_rounds += out.rounds;
            total_rounds += out.rounds;
            if !out.paused {
                break out.stopped;
            }
            self.checkpoint_boundary();
        };
        if let Some(start) = record_start {
            let shards: Vec<ShardRecord> = self
                .shards
                .iter_mut()
                .map(|s| s.record.take().map(|b| *b).unwrap_or_default())
                .collect();
            self.recordings.push(Recording {
                start,
                shards,
                rounds: total_rounds,
            });
        }
        if stopped {
            self.drain_in_flight();
        }
        self.collect_run_artifacts();
        // "Drained naturally" = every message was consumed: no
        // `ctx.stop()`, no event-limit cut-off. Only then is a live
        // thread a leak — a stopped run legitimately strands threads
        // (pollers, feeders), and a truncated run proves nothing.
        let total: u64 = self.shards.iter().map(|s| s.stats.events_executed).sum();
        let hit_limit = self.event_limit != u64::MAX && total >= self.event_limit;
        let drained = !stopped && !hit_limit;
        if let Some(p) = &self.shared.cfg.probe {
            if drained {
                for shard in &self.shards {
                    for lane in &shard.lanes {
                        for created_by in lane.threads.live_created_by() {
                            p.live_at_exit(created_by);
                        }
                    }
                }
            }
            let names = self.shared.handlers.iter().map(|h| h.name.clone()).collect();
            p.finish_run(names, drained, self.final_tick());
            // Spec enforcement: check the commutative summary against the
            // declared protocol; Error-severity deviations become
            // deterministic SpecViolation diagnostics.
            if let Some(spec) = &self.shared.cfg.enforce_spec {
                let report = p.snapshot();
                let findings = crate::spec::check_report(
                    spec,
                    &report,
                    self.shared.cfg.max_threads_per_lane,
                    self.shared.cfg.spm_words,
                );
                let tick = self.final_tick();
                for f in findings {
                    if f.severity == crate::spec::SpecSeverity::Error {
                        p.spec_violation(f.subject, format!("[{}] {}", f.check, f.message), tick);
                    }
                }
            }
        }
        if let Some(rp) = &self.shared.cfg.race {
            let names = self.shared.handlers.iter().map(|h| h.name.clone()).collect();
            rp.finish_run(names, drained);
        }
        self.metrics()
    }

    /// Take a full in-memory [`Snapshot`]: per-shard state, DRAM image,
    /// observability buffers, and probe/race clocks. Restoring it with
    /// [`Engine::restore`] is an exact rewind.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cores: self.shards.clone(),
            mem: self.shared.mem.image(),
            windows: self.windows,
            sched_win_max_sum: self.sched_win_max_sum,
            sched_win_max_peak: self.sched_win_max_peak,
            host_phases: self.host_phases.clone(),
            phases_cache: self.phases_cache.clone(),
            merged_trace: self.merged_trace.clone(),
            merged_print: self.merged_print.clone(),
            merged_stats: self.merged_stats.clone(),
            probe: self.shared.cfg.probe.as_ref().map(|p| p.snapshot_state()),
            race: self.shared.cfg.race.as_ref().map(|rp| rp.snapshot_state()),
            host: self.host_hooks.iter().map(|h| (h.save)()).collect(),
        }
    }

    /// Rewind the engine to `snap`. Continuing afterwards is byte-identical
    /// to never having left: metrics, traces, and udcheck/udrace reports
    /// all match an uninterrupted run. In-progress recordings survive the
    /// rewind (they are run artifacts, not machine state).
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if snap.cores.len() != self.shards.len() {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot has {} shards, machine has {}",
                snap.cores.len(),
                self.shards.len()
            )));
        }
        if snap.host.len() != self.host_hooks.len() {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot carries {} host-state value(s), engine has {} hook(s) \
                 (register_host_state calls must precede the snapshot)",
                snap.host.len(),
                self.host_hooks.len()
            )));
        }
        self.shared.mem.restore_image(&snap.mem)?;
        let records: Vec<_> = self.shards.iter_mut().map(|s| s.record.take()).collect();
        self.shards = snap.cores.clone();
        for (s, rec) in self.shards.iter_mut().zip(records) {
            s.record = rec;
        }
        self.windows = snap.windows;
        self.sched_win_max_sum = snap.sched_win_max_sum;
        self.sched_win_max_peak = snap.sched_win_max_peak;
        self.host_phases = snap.host_phases.clone();
        self.phases_cache = snap.phases_cache.clone();
        self.merged_trace = snap.merged_trace.clone();
        self.merged_print = snap.merged_print.clone();
        self.merged_stats = snap.merged_stats.clone();
        if let (Some(p), Some(st)) = (&self.shared.cfg.probe, &snap.probe) {
            p.restore_state(st);
        }
        if let (Some(rp), Some(st)) = (&self.shared.cfg.race, &snap.race) {
            rp.restore_state(st);
        }
        for (hook, saved) in self.host_hooks.iter().zip(&snap.host) {
            (hook.load)(saved.as_ref());
        }
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
                assert!(
                    self.windows == header.window,
                    "restore: checkpoint boundaries (every {} windows) skipped over the \
                     snapshot's window {}; the restoring run must use the same \
                     checkpoint_every cadence as the snapshotting run",
                    self.shared.cfg.checkpoint_every,
                    header.window
                );
                let live = self
                    .encode_body()
                    .unwrap_or_else(|e| panic!("restore: encoding live state: {e}"));
                assert!(
                    live == body,
                    "restore: snapshot disagrees with the re-driven machine at window {} — \
                     the snapshot must come from this exact workload and config",
                    header.window
                );
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

    /// Replay one shard of `rec` in isolation: rewind to the recording's
    /// start, feed the shard its recorded cross-shard schedule window by
    /// window, and compare the replayed execution stream (time, lane,
    /// thread, label, scratchpad high-water) against the recording.
    /// Returns divergence descriptions (empty on a faithful replay); the
    /// engine state is restored afterwards either way.
    pub fn replay_shard(&mut self, rec: &Recording, shard: u32) -> Vec<String> {
        let k = shard as usize;
        assert!(k < self.shards.len(), "replay_shard: no shard {shard}");
        assert_eq!(
            rec.shards.len(),
            self.shards.len(),
            "recording shard count mismatch"
        );
        let here = self.snapshot();
        self.restore(&rec.start)
            .expect("replay: rewinding to the recording start");
        self.shards[k].record = Some(Box::new(ShardRecord {
            open: true,
            ..ShardRecord::default()
        }));
        let plan = &rec.shards[k];
        for round in &plan.rounds {
            for e in &round.inject {
                self.shards[k].schedule(e.time, e.action.clone());
            }
            self.shards[k].window(&self.shared, round.horizon, round.budget);
            // Cross-shard sends of an isolated replay go nowhere: the
            // other shards' effects are already represented by the
            // recorded inject schedule.
            for buf in self.shards[k].outbuf.iter_mut() {
                buf.clear();
            }
        }
        let got = self.shards[k]
            .record
            .take()
            .map(|b| b.exec)
            .unwrap_or_default();
        self.restore(&here).expect("replay: restoring current state");
        diff_exec(&plan.exec, &got)
    }

    /// Verify every recording accumulated so far by replaying each shard
    /// in isolation, pushing one [`ReplayRunReport`] per recorded run into
    /// the configured [`crate::ReplayCheck`]. Call once per app run *after*
    /// results are extracted — replay re-executes handlers, so it must not
    /// interleave with live phases. No-op without `MachineConfig::replay`.
    pub fn finish_replay(&mut self, label: &str) {
        let Some(check) = self.shared.cfg.replay.clone() else {
            return;
        };
        let recs = std::mem::take(&mut self.recordings);
        for (i, rec) in recs.iter().enumerate() {
            let mut mismatches = Vec::new();
            for k in 0..rec.shards.len() as u32 {
                for m in self.replay_shard(rec, k) {
                    mismatches.push(format!("shard {k}: {m}"));
                }
            }
            let run_label = if recs.len() == 1 {
                label.to_string()
            } else {
                format!("{label}#{i}")
            };
            check.push_run(ReplayRunReport {
                label: run_label,
                shards: rec.shards.len() as u32,
                rounds: rec.rounds,
                events: rec.events(),
                mismatches,
            });
        }
    }

    /// Hand over the recordings accumulated by record/replay-mode runs
    /// (for direct [`Engine::replay_shard`] use in tests and tools).
    pub fn take_recordings(&mut self) -> Vec<Recording> {
        std::mem::take(&mut self.recordings)
    }

    /// Graceful stop: apply all in-flight memory effects so host-visible
    /// memory is consistent (message deliveries and lane work are
    /// discarded; acks/read-returns have no one left to run them).
    fn drain_in_flight(&mut self) {
        for core in &mut self.shards {
            while let Some((_t, id)) = core.calendar.pop() {
                if id < core.arena.first_id {
                    continue; // a lane's run entry: lane work is discarded
                }
                let op = match core.arena.take(core.calendar.links_mut(), id) {
                    // Not-yet-applied stages carry the op; apply effects.
                    Action::Mem { op, .. } => op,
                    Action::Deliver(_) => {
                        core.stats.msgs_dropped += 1;
                        continue;
                    }
                    // MemDone responses were already applied at service
                    // time on the owning shard.
                    Action::MemDone { .. } => continue,
                };
                match op {
                    MemOp::Write { va, words, .. } => {
                        self.shared
                            .mem
                            .write_words(va, &words)
                            .unwrap_or_else(|e| panic!("DRAM write fault at drain: {e}"));
                    }
                    MemOp::AddU64 { va, delta, .. } => {
                        let _ = self.shared.mem.fetch_add_u64(va, delta);
                    }
                    MemOp::AddF64 { va, delta, .. } => {
                        let _ = self.shared.mem.fetch_add_f64(va, delta);
                    }
                    MemOp::Read { .. } => {}
                }
            }
        }
    }

    /// Merge per-shard run artifacts into the engine-level views: trace
    /// events, print lines (both drained in shard order), the counters
    /// cache, and the phase cache.
    fn collect_run_artifacts(&mut self) {
        for core in &mut self.shards {
            if let Some(t) = &mut core.trace {
                self.merged_print.append(t);
            }
            if let Some(tr) = &mut core.tracer {
                self.merged_trace.append(&mut tr.events);
            }
        }
        self.merged_stats = self.merged_counters();
        self.rebuild_phases();
    }

    /// Build the final [`Metrics`] without running: machine-wide counters
    /// plus per-node rollups, lane-utilization histograms, the top-K
    /// hottest lanes, and any recorded phase spans.
    pub fn metrics(&self) -> Metrics {
        let final_tick = self.final_tick();
        let lanes_per_node = self.shared.cfg.lanes_per_node().max(1) as usize;
        let n_nodes = self.shared.cfg.nodes as usize;

        let mut nodes: Vec<NodeMetrics> = (0..n_nodes)
            .map(|n| NodeMetrics {
                node: n as u32,
                lanes: lanes_per_node as u64,
                dram_served_bytes: self.shards[n].channel.served_bytes.first().copied().unwrap_or(0),
                nic_injected_bytes: self.shards[n].nic.injected_bytes.first().copied().unwrap_or(0),
                ..NodeMetrics::default()
            })
            .collect();

        let mut total_busy = 0u64;
        let mut active_lanes = 0u64;
        let mut hot: Vec<LaneMetrics> = Vec::new();
        for shard in &self.shards {
            let nm = &mut nodes[shard.id as usize];
            for (i, lane) in shard.lanes.iter().enumerate() {
                total_busy += lane.busy;
                nm.busy += lane.busy;
                nm.events += lane.events;
                nm.max_lane_busy = nm.max_lane_busy.max(lane.busy);
                if lane.events > 0 {
                    active_lanes += 1;
                    nm.active_lanes += 1;
                }
                let bucket = if final_tick == 0 {
                    0
                } else {
                    ((lane.busy as u128 * UTIL_HIST_BUCKETS as u128 / final_tick as u128) as usize)
                        .min(UTIL_HIST_BUCKETS - 1)
                };
                nm.lane_util_hist[bucket] += 1;
                if lane.busy > 0 {
                    hot.push(LaneMetrics {
                        lane: shard.base_lane + i as u32,
                        node: shard.id,
                        busy: lane.busy,
                        events: lane.events,
                    });
                }
            }
        }
        hot.sort_by(|a, b| b.busy.cmp(&a.busy).then(a.lane.cmp(&b.lane)));
        hot.truncate(HOT_LANES_TOP_K);

        let mut phases: Vec<PhaseSpan> = self.host_phases.clone();
        for s in &self.shards {
            phases.extend(s.phases.iter().cloned());
        }
        phases.sort_by_key(|p| p.start);
        for p in &mut phases {
            if p.is_open() {
                p.end = final_tick;
            }
        }

        let mut custom: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.shards {
            for (k, v) in &s.custom_add {
                *custom.entry(k).or_insert(0) += v;
            }
        }
        for s in &self.shards {
            for (k, v) in &s.custom_peak {
                let e = custom.entry(k).or_insert(0);
                *e = (*e).max(*v);
            }
        }

        Metrics {
            final_tick,
            clock_ghz: self.shared.cfg.clock_ghz,
            stats: self.merged_counters(),
            total_busy,
            active_lanes,
            total_lanes: self.shared.cfg.total_lanes() as u64,
            nodes,
            hot_lanes: hot,
            phases,
            custom,
            fabric: self.fabric_metrics(),
            sched: SchedMetrics {
                window_max_events_sum: self.sched_win_max_sum,
                window_max_events_peak: self.sched_win_max_peak,
            },
            host_sched: self.host_sched,
            host_calendar: HostCalendarStats {
                rung_pushes: self.shards.iter().map(|s| s.calendar.rung_pushes()).sum(),
                ring_width: self.shards.iter().map(|s| s.calendar.ring_width()).max().unwrap_or(0),
            },
        }
    }

    /// Roll the per-shard fabric counters up into [`FabricMetrics`]: sum
    /// the per-link byte/flit counters across shards, element-wise sum the
    /// per-link demand windows (a link's demand in a window is the total
    /// over every shard injecting into it) and take each link's peak.
    /// Every step is an ordered sum, so the result is byte-identical
    /// across thread counts.
    fn fabric_metrics(&self) -> FabricMetrics {
        let topo = &*self.shared.topo;
        let links = topo.links();
        let mut per_link: Vec<LinkMetrics> = Vec::new();
        let mut link_bytes_total = 0u64;
        let mut peak_window_bytes = 0u64;
        let mut window_sum: Vec<u64> = Vec::new();
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            let mut bytes = 0u64;
            let mut flits = 0u64;
            window_sum.clear();
            for s in &self.shards {
                bytes += s.fabric.bytes()[i];
                flits += s.fabric.flits()[i];
                let d = s.fabric.demand(id);
                if window_sum.len() < d.len() {
                    window_sum.resize(d.len(), 0);
                }
                for (w, v) in window_sum.iter_mut().zip(d) {
                    *w += v;
                }
            }
            if bytes == 0 {
                continue;
            }
            let peak = window_sum.iter().copied().max().unwrap_or(0);
            link_bytes_total += bytes;
            peak_window_bytes = peak_window_bytes.max(peak);
            per_link.push(LinkMetrics {
                src: l.src,
                dst: l.dst,
                bytes,
                flits,
                peak_window_bytes: peak,
            });
        }
        let links_used = per_link.len() as u64;
        per_link.sort_by(|a, b| {
            b.bytes
                .cmp(&a.bytes)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        per_link.truncate(FABRIC_TOP_LINKS);
        FabricMetrics {
            topology: topo.kind().name().to_string(),
            hop_latency: topo.hop_latency(),
            diameter: topo.diameter(),
            stat_window: self.shared.cfg.net.link_stat_window.max(1),
            link_bytes_per_cycle: self.shared.cfg.net.link_bytes_per_cycle.max(1),
            links_total: links.len() as u64,
            links_used,
            link_bytes_total,
            nic_injected_bytes: self
                .shards
                .iter()
                .map(|s| s.nic.injected_bytes.first().copied().unwrap_or(0))
                .sum(),
            peak_window_bytes,
            top_links: per_link,
        }
    }

    /// Back-compat alias for [`Engine::metrics`].
    pub fn report(&self) -> Metrics {
        self.metrics()
    }

    /// Force every shard clock to `t` — test hook for the
    /// time-went-backwards invariant. Not part of the public API.
    #[doc(hidden)]
    pub fn force_clock_for_test(&mut self, t: u64) {
        for s in &mut self.shards {
            s.now = t;
        }
    }
}

fn default_state<T: Default + Send + Clone + 'static>() -> Box<dyn SimState> {
    Box::<T>::default()
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
    /// The thread's state box. A `OnceCell` only so that `state_ref`
    /// (`&self`) can materialize `detached_default` on first read.
    pub(super) state: OnceCell<Box<dyn SimState>>,
    /// Set while [`EventCtx::with_state`] has the typed state detached:
    /// builds the default value the (empty) cell then reads as.
    pub(super) detached_default: Option<fn() -> Box<dyn SimState>>,
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

impl<'a> EventCtx<'a> {
    // ---- identity & introspection -------------------------------------

    /// This lane's network ID (`curNetworkID`).
    #[inline]
    pub fn nwid(&self) -> NetworkId {
        NetworkId(self.lane)
    }

    /// Node index of this lane.
    #[inline]
    pub fn node(&self) -> u32 {
        self.shared.cfg.node_of(self.nwid())
    }

    #[inline]
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// `CEVNT`: the event word naming the currently executing event.
    #[inline]
    pub fn cur_evw(&self) -> EventWord {
        EventWord::with_thread(self.nwid(), self.tid, self.msg.dst.label())
    }

    /// An event word for another event of *this* thread.
    #[inline]
    pub fn self_event(&self, label: EventLabel) -> EventWord {
        EventWord::with_thread(self.nwid(), self.tid, label)
    }

    /// `CCONT`: the continuation word carried by the triggering message.
    #[inline]
    pub fn cont(&self) -> EventWord {
        self.cont_read.set(true);
        self.msg.cont
    }

    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.shared.cfg
    }

    /// Current simulation time (start of this event).
    #[inline]
    pub fn now(&self) -> u64 {
        self.shard.now
    }

    // ---- operands ------------------------------------------------------

    #[inline]
    pub fn args(&self) -> &[u64] {
        if let Some(p) = &self.shared.cfg.probe {
            let n = self.msg.args.len() as u32;
            if n > 0 {
                p.arg_read(self.msg.dst.label().0, n, n - 1);
            }
        }
        &self.msg.args
    }

    /// Operand `i` of the triggering message. Panics past the operand
    /// count — unless the sanitizer is on, which diagnoses and reads zero.
    #[inline]
    pub fn arg(&self, i: usize) -> u64 {
        if let Some(p) = &self.shared.cfg.probe {
            let label = self.msg.dst.label().0;
            let argc = self.msg.args.len();
            p.arg_read(label, argc as u32, i as u32);
            if i >= argc {
                p.diag(
                    DiagKind::OperandOutOfRange,
                    label,
                    i as u64,
                    self.shard.now,
                    self.lane,
                    || {
                        format!(
                            "'{}' reads operand {i} of a {argc}-operand message",
                            self.event_name
                        )
                    },
                );
                if self.shared.cfg.sanitize {
                    return 0;
                }
            }
        }
        self.msg.args[i]
    }

    /// Operand interpreted as f64 bits.
    #[inline]
    pub fn argf(&self, i: usize) -> f64 {
        f64::from_bits(self.arg(i))
    }

    // ---- thread state ----------------------------------------------------

    /// Typed access to the thread's persistent state, default-initialized
    /// on first use. `Clone` is required so whole-machine snapshots can
    /// deep-copy live thread states (see [`SimState`]).
    pub fn state_mut<T: Default + Send + Clone + 'static>(&mut self) -> &mut T {
        if !self.state.get().is_some_and(|s| s.as_any().is::<T>()) {
            self.state = OnceCell::from(default_state::<T>());
        }
        self.state
            .get_mut()
            .and_then(|s| s.as_any_mut().downcast_mut::<T>())
            .expect("state cell holds a T")
    }

    /// Replace the thread state wholesale (in place when the cell already
    /// holds a `T`).
    pub fn set_state<T: Send + Clone + 'static>(&mut self, v: T) {
        match self.state.get_mut().and_then(|s| s.as_any_mut().downcast_mut::<T>()) {
            Some(slot) => *slot = v,
            None => self.state = OnceCell::from(Box::new(v) as Box<dyn SimState>),
        }
    }

    /// Typed immutable view, `None` if never set with this type.
    pub fn state_ref<T: 'static>(&self) -> Option<&T> {
        let cell = match self.detached_default {
            Some(default) => Some(self.state.get_or_init(default)),
            None => self.state.get(),
        };
        cell.and_then(|b| b.as_any().downcast_ref::<T>())
    }

    /// Run `f` with `&mut S` borrowed from the thread's own state box
    /// (default-initialized when the thread has none of this type yet):
    /// the box is detached for the call and reattached after it, so a
    /// typed event allocates only at a thread's first use. While detached
    /// the state cell reads as a fresh `S::default()`, and whatever `f`
    /// leaves in it through `state_mut`/`set_state` is superseded by the
    /// typed state on return.
    pub fn with_state<S: Default + Send + Clone + 'static, R>(
        &mut self,
        f: impl FnOnce(&mut EventCtx<'a>, &mut S) -> R,
    ) -> R {
        let mut boxed = match self.state.take() {
            Some(b) if b.as_any().is::<S>() => b,
            _ => default_state::<S>(),
        };
        let outer = self.detached_default.replace(default_state::<S>);
        let st = boxed
            .as_any_mut()
            .downcast_mut::<S>()
            .expect("state box holds an S");
        let r = f(self, st);
        self.detached_default = outer;
        self.state = OnceCell::from(boxed);
        r
    }

    // ---- sends -----------------------------------------------------------

    /// `send_event(eventWord, data..., continuationWord)`.
    pub fn send_event(&mut self, dst: EventWord, args: impl Into<Operands>, cont: EventWord) {
        self.send_event_after(0, dst, args, cont);
    }

    /// Send a message that enters the network `delay` cycles after this
    /// event completes. Models software timers used for termination
    /// re-polls; the lane is *not* kept busy during the delay.
    pub fn send_event_after(
        &mut self,
        delay: u64,
        dst: EventWord,
        args: impl Into<Operands>,
        cont: EventWord,
    ) {
        assert!(!dst.is_ignore(), "send_event to IGNORE");
        self.cost += self.shared.cfg.costs.send_msg;
        let args = args.into();
        if let Some(p) = &self.shared.cfg.probe {
            let src = self.msg.dst.label().0;
            let dl = dst.label().0;
            p.send(
                src,
                dl,
                args.len() as u32,
                !cont.is_ignore(),
                dst.tid() == ThreadId::NEW,
            );
            if dl as usize >= self.shared.handlers.len() {
                p.diag(
                    DiagKind::SendUnregistered,
                    src,
                    dl as u64,
                    self.shard.now,
                    self.lane,
                    || {
                        format!(
                            "'{}' sends to unregistered event label {dl}",
                            self.event_name
                        )
                    },
                );
            }
        }
        self.out.push(Outgoing::Msg(
            Message {
                dst,
                args,
                cont,
                src: self.nwid(),
                race: self.race.as_ref().map(|r| r.clock.clone()),
            },
            delay,
        ));
    }

    /// Race context for an outgoing DRAM operation of this execution.
    fn race_access(&self, atomic: bool) -> Option<RaceAccess> {
        self.race
            .as_ref()
            .map(|r| r.access(self.msg.dst.label().0, atomic))
    }

    /// Reply on the continuation if one was provided.
    pub fn send_reply(&mut self, args: impl Into<Operands>) {
        let c = self.cont();
        if !c.is_ignore() {
            self.send_event(c, args, EventWord::IGNORE);
        }
    }

    // ---- DRAM ------------------------------------------------------------

    /// Issue an asynchronous DRAM read of `nwords` (≤ 8) consecutive words;
    /// the response arrives at `ret_label` on *this* thread with the data
    /// words as operands.
    pub fn send_dram_read(&mut self, va: VAddr, nwords: usize, ret_label: EventLabel) {
        self.dram_read_impl(va, nwords, ret_label, None);
    }

    /// As [`Self::send_dram_read`], with `tag` appended after the data.
    pub fn send_dram_read_tagged(
        &mut self,
        va: VAddr,
        nwords: usize,
        ret_label: EventLabel,
        tag: u64,
    ) {
        self.dram_read_impl(va, nwords, ret_label, Some(tag));
    }

    fn dram_read_impl(
        &mut self,
        va: VAddr,
        nwords: usize,
        ret_label: EventLabel,
        tag: Option<u64>,
    ) {
        assert!((1..=8).contains(&nwords), "hardware reads 1..=8 words");
        self.cost += self.shared.cfg.costs.send_dram;
        let ret = self.self_event(ret_label);
        self.out.push(Outgoing::DramRead {
            va,
            nwords: nwords as u8,
            ret,
            tag,
            race: self.race_access(false),
        });
    }

    /// Asynchronous DRAM write; optional ack event on this thread.
    pub fn send_dram_write(&mut self, va: VAddr, words: &[u64], ack_label: Option<EventLabel>) {
        self.dram_write_impl(va, words, ack_label, None)
    }

    pub fn send_dram_write_tagged(
        &mut self,
        va: VAddr,
        words: &[u64],
        ack_label: EventLabel,
        tag: u64,
    ) {
        self.dram_write_impl(va, words, Some(ack_label), Some(tag))
    }

    fn dram_write_impl(
        &mut self,
        va: VAddr,
        words: &[u64],
        ack_label: Option<EventLabel>,
        tag: Option<u64>,
    ) {
        assert!(
            !words.is_empty() && words.len() <= 8,
            "hardware writes 1..=8 words"
        );
        self.cost += self.shared.cfg.costs.send_dram;
        let ack = ack_label.map(|l| self.self_event(l));
        self.out.push(Outgoing::DramWrite {
            va,
            words: words.to_vec(),
            ack,
            tag,
            race: self.race_access(false),
        });
    }

    /// Memory-side atomic add on a u64 cell. In hardware this is realized
    /// in software (combining cache); the engine also offers it directly for
    /// library code and oracles. Timed like a one-word write.
    pub fn dram_fetch_add_u64(
        &mut self,
        va: VAddr,
        delta: u64,
        ret_label: Option<EventLabel>,
        tag: Option<u64>,
    ) {
        self.cost += self.shared.cfg.costs.send_dram;
        let ret = ret_label.map(|l| self.self_event(l));
        self.out.push(Outgoing::AtomicAddU64 {
            va,
            delta,
            ret,
            tag,
            race: self.race_access(true),
        });
    }

    /// Memory-side atomic add on an f64 cell.
    pub fn dram_fetch_add_f64(
        &mut self,
        va: VAddr,
        delta: f64,
        ret_label: Option<EventLabel>,
        tag: Option<u64>,
    ) {
        self.cost += self.shared.cfg.costs.send_dram;
        let ret = ret_label.map(|l| self.self_event(l));
        self.out.push(Outgoing::AtomicAddF64 {
            va,
            delta,
            ret,
            tag,
            race: self.race_access(true),
        });
    }

    /// Zero-time functional peek at global memory. **Not** part of the
    /// machine model: intended for assertions, oracles and trace output
    /// only. Timed code must use `send_dram_read`.
    pub fn dram_peek_u64(&self, va: VAddr) -> u64 {
        self.shared.mem.read_u64(va).expect("peek fault")
    }

    // ---- scratchpad --------------------------------------------------------

    #[inline]
    fn local_lane_idx(&self) -> usize {
        (self.lane - self.shard.base_lane) as usize
    }

    /// Sanitizer diagnostic for a scratchpad access past `spm_words`.
    fn spm_oob_diag(&self, op: &str, off: u32) {
        if let Some(p) = &self.shared.cfg.probe {
            p.diag(
                DiagKind::ScratchpadOutOfBounds,
                self.msg.dst.label().0,
                off as u64,
                self.shard.now,
                self.lane,
                || {
                    format!(
                        "'{}': {op} at word {off} past scratchpad size {}",
                        self.event_name, self.shared.cfg.spm_words
                    )
                },
            );
        }
    }

    /// Record one in-bounds scratchpad access for race detection.
    /// Atomic-class accesses mutate the execution's clock (release-acquire
    /// on the word), so this needs `&mut self`.
    fn spm_race(&mut self, off: u32, atomic: bool, write: bool) {
        if let (Some(rp), Some(r)) = (&self.shared.cfg.race, &mut self.race) {
            rp.record_spm(
                r,
                self.msg.dst.label().0,
                self.lane,
                off,
                atomic,
                write,
                self.shard.now,
            );
        }
    }

    /// Declare that this execution participates in a lane-serialized
    /// protocol identified by `token`: it happens-after every earlier
    /// execution on this lane that called `race_order` with the same
    /// token, and before every later one. A no-op without the race
    /// probe. Use this where synchronization flows through host-side
    /// state the probe cannot see (e.g. the kvmsr reduce-completion
    /// poll, SHT owner-lane tables); see `docs/udrace.md` for the token
    /// conventions.
    pub fn race_order(&mut self, token: u64) {
        if let (Some(rp), Some(r)) = (&self.shared.cfg.race, &mut self.race) {
            rp.order_token(r, self.lane, token);
        }
    }

    /// Scratchpad load (1 cycle), word-addressed. Out-of-bounds panics —
    /// unless the sanitizer is on, which diagnoses and reads zero.
    pub fn spm_read(&mut self, off: u32) -> u64 {
        self.spm_read_class(off, false)
    }

    /// As [`Self::spm_read`], annotated atomic-class for race detection:
    /// the load side of a read-modify-write the lane serializes by design
    /// (e.g. the combining cache's fetch-and-add slots). Atomic-class
    /// accesses order instead of racing; see `docs/udrace.md`.
    pub fn spm_read_atomic(&mut self, off: u32) -> u64 {
        self.spm_read_class(off, true)
    }

    fn spm_read_class(&mut self, off: u32, atomic: bool) -> u64 {
        if self.shared.cfg.sanitize && off >= self.shared.cfg.spm_words {
            self.spm_oob_diag("spm_read", off);
            self.cost += self.shared.cfg.costs.spd_access;
            return 0;
        }
        assert!(off < self.shared.cfg.spm_words, "scratchpad overflow");
        self.cost += self.shared.cfg.costs.spd_access;
        self.spm_race(off, atomic, false);
        let idx = self.local_lane_idx();
        self.shard.lanes[idx].spm.read(off)
    }

    /// Scratchpad store (1 cycle), word-addressed. Out-of-bounds panics —
    /// unless the sanitizer is on, which diagnoses and drops the store.
    pub fn spm_write(&mut self, off: u32, v: u64) {
        self.spm_write_class(off, v, false)
    }

    /// As [`Self::spm_write`], annotated atomic-class for race detection:
    /// the store side of a lane-serialized read-modify-write. See
    /// [`Self::spm_read_atomic`].
    pub fn spm_write_atomic(&mut self, off: u32, v: u64) {
        self.spm_write_class(off, v, true)
    }

    fn spm_write_class(&mut self, off: u32, v: u64, atomic: bool) {
        if self.shared.cfg.sanitize && off >= self.shared.cfg.spm_words {
            self.spm_oob_diag("spm_write", off);
            self.cost += self.shared.cfg.costs.spd_access;
            return;
        }
        assert!(off < self.shared.cfg.spm_words, "scratchpad overflow");
        self.cost += self.shared.cfg.costs.spd_access;
        self.spm_race(off, atomic, true);
        let idx = self.local_lane_idx();
        self.shard.lanes[idx].spm.write(off, v);
    }

    /// Raw bump-allocate `words` of this lane's scratchpad (spMalloc's
    /// backing primitive). Panics when the scratchpad is exhausted —
    /// unless the sanitizer is on, which diagnoses and refuses the bump.
    pub fn spm_alloc(&mut self, words: u32) -> u32 {
        let idx = self.local_lane_idx();
        let base = self.shard.lanes[idx].spm_brk;
        if self.shared.cfg.sanitize && base + words > self.shared.cfg.spm_words {
            if let Some(p) = &self.shared.cfg.probe {
                let (lane, spm_words) = (self.lane, self.shared.cfg.spm_words);
                p.diag(
                    DiagKind::ScratchpadExhausted,
                    self.msg.dst.label().0,
                    words as u64,
                    self.shard.now,
                    lane,
                    || {
                        format!(
                            "'{}': spm_alloc({words}) exhausts the scratchpad on lane \
                             {lane} ({base} + {words} > {spm_words})",
                            self.event_name
                        )
                    },
                );
            }
            return base;
        }
        assert!(
            base + words <= self.shared.cfg.spm_words,
            "spMalloc: scratchpad exhausted on lane {} ({} + {} > {})",
            self.lane,
            base,
            words,
            self.shared.cfg.spm_words
        );
        self.shard.lanes[idx].spm_brk += words;
        if let Some(p) = &self.shared.cfg.probe {
            let brk = self.shard.lanes[idx].spm_brk;
            p.spm_alloc_rec(self.msg.dst.label().0, self.created_by, words, self.lane, brk);
        }
        base
    }

    // ---- control ------------------------------------------------------------

    /// Charge additional compute cycles (loop bodies, arithmetic).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cost += cycles;
    }

    /// End this event and deallocate the thread (`yield_terminate`).
    /// Calling it twice in one event is idempotent but almost certainly a
    /// bug; the protocol probe diagnoses it.
    pub fn yield_terminate(&mut self) {
        if self.terminated {
            if let Some(p) = &self.shared.cfg.probe {
                p.diag(
                    DiagKind::DoubleTerminate,
                    self.msg.dst.label().0,
                    self.tid.0 as u64,
                    self.shard.now,
                    self.lane,
                    || format!("'{}' called yield_terminate twice in one event", self.event_name),
                );
            }
        }
        self.terminated = true;
    }

    /// Stop the whole simulation after this event completes. Other shards
    /// finish the current conservative window (deterministically), then
    /// the scheduler halts and drains in-flight memory effects.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Whether `[PRINT]` tracing is enabled. Lets handlers skip building
    /// trace strings entirely when nobody is listening.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shard.trace.is_some()
    }

    /// Emit a BASIM_PRINT-style trace line (if tracing is enabled).
    ///
    /// The `text` argument is formatted by the *caller*; when it is
    /// expensive to build, prefer [`EventCtx::print_with`] so disabled
    /// tracing does zero string work.
    pub fn print(&mut self, text: &str) {
        if self.shard.trace.is_some() {
            let line = format!(
                "[PRINT] {}: [NWID {}][TID {}][{}] {}",
                self.shard.now, self.lane, self.tid.0, self.event_name, text
            );
            self.shard.trace_line(line);
        }
    }

    /// Lazily formatted [`EventCtx::print`]: the closure runs only when
    /// tracing is enabled, so the disabled-tracing fast path is a single
    /// `Option` discriminant check — no formatting, no allocation.
    #[inline]
    pub fn print_with<F: FnOnce() -> String>(&mut self, f: F) {
        if self.shard.trace.is_some() {
            let text = f();
            self.print(&text);
        }
    }

    // ---- observability (all zero-cost: never charges cycles) ---------------

    /// Open a named phase span at the current tick (e.g. a KVMSR map
    /// phase). Spans nest and repeat freely; [`crate::Metrics::phase_cycles`]
    /// accumulates same-named spans. Free — charges no cycles.
    pub fn phase_begin(&mut self, name: &str) {
        self.shard.phase_begin(name);
    }

    /// Close the most recent open phase span with this name. A close
    /// without a matching open is ignored. Free — charges no cycles.
    pub fn phase_end(&mut self, name: &str) {
        self.shard.phase_end(name);
    }

    /// Add `delta` to a named custom counter reported in
    /// [`crate::Metrics::custom`]. Summed across shards. Free — charges no
    /// cycles.
    pub fn bump(&mut self, name: &'static str, delta: u64) {
        *self.shard.custom_add.entry(name).or_insert(0) += delta;
    }

    /// Raise a named custom high-water mark to at least `value`.
    /// Max-merged across shards. Free — charges no cycles.
    pub fn peak(&mut self, name: &'static str, value: u64) {
        let e = self.shard.custom_peak.entry(name).or_insert(0);
        *e = (*e).max(value);
    }

    /// Sample a running counter into the event trace (rendered as a
    /// Chrome-trace counter track). No-op unless event tracing is on;
    /// free — charges no cycles.
    pub fn trace_counter_add(&mut self, name: &'static str, delta: i64) {
        let now = self.shard.now;
        if let Some(tr) = &mut self.shard.tracer {
            tr.counter_add(name, delta, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use std::sync::{Arc, Mutex};

    fn tiny() -> MachineConfig {
        MachineConfig::small(2, 2, 4)
    }

    #[test]
    fn host_state_hooks_rewind_with_snapshot() {
        let mut eng = Engine::new(tiny());
        let cell: Arc<Mutex<u64>> = Arc::default();
        eng.host_state_cell(&cell);
        *cell.lock().unwrap() = 7;
        let snap = eng.snapshot();
        *cell.lock().unwrap() = 99;
        eng.restore(&snap).unwrap();
        assert_eq!(*cell.lock().unwrap(), 7, "hooked cell must rewind");

        // A snapshot taken before a hook was registered cannot feed it.
        let late: Arc<Mutex<u64>> = Arc::default();
        eng.host_state_cell(&late);
        assert!(
            matches!(eng.restore(&snap), Err(SnapshotError::Incompatible(_))),
            "hook-count mismatch must be a clean error"
        );
    }

    #[test]
    fn call_return_composition() {
        // Listing 2 of the paper: e1 -> e2 (new thread, next lane) -> e3 (back).
        let mut eng = Engine::new(tiny());
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();

        let l3 = {
            let log = log.clone();
            eng.register(
                "e3",
                Arc::new(move |ctx: &mut EventCtx| {
                    log.lock().unwrap().push("e3");
                    ctx.yield_terminate();
                }),
            )
        };
        let l2 = {
            let log = log.clone();
            eng.register(
                "e2",
                Arc::new(move |ctx: &mut EventCtx| {
                    log.lock().unwrap().push("e2");
                    assert_eq!(ctx.args(), &[0, 1]);
                    ctx.send_reply([]);
                    ctx.yield_terminate();
                }),
            )
        };
        let l1 = {
            let log = log.clone();
            eng.register(
                "e1",
                Arc::new(move |ctx: &mut EventCtx| {
                    log.lock().unwrap().push("e1");
                    let evw = EventWord::new(ctx.nwid().next(), l2);
                    let ct = ctx.self_event(l3);
                    ctx.send_event(evw, [0, 1], ct);
                }),
            )
        };

        eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
        let report = eng.run();
        assert_eq!(&*log.lock().unwrap(), &["e1", "e2", "e3"]);
        assert_eq!(report.stats.events_executed, 3);
        assert_eq!(report.stats.threads_created, 2);
        assert_eq!(report.stats.threads_terminated, 2);
    }

    #[test]
    fn cost_model_exact() {
        // One event: dispatch(2) + send_msg(2) + yield(1) = 5 cycles busy.
        let mut eng = Engine::new(tiny());
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        let l1 = eng.register(
            "one_send",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(ctx.nwid().next(), sink);
                ctx.send_event(w, [], EventWord::IGNORE);
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
        let r = eng.run();
        // Event 1: starts t=0, cost = 2 (dispatch) + 2 (send) + 1 (dealloc) = 5.
        // Message departs t=5, intra-accel latency 4, arrives t=9.
        // Event 2: cost 2 + 1 = 3, finishes t=12.
        assert_eq!(r.final_tick, 12);
        assert_eq!(r.total_busy, 5 + 3);
    }

    #[test]
    fn inter_node_latency_applies() {
        let cfg = tiny();
        let lanes_per_node = cfg.lanes_per_node();
        let mut eng = Engine::new(cfg);
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        let l1 = eng.register(
            "cross",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(NetworkId(lanes_per_node), sink); // node 1
                ctx.send_event(w, [], EventWord::IGNORE);
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
        let r = eng.run();
        // depart t=5 via NIC (72 bytes / 2048 per cycle -> 1 cycle) = 6,
        // + 1000 latency = arrives 1006, runs 3 cycles.
        assert_eq!(r.final_tick, 1009);
        assert_eq!(r.stats.msgs_inter_node, 1);
    }

    #[test]
    fn dram_read_roundtrip_with_latency() {
        let mut eng = Engine::new(tiny());
        eng.mem_mut().min_block = 64;
        let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        eng.mem_mut().write_words(a, &[10, 20, 30]).unwrap();

        let got: Arc<Mutex<Vec<u64>>> = Arc::default();
        let got2 = got.clone();
        let ret = eng.register(
            "ret",
            Arc::new(move |ctx: &mut EventCtx| {
                got2.lock().unwrap().extend_from_slice(ctx.args());
                ctx.yield_terminate();
            }),
        );
        let start = eng.register(
            "start",
            Arc::new(move |ctx: &mut EventCtx| {
                let a = VAddr(ctx.arg(0));
                ctx.send_dram_read(a, 3, ret);
            }),
        );
        eng.send(EventWord::new(NetworkId(0), start), [a.0], EventWord::IGNORE);
        let r = eng.run();
        assert_eq!(&*got.lock().unwrap(), &[10, 20, 30]);
        // Issue done t = 2+2+1 = 5; request hop 30; channel: 64B at 4700B/cy
        // = 1 cycle + 200 latency => served at 5+30+1+200 = 236; return hop 30
        // => arrives 266; handler runs 3 cycles (2+1).
        assert_eq!(r.final_tick, 269);
        assert_eq!(r.stats.dram_reads, 1);
    }

    #[test]
    fn calendar_payload_sizes_are_pinned() {
        // The calendar arena holds one `Action` per pending entry; both
        // sizes feed straight into peak RSS (docs/perf.md).
        assert_eq!(std::mem::size_of::<Message>(), 72);
        assert!(std::mem::size_of::<Action>() <= 112);
        // An in-flight DRAM operation's race context rides inside `Action`
        // on every run, probe or not.
        assert!(std::mem::size_of::<RaceAccess>() <= 24);
    }

    /// Pause with a spilled (6-operand) message and a tagged 8-word DRAM
    /// reply (9 operands) in flight. The serialized snapshot is pinned as
    /// its FNV-1a hash — the `updown-snapshot/v2` layout must not move
    /// unnoticed — and restoring it must re-encode and resume identically.
    #[test]
    fn long_operands_in_flight_snapshot_in_the_v2_layout() {
        type Seen = Arc<Mutex<Vec<Vec<u64>>>>;
        fn build() -> (Engine, Seen) {
            let mut eng = Engine::new(tiny());
            let va = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
            eng.mem_mut()
                .write_words(va, &[11, 12, 13, 14, 15, 16, 17, 18])
                .unwrap();
            let seen: Seen = Arc::default();
            let seen2 = seen.clone();
            let sink = eng.register(
                "sink",
                Arc::new(move |ctx: &mut EventCtx| {
                    seen2.lock().unwrap().push(ctx.args().to_vec());
                    ctx.yield_terminate();
                }),
            );
            let tick = eng.register(
                "tick",
                Arc::new(|ctx: &mut EventCtx| match ctx.arg(0) {
                    0 => ctx.yield_terminate(),
                    n => ctx.send_event(ctx.cur_evw(), [n - 1], EventWord::IGNORE),
                }),
            );
            let kick = eng.register(
                "kick",
                Arc::new(move |ctx: &mut EventCtx| {
                    let far = EventWord::new(NetworkId(1), sink);
                    ctx.send_event_after(100_000, far, [1, 2, 3, 4, 5, 6], EventWord::IGNORE);
                    ctx.send_dram_read_tagged(va, 8, sink, 0x7A6);
                    ctx.send_event(EventWord::new(NetworkId(2), tick), [200], EventWord::IGNORE);
                }),
            );
            eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
            (eng, seen)
        }
        fn in_flight(eng: &Engine) -> (bool, bool) {
            let pending = || eng.shards.iter().flat_map(|c| c.arena.slots.iter().flatten());
            (
                pending().any(|a| matches!(a, Action::Deliver(m) if m.args.len() == 6)),
                pending().any(|a| {
                    matches!(a, Action::MemDone { resp: MemResp { reply: Some(m), .. }, .. }
                        if m.args.len() == 9)
                }),
            )
        }

        let (mut eng, seen) = (1..400)
            .map(|limit| {
                let (mut eng, seen) = build();
                eng.set_event_limit(limit);
                eng.run();
                (eng, seen)
            })
            .find(|(eng, _)| in_flight(eng) == (true, true))
            .expect("some pause point has both payloads in flight");
        let bytes = eng.snapshot_bytes().unwrap();
        assert_eq!(
            snapshot::fnv1a(&bytes),
            0x03DE_A260_FC74_9550,
            "updown-snapshot/v2 bytes moved"
        );

        let (mut eng2, seen2) = build();
        eng2.restore_snapshot_bytes(&bytes).unwrap();
        assert_eq!(in_flight(&eng2), (true, true));
        assert_eq!(eng2.snapshot_bytes().unwrap(), bytes);

        eng.set_event_limit(u64::MAX);
        eng2.set_event_limit(u64::MAX);
        assert_eq!(eng.run().to_json(), eng2.run().to_json());
        let want = vec![
            vec![11, 12, 13, 14, 15, 16, 17, 18, 0x7A6],
            vec![1, 2, 3, 4, 5, 6],
        ];
        assert_eq!(*seen.lock().unwrap(), want);
        assert_eq!(*seen2.lock().unwrap(), want);
    }

    #[test]
    fn dram_write_and_ack() {
        let mut eng = Engine::new(tiny());
        let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        let acked: Arc<Mutex<u32>> = Arc::default();
        let acked2 = acked.clone();
        let ack = eng.register(
            "ack",
            Arc::new(move |ctx: &mut EventCtx| {
                *acked2.lock().unwrap() += 1;
                ctx.yield_terminate();
            }),
        );
        let start = eng.register(
            "start",
            Arc::new(move |ctx: &mut EventCtx| {
                let a = VAddr(ctx.arg(0));
                ctx.send_dram_write(a.word(2), &[99], Some(ack));
            }),
        );
        eng.send(EventWord::new(NetworkId(0), start), [a.0], EventWord::IGNORE);
        eng.run();
        assert_eq!(*acked.lock().unwrap(), 1);
        assert_eq!(eng.mem().read_u64(a.word(2)).unwrap(), 99);
    }

    #[test]
    fn thread_state_persists_across_events() {
        #[derive(Clone, Default)]
        struct Acc {
            sum: u64,
            n: u64,
        }
        let mut eng = Engine::new(tiny());
        let done: Arc<Mutex<u64>> = Arc::default();
        let done2 = done.clone();
        // The thread accumulates across three events of itself, self-sending
        // follow-ups (same thread context, state preserved by yield).
        let step = eng.register(
            "step",
            Arc::new(move |ctx: &mut EventCtx| {
                let v = ctx.arg(0);
                let acc = ctx.state_mut::<Acc>();
                acc.sum += v;
                acc.n += 1;
                if acc.n == 3 {
                    let sum = acc.sum;
                    *done2.lock().unwrap() = sum;
                    ctx.yield_terminate();
                } else {
                    let me = ctx.cur_evw();
                    ctx.send_event(me, [v + 1], EventWord::IGNORE);
                }
            }),
        );
        eng.send(EventWord::new(NetworkId(1), step), [5], EventWord::IGNORE);
        eng.run();
        assert_eq!(*done.lock().unwrap(), 5 + 6 + 7);
    }

    #[test]
    fn lane_serializes_events() {
        // Two messages to the same lane: second starts after first ends.
        let mut eng = Engine::new(tiny());
        let times: Arc<Mutex<Vec<u64>>> = Arc::default();
        let t2 = times.clone();
        let busy = eng.register(
            "busy",
            Arc::new(move |ctx: &mut EventCtx| {
                t2.lock().unwrap().push(ctx.now());
                ctx.charge(100);
                ctx.yield_terminate();
            }),
        );
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(NetworkId(2), busy);
                ctx.send_event(w, [], EventWord::IGNORE);
                ctx.send_event(w, [], EventWord::IGNORE);
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        eng.run();
        let ts = times.lock().unwrap();
        assert_eq!(ts.len(), 2);
        // First event takes 2 + 100 + 1 = 103 cycles.
        assert_eq!(ts[1] - ts[0], 103);
    }

    #[test]
    fn stop_halts_simulation() {
        let mut eng = Engine::new(tiny());
        let spin = eng.register(
            "spin",
            Arc::new(move |ctx: &mut EventCtx| {
                let me = ctx.cur_evw();
                if ctx.now() > 10_000 {
                    ctx.stop();
                } else {
                    ctx.send_event(me, [], EventWord::IGNORE);
                }
            }),
        );
        eng.send(EventWord::new(NetworkId(0), spin), [], EventWord::IGNORE);
        let r = eng.run();
        assert!(r.final_tick > 10_000);
        assert!(r.final_tick < 20_000);
    }

    #[test]
    fn event_limit_guards_runaway() {
        let mut eng = Engine::new(tiny());
        let spin = eng.register(
            "spin",
            Arc::new(move |ctx: &mut EventCtx| {
                let me = ctx.cur_evw();
                ctx.send_event(me, [], EventWord::IGNORE);
            }),
        );
        eng.set_event_limit(50);
        eng.send(EventWord::new(NetworkId(0), spin), [], EventWord::IGNORE);
        let r = eng.run();
        assert_eq!(r.stats.events_executed, 50);
    }

    #[test]
    fn thread_table_full_parks_and_resumes() {
        let mut cfg = tiny();
        cfg.max_threads_per_lane = 2;
        let mut eng = Engine::new(cfg);
        let ran: Arc<Mutex<u32>> = Arc::default();
        let ran2 = ran.clone();
        // Each hold thread waits for a poke before terminating.
        let poke = eng.register(
            "poke",
            Arc::new(move |ctx: &mut EventCtx| {
                *ran2.lock().unwrap() += 1;
                ctx.yield_terminate();
            }),
        );
        let hold = eng.register(
            "hold",
            Arc::new(move |ctx: &mut EventCtx| {
                // Self-poke after a while: second event of same thread.
                let me = ctx.self_event(poke);
                ctx.charge(50);
                ctx.send_event(me, [], EventWord::IGNORE);
            }),
        );
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(NetworkId(1), hold);
                for _ in 0..4 {
                    ctx.send_event(w, [], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        let r = eng.run();
        assert_eq!(*ran.lock().unwrap(), 4, "all four threads eventually ran");
        assert!(r.stats.thread_table_stalls > 0);
    }

    #[test]
    fn determinism() {
        fn run_once() -> (u64, u64) {
            let mut eng = Engine::new(tiny());
            let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
            let fan = eng.register(
                "fan",
                Arc::new(move |ctx: &mut EventCtx| {
                    let n = ctx.config().total_lanes();
                    for i in 0..n {
                        ctx.send_event(
                            EventWord::new(NetworkId(i), sink),
                            [i as u64],
                            EventWord::IGNORE,
                        );
                    }
                    ctx.yield_terminate();
                }),
            );
            eng.send(EventWord::new(NetworkId(0), fan), [], EventWord::IGNORE);
            let r = eng.run();
            (r.final_tick, r.stats.events_executed)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn trace_lines_have_artifact_shape() {
        let mut eng = Engine::new(tiny());
        eng.enable_trace();
        let hello = eng.register(
            "updown_init",
            Arc::new(|ctx: &mut EventCtx| {
                ctx.print("initialization done");
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), hello), [], EventWord::IGNORE);
        eng.run();
        let t = eng.trace();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains("[NWID 0]"));
        assert!(t[0].contains("[updown_init]"));
        assert!(t[0].contains("initialization done"));
    }

    #[test]
    fn fetch_add_f64_returns_old() {
        let mut eng = Engine::new(tiny());
        let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        eng.mem_mut().write_f64(a, 1.5).unwrap();
        let old: Arc<Mutex<f64>> = Arc::default();
        let old2 = old.clone();
        let ret = eng.register(
            "ret",
            Arc::new(move |ctx: &mut EventCtx| {
                *old2.lock().unwrap() = ctx.argf(0);
                ctx.yield_terminate();
            }),
        );
        let go = eng.register(
            "go",
            Arc::new(move |ctx: &mut EventCtx| {
                ctx.dram_fetch_add_f64(VAddr(ctx.arg(0)), 2.25, Some(ret), None);
            }),
        );
        eng.send(EventWord::new(NetworkId(0), go), [a.0], EventWord::IGNORE);
        eng.run();
        assert_eq!(*old.lock().unwrap(), 1.5);
        assert_eq!(eng.mem().read_f64(a).unwrap(), 3.75);
    }

    #[test]
    fn peak_calendar_counts_logical_pending_entries() {
        // Part 1: exact peak for a known program. The kick event posts
        // three timers landing in all three physical structures of the
        // bucketed calendar: same-window ring, near-future ring, and the
        // far-future overflow rung. All three count while pending.
        let mut eng = Engine::new(tiny());
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(ctx.nwid().next(), sink);
                ctx.send_event_after(0, w, [], EventWord::IGNORE);
                ctx.send_event_after(10, w, [], EventWord::IGNORE);
                ctx.send_event_after(5000, w, [], EventWord::IGNORE);
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        let r = eng.run();
        // Peak: the three Deliver entries pending together after the kick
        // (deliveries arrive at distinct ticks; a LaneRun replaces each
        // popped Deliver, never exceeding three).
        assert_eq!(r.stats.peak_calendar, 3);

        // Part 2: parked messages and inbox backlogs are NOT calendar
        // entries. Three creations race to a lane with one hardware
        // context: two park, yet the peak stays the same three Delivers.
        let mut cfg = tiny();
        cfg.max_threads_per_lane = 1;
        let mut eng = Engine::new(cfg);
        let hold = eng.register("hold", Arc::new(|_: &mut EventCtx| {}));
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                let w = EventWord::new(ctx.nwid().next(), hold);
                for _ in 0..3 {
                    ctx.send_event(w, [], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        let r = eng.run();
        assert_eq!(r.stats.thread_table_stalls, 2, "two creations parked");
        assert_eq!(
            r.stats.peak_calendar, 3,
            "parked/inbox messages must not count as calendar entries"
        );
    }

    /// A program touching every traced subsystem — fan-out messages
    /// (local + remote), DRAM write/read, phases, custom and sampled
    /// counters, `[PRINT]` lines — run with and without tracing.
    fn observed_run_with(print_trace: bool, event_trace: bool) -> Engine {
        let mut eng = Engine::new(tiny());
        if print_trace {
            eng.enable_trace();
        }
        if event_trace {
            eng.enable_event_trace();
        }
        let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        // DRAM responses come back to the issuing thread: count both
        // (write ack + read data) before terminating.
        let fin = eng.register(
            "fin",
            Arc::new(|ctx: &mut EventCtx| {
                let n = ctx.state_mut::<u64>();
                *n += 1;
                if *n == 2 {
                    ctx.trace_counter_add("inflight", -1);
                    ctx.phase_end("io");
                    ctx.yield_terminate();
                }
            }),
        );
        let go = eng.register(
            "go",
            Arc::new(move |ctx: &mut EventCtx| {
                ctx.phase_begin("io");
                ctx.bump("kicks", 1);
                ctx.trace_counter_add("inflight", 1);
                let from = ctx.nwid().0;
                ctx.print_with(|| format!("fan-out from lane {from}"));
                let n = ctx.config().total_lanes();
                for i in 0..n {
                    ctx.send_event(
                        EventWord::new(NetworkId(i), sink),
                        [i as u64],
                        EventWord::IGNORE,
                    );
                }
                ctx.send_dram_write(VAddr(a.0), &[7], Some(fin));
                ctx.send_dram_read(VAddr(a.0), 1, fin);
            }),
        );
        eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        eng.run();
        eng
    }

    fn observed_run(traced: bool) -> Engine {
        observed_run_with(false, traced)
    }

    #[test]
    fn event_trace_has_zero_observer_effect() {
        let off = observed_run(false);
        let on = observed_run(true);
        assert!(off.event_trace().is_empty());
        assert!(!on.event_trace().is_empty());
        // Byte-identical metrics: same ticks, counters, phases, custom.
        assert_eq!(off.metrics().to_json(), on.metrics().to_json());
    }

    #[test]
    fn tracing_never_changes_peak_calendar() {
        // Observer-effect guard for the trace fast path: enabling either
        // trace kind (or both) must leave every metric — `peak_calendar`
        // in particular — byte-identical to the untraced run.
        let off = observed_run_with(false, false);
        let base = off.metrics();
        for (print_trace, event_trace) in [(true, false), (false, true), (true, true)] {
            let on = observed_run_with(print_trace, event_trace);
            assert_eq!(
                base.stats.peak_calendar,
                on.metrics().stats.peak_calendar,
                "peak_calendar changed under tracing ({print_trace}, {event_trace})"
            );
            assert_eq!(base.to_json(), on.metrics().to_json());
            if print_trace {
                assert!(!on.trace().is_empty(), "print trace recorded");
            }
        }
    }

    #[test]
    fn event_trace_covers_all_subsystems() {
        let eng = observed_run(true);
        let evs = eng.event_trace();
        let mut execs = 0;
        let mut msgs = 0;
        let mut drams = 0;
        let mut counters = 0;
        let mut links = 0;
        for e in evs {
            match e {
                TraceEvent::Exec { start, end, .. } => {
                    assert!(start <= end);
                    execs += 1;
                }
                TraceEvent::MsgTransit { depart, arrive, .. } => {
                    assert!(depart < arrive);
                    msgs += 1;
                }
                TraceEvent::Dram { .. } => drams += 1,
                TraceEvent::Counter { .. } => counters += 1,
                TraceEvent::Link { .. } => links += 1,
            }
        }
        // go + 16 sinks + dram ack + dram data, at least.
        assert!(execs >= 18, "execs = {execs}");
        assert!(msgs >= 16, "msgs = {msgs}");
        assert_eq!(drams, 6, "2 transactions x 3 stages");
        assert_eq!(counters, 2);
        assert!(links >= 1, "cross-node traffic records link traversals");
        assert_eq!(eng.phases().len(), 1);
        assert!(!eng.phases()[0].is_open());
    }

    /// A 4-node program exercising cross-node messages, remote DRAM, and
    /// phases; used to compare thread counts.
    fn scheduler_probe(threads: u32) -> (String, u64, u64) {
        let mut cfg = MachineConfig::small(4, 2, 4);
        cfg.threads = threads;
        let lanes_per_node = cfg.lanes_per_node();
        let mut eng = Engine::new(cfg);
        let a = eng.mem_mut().alloc(1 << 14, 0, 4, 4096).unwrap();
        let bounce = eng.register(
            "bounce",
            Arc::new(move |ctx: &mut EventCtx| {
                let hops = ctx.arg(0);
                ctx.dram_fetch_add_u64(VAddr(ctx.arg(1)).word(hops % 64), 1, None, None);
                if hops > 0 {
                    let next = (ctx.nwid().0 + lanes_per_node + 1)
                        % ctx.config().total_lanes();
                    let w = EventWord::new(NetworkId(next), ctx.msg.dst.label());
                    ctx.send_event(w, [hops - 1, ctx.arg(1)], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        eng.phase_begin("bounce");
        for l in 0..4 {
            eng.send(
                EventWord::new(NetworkId(l * lanes_per_node), bounce),
                [12, a.0],
                EventWord::IGNORE,
            );
        }
        let m = eng.run();
        eng.phase_end("bounce");
        let sum: u64 = (0..64)
            .map(|i| eng.mem().read_u64(a.word(i)).unwrap())
            .sum();
        (eng.metrics().to_json(), m.final_tick, sum)
    }

    #[test]
    fn parallel_is_byte_identical_to_sequential() {
        let seq = scheduler_probe(1);
        for threads in [2, 3, 4, 7] {
            let par = scheduler_probe(threads);
            assert_eq!(seq, par, "threads={threads} diverged from sequential");
        }
        // 4 initial sends x 13 bounce events each.
        assert_eq!(seq.2, 4 * 13);
    }

    #[test]
    fn windows_counter_reported() {
        let (json, _, _) = scheduler_probe(2);
        assert!(json.contains("\"windows\":"));
        let m: crate::json::JsonValue = crate::json::JsonValue::parse(&json).unwrap();
        let w = m.get("counters").unwrap().get("windows").unwrap().as_u64().unwrap();
        assert!(w > 0, "cross-node run must take at least one window");
    }

    /// One shard ticks through many windows while three sit idle — the
    /// shape under which a window used to be run without a barrier round
    /// of its own. Every window is a barrier round.
    #[test]
    fn every_window_is_a_barrier_round() {
        let mut cfg = MachineConfig::small(4, 1, 2);
        cfg.threads = 2;
        let mut eng = Engine::new(cfg);
        let gap = 3 * eng.lookahead();
        let tick = eng.register(
            "tick",
            Arc::new(move |ctx: &mut EventCtx| {
                if ctx.arg(0) > 0 {
                    ctx.send_event_after(gap, ctx.msg.dst, [ctx.arg(0) - 1], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), tick), [20], EventWord::IGNORE);
        let m = eng.run();
        assert_eq!(m.stats.events_executed, 21);
        assert!(m.stats.windows >= 21, "each tick lands in a window of its own");
        assert_eq!(m.stats.windows, m.host_sched.barrier_rounds);
        assert_eq!(m.host_sched.batched_windows, 0);
    }

    #[test]
    fn message_conservation_on_completed_run() {
        let (json, _, _) = scheduler_probe(3);
        let m = crate::json::JsonValue::parse(&json).unwrap();
        let c = m.get("counters").unwrap();
        let total = c.get("total_msgs").unwrap().as_u64().unwrap();
        let delivered = c.get("msgs_delivered").unwrap().as_u64().unwrap();
        let dropped = c.get("msgs_dropped").unwrap().as_u64().unwrap();
        assert_eq!(total, delivered + dropped);
        assert_eq!(dropped, 0, "completed run drops nothing");
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_went_backwards_is_a_hard_error() {
        let mut eng = Engine::new(tiny());
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        eng.send(EventWord::new(NetworkId(0), sink), [], EventWord::IGNORE);
        // A pending entry at t=0 with the clock forced ahead of it must be
        // rejected as a causality violation, not silently reordered.
        eng.force_clock_for_test(1_000_000);
        eng.run();
    }
}
