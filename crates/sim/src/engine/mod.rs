//! The discrete-event engine: executes events on lanes under the Table-2
//! cost model, routes messages through the network model, and services DRAM
//! requests through per-node memory channels.
//!
//! # Sharded conservative-window execution
//!
//! The machine is partitioned into **shards, one per node**. Each shard
//! (`EngineCore`) owns its node's lanes, event calendar, NIC and memory
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
//! a window land at or beyond the horizon and are exchanged at the window
//! boundary through one cell per (source, destination, round parity).
//!
//! **Determinism:** shard count equals node count (fixed by the
//! [`MachineConfig`]), a destination drains its cells in source-shard
//! order, each in the order its source sent (the `(source shard, source
//! sequence)` merge, with nothing to sort), and [`MachineConfig::threads`]
//! only decides
//! how many OS threads walk the *same* window loop (one worker runs it
//! inline) — so the merged event order, every counter, and every trace
//! span are byte-identical across thread counts.
//!
//! **One scheduling policy:** every window is one barrier round. Within
//! a round the workers claim shards through a shared cursor, heaviest
//! shard of the previous window first; there is nothing to configure.
//! See `docs/parallel-engine.md`.
//!
//! # Files
//!
//! | file | holds |
//! |---|---|
//! | `core.rs` | one shard (`EngineCore`): pending-event slab and its observer side table, `window`, `dispatch`, `lane_run`, the fabric/DRAM paths, and the types they share (`Shared`, [`EventCtx`]'s fields, the cross-shard buffers and the exchange cells they travel in, the recording structs) |
//! | `ctx.rs` | the handler-facing API: `impl EventCtx` |
//! | `sched.rs` | the window loop: exchange drain and flush, barrier, control block, `worker_loop`, `run_rounds` |
//! | `codec.rs` | both snapshot tiers: [`Snapshot`], the `updown-snapshot/v2` body codecs, and `Engine`'s snapshot/restore/checkpoint methods |
//! | `replay.rs` | the recording of one scheduler invocation and its single-shard replay |
//! | `mod.rs` | [`Engine`]: construction, registration, `run`, metrics roll-up |
//! | `tests.rs` | the unit tests (`engine::tests::*`), which drive whole engines |
//!
//! Dependencies run one way: `core` imports none of its siblings; `ctx`,
//! `sched`, `codec` and `replay` import `core` (and `replay` the
//! [`Snapshot`] type); only this file sees all of them. `codec` and
//! `replay` add `impl Engine` blocks, so they also name `super::Engine`.

mod codec;
mod core;
mod ctx;
mod replay;
mod sched;

pub use self::codec::Snapshot;
pub use self::core::{EventCtx, Handler, ShardSlot, TableSlot};

use std::collections::BTreeMap;
use std::sync::Arc;

use self::codec::{refuse_restore, StateCodecs};
use self::core::{shard_value, Action, ActionArena, EngineCore, Exchange, HandlerEntry, Shared, Table};
use self::sched::{run_rounds, settle};
use crate::calendar::CalendarQueue;
use crate::config::{MachineConfig, LINK_BYTES_PER_CYCLE};
use crate::ids::{EventLabel, EventWord, NetworkId};
use crate::lane::Lane;
use crate::memory::{GlobalMemory, MemChannel};
use crate::message::{Message, Operands};
use crate::network::{Fabric, Nics, Topology};
use crate::probe::ProtocolRecord;
use crate::snapshot::{self, SnapHeader};
use crate::stats::{
    Counters, FabricMetrics, HostCalendarStats, HostSchedStats, LaneMetrics, LinkMetrics, Metrics,
    NodeMetrics, SchedMetrics, UTIL_HIST_BUCKETS,
};
use crate::trace::{ChromeTrace, PhaseSpan, TraceEvent, Tracer};

/// Number of lanes in the [`Metrics::hot_lanes`] report.
const HOT_LANES_TOP_K: usize = 8;

/// Number of links in the [`FabricMetrics::top_links`] report.
const FABRIC_TOP_LINKS: usize = 16;

/// The simulator.
pub struct Engine {
    shared: Shared,
    shards: Vec<EngineCore>,
    /// The cross-shard exchange cells; drained between runs.
    exchange: Exchange,
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
    /// Trace events drained from the shard tracers after each run, in
    /// shard order.
    merged_trace: Vec<TraceEvent>,
    /// Registered thread-state codecs for the on-disk snapshot format.
    codecs: StateCodecs,
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

impl Engine {
    pub fn new(cfg: MachineConfig) -> Engine {
        cfg.check();
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
                state: Vec::new(),
                channel: MemChannel::new(&cfg.mem),
                nic: Nics::new(1, &cfg.net),
                fabric: Fabric::new(n_links, cfg.net.link_stat_window),
                stats: Counters::default(),
                stop: false,
                tracer: None,
                protocol: cfg.probe.is_some().then(Box::default),
                phases: Vec::new(),
                custom_add: BTreeMap::new(),
                custom_peak: BTreeMap::new(),
                last_completion: 0,
                handler_stats: Vec::new(),
                sent_seq: 0,
                outbox: Vec::new(),
                routes: Vec::new(),
                out_scratch: Vec::new(),
                record: None,
            })
            .collect();
        let lookahead = topo.min_transit().max(1);
        let mut eng = Engine {
            shared: Shared {
                cfg,
                mem,
                handlers: Vec::new(),
                tables: Vec::new(),
                topo,
                lookahead,
            },
            shards,
            exchange: Exchange::new(n as usize),
            event_limit: u64::MAX,
            windows: 0,
            sched_win_max_sum: 0,
            sched_win_max_peak: 0,
            host_sched: HostSchedStats::default(),
            merged_trace: Vec::new(),
            codecs: StateCodecs::default(),
            checkpoint_written: false,
            restore: RestoreSlot::Unloaded,
        };
        // `u64` is the one thread-state type the engine itself blesses
        // (plenty of tests and simple kernels use a bare counter).
        eng.register_state_codec::<u64>();
        eng
    }

    /// Declare a shard-state slot: one `T` per shard, defaulted at first
    /// touch and lent to handlers by [`EventCtx::shard_state`]. The engine
    /// owns the values, so snapshots, the checkpoint self-check and
    /// record-replay carry them with nothing to register. It is
    /// the home for whatever one lane, accelerator or master mutates;
    /// `docs/parallel-engine.md` says who may touch it.
    pub fn shard_slot<T: Default + Send + Clone + 'static>(&mut self) -> ShardSlot<T> {
        for s in &mut self.shards {
            s.state.push(None);
        }
        ShardSlot::new(self.shards[0].state.len() - 1)
    }

    /// Shard `shard`'s value for `slot`, `None` if nothing touched it yet.
    pub fn shard_state<T: 'static>(&self, slot: ShardSlot<T>, shard: u32) -> Option<&T> {
        let b = self.shards[shard as usize].state[slot.0 as usize].as_ref()?;
        Some(b.as_any().downcast_ref().expect("shard slot holds its own type"))
    }

    /// Host read-back: every touched shard's value for `slot`, in shard
    /// order — the order a fold (sum, max, concatenate) must use to be
    /// identical at every thread count.
    pub fn shard_states<T: 'static>(&self, slot: ShardSlot<T>) -> impl Iterator<Item = &T> {
        (0..self.shards.len() as u32).filter_map(move |k| self.shard_state(slot, k))
    }

    /// Host-side set-up access to one shard's value (between runs).
    pub fn shard_state_mut<T: Default + Send + Clone + 'static>(
        &mut self,
        slot: ShardSlot<T>,
        shard: u32,
    ) -> &mut T {
        shard_value(&mut self.shards[shard as usize].state[slot.0 as usize])
    }

    /// Add a program table: a value built at set-up that every handler
    /// reads through [`EventCtx::table`]. It changes only through
    /// [`Engine::table_mut`], i.e. between runs, and is deep-copied into
    /// every [`Snapshot`].
    pub fn table<T: Clone + Send + Sync + 'static>(&mut self, value: T) -> TableSlot<T> {
        self.shared.tables.push(Table::new(value));
        TableSlot::new(self.shared.tables.len() - 1)
    }

    pub fn table_ref<T: 'static>(&self, slot: TableSlot<T>) -> &T {
        self.shared.tables[slot.0 as usize].get()
    }

    pub fn table_mut<T: 'static>(&mut self, slot: TableSlot<T>) -> &mut T {
        self.shared.tables[slot.0 as usize].get_mut()
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
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
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
        let msg = Message::new(dst, args, cont, NetworkId(0));
        // Host sends are ordered with each other and after every prior
        // completed run; the executions they spawn stay mutually unordered.
        let clock = self.shared.cfg.race.as_ref().map(|rp| rp.host_send());
        let t = self.now();
        let node = self.shared.cfg.node_of(l);
        self.shards[node as usize].deliver(t, msg, clock);
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

    /// Enable the structured event trace (lane busy spans, message
    /// transits, DRAM stages, counters). Recording has **zero observer
    /// effect**: simulated cycle counts are byte-identical with tracing
    /// on or off. Export with [`Engine::take_chrome_trace`] or
    /// [`Engine::chrome_trace_json`].
    pub fn enable_event_trace(&mut self) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            if s.tracer.is_none() {
                s.tracer = Some(Tracer::with_id_base((i as u64) << 48));
            }
        }
    }

    /// Recorded trace events (empty when event tracing is disabled),
    /// merged in shard order after each run.
    pub fn event_trace(&self) -> &[TraceEvent] {
        &self.merged_trace
    }

    /// Phase spans recorded so far (open spans have `end == u64::MAX`):
    /// each shard's in shard order, stable-sorted by start time.
    fn merged_phases(&self) -> Vec<PhaseSpan> {
        let mut all: Vec<PhaseSpan> =
            self.shards.iter().flat_map(|s| s.phases.iter().cloned()).collect();
        all.sort_by_key(|p| p.start);
        all
    }

    /// Export the event trace in Chrome `trace_event` JSON format (open
    /// in `chrome://tracing` or Perfetto). Includes phase spans even when
    /// event tracing is disabled.
    pub fn chrome_trace_json(&self) -> String {
        let names: Vec<&str> = self.shared.handlers.iter().map(|h| h.name.as_str()).collect();
        crate::trace::chrome_trace_json(
            &self.merged_trace,
            &self.merged_phases(),
            &names,
            self.shared.cfg.lanes_per_node(),
            self.shared.cfg.clock_ghz,
            self.final_tick(),
        )
    }

    /// Move the recorded trace out, with what rendering it needs, and
    /// leave the engine's trace empty. Render it with
    /// [`ChromeTrace::write_to`] or [`ChromeTrace::to_json`]; the bytes
    /// are those [`Engine::chrome_trace_json`] returned before the move.
    pub fn take_chrome_trace(&mut self) -> ChromeTrace {
        ChromeTrace {
            phases: self.merged_phases(),
            names: self.shared.handlers.iter().map(|h| h.name.clone()).collect(),
            lanes_per_node: self.shared.cfg.lanes_per_node(),
            clock_ghz: self.shared.cfg.clock_ghz,
            final_tick: self.final_tick(),
            events: std::mem::take(&mut self.merged_trace),
        }
    }

    fn merged_counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.shards {
            c.merge_from(&s.stats);
        }
        c.windows = self.windows;
        c
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
    /// takes a checkpoint (see `Engine::checkpoint_boundary`). Results
    /// are byte-identical to an unsegmented run: a paused scheduler
    /// invocation folds all in-flight cross-shard entries back into the
    /// per-shard calendars, so segment boundaries are self-contained and
    /// the next segment recomputes the exact same window floors.
    ///
    /// Under [`MachineConfig::replay`] every segment (the whole run when
    /// nothing pauses it) is recorded, and each shard of it replayed alone
    /// before the run goes on; the verdicts go to the `ReplayCheck`.
    ///
    /// # Panics
    ///
    /// A [`MachineConfig::restore_path`] that cannot be read, or whose
    /// snapshot's window this run ends before, skips, or reaches in
    /// another state, panics with a [`SnapshotError`](crate::SnapshotError) payload
    /// (`std::panic::panic_any`): bad input a caller can tell from a bug.
    pub fn run(&mut self) -> Metrics {
        let _blocks = crate::message::ReleaseBlocks;
        for s in &mut self.shards {
            s.stop = false;
            s.handler_stats.resize(self.shared.handlers.len(), (0, 0));
        }
        if let RestoreSlot::Unloaded = self.restore {
            self.restore = match self.shared.cfg.restore_path.clone() {
                Some(path) => {
                    assert!(
                        self.shared.cfg.checkpoint_every != 0,
                        "restore_path requires checkpoint_every: the restored state is \
                         verified and installed at a checkpoint boundary"
                    );
                    let bytes = std::fs::read(&path)
                        .unwrap_or_else(|e| refuse_restore(format!("cannot read {}: {e}", path.display())));
                    let (header, body) = snapshot::unframe(&bytes)
                        .unwrap_or_else(|e| refuse_restore(format!("{}: {e}", path.display())));
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
        let workers = self.shared.cfg.threads.max(1) as usize;
        let stopped = loop {
            let start = self.start_recording();
            let out = run_rounds(
                &mut self.shards,
                &self.shared,
                &self.exchange,
                workers,
                self.event_limit,
                round_limit,
            );
            self.windows += out.rounds;
            self.sched_win_max_sum += out.win_max_sum;
            self.sched_win_max_peak = self.sched_win_max_peak.max(out.win_max_peak);
            self.host_sched.steals += out.steals;
            self.host_sched.idle_spins += out.idle_spins;
            self.host_sched.barrier_rounds += out.rounds;
            if let Some(start) = start {
                self.verify_recording(&start, self.windows - out.rounds..self.windows);
            }
            settle(&mut self.shards, &self.exchange, out.rounds);
            if !out.paused {
                break out.stopped;
            }
            self.checkpoint_boundary();
        };
        if let RestoreSlot::Pending { header, .. } = &self.restore {
            refuse_restore(format!(
                "the run ended at window {}, before the snapshot's window {}",
                self.windows, header.window
            ));
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
            // The shards' records merged in shard order, then the exit
            // sweep, taken afresh from the lanes.
            let mut record = ProtocolRecord::default();
            for r in self.shards.iter().flat_map(|s| &s.protocol) {
                record.merge(r);
            }
            let names = self.shared.handlers.iter().map(|h| h.name.clone()).collect();
            let live = self.shards.iter().flat_map(|s| &s.lanes);
            let live = live.flat_map(|lane| lane.threads.live_created_by());
            record.finish_run(names, drained, self.final_tick(), live);
            p.publish(record);
        }
        if let Some(rp) = &self.shared.cfg.race {
            let names = self.shared.handlers.iter().map(|h| h.name.clone()).collect();
            rp.finish_run(names, drained);
        }
        self.metrics()
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
                match core.arena.take(core.calendar.links_mut(), id) {
                    // A request not yet served: apply its effect (a read
                    // has none) and drop the reply.
                    Action::Mem { op, .. } => {
                        if op.is_write() {
                            op.apply(&self.shared.mem);
                        }
                    }
                    Action::Deliver(_) => core.stats.msgs_dropped += 1,
                    // A response's effect was applied at service time on
                    // the owning shard.
                    Action::MemDone { .. } => {}
                }
            }
        }
    }

    /// Merge the shards' trace events into the engine-level view, drained
    /// in shard order.
    fn collect_run_artifacts(&mut self) {
        // One reservation for the whole run's recording (exact on the
        // first run, amortized over later ones), then one copy of each
        // event; the shards' chunks are freed as they are drained.
        let recorded: usize = self.shards.iter().flat_map(|s| &s.tracer).map(Tracer::len).sum();
        self.merged_trace.reserve(recorded);
        for core in &mut self.shards {
            if let Some(tr) = &mut core.tracer {
                tr.drain_into(&mut self.merged_trace);
            }
        }
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
                dram_served_bytes: self.shards[n].channel.served_bytes,
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

        let mut phases = self.merged_phases();
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
                observer_tags: self.exchange.tag_capacity()
                    + self.shards.iter().map(EngineCore::tag_capacity).sum::<usize>(),
            },
        }
    }

    /// Roll the per-shard fabric counters up into [`FabricMetrics`]: sum
    /// the per-link byte/flit counters across shards, element-wise sum the
    /// per-link demand windows (a link's demand in a window is the total
    /// over every shard injecting into it) and take each link's peak.
    /// Every step is an exact integer sum, so the result is byte-identical
    /// across thread counts; each shard adds only the links it used.
    fn fabric_metrics(&self) -> FabricMetrics {
        let topo = &self.shared.topo;
        let links = topo.links();
        let mut sums: Vec<(u64, u64, Vec<u64>)> = vec![(0, 0, Vec::new()); links.len()];
        for t in self.shards.iter().flat_map(|s| s.fabric.used()) {
            let (bytes, flits, window_sum) = &mut sums[t.link.0 as usize];
            *bytes += t.bytes;
            *flits += t.flits;
            if window_sum.len() < t.demand.len() {
                window_sum.resize(t.demand.len(), 0);
            }
            for (w, v) in window_sum.iter_mut().zip(&t.demand) {
                *w += v;
            }
        }
        let mut per_link: Vec<LinkMetrics> = Vec::new();
        let mut link_bytes_total = 0u64;
        let mut peak_window_bytes = 0u64;
        for (l, (bytes, flits, window_sum)) in links.iter().zip(sums) {
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
            link_bytes_per_cycle: LINK_BYTES_PER_CYCLE,
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

    /// Force every shard clock to `t` — test hook for the
    /// time-went-backwards invariant. Not part of the public API.
    #[doc(hidden)]
    pub fn force_clock_for_test(&mut self, t: u64) {
        for s in &mut self.shards {
            s.now = t;
        }
    }
}

#[cfg(test)]
mod tests;
