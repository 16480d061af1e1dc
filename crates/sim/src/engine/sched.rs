//! The conservative window loop: the exchange drain and flush, the
//! barrier, the shared control block, and the workers that claim shards
//! round by round. One policy, nothing to configure.

use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use super::core::{EngineCore, Exchange, Sends, Shared, XBuf};

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
    /// Double-buffered floor accumulators, indexed by round parity:
    /// during round `r` every worker folds its shards' next-event times
    /// and flushed entry minima into `floor_acc[r % 2]`; the
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
    /// Shard execution order for the current round. With two or more
    /// workers: heaviest estimated cost first, so a skewed shard starts
    /// immediately instead of serializing behind lighter ones.
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
type ShardSlot<'a> = std::sync::Mutex<&'a mut EngineCore>; // det-lint: allow — uncontended: one claim per slot per round

/// Execute one shard's share of a round of parity `par`: drain what other
/// shards sent it last round, run the window, publish cross-shard output,
/// and fold the floor/imbalance accumulators.
fn run_shard_round(
    core: &mut EngineCore,
    ctl: &Ctl,
    ex: &Exchange,
    shared: &Shared,
    horizon: u64,
    budget: u64,
    par: usize,
) {
    core.record_begin_round(horizon, budget);
    core.drain_exchange(ex, 1 - par);
    let executed = core.window(shared, Sends::Exchange(ex, par), horizon, budget);
    if let Some(rp) = &shared.cfg.race {
        rp.end_window(core.id, ex.shards as u32);
    }
    if executed > 0 {
        ctl.events.fetch_add(executed, Relaxed);
    }
    let flushed_min = core.flush_outbox(ex, par);
    ctl.floor_acc[par].fetch_min(core.next_time().min(flushed_min), Relaxed);
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
    ex: &Exchange,
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
                // that the machine is paused, not finished. `settle`
                // folds in-flight entries back into the calendars, so the
                // paused state is self-contained.
                ctl.paused.store(true, Relaxed);
                ctl.horizon.store(u64::MAX, Relaxed);
            } else {
                ctl.rounds.fetch_add(1, Relaxed);
                // Re-sort the claim order: heaviest previous-round shard
                // first. Scheduling-only — results never depend on which
                // worker runs a shard, or when within the round. A lone
                // worker has nobody to balance against and keeps index
                // order, which walks the shards' memory in order
                // (`bfs_tc_torus` runs 6 % slower cost-ordered).
                if ctl.barrier.total > 1 {
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
        let par = (round % 2) as usize;
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
            run_shard_round(&mut core, ctl, ex, shared, horizon, budget, par);
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
/// construction. Entries still in flight stay in `ex` until [`settle`].
pub(super) fn run_rounds(
    shards: &mut [EngineCore],
    shared: &Shared,
    ex: &Exchange,
    workers: usize,
    event_limit: u64,
    round_limit: u64,
) -> RoundsOutcome {
    let n = shards.len();
    let workers = workers.min(n).max(1);
    let ctl = Ctl {
        barrier: SpinBarrier::new(workers),
        horizon: AtomicU64::new(0),
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
        let slots: Vec<ShardSlot<'_>> = shards.iter_mut().map(ShardSlot::new).collect();
        // Home ranges (sizes differ by at most one): the baseline a claim
        // is compared against to count as a steal.
        let home = |i: usize| {
            let start = i * (n / workers) + i.min(n % workers);
            start..start + n / workers + usize::from(i < n % workers)
        };
        if workers == 1 {
            // No scope to set up: a run on one worker allocates nothing
            // per invocation beyond the control block.
            worker_loop(home(0), &slots, true, &ctl, ex, shared);
        } else {
            std::thread::scope(|s| {
                for i in 1..workers {
                    let (ctl, slots) = (&ctl, &slots);
                    s.spawn(move || worker_loop(home(i), slots, false, ctl, ex, shared));
                }
                worker_loop(home(0), &slots, true, &ctl, ex, shared);
            });
        }
    }
    let rounds = ctl.rounds.load(Relaxed);
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

/// Put the entries an invocation of `rounds` windows left in the exchange
/// (stop, event-limit and checkpoint-pause endings) back into the
/// destination calendars, so a later invocation resumes them. The drain
/// order is deterministic (parity, then source shard, then send order),
/// and it leaves every cell empty for the next invocation.
pub(super) fn settle(shards: &mut [EngineCore], ex: &Exchange, rounds: u64) {
    for core in shards.iter_mut() {
        for par in [(rounds % 2) as usize, ((rounds + 1) % 2) as usize] {
            core.drain_exchange(ex, par);
        }
    }
}

impl EngineCore {
    /// Move every entry other shards sent this one in parity `par` into
    /// its calendar: source shards in order, each one's entries in the
    /// order it sent them.
    fn drain_exchange(&mut self, ex: &Exchange, par: usize) {
        let dst = self.id as usize;
        for w in 0..ex.words {
            let mut bits = ex.mark(dst, par, w).swap(0, Relaxed);
            while bits != 0 {
                let src = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut cell = ex.cell(src, dst, par);
                self.drain_buf(cell.as_mut().expect("a marked cell holds its buffer"));
            }
        }
    }

    /// Schedule `buf`'s entries, leaving it empty with its capacity.
    fn drain_buf(&mut self, buf: &mut XBuf) {
        // A recording is armed only while windows run, so every drain it
        // sees is a window's: the settle drain after an invocation lands
        // in the calendars the next recording starts from.
        if let Some(r) = self.record.as_mut().and_then(|rec| rec.rounds.last_mut()) {
            r.inject.extend(buf.entries.iter().cloned());
        }
        let mut tags = buf.tags.drain(..);
        for e in buf.entries.drain(..) {
            self.schedule(e.time, e.action, tags.next().unwrap_or_default());
        }
    }

    /// Publish this window's buffered cross-shard entries into the
    /// exchange (parity `par`): put each buffer the window took back into
    /// its cell, filled, and mark the cell. Returns the earliest entry time
    /// flushed (`u64::MAX` when nothing was buffered) so the worker can
    /// fold it into the next round's floor accumulator.
    fn flush_outbox(&mut self, ex: &Exchange, par: usize) -> u64 {
        let mut flushed_min = u64::MAX;
        let src = self.id as usize;
        for (dst, buf) in self.outbox.drain(..) {
            let dst = dst as usize;
            for e in &buf.entries {
                flushed_min = flushed_min.min(e.time);
            }
            let route = &mut self.routes[dst];
            route.taken = 0;
            route.hint = buf.entries.capacity() as u32;
            *ex.cell(src, dst, par) = Some(buf);
            ex.mark(dst, par, src / 64).fetch_or(1 << (src % 64), Relaxed);
        }
        flushed_min
    }
}
