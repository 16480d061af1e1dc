//! Happens-before race detection — the dynamic layer of `udrace`.
//!
//! A [`RaceProbe`] is an optional observer attached via
//! [`MachineConfig::race`](crate::MachineConfig). It tags every event
//! execution with a vector-clock epoch per thread — keyed by (global
//! lane, thread id, slot generation) — and records DRAM accesses at word
//! granularity plus scratchpad accesses at (lane, word) granularity.
//! Happens-before edges come from:
//!
//! - **program order** within one thread (events of a thread execute one
//!   at a time, each bumping its epoch);
//! - **message delivery**: every `send_event` carries the sender's clock
//!   snapshot, joined into the receiving thread at execution — this
//!   covers continuation firing, `yield_terminate` → notification sends,
//!   collective-tree barriers, and every other message-built protocol;
//! - **DRAM replies**: the response of a read / write ack / fetch-add
//!   return carries the issuer's clock, so `write → ack → send → read`
//!   chains order across memory;
//! - **host injection**: `Engine::send` stamps a host clock that has
//!   joined every thread clock of previously *completed* runs, so
//!   back-to-back `run()`s order; several roots injected before one run
//!   stay mutually unordered.
//!
//! Two accesses **race** when they touch the same word, at least one
//! writes, neither happens-before the other, and they are not both
//! atomic-class (`dram_fetch_add_*` and the annotated `*_atomic`
//! accessors model operations the hardware serializes commutatively —
//! they order, they do not race). Lane-event serialization is
//! deliberately *not* an HB edge: two threads multiplexed on one lane
//! never run concurrently, but their interleaving is scheduling-
//! dependent, so an unannotated read-modify-write of a shared scratchpad
//! slot is still an ordering hazard and is reported.
//!
//! Programs here create a thread per task, so clocks are flat: a
//! thread's (lane, tid, generation) key is interned to a dense id at its
//! first event, a clock is a zero-extended `Vec` of epochs indexed by
//! id, and a join is an elementwise max over two slices. Ids are handed
//! out in the order shards happen to reach the probe, which differs
//! between `--threads` values, so an id never leaves this module: it
//! indexes clocks and identifies a word's last accessors, and nothing
//! else. Ids are never reused and clocks never truncated — either could
//! make an unordered pair look ordered (docs/udrace.md, "Cost").
//!
//! **Only thread j's own `bump` ever raises entry j, so every clock's
//! entry j is ≤ thread j's current own epoch.** Joins, copies and folds
//! only move entries that some bump made, and a thread's live clock only
//! grows. The probe leaves out every clock operation whose result that
//! invariant already fixes, and every verdict stays what the full
//! operation would give:
//!
//! - retiring a thread records its own epoch, not its whole clock: the
//!   join of all final clocks *is* the vector of own epochs, and the
//!   end-of-run fold takes each live thread's own entry the same way;
//! - a release right after an acquire is a copy: once a thread has joined
//!   a sync clock, its clock dominates it;
//! - a clock records whose live clock it is a snapshot of (the host's for
//!   sync and acquired clocks), and an execution triggered by its own
//!   thread's earlier snapshot — every DRAM reply that comes back to its
//!   issuer — skips the join;
//! - an atomic's reply carries its word's sync clock itself, not a copy
//!   (the next release copies it only if the reply is still in flight),
//!   and the atomic's own access is checked against it in place.
//!
//! There is one mode: every word of every DRAM allocation and scratchpad
//! is tracked. Per-(handler, region) footprints ride along for the static
//! may-race pass of `repro race`.
//!
//! Epochs are `u32`; a thread's 2^32nd event panics instead of wrapping.
//! Debug builds assert that every skipped join would have been a no-op.
//!
//! Recording follows the zero-observer-effect contract of
//! [`ProtocolProbe`](crate::ProtocolProbe): it charges no cycles and
//! never perturbs the calendar. Every merge is commutative across shards
//! except DRAM word state, which takes accesses in one fixed shard order
//! (`ShardTurn`), so reports are byte-identical at every `--threads`
//! count.
//! Memory effects applied by `drain_in_flight` after a `ctx.stop()` are
//! not recorded — detection covers everything executed before the stop.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::memory::VAddr;
use crate::probe::Sites;

/// Identity of one simulated thread as the engine names it: global lane
/// id, thread id within the lane, and the slot generation (bumped on
/// context reuse). The probe interns it to a dense id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ThreadKey {
    pub lane: u32,
    pub tid: u16,
    pub gen: u32,
}

/// Dense id of the host pseudo-thread; simulated threads get 1, 2, ….
const HOST: u32 = 0;

/// A vector clock: the epoch watermark of every thread, indexed by dense
/// id, and the id of the thread whose live clock this is (a snapshot of);
/// [`HOST`] for the host's clock, a word's or token's sync clock and an
/// acquired clock. Entries past the end read as zero, so a clock is only
/// as long as the newest thread it has heard from.
#[derive(Clone, Debug, Default)]
pub(crate) struct VClock {
    epochs: Vec<u32>,
    owner: u32,
}

impl VClock {
    /// The empty live clock of thread `id`, sized for its own entry,
    /// which lies past every id the thread's first sender can have heard
    /// of.
    fn new(id: u32) -> VClock {
        VClock {
            epochs: Vec::with_capacity(id as usize + 1),
            owner: id,
        }
    }

    fn get(&self, id: u32) -> u32 {
        self.epochs.get(id as usize).copied().unwrap_or(0)
    }

    fn entry(&mut self, id: u32) -> &mut u32 {
        let i = id as usize;
        if self.epochs.len() <= i {
            self.epochs.resize(i + 1, 0);
        }
        &mut self.epochs[i]
    }

    fn bump(&mut self, id: u32) {
        let e = self.entry(id);
        *e = e
            .checked_add(1)
            .expect("udrace: a thread ran 2^32 events, past what a u32 epoch counts");
    }

    /// Raise entry `id` to at least `epoch`.
    fn raise(&mut self, id: u32, epoch: u32) {
        let e = self.entry(id);
        *e = (*e).max(epoch);
    }

    /// Elementwise max with `src`: over the common prefix, then whatever
    /// `src` has beyond it is copied (max with the implied zeros).
    fn join(&mut self, src: &VClock) {
        let common = self.epochs.len().min(src.epochs.len());
        for (d, &s) in self.epochs.iter_mut().zip(&src.epochs[..common]) {
            *d = (*d).max(s);
        }
        self.epochs.extend_from_slice(&src.epochs[common..]);
    }

    /// True when joining `self` into `other` would change nothing.
    fn le(&self, other: &VClock) -> bool {
        self.epochs
            .iter()
            .zip(0..)
            .all(|(&e, id)| e <= other.get(id))
    }
}

/// A thread as the probe tracks it: its dense id, and the (lane, tid) it
/// runs as, which is all of its key that a report or an ordering needs.
#[derive(Clone, Copy, Debug)]
struct ThreadRef {
    id: u32,
    lane: u32,
    tid: u16,
}

/// Race context of one event execution: the thread, and its clock
/// snapshot after joining the triggering message and bumping its own
/// epoch. One `Arc` snapshot is shared by every send and memory access of
/// the execution.
#[derive(Clone, Debug)]
pub(crate) struct RaceExec {
    who: ThreadRef,
    pub clock: Arc<VClock>,
}

impl RaceExec {
    /// Race context for a DRAM operation this execution issues from the
    /// handler labelled `label`.
    pub(crate) fn access(&self, label: u16, atomic: bool) -> RaceAccess {
        RaceAccess {
            who: self.who,
            clock: self.clock.clone(),
            label,
            atomic,
        }
    }
}

/// Race context attached to an in-flight DRAM operation.
#[derive(Clone, Debug)]
pub(crate) struct RaceAccess {
    who: ThreadRef,
    pub clock: Arc<VClock>,
    /// Handler label of the issuing execution.
    label: u16,
    /// Issued through an atomic-annotated accessor.
    atomic: bool,
}

/// Which address space a race site lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceSpace {
    Dram,
    Spm,
}

impl RaceSpace {
    pub fn as_str(&self) -> &'static str {
        match self {
            RaceSpace::Dram => "dram",
            RaceSpace::Spm => "spm",
        }
    }
}

/// Conflict shape of a race site. `ReadWrite` covers both orders (read
/// then write, write then read).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    WriteWrite,
    ReadWrite,
}

impl RaceKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
        }
    }
}

/// Footprint granularity: one DRAM allocation (keyed by its base VA) or
/// one lane's scratchpad.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Region {
    Dram(u64),
    Spm(u32),
}

/// One deduplicated race site: a (space, kind, handler-pair, region)
/// bucket, min-merged to its earliest occurrence like a probe
/// [`Diagnostic`](crate::Diagnostic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceSite {
    pub space: RaceSpace,
    pub kind: RaceKind,
    /// Handler name of the earlier access of the first occurrence.
    pub prior: String,
    /// Handler name of the later access of the first occurrence.
    pub current: String,
    pub region: Region,
    /// Rendered from the earliest occurrence (deterministic).
    pub detail: String,
    pub first_tick: u64,
    /// Global lane id of the later access of the earliest occurrence.
    pub lane: u32,
    /// Occurrences merged into this site.
    pub count: u64,
}

/// Which access classes one handler performed on one region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Handler label (resolve with [`RaceReport::handler_name`]).
    pub handler: u16,
    pub region: Region,
    pub reads: u64,
    pub writes: u64,
    /// Atomic-class updates (fetch-adds and `*_atomic` accessors).
    pub atomics: u64,
}

/// Snapshot of everything a race probe recorded.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Handler names indexed by event label (filled at end of run).
    pub handler_names: Vec<String>,
    /// Race sites ordered by (space, kind, handler pair, region).
    pub sites: Vec<RaceSite>,
    /// Distinct sites dropped past the site cap (the largest keys).
    pub sites_truncated: u64,
    /// Word accesses recorded.
    pub accesses: u64,
    /// Distinct words with tracked state.
    pub words_tracked: u64,
    /// Per-(handler, region) access summaries.
    pub footprints: Vec<Footprint>,
    /// Whether the run drained naturally (no `ctx.stop()`, no limit).
    pub drained: bool,
}

impl RaceReport {
    pub fn handler_name(&self, label: u16) -> &str {
        self.handler_names
            .get(label as usize)
            .map(|s| s.as_str())
            .unwrap_or("<unregistered>")
    }

    /// True when no dynamic race was observed (truncated sites count).
    pub fn is_clean(&self) -> bool {
        self.sites.is_empty() && self.sites_truncated == 0
    }
}

/// Word address: one DRAM word (byte address) or one (lane, offset)
/// scratchpad word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Loc {
    Dram(u64),
    Spm(u32, u32),
}

/// One recorded access in a word's state.
#[derive(Clone, Copy, Debug)]
struct Access {
    who: ThreadRef,
    /// The accessor's own epoch at access time.
    epoch: u32,
    tick: u64,
    label: u16,
    atomic: bool,
}

impl Access {
    /// True when this access happens-before an access holding `clock`.
    fn ordered_before(&self, clock: &VClock) -> bool {
        clock.get(self.who.id) >= self.epoch
    }

    /// Reader order. Ids depend on shard interleaving, (lane, tid) does
    /// not, and one (lane, tid) slot hands out ids in generation order —
    /// so this is (lane, tid, generation) order at every thread count.
    fn reader_order(&self) -> (u32, u16, u32) {
        (self.who.lane, self.who.tid, self.who.id)
    }
}

/// The reads of one word since its last plain write, at most one per
/// thread, in [`Access::reader_order`]. Most words have one reader at a
/// time, which needs no allocation.
#[derive(Clone, Debug, Default)]
enum Reads {
    #[default]
    None,
    One(Access),
    Many(Vec<Access>),
}

impl Reads {
    fn as_slice(&self) -> &[Access] {
        match self {
            Reads::None => &[],
            Reads::One(a) => std::slice::from_ref(a),
            Reads::Many(v) => v,
        }
    }

    /// Record `a`, replacing the same thread's earlier read.
    fn insert(&mut self, a: Access) {
        match self {
            Reads::None => *self = Reads::One(a),
            Reads::One(b) if b.who.id == a.who.id => *b = a,
            Reads::One(b) => {
                let mut v = vec![*b, a];
                v.sort_by_key(Access::reader_order);
                *self = Reads::Many(v);
            }
            Reads::Many(v) => {
                match v.binary_search_by_key(&a.reader_order(), Access::reader_order) {
                    Ok(i) => v[i] = a,
                    Err(i) => v.insert(i, a),
                }
            }
        }
    }

    /// Forget every read; a word that had many readers keeps its buffer
    /// for the next round.
    fn clear(&mut self) {
        match self {
            Reads::Many(v) => v.clear(),
            _ => *self = Reads::None,
        }
    }
}

/// FastTrack-style per-word state: the last plain write, the last
/// atomic update, and the reads since the last plain write.
#[derive(Clone, Debug, Default)]
struct WordState {
    write: Option<Access>,
    atomic: Option<Access>,
    reads: Reads,
}

/// A race site: (space, kind, prior handler, current handler, region).
type SiteKey = (RaceSpace, RaceKind, u16, u16, Region);

/// The thread table: dense ids for live thread keys and the current
/// clock of every id. Id [`HOST`] is the host's.
#[derive(Clone)]
struct Threads {
    /// (lane, tid) of every live thread -> (generation, id). A thread's
    /// entry goes when it terminates; its id is never handed out again.
    live: BTreeMap<(u32, u16), (u32, u32)>,
    /// Current clock by id; `None` once the thread has retired. Each
    /// slot is only touched by the shard owning its lane, so updates
    /// commute across shards.
    clocks: Vec<Option<Arc<VClock>>>,
}

impl Default for Threads {
    fn default() -> Threads {
        Threads {
            live: BTreeMap::new(),
            clocks: vec![None], // the host's slot
        }
    }
}

impl Threads {
    /// The id of `key`, assigned on first sight. A (lane, tid) slot seen
    /// under a new generation is a new thread and gets a fresh id.
    fn intern(&mut self, key: ThreadKey) -> u32 {
        if let Some(&(gen, id)) = self.live.get(&(key.lane, key.tid)) {
            if gen == key.gen {
                return id;
            }
        }
        let id = u32::try_from(self.clocks.len()).expect("fewer than 2^32 threads per recording");
        self.clocks.push(None);
        self.live.insert((key.lane, key.tid), (key.gen, id));
        id
    }

    /// Release-acquire between an executing thread and a sync clock:
    /// the thread absorbs `sync`, then `sync` absorbs the thread — a copy,
    /// since the thread's clock now dominates it. The table's reference
    /// is dropped first so a clock nobody else holds is updated in place.
    fn sync(&mut self, exec: &mut RaceExec, sync: &mut VClock) {
        let slot = &mut self.clocks[exec.who.id as usize];
        *slot = None;
        let clock = Arc::make_mut(&mut exec.clock);
        clock.join(sync);
        sync.epochs.clone_from(&clock.epochs);
        *slot = Some(exec.clock.clone());
    }

    /// Thread `id`'s current own epoch: its live clock's own entry, or
    /// once it has retired, the entry `end_thread` left in `retired` (or,
    /// after a run boundary, in the host clock).
    fn own_epoch(&self, id: u32, retired: &VClock) -> u32 {
        match &self.clocks[id as usize] {
            Some(c) => c.get(id),
            None => {
                let host = self.clocks[HOST as usize].as_ref().map_or(0, |h| h.get(id));
                retired.get(id).max(host)
            }
        }
    }

    /// The invariant, checked on one clock: no entry is above its
    /// thread's own epoch, so folding `c` into a vector of own epochs
    /// changes nothing.
    fn bounded_by_own_epochs(&self, c: &VClock, retired: &VClock) -> bool {
        c.epochs
            .iter()
            .zip(0..)
            .all(|(&e, id)| e <= self.own_epoch(id, retired))
    }
}

/// The detail line of one race occurrence: where, and the two accesses.
fn site_detail(kind: RaceKind, loc: Loc, prior: &Access, cur: &Access, cur_write: bool) -> String {
    let what = |a: &Access, wr: bool| {
        let cls = if a.atomic {
            "atomic"
        } else if wr {
            "write"
        } else {
            "read"
        };
        format!("{cls} at tick {}", a.tick)
    };
    let place = match loc {
        Loc::Dram(addr) => format!("dram word {addr:#x}"),
        Loc::Spm(l, off) => format!("lane {l} spm[{off}]"),
    };
    let prior_wr = kind == RaceKind::WriteWrite || !cur_write;
    format!(
        "{place}: {} vs {} (unordered)",
        what(prior, prior_wr),
        what(cur, cur_write)
    )
}

/// Per-word access state of every word, and the race sites found in it.
/// Kept apart from the sync clocks so an atomic's access can be checked
/// against its word's sync clock in place.
#[derive(Clone, Default)]
struct Words {
    states: BTreeMap<Loc, WordState>,
    sites: Sites<SiteKey>,
    /// Word accesses recorded.
    accesses: u64,
}

#[derive(Clone, Default)]
struct Inner {
    threads: Threads,
    /// The own epoch of every thread that terminated this run: by the
    /// invariant, the join of their final clocks.
    retired: VClock,
    words: Words,
    /// Release clock per word updated by atomic-class accesses: a
    /// fetch-and-add both releases its clock into the word and acquires
    /// every earlier atomic's clock, so commutative update chains order
    /// their observers (barrier counters, combining slots).
    word_sync: BTreeMap<Loc, Arc<VClock>>,
    /// Release clocks for explicit [`order_token`](RaceProbe::order_token)
    /// annotations, keyed by (lane, token): lane-serialized protocols the
    /// lane orders by construction (host-state polling, owner-lane tables).
    token_sync: BTreeMap<(u32, u64), VClock>,
    footprints: BTreeMap<(u16, Region), (u64, u64, u64)>,
    turn: ShardTurn,
    names: Vec<String>,
    drained: bool,
}

impl Inner {
    fn footprint(&mut self, label: u16, region: Region, write: bool, atomic: bool) {
        let f = self.footprints.entry((label, region)).or_default();
        if atomic {
            f.2 += 1;
        } else if write {
            f.1 += 1;
        } else {
            f.0 += 1;
        }
    }
}

/// One DRAM operation's word accesses, queued until its shard's turn.
#[derive(Clone)]
struct QueuedDram {
    region: Region,
    va: u64,
    nwords: u32,
    cur: Access,
    clock: Arc<VClock>,
    write: bool,
}

/// The order DRAM word accesses reach the word states in: round by
/// round, shard by shard in shard order, each shard's in its own order —
/// the order one worker records them in. A word's state (and which of
/// two tied occurrences names a site) depends on that order, and a
/// multi-word access served on one shard can touch a word that another
/// shard serves in the same round (the SHT bucket line that straddles
/// two nodes' blocks). The shard holding the turn records at once; any
/// other queues until the turn reaches it.
#[derive(Clone, Default)]
struct ShardTurn {
    /// The shard whose accesses apply at once.
    at: u32,
    /// Which shards have finished the current round's window.
    done: Vec<bool>,
    queued: Vec<Vec<QueuedDram>>,
}

impl ShardTurn {
    fn queue(&mut self, shard: u32, q: QueuedDram) {
        let i = shard as usize;
        if self.queued.len() <= i {
            self.queued.resize_with(i + 1, Vec::new);
        }
        self.queued[i].push(q);
    }

    /// Shard `shard` (of `shards`) finished its window: pass the turn on,
    /// applying each shard's queue as the turn reaches it, and start the
    /// next round at shard 0 once every shard is through.
    fn finish(&mut self, shard: u32, shards: u32, words: &mut Words) {
        let n = shards as usize;
        self.done.resize(n, false);
        self.queued.resize_with(n, Vec::new);
        self.done[shard as usize] = true;
        while (self.at as usize) < n {
            let t = self.at as usize;
            for q in self.queued[t].drain(..) {
                words.dram(q.region, q.va, q.nwords, q.cur, &q.clock, q.write);
            }
            if !self.done[t] {
                return;
            }
            self.at += 1;
        }
        self.at = 0;
        self.done.fill(false);
    }
}

impl Words {
    /// Record the accesses of one DRAM operation, word by word.
    fn dram(
        &mut self,
        region: Region,
        va: u64,
        nwords: u32,
        cur: Access,
        clock: &VClock,
        write: bool,
    ) {
        for i in 0..nwords as u64 {
            self.access(
                RaceSpace::Dram,
                region,
                Loc::Dram(va + 8 * i),
                cur,
                clock,
                write,
            );
        }
    }

    /// Record one word access: check it against the word's prior state,
    /// report any unordered conflicting pair, then fold it in.
    fn access(
        &mut self,
        space: RaceSpace,
        region: Region,
        loc: Loc,
        cur: Access,
        clock: &VClock,
        write: bool,
    ) {
        self.accesses += 1;
        let st = self.states.entry(loc).or_default();
        let sites = &mut self.sites;
        let mut race = |kind, prior: &Access| {
            sites.record(
                (space, kind, prior.label, cur.label, region),
                (cur.tick, cur.who.lane),
                || site_detail(kind, loc, prior, &cur, write),
            )
        };
        let unordered = |a: &Access| !a.ordered_before(clock);
        if write {
            if let Some(w) = &st.write {
                if unordered(w) && !(cur.atomic && w.atomic) {
                    race(RaceKind::WriteWrite, w);
                }
            }
            if let Some(a) = &st.atomic {
                if unordered(a) && !cur.atomic {
                    race(RaceKind::WriteWrite, a);
                }
            }
            for r in st.reads.as_slice() {
                if unordered(r) && !(cur.atomic && r.atomic) {
                    race(RaceKind::ReadWrite, r);
                }
            }
            if cur.atomic {
                st.atomic = Some(cur);
            } else {
                // A plain write that is ordered after everything resets
                // the word; racing priors were just reported.
                st.write = Some(cur);
                st.atomic = None;
                st.reads.clear();
            }
        } else {
            if let Some(w) = &st.write {
                if unordered(w) {
                    race(RaceKind::ReadWrite, w);
                }
            }
            if let Some(a) = &st.atomic {
                if unordered(a) && !cur.atomic {
                    race(RaceKind::ReadWrite, a);
                }
            }
            st.reads.insert(cur);
        }
    }
}

/// Shared handle to a race recording. `Clone` shares the recording: keep
/// one clone and pass another inside [`MachineConfig`](crate::MachineConfig).
#[derive(Clone, Default)]
pub struct RaceProbe {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for RaceProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RaceProbe")
    }
}

/// Opaque deep copy of a race recording at a snapshot point (vector
/// clocks, word states, sites); restored by [`RaceProbe::restore_state`].
#[derive(Clone)]
pub(crate) struct RaceState(Inner);

impl RaceProbe {
    /// Full monitoring: every DRAM allocation and every scratchpad.
    pub fn new() -> RaceProbe {
        RaceProbe::default()
    }

    /// Deep-copy the recording for a snapshot.
    pub(crate) fn snapshot_state(&self) -> RaceState {
        RaceState(self.inner.lock().unwrap().clone())
    }

    /// Rewind the recording to a previously snapshotted state.
    pub(crate) fn restore_state(&self, st: &RaceState) {
        *self.inner.lock().unwrap() = st.0.clone();
    }

    /// Begin one event execution: join the triggering message's clock
    /// (if any) into the thread's clock, bump the thread's own epoch,
    /// and return the snapshot every effect of this execution carries.
    pub(crate) fn begin_event(&self, key: ThreadKey, incoming: Option<Arc<VClock>>) -> RaceExec {
        let mut g = self.inner.lock().unwrap();
        let id = g.threads.intern(key);
        let slot = &mut g.threads.clocks[id as usize];
        let mut clock = slot.take().unwrap_or_else(|| Arc::new(VClock::new(id)));
        match incoming {
            // This thread's own earlier snapshot (a DRAM reply come home,
            // a send to itself): its live clock already dominates it.
            // Dropped first, so a clock nobody else holds bumps in place.
            Some(inc) if inc.owner == id => {
                debug_assert!(inc.le(&clock), "a live clock shrank below its own snapshot");
            }
            Some(inc) => Arc::make_mut(&mut clock).join(&inc),
            None => {}
        }
        Arc::make_mut(&mut clock).bump(id);
        *slot = Some(clock.clone());
        let who = ThreadRef {
            id,
            lane: key.lane,
            tid: key.tid,
        };
        RaceExec { who, clock }
    }

    /// The thread behind `exec` terminated: retire it (its effects stay
    /// visible through messages it sent and through the end-of-run host
    /// join, which needs only its own epoch) and forget its key.
    pub(crate) fn end_thread(&self, exec: &RaceExec) {
        let mut g = self.inner.lock().unwrap();
        let Inner {
            threads, retired, ..
        } = &mut *g;
        threads.live.remove(&(exec.who.lane, exec.who.tid));
        let id = exec.who.id;
        if let Some(c) = threads.clocks[id as usize].take() {
            retired.raise(id, c.get(id));
            debug_assert!(
                threads.bounded_by_own_epochs(&c, retired),
                "joining the retired clock would have raised another thread's entry"
            );
        }
    }

    /// Stamp one host-injected message. The host clock orders host sends
    /// with each other and with every previously completed run, but two
    /// executions it spawns stay mutually unordered.
    pub(crate) fn host_send(&self) -> Arc<VClock> {
        let mut g = self.inner.lock().unwrap();
        let host = g.threads.clocks[HOST as usize].get_or_insert_with(Arc::default);
        Arc::make_mut(host).bump(HOST);
        host.clone()
    }

    /// Record one DRAM operation of `nwords` words starting at `va`,
    /// called at the deterministic serve point on the owner shard
    /// `shard`; `replied` says whether the operation sends its issuer a
    /// reply.
    ///
    /// Atomic-class operations are release-acquire points on their word:
    /// the returned clock (the issuer's clock joined with every earlier
    /// atomic's release on this word) must ride the reply so whatever the
    /// issuer does after the acknowledged fetch-and-add is ordered after
    /// all the adds it observed. Plain operations, and atomics without a
    /// reply, return `None`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_dram(
        &self,
        acc: &RaceAccess,
        shard: u32,
        va: VAddr,
        alloc_base: u64,
        nwords: u32,
        atomic: bool,
        write: bool,
        tick: u64,
        replied: bool,
    ) -> Option<Arc<VClock>> {
        let mut g = self.inner.lock().unwrap();
        let region = Region::Dram(alloc_base);
        let atomic = atomic || acc.atomic;
        g.footprint(acc.label, region, write, atomic && write);
        let cur = Access {
            who: acc.who,
            epoch: acc.clock.get(acc.who.id),
            tick,
            label: acc.label,
            atomic,
        };
        let Inner {
            words,
            word_sync,
            turn,
            ..
        } = &mut *g;
        let clock = if atomic {
            assert_eq!(nwords, 1, "an atomic-class DRAM operation is one word");
            // Release first: the word's clock then already is the issuer's
            // joined with every earlier atomic's, which is what the issuer
            // acquires, and what its access is checked with. Acquire-then-
            // check is safe: a word's sync clock only ever holds atomic
            // accessors' clocks, and atomic-vs-atomic pairs never race, so
            // the acquired epochs reflect genuine ordering edges. A reply or
            // a queued check shares the word's clock; the next release
            // copies it only if one of them still holds it.
            let sync = word_sync.entry(Loc::Dram(va.0)).or_default();
            Arc::make_mut(sync).join(&acc.clock);
            &*sync
        } else {
            &acc.clock
        };
        if turn.at == shard {
            words.dram(region, va.0, nwords, cur, clock, write);
        } else {
            let q = QueuedDram {
                region,
                va: va.0,
                nwords,
                cur,
                clock: clock.clone(),
                write,
            };
            turn.queue(shard, q);
        }
        (atomic && replied).then(|| clock.clone())
    }

    /// Shard `shard` (of `shards`) finished its window of the current
    /// round; see [`ShardTurn`].
    pub(crate) fn end_window(&self, shard: u32, shards: u32) {
        let mut g = self.inner.lock().unwrap();
        let Inner { turn, words, .. } = &mut *g;
        turn.finish(shard, shards, words);
    }

    /// Record one scratchpad word access from the executing thread.
    ///
    /// Atomic-class accesses are release-acquire points on their word:
    /// the executing thread's clock absorbs every earlier atomic's clock
    /// (mutating `exec` in place, and the live thread clock with it), so
    /// lane-serialized commutative update chains order their observers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_spm(
        &self,
        exec: &mut RaceExec,
        label: u16,
        lane: u32,
        off: u32,
        atomic: bool,
        write: bool,
        tick: u64,
    ) {
        let mut g = self.inner.lock().unwrap();
        let region = Region::Spm(lane);
        g.footprint(label, region, write, atomic && write);
        let loc = Loc::Spm(lane, off);
        if atomic {
            let Inner {
                threads, word_sync, ..
            } = &mut *g;
            threads.sync(exec, Arc::make_mut(word_sync.entry(loc).or_default()));
        }
        let cur = Access {
            who: exec.who,
            epoch: exec.clock.get(exec.who.id),
            tick,
            label,
            atomic,
        };
        g.words
            .access(RaceSpace::Spm, region, loc, cur, &exec.clock, write);
    }

    /// Explicit ordering annotation for a lane-serialized protocol: the
    /// executing thread acquires the clock of every earlier execution on
    /// `lane` that ordered on the same `token`, then releases its own.
    /// Used by [`EventCtx::race_order`](crate::EventCtx::race_order) to
    /// declare synchronization the lane enforces by construction but
    /// that flows through host-side state the probe cannot see.
    pub(crate) fn order_token(&self, exec: &mut RaceExec, lane: u32, token: u64) {
        let mut g = self.inner.lock().unwrap();
        let Inner {
            threads,
            token_sync,
            ..
        } = &mut *g;
        threads.sync(exec, token_sync.entry((lane, token)).or_default());
    }

    /// Called by the engine at end of run: install handler names, note
    /// how the run ended, and fold every thread into the host clock so a
    /// subsequent `Engine::send` + `run()` is ordered after this run. By
    /// the invariant, a live thread's own entry is all its clock adds.
    pub(crate) fn finish_run(&self, names: Vec<String>, drained: bool) {
        let mut g = self.inner.lock().unwrap();
        g.names = names;
        g.drained = drained;
        let Inner {
            threads,
            retired,
            turn,
            ..
        } = &mut *g;
        debug_assert!(
            turn.queued.iter().all(Vec::is_empty),
            "a window never ended"
        );
        debug_assert!(
            threads
                .clocks
                .iter()
                .flatten()
                .all(|c| threads.bounded_by_own_epochs(c, retired)),
            "joining a live clock would have raised another thread's entry"
        );
        let retired = std::mem::take(retired);
        let (host, live) = threads
            .clocks
            .split_first_mut()
            .expect("the host's slot is always there");
        let host = Arc::make_mut(host.get_or_insert_with(Arc::default));
        host.join(&retired);
        for (c, id) in live.iter().zip(1..) {
            if let Some(c) = c {
                host.raise(id, c.get(id));
            }
        }
    }

    /// Full snapshot: sites ordered by (space, kind, handler pair,
    /// region), identical at every thread count.
    pub fn snapshot(&self) -> RaceReport {
        let g = self.inner.lock().unwrap();
        let name = |label: u16| {
            g.names
                .get(label as usize)
                .cloned()
                .unwrap_or_else(|| format!("<label {label}>"))
        };
        let sites = g
            .words
            .sites
            .kept
            .iter()
            .map(
                |(&(space, kind, prior, cur, region), &((tick, lane), ref detail, count))| {
                    RaceSite {
                        space,
                        kind,
                        prior: name(prior),
                        current: name(cur),
                        region,
                        detail: detail.clone(),
                        first_tick: tick,
                        lane,
                        count,
                    }
                },
            )
            .collect();
        let footprints = g
            .footprints
            .iter()
            .map(
                |(&(handler, region), &(reads, writes, atomics))| Footprint {
                    handler,
                    region,
                    reads,
                    writes,
                    atomics,
                },
            )
            .collect();
        RaceReport {
            handler_names: g.names.clone(),
            sites,
            sites_truncated: g.words.sites.dropped.len() as u64,
            accesses: g.words.accesses,
            words_tracked: g.words.states.len() as u64,
            footprints,
            drained: g.drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::MAX_SITES;

    fn key(lane: u32, tid: u16) -> ThreadKey {
        ThreadKey { lane, tid, gen: 0 }
    }

    #[test]
    fn an_access_context_is_three_words() {
        // Every DRAM request an execution issues under the probe carries
        // one from the handler to the serve point.
        assert!(std::mem::size_of::<RaceAccess>() <= 24);
    }

    fn dram(p: &RaceProbe, e: &RaceExec, addr: u64, write: bool, atomic: bool, tick: u64) {
        let acc = e.access(e.who.tid, atomic); // label by tid for readable sites
        p.record_dram(&acc, 0, VAddr(addr), 0x1000, 1, atomic, write, tick, true);
    }

    #[test]
    fn unordered_writes_race_ordered_writes_do_not() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let b = p.begin_event(key(1, 2), None);
        dram(&p, &a, 0x2000, true, false, 10);
        dram(&p, &b, 0x2000, true, false, 20);
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, RaceKind::WriteWrite);
        assert_eq!(r.sites[0].space, RaceSpace::Dram);

        // Same shape, but b's event joins a's clock (message delivery).
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        dram(&p, &a, 0x2000, true, false, 10);
        let b = p.begin_event(key(1, 2), Some(a.clock.clone()));
        dram(&p, &b, 0x2000, true, false, 20);
        assert!(p.snapshot().is_clean());
    }

    #[test]
    fn transitive_ordering_through_a_chain() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        dram(&p, &a, 0x2000, true, false, 1);
        let b = p.begin_event(key(1, 2), Some(a.clock.clone())); // a -> b
        let c = p.begin_event(key(2, 3), Some(b.clock.clone())); // b -> c
        dram(&p, &c, 0x2000, false, false, 9);
        assert!(p.snapshot().is_clean());
    }

    #[test]
    fn read_write_races_both_orders() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let b = p.begin_event(key(1, 2), None);
        dram(&p, &a, 0x2000, false, false, 1); // read first
        dram(&p, &b, 0x2000, true, false, 2); // unordered write
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, RaceKind::ReadWrite);

        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let b = p.begin_event(key(1, 2), None);
        dram(&p, &a, 0x2000, true, false, 1); // write first
        dram(&p, &b, 0x2000, false, false, 2); // unordered read
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn atomics_order_but_do_not_race() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let b = p.begin_event(key(1, 2), None);
        dram(&p, &a, 0x2000, true, true, 1); // fetch-add
        dram(&p, &b, 0x2000, true, true, 2); // fetch-add, unordered
        assert!(p.snapshot().is_clean(), "atomic vs atomic never races");

        // But an unordered plain access against an atomic still races.
        let c = p.begin_event(key(2, 3), None);
        dram(&p, &c, 0x2000, false, false, 3);
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn program_order_within_one_thread_never_races() {
        let p = RaceProbe::new();
        let e1 = p.begin_event(key(0, 1), None);
        dram(&p, &e1, 0x2000, true, false, 1);
        let e2 = p.begin_event(key(0, 1), None); // next event, same thread
        dram(&p, &e2, 0x2000, true, false, 2);
        assert!(p.snapshot().is_clean());
    }

    #[test]
    fn host_join_orders_successive_runs() {
        let p = RaceProbe::new();
        let root1 = p.host_send();
        let a = p.begin_event(key(0, 1), Some(root1.clone()));
        dram(&p, &a, 0x2000, true, false, 1);
        p.end_thread(&a);
        p.finish_run(Vec::new(), true); // run boundary

        let root2 = p.host_send();
        let b = p.begin_event(key(1, 2), Some(root2.clone()));
        dram(&p, &b, 0x2000, true, false, 2);
        assert!(p.snapshot().is_clean(), "second run ordered after first");
    }

    #[test]
    fn two_roots_of_one_run_stay_unordered() {
        let p = RaceProbe::new();
        let r1 = p.host_send();
        let r2 = p.host_send();
        let a = p.begin_event(key(0, 1), Some(r1.clone()));
        let b = p.begin_event(key(1, 2), Some(r2.clone()));
        dram(&p, &a, 0x2000, true, false, 1);
        dram(&p, &b, 0x2000, true, false, 2);
        assert_eq!(p.snapshot().sites.len(), 1);
    }

    #[test]
    fn spm_sites_key_by_lane() {
        let p = RaceProbe::new();
        let mut a = p.begin_event(key(3, 1), None);
        let mut b = p.begin_event(key(3, 2), None); // same lane, other thread
        p.record_spm(&mut a, 7, 3, 4, false, true, 1);
        p.record_spm(&mut b, 8, 3, 4, false, true, 2);
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].space, RaceSpace::Spm);
        assert_eq!(r.sites[0].region, Region::Spm(3));

        // Atomic-annotated RMW of the same slot is ordered-by-design.
        let p = RaceProbe::new();
        let mut a = p.begin_event(key(3, 1), None);
        let mut b = p.begin_event(key(3, 2), None);
        p.record_spm(&mut a, 7, 3, 4, true, true, 1);
        p.record_spm(&mut b, 8, 3, 4, true, true, 2);
        assert!(p.snapshot().is_clean());
    }

    #[test]
    fn sites_min_merge_and_count() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let b = p.begin_event(key(1, 2), None);
        dram(&p, &a, 0x2000, true, false, 50);
        dram(&p, &a, 0x2008, true, false, 50);
        dram(&p, &b, 0x2008, true, false, 60); // later occurrence first
        dram(&p, &b, 0x2000, true, false, 60);
        let r = p.snapshot();
        assert_eq!(r.sites.len(), 1, "same pair+region merges");
        assert_eq!(r.sites[0].count, 2);
        assert_eq!(r.sites[0].first_tick, 60);
    }

    #[test]
    fn site_cap_counts_distinct_truncated_sites() {
        let p = RaceProbe::new();
        for i in 0..(MAX_SITES as u64 + 7) {
            let a = p.begin_event(key(0, 1), None);
            let b = p.begin_event(key(1, 2), None);
            // Distinct region per pair => distinct site key.
            let acc = |e: &RaceExec| e.access(e.who.tid, false);
            p.record_dram(
                &acc(&a),
                0,
                VAddr(0x2000 + 64 * i),
                0x2000 + 64 * i,
                1,
                false,
                true,
                1,
                true,
            );
            p.record_dram(
                &acc(&b),
                0,
                VAddr(0x2000 + 64 * i),
                0x2000 + 64 * i,
                1,
                false,
                true,
                2,
                true,
            );
        }
        let r = p.snapshot();
        assert_eq!(r.sites.len(), MAX_SITES);
        assert_eq!(r.sites_truncated, 7);
        assert!(!r.is_clean());
    }

    #[test]
    fn site_cap_keeps_the_same_sites_in_any_arrival_order() {
        // Past the cap, which sites survive must not depend on which
        // shard reached the probe first: the smallest keys stay.
        let n = MAX_SITES as u64 + 7;
        let report = |order: Vec<u64>| {
            let p = RaceProbe::new();
            for i in order {
                let base = 0x2000 + 64 * i;
                for (lane, tick) in [(0, 2 * i), (1, 2 * i + 1)] {
                    let e = p.begin_event(key(lane, 1), None);
                    let acc = e.access(1, false);
                    p.record_dram(&acc, 0, VAddr(base), base, 1, false, true, tick, true);
                }
            }
            p.snapshot()
        };
        let (up, down) = (report((0..n).collect()), report((0..n).rev().collect()));
        assert_eq!(up.sites, down.sites);
        assert_eq!((up.sites_truncated, down.sites_truncated), (7, 7));
    }

    #[test]
    fn snapshots_are_commutative_across_recording_order() {
        let run = |order: [usize; 4]| {
            let p = RaceProbe::new();
            let a = p.begin_event(key(0, 1), None);
            let b = p.begin_event(key(1, 2), None);
            let ops: Vec<Box<dyn Fn()>> = vec![
                Box::new(|| dram(&p, &a, 0x2000, true, false, 10)),
                Box::new(|| dram(&p, &b, 0x2000, true, false, 20)),
                Box::new(|| dram(&p, &a, 0x3000, false, false, 30)),
                Box::new(|| dram(&p, &b, 0x3000, true, false, 40)),
            ];
            for i in order {
                ops[i]();
            }
            drop(ops);
            p.finish_run(vec!["x".into(); 4], true);
            p.snapshot()
        };
        let r1 = run([0, 1, 2, 3]);
        let r2 = run([2, 3, 0, 1]);
        assert_eq!(r1.sites, r2.sites);
        assert_eq!(r1.footprints, r2.footprints);
        assert_eq!(r1.accesses, r2.accesses);
    }

    #[test]
    fn atomic_reply_acquires_earlier_adds() {
        // Barrier pattern: A writes data then fetch-adds a counter; B
        // fetch-adds the same counter and, resumed by the add's reply,
        // reads the data. The acquired clock riding the reply orders
        // the read after A's write.
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        dram(&p, &a, 0x2000, true, false, 1); // data write
        let acc_a = a.access(1, true);
        assert!(
            p.record_dram(&acc_a, 0, VAddr(0x3000), 0x1000, 1, true, true, 2, true)
                .is_some(),
            "atomics return an acquired clock"
        );

        let b = p.begin_event(key(1, 2), None);
        let acc_b = b.access(2, true);
        let acq = p
            .record_dram(&acc_b, 0, VAddr(0x3000), 0x1000, 1, true, true, 3, true)
            .unwrap();
        // The reply resumes B's thread carrying the acquired clock.
        let b2 = p.begin_event(key(1, 2), Some(acq.clone()));
        dram(&p, &b2, 0x2000, false, false, 4);
        assert!(p.snapshot().is_clean(), "fetch-add barrier orders the read");

        // Plain accesses return no acquired clock.
        let c = p.begin_event(key(2, 3), None);
        let acc_c = c.access(3, false);
        assert!(p
            .record_dram(&acc_c, 0, VAddr(0x4000), 0x1000, 1, false, true, 5, true)
            .is_none());
    }

    #[test]
    fn spm_atomic_acquire_orders_subsequent_plain_accesses() {
        // A plain-writes spm[9], then atomically updates spm[4]
        // (release). B atomically updates spm[4] (acquire, mutating its
        // clock in place), then plain-reads spm[9]: ordered.
        let p = RaceProbe::new();
        let mut a = p.begin_event(key(3, 1), None);
        p.record_spm(&mut a, 1, 3, 9, false, true, 1);
        p.record_spm(&mut a, 1, 3, 4, true, true, 2);
        let mut b = p.begin_event(key(3, 2), None);
        p.record_spm(&mut b, 2, 3, 4, true, true, 3);
        p.record_spm(&mut b, 2, 3, 9, false, false, 4);
        assert!(p.snapshot().is_clean(), "spm RMW chain orders observer");
    }

    #[test]
    fn order_token_orders_lane_serialized_protocols() {
        // A writes data then declares the protocol on (lane 5, token 7);
        // B joins the same token and reads the data: ordered.
        let p = RaceProbe::new();
        let mut a = p.begin_event(key(5, 1), None);
        dram(&p, &a, 0x2000, true, false, 1);
        p.order_token(&mut a, 5, 7);
        let mut b = p.begin_event(key(5, 2), None);
        p.order_token(&mut b, 5, 7);
        dram(&p, &b, 0x2000, false, false, 2);
        assert!(p.snapshot().is_clean(), "token orders the read");

        // A different token (or lane) provides no edge.
        let p = RaceProbe::new();
        let mut a = p.begin_event(key(5, 1), None);
        dram(&p, &a, 0x2000, true, false, 1);
        p.order_token(&mut a, 5, 7);
        let mut b = p.begin_event(key(5, 2), None);
        p.order_token(&mut b, 5, 8);
        dram(&p, &b, 0x2000, false, false, 2);
        assert_eq!(p.snapshot().sites.len(), 1, "other token: still racing");
    }

    /// The detector's previous clock (a `BTreeMap` per thread, commit
    /// a87c478), kept as the reference the flat one is checked against.
    type RefClock = BTreeMap<u32, u32>;

    fn ref_join(dst: &mut RefClock, src: &RefClock) {
        for (k, &v) in src {
            let e = dst.entry(*k).or_insert(0);
            if *e < v {
                *e = v;
            }
        }
    }

    /// A flat clock `width` wide with about a third of its entries set,
    /// and the same clock in the reference form (which, like the old
    /// detector, has no entry for a thread it has not heard from).
    fn seeded_clock(rng: &mut u64, width: usize) -> (VClock, RefClock) {
        let mut flat = vec![0u32; width];
        let mut reference = RefClock::new();
        for (id, e) in flat.iter_mut().enumerate() {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (*rng >> 33).is_multiple_of(3) {
                *e = 1 + (*rng >> 40) as u32 % 1000;
                reference.insert(id as u32, *e);
            }
        }
        let clock = VClock {
            epochs: flat,
            owner: HOST,
        };
        (clock, reference)
    }

    fn same(flat: &VClock, reference: &RefClock, ids: u32) -> bool {
        (0..ids).all(|id| flat.get(id) == reference.get(&id).copied().unwrap_or(0))
    }

    #[test]
    fn flat_join_matches_the_tree_clock_on_unequal_widths() {
        let mut rng = 0x5eed_u64;
        let widths = [0usize, 1, 2, 7, 64, 65, 300];
        for &wa in &widths {
            for &wb in &widths {
                let (a, ra) = seeded_clock(&mut rng, wa);
                let (b, rb) = seeded_clock(&mut rng, wb);
                let ids = (wa.max(wb) + 3) as u32; // reads past both ends

                let mut ab = a.clone();
                ab.join(&b);
                let mut rab = ra.clone();
                ref_join(&mut rab, &rb);
                assert!(same(&ab, &rab, ids), "join, widths {wa} and {wb}");
                assert_eq!(
                    ab.epochs.len(),
                    wa.max(wb),
                    "zero-extended to the wider, no further"
                );

                let mut ba = b.clone();
                ba.join(&a);
                assert!(same(&ba, &rab, ids), "commutative, widths {wa} and {wb}");
                assert!(
                    a.le(&ab) && b.le(&ab),
                    "dominates both, widths {wa} and {wb}"
                );
                assert_eq!(ab.le(&a), b.le(&a), "no-op join, widths {wa} and {wb}");

                let mut again = ab.clone();
                again.join(&b);
                again.join(&a);
                assert_eq!(again.epochs, ab.epochs, "idempotent, widths {wa} and {wb}");
            }
        }
    }

    #[test]
    fn bump_zero_extends_and_leaves_other_entries() {
        let mut c = VClock::default();
        c.bump(5);
        c.bump(5);
        c.bump(2);
        assert_eq!(c.epochs, [0, 0, 1, 0, 0, 2]);
        assert_eq!(c.get(6), 0, "past the end reads as never heard from");
    }

    #[test]
    #[should_panic(expected = "a thread ran 2^32 events")]
    fn an_epoch_past_u32_panics_instead_of_wrapping() {
        let mut c = VClock::new(3);
        c.raise(3, u32::MAX);
        c.bump(3);
    }

    #[test]
    fn the_host_fold_of_own_epochs_is_the_join_of_every_final_clock() {
        // Three threads pass clocks around; two retire, one stays live
        // after a release-acquire. Folding own epochs gives the host
        // what joining every final clock gives it.
        let p = RaceProbe::new();
        let root = p.host_send();
        let a1 = p.begin_event(key(0, 1), Some(root.clone()));
        let b1 = p.begin_event(key(1, 1), Some(a1.clock.clone()));
        let a2 = p.begin_event(key(0, 1), Some(b1.clock.clone()));
        let c1 = p.begin_event(key(2, 1), Some(a2.clock.clone()));
        let mut b2 = p.begin_event(key(1, 1), Some(c1.clock.clone()));
        p.order_token(&mut b2, 1, 9);
        p.end_thread(&a2);
        p.end_thread(&c1);
        let mut full = VClock::default();
        for c in [&root, &a2.clock, &c1.clock, &b2.clock] {
            full.join(c);
        }
        p.finish_run(Vec::new(), false);
        let g = p.inner.lock().unwrap();
        let host = g.threads.clocks[HOST as usize].as_ref().unwrap();
        assert!(
            (0..6).all(|id| host.get(id) == full.get(id)),
            "{host:?} vs {full:?}"
        );
        assert_eq!(host.get(b2.who.id), 2, "the live thread's own epoch");
    }

    #[test]
    fn word_state_sees_shards_in_shard_order_whatever_the_host_order() {
        // Shard 1 serves b's read of a word before shard 0 serves a's
        // write, as two workers may; the word state must see shard 0's
        // access first, as one worker would, or the site's prior and
        // detail flip.
        let site = |host_order_first: u32| {
            let p = RaceProbe::new();
            let a = p.begin_event(key(0, 1), None);
            let b = p.begin_event(key(8, 1), None);
            let (acc_a, acc_b) = (a.access(1, false), b.access(2, false));
            let ops = [
                (0, &acc_a, true, 10), // shard 0: a writes at tick 10
                (1, &acc_b, false, 5), // shard 1: b reads at tick 5
            ];
            for k in [host_order_first, 1 - host_order_first] {
                let (shard, acc, write, tick) = ops[k as usize];
                p.record_dram(
                    acc,
                    shard,
                    VAddr(0x2000),
                    0x1000,
                    1,
                    false,
                    write,
                    tick,
                    true,
                );
            }
            for shard in [host_order_first, 1 - host_order_first] {
                p.end_window(shard, 2);
            }
            p.finish_run(vec!["?".into(), "a".into(), "b".into()], true);
            let r = p.snapshot();
            assert_eq!(r.sites.len(), 1);
            r.sites[0].clone()
        };
        let s = site(0);
        assert_eq!((s.prior.as_str(), s.current.as_str()), ("a", "b"));
        assert_eq!(s, site(1), "shard 1 served first on the host");
    }

    #[test]
    fn a_reply_coming_home_skips_the_join_and_bumps_in_place() {
        let p = RaceProbe::new();
        let a = p.begin_event(key(0, 1), None);
        let acc = a.access(1, false);
        let live = Arc::as_ptr(&a.clock);
        drop(a);
        // The read's reply carries the issuer's own snapshot home.
        assert!(p
            .record_dram(&acc, 0, VAddr(0x2000), 0x1000, 1, false, false, 1, true)
            .is_none());
        let a2 = p.begin_event(key(0, 1), Some(acc.clock));
        assert_eq!(a2.clock.get(a2.who.id), 2);
        assert!(
            std::ptr::eq(Arc::as_ptr(&a2.clock), live),
            "bumped in place, not copied"
        );
        // Another thread's snapshot is joined as before.
        let b = p.begin_event(key(1, 1), Some(a2.clock.clone()));
        assert_eq!(b.clock.get(a2.who.id), 2);
    }

    #[test]
    fn a_reused_slot_is_a_new_thread_and_the_old_ids_epochs_still_order() {
        let old_gen = ThreadKey {
            lane: 0,
            tid: 1,
            gen: 0,
        };
        let new_gen = ThreadKey { gen: 1, ..old_gen };

        // The first occupant of slot (0, 1) writes and terminates; the
        // second occupant never hears from it, so its write races.
        let p = RaceProbe::new();
        let a = p.begin_event(old_gen, None);
        dram(&p, &a, 0x2000, true, false, 1);
        p.end_thread(&a);
        let b = p.begin_event(new_gen, None);
        assert_ne!(a.who.id, b.who.id, "a generation bump is a fresh id");
        dram(&p, &b, 0x2000, true, false, 2);
        assert_eq!(
            p.snapshot().sites.len(),
            1,
            "same slot, different thread: unordered"
        );

        // Same, but the first occupant's clock reaches the second through
        // a message: the epoch recorded under the retired id orders it.
        let p = RaceProbe::new();
        let a = p.begin_event(old_gen, None);
        dram(&p, &a, 0x2000, true, false, 1);
        p.end_thread(&a);
        let b = p.begin_event(new_gen, Some(a.clock.clone()));
        assert_ne!(a.who.id, b.who.id);
        dram(&p, &b, 0x2000, true, false, 2);
        assert!(
            p.snapshot().is_clean(),
            "the retired id still orders its accesses"
        );

        // A live thread keeps its id from event to event.
        let c1 = p.begin_event(key(4, 9), None);
        let c2 = p.begin_event(key(4, 9), None);
        assert_eq!(c1.who.id, c2.who.id);
        assert_eq!(c2.clock.get(c2.who.id), 2, "second event, second epoch");
    }

    #[test]
    fn racing_readers_report_in_lane_tid_order_whatever_their_ids() {
        // Three unordered readers with one label, interned in two
        // different orders (as two shard interleavings would), then an
        // unordered write: the site's detail names the reader that is
        // first by (lane, tid), not by id.
        let detail = |order: [(u32, u16); 3]| {
            let p = RaceProbe::new();
            for (i, (lane, tid)) in order.into_iter().enumerate() {
                let r = p.begin_event(key(lane, tid), None);
                let acc = r.access(7, false);
                // Each reader reads at a tick that names it.
                let tick = 100 * lane as u64 + tid as u64;
                p.record_dram(&acc, 0, VAddr(0x2000), 0x1000, 1, false, false, tick, true);
                assert_eq!(r.who.id, i as u32 + 1);
            }
            let w = p.begin_event(key(9, 9), None);
            dram(&p, &w, 0x2000, true, false, 5000);
            let r = p.snapshot();
            assert_eq!(r.sites.len(), 1);
            assert_eq!(r.sites[0].count, 3);
            r.sites[0].detail.clone()
        };
        let d = detail([(2, 1), (1, 3), (1, 2)]);
        assert!(d.contains("read at tick 102 vs write at tick 5000"), "{d}");
        assert_eq!(d, detail([(1, 2), (2, 1), (1, 3)]));
    }

    #[test]
    fn many_readers_replace_their_own_read_and_clear_on_a_plain_write() {
        let p = RaceProbe::new();
        let readers: Vec<RaceExec> = (0..5).map(|t| p.begin_event(key(t, 1), None)).collect();
        for round in 0..2 {
            for r in &readers {
                dram(&p, r, 0x2000, false, false, 10 + round);
            }
        }
        {
            let g = p.inner.lock().unwrap();
            let st = &g.words.states[&Loc::Dram(0x2000)];
            assert_eq!(st.reads.as_slice().len(), 5, "one read per thread");
            assert!(
                st.reads.as_slice().iter().all(|a| a.tick == 11),
                "the later one"
            );
        }
        // A writer that has heard from every reader is ordered after all.
        let mut w = p.begin_event(key(7, 1), None);
        for r in &readers {
            w = p.begin_event(key(7, 1), Some(r.clock.clone()));
        }
        dram(&p, &w, 0x2000, true, false, 20);
        assert!(p.snapshot().is_clean());
        let g = p.inner.lock().unwrap();
        assert!(g.words.states[&Loc::Dram(0x2000)]
            .reads
            .as_slice()
            .is_empty());
    }
}
