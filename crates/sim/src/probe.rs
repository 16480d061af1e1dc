//! Event-protocol recording and runtime sanitizing.
//!
//! A [`ProtocolProbe`] is an optional observer attached to a run via
//! [`MachineConfig::probe`](crate::MachineConfig). It records a
//! *commutative* summary of the event protocol the program actually
//! exercised — who sent to whom, with how many operands, which handlers
//! terminate their threads, which read their continuation, which allocate
//! scratchpad — plus a deduplicated list of protocol [`Diagnostic`]s.
//! The `udcheck` analyzer (crate `crates/analysis`) turns the summary into
//! an event-flow graph and runs static checks over it.
//!
//! Each shard records into its own `ProtocolRecord` with plain `&mut`
//! access, so no lock is taken while the machine runs; at the end of
//! every run the engine merges the shard records in shard order, adds
//! the exit sweep, and publishes the result to the handle.
//!
//! Recording follows the same zero-observer-effect contract as
//! [`trace`](crate::trace): it never charges cycles and never perturbs the
//! calendar sequence, so simulated results are byte-identical with a probe
//! attached or not. All recorded quantities are per-label counters, sets
//! and `min`-merges, i.e. commutative across shards — the summary is also
//! identical at every `--threads` count.
//!
//! Attaching a probe also arms the runtime sanitizer: the engine
//! *tolerates* protocol violations instead of panicking — sends to dead
//! threads or unregistered labels are dropped, out-of-range operand and
//! scratchpad accesses read zero — each producing a deterministic
//! diagnostic. For a violation-free program the sanitizer changes
//! nothing: every guard only diverges on the violating path.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Cap on distinct sites one recording keeps (protocol diagnostics, race
/// sites); repeats of a kept site only bump its count, but pathological
/// programs could mint unbounded *distinct* sites.
pub(crate) const MAX_SITES: usize = 1024;

/// Deduplicated sites, each min-merged to its earliest (tick, lane)
/// occurrence, capped at [`MAX_SITES`] distinct keys. The cap keeps the
/// smallest keys, so which sites survive — and how many occurrences are
/// dropped — depends on the multiset of occurrences, never on the order
/// they arrive in nor on how they are split over the records
/// [`Sites::merge`] joins.
#[derive(Clone)]
pub(crate) struct Sites<K> {
    /// Key -> (first (tick, lane), detail of that occurrence, count).
    pub kept: BTreeMap<K, ((u64, u32), String, u64)>,
    /// Distinct keys dropped past the cap.
    pub dropped: BTreeSet<K>,
    /// Occurrences of the dropped keys.
    pub suppressed: u64,
}

impl<K> Default for Sites<K> {
    fn default() -> Self {
        Sites {
            kept: BTreeMap::new(),
            dropped: BTreeSet::new(),
            suppressed: 0,
        }
    }
}

impl<K: Ord + Copy> Sites<K> {
    /// Merge one occurrence of site `key` at `at`. `detail` is only
    /// rendered for a site's earliest occurrence, so callers may format
    /// freely without a hot-path cost for repeats.
    pub fn record(&mut self, key: K, at: (u64, u32), detail: impl FnOnce() -> String) {
        if let Some((first, d, count)) = self.kept.get_mut(&key) {
            *count += 1;
            if at < *first {
                *first = at;
                *d = detail();
            }
            return;
        }
        if self.kept.len() >= MAX_SITES {
            // Full: a key above every kept one is dropped; one below the
            // largest evicts it. The largest kept key only ever falls, so
            // a dropped key never comes back.
            if self.kept.last_key_value().is_some_and(|(&top, _)| key > top) {
                self.dropped.insert(key);
                self.suppressed += 1;
                return;
            }
            let (top, (_, _, count)) = self.kept.pop_last().expect("the cap is above zero");
            self.dropped.insert(top);
            self.suppressed += count;
        }
        self.kept.insert(key, (at, detail(), 1));
    }

    /// Merge another recording's sites into this one: the union of kept
    /// sites and of dropped keys, cut back to [`MAX_SITES`]. A key kept in
    /// the union is among the smallest of every recording that saw it, so
    /// this is exactly what one recording of all the occurrences gives.
    pub fn merge(&mut self, other: &Sites<K>) {
        for (&key, &(at, ref detail, count)) in &other.kept {
            let (first, d, n) = self.kept.entry(key).or_insert_with(|| (at, detail.clone(), 0));
            *n += count;
            if at < *first {
                *first = at;
                d.clone_from(detail);
            }
        }
        self.dropped.extend(&other.dropped);
        self.suppressed += other.suppressed;
        while self.kept.len() > MAX_SITES {
            let (top, (_, _, count)) = self.kept.pop_last().expect("the cap is above zero");
            self.dropped.insert(top);
            self.suppressed += count;
        }
    }
}

/// What went wrong. Ordering is severity-then-kind and is the primary sort
/// key of [`ProtocolProbe::diagnostics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagKind {
    /// `send_event` to an event label no handler was registered for.
    SendUnregistered,
    /// Message targeted a specific thread id that is no longer live.
    SendToDeadThread,
    /// `yield_terminate` called twice within one event execution.
    DoubleTerminate,
    /// `arg(i)` / `argf(i)` past the operand count of the message.
    OperandOutOfRange,
    /// `spm_read` / `spm_write` past the configured scratchpad size.
    ScratchpadOutOfBounds,
    /// `spm_alloc` past the configured scratchpad size.
    ScratchpadExhausted,
    /// A message carried a continuation, but the receiving execution
    /// terminated its thread without ever reading it — the continuation
    /// can never be resumed.
    UnconsumedContinuation,
    /// Threads of a creating label still live when the run drained.
    ThreadLeakAtExit,
    /// Scratchpad allocated by a thread group that leaked at exit.
    ScratchpadLeakAtExit,
}

impl DiagKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagKind::SendUnregistered => "send-unregistered",
            DiagKind::SendToDeadThread => "send-to-dead-thread",
            DiagKind::DoubleTerminate => "double-terminate",
            DiagKind::OperandOutOfRange => "operand-out-of-range",
            DiagKind::ScratchpadOutOfBounds => "scratchpad-out-of-bounds",
            DiagKind::ScratchpadExhausted => "scratchpad-exhausted",
            DiagKind::UnconsumedContinuation => "unconsumed-continuation",
            DiagKind::ThreadLeakAtExit => "thread-leak-at-exit",
            DiagKind::ScratchpadLeakAtExit => "scratchpad-leak-at-exit",
        }
    }
}

/// One deduplicated protocol violation site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagKind,
    /// Name of the handler the violation was observed in (the creating
    /// label's handler for leak-at-exit diagnostics).
    pub handler: String,
    pub detail: String,
    /// Simulated tick of the earliest occurrence (deterministic).
    pub first_tick: u64,
    /// Global lane id of the earliest occurrence.
    pub lane: u32,
    /// Occurrences merged into this site.
    pub count: u64,
}

/// Per-edge summary: all sends observed from one handler label to another.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeRecord {
    pub count: u64,
    /// Distinct operand counts sent on this edge.
    pub argcs: BTreeSet<u32>,
    /// Sends that carried a (non-IGNORE) continuation.
    pub with_cont: u64,
    /// Sends addressed to `ThreadId::NEW` (thread-creating).
    pub to_new: u64,
}

/// Per-handler-label summary of everything its executions did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandlerRecord {
    pub executions: u64,
    /// Executions that ended in `yield_terminate`.
    pub terminates: u64,
    /// Executions that read `ctx.cont()` at least once.
    pub cont_reads: u64,
    /// Executions whose triggering message carried a continuation.
    pub recv_with_cont: u64,
    /// Distinct operand counts of incoming messages.
    pub incoming_argcs: BTreeSet<u32>,
    /// Max operand index read via `arg`/`args`, keyed by the operand count
    /// of the triggering message (guarded handlers read different ranges
    /// under different arities, so the key matters).
    pub reads_by_argc: BTreeMap<u32, u32>,
    /// Total scratchpad words `spm_alloc`ed from this label.
    pub spm_alloc_words: u64,
    /// Outgoing sends keyed by destination label.
    pub sends: BTreeMap<u16, EdgeRecord>,
}

/// Per-thread-group summary. A group is keyed by the *creating label*: the
/// label of the message that allocated the thread context. (Grouping by
/// `ThreadType` name is useless here — the generic `udweave::event::<S>()`
/// registrar files many unrelated events under one `thread::` prefix.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupRecord {
    pub spawned: u64,
    pub terminated: u64,
    /// Threads of this group still live when the run drained naturally
    /// (only swept then; a `ctx.stop()`ed run legitimately leaves threads).
    pub live_at_exit: u64,
    /// Labels observed executing on threads of this group.
    pub labels: BTreeSet<u16>,
    /// Scratchpad words allocated by threads of this group.
    pub spm_alloc_words: u64,
}

/// Snapshot of everything a probe recorded, consumed by `udcheck`.
#[derive(Clone, Debug, Default)]
pub struct ProbeReport {
    /// Handler names indexed by event label (filled at end of run).
    pub handler_names: Vec<String>,
    pub handlers: BTreeMap<u16, HandlerRecord>,
    pub groups: BTreeMap<u16, GroupRecord>,
    /// Whether the run drained naturally (no `ctx.stop()`, no event-limit
    /// cut-off). Leak checks are only meaningful when true.
    pub drained: bool,
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostic *occurrences* dropped past `MAX_SITES` distinct sites
    /// (repeats of a dropped site all count).
    pub suppressed: u64,
    /// Distinct diagnostic *sites* dropped by the cap (the largest keys) —
    /// `diagnostics` is incomplete whenever this is non-zero.
    pub sites_truncated: u64,
    /// Per-lane live-thread highwater (global lane id → max live count),
    /// max-merged and thus commutative across shards.
    pub thread_highwater: BTreeMap<u32, u32>,
    /// Per-lane scratchpad-allocation highwater in words.
    pub spm_highwater: BTreeMap<u32, u32>,
}

impl ProbeReport {
    pub fn handler_name(&self, label: u16) -> &str {
        self.handler_names
            .get(label as usize)
            .map(|s| s.as_str())
            .unwrap_or("<unregistered>")
    }
}

/// Raise `map[key]` to at least `v` (a max-merge, so commutative).
fn raise<K: Ord>(map: &mut BTreeMap<K, u32>, key: K, v: u32) {
    let m = map.entry(key).or_insert(0);
    *m = (*m).max(v);
}

/// A protocol recording: what one shard records while the machine runs
/// and, merged in shard order at the end of a run, what the whole run
/// recorded. Every field merges commutatively, so the merged record is
/// the one a single sequential recording of the same events would give.
#[derive(Clone, Default)]
pub(crate) struct ProtocolRecord {
    handlers: BTreeMap<u16, HandlerRecord>,
    groups: BTreeMap<u16, GroupRecord>,
    /// Diagnostic sites keyed by (kind, label, aux).
    diags: Sites<(DiagKind, u16, u64)>,
    thread_hw: BTreeMap<u32, u32>,
    spm_hw: BTreeMap<u32, u32>,
    /// Handler names and how the run ended: set by
    /// [`ProtocolRecord::finish_run`] on a merged record only.
    names: Vec<String>,
    drained: bool,
    /// Operand reads of the execution in progress (`EventCtx::arg` takes
    /// `&self`): the highest index read plus one, and each index read past
    /// the operand count; [`ProtocolRecord::end_arg_reads`] folds them in.
    arg_hw: Cell<u32>,
    arg_oob: RefCell<Vec<u32>>,
}

impl ProtocolRecord {
    /// Record one completed event execution.
    pub(crate) fn exec(
        &mut self,
        label: u16,
        created_by: u16,
        argc: u32,
        has_cont: bool,
        cont_read: bool,
        terminated: bool,
    ) {
        let h = self.handlers.entry(label).or_default();
        h.executions += 1;
        h.incoming_argcs.insert(argc);
        if has_cont {
            h.recv_with_cont += 1;
        }
        if cont_read {
            h.cont_reads += 1;
        }
        if terminated {
            h.terminates += 1;
        }
        let grp = self.groups.entry(created_by).or_default();
        grp.labels.insert(label);
        if terminated {
            grp.terminated += 1;
        }
    }

    /// Record a thread-context allocation for a NEW-addressed message.
    /// `live` is the lane's live-thread count just after the allocation;
    /// each lane belongs to exactly one shard, so the per-lane max-merge
    /// is deterministic.
    pub(crate) fn spawn(&mut self, created_by: u16, lane: u32, live: u32) {
        self.groups.entry(created_by).or_default().spawned += 1;
        raise(&mut self.thread_hw, lane, live);
    }

    /// Record one `send_event` (host sends are not recorded: the graph
    /// covers device-side protocol only).
    pub(crate) fn send(&mut self, src: u16, dst: u16, argc: u32, has_cont: bool, to_new: bool) {
        let e = self
            .handlers
            .entry(src)
            .or_default()
            .sends
            .entry(dst)
            .or_default();
        e.count += 1;
        e.argcs.insert(argc);
        if has_cont {
            e.with_cont += 1;
        }
        if to_new {
            e.to_new += 1;
        }
    }

    /// Note an operand read at index `i` of an `argc`-operand message;
    /// whether it is past the end (the sanitizer then reads zero).
    pub(crate) fn note_arg(&self, i: usize, argc: usize) -> bool {
        self.arg_hw.set(self.arg_hw.get().max(i as u32 + 1));
        if i >= argc {
            self.arg_oob.borrow_mut().push(i as u32);
        }
        i >= argc
    }

    /// Fold the reads noted during one execution of `name` at (tick, lane)
    /// `at` into the record, with a diagnostic site per read past the end.
    pub(crate) fn end_arg_reads(&mut self, label: u16, argc: u32, at: (u64, u32), name: &str) {
        let read = self.arg_hw.take();
        if read > 0 {
            raise(&mut self.handlers.entry(label).or_default().reads_by_argc, argc, read - 1);
        }
        for i in self.arg_oob.get_mut().drain(..) {
            self.diags.record((DiagKind::OperandOutOfRange, label, i as u64), at, || {
                format!("'{name}' reads operand {i} of a {argc}-operand message")
            });
        }
    }

    /// Record a scratchpad allocation. `brk` is the lane's allocation
    /// break just after the grant (per-lane highwater, deterministic for
    /// the same reason as [`ProtocolRecord::spawn`]).
    pub(crate) fn spm_alloc_rec(&mut self, label: u16, created_by: u16, words: u32, lane: u32, brk: u32) {
        self.handlers.entry(label).or_default().spm_alloc_words += words as u64;
        self.groups.entry(created_by).or_default().spm_alloc_words += words as u64;
        raise(&mut self.spm_hw, lane, brk);
    }

    /// Record (or merge into) a diagnostic site. `aux` disambiguates sites
    /// within one (kind, label) — e.g. the destination label or offset.
    /// See [`Sites::record`] for `detail`.
    pub(crate) fn diag(
        &mut self,
        kind: DiagKind,
        label: u16,
        aux: u64,
        tick: u64,
        lane: u32,
        detail: impl FnOnce() -> String,
    ) {
        self.diags.record((kind, label, aux), (tick, lane), detail);
    }

    /// Merge another shard's record into this one.
    pub(crate) fn merge(&mut self, other: &ProtocolRecord) {
        for (&label, o) in &other.handlers {
            let h = self.handlers.entry(label).or_default();
            h.executions += o.executions;
            h.terminates += o.terminates;
            h.cont_reads += o.cont_reads;
            h.recv_with_cont += o.recv_with_cont;
            h.incoming_argcs.extend(&o.incoming_argcs);
            o.reads_by_argc.iter().for_each(|(&argc, &idx)| raise(&mut h.reads_by_argc, argc, idx));
            h.spm_alloc_words += o.spm_alloc_words;
            for (&dst, oe) in &o.sends {
                let e = h.sends.entry(dst).or_default();
                e.count += oe.count;
                e.argcs.extend(&oe.argcs);
                e.with_cont += oe.with_cont;
                e.to_new += oe.to_new;
            }
        }
        for (&label, o) in &other.groups {
            let g = self.groups.entry(label).or_default();
            g.spawned += o.spawned;
            g.terminated += o.terminated;
            g.live_at_exit += o.live_at_exit;
            g.labels.extend(&o.labels);
            g.spm_alloc_words += o.spm_alloc_words;
        }
        self.diags.merge(&other.diags);
        other.thread_hw.iter().for_each(|(&lane, &v)| raise(&mut self.thread_hw, lane, v));
        other.spm_hw.iter().for_each(|(&lane, &v)| raise(&mut self.spm_hw, lane, v));
    }

    /// Close a merged record at the end of a run: install the handler
    /// names and how the run ended, and — when it drained naturally —
    /// count the threads still live (`live` yields each one's creating
    /// label) and derive the leak-at-exit diagnostics. The sweep is taken
    /// afresh from the lanes on every run, never accumulated.
    pub(crate) fn finish_run(
        &mut self,
        names: Vec<String>,
        drained: bool,
        final_tick: u64,
        live: impl IntoIterator<Item = u16>,
    ) {
        self.names = names;
        self.drained = drained;
        if !drained {
            return;
        }
        for created_by in live {
            self.groups.entry(created_by).or_default().live_at_exit += 1;
        }
        for (&label, g) in self.groups.iter().filter(|(_, g)| g.live_at_exit > 0) {
            let (live, spm_words) = (g.live_at_exit, g.spm_alloc_words);
            let at = (final_tick, 0);
            self.diags.record((DiagKind::ThreadLeakAtExit, label, live), at, || {
                format!("{live} thread(s) of this group still live after the run drained")
            });
            if spm_words > 0 {
                self.diags.record((DiagKind::ScratchpadLeakAtExit, label, spm_words), at, || {
                    format!(
                        "{spm_words} scratchpad word(s) allocated by a thread group \
                         that never fully terminated"
                    )
                });
            }
        }
    }

    /// All diagnostics, ordered by (kind, label, site).
    fn diagnostics(&self) -> Vec<Diagnostic> {
        self.diags
            .kept
            .iter()
            .map(|(&(kind, label, _aux), &((tick, lane), ref detail, count))| Diagnostic {
                kind,
                handler: self
                    .names
                    .get(label as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("<label {label}>")),
                detail: detail.clone(),
                first_tick: tick,
                lane,
                count,
            })
            .collect()
    }

    fn report(&self) -> ProbeReport {
        ProbeReport {
            handler_names: self.names.clone(),
            handlers: self.handlers.clone(),
            groups: self.groups.clone(),
            drained: self.drained,
            diagnostics: self.diagnostics(),
            suppressed: self.diags.suppressed,
            sites_truncated: self.diags.dropped.len() as u64,
            thread_highwater: self.thread_hw.clone(),
            spm_highwater: self.spm_hw.clone(),
        }
    }
}

/// Shared handle to a protocol recording: the engine publishes its merged
/// record here after every run, so attach one handle per engine. `Clone`
/// shares it: keep one clone and pass another inside
/// [`MachineConfig`](crate::MachineConfig).
#[derive(Clone, Default)]
pub struct ProtocolProbe {
    published: Arc<std::sync::Mutex<ProtocolRecord>>, // det-lint: allow — end-of-run outbox, written after the workers join
}

impl fmt::Debug for ProtocolProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProtocolProbe")
    }
}

impl ProtocolProbe {
    pub fn new() -> ProtocolProbe {
        ProtocolProbe::default()
    }

    /// Replace what the handle shows with a run's merged record.
    pub(crate) fn publish(&self, record: ProtocolRecord) {
        *self.published.lock().expect("no publish panicked") = record;
    }

    /// Per-lane live-thread and scratchpad highwaters (lane → max).
    pub fn highwaters(&self) -> (BTreeMap<u32, u32>, BTreeMap<u32, u32>) {
        let g = self.published.lock().expect("no publish panicked");
        (g.thread_hw.clone(), g.spm_hw.clone())
    }

    /// All diagnostics, deterministically ordered by (kind, label, site)
    /// and identical at every thread count.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.published.lock().expect("no publish panicked").diagnostics()
    }

    /// Full snapshot for the `udcheck` analyzer.
    pub fn snapshot(&self) -> ProbeReport {
        self.published.lock().expect("no publish panicked").report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_sites_merge_and_keep_earliest() {
        let mut r = ProtocolRecord::default();
        r.diag(DiagKind::DoubleTerminate, 3, 0, 50, 2, || "late".into());
        r.diag(DiagKind::DoubleTerminate, 3, 0, 10, 7, || "early".into());
        r.diag(DiagKind::DoubleTerminate, 3, 0, 99, 1, || "later".into());
        let d = r.diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].count, 3);
        assert_eq!(d[0].first_tick, 10);
        assert_eq!(d[0].lane, 7);
        assert_eq!(d[0].detail, "early");
    }

    #[test]
    fn distinct_aux_makes_distinct_sites() {
        let mut r = ProtocolRecord::default();
        r.diag(DiagKind::SendUnregistered, 1, 100, 5, 0, || "a".into());
        r.diag(DiagKind::SendUnregistered, 1, 200, 5, 0, || "b".into());
        assert_eq!(r.diagnostics().len(), 2);
    }

    #[test]
    fn site_cap_suppresses_overflow() {
        let mut r = ProtocolRecord::default();
        for i in 0..(MAX_SITES as u64 + 10) {
            r.diag(DiagKind::OperandOutOfRange, 0, i, 1, 0, String::new);
        }
        let r = r.report();
        assert_eq!(r.diagnostics.len(), MAX_SITES);
        assert_eq!(r.suppressed, 10);
        assert_eq!(r.sites_truncated, 10);
    }

    #[test]
    fn site_cap_keeps_the_same_sites_in_any_arrival_order() {
        // Past the cap, which sites survive and how many occurrences are
        // suppressed must not depend on the order occurrences arrive in,
        // nor on how they are split over shard records merged at the end
        // of a run: the smallest keys stay, and an evicted site's count
        // moves into `suppressed`. Site i occurs i % 3 + 1 times, at ticks
        // i..=i + i % 3.
        fn occur(r: &mut ProtocolRecord, i: u64, k: u64) {
            r.diag(DiagKind::OperandOutOfRange, 0, i, i + k, 0, || {
                format!("site {i}")
            });
        }
        let sequential = |order: Vec<u64>| {
            let mut r = ProtocolRecord::default();
            for i in order {
                (0..=i % 3).for_each(|k| occur(&mut r, i, k));
            }
            r.report()
        };
        // Occurrence k of site i lands in record (i + k) % parts, so a
        // site can be kept in one record and dropped in another.
        let merged = |n: u64, parts: u64| {
            let mut shards = vec![ProtocolRecord::default(); parts as usize];
            for i in 0..n {
                (0..=i % 3).for_each(|k| occur(&mut shards[((i + k) % parts) as usize], i, k));
            }
            let mut all = ProtocolRecord::default();
            shards.iter().for_each(|r| all.merge(r));
            all.report()
        };
        // Just past the cap, and far enough past it that every one of
        // seven records overflows on its own.
        for n in [MAX_SITES as u64 + 10, 8 * MAX_SITES as u64] {
            let up = sequential((0..n).collect());
            assert_eq!(up.sites_truncated, n - MAX_SITES as u64);
            let down = sequential((0..n).rev().collect());
            let split = [2, 3, 7].map(|parts| merged(n, parts));
            for other in split.iter().chain([&down]) {
                assert_eq!(up.diagnostics, other.diagnostics);
                assert_eq!(
                    (up.suppressed, up.sites_truncated),
                    (other.suppressed, other.sites_truncated)
                );
            }
        }
    }

    #[test]
    fn truncated_counts_distinct_sites_not_occurrences() {
        let mut r = ProtocolRecord::default();
        for i in 0..(MAX_SITES as u64 + 2) {
            r.diag(DiagKind::OperandOutOfRange, 0, i, 1, 0, String::new);
        }
        // Repeat the two dropped sites: occurrences grow, sites do not.
        for _ in 0..3 {
            r.diag(
                DiagKind::OperandOutOfRange,
                0,
                MAX_SITES as u64,
                1,
                0,
                String::new,
            );
            r.diag(
                DiagKind::OperandOutOfRange,
                0,
                MAX_SITES as u64 + 1,
                1,
                0,
                String::new,
            );
        }
        let rep = r.report();
        assert_eq!(rep.suppressed, 8, "2 first drops + 6 repeats");
        assert_eq!(rep.sites_truncated, 2);
        // A repeat of a *kept* site still merges normally.
        r.diag(DiagKind::OperandOutOfRange, 0, 0, 1, 0, String::new);
        assert_eq!(r.report().sites_truncated, 2);
    }

    #[test]
    fn leak_sweep_only_on_drained_runs() {
        let leaky = |drained: bool| {
            let mut r = ProtocolRecord::default();
            r.spawn(4, 0, 1);
            r.spm_alloc_rec(4, 4, 16, 0, 16);
            r.finish_run(vec!["a".into(); 5], drained, 1000, [4]);
            r
        };
        let stopped = leaky(false);
        assert!(
            stopped.diagnostics().is_empty(),
            "stopped run: no leak sweep"
        );
        assert_eq!(stopped.groups[&4].live_at_exit, 0);

        let drained = leaky(true);
        let kinds: Vec<DiagKind> = drained.diagnostics().iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![DiagKind::ThreadLeakAtExit, DiagKind::ScratchpadLeakAtExit]
        );
        assert_eq!(drained.groups[&4].live_at_exit, 1);
    }

    #[test]
    fn summaries_are_commutative() {
        // Two interleavings of the same records, and the same records
        // split over two shard records and merged, produce identical
        // reports.
        type Op = fn(&mut ProtocolRecord);
        let ops: [Op; 5] = [
            |r| r.exec(1, 1, 2, true, true, false),
            |r| r.exec(1, 1, 3, false, false, true),
            |r| r.send(1, 2, 2, false, true),
            |r| {
                r.note_arg(1, 2);
                r.end_arg_reads(1, 2, (0, 0), "x");
            },
            |r| r.spawn(1, 0, 1),
        ];
        let mk = |order: &[usize], split: usize| {
            let (mut a, mut b) = (ProtocolRecord::default(), ProtocolRecord::default());
            for (n, &i) in order.iter().enumerate() {
                ops[i](if n < split { &mut a } else { &mut b });
            }
            a.merge(&b);
            a.finish_run(vec!["x".into(); 3], false, 0, []);
            a.report()
        };
        let a = mk(&[0, 1, 2, 3, 4], 5);
        for b in [
            mk(&[4, 3, 2, 1, 0], 5),
            mk(&[0, 1, 2, 3, 4], 2),
            mk(&[4, 3, 2, 1, 0], 3),
        ] {
            assert_eq!(a.handlers, b.handlers);
            assert_eq!(a.groups, b.groups);
        }
    }
}
