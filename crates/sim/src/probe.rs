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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Cap on distinct sites one recording keeps (protocol diagnostics, race
/// sites); repeats of a kept site only bump its count, but pathological
/// programs could mint unbounded *distinct* sites.
pub(crate) const MAX_SITES: usize = 1024;

/// Deduplicated sites, each min-merged to its earliest (tick, lane)
/// occurrence, capped at [`MAX_SITES`] distinct keys. The cap keeps the
/// smallest keys, so which sites survive — and how many occurrences are
/// dropped — depends on the multiset of occurrences, never on the order
/// shards deliver them in.
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
    /// Observed behavior deviated from the program's declared protocol
    /// spec ([`MachineConfig::enforce_spec`](crate::MachineConfig)).
    SpecViolation,
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
            DiagKind::SpecViolation => "spec-violation",
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
    /// Diagnostic *occurrences* dropped past [`MAX_SITES`] distinct sites
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

#[derive(Clone, Default)]
struct Inner {
    handlers: BTreeMap<u16, HandlerRecord>,
    groups: BTreeMap<u16, GroupRecord>,
    names: Vec<String>,
    /// Diagnostic sites keyed by (kind, label, aux).
    diags: Sites<(DiagKind, u16, u64)>,
    drained: bool,
    thread_hw: BTreeMap<u32, u32>,
    spm_hw: BTreeMap<u32, u32>,
    /// Spec-enforcement findings, appended once at end of run (already
    /// deterministically ordered by `spec::check_report`).
    spec: Vec<Diagnostic>,
}

/// Opaque deep copy of a probe recording at a snapshot point; restored by
/// [`ProtocolProbe::restore_state`] so a rewound engine replays into the
/// same probe contents it had at the checkpoint.
#[derive(Clone)]
pub(crate) struct ProbeState(Inner);

/// Shared handle to a protocol recording. `Clone` shares the recording:
/// keep one clone and pass another inside [`MachineConfig`](crate::MachineConfig).
#[derive(Clone, Default)]
pub struct ProtocolProbe {
    inner: Arc<Mutex<Inner>>,
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

    /// Deep-copy the recording for a snapshot.
    pub(crate) fn snapshot_state(&self) -> ProbeState {
        ProbeState(self.inner.lock().unwrap().clone())
    }

    /// Rewind the recording to a previously snapshotted state.
    pub(crate) fn restore_state(&self, st: &ProbeState) {
        *self.inner.lock().unwrap() = st.0.clone();
    }

    /// Record one completed event execution.
    pub(crate) fn exec(
        &self,
        label: u16,
        created_by: u16,
        argc: u32,
        has_cont: bool,
        cont_read: bool,
        terminated: bool,
    ) {
        let mut g = self.inner.lock().unwrap();
        let h = g.handlers.entry(label).or_default();
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
        let grp = g.groups.entry(created_by).or_default();
        grp.labels.insert(label);
        if terminated {
            grp.terminated += 1;
        }
    }

    /// Record a thread-context allocation for a NEW-addressed message.
    /// `live` is the lane's live-thread count just after the allocation;
    /// each lane belongs to exactly one shard, so the per-lane max-merge
    /// is deterministic.
    pub(crate) fn spawn(&self, created_by: u16, lane: u32, live: u32) {
        let mut g = self.inner.lock().unwrap();
        g.groups.entry(created_by).or_default().spawned += 1;
        let hw = g.thread_hw.entry(lane).or_insert(0);
        *hw = (*hw).max(live);
    }

    /// Record one `send_event` (host sends are not recorded: the graph
    /// covers device-side protocol only).
    pub(crate) fn send(&self, src: u16, dst: u16, argc: u32, has_cont: bool, to_new: bool) {
        let mut g = self.inner.lock().unwrap();
        let e = g
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

    /// Record an operand read at index `idx` under a message of `argc`
    /// operands.
    pub(crate) fn arg_read(&self, label: u16, argc: u32, idx: u32) {
        let mut g = self.inner.lock().unwrap();
        let h = g.handlers.entry(label).or_default();
        let m = h.reads_by_argc.entry(argc).or_insert(0);
        *m = (*m).max(idx);
    }

    /// Record a scratchpad allocation. `brk` is the lane's allocation
    /// break just after the grant (per-lane highwater, deterministic for
    /// the same reason as [`ProtocolProbe::spawn`]).
    pub(crate) fn spm_alloc_rec(&self, label: u16, created_by: u16, words: u32, lane: u32, brk: u32) {
        let mut g = self.inner.lock().unwrap();
        g.handlers.entry(label).or_default().spm_alloc_words += words as u64;
        g.groups.entry(created_by).or_default().spm_alloc_words += words as u64;
        let hw = g.spm_hw.entry(lane).or_insert(0);
        *hw = (*hw).max(brk);
    }

    /// Record (or merge into) a diagnostic site. `aux` disambiguates sites
    /// within one (kind, label) — e.g. the destination label or offset.
    /// See [`Sites::record`] for `detail`.
    pub(crate) fn diag(
        &self,
        kind: DiagKind,
        label: u16,
        aux: u64,
        tick: u64,
        lane: u32,
        detail: impl FnOnce() -> String,
    ) {
        let mut g = self.inner.lock().unwrap();
        g.diags.record((kind, label, aux), (tick, lane), detail);
    }

    /// Record one thread still live when the run drained.
    pub(crate) fn live_at_exit(&self, created_by: u16) {
        self.inner
            .lock()
            .unwrap()
            .groups
            .entry(created_by)
            .or_default()
            .live_at_exit += 1;
    }

    /// Called by the engine at end of run: install handler names, note how
    /// the run ended, and — when it drained naturally — derive the
    /// leak-at-exit diagnostics from the group summaries.
    pub(crate) fn finish_run(&self, names: Vec<String>, drained: bool, final_tick: u64) {
        {
            let mut g = self.inner.lock().unwrap();
            g.names = names;
            g.drained = drained;
        }
        if !drained {
            return;
        }
        // Leak diagnostics (outside the lock held above; `diag` re-locks).
        let groups: Vec<(u16, u64, u64)> = {
            let g = self.inner.lock().unwrap();
            g.groups
                .iter()
                .filter(|(_, r)| r.live_at_exit > 0)
                .map(|(&l, r)| (l, r.live_at_exit, r.spm_alloc_words))
                .collect()
        };
        for (label, live, spm_words) in groups {
            self.diag(DiagKind::ThreadLeakAtExit, label, live, final_tick, 0, || {
                format!("{live} thread(s) of this group still live after the run drained")
            });
            if spm_words > 0 {
                self.diag(
                    DiagKind::ScratchpadLeakAtExit,
                    label,
                    spm_words,
                    final_tick,
                    0,
                    || {
                        format!(
                            "{spm_words} scratchpad word(s) allocated by a thread group \
                             that never fully terminated"
                        )
                    },
                );
            }
        }
        // Repeated runs of one engine would double-count the sweep; the
        // udcheck flow is one run per probe, so merged counts stay exact.
    }

    /// Record one spec-enforcement finding (end of run; callers pass an
    /// already-sorted batch so ordering stays deterministic).
    pub(crate) fn spec_violation(&self, handler: String, detail: String, tick: u64) {
        self.inner.lock().unwrap().spec.push(Diagnostic {
            kind: DiagKind::SpecViolation,
            handler,
            detail,
            first_tick: tick,
            lane: 0,
            count: 1,
        });
    }

    /// Per-lane live-thread and scratchpad highwaters (lane → max).
    pub fn highwaters(&self) -> (BTreeMap<u32, u32>, BTreeMap<u32, u32>) {
        let g = self.inner.lock().unwrap();
        (g.thread_hw.clone(), g.spm_hw.clone())
    }

    /// All diagnostics, deterministically ordered by (kind, label, site)
    /// and identical at every thread count.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let g = self.inner.lock().unwrap();
        g.diags
            .kept
            .iter()
            .map(|(&(kind, label, _aux), &((tick, lane), ref detail, count))| Diagnostic {
                kind,
                handler: g
                    .names
                    .get(label as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("<label {label}>")),
                detail: detail.clone(),
                first_tick: tick,
                lane,
                count,
            })
            .chain(g.spec.iter().cloned())
            .collect()
    }

    /// Full snapshot for the `udcheck` analyzer.
    pub fn snapshot(&self) -> ProbeReport {
        let diags = self.diagnostics();
        let g = self.inner.lock().unwrap();
        ProbeReport {
            handler_names: g.names.clone(),
            handlers: g.handlers.clone(),
            groups: g.groups.clone(),
            drained: g.drained,
            diagnostics: diags,
            suppressed: g.diags.suppressed,
            sites_truncated: g.diags.dropped.len() as u64,
            thread_highwater: g.thread_hw.clone(),
            spm_highwater: g.spm_hw.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_sites_merge_and_keep_earliest() {
        let p = ProtocolProbe::new();
        p.diag(DiagKind::DoubleTerminate, 3, 0, 50, 2, || "late".into());
        p.diag(DiagKind::DoubleTerminate, 3, 0, 10, 7, || "early".into());
        p.diag(DiagKind::DoubleTerminate, 3, 0, 99, 1, || "later".into());
        let d = p.diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].count, 3);
        assert_eq!(d[0].first_tick, 10);
        assert_eq!(d[0].lane, 7);
        assert_eq!(d[0].detail, "early");
    }

    #[test]
    fn distinct_aux_makes_distinct_sites() {
        let p = ProtocolProbe::new();
        p.diag(DiagKind::SendUnregistered, 1, 100, 5, 0, || "a".into());
        p.diag(DiagKind::SendUnregistered, 1, 200, 5, 0, || "b".into());
        assert_eq!(p.diagnostics().len(), 2);
    }

    #[test]
    fn site_cap_suppresses_overflow() {
        let p = ProtocolProbe::new();
        for i in 0..(MAX_SITES as u64 + 10) {
            p.diag(DiagKind::OperandOutOfRange, 0, i, 1, 0, String::new);
        }
        let r = p.snapshot();
        assert_eq!(r.diagnostics.len(), MAX_SITES);
        assert_eq!(r.suppressed, 10);
        assert_eq!(r.sites_truncated, 10);
    }

    #[test]
    fn site_cap_keeps_the_same_sites_in_any_arrival_order() {
        // Past the cap, which sites survive and how many occurrences are
        // suppressed must not depend on which shard reached the probe
        // first: the smallest keys stay, and an evicted site's count moves
        // into `suppressed`.
        let n = MAX_SITES as u64 + 10;
        let report = |order: Vec<u64>| {
            let p = ProtocolProbe::new();
            for i in order {
                // Site i occurs i % 3 + 1 times.
                for k in 0..=i % 3 {
                    p.diag(DiagKind::OperandOutOfRange, 0, i, i + k, 0, || format!("site {i}"));
                }
            }
            p.snapshot()
        };
        let (up, down) = (report((0..n).collect()), report((0..n).rev().collect()));
        assert_eq!(up.diagnostics, down.diagnostics);
        assert_eq!(
            (up.suppressed, up.sites_truncated),
            (down.suppressed, down.sites_truncated)
        );
        assert_eq!(up.sites_truncated, 10);
    }

    #[test]
    fn truncated_counts_distinct_sites_not_occurrences() {
        let p = ProtocolProbe::new();
        for i in 0..(MAX_SITES as u64 + 2) {
            p.diag(DiagKind::OperandOutOfRange, 0, i, 1, 0, String::new);
        }
        // Repeat the two dropped sites: occurrences grow, sites do not.
        for _ in 0..3 {
            p.diag(DiagKind::OperandOutOfRange, 0, MAX_SITES as u64, 1, 0, String::new);
            p.diag(DiagKind::OperandOutOfRange, 0, MAX_SITES as u64 + 1, 1, 0, String::new);
        }
        let r = p.snapshot();
        assert_eq!(r.suppressed, 8, "2 first drops + 6 repeats");
        assert_eq!(r.sites_truncated, 2);
        // A repeat of a *kept* site still merges normally.
        p.diag(DiagKind::OperandOutOfRange, 0, 0, 1, 0, String::new);
        assert_eq!(p.snapshot().sites_truncated, 2);
    }

    #[test]
    fn leak_sweep_only_on_drained_runs() {
        let p = ProtocolProbe::new();
        p.spawn(4, 0, 1);
        p.spm_alloc_rec(4, 4, 16, 0, 16);
        p.live_at_exit(4);
        p.finish_run(vec!["a".into(); 5], false, 1000);
        assert!(p.diagnostics().is_empty(), "stopped run: no leak sweep");

        let p = ProtocolProbe::new();
        p.spawn(4, 0, 1);
        p.spm_alloc_rec(4, 4, 16, 0, 16);
        p.live_at_exit(4);
        p.finish_run(vec!["a".into(); 5], true, 1000);
        let kinds: Vec<DiagKind> = p.diagnostics().iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![DiagKind::ThreadLeakAtExit, DiagKind::ScratchpadLeakAtExit]
        );
    }

    #[test]
    fn summaries_are_commutative() {
        // Two interleavings of the same records produce identical reports.
        type Op = Box<dyn Fn(&ProtocolProbe)>;
        let mk = |order: &[usize]| {
            let p = ProtocolProbe::new();
            let ops: Vec<Op> = vec![
                Box::new(|p| p.exec(1, 1, 2, true, true, false)),
                Box::new(|p| p.exec(1, 1, 3, false, false, true)),
                Box::new(|p| p.send(1, 2, 2, false, true)),
                Box::new(|p| p.arg_read(1, 2, 1)),
                Box::new(|p| p.spawn(1, 0, 1)),
            ];
            for &i in order {
                ops[i](&p);
            }
            p.finish_run(vec!["x".into(); 3], false, 0);
            p.snapshot()
        };
        let a = mk(&[0, 1, 2, 3, 4]);
        let b = mk(&[4, 3, 2, 1, 0]);
        assert_eq!(a.handlers, b.handlers);
        assert_eq!(a.groups, b.groups);
    }
}
