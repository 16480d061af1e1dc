//! The handler-facing half of [`EventCtx`]: the UDWeave machine interface
//! (operands, thread state, sends, DRAM, scratchpad, counters, phases).

use super::core::{shard_value, EventCtx, MemOp, Outgoing, ShardSlot, TableSlot};
use crate::config::{MachineConfig, OP_COSTS};
use crate::ids::{EventLabel, EventWord, NetworkId, ThreadId};
use crate::lane::SimState;
use crate::memory::VAddr;
use crate::message::{Message, Operands};
use crate::probe::DiagKind;

fn default_state<T: Default + Send + Clone + 'static>() -> Box<dyn SimState> {
    Box::<T>::default()
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
        if let Some(p) = &self.shard.protocol {
            let n = self.msg.args.len();
            if n > 0 {
                p.note_arg(n - 1, n);
            }
        }
        &self.msg.args
    }

    /// Operand `i` of the triggering message. Panics past the operand
    /// count — unless a probe is attached (the sanitizer is armed), which
    /// diagnoses and reads zero.
    #[inline]
    pub fn arg(&self, i: usize) -> u64 {
        if let Some(p) = &self.shard.protocol {
            if p.note_arg(i, self.msg.args.len()) {
                return 0;
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
        if !self.state.as_ref().is_some_and(|s| s.as_any().is::<T>()) {
            self.state = Some(default_state::<T>());
        }
        self.state
            .as_mut()
            .and_then(|s| s.as_any_mut().downcast_mut::<T>())
            .expect("state box holds a T")
    }

    /// Run `f` with `&mut S` borrowed from the thread's own state box
    /// (default-initialized when the thread has none of this type yet):
    /// the box is detached for the call and reattached after it, so a
    /// typed event allocates only at a thread's first use. While detached
    /// the thread has no state box (`state_mut` starts a fresh default),
    /// and whatever `f` leaves there is superseded by the typed state on
    /// return.
    pub fn with_state<S: Default + Send + Clone + 'static, R>(
        &mut self,
        f: impl FnOnce(&mut EventCtx<'a>, &mut S) -> R,
    ) -> R {
        let mut boxed = match self.state.take() {
            Some(b) if b.as_any().is::<S>() => b,
            _ => default_state::<S>(),
        };
        let st = boxed
            .as_any_mut()
            .downcast_mut::<S>()
            .expect("state box holds an S");
        let r = f(self, st);
        self.state = Some(boxed);
        r
    }

    // ---- shard state and program tables ----------------------------------

    /// This shard's value for `slot`, defaulted at first touch. A shard is
    /// only ever executed by the worker that claimed it, so the borrow
    /// needs no lock; what other shards hold is out of reach by design.
    pub fn shard_state<T: Default + Send + Clone + 'static>(&mut self, slot: ShardSlot<T>) -> &mut T {
        shard_value(&mut self.shard.state[slot.0 as usize])
    }

    /// Run `f` with this shard's value for `slot` detached, so the borrow
    /// can span other `ctx` calls (the shard-state form of
    /// [`EventCtx::with_state`]). `f` must not reach for the same slot.
    pub fn with_shard_state<T: Default + Send + Clone + 'static, R>(
        &mut self,
        slot: ShardSlot<T>,
        f: impl FnOnce(&mut EventCtx<'a>, &mut T) -> R,
    ) -> R {
        let i = slot.0 as usize;
        let mut cell = self.shard.state[i].take();
        let r = f(self, shard_value(&mut cell));
        debug_assert!(self.shard.state[i].is_none(), "shard slot touched while detached");
        self.shard.state[i] = cell;
        r
    }

    /// The program table behind `slot`. The borrow lives as long as the
    /// run, not as long as `self`, so a closure stored in a table can be
    /// called with this context.
    pub fn table<T: 'static>(&self, slot: TableSlot<T>) -> &'a T {
        self.shared.tables[slot.0 as usize].get()
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
        self.cost += OP_COSTS.send_msg;
        let args = args.into();
        if let Some(p) = &mut self.shard.protocol {
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
            Message::new(dst, args, cont, self.nwid()),
            delay,
            self.race.as_ref().map(|r| r.clock.clone()),
        ));
    }

    /// Reply on the continuation if one was provided.
    pub fn send_reply(&mut self, args: impl Into<Operands>) {
        let c = self.cont();
        if !c.is_ignore() {
            self.send_event(c, args, EventWord::IGNORE);
        }
    }

    // ---- DRAM ------------------------------------------------------------

    /// Charge the issue of `op` and queue it, with this execution's race
    /// context when a race probe is attached.
    // Forced inline for the measured reason given at `MemOp::apply`.
    #[inline(always)]
    fn push_dram(&mut self, op: MemOp) {
        self.cost += OP_COSTS.send_dram;
        let race = self.race.as_ref().map(|r| r.access(self.msg.dst.label().0, op.is_atomic()));
        self.out.push(Outgoing::Dram(op, race));
    }

    /// The reply word of a DRAM request: `label` on this thread, or
    /// `IGNORE` for none.
    fn reply_word(&self, label: Option<EventLabel>) -> EventWord {
        label.map_or(EventWord::IGNORE, |l| self.self_event(l))
    }

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
        let ret = self.self_event(ret_label);
        self.push_dram(MemOp::Read {
            va,
            nwords: nwords as u8,
            ret,
            tag,
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
        let ack = self.reply_word(ack_label);
        self.push_dram(MemOp::Write {
            va,
            words: Operands::from(words),
            ack,
            tag,
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
        let ret = self.reply_word(ret_label);
        self.push_dram(MemOp::AddU64 { va, delta, ret, tag });
    }

    /// Memory-side atomic add on an f64 cell.
    pub fn dram_fetch_add_f64(
        &mut self,
        va: VAddr,
        delta: f64,
        ret_label: Option<EventLabel>,
        tag: Option<u64>,
    ) {
        let ret = self.reply_word(ret_label);
        self.push_dram(MemOp::AddF64 { va, delta, ret, tag });
    }

    // ---- scratchpad --------------------------------------------------------

    #[inline]
    fn local_lane_idx(&self) -> usize {
        (self.lane - self.shard.base_lane) as usize
    }

    /// Sanitizer diagnostic for a scratchpad access past `spm_words`;
    /// false when no probe is attached (the access then panics).
    fn spm_oob_diag(&mut self, op: &str, off: u32) -> bool {
        let Some(p) = &mut self.shard.protocol else {
            return false;
        };
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
        true
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
    /// unless a probe is attached (the sanitizer is armed), which
    /// diagnoses and reads zero.
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
        if off >= self.shared.cfg.spm_words && self.spm_oob_diag("spm_read", off) {
            self.cost += OP_COSTS.spd_access;
            return 0;
        }
        assert!(off < self.shared.cfg.spm_words, "scratchpad overflow");
        self.cost += OP_COSTS.spd_access;
        self.spm_race(off, atomic, false);
        let idx = self.local_lane_idx();
        self.shard.lanes[idx].spm.read(off)
    }

    /// Scratchpad store (1 cycle), word-addressed. Out-of-bounds panics —
    /// unless a probe is attached (the sanitizer is armed), which
    /// diagnoses and drops the store.
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
        if off >= self.shared.cfg.spm_words && self.spm_oob_diag("spm_write", off) {
            self.cost += OP_COSTS.spd_access;
            return;
        }
        assert!(off < self.shared.cfg.spm_words, "scratchpad overflow");
        self.cost += OP_COSTS.spd_access;
        self.spm_race(off, atomic, true);
        let idx = self.local_lane_idx();
        self.shard.lanes[idx].spm.write(off, v);
    }

    /// Raw bump-allocate `words` of this lane's scratchpad (spMalloc's
    /// backing primitive). Panics when the scratchpad is exhausted —
    /// unless a probe is attached (the sanitizer is armed), which
    /// diagnoses and refuses the bump.
    pub fn spm_alloc(&mut self, words: u32) -> u32 {
        let idx = self.local_lane_idx();
        let base = self.shard.lanes[idx].spm_brk;
        if base + words > self.shared.cfg.spm_words {
            if let Some(p) = &mut self.shard.protocol {
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
                return base;
            }
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
        if let Some(p) = &mut self.shard.protocol {
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
            if let Some(p) = &mut self.shard.protocol {
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
