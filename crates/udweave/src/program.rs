//! Typed event registration: the UDWeave "thread" structure (§2.1.1)
//! expressed in Rust.
//!
//! A UDWeave `thread` declares state variables shared by its events. Here a
//! [`ThreadType<S>`] groups events whose handlers receive `&mut S` (the
//! thread-scope variables) alongside the [`EventCtx`]. Events execute
//! atomically, so `&mut S` is race-free by construction — the same property
//! the paper's model guarantees.

use std::sync::Arc;

use updown_sim::spec::{ProgramSpec, ThreadDecl};
use updown_sim::{Engine, EventCtx, EventLabel, SnapState};

/// A group of events sharing a thread-state type `S`. `S` is a
/// [`SnapState`], so a live thread's state can go into an on-disk
/// snapshot: registering an event registers the codec too.
///
/// ```
/// use updown_sim::{Engine, MachineConfig, EventWord, NetworkId};
/// use udweave::program::ThreadType;
///
/// #[derive(Clone, Default)]
/// struct TExample { result: u64 }
/// updown_sim::snap_state!(TExample, "doc.texample", { result });
///
/// let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
/// let mut t = ThreadType::<TExample>::new("TExample");
/// let reduction = t.event(&mut eng, "reduction", |ctx, st| {
///     st.result += ctx.arg(0);
///     ctx.yield_terminate();
/// });
/// eng.send(EventWord::new(NetworkId(0), reduction), [41], EventWord::IGNORE);
/// eng.run();
/// ```
pub struct ThreadType<S> {
    name: String,
    _marker: std::marker::PhantomData<fn(S)>,
}

impl<S> ThreadType<S> {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Get-or-create this thread type's declaration block in a protocol
    /// spec: the `udspec` declared-effects layer. Event declarations made
    /// through the returned [`ThreadDecl`] use the same `thread::event`
    /// names [`ThreadType::event`] registers, so the static analyzer and
    /// the runtime enforcer line up without string duplication.
    ///
    /// ```
    /// use udweave::program::ThreadType;
    /// use updown_sim::spec::ProgramSpec;
    ///
    /// let t = ThreadType::<u64>::new("worker");
    /// let mut spec = ProgramSpec::new();
    /// t.declare(&mut spec).event("run").args(2, 2).terminates();
    /// assert!(spec.event("worker::run").is_some());
    /// ```
    pub fn declare<'a>(&self, spec: &'a mut ProgramSpec) -> &'a mut ThreadDecl {
        spec.thread(&self.name)
    }
}

impl<S: SnapState> ThreadType<S> {
    pub fn new(name: &str) -> ThreadType<S> {
        ThreadType {
            name: name.to_string(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Register an event of this thread type, and `S`'s snapshot codec.
    /// The handler gets the thread state (default-initialized at thread
    /// creation).
    pub fn event(
        &mut self,
        eng: &mut Engine,
        event_name: &str,
        f: impl Fn(&mut EventCtx<'_>, &mut S) + Send + Sync + 'static,
    ) -> EventLabel {
        let full = format!("{}::{}", self.name, event_name);
        eng.register_state_codec::<S>();
        eng.register(
            &full,
            Arc::new(move |ctx: &mut EventCtx<'_>| ctx.with_state(|ctx, st: &mut S| f(ctx, st))),
        )
    }
}

/// Register a standalone event with default-initialized typed state, and
/// `S`'s snapshot codec.
pub fn event<S: SnapState>(
    eng: &mut Engine,
    name: &str,
    f: impl Fn(&mut EventCtx<'_>, &mut S) + Send + Sync + 'static,
) -> EventLabel {
    ThreadType::<S>::new("thread").event(eng, name, f)
}

/// Register a stateless event.
pub fn simple_event(
    eng: &mut Engine,
    name: &str,
    f: impl Fn(&mut EventCtx<'_>) + Send + Sync + 'static,
) -> EventLabel {
    eng.register(name, Arc::new(f))
}

/// `&mut v[i]`, growing `v` with defaults first: how shard state keyed by
/// a small dense id (job, table, queue) is reached.
pub fn entry<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use updown_sim::{EventWord, MachineConfig, NetworkId};

    #[test]
    fn thread_state_shared_across_events() {
        #[derive(Clone, Default)]
        struct St {
            acc: u64,
        }
        updown_sim::snap_state!(St, "test.shared", { acc });
        let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
        let out: Arc<Mutex<u64>> = Arc::default();
        let out2 = out.clone();
        let mut t = ThreadType::<St>::new("T");
        // Forward-declare by registering finish first.
        let finish = t.event(&mut eng, "finish", move |ctx, st| {
            *out2.lock().unwrap() = st.acc;
            ctx.yield_terminate();
        });
        let start = t.event(&mut eng, "start", move |ctx, st| {
            st.acc = ctx.arg(0) * 2;
            let me = ctx.self_event(finish);
            ctx.send_event(me, [], EventWord::IGNORE);
        });
        eng.send(EventWord::new(NetworkId(0), start), [21], EventWord::IGNORE);
        eng.run();
        assert_eq!(*out.lock().unwrap(), 42);
    }

    /// The typed state is detached while the handler runs: the context's
    /// own state cell reads as a fresh default, and whatever the handler
    /// puts there is superseded by the typed state when the event ends.
    #[test]
    fn typed_state_supersedes_mid_handler_cell_writes() {
        #[derive(Clone, Default, Debug, PartialEq)]
        struct St {
            v: u64,
        }
        updown_sim::snap_state!(St, "test.supersede", { v });
        let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let mut t = ThreadType::<St>::new("T");
        let check = {
            let seen = seen.clone();
            simple_event(&mut eng, "check", move |ctx| {
                seen.lock().unwrap().push(ctx.state_mut::<St>().v);
                ctx.yield_terminate();
            })
        };
        let second = {
            let seen = seen.clone();
            t.event(&mut eng, "second", move |ctx, st| {
                seen.lock().unwrap().push(st.v);
                st.v += 1;
                // A foreign type in the cell is dropped at exit too.
                *ctx.state_mut::<u32>() = 5;
                ctx.send_event(ctx.self_event(check), [], EventWord::IGNORE);
            })
        };
        let first = {
            let seen = seen.clone();
            t.event(&mut eng, "first", move |ctx, st| {
                st.v = 10;
                assert_eq!(ctx.state_mut::<St>(), &St::default(), "the cell is a default, not `st`");
                ctx.state_mut::<St>().v = 77;
                seen.lock().unwrap().push(ctx.state_mut::<St>().v);
                ctx.send_event(ctx.self_event(second), [], EventWord::IGNORE);
            })
        };
        eng.send(EventWord::new(NetworkId(0), first), [], EventWord::IGNORE);
        eng.run();
        // first saw its own cell write (77); second got the typed 10, not
        // 77; the untyped check saw second's typed 11, not the u32.
        assert_eq!(*seen.lock().unwrap(), vec![77, 10, 11]);
    }

    #[test]
    fn event_names_include_thread() {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 1));
        let mut t = ThreadType::<u64>::new("PageRankWorker");
        let l = t.event(&mut eng, "kv_map", |ctx, _| ctx.yield_terminate());
        assert_eq!(eng.event_name(l), "PageRankWorker::kv_map");
    }
}
