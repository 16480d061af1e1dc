//! A multi-producer/multi-consumer queue in global memory — one of the
//! paper's example shared data abstractions (§2.2: "scalable data
//! abstractions (including hash tables, histogram bins, and
//! multi-producer/multi-consumer queues)").
//!
//! The queue is owned by a single lane: enqueue/dequeue are messages to
//! that lane, which serializes them (events are atomic) and keeps the ring
//! storage in DRAM. Head/tail cursors live in the owner's scratchpad.
//! Dequeues on an empty queue park the consumer's continuation in a waiter
//! ring and reply when data arrives — the blocking-consumer pattern used
//! by producer/consumer pipelines.

use std::collections::VecDeque;

use updown_sim::spec::ProgramSpec;
use updown_sim::{Engine, EventCtx, EventLabel, EventWord, NetworkId, ShardSlot, TableSlot, VAddr};

/// Handle to a created queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueId(pub u32);

/// What never changes after `create`.
#[derive(Clone)]
struct QueueDef {
    owner: NetworkId,
    ring: VAddr,
    capacity: u64,
}

/// What the owner lane mutates; lives in the owner's shard.
#[derive(Clone, Default)]
struct Cursors {
    head: u64,
    tail: u64,
    waiters: VecDeque<EventWord>,
}

/// The installed queue library (handlers shared by all queues).
#[derive(Clone, Copy)]
pub struct QueueLib {
    defs: TableSlot<Vec<QueueDef>>,
    /// Indexed by queue id, grown at first touch.
    cursors: ShardSlot<Vec<Cursors>>,
    enqueue_l: EventLabel,
    dequeue_l: EventLabel,
}

impl QueueLib {
    pub fn install(eng: &mut Engine) -> QueueLib {
        let defs = eng.table(Vec::<QueueDef>::new());
        let cursors = eng.shard_slot::<Vec<Cursors>>();

        let enqueue_l = crate::program::simple_event(eng, "mpmc::enqueue", move |ctx| {
            let qid = ctx.arg(0) as usize;
            let value = ctx.arg(1);
            let def = &ctx.table(defs)[qid];
            debug_assert_eq!(ctx.nwid(), def.owner);
            ctx.charge(3); // cursor load/compare/store
            let q = crate::program::entry(ctx.shard_state(cursors), qid);
            if let Some(waiter) = q.waiters.pop_front() {
                // Hand the value straight to a parked consumer.
                ctx.send_event(waiter, [1u64, value], EventWord::IGNORE);
            } else {
                assert!(
                    q.tail - q.head < def.capacity,
                    "mpmc queue {qid} overflow (capacity {})",
                    def.capacity
                );
                let slot = q.tail % def.capacity;
                q.tail += 1;
                ctx.send_dram_write(def.ring.word(slot), &[value], None);
            }
            // Optional producer ack.
            ctx.send_reply([1u64, 0]);
            ctx.yield_terminate();
        });

        // Second event of a dequeue thread: the ring slot arrived; relay
        // it to the consumer (third-party composition).
        #[derive(Clone, Default)]
        struct DeqSt {
            reply_raw: u64,
        }
        updown_sim::snap_state!(DeqSt, "udweave.mpmc_deq", { reply_raw });
        let deq_relay = crate::program::event::<DeqSt>(eng, "mpmc::deq_relay", move |ctx, st| {
            let value = ctx.arg(0);
            let reply = EventWord::from_raw(st.reply_raw);
            ctx.send_event(reply, [1u64, value], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        let dequeue_l = crate::program::event::<DeqSt>(eng, "mpmc::dequeue", move |ctx, st| {
            let qid = ctx.arg(0) as usize;
            let reply = ctx.cont();
            assert!(!reply.is_ignore(), "dequeue needs a continuation");
            let def = &ctx.table(defs)[qid];
            ctx.charge(3);
            let q = crate::program::entry(ctx.shard_state(cursors), qid);
            if q.head == q.tail {
                // Empty: park the consumer.
                q.waiters.push_back(reply);
                ctx.yield_terminate();
                return;
            }
            let slot = q.head % def.capacity;
            q.head += 1;
            st.reply_raw = reply.raw();
            ctx.send_dram_read(def.ring.word(slot), 1, deq_relay);
        });

        QueueLib {
            defs,
            cursors,
            enqueue_l,
            dequeue_l,
        }
    }

    /// Declare the mpmc protocol into a udspec [`ProgramSpec`]
    /// (docs/udspec.md). Enqueue and dequeue threads are spawned by
    /// arbitrary client code, so their live bounds are declared unbounded;
    /// clients that cap their own in-flight operations can tighten the
    /// bounds by overriding `live_per_lane` after this call.
    pub fn spec_decl(spec: &mut ProgramSpec) {
        spec.thread("mpmc")
            .event("enqueue")
            .args(2, 2)
            .replies()
            .terminates()
            .live_unbounded();
        let t = spec.thread("thread::mpmc");
        t.event("dequeue")
            .args(1, 1)
            .resumes("thread::mpmc::deq_relay")
            .terminates()
            .live_unbounded();
        t.event("deq_relay")
            .args(1, 1)
            .on("thread::mpmc::dequeue")
            .replies()
            .terminates();
    }

    /// Create a queue of `capacity` words owned by `owner`, ring storage
    /// allocated on the owner's node.
    pub fn create(&self, eng: &mut Engine, owner: NetworkId, capacity: u64) -> QueueId {
        let node = eng.config().node_of(owner);
        let bytes = (capacity * 8).next_power_of_two().max(4096);
        let ring = eng
            .mem_mut()
            .alloc(bytes, node, 1, bytes)
            .expect("queue ring");
        let defs = eng.table_mut(self.defs);
        defs.push(QueueDef {
            owner,
            ring,
            capacity,
        });
        QueueId(defs.len() as u32 - 1)
    }

    /// Enqueue `value`; optional ack (`[1, 0]`) to `cont`.
    pub fn enqueue(&self, ctx: &mut EventCtx<'_>, q: QueueId, value: u64, cont: EventWord) {
        let owner = ctx.table(self.defs)[q.0 as usize].owner;
        ctx.send_event(
            EventWord::new(owner, self.enqueue_l),
            [q.0 as u64, value],
            cont,
        );
    }

    /// Dequeue: `cont` receives `[1, value]`, parking until data arrives.
    pub fn dequeue(&self, ctx: &mut EventCtx<'_>, q: QueueId, cont: EventWord) {
        let owner = ctx.table(self.defs)[q.0 as usize].owner;
        ctx.send_event(EventWord::new(owner, self.dequeue_l), [q.0 as u64], cont);
    }

    /// Host-side occupancy: read from the owner's shard.
    pub fn len(&self, eng: &Engine, q: QueueId) -> u64 {
        let owner = eng.table_ref(self.defs)[q.0 as usize].owner;
        eng.shard_state(self.cursors, eng.config().node_of(owner))
            .and_then(|all| all.get(q.0 as usize))
            .map_or(0, |c| c.tail - c.head)
    }

    pub fn is_empty(&self, eng: &Engine, q: QueueId) -> bool {
        self.len(eng, q) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::simple_event;
    use std::sync::{Arc, Mutex};
    use updown_sim::MachineConfig;

    #[test]
    fn fifo_order_single_producer_consumer() {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 4));
        let lib = QueueLib::install(&mut eng);
        let q = lib.create(&mut eng, NetworkId(0), 64);
        let got: Arc<Mutex<Vec<u64>>> = Arc::default();
        let g2 = got.clone();
        let on_deq = simple_event(&mut eng, "on_deq", move |ctx| {
            g2.lock().unwrap().push(ctx.arg(1));
            ctx.yield_terminate();
        });
        let consume = simple_event(&mut eng, "consume", move |ctx| {
            for _ in 0..5 {
                lib.dequeue(ctx, q, EventWord::new(ctx.nwid(), on_deq));
            }
            ctx.yield_terminate();
        });
        let produce = simple_event(&mut eng, "produce", move |ctx| {
            for v in 10..15u64 {
                lib.enqueue(ctx, q, v, EventWord::IGNORE);
            }
            ctx.send_event_after(5000, EventWord::new(NetworkId(1), consume), [], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), produce), [], EventWord::IGNORE);
        eng.run();
        assert_eq!(&*got.lock().unwrap(), &[10, 11, 12, 13, 14]);
        assert!(lib.is_empty(&eng, q));
    }

    #[test]
    fn consumers_park_until_producers_arrive() {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 4));
        let lib = QueueLib::install(&mut eng);
        let q = lib.create(&mut eng, NetworkId(0), 16);
        let got: Arc<Mutex<Vec<u64>>> = Arc::default();
        let g2 = got.clone();
        let on_deq = simple_event(&mut eng, "on_deq", move |ctx| {
            g2.lock().unwrap().push(ctx.arg(1));
            ctx.yield_terminate();
        });
        // Consumers first (they park), producers later.
        let produce = simple_event(&mut eng, "produce", move |ctx| {
            lib.enqueue(ctx, q, 7, EventWord::IGNORE);
            lib.enqueue(ctx, q, 8, EventWord::IGNORE);
            ctx.yield_terminate();
        });
        let consume = simple_event(&mut eng, "consume", move |ctx| {
            lib.dequeue(ctx, q, EventWord::new(ctx.nwid(), on_deq));
            lib.dequeue(ctx, q, EventWord::new(ctx.nwid(), on_deq));
            ctx.send_event_after(3000, EventWord::new(NetworkId(2), produce), [], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(1), consume), [], EventWord::IGNORE);
        eng.run();
        let mut v = got.lock().unwrap().clone();
        v.sort_unstable();
        assert_eq!(v, vec![7, 8]);
    }

    #[test]
    fn multiple_producers_multiple_consumers() {
        let mut eng = Engine::new(MachineConfig::small(2, 1, 8));
        let lib = QueueLib::install(&mut eng);
        let q = lib.create(&mut eng, NetworkId(3), 256);
        let got: Arc<Mutex<Vec<u64>>> = Arc::default();
        let g2 = got.clone();
        let on_deq = simple_event(&mut eng, "on_deq", move |ctx| {
            g2.lock().unwrap().push(ctx.arg(1));
            ctx.yield_terminate();
        });
        let producer = simple_event(&mut eng, "producer", move |ctx| {
            let base = ctx.arg(0);
            for i in 0..10u64 {
                lib.enqueue(ctx, q, base * 100 + i, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        let consumer = simple_event(&mut eng, "consumer", move |ctx| {
            for _ in 0..10 {
                lib.dequeue(ctx, q, EventWord::new(ctx.nwid(), on_deq));
            }
            ctx.yield_terminate();
        });
        let kick = simple_event(&mut eng, "kick", move |ctx| {
            for p in 0..4u64 {
                ctx.send_event(
                    EventWord::new(NetworkId(p as u32), producer),
                    [p],
                    EventWord::IGNORE,
                );
            }
            for c in 0..4u32 {
                ctx.send_event(
                    EventWord::new(NetworkId(8 + c), consumer),
                    [],
                    EventWord::IGNORE,
                );
            }
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        eng.run();
        let mut v = got.lock().unwrap().clone();
        v.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..10u64).map(move |i| p * 100 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(v, expect, "every produced value consumed exactly once");
    }
}
