//! Collective communication over lane sets: k-ary broadcast trees with
//! aggregated acknowledgement. KVMSR's launch/termination hierarchy and
//! BFS's master/worker rounds are built from this.
//!
//! The tree is a heap-shaped k-ary tree over the positions of a contiguous
//! [`LaneSet`]; depth is `log_k(n)`, so launch/sync overhead grows
//! logarithmically with machine size — one of the real costs that bounds
//! strong scaling of small problems (§5.2).

use updown_sim::spec::ProgramSpec;
use updown_sim::{Engine, EventLabel, EventWord, NetworkId, Operands};

/// A contiguous set of lanes targeted by a collective or a KVMSR
/// invocation ("each KVMSR invocation targets a set of lanes", §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneSet {
    pub base: u32,
    pub count: u32,
}

impl LaneSet {
    pub fn new(base: NetworkId, count: u32) -> LaneSet {
        assert!(count > 0, "empty lane set");
        LaneSet {
            base: base.0,
            count,
        }
    }

    /// The whole machine.
    pub fn all(cfg: &updown_sim::MachineConfig) -> LaneSet {
        LaneSet {
            base: 0,
            count: cfg.total_lanes(),
        }
    }

    #[inline]
    pub fn lane(&self, pos: u32) -> NetworkId {
        debug_assert!(pos < self.count);
        NetworkId(self.base + pos)
    }

    #[inline]
    pub fn contains(&self, nwid: NetworkId) -> bool {
        nwid.0 >= self.base && nwid.0 < self.base + self.count
    }

    #[inline]
    pub fn position_of(&self, nwid: NetworkId) -> u32 {
        debug_assert!(self.contains(nwid));
        nwid.0 - self.base
    }

    pub fn iter(&self) -> impl Iterator<Item = NetworkId> + '_ {
        (self.base..self.base + self.count).map(NetworkId)
    }
}

/// Children of heap-tree position `i` with fanout `k` in a tree of `n`
/// positions.
pub fn heap_children(n: u32, i: u32, k: u32) -> impl Iterator<Item = u32> {
    let first = (i as u64) * k as u64 + 1;
    let last = (first + k as u64).min(n as u64);
    (first..last).map(|x| x as u32)
}

/// Parent of heap-tree position `i` (`i > 0`) with fanout `k`.
#[inline]
pub fn heap_parent(i: u32, k: u32) -> u32 {
    (i - 1) / k
}

/// Number of ack values aggregated element-wise by the tree.
pub const ACK_WORDS: usize = 2;

/// A broadcast-with-aggregated-ack tree, installed once per engine.
///
/// Protocol: send a message to `start` on `set.lane(0)` with args
/// `[set.base, set.count, user_label, 0, payload...]` and a continuation.
/// Every lane in the set receives a `user_label` event (new thread) with
/// args `[payload...]` and a continuation to which it must eventually send
/// `ACK_WORDS` u64 values (possibly asynchronously). The element-wise sums
/// over all lanes are delivered to the original continuation.
#[derive(Clone, Copy, Debug)]
pub struct TreeComm {
    pub start: EventLabel,
    pub fanout: u32,
}

#[derive(Clone)]
struct RelayState {
    pending: u32,
    acc: [u64; ACK_WORDS],
    parent: EventWord,
}

impl Default for RelayState {
    fn default() -> Self {
        RelayState {
            pending: 0,
            acc: [0; ACK_WORDS],
            parent: EventWord::IGNORE,
        }
    }
}

updown_sim::snap_state!(RelayState, "udweave.tree_relay", { pending, acc, parent });

impl TreeComm {
    pub fn install(eng: &mut Engine, name: &str, fanout: u32) -> TreeComm {
        assert!(fanout >= 2);
        // Registration order: gather first so relay can reference it.
        // Labels are allocated sequentially; we register a placeholder-free
        // pair by registering gather, then relay.
        let gather_name = format!("{name}::gather");
        let relay_name = format!("{name}::relay");

        let gather = crate::program::event::<RelayState>(eng, &gather_name, |ctx, st| {
            st.acc[0] = st.acc[0].wrapping_add(ctx.arg(0));
            st.acc[1] = st.acc[1].wrapping_add(if ctx.args().len() > 1 { ctx.arg(1) } else { 0 });
            st.pending -= 1;
            if st.pending == 0 {
                let parent = st.parent;
                let acc = st.acc;
                if !parent.is_ignore() {
                    ctx.send_event(parent, acc, EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }
        });

        let relay = crate::program::event::<RelayState>(eng, &relay_name, move |ctx, st| {
            let base = ctx.arg(0) as u32;
            let count = ctx.arg(1) as u32;
            let user_label = EventLabel(ctx.arg(2) as u16);
            let pos = ctx.arg(3) as u32;
            let payload = Operands::from(&ctx.args()[4..]);
            let set = LaneSet { base, count };

            st.parent = ctx.cont();
            st.pending = 1; // the local user ack
            let my_gather = ctx.self_event(gather);
            let my_label = ctx.cur_evw().label();

            for c in heap_children(count, pos, fanout) {
                st.pending += 1;
                let mut args =
                    Operands::from([base as u64, count as u64, user_label.0 as u64, c as u64]);
                args.extend_from_slice(&payload);
                ctx.send_event(EventWord::new(set.lane(c), my_label), args, my_gather);
            }
            // Local delivery: a fresh thread on this lane runs the user event.
            ctx.send_event(
                EventWord::new(set.lane(pos), user_label),
                payload,
                my_gather,
            );
            // Thread stays alive in `gather` until all acks arrive.
        });

        TreeComm {
            start: relay,
            fanout,
        }
    }

    /// Declare the relay/gather protocol of a tree installed as `name`
    /// into a udspec [`ProgramSpec`] (docs/udspec.md). `user_targets` are
    /// the full event names the tree may deliver on every lane; `payload`
    /// is the inclusive range of payload word counts broadcast through
    /// it. Pass the same `name` and `fanout` given to [`TreeComm::install`].
    ///
    /// The relay's self-recursion is declared `ordered`: each hop strictly
    /// shrinks the heap interval, so the relay→relay wait cycle is
    /// progress-ordered rather than a deadlock candidate.
    pub fn spec_decl(
        spec: &mut ProgramSpec,
        name: &str,
        fanout: u32,
        user_targets: &[&str],
        payload: (u32, u32),
    ) {
        let (pmin, pmax) = payload;
        let relay_full = format!("thread::{name}::relay");
        let t = spec.thread(&format!("thread::{name}"));
        {
            let relay = t.event("relay");
            relay.args(4 + pmin, 4 + pmax).live_per_lane(1);
            relay.send(&relay_full, |s| {
                s.args(4 + pmin, 4 + pmax)
                    .to_new()
                    .with_cont()
                    .conditional()
                    .ordered()
                    .fanout(u64::from(fanout));
            });
            relay.send_any(user_targets, |s| {
                s.args(pmin, pmax).to_new().with_cont();
            });
        }
        t.event("gather")
            .args(1, 2)
            .on(&relay_full)
            .replies()
            .terminates();
    }

    /// Build the start-message arguments for broadcasting `payload` over
    /// `set`, invoking `user_label` on each lane.
    pub fn start_args(&self, set: LaneSet, user_label: EventLabel, payload: &[u64]) -> Vec<u64> {
        let mut args = vec![
            set.base as u64,
            set.count as u64,
            user_label.0 as u64,
            0u64,
        ];
        args.extend_from_slice(payload);
        args
    }

    /// Convenience for host-side kicks and in-event starts: the event word
    /// to address.
    pub fn start_evw(&self, set: LaneSet) -> EventWord {
        EventWord::new(set.lane(0), self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::simple_event;
    use std::sync::Mutex;
    use std::sync::Arc;
    use updown_sim::{Engine, MachineConfig};

    #[test]
    fn heap_tree_shape() {
        let kids: Vec<u32> = heap_children(10, 0, 3).collect();
        assert_eq!(kids, vec![1, 2, 3]);
        let kids: Vec<u32> = heap_children(10, 3, 3).collect();
        assert_eq!(kids, vec![] as Vec<u32>); // 10,11,12 out of range
        let kids: Vec<u32> = heap_children(10, 2, 3).collect();
        assert_eq!(kids, vec![7, 8, 9]);
        for i in 1..10 {
            let p = heap_parent(i, 3);
            assert!(heap_children(10, p, 3).any(|c| c == i));
        }
    }

    #[test]
    fn lane_set_round_trips() {
        let s = LaneSet::new(NetworkId(100), 50);
        assert!(s.contains(NetworkId(100)));
        assert!(s.contains(NetworkId(149)));
        assert!(!s.contains(NetworkId(150)));
        assert_eq!(s.position_of(NetworkId(120)), 20);
        assert_eq!(s.lane(20), NetworkId(120));
        assert_eq!(s.iter().count(), 50);
    }

    #[test]
    fn broadcast_reaches_every_lane_and_sums_acks() {
        let cfg = MachineConfig::small(2, 2, 8); // 32 lanes
        let mut eng = Engine::new(cfg);
        let hits: Arc<Mutex<Vec<u32>>> = Arc::default();
        let hits2 = hits.clone();
        let user = simple_event(&mut eng, "user", move |ctx| {
            hits2.lock().unwrap().push(ctx.nwid().0);
            // Ack: [1, payload value].
            let v = ctx.arg(0);
            ctx.send_reply([1u64, v]);
            ctx.yield_terminate();
        });
        let tree = TreeComm::install(&mut eng, "bcast", 4);
        let result: Arc<Mutex<(u64, u64)>> = Arc::default();
        let result2 = result.clone();
        let done = simple_event(&mut eng, "done", move |ctx| {
            *result2.lock().unwrap() = (ctx.arg(0), ctx.arg(1));
            ctx.stop();
        });
        let set = LaneSet::new(NetworkId(0), 32);
        let kick = simple_event(&mut eng, "kick", move |ctx| {
            let args = tree.start_args(set, user, &[7]);
            let dst = tree.start_evw(set);
            let cont = EventWord::new(ctx.nwid(), done);
            ctx.send_event(dst, args, cont);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        eng.run();
        let mut h = hits.lock().unwrap().clone();
        h.sort_unstable();
        assert_eq!(h, (0..32).collect::<Vec<u32>>(), "every lane exactly once");
        assert_eq!(*result.lock().unwrap(), (32, 32 * 7));
    }

    #[test]
    fn broadcast_on_offset_subset() {
        let cfg = MachineConfig::small(1, 2, 8);
        let mut eng = Engine::new(cfg);
        let hits: Arc<Mutex<Vec<u32>>> = Arc::default();
        let hits2 = hits.clone();
        let user = simple_event(&mut eng, "user", move |ctx| {
            hits2.lock().unwrap().push(ctx.nwid().0);
            ctx.send_reply([1u64, 0]);
            ctx.yield_terminate();
        });
        let tree = TreeComm::install(&mut eng, "bcast", 2);
        let set = LaneSet::new(NetworkId(5), 7);
        let kick = simple_event(&mut eng, "kick", move |ctx| {
            let args = tree.start_args(set, user, &[]);
            ctx.send_event(tree.start_evw(set), args, EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        eng.run();
        let mut h = hits.lock().unwrap().clone();
        h.sort_unstable();
        assert_eq!(h, (5..12).collect::<Vec<u32>>());
    }
}
