//! The Scalable Hash Table (SHT) — Table 5's largest data abstraction
//! (4,764 LoC of UDWeave in the paper). Buckets are sharded across a lane
//! set by key hash; each lane owns a contiguous run of buckets stored in a
//! DRAMmalloc region. Operations are messages to the owning lane, which
//! serializes them (events are atomic), reads the bucket from DRAM, and
//! replies to the caller's continuation.
//!
//! Bucket layout in the region, per bucket: `[len, (key, value) × epb]`.
//!
//! Simplification vs. the paper: no overflow chaining — `entries_per_bucket`
//! must be sized for the load (the artifact's configuration files expose
//! exactly these knobs: `VERTEX_EB`, `EDGE_EB`, `VERTEX_BL`, `EDGE_BL`).

use std::collections::BTreeMap;

use drammalloc::{Layout, Region};
use kvmsr::key_hash;
use udweave::LaneSet;
use updown_sim::{Engine, EventCtx, EventLabel, EventWord, NetworkId, ShardSlot, TableSlot};

/// Handle to one created table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShtId(pub u32);

/// Operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShtOp {
    /// Reply `[found, value]`.
    Get = 0,
    /// Insert if absent. Reply `[existed, old_or_new_value]`.
    PutIfAbsent = 1,
    /// Overwrite (insert if absent). Reply `[existed, old_value]`.
    Put = 2,
    /// `value |= v` (insert v if absent). Reply `[existed, old_value]`.
    FetchOr = 3,
}

impl ShtOp {
    fn from_u64(x: u64) -> ShtOp {
        match x {
            0 => ShtOp::Get,
            1 => ShtOp::PutIfAbsent,
            2 => ShtOp::Put,
            3 => ShtOp::FetchOr,
            _ => panic!("bad SHT op {x}"),
        }
    }
}

/// A table's geometry: fixed at `create`.
#[derive(Clone)]
struct ShtDef {
    set: LaneSet,
    buckets_per_lane: u32,
    entries_per_bucket: u32,
    region: Region,
}

/// Functional contents + slot assignment of the buckets one shard's lanes
/// own (the DRAM image is written through and checked against this in
/// tests).
#[derive(Clone, Default)]
struct Shadow {
    entries: FlatMap<(u64, u64)>, // key -> (slot word index, value)
    lens: FlatMap<u32>,           // bucket -> occupancy
    max_bucket: u32,
}

/// A deterministic open-addressing map from `u64` keys: linear probing
/// from a Fibonacci hash of the key, a power-of-two capacity that doubles
/// past 7/8 full, and keys and values in two parallel vectors, so an
/// entry costs its key and value over the load factor and nothing else.
/// Key 0 marks a vacant slot; the entry for key 0 itself is held beside
/// the vectors. What it answers never depends on its layout, and it has
/// no iteration order to leak.
#[derive(Clone, Default)]
struct FlatMap<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    /// Occupied slots of `keys`.
    used: usize,
    zero: Option<V>,
}

impl<V: Copy + Default> FlatMap<V> {
    /// The slot holding `key` (`Ok`) or the vacant slot where it would go
    /// (`Err`). `key` is not 0 and the table is not empty.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.keys.len() - 1;
        let shift = 64 - self.keys.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match self.keys[i] {
                k if k == key => return Ok(i),
                0 => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: u64) -> Option<V> {
        if key == 0 {
            self.zero
        } else if self.keys.is_empty() {
            None
        } else {
            self.find(key).ok().map(|i| self.vals[i])
        }
    }

    /// Insert `key`, or overwrite its value.
    fn insert(&mut self, key: u64, v: V) {
        if key == 0 {
            self.zero = Some(v);
            return;
        }
        if (self.used + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        match self.find(key) {
            Ok(i) => self.vals[i] = v,
            Err(i) => {
                self.keys[i] = key;
                self.vals[i] = v;
                self.used += 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.used + self.zero.is_some() as usize
    }

    fn grow(&mut self) {
        let cap = (2 * self.keys.len()).max(8);
        let keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let vals = std::mem::replace(&mut self.vals, vec![V::default(); cap]);
        for (k, v) in keys.into_iter().zip(vals).filter(|&(k, _)| k != 0) {
            let (Ok(i) | Err(i)) = self.find(k);
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

impl ShtDef {
    #[inline]
    fn total_buckets(&self) -> u64 {
        self.set.count as u64 * self.buckets_per_lane as u64
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> u64 {
        key_hash(key) % self.total_buckets()
    }

    #[inline]
    fn owner(&self, key: u64) -> NetworkId {
        self.set
            .lane((self.bucket_of(key) / self.buckets_per_lane as u64) as u32)
    }

    /// Word index of bucket `b`'s header within the region.
    #[inline]
    fn bucket_base(&self, b: u64) -> u64 {
        b * (1 + 2 * self.entries_per_bucket as u64)
    }
}

/// `race_order` token space for SHT bucket operations: every op for a
/// key routes to the owning lane and applies against the shadow in that
/// lane's shard state, a lane-serialized exchange the race probe cannot
/// see. Both `sht::op` and `sht::op_fin` order on
/// `RACE_TOKEN_SH | sht_id` ("SH" in the high bytes); see
/// docs/udrace.md.
const RACE_TOKEN_SH: u64 = 0x5348_0000_0000_0000;

/// The installed SHT library (shared handlers for all tables).
#[derive(Clone, Copy)]
pub struct ShtLib {
    defs: TableSlot<Vec<ShtDef>>,
    /// Indexed by table id, grown at first touch.
    shadows: ShardSlot<Vec<Shadow>>,
    op_label: EventLabel,
}

#[derive(Default, Clone, Copy)]
struct Pending {
    sht: u32,
    op: u64,
    key: u64,
    value: u64,
    reply_raw: u64,
}

updown_sim::snap_state!(Pending, "sht.pending", { sht, op, key, value, reply_raw });

impl ShtLib {
    pub fn install(eng: &mut Engine) -> ShtLib {
        let defs = eng.table(Vec::<ShtDef>::new());
        let shadows = eng.shard_slot::<Vec<Shadow>>();

        // Second event of the op thread: the bucket line has arrived from
        // DRAM; apply the operation and reply.
        let fin = udweave::event::<Pending>(eng, "sht::op_fin", move |ctx, st| {
            ctx.race_order(RACE_TOKEN_SH | st.sht as u64);
            let t = &ctx.table(defs)[st.sht as usize];
            ctx.with_shard_state(shadows, |ctx, all| {
                let sh = udweave::program::entry(all, st.sht as usize);
                let op = ShtOp::from_u64(st.op);
                let b = t.bucket_of(st.key);
                let existing = sh.entries.get(st.key);
                // Cost: compare scanned keys (charged per entry present).
                let blen = sh.lens.get(b).unwrap_or(0);
                ctx.charge(2 * blen as u64 + 2);
                let mut write: Option<(u64, [u64; 2], u32)> = None; // slot word -> words, bucket length
                let reply = match (op, existing) {
                    (ShtOp::Get, Some((_, v))) => [1, v],
                    (ShtOp::Get, None) => [0, 0],
                    (_, Some((slot, old))) => {
                        let newv = match op {
                            ShtOp::PutIfAbsent => old,
                            ShtOp::Put => st.value,
                            ShtOp::FetchOr => old | st.value,
                            ShtOp::Get => unreachable!(),
                        };
                        if newv != old {
                            sh.entries.insert(st.key, (slot, newv));
                            write = Some((slot, [st.key, newv], blen));
                        }
                        [1, old]
                    }
                    (_, None) => {
                        let epb = t.entries_per_bucket;
                        assert!(
                            blen < epb,
                            "SHT bucket {b} overflow (epb = {epb}); size the table up"
                        );
                        let slot = t.bucket_base(b) + 1 + 2 * blen as u64;
                        sh.lens.insert(b, blen + 1);
                        sh.max_bucket = sh.max_bucket.max(blen + 1);
                        sh.entries.insert(st.key, (slot, st.value));
                        write = Some((slot, [st.key, st.value], blen + 1));
                        [0, st.value]
                    }
                };
                if let Some((slot, words, new_len)) = write {
                    ctx.send_dram_write(t.region.word(slot), &words, None);
                    // Keep the DRAM header in sync (plain write: this lane
                    // is the only writer of its buckets).
                    ctx.send_dram_write(t.region.word(t.bucket_base(b)), &[new_len as u64], None);
                }
                let reply_to = EventWord::from_raw(st.reply_raw);
                if !reply_to.is_ignore() {
                    ctx.send_event(reply_to, reply, EventWord::IGNORE);
                }
            });
            ctx.yield_terminate();
        });

        // First event: record the request and fetch the bucket line.
        let op_label = udweave::event::<Pending>(eng, "sht::op", move |ctx, st| {
            *st = Pending {
                sht: ctx.arg(0) as u32,
                op: ctx.arg(1),
                key: ctx.arg(2),
                value: ctx.arg(3),
                reply_raw: ctx.cont().raw(),
            };
            ctx.race_order(RACE_TOKEN_SH | st.sht as u64);
            let t = &ctx.table(defs)[st.sht as usize];
            let b = t.bucket_of(st.key);
            let blen = ctx
                .shard_state(shadows)
                .get(st.sht as usize)
                .and_then(|sh| sh.lens.get(b))
                .unwrap_or(0);
            // Header + up to the first 3 entries in one access.
            let words = (1 + 2 * blen.min(3) as usize).min(8);
            ctx.send_dram_read(t.region.word(t.bucket_base(b)), words, fin);
        });

        ShtLib {
            defs,
            shadows,
            op_label,
        }
    }

    /// Declare the SHT op/op_fin protocol into a udspec
    /// [`udweave::ProgramSpec`] (docs/udspec.md). Callers declare their
    /// own `send("thread::sht::op")` edges; the op thread's live bound is
    /// derived from those edges.
    pub fn spec_decl(spec: &mut udweave::ProgramSpec) {
        let t = spec.thread("thread::sht");
        t.event("op").args(4, 4).resumes("thread::sht::op_fin");
        t.event("op_fin")
            .args(1, 8)
            .on("thread::sht::op")
            .replies()
            .terminates();
    }

    /// Create a table over `set` with `buckets_per_lane` × `epb` capacity
    /// per lane, backed by a region with the given layout.
    pub fn create(
        &self,
        eng: &mut Engine,
        set: LaneSet,
        buckets_per_lane: u32,
        entries_per_bucket: u32,
        layout: Layout,
    ) -> ShtId {
        let words =
            set.count as u64 * buckets_per_lane as u64 * (1 + 2 * entries_per_bucket as u64);
        let region = Region::alloc_words(eng, words, layout).expect("SHT region");
        let defs = eng.table_mut(self.defs);
        defs.push(ShtDef {
            set,
            buckets_per_lane,
            entries_per_bucket,
            region,
        });
        ShtId(defs.len() as u32 - 1)
    }

    /// Issue an operation from inside an event; the reply goes to `cont`
    /// (`[found/existed, value]`), or nowhere for `IGNORE`.
    pub fn op(
        &self,
        ctx: &mut EventCtx<'_>,
        sht: ShtId,
        op: ShtOp,
        key: u64,
        value: u64,
        cont: EventWord,
    ) {
        let owner = ctx.table(self.defs)[sht.0 as usize].owner(key);
        let w = EventWord::new(owner, self.op_label);
        ctx.send_event(w, [sht.0 as u64, op as u64, key, value], cont);
    }

    pub fn get(&self, ctx: &mut EventCtx<'_>, sht: ShtId, key: u64, cont: EventWord) {
        self.op(ctx, sht, ShtOp::Get, key, 0, cont);
    }

    pub fn insert(&self, ctx: &mut EventCtx<'_>, sht: ShtId, key: u64, value: u64, cont: EventWord) {
        self.op(ctx, sht, ShtOp::PutIfAbsent, key, value, cont);
    }

    pub fn put(&self, ctx: &mut EventCtx<'_>, sht: ShtId, key: u64, value: u64, cont: EventWord) {
        self.op(ctx, sht, ShtOp::Put, key, value, cont);
    }

    pub fn fetch_or(
        &self,
        ctx: &mut EventCtx<'_>,
        sht: ShtId,
        key: u64,
        bits: u64,
        cont: EventWord,
    ) {
        self.op(ctx, sht, ShtOp::FetchOr, key, bits, cont);
    }

    // ---- host-side inspection -------------------------------------------

    /// Every touched shard's shadow of `sht`, in shard order.
    fn shadows<'e>(&self, eng: &'e Engine, sht: ShtId) -> impl Iterator<Item = &'e Shadow> {
        eng.shard_states(self.shadows)
            .filter_map(move |all| all.get(sht.0 as usize))
    }

    pub fn host_get(&self, eng: &Engine, sht: ShtId, key: u64) -> Option<u64> {
        let node = eng.config().node_of(self.owner(eng, sht, key));
        let sh = eng.shard_state(self.shadows, node)?.get(sht.0 as usize)?;
        sh.entries.get(key).map(|(_, v)| v)
    }

    pub fn len(&self, eng: &Engine, sht: ShtId) -> usize {
        self.shadows(eng, sht).map(|sh| sh.entries.len()).sum()
    }

    pub fn max_bucket_occupancy(&self, eng: &Engine, sht: ShtId) -> u32 {
        self.shadows(eng, sht).map(|sh| sh.max_bucket).max().unwrap_or(0)
    }

    /// Rebuild the table's contents from the DRAM image (ignores the
    /// shadow): used to verify the device-resident data is complete.
    pub fn dump_from_dram(&self, eng: &Engine, sht: ShtId) -> BTreeMap<u64, u64> {
        let t = &eng.table_ref(self.defs)[sht.0 as usize];
        let mem = eng.mem();
        let mut out = BTreeMap::new();
        for b in 0..t.total_buckets() {
            let base = t.bucket_base(b);
            let len = mem.read_u64(t.region.word(base)).unwrap();
            for i in 0..len {
                let k = mem.read_u64(t.region.word(base + 1 + 2 * i)).unwrap();
                let v = mem.read_u64(t.region.word(base + 2 + 2 * i)).unwrap();
                out.insert(k, v);
            }
        }
        out
    }

    /// Owner lane of a key (for co-locating follow-up work).
    pub fn owner(&self, eng: &Engine, sht: ShtId, key: u64) -> NetworkId {
        eng.table_ref(self.defs)[sht.0 as usize].owner(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as StdMap;
    use std::sync::{Arc, Mutex};
    use udweave::simple_event;
    use updown_sim::MachineConfig;

    fn setup(nodes: u32) -> (Engine, ShtLib, ShtId) {
        let mut eng = Engine::new(MachineConfig::small(nodes, 1, 4));
        let lib = ShtLib::install(&mut eng);
        let set = LaneSet::new(NetworkId(0), eng.config().total_lanes());
        let sht = lib.create(&mut eng, set, 16, 8, Layout::cyclic(nodes));
        (eng, lib, sht)
    }

    /// The flat table against a `BTreeMap` on seeded get / insert /
    /// overwrite streams over five key families: random keys; keys that
    /// share their low 40 bits; keys whose Fibonacci home slot is the
    /// same at every capacity up to 1024 (one long probe run); small
    /// consecutive keys, as bucket numbers are; and 0 and `u64::MAX`
    /// among random keys. Every step compares the answer and the length,
    /// and the table must stay a power of two between 7/16 and 7/8 full
    /// once it has grown, so the streams cross each growth boundary.
    #[test]
    fn flat_map_agrees_with_a_btree_map() {
        use crate::rng::Rng;
        let home_1024 = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0xF1A7 ^ seed);
            let families: [Vec<u64>; 5] = [
                (0..600).map(|_| rng.next_u64()).collect(),
                (0..600).map(|i| (i << 40) | 0xAB_CDEF_0123).collect(),
                std::iter::repeat_with(|| rng.next_u64()).filter(|&k| home_1024(k) == 0).take(120).collect(),
                (0..600).collect(),
                (0..600).map(|i| match i { 0 => 0, 1 => u64::MAX, _ => rng.next_u64() }).collect(),
            ];
            for keys in &families {
                let (mut flat, mut model) = (FlatMap::<(u64, u64)>::default(), BTreeMap::new());
                for step in 0..3 * keys.len() {
                    let k = keys[rng.below_usize(keys.len())];
                    if rng.below_u32(3) == 0 {
                        assert_eq!(flat.get(k), model.get(&k).copied(), "seed {seed} step {step}: get {k:#x}");
                    } else {
                        let v = (rng.next_u64(), step as u64);
                        flat.insert(k, v);
                        model.insert(k, v);
                    }
                    assert_eq!(flat.len(), model.len(), "seed {seed} step {step}");
                    let cap = flat.keys.len();
                    assert!(cap.is_power_of_two() || cap == 0);
                    assert!(flat.used * 8 <= cap * 7 && (cap <= 8 || flat.used * 16 >= cap * 7));
                }
                for k in keys.iter().chain(&[0, u64::MAX, 1, 0xAB_CDEF_0123]) {
                    assert_eq!(flat.get(*k), model.get(k).copied(), "seed {seed}: final get {k:#x}");
                }
            }
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut eng, lib, sht) = setup(1);
        let got: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
        let got2 = got.clone();
        let on_get = simple_event(&mut eng, "on_get", move |ctx| {
            got2.lock().unwrap().push((ctx.arg(0), ctx.arg(1)));
            ctx.yield_terminate();
        });
        let go = simple_event(&mut eng, "go", move |ctx| {
            lib.insert(ctx, sht, 42, 777, EventWord::IGNORE);
            lib.insert(ctx, sht, 43, 888, EventWord::IGNORE);
            // Get after inserts (message ordering to the same lane is
            // FIFO-ish here because all ops serialize on owner lanes, but
            // use a delay to be deterministic about arrival order).
            ctx.send_event_after(
                5000,
                EventWord::new(ctx.nwid(), on_get),
                [0u64, 0],
                EventWord::IGNORE,
            );
            ctx.yield_terminate();
        });
        // Rebind: the delayed event does the gets.
        let _ = go;
        let do_gets = simple_event(&mut eng, "do_gets", move |ctx| {
            let cont = EventWord::new(ctx.nwid(), on_get);
            lib.get(ctx, sht, 42, cont);
            lib.get(ctx, sht, 99, cont);
            ctx.yield_terminate();
        });
        let go2 = simple_event(&mut eng, "go2", move |ctx| {
            lib.insert(ctx, sht, 42, 777, EventWord::IGNORE);
            lib.insert(ctx, sht, 43, 888, EventWord::IGNORE);
            ctx.send_event_after(5000, EventWord::new(ctx.nwid(), do_gets), [], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go2), [], EventWord::IGNORE);
        eng.run();
        let mut res = got.lock().unwrap().clone();
        res.sort_unstable();
        assert_eq!(res, vec![(0, 0), (1, 777)]);
        assert_eq!(lib.host_get(&eng, sht, 43), Some(888));
        assert_eq!(lib.len(&eng, sht), 2);
    }

    #[test]
    fn put_if_absent_keeps_first() {
        let (mut eng, lib, sht) = setup(1);
        let go = simple_event(&mut eng, "go", move |ctx| {
            lib.insert(ctx, sht, 7, 1, EventWord::IGNORE);
            lib.insert(ctx, sht, 7, 2, EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        eng.run();
        assert_eq!(lib.host_get(&eng, sht, 7), Some(1));
    }

    #[test]
    fn put_overwrites_and_fetch_or_merges() {
        let (mut eng, lib, sht) = setup(1);
        let phase2 = simple_event(&mut eng, "phase2", move |ctx| {
            lib.put(ctx, sht, 7, 5, EventWord::IGNORE);
            lib.fetch_or(ctx, sht, 8, 0b10, EventWord::IGNORE);
            ctx.yield_terminate();
        });
        let go = simple_event(&mut eng, "go", move |ctx| {
            lib.put(ctx, sht, 7, 1, EventWord::IGNORE);
            lib.fetch_or(ctx, sht, 8, 0b01, EventWord::IGNORE);
            ctx.send_event_after(5000, EventWord::new(ctx.nwid(), phase2), [], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        eng.run();
        assert_eq!(lib.host_get(&eng, sht, 7), Some(5));
        assert_eq!(lib.host_get(&eng, sht, 8), Some(0b11));
    }

    #[test]
    fn dram_image_matches_shadow() {
        let (mut eng, lib, sht) = setup(2);
        let go = simple_event(&mut eng, "go", move |ctx| {
            for k in 0..200u64 {
                lib.insert(ctx, sht, k * 31 + 1, k, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        eng.run();
        let dram = lib.dump_from_dram(&eng, sht);
        let expect: StdMap<u64, u64> = (0..200u64).map(|k| (k * 31 + 1, k)).collect();
        assert_eq!(dram, expect);
        assert!(lib.max_bucket_occupancy(&eng, sht) <= 8);
    }

    #[test]
    fn concurrent_inserts_from_many_lanes() {
        let (mut eng, lib, sht) = setup(2);
        let worker = simple_event(&mut eng, "worker", move |ctx| {
            let base = ctx.arg(0);
            for k in 0..50u64 {
                lib.insert(ctx, sht, base * 1000 + k, base, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        let kick = simple_event(&mut eng, "kick", move |ctx| {
            for l in 0..8u32 {
                ctx.send_event(EventWord::new(NetworkId(l), worker), [l as u64], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        eng.run();
        assert_eq!(lib.len(&eng, sht), 400);
        let dram = lib.dump_from_dram(&eng, sht);
        assert_eq!(dram.len(), 400);
    }
}
