//! Scalable Global Sort (Table 5: 158 LoC): bucket sort expressed as one
//! KVMSR invocation — maps read input cells and emit `(bucket, value)`;
//! reduces append values into per-bucket DRAM segments; the host (or a
//! final do_all) sorts within buckets.

use udweave::LaneSet;
use updown_sim::VAddr;

use crate::runtime::{JobSpec, Kvmsr};
use crate::task::{JobId, Outcome};

/// Configuration for a global sort over `n` u64 cells at `input`.
#[derive(Clone, Copy, Debug)]
pub struct SortPlan {
    pub input: VAddr,
    /// Output segments: `buckets` regions of `segment_cap` words each, with
    /// a one-word length header per bucket at `seg_len_base`.
    pub seg_data: VAddr,
    pub seg_len_base: VAddr,
    pub buckets: u64,
    pub segment_cap: u64,
    /// Key range covered: values are assumed in `[0, max_value)`.
    pub max_value: u64,
}

impl SortPlan {
    #[inline]
    pub fn bucket_of(&self, v: u64) -> u64 {
        // Even value-range split; values >= max_value clamp to the last.
        (v / self.max_value.div_ceil(self.buckets)).min(self.buckets - 1)
    }

    fn seg_slot(&self, bucket: u64, i: u64) -> VAddr {
        self.seg_data.word(bucket * self.segment_cap + i)
    }
}

/// Install the bucket-sort KVMSR job (with its DRAM read-return event);
/// returns the job id. Start it with `keys = n` (input length). After
/// completion each bucket `b` holds `mem[seg_len_base + 8b]` unsorted
/// values in its segment; [`read_sorted`] extracts the sorted output.
pub fn install_sort(eng: &mut updown_sim::Engine, rt: &Kvmsr, set: LaneSet, plan: SortPlan) -> JobId {
    #[derive(Clone, Default)]
    struct MapSt {
        task: Option<crate::task::MapTask>,
    }
    updown_sim::snap_state!(MapSt, "sort.map", { task });
    let rt_for_read = *rt;
    let on_read = udweave::event::<MapSt>(eng, "sort::returnRead", move |ctx, st| {
        let v = ctx.arg(0);
        let mut task = st.task.take().expect("read before map");
        let bucket = plan.bucket_of(v);
        rt_for_read.emit(ctx, &mut task, bucket, &[v]);
        rt_for_read.map_done(ctx, &task);
        ctx.yield_terminate();
    });
    // Per-bucket append cursors. The Hash reduce binding sends every tuple
    // for a bucket to one lane, so a counter in that lane's shard
    // (scratchpad in hardware, with spd costs charged) hands out unique
    // slots race-free. The DRAM length cell is updated with an atomic add
    // so `read_sorted` sees the final count.
    let cursors = eng.shard_slot::<std::collections::BTreeMap<u64, u64>>();
    let spec = JobSpec::new("global_sort", set, move |ctx, task, _rt| {
        ctx.state_mut::<MapSt>().task = Some(*task);
        ctx.send_dram_read(plan.input.word(task.key), 1, on_read);
        Outcome::Async
    })
    .with_reduce(move |ctx, task, vals, _rt| {
        let bucket = task.key;
        let v = vals[0];
        let e = ctx.shard_state(cursors).entry(bucket).or_insert(0);
        let idx = *e;
        *e += 1;
        assert!(idx < plan.segment_cap, "bucket {bucket} overflow");
        ctx.charge(3); // cursor load/inc/store
        ctx.dram_fetch_add_u64(plan.seg_len_base.word(bucket), 1, None, None);
        ctx.send_dram_write(plan.seg_slot(bucket, idx), &[v], None);
        Outcome::Done
    });
    rt.define_job(eng, spec)
}

/// The udspec declaration of the sort job: the KVMSR base protocol plus
/// the map-side DRAM read-return handler (docs/udspec.md).
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = crate::runtime::spec();
    spec.event_mut("kvmsr::kv_map")
        .resumes("thread::sort::returnRead");
    spec.thread("thread::sort")
        .event("returnRead")
        .args(1, 1)
        .on("kvmsr::kv_map")
        .send("kvmsr::kv_reduce", |s| {
            s.args(3, 3).to_new();
        })
        .send("kvmsr_launcher::task_done", |s| {
            s.args(1, 1);
        })
        .terminates();
    spec
}

/// Host-side extraction: concatenate buckets in order, sorting each
/// segment (the per-bucket local sort phase).
pub fn read_sorted(mem: &updown_sim::GlobalMemory, plan: &SortPlan) -> Vec<u64> {
    let mut out = Vec::new();
    for b in 0..plan.buckets {
        let len = mem.read_u64(plan.seg_len_base.word(b)).unwrap();
        let mut seg = mem
            .read_words(plan.seg_data.word(b * plan.segment_cap), len as usize)
            .unwrap();
        seg.sort_unstable();
        out.extend(seg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use udweave::simple_event;
    use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};

    #[test]
    fn bucket_sort_sorts() {
        let mut eng = Engine::new(MachineConfig::small(1, 2, 8));
        let n = 500u64;
        let buckets = 16u64;
        let cap = 256u64;
        let input = eng.mem_mut().alloc(n * 8, 0, 1, 4096).unwrap();
        let seg_data = eng.mem_mut().alloc(buckets * cap * 8, 0, 1, 4096).unwrap();
        let seg_len = eng.mem_mut().alloc(buckets * 8, 0, 1, 4096).unwrap();
        // Pseudo-random input.
        let vals: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % 10_000).collect();
        eng.mem_mut().write_words(input, &vals).unwrap();

        let rt = Kvmsr::install(&mut eng);
        let plan = SortPlan {
            input,
            seg_data,
            seg_len_base: seg_len,
            buckets,
            segment_cap: cap,
            max_value: 10_000,
        };
        let set = udweave::LaneSet::new(NetworkId(0), 16);
        let job = install_sort(&mut eng, &rt, set, plan);
        let done = simple_event(&mut eng, "done", |ctx| ctx.stop());
        let (evw, args) = rt.start_msg(&eng, job, n, 0);
        eng.send(evw, args, EventWord::new(NetworkId(0), done));
        eng.run();

        let got = read_sorted(eng.mem(), &plan);
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bucket_of_covers_range() {
        let plan = SortPlan {
            input: VAddr(0),
            seg_data: VAddr(0),
            seg_len_base: VAddr(0),
            buckets: 8,
            segment_cap: 1,
            max_value: 100,
        };
        assert_eq!(plan.bucket_of(0), 0);
        assert_eq!(plan.bucket_of(99), 7);
        assert_eq!(plan.bucket_of(12), 0);
        assert_eq!(plan.bucket_of(13), 1);
        assert_eq!(plan.bucket_of(5000), 7, "out-of-range clamps");
    }
}
