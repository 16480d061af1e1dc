//! The KVMSR runtime (§2.2): job definition, hierarchical launch,
//! map→shuffle→reduce routing, and distributed termination detection.
//!
//! One KVMSR invocation proceeds as:
//!
//! 1. A *master* thread on the job's first lane broadcasts a launch over
//!    the lane set (k-ary tree).
//! 2. Each lane's *launcher* thread computes its key assignment from the
//!    map binding and spawns up to `window` concurrent `kv_map` task
//!    threads locally — the paper's "KVMSR transparently converts flat
//!    parallelism into groups of tasks ... matching the machine's
//!    resources" (§4.1.3).
//! 3. `kv_map` tasks emit `<key, value>` tuples; each emit routes directly
//!    to the reduce binding's lane and runs there as a `kv_reduce` task.
//! 4. Launchers report `(keys processed, tuples emitted)` up the tree.
//!    Once all maps are retired the master polls the lane set until the
//!    per-lane reduce completion counts sum to the emit total, then
//!    signals the invocation's continuation.
//!
//! PBMW launchers additionally request key chunks from the master lane
//! when their initial block runs dry.

use std::collections::BTreeMap;
use std::sync::Arc;

use udweave::{LaneSet, TreeComm};
use updown_sim::{
    snap_fields, snap_state, Engine, EventCtx, EventLabel, EventWord, NetworkId, Operands,
    ShardSlot, TableSlot,
};

use crate::binding::{KeyRange, MapBinding, ReduceBinding};
use crate::task::{JobId, MapTask, Outcome, ReduceTask};

/// Application map function: may return [`Outcome::Async`] and finish in
/// later events via [`Kvmsr::map_done`].
pub type MapFn = Arc<dyn Fn(&mut EventCtx<'_>, &mut MapTask, &Kvmsr) -> Outcome + Send + Sync>;
/// Application reduce function over one intermediate tuple.
pub type ReduceFn =
    Arc<dyn Fn(&mut EventCtx<'_>, &ReduceTask, &[u64], &Kvmsr) -> Outcome + Send + Sync>;
/// Per-lane epilogue handler (see [`JobSpec::epilogue`]).
pub type EpilogueFn = Arc<dyn Fn(&mut EventCtx<'_>, EventWord) -> Outcome + Send + Sync>;

/// Reduce-termination re-poll interval in cycles.
pub const POLL_INTERVAL: u64 = 400;

/// A KVMSR job definition.
#[derive(Clone)]
pub struct JobSpec {
    pub name: String,
    /// Lanes this invocation targets (§2.3).
    pub set: LaneSet,
    pub map_binding: MapBinding,
    pub reduce_binding: ReduceBinding,
    /// Max in-flight map tasks per lane.
    pub window: u32,
    pub map: MapFn,
    pub reduce: Option<ReduceFn>,
    /// Runs once on every lane of the set after all reduces have retired,
    /// before the invocation's continuation fires (e.g. combining-cache
    /// flush). The closure receives a completion event word: return
    /// [`Outcome::Done`] to complete immediately, or [`Outcome::Async`]
    /// and send two zero words to the completion word when finished (so
    /// acked flushes hold the job open until their effects landed).
    pub epilogue: Option<EpilogueFn>,
}

impl JobSpec {
    /// A job with paper defaults: Block map binding, Hash reduce binding.
    pub fn new(
        name: &str,
        set: LaneSet,
        map: impl Fn(&mut EventCtx<'_>, &mut MapTask, &Kvmsr) -> Outcome + Send + Sync + 'static,
    ) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            set,
            map_binding: MapBinding::Block,
            reduce_binding: ReduceBinding::Hash,
            window: 64,
            map: Arc::new(map),
            reduce: None,
            epilogue: None,
        }
    }

    pub fn with_reduce(
        mut self,
        f: impl Fn(&mut EventCtx<'_>, &ReduceTask, &[u64], &Kvmsr) -> Outcome + Send + Sync + 'static,
    ) -> JobSpec {
        self.reduce = Some(Arc::new(f));
        self
    }

    pub fn map_binding(mut self, b: MapBinding) -> JobSpec {
        self.map_binding = b;
        self
    }

    pub fn reduce_binding(mut self, b: ReduceBinding) -> JobSpec {
        self.reduce_binding = b;
        self
    }

    pub fn window(mut self, w: u32) -> JobSpec {
        self.window = w.max(1);
        self
    }

    pub fn epilogue(
        mut self,
        f: impl Fn(&mut EventCtx<'_>, EventWord) -> Outcome + Send + Sync + 'static,
    ) -> JobSpec {
        self.epilogue = Some(Arc::new(f));
        self
    }
}

#[derive(Default, Clone, Copy)]
struct RunState {
    active: bool,
    keys: u64,
    /// PBMW: next dynamically-assigned key.
    watermark: u64,
}

/// One lane's reduce completions for one job — the per-lane scratchpad
/// counter of the real implementation (spd costs charged at use). `done`
/// only grows; the poll reports what this run added.
#[derive(Default, Clone, Copy)]
struct ReduceCount {
    done: u64,
    /// `done` as of the latest poll: once a run has finished, its total.
    polled: u64,
    /// `polled` when this run's launch reached the lane. A tuple can
    /// arrive before the launch does, so the launch cannot simply zero
    /// `done`; no poll of this run can.
    base: u64,
}

/// What the runtime keeps per shard: a job's run bookkeeping lives with
/// its master lane, a reduce counter with its reduce lane.
#[derive(Default, Clone)]
struct KvShard {
    runs: Vec<RunState>,
    /// A `BTreeMap` so any future iteration is deterministic by
    /// construction (see tools/determinism_lint.py).
    reduce_counts: BTreeMap<(u32, u32), ReduceCount>,
}

impl KvShard {
    fn run(&mut self, job: u32) -> &mut RunState {
        udweave::program::entry(&mut self.runs, job as usize)
    }
}

/// `race_order` token space for the reduce-completion poll protocol:
/// `reduce_done` bumps a host-side per-(job, lane) counter that
/// `poll_probe` reads, a lane-serialized exchange in shard state, which
/// the race probe cannot see. Both sides order on `RACE_TOKEN_KV | job`
/// ("KV" in the high bytes); see docs/udrace.md.
const RACE_TOKEN_KV: u64 = 0x4B56_0000_0000_0000;

#[derive(Clone, Copy)]
struct Labels {
    start: EventLabel,
    maps_done: EventLabel,
    poll_result: EventLabel,
    launch: EventLabel,
    task_done: EventLabel,
    pbmw_grant: EventLabel,
    map_task: EventLabel,
    reduce_exec: EventLabel,
    poll_probe: EventLabel,
    pbmw_request: EventLabel,
    epilogue_probe: EventLabel,
    epilogue_done: EventLabel,
}

/// The installed KVMSR runtime: three engine slots and the launch tree.
#[derive(Clone, Copy)]
pub struct Kvmsr {
    /// The job table, grown by [`Kvmsr::define_job`] between runs.
    jobs: TableSlot<Vec<JobSpec>>,
    /// The runtime's own labels, bound once at the end of `install`.
    labels: TableSlot<Option<Labels>>,
    state: ShardSlot<KvShard>,
    tree: TreeComm,
}

#[derive(Clone, Default)]
struct MasterState {
    job: u32,
    keys: u64,
    emitted: u64,
    cont_raw: u64,
}

#[derive(Clone)]
struct LauncherState {
    job: u32,
    user_arg: u64,
    range: KeyRange,
    in_flight: u32,
    processed: u64,
    emitted: u64,
    ack: EventWord,
    pbmw: bool,
    requested: bool,
    drained: bool,
}

impl Default for LauncherState {
    fn default() -> Self {
        LauncherState {
            job: 0,
            user_arg: 0,
            range: KeyRange::EMPTY,
            in_flight: 0,
            processed: 0,
            emitted: 0,
            ack: EventWord::IGNORE,
            pbmw: false,
            requested: false,
            drained: false,
        }
    }
}

// Snapshot codecs: live master/launcher thread states must survive a
// checkpoint/restore cycle byte-for-byte (docs/checkpoint.md).
snap_fields!(KeyRange, { next, end, stride });
snap_state!(MasterState, "kvmsr.master", { job, keys, emitted, cont_raw });
snap_state!(LauncherState, "kvmsr.launcher", {
    job, user_arg, range, in_flight, processed, emitted, ack, pbmw,
    requested, drained,
});

impl Kvmsr {
    /// Install the runtime's event handlers on an engine. Call once, before
    /// defining jobs.
    pub fn install(eng: &mut Engine) -> Kvmsr {
        let tree = TreeComm::install(eng, "kvmsr_tree", 8);
        let rt = Kvmsr {
            jobs: eng.table(Vec::new()),
            labels: eng.table(None),
            state: eng.shard_slot(),
            tree,
        };

        // ---- master thread ------------------------------------------------
        let mut master = udweave::ThreadType::<MasterState>::new("kvmsr_master");
        let start = master.event(eng, "start", move |ctx, st| {
            st.job = ctx.arg(0) as u32;
            st.keys = ctx.arg(1);
            let user_arg = ctx.arg(2);
            st.cont_raw = ctx.cont().raw();
            let spec = rt.job(ctx, st.job);
            let set = spec.set;
            let watermark = spec.map_binding.pbmw_watermark(st.keys, set.count);
            let run = ctx.shard_state(rt.state).run(st.job);
            assert!(!run.active, "job {} started while active", st.job);
            *run = RunState {
                active: true,
                keys: st.keys,
                watermark,
            };
            ctx.bump("kvmsr.jobs", 1);
            ctx.phase_begin("map");
            // Launch broadcast; acks aggregate to maps_done.
            let lb = rt.labels(ctx);
            let args = rt
                .tree
                .start_args(set, lb.launch, &[st.job as u64, st.keys, user_arg]);
            let md = ctx.self_event(lb.maps_done);
            ctx.charge(4);
            ctx.send_event(rt.tree.start_evw(set), args, md);
        });
        let maps_done = master.event(eng, "maps_done", move |ctx, st| {
            let processed = ctx.arg(0);
            st.emitted = ctx.arg(1);
            assert_eq!(
                processed, st.keys,
                "job {}: launcher reports lost keys",
                st.job
            );
            let spec = rt.job(ctx, st.job);
            ctx.phase_end("map");
            if spec.reduce.is_none() || st.emitted == 0 {
                rt.finish_or_epilogue(ctx, st);
                return;
            }
            ctx.phase_begin("reduce");
            // First reduce-termination poll, immediately.
            let lb = rt.labels(ctx);
            let args = rt.tree.start_args(spec.set, lb.poll_probe, &[st.job as u64]);
            let pr = ctx.self_event(lb.poll_result);
            ctx.charge(2);
            ctx.send_event(rt.tree.start_evw(spec.set), args, pr);
        });
        let poll_result = master.event(eng, "poll_result", move |ctx, st| {
            let sum = ctx.arg(0);
            debug_assert!(sum <= st.emitted, "reduce over-count");
            if sum == st.emitted {
                rt.finish_or_epilogue(ctx, st);
                return;
            }
            let spec = rt.job(ctx, st.job);
            let lb = rt.labels(ctx);
            let args = rt.tree.start_args(spec.set, lb.poll_probe, &[st.job as u64]);
            let pr = ctx.self_event(lb.poll_result);
            ctx.charge(2);
            ctx.send_event_after(POLL_INTERVAL, rt.tree.start_evw(spec.set), args, pr);
        });
        let epilogue_done = master.event(eng, "epilogue_done", move |ctx, st| {
            rt.finish(ctx, st);
        });

        // ---- per-lane launcher thread --------------------------------------
        let mut launcher = udweave::ThreadType::<LauncherState>::new("kvmsr_launcher");
        let launch = launcher.event(eng, "launch", move |ctx, st| {
            st.job = ctx.arg(0) as u32;
            let keys = ctx.arg(1);
            st.user_arg = ctx.arg(2);
            st.ack = ctx.cont();
            let spec = rt.job(ctx, st.job);
            // What the last poll saw belongs to runs that are over.
            let lane = ctx.nwid().0;
            if let Some(c) = ctx.shard_state(rt.state).reduce_counts.get_mut(&(st.job, lane)) {
                c.base = c.polled;
            }
            let pos = spec.set.position_of(ctx.nwid());
            st.range = spec.map_binding.initial_range(keys, pos, spec.set.count);
            st.pbmw = matches!(spec.map_binding, MapBinding::Pbmw { .. });
            ctx.charge(6);
            for _ in 0..spec.window {
                if !rt.spawn_one(ctx, st) {
                    break;
                }
            }
            rt.launcher_progress(ctx, st);
        });
        let task_done = launcher.event(eng, "task_done", move |ctx, st| {
            st.in_flight -= 1;
            ctx.trace_counter_add("kvmsr.in_flight", -1);
            st.processed += 1;
            st.emitted += ctx.arg(0);
            ctx.charge(2);
            rt.spawn_one(ctx, st);
            rt.launcher_progress(ctx, st);
        });
        let pbmw_grant = launcher.event(eng, "pbmw_grant", move |ctx, st| {
            let start = ctx.arg(0);
            let len = ctx.arg(1);
            st.requested = false;
            ctx.charge(2);
            if len == 0 {
                st.drained = true;
            } else {
                st.range = KeyRange {
                    next: start,
                    end: start + len,
                    stride: 1,
                };
                let window = rt.job(ctx, st.job).window;
                while st.in_flight < window {
                    if !rt.spawn_one(ctx, st) {
                        break;
                    }
                }
            }
            rt.launcher_progress(ctx, st);
        });

        // ---- map task wrapper ----------------------------------------------
        let map_task = udweave::simple_event(eng, "kvmsr::kv_map", move |ctx| {
            let mut task = MapTask::parse(ctx);
            let f = &rt.job(ctx, task.job.0).map;
            match f(ctx, &mut task, &rt) {
                Outcome::Done => {
                    rt.map_done(ctx, &task);
                    ctx.yield_terminate();
                }
                Outcome::Async => {}
            }
        });

        // ---- reduce wrapper ---------------------------------------------------
        let reduce_exec = udweave::simple_event(eng, "kvmsr::kv_reduce", move |ctx| {
            let job = JobId(ctx.arg(0) as u32);
            let task = ReduceTask {
                job,
                key: ctx.arg(1),
            };
            let f = rt
                .job(ctx, job.0)
                .reduce
                .as_ref()
                .expect("reduce tuple for map-only job");
            let vals = Operands::from(&ctx.args()[2..]);
            match f(ctx, &task, &vals, &rt) {
                Outcome::Done => {
                    rt.reduce_done(ctx, job);
                    ctx.yield_terminate();
                }
                Outcome::Async => {}
            }
        });

        // ---- per-lane poll probe ------------------------------------------------
        let poll_probe = udweave::simple_event(eng, "kvmsr::poll_probe", move |ctx| {
            let job = ctx.arg(0) as u32;
            ctx.race_order(RACE_TOKEN_KV | job as u64);
            let lane = ctx.nwid().0;
            let count = match ctx.shard_state(rt.state).reduce_counts.get_mut(&(job, lane)) {
                Some(c) => {
                    c.polled = c.done;
                    c.done - c.base
                }
                None => 0,
            };
            ctx.charge(2);
            ctx.send_reply([count, 0]);
            ctx.yield_terminate();
        });

        // ---- per-lane epilogue hook ------------------------------------------
        let epilogue_probe = udweave::simple_event(eng, "kvmsr::epilogue", move |ctx| {
            let job = ctx.arg(0) as u32;
            let done = ctx.cont();
            let outcome = match &rt.job(ctx, job).epilogue {
                Some(f) => f(ctx, done),
                None => Outcome::Done,
            };
            if outcome == Outcome::Done {
                ctx.send_reply([0u64, 0]);
                ctx.yield_terminate();
            }
        });

        // ---- PBMW master-side chunk server ------------------------------------
        let pbmw_request = udweave::simple_event(eng, "kvmsr::pbmw_request", move |ctx| {
            let job = ctx.arg(0) as u32;
            let chunk = match rt.job(ctx, job).map_binding {
                MapBinding::Pbmw { chunk } => chunk,
                _ => unreachable!("PBMW request for non-PBMW job"),
            };
            let run = ctx.shard_state(rt.state).run(job);
            let grant = chunk.min(run.keys - run.watermark);
            let start = run.watermark;
            run.watermark += grant;
            ctx.charge(3);
            ctx.send_reply([start, grant]);
            ctx.yield_terminate();
        });

        *eng.table_mut(rt.labels) = Some(Labels {
            start,
            maps_done,
            poll_result,
            launch,
            task_done,
            pbmw_grant,
            map_task,
            reduce_exec,
            poll_probe,
            pbmw_request,
            epilogue_probe,
            epilogue_done,
        });
        rt
    }

    /// A job's definition, borrowed for the whole run: its closures can be
    /// called with `ctx`.
    fn job<'a>(&self, ctx: &EventCtx<'a>, job: u32) -> &'a JobSpec {
        &ctx.table(self.jobs)[job as usize]
    }

    fn labels<'a>(&self, ctx: &EventCtx<'a>) -> &'a Labels {
        ctx.table(self.labels).as_ref().expect("labels are bound by install")
    }

    /// Run the epilogue broadcast if the job has one, else finish directly.
    fn finish_or_epilogue(&self, ctx: &mut EventCtx<'_>, st: &mut MasterState) {
        let spec = self.job(ctx, st.job);
        ctx.phase_end("reduce");
        if spec.epilogue.is_none() {
            self.finish(ctx, st);
            return;
        }
        ctx.phase_begin("epilogue");
        let lb = self.labels(ctx);
        let args = self.tree.start_args(spec.set, lb.epilogue_probe, &[st.job as u64]);
        let done = ctx.self_event(lb.epilogue_done);
        ctx.charge(2);
        ctx.send_event(self.tree.start_evw(spec.set), args, done);
    }

    fn finish(&self, ctx: &mut EventCtx<'_>, st: &mut MasterState) {
        ctx.phase_end("epilogue");
        ctx.shard_state(self.state).run(st.job).active = false;
        let cont = EventWord::from_raw(st.cont_raw);
        if !cont.is_ignore() {
            ctx.send_event(cont, [st.keys, st.emitted], EventWord::IGNORE);
        }
        ctx.yield_terminate();
    }

    /// Spawn the next map task on this launcher's lane. Returns false when
    /// the local range is empty (possibly requesting a PBMW refill).
    fn spawn_one(&self, ctx: &mut EventCtx<'_>, st: &mut LauncherState) -> bool {
        let lb = self.labels(ctx);
        match st.range.take() {
            Some(key) => {
                st.in_flight += 1;
                ctx.bump("kvmsr.map_tasks", 1);
                ctx.peak("kvmsr.window_peak", st.in_flight as u64);
                ctx.trace_counter_add("kvmsr.in_flight", 1);
                let td = ctx.self_event(lb.task_done);
                let w = EventWord::new(ctx.nwid(), lb.map_task);
                ctx.send_event(
                    w,
                    [st.job as u64, key, st.user_arg, td.raw()],
                    EventWord::IGNORE,
                );
                true
            }
            None => {
                if st.pbmw && !st.requested && !st.drained {
                    st.requested = true;
                    let set = self.job(ctx, st.job).set;
                    let dst = EventWord::new(set.lane(0), lb.pbmw_request);
                    let grant = ctx.self_event(lb.pbmw_grant);
                    ctx.send_event(dst, [st.job as u64], grant);
                }
                false
            }
        }
    }

    /// Ack and retire the launcher when fully done.
    fn launcher_progress(&self, ctx: &mut EventCtx<'_>, st: &mut LauncherState) {
        let exhausted = st.range.is_empty() && (!st.pbmw || st.drained) && !st.requested;
        if exhausted && st.in_flight == 0 {
            let ack = st.ack;
            ctx.send_event(ack, [st.processed, st.emitted], EventWord::IGNORE);
            ctx.yield_terminate();
        }
    }

    /// Define a job; returns its id for `start` calls. The job table is a
    /// program table, so this happens between runs.
    pub fn define_job(&self, eng: &mut Engine, spec: JobSpec) -> JobId {
        let jobs = eng.table_mut(self.jobs);
        jobs.push(spec);
        JobId(jobs.len() as u32 - 1)
    }

    /// The lane set a job targets.
    pub fn job_set(&self, eng: &Engine, job: JobId) -> LaneSet {
        eng.table_ref(self.jobs)[job.0 as usize].set
    }

    /// Master lane of a job (where `start` messages go).
    pub fn master_lane(&self, eng: &Engine, job: JobId) -> NetworkId {
        self.job_set(eng, job).lane(0)
    }

    /// Build the start message for host-side injection:
    /// `engine.send(evw, args, completion_cont)`.
    pub fn start_msg(&self, eng: &Engine, job: JobId, keys: u64, user_arg: u64) -> (EventWord, Vec<u64>) {
        let start = eng.table_ref(self.labels).expect("labels are bound by install").start;
        (
            EventWord::new(self.master_lane(eng, job), start),
            vec![job.0 as u64, keys, user_arg],
        )
    }

    /// Start a job from inside the simulation; `cont` receives
    /// `[keys_processed, tuples_emitted]` on completion.
    pub fn start_from(
        &self,
        ctx: &mut EventCtx<'_>,
        job: JobId,
        keys: u64,
        user_arg: u64,
        cont: EventWord,
    ) {
        let evw = EventWord::new(self.job(ctx, job.0).set.lane(0), self.labels(ctx).start);
        ctx.send_event(evw, [job.0 as u64, keys, user_arg], cont);
    }

    /// `kv_map_emit`: route an intermediate tuple to its reduce lane.
    pub fn emit(&self, ctx: &mut EventCtx<'_>, task: &mut MapTask, key: u64, vals: &[u64]) {
        task.emits += 1;
        self.emit_uncounted(ctx, task.job, key, vals);
    }

    /// Route a tuple to its reduce lane **without** updating a task's emit
    /// counter. Helper threads working on behalf of a map task use this and
    /// report their emit counts to the owning task
    /// ([`MapTask::add_external_emits`]); forgetting to do so hangs the
    /// job's reduce termination.
    pub fn emit_uncounted(&self, ctx: &mut EventCtx<'_>, job: JobId, key: u64, vals: &[u64]) {
        let spec = self.job(ctx, job.0);
        let lane = spec.reduce_binding.lane_for(key, &spec.set);
        let mut args = Operands::from([job.0 as u64, key]);
        args.extend_from_slice(vals);
        ctx.charge(1);
        ctx.send_event(EventWord::new(lane, self.labels(ctx).reduce_exec), args, EventWord::IGNORE);
    }

    /// `kv_map_return`: retire a map task (call once per task; the wrapper
    /// does it automatically for [`Outcome::Done`] maps).
    pub fn map_done(&self, ctx: &mut EventCtx<'_>, task: &MapTask) {
        ctx.send_event(task.launcher, [task.emits], EventWord::IGNORE);
    }

    /// Retire an async reduce task (the wrapper does it for
    /// [`Outcome::Done`] reduces).
    pub fn reduce_done(&self, ctx: &mut EventCtx<'_>, job: JobId) {
        ctx.race_order(RACE_TOKEN_KV | job.0 as u64);
        let lane = ctx.nwid().0;
        ctx.shard_state(self.state).reduce_counts.entry((job.0, lane)).or_default().done += 1;
        ctx.charge(1);
    }
}

/// The udspec declaration of the KVMSR runtime protocol with the default
/// map window (64) and a 64-lane PBMW server bound: master, tree, per-lane
/// launchers, and the `kv_map`/`kv_reduce`/poll/epilogue/PBMW events.
/// Applications extend this spec with their own handler declarations
/// (docs/udspec.md).
pub fn spec() -> udweave::ProgramSpec {
    spec_with(64, 64)
}

/// [`spec`] parameterized by the job's map `window` (`JobSpec::window`)
/// and the maximum lane-set size `max_set_lanes`.
///
/// `max_set_lanes` bounds the PBMW chunk server's concentration: every
/// launcher in the set sends `kvmsr::pbmw_request` to the set's first
/// lane, so that one lane can hold up to one request thread per set lane
/// at once. Derived per-lane bounds assume lane-local or spread spawn
/// targeting and would under-count this concentrated pattern; the bound
/// is therefore declared explicitly here.
pub fn spec_with(window: u64, max_set_lanes: u64) -> udweave::ProgramSpec {
    let mut spec = udweave::ProgramSpec::new();

    // The launch/poll/epilogue broadcast tree (fanout fixed at install).
    TreeComm::spec_decl(
        &mut spec,
        "kvmsr_tree",
        8,
        &["kvmsr_launcher::launch", "kvmsr::poll_probe", "kvmsr::epilogue"],
        (1, 3),
    );

    {
        let master = spec.thread("kvmsr_master");
        master
            .event("start")
            .args(3, 3)
            .from_host()
            .live_per_lane(1)
            .send("thread::kvmsr_tree::relay", |s| {
                s.args(7, 7).to_new().with_cont();
            });
        // maps_done may start the reduce poll, skip straight to the
        // epilogue broadcast, or finish the job (reply to the stored job
        // continuation).
        master
            .event("maps_done")
            .args(2, 2)
            .on("kvmsr_master::start")
            .send("thread::kvmsr_tree::relay", |s| {
                s.args(5, 5).to_new().with_cont().conditional();
            })
            .replies()
            .terminates();
        master
            .event("poll_result")
            .args(2, 2)
            .on("kvmsr_master::start")
            .send("thread::kvmsr_tree::relay", |s| {
                s.args(5, 5).to_new().with_cont().conditional().ordered();
            })
            .replies()
            .terminates();
        master
            .event("epilogue_done")
            .args(2, 2)
            .on("kvmsr_master::start")
            .replies()
            .terminates();
    }

    {
        let launcher = spec.thread("kvmsr_launcher");
        launcher
            .event("launch")
            .args(3, 3)
            .live_per_lane(1)
            .send("kvmsr::kv_map", |s| {
                s.args(4, 4).to_new().conditional().fanout(window);
            })
            .send("kvmsr::pbmw_request", |s| {
                s.args(1, 1).to_new().with_cont().conditional();
            })
            .replies()
            .terminates();
        launcher
            .event("task_done")
            .args(1, 1)
            .on("kvmsr_launcher::launch")
            .send("kvmsr::kv_map", |s| {
                s.args(4, 4).to_new().conditional().ordered();
            })
            .send("kvmsr::pbmw_request", |s| {
                s.args(1, 1).to_new().with_cont().conditional();
            })
            .replies()
            .terminates();
        launcher
            .event("pbmw_grant")
            .args(2, 2)
            .on("kvmsr_launcher::launch")
            .send("kvmsr::kv_map", |s| {
                s.args(4, 4).to_new().conditional().fanout(window);
            })
            .send("kvmsr::pbmw_request", |s| {
                s.args(1, 1).to_new().with_cont().conditional();
            })
            .replies()
            .terminates();
    }

    {
        let kv = spec.thread("kvmsr");
        kv.event("kv_map")
            .args(4, 4)
            .live_per_lane(window)
            .send("kvmsr::kv_reduce", |s| {
                s.args_at_least(2).to_new().conditional().fanout_unbounded();
            })
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
        // One reduce thread per routed tuple; admission is throttled only
        // by the emit rate, so the honest declared bound is unbounded.
        kv.event("kv_reduce")
            .args_at_least(2)
            .live_unbounded()
            .terminates();
        kv.event("poll_probe").args(1, 1).replies().terminates();
        kv.event("epilogue").args(1, 1).replies().terminates();
        kv.event("pbmw_request")
            .args(1, 1)
            .live_per_lane(max_set_lanes)
            .replies()
            .terminates();
    }

    spec
}

/// Accumulate the KVMSR skeleton's predicted event counts into a
/// [`udweave::Workload`] for `udcost` static cost analysis: one master
/// start / maps_done per job, a per-lane launch broadcast, the fanout-8
/// tree's relay and gather traffic (two broadcasts and two reductions per
/// job), one kv_map + task_done per key, and — for the `reduce_jobs` jobs
/// that have a reduce phase — the per-lane epilogue sweep plus two poll
/// rounds. These counts depend only on the machine shape and job/key
/// totals, never on simulated state.
pub fn skeleton_workload(
    w: &mut udweave::Workload,
    mc: &updown_sim::MachineConfig,
    jobs: f64,
    keys: f64,
    reduce_jobs: f64,
) {
    let lanes = mc.total_lanes() as f64;
    w.count("kvmsr_master::start", jobs)
        .count("kvmsr_master::maps_done", jobs)
        .count("kvmsr_master::poll_result", 2.0 * reduce_jobs)
        .count("kvmsr_master::epilogue_done", reduce_jobs)
        .count("kvmsr_launcher::launch", jobs * lanes)
        .count("kvmsr_launcher::task_done", keys)
        .count("kvmsr::kv_map", keys)
        .count("kvmsr::epilogue", reduce_jobs * lanes)
        .count("kvmsr::poll_probe", 2.0 * reduce_jobs * lanes)
        .count("thread::kvmsr_tree::relay", jobs * 2.0 * lanes)
        .count(
            "thread::kvmsr_tree::gather",
            jobs * 2.0 * (2.0 * lanes - 1.0),
        );
    if reduce_jobs <= 0.0 {
        // Map-only pipelines never emit: without a pin, propagation would
        // flag the unbounded kv_map → kv_reduce edge it cannot evaluate.
        w.count("kvmsr::kv_reduce", 0.0);
    }
    // Task completions are lane-local: a task notifies the launcher that
    // issued it.
    w.local("kvmsr::kv_map", "kvmsr_launcher::task_done");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use udweave::simple_event;
    use updown_sim::{Engine, MachineConfig, VAddr};

    fn engine(nodes: u32, accels: u32, lanes: u32) -> Engine {
        Engine::new(MachineConfig::small(nodes, accels, lanes))
    }

    /// Run a job from the host and stop the sim at completion; returns
    /// (processed, emitted, final_tick).
    fn run_job(eng: &mut Engine, rt: &Kvmsr, job: JobId, keys: u64, arg: u64) -> (u64, u64, u64) {
        let out: Arc<Mutex<(u64, u64)>> = Arc::default();
        let out2 = out.clone();
        let done = simple_event(eng, "job_done", move |ctx| {
            *out2.lock().unwrap() = (ctx.arg(0), ctx.arg(1));
            ctx.stop();
        });
        let (evw, args) = rt.start_msg(eng, job, keys, arg);
        let cont = EventWord::new(NetworkId(0), done);
        eng.send(evw, args, cont);
        let r = eng.run();
        let (p, e) = *out.lock().unwrap();
        (p, e, r.final_tick)
    }

    #[test]
    fn map_only_job_visits_every_key() {
        let mut eng = engine(1, 2, 4);
        let rt = Kvmsr::install(&mut eng);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let seen2 = seen.clone();
        let set = LaneSet::new(NetworkId(0), 8);
        let job = rt.define_job(&mut eng, JobSpec::new("visit", set, move |ctx, task, _rt| {
            seen2.lock().unwrap().push(task.key);
            ctx.charge(5);
            Outcome::Done
        }));
        let (p, e, _) = run_job(&mut eng, &rt, job, 100, 0);
        assert_eq!(p, 100);
        assert_eq!(e, 0);
        let mut s = seen.lock().unwrap().clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn map_reduce_histogram() {
        // Classic: map emits (key % 10, 1); reduce accumulates into DRAM.
        let mut eng = engine(2, 2, 4);
        let base = eng.mem_mut().alloc(4096, 0, 2, 4096).unwrap();
        let rt = Kvmsr::install(&mut eng);
        let set = LaneSet::new(NetworkId(0), 16);
        let job = rt.define_job(&mut eng,
            JobSpec::new("hist_map", set, move |ctx, task, rt| {
                let bucket = task.key % 10;
                rt.emit(ctx, task, bucket, &[1]);
                ctx.charge(3);
                Outcome::Done
            })
            .with_reduce(move |ctx, task, vals, _rt| {
                ctx.dram_fetch_add_u64(base.word(task.key), vals[0], None, None);
                Outcome::Done
            }),
        );
        let (p, e, _) = run_job(&mut eng, &rt, job, 1000, 0);
        assert_eq!(p, 1000);
        assert_eq!(e, 1000);
        for b in 0..10u64 {
            assert_eq!(eng.mem().read_u64(base.word(b)).unwrap(), 100);
        }
    }

    #[test]
    fn async_map_tasks() {
        // Map issues a DRAM read and finishes in a second event.
        #[derive(Clone, Default)]
        struct St {
            task: Option<MapTask>,
        }
        updown_sim::snap_state!(St, "test.async_map", { task });
        let mut eng = engine(1, 1, 4);
        let data = eng.mem_mut().alloc(8192, 0, 1, 4096).unwrap();
        for i in 0..1000 {
            eng.mem_mut().write_u64(data.word(i), i * 2).unwrap();
        }
        let rt = Kvmsr::install(&mut eng);
        let sum: Arc<Mutex<u64>> = Arc::default();
        let sum2 = sum.clone();
        let on_read = udweave::event::<St>(&mut eng, "on_read", move |ctx, st| {
            *sum2.lock().unwrap() += ctx.arg(0);
            let task = st.task.unwrap();
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        });
        let set = LaneSet::new(NetworkId(0), 4);
        let job = rt.define_job(&mut eng, JobSpec::new("async", set, move |ctx, task, _rt| {
            ctx.state_mut::<St>().task = Some(*task);
            ctx.send_dram_read(VAddr(data.0).word(task.key), 1, on_read);
            Outcome::Async
        }));
        let (p, _, _) = run_job(&mut eng, &rt, job, 200, 0);
        assert_eq!(p, 200);
        assert_eq!(*sum.lock().unwrap(), (0..200u64).map(|i| i * 2).sum());
    }

    #[test]
    fn pbmw_balances_skew() {
        // Skewed map costs: Block leaves one lane working alone at the end;
        // PBMW should finish sooner.
        fn build(binding: MapBinding) -> u64 {
            let mut eng = engine(1, 2, 8);
            let rt = Kvmsr::install(&mut eng);
            let set = LaneSet::new(NetworkId(0), 16);
            let job = rt.define_job(&mut eng,
                JobSpec::new("skew", set, move |ctx, task, _rt| {
                    // Keys in the first block are 100x more expensive.
                    let cost = if task.key < 64 { 4000 } else { 40 };
                    ctx.charge(cost);
                    Outcome::Done
                })
                .map_binding(binding)
                .window(2),
            );
            let (p, _, t) = {
                let out: Arc<Mutex<(u64, u64)>> = Arc::default();
                let out2 = out.clone();
                let done = simple_event(&mut eng, "done", move |ctx| {
                    *out2.lock().unwrap() = (ctx.arg(0), ctx.arg(1));
                    ctx.stop();
                });
                let (evw, args) = rt.start_msg(&eng, job, 1024, 0);
                eng.send(evw, args, EventWord::new(NetworkId(0), done));
                let r = eng.run();
                let (p, e) = *out.lock().unwrap();
                (p, e, r.final_tick)
            };
            assert_eq!(p, 1024);
            t
        }
        let t_block = build(MapBinding::Block);
        let t_pbmw = build(MapBinding::Pbmw { chunk: 8 });
        assert!(
            t_pbmw < t_block,
            "PBMW ({t_pbmw}) should beat Block ({t_block}) under skew"
        );
    }

    #[test]
    fn empty_job_completes() {
        let mut eng = engine(1, 1, 4);
        let rt = Kvmsr::install(&mut eng);
        let set = LaneSet::new(NetworkId(0), 4);
        let job = rt.define_job(&mut eng,
            JobSpec::new("empty", set, |_ctx, _task, _rt| Outcome::Done)
                .with_reduce(|_ctx, _t, _v, _rt| Outcome::Done),
        );
        let (p, e, _) = run_job(&mut eng, &rt, job, 0, 0);
        assert_eq!((p, e), (0, 0));
    }

    #[test]
    fn async_reduce_tasks() {
        // Reduce reads DRAM before accumulating; termination must wait.
        #[derive(Clone, Default)]
        struct St {
            job: u32,
            add: u64,
        }
        updown_sim::snap_state!(St, "test.async_reduce", { job, add });
        let mut eng = engine(1, 1, 4);
        let table = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        let out = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        for i in 0..16 {
            eng.mem_mut().write_u64(table.word(i), 100 + i).unwrap();
        }
        let rt = Kvmsr::install(&mut eng);
        let on_read = udweave::event::<St>(&mut eng, "red_read", move |ctx, st| {
            let v = ctx.arg(0) + st.add;
            ctx.dram_fetch_add_u64(out, v, None, None);
            rt.reduce_done(ctx, JobId(st.job));
            ctx.yield_terminate();
        });
        let set = LaneSet::new(NetworkId(0), 4);
        let job = rt.define_job(&mut eng,
            JobSpec::new("amap", set, move |ctx, task, rt| {
                rt.emit(ctx, task, task.key % 16, &[task.key]);
                Outcome::Done
            })
            .with_reduce(move |ctx, task, vals, _rt| {
                let st = ctx.state_mut::<St>();
                st.job = task.job.0;
                st.add = vals[0];
                ctx.send_dram_read(VAddr(table.0).word(task.key), 1, on_read);
                Outcome::Async
            }),
        );
        let (p, e, _) = run_job(&mut eng, &rt, job, 64, 0);
        assert_eq!((p, e), (64, 64));
        // Expected: sum over keys k of (table[k%16] + k).
        let expect: u64 = (0..64u64).map(|k| 100 + (k % 16) + k).sum();
        assert_eq!(eng.mem().read_u64(out).unwrap(), expect);
    }

    #[test]
    fn user_arg_reaches_tasks() {
        let mut eng = engine(1, 1, 2);
        let rt = Kvmsr::install(&mut eng);
        let ok: Arc<Mutex<bool>> = Arc::new(Mutex::new(true));
        let ok2 = ok.clone();
        let set = LaneSet::new(NetworkId(0), 2);
        let job = rt.define_job(&mut eng, JobSpec::new("arg", set, move |_ctx, task, _rt| {
            if task.arg != 777 {
                *ok2.lock().unwrap() = false;
            }
            Outcome::Done
        }));
        run_job(&mut eng, &rt, job, 10, 777);
        assert!(*ok.lock().unwrap());
    }

    #[test]
    fn sequential_runs_of_same_job() {
        let mut eng = engine(1, 1, 4);
        let rt = Kvmsr::install(&mut eng);
        let count: Arc<Mutex<u64>> = Arc::default();
        let c2 = count.clone();
        let set = LaneSet::new(NetworkId(0), 4);
        let job = rt.define_job(&mut eng, JobSpec::new("again", set, move |_ctx, _task, _rt| {
            *c2.lock().unwrap() += 1;
            Outcome::Done
        }));
        run_job(&mut eng, &rt, job, 50, 0);
        run_job(&mut eng, &rt, job, 30, 0);
        assert_eq!(*count.lock().unwrap(), 80);
    }

    #[test]
    fn more_lanes_is_faster_strong_scaling_smoke() {
        fn t(lanes: u32) -> u64 {
            let mut eng = engine(1, 4, 16);
            let rt = Kvmsr::install(&mut eng);
            let set = LaneSet::new(NetworkId(0), lanes);
            let job = rt.define_job(&mut eng, JobSpec::new("work", set, move |ctx, _task, _rt| {
                ctx.charge(500);
                Outcome::Done
            }));
            let (p, _, tick) = {
                let out: Arc<Mutex<(u64, u64)>> = Arc::default();
                let out2 = out.clone();
                let done = simple_event(&mut eng, "done", move |ctx| {
                    *out2.lock().unwrap() = (ctx.arg(0), ctx.arg(1));
                    ctx.stop();
                });
                let (evw, args) = rt.start_msg(&eng, job, 2048, 0);
                eng.send(evw, args, EventWord::new(NetworkId(0), done));
                let r = eng.run();
                let p = out.lock().unwrap().0;
                (p, 0u64, r.final_tick)
            };
            assert_eq!(p, 2048);
            tick
        }
        let t4 = t(4);
        let t64 = t(64);
        assert!(
            t64 * 8 < t4,
            "64 lanes ({t64}) should be much faster than 4 ({t4})"
        );
    }
}
