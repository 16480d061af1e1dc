//! Task handles passed to application `kv_map` / `kv_reduce` code.

use updown_sim::{snap_fields, EventCtx, EventWord, SnapField, SnapReader, SnapWriter, SnapshotError};

/// Identifier of a defined KVMSR job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(pub u32);

impl SnapField for JobId {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(JobId(r.u32()?))
    }
}

/// What an application handler reports back to the KVMSR wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The task is complete; KVMSR retires it (`kv_map_return` implied).
    Done,
    /// The task continues in later events (e.g. waiting on DRAM reads);
    /// the application stores the task handle in its thread state and
    /// calls `map_done` / `reduce_done` itself when finished.
    Async,
}

/// Handle for one `kv_map(<k, v>)` task. Copyable so multi-event map
/// threads can stash it in their thread state (PR's `kv_map` +
/// `returnRead` pattern in Listing 3).
#[derive(Clone, Copy, Debug)]
pub struct MapTask {
    pub job: JobId,
    /// The key this task was invoked on.
    pub key: u64,
    /// The per-run user argument (e.g. current BFS round).
    pub arg: u64,
    /// Where `kv_map_return` reports (the lane launcher's `task_done`).
    pub(crate) launcher: EventWord,
    /// Emits performed so far (needed by reduce-phase termination).
    pub(crate) emits: u64,
}

// Map tasks live inside application thread states across events, so they
// must be snapshot-encodable (docs/checkpoint.md).
snap_fields!(MapTask, { job, key, arg, launcher, emits });

impl MapTask {
    pub(crate) fn parse(ctx: &EventCtx<'_>) -> MapTask {
        MapTask {
            job: JobId(ctx.arg(0) as u32),
            key: ctx.arg(1),
            arg: ctx.arg(2),
            launcher: EventWord::from_raw(ctx.arg(3)),
            emits: 0,
        }
    }

    /// Fold in tuples emitted on this task's behalf by helper threads (the
    /// BFS master-worker pattern: workers emit with
    /// [`crate::runtime::Kvmsr::emit_uncounted`] and report their counts to
    /// the master task, which accounts for them before `map_done`).
    pub fn add_external_emits(&mut self, n: u64) {
        self.emits += n;
    }
}

/// Handle for one `kv_reduce` task.
#[derive(Clone, Copy, Debug)]
pub struct ReduceTask {
    pub job: JobId,
    pub key: u64,
}
