//! Deterministic record-replay: under [`crate::MachineConfig::replay`],
//! [`Engine::run`] records every scheduler invocation and, before it goes
//! on, replays each shard of that recording alone and reports the verdict.

use std::ops::Range;

use super::codec::Snapshot;
use super::core::{ExecRec, ShardRecord, Tag};
use super::Engine;
use crate::snapshot::ReplayRunReport;

/// Compare a recorded execution stream against a replayed one.
fn diff_exec(want: &[ExecRec], got: &[ExecRec]) -> Vec<String> {
    const MAX_REPORTED: usize = 8;
    let mut out = Vec::new();
    if want.len() != got.len() {
        out.push(format!(
            "event count: recorded {}, replayed {}",
            want.len(),
            got.len()
        ));
    }
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        if a != b {
            out.push(format!("event {i}: recorded {a:?}, replayed {b:?}"));
            if out.len() >= MAX_REPORTED {
                out.push(format!("... (stopped after {MAX_REPORTED} divergences)"));
                break;
            }
        }
    }
    out
}

impl Engine {
    /// Under `replay`, arm every shard's recording for the next scheduler
    /// invocation and return the engine state it starts from.
    pub(super) fn start_recording(&mut self) -> Option<Snapshot> {
        self.shared.cfg.replay.as_ref()?;
        let start = self.snapshot();
        for s in &mut self.shards {
            s.record = Some(Box::default());
        }
        Some(start)
    }

    /// Replay every shard of the invocation recorded since `start` (it ran
    /// `windows`) alone and push one verdict to the configured
    /// [`crate::ReplayCheck`]. The engine state is put back afterwards, so
    /// the run goes on as if nothing had been replayed.
    pub(super) fn verify_recording(&mut self, start: &Snapshot, windows: Range<u64>) {
        let Some(check) = self.shared.cfg.replay.clone() else {
            return;
        };
        let plans: Vec<ShardRecord> =
            self.shards.iter_mut().map(|s| s.record.take().map(|b| *b).unwrap_or_default()).collect();
        let here = self.snapshot();
        let mut mismatches = Vec::new();
        for (k, plan) in plans.iter().enumerate() {
            for m in diff_exec(&plan.exec, &self.replay_shard(start, plan, k)) {
                mismatches.push(format!("shard {k}, windows {}..{}: {m}", windows.start, windows.end));
            }
        }
        self.restore(&here).expect("replay: restoring current state");
        check.push_run(ReplayRunReport {
            shards: plans.len() as u32,
            rounds: windows.end - windows.start,
            events: plans.iter().map(|s| s.exec.len() as u64).sum(),
            mismatches,
        });
    }

    /// Rewind to `start`, feed shard `k` its recorded cross-shard schedule
    /// window by window, and return the execution stream (time, lane,
    /// thread, label, scratchpad high-water) it replays.
    fn replay_shard(&mut self, start: &Snapshot, plan: &ShardRecord, k: usize) -> Vec<ExecRec> {
        self.restore(start)
            .expect("replay: rewinding to the recording start");
        self.shards[k].record = Some(Box::default());
        for round in &plan.rounds {
            // Observer data is not replayed: a replay compares execution
            // streams, and the observers are rewound afterwards.
            for e in &round.inject {
                self.shards[k].schedule(e.time, e.action.clone(), Tag::default());
            }
            self.shards[k].window(&self.shared, round.horizon, round.budget);
            // Cross-shard sends of an isolated replay go nowhere: the
            // other shards' effects are already represented by the
            // recorded inject schedule.
            for buf in self.shards[k].outbuf.iter_mut() {
                buf.clear();
            }
        }
        self.shards[k].record.take().map(|b| b.exec).unwrap_or_default()
    }
}
