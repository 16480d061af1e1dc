//! Deterministic record-replay: a [`Recording`] of one run and the
//! single-shard replay that checks it.

use super::codec::Snapshot;
use super::core::{ExecRec, ShardRecord};
use super::Engine;
use crate::snapshot::ReplayRunReport;

/// One recorded run for deterministic record-replay: a full in-memory
/// snapshot of the engine at run start, plus every shard's per-window
/// cross-shard message schedule and execution stream. Produced when
/// [`crate::MachineConfig::replay`] is set; consumed by
/// [`Engine::replay_shard`] / [`Engine::finish_replay`].
pub struct Recording {
    pub(super) start: Box<Snapshot>,
    pub(super) shards: Vec<ShardRecord>,
    pub(super) rounds: u64,
}

impl Recording {
    /// Conservative windows executed by the recorded run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Lane events executed, summed over shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.exec.len() as u64).sum()
    }

    /// Number of shards in the recording.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }
}

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
    /// Replay one shard of `rec` in isolation: rewind to the recording's
    /// start, feed the shard its recorded cross-shard schedule window by
    /// window, and compare the replayed execution stream (time, lane,
    /// thread, label, scratchpad high-water) against the recording.
    /// Returns divergence descriptions (empty on a faithful replay); the
    /// engine state is restored afterwards either way.
    pub fn replay_shard(&mut self, rec: &Recording, shard: u32) -> Vec<String> {
        let k = shard as usize;
        assert!(k < self.shards.len(), "replay_shard: no shard {shard}");
        assert_eq!(
            rec.shards.len(),
            self.shards.len(),
            "recording shard count mismatch"
        );
        let here = self.snapshot();
        self.restore(&rec.start)
            .expect("replay: rewinding to the recording start");
        self.shards[k].record = Some(Box::new(ShardRecord {
            open: true,
            ..ShardRecord::default()
        }));
        let plan = &rec.shards[k];
        for round in &plan.rounds {
            for e in &round.inject {
                self.shards[k].schedule(e.time, e.action.clone());
            }
            self.shards[k].window(&self.shared, round.horizon, round.budget);
            // Cross-shard sends of an isolated replay go nowhere: the
            // other shards' effects are already represented by the
            // recorded inject schedule.
            for buf in self.shards[k].outbuf.iter_mut() {
                buf.clear();
            }
        }
        let got = self.shards[k]
            .record
            .take()
            .map(|b| b.exec)
            .unwrap_or_default();
        self.restore(&here).expect("replay: restoring current state");
        diff_exec(&plan.exec, &got)
    }

    /// Verify every recording accumulated so far by replaying each shard
    /// in isolation, pushing one [`ReplayRunReport`] per recorded run into
    /// the configured [`crate::ReplayCheck`]. Call once per app run *after*
    /// results are extracted — replay re-executes handlers, so it must not
    /// interleave with live phases. No-op without `MachineConfig::replay`.
    pub fn finish_replay(&mut self, label: &str) {
        let Some(check) = self.shared.cfg.replay.clone() else {
            return;
        };
        let recs = std::mem::take(&mut self.recordings);
        for (i, rec) in recs.iter().enumerate() {
            let mut mismatches = Vec::new();
            for k in 0..rec.shards.len() as u32 {
                for m in self.replay_shard(rec, k) {
                    mismatches.push(format!("shard {k}: {m}"));
                }
            }
            let run_label = if recs.len() == 1 {
                label.to_string()
            } else {
                format!("{label}#{i}")
            };
            check.push_run(ReplayRunReport {
                label: run_label,
                shards: rec.shards.len() as u32,
                rounds: rec.rounds,
                events: rec.events(),
                mismatches,
            });
        }
    }

    /// Hand over the recordings accumulated by `replay` runs
    /// (for direct [`Engine::replay_shard`] use in tests and tools).
    pub fn take_recordings(&mut self) -> Vec<Recording> {
        std::mem::take(&mut self.recordings)
    }
}
