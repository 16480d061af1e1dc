//! Checkpoint/restore and record-replay conformance: the pin for
//! `updown-snapshot/v2` and the replay machinery (see docs/checkpoint.md).
//!
//! The centerpiece property: a run that pauses at checkpoint boundaries —
//! snapshotting, round-tripping the snapshot and continuing — must be
//! **byte-identical** to an uninterrupted run: same application result,
//! same `updown-metrics/v1` JSON, same `udcheck/v1` and `udrace/v1`
//! documents, at every thread count. On top of that:
//!
//! - the on-disk format round-trips exactly (serialize → deserialize →
//!   re-serialize byte equality), and corrupted or truncated snapshots
//!   are clean [`SnapshotError`]s, never panics;
//! - a recorded run replays any single shard in isolation with a lane
//!   event stream (time, lane, thread, label, scratchpad high-water)
//!   identical to the recording — including across checkpoint pauses;
//! - restore is an exact rewind even when the snapshot lands while a
//!   far-future entry sits in the calendar overflow rung and thread
//!   contexts have churned through generations.

use udcheck::apps::case;
use udcheck::{render_document, render_race_document, Analysis, EventFlowGraph, RaceAnalysis};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};
use updown_sim::{
    fnv1a, Engine, EventWord, MachineConfig, NetworkId, ProtocolProbe, RaceProbe, ReplayCheck,
    SnapshotError, VAddr,
};

/// Thread counts the restore-then-continue property is pinned at.
const THREADS: &[u32] = &[1, 2, 4];

/// Checkpoint cadences ("snapshot at a random window"): derived from the
/// run seed so different cells of the matrix pause at different
/// boundaries, while each cell stays reproducible.
fn cadence_for(seed: u64) -> u64 {
    2 + (seed.wrapping_mul(2654435761) % 7)
}

/// One run of `app`'s conformance case with udcheck + udrace probes armed
/// and an optional checkpoint cadence. Returns the full observable
/// fingerprint: `[app result, metrics JSON, udcheck doc, udrace doc]`.
fn run_fingerprint(app: &str, seed: u64, threads: u32, checkpoint_every: u64) -> [String; 4] {
    let probe = ProtocolProbe::new();
    let race = RaceProbe::new();
    let mut m = MachineConfig::small(2, 2, 4);
    m.threads = threads;
    m.probe = Some(probe.clone());
    m.race = Some(race.clone());
    m.checkpoint_every = checkpoint_every;
    let out = case(app, seed, m).run();
    let graph = EventFlowGraph::from_report(&probe.snapshot());
    let check = render_document(&[Analysis::of(app, &probe)]);
    let race_doc = render_race_document(&[RaceAnalysis::of(app, &race, Some(&graph))]);
    [out.fingerprint(), out.metrics().to_json(), check, race_doc]
}

/// The tentpole property, per app: a run that checkpoints at a
/// seed-derived cadence (pausing, snapshotting, round-tripping the
/// snapshot, continuing) is byte-identical to the uninterrupted run — in
/// app result, metrics JSON, udcheck doc, and udrace doc — at 1, 2, and
/// 4 worker threads.
fn assert_checkpoint_transparent(app: &str, seed: u64) {
    let base = run_fingerprint(app, seed, 1, 0);
    let every = cadence_for(seed);
    for &t in THREADS {
        let ck = run_fingerprint(app, seed, t, every);
        for (i, what) in ["result", "metrics", "udcheck", "udrace"].iter().enumerate() {
            assert_eq!(
                base[i], ck[i],
                "{app} seed={seed} threads={t} every={every}: {what} diverged"
            );
        }
    }
}

#[test]
fn pagerank_checkpoint_is_transparent() {
    assert_checkpoint_transparent("pagerank", 10);
}

#[test]
fn bfs_checkpoint_is_transparent() {
    assert_checkpoint_transparent("bfs", 11);
}

#[test]
fn tc_checkpoint_is_transparent() {
    assert_checkpoint_transparent("tc", 12);
}

#[test]
fn ingest_checkpoint_is_transparent() {
    assert_checkpoint_transparent("ingest", 5);
}

#[test]
fn partial_match_checkpoint_is_transparent() {
    assert_checkpoint_transparent("partial_match", 7);
}

/// Replay verification through the public [`ReplayCheck`] surface, over a
/// real application with checkpoint pauses interleaved: every recorded
/// shard must replay byte-identically.
#[test]
fn pagerank_replay_verifies_clean() {
    let check = ReplayCheck::new();
    let mut m = MachineConfig::small(2, 2, 4);
    m.threads = 2;
    m.checkpoint_every = 5;
    m.replay = Some(check.clone());
    case("pagerank", 10, m).run();
    let reports = check.reports();
    assert!(!reports.is_empty(), "replay produced no verdicts");
    for r in &reports {
        assert!(r.events > 0, "vacuous recording: {r:?}");
        assert!(r.ok(), "replay diverged: {:?}", r.mismatches);
    }
    assert!(!check.dirty());
}

/// Regression: handlers keep functional state beside the machine (SHT
/// shadow tables, KVMSR run bookkeeping, app accumulators). When that
/// state lived outside the engine and restore did not rewind it,
/// isolated shard replay re-executed handlers against end-of-run state —
/// at this scale the ingest SHT shadow diverged and replay injected an
/// `sht::op_fin` onto a lane whose thread slot was already retired
/// ("targets dead thread" panic). It is engine-owned shard state now and
/// rewinds with the cores; this pins replay at that formerly-failing
/// scale.
#[test]
fn ingest_replay_survives_host_state_rewind() {
    let check = ReplayCheck::new();
    let ds = datagen::sized(2000, 2.0, 500, 13);
    let mut cfg = IngestConfig::new(1);
    cfg.machine = MachineConfig::small(1, 4, 32).scaled_bandwidth();
    cfg.machine.checkpoint_every = 4;
    cfg.machine.replay = Some(check.clone());
    run_ingest(&ds, &cfg);
    let reports = check.reports();
    assert!(!reports.is_empty(), "replay produced no verdicts");
    for r in &reports {
        assert!(r.events > 0, "vacuous recording: {r:?}");
        assert!(r.ok(), "replay diverged: {:?}", r.mismatches);
    }
    assert!(!check.dirty());
}

// ---------------------------------------------------------------------
// Engine-level fixture: a seeded ping-pong workload with cross-shard
// messages, DRAM reads/writes, scratchpad writes, multi-event threads
// (`u64` state, built-in codec), thread-context churn, and an optional
// far-future timer that parks in the calendar overflow rung — everything
// a snapshot has to carry.
// ---------------------------------------------------------------------

fn lane(eng: &Engine, node: u32, idx: u32) -> NetworkId {
    NetworkId(node * eng.config().lanes_per_node() + idx)
}

/// Build the fixture engine. Kick it with `eng.send(start, [hops], IGNORE)`.
/// Each hop runs a two-event thread ("fix::hop" issues a DRAM read,
/// "fix::ret" consumes it on the same thread), bumps its persistent `u64`
/// state, writes scratchpad, writes to DRAM, and bounces a fresh thread
/// onto the opposite node. When `far_delay > 0`, hops whose count is
/// divisible by 97 also arm a timer that fires `far_delay` cycles later
/// ([`RUNG_DELAY`] is beyond the widest calendar ring, so those park in
/// the overflow rung).
fn fixture(mut m: MachineConfig, far_delay: u64) -> (Engine, VAddr, EventWord) {
    m.max_threads_per_lane = 4;
    let mut eng = Engine::new(m);
    let cell = eng.mem_mut().alloc(64, 0, 1, 4096).unwrap();
    let far = udweave::simple_event(&mut eng, "fix::far", move |ctx| {
        ctx.send_dram_write(cell, &[0xFA5], None);
        ctx.yield_terminate();
    });
    // "fix::ret" bounces to "fix::hop", whose label doesn't exist yet at
    // registration time: bind it through a program table.
    let hop_slot = eng.table(None::<EventLabel>);
    let ret = udweave::event::<u64>(&mut eng, "fix::ret", move |ctx, st| {
        let remaining = *st;
        let loaded = ctx.arg(0);
        ctx.spm_write(0, loaded.wrapping_add(remaining));
        ctx.send_dram_write(cell, &[loaded.wrapping_add(remaining)], None);
        if remaining > 0 {
            // Bounce to the opposite node; the destination lane cycles
            // with the hop count so thread slots churn through
            // generations.
            let lanes = ctx.config().lanes_per_node();
            let other_node = u32::from(ctx.nwid().0 < lanes) ^ 1;
            let dst = NetworkId(other_node * lanes + (remaining % lanes as u64) as u32);
            let hop = ctx.table(hop_slot).expect("bound below");
            ctx.send_event(EventWord::new(dst, hop), [remaining - 1], EventWord::IGNORE);
        }
        ctx.yield_terminate();
    });
    let hop = {
        let mut tt = udweave::ThreadType::<u64>::new("fix");
        tt.event(&mut eng, "hop", move |ctx, st| {
            let remaining = ctx.arg(0);
            *st = remaining;
            if far_delay > 0 && remaining > 0 && remaining % 97 == 0 {
                ctx.send_event_after(
                    far_delay,
                    EventWord::new(ctx.nwid(), far),
                    [0u64],
                    EventWord::IGNORE,
                );
            }
            ctx.spm_write(1, remaining);
            ctx.send_dram_read(cell, 1, ret);
            // No terminate: the thread stays live until "fix::ret".
        })
    };
    *eng.table_mut(hop_slot) = Some(hop);
    let start = EventWord::new(lane(&eng, 0, 0), hop);
    (eng, cell, start)
}

use updown_sim::EventLabel;

/// A timer delay no calendar ring can hold: the ring stops growing at
/// `MAX_RING_BUCKETS` ticks, entries further out take the overflow rung.
const RUNG_DELAY: u64 = updown_sim::calendar::MAX_RING_BUCKETS as u64 + 4_464;

fn fixture_machine(threads: u32) -> MachineConfig {
    let mut m = MachineConfig::small(2, 1, 4);
    m.threads = threads;
    m
}

/// Serialize → deserialize (into a fresh engine with the same handler
/// registrations) → re-serialize must be byte-identical, and both engines
/// must run to byte-identical completions afterwards.
#[test]
fn snapshot_disk_roundtrip_is_byte_identical() {
    let (mut eng, cell, start) = fixture(fixture_machine(1), 0);
    eng.send(start, [400u64], EventWord::IGNORE);
    eng.set_event_limit(300);
    eng.run();
    let bytes = eng.snapshot_bytes().expect("serialize mid-run");

    let (mut eng2, _, _) = fixture(fixture_machine(1), 0);
    eng2.restore_snapshot_bytes(&bytes).expect("deserialize");
    let bytes2 = eng2.snapshot_bytes().expect("re-serialize");
    assert_eq!(bytes, bytes2, "serialize→deserialize→re-serialize drifted");

    eng.set_event_limit(u64::MAX);
    eng2.set_event_limit(u64::MAX);
    let a = eng.run().to_json();
    let b = eng2.run().to_json();
    assert_eq!(a, b, "restored engine diverged from the original");
    assert_eq!(
        eng.mem().read_u64(cell).unwrap(),
        eng2.mem().read_u64(cell).unwrap()
    );
}

/// The file framing round-trips through disk, and `read_header` sees the
/// machine shape without decoding the body.
#[test]
fn snapshot_file_roundtrip_and_header() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("fixture.snap");

    let (mut eng, _, start) = fixture(fixture_machine(1), 0);
    eng.send(start, [300u64], EventWord::IGNORE);
    eng.set_event_limit(200);
    eng.run();
    eng.write_snapshot(&path).expect("write snapshot");

    let h = updown_sim::snapshot::read_header(&path).expect("read header");
    assert_eq!((h.nodes, h.accels_per_node, h.lanes_per_accel), (2, 1, 4));
    assert!(h.events > 0);

    let (mut eng2, _, _) = fixture(fixture_machine(1), 0);
    eng2.read_snapshot(&path).expect("read snapshot");
    assert_eq!(eng2.snapshot_bytes().unwrap(), std::fs::read(&path).unwrap());
}

/// Corrupted and truncated snapshots must surface as clean
/// [`SnapshotError`]s — never panics — and a failed restore must leave
/// the engine untouched (all-or-nothing).
#[test]
fn corrupt_and_truncated_snapshots_error_cleanly() {
    let (mut eng, _, start) = fixture(fixture_machine(1), 0);
    eng.send(start, [300u64], EventWord::IGNORE);
    eng.set_event_limit(200);
    eng.run();
    let good = eng.snapshot_bytes().unwrap();

    let (mut victim, cell_v, _) = fixture(fixture_machine(1), 0);

    // Truncations at every structural boundary: inside the magic, the
    // header, the body, and the trailing checksum.
    for cut in [0, 4, 12, good.len() / 2, good.len() - 3] {
        let err = victim
            .restore_snapshot_bytes(&good[..cut])
            .expect_err("truncated snapshot must fail");
        assert!(
            matches!(err, SnapshotError::Format(_)),
            "cut at {cut}: unexpected error {err}"
        );
    }
    // A flipped body byte must fail the checksum.
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 9] ^= 0x40;
    let err = victim
        .restore_snapshot_bytes(&bad)
        .expect_err("corrupt body must fail");
    assert!(matches!(err, SnapshotError::Format(_)), "got {err}");
    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(victim.restore_snapshot_bytes(&bad).is_err());
    // A snapshot of a different machine shape is Incompatible.
    let mut wide = MachineConfig::small(4, 1, 4);
    wide.threads = 1;
    let (mut bigger, _, _) = fixture(wide, 0);
    let err = bigger
        .restore_snapshot_bytes(&good)
        .expect_err("wrong machine shape must fail");
    assert!(matches!(err, SnapshotError::Incompatible(_)), "got {err}");

    // The victim is untouched by all the failures: a good restore still
    // works and runs to the same completion as the original.
    victim.restore_snapshot_bytes(&good).expect("good restore");
    victim.set_event_limit(u64::MAX);
    eng.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), victim.run().to_json());
    let _ = cell_v;
}

/// Split a snapshot file into `(header JSON, body)`.
fn unframe(file: &[u8]) -> (String, Vec<u8>) {
    let hlen = u32::from_le_bytes(file[9..13].try_into().unwrap()) as usize;
    let header = String::from_utf8(file[13..13 + hlen].to_vec()).unwrap();
    let at = 13 + hlen;
    let blen = u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    (header, file[at + 8..at + 8 + blen].to_vec())
}

/// Frame a (patched) header and body the way the writer does, checksum
/// recomputed, so only the decoder's own checks stand between the patch
/// and the engine.
fn reframe(header: &str, body: &[u8]) -> Vec<u8> {
    let mut out = b"UDSNAPv1\n".to_vec();
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}

/// The decoder does not trust the ids a snapshot carries. Pending work is
/// held in id-linked lists, so a duplicated id would close a cycle (a
/// hang) and an id without a payload would reach an `expect` on resume;
/// each is a clean `Format` error instead, and a `v1` file is refused as
/// `Incompatible`. Bodies are patched by hand with the checksum recomputed.
#[test]
fn snapshots_with_untrustworthy_ids_or_the_old_schema_are_refused() {
    const NIL: [u8; 4] = [0xFF; 4];
    let id = |i: u32| i.to_le_bytes();
    // One node of four lanes: ids 0..4 are the lanes, slab slots follow.
    // Three host messages take slots 4, 5, 6 in lane 0's inbox; after one
    // event slot 4 is vacant (on the freelist), the lane's next run entry
    // (id 0) is the only calendar entry, and the inbox holds [5, 6].
    let build = || {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 4));
        let sink = udweave::simple_event(&mut eng, "sink", |ctx| ctx.yield_terminate());
        for i in 0..3u64 {
            eng.send(EventWord::new(NetworkId(0), sink), [i], EventWord::IGNORE);
        }
        eng
    };
    let mut eng = build();
    eng.set_event_limit(1);
    eng.run();
    let good = eng.snapshot_bytes().unwrap();
    let (header, body) = unframe(&good);
    assert_eq!(reframe(&header, &body), good, "the test frames files as the writer does");

    // The id-carrying stretch of shard 0: calendar (base 0, two pushes so
    // far, one pending, initial width; empty fast lane; one bucket, the
    // lane's run entry; no rung), freelist [4], lane count, then lane 0's
    // inbox [5, 6] and empty parked list.
    let dist = body.windows(28).position(|w| {
        w[..8] == [0; 8] && w[8..16] == 2u64.to_le_bytes() && w[16..24] == 1u64.to_le_bytes()
            && w[24..28] == (updown_sim::calendar::MIN_RING_BUCKETS as u32).to_le_bytes()
    });
    let cal = dist.expect("calendar section of shard 0");
    let tail: Vec<u8> = [
        &NIL[..], // fast lane
        &body[cal + 32..cal + 36], &id(0), &NIL, // bucket: distance, run entry of lane 0
        &NIL, // end of buckets
        &0u64.to_le_bytes(), // rung
        &id(4), &NIL, // freelist
        &4u64.to_le_bytes(), // lanes
        &id(5), &id(6), &NIL, // lane 0 inbox
        &NIL, // lane 0 parked
    ]
    .concat();
    assert_eq!(body[cal + 28..cal + 28 + tail.len()], tail[..], "snapshot layout moved");
    let (bucket_id, free_id, inbox1) = (cal + 36, cal + 56, cal + 76);
    // Lane 0's `scheduled` flag follows its lists and `free_at`.
    let sched = cal + 28 + tail.len() + 8;
    assert_eq!(body[sched], 1, "snapshot layout moved");

    let refused = |body: &[u8]| {
        let mut victim = build();
        let before = victim.snapshot_bytes().unwrap();
        let err = victim
            .restore_snapshot_bytes(&reframe(&header, body))
            .expect_err("patched snapshot must be refused");
        assert_eq!(victim.snapshot_bytes().unwrap(), before, "a refused restore must not touch the engine");
        match err {
            SnapshotError::Format(m) => m,
            e => panic!("expected a Format error, got {e}"),
        }
    };
    let patched = |at: usize, to: u32| {
        let mut b = body.clone();
        b[at..at + 4].copy_from_slice(&id(to));
        b
    };
    let without = |at: usize| {
        let mut b = body.clone();
        b.drain(at..at + 4);
        b
    };
    // Duplicate ids: within one list (a cycle), and across lists — the
    // inbox against the freelist, the inbox against the calendar.
    assert!(refused(&patched(inbox1, 5)).contains("appears twice"));
    assert!(refused(&patched(inbox1, 4)).contains("appears twice"));
    assert!(refused(&patched(inbox1, 0)).contains("appears twice"));
    // Out of range.
    assert!(refused(&patched(inbox1, 7)).contains("out of range"));
    assert!(refused(&patched(bucket_id, u32::MAX - 1)).contains("out of range"));
    // Dangling ids: the vacant slot 4 queued on the lane (with live slot 6
    // on the freelist in its place), and pending in the calendar behind
    // the lane's run entry (moved there from the freelist).
    let mut swapped = patched(inbox1, 4);
    swapped[free_id..free_id + 4].copy_from_slice(&id(6));
    assert!(refused(&swapped).contains("not a slot holding a message"));
    let mut dangling = without(free_id);
    dangling.splice(bucket_id + 4..bucket_id + 4, id(4));
    dangling[cal + 16..cal + 24].copy_from_slice(&2u64.to_le_bytes());
    assert!(refused(&dangling).contains("vacant slab slot"));
    // A freelist entry that is taken, or is live.
    assert!(refused(&patched(free_id, 6)).contains("appears twice"));
    let mut live_free = without(inbox1);
    live_free[free_id..free_id + 4].copy_from_slice(&id(6));
    live_free.splice(bucket_id + 4..bucket_id + 4, id(4));
    live_free[cal + 16..cal + 24].copy_from_slice(&2u64.to_le_bytes());
    assert!(refused(&live_free).contains("not a vacant slot"));
    // A lane id where a slot id belongs.
    assert!(refused(&patched(inbox1, 1)).contains("not a slot holding a message"));
    // A lane's flag and its run entry must agree, both ways, and an
    // unscheduled lane has no inbox: lane 0's entry renamed to lane 1's
    // (its inbox would never be run), its flag cleared, and both.
    let mut unmarked = body.clone();
    unmarked[sched] = 0;
    let mut stranded = patched(bucket_id, 1);
    stranded[sched] = 0;
    assert!(refused(&patched(bucket_id, 1)).contains("lane 0 is marked scheduled but has no run entry"));
    assert!(refused(&unmarked).contains("lane 0 has a run entry pending but is not marked"));
    assert!(refused(&stranded).contains("lane 0 has an inbox but no run entry"));
    // Leaked slots: live slot 6 in no list; vacant slot 4 in no list.
    assert!(refused(&without(inbox1)).contains("slab slot 2 is reached by no list"));
    assert!(refused(&without(free_id)).contains("slab slot 0 is reached by no list"));

    // The previous schema is refused by name, not reinterpreted.
    let v1 = header.replace("updown-snapshot/v2", "updown-snapshot/v1");
    assert_ne!(v1, header);
    match build().restore_snapshot_bytes(&reframe(&v1, &body)) {
        Err(SnapshotError::Incompatible(m)) => {
            assert!(m.contains("updown-snapshot/v1") && m.contains("updown-snapshot/v2"), "{m}")
        }
        other => panic!("a v1 file must be Incompatible, got {other:?}"),
    }

    // The unpatched file still restores and runs to the original's end.
    let mut twin = build();
    twin.restore_snapshot_bytes(&good).expect("good restore");
    eng.set_event_limit(u64::MAX);
    twin.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), twin.run().to_json());
}

/// Golden-fixture replay: a recorded seeded run replays every shard in
/// isolation — each must reproduce its recorded lane event stream
/// exactly, and the recording must not be vacuous.
#[test]
fn recorded_fixture_replays_byte_identically() {
    for threads in [1u32, 2] {
        let check = ReplayCheck::new();
        let mut m = fixture_machine(threads);
        m.replay = Some(check.clone());
        let (mut eng, _, start) = fixture(m, 0);
        eng.send(start, [300u64], EventWord::IGNORE);
        eng.run();
        let reports = check.reports();
        assert_eq!(reports.len(), 1, "one run, one recording");
        let r = &reports[0];
        assert!(r.events > 100, "vacuous recording: {}", r.events);
        assert_eq!(r.shards, 2);
        assert!(r.ok(), "threads={threads} diverged: {:?}", r.mismatches);
    }
}

/// Recording across checkpoint pauses: each pause ends one recording and
/// the next starts from the calendars the pause drain filled, so every
/// segment replays clean and together they cover the whole run — every
/// window once, and every lane event an unpaused recording holds.
#[test]
fn replay_spans_checkpoint_pauses() {
    let record = |checkpoint_every: u64| {
        let check = ReplayCheck::new();
        let mut m = fixture_machine(2);
        m.replay = Some(check.clone());
        m.checkpoint_every = checkpoint_every;
        let (mut eng, _, start) = fixture(m, 0);
        eng.send(start, [300u64], EventWord::IGNORE);
        let windows = eng.run().stats.windows;
        (check.reports(), windows)
    };
    let (whole, windows) = record(0);
    let (segments, paused_windows) = record(3);
    assert_eq!(windows, paused_windows);
    assert!(segments.len() > 2, "the run never paused: {segments:?}");
    for (i, r) in segments.iter().enumerate() {
        assert!(r.ok(), "segment {i}: {:?}", r.mismatches);
        assert!(r.rounds == 3 || i == segments.len() - 1, "segment {i}: {r:?}");
    }
    assert_eq!(segments.iter().map(|r| r.rounds).sum::<u64>(), windows);
    assert_eq!(segments.iter().map(|r| r.events).sum::<u64>(), whole[0].events);
}

/// Replay can fail. A shard-1 handler branches on a program-table counter
/// that a shard-0 handler bumps during the run — state outside every
/// shard, which no rewind restores. Live, shard 1 reads one bump; replayed
/// alone after shard 0's replay bumped again, it reads two and takes the
/// other branch. The verdict names shard 1 and the recording's windows.
#[test]
fn replay_reports_a_shard_that_reads_another_shards_writes() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;
    let check = ReplayCheck::new();
    let mut m = fixture_machine(1);
    m.replay = Some(check.clone());
    let mut eng = Engine::new(m);
    let bumps = eng.table(Arc::new(AtomicU64::new(0)));
    let extra = udweave::simple_event(&mut eng, "leak::extra", |ctx| ctx.yield_terminate());
    let read = udweave::simple_event(&mut eng, "leak::read", move |ctx| {
        if ctx.table(bumps).load(Relaxed) != 1 {
            ctx.send_event(EventWord::new(ctx.nwid(), extra), [0u64; 0], EventWord::IGNORE);
        }
        ctx.yield_terminate();
    });
    let shard1 = lane(&eng, 1, 0);
    let bump = udweave::simple_event(&mut eng, "leak::bump", move |ctx| {
        ctx.table(bumps).fetch_add(1, Relaxed);
        ctx.send_event(EventWord::new(shard1, read), [0u64; 0], EventWord::IGNORE);
        ctx.yield_terminate();
    });
    eng.send(EventWord::new(lane(&eng, 0, 0), bump), [0u64; 0], EventWord::IGNORE);
    let windows = eng.run().stats.windows;
    let reports = check.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].mismatches,
        [format!("shard 1, windows 0..{windows}: event count: recorded 1, replayed 2")],
    );
    assert!(check.dirty());
}

/// Regression (satellite 4): a snapshot taken while a far-future entry
/// sits in the calendar overflow rung — and after heavy thread-slot
/// generation churn — must rewind exactly: continuing from the restore
/// must be byte-identical to the first continuation, including the
/// far-future timer firing at the same tick.
#[test]
fn restore_survives_overflow_rung_and_generation_churn() {
    // Timers park in the overflow rung and rebase the ring when the
    // window reaches them.
    let (mut eng, cell, start) = fixture(fixture_machine(1), RUNG_DELAY);
    eng.send(start, [400u64], EventWord::IGNORE);
    // Stop mid-run: 400 bounces with 4 contexts per lane is plenty of
    // generation churn, and hop 388/291/194/97 armed far timers that are
    // still pending.
    eng.set_event_limit(350);
    let paused = eng.run();
    assert!(paused.host_calendar.rung_pushes > 0, "no timer took the rung");
    let snap = eng.snapshot();
    assert!(snap.window() > 0, "snapshot must land mid-run");

    eng.set_event_limit(u64::MAX);
    let a = eng.run().to_json();
    let a_cell = eng.mem().read_u64(cell).unwrap();

    eng.restore(&snap).expect("rewind");
    eng.set_event_limit(u64::MAX);
    let b = eng.run().to_json();
    let b_cell = eng.mem().read_u64(cell).unwrap();

    assert_eq!(a, b, "rewound continuation diverged");
    assert_eq!(a_cell, b_cell);
}

/// The same rewind through the on-disk codec: mid-overflow state encodes,
/// decodes into a fresh engine, and both continuations are identical.
#[test]
fn disk_restore_survives_overflow_rung() {
    let (mut eng, _, start) = fixture(fixture_machine(1), RUNG_DELAY);
    eng.send(start, [400u64], EventWord::IGNORE);
    eng.set_event_limit(350);
    let paused = eng.run();
    assert!(paused.host_calendar.rung_pushes > 0, "no timer took the rung");
    let bytes = eng.snapshot_bytes().expect("encode mid-overflow");

    let (mut eng2, _, _) = fixture(fixture_machine(1), RUNG_DELAY);
    eng2.restore_snapshot_bytes(&bytes).expect("decode");
    assert_eq!(bytes, eng2.snapshot_bytes().unwrap());

    eng.set_event_limit(u64::MAX);
    eng2.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), eng2.run().to_json());
}
