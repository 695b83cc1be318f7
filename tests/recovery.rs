//! Durability acceptance tests: checkpoint round-trips for every summary
//! type, corruption rejection, and a crash-consistency fuzz over the
//! sharded serving layer.
//!
//! Three contracts are pinned here:
//!
//! 1. **Bit-identity** — restoring a checkpoint yields a summary whose
//!    state re-encodes to the exact frame it came from, and that stays
//!    byte-for-byte in lockstep with the never-crashed original as both
//!    keep ingesting.
//! 2. **Corruption safety** — every truncation and every single-bit flip
//!    of a frame is rejected with `StreamhistError::CorruptCheckpoint`;
//!    nothing panics, nothing decodes to garbage.
//! 3. **Conservation** — across random crashes and respawns, every
//!    accepted record is either in the final summary or accounted for in
//!    a `RecoveryReport::lost_since_checkpoint`; nothing silently
//!    vanishes.
//!
//! On failure, the offending frame is written to
//! `target/recovery-artifacts/` so CI can upload it for offline replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use streamhist::freq::FrequencyVector;
use streamhist::obs::{EventKind, FlightRecorder};
use streamhist::{
    approx_histogram, AgglomerativeHistogram, Checkpoint, CheckpointStore, DurabilityOptions,
    DynamicWavelet, FailingStore, FixedWindowHistogram, FleetHandle, GkSummary, Histogram,
    KernelStats, MemStore, MergeableSummary, MrlSummary, ObjectKind, ShardState,
    ShardedFixedWindow, SlidingWindowWavelet, SnapshotPolicy, StoreError, StreamSummary,
    StreamhistError, StreamingEquiDepth, Supervisor, SupervisorEvent, SupervisorOptions,
    TimeWindowHistogram, WalSegment,
};

/// Directory failing frames are dumped to (uploaded by CI on failure).
fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("recovery-artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

fn dump_artifact(name: &str, bytes: &[u8]) -> PathBuf {
    let path = artifact_dir().join(format!("{name}.bin"));
    std::fs::write(&path, bytes).expect("write artifact");
    path
}

/// Round-trips `live` through its checkpoint frame and pins bit-identity:
/// the restored summary re-encodes to the same bytes, and after both
/// instances ingest the same continuation they still encode identically.
fn check_golden<T: Checkpoint>(name: &str, mut live: T, push_more: impl Fn(&mut T)) {
    let frame = live.encode_checkpoint();
    let mut restored = match T::restore(&frame) {
        Ok(r) => r,
        Err(e) => {
            let p = dump_artifact(name, &frame);
            panic!(
                "{name}: rejected its own frame ({e}); frame saved to {}",
                p.display()
            );
        }
    };
    let reencoded = restored.encode_checkpoint();
    if reencoded != frame {
        let p = dump_artifact(&format!("{name}-original"), &frame);
        let q = dump_artifact(&format!("{name}-reencoded"), &reencoded);
        panic!(
            "{name}: restored state re-encodes differently; frames saved to {} and {}",
            p.display(),
            q.display()
        );
    }
    push_more(&mut live);
    push_more(&mut restored);
    let a = live.encode_checkpoint();
    let b = restored.encode_checkpoint();
    if a != b {
        let p = dump_artifact(&format!("{name}-live"), &a);
        let q = dump_artifact(&format!("{name}-restored"), &b);
        panic!(
            "{name}: diverged from the never-crashed original after restore; \
             frames saved to {} and {}",
            p.display(),
            q.display()
        );
    }
}

/// Every truncation and every single-bit flip of `frame` must be rejected
/// with `CorruptCheckpoint` — never a panic, never a silent success.
/// (Checkpoint frames carry a CRC-32, which detects all single-bit errors.)
fn check_rejection<T: Checkpoint>(name: &str, frame: &[u8]) {
    for cut in 0..frame.len() {
        match T::restore(&frame[..cut]) {
            Err(StreamhistError::CorruptCheckpoint { .. }) => {}
            Err(other) => panic!("{name}: truncation to {cut} bytes gave wrong error: {other}"),
            Ok(_) => {
                let p = dump_artifact(&format!("{name}-truncated-{cut}"), &frame[..cut]);
                panic!(
                    "{name}: truncation to {cut} bytes accepted; saved to {}",
                    p.display()
                );
            }
        }
    }
    for bit in 0..frame.len() * 8 {
        let mut flipped = frame.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match T::restore(&flipped) {
            Err(StreamhistError::CorruptCheckpoint { .. }) => {}
            Err(other) => panic!("{name}: bit flip {bit} gave wrong error: {other}"),
            Ok(_) => {
                let p = dump_artifact(&format!("{name}-bitflip-{bit}"), &flipped);
                panic!(
                    "{name}: bit flip {bit} accepted; frame saved to {}",
                    p.display()
                );
            }
        }
    }
}

fn ramp(n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(|i| ((i * 7 + 3) % 23) as f64)
}

#[test]
fn fixed_window_round_trips_bit_identically() {
    let mut fw = FixedWindowHistogram::new(64, 4, 0.1);
    ramp(150).for_each(|v| fw.push(v));
    // Materialize once so the cached-generation path is exercised too.
    let live_hist = fw.histogram();
    let restored = FixedWindowHistogram::restore(&fw.encode_checkpoint()).expect("own frame");
    assert_eq!(*restored.histogram(), *live_hist, "histogram bit-identical");
    check_golden("fixed_window", fw, |fw| ramp(40).for_each(|v| fw.push(v)));
}

#[test]
fn agglomerative_round_trips_bit_identically() {
    let mut agg = AgglomerativeHistogram::new(4, 0.1);
    ramp(200).for_each(|v| agg.push(v));
    let live_hist = agg.histogram();
    let restored = AgglomerativeHistogram::restore(&agg.encode_checkpoint()).expect("own frame");
    assert_eq!(*restored.histogram(), *live_hist, "histogram bit-identical");
    check_golden("agglomerative", agg, |agg| {
        ramp(40).for_each(|v| agg.push(v))
    });
}

#[test]
fn time_window_round_trips_bit_identically() {
    let mut tw = TimeWindowHistogram::new(100, 4, 0.1);
    for (i, v) in ramp(150).enumerate() {
        tw.push_at(2 * i as u64, v); // old points age out along the way
    }
    let live_hist = tw.histogram();
    let restored = TimeWindowHistogram::restore(&tw.encode_checkpoint()).expect("own frame");
    assert_eq!(*restored.histogram(), *live_hist, "histogram bit-identical");
    check_golden("time_window", tw, |tw| {
        for (i, v) in ramp(40).enumerate() {
            tw.push_at(300 + 2 * i as u64, v);
        }
    });
}

#[test]
fn quantile_summaries_round_trip_bit_identically() {
    let mut gk = GkSummary::new(0.01);
    ramp(500).for_each(|v| gk.push(v));
    check_golden("gk", gk, |gk| ramp(60).for_each(|v| gk.push(v)));

    let mut mrl = MrlSummary::new(32);
    ramp(500).for_each(|v| mrl.push(v));
    check_golden("mrl", mrl, |mrl| ramp(60).for_each(|v| mrl.push(v)));

    let mut ed = StreamingEquiDepth::new(0.05, 8);
    ramp(500).for_each(|v| StreamSummary::push(&mut ed, v));
    check_golden("equi_depth", ed, |ed| {
        ramp(60).for_each(|v| StreamSummary::push(ed, v));
    });
}

#[test]
fn frequency_vector_round_trips_bit_identically() {
    let mut fv = FrequencyVector::new(-50, 50);
    for i in 0..400i64 {
        fv.push((i * 13 + 7) % 90 - 45); // some values fall out of range
    }
    fv.push(999); // pin out_of_range preservation
    check_golden("frequency_vector", fv, |fv| {
        for i in 0..60i64 {
            fv.push((i * 11) % 70 - 35);
        }
    });
}

#[test]
fn histogram_round_trips_bit_identically() {
    // The standalone Histogram frame (tag 10) exists so *merged* global
    // snapshots can be checkpointed — a gathered histogram has no backing
    // summary to re-derive it from. A Histogram has no push; the lockstep
    // continuation is a merge, which is the mutation it exists for.
    let data: Vec<f64> = ramp(200).collect();
    let hist = approx_histogram(&data, 6, 0.1);
    let other: Vec<f64> = ramp(90).map(|v| v * 2.0).collect();
    let tail = approx_histogram(&other, 6, 0.1);
    check_golden("histogram", hist, |h| {
        h.merge_from(&tail)
            .expect("self-merge of a valid histogram");
    });
}

#[test]
fn global_snapshot_checkpoints_and_restores_losslessly() {
    // Satellite of the scatter/gather work: the fleet-global merged
    // histogram survives a checkpoint round-trip even though no single
    // shard holds it.
    let fleet = ShardedFixedWindow::builder(3, 32, 4, 0.1)
        .build()
        .expect("valid parameters");
    let data: Vec<f64> = ramp(300).collect();
    fleet.push_batch_scatter(&data).expect("lossless push");
    let (global, _) = fleet.snapshot_global().expect("fleet healthy");
    let frame = global.encode_checkpoint();
    let restored = Histogram::restore(&frame).expect("own frame");
    assert_eq!(
        restored, *global,
        "merged snapshot restores bit-identically"
    );
    for r in fleet.join() {
        r.expect("worker alive");
    }
}

#[test]
fn wavelets_round_trip_bit_identically() {
    let mut dw = DynamicWavelet::new(64);
    ramp(40).for_each(|v| dw.push(v));
    dw.set(5, 17.0);
    dw.add(10, -3.5);
    check_golden("dynamic_wavelet", dw, |dw| {
        dw.add(3, 2.25);
        dw.set(20, -1.0);
    });

    let mut sw = SlidingWindowWavelet::new(64, 8);
    ramp(150).for_each(|v| sw.push(v));
    check_golden("sliding_wavelet", sw, |sw| {
        ramp(40).for_each(|v| sw.push(v))
    });
}

#[test]
fn every_truncation_and_bit_flip_is_rejected_cleanly() {
    // Smaller payloads than the golden tests: the sweep is quadratic-ish
    // (frame length x restores), and the CRC argument is length-independent.
    let mut fw = FixedWindowHistogram::new(16, 3, 0.2);
    ramp(30).for_each(|v| fw.push(v));
    check_rejection::<FixedWindowHistogram>("fixed_window", &fw.encode_checkpoint());

    let mut agg = AgglomerativeHistogram::new(3, 0.2);
    ramp(40).for_each(|v| agg.push(v));
    check_rejection::<AgglomerativeHistogram>("agglomerative", &agg.encode_checkpoint());

    let mut tw = TimeWindowHistogram::new(40, 3, 0.2);
    for (i, v) in ramp(30).enumerate() {
        tw.push_at(2 * i as u64, v);
    }
    check_rejection::<TimeWindowHistogram>("time_window", &tw.encode_checkpoint());

    let mut gk = GkSummary::new(0.05);
    ramp(60).for_each(|v| gk.push(v));
    check_rejection::<GkSummary>("gk", &gk.encode_checkpoint());

    let mut mrl = MrlSummary::new(8);
    ramp(60).for_each(|v| mrl.push(v));
    check_rejection::<MrlSummary>("mrl", &mrl.encode_checkpoint());

    let mut ed = StreamingEquiDepth::new(0.1, 4);
    ramp(60).for_each(|v| StreamSummary::push(&mut ed, v));
    check_rejection::<StreamingEquiDepth>("equi_depth", &ed.encode_checkpoint());

    let mut fv = FrequencyVector::new(-10, 10);
    for i in 0..40i64 {
        fv.push(i % 25 - 12);
    }
    check_rejection::<FrequencyVector>("frequency_vector", &fv.encode_checkpoint());

    let mut dw = DynamicWavelet::new(16);
    ramp(12).for_each(|v| dw.push(v));
    check_rejection::<DynamicWavelet>("dynamic_wavelet", &dw.encode_checkpoint());

    let data: Vec<f64> = ramp(40).collect();
    let hist = approx_histogram(&data, 3, 0.2);
    check_rejection::<Histogram>("histogram", &hist.encode_checkpoint());

    let mut sw = SlidingWindowWavelet::new(16, 4);
    ramp(30).for_each(|v| sw.push(v));
    check_rejection::<SlidingWindowWavelet>("sliding_wavelet", &sw.encode_checkpoint());
}

#[test]
fn frames_are_not_interchangeable_between_types() {
    // The tag byte prevents a frame from one summary type restoring as
    // another, even though both frames carry valid CRCs.
    let mut gk = GkSummary::new(0.05);
    ramp(60).for_each(|v| gk.push(v));
    let frame = gk.encode_checkpoint();
    assert!(matches!(
        MrlSummary::restore(&frame),
        Err(StreamhistError::CorruptCheckpoint { .. })
    ));
    assert!(matches!(
        FixedWindowHistogram::restore(&frame),
        Err(StreamhistError::CorruptCheckpoint { .. })
    ));
}

/// Deterministic crash-consistency fuzz over the sharded layer: random
/// pushes interleaved with injected worker panics, checkpoint-backed
/// respawns, and barrier snapshots. At the end, per shard:
///
/// ```text
/// pushes_accepted == final summary total_pushed + sum(lost_since_checkpoint)
/// ```
///
/// and a quiescent fleet save must load back to bit-identical snapshots.
/// Override the seed with `RECOVERY_SEED=<u64>` to replay a CI failure.
#[test]
fn crash_consistency_fuzz() {
    let seed: u64 = std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15E_A5E0);
    let mut rng = StdRng::seed_from_u64(seed);

    const SHARDS: usize = 4;
    let mut sharded = ShardedFixedWindow::builder(SHARDS, 32, 3, 0.2)
        .checkpoint_interval(16)
        .queue_capacity(64)
        .build()
        .expect("valid parameters");
    let mut lost = [0u64; SHARDS];

    for _ in 0..4000 {
        let roll: u32 = rng.gen_range(0..100);
        let shard = rng.gen_range(0..SHARDS);
        if roll < 88 {
            // Sends to a dead shard fail; those records were never
            // accepted, so they don't enter the conservation identity.
            let v = f64::from(rng.gen_range(0..50u32));
            let _ = sharded.push_to(shard, v);
        } else if roll < 92 {
            let _ = sharded.inject_worker_panic(shard);
        } else if roll < 96 {
            // Barrier: also how death becomes observable to the sender.
            let _ = sharded.snapshot(shard);
        } else {
            lost[shard] += sharded.respawn_shard(shard).lost_since_checkpoint;
        }
    }

    // Recover whatever is still dead, then quiesce the whole fleet.
    for (shard, shard_lost) in lost.iter_mut().enumerate() {
        if sharded.snapshot(shard).is_err() {
            *shard_lost += sharded.respawn_shard(shard).lost_since_checkpoint;
        }
    }
    let snaps = sharded.snapshot_all();
    assert!(
        snaps.iter().all(Result::is_ok),
        "fleet healthy after recovery"
    );

    // A save taken at quiescence round-trips the whole fleet bit-for-bit.
    let store = MemStore::new();
    sharded.save_to_store(&store).expect("fleet healthy");
    sharded.load_from_store(&store).expect("own save loads");
    // Every shard's save is one frame; concatenated, they are the
    // artifact a failure dumps.
    let save: Vec<u8> = (0..SHARDS)
        .flat_map(|shard| store.list(shard).expect("listable"))
        .flat_map(|id| store.get(&id).expect("readable"))
        .collect();
    // Histograms and every stat but `herror_evals` are functions of the
    // window alone, so they round-trip bit for bit. A loaded shard has no
    // earlier build to seed its searches, so it does the cold build's
    // work; the live shards' builds were seeded and may do up to one
    // evaluation per search more.
    let reloaded = sharded.snapshot_all();
    let window_only = |s: &KernelStats| KernelStats {
        herror_evals: 0,
        ..s.clone()
    };
    let round_trips = snaps.len() == reloaded.len()
        && snaps.iter().zip(&reloaded).all(|pair| match pair {
            (Ok((h, s)), Ok((cold_h, cold))) => {
                h == cold_h
                    && window_only(s) == window_only(cold)
                    && s.herror_evals <= cold.herror_evals + cold.binary_searches
            }
            _ => false,
        });
    if !round_trips {
        let p = dump_artifact(&format!("fuzz-fleet-save-seed-{seed}"), &save);
        panic!(
            "fleet save did not round-trip (seed {seed}); save written to {}",
            p.display()
        );
    }

    // Exact conservation, per shard.
    let metrics = sharded.metrics_all();
    let summaries: Vec<FixedWindowHistogram> = sharded
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive at join"))
        .collect();
    for shard in 0..SHARDS {
        let accepted = metrics[shard].pushes_accepted;
        let surviving = summaries[shard].total_pushed();
        if accepted != surviving + lost[shard] {
            let p = dump_artifact(&format!("fuzz-fleet-save-seed-{seed}"), &save);
            panic!(
                "conservation violated on shard {shard} (seed {seed}): \
                 accepted {accepted} != surviving {surviving} + lost {}; \
                 save written to {}",
                lost[shard],
                p.display()
            );
        }
    }
}

/// One immediate retry per store call: `FailingStore::every_nth` with
/// `n >= 2` guarantees a failed call's retry succeeds, keeping the fuzz's
/// own store reads deterministic.
fn retrying<T>(mut f: impl FnMut() -> Result<T, StoreError>) -> T {
    f().or_else(|_| f()).expect("second attempt always lands")
}

/// Independent re-execution of the recovery rule, straight off the store:
/// restore the newest durable frame (or start fresh), then replay every
/// contiguous WAL segment past it, record by record. The fuzz compares
/// this against the state the fleet actually recovered — they must match
/// bit for bit.
fn replay_from_store(
    store: &dyn CheckpointStore,
    shard: usize,
    fresh: impl FnOnce() -> FixedWindowHistogram,
) -> FixedWindowHistogram {
    let ids = retrying(|| store.list(shard));
    let newest = ids
        .iter()
        .filter(|id| id.kind == ObjectKind::Frame)
        .max_by_key(|id| id.seq);
    let mut fw = match newest {
        Some(id) => FixedWindowHistogram::restore(&retrying(|| store.get(id)))
            .expect("durable frame decodes"),
        None => fresh(),
    };
    let mut expected = fw.total_pushed();
    for id in ids.iter().filter(|id| id.kind == ObjectKind::WalSegment) {
        if id.seq > expected {
            break; // gap: nothing past it is contiguous
        }
        let seg = WalSegment::decode(&retrying(|| store.get(id))).expect("durable segment decodes");
        if seg.end() <= expected {
            continue; // fully covered by the frame or an earlier segment
        }
        let skip = usize::try_from(expected - seg.base).expect("small");
        for &v in &seg.records[skip..] {
            fw.push(v);
        }
        expected = seg.end();
    }
    fw
}

/// Deterministic crash-**mid-upload** fuzz over the store-backed
/// durability pipeline: random batches stream into a durable fleet whose
/// [`FailingStore`] fails every 7th store call (exercising the uploader's
/// retry path on puts, lists, gets, and truncates alike), and workers are
/// panicked at arbitrary points — including while segments and frames are
/// still queued behind the uploader — or respawned while still live.
/// Each crash respawn must recover from **last durable frame + WAL
/// replay** with *exact* loss accounting:
///
/// * `restored_len + lost_since_checkpoint == records accepted`, always;
/// * a live respawn is a lossless handoff that anchors the store at the
///   drained summary, so the bounds below still hold for crashes after it;
/// * on even seeds every batch is a whole number of WAL segments, so the
///   unsynced tail is always empty and `lost_since_checkpoint == 0` — a
///   synced record is never lost;
/// * on odd seeds the loss is strictly below `wal_sync` (only the
///   unsynced tail can die with the worker);
/// * after every respawn, the freshly seeded worker is **bit-identical**
///   to an independent re-execution of the recovery rule — newest durable
///   frame restored, contiguous WAL segments replayed — straight off the
///   store: recovery is last frame + WAL replay, nothing else;
/// * at quiescence, every shard's window holds exactly the tail of its
///   surviving lineage — no record is reordered, duplicated, or invented.
///
/// Override the seed with `RECOVERY_SEED=<u64>` to replay a CI failure;
/// failing states are dumped to `target/recovery-artifacts/`.
#[test]
fn crash_mid_upload_fuzz() {
    let seed: u64 = std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEAD_10AD);
    let mut rng = StdRng::seed_from_u64(seed);

    const SHARDS: usize = 3;
    const CAPACITY: usize = 64;
    const B: usize = 4;
    const EPS: f64 = 0.2;
    const WAL_SYNC: usize = 8;
    let aligned = seed.is_multiple_of(2);

    let store = Arc::new(FailingStore::every_nth(MemStore::new(), 7));
    let mut fleet = ShardedFixedWindow::builder(SHARDS, CAPACITY, B, EPS)
        .checkpoint_interval(32)
        .durability(
            DurabilityOptions::new(Arc::clone(&store) as _)
                .wal_sync(WAL_SYNC)
                .upload_queue_capacity(16),
        )
        .build()
        .expect("valid durable fleet");

    // Per shard, the exact records its summary should hold: grown on
    // every accepted batch, truncated to the restored length on every
    // lossy recovery (lost records are gone for good, by design).
    let mut lineage: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];

    for step in 0..600 {
        let shard = rng.gen_range(0..SHARDS);
        let roll: u32 = rng.gen_range(0..100);
        if roll < 80 {
            let n = if aligned {
                WAL_SYNC * rng.gen_range(1..=3)
            } else {
                rng.gen_range(1..=20)
            };
            let batch: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..64u32))).collect();
            fleet
                .push_batch(shard, batch.clone())
                .expect("worker alive between injected crashes");
            lineage[shard].extend_from_slice(&batch);
        } else if roll < 86 {
            // Barrier: drains the shard's queue, so the WAL keeps pace.
            fleet.snapshot(shard).expect("worker alive");
        } else {
            let report = if roll < 92 {
                // Live handoff: the drained summary, unsynced tail
                // included, must become the store's anchor, or a later
                // crash replays up to a gap and loses more than the tail.
                let report = fleet.respawn_shard(shard);
                assert_eq!(
                    (report.restored_len, report.lost_since_checkpoint),
                    (lineage[shard].len() as u64, 0),
                    "seed {seed} step {step} shard {shard}: a handoff is lossless"
                );
                report
            } else {
                // Crash mid-upload: the panic lands while segments (and
                // possibly a frame) are still queued behind the uploader.
                fleet
                    .inject_worker_panic(shard)
                    .expect("worker alive to receive the panic");
                assert!(fleet.snapshot(shard).is_err(), "death is observable");
                fleet.respawn_shard(shard)
            };
            let lost = usize::try_from(report.lost_since_checkpoint).expect("small");
            let restored = usize::try_from(report.restored_len).expect("small");
            assert_eq!(
                restored + lost,
                lineage[shard].len(),
                "seed {seed} step {step} shard {shard}: loss accounting must be exact"
            );
            if aligned {
                assert_eq!(
                    lost, 0,
                    "seed {seed} step {step} shard {shard}: every record was synced \
                     (batches are whole segments), so none may be lost"
                );
            } else {
                assert!(
                    lost < WAL_SYNC,
                    "seed {seed} step {step} shard {shard}: only the unsynced tail \
                     (< {WAL_SYNC} records) may die with the worker, lost {lost}"
                );
            }
            lineage[shard].truncate(restored);

            // Bit-identity of the recovery rule: re-execute "newest frame
            // + contiguous WAL replay" independently off the real store
            // and compare it against the state the fleet actually seeded
            // the replacement worker with (captured via a scratch save
            // before any further pushes reach the shard).
            let replayed = replay_from_store(&*store, shard, || {
                FixedWindowHistogram::new(CAPACITY, B, EPS)
            });
            assert_eq!(
                replayed.total_pushed(),
                report.restored_len,
                "seed {seed} step {step} shard {shard}: independent replay length"
            );
            let scratch = MemStore::new();
            fleet
                .save_to_store(&scratch)
                .expect("fleet healthy after respawn");
            let saved = scratch.list(shard).expect("scratch store lists");
            let frame_id = saved
                .iter()
                .find(|id| id.kind == ObjectKind::Frame)
                .expect("save_to_store wrote a frame for the shard");
            let live = scratch.get(frame_id).expect("scratch frame readable");
            let want = replayed.encode_checkpoint();
            if live != want {
                let p = dump_artifact(&format!("wal-fuzz-live-seed-{seed}-step-{step}"), &live);
                let q = dump_artifact(&format!("wal-fuzz-want-seed-{seed}-step-{step}"), &want);
                panic!(
                    "seed {seed} step {step} shard {shard}: recovered state is not \
                     last-frame + WAL replay; frames saved to {} and {}",
                    p.display(),
                    q.display()
                );
            }
        }
    }

    // Quiesce, then pin the final durability counters: Block policy plus
    // per-call fault injection with retries must never shed a segment.
    for shard in 0..SHARDS {
        fleet.snapshot(shard).expect("fleet healthy at the end");
    }
    let status = fleet.wal_status();
    assert!(status.enabled, "durable fleet reports an enabled WAL");
    assert_eq!(
        status.segments_dropped, 0,
        "seed {seed}: OverloadPolicy::Block never sheds segments"
    );
    assert!(
        status.retries > 0,
        "seed {seed}: the FailingStore must have exercised the retry path"
    );

    // Conservation of content: each shard's final summary holds exactly
    // its surviving lineage — the full count, and the window is the exact
    // tail of the records that survived every crash. (Encode-level
    // comparison against a single-life reference is deliberately not used
    // here: batch-boundary rebase timing legitimately perturbs low-order
    // prefix rounding; the bit-identity contract — recovery == last frame
    // + WAL replay — is pinned per crash above.)
    let summaries: Vec<FixedWindowHistogram> = fleet
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive at join"))
        .collect();
    for (shard, fw) in summaries.iter().enumerate() {
        assert_eq!(
            usize::try_from(fw.total_pushed()).expect("small"),
            lineage[shard].len(),
            "seed {seed} shard {shard}: every surviving record is counted"
        );
        let tail_len = lineage[shard].len().min(CAPACITY);
        let tail = &lineage[shard][lineage[shard].len() - tail_len..];
        assert_eq!(
            fw.window(),
            tail,
            "seed {seed} shard {shard}: window is the exact lineage tail"
        );
    }
}

/// Checkpoint amplification at a fixed shape (DESIGN.md §5.2): 65,536
/// records of `utilization_trace` seed 42 in 4,096-record scatters over 4
/// shards of capacity 256, with 64-record WAL segments and a full frame
/// every 1,024 records. Every byte the pipeline writes is a function of
/// that input, so the total is pinned exactly: an extra envelope byte, a
/// fatter frame or a frame too many moves it. A healthy store under the
/// `Block` policy loses nothing, and a second fleet rebuilt from the
/// store holds every record but each shard's sub-segment tail.
#[test]
fn wal_amplification_is_pinned_and_the_store_rebuilds_every_synced_record() {
    const SHARDS: usize = 4;
    const CAPACITY: usize = 256;
    const WAL_SYNC: usize = 64;
    const RECORDS: usize = 65_536;
    const BYTES_WRITTEN: u64 = 932_216;

    let store = Arc::new(MemStore::new());
    let fleet = ShardedFixedWindow::builder(SHARDS, CAPACITY, 8, 0.1)
        .checkpoint_interval(1024)
        .durability(DurabilityOptions::new(Arc::clone(&store) as _).wal_sync(WAL_SYNC))
        .build()
        .expect("valid durable fleet");
    for slab in streamhist::data::utilization_trace(RECORDS, 42).chunks(4096) {
        fleet.push_batch_scatter(slab).expect("lossless ingest");
    }
    for shard in 0..SHARDS {
        fleet.snapshot(shard).expect("worker alive");
    }
    fleet.flush_wal();

    let status = fleet.wal_status();
    assert_eq!(status.bytes_ingested, 8 * RECORDS as u64);
    assert_eq!(status.bytes_written, BYTES_WRITTEN, "{status:?}");
    assert_eq!(status.segments_dropped, 0, "{status:?}");
    assert_eq!(status.failures, 0, "{status:?}");
    let accepted: Vec<u64> = fleet
        .metrics_all()
        .iter()
        .map(|m| m.pushes_accepted)
        .collect();
    assert_eq!(accepted.iter().sum::<u64>(), RECORDS as u64);
    let unsynced: u64 = accepted.iter().map(|a| a % WAL_SYNC as u64).sum();

    let mut rebuilt = ShardedFixedWindow::builder(SHARDS, CAPACITY, 8, 0.1)
        .build()
        .expect("valid fleet");
    rebuilt
        .load_from_store(store.as_ref())
        .expect("store rebuilds the fleet");
    let recovered: u64 = rebuilt
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive").total_pushed())
        .sum();
    assert_eq!(recovered + unsynced, RECORDS as u64);
    for r in fleet.join() {
        r.expect("worker alive at join");
    }
}

// ---------------------------------------------------------------------
// Supervised chaos sweep (DESIGN.md "Supervision and degraded serving").
// ---------------------------------------------------------------------

/// Mirror of the supervisor's per-shard state machine, stepped in
/// lockstep with [`Supervisor::probe_once`] so every transition the real
/// supervisor makes can be predicted — and therefore asserted — exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelState {
    Live,
    Dead,
    Recovering,
    Quarantined,
}

struct ModelShard {
    state: ModelState,
    /// Whether the worker thread is actually running (the supervisor may
    /// not have noticed a death yet; the model always knows).
    worker_alive: bool,
    failures: u64,
    restarts: u64,
    /// Once a shard has been restarted, the chaos options' huge
    /// `flap_window` means its failure count never resets again.
    ever_restarted: bool,
}

/// Event shapes for sequence comparison ([`SupervisorEvent::Restarted`]
/// and `Probation` carry a [`RecoveryReport`](streamhist::RecoveryReport)
/// the model cannot predict; the reports are verified separately against
/// the conservation identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventShape {
    Died(usize),
    Restarted(usize),
    Deferred(usize),
    Quarantined(usize),
    Probation(usize),
    Recovered(usize),
}

fn shape(e: &SupervisorEvent) -> EventShape {
    match *e {
        SupervisorEvent::Died { shard } => EventShape::Died(shard),
        SupervisorEvent::Restarted { shard, .. } => EventShape::Restarted(shard),
        SupervisorEvent::RestartDeferred { shard } => EventShape::Deferred(shard),
        SupervisorEvent::Quarantined { shard } => EventShape::Quarantined(shard),
        SupervisorEvent::Probation { shard, .. } => EventShape::Probation(shard),
        SupervisorEvent::Recovered { shard } => EventShape::Recovered(shard),
    }
}

const CHAOS_QUARANTINE_AFTER: u64 = 3;

/// The model's copy of `decide_dead`: quarantine past the threshold,
/// restart otherwise (the chaos options keep the token bucket always
/// full, so deferral is unreachable).
fn model_decide_dead(m: &mut ModelShard, shard: usize, out: &mut Vec<EventShape>) {
    if m.failures >= CHAOS_QUARANTINE_AFTER {
        m.state = ModelState::Quarantined;
        out.push(EventShape::Quarantined(shard));
    } else {
        m.state = ModelState::Recovering;
        m.worker_alive = true;
        m.restarts += 1;
        m.ever_restarted = true;
        out.push(EventShape::Restarted(shard));
    }
}

/// One model probe pass, returning the exact event sequence the real
/// supervisor must emit for the same pass.
fn model_probe(model: &mut [ModelShard]) -> Vec<EventShape> {
    let mut out = Vec::new();
    for (shard, m) in model.iter_mut().enumerate() {
        match m.state {
            ModelState::Live | ModelState::Recovering => {
                if m.worker_alive {
                    if m.state == ModelState::Recovering {
                        m.state = ModelState::Live;
                        out.push(EventShape::Recovered(shard));
                    }
                    // flap_window is huge, so only a shard that has never
                    // been restarted can reset its failure count.
                    if !m.ever_restarted {
                        m.failures = 0;
                    }
                } else {
                    m.state = ModelState::Dead;
                    m.failures += 1;
                    out.push(EventShape::Died(shard));
                    model_decide_dead(m, shard, &mut out);
                }
            }
            ModelState::Dead => model_decide_dead(m, shard, &mut out),
            ModelState::Quarantined => {
                // Zero backoff and a full bucket: probation next pass.
                m.state = ModelState::Recovering;
                m.worker_alive = true;
                m.restarts += 1;
                m.ever_restarted = true;
                out.push(EventShape::Probation(shard));
            }
        }
    }
    out
}

fn to_model(s: ShardState) -> ModelState {
    match s {
        ShardState::Live => ModelState::Live,
        ShardState::Dead => ModelState::Dead,
        ShardState::Recovering => ModelState::Recovering,
        ShardState::Quarantined => ModelState::Quarantined,
    }
}

/// Supervised chaos sweep: a durable fleet over a fault-injecting store,
/// random worker kills, and a manually stepped supervisor whose every
/// probe pass is checked — event for event, state for state — against an
/// independent model of the Live→Dead→Recovering→Quarantined machine.
/// Along the way, every `Degraded` snapshot's coverage report is compared
/// against ground truth computed from the model's own liveness view and
/// the records the test knows it sent. At the end, exact conservation:
///
/// ```text
/// sent_finite == pushes_accepted            (nothing vanishes in queues)
/// sent_nan    == values_rejected            (every NaN counted)
/// 0           == records_dropped            (Block policy never sheds)
/// accepted    == surviving + sum(lost)      (every loss is reported)
/// ```
///
/// Override the seed with `RECOVERY_SEED=<u64>` to replay a CI failure.
#[test]
fn supervised_chaos_sweep() {
    let seed: u64 = std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_F1EE7);
    let mut rng = StdRng::seed_from_u64(seed);

    const SHARDS: usize = 4;
    let store = Arc::new(FailingStore::every_nth(MemStore::new(), 7));
    // Big enough that nothing the sweep emits (supervisor transitions,
    // checkpoint uploads, upload retries, degraded snapshots) is ever
    // evicted: the reconstruction check below requires the full tape.
    let recorder = Arc::new(FlightRecorder::with_capacity(8192));
    let fleet = ShardedFixedWindow::builder(SHARDS, 64, 4, 0.2)
        .checkpoint_interval(16)
        .recorder(Arc::clone(&recorder))
        .durability(
            DurabilityOptions::new(Arc::clone(&store) as _)
                .wal_sync(8)
                .upload_queue_capacity(16),
        )
        .build()
        .expect("valid durable fleet");
    let handle = FleetHandle::new(fleet);
    let sup = Supervisor::attach(
        handle.clone(),
        SupervisorOptions {
            ping_timeout: Duration::from_millis(500),
            restart_burst: 4,
            // Zero refill period = always-full bucket: restarts are never
            // deferred, so every pass is exactly predictable.
            restart_refill: Duration::ZERO,
            quarantine_after: u32::try_from(CHAOS_QUARANTINE_AFTER).expect("small"),
            quarantine_backoff: Duration::ZERO,
            // Huge flap window: every death counts as consecutive, so
            // quarantine is reachable deterministically.
            flap_window: Duration::from_secs(3600),
            ..SupervisorOptions::default()
        },
    )
    .expect("valid supervisor options");

    let mut model: Vec<ModelShard> = (0..SHARDS)
        .map(|_| ModelShard {
            state: ModelState::Live,
            worker_alive: true,
            failures: 0,
            restarts: 0,
            ever_restarted: false,
        })
        .collect();
    let mut sent_finite = [0u64; SHARDS];
    let mut sent_nan = [0u64; SHARDS];
    let mut lost = [0u64; SHARDS];
    let mut degraded_snapshots = 0u32;
    let mut partial_snapshots = 0u64;
    let mut quarantines_seen = 0u32;
    // The model-predicted supervisor timeline, accumulated probe pass by
    // probe pass; the flight recorder must replay it exactly at the end.
    let mut expected_timeline: Vec<EventShape> = Vec::new();

    // One probe pass plus full cross-checks: the event sequence matches
    // the model's, per-restart reports satisfy the conservation identity
    // at the instant of recovery, and `health()` mirrors the model.
    let mut probe_and_verify =
        |sup: &Supervisor, model: &mut Vec<ModelShard>, lost: &mut [u64; SHARDS], step: usize| {
            let expected = model_probe(model);
            let events = sup.probe_once();
            let got: Vec<EventShape> = events.iter().map(shape).collect();
            assert_eq!(
                got, expected,
                "seed {seed} step {step}: probe pass diverged from the model"
            );
            expected_timeline.extend_from_slice(&expected);
            for e in &events {
                let (shard, report) = match *e {
                    SupervisorEvent::Restarted { shard, report }
                    | SupervisorEvent::Probation { shard, report } => (shard, report),
                    SupervisorEvent::Quarantined { .. } => {
                        quarantines_seen += 1;
                        continue;
                    }
                    _ => continue,
                };
                lost[shard] += report.lost_since_checkpoint;
                // At the instant of a restart nothing new has been pushed,
                // so the cumulative accepted counter must equal what was
                // restored plus everything ever reported lost.
                let accepted = handle.metrics(shard).expect("valid index").pushes_accepted;
                assert_eq!(
                    accepted,
                    report.restored_len + lost[shard],
                    "seed {seed} step {step} shard {shard}: restart report breaks conservation"
                );
            }
            for (h, m) in sup.health().iter().zip(model.iter()) {
                assert_eq!(
                    to_model(h.state),
                    m.state,
                    "seed {seed} step {step} shard {}: state diverged",
                    h.shard
                );
                assert_eq!(h.consecutive_failures, m.failures, "shard {}", h.shard);
                assert_eq!(h.restarts, m.restarts, "shard {}", h.shard);
            }
        };

    for step in 0..400 {
        let roll: u32 = rng.gen_range(0..100);
        if roll < 60 {
            // Push a small batch at a shard whose worker is running; a
            // sprinkle of NaNs exercises the rejection counter.
            let alive: Vec<usize> = (0..SHARDS).filter(|&s| model[s].worker_alive).collect();
            let Some(&shard) = alive.get(rng.gen_range(0..alive.len().max(1))) else {
                continue;
            };
            for _ in 0..rng.gen_range(1..=12) {
                if rng.gen_range(0..16) == 0 {
                    handle
                        .push_to(shard, f64::NAN)
                        .expect("valid index")
                        .expect("rejected, not fatal");
                    sent_nan[shard] += 1;
                } else {
                    let v = f64::from(rng.gen_range(0..50u32));
                    handle
                        .push_to(shard, v)
                        .expect("valid index")
                        .expect("worker alive");
                    sent_finite[shard] += 1;
                }
            }
        } else if roll < 75 {
            // Kill a running worker; the supervisor finds out on its next
            // probe pass, the model knows immediately.
            let alive: Vec<usize> = (0..SHARDS).filter(|&s| model[s].worker_alive).collect();
            if let Some(&shard) = alive.get(rng.gen_range(0..alive.len().max(1))) {
                handle
                    .inject_worker_panic(shard)
                    .expect("valid index")
                    .expect("worker alive");
                model[shard].worker_alive = false;
            }
        } else if roll < 90 {
            probe_and_verify(&sup, &mut model, &mut lost, step);
        } else {
            // Degraded snapshot: its coverage must match ground truth
            // computed from the model's liveness and the sent counts.
            let included: usize = model.iter().filter(|m| m.worker_alive).count();
            let result =
                handle.snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.0 });
            if included == 0 {
                assert!(result.is_err(), "seed {seed} step {step}: empty gather");
                continue;
            }
            let (_hist, _stats, cov) = result.unwrap_or_else(|e| {
                panic!("seed {seed} step {step}: degraded gather failed over {included} live shards: {e}")
            });
            degraded_snapshots += 1;
            let repr: u64 = (0..SHARDS)
                .filter(|&s| model[s].worker_alive)
                .map(|s| sent_finite[s])
                .sum();
            let total: u64 = sent_finite.iter().sum();
            assert_eq!(cov.shards_total, SHARDS, "seed {seed} step {step}");
            assert_eq!(cov.shards_included, included, "seed {seed} step {step}");
            assert_eq!(cov.records_represented, repr, "seed {seed} step {step}");
            assert_eq!(cov.records_total, total, "seed {seed} step {step}");
            assert_eq!(
                cov.is_complete(),
                included == SHARDS,
                "seed {seed} step {step}"
            );
            if included < SHARDS {
                partial_snapshots += 1;
            }
            if included < SHARDS && repr < total {
                // An unreachable floor must fail the gather rather than
                // hand out a snapshot claiming coverage it does not have.
                assert!(
                    handle
                        .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 1.0 })
                        .is_err(),
                    "seed {seed} step {step}: floor above actual coverage must fail"
                );
            }
        }
    }

    // Drain: with kills stopped, a few passes walk every shard back to
    // Live (Dead -> Recovering -> Live, Quarantined -> probation -> Live).
    for extra in 0..8 {
        if model
            .iter()
            .all(|m| m.state == ModelState::Live && m.worker_alive)
        {
            break;
        }
        probe_and_verify(&sup, &mut model, &mut lost, 400 + extra);
    }
    assert!(
        model.iter().all(|m| m.state == ModelState::Live),
        "seed {seed}: fleet did not settle back to Live"
    );

    // The sweep must actually have exercised the interesting paths.
    let sm = sup.metrics();
    assert!(sm.deaths > 0, "seed {seed}: no deaths observed");
    assert_eq!(sm.restarts_deferred, 0, "always-full bucket never defers");
    assert_eq!(
        sm.quarantines,
        u64::from(quarantines_seen),
        "seed {seed}: quarantine entries"
    );
    assert_eq!(
        sm.probations, sm.quarantines,
        "seed {seed}: every quarantine entered was exited via probation"
    );
    assert_eq!(
        sm.records_lost,
        lost.iter().sum::<u64>(),
        "seed {seed}: supervisor-reported losses match the per-event sum"
    );
    assert!(
        degraded_snapshots > 0,
        "seed {seed}: no degraded snapshot was ever taken"
    );

    // --- Flight-recorder reconstruction. The whole chaos run must be
    // replayable from the recorder alone: every model-predicted
    // Died/Restarted/Quarantined/Probation/Recovered transition appears
    // exactly once, in sequence order, with matching shard indices.
    assert!(
        recorder.recorded() <= recorder.capacity() as u64,
        "seed {seed}: recorder overflowed ({} events into {} slots) — \
         the reconstruction check needs the full tape",
        recorder.recorded(),
        recorder.capacity()
    );
    let tape = recorder.all_events();
    assert!(
        tape.windows(2).all(|w| w[0].seq < w[1].seq),
        "seed {seed}: recorder tape must be strictly sequence-ordered"
    );
    let replayed: Vec<EventShape> = tape
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ShardDied { shard } => Some(EventShape::Died(*shard)),
            EventKind::ShardRestarted { shard, .. } => Some(EventShape::Restarted(*shard)),
            EventKind::RestartDeferred { shard } => Some(EventShape::Deferred(*shard)),
            EventKind::ShardQuarantined { shard } => Some(EventShape::Quarantined(*shard)),
            EventKind::ShardProbation { shard } => Some(EventShape::Probation(*shard)),
            EventKind::ShardRecovered { shard } => Some(EventShape::Recovered(*shard)),
            _ => None,
        })
        .collect();
    assert_eq!(
        replayed, expected_timeline,
        "seed {seed}: the supervisor timeline replayed from the flight \
         recorder diverged from the model's"
    );
    // The durability pipeline and the degraded-serving path left their
    // own tracks on the same tape, interleaved with the supervisor's.
    let uploads = tape
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointUploaded { .. }))
        .count();
    assert!(
        uploads > 0,
        "seed {seed}: a durable fleet must have recorded checkpoint uploads"
    );
    let retried = tape
        .iter()
        .filter(|e| matches!(e.kind, EventKind::UploadRetried { .. }))
        .count();
    assert!(
        retried > 0,
        "seed {seed}: a FailingStore(every 7th) run must have recorded retries"
    );
    let degraded_served = tape
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SnapshotDegraded { .. }))
        .count() as u64;
    assert_eq!(
        degraded_served, partial_snapshots,
        "seed {seed}: one SnapshotDegraded event per served partial gather"
    );

    // Quiesce and check the books: exact conservation per shard.
    let wal = handle.wal_status();
    assert!(wal.enabled, "durable fleet reports an enabled WAL");
    assert_eq!(wal.segments_dropped, 0, "Block policy never sheds segments");
    for shard in 0..SHARDS {
        handle
            .snapshot_shard(shard)
            .expect("valid index")
            .expect("fleet healthy at the end");
        let m = handle.metrics(shard).expect("valid index");
        assert_eq!(
            m.pushes_accepted, sent_finite[shard],
            "seed {seed} shard {shard}: every finite record sent to a live worker is accepted"
        );
        assert_eq!(
            m.values_rejected, sent_nan[shard],
            "seed {seed} shard {shard}: every NaN is rejected"
        );
        assert_eq!(m.records_dropped, 0, "seed {seed} shard {shard}");
    }
    sup.shutdown();
    let summaries = match handle.try_join() {
        Ok(s) => s,
        Err(_) => panic!("seed {seed}: supervisor shutdown must drop its fleet handle"),
    };
    for (shard, summary) in summaries.into_iter().enumerate() {
        let surviving = summary.expect("worker alive at join").total_pushed();
        assert_eq!(
            sent_finite[shard],
            surviving + lost[shard],
            "seed {seed} shard {shard}: accepted == surviving + lost"
        );
    }
}
