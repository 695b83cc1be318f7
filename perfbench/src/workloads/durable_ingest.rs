//! `durable_ingest`: the write path.
//!
//! A 2-shard fleet with `DurabilityOptions::new(MemStore)` at the default
//! `wal_sync` (64) and `checkpoint_interval` (1024). One producer pushes
//! [`BATCH`]-record batches to alternating explicit shards in a closed
//! loop under the lossless `Block` policy. The kernel barely runs; the
//! work is the queue, prefix append, checkpoint encode, WAL, uploader and
//! store. `MemStore`, not `DirStore`, because an fsync on a shared VM disk
//! measures the device.
//!
//! The run is a sequence of rounds, each on a fresh fleet: set-up (build
//! the fleet, pre-fill every window, barrier), then [`ROUND_RECORDS`]
//! records, then a barrier on every shard and `flush_wal`. A round's
//! throughput counts up to and including that barrier and flush. Rounds
//! repeat until `--seconds` have passed; every statistic is the median
//! over rounds. The first (warm-up) round also carries the gates.

use super::{accuracy_gate, finish_trace, FleetAccuracy, SHARDS, SHARD_WINDOW, WARMUP};
use crate::input;
use crate::stats::{self, median_of, Timeline};
use crate::trace::SpanLog;
use crate::{Outcome, RunConfig, B, EPS};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use streamhist_core::{CheckpointStore, MemStore, ObjectId, StoreError};
use streamhist_stream::{DurabilityOptions, ShardedFixedWindow, WalStatus};

/// Records pushed in the timed part of one round.
pub const ROUND_RECORDS: usize = 1 << 18;
/// Records per `push_batch`.
pub const BATCH: usize = 256;
/// Records each shard is pre-filled with during set-up.
const PREFILL: usize = SHARD_WINDOW;
/// Records the WAL may legitimately hold back per shard (one partial
/// segment): `DurabilityOptions`' default `wal_sync`.
const WAL_SYNC: u64 = 64;

/// Put durations in ns, shared by every round's [`TimedStore`].
type PutSink = Arc<Mutex<Vec<f64>>>;

/// A [`MemStore`] that times every put (the traced phase's store layer).
struct TimedStore {
    inner: MemStore,
    put_ns: PutSink,
}

impl TimedStore {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.put_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ns);
        out
    }
}

impl CheckpointStore for TimedStore {
    fn put_frame(&self, shard: usize, seq: u64, frame: &[u8]) -> Result<(), StoreError> {
        self.timed(|| self.inner.put_frame(shard, seq, frame))
    }
    fn put_wal_segment(&self, shard: usize, seq: u64, segment: &[u8]) -> Result<(), StoreError> {
        self.timed(|| self.inner.put_wal_segment(shard, seq, segment))
    }
    fn list(&self, shard: usize) -> Result<Vec<ObjectId>, StoreError> {
        self.inner.list(shard)
    }
    fn get(&self, id: &ObjectId) -> Result<Vec<u8>, StoreError> {
        self.inner.get(id)
    }
    fn truncate(&self, shard: usize, frame_seq: u64) -> Result<(), StoreError> {
        self.inner.truncate(shard, frame_seq)
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    /// Records per second, timed part only.
    throughput: f64,
    /// `wal_status().amplification` after the round.
    write_amp: f64,
}

/// Builds a durable fleet over `store` and pre-fills every shard window.
fn setup(pool: &[f64], store: Arc<dyn CheckpointStore>) -> ShardedFixedWindow {
    let fleet = ShardedFixedWindow::builder(SHARDS, SHARD_WINDOW, B, EPS)
        .durability(DurabilityOptions::new(store))
        .build()
        .expect("valid durable fleet");
    for s in 0..SHARDS {
        fleet
            .push_batch(s, pool[s * PREFILL..(s + 1) * PREFILL].to_vec())
            .expect("fresh worker alive");
    }
    for s in 0..SHARDS {
        fleet.snapshot(s).expect("fresh worker alive");
    }
    fleet
}

/// Runs one round. With `gates`, also checks accuracy and recovery.
fn round(
    pool: &[f64],
    log: &mut SpanLog,
    put_sink: Option<&PutSink>,
    lat_ms: Option<&mut Timeline>,
    gates: bool,
    out: &mut Outcome,
) -> Round {
    let store: Arc<dyn CheckpointStore> = match put_sink {
        Some(sink) => Arc::new(TimedStore {
            inner: MemStore::new(),
            put_ns: Arc::clone(sink),
        }),
        None => Arc::new(MemStore::new()),
    };
    let t0 = Instant::now();
    let fleet = setup(pool, Arc::clone(&store));
    let setup_s = t0.elapsed().as_secs_f64();

    let records = &pool[SHARDS * PREFILL..SHARDS * PREFILL + ROUND_RECORDS];
    let mut lat_ms = lat_ms;
    let (mut depth_max, mut upload_max) = (0usize, 0u64);
    let t1 = Instant::now();
    for (i, batch) in records.chunks(BATCH).enumerate() {
        let tb = Instant::now();
        let res = log.time("sharded.enqueue", i as u64, None, || {
            fleet.push_batch(i % SHARDS, batch.to_vec())
        });
        if let Some(lat) = lat_ms.as_deref_mut() {
            let done = Instant::now();
            lat.record(done, stats::ms(done - tb));
        }
        if res.is_err() {
            out.failed += 1;
        }
        if log.on() && i % 16 == 0 {
            let depth = fleet.metrics_all().iter().map(|m| m.queue_depth).max();
            depth_max = depth_max.max(depth.unwrap_or(0));
            upload_max = upload_max.max(fleet.wal_status().queue_depth);
        }
    }
    log.time("sharded.barrier", 0, None, || {
        for s in 0..SHARDS {
            if fleet.snapshot(s).is_err() {
                out.failed += 1;
            }
        }
    });
    log.time("durability.flush", 0, None, || fleet.flush_wal());
    let secs = t1.elapsed().as_secs_f64();
    out.attempted += (ROUND_RECORDS / BATCH) as u64;

    let status = fleet.wal_status();
    let metrics = fleet.metrics_all();
    let accepted: u64 = metrics.iter().map(|m| m.pushes_accepted).sum();
    let dropped: u64 = metrics.iter().map(|m| m.records_dropped).sum();
    out.failed += dropped + status.failures + status.segments_dropped;
    if log.on() {
        out.set("sharded.queue_depth_max", depth_max as f64);
        out.set("durability.upload_queue_depth_max", upload_max as f64);
        out.set("sharded.records_dropped", dropped as f64);
        out.set("durability.retries", status.retries as f64);
        out.set("durability.failures", status.failures as f64);
        let ckpt: u64 = metrics.iter().map(|m| m.checkpoint_bytes).sum();
        out.set(
            "checkpoint.bytes_per_record",
            ckpt as f64 / accepted.max(1) as f64,
        );
    }
    if gates {
        check_round(fleet, store.as_ref(), accepted, &status, out);
    } else {
        for r in fleet.join() {
            if r.is_err() {
                out.failed += 1;
            }
        }
    }
    Round {
        setup_s,
        throughput: ROUND_RECORDS as f64 / secs,
        write_amp: status.amplification,
    }
}

/// The round's untimed gates: the global histogram within the §7 bound,
/// kernel counts of the final builds, and recovery from the store
/// accounting for every accepted record.
fn check_round(
    fleet: ShardedFixedWindow,
    store: &dyn CheckpointStore,
    accepted: u64,
    status: &WalStatus,
    out: &mut Outcome,
) {
    out.set("durability.write_amp", status.amplification);
    out.gate(
        "durable_ingest: no dropped segments, no upload failures",
        status.segments_dropped == 0 && status.failures == 0,
        format!(
            "{} dropped, {} failures, {} retries",
            status.segments_dropped, status.failures, status.retries
        ),
    );
    let (global, _) = fleet.snapshot_global().expect("fleet healthy");
    let (mut evals, mut searches) = (0usize, 0usize);
    for s in 0..SHARDS {
        let (_, st) = fleet.snapshot(s).expect("worker alive");
        evals += st.herror_evals;
        searches += st.binary_searches;
    }
    out.set(
        "kernel.herror_evals_per_build",
        evals as f64 / SHARDS as f64,
    );
    out.set(
        "kernel.binary_searches_per_build",
        searches as f64 / SHARDS as f64,
    );
    let shards: Vec<_> = fleet
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive at join"))
        .collect();
    let acc = FleetAccuracy::measure(&global, &shards);
    accuracy_gate(out, "durable_ingest", &acc);

    let mut rebuilt = ShardedFixedWindow::builder(SHARDS, SHARD_WINDOW, B, EPS)
        .build()
        .expect("valid fleet");
    let loaded = rebuilt.load_from_store(store);
    let recovered: u64 = rebuilt
        .join()
        .into_iter()
        .map(|r| r.map_or(0, |h| h.total_pushed()))
        .sum();
    let tail = accepted.saturating_sub(recovered);
    out.gate(
        "durable_ingest: load_from_store accounts for every accepted record",
        loaded.is_ok() && recovered <= accepted && tail < SHARDS as u64 * WAL_SYNC,
        format!(
            "recovered {recovered} of {accepted} (unsynced tail {tail}, allowed < {})",
            SHARDS as u64 * WAL_SYNC
        ),
    );
}

struct Phase {
    rounds: Vec<Round>,
    /// Per-batch `push_batch` latency, ms.
    lat_ms: Timeline,
    peak_rss_mb: f64,
    log: SpanLog,
    put_ns: Vec<f64>,
}

fn phase(pool: &[f64], cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Phase {
    let epoch = Instant::now();
    let mut off = SpanLog::new(epoch, false);
    // Warm-up rounds: the first carries the gates.
    let warm = Instant::now();
    let first = round(pool, &mut off, None, None, true, out);
    while warm.elapsed() < WARMUP {
        round(pool, &mut off, None, None, false, out);
    }
    let mut log = SpanLog::new(epoch, traced);
    let sink: PutSink = Arc::default();
    let run_for = Duration::from_secs_f64(cfg.phase_seconds());
    let t0 = Instant::now();
    let mut lat_ms = Timeline::new(t0, run_for);
    let mut rounds = Vec::new();
    while rounds.is_empty() || t0.elapsed() < run_for {
        let sink = traced.then_some(&sink);
        rounds.push(round(pool, &mut log, sink, Some(&mut lat_ms), false, out));
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let identical = rounds
        .iter()
        .all(|r| r.write_amp.to_bits() == first.write_amp.to_bits());
    out.gate(
        "durable_ingest: write amplification repeats bit-for-bit in every round",
        identical,
        format!("{} rounds, first {}", rounds.len(), first.write_amp),
    );
    let put_ns = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
    Phase {
        rounds,
        lat_ms,
        peak_rss_mb,
        log,
        put_ns,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let pool = input::pool(cfg.seed, SHARDS * PREFILL + ROUND_RECORDS);
    let mut out = Outcome::default();
    out.set("loadgen.zero_share", input::zero_share(&pool));
    let plain = phase(&pool, cfg, false, &mut out);
    let per_round =
        |f: &dyn Fn(&Round) -> f64| stats::median(&plain.rounds.iter().map(f).collect::<Vec<_>>());
    let p50 = plain.lat_ms.quantile(0.5);
    out.set("setup_s", per_round(&|r| r.setup_s));
    out.set("throughput_per_s", per_round(&|r| r.throughput));
    out.set("latency_p50_ms", p50);
    out.set("loadgen.latency_p99_ms", plain.lat_ms.quantile(0.99));
    out.set("process.peak_rss_mb", plain.peak_rss_mb);
    if !cfg.trace {
        return out;
    }

    let traced = phase(&pool, cfg, true, &mut out);
    let durs = traced.log.dur_ns_by_name();
    let records = (traced.rounds.len() * (SHARDS * PREFILL + ROUND_RECORDS)) as f64;
    out.set(
        "sharded.enqueue_us_p99",
        durs.get("sharded.enqueue")
            .map_or(0.0, |v| stats::quantile(v, 0.99))
            / 1e3,
    );
    out.set(
        "durability.flush_ms",
        median_of(&durs, "durability.flush") / 1e6,
    );
    out.set(
        "store.put_us_p50",
        stats::quantile(&traced.put_ns, 0.5) / 1e3,
    );
    out.set(
        "store.put_us_p99",
        stats::quantile(&traced.put_ns, 0.99) / 1e3,
    );
    out.set(
        "store.puts_per_1k_records",
        traced.put_ns.len() as f64 / records * 1e3,
    );
    let traced_p50 = traced.lat_ms.quantile(0.5);
    let chain_ms = median_of(&traced.log.self_ns_by_name(), "sharded.enqueue") / 1e6;
    finish_trace(&mut out, &traced.log, p50, traced_p50, chain_ms, cfg);
    out
}
