//! Sharded serving layer for the fixed-window summary.
//!
//! The paper's data-stream setting (§1) is explicitly operational —
//! networking equipment emitting measurements "at link speeds" — and a
//! single summary per core is the natural scale-out: partition the key
//! space (one summary per interface, per flow group, per sensor), pin each
//! shard to a worker thread, and fan records out by key. Nothing in the
//! algorithm has to change; what the refactor to the arena-backed
//! `kernel` module bought is that every summary is `Send + 'static`, so
//! shards can be *moved* to workers and their finished summaries moved
//! back.
//!
//! [`ShardedFixedWindow`] packages that pattern as a robust serving
//! subsystem over plain `std::thread` workers — no extra dependencies, no
//! locking on the hot path (each shard is single-writer by construction).
//! Three production concerns are first-class:
//!
//! * **Failure model.** Malformed records (NaN/infinity) are
//!   counted-and-rejected by the worker via
//!   [`FixedWindowHistogram::try_push`] — they never kill a shard. A
//!   worker can still die (a bug, or deliberate fault injection through
//!   [`inject_worker_panic`](ShardedFixedWindow::inject_worker_panic));
//!   every API that talks to a shard returns `Result<_, `[`ShardError`]`>`
//!   instead of panicking, so one dead shard is detectable and reportable
//!   while the rest of the fleet keeps serving, and
//!   [`respawn_shard`](ShardedFixedWindow::respawn_shard) restores service
//!   on the dead index from its last checkpoint.
//! * **Durability.** Every worker auto-checkpoints its summary every
//!   [`ShardedOptions::checkpoint_interval`] accepted records — a
//!   versioned, CRC-checksummed [`Checkpoint`] frame kept in an in-memory
//!   slot and, on a fleet built with
//!   [`durability`](ShardedFixedWindowBuilder::durability), shipped to its
//!   store beside a per-record WAL.
//!   [`respawn_shard`](ShardedFixedWindow::respawn_shard) seeds the
//!   replacement worker from a live worker's drained summary (lossless
//!   handoff) or, after a death, from the newest readable recovery point
//!   (store, then slot), and reports exactly how many accepted records
//!   were lost ([`RecoveryReport`]).
//!   [`save_to_store`](ShardedFixedWindow::save_to_store) /
//!   [`load_from_store`](ShardedFixedWindow::load_from_store) save and
//!   load the whole fleet through any [`CheckpointStore`].
//! * **Backpressure.** Each shard's command queue is a *bounded*
//!   `sync_channel` ([`ShardedOptions::queue_capacity`] commands deep).
//!   When a shard falls behind, the configured [`OverloadPolicy`] decides:
//!   [`Block`](OverloadPolicy::Block) stalls the producer (lossless,
//!   memory-bounded), [`DropNewest`](OverloadPolicy::DropNewest) sheds the
//!   incoming record(s) and counts them. Memory can no longer grow without
//!   bound under a slow consumer.
//! * **Observability.** Every shard keeps atomic counters —
//!   [`ShardMetrics`]: pushes accepted, values rejected, records dropped
//!   under overload, snapshots served, respawns, current queue depth —
//!   readable through [`metrics`](ShardedFixedWindow::metrics) without a
//!   barrier round-trip (counters are `Relaxed` atomics, exact once the
//!   shard is quiescent).
//!
//! Routing is a fixed key hash ([`shard_of`](ShardedFixedWindow::shard_of));
//! re-sharding and replication remain out of scope.

use crate::durability::{
    recover_shard, with_retry, DurabilityOptions, FleetDurability, ShardWal, WalMetricsInner,
    WalStatus,
};
use crate::fixed_window::FixedWindowHistogram;
use crate::kernel::{KernelStats, SnapshotCache};
use crate::merge::merge_histograms;
use crate::telemetry::{FleetTiming, KernelTracer};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamhist_core::{Checkpoint, CheckpointStore, Histogram, StreamhistError};
use streamhist_obs::{Counter, EventKind, FlightRecorder, FloatGauge, Gauge, MetricsRegistry};

/// Upper bound on one scatter chunk, in records. A scattered slab used to
/// split into exactly `shards()` chunks of `len / k` records each; for
/// large slabs those chunks are big enough that every worker spends its
/// whole quantum inside one `push_batch`, serializing the fleet behind the
/// slowest chunk (a speedup inversion: 1024-record slabs ingested slower
/// than 64-record ones). Capping the chunk keeps large slabs flowing
/// round-robin across all shards in queue-slot-sized pieces that pipeline;
/// `scatter_caps_chunks_so_large_slabs_wrap_all_shards` pins the dealing. The cap is
/// deliberately small: an A/B sweep over caps {8, 16, 32, 128} showed the
/// inversion re-appearing from 32 up (large slabs 10-25% behind 64-record
/// slabs), while at 16 the two are at parity from smoke scale to 64k-record
/// slabs — and per-command channel overhead is still two orders of
/// magnitude below per-record absorption cost, so small chunks cost
/// nothing at the large end.
const SCATTER_CHUNK_MAX: usize = 16;

/// A shard's worker thread is gone: it panicked (only possible through a
/// bug or injected fault — malformed values are rejected, not fatal) and
/// every operation addressed to that shard now fails fast with this error
/// until [`ShardedFixedWindow::respawn_shard`] restores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the shard whose worker has died.
    pub shard: usize,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} worker has died", self.shard)
    }
}

impl std::error::Error for ShardError {}

/// How [`ShardedFixedWindow::snapshot_global_with`] treats dead shards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SnapshotPolicy {
    /// All shards or nothing: any dead worker fails the whole gather with
    /// its [`ShardError`]. This is [`ShardedFixedWindow::snapshot_global`]'s
    /// behavior and the default.
    #[default]
    Strict,
    /// Gather whatever answers: dead shards are skipped, and the snapshot
    /// ships with an exact [`Coverage`] report. The gather still fails if
    /// the covered fraction of accepted records falls below
    /// `min_coverage` (clamped to `[0, 1]`) or no shard answered at all —
    /// a snapshot representing too little is worse than an error.
    Degraded {
        /// Minimum acceptable [`Coverage::fraction`], clamped to `[0, 1]`.
        min_coverage: f64,
    },
}

/// What fraction of the fleet a (possibly degraded) global snapshot
/// actually represents.
///
/// Record counts live in the *cumulative accepted* domain — each shard's
/// `pushes_accepted` counter, which includes records accepted by earlier
/// worker epochs and lost across a crash. That is deliberate: coverage
/// answers "how much of what the fleet admitted is this snapshot standing
/// in for", and a record lost by a dead shard is exactly the kind of
/// absence the report must not hide (DESIGN.md invariant 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards whose snapshots made it into the gather.
    pub shards_included: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
    /// Accepted records represented by the included shards (worker-reported
    /// at each shard's snapshot barrier).
    pub records_represented: u64,
    /// Accepted records fleet-wide: the included shards' worker-reported
    /// counts plus the excluded shards' last counter values.
    pub records_total: u64,
}

impl Coverage {
    /// Covered fraction of accepted records, `1.0` for an empty fleet.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.records_total == 0 {
            1.0
        } else {
            self.records_represented as f64 / self.records_total as f64
        }
    }

    /// `true` when nothing was skipped: every shard is in and every
    /// accepted record is represented.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shards_included == self.shards_total && self.records_represented == self.records_total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} shards, {}/{} records ({:.1}%)",
            self.shards_included,
            self.shards_total,
            self.records_represented,
            self.records_total,
            self.fraction() * 100.0
        )
    }
}

/// What a producer-side push does when the target shard's bounded command
/// queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the producer until the worker drains a slot — lossless
    /// backpressure, the default.
    #[default]
    Block,
    /// Drop the incoming record(s) and add them to
    /// [`ShardMetrics::records_dropped`]. The push still returns `Ok`:
    /// shedding under overload is the configured behavior, not a failure.
    DropNewest,
}

/// Tuning for [`ShardedFixedWindow`]'s ingestion path.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Bound of each shard's command queue, in *commands* (a
    /// [`push_batch`](ShardedFixedWindow::push_batch) of any size occupies
    /// one slot). Must be positive.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: OverloadPolicy,
    /// A worker takes an automatic checkpoint of its summary after every
    /// this many accepted records: into its in-memory slot and, on a
    /// durable fleet, into the store. Must be positive; the default is
    /// 1024. Smaller values tighten the worst-case loss window of
    /// [`ShardedFixedWindow::respawn_shard`] without a store at the cost
    /// of more encode work per record.
    pub checkpoint_interval: usize,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
            checkpoint_interval: 1024,
        }
    }
}

/// What [`ShardedFixedWindow::respawn_shard`] recovered.
///
/// The conservation identity the recovery protocol guarantees (and
/// `tests/recovery.rs` fuzzes): at any quiescent point, a shard's
/// `pushes_accepted` metric equals the current summary's `total_pushed()`
/// plus the sum of every `lost_since_checkpoint` it has ever reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `total_pushed()` of the summary the replacement worker starts from:
    /// the drained summary of a live worker, or the decoded checkpoint of
    /// a dead one (0 if no usable checkpoint existed).
    pub restored_len: u64,
    /// Accepted records that died with the worker: everything accepted
    /// after the restored checkpoint was taken. Always 0 when the old
    /// worker was still alive (lossless handoff).
    pub lost_since_checkpoint: u64,
}

/// Point-in-time copy of one shard's counters. Counters are cumulative for
/// the lifetime of the shard *index* — they survive
/// [`respawn_shard`](ShardedFixedWindow::respawn_shard) (except
/// `queue_depth`, which is reset to 0 because the dead worker's queue is
/// discarded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Values absorbed into the summary.
    pub pushes_accepted: u64,
    /// Values rejected as malformed (NaN/infinity).
    pub values_rejected: u64,
    /// Records shed at enqueue time under [`OverloadPolicy::DropNewest`].
    pub records_dropped: u64,
    /// Snapshot requests the worker has answered.
    pub snapshots_served: u64,
    /// Times this shard index has been respawned.
    pub respawns: u64,
    /// Checkpoints taken for this shard index (automatic interval
    /// checkpoints plus explicit [`ShardedFixedWindow::checkpoint`] and
    /// [`ShardedFixedWindow::save_to_store`] requests).
    pub checkpoints_taken: u64,
    /// Cumulative encoded size of every checkpoint frame taken, in bytes.
    pub checkpoint_bytes: u64,
    /// Times this shard index has been restored from a recovery point
    /// (dead-worker respawns and [`ShardedFixedWindow::load_from_store`]
    /// loads; lossless live handoffs do not count).
    pub restores: u64,
    /// Commands currently enqueued (or in flight) to the worker.
    pub queue_depth: usize,
}

/// Point-in-time copy of the fleet's gather/merge counters, maintained by
/// [`ShardedFixedWindow::snapshot_global`]. Like [`ShardMetrics`], the
/// cells are registered `streamhist_fleet_*{fleet}` series when the fleet
/// is built with a registry attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeMetrics {
    /// Histogram merges run by global-snapshot gathers: one per gather.
    pub merges: u64,
    /// Buckets fed into those merges (the per-shard snapshot buckets).
    pub merge_buckets_in: u64,
    /// Buckets the merges produced (each output is at most `B` wide).
    pub merge_buckets_out: u64,
    /// Global snapshot requests answered from the generation cache without
    /// any cross-shard gather.
    pub cache_hits: u64,
}

/// The cells behind [`MergeMetrics`] — one set per fleet, touched only by
/// snapshot callers (never by workers).
#[derive(Debug, Default)]
struct MergeMetricsInner {
    merges: Counter,
    buckets_in: Counter,
    buckets_out: Counter,
    cache_hits: Counter,
    /// Live accuracy audit, refreshed by every real (non-cache-hit)
    /// global gather: the fleet-global SSE estimate, the DESIGN.md §7
    /// gather bound evaluated on the same measured inputs, and their
    /// quotient (≤ 1 by construction — the estimate is the bound with
    /// the `√(1+ε)·√G` cross term dropped).
    sse_estimate: FloatGauge,
    error_bound: FloatGauge,
    error_ratio: FloatGauge,
}

impl MergeMetricsInner {
    /// Cells registered into `registry` as `streamhist_fleet_*` series
    /// labeled `{fleet}`.
    fn registered(registry: &MetricsRegistry, fleet: &str) -> Self {
        let labels = &[("fleet", fleet)];
        Self {
            merges: registry.counter_with(
                "streamhist_fleet_merges_total",
                "Histogram merges run by global-snapshot gathers (one per gather).",
                labels,
            ),
            buckets_in: registry.counter_with(
                "streamhist_fleet_merge_buckets_in_total",
                "Buckets fed into global-snapshot merges.",
                labels,
            ),
            buckets_out: registry.counter_with(
                "streamhist_fleet_merge_buckets_out_total",
                "Buckets produced by global-snapshot merges.",
                labels,
            ),
            cache_hits: registry.counter_with(
                "streamhist_fleet_snapshot_cache_hits_total",
                "Global snapshots served from the generation cache without a gather.",
                labels,
            ),
            sse_estimate: registry.float_gauge_with(
                "streamhist_snapshot_sse_estimate",
                "Fleet-global SSE estimate of the last gathered snapshot: \
                 (sqrt(merge herror) + sqrt(sum of per-shard herrors))^2.",
                labels,
            ),
            error_bound: registry.float_gauge_with(
                "streamhist_snapshot_error_bound",
                "DESIGN.md section-7 gather bound on the last snapshot's SSE, evaluated \
                 on the same measured herror inputs as the estimate.",
                labels,
            ),
            error_ratio: registry.float_gauge_with(
                "streamhist_snapshot_error_ratio",
                "sse_estimate / error_bound of the last gathered snapshot (<= 1; 0 when \
                 the bound is 0, i.e. a perfectly representable window).",
                labels,
            ),
        }
    }

    /// Publishes the accuracy audit for one gathered global snapshot.
    ///
    /// `shard_herror_sum` is `G`, the summed per-shard `KernelStats.herror`
    /// captured at each shard's snapshot barrier; `merged_herror` is `H`,
    /// the merge's own `HERROR` over its (bucketized) input. The SSE
    /// estimate composes them as `(√H + √G)²` (triangle inequality in the
    /// L2 norm: the fleet's residual is the shards' residual plus the
    /// merge's). The §7 bound `(√G + √(1+ε)·(√G + √OPT_B))²` is evaluated
    /// with the conservative substitution `OPT_B ≥ H/(1+ε)` (the merge is
    /// exact, `H = OPT_B` of its input, so this holds with room), which
    /// makes
    /// `bound = (√G + √(1+ε)·√G + √H)² ≥ estimate` — the published ratio
    /// is ≤ 1 identically, and strictly below 1 whenever the shards carry
    /// any residual error.
    fn record_audit(&self, shard_herror_sum: f64, merged_herror: f64, eps: f64) {
        let g = shard_herror_sum.max(0.0);
        let h = merged_herror.max(0.0);
        let estimate = (h.sqrt() + g.sqrt()).powi(2);
        let bound = (g.sqrt() + ((1.0 + eps).sqrt() * g.sqrt()) + h.sqrt()).powi(2);
        self.sse_estimate.set(estimate);
        self.error_bound.set(bound);
        self.error_ratio
            .set(if bound > 0.0 { estimate / bound } else { 0.0 });
    }

    fn read(&self) -> MergeMetrics {
        MergeMetrics {
            merges: self.merges.get(),
            merge_buckets_in: self.buckets_in.get(),
            merge_buckets_out: self.buckets_out.get(),
            cache_hits: self.cache_hits.get(),
        }
    }
}

/// The shared lock-free cells behind [`ShardMetrics`]: `streamhist-obs`
/// [`Counter`]/[`Gauge`] handles (`Relaxed` atomics inside). Each counter
/// is independently monotone and reads are statistical unless the shard
/// is quiescent (e.g. after a snapshot barrier), where channel
/// synchronization makes them exact.
///
/// A default instance's cells are private to the fleet. When the fleet is
/// built with [`ShardedFixedWindowBuilder::registry`], the cells are
/// *registered* series (`streamhist_shard_*{fleet, shard}`), so the
/// registry's exposition and the [`ShardMetrics`] view read the exact
/// same atomics — they cannot disagree.
#[derive(Debug, Default)]
struct MetricsInner {
    pushes_accepted: Counter,
    values_rejected: Counter,
    records_dropped: Counter,
    snapshots_served: Counter,
    respawns: Counter,
    checkpoints_taken: Counter,
    checkpoint_bytes: Counter,
    restores: Counter,
    queue_depth: Gauge,
    /// Data commands (`Push`/`PushBatch`) enqueued but not yet applied by
    /// the worker. Producers increment before sending; the worker
    /// decrements with `Release` *after* applying, so a reader that
    /// `Acquire`-loads zero also sees every counter bump those commands
    /// made. The snapshot cache serves a hit only at zero on every shard.
    /// Not exported: `queue_depth` is the operator-facing gauge.
    unapplied: AtomicU64,
    /// Per-fleet latency recorders (queue wait, checkpoint encode,
    /// restore, scatter, gather), present only when the fleet is built
    /// with both a registry and a kernel tracer. Shared by every shard of
    /// the fleet.
    timing: Option<Arc<FleetTiming>>,
}

impl MetricsInner {
    /// Cells registered into `registry` as `streamhist_shard_*` series
    /// labeled `{fleet, shard}`.
    fn registered(registry: &MetricsRegistry, fleet: &str, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels = &[("fleet", fleet), ("shard", shard.as_str())];
        let counter = |name: &str, help: &str| {
            registry.counter_with(&format!("streamhist_shard_{name}"), help, labels)
        };
        Self {
            pushes_accepted: counter(
                "pushes_accepted_total",
                "Values absorbed into the shard's summary.",
            ),
            values_rejected: counter(
                "values_rejected_total",
                "Values rejected as malformed (NaN/infinity).",
            ),
            records_dropped: counter(
                "records_dropped_total",
                "Records shed at enqueue time under OverloadPolicy::DropNewest.",
            ),
            snapshots_served: counter(
                "snapshots_served_total",
                "Snapshot requests the worker has answered.",
            ),
            respawns: counter(
                "respawns_total",
                "Times this shard index has been respawned.",
            ),
            checkpoints_taken: counter(
                "checkpoints_total",
                "Checkpoints taken for this shard index (automatic and explicit).",
            ),
            checkpoint_bytes: counter(
                "checkpoint_bytes_total",
                "Cumulative encoded size of every checkpoint frame taken.",
            ),
            restores: counter(
                "restores_total",
                "Times this shard index has been restored from a checkpoint frame.",
            ),
            queue_depth: registry.gauge_with(
                "streamhist_shard_queue_depth",
                "Commands currently enqueued (or in flight) to the worker.",
                labels,
            ),
            unapplied: AtomicU64::new(0),
            timing: None,
        }
    }

    fn read(&self) -> ShardMetrics {
        ShardMetrics {
            pushes_accepted: self.pushes_accepted.get(),
            values_rejected: self.values_rejected.get(),
            records_dropped: self.records_dropped.get(),
            snapshots_served: self.snapshots_served.get(),
            respawns: self.respawns.get(),
            checkpoints_taken: self.checkpoints_taken.get(),
            checkpoint_bytes: self.checkpoint_bytes.get(),
            restores: self.restores.get(),
            // The gauge can transiently dip below zero in a reader's view
            // (worker decrement racing ahead of a producer's increment);
            // clamp for the unsigned public field.
            queue_depth: usize::try_from(self.queue_depth.get().max(0)).unwrap_or(0),
        }
    }

    /// Wraps a command for a shard queue, stamping the enqueue instant
    /// when queue-wait tracing is live.
    fn envelope(&self, cmd: Cmd) -> Envelope {
        Envelope {
            cmd,
            sent_at: self.timing.as_ref().map(|_| Instant::now()),
        }
    }
}

/// Encodes the worker's current summary into the shard's in-memory
/// checkpoint slot, maintaining the checkpoint metrics, and returns the
/// frame (for callers that also ship it somewhere). The slot outlives
/// individual workers: it is what a dead shard restores from when the
/// fleet has no readable store.
fn checkpoint_now(
    fw: &FixedWindowHistogram,
    metrics: &MetricsInner,
    slot: &Mutex<Vec<u8>>,
) -> Vec<u8> {
    let encode_start = metrics.timing.as_ref().map(|_| Instant::now());
    let frame = fw.encode_checkpoint();
    if let (Some(t), Some(start)) = (&metrics.timing, encode_start) {
        t.checkpoint_encode.record(start.elapsed());
    }
    metrics.checkpoints_taken.inc();
    metrics.checkpoint_bytes.inc_by(frame.len() as u64);
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone_from(&frame);
    frame
}

/// A snapshot reply: the histogram, its kernel stats, and the shard's
/// `pushes_accepted` as read on the worker thread at serve time.
type ShardReply = (Arc<Histogram>, KernelStats, u64);

enum Cmd {
    Push(f64),
    PushBatch(Vec<f64>),
    /// Reply carries the histogram, kernel stats, and the shard's
    /// `pushes_accepted` as read on the worker thread at serve time — the
    /// worker is the counter's only writer, so the count is *exactly* the
    /// number of records inside the returned histogram (the per-shard
    /// generation the global snapshot cache keys by).
    Snapshot(Sender<ShardReply>),
    /// Take a checkpoint right now (after everything queued before it) and
    /// reply with the encoded frame plus the summary's `total_pushed` (the
    /// frame's store sequence number) — the building block of
    /// [`ShardedFixedWindow::checkpoint`] and
    /// [`ShardedFixedWindow::save_to_store`].
    Checkpoint(Sender<(Vec<u8>, u64)>),
    /// Fault injection: the worker panics on receipt (see
    /// [`ShardedFixedWindow::inject_worker_panic`]).
    InjectPanic,
    /// Liveness probe: the worker replies `()` as soon as it dequeues
    /// this, proving the thread is alive *and* draining its queue. The
    /// supervisor's health probe ([`ShardedFixedWindow::ping`]) is built
    /// on it.
    Ping(Sender<()>),
}

/// What actually travels on a shard queue: the command, plus (when the
/// fleet is traced) the instant it was enqueued. An untraced fleet reads
/// no clock: `sent_at` is `None`.
struct Envelope {
    cmd: Cmd,
    sent_at: Option<Instant>,
}

struct Shard {
    sender: SyncSender<Envelope>,
    /// `None` only transiently inside `retire_worker`; every public entry
    /// point sees `Some`.
    handle: Option<JoinHandle<FixedWindowHistogram>>,
    metrics: Arc<MetricsInner>,
    /// The frame of the shard's last checkpoint (see [`checkpoint_now`]).
    checkpoint: Arc<Mutex<Vec<u8>>>,
    /// `pushes_accepted` at the current worker's install minus its seed
    /// summary's `total_pushed`: translates between the cumulative metric
    /// domain (which counts records lost in earlier epochs) and the
    /// summary/WAL `total_pushed` domain. Signed because a store-backed
    /// load into a fresh fleet can seed a summary *larger* than the
    /// metric. Written only under `&mut self` (`install_worker`).
    epoch_offset: i64,
}

/// `K` independent [`FixedWindowHistogram`]s, each owned by a dedicated
/// worker thread and fed through a bounded channel.
///
/// Records are routed by key ([`push`](Self::push)) or addressed to a shard
/// directly ([`push_to`](Self::push_to), [`push_batch`](Self::push_batch)).
/// [`snapshot`](Self::snapshot) round-trips a reply channel and therefore
/// also acts as a barrier for everything sent to that shard before it.
/// Every shard-addressed operation returns `Err(`[`ShardError`]`)` instead
/// of panicking when the worker has died; see the module docs for the full
/// failure model, overload policies, and metrics.
///
/// All ingestion methods take `&self` and the type is `Sync`, so any
/// number of producer threads may push concurrently (per-shard record
/// order is whatever order their sends interleave in).
///
/// # Example
///
/// ```
/// use streamhist_stream::{ShardError, ShardedFixedWindow};
///
/// fn main() -> Result<(), ShardError> {
///     let sharded = ShardedFixedWindow::new(2, 64, 4, 0.1);
///     for i in 0..200u64 {
///         sharded.push(i, (i % 7) as f64)?;
///     }
///     let (hist, stats) = sharded.snapshot(0)?;
///     assert!(hist.num_buckets() <= 4);
///     assert!(stats.herror_evals > 0);
///     assert!(sharded.metrics(0).pushes_accepted > 0);
///     let summaries = sharded.join();
///     assert_eq!(summaries.len(), 2);
///     assert!(summaries.iter().all(Result::is_ok));
///     Ok(())
/// }
/// ```
pub struct ShardedFixedWindow {
    shards: Vec<Shard>,
    capacity: usize,
    b: usize,
    eps: f64,
    options: ShardedOptions,
    /// Rotating start shard for [`push_batch_scatter`](Self::push_batch_scatter),
    /// so successive scattered slabs do not all lead with shard 0.
    scatter_cursor: AtomicUsize,
    /// Generation-keyed cache of the last merged global snapshot, keyed by
    /// [`global_generation`](Self::global_generation).
    global_cache: SnapshotCache,
    merge_metrics: MergeMetricsInner,
    /// The flight recorder fleet-level lifecycle events land in: overload
    /// sheds, degraded gathers, durability uploads, and (via the
    /// supervisor and serve layer, which share this recorder through
    /// [`recorder`](Self::recorder)) death/restart/quarantine transitions
    /// and slow queries. Always present — a fleet built without
    /// [`recorder`](ShardedFixedWindowBuilder::recorder) gets a private
    /// default-capacity ring.
    recorder: Arc<FlightRecorder>,
    /// The kernel tracer worker threads self-install (thread-scoped), when
    /// the fleet was built with
    /// [`kernel_tracer`](ShardedFixedWindowBuilder::kernel_tracer).
    kernel_tracer: Option<Arc<KernelTracer>>,
    /// The durability pipeline, when the fleet was built with
    /// [`durability`](ShardedFixedWindowBuilder::durability). Declared
    /// after `shards` so workers (which hold uploader handles) shut down
    /// before the uploader is joined.
    durability: Option<FleetDurability>,
}

impl ShardedFixedWindow {
    /// Spawns `shards` worker threads, each owning a
    /// `FixedWindowHistogram::new(capacity, b, eps)`, with default
    /// [`ShardedOptions`] (queue of 1024 commands,
    /// [`OverloadPolicy::Block`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or on the parameter conditions of
    /// [`FixedWindowHistogram::new`]. Use [`Self::builder`] for the
    /// non-panicking surface.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, b: usize, eps: f64) -> Self {
        Self::builder(shards, capacity, b, eps)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts a validating builder. [`ShardedOptions`] are folded into the
    /// builder surface ([`queue_capacity`](ShardedFixedWindowBuilder::queue_capacity),
    /// [`policy`](ShardedFixedWindowBuilder::policy)); `build` returns
    /// `Err` instead of panicking on bad parameters.
    #[must_use]
    pub fn builder(
        shards: usize,
        capacity: usize,
        b: usize,
        eps: f64,
    ) -> ShardedFixedWindowBuilder {
        ShardedFixedWindowBuilder {
            shards,
            capacity,
            b,
            eps,
            options: ShardedOptions::default(),
            registry: None,
            fleet: None,
            durability: None,
            recorder: None,
            kernel_tracer: None,
        }
    }

    /// Spawns one worker owning `fw` (a fresh, drained, or
    /// checkpoint-restored summary — the caller decides). The worker
    /// auto-checkpoints into `slot` every
    /// [`checkpoint_interval`](ShardedOptions::checkpoint_interval)
    /// accepted records; with durability configured (`wal` is `Some`) it
    /// additionally logs every accepted record to the WAL and ships each
    /// of those frames to the store.
    fn spawn_worker(
        &self,
        mut fw: FixedWindowHistogram,
        metrics: Arc<MetricsInner>,
        slot: Arc<Mutex<Vec<u8>>>,
        mut wal: Option<ShardWal>,
    ) -> (SyncSender<Envelope>, JoinHandle<FixedWindowHistogram>) {
        let interval = self.options.checkpoint_interval;
        let (tx, rx) = sync_channel::<Envelope>(self.options.queue_capacity);
        let tracer = self.kernel_tracer.clone();
        let handle = std::thread::spawn(move || {
            // The worker self-installs the fleet's kernel tracer as its
            // thread-scoped tracer: every kernel hook this thread fires
            // reports to the fleet's registry, with no process-global
            // state involved.
            crate::telemetry::set_thread_kernel_tracer(tracer);
            let mut since_checkpoint = 0usize;
            while let Ok(env) = rx.recv() {
                metrics.queue_depth.dec();
                let data = matches!(env.cmd, Cmd::Push(_) | Cmd::PushBatch(_));
                if let (Some(t), Some(sent_at)) = (&metrics.timing, env.sent_at) {
                    t.queue_wait.record(sent_at.elapsed());
                }
                match env.cmd {
                    Cmd::Push(v) => match fw.try_push(v) {
                        Ok(()) => {
                            metrics.pushes_accepted.inc();
                            since_checkpoint += 1;
                            if let Some(w) = wal.as_mut() {
                                w.record(v);
                            }
                        }
                        Err(_) => {
                            metrics.values_rejected.inc();
                        }
                    },
                    Cmd::PushBatch(vs) => {
                        // The slab fast path: one prefix-store write pass
                        // per run of finite values, interval work deferred
                        // to the next snapshot, exact reject accounting.
                        let out = fw.push_batch(&vs);
                        if out.accepted > 0 {
                            metrics.pushes_accepted.inc_by(out.accepted as u64);
                            since_checkpoint += out.accepted;
                            if let Some(w) = wal.as_mut() {
                                // The WAL logs exactly what the summary
                                // accepted: the finite values, in order.
                                w.record_batch(&vs);
                            }
                        }
                        if out.rejected > 0 {
                            metrics.values_rejected.inc_by(out.rejected as u64);
                        }
                    }
                    Cmd::Snapshot(reply) => {
                        metrics.snapshots_served.inc();
                        let (h, stats) = fw.histogram_with_stats();
                        // A dropped reply receiver just means the
                        // requester stopped waiting.
                        let _ = reply.send((h, stats, metrics.pushes_accepted.get()));
                    }
                    Cmd::Checkpoint(reply) => {
                        let frame = checkpoint_now(&fw, &metrics, &slot);
                        since_checkpoint = 0;
                        if let Some(w) = wal.as_mut() {
                            w.on_frame(fw.total_pushed(), frame.clone());
                        }
                        let _ = reply.send((frame, fw.total_pushed()));
                    }
                    Cmd::InjectPanic => panic!("injected shard worker panic (fault injection)"),
                    Cmd::Ping(reply) => {
                        // A dropped reply receiver means the prober gave
                        // up waiting; the worker is fine either way.
                        let _ = reply.send(());
                    }
                }
                if data {
                    metrics.unapplied.fetch_sub(1, Ordering::Release);
                }
                if since_checkpoint >= interval {
                    let frame = checkpoint_now(&fw, &metrics, &slot);
                    since_checkpoint = 0;
                    if let Some(w) = wal.as_mut() {
                        w.on_frame(fw.total_pushed(), frame);
                    }
                }
            }
            // Channel closed: hand the summary back to `join`/`respawn`.
            fw
        });
        (tx, handle)
    }

    /// A fresh, empty per-shard summary with this fleet's configuration.
    fn fresh_summary(&self) -> FixedWindowHistogram {
        FixedWindowHistogram::new(self.capacity, self.b, self.eps)
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The ingestion options in effect.
    #[must_use]
    pub fn options(&self) -> &ShardedOptions {
        &self.options
    }

    /// The fleet's [`FlightRecorder`] — the shared ring its lifecycle
    /// events land in. Clone the `Arc` into anything that should read or
    /// co-write the same timeline (supervisor, serve layer, admin
    /// endpoints).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The shard a key routes to (Fibonacci hash of the key, so adjacent
    /// keys spread across shards).
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (mixed % self.shards.len() as u64) as usize
    }

    /// Enqueues a data command, maintaining the depth gauge and the
    /// unapplied count and applying the overload policy (`records` is what
    /// `records_dropped` grows by if the command is shed).
    fn send(&self, shard: usize, cmd: Cmd, records: u64) -> Result<(), ShardError> {
        let s = &self.shards[shard];
        let env = s.metrics.envelope(cmd);
        // Increment before the send so the worker's decrement (which can
        // race ahead of this thread the instant the send lands) never
        // drives the counts negative for long.
        s.metrics.queue_depth.inc();
        s.metrics.unapplied.fetch_add(1, Ordering::Relaxed);
        let undeliverable = match self.options.policy {
            OverloadPolicy::Block => s.sender.send(env).is_err(),
            OverloadPolicy::DropNewest => match s.sender.try_send(env) {
                Ok(()) => false,
                Err(TrySendError::Full(_)) => {
                    s.metrics.queue_depth.dec();
                    s.metrics.unapplied.fetch_sub(1, Ordering::Relaxed);
                    // Log-sampled flight-recorder event: one record per
                    // power-of-two cumulative drop count, so a sustained
                    // overload cannot flood the ring while the first shed
                    // and every doubling are still on the timeline. The
                    // counter has concurrent writers, so a racing producer
                    // may claim the same power twice — acceptable for a
                    // sampled signal (the exact total is the counter).
                    let before = s.metrics.records_dropped.get();
                    s.metrics.records_dropped.inc_by(records);
                    let after = before.saturating_add(records);
                    let next_pow = before
                        .checked_add(1)
                        .map_or(u64::MAX, u64::next_power_of_two);
                    if next_pow <= after {
                        self.recorder.record(EventKind::Overloaded {
                            shard: Some(shard),
                            dropped: after,
                        });
                    }
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => true,
            },
        };
        if undeliverable {
            s.metrics.queue_depth.dec();
            s.metrics.unapplied.fetch_sub(1, Ordering::Relaxed);
            return Err(ShardError { shard });
        }
        Ok(())
    }

    /// Routes one record to its key's shard, blocking or shedding per the
    /// overload policy.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the target worker has died.
    pub fn push(&self, key: u64, v: f64) -> Result<(), ShardError> {
        self.push_to(self.shard_of(key), v)
    }

    /// Pushes one record to an explicit shard, blocking or shedding per
    /// the overload policy.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (an addressing bug, not a runtime
    /// condition).
    pub fn push_to(&self, shard: usize, v: f64) -> Result<(), ShardError> {
        self.send(shard, Cmd::Push(v), 1)
    }

    /// Pushes a batch of records to an explicit shard in order (one
    /// channel send and one queue slot — the preferred high-throughput
    /// entry point). Under [`OverloadPolicy::DropNewest`] a full queue
    /// sheds the *whole batch*, counting `values.len()` dropped records.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn push_batch(&self, shard: usize, values: Vec<f64>) -> Result<(), ShardError> {
        let records = values.len() as u64;
        if records == 0 {
            // An empty batch is a no-op and should not occupy a queue slot,
            // but an out-of-range shard is still an addressing bug.
            assert!(shard < self.shards.len(), "shard {shard} out of range");
            return Ok(());
        }
        self.send(shard, Cmd::PushBatch(values), records)
    }

    /// Scatters one slab across *all* shards: the slab is split into
    /// contiguous chunks of at most `min(⌈len / shards()⌉, 16)` records,
    /// chunk `i` going to shard `(cursor + i) % shards()` where `cursor`
    /// rotates per call so load spreads evenly across calls. Small slabs
    /// produce one chunk per shard; large slabs wrap round-robin, so every
    /// shard receives several pipeline-sized chunks instead of one
    /// monolithic slice (the monolithic split serialized the fleet behind
    /// its slowest worker). Each chunk is a single channel send (one queue
    /// slot), and because a shard's chunks are sub-slices dispatched in
    /// slab order, per-shard record order is preserved.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShardError`] hit. **Every** chunk addressed to a
    /// healthy shard is still dispatched — a dead shard in the rotation no
    /// longer silently starves the chunks that would have followed it — so
    /// the error means exactly "the chunks for the named shard (and any
    /// other dead shard) were lost", never "dispatch stopped midway" (the
    /// slab is a transport unit, not a transaction — mirroring
    /// [`BatchOutcome`](streamhist_core::BatchOutcome) semantics at the
    /// shard level).
    pub fn push_batch_scatter(&self, values: &[f64]) -> Result<(), ShardError> {
        if values.is_empty() {
            return Ok(());
        }
        let k = self.shards.len();
        let scatter_start = self.shards[0]
            .metrics
            .timing
            .as_ref()
            .map(|t| (Arc::clone(t), Instant::now()));
        let start = self.scatter_cursor.fetch_add(1, Ordering::Relaxed);
        let chunk = values.len().div_ceil(k).min(SCATTER_CHUNK_MAX);
        let mut first_err = None;
        for (i, slab) in values.chunks(chunk).enumerate() {
            if let Err(e) = self.push_batch((start + i) % k, slab.to_vec()) {
                first_err.get_or_insert(e);
            }
        }
        if let Some((t, at)) = scatter_start {
            t.scatter.record(at.elapsed());
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Materializes shard `shard`'s current histogram (with kernel stats),
    /// after everything previously enqueued to that shard has been
    /// absorbed — a per-shard barrier. The snapshot request always uses a
    /// blocking send (it is control plane, never shed), even under
    /// [`OverloadPolicy::DropNewest`].
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died (including death
    /// after the request was enqueued but before it was answered).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn snapshot(&self, shard: usize) -> Result<(Arc<Histogram>, KernelStats), ShardError> {
        self.request_snapshot(shard)
            .and_then(|reply| reply.recv().map_err(|_| ShardError { shard }))
            .map(|(h, stats, _)| (h, stats))
    }

    /// Enqueues a snapshot request on shard `shard` and returns the reply
    /// channel without waiting. The reply carries the histogram, its
    /// kernel stats, and the shard's accepted-record count as observed by
    /// the worker at serve time (exactly the records inside the
    /// histogram).
    fn request_snapshot(&self, shard: usize) -> Result<Receiver<ShardReply>, ShardError> {
        let (reply_tx, reply_rx) = channel();
        self.send_control(shard, Cmd::Snapshot(reply_tx))?;
        Ok(reply_rx)
    }

    /// Enqueues a control command (never shed, whatever the overload
    /// policy), maintaining the depth gauge.
    fn send_control(&self, shard: usize, cmd: Cmd) -> Result<(), ShardError> {
        let s = &self.shards[shard];
        let env = s.metrics.envelope(cmd);
        s.metrics.queue_depth.inc();
        if s.sender.send(env).is_err() {
            s.metrics.queue_depth.dec();
            return Err(ShardError { shard });
        }
        Ok(())
    }

    /// The concurrent scatter behind every multi-shard snapshot: sends
    /// each shard its snapshot request first, so all workers build at
    /// once, then yields the replies lazily in shard order. A gather
    /// costs about the slowest shard's build, not the sum. Dropping the
    /// iterator early abandons the remaining replies; their workers still
    /// serve the request (and leave their queue depth at zero), the reply
    /// just goes nowhere.
    fn scatter_snapshots(&self) -> impl Iterator<Item = Result<ShardReply, ShardError>> + '_ {
        let pending: Vec<_> = (0..self.shards())
            .map(|shard| self.request_snapshot(shard))
            .collect();
        pending
            .into_iter()
            .enumerate()
            .map(|(shard, reply)| reply.and_then(|rx| rx.recv().map_err(|_| ShardError { shard })))
    }

    /// Snapshots every shard concurrently, returned in shard order. Dead
    /// shards yield their `Err` entry without disturbing the others.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<Result<(Arc<Histogram>, KernelStats), ShardError>> {
        self.scatter_snapshots()
            .map(|reply| reply.map(|(h, stats, _)| (h, stats)))
            .collect()
    }

    /// Liveness probe: `true` iff the shard's worker dequeued and answered
    /// a ping within `timeout`.
    ///
    /// The probe never blocks on a full queue: a full-but-connected queue
    /// reports *live* immediately (the worker exists and is backpressured
    /// — restarting it would destroy queued records), while a
    /// disconnected queue (the worker's receiver is dropped, full or not)
    /// reports dead without waiting. Between those, the worker must drain
    /// to the ping within `timeout`, so a wedged-but-alive thread
    /// eventually reads as dead to its supervisor.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn ping(&self, shard: usize, timeout: Duration) -> bool {
        let s = &self.shards[shard];
        let (reply_tx, reply_rx) = channel();
        let env = s.metrics.envelope(Cmd::Ping(reply_tx));
        s.metrics.queue_depth.inc();
        match s.sender.try_send(env) {
            Ok(()) => reply_rx.recv_timeout(timeout).is_ok(),
            Err(TrySendError::Full(_)) => {
                s.metrics.queue_depth.dec();
                true
            }
            Err(TrySendError::Disconnected(_)) => {
                s.metrics.queue_depth.dec();
                false
            }
        }
    }

    /// The generation key of the fleet's current logical state: total
    /// records absorbed plus every respawn and restore event (a respawn
    /// can *lose* records and a restore can *rewind* them without moving
    /// `pushes_accepted`, so both must perturb the key).
    fn global_generation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.metrics
                    .pushes_accepted
                    .get()
                    .wrapping_add(s.metrics.respawns.get())
                    .wrapping_add(s.metrics.restores.get())
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// Respawn/restore perturbation shared by [`global_generation`]
    /// (live-counter view) and the gather (worker-reported view); these
    /// events require `&mut self`, so they cannot race either reader.
    fn epoch_perturbation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.metrics
                    .respawns
                    .get()
                    .wrapping_add(s.metrics.restores.get())
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// Gathers every shard into one fleet-global `B`-bucket histogram: a
    /// scatter/gather snapshot of everything the fleet currently holds,
    /// with the shard windows concatenated in shard order.
    ///
    /// Every shard is sent its snapshot request before any reply is
    /// awaited, so the shards build concurrently; each request is a
    /// barrier for that shard (everything enqueued to it before this call
    /// is absorbed first). The gathered parts are then merged in one flat
    /// [`merge_histograms`] call, which returns the exact V-optimal
    /// `B`-histogram of their concatenation. The result is cached under
    /// the fleet's state generation: calling again with no record
    /// enqueued or absorbed since, and no respawn or restore, returns the
    /// same [`Arc`] without any cross-shard traffic. A hit requires every
    /// shard's queue to hold no unapplied `push`/`push_batch`, so a
    /// snapshot taken after an acknowledged ingest call always includes
    /// that ingest. The returned [`KernelStats`] are the merge's.
    ///
    /// The merged histogram obeys the DESIGN.md §7 gather bound:
    /// `√SSE ≤ √G + √(1+ε)·(√G + √OPT_B)` over the concatenated fleet
    /// window, where `G` is the summed per-shard SSE.
    ///
    /// # Errors
    ///
    /// Returns the lowest dead shard's [`ShardError`] if any worker has
    /// died — a global snapshot is all shards or nothing (respawn the
    /// dead shard first).
    pub fn snapshot_global(&self) -> Result<(Arc<Histogram>, KernelStats), ShardError> {
        // Hit path: no shard holds an unapplied data command, and the live
        // counters still sum to the cached build's key, so nothing has
        // been enqueued, absorbed, respawned or restored since that build
        // — it is current, serve it without touching a shard. The
        // `Acquire` loads pair with the workers' `Release` decrements and
        // come first, so the counter reads below see every record the
        // drained commands carried.
        let drained = self
            .shards
            .iter()
            .all(|s| s.metrics.unapplied.load(Ordering::Acquire) == 0);
        if drained {
            if let Some(hit) = self.global_cache.try_get(self.global_generation()) {
                self.merge_metrics.cache_hits.inc();
                return Ok(hit);
            }
        }
        let merge_start = self.shards[0]
            .metrics
            .timing
            .as_ref()
            .map(|t| (Arc::clone(t), Instant::now()));
        // The cache key uses the worker-reported accepted counts, read on
        // each worker thread at the instant it served its snapshot: the
        // key describes exactly the records inside the gathered parts,
        // even while producers race this gather (records absorbed after a
        // shard's snapshot bump the live counters, so the next call
        // misses and regathers — the cache can serve newer-than-key data
        // never staler).
        let mut generation = self.epoch_perturbation();
        let mut shard_herror_sum = 0.0f64;
        let snaps = self
            .scatter_snapshots()
            .map(|reply| {
                reply.map(|(h, stats, gen)| {
                    generation = generation.wrapping_add(gen);
                    // `G` of the §7 gather bound: the summed per-shard
                    // residual, captured at each shard's barrier.
                    shard_herror_sum += stats.herror;
                    h
                })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let parts: Vec<&Histogram> = snaps.iter().map(AsRef::as_ref).collect();
        let built = self.gather(&parts);
        self.merge_metrics
            .record_audit(shard_herror_sum, built.1.herror, self.eps);
        if let Some((t, at)) = merge_start {
            t.merge.record(at.elapsed());
        }
        Ok(self.global_cache.get_or_build(generation, || built))
    }

    /// [`snapshot_global`](Self::snapshot_global) with an explicit
    /// dead-shard policy, returning the gathered histogram *plus* an exact
    /// [`Coverage`] report.
    ///
    /// Under [`SnapshotPolicy::Strict`] this is `snapshot_global` (cached,
    /// all shards or nothing) with a complete coverage report whose record
    /// counts are the live accepted counters at call time.
    ///
    /// Under [`SnapshotPolicy::Degraded`] the gather runs the same
    /// concurrent scatter, skips the shards whose workers are dead, and
    /// merges the rest. `records_represented` sums the included shards'
    /// worker-reported counts (read at each shard's snapshot barrier);
    /// `records_total` adds the excluded shards' last counter values — a
    /// dead worker's counter is exact, it has no writer left. The degraded
    /// path never touches the snapshot cache (a partial gather must not be
    /// served later as a complete one, and must not evict a complete one).
    ///
    /// # Errors
    ///
    /// Strict: the first dead shard's [`ShardError`]. Degraded: the first
    /// *excluded* shard's [`ShardError`] when no shard answered or the
    /// covered record fraction is below `min_coverage`.
    pub fn snapshot_global_with(
        &self,
        policy: SnapshotPolicy,
    ) -> Result<(Arc<Histogram>, KernelStats, Coverage), ShardError> {
        let min_coverage = match policy {
            SnapshotPolicy::Strict => {
                let (hist, stats) = self.snapshot_global()?;
                let records = self
                    .shards
                    .iter()
                    .map(|s| s.metrics.pushes_accepted.get())
                    .sum();
                let coverage = Coverage {
                    shards_included: self.shards(),
                    shards_total: self.shards(),
                    records_represented: records,
                    records_total: records,
                };
                return Ok((hist, stats, coverage));
            }
            SnapshotPolicy::Degraded { min_coverage } => min_coverage.clamp(0.0, 1.0),
        };
        let mut snaps: Vec<Arc<Histogram>> = Vec::with_capacity(self.shards());
        let mut coverage = Coverage {
            shards_included: 0,
            shards_total: self.shards(),
            records_represented: 0,
            records_total: 0,
        };
        let mut first_excluded: Option<usize> = None;
        let mut shard_herror_sum = 0.0f64;
        for (shard, reply) in self.scatter_snapshots().enumerate() {
            match reply {
                Ok((h, stats, gen)) => {
                    coverage.shards_included += 1;
                    coverage.records_represented += gen;
                    coverage.records_total += gen;
                    shard_herror_sum += stats.herror;
                    snaps.push(h);
                }
                Err(_) => {
                    coverage.records_total += self.shards[shard].metrics.pushes_accepted.get();
                    if first_excluded.is_none() {
                        first_excluded = Some(shard);
                    }
                }
            }
        }
        if let Some(shard) = first_excluded {
            if coverage.shards_included == 0 || coverage.fraction() < min_coverage {
                return Err(ShardError { shard });
            }
        }
        if coverage.shards_included < coverage.shards_total {
            // Flight-record every *served* partial gather (refused ones
            // surface as the error above): readers of the snapshot need
            // to know it under-represents the fleet.
            self.recorder.record(EventKind::SnapshotDegraded {
                shards_included: coverage.shards_included,
                shards_total: coverage.shards_total,
            });
        }
        let parts: Vec<&Histogram> = snaps.iter().map(AsRef::as_ref).collect();
        let (hist, stats) = self.gather(&parts);
        self.merge_metrics
            .record_audit(shard_herror_sum, stats.herror, self.eps);
        Ok((Arc::new(hist), stats, coverage))
    }

    /// Merges the gathered per-shard parts down to `B` buckets, with
    /// bucket-flow accounting.
    fn gather(&self, parts: &[&Histogram]) -> (Histogram, KernelStats) {
        self.merge_metrics.merges.inc();
        self.merge_metrics
            .buckets_in
            .inc_by(parts.iter().map(|h| h.num_buckets() as u64).sum());
        let (h, stats) = merge_histograms(parts, self.b, self.eps)
            .expect("fleet histogram parameters were validated at build time");
        self.merge_metrics
            .buckets_out
            .inc_by(h.num_buckets() as u64);
        (h, stats)
    }

    /// Point-in-time copy of the fleet's gather/merge counters.
    #[must_use]
    pub fn merge_metrics(&self) -> MergeMetrics {
        self.merge_metrics.read()
    }

    /// Point-in-time metrics for one shard, read directly from shared
    /// atomics — no barrier, no channel round-trip, works on dead shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn metrics(&self, shard: usize) -> ShardMetrics {
        self.shards[shard].metrics.read()
    }

    /// Metrics for every shard, in shard order.
    #[must_use]
    pub fn metrics_all(&self) -> Vec<ShardMetrics> {
        self.shards.iter().map(|s| s.metrics.read()).collect()
    }

    /// Fault injection for resilience testing: makes the shard's worker
    /// panic when it dequeues this command, simulating an in-worker bug.
    /// Commands already queued ahead of it are still processed; commands
    /// behind it are lost with the worker.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker is already dead.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_worker_panic(&self, shard: usize) -> Result<(), ShardError> {
        self.send_control(shard, Cmd::InjectPanic)
    }

    /// Closes shard `shard`'s channel and joins its worker: `Some(summary)`
    /// if the worker was alive (it drains every queued command first),
    /// `None` if it had died (stranded commands are discarded). Leaves the
    /// shard without a worker — callers must follow with `install_worker`.
    fn retire_worker(&mut self, shard: usize) -> Option<FixedWindowHistogram> {
        // A dummy disconnected sender stands in so the real one can be
        // dropped (closing the queue) before the join. Nothing can race the
        // stand-in: `&mut self` is exclusive.
        let (dummy_tx, _) = sync_channel::<Envelope>(1);
        drop(std::mem::replace(&mut self.shards[shard].sender, dummy_tx));
        let handle = self.shards[shard]
            .handle
            .take()
            .expect("retire_worker called twice without install_worker");
        handle.join().ok()
    }

    /// Spawns a replacement worker on shard `shard` seeded with `seed`.
    ///
    /// This is the one place a worker starts from a known state, so it is
    /// also where that state becomes the shard's recovery anchor: the seed
    /// is encoded into the in-memory slot and, on a durable fleet, put to
    /// the store at `seq = total_pushed` (the uploader then truncates
    /// everything else of the shard's: superseded frames and segments, and
    /// stale higher-sequence objects from before a rewinding load) before
    /// the call returns. Loss accounting and the queue gauges restart with
    /// the new worker.
    fn install_worker(&mut self, shard: usize, seed: FixedWindowHistogram) {
        let frame = seed.encode_checkpoint();
        let seq = seed.total_pushed();
        if let Some(d) = &self.durability {
            // Enqueued before the new worker exists, so every segment it
            // cuts lands after the anchor's truncate.
            let uploader = d.handle();
            uploader.send_frame(shard, seq, frame.clone());
            uploader.flush();
        }
        let metrics = Arc::clone(&self.shards[shard].metrics);
        let slot = Arc::clone(&self.shards[shard].checkpoint);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = frame;
        // Re-anchor the metric-domain ↔ summary-domain translation: from
        // here on, `accepted - (epoch_offset + total_pushed)` counts
        // exactly the records accepted by dead workers and never made
        // durable.
        #[allow(clippy::cast_possible_wrap)]
        {
            self.shards[shard].epoch_offset = metrics.pushes_accepted.get() as i64 - seq as i64;
        }
        let wal = self.shard_wal(shard, seq);
        let (sender, handle) = self.spawn_worker(seed, Arc::clone(&metrics), slot, wal);
        self.shards[shard].sender = sender;
        self.shards[shard].handle = Some(handle);
        metrics.queue_depth.set(0);
        metrics.unapplied.store(0, Ordering::Relaxed);
    }

    /// A fresh per-shard WAL buffer starting at sequence `base`, or `None`
    /// when the fleet has no durability pipeline.
    fn shard_wal(&self, shard: usize, base: u64) -> Option<ShardWal> {
        self.durability.as_ref().map(|d| d.shard_wal(shard, base))
    }

    /// Replaces shard `shard`'s worker, restoring service on that index
    /// after a worker death — the fleet degrades gracefully instead of
    /// cascading panics.
    ///
    /// The old worker's channel is closed first. One rule picks the
    /// replacement's seed: a still-live worker drains every queued command
    /// and hands over its final summary (a **lossless handoff**); a dead
    /// one is replaced from the newest readable recovery point — the
    /// durable store (newest frame plus WAL replay), else the in-memory
    /// checkpoint slot, else an empty summary. The report is computed the
    /// same way for all of them: `restored_len` is the seed's
    /// `total_pushed`, and `lost_since_checkpoint` is every record the
    /// shard accepted in this worker epoch that the seed does not hold (0
    /// for a handoff). Cumulative metrics survive; `queue_depth` is reset
    /// for the new (empty) queue, `respawns` increments, and `restores`
    /// increments when a recovery point was decoded. The seed becomes the
    /// shard's recovery anchor, in the store too (see DESIGN.md §5.3).
    ///
    /// Takes `&mut self`, so producers (which hold `&self`) can never race
    /// a respawn — wrap the whole value in an `RwLock` to respawn while
    /// producers are live (see `tests/sharded_stress.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn respawn_shard(&mut self, shard: usize) -> RecoveryReport {
        let seed = match self.retire_worker(shard) {
            Some(fw) => fw,
            None => self.recover_dead(shard),
        };
        // Read the counter only after the join in `retire_worker`: a dying
        // worker can still accept queued records right up to its death,
        // so any earlier read would undercount the loss.
        let s = &self.shards[shard];
        let restored_len = seed.total_pushed();
        #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
        let lost = (s.metrics.pushes_accepted.get() as i64 - (s.epoch_offset + restored_len as i64))
            .max(0) as u64;
        s.metrics.respawns.inc();
        self.install_worker(shard, seed);
        RecoveryReport {
            restored_len,
            lost_since_checkpoint: lost,
        }
    }

    /// A dead shard's newest readable recovery point: the durable store
    /// (flushed first, so every WAL segment the dead worker enqueued is
    /// in it), else the in-memory slot, else an empty summary.
    fn recover_dead(&self, shard: usize) -> FixedWindowHistogram {
        let metrics = &self.shards[shard].metrics;
        self.flush_wal();
        let restore_start = metrics.timing.as_ref().map(|_| Instant::now());
        let recovered = self
            .durability
            .as_ref()
            .and_then(|d| {
                recover_shard(d.options.store.as_ref(), shard, &d.metrics.retries, || {
                    self.fresh_summary()
                })
                .ok()
            })
            .or_else(|| {
                let slot = self.shards[shard].checkpoint.lock();
                FixedWindowHistogram::restore(&slot.unwrap_or_else(PoisonError::into_inner)).ok()
            });
        if let (Some(t), Some(start)) = (&metrics.timing, restore_start) {
            t.restore.record(start.elapsed());
        }
        if recovered.is_some() {
            metrics.restores.inc();
        }
        recovered.unwrap_or_else(|| self.fresh_summary())
    }

    /// Sends every shard a checkpoint request and waits for each reply: a
    /// per-shard barrier, like [`snapshot`](Self::snapshot), after which
    /// every shard's in-memory slot holds the returned frame (and a
    /// durable fleet's uploader has the frame queued). Returns each
    /// shard's `(frame, total_pushed)`, in shard order.
    fn checkpoint_barrier(&self) -> io::Result<Vec<(Vec<u8>, u64)>> {
        (0..self.shards())
            .map(|shard| {
                let (reply_tx, reply_rx) = channel();
                self.send_control(shard, Cmd::Checkpoint(reply_tx))
                    .map_err(io::Error::other)?;
                reply_rx
                    .recv()
                    .map_err(|_| io::Error::other(ShardError { shard }))
            })
            .collect()
    }

    /// Refreshes every shard's recovery point now, behind a per-shard
    /// barrier: each shard checkpoints its summary into its in-memory
    /// slot and, on a durable fleet, into the store (the frame supersedes
    /// the WAL before it, which the uploader truncates). Returns once
    /// those uploads have landed, with the total frame bytes taken — the
    /// `checkpoint_all` admin verb's answer.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] wrapping [`ShardError`] if a worker has died
    /// (checkpoint the healthy shards by respawning the dead one first).
    pub fn checkpoint(&self) -> io::Result<u64> {
        let frames = self.checkpoint_barrier()?;
        self.flush_wal();
        Ok(frames.iter().map(|(frame, _)| frame.len() as u64).sum())
    }

    /// Saves every shard's current summary into `store` as one checkpoint
    /// frame per shard, each taken behind the same per-shard barrier as
    /// [`checkpoint`](Self::checkpoint), then truncates each shard's
    /// objects to the saved frame (the frame supersedes the log). A later
    /// [`load_from_store`](Self::load_from_store) picks up exactly these
    /// frames; [`DirStore`](streamhist_core::DirStore) puts them in files.
    /// Returns the total frame bytes written.
    ///
    /// `store` must not be this fleet's own durable store: the truncate
    /// here is synchronous, and could delete segments the uploader has
    /// just put. Use [`checkpoint`](Self::checkpoint) for that.
    ///
    /// # Errors
    ///
    /// [`io::Error`] wrapping [`ShardError`] if a worker has died, or
    /// wrapping the [`StoreError`](streamhist_core::StoreError) if the
    /// store rejects a write.
    pub fn save_to_store(&self, store: &dyn CheckpointStore) -> io::Result<u64> {
        let mut written = 0u64;
        for (shard, (frame, seq)) in self.checkpoint_barrier()?.into_iter().enumerate() {
            store
                .put_frame(shard, seq, &frame)
                .map_err(io::Error::other)?;
            store.truncate(shard, seq).map_err(io::Error::other)?;
            written += frame.len() as u64;
        }
        Ok(written)
    }

    /// Rebuilds every shard from `store`: newest checkpoint frame plus WAL
    /// replay per shard, via the same recovery path a durability-enabled
    /// fleet uses after a crash ([`respawn_shard`](Self::respawn_shard)).
    /// A shard with no objects in the store restarts empty. The load is
    /// all-or-nothing: every shard's state is recovered and validated
    /// before any worker is replaced, so a corrupt store leaves the fleet
    /// untouched. Each loaded state becomes its shard's recovery anchor,
    /// in this fleet's own store too, before the call returns. Each
    /// shard's `restores` counter increments.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] wrapping the
    /// [`StoreError`](streamhist_core::StoreError) if a frame or WAL
    /// segment fails validation or the store cannot be read, or if it
    /// holds objects for a shard index this fleet does not have (a save
    /// from a larger fleet, whose extra shards would be silently dropped).
    pub fn load_from_store(&mut self, store: &dyn CheckpointStore) -> io::Result<()> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let retries = self
            .durability
            .as_ref()
            .map(|d| d.metrics.retries.clone())
            .unwrap_or_default();
        let beyond = with_retry(&retries, 0, || store.list(self.shards()))
            .map_err(|e| invalid(e.to_string()))?;
        if !beyond.is_empty() {
            return Err(invalid(format!(
                "store holds objects for shard {}, beyond this {}-shard fleet",
                self.shards(),
                self.shards()
            )));
        }
        let recovered = (0..self.shards())
            .map(|shard| {
                recover_shard(store, shard, &retries, || self.fresh_summary())
                    .map_err(|e| invalid(e.to_string()))
            })
            .collect::<io::Result<Vec<_>>>()?;
        for (shard, fw) in recovered.into_iter().enumerate() {
            let _ = self.retire_worker(shard);
            self.install_worker(shard, fw);
            self.shards[shard].metrics.restores.inc();
        }
        Ok(())
    }

    /// The fleet's durability status: WAL/frame counters, checkpoint
    /// amplification, uploader retry/failure totals, and the configured
    /// knobs. A fleet built without
    /// [`durability`](ShardedFixedWindowBuilder::durability) reports the
    /// all-zero default with `enabled == false`.
    #[must_use]
    pub fn wal_status(&self) -> WalStatus {
        self.durability
            .as_ref()
            .map_or_else(WalStatus::default, |d| {
                d.metrics
                    .status(&d.options, self.options.checkpoint_interval)
            })
    }

    /// Blocks until every durability upload enqueued so far has been
    /// written to the store (a WAL barrier). No-op without durability.
    pub fn flush_wal(&self) {
        if let Some(d) = &self.durability {
            d.flush();
        }
    }

    /// Shuts the workers down and returns the shard summaries, in shard
    /// order — possible precisely because [`FixedWindowHistogram`] is
    /// `Send`. A shard whose worker died yields `Err(`[`ShardError`]`)`
    /// in its slot; the others are unaffected.
    #[must_use]
    pub fn join(self) -> Vec<Result<FixedWindowHistogram, ShardError>> {
        self.shards
            .into_iter()
            .enumerate()
            .map(|(shard, s)| {
                drop(s.sender);
                s.handle
                    .ok_or(ShardError { shard })
                    .and_then(|h| h.join().map_err(|_| ShardError { shard }))
            })
            .collect()
    }
}

/// Validating builder for [`ShardedFixedWindow`], folding the
/// [`ShardedOptions`] knobs into the same surface as the per-summary
/// builders.
#[derive(Debug, Clone)]
pub struct ShardedFixedWindowBuilder {
    shards: usize,
    capacity: usize,
    b: usize,
    eps: f64,
    options: ShardedOptions,
    registry: Option<Arc<MetricsRegistry>>,
    fleet: Option<String>,
    durability: Option<DurabilityOptions>,
    recorder: Option<Arc<FlightRecorder>>,
    kernel_tracer: Option<Arc<KernelTracer>>,
}

impl ShardedFixedWindowBuilder {
    /// Attaches a metrics registry: every shard's [`ShardMetrics`]
    /// counters become registered `streamhist_shard_*{fleet, shard}`
    /// series backed by the *same* cells the [`ShardMetrics`] view reads,
    /// so `registry.text_exposition()` reconciles with
    /// [`ShardedFixedWindow::metrics_all`] exactly. Together with
    /// [`kernel_tracer`](Self::kernel_tracer) this also registers the
    /// fleet's latency summaries (queue wait, checkpoint encode, restore,
    /// scatter dispatch, gather).
    #[must_use]
    pub fn registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the `fleet` label value used for this fleet's registered
    /// series. Defaults to a process-unique `fleet<N>` so two fleets
    /// sharing a registry never write to each other's cells.
    #[must_use]
    pub fn fleet_label(mut self, fleet: impl Into<String>) -> Self {
        self.fleet = Some(fleet.into());
        self
    }
    /// Overrides the per-shard command queue bound (default 1024).
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.options.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the overload policy (default [`OverloadPolicy::Block`]).
    #[must_use]
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.options.policy = policy;
        self
    }

    /// Overrides the auto-checkpoint interval: a shard checkpoints itself
    /// after every `checkpoint_interval` accepted records (default 1024),
    /// into its in-memory slot and, with
    /// [`durability`](Self::durability), into the store.
    #[must_use]
    pub fn checkpoint_interval(mut self, checkpoint_interval: usize) -> Self {
        self.options.checkpoint_interval = checkpoint_interval;
        self
    }

    /// Attaches a shared [`FlightRecorder`]: the fleet's lifecycle events
    /// (overload sheds, degraded gathers, durability uploads and retries)
    /// land in this ring, and anything holding the same `Arc` — the
    /// supervisor, the serve layer, an admin endpoint — reads them back
    /// in sequence order. Without this the fleet still records into a
    /// private default-capacity ring reachable via
    /// [`ShardedFixedWindow::recorder`].
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a [`KernelTracer`] that every worker thread self-installs
    /// as its thread-scoped tracer (see
    /// [`telemetry::set_thread_kernel_tracer`](crate::telemetry::set_thread_kernel_tracer)):
    /// the kernel's phase hooks on those threads report to this tracer's
    /// registry. With a [`registry`](Self::registry) attached, the fleet
    /// also records its data-plane latency spans (queue wait, checkpoint
    /// encode, restore, scatter, gather) there; an untraced fleet reads no
    /// clocks for them.
    #[must_use]
    pub fn kernel_tracer(mut self, tracer: Arc<KernelTracer>) -> Self {
        self.kernel_tracer = Some(tracer);
        self
    }

    /// Enables incremental durability: every accepted record is appended
    /// to a per-shard write-ahead log shipped to
    /// [`DurabilityOptions::store`] as CRC-framed segments of
    /// [`wal_sync`](DurabilityOptions::wal_sync) records, every
    /// auto-checkpoint frame
    /// ([`checkpoint_interval`](Self::checkpoint_interval)) is shipped too
    /// (after which the covered log is truncated), and
    /// [`respawn_shard`](ShardedFixedWindow::respawn_shard) recovers a
    /// dead shard from the newest frame plus WAL replay — bit-identical
    /// to a summary that ingested the same prefix directly, with
    /// `lost_since_checkpoint == 0` for every synced record.
    #[must_use]
    pub fn durability(mut self, options: DurabilityOptions) -> Self {
        self.durability = Some(options);
        self
    }

    /// Validates every parameter, then spawns the workers.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::InvalidParameter`] if `shards == 0`, the
    /// queue capacity is zero, or the per-shard summary parameters fail
    /// [`FixedWindowHistogram::builder`] validation.
    pub fn build(self) -> Result<ShardedFixedWindow, StreamhistError> {
        if self.shards == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "shards",
                message: "need at least one shard",
            });
        }
        if self.options.queue_capacity == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "queue_capacity",
                message: "queue capacity must be positive",
            });
        }
        if self.options.checkpoint_interval == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "checkpoint_interval",
                message: "checkpoint interval must be positive",
            });
        }
        if let Some(d) = &self.durability {
            if d.wal_sync == 0 {
                return Err(StreamhistError::InvalidParameter {
                    param: "wal_sync",
                    message: "WAL sync interval must be positive",
                });
            }
            if d.upload_queue_capacity == 0 {
                return Err(StreamhistError::InvalidParameter {
                    param: "upload_queue_capacity",
                    message: "upload queue capacity must be positive",
                });
            }
        }
        // Validate the per-shard summary parameters on the caller's thread
        // so bad configs fail here, not inside a silently-dead worker.
        drop(FixedWindowHistogram::builder(self.capacity, self.b, self.eps).build()?);
        // The fleet label defaults to a process-unique value: two fleets
        // registering into one registry must get distinct series, or
        // their counter handles would silently alias the same cells.
        let fleet_label = self.registry.as_ref().map(|_| {
            self.fleet.clone().unwrap_or_else(|| {
                static NEXT_FLEET: AtomicU64 = AtomicU64::new(0);
                format!("fleet{}", NEXT_FLEET.fetch_add(1, Ordering::Relaxed))
            })
        });
        // The tracer is the one opt-in for latency spans: a registry alone
        // gets counters and gauges, never a clock read on the data path.
        let timing = match (&self.registry, &fleet_label, &self.kernel_tracer) {
            (Some(reg), Some(fleet), Some(_)) => Some(Arc::new(FleetTiming::register(reg, fleet))),
            _ => None,
        };
        let merge_metrics = match (&self.registry, &fleet_label) {
            (Some(reg), Some(fleet)) => MergeMetricsInner::registered(reg, fleet),
            _ => MergeMetricsInner::default(),
        };
        // The recorder exists before the durability pipeline: the uploader
        // thread starts recording upload events the moment it spawns.
        let recorder = self.recorder.unwrap_or_default();
        let durability = self.durability.map(|opts| {
            let wal_metrics = match (&self.registry, &fleet_label) {
                (Some(reg), Some(fleet)) => Arc::new(WalMetricsInner::registered(reg, fleet)),
                _ => Arc::new(WalMetricsInner::default()),
            };
            FleetDurability::new(opts, wal_metrics, Arc::clone(&recorder))
        });
        let mut this = ShardedFixedWindow {
            shards: Vec::with_capacity(self.shards),
            capacity: self.capacity,
            b: self.b,
            eps: self.eps,
            options: self.options,
            scatter_cursor: AtomicUsize::new(0),
            global_cache: SnapshotCache::default(),
            merge_metrics,
            recorder,
            kernel_tracer: self.kernel_tracer,
            durability,
        };
        for shard in 0..self.shards {
            let mut inner = match (&self.registry, &fleet_label) {
                (Some(reg), Some(fleet)) => MetricsInner::registered(reg, fleet, shard),
                _ => MetricsInner::default(),
            };
            inner.timing = timing.clone();
            let metrics = Arc::new(inner);
            let fw = this.fresh_summary();
            let slot = Arc::new(Mutex::new(fw.encode_checkpoint()));
            let wal = this.shard_wal(shard, 0);
            let (sender, handle) =
                this.spawn_worker(fw, Arc::clone(&metrics), Arc::clone(&slot), wal);
            this.shards.push(Shard {
                sender,
                handle: Some(handle),
                metrics,
                checkpoint: slot,
                epoch_offset: 0,
            });
        }
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined_ok(sharded: ShardedFixedWindow) -> Vec<FixedWindowHistogram> {
        sharded
            .join()
            .into_iter()
            .map(|r| r.expect("worker alive"))
            .collect()
    }

    #[test]
    fn shards_match_unsharded_summaries() {
        // Per-shard streams fed through the workers must produce exactly
        // the histogram a single-threaded summary produces on the same
        // stream.
        let shards = 3;
        let streams: Vec<Vec<f64>> = (0..shards)
            .map(|s| (0..200).map(|i| ((i * 13 + s * 7) % 23) as f64).collect())
            .collect();
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        for (s, stream) in streams.iter().enumerate() {
            sharded.push_batch(s, stream.clone()).expect("worker alive");
        }
        let snapshots = sharded.snapshot_all();
        let metrics = sharded.metrics_all();
        let summaries = joined_ok(sharded);
        for (s, stream) in streams.iter().enumerate() {
            let mut reference = FixedWindowHistogram::new(64, 4, 0.1);
            for &v in stream {
                reference.push(v);
            }
            let (expect_h, expect_stats) = reference.histogram_with_stats();
            let snap = snapshots[s].as_ref().expect("worker alive");
            assert_eq!(snap.0, expect_h, "shard {s} snapshot");
            assert_eq!(snap.1, expect_stats, "shard {s} stats");
            assert_eq!(summaries[s].histogram(), expect_h, "shard {s} joined");
            assert_eq!(summaries[s].total_pushed(), stream.len() as u64);
            // The snapshot barrier makes the counters exact.
            assert_eq!(metrics[s].pushes_accepted, stream.len() as u64);
            assert_eq!(metrics[s].values_rejected, 0);
            assert_eq!(metrics[s].records_dropped, 0);
            assert_eq!(metrics[s].snapshots_served, 1);
            assert_eq!(metrics[s].queue_depth, 0);
        }
    }

    #[test]
    fn key_routing_covers_all_shards() {
        let sharded = ShardedFixedWindow::new(4, 16, 2, 0.5);
        let mut hit = [false; 4];
        for key in 0..64u64 {
            hit[sharded.shard_of(key)] = true;
            sharded.push(key, (key % 5) as f64).expect("worker alive");
        }
        assert!(hit.iter().all(|&h| h), "64 keys left a shard of 4 unused");
        let total: u64 = joined_ok(sharded)
            .iter()
            .map(FixedWindowHistogram::total_pushed)
            .sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn snapshot_acts_as_barrier() {
        let sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        for v in [1.0, 1.0, 9.0, 9.0] {
            sharded.push_to(0, v).expect("worker alive");
        }
        let (h, _) = sharded.snapshot(0).expect("worker alive");
        assert_eq!(h.domain_len(), 4);
        assert_eq!(h.bucket_ends(), vec![1, 3]);
        let _ = sharded.join();
    }

    #[test]
    fn nan_is_rejected_and_the_shard_keeps_serving() {
        // Regression: a single NaN used to panic the worker via
        // `FixedWindowHistogram::push`'s finiteness assert, after which
        // every call to the shard panicked with "shard worker died".
        let sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(0, 1.0).expect("worker alive");
        sharded.push_to(0, f64::NAN).expect("rejected, not fatal");
        sharded
            .push_batch(0, vec![2.0, f64::INFINITY, 3.0])
            .expect("rejected, not fatal");
        let (h, _) = sharded.snapshot(0).expect("shard still serving");
        assert_eq!(h.domain_len(), 3, "only the finite values were absorbed");
        let m = sharded.metrics(0);
        assert_eq!(m.pushes_accepted, 3);
        assert_eq!(m.values_rejected, 2);
        assert_eq!(m.queue_depth, 0);
        let summaries = joined_ok(sharded);
        assert_eq!(summaries[0].window(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dead_worker_is_an_error_not_a_panic_and_respawn_restores_service() {
        let mut sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(1, 4.0).expect("worker alive");
        sharded.inject_worker_panic(1).expect("delivered");
        // The panic command is behind the push, so the snapshot request is
        // guaranteed to find a dead worker (its queued command is dropped
        // with the channel, which closes the reply).
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        // Once death is observed, sends fail fast...
        assert_eq!(sharded.push_to(1, 5.0), Err(ShardError { shard: 1 }));
        assert_eq!(
            sharded.push_batch(1, vec![6.0]),
            Err(ShardError { shard: 1 })
        );
        assert_eq!(sharded.inject_worker_panic(1), Err(ShardError { shard: 1 }));
        // ...while the other shard keeps serving.
        sharded.push_to(0, 7.0).expect("other shard unaffected");
        assert!(sharded.snapshot(0).is_ok());
        // Respawn: the panicked worker restores from its last checkpoint
        // (the empty boot checkpoint here — the one accepted push came
        // after it and is reported lost), the index serves again, counters
        // survive.
        assert_eq!(
            sharded.respawn_shard(1),
            RecoveryReport {
                restored_len: 0,
                lost_since_checkpoint: 1,
            }
        );
        sharded.push_to(1, 8.0).expect("respawned shard serves");
        let (h, _) = sharded.snapshot(1).expect("respawned shard serves");
        assert_eq!(h.domain_len(), 1);
        let m = sharded.metrics(1);
        assert_eq!(m.respawns, 1);
        assert_eq!(m.restores, 1, "the boot checkpoint was decoded");
        assert_eq!(m.pushes_accepted, 2, "pre-death push + post-respawn push");
        assert_eq!(m.queue_depth, 0);
        let results = sharded.join();
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn respawning_a_live_shard_is_a_lossless_handoff() {
        let mut sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 3,
                lost_since_checkpoint: 0,
            },
            "a live worker drains its queue and hands its summary over"
        );
        let m = sharded.metrics(0);
        assert_eq!(m.respawns, 1);
        assert_eq!(m.restores, 0, "a lossless handoff is not a restore");
        sharded.push_to(0, 4.0).expect("respawned shard serves");
        let fresh = joined_ok(sharded);
        assert_eq!(fresh[0].window(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fresh[0].total_pushed(), 4, "nothing was lost");
    }

    #[test]
    fn drop_newest_sheds_when_the_queue_is_full_and_counts_exactly() {
        // Flood a single shard with a queue of 1: whether each record
        // lands or is shed is timing-dependent, but the accounting
        // identity accepted + rejected + dropped == sent must hold
        // exactly once the snapshot barrier quiesces the shard.
        let sharded = ShardedFixedWindow::builder(1, 8, 2, 0.5)
            .queue_capacity(1)
            .policy(OverloadPolicy::DropNewest)
            .build()
            .expect("valid parameters");
        let mut sent = 0u64;
        for i in 0..20_000u64 {
            sharded.push_to(0, (i % 13) as f64).expect("never an error");
            sent += 1;
        }
        let _ = sharded.snapshot(0).expect("barrier");
        let m = sharded.metrics(0);
        assert_eq!(
            m.pushes_accepted + m.values_rejected + m.records_dropped,
            sent
        );
        assert_eq!(m.values_rejected, 0);
        assert_eq!(m.queue_depth, 0);
        let summaries = joined_ok(sharded);
        assert_eq!(summaries[0].total_pushed(), m.pushes_accepted);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        sharded.push_batch(0, Vec::new()).expect("no-op");
        let m = sharded.metrics(0);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(joined_ok(sharded)[0].total_pushed(), 0);
    }

    #[test]
    fn scatter_spreads_a_slab_across_all_shards_in_order() {
        let shards = 4;
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        let slab: Vec<f64> = (0..40).map(f64::from).collect();
        sharded.push_batch_scatter(&slab).expect("workers alive");
        let _ = sharded.snapshot_all(); // barrier
        let total: u64 = sharded
            .metrics_all()
            .iter()
            .map(|m| m.pushes_accepted)
            .sum();
        assert_eq!(total, slab.len() as u64, "every value landed somewhere");
        let summaries = joined_ok(sharded);
        let mut nonempty = 0;
        for fw in &summaries {
            let w = fw.window();
            // Contiguous chunks: each shard's window is a strictly
            // ascending run of the 0..40 ramp.
            assert!(w.windows(2).all(|p| p[0] < p[1]), "per-shard order kept");
            if !w.is_empty() {
                nonempty += 1;
            }
        }
        assert_eq!(nonempty, shards, "a 40-value slab reaches all 4 shards");
    }

    #[test]
    fn scatter_cursor_rotates_the_leading_shard() {
        // With a slab smaller than the shard count, each call produces one
        // single-chunk dispatch; the rotating cursor must move it to a
        // different shard each time.
        let sharded = ShardedFixedWindow::new(3, 8, 2, 0.5);
        for _ in 0..3 {
            sharded.push_batch_scatter(&[1.0]).expect("workers alive");
        }
        let _ = sharded.snapshot_all(); // barrier
        for (s, m) in sharded.metrics_all().iter().enumerate() {
            assert_eq!(m.pushes_accepted, 1, "shard {s} got exactly one value");
        }
        let _ = sharded.join();
    }

    #[test]
    fn scatter_caps_chunks_so_large_slabs_wrap_all_shards() {
        let shards = 4;
        let sharded = ShardedFixedWindow::new(shards, 2048, 4, 0.1);
        let slab: Vec<f64> = (0..2048).map(|i| f64::from(i % 997)).collect();
        sharded.push_batch_scatter(&slab).expect("workers alive");
        let _ = sharded.snapshot_all(); // barrier
        let m = sharded.metrics_all();
        let total: u64 = m.iter().map(|x| x.pushes_accepted).sum();
        assert_eq!(total, slab.len() as u64, "every value landed somewhere");
        // 2048 values at a 16-record cap is 128 chunks round-robin over 4
        // shards: each shard gets exactly 32 chunks of 16.
        for (s, sm) in m.iter().enumerate() {
            assert_eq!(sm.pushes_accepted, 512, "shard {s} share");
        }
        // Round-robin dispatch from shard 0 in slab order: shard `s` holds
        // chunks `s, s + 4, s + 8, …`, so every shard works on every part
        // of a large slab instead of one monolithic quarter of it.
        let summaries = joined_ok(sharded);
        for (s, fw) in summaries.iter().enumerate() {
            let dealt: Vec<f64> = slab
                .chunks(16)
                .skip(s)
                .step_by(shards)
                .flatten()
                .copied()
                .collect();
            assert_eq!(fw.window(), dealt, "shard {s} window");
        }
    }

    #[test]
    fn global_snapshot_concatenates_every_shard_in_shard_order() {
        let shards = 3;
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        let streams: Vec<Vec<f64>> = (0..shards)
            .map(|s| (0..50).map(|i| ((i * 7 + s * 11) % 19) as f64).collect())
            .collect();
        for (s, stream) in streams.iter().enumerate() {
            sharded.push_batch(s, stream.clone()).expect("alive");
        }
        let (global, stats) = sharded.snapshot_global().expect("fleet healthy");
        assert!(global.num_buckets() <= 4);
        assert_eq!(global.domain_len(), 150);
        // The gather is exactly merge_histograms over the per-shard
        // snapshots in shard order.
        let parts: Vec<Arc<Histogram>> = (0..shards)
            .map(|s| sharded.snapshot(s).expect("alive").0)
            .collect();
        let part_refs: Vec<&Histogram> = parts.iter().map(AsRef::as_ref).collect();
        let (expect, _) = merge_histograms(&part_refs, 4, 0.1).expect("valid");
        assert_eq!(*global, expect);
        assert!(stats.herror >= 0.0);
        let mm = sharded.merge_metrics();
        assert_eq!(mm.merges, 1);
        assert!(mm.merge_buckets_in >= mm.merge_buckets_out);
        assert!(mm.merge_buckets_out <= 4);
        let _ = sharded.join();
    }

    #[test]
    fn global_snapshot_is_cached_until_the_fleet_state_changes() {
        let mut sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0]).expect("alive");
        sharded.push_batch(1, vec![3.0]).expect("alive");
        let (h1, _) = sharded.snapshot_global().expect("healthy");
        let (h2, _) = sharded.snapshot_global().expect("healthy");
        assert!(Arc::ptr_eq(&h1, &h2), "unchanged fleet serves the cache");
        assert_eq!(sharded.merge_metrics().cache_hits, 1);
        // An absorbed record invalidates...
        sharded.push_to(0, 4.0).expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        let (h3, _) = sharded.snapshot_global().expect("healthy");
        assert!(!Arc::ptr_eq(&h1, &h3));
        assert_eq!(h3.domain_len(), 4);
        // ...and so does a respawn even though pushes_accepted is frozen.
        let before = sharded.merge_metrics().merges;
        let _ = sharded.respawn_shard(1);
        let (h4, _) = sharded.snapshot_global().expect("healthy");
        assert!(!Arc::ptr_eq(&h3, &h4));
        assert_eq!(sharded.merge_metrics().merges, before + 1);
        let _ = sharded.join();
    }

    #[test]
    fn strict_policy_snapshot_reports_complete_coverage() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0]).expect("alive");
        sharded.push_batch(1, vec![3.0]).expect("alive");
        let (strict_h, _, coverage) = sharded
            .snapshot_global_with(SnapshotPolicy::Strict)
            .expect("healthy");
        assert!(coverage.is_complete());
        assert_eq!(coverage.shards_included, 2);
        assert_eq!(coverage.shards_total, 2);
        assert_eq!(coverage.records_represented, 3);
        assert_eq!(coverage.records_total, 3);
        assert!((coverage.fraction() - 1.0).abs() < 1e-12);
        // Strict-with-coverage is the same cached snapshot.
        let (plain_h, _) = sharded.snapshot_global().expect("healthy");
        assert!(Arc::ptr_eq(&strict_h, &plain_h));
        let _ = sharded.join();
    }

    #[test]
    fn degraded_snapshot_skips_the_dead_shard_and_never_touches_the_cache() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded
            .push_batch(0, (0..6).map(f64::from).collect())
            .expect("alive");
        sharded
            .push_batch(1, (0..2).map(f64::from).collect())
            .expect("alive");
        // Warm the cache while healthy, then kill shard 1.
        let (healthy, _) = sharded.snapshot_global().expect("healthy");
        sharded.inject_worker_panic(1).expect("alive");
        assert!(!sharded.ping(1, Duration::from_secs(5)), "worker is dead");
        // Degraded serves shard 0 only, with exact accounting.
        let (degraded, _, coverage) = sharded
            .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.5 })
            .expect("above the floor");
        assert_eq!(coverage.shards_included, 1);
        assert_eq!(coverage.records_represented, 6);
        assert_eq!(coverage.records_total, 8);
        assert!(!coverage.is_complete());
        assert_eq!(degraded.domain_len(), 6, "only shard 0's window");
        // A floor above 6/8 refuses and names the dead shard.
        assert_eq!(
            sharded
                .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.9 })
                .unwrap_err(),
            ShardError { shard: 1 }
        );
        // The cache still holds the *healthy* build: the degraded gather
        // must not have replaced it (the live-counter generation is
        // unchanged, so a strict caller would still be served `healthy`).
        let hit = sharded
            .global_cache
            .try_get(sharded.global_generation())
            .expect("cache intact");
        assert!(Arc::ptr_eq(&healthy, &hit.0));
        let _ = sharded.join();
    }

    #[test]
    fn ping_distinguishes_live_and_dead_workers() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        assert!(sharded.ping(0, Duration::from_secs(5)));
        sharded.inject_worker_panic(0).expect("alive");
        assert!(!sharded.ping(0, Duration::from_secs(5)));
        // The other shard is untouched.
        assert!(sharded.ping(1, Duration::from_secs(5)));
        let _ = sharded.join();
    }

    #[test]
    fn global_snapshot_on_a_dead_shard_is_an_error() {
        let mut sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(0, 1.0).expect("alive");
        sharded.inject_worker_panic(1).expect("delivered");
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        assert_eq!(
            sharded.snapshot_global().map(|_| ()),
            Err(ShardError { shard: 1 }),
            "a global snapshot is all shards or nothing"
        );
        let _ = sharded.respawn_shard(1);
        assert!(sharded.snapshot_global().is_ok());
        let _ = sharded.join();
    }

    #[test]
    fn global_snapshot_after_an_acknowledged_ingest_is_never_stale() {
        // Each round overwrites both windows with a constant slab `r`; once
        // `push_batch_scatter` returns, the global snapshot must answer `r`
        // even though the slab may still sit in the shard queues.
        let (shards, capacity) = (2, 16);
        let sharded = ShardedFixedWindow::new(shards, capacity, 4, 0.1);
        let mut stale = 0;
        for round in 0..200u32 {
            let r = f64::from(round);
            sharded
                .push_batch_scatter(&vec![r; shards * capacity])
                .expect("alive");
            let (h, _) = sharded.snapshot_global().expect("healthy");
            if h.point(0) != r {
                stale += 1;
            }
        }
        assert_eq!(stale, 0, "stale global snapshots in 200 rounds");
        let _ = sharded.join();
    }

    #[test]
    fn strict_scatter_names_the_lowest_dead_shard_and_drains_the_live_ones() {
        for dead in [vec![0], vec![2], vec![1, 3]] {
            let sharded = ShardedFixedWindow::new(4, 16, 2, 0.5);
            for s in 0..4 {
                sharded.push_batch(s, vec![1.0, 2.0, 3.0]).expect("alive");
            }
            for &k in &dead {
                sharded.inject_worker_panic(k).expect("alive");
                assert!(!sharded.ping(k, Duration::from_secs(5)), "worker is dead");
            }
            assert_eq!(
                sharded.snapshot_global().map(|_| ()),
                Err(ShardError { shard: dead[0] }),
                "dead shards {dead:?}"
            );
            // Live shards past the dead one had their replies dropped; a
            // barrier shows each still drained its queue completely.
            for s in (0..4).filter(|s| !dead.contains(s)) {
                let _ = sharded.snapshot(s).expect("alive");
                assert_eq!(sharded.metrics(s).queue_depth, 0, "shard {s} drained");
            }
            let _ = sharded.join();
        }
    }

    #[test]
    fn degraded_scatter_matches_a_per_shard_gather_exactly() {
        let sharded = ShardedFixedWindow::new(4, 16, 3, 0.5);
        for s in 0..4usize {
            let values = (0..5 + 3 * s).map(|i| ((i * 7 + s) % 11) as f64).collect();
            sharded.push_batch(s, values).expect("alive");
        }
        for k in [1, 3] {
            sharded.inject_worker_panic(k).expect("alive");
            assert!(!sharded.ping(k, Duration::from_secs(5)), "worker is dead");
        }
        let (hist, _, coverage) = sharded
            .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.0 })
            .expect("two shards answer");
        // The same gather done one shard at a time.
        let mut expected = Coverage {
            shards_included: 0,
            shards_total: 4,
            records_represented: 0,
            records_total: 0,
        };
        let mut parts = Vec::new();
        for s in 0..4 {
            let accepted = sharded.metrics(s).pushes_accepted;
            expected.records_total += accepted;
            if let Ok((h, _)) = sharded.snapshot(s) {
                expected.shards_included += 1;
                expected.records_represented += accepted;
                parts.push(h);
            }
        }
        assert_eq!(coverage, expected);
        let refs: Vec<&Histogram> = parts.iter().map(AsRef::as_ref).collect();
        let (direct, _) = merge_histograms(&refs, 3, 0.5).expect("valid");
        assert_eq!(*hist, direct);
        let _ = sharded.join();
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        assert!(matches!(
            ShardedFixedWindow::builder(0, 8, 2, 0.5).build(),
            Err(StreamhistError::InvalidParameter {
                param: "shards",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 8, 2, 0.5)
                .queue_capacity(0)
                .build(),
            Err(StreamhistError::InvalidParameter {
                param: "queue_capacity",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 0, 2, 0.5).build(),
            Err(StreamhistError::InvalidParameter {
                param: "capacity",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 8, 2, f64::NAN).build(),
            Err(StreamhistError::InvalidParameter { param: "eps", .. })
        ));
        let built = ShardedFixedWindow::builder(2, 8, 2, 0.5)
            .queue_capacity(4)
            .policy(OverloadPolicy::DropNewest)
            .build()
            .expect("valid parameters");
        assert_eq!(built.shards(), 2);
        assert_eq!(built.options().queue_capacity, 4);
        assert_eq!(built.options().policy, OverloadPolicy::DropNewest);
        let _ = built.join();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedFixedWindow::new(0, 8, 2, 0.5);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_queue_capacity_rejected() {
        let _ = ShardedFixedWindow::builder(1, 8, 2, 0.5)
            .queue_capacity(0)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn scatter_to_a_fleet_with_a_dead_shard_surfaces_the_error_exactly() {
        // Regression: `push_batch_scatter` used to abort mid-loop on the
        // first dead shard, silently skipping the healthy shards after it.
        // Now every chunk is dispatched and the error still surfaces.
        let mut sharded = ShardedFixedWindow::new(3, 64, 4, 0.1);
        sharded.inject_worker_panic(1).expect("delivered");
        // Observe the death so the send path fails deterministically.
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        let slab: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(
            sharded.push_batch_scatter(&slab),
            Err(ShardError { shard: 1 }),
            "the dead shard's chunk is reported, not swallowed"
        );
        let _ = sharded.snapshot(0).expect("barrier on shard 0");
        let _ = sharded.snapshot(2).expect("barrier on shard 2");
        let m = sharded.metrics_all();
        // The 30-value slab splits into 10-value contiguous chunks; the
        // healthy shards must have received theirs despite the error.
        assert_eq!(m[0].pushes_accepted, 10, "healthy shard 0 got its chunk");
        assert_eq!(m[1].pushes_accepted, 0, "dead shard absorbed nothing");
        assert_eq!(m[2].pushes_accepted, 10, "healthy shard 2 got its chunk");
        // After a respawn the same slab spreads with no error.
        let _ = sharded.respawn_shard(1);
        sharded
            .push_batch_scatter(&slab)
            .expect("fleet healthy again");
        let _ = sharded.snapshot_all();
        let total: u64 = sharded
            .metrics_all()
            .iter()
            .map(|m| m.pushes_accepted)
            .sum();
        assert_eq!(total, 50, "20 from the failed scatter + 30 after respawn");
        let _ = sharded.join();
    }

    #[test]
    fn metrics_survive_respawn_and_count_checkpoints() {
        let mut sharded = ShardedFixedWindow::builder(1, 8, 2, 0.5)
            .checkpoint_interval(2)
            .build()
            .expect("valid parameters");
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        sharded.push_to(0, f64::NAN).expect("rejected, not fatal");
        let _ = sharded.snapshot(0).expect("barrier");
        let before = sharded.metrics(0);
        assert_eq!(before.pushes_accepted, 3);
        assert_eq!(before.values_rejected, 1);
        assert_eq!(before.snapshots_served, 1);
        assert!(
            before.checkpoints_taken >= 1,
            "3 accepted records with interval 2 auto-checkpoint at least once"
        );
        assert!(before.checkpoint_bytes > 0);
        let _ = sharded.respawn_shard(0);
        let after = sharded.metrics(0);
        // Cumulative counters carry across the respawn; only the gauge
        // resets with the new queue.
        assert_eq!(after.pushes_accepted, before.pushes_accepted);
        assert_eq!(after.values_rejected, before.values_rejected);
        assert_eq!(after.snapshots_served, before.snapshots_served);
        assert_eq!(after.checkpoints_taken, before.checkpoints_taken);
        assert_eq!(after.checkpoint_bytes, before.checkpoint_bytes);
        assert_eq!(after.respawns, before.respawns + 1);
        assert_eq!(after.queue_depth, 0);
        let _ = sharded.join();
    }

    #[test]
    fn auto_checkpoint_bounds_loss_after_a_crash() {
        let mut sharded = ShardedFixedWindow::builder(1, 64, 4, 0.1)
            .checkpoint_interval(10)
            .build()
            .expect("valid parameters");
        // Individual pushes, so the interval is honoured per record (a
        // batch is one command and checkpoints at the batch boundary).
        for i in 0..25 {
            sharded.push_to(0, f64::from(i % 7)).expect("alive");
        }
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        // 25 accepted with interval 10: the last auto-checkpoint covered
        // 20 records, so exactly 5 died with the worker.
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 20,
                lost_since_checkpoint: 5,
            }
        );
        let m = sharded.metrics(0);
        assert_eq!(m.restores, 1);
        assert_eq!(
            m.pushes_accepted,
            report.restored_len + report.lost_since_checkpoint,
            "conservation: accepted == restored + lost at quiescence"
        );
        let fresh = joined_ok(sharded);
        assert_eq!(fresh[0].total_pushed(), 20);
        assert_eq!(
            fresh[0].window(),
            (0..20).map(|i| f64::from(i % 7)).collect::<Vec<_>>()
        );
    }

    /// A copy of `store`'s objects for `shards` shards, with `edit`
    /// applied to every frame's bytes.
    fn store_copy(
        store: &streamhist_core::MemStore,
        shards: usize,
        edit: impl Fn(&mut Vec<u8>),
    ) -> streamhist_core::MemStore {
        let copy = streamhist_core::MemStore::new();
        for shard in 0..shards {
            for id in store.list(shard).expect("listable") {
                let mut bytes = store.get(&id).expect("readable");
                match id.kind {
                    streamhist_core::ObjectKind::Frame => {
                        edit(&mut bytes);
                        copy.put_frame(shard, id.seq, &bytes)
                    }
                    streamhist_core::ObjectKind::WalSegment => {
                        copy.put_wal_segment(shard, id.seq, &bytes)
                    }
                }
                .expect("writable");
            }
        }
        copy
    }

    #[test]
    fn fleet_save_and_load_round_trips_every_shard() {
        let mut sharded = ShardedFixedWindow::new(3, 16, 2, 0.5);
        for (s, n) in [(0usize, 5u64), (1, 7), (2, 3)] {
            let stream: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
            sharded.push_batch(s, stream).expect("alive");
        }
        let save = streamhist_core::MemStore::new();
        let written = sharded.save_to_store(&save).expect("fleet healthy");
        assert_eq!(written, save.stored_bytes());
        let snaps_before = sharded.snapshot_all();
        // Diverge, then load the save back: the divergence is erased.
        sharded.push_batch(0, vec![9.0, 9.0]).expect("alive");
        sharded.load_from_store(&save).expect("valid save");
        let snaps_after = sharded.snapshot_all();
        assert_eq!(snaps_before, snaps_after, "load rewinds to the save");
        for m in sharded.metrics_all() {
            assert_eq!(m.restores, 1);
            assert!(m.checkpoints_taken >= 1, "save_to_store counts");
        }
        // Corrupt saves are rejected wholesale without touching workers.
        let flipped = store_copy(&save, 3, |f| {
            let last = f.len() - 1;
            f[last] ^= 0x40;
        });
        assert!(sharded.load_from_store(&flipped).is_err());
        let truncated = store_copy(&save, 3, |f| f.truncate(f.len() - 3));
        assert!(
            sharded.load_from_store(&truncated).is_err(),
            "truncated frame rejected"
        );
        let snaps_final = sharded.snapshot_all();
        assert_eq!(snaps_final, snaps_after, "failed loads change nothing");
        // A save from a larger fleet is rejected up front: its extra
        // shard's records have nowhere to go.
        let other = ShardedFixedWindow::new(4, 16, 2, 0.5);
        other.push_batch(3, vec![1.0]).expect("alive");
        let other_save = streamhist_core::MemStore::new();
        other.save_to_store(&other_save).expect("healthy");
        let _ = other.join();
        assert_eq!(
            sharded.load_from_store(&other_save).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(sharded.snapshot_all(), snaps_after);
        let _ = sharded.join();
    }

    #[test]
    fn checkpoint_all_on_a_dead_shard_is_an_error() {
        let sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.inject_worker_panic(1).expect("delivered");
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        assert!(sharded
            .save_to_store(&streamhist_core::MemStore::new())
            .is_err());
        assert!(sharded.checkpoint().is_err());
        let _ = sharded.join();
    }

    fn durable_fleet(
        shards: usize,
        store: Arc<streamhist_core::MemStore>,
        wal_sync: usize,
        interval: usize,
    ) -> ShardedFixedWindow {
        ShardedFixedWindow::builder(shards, 32, 2, 0.5)
            .checkpoint_interval(interval)
            .durability(DurabilityOptions::new(store).wal_sync(wal_sync))
            .build()
            .expect("valid durable fleet")
    }

    #[test]
    fn builder_validates_durability_knobs() {
        let store = Arc::new(streamhist_core::MemStore::new());
        for bad in [
            DurabilityOptions::new(Arc::clone(&store) as _).wal_sync(0),
            DurabilityOptions::new(Arc::clone(&store) as _).upload_queue_capacity(0),
        ] {
            assert!(ShardedFixedWindow::builder(1, 8, 2, 0.5)
                .durability(bad)
                .build()
                .is_err());
        }
        // The one checkpoint interval is the fleet's, durable or not.
        assert!(matches!(
            ShardedFixedWindow::builder(1, 8, 2, 0.5)
                .checkpoint_interval(0)
                .durability(DurabilityOptions::new(Arc::clone(&store) as _))
                .build(),
            Err(StreamhistError::InvalidParameter {
                param: "checkpoint_interval",
                ..
            })
        ));
    }

    #[test]
    fn wal_status_reports_progress_and_defaults_off() {
        let plain = ShardedFixedWindow::new(1, 8, 2, 0.5);
        assert!(!plain.wal_status().enabled);
        let _ = plain.join();

        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = durable_fleet(1, Arc::clone(&store), 4, 8);
        sharded
            .push_batch(0, (0..10).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.flush_wal();
        let status = sharded.wal_status();
        assert!(status.enabled);
        assert_eq!(status.wal_sync, 4);
        assert_eq!(status.checkpoint_interval, 8);
        assert_eq!(status.bytes_ingested, 80, "10 records × 8 bytes");
        assert!(status.segments_written >= 2, "two full 4-record segments");
        assert!(status.frames_written >= 1, "interval of 8 was crossed");
        assert!(status.amplification > 0.0);
        assert_eq!(status.failures, 0);
        let _ = sharded.join();
    }

    #[test]
    fn dead_worker_recovers_from_the_store_with_zero_loss_for_synced_records() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 4, 1024);
        // 8 records = two full WAL segments, no frame yet (interval 1024).
        sharded
            .push_batch(0, (0..8).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier quiesces the shard");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 8,
                lost_since_checkpoint: 0,
            },
            "every record was synced to the WAL before the crash"
        );
        let m = sharded.metrics(0);
        assert_eq!(m.restores, 1);
        // The recovered summary is bit-identical to a never-crashed one.
        let mut reference = FixedWindowHistogram::new(32, 2, 0.5);
        for v in 0..8 {
            reference.push(f64::from(v));
        }
        let summaries = joined_ok(sharded);
        assert_eq!(
            summaries[0].encode_checkpoint(),
            reference.encode_checkpoint()
        );
    }

    #[test]
    fn dead_worker_loss_accounting_is_exact_for_unsynced_tail() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 4, 1024);
        // 10 records: segments cover [0,8); the 2-record tail is only in
        // the dead worker's buffer and must be reported lost.
        sharded
            .push_batch(0, (0..10).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 8,
                lost_since_checkpoint: 2,
            }
        );
        // Loss restarts cleanly: another crash after more synced records
        // still counts only the new unsynced tail.
        sharded
            .push_batch(0, (10..14).map(f64::from).collect())
            .expect("respawned shard serves");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 12,
                lost_since_checkpoint: 0,
            },
            "the post-respawn records formed one full segment"
        );
        let _ = sharded.join();
    }

    #[test]
    fn save_and_load_from_store_roundtrip() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        sharded.push_batch(1, vec![9.0, 8.0]).expect("alive");
        let written = sharded
            .save_to_store(store.as_ref())
            .expect("healthy fleet saves");
        assert!(written > 0);
        let snaps_before = sharded.snapshot_all();
        let _ = sharded.join();

        // A brand-new fleet (no durability required) loads the same state.
        let mut restored = ShardedFixedWindow::new(2, 16, 2, 0.5);
        restored
            .load_from_store(store.as_ref())
            .expect("store is valid");
        assert_eq!(restored.snapshot_all(), snaps_before);
        assert_eq!(restored.metrics(0).restores, 1);
        let summaries = joined_ok(restored);
        assert_eq!(summaries[0].window(), vec![1.0, 2.0, 3.0]);
        assert_eq!(summaries[1].window(), vec![9.0, 8.0]);
    }

    #[test]
    fn load_from_store_replays_the_wal_tail_beyond_the_frame() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = durable_fleet(1, Arc::clone(&store), 4, 8);
        // The first batch cuts a frame at seq 8 (truncating its segments);
        // the second forms one synced WAL segment beyond the frame.
        sharded
            .push_batch(0, (0..8).map(f64::from).collect())
            .expect("alive");
        sharded
            .push_batch(0, (8..12).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.flush_wal();
        let _ = sharded.join();

        let mut restored = ShardedFixedWindow::new(1, 32, 2, 0.5);
        restored
            .load_from_store(store.as_ref())
            .expect("store is valid");
        let summaries = joined_ok(restored);
        assert_eq!(summaries[0].total_pushed(), 12, "frame + WAL tail");
    }

    #[test]
    fn crash_after_a_load_recovers_the_loaded_state_not_the_overwritten_one() {
        // Regression: only the removed fleet-container load re-anchored the
        // store, so after `load_from_store` into a durable fleet a crash
        // recovered the pre-load frame and WAL and reported nothing lost.
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 8, 32);
        sharded.push_batch(0, vec![100.0; 200]).expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.flush_wal();

        let save = streamhist_core::MemStore::new();
        let source = ShardedFixedWindow::new(1, 32, 2, 0.5);
        source.push_batch(0, vec![1.0; 40]).expect("alive");
        source.save_to_store(&save).expect("healthy");
        let _ = source.join();
        sharded.load_from_store(&save).expect("valid save");
        assert_eq!(sharded.snapshot(0).expect("alive").0.point(0), 1.0);

        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        assert_eq!(
            sharded.respawn_shard(0),
            RecoveryReport {
                restored_len: 40,
                lost_since_checkpoint: 0,
            }
        );
        assert_eq!(sharded.snapshot(0).expect("alive").0.point(0), 1.0);
        let _ = sharded.join();
    }

    #[test]
    fn a_live_handoff_leaves_no_wal_gap_for_a_later_crash() {
        // Regression: a live respawn restarted the WAL at the drained
        // summary's length without shipping the unsynced records before
        // it, so a later crash stopped replay at that gap and lost more
        // than `wal_sync` records.
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 8, 32);
        // The 40-record batch cuts a frame at 40; 5 records stay unsynced.
        sharded
            .push_batch(0, (0..40).map(f64::from).collect())
            .expect("alive");
        sharded
            .push_batch(0, (40..45).map(f64::from).collect())
            .expect("alive");
        assert_eq!(
            sharded.respawn_shard(0),
            RecoveryReport {
                restored_len: 45,
                lost_since_checkpoint: 0,
            }
        );
        // Two full segments and a 4-record unsynced tail, then a crash.
        sharded
            .push_batch(0, (45..65).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        assert_eq!(
            sharded.respawn_shard(0),
            RecoveryReport {
                restored_len: 61,
                lost_since_checkpoint: 4,
            },
            "only the unsynced tail may be lost"
        );
        let _ = sharded.join();
    }
}
