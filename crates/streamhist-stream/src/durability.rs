//! Incremental durability for sharded fleets: per-shard WAL + full frames
//! behind a pluggable [`CheckpointStore`].
//!
//! A full checkpoint frame costs `O(window)` to encode; cutting one every
//! `checkpoint_interval` accepted records makes durability cost linear in
//! window size per interval. This module turns that cost into
//! `O(records since the last frame)`: workers append accepted records to a
//! per-shard write-ahead log ([`WalSegment`] frames, cut every
//! [`DurabilityOptions::wal_sync`] records), still ship the full frame
//! they cut every fleet checkpoint interval
//! ([`ShardedFixedWindowBuilder::checkpoint_interval`]), and a single
//! background **uploader thread** per fleet drains both to the
//! configured store with bounded-queue backpressure and capped-backoff
//! retries. When a frame lands durably, the log it supersedes is
//! truncated.
//!
//! [`ShardedFixedWindowBuilder::checkpoint_interval`]: crate::ShardedFixedWindowBuilder::checkpoint_interval
//!
//! Recovery (`respawn_shard` after a worker death, or
//! `load_from_store`) is *last frame + WAL replay*: restore the newest
//! frame, then re-push every logged record past it, in order. Frame
//! restore is bit-identical by the [`Checkpoint`] contract and pushes
//! are bit-deterministic, so the recovered summary is bit-identical to
//! one that never crashed — only the records accepted after the last
//! durable segment (strictly fewer than `wal_sync`, absent drops) can be
//! lost. Every worker install (respawn or load) re-anchors the store at
//! its seed, so this holds across handoffs and rewinding loads too.
//!
//! Everything here is fleet plumbing: the public surface is
//! [`DurabilityOptions`] (handed to
//! `ShardedFixedWindow::builder(..).durability(..)`) and [`WalStatus`]
//! (the observability snapshot, also served over the wire as the
//! `wal-status` admin verb).

use crate::fixed_window::FixedWindowHistogram;
use crate::sharded::OverloadPolicy;
use std::fmt;
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use streamhist_core::{Checkpoint, CheckpointStore, ObjectKind, StoreError, WalSegment};
use streamhist_obs::{Counter, EventKind, FlightRecorder, Gauge, MetricsRegistry, RatioTracker};

/// Bytes of ingest each accepted record represents (one `f64`), the
/// denominator unit of checkpoint amplification.
pub(crate) const BYTES_PER_RECORD: u64 = 8;

/// Attempts a store operation makes before giving up (first try + 7
/// retries). Against transient faults ([`streamhist_core::FailingStore`]
/// included) one retry usually suffices; the cap bounds worst-case stall.
const MAX_ATTEMPTS: u32 = 8;

/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(1);

/// Ceiling on the per-attempt retry backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Deterministic per-attempt jitter fraction in `[0, 0.5)`, derived from
/// `(seed, attempt)` by a splitmix64 finalizer. No RNG state, no
/// nondeterminism: the same shard retries with the same delays every run,
/// but *different* shards hitting the same failing store desynchronize
/// instead of hammering it in lockstep.
fn jitter_fraction(seed: u64, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 0.5
}

/// Runs `op` with capped exponential backoff, counting extra attempts into
/// `retries`. Shared by the uploader (writes) and recovery (reads). `seed`
/// (the shard index) spreads each attempt's sleep by a deterministic
/// jitter of up to +50%, so a fleet's uploaders back off on staggered
/// schedules against a commonly-failing store.
pub(crate) fn with_retry<T>(
    retries: &Counter,
    seed: u64,
    op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    with_retry_notifying(retries, seed, |_| {}, op)
}

/// [`with_retry`] with a per-retry observer: `on_retry(attempt)` fires
/// just before each re-attempt (attempt ≥ 1), which is where the uploader
/// hangs its flight-recorder [`EventKind::UploadRetried`] events — the
/// counter tells *how many*, the recorder tells *when and which shard*.
pub(crate) fn with_retry_notifying<T>(
    retries: &Counter,
    seed: u64,
    mut on_retry: impl FnMut(u32),
    mut op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut backoff = BACKOFF_START;
    let mut last = None;
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            retries.inc();
            on_retry(attempt);
            std::thread::sleep(backoff.mul_f64(1.0 + jitter_fraction(seed, attempt)));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("MAX_ATTEMPTS > 0 guarantees at least one error"))
}

/// Configuration for a fleet's durability pipeline, passed to
/// `ShardedFixedWindow::builder(..).durability(..)`.
///
/// Construct with [`DurabilityOptions::new`] and adjust via the chainable
/// setters. The defaults (64-record segments, a 256-job upload queue that
/// blocks when full) write about 1.8 bytes per byte ingested at the
/// fleet's default 1024-record checkpoint interval, as the recovery suite's
/// `wal_amplification_is_pinned_and_the_store_rebuilds_every_synced_record`
/// pins.
#[derive(Clone)]
pub struct DurabilityOptions {
    /// Where frames and WAL segments go.
    pub store: Arc<dyn CheckpointStore>,
    /// Accepted records per WAL segment: a shard's records become durable
    /// (enqueued to the uploader) in runs of this many. Smaller values
    /// tighten the crash-loss window; larger values amortize per-segment
    /// envelope overhead. Must be positive. Default 64.
    pub wal_sync: usize,
    /// Bound of the uploader's job queue (segments + frames). Must be
    /// positive. Default 256.
    pub upload_queue_capacity: usize,
    /// What a worker does when the upload queue is full:
    /// [`OverloadPolicy::Block`] stalls ingest until the uploader drains
    /// (lossless durability, the default);
    /// [`OverloadPolicy::DropNewest`] sheds the segment — its records stay
    /// in the summary but are at risk until the next frame.
    pub upload_policy: OverloadPolicy,
}

impl DurabilityOptions {
    /// Defaults over `store`: `wal_sync` 64, a 256-job upload queue,
    /// [`OverloadPolicy::Block`].
    #[must_use]
    pub fn new(store: Arc<dyn CheckpointStore>) -> Self {
        Self {
            store,
            wal_sync: 64,
            upload_queue_capacity: 256,
            upload_policy: OverloadPolicy::Block,
        }
    }

    /// Overrides the records-per-segment cut size.
    #[must_use]
    pub fn wal_sync(mut self, wal_sync: usize) -> Self {
        self.wal_sync = wal_sync;
        self
    }

    /// Overrides the uploader queue bound.
    #[must_use]
    pub fn upload_queue_capacity(mut self, upload_queue_capacity: usize) -> Self {
        self.upload_queue_capacity = upload_queue_capacity;
        self
    }

    /// Overrides the full-queue policy.
    #[must_use]
    pub fn upload_policy(mut self, upload_policy: OverloadPolicy) -> Self {
        self.upload_policy = upload_policy;
        self
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("wal_sync", &self.wal_sync)
            .field("upload_queue_capacity", &self.upload_queue_capacity)
            .field("upload_policy", &self.upload_policy)
            .finish_non_exhaustive()
    }
}

/// Point-in-time view of a fleet's durability pipeline — the payload of
/// the serve-layer `wal-status` admin verb. For a fleet built without
/// durability, `enabled` is `false` and every other field is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalStatus {
    /// Whether the fleet was built with
    /// [`durability`](crate::ShardedFixedWindowBuilder::durability).
    pub enabled: bool,
    /// Configured records per WAL segment.
    pub wal_sync: u64,
    /// The fleet's configured records per full frame.
    pub checkpoint_interval: u64,
    /// WAL segments durably written.
    pub segments_written: u64,
    /// Bytes of WAL segments durably written.
    pub segment_bytes: u64,
    /// Full frames durably written.
    pub frames_written: u64,
    /// Bytes of full frames durably written.
    pub frame_bytes: u64,
    /// Bytes ingested by the fleet's workers (8 per accepted record) —
    /// the amplification denominator.
    pub bytes_ingested: u64,
    /// Total bytes durably written (segments + frames) — the
    /// amplification numerator.
    pub bytes_written: u64,
    /// Checkpoint amplification: `bytes_written / bytes_ingested`
    /// (`0.0` before any ingest).
    pub amplification: f64,
    /// Store calls retried after a transient failure.
    pub retries: u64,
    /// Jobs abandoned after exhausting retries (records at risk until the
    /// next durable frame).
    pub failures: u64,
    /// Segments shed at enqueue time under [`OverloadPolicy::DropNewest`].
    pub segments_dropped: u64,
    /// Jobs currently queued to (or in flight on) the uploader.
    pub queue_depth: u64,
}

/// The shared cells behind [`WalStatus`]: obs counters/gauges, registered
/// as `streamhist_wal_*{fleet}` series when the fleet has a registry
/// attached, private cells otherwise — either way the exposition and the
/// [`WalStatus`] view read the same atomics.
#[derive(Debug, Default)]
pub(crate) struct WalMetricsInner {
    pub segments_written: Counter,
    pub segment_bytes: Counter,
    pub frames_written: Counter,
    pub frame_bytes: Counter,
    pub retries: Counter,
    pub failures: Counter,
    pub segments_dropped: Counter,
    pub queue_depth: Gauge,
    /// numerator = bytes durably written, denominator = bytes ingested,
    /// gauge = checkpoint amplification.
    pub amplification: RatioTracker,
}

impl WalMetricsInner {
    pub(crate) fn registered(registry: &MetricsRegistry, fleet: &str) -> Self {
        let labels = &[("fleet", fleet)];
        let counter = |name: &str, help: &str| {
            registry.counter_with(&format!("streamhist_wal_{name}"), help, labels)
        };
        Self {
            segments_written: counter(
                "segments_written_total",
                "WAL segments durably written to the checkpoint store.",
            ),
            segment_bytes: counter(
                "segment_bytes_total",
                "Bytes of WAL segments durably written.",
            ),
            frames_written: counter(
                "frames_written_total",
                "Full checkpoint frames durably written to the checkpoint store.",
            ),
            frame_bytes: counter(
                "frame_bytes_total",
                "Bytes of full checkpoint frames durably written.",
            ),
            retries: counter(
                "store_retries_total",
                "Checkpoint-store calls retried after a transient failure.",
            ),
            failures: counter(
                "upload_failures_total",
                "Upload jobs abandoned after exhausting retries.",
            ),
            segments_dropped: counter(
                "segments_dropped_total",
                "WAL segments shed at enqueue time under OverloadPolicy::DropNewest.",
            ),
            queue_depth: registry.gauge_with(
                "streamhist_wal_queue_depth",
                "Jobs currently queued to (or in flight on) the uploader.",
                labels,
            ),
            amplification: RatioTracker::new(
                counter(
                    "bytes_written_total",
                    "Total bytes durably written (segments + frames).",
                ),
                counter(
                    "bytes_ingested_total",
                    "Bytes ingested by the fleet's workers (8 per accepted record).",
                ),
                registry.float_gauge_with(
                    "streamhist_wal_amplification",
                    "Checkpoint amplification: bytes written / bytes ingested.",
                    labels,
                ),
            ),
        }
    }

    pub(crate) fn status(&self, opts: &DurabilityOptions, checkpoint_interval: usize) -> WalStatus {
        WalStatus {
            enabled: true,
            wal_sync: opts.wal_sync as u64,
            checkpoint_interval: checkpoint_interval as u64,
            segments_written: self.segments_written.get(),
            segment_bytes: self.segment_bytes.get(),
            frames_written: self.frames_written.get(),
            frame_bytes: self.frame_bytes.get(),
            bytes_ingested: self.amplification.denominator(),
            bytes_written: self.amplification.numerator(),
            amplification: self.amplification.ratio(),
            retries: self.retries.get(),
            failures: self.failures.get(),
            segments_dropped: self.segments_dropped.get(),
            queue_depth: u64::try_from(self.queue_depth.get().max(0)).unwrap_or(0),
        }
    }
}

/// One unit of uploader work. Jobs are processed strictly in enqueue
/// order, so a [`Job::Flush`] reply proves everything enqueued before it
/// has been attempted (durable, or counted as a failure).
enum Job {
    /// Write one WAL segment.
    Segment {
        shard: usize,
        seq: u64,
        bytes: Vec<u8>,
    },
    /// Write one full frame; on success, truncate the log it supersedes.
    Frame {
        shard: usize,
        seq: u64,
        bytes: Vec<u8>,
    },
    /// Barrier: reply once every prior job has been processed.
    Flush(Sender<()>),
}

/// A worker's handle to the fleet's uploader: the bounded job queue plus
/// the shared metrics. Clone-per-shard.
#[derive(Clone)]
pub(crate) struct UploadHandle {
    tx: SyncSender<Job>,
    policy: OverloadPolicy,
    pub(crate) metrics: Arc<WalMetricsInner>,
}

impl UploadHandle {
    /// Enqueues a segment, honoring the overload policy: `Block` applies
    /// backpressure to the worker; `DropNewest` sheds the segment (its
    /// records remain at risk until the next frame) and counts it.
    fn send_segment(&self, shard: usize, seq: u64, bytes: Vec<u8>) {
        let job = Job::Segment { shard, seq, bytes };
        self.metrics.queue_depth.inc();
        match self.policy {
            OverloadPolicy::Block => {
                if self.tx.send(job).is_err() {
                    self.metrics.queue_depth.dec();
                }
            }
            OverloadPolicy::DropNewest => match self.tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.metrics.queue_depth.dec();
                    self.metrics.segments_dropped.inc();
                }
            },
        }
    }

    /// Enqueues a frame. Frames are control plane: always a blocking send,
    /// never shed, regardless of policy. Also used by every worker install
    /// to anchor the store to the new worker's seed.
    pub(crate) fn send_frame(&self, shard: usize, seq: u64, bytes: Vec<u8>) {
        self.metrics.queue_depth.inc();
        if self.tx.send(Job::Frame { shard, seq, bytes }).is_err() {
            self.metrics.queue_depth.dec();
        }
    }

    /// Blocks until every job enqueued before this call has been
    /// processed. The barrier recovery relies on: after a flush, every
    /// segment a dead worker managed to enqueue is durable (or counted in
    /// `failures`).
    pub(crate) fn flush(&self) {
        let (reply_tx, reply_rx) = channel();
        self.metrics.queue_depth.inc();
        if self.tx.send(Job::Flush(reply_tx)).is_err() {
            self.metrics.queue_depth.dec();
            return;
        }
        let _ = reply_rx.recv();
    }
}

/// The fleet's background uploader: one thread draining the job queue to
/// the store with capped-backoff retries. Dropping the uploader closes the
/// queue and joins the thread (after the workers holding handle clones
/// have exited).
pub(crate) struct Uploader {
    handle: Option<JoinHandle<()>>,
    /// Kept so `UploadHandle`s can be minted; dropped with the uploader.
    tx: Option<SyncSender<Job>>,
}

impl Uploader {
    pub(crate) fn spawn(
        store: Arc<dyn CheckpointStore>,
        queue_capacity: usize,
        metrics: Arc<WalMetricsInner>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        let (tx, rx) = sync_channel::<Job>(queue_capacity);
        let thread_metrics = Arc::clone(&metrics);
        let handle = std::thread::spawn(move || {
            let m = thread_metrics;
            let retried = |shard: usize| {
                let r = &recorder;
                move |attempt: u32| {
                    r.record(EventKind::UploadRetried { shard, attempt });
                }
            };
            while let Ok(job) = rx.recv() {
                m.queue_depth.dec();
                match job {
                    Job::Segment { shard, seq, bytes } => {
                        match with_retry_notifying(&m.retries, shard as u64, retried(shard), || {
                            store.put_wal_segment(shard, seq, &bytes)
                        }) {
                            Ok(()) => {
                                m.segments_written.inc();
                                m.segment_bytes.inc_by(bytes.len() as u64);
                                m.amplification.add_numerator(bytes.len() as u64);
                            }
                            Err(_) => m.failures.inc(),
                        }
                    }
                    Job::Frame { shard, seq, bytes } => {
                        match with_retry_notifying(&m.retries, shard as u64, retried(shard), || {
                            store.put_frame(shard, seq, &bytes)
                        }) {
                            Ok(()) => {
                                m.frames_written.inc();
                                m.frame_bytes.inc_by(bytes.len() as u64);
                                m.amplification.add_numerator(bytes.len() as u64);
                                recorder.record(EventKind::CheckpointUploaded {
                                    shard,
                                    upload_seq: seq,
                                    bytes: bytes.len() as u64,
                                });
                                // Truncate only once the frame is durable:
                                // if the frame had been lost, deleting the
                                // log it supersedes would lose data.
                                if with_retry_notifying(
                                    &m.retries,
                                    shard as u64,
                                    retried(shard),
                                    || store.truncate(shard, seq),
                                )
                                .is_err()
                                {
                                    m.failures.inc();
                                }
                            }
                            Err(_) => m.failures.inc(),
                        }
                    }
                    Job::Flush(reply) => {
                        let _ = reply.send(());
                    }
                }
            }
        });
        Self {
            handle: Some(handle),
            tx: Some(tx),
        }
    }

    /// A worker-side handle sharing this uploader's queue and metrics.
    pub(crate) fn handle(
        &self,
        policy: OverloadPolicy,
        metrics: Arc<WalMetricsInner>,
    ) -> UploadHandle {
        UploadHandle {
            tx: self.tx.as_ref().expect("uploader is live").clone(),
            policy,
            metrics,
        }
    }
}

impl Drop for Uploader {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            // The thread exits once every handle clone (held by workers,
            // which exit when their command channels close) is gone and
            // the queue is drained — everything enqueued still lands.
            let _ = handle.join();
        }
    }
}

/// A fleet's durability pipeline: the configuration, the shared metric
/// cells, and the owning handle on the uploader thread. One per fleet,
/// dropped (joining the uploader) after the shards.
pub(crate) struct FleetDurability {
    pub(crate) options: DurabilityOptions,
    pub(crate) metrics: Arc<WalMetricsInner>,
    uploader: Uploader,
}

impl FleetDurability {
    pub(crate) fn new(
        options: DurabilityOptions,
        metrics: Arc<WalMetricsInner>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        let uploader = Uploader::spawn(
            Arc::clone(&options.store),
            options.upload_queue_capacity,
            Arc::clone(&metrics),
            recorder,
        );
        Self {
            options,
            metrics,
            uploader,
        }
    }

    pub(crate) fn handle(&self) -> UploadHandle {
        self.uploader
            .handle(self.options.upload_policy, Arc::clone(&self.metrics))
    }

    /// The WAL state a freshly installed worker starts from: `base` is the
    /// seed summary's `total_pushed`.
    pub(crate) fn shard_wal(&self, shard: usize, base: u64) -> ShardWal {
        ShardWal::new(self.handle(), shard, self.options.wal_sync, base)
    }

    /// Blocks until everything currently enqueued to the uploader has been
    /// processed — the recovery barrier.
    pub(crate) fn flush(&self) {
        self.handle().flush();
    }
}

/// Per-worker WAL state: the buffer of accepted-but-not-yet-cut records
/// and its position in the shard's accepted-record sequence. Lives on the
/// worker thread; cuts segments into the uploader queue.
pub(crate) struct ShardWal {
    handle: UploadHandle,
    shard: usize,
    wal_sync: usize,
    /// Accepted records not yet cut into a segment. `pending[0]` is record
    /// `base` of the summary's `total_pushed` sequence.
    pending: Vec<f64>,
    base: u64,
}

impl ShardWal {
    pub(crate) fn new(handle: UploadHandle, shard: usize, wal_sync: usize, base: u64) -> Self {
        Self {
            handle,
            shard,
            wal_sync,
            pending: Vec::with_capacity(wal_sync),
            base,
        }
    }

    /// Logs one accepted record, cutting a segment when the buffer fills.
    pub(crate) fn record(&mut self, v: f64) {
        self.handle
            .metrics
            .amplification
            .add_denominator(BYTES_PER_RECORD);
        self.pending.push(v);
        self.cut_full_segments();
    }

    /// Logs the accepted (finite) records of a batch, in order.
    pub(crate) fn record_batch(&mut self, values: &[f64]) {
        let before = self.pending.len();
        self.pending
            .extend(values.iter().copied().filter(|v| v.is_finite()));
        let accepted = (self.pending.len() - before) as u64;
        if accepted > 0 {
            self.handle
                .metrics
                .amplification
                .add_denominator(accepted * BYTES_PER_RECORD);
        }
        self.cut_full_segments();
    }

    fn cut_full_segments(&mut self) {
        while self.pending.len() >= self.wal_sync {
            let records: Vec<f64> = self.pending.drain(..self.wal_sync).collect();
            let seg = WalSegment {
                shard: self.shard as u64,
                base: self.base,
                records,
            };
            let bytes = seg.encode();
            self.handle.send_segment(self.shard, self.base, bytes);
            self.base += self.wal_sync as u64;
        }
    }

    /// A full frame at `seq` (= the summary's `total_pushed`) was just
    /// encoded: ship it, and drop the pending buffer — everything in it is
    /// covered by the frame. The uploader truncates the superseded log
    /// once the frame lands.
    pub(crate) fn on_frame(&mut self, seq: u64, frame: Vec<u8>) {
        self.handle.send_frame(self.shard, seq, frame);
        self.pending.clear();
        self.base = seq;
    }
}

/// Reconstructs one shard's summary from the store: newest frame + ordered
/// WAL replay. Returns a summary bit-identical to the never-crashed one up
/// to the last contiguously durable record. Every store read retries with
/// backoff (counting into `retries`); replay stops at the first gap or
/// undecodable segment — records past a discontinuity cannot be replayed
/// in order.
///
/// `fresh` supplies the empty summary used when no frame exists yet.
pub(crate) fn recover_shard(
    store: &dyn CheckpointStore,
    shard: usize,
    retries: &Counter,
    fresh: impl FnOnce() -> FixedWindowHistogram,
) -> Result<FixedWindowHistogram, StoreError> {
    let ids = with_retry(retries, shard as u64, || store.list(shard))?;
    let newest_frame = ids
        .iter()
        .filter(|id| id.kind == ObjectKind::Frame)
        .max_by_key(|id| id.seq);
    let mut fw = match newest_frame {
        Some(id) => {
            let bytes = with_retry(retries, shard as u64, || store.get(id))?;
            FixedWindowHistogram::restore(&bytes).map_err(|e| StoreError {
                op: "get",
                detail: format!("stored frame failed restore: {e}"),
            })?
        }
        None => fresh(),
    };
    let mut expected = fw.total_pushed();
    for id in ids.iter().filter(|id| id.kind == ObjectKind::WalSegment) {
        if id.seq > expected {
            break; // gap: nothing past it is contiguous
        }
        let bytes = with_retry(retries, shard as u64, || store.get(id))?;
        let Ok(seg) = WalSegment::decode(&bytes) else {
            break; // undecodable: stop at the last trustworthy record
        };
        if seg.end() <= expected {
            continue; // fully covered by the frame or an earlier segment
        }
        let skip = (expected - seg.base) as usize;
        for &v in &seg.records[skip..] {
            fw.push(v);
        }
        expected = seg.end();
    }
    Ok(fw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamhist_core::{FailingStore, MemStore};

    fn fresh() -> FixedWindowHistogram {
        FixedWindowHistogram::new(64, 4, 0.1)
    }

    /// Reference: the summary a never-crashed worker would hold.
    fn reference(records: &[f64]) -> FixedWindowHistogram {
        let mut fw = fresh();
        for &v in records {
            fw.push(v);
        }
        fw
    }

    fn seg(shard: u64, base: u64, records: &[f64]) -> Vec<u8> {
        WalSegment {
            shard,
            base,
            records: records.to_vec(),
        }
        .encode()
    }

    #[test]
    fn recover_from_empty_store_is_a_fresh_summary() {
        let store = MemStore::new();
        let fw = recover_shard(&store, 0, &Counter::default(), fresh).unwrap();
        assert_eq!(fw.total_pushed(), 0);
    }

    #[test]
    fn recover_replays_frame_plus_tail_segments() {
        let store = MemStore::new();
        let all: Vec<f64> = (0..24).map(|i| f64::from(i % 7)).collect();
        // Frame covers the first 16 records; two 4-record segments follow.
        store
            .put_frame(2, 16, &reference(&all[..16]).encode_checkpoint())
            .unwrap();
        store
            .put_wal_segment(2, 16, &seg(2, 16, &all[16..20]))
            .unwrap();
        store
            .put_wal_segment(2, 20, &seg(2, 20, &all[20..24]))
            .unwrap();
        let fw = recover_shard(&store, 2, &Counter::default(), fresh).unwrap();
        assert_eq!(fw.total_pushed(), 24);
        assert_eq!(
            fw.encode_checkpoint(),
            reference(&all).encode_checkpoint(),
            "bit-identical to the never-crashed summary"
        );
    }

    #[test]
    fn recover_skips_segments_the_frame_covers_and_partially_covered_ones() {
        let store = MemStore::new();
        let all: Vec<f64> = (0..12).map(|i| f64::from(i * 3 % 11)).collect();
        // Stale segments under the frame (an unfinished truncate), plus one
        // segment straddling the frame boundary.
        store.put_wal_segment(0, 0, &seg(0, 0, &all[..4])).unwrap();
        store
            .put_wal_segment(0, 4, &seg(0, 4, &all[4..10]))
            .unwrap();
        store
            .put_frame(0, 8, &reference(&all[..8]).encode_checkpoint())
            .unwrap();
        store
            .put_wal_segment(0, 10, &seg(0, 10, &all[10..]))
            .unwrap();
        let fw = recover_shard(&store, 0, &Counter::default(), fresh).unwrap();
        assert_eq!(fw.total_pushed(), 12);
        assert_eq!(fw.encode_checkpoint(), reference(&all).encode_checkpoint());
    }

    #[test]
    fn recover_stops_at_a_gap() {
        let store = MemStore::new();
        let all: Vec<f64> = (0..20).map(f64::from).collect();
        store
            .put_frame(1, 8, &reference(&all[..8]).encode_checkpoint())
            .unwrap();
        // 8..12 is missing; 12..16 must not be replayed out of order.
        store
            .put_wal_segment(1, 12, &seg(1, 12, &all[12..16]))
            .unwrap();
        let fw = recover_shard(&store, 1, &Counter::default(), fresh).unwrap();
        assert_eq!(fw.total_pushed(), 8, "replay stops at the discontinuity");
    }

    #[test]
    fn recover_retries_through_transient_store_faults() {
        let inner = MemStore::new();
        let all: Vec<f64> = (0..10).map(f64::from).collect();
        inner
            .put_frame(0, 8, &reference(&all[..8]).encode_checkpoint())
            .unwrap();
        inner.put_wal_segment(0, 8, &seg(0, 8, &all[8..])).unwrap();
        // Every second call fails; with_retry absorbs each fault.
        let store = FailingStore::every_nth(inner, 2);
        let retries = Counter::default();
        let fw = recover_shard(&store, 0, &retries, fresh).unwrap();
        assert_eq!(fw.total_pushed(), 10);
        assert!(retries.get() > 0, "the faults were retried, not fatal");
        assert_eq!(fw.encode_checkpoint(), reference(&all).encode_checkpoint());
    }

    #[test]
    fn uploader_writes_segments_frames_and_truncates() {
        let store: Arc<MemStore> = Arc::new(MemStore::new());
        let metrics = Arc::new(WalMetricsInner::default());
        let recorder = Arc::new(FlightRecorder::default());
        let uploader = Uploader::spawn(
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
            16,
            Arc::clone(&metrics),
            Arc::clone(&recorder),
        );
        let handle = uploader.handle(OverloadPolicy::Block, Arc::clone(&metrics));
        let mut wal = ShardWal::new(handle.clone(), 0, 4, 0);
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        wal.record_batch(&values); // cuts segments [0..4) and [4..8)
        handle.flush();
        assert_eq!(metrics.segments_written.get(), 2);
        assert_eq!(store.list(0).unwrap().len(), 2);
        // A frame at 10 supersedes both segments.
        wal.on_frame(10, reference(&values).encode_checkpoint());
        handle.flush();
        assert_eq!(metrics.frames_written.get(), 1);
        let ids = store.list(0).unwrap();
        assert_eq!(ids.len(), 1, "the durable frame truncated the log");
        assert_eq!(ids[0].kind, ObjectKind::Frame);
        assert_eq!(ids[0].seq, 10);
        let status = metrics.status(&DurabilityOptions::new(store).wal_sync(4), 1024);
        assert_eq!(status.bytes_ingested, 80);
        assert!(status.amplification > 0.0);
        assert_eq!(status.failures, 0);
        // The durable frame landed in the flight recorder with its store
        // sequence and encoded size.
        let uploads: Vec<_> = recorder
            .all_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::CheckpointUploaded {
                    shard,
                    upload_seq,
                    bytes,
                } => Some((shard, upload_seq, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(uploads.len(), 1);
        assert_eq!(uploads[0].0, 0);
        assert_eq!(uploads[0].1, 10);
        assert!(uploads[0].2 > 0);
        // Drop the tx clones before the uploader: its Drop joins the
        // thread, which only exits once every handle is gone.
        drop(wal);
        drop(handle);
        drop(uploader);
    }

    #[test]
    fn uploader_retries_against_an_injected_fault_store() {
        let store = Arc::new(FailingStore::every_nth(MemStore::new(), 3));
        let metrics = Arc::new(WalMetricsInner::default());
        let recorder = Arc::new(FlightRecorder::default());
        let uploader = Uploader::spawn(
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
            16,
            Arc::clone(&metrics),
            Arc::clone(&recorder),
        );
        let handle = uploader.handle(OverloadPolicy::Block, Arc::clone(&metrics));
        let mut wal = ShardWal::new(handle.clone(), 0, 2, 0);
        for i in 0..20 {
            wal.record(f64::from(i));
        }
        handle.flush();
        assert_eq!(metrics.segments_written.get(), 10, "every segment landed");
        assert_eq!(metrics.failures.get(), 0);
        assert!(metrics.retries.get() > 0, "faults were absorbed by retries");
        assert_eq!(store.inner().list(0).unwrap().len(), 10);
        // Each retry the counter saw is also on the flight-recorder
        // timeline, attributed to the shard that retried.
        let retried = recorder
            .all_events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::UploadRetried { shard: 0, .. }))
            .count() as u64;
        assert_eq!(retried, metrics.retries.get());
        drop(wal);
        drop(handle);
        drop(uploader);
    }
}
