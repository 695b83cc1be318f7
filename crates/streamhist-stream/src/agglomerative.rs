//! The agglomerative (whole-stream) algorithm — paper §4.3, Figure 3
//! (originally Guha, Koudas & Shim, STOC 2001).
//!
//! For every level `k = 1 .. B−1` the algorithm maintains a queue of
//! intervals covering the prefix indices seen so far, with the property
//! (paper Eq. 4, for `δ = ε/(2B)`):
//!
//! ```text
//! a_ℓ = b_{ℓ−1} + 1,   HERROR[b_ℓ, k] ≤ (1+δ)·HERROR[a_ℓ, k],   b_ℓ maximal
//! ```
//!
//! On a new point `j`, `HERROR[j, k]` is (approximately) computed by
//! minimizing only over the interval *endpoints* of the level `k−1` queue —
//! `O((1/δ) log n)` candidates instead of `j−1`. The point then either
//! extends the last interval of each queue or starts a new one. Prefix sums
//! are stored only at interval endpoints, giving total space
//! `O((B²/ε) log n)`.
//!
//! The queue maintenance and minimization live in the shared
//! `kernel` module; this type drives it in online mode over whole-stream
//! running totals.

use crate::kernel::{Kernel, KernelStats, SnapshotCache, StreamTotals};
use std::sync::Arc;
use streamhist_core::checkpoint::{tag, Checkpoint, FrameReader, FrameWriter};
use streamhist_core::{BatchOutcome, Histogram, PrefixProvider, StreamSummary, StreamhistError};

/// One-pass `(1+ε)`-approximate V-optimal histogram of an entire stream.
///
/// The summary is `Send + 'static` (its boundary chains live in a flat
/// index-linked arena), so it can be built on one thread and handed to
/// another — see `ShardedFixedWindow` for the sharded-deployment pattern.
///
/// # Example
///
/// ```
/// use streamhist_stream::AgglomerativeHistogram;
///
/// let mut agg = AgglomerativeHistogram::new(2, 0.1);
/// for v in [10.0, 10.0, 10.0, 50.0, 50.0] {
///     agg.push(v);
/// }
/// let h = agg.histogram();
/// assert_eq!(h.bucket_ends(), vec![2, 4]); // split at the level change
/// assert!(h.sse(&[10.0, 10.0, 10.0, 50.0, 50.0]) < 1e-9);
/// ```
#[derive(Debug)]
pub struct AgglomerativeHistogram {
    b: usize,
    eps: f64,
    delta: f64,
    totals: StreamTotals,
    kernel: Kernel,
    /// Mutation counter keying the snapshot cache.
    generation: u64,
    cache: SnapshotCache,
}

/// Validating builder for [`AgglomerativeHistogram`] — the non-panicking
/// constructor surface.
#[derive(Debug, Clone)]
pub struct AgglomerativeBuilder {
    b: usize,
    eps: f64,
    delta: Option<f64>,
}

impl AgglomerativeBuilder {
    /// Overrides the paper's default interval growth factor `δ = ε/(2B)`
    /// (ABL-DELTA ablation).
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Validates every parameter and constructs the summary.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::InvalidParameter`] if `b == 0`, `eps` is
    /// not positive, or an overridden `delta` is not positive.
    pub fn build(self) -> Result<AgglomerativeHistogram, StreamhistError> {
        if self.b == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "b",
                message: "need at least one bucket",
            });
        }
        if self.eps.is_nan() || self.eps <= 0.0 {
            return Err(StreamhistError::InvalidParameter {
                param: "eps",
                message: "eps must be positive",
            });
        }
        let delta = self.delta.unwrap_or(self.eps / (2.0 * self.b as f64));
        if delta.is_nan() || delta <= 0.0 {
            return Err(StreamhistError::InvalidParameter {
                param: "delta",
                message: "delta must be positive",
            });
        }
        Ok(AgglomerativeHistogram {
            b: self.b,
            eps: self.eps,
            delta,
            totals: StreamTotals::default(),
            kernel: Kernel::new_online(self.b, delta),
            generation: 0,
            cache: SnapshotCache::default(),
        })
    }
}

impl AgglomerativeHistogram {
    /// Starts a validating builder for at most `b` buckets and
    /// approximation parameter `eps` (paper default `δ = ε/(2B)` unless
    /// overridden).
    #[must_use]
    pub fn builder(b: usize, eps: f64) -> AgglomerativeBuilder {
        AgglomerativeBuilder {
            b,
            eps,
            delta: None,
        }
    }

    /// Creates the summary for at most `b` buckets and approximation
    /// parameter `eps`, using the paper's interval growth factor
    /// `δ = ε/(2B)`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` or `eps <= 0`; use [`builder`](Self::builder)
    /// for the validating, non-panicking form.
    #[must_use]
    pub fn new(b: usize, eps: f64) -> Self {
        Self::builder(b, eps)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the summary with an explicit interval growth factor `delta`
    /// (the ABL-DELTA ablation; the paper's Example 1 effectively uses
    /// `delta = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`, `eps <= 0`, or `delta <= 0`.
    #[must_use]
    pub fn with_delta(b: usize, eps: f64, delta: f64) -> Self {
        Self::builder(b, eps)
            .delta(delta)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the summary by pushing every value of `data` (a convenience
    /// for the offline Problem 2 use).
    #[must_use]
    pub fn from_slice(data: &[f64], b: usize, eps: f64) -> Self {
        let mut agg = Self::new(b, eps);
        for &v in data {
            agg.push(v);
        }
        agg
    }

    /// The bucket budget `B`.
    #[must_use]
    pub fn b(&self) -> usize {
        self.b
    }

    /// The approximation parameter `ε`.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The interval growth factor `δ` in use.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of stream points consumed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether any points have been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.totals.len() == 0
    }

    /// Cumulative kernel diagnostics since creation: queue sizes, `HERROR`
    /// evaluations, arena occupancy/peak and compactions, and the current
    /// `HERROR` estimate. (`binary_searches` and `rebases` are always 0 in
    /// this mode.)
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats(0)
    }

    /// Consumes one stream point, or rejects it if it is not finite
    /// (NaN/infinity would silently corrupt the running totals and every
    /// later answer). On rejection the summary is unchanged and remains
    /// fully usable. Cost `O(B · q)` where `q` is the current queue length.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::NonFiniteValue`] if `v` is NaN or
    /// infinite.
    pub fn try_push(&mut self, v: f64) -> Result<(), StreamhistError> {
        if !v.is_finite() {
            return Err(StreamhistError::NonFiniteValue { value: v });
        }
        self.totals.push(v);
        self.kernel.push_point(&self.totals);
        self.generation += 1;
        Ok(())
    }

    /// Consumes a slab of stream points with partial-acceptance semantics
    /// (non-finite values rejected and counted, the rest ingested in
    /// order); equivalent to per-point [`try_push`](Self::try_push).
    ///
    /// The agglomerative recurrence must evaluate every level at every new
    /// index, so unlike the fixed-window summary there is no deferred
    /// rebuild here — the batched entry point hoists validation/dispatch
    /// overhead and keeps slab producers (the sharded serving layer) on
    /// one call per slab.
    pub fn push_batch(&mut self, values: &[f64]) -> BatchOutcome {
        let out = self.kernel.push_slab(&mut self.totals, values);
        if out.accepted > 0 {
            self.generation += 1;
        }
        out
    }

    /// Restores the summary to its freshly-constructed state, keeping the
    /// configuration (`B`, `ε`, `δ`).
    pub fn reset(&mut self) {
        self.totals = StreamTotals::default();
        self.kernel = Kernel::new_online(self.b, self.delta);
        self.generation += 1;
        self.cache.clear();
    }

    /// Consumes one stream point. Cost `O(B · q)` where `q` is the current
    /// queue length.
    ///
    /// Thin panicking wrapper around [`try_push`](Self::try_push), for
    /// callers that control their input; serving paths use `try_push` and
    /// count rejects instead.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite (NaN/infinity would silently corrupt
    /// the prefix sums and every later answer).
    pub fn push(&mut self, v: f64) {
        if let Err(e) = self.try_push(v) {
            panic!("{e}");
        }
    }

    /// Materializes the current `(1+ε)`-approximate B-histogram of
    /// everything pushed so far — `O(B)`, the winning chain is maintained
    /// incrementally — or returns the cached snapshot as a cheap [`Arc`]
    /// clone when nothing changed since the last materialization.
    #[must_use]
    pub fn histogram(&self) -> Arc<Histogram> {
        self.cache
            .get_or_build(self.generation, || {
                (self.kernel.materialize_top(), self.kernel.stats(0))
            })
            .0
    }
}

impl Checkpoint for AgglomerativeHistogram {
    /// Serializes the running totals plus the full online-DP state
    /// (queues, boundary-chain arena, work counters) via
    /// `Kernel::encode_state`. The whole-stream recurrence cannot be
    /// replayed from buffered points — the points are gone — so unlike the
    /// window summaries the DP state itself is the checkpoint payload; the
    /// kernel clones-and-compacts on encode so the frame holds exactly the
    /// live chain set, and every DP value round-trips bit-exactly.
    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::AGGLOMERATIVE);
        w.put_f64(self.eps);
        w.put_varint(self.generation);
        self.totals.encode_state(&mut w);
        self.kernel.encode_state(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        let mut r = FrameReader::open(bytes, tag::AGGLOMERATIVE)?;
        let eps = r.get_f64()?;
        if eps <= 0.0 {
            return Err(corrupt("eps must be positive"));
        }
        let generation = r.get_varint()?;
        let totals = StreamTotals::decode_state(&mut r)?;
        let kernel = Kernel::decode_state(&mut r)?;
        r.finish()?;
        if (totals.len() == 0) != kernel.top.is_none() {
            return Err(corrupt("totals and DP state disagree on emptiness"));
        }
        Ok(Self {
            b: kernel.b(),
            eps,
            delta: kernel.delta(),
            totals,
            kernel,
            generation,
            cache: SnapshotCache::default(),
        })
    }
}

impl StreamSummary for AgglomerativeHistogram {
    fn try_push(&mut self, v: f64) -> Result<(), StreamhistError> {
        AgglomerativeHistogram::try_push(self, v)
    }

    fn push(&mut self, v: f64) {
        AgglomerativeHistogram::push(self, v);
    }

    fn push_batch(&mut self, values: &[f64]) -> BatchOutcome {
        AgglomerativeHistogram::push_batch(self, values)
    }

    /// Whole-stream length: every point ever accepted.
    fn len(&self) -> usize {
        AgglomerativeHistogram::len(self)
    }

    fn reset(&mut self) {
        AgglomerativeHistogram::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_yields_empty_histogram() {
        let agg = AgglomerativeHistogram::new(3, 0.1);
        assert!(agg.is_empty());
        assert_eq!(agg.histogram().domain_len(), 0);
        assert_eq!(agg.kernel_stats().herror, 0.0);
    }

    #[test]
    fn single_point() {
        let mut agg = AgglomerativeHistogram::new(3, 0.1);
        agg.push(42.0);
        let h = agg.histogram();
        assert_eq!(h.domain_len(), 1);
        assert_eq!(h.point(0), 42.0);
        assert_eq!(agg.kernel_stats().herror, 0.0);
    }

    #[test]
    fn one_bucket_budget_tracks_global_mean() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let mut agg = AgglomerativeHistogram::new(1, 0.5);
        for &v in &data {
            agg.push(v);
        }
        let h = agg.histogram();
        assert_eq!(h.num_buckets(), 1);
        assert!((h.buckets()[0].height - 2.5).abs() < 1e-12);
        assert!((agg.kernel_stats().herror - 5.0).abs() < 1e-9);
    }

    #[test]
    fn detects_exact_two_level_split() {
        let mut data = vec![7.0; 20];
        data.extend(vec![90.0; 20]);
        let agg = AgglomerativeHistogram::from_slice(&data, 2, 0.1);
        let h = agg.histogram();
        assert_eq!(h.bucket_ends(), vec![19, 39]);
        assert!(h.sse(&data) < 1e-9);
    }

    #[test]
    fn domain_tracks_stream_length() {
        let mut agg = AgglomerativeHistogram::new(4, 0.2);
        for i in 0..57 {
            agg.push((i % 5) as f64);
            assert_eq!(agg.histogram().domain_len(), i + 1);
        }
        assert_eq!(agg.len(), 57);
    }

    #[test]
    fn respects_bucket_budget() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 31) % 19) as f64).collect();
        for b in 1..=6 {
            let agg = AgglomerativeHistogram::from_slice(&data, b, 0.1);
            assert!(agg.histogram().num_buckets() <= b, "b={b}");
        }
    }

    #[test]
    fn sse_estimate_upper_bounds_realized_sse() {
        // The maintained HERROR value must be >= the SSE the materialized
        // chain actually achieves (the chain-soundness invariant).
        let data: Vec<f64> = (0..200).map(|i| ((i * 17 + 3) % 23) as f64).collect();
        for b in [2, 3, 5] {
            for eps in [0.05, 0.2, 1.0] {
                let agg = AgglomerativeHistogram::from_slice(&data, b, eps);
                let realized = agg.histogram().sse(&data);
                let estimate = agg.kernel_stats().herror;
                assert!(
                    realized <= estimate + 1e-6,
                    "b={b} eps={eps}: realized {realized} > estimate {estimate}"
                );
            }
        }
    }

    #[test]
    fn queue_sizes_stay_sublinear_on_smooth_data() {
        // A slowly growing sequence: HERROR grows steadily, so queue sizes
        // should be far below n.
        let data: Vec<f64> = (0..2000).map(|i| (i as f64).sqrt()).collect();
        let agg = AgglomerativeHistogram::from_slice(&data, 4, 0.5);
        for (k, qs) in agg.kernel_stats().queue_sizes.iter().enumerate() {
            assert!(*qs < 400, "level {k} queue has {qs} intervals for n=2000");
        }
    }

    #[test]
    fn monotone_improvement_with_more_buckets() {
        let data: Vec<f64> = (0..150)
            .map(|i| ((i * 7) % 13) as f64 + (i / 50) as f64 * 40.0)
            .collect();
        let mut last = f64::INFINITY;
        for b in 1..=6 {
            let agg = AgglomerativeHistogram::from_slice(&data, b, 0.1);
            let sse = agg.histogram().sse(&data);
            assert!(sse <= last * 1.05 + 1e-9, "b={b}: {sse} vs {last}");
            last = last.min(sse);
        }
    }

    #[test]
    fn kernel_stats_expose_dp_work() {
        let data: Vec<f64> = (0..300).map(|i| ((i * 31) % 19) as f64).collect();
        let agg = AgglomerativeHistogram::from_slice(&data, 4, 0.1);
        let stats = agg.kernel_stats();
        // The stats record is the one home for the kernel diagnostics the
        // removed free-standing getters used to mirror: per-level queue
        // sizes and the maintained HERROR estimate.
        assert_eq!(stats.queue_sizes.len(), 3, "B-1 interval-queue levels");
        assert!(stats.queue_sizes.iter().all(|&q| q > 0));
        assert!(stats.herror >= 0.0 && stats.herror.is_finite());
        // One HERROR evaluation per level k >= 2 per push.
        assert_eq!(stats.herror_evals, data.len() * 3);
        assert_eq!(stats.binary_searches, 0);
        assert_eq!(stats.rebases, 0);
        assert!(stats.arena_nodes > 0);
        assert!(stats.arena_peak >= stats.arena_nodes);
    }

    #[test]
    fn builder_validates_and_push_batch_matches_per_point() {
        assert!(matches!(
            AgglomerativeHistogram::builder(0, 0.1).build(),
            Err(StreamhistError::InvalidParameter { param: "b", .. })
        ));
        assert!(matches!(
            AgglomerativeHistogram::builder(3, -0.5).build(),
            Err(StreamhistError::InvalidParameter { param: "eps", .. })
        ));
        let data: Vec<f64> = (0..250).map(|i| ((i * 19 + 3) % 29) as f64).collect();
        let mut seq = AgglomerativeHistogram::new(4, 0.1);
        let mut bat = AgglomerativeHistogram::builder(4, 0.1)
            .build()
            .expect("valid parameters");
        for &v in &data {
            seq.push(v);
        }
        let mut slab = data.clone();
        slab.insert(100, f64::NAN);
        let out = bat.push_batch(&slab);
        assert_eq!(out.accepted, data.len());
        assert_eq!(out.rejected, 1);
        assert_eq!(*seq.histogram(), *bat.histogram());
        assert_eq!(seq.kernel_stats(), bat.kernel_stats());
    }

    #[test]
    fn snapshot_cache_and_reset() {
        let mut agg = AgglomerativeHistogram::new(3, 0.2);
        agg.push_batch(&[1.0, 5.0, 5.0, 9.0]);
        let h1 = agg.histogram();
        assert!(std::sync::Arc::ptr_eq(&h1, &agg.histogram()));
        agg.push(2.0);
        assert!(!std::sync::Arc::ptr_eq(&h1, &agg.histogram()));
        agg.reset();
        assert!(agg.is_empty());
        assert_eq!(agg.histogram().domain_len(), 0);
        assert_eq!(agg.kernel_stats().herror, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = AgglomerativeHistogram::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn zero_eps_rejected() {
        let _ = AgglomerativeHistogram::new(2, 0.0);
    }
}
