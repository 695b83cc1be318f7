//! The fixed-window (sliding-window) algorithm — paper §4.5, Figure 5.
//!
//! The agglomerative queues cannot survive a window slide: "if we have a
//! good approximation by intervals of a function, it does not necessarily
//! approximate the same function if the function is shifted by a constant
//! amount" (paper §4.4, Figure 4). The fixed-window algorithm therefore
//! keeps only `O(1)`-amortized per-push state — a circular buffer plus the
//! sliding prefix sums `SUM'`/`SQSUM'` — and rebuilds the interval lists
//! *lazily and sparsely* whenever a histogram is requested, via the
//! recursive `CreateList[a, b, k]` procedure:
//!
//! * `CreateList` covers `[0, m)` with intervals inside which the
//!   `(≤k)`-bucket error `HERROR[·, k]` grows by at most `(1+δ)`; the next
//!   interval endpoint is located by **binary search** over the monotone
//!   `HERROR[·, k]`, so only `O(q · log n)` positions are ever evaluated
//!   (`q` = interval count), never the whole buffer.
//! * Each `HERROR[c, k]` evaluation minimizes over the level `k−1` interval
//!   endpoints (plus the single-bucket candidate, plus a clipped candidate
//!   for the interval straddling `c`).
//!
//! Total per materialization: `O((B³/ε²) log³ n)` (paper Theorem 1).
//!
//! Both steps live in the shared `kernel` module (batch mode), driven
//! here over a [`SlidingPrefixSums`] provider.

use crate::kernel::{Kernel, KernelStats, SnapshotCache};
use std::collections::VecDeque;
use std::sync::Arc;
use streamhist_core::checkpoint::{tag, Checkpoint, FrameReader, FrameWriter};
use streamhist_core::{
    BatchOutcome, Histogram, MergeableSummary, SlidingPrefixSums, StreamSummary, StreamhistError,
};

/// Sliding-window `(1+ε)`-approximate V-optimal histogram over the last
/// `n` stream points (paper §4.5).
///
/// [`push`](Self::push) is amortized `O(1)`;
/// [`histogram`](Self::histogram) runs `CreateList` and costs
/// `O((B³/ε²) log³ n)`. [`push_and_build`](Self::push_and_build) performs
/// both, which is the paper's per-point maintenance loop.
///
/// The summary is `Send + 'static`, so shards can run on worker threads —
/// [`crate::ShardedFixedWindow`] packages that pattern.
///
/// # Example
///
/// ```
/// use streamhist_stream::FixedWindowHistogram;
///
/// // Paper §4.5 Example 1: window of 8, B = 2, δ = 1.
/// let mut fw = FixedWindowHistogram::with_delta(8, 2, 1.0, 1.0);
/// for v in [100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0] {
///     fw.push(v);
/// }
/// // Window is now 0,0,0,1,1,1,1,1 — the optimum splits after the zeros.
/// let h = fw.histogram();
/// assert_eq!(h.bucket_ends(), vec![2, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct FixedWindowHistogram {
    b: usize,
    eps: f64,
    delta: f64,
    prefix: SlidingPrefixSums,
    raw: VecDeque<f64>,
    total_pushed: u64,
    /// Mutation counter: bumped on every state change, keys the snapshot
    /// cache (a cached build is valid exactly while this is unchanged).
    generation: u64,
    cache: SnapshotCache,
}

/// Validating builder for [`FixedWindowHistogram`] — the non-panicking
/// constructor surface.
///
/// ```
/// use streamhist_stream::FixedWindowHistogram;
///
/// let fw = FixedWindowHistogram::builder(128, 8, 0.1).build()?;
/// assert_eq!(fw.capacity(), 128);
/// assert!(FixedWindowHistogram::builder(0, 8, 0.1).build().is_err());
/// # Ok::<(), streamhist_core::StreamhistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedWindowBuilder {
    capacity: usize,
    b: usize,
    eps: f64,
    delta: Option<f64>,
    rebase_period: Option<usize>,
}

impl FixedWindowBuilder {
    /// Overrides the paper's default interval growth factor `δ = ε/(2B)`
    /// (ABL-DELTA ablation; the paper's Example 1 uses `delta = 1`).
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Overrides the prefix-sum rebase period (ABL-REBASE ablation; the
    /// paper rebases every `n` pushes, the default).
    #[must_use]
    pub fn rebase_period(mut self, period: usize) -> Self {
        self.rebase_period = Some(period);
        self
    }

    /// Validates every parameter and constructs the summary.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::InvalidParameter`] if `capacity == 0`,
    /// `b == 0`, `eps` is not positive, or an overridden `delta`/
    /// `rebase_period` is out of domain.
    pub fn build(self) -> Result<FixedWindowHistogram, StreamhistError> {
        if self.capacity == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "capacity",
                message: "window capacity must be positive",
            });
        }
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
        let period = self.rebase_period.unwrap_or(self.capacity);
        if period == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "rebase_period",
                message: "rebase period must be positive",
            });
        }
        Ok(FixedWindowHistogram {
            b: self.b,
            eps: self.eps,
            delta,
            prefix: SlidingPrefixSums::with_rebase_period(self.capacity, period),
            raw: VecDeque::with_capacity(self.capacity),
            total_pushed: 0,
            generation: 0,
            cache: SnapshotCache::default(),
        })
    }
}

impl FixedWindowHistogram {
    /// Starts a validating builder for a summary over a window of
    /// `capacity` points, at most `b` buckets, approximation `eps`, with
    /// the paper's `δ = ε/(2B)` unless overridden.
    #[must_use]
    pub fn builder(capacity: usize, b: usize, eps: f64) -> FixedWindowBuilder {
        FixedWindowBuilder {
            capacity,
            b,
            eps,
            delta: None,
            rebase_period: None,
        }
    }

    /// Creates a summary over a window of `capacity` points, at most `b`
    /// buckets, approximation `eps`, with the paper's `δ = ε/(2B)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `b == 0`, or `eps <= 0`; use
    /// [`builder`](Self::builder) for the validating, non-panicking form.
    #[must_use]
    pub fn new(capacity: usize, b: usize, eps: f64) -> Self {
        Self::builder(capacity, b, eps)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a summary with an explicit interval growth factor `delta`
    /// (ABL-DELTA ablation; the paper's Example 1 uses `delta = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `b == 0`, `eps <= 0`, or `delta <= 0`.
    #[must_use]
    pub fn with_delta(capacity: usize, b: usize, eps: f64, delta: f64) -> Self {
        Self::builder(capacity, b, eps)
            .delta(delta)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overrides the prefix-sum rebase period (ABL-REBASE ablation; the
    /// paper rebases every `n` pushes).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Self::new`] or if
    /// `rebase_period == 0`.
    #[must_use]
    pub fn with_rebase_period(capacity: usize, b: usize, eps: f64, rebase_period: usize) -> Self {
        Self::builder(capacity, b, eps)
            .rebase_period(rebase_period)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Window capacity `n`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.prefix.capacity()
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

    /// Number of points currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Whether the window is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.raw.len() == self.prefix.capacity()
    }

    /// Total number of points ever pushed.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// The raw window contents, oldest first (used by harnesses to compute
    /// exact query answers).
    #[must_use]
    pub fn window(&self) -> Vec<f64> {
        self.raw.iter().copied().collect()
    }

    /// Consumes one point, evicting the oldest when full, or rejects it if
    /// it is not finite (NaN/infinity would silently corrupt the prefix
    /// sums and every later answer). On rejection the summary is unchanged
    /// and remains fully usable. Amortized `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::NonFiniteValue`] if `v` is NaN or
    /// infinite.
    pub fn try_push(&mut self, v: f64) -> Result<(), StreamhistError> {
        if !v.is_finite() {
            return Err(StreamhistError::NonFiniteValue { value: v });
        }
        if self.raw.len() == self.prefix.capacity() {
            self.raw.pop_front();
        }
        self.raw.push_back(v);
        #[cfg(feature = "obs")]
        let rebases0 = self.prefix.rebases();
        self.prefix.push(v);
        #[cfg(feature = "obs")]
        if let Some(t) = crate::telemetry::active_kernel_tracer() {
            t.rebases.inc_by((self.prefix.rebases() - rebases0) as u64);
        }
        self.total_pushed += 1;
        self.generation += 1;
        Ok(())
    }

    /// Consumes a whole slab of points — the batch ingestion fast path.
    ///
    /// Equivalent to calling [`try_push`](Self::try_push) per value **bit
    /// for bit** (window contents, `SUM'`/`SQSUM'` state and the rebase
    /// schedule all match), with partial-acceptance semantics: non-finite
    /// values are rejected and counted in the returned [`BatchOutcome`],
    /// ingestion continues with the next value.
    ///
    /// The speedup comes from hoisting per-point overhead out of the hot
    /// loop: each maximal run of finite values is appended to the prefix
    /// store in one pass ([`SlidingPrefixSums::push_slab`] — one rebase
    /// check per rebase-boundary chunk, running sums kept in registers)
    /// and the interval-list work is deferred entirely to the next
    /// [`histogram`](Self::histogram) call, i.e. one `CreateList` rebuild
    /// per slab instead of one per point in the paper's per-point
    /// maintenance loop.
    pub fn push_batch(&mut self, values: &[f64]) -> BatchOutcome {
        #[cfg(feature = "obs")]
        let rebases0 = self.prefix.rebases();
        let mut out = BatchOutcome::default();
        let cap = self.prefix.capacity();
        let mut rest = values;
        while !rest.is_empty() {
            let clean_len = rest
                .iter()
                .position(|v| !v.is_finite())
                .unwrap_or(rest.len());
            let (clean, tail) = rest.split_at(clean_len);
            if !clean.is_empty() {
                for &v in clean {
                    if self.raw.len() == cap {
                        self.raw.pop_front();
                    }
                    self.raw.push_back(v);
                }
                self.prefix.push_slab(clean);
                self.total_pushed += clean.len() as u64;
                out.accepted += clean.len();
            }
            match tail.split_first() {
                Some((_bad, after)) => {
                    out.rejected += 1;
                    rest = after;
                }
                None => rest = &[],
            }
        }
        if out.accepted > 0 {
            self.generation += 1;
        }
        #[cfg(feature = "obs")]
        if let Some(t) = crate::telemetry::active_kernel_tracer() {
            t.rebases.inc_by((self.prefix.rebases() - rebases0) as u64);
        }
        out
    }

    /// Restores the summary to its freshly-constructed state, keeping the
    /// configuration (capacity, `B`, `ε`, `δ`, rebase period).
    pub fn reset(&mut self) {
        let capacity = self.prefix.capacity();
        let period = self.prefix.rebase_period();
        self.prefix = SlidingPrefixSums::with_rebase_period(capacity, period);
        self.raw.clear();
        self.total_pushed = 0;
        self.generation += 1;
        self.cache.clear();
    }

    /// Consumes one point, evicting the oldest when full. Amortized `O(1)`.
    ///
    /// Thin panicking wrapper around [`try_push`](Self::try_push), for
    /// callers that control their input; serving paths (e.g. the sharded
    /// layer) use `try_push` and count rejects instead.
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

    /// Pushes one point and materializes the histogram of the new window —
    /// the paper's per-point maintenance step.
    #[must_use]
    pub fn push_and_build(&mut self, v: f64) -> Arc<Histogram> {
        self.push(v);
        self.histogram()
    }

    /// Materializes the `(1+ε)`-approximate B-histogram of the current
    /// window contents — `O((B³/ε²) log³ n)` (paper Theorem 1) — or, when
    /// nothing changed since the last materialization, returns the cached
    /// snapshot as a cheap [`Arc`] clone.
    #[must_use]
    pub fn histogram(&self) -> Arc<Histogram> {
        self.histogram_with_stats().0
    }

    /// Like [`Self::histogram`], also returning build diagnostics (the
    /// diagnostics of the cached build when served from the cache).
    #[must_use]
    pub fn histogram_with_stats(&self) -> (Arc<Histogram>, KernelStats) {
        self.cache.get_or_build(self.generation, || {
            Kernel::build(&self.prefix, self.b, self.delta)
        })
    }
}

/// Aligned-window gather: `a.merge_from(&b)` materializes each operand's
/// `(1+ε)`-approximate histogram, concatenates the two **expansions** and
/// rebuilds `a` as a summary of that concatenation, with capacity equal to
/// the sum of the operands' capacities so nothing is evicted — exactly the
/// "concatenate bucket lists, re-optimize through the kernel" contract: a
/// subsequent [`histogram`](FixedWindowHistogram::histogram) call runs the
/// normal kernel DP over the gathered sequence and emits a `B`-bucket
/// global snapshot.
///
/// The merged window holds the operands' *approximations*, not their raw
/// points, so the global SSE picks up the gather term `G = Σ SSE(ĥᵢ,
/// windowᵢ)` on top of the kernel's `(1+ε)` factor — the bound is proved
/// in DESIGN.md §7.
///
/// `b`, `eps` and `delta` must agree pairwise; capacities may differ
/// (folding grows them), but the k-way
/// [`merge`](MergeableSummary::merge) additionally requires all parts to
/// share one window capacity — shard fleets are homogeneous, and a
/// capacity mismatch there means misrouted frames.
impl MergeableSummary for FixedWindowHistogram {
    fn merge_from(&mut self, other: &Self) -> Result<(), StreamhistError> {
        if self.b != other.b {
            return Err(StreamhistError::InvalidParameter {
                param: "b",
                message: "merge requires identical bucket budgets",
            });
        }
        if self.eps != other.eps {
            return Err(StreamhistError::InvalidParameter {
                param: "eps",
                message: "merge requires identical eps",
            });
        }
        if self.delta != other.delta {
            return Err(StreamhistError::InvalidParameter {
                param: "delta",
                message: "merge requires identical delta",
            });
        }
        let capacity = self.capacity() + other.capacity();
        let mut merged = FixedWindowHistogram::builder(capacity, self.b, self.eps)
            .delta(self.delta)
            .build()?;
        merged.push_batch(&self.histogram().expand());
        merged.push_batch(&other.histogram().expand());
        // The merged summary logically continues both streams.
        merged.total_pushed = self.total_pushed + other.total_pushed;
        *self = merged;
        Ok(())
    }

    fn merge(parts: &[&Self]) -> Result<Self, StreamhistError> {
        let (first, rest) = parts
            .split_first()
            .ok_or(StreamhistError::InvalidParameter {
                param: "parts",
                message: "merge needs at least one summary",
            })?;
        if rest.iter().any(|p| p.capacity() != first.capacity()) {
            return Err(StreamhistError::InvalidParameter {
                param: "capacity",
                message: "merge requires identical window capacities",
            });
        }
        let mut merged = (*first).clone();
        for part in rest {
            merged.merge_from(part)?;
        }
        Ok(merged)
    }
}

impl Checkpoint for FixedWindowHistogram {
    /// Serializes configuration, the raw buffered window, and the
    /// **complete** rebased prefix state — including the rebase phase
    /// (`since_rebase`), because rebase timing affects the floating-point
    /// rounding of later prefix entries. Interval lists are *not* stored:
    /// the batch kernel rebuilds them deterministically at the next
    /// materialization, so a restored summary is bit-identical to one that
    /// never crashed.
    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::FIXED_WINDOW);
        w.put_usize(self.prefix.capacity());
        w.put_usize(self.b);
        w.put_f64(self.eps);
        w.put_f64(self.delta);
        w.put_usize(self.prefix.rebase_period());
        w.put_varint(self.total_pushed);
        w.put_varint(self.generation);
        let (head, cum) = self.prefix.raw_frame();
        w.put_pair(head);
        w.put_usize(cum.len());
        for &p in &cum {
            w.put_pair(p);
        }
        w.put_usize(self.prefix.since_rebase());
        w.put_usize(self.prefix.rebases());
        w.put_usize(self.raw.len());
        for &v in &self.raw {
            w.put_f64(v);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        let mut r = FrameReader::open(bytes, tag::FIXED_WINDOW)?;
        let capacity = r.get_usize()?;
        let b = r.get_usize()?;
        let eps = r.get_f64()?;
        let delta = r.get_f64()?;
        let rebase_period = r.get_usize()?;
        if b == 0 {
            return Err(corrupt("need at least one bucket"));
        }
        if eps <= 0.0 {
            return Err(corrupt("eps must be positive"));
        }
        if delta <= 0.0 {
            return Err(corrupt("delta must be positive"));
        }
        let total_pushed = r.get_varint()?;
        let generation = r.get_varint()?;
        let head = r.get_pair()?;
        let n = r.get_count(16)?;
        let mut cum = Vec::with_capacity(n);
        for _ in 0..n {
            cum.push(r.get_pair()?);
        }
        let since_rebase = r.get_usize()?;
        let rebases = r.get_usize()?;
        let raw_len = r.get_count(8)?;
        if raw_len != n {
            return Err(corrupt("window and prefix store disagree on length"));
        }
        if total_pushed < raw_len as u64 {
            return Err(corrupt("window holds more points than were pushed"));
        }
        let mut raw = VecDeque::with_capacity(capacity);
        for _ in 0..raw_len {
            raw.push_back(r.get_f64()?);
        }
        r.finish()?;
        let prefix = SlidingPrefixSums::from_checkpoint_state(
            capacity,
            rebase_period,
            head,
            cum,
            since_rebase,
            rebases,
        )?;
        Ok(Self {
            b,
            eps,
            delta,
            prefix,
            raw,
            total_pushed,
            generation,
            cache: SnapshotCache::default(),
        })
    }
}

impl StreamSummary for FixedWindowHistogram {
    fn try_push(&mut self, v: f64) -> Result<(), StreamhistError> {
        FixedWindowHistogram::try_push(self, v)
    }

    fn push(&mut self, v: f64) {
        FixedWindowHistogram::push(self, v);
    }

    fn push_batch(&mut self, values: &[f64]) -> BatchOutcome {
        FixedWindowHistogram::push_batch(self, values)
    }

    /// Window occupancy (`<= capacity`), not the total pushed.
    fn len(&self) -> usize {
        FixedWindowHistogram::len(self)
    }

    fn reset(&mut self) {
        FixedWindowHistogram::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the full paper Example 1 (§4.5) and checks the interval
    /// structure and final histogram against the worked values.
    #[test]
    fn paper_example_1_interval_structure() {
        let mut fw = FixedWindowHistogram::with_delta(8, 2, 1.0, 1.0);
        for v in [100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0] {
            fw.push(v);
        }
        // Window = 100,0,0,0,1,1,1,1. Paper: level-1 intervals (1,1),(2,8)
        // in 1-based indexing -> endpoints {0, 7} 0-based.
        let (h, stats) = fw.histogram_with_stats();
        assert_eq!(stats.queue_sizes, vec![2]);
        // Optimal B=2 split isolates the 100; second bucket is 0,0,0,1,1,1,1
        // with mean 4/7, so the optimal SSE is 84/49.
        assert_eq!(h.bucket_ends(), vec![0, 7]);
        assert!((stats.herror - 84.0 / 49.0).abs() < 1e-9);

        // Slide: drop the 100, insert a trailing 1.
        fw.push(1.0);
        let (h2, stats2) = fw.histogram_with_stats();
        // Paper: endpoints become 3, 6, 8 (1-based) -> {2, 5, 7} 0-based,
        // i.e. intervals (1,3),(4,6),(7,8).
        assert_eq!(stats2.queue_sizes, vec![3]);
        // "we will minimize over the partition being at 3 or 6 and compute
        // the right solution to be (1,3),(4,8)" -> 0-based ends {2, 7}.
        assert_eq!(h2.bucket_ends(), vec![2, 7]);
        assert_eq!(stats2.herror, 0.0);
        let window = fw.window();
        assert!(h2.sse(&window) < 1e-12);
    }

    #[test]
    fn empty_and_singleton_windows() {
        let mut fw = FixedWindowHistogram::new(4, 3, 0.1);
        assert!(fw.is_empty());
        assert_eq!(fw.histogram().domain_len(), 0);
        fw.push(5.0);
        let h = fw.histogram();
        assert_eq!(h.domain_len(), 1);
        assert_eq!(h.point(0), 5.0);
    }

    #[test]
    fn window_slides_and_domain_is_capped() {
        let mut fw = FixedWindowHistogram::new(4, 2, 0.5);
        for i in 0..10 {
            fw.push(i as f64);
            assert_eq!(fw.len(), (i + 1).min(4));
            assert_eq!(fw.histogram().domain_len(), fw.len());
        }
        assert_eq!(fw.window(), vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(fw.total_pushed(), 10);
    }

    #[test]
    fn b_one_returns_window_mean() {
        let mut fw = FixedWindowHistogram::new(4, 1, 0.5);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            fw.push(v);
        }
        let h = fw.histogram();
        assert_eq!(h.num_buckets(), 1);
        assert!((h.buckets()[0].height - 3.5).abs() < 1e-12); // mean of 2..=5
    }

    #[test]
    fn herror_upper_bounds_realized_sse() {
        let data: Vec<f64> = (0..300).map(|i| ((i * 13 + 7) % 31) as f64).collect();
        let mut fw = FixedWindowHistogram::new(64, 4, 0.2);
        for (i, &v) in data.iter().enumerate() {
            fw.push(v);
            if i % 17 == 0 {
                let (h, stats) = fw.histogram_with_stats();
                let realized = h.sse(&fw.window());
                assert!(
                    realized <= stats.herror + 1e-6,
                    "i={i}: realized {realized} > herror {}",
                    stats.herror
                );
            }
        }
    }

    #[test]
    fn respects_bucket_budget_across_slides() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 29) % 17) as f64).collect();
        let mut fw = FixedWindowHistogram::new(32, 5, 0.1);
        for &v in &data {
            let h = fw.push_and_build(v);
            assert!(h.num_buckets() <= 5);
            assert_eq!(h.domain_len(), fw.len());
        }
    }

    #[test]
    fn exact_on_piecewise_constant_window() {
        // Window with at most 3 level regimes must be represented exactly
        // when B >= 3.
        let mut fw = FixedWindowHistogram::new(12, 3, 0.1);
        for v in [5.0, 5.0, 5.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0, 2.0, 2.0, 2.0] {
            fw.push(v);
        }
        let h = fw.histogram();
        assert!(h.sse(&fw.window()) < 1e-12);
        assert_eq!(h.bucket_ends(), vec![2, 6, 11]);
    }

    #[test]
    fn build_stats_report_work_done() {
        let mut fw = FixedWindowHistogram::new(64, 3, 0.2);
        for i in 0..64 {
            fw.push(((i * 7) % 23) as f64);
        }
        let (_, stats) = fw.histogram_with_stats();
        assert_eq!(stats.queue_sizes.len(), 2);
        assert!(stats.queue_sizes.iter().all(|&q| q >= 1));
        assert!(stats.binary_searches >= stats.queue_sizes.iter().sum::<usize>());
        assert!(stats.herror_evals > 0);
        assert!(stats.arena_nodes > 0);
        // Chains are built only for kept endpoints and the top solution:
        // one node each, two when the straddling candidate won.
        let endpoints: usize = stats.queue_sizes.iter().sum();
        assert!(
            stats.arena_nodes <= 2 * (endpoints + 1),
            "{} arena nodes for {endpoints} endpoints",
            stats.arena_nodes
        );
        assert_eq!(stats.arena_peak, stats.arena_nodes); // batch mode never compacts
        assert_eq!(stats.compactions, 0);
    }

    #[test]
    fn rebase_period_does_not_change_results_and_is_counted() {
        let data: Vec<f64> = (0..150).map(|i| ((i * 11 + 3) % 19) as f64).collect();
        let mut a = FixedWindowHistogram::new(32, 3, 0.2);
        let mut b = FixedWindowHistogram::with_rebase_period(32, 3, 0.2, 5);
        for &v in &data {
            let ha = a.push_and_build(v);
            let hb = b.push_and_build(v);
            assert_eq!(ha.bucket_ends(), hb.bucket_ends());
        }
        let (_, stats) = b.histogram_with_stats();
        assert!(stats.rebases > 0, "short rebase period must have fired");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FixedWindowHistogram::new(0, 2, 0.1);
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        assert!(FixedWindowHistogram::builder(64, 4, 0.1).build().is_ok());
        for (builder, param) in [
            (FixedWindowHistogram::builder(0, 4, 0.1), "capacity"),
            (FixedWindowHistogram::builder(64, 0, 0.1), "b"),
            (FixedWindowHistogram::builder(64, 4, 0.0), "eps"),
            (FixedWindowHistogram::builder(64, 4, -1.0), "eps"),
            (FixedWindowHistogram::builder(64, 4, f64::NAN), "eps"),
            (
                FixedWindowHistogram::builder(64, 4, 0.1).delta(0.0),
                "delta",
            ),
            (
                FixedWindowHistogram::builder(64, 4, 0.1).rebase_period(0),
                "rebase_period",
            ),
        ] {
            match builder.build() {
                Err(StreamhistError::InvalidParameter { param: p, .. }) => {
                    assert_eq!(p, param);
                }
                other => panic!("expected InvalidParameter for {param}, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_matches_positional_constructors() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 7 + 3) % 23) as f64).collect();
        let mut a = FixedWindowHistogram::new(32, 3, 0.2);
        let mut b = FixedWindowHistogram::builder(32, 3, 0.2)
            .build()
            .expect("valid parameters");
        for &v in &data {
            a.push(v);
            b.push(v);
        }
        assert_eq!(*a.histogram(), *b.histogram());
        assert_eq!(a.delta(), b.delta());
    }

    #[test]
    fn push_batch_matches_per_point_with_nan_rejection() {
        let data: Vec<f64> = (0..300).map(|i| ((i * 13 + 7) % 31) as f64).collect();
        let mut seq = FixedWindowHistogram::new(32, 3, 0.2);
        let mut bat = FixedWindowHistogram::new(32, 3, 0.2);
        for &v in &data {
            seq.push(v);
        }
        let mut slab: Vec<f64> = data.clone();
        slab.insert(50, f64::NAN);
        slab.insert(200, f64::NEG_INFINITY);
        let out = bat.push_batch(&slab);
        assert_eq!(out.accepted, data.len());
        assert_eq!(out.rejected, 2);
        assert_eq!(seq.window(), bat.window());
        assert_eq!(seq.total_pushed(), bat.total_pushed());
        let (ha, sa) = seq.histogram_with_stats();
        let (hb, sb) = bat.histogram_with_stats();
        assert_eq!(*ha, *hb);
        assert_eq!(sa.herror.to_bits(), sb.herror.to_bits());
    }

    #[test]
    fn snapshot_cache_reuses_build_until_mutation() {
        let mut fw = FixedWindowHistogram::new(16, 3, 0.2);
        fw.push_batch(&(0..20).map(|i| (i % 7) as f64).collect::<Vec<_>>());
        let h1 = fw.histogram();
        let h2 = fw.histogram();
        assert!(Arc::ptr_eq(&h1, &h2), "idle queries share one build");
        fw.push(3.0);
        let h3 = fw.histogram();
        assert!(!Arc::ptr_eq(&h1, &h3), "mutation invalidates the cache");
    }

    #[test]
    fn reset_restores_fresh_state_and_keeps_config() {
        let mut fw = FixedWindowHistogram::with_rebase_period(8, 3, 0.2, 4);
        fw.push_batch(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let before = fw.histogram();
        assert_eq!(before.domain_len(), 5);
        fw.reset();
        assert!(fw.is_empty());
        assert_eq!(fw.total_pushed(), 0);
        assert_eq!(fw.histogram().domain_len(), 0);
        // Refilling after reset behaves exactly like a fresh instance.
        let mut fresh = FixedWindowHistogram::with_rebase_period(8, 3, 0.2, 4);
        let data: Vec<f64> = (0..20).map(|i| ((i * 5 + 1) % 9) as f64).collect();
        fw.push_batch(&data);
        fresh.push_batch(&data);
        assert_eq!(*fw.histogram(), *fresh.histogram());
    }

    #[test]
    fn stream_summary_trait_drives_the_fast_path() {
        fn ingest<S: StreamSummary>(s: &mut S, values: &[f64]) -> BatchOutcome {
            s.push_batch(values)
        }
        let mut fw = FixedWindowHistogram::new(8, 2, 0.5);
        let out = ingest(&mut fw, &[1.0, f64::NAN, 2.0]);
        assert_eq!(out.accepted, 2);
        assert_eq!(out.rejected, 1);
        assert_eq!(StreamSummary::len(&fw), 2);
        StreamSummary::reset(&mut fw);
        assert!(StreamSummary::is_empty(&fw));
    }

    #[test]
    fn merge_concatenates_window_approximations() {
        // Piecewise-constant parts merge losslessly: each part's histogram
        // is exact, so the gather term vanishes.
        let mut a = FixedWindowHistogram::new(4, 2, 0.1);
        a.push_batch(&[5.0, 5.0, 9.0, 9.0]);
        let mut b = FixedWindowHistogram::new(4, 2, 0.1);
        b.push_batch(&[2.0, 2.0, 2.0]);
        a.merge_from(&b).expect("compatible");
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.len(), 7);
        assert_eq!(a.window(), vec![5.0, 5.0, 9.0, 9.0, 2.0, 2.0, 2.0]);
        assert_eq!(a.total_pushed(), 7);
        // Still a live summary: it keeps ingesting and materializing.
        a.push(2.0);
        let h = a.histogram();
        assert_eq!(h.domain_len(), 8);
        assert!(h.num_buckets() <= 2);
    }

    #[test]
    fn merge_rejects_each_config_mismatch() {
        let base = || {
            let mut fw = FixedWindowHistogram::new(8, 3, 0.2);
            fw.push_batch(&[1.0, 2.0]);
            fw
        };
        for (other, param) in [
            (FixedWindowHistogram::new(8, 4, 0.2), "b"),
            (FixedWindowHistogram::new(8, 3, 0.3), "eps"),
            (FixedWindowHistogram::with_delta(8, 3, 0.2, 1.0), "delta"),
        ] {
            let mut a = base();
            let err = a.merge_from(&other).expect_err("mismatch");
            assert!(
                matches!(err, StreamhistError::InvalidParameter { param: p, .. } if p == param),
                "expected rejection on {param}"
            );
            assert_eq!(a.len(), 2, "receiver unchanged after {param} rejection");
        }
        // The k-way combinator additionally rejects capacity mismatches.
        let a = base();
        let wider = FixedWindowHistogram::new(16, 3, 0.2);
        let err = MergeableSummary::merge(&[&a, &wider]).expect_err("capacity");
        assert!(matches!(
            err,
            StreamhistError::InvalidParameter {
                param: "capacity",
                ..
            }
        ));
    }

    #[test]
    fn kway_merge_matches_sequential_folds() {
        let parts: Vec<FixedWindowHistogram> = (0..3)
            .map(|s| {
                let mut fw = FixedWindowHistogram::new(8, 3, 0.2);
                let data: Vec<f64> = (0..8).map(|i| ((i * 7 + s * 3) % 11) as f64).collect();
                fw.push_batch(&data);
                fw
            })
            .collect();
        let refs: Vec<&FixedWindowHistogram> = parts.iter().collect();
        let merged = MergeableSummary::merge(&refs).expect("homogeneous parts");
        assert_eq!(merged.capacity(), 24);
        assert_eq!(merged.len(), 24);
        let mut fold = parts[0].clone();
        fold.merge_from(&parts[1]).expect("fold 1");
        fold.merge_from(&parts[2]).expect("fold 2");
        assert_eq!(merged.window(), fold.window());
        assert_eq!(*merged.histogram(), *fold.histogram());
    }

    #[test]
    fn try_push_rejects_non_finite_and_leaves_summary_usable() {
        let mut fw = FixedWindowHistogram::new(4, 2, 0.5);
        fw.push(1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                fw.try_push(bad),
                Err(StreamhistError::NonFiniteValue { .. })
            ));
        }
        // Rejections leave no trace: the window and counters are unchanged
        // and further pushes behave normally.
        assert_eq!(fw.total_pushed(), 1);
        assert_eq!(fw.window(), vec![1.0]);
        fw.try_push(3.0).expect("finite value accepted");
        assert_eq!(fw.window(), vec![1.0, 3.0]);
        assert_eq!(fw.histogram().domain_len(), 2);
    }
}
