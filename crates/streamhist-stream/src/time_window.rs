//! Time-based fixed windows: "maintain information and perform analysis
//! over specific temporal windows of interest, say over the latest T
//! seconds of data produced" (paper §1, Figure 1(b) description).
//!
//! The count-based [`crate::FixedWindowHistogram`] assumes one arrival per
//! time unit (the paper's simplification, footnote 2: "without loss of
//! generality we assume that a new point arrives at each time step, other
//! possibilities exist ... and indeed our framework can incorporate those
//! as well"). This variant incorporates them: points carry explicit
//! timestamps, the window holds every point newer than `now − duration`,
//! and any number of points may enter or leave per observation. The
//! histogram construction is the same `CreateList` procedure, run over a
//! [`GrowableWindowSums`] whose eviction is timestamp-driven.

use crate::kernel::{Kernel, KernelStats, SnapshotCache};
use std::collections::VecDeque;
use std::sync::Arc;
use streamhist_core::checkpoint::{tag, Checkpoint, FrameReader, FrameWriter};
use streamhist_core::{
    BatchOutcome, GrowableWindowSums, Histogram, MergeableSummary, StreamSummary, StreamhistError,
};

/// `(1+ε)`-approximate V-optimal histogram over all points observed within
/// the last `duration` time units.
///
/// # Example
///
/// ```
/// use streamhist_stream::TimeWindowHistogram;
///
/// let mut tw = TimeWindowHistogram::new(10, 4, 0.1);
/// // Bursty arrivals: several points can share or skip timestamps.
/// for (ts, v) in [(0, 5.0), (0, 5.0), (3, 9.0), (12, 1.0), (13, 1.0)] {
///     tw.push_at(ts, v);
/// }
/// // At time 13 the window [4, 13] holds only the points at ts 12 and 13.
/// assert_eq!(tw.len(), 2);
/// let h = tw.histogram();
/// assert_eq!(h.domain_len(), 2);
/// assert_eq!(h.point(0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWindowHistogram {
    duration: u64,
    b: usize,
    eps: f64,
    delta: f64,
    sums: GrowableWindowSums,
    /// Parallel deques of timestamps and raw values, oldest first.
    times: VecDeque<u64>,
    raw: VecDeque<f64>,
    now: Option<u64>,
    /// Mutation counter keying the snapshot cache (bumped on accepted
    /// pushes and on evictions, the two things that change the window).
    generation: u64,
    cache: SnapshotCache,
}

/// Validating builder for [`TimeWindowHistogram`] — the non-panicking
/// constructor surface.
#[derive(Debug, Clone)]
pub struct TimeWindowBuilder {
    duration: u64,
    b: usize,
    eps: f64,
    delta: Option<f64>,
}

impl TimeWindowBuilder {
    /// Overrides the paper's default interval growth factor `δ = ε/(2B)`.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Validates every parameter and constructs the summary.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::InvalidParameter`] if `duration == 0`,
    /// `b == 0`, `eps` is not positive, or an overridden `delta` is not
    /// positive.
    pub fn build(self) -> Result<TimeWindowHistogram, StreamhistError> {
        if self.duration == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "duration",
                message: "window duration must be positive",
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
        Ok(TimeWindowHistogram {
            duration: self.duration,
            b: self.b,
            eps: self.eps,
            delta,
            sums: GrowableWindowSums::new(1024),
            times: VecDeque::new(),
            raw: VecDeque::new(),
            now: None,
            generation: 0,
            cache: SnapshotCache::default(),
        })
    }
}

impl TimeWindowHistogram {
    /// Starts a validating builder over the trailing `duration` time units
    /// with at most `b` buckets and approximation `eps`.
    #[must_use]
    pub fn builder(duration: u64, b: usize, eps: f64) -> TimeWindowBuilder {
        TimeWindowBuilder {
            duration,
            b,
            eps,
            delta: None,
        }
    }

    /// Creates a summary over the trailing `duration` time units with at
    /// most `b` buckets and approximation `eps` (`δ = ε/(2B)`).
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0`, `b == 0`, or `eps <= 0`; use
    /// [`builder`](Self::builder) for the validating, non-panicking form.
    #[must_use]
    pub fn new(duration: u64, b: usize, eps: f64) -> Self {
        Self::builder(duration, b, eps)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The window duration `T`.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.duration
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

    /// Number of points currently inside the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The latest observed timestamp, if any.
    #[must_use]
    pub fn now(&self) -> Option<u64> {
        self.now
    }

    /// The raw window contents, oldest first.
    #[must_use]
    pub fn window(&self) -> Vec<f64> {
        self.raw.iter().copied().collect()
    }

    /// The `(timestamp, value)` pairs currently in the window.
    #[must_use]
    pub fn window_with_times(&self) -> Vec<(u64, f64)> {
        self.times
            .iter()
            .copied()
            .zip(self.raw.iter().copied())
            .collect()
    }

    /// Pushes a point at time `ts`, or rejects it if the value is not
    /// finite or the timestamp moves backwards. On rejection the summary
    /// (including its clock) is unchanged and remains fully usable.
    ///
    /// Timestamps must be non-decreasing; multiple points may share a
    /// timestamp (batched arrivals). Evicts everything older than
    /// `ts − duration`. Amortized `O(1)` plus one eviction per departed
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::NonFiniteValue`] if `v` is NaN or
    /// infinite, and [`StreamhistError::NonMonotonicTimestamp`] if `ts` is
    /// smaller than the previously observed timestamp.
    pub fn try_push_at(&mut self, ts: u64, v: f64) -> Result<(), StreamhistError> {
        if !v.is_finite() {
            return Err(StreamhistError::NonFiniteValue { value: v });
        }
        if let Some(now) = self.now {
            if ts < now {
                return Err(StreamhistError::NonMonotonicTimestamp { ts, now });
            }
        }
        self.now = Some(ts);
        self.times.push_back(ts);
        self.raw.push_back(v);
        self.sums.push(v);
        self.generation += 1;
        self.evict_expired(ts);
        Ok(())
    }

    /// Pushes a point at time `ts`.
    ///
    /// Thin panicking wrapper around [`try_push_at`](Self::try_push_at),
    /// for callers that control their input; serving paths use
    /// `try_push_at` and count rejects instead.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is smaller than the previous timestamp or `v` is
    /// not finite.
    pub fn push_at(&mut self, ts: u64, v: f64) {
        if let Err(e) = self.try_push_at(ts, v) {
            panic!("{e}");
        }
    }

    /// Pushes a slab of points all timestamped `ts`, with
    /// partial-acceptance semantics (per-value [`BatchOutcome`]
    /// accounting). Equivalent to calling [`try_push_at`](Self::try_push_at)
    /// per value: if `ts` moves backwards every value is rejected.
    pub fn push_batch_at(&mut self, ts: u64, values: &[f64]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for &v in values {
            match self.try_push_at(ts, v) {
                Ok(()) => out.accepted += 1,
                Err(_) => out.rejected += 1,
            }
        }
        out
    }

    /// Advances the clock without adding a point (e.g. a heartbeat),
    /// evicting anything that has aged out.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is smaller than the previous timestamp.
    pub fn advance_to(&mut self, ts: u64) {
        if let Some(now) = self.now {
            assert!(
                ts >= now,
                "timestamps must be non-decreasing ({ts} < {now})"
            );
        }
        self.now = Some(ts);
        self.evict_expired(ts);
    }

    /// Restores the summary to its freshly-constructed state (empty
    /// window, clock unset), keeping the configuration (`T`, `B`, `ε`,
    /// `δ`).
    pub fn reset(&mut self) {
        self.sums = GrowableWindowSums::new(1024);
        self.times.clear();
        self.raw.clear();
        self.now = None;
        self.generation += 1;
        self.cache.clear();
    }

    fn evict_expired(&mut self, ts: u64) {
        // Retain exactly the points with timestamp > ts − duration; before
        // one full duration has elapsed nothing can age out.
        let Some(cutoff) = ts.checked_sub(self.duration) else {
            return;
        };
        while self.times.front().is_some_and(|&t| t <= cutoff) {
            self.times.pop_front();
            self.raw.pop_front();
            self.sums.evict_oldest();
            self.generation += 1;
        }
    }

    /// Materializes the `(1+ε)`-approximate B-histogram of the points in
    /// the current time window (indexed by arrival order within the
    /// window), or returns the cached snapshot as a cheap [`Arc`] clone
    /// when nothing changed since the last materialization.
    #[must_use]
    pub fn histogram(&self) -> Arc<Histogram> {
        self.histogram_with_stats().0
    }

    /// Like [`Self::histogram`], also returning build diagnostics (the
    /// diagnostics of the cached build when served from the cache).
    #[must_use]
    pub fn histogram_with_stats(&self) -> (Arc<Histogram>, KernelStats) {
        self.cache.get_or_build(self.generation, || {
            Kernel::build(&self.sums, self.b, self.delta)
        })
    }
}

impl MergeableSummary for TimeWindowHistogram {
    /// Concatenates the two windows, **coarsening timestamps**: every
    /// surviving point is re-stamped at the merged clock
    /// `max(self.now, other.now)` — scatter/gather assumes aligned window
    /// clocks, so per-point arrival times inside a gathered window are not
    /// preserved (they were only ever used for eviction, and a merged
    /// window ages out as one unit). The merged clock never moves
    /// backwards for either operand, so no point is evicted by the merge
    /// itself.
    ///
    /// Configurations must agree on `duration`, `b`, `eps` and `delta`;
    /// the approximation error of the merged materialization composes as
    /// for [`crate::FixedWindowHistogram`] (DESIGN.md §7: the per-part
    /// SSE appears as a gather term on top of the `(1+ε)` factor).
    fn merge_from(&mut self, other: &Self) -> Result<(), StreamhistError> {
        if self.duration != other.duration {
            return Err(StreamhistError::InvalidParameter {
                param: "duration",
                message: "merge requires identical window durations",
            });
        }
        if self.b != other.b {
            return Err(StreamhistError::InvalidParameter {
                param: "b",
                message: "merge requires identical bucket budgets",
            });
        }
        if self.eps != other.eps {
            return Err(StreamhistError::InvalidParameter {
                param: "eps",
                message: "merge requires identical approximation parameters",
            });
        }
        if self.delta != other.delta {
            return Err(StreamhistError::InvalidParameter {
                param: "delta",
                message: "merge requires identical interval growth factors",
            });
        }
        let mut merged = TimeWindowHistogram::builder(self.duration, self.b, self.eps)
            .delta(self.delta)
            .build()?;
        let now = match (self.now, other.now) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        if let Some(ts) = now {
            merged.advance_to(ts);
            merged.push_batch_at(ts, &self.window());
            merged.push_batch_at(ts, &other.window());
        }
        *self = merged;
        Ok(())
    }
}

impl Checkpoint for TimeWindowHistogram {
    /// Serializes configuration, the clock, the `(timestamp, value)`
    /// window, and the **complete** rebased prefix state (including the
    /// rebase phase — rebase timing affects the floating-point rounding of
    /// later prefix entries). Interval lists rebuild deterministically at
    /// the next materialization, so a restored summary is bit-identical to
    /// one that never crashed.
    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::TIME_WINDOW);
        w.put_varint(self.duration);
        w.put_usize(self.b);
        w.put_f64(self.eps);
        w.put_f64(self.delta);
        match self.now {
            None => w.put_u8(0),
            Some(ts) => {
                w.put_u8(1);
                w.put_varint(ts);
            }
        }
        w.put_varint(self.generation);
        w.put_usize(self.sums.rebase_period());
        let (head, cum) = self.sums.raw_frame();
        w.put_pair(head);
        w.put_usize(cum.len());
        for &p in &cum {
            w.put_pair(p);
        }
        w.put_usize(self.sums.since_rebase());
        w.put_usize(self.sums.rebases());
        w.put_usize(self.times.len());
        for &t in &self.times {
            w.put_varint(t);
        }
        for &v in &self.raw {
            w.put_f64(v);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        let mut r = FrameReader::open(bytes, tag::TIME_WINDOW)?;
        let duration = r.get_varint()?;
        if duration == 0 {
            return Err(corrupt("window duration must be positive"));
        }
        let b = r.get_usize()?;
        if b == 0 {
            return Err(corrupt("need at least one bucket"));
        }
        let eps = r.get_f64()?;
        if eps <= 0.0 {
            return Err(corrupt("eps must be positive"));
        }
        let delta = r.get_f64()?;
        if delta <= 0.0 {
            return Err(corrupt("delta must be positive"));
        }
        let now = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_varint()?),
            _ => return Err(corrupt("invalid clock-presence byte")),
        };
        let generation = r.get_varint()?;
        let rebase_period = r.get_usize()?;
        let head = r.get_pair()?;
        let n = r.get_count(16)?;
        let mut cum = Vec::with_capacity(n);
        for _ in 0..n {
            cum.push(r.get_pair()?);
        }
        let since_rebase = r.get_usize()?;
        let rebases = r.get_usize()?;
        let len = r.get_count(9)?;
        if len != n {
            return Err(corrupt("window and prefix store disagree on length"));
        }
        let mut times = VecDeque::with_capacity(len);
        for _ in 0..len {
            let t = r.get_varint()?;
            if times.back().is_some_and(|&prev| t < prev) {
                return Err(corrupt("timestamps must be non-decreasing"));
            }
            times.push_back(t);
        }
        match (now, times.back()) {
            (None, Some(_)) => return Err(corrupt("window holds points but clock is unset")),
            (Some(ts), Some(&last)) if last > ts => {
                return Err(corrupt("window holds points newer than the clock"));
            }
            (Some(ts), Some(&_)) => {
                // The eviction invariant: nothing at or before ts − duration
                // survives a push, so a frame violating it was tampered with.
                if let Some(cutoff) = ts.checked_sub(duration) {
                    if times.front().is_some_and(|&t| t <= cutoff) {
                        return Err(corrupt("window holds points older than the duration"));
                    }
                }
            }
            _ => {}
        }
        let mut raw = VecDeque::with_capacity(len);
        for _ in 0..len {
            raw.push_back(r.get_f64()?);
        }
        r.finish()?;
        let sums = GrowableWindowSums::from_checkpoint_state(
            rebase_period,
            head,
            cum,
            since_rebase,
            rebases,
        )?;
        Ok(Self {
            duration,
            b,
            eps,
            delta,
            sums,
            times,
            raw,
            now,
            generation,
            cache: SnapshotCache::default(),
        })
    }
}

impl StreamSummary for TimeWindowHistogram {
    /// Pushes `v` at the current clock (the latest observed timestamp, or
    /// 0 for an empty summary) — the value-only entry point for callers
    /// that drive the clock via [`advance_to`](Self::advance_to).
    fn try_push(&mut self, v: f64) -> Result<(), StreamhistError> {
        let ts = self.now.unwrap_or(0);
        self.try_push_at(ts, v)
    }

    /// Window occupancy (points inside the trailing duration).
    fn len(&self) -> usize {
        TimeWindowHistogram::len(self)
    }

    fn reset(&mut self) {
        TimeWindowHistogram::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_by_age_not_count() {
        let mut tw = TimeWindowHistogram::new(5, 3, 0.2);
        for t in 0..10u64 {
            tw.push_at(t, t as f64);
        }
        // Window (9-5, 9] = ts in {5..=9}.
        assert_eq!(tw.window(), vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn batched_arrivals_share_timestamps() {
        let mut tw = TimeWindowHistogram::new(4, 2, 0.5);
        for _ in 0..6 {
            tw.push_at(10, 2.0);
        }
        tw.push_at(11, 3.0);
        assert_eq!(tw.len(), 7);
        tw.push_at(14, 4.0);
        // cutoff 10: ts 10 evicted, ts 11/14 retained.
        assert_eq!(tw.window(), vec![3.0, 4.0]);
    }

    #[test]
    fn advance_to_evicts_without_adding() {
        let mut tw = TimeWindowHistogram::new(3, 2, 0.5);
        tw.push_at(0, 1.0);
        tw.push_at(1, 2.0);
        tw.advance_to(10);
        assert!(tw.is_empty());
        assert_eq!(tw.histogram().domain_len(), 0);
        assert_eq!(tw.now(), Some(10));
    }

    #[test]
    fn histogram_matches_fixed_window_when_arrivals_are_uniform() {
        // One arrival per tick + duration n behaves like a count window of n.
        let data: Vec<f64> = (0..100).map(|i| ((i * 13 + 5) % 17) as f64).collect();
        let n = 16u64;
        let mut tw = TimeWindowHistogram::new(n, 4, 0.2);
        let mut fw = crate::FixedWindowHistogram::new(n as usize, 4, 0.2);
        for (t, &v) in data.iter().enumerate() {
            tw.push_at(t as u64, v);
            fw.push(v);
            assert_eq!(tw.window(), fw.window(), "t={t}");
            assert_eq!(
                tw.histogram().bucket_ends(),
                fw.histogram().bucket_ends(),
                "t={t}"
            );
        }
    }

    #[test]
    fn guarantee_holds_under_irregular_arrivals() {
        use streamhist_optimal::optimal_sse;
        let b = 3;
        let eps = 0.2;
        let mut tw = TimeWindowHistogram::new(20, b, eps);
        let mut ts = 0u64;
        for i in 0..300u64 {
            // Irregular gaps and occasional bursts.
            ts += [0, 1, 1, 3, 7][(i % 5) as usize];
            let v = ((i * 29 + 3) % 23) as f64 + if i % 50 < 3 { 100.0 } else { 0.0 };
            tw.push_at(ts, v);
            if i % 17 == 0 && !tw.is_empty() {
                let win = tw.window();
                let approx = tw.histogram().sse(&win);
                let opt = optimal_sse(&win, b);
                assert!(
                    approx <= (1.0 + eps) * opt + 1e-6,
                    "i={i}: {approx} vs {opt}"
                );
            }
        }
    }

    #[test]
    fn window_with_times_pairs_correctly() {
        let mut tw = TimeWindowHistogram::new(100, 2, 0.5);
        tw.push_at(1, 10.0);
        tw.push_at(5, 20.0);
        assert_eq!(tw.window_with_times(), vec![(1, 10.0), (5, 20.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_timestamps_rejected() {
        let mut tw = TimeWindowHistogram::new(5, 2, 0.5);
        tw.push_at(10, 1.0);
        tw.push_at(9, 1.0);
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        assert!(TimeWindowHistogram::builder(10, 4, 0.1).build().is_ok());
        assert!(matches!(
            TimeWindowHistogram::builder(0, 4, 0.1).build(),
            Err(StreamhistError::InvalidParameter {
                param: "duration",
                ..
            })
        ));
        assert!(matches!(
            TimeWindowHistogram::builder(10, 0, 0.1).build(),
            Err(StreamhistError::InvalidParameter { param: "b", .. })
        ));
        assert!(matches!(
            TimeWindowHistogram::builder(10, 4, 0.0).build(),
            Err(StreamhistError::InvalidParameter { param: "eps", .. })
        ));
    }

    #[test]
    fn push_batch_at_counts_rejects_exactly() {
        let mut tw = TimeWindowHistogram::new(10, 2, 0.5);
        tw.push_at(5, 1.0);
        let out = tw.push_batch_at(6, &[2.0, f64::NAN, 3.0]);
        assert_eq!(out.accepted, 2);
        assert_eq!(out.rejected, 1);
        // A backwards slab is rejected wholesale, value by value.
        let back = tw.push_batch_at(4, &[7.0, 8.0]);
        assert_eq!(back.accepted, 0);
        assert_eq!(back.rejected, 2);
        assert_eq!(tw.window(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn snapshot_cache_invalidated_by_pushes_and_eviction() {
        let mut tw = TimeWindowHistogram::new(5, 2, 0.5);
        tw.push_at(0, 1.0);
        tw.push_at(1, 2.0);
        let h1 = tw.histogram();
        assert!(Arc::ptr_eq(&h1, &tw.histogram()));
        // advance_to that evicts must invalidate the cached snapshot.
        tw.advance_to(10);
        let h2 = tw.histogram();
        assert!(!Arc::ptr_eq(&h1, &h2));
        assert_eq!(h2.domain_len(), 0);
    }

    #[test]
    fn stream_summary_pushes_at_current_clock_and_resets() {
        let mut tw = TimeWindowHistogram::new(5, 2, 0.5);
        tw.push_at(7, 1.0);
        StreamSummary::try_push(&mut tw, 2.0).expect("joins at ts 7");
        assert_eq!(tw.window_with_times(), vec![(7, 1.0), (7, 2.0)]);
        let out = StreamSummary::push_batch(&mut tw, &[3.0, f64::INFINITY]);
        assert_eq!(out.accepted, 1);
        assert_eq!(out.rejected, 1);
        StreamSummary::reset(&mut tw);
        assert!(tw.is_empty());
        assert_eq!(tw.now(), None);
        // After reset the value-only push starts the clock at 0.
        StreamSummary::try_push(&mut tw, 9.0).expect("fresh clock");
        assert_eq!(tw.window_with_times(), vec![(0, 9.0)]);
    }

    #[test]
    fn merge_concatenates_and_coarsens_timestamps() {
        let mut a = TimeWindowHistogram::new(10, 2, 0.5);
        a.push_at(3, 1.0);
        a.push_at(5, 2.0);
        let mut b = TimeWindowHistogram::new(10, 2, 0.5);
        b.push_at(8, 7.0);
        a.merge_from(&b).expect("compatible");
        // Every merged point sits at the merged clock max(5, 8) = 8.
        assert_eq!(a.now(), Some(8));
        assert_eq!(a.window_with_times(), vec![(8, 1.0), (8, 2.0), (8, 7.0)]);
        // The merged window ages out as one unit.
        a.advance_to(18);
        assert!(a.is_empty());
    }

    #[test]
    fn merge_with_empty_operands_keeps_the_later_clock() {
        let mut a = TimeWindowHistogram::new(10, 2, 0.5);
        let b = TimeWindowHistogram::new(10, 2, 0.5);
        a.merge_from(&b).expect("both empty");
        assert_eq!(a.now(), None);
        let mut c = TimeWindowHistogram::new(10, 2, 0.5);
        c.push_at(4, 1.0);
        a.merge_from(&c).expect("empty receiver");
        assert_eq!(a.window_with_times(), vec![(4, 1.0)]);
    }

    #[test]
    fn merge_rejects_each_config_mismatch() {
        let base = || {
            let mut tw = TimeWindowHistogram::new(10, 3, 0.2);
            tw.push_at(1, 5.0);
            tw
        };
        for (other, param) in [
            (TimeWindowHistogram::new(20, 3, 0.2), "duration"),
            (TimeWindowHistogram::new(10, 4, 0.2), "b"),
            (TimeWindowHistogram::new(10, 3, 0.3), "eps"),
            (
                TimeWindowHistogram::builder(10, 3, 0.2)
                    .delta(1.0)
                    .build()
                    .expect("valid"),
                "delta",
            ),
        ] {
            let mut a = base();
            let err = a.merge_from(&other).expect_err("mismatch");
            assert!(
                matches!(err, StreamhistError::InvalidParameter { param: p, .. } if p == param),
                "expected rejection on {param}"
            );
            assert_eq!(a.window_with_times(), vec![(1, 5.0)], "receiver unchanged");
        }
    }

    #[test]
    fn kway_merge_combinator_gathers_shards() {
        let parts: Vec<TimeWindowHistogram> = (0..3)
            .map(|s| {
                let mut tw = TimeWindowHistogram::new(100, 2, 0.5);
                tw.push_at(10 + s, s as f64);
                tw
            })
            .collect();
        let refs: Vec<&TimeWindowHistogram> = parts.iter().collect();
        let merged = MergeableSummary::merge(&refs).expect("homogeneous parts");
        assert_eq!(merged.now(), Some(12));
        assert_eq!(merged.window(), vec![0.0, 1.0, 2.0]);
        assert!(merged.histogram().num_buckets() <= 2);
    }

    #[test]
    fn try_push_at_rejects_bad_input_and_leaves_summary_usable() {
        let mut tw = TimeWindowHistogram::new(5, 2, 0.5);
        tw.try_push_at(10, 1.0).expect("good record accepted");
        assert!(matches!(
            tw.try_push_at(11, f64::NAN),
            Err(StreamhistError::NonFiniteValue { .. })
        ));
        // A rejected value must not advance the clock.
        assert_eq!(tw.now(), Some(10));
        assert_eq!(
            tw.try_push_at(9, 2.0),
            Err(StreamhistError::NonMonotonicTimestamp { ts: 9, now: 10 })
        );
        assert_eq!(tw.window(), vec![1.0]);
        tw.try_push_at(12, 2.0).expect("clock resumes normally");
        assert_eq!(tw.window(), vec![1.0, 2.0]);
    }
}
