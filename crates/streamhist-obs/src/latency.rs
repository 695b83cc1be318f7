//! Latency distributions maintained by the workspace's own GK summaries.
//!
//! A [`LatencyRecorder`] answers "what were p50/p95/p99 recently?" in
//! bounded memory by keeping **two rotating
//! [`GkSummary`] epochs**: samples go
//! into the *current* epoch, and when it has absorbed `window` samples it
//! is demoted to *previous* and a fresh epoch starts. Quantile queries
//! merge both epochs (see [`LatencyRecorder::quantile_ns`]), so answers
//! always reflect between `window` and `2·window` of the most recent
//! samples — a coarse sliding window in the spirit of the paper's
//! fixed-window maintenance, with GK's `O((1/ε)·log(εn))` space bound per
//! epoch.
//!
//! Alongside the rotating sketches the recorder keeps **lifetime**
//! aggregates (`count`, `sum`, `max`) that are never discarded by epoch
//! rotation or wraps, so Prometheus-style `_count`/`_sum` series stay
//! monotone and no recorded sample is lost from the totals.
//!
//! The recorder never calls back into histogram construction — its GK
//! backend is a plain value sketch — so it is safe to use from inside the
//! kernel's own instrumented paths without recursion.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use streamhist_quantile::{GkSummary, QuantileSummary};

/// Default rank-error tolerance for the per-epoch GK sketches.
pub const DEFAULT_EPS: f64 = 0.01;
/// Default samples per epoch before rotation.
pub const DEFAULT_WINDOW: usize = 8_192;

/// The quantiles published in snapshots and the text exposition.
pub const SNAPSHOT_QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

#[derive(Debug)]
struct Inner {
    current: GkSummary,
    previous: Option<GkSummary>,
    in_current: usize,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

/// A windowed latency summary backed by rotating GK epochs.
///
/// See the [module docs](self) for the rotation and losslessness
/// semantics. All methods take `&self`; a short internal mutex guards the
/// sketches (one ordered insert per sample — this is the only non-atomic
/// metric cell in the registry).
#[derive(Debug)]
pub struct LatencyRecorder {
    eps: f64,
    window: usize,
    inner: Mutex<Inner>,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Creates a recorder with [`DEFAULT_EPS`] and [`DEFAULT_WINDOW`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(DEFAULT_EPS, DEFAULT_WINDOW)
    }

    /// Creates a recorder with an explicit GK tolerance and epoch size.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `window > 0`.
    #[must_use]
    pub fn with_config(eps: f64, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            eps,
            window,
            inner: Mutex::new(Inner {
                current: GkSummary::new(eps),
                previous: None,
                in_current: 0,
                count: 0,
                sum_ns: 0,
                max_ns: 0,
            }),
        }
    }

    /// The per-epoch GK tolerance.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Samples per epoch before rotation.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Records one duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let mut inner = self.inner.lock().expect("latency mutex poisoned");
        if inner.in_current >= self.window {
            let fresh = GkSummary::new(self.eps);
            let retired = std::mem::replace(&mut inner.current, fresh);
            inner.previous = Some(retired);
            inner.in_current = 0;
        }
        // `ns as f64` is always finite, so this cannot fail or panic.
        inner.current.push(ns as f64);
        inner.in_current += 1;
        inner.count += 1;
        inner.sum_ns = inner.sum_ns.saturating_add(ns);
        inner.max_ns = inner.max_ns.max(ns);
    }

    /// Records one [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span that records its elapsed time into this recorder
    /// when dropped.
    #[must_use]
    pub fn span(&self) -> LatencySpan<'_> {
        LatencySpan {
            recorder: self,
            start: Instant::now(),
        }
    }

    /// Lifetime sample count (survives epoch rotation).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.lock().expect("latency mutex poisoned").count
    }

    /// Lifetime sum of recorded nanoseconds (saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.inner.lock().expect("latency mutex poisoned").sum_ns
    }

    /// Largest sample ever recorded, in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.inner.lock().expect("latency mutex poisoned").max_ns
    }

    /// The `phi`-quantile of the merged previous+current epochs, in
    /// nanoseconds. Returns NaN when nothing has been recorded since the
    /// last reset.
    ///
    /// The merge bisects the value domain for the smallest value whose
    /// combined [`rank`](QuantileSummary::rank) across both epochs reaches
    /// `⌈phi · total⌉`; each epoch's rank is within `ε·n_epoch` of truth,
    /// so the combined rank error is at most `ε · total`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= phi <= 1`.
    #[must_use]
    pub fn quantile_ns(&self, phi: f64) -> f64 {
        assert!((0.0..=1.0).contains(&phi), "phi must be in [0, 1]");
        let inner = self.inner.lock().expect("latency mutex poisoned");
        Self::quantile_locked(&inner, phi)
    }

    fn quantile_locked(inner: &Inner, phi: f64) -> f64 {
        let cur_n = inner.current.count();
        let prev_n = inner.previous.as_ref().map_or(0, QuantileSummary::count);
        let total = cur_n + prev_n;
        if total == 0 {
            return f64::NAN;
        }
        let (prev, cur) = (&inner.previous, &inner.current);
        if prev_n == 0 {
            return cur.quantile(phi);
        }
        if cur_n == 0 {
            return prev.as_ref().expect("prev_n > 0").quantile(phi);
        }
        let prev = prev.as_ref().expect("prev_n > 0");
        let target = (phi * total as f64).ceil().max(1.0) as usize;
        let rank_at = |v: f64| prev.rank(v) + cur.rank(v);
        // Bisect the value domain. `max_ns` upper-bounds every sample in
        // either epoch, so `rank_at(hi) == total >= target` always holds.
        let mut lo = 0.0_f64;
        let mut hi = inner.max_ns as f64;
        for _ in 0..64 {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                break;
            }
            if rank_at(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// A consistent point-in-time snapshot: lifetime aggregates plus the
    /// merged [`SNAPSHOT_QUANTILES`], all read under one lock so they
    /// describe the same instant.
    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        let inner = self.inner.lock().expect("latency mutex poisoned");
        let quantiles = SNAPSHOT_QUANTILES
            .iter()
            .map(|&phi| (phi, Self::quantile_locked(&inner, phi)))
            .collect();
        LatencySnapshot {
            count: inner.count,
            sum_ns: inner.sum_ns,
            max_ns: inner.max_ns,
            quantiles,
            stored: inner.current.stored()
                + inner.previous.as_ref().map_or(0, QuantileSummary::stored),
        }
    }

    /// Discards both epochs and the lifetime aggregates, returning the
    /// recorder to its freshly-constructed state. Recording remains valid
    /// (and panic-free) immediately afterwards.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("latency mutex poisoned");
        inner.current.reset();
        inner.previous = None;
        inner.in_current = 0;
        inner.count = 0;
        inner.sum_ns = 0;
        inner.max_ns = 0;
    }
}

/// Times a scope; records into its [`LatencyRecorder`] on drop.
#[derive(Debug)]
pub struct LatencySpan<'a> {
    recorder: &'a LatencyRecorder,
    start: Instant,
}

impl LatencySpan<'_> {
    /// Elapsed time so far (the span keeps running).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for LatencySpan<'_> {
    fn drop(&mut self) {
        self.recorder.record(self.start.elapsed());
    }
}

/// Point-in-time view of a [`LatencyRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySnapshot {
    /// Lifetime sample count.
    pub count: u64,
    /// Lifetime sum of nanoseconds (saturating).
    pub sum_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// `(phi, nanoseconds)` pairs for [`SNAPSHOT_QUANTILES`]; values are
    /// NaN when the recorder is empty.
    pub quantiles: Vec<(f64, f64)>,
    /// Total GK tuples held across both epochs (space diagnostic).
    pub stored: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_reports_nan_quantiles() {
        let rec = LatencyRecorder::new();
        assert!(rec.quantile_ns(0.5).is_nan());
        let snap = rec.snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.quantiles.iter().all(|(_, v)| v.is_nan()));
    }

    #[test]
    fn single_epoch_matches_gk_directly() {
        let rec = LatencyRecorder::with_config(0.01, 1_000);
        for i in 0..500u64 {
            rec.record_ns(i);
        }
        let p50 = rec.quantile_ns(0.5);
        assert!((p50 - 250.0).abs() <= 0.01 * 500.0 + 1.0, "p50 = {p50}");
    }

    #[test]
    fn rotation_keeps_lifetime_aggregates() {
        let window = 100;
        let rec = LatencyRecorder::with_config(0.05, window);
        let n = 12 * window as u64 + 37;
        for i in 0..n {
            rec.record_ns(i + 1);
        }
        assert_eq!(rec.count(), n);
        assert_eq!(rec.sum_ns(), n * (n + 1) / 2);
        assert_eq!(rec.max_ns(), n);
    }

    #[test]
    fn merged_quantile_spans_both_epochs() {
        // First epoch all-small, second all-large: the merged median must
        // fall between the two populations, which neither epoch alone
        // would report.
        let window = 1_000;
        let rec = LatencyRecorder::with_config(0.01, window);
        for _ in 0..window {
            rec.record_ns(10);
        }
        for _ in 0..window {
            rec.record_ns(1_000_000);
        }
        let p50 = rec.quantile_ns(0.5);
        assert!(
            (10.0..=1_000_000.0).contains(&p50),
            "merged p50 out of range: {p50}"
        );
        let p99 = rec.quantile_ns(0.99);
        assert!(p99 >= 900_000.0, "p99 should sit in the large epoch: {p99}");
        let p01 = rec.quantile_ns(0.01);
        assert!(p01 <= 100.0, "p01 should sit in the small epoch: {p01}");
    }

    #[test]
    fn reset_returns_to_fresh_state_and_keeps_recording() {
        let rec = LatencyRecorder::with_config(0.02, 64);
        for i in 0..500u64 {
            rec.record_ns(i);
        }
        rec.reset();
        assert_eq!(rec.count(), 0);
        assert_eq!(rec.sum_ns(), 0);
        assert_eq!(rec.max_ns(), 0);
        assert!(rec.quantile_ns(0.5).is_nan());
        rec.record_ns(42);
        assert_eq!(rec.count(), 1);
        assert_eq!(rec.quantile_ns(0.5), 42.0);
    }

    #[test]
    fn span_records_on_drop() {
        let rec = LatencyRecorder::new();
        {
            let _span = rec.span();
            std::hint::black_box(0);
        }
        assert_eq!(rec.count(), 1);
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let rec = LatencyRecorder::new();
        rec.record_ns(u64::MAX);
        rec.record_ns(u64::MAX);
        assert_eq!(rec.sum_ns(), u64::MAX);
        assert_eq!(rec.count(), 2);
    }

    #[test]
    #[should_panic(expected = "phi must be in")]
    fn out_of_range_phi_panics() {
        let rec = LatencyRecorder::new();
        rec.record_ns(1);
        let _ = rec.quantile_ns(1.5);
    }

    #[test]
    fn space_stays_bounded_across_many_wraps() {
        let rec = LatencyRecorder::with_config(0.01, 512);
        for i in 0..50_000u64 {
            rec.record_ns(i % 7_919);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.count, 50_000);
        // Two epochs of at most `window` samples each, sketched by GK.
        assert!(snap.stored <= 2 * 512, "stored = {}", snap.stored);
    }
}
