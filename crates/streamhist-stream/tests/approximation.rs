//! The core claim of the reproduced paper, as executable properties:
//! both streaming algorithms produce histograms whose SSE is within a
//! `(1+ε)` factor of the exact V-optimal DP — the agglomerative algorithm
//! for every stream prefix, and the fixed-window algorithm for every window
//! position of a sliding stream.

use proptest::prelude::*;
use streamhist_optimal::{brute_force_optimal, optimal_histogram, optimal_sse};
use streamhist_stream::{
    approx_histogram, AgglomerativeHistogram, FixedWindowHistogram, NaiveSlidingWindow,
};

/// Approximation-ratio check with a small absolute slack for the
/// all-but-constant regions where both SSEs are ~0 and FP noise dominates.
fn within_factor(approx: f64, opt: f64, factor: f64) -> bool {
    approx <= factor * opt + 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Agglomerative SSE <= (1+eps) * optimal SSE on every prefix.
    #[test]
    fn agglomerative_is_eps_approximate(
        data in prop::collection::vec(0..64i64, 1..120),
        b in 1usize..6,
        eps in prop::sample::select(vec![0.05f64, 0.1, 0.5, 1.0]),
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let mut agg = AgglomerativeHistogram::new(b, eps);
        for (i, &v) in data.iter().enumerate() {
            agg.push(v);
            let prefix = &data[..=i];
            let approx = agg.histogram().sse(prefix);
            let opt = optimal_sse(prefix, b);
            prop_assert!(
                within_factor(approx, opt, 1.0 + eps),
                "prefix len {}: approx {approx} vs opt {opt} (b={b}, eps={eps})",
                i + 1
            );
        }
    }

    /// Fixed-window SSE <= (1+eps) * optimal SSE of the window content, at
    /// every slide position.
    #[test]
    fn fixed_window_is_eps_approximate(
        data in prop::collection::vec(0..64i64, 1..150),
        cap in 2usize..40,
        b in 1usize..5,
        eps in prop::sample::select(vec![0.1f64, 0.5, 1.0]),
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let mut fw = FixedWindowHistogram::new(cap, b, eps);
        for (i, &v) in data.iter().enumerate() {
            let h = fw.push_and_build(v);
            let lo = (i + 1).saturating_sub(cap);
            let window = &data[lo..=i];
            let approx = h.sse(window);
            let opt = optimal_sse(window, b);
            prop_assert!(
                within_factor(approx, opt, 1.0 + eps),
                "t={i}: approx {approx} vs opt {opt} (cap={cap}, b={b}, eps={eps})"
            );
        }
    }

    /// The offline Problem-2 construction obeys the same guarantee and
    /// produces a structurally valid histogram.
    #[test]
    fn offline_approx_histogram_guarantee(
        data in prop::collection::vec(-32..32i64, 1..100),
        b in 1usize..6,
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let eps = 0.1;
        let h = approx_histogram(&data, b, eps);
        prop_assert!(h.num_buckets() <= b);
        prop_assert_eq!(h.domain_len(), data.len());
        let opt = optimal_sse(&data, b);
        prop_assert!(within_factor(h.sse(&data), opt, 1.0 + eps));
    }

    /// The DP agrees with brute force on small inputs (cross-validates the
    /// reference the streaming guarantees are measured against).
    #[test]
    fn dp_matches_brute_force(
        data in prop::collection::vec(-10..10i64, 1..11),
        b in 1usize..5,
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let dp = optimal_histogram(&data, b);
        let brute = brute_force_optimal(&data, b);
        prop_assert!((dp.sse(&data) - brute.sse(&data)).abs() < 1e-9,
            "dp {} vs brute {}", dp.sse(&data), brute.sse(&data));
    }

    /// The naive per-window DP baseline is exactly optimal — and therefore
    /// never beaten by more than the guarantee by the fixed-window method.
    #[test]
    fn naive_sliding_window_is_exact(
        data in prop::collection::vec(0..32i64, 1..60),
        cap in 2usize..16,
        b in 1usize..4,
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let mut w = NaiveSlidingWindow::new(cap, b);
        for (i, &v) in data.iter().enumerate() {
            let h = w.push_and_build(v);
            let lo = (i + 1).saturating_sub(cap);
            let window = &data[lo..=i];
            prop_assert!((h.sse(window) - optimal_sse(window, b)).abs() < 1e-9);
        }
    }

    /// Structural invariants hold for every histogram the streaming
    /// algorithms emit: buckets tile the domain, heights are bucket means.
    #[test]
    fn emitted_histograms_are_structurally_sound(
        data in prop::collection::vec(0..100i64, 1..80),
        cap in 2usize..24,
        b in 1usize..5,
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let mut fw = FixedWindowHistogram::new(cap, b, 0.2);
        for (i, &v) in data.iter().enumerate() {
            let h = fw.push_and_build(v);
            let lo = (i + 1).saturating_sub(cap);
            let window = &data[lo..=i];
            // Tiling is validated by Histogram::new internally; check the
            // mean property per bucket.
            for bkt in h.buckets() {
                let seg = &window[bkt.start..=bkt.end];
                let mean = seg.iter().sum::<f64>() / seg.len() as f64;
                prop_assert!((bkt.height - mean).abs() < 1e-6,
                    "bucket {:?} height {} vs mean {mean}", (bkt.start, bkt.end), bkt.height);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chain soundness: at every slide position, the histogram the
    /// fixed-window build emits realizes an SSE no larger than the
    /// `HERROR` value the kernel reports for it (up to floating-point
    /// rounding). The DP values and the chains are produced separately
    /// (the build realizes a chain only for the candidate it kept), so a
    /// chain built from the wrong endpoint breaks this even where the
    /// `(1+ε)` bound still happens to hold; 256 cases are enough to catch
    /// a straddling chain clipped from the neighbouring endpoint.
    #[test]
    fn fixed_window_chain_realizes_reported_herror(
        data in prop::collection::vec(0..64i64, 1..200),
        cap in 2usize..64,
        b in 1usize..7,
        eps in prop::sample::select(vec![0.05f64, 0.1, 0.5, 1.0]),
    ) {
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let mut fw = FixedWindowHistogram::new(cap, b, eps);
        for (i, &v) in data.iter().enumerate() {
            fw.push(v);
            let (h, stats) = fw.histogram_with_stats();
            let lo = (i + 1).saturating_sub(cap);
            let realized = h.sse(&data[lo..=i]);
            prop_assert!(
                realized <= stats.herror * (1.0 + 1e-9),
                "t={i}: realized {realized} > reported {} (cap={cap}, b={b}, eps={eps})",
                stats.herror
            );
        }
    }
}

/// Deterministic regression: adversarial level-shift stream where the
/// agglomerative queues would mislead a sliding algorithm (paper §4.4's
/// motivation) — the fixed-window algorithm must stay within guarantee.
#[test]
fn fixed_window_survives_level_shifts() {
    let mut data = Vec::new();
    for block in 0..12 {
        let level = if block % 2 == 0 {
            0.0
        } else {
            100.0 + block as f64
        };
        data.extend(std::iter::repeat_n(level, 7));
    }
    let cap = 16;
    let b = 3;
    let eps = 0.1;
    let mut fw = FixedWindowHistogram::new(cap, b, eps);
    for (i, &v) in data.iter().enumerate() {
        let h = fw.push_and_build(v);
        let lo = (i + 1).saturating_sub(cap);
        let window = &data[lo..=i];
        let opt = optimal_sse(window, b);
        assert!(
            h.sse(window) <= (1.0 + eps) * opt + 1e-6,
            "t={i}: {} vs opt {opt}",
            h.sse(window)
        );
    }
}

/// Deterministic regression: the 100-dropped-from-window scenario of the
/// paper's Example 1, which exercises the "function shifted downwards"
/// re-intervalization (Figure 4).
#[test]
fn example1_downward_shift_reintervalization() {
    let stream = [100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let mut fw = FixedWindowHistogram::with_delta(8, 2, 1.0, 1.0);
    for &v in &stream {
        fw.push(v);
    }
    let h = fw.histogram();
    // The optimum for 0,0,0,1,1,1,1,1 with 2 buckets has SSE 0.
    assert_eq!(h.sse(&fw.window()), 0.0);
    assert_eq!(h.bucket_ends(), vec![2, 7]);
}
