//! Property tests for the workspace-wide merge laws (DESIGN.md §6).
//!
//! Every `MergeableSummary` implementation falls into one of two classes,
//! and this suite pins the law each class obeys over *arbitrary* inputs
//! and partitions, not just the hand-picked unit-test vectors:
//!
//! * **Exact merges** (`FrequencyVector`, `DynamicWavelet` superposition)
//!   are bit-for-bit commutative and associative — the merged state equals
//!   the state of the concatenated (resp. superimposed) streams.
//! * **Approximate merges** (`GkSummary`, `FixedWindowHistogram`,
//!   `WaveletSynopsis`) are associative *in error*: any merge order is
//!   valid, and the result honours the composed bound proved in §6 —
//!   rank error `≤ εN` for GK after a k-way partition merge, and
//!   `√SSE(h, u) ≤ √G + √(1+ε)·(√G + √OPT_B(u))` for V-optimal gathers.
//!
//! Config mismatches must be rejected with the exact
//! `InvalidParameter { param }` named in the docs, leaving the receiver
//! untouched.

use proptest::prelude::*;
use streamhist::data::utilization_trace;
use streamhist::freq::FrequencyVector;
use streamhist::{
    merge_histograms, optimal_sse, Bucket, DynamicWavelet, FixedWindowHistogram, GkSummary,
    Histogram, MergeableSummary, QuantileSummary, ShardedFixedWindow, StreamhistError,
    TimeWindowHistogram, WaveletSynopsis,
};

fn exact_rank(sorted: &[f64], v: f64) -> usize {
    sorted.partition_point(|&x| x <= v)
}

/// Asserts the GK rank contract `|rank̂(v) − rank(v)| ≤ εN` (plus one for
/// tie rounding) at a spread of probes over the value range.
fn assert_gk_within(gk: &GkSummary, eps: f64, data: &[f64]) {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = data.len() as f64;
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    let probes = (0..=8).map(|i| lo + (hi - lo) * i as f64 / 8.0);
    for probe in probes {
        let est = gk.rank(probe) as i64;
        let exact = exact_rank(&sorted, probe) as i64;
        assert!(
            (est - exact).unsigned_abs() as f64 <= eps * n + 1.0,
            "probe {probe}: est {est}, exact {exact}, n {n}, eps {eps}"
        );
    }
}

/// Splits `data` into `k` contiguous non-empty parts (as even as possible).
fn partition(data: &[f64], k: usize) -> Vec<&[f64]> {
    let k = k.min(data.len()).max(1);
    let base = data.len() / k;
    let extra = data.len() % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(&data[start..start + len]);
        start += len;
    }
    out
}

/// A histogram from `(run length, height)` pairs laid end to end.
fn runs_histogram(runs: &[(usize, i64)]) -> Histogram {
    let mut start = 0;
    let buckets = runs
        .iter()
        .map(|&(len, height)| {
            let b = Bucket::new(start, start + len - 1, height as f64 * 1.5 - 3.0);
            start += len;
            b
        })
        .collect();
    Histogram::new(start, buckets).expect("runs tile the domain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The gather merge is exact: over any concatenation of parts (1-point
    /// buckets, equal adjacent heights, budgets on both sides of the run
    /// count `m`), it returns an optimal `b`-histogram of the expansion
    /// `û`, reports that histogram's SSE as its `herror`, and stays
    /// within budget.
    #[test]
    fn gather_merge_equals_the_optimum_of_the_expansion(
        parts in prop::collection::vec(
            prop::collection::vec((1usize..4, 0..5i64), 1..8),
            1..7,
        ),
        b in 1usize..14,
    ) {
        let parts: Vec<Histogram> = parts.iter().map(|runs| runs_histogram(runs)).collect();
        let refs: Vec<&Histogram> = parts.iter().collect();
        let (h, stats) = merge_histograms(&refs, b, 0.1).expect("valid");
        let expansion: Vec<f64> = parts.iter().flat_map(Histogram::expand).collect();
        prop_assert_eq!(h.domain_len(), expansion.len());
        prop_assert!(h.num_buckets() <= b, "{} buckets > b = {}", h.num_buckets(), b);
        let sse = h.sse(&expansion);
        let opt = optimal_sse(&expansion, b);
        let tol = 1e-9 * opt.max(1.0);
        prop_assert!((sse - opt).abs() <= tol, "merged SSE {} != OPT_b(û) {}", sse, opt);
        prop_assert!(
            (stats.herror - sse).abs() <= tol,
            "reported herror {} != realized SSE {}", stats.herror, sse
        );
    }

    /// GK: merging per-partition summaries answers rank queries within
    /// `εN` over the union — rank errors add across the merge (§6), they
    /// do not multiply.
    #[test]
    fn gk_partition_merge_stays_within_eps_n(
        data in prop::collection::vec(0..1000i64, 50..600),
        k in 2usize..6,
    ) {
        let eps = 0.05;
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let parts: Vec<GkSummary> = partition(&data, k)
            .into_iter()
            .map(|chunk| {
                let mut gk = GkSummary::new(eps);
                chunk.iter().for_each(|&v| gk.push(v));
                gk
            })
            .collect();
        let refs: Vec<&GkSummary> = parts.iter().collect();
        let merged = MergeableSummary::merge(&refs).expect("identical eps");
        prop_assert_eq!(merged.count(), data.len());
        assert_gk_within(&merged, eps, &data);
    }

    /// GK: merge order is free — left-fold and right-fold groupings both
    /// satisfy the same `εN` contract (associativity *in error*; the tuple
    /// lists themselves may differ).
    #[test]
    fn gk_merge_is_associative_in_error(
        data in prop::collection::vec(0..500i64, 90..300),
    ) {
        let eps = 0.1;
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let built: Vec<GkSummary> = partition(&data, 3)
            .into_iter()
            .map(|chunk| {
                let mut gk = GkSummary::new(eps);
                chunk.iter().for_each(|&v| gk.push(v));
                gk
            })
            .collect();
        let (a, b, c) = (&built[0], &built[1], &built[2]);

        let mut left = a.clone();
        left.merge_from(b).expect("same eps");
        left.merge_from(c).expect("same eps");

        let mut bc = b.clone();
        bc.merge_from(c).expect("same eps");
        let mut right = a.clone();
        right.merge_from(&bc).expect("same eps");

        prop_assert_eq!(left.count(), data.len());
        prop_assert_eq!(right.count(), data.len());
        assert_gk_within(&left, eps, &data);
        assert_gk_within(&right, eps, &data);
    }

    /// FrequencyVector: the one exact merge — commutative and associative
    /// bit for bit, and equal to the vector of the concatenated stream.
    #[test]
    fn frequency_vector_merge_is_exact_commutative_associative(
        xs in prop::collection::vec(-30..30i64, 1..80),
        ys in prop::collection::vec(-30..30i64, 1..80),
        zs in prop::collection::vec(-30..30i64, 1..80),
    ) {
        let build = |vals: &[i64]| {
            let mut fv = FrequencyVector::new(-20, 20);
            vals.iter().for_each(|&v| fv.push(v));
            fv
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));

        // Exact: merged == vector of the concatenated stream.
        let mut concat = xs.clone();
        concat.extend(&ys);
        concat.extend(&zs);
        let direct = build(&concat);
        let mut abc = a.clone();
        abc.merge_from(&b).expect("same domain");
        abc.merge_from(&c).expect("same domain");
        prop_assert_eq!(abc.counts(), direct.counts());
        prop_assert_eq!(abc.total(), direct.total());
        prop_assert_eq!(abc.out_of_range(), direct.out_of_range());

        // Commutative.
        let mut ab = a.clone();
        ab.merge_from(&b).expect("same domain");
        let mut ba = b.clone();
        ba.merge_from(&a).expect("same domain");
        prop_assert_eq!(ab.counts(), ba.counts());
        prop_assert_eq!(ab.total(), ba.total());

        // Associative: (a⊕b)⊕c == a⊕(b⊕c).
        let mut ab_c = ab;
        ab_c.merge_from(&c).expect("same domain");
        let mut bc = b.clone();
        bc.merge_from(&c).expect("same domain");
        let mut a_bc = a.clone();
        a_bc.merge_from(&bc).expect("same domain");
        prop_assert_eq!(ab_c.counts(), a_bc.counts());
        prop_assert_eq!(ab_c.total(), a_bc.total());
        prop_assert_eq!(ab_c.out_of_range(), a_bc.out_of_range());
    }

    /// WaveletSynopsis: the coefficient merge is exactly commutative (the
    /// deterministic energy-then-index re-threshold ordering, §6).
    #[test]
    fn wavelet_synopsis_merge_is_commutative(
        xs in prop::collection::vec(-50..50i64, 16..48),
        ba in 2usize..8,
        bb in 2usize..8,
    ) {
        let n = xs.len();
        let x: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let y: Vec<f64> = xs.iter().rev().map(|&v| (v * 3 % 40) as f64).collect();
        let a = WaveletSynopsis::top_b(&x, ba);
        let b = WaveletSynopsis::top_b(&y[..n], bb);

        let mut ab = a.clone();
        ab.merge_from(&b).expect("same domain");
        let mut ba_s = b.clone();
        ba_s.merge_from(&a).expect("same domain");
        prop_assert_eq!(ab.coefficients(), ba_s.coefficients());
    }

    /// DynamicWavelet: merging superimposes the signals exactly — the Haar
    /// transform is linear and no thresholding is applied.
    #[test]
    fn dynamic_wavelet_merge_superimposes_exactly(
        xs in prop::collection::vec(-100..100i64, 8),
        ys in prop::collection::vec(-100..100i64, 8),
    ) {
        let mut a = DynamicWavelet::new(8);
        let mut b = DynamicWavelet::new(8);
        for i in 0..8 {
            a.set(i, xs[i] as f64);
            b.set(i, ys[i] as f64);
        }
        let mut ab = a.clone();
        ab.merge_from(&b).expect("same capacity");
        for i in 0..8 {
            let want = a.value(i) + b.value(i);
            prop_assert!((ab.value(i) - want).abs() < 1e-9, "index {}", i);
        }
    }

    /// FixedWindowHistogram: a k-way partition merge lands within the §6
    /// gather bound `√SSE(h, u) ≤ √G + √(1+ε)·(√G + √OPT_B(u))`, where
    /// `G = Σᵢ SSE(ĥᵢ, partᵢ)` is the error already present in the parts.
    #[test]
    fn fixed_window_partition_merge_obeys_the_gather_bound(
        data in prop::collection::vec(0..60i64, 24..120),
        k in 2usize..4,
        b in 2usize..5,
    ) {
        let eps = 0.2;
        let data: Vec<f64> = data.into_iter().map(|v| v as f64).collect();
        let parts = partition(&data, k);
        let mut gather_term = 0.0f64;
        let mut summaries = Vec::with_capacity(parts.len());
        for chunk in &parts {
            let mut fw = FixedWindowHistogram::builder(chunk.len(), b, eps)
                .build()
                .expect("valid config");
            fw.push_batch(chunk);
            gather_term += fw.histogram().sse(chunk);
            summaries.push(fw);
        }
        let mut merged = summaries[0].clone();
        for part in &summaries[1..] {
            merged.merge_from(part).expect("identical b/eps/delta");
        }
        prop_assert_eq!(merged.window().len(), data.len());

        let sse = merged.histogram().sse(&data);
        let opt = optimal_sse(&data, b);
        let bound = gather_term.sqrt()
            + (1.0 + eps).sqrt() * (gather_term.sqrt() + opt.sqrt());
        prop_assert!(
            sse.sqrt() <= bound + 1e-6,
            "sse {} exceeds composed bound {} (G {}, OPT {})",
            sse, bound * bound, gather_term, opt
        );
    }
}

/// A live fleet's `snapshot_global` honours the same gather bound as the
/// bare merge, at 1, 4 and 16 shards: each shard's window of 256 is
/// filled twice over, then a fresh slab forces the gather to rebuild
/// before it is measured against `OPT_B` of the concatenated windows.
#[test]
fn fleet_global_snapshot_is_within_the_gather_bound() {
    let (window, b, eps) = (256, 8, 0.1);
    for shards in [1usize, 4, 16] {
        let fleet = ShardedFixedWindow::new(shards, window, b, eps);
        let stream = utilization_trace(2 * shards * window, 42 + shards as u64);
        fleet.push_batch_scatter(&stream).expect("lossless push");
        let _ = fleet.snapshot_global().expect("fleet healthy");
        fleet
            .push_batch_scatter(&utilization_trace(shards, 7))
            .expect("lossless push");
        let (global, _) = fleet.snapshot_global().expect("fleet healthy");
        let mut u = Vec::with_capacity(shards * window);
        let mut g = 0.0f64;
        for fw in fleet.join() {
            let fw = fw.expect("worker alive");
            let w = fw.window();
            g += fw.histogram().sse(&w);
            u.extend_from_slice(&w);
        }
        assert_eq!(global.domain_len(), u.len(), "{shards} shards: coverage");
        let (sse, opt) = (global.sse(&u), optimal_sse(&u, b));
        let bound = g.sqrt() + (1.0 + eps).sqrt() * (g.sqrt() + opt.sqrt());
        assert!(
            sse.sqrt() <= bound + 1e-6,
            "{shards} shards: SSE {sse} exceeds the gather bound {} (G {g}, OPT {opt})",
            bound * bound
        );
    }
}

/// Every documented config-mismatch rejection, with its exact `param`
/// name, and the receiver left untouched by the failed merge.
#[test]
fn mismatched_configs_are_rejected_with_the_exact_param() {
    fn param_of(err: StreamhistError) -> &'static str {
        match err {
            StreamhistError::InvalidParameter { param, .. } => param,
            other => panic!("expected InvalidParameter, got {other}"),
        }
    }

    // GK: eps must match bitwise; receiver unchanged on rejection.
    let mut gk = GkSummary::new(0.05);
    (0..50).for_each(|i| gk.push(f64::from(i)));
    let stored_before = gk.stored();
    let other = GkSummary::new(0.1);
    assert_eq!(param_of(gk.merge_from(&other).unwrap_err()), "eps");
    assert_eq!(gk.count(), 50, "receiver untouched by rejected merge");
    assert_eq!(gk.stored(), stored_before);

    // FixedWindow: b, eps, then the k-way capacity override.
    let fw = |cap: usize, b: usize, eps: f64| {
        FixedWindowHistogram::builder(cap, b, eps)
            .build()
            .expect("valid config")
    };
    let mut base = fw(16, 4, 0.1);
    assert_eq!(param_of(base.merge_from(&fw(16, 5, 0.1)).unwrap_err()), "b");
    assert_eq!(
        param_of(base.merge_from(&fw(16, 4, 0.2)).unwrap_err()),
        "eps"
    );
    let wider = fw(32, 4, 0.1);
    assert_eq!(
        param_of(MergeableSummary::merge(&[&base, &wider]).unwrap_err()),
        "capacity"
    );

    // TimeWindow: duration.
    let mut tw = TimeWindowHistogram::new(100, 4, 0.1);
    let longer = TimeWindowHistogram::new(200, 4, 0.1);
    assert_eq!(param_of(tw.merge_from(&longer).unwrap_err()), "duration");

    // FrequencyVector: lo, then domain width (reported as "hi").
    let mut fv = FrequencyVector::new(0, 9);
    assert_eq!(
        param_of(fv.merge_from(&FrequencyVector::new(1, 10)).unwrap_err()),
        "lo"
    );
    assert_eq!(
        param_of(fv.merge_from(&FrequencyVector::new(0, 19)).unwrap_err()),
        "hi"
    );

    // Wavelets: signal domain, capacity.
    let mut ws = WaveletSynopsis::top_b(&[1.0; 16], 4);
    let shorter = WaveletSynopsis::top_b(&[1.0; 8], 4);
    assert_eq!(param_of(ws.merge_from(&shorter).unwrap_err()), "n");
    let mut dw = DynamicWavelet::new(8);
    assert_eq!(
        param_of(dw.merge_from(&DynamicWavelet::new(16)).unwrap_err()),
        "capacity"
    );

    // The k-way combinator rejects an empty part list everywhere.
    let empty: [&GkSummary; 0] = [];
    assert_eq!(
        param_of(<GkSummary as MergeableSummary>::merge(&empty).unwrap_err()),
        "parts"
    );
}
