//! Side-by-side comparison of every sequence-approximation method in the
//! workspace on one window of a synthetic utilization trace: exact DP,
//! offline ε-approximation, agglomerative, fixed-window, wavelet synopsis
//! — plus the value-domain equi-depth histogram from a GK quantile
//! summary.
//!
//! Run with: `cargo run --release --example compare_methods`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::time::Instant;
use streamhist::data::{utilization_trace, WorkloadGen};
use streamhist::{
    approx_histogram, evaluate_queries, optimal_histogram, AgglomerativeHistogram,
    EquiDepthHistogram, FixedWindowHistogram, GkSummary, QuantileSummary, SequenceSummary,
    WaveletSynopsis,
};

fn main() {
    let n = 4096;
    let (b, eps) = (16, 0.1);
    let data = utilization_trace(n, 1234);
    let queries = WorkloadGen::new(55, n).range_sums(1_000);

    println!("n = {n}, B = {b}, eps = {eps}, 1000 random range-sum queries\n");
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12}",
        "method", "SSE", "mean |err|", "rel err", "build time"
    );

    let report = |name: &str, sse: f64, s: &dyn SequenceSummary, t: std::time::Duration| {
        let r = evaluate_queries(&data, s, &queries);
        println!(
            "{:<26} {:>12.4e} {:>12.1} {:>9.3}% {:>12.1?}",
            name,
            sse,
            r.mean_abs_error,
            100.0 * r.mean_rel_error,
            t
        );
    };

    // Exact optimal DP (the accuracy floor).
    let t = Instant::now();
    let h_opt = optimal_histogram(&data, b);
    report("optimal DP (JKM+98)", h_opt.sse(&data), &h_opt, t.elapsed());

    // Offline ε-approximate histogram (Problem 2).
    let t = Instant::now();
    let h_approx = approx_histogram(&data, b, eps);
    report(
        "offline eps-approx",
        h_approx.sse(&data),
        &h_approx,
        t.elapsed(),
    );

    // Agglomerative (streaming, whole sequence).
    let t = Instant::now();
    let agg = AgglomerativeHistogram::from_slice(&data, b, eps);
    let h_agg = agg.histogram();
    report(
        "agglomerative stream",
        h_agg.sse(&data),
        h_agg.as_ref(),
        t.elapsed(),
    );

    // Fixed-window (streaming; window == whole sequence here).
    let t = Instant::now();
    let mut fw = FixedWindowHistogram::new(n, b, eps);
    for &v in &data {
        fw.push(v);
    }
    let h_fw = fw.histogram();
    report(
        "fixed-window stream",
        h_fw.sse(&data),
        h_fw.as_ref(),
        t.elapsed(),
    );

    // Wavelet synopsis at equal budget.
    let t = Instant::now();
    let wav = WaveletSynopsis::top_b(&data, b);
    report("wavelet top-B (MVW)", wav.sse(&data), &wav, t.elapsed());

    // Equi-width baseline (distribution-oblivious boundaries).
    let t = Instant::now();
    let h_ew = streamhist::Histogram::equi_width(&data, b);
    report("equi-width", h_ew.sse(&data), &h_ew, t.elapsed());

    // Value-domain equi-depth histogram (different query class: value
    // selectivity, not index ranges) — reported separately.
    let t = Instant::now();
    let mut gk = GkSummary::new(0.01);
    for &v in &data {
        gk.push(v);
    }
    let ed = EquiDepthHistogram::from_summary(&gk, b);
    let built = t.elapsed();
    let median = gk.quantile(0.5);
    println!(
        "\nvalue-domain (GK + equi-depth, {} tuples, built in {:.1?}):",
        gk.stored(),
        built
    );
    println!("  median value estimate: {median:.0}");
    let sel = ed.selectivity(0.0, median);
    println!("  selectivity of [0, median] = {:.3} (expected ~0.5)", sel);

    println!(
        "\nbucket boundaries (fixed-window): {:?}",
        h_fw.bucket_ends()
    );
}
