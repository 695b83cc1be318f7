//! THM1-SCALING — sanity-checks the shape of Theorem 1: the fixed-window
//! materialization cost is `O((B³/ε²) log³ n)` — polylogarithmic in the
//! window length but polynomial in `B` and `1/ε` — and compares it against
//! the naive `O(n²B)` per-window DP, locating the crossover where the
//! paper's algorithm starts winning. Each row builds once cold, discards
//! that build, then times 15 warm builds at consecutive window positions,
//! each seeded by the build one push earlier as in the paper's
//! per-arrival loop: times are the median of the 15, work counts their
//! mean. Beside each CreateList time it prints the work in the theorem's
//! own units: `HERROR` evaluations and endpoint searches per build, split
//! candidates scanned per evaluation (the innermost factor, counted by a
//! kernel tracer in an untimed replay of the same builds), nanoseconds
//! per evaluation, and the evaluations per build divided by
//! `(B³/ε²) log₂³ n` — the constant the theorem's bound hides, which
//! stays flat as the window grows if the `log³ n` growth holds.
//!
//! Run: `cargo run --release -p streamhist-bench --bin theorem1_scaling`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::sync::Arc;
use streamhist_bench::{full_scale, timed};
use streamhist_data::utilization_trace;
use streamhist_obs::MetricsRegistry;
use streamhist_stream::telemetry::{set_thread_kernel_tracer, KernelTracer};
use streamhist_stream::{FixedWindowHistogram, NaiveSlidingWindow};

/// Warm builds timed per row, after one discarded cold build.
const WARM_BUILDS: usize = 15;

/// Cost of one warm fixed-window materialization, with its work counts.
struct Cost {
    /// Median CreateList seconds per build.
    fw_s: f64,
    /// Median naive-DP seconds per build.
    naive_s: f64,
    /// Total interval count over the level queues (last build).
    queue_total: usize,
    /// Mean `HERROR` evaluations per build.
    evals: f64,
    /// Mean binary searches per build.
    searches: f64,
    /// Mean split candidates scanned per build.
    candidates: f64,
}

impl Cost {
    fn ns_per_eval(&self) -> f64 {
        self.fw_s * 1e9 / self.evals.max(1.0)
    }

    fn candidates_per_eval(&self) -> f64 {
        self.candidates / self.evals.max(1.0)
    }
}

/// Theorem 1's per-build work bound without its constant,
/// `(B³/ε²) log₂³ n`.
fn theorem1_units(window: usize, b: usize, eps: f64) -> f64 {
    (b as f64).powi(3) / (eps * eps) * (window as f64).log2().powi(3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Split candidates the warm builds of [`materialization_cost`] scan,
/// counted by a kernel tracer over a replay of the same pushes and builds
/// (untimed, so the tracer's own cost stays out of the timings).
fn candidates_scanned(window: usize, b: usize, eps: f64, stream: &[f64]) -> u64 {
    let mut fw = FixedWindowHistogram::new(window, b, eps);
    for &v in &stream[..=window] {
        fw.push(v);
    }
    std::hint::black_box(fw.histogram_with_stats());
    let tracer = Arc::new(KernelTracer::new(&MetricsRegistry::new()));
    set_thread_kernel_tracer(Some(Arc::clone(&tracer)));
    for &v in &stream[window + 1..=window + WARM_BUILDS] {
        fw.push(v);
        std::hint::black_box(fw.histogram_with_stats());
    }
    set_thread_kernel_tracer(None);
    tracer.candidates.get()
}

fn materialization_cost(window: usize, b: usize, eps: f64, stream: &[f64]) -> Cost {
    let mut fw = FixedWindowHistogram::new(window, b, eps);
    for &v in &stream[..=window] {
        fw.push(v);
    }
    std::hint::black_box(fw.histogram_with_stats());
    let mut times = Vec::with_capacity(WARM_BUILDS);
    let (mut evals, mut searches, mut queue_total) = (0usize, 0usize, 0usize);
    for &v in &stream[window + 1..=window + WARM_BUILDS] {
        fw.push(v);
        let ((_, s), t) = timed(|| fw.histogram_with_stats());
        times.push(t.as_secs_f64());
        evals += s.herror_evals;
        searches += s.binary_searches;
        queue_total = s.queue_sizes.iter().sum();
    }
    // Naive DP on the same windows, with the same discarded first build.
    let mut naive = NaiveSlidingWindow::new(window, b);
    for &v in &stream[..=window] {
        naive.push(v);
    }
    std::hint::black_box(naive.histogram());
    let mut naive_times = Vec::with_capacity(WARM_BUILDS);
    for &v in &stream[window + 1..=window + WARM_BUILDS] {
        naive.push(v);
        let (h, t) = timed(|| naive.histogram());
        std::hint::black_box(h);
        naive_times.push(t.as_secs_f64());
    }
    let builds = WARM_BUILDS as f64;
    Cost {
        fw_s: median(times),
        naive_s: median(naive_times),
        queue_total,
        evals: evals as f64 / builds,
        searches: searches as f64 / builds,
        candidates: candidates_scanned(window, b, eps, stream) as f64 / builds,
    }
}

fn main() {
    let max_window = if full_scale() { 32_768 } else { 8_192 };
    let stream = utilization_trace(max_window + 16, 555);

    println!("THM1-SCALING: per-materialization cost, CreateList vs naive O(n^2 B) DP\n");
    println!(
        "{:>6} {:>4} {:>6} {:>14} {:>14} {:>9} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "window",
        "B",
        "eps",
        "CreateList",
        "naive DP",
        "speedup",
        "queue sum",
        "evals/build",
        "searches",
        "cand/eval",
        "ns/eval",
        "evals/thm1"
    );

    // Sweep window length at fixed (B, eps) — cost should grow much slower
    // than the naive DP's quadratic growth.
    for &(b, eps) in &[(4usize, 1.0f64), (8, 0.5), (8, 0.1)] {
        let mut w = 512usize;
        while w <= max_window {
            let c = materialization_cost(w, b, eps, &stream);
            let per_unit = c.evals / theorem1_units(w, b, eps);
            println!(
                "{:>6} {:>4} {:>6} {:>13.3}ms {:>13.3}ms {:>8.1}x {:>10} {:>12.0} {:>10.0} {:>10.1} {:>10.1} {:>12.3e}",
                w,
                b,
                eps,
                c.fw_s * 1e3,
                c.naive_s * 1e3,
                c.naive_s / c.fw_s.max(1e-12),
                c.queue_total,
                c.evals,
                c.searches,
                c.candidates_per_eval(),
                c.ns_per_eval(),
                per_unit
            );
            println!(
                "csv,thm1_window,{w},{b},{eps},{},{},{},{},{},{},{},{}",
                c.fw_s,
                c.naive_s,
                c.queue_total,
                c.evals,
                c.searches,
                c.candidates_per_eval(),
                c.ns_per_eval(),
                per_unit
            );
            w *= 2;
        }
        println!();
    }

    // Sweep B and eps at a fixed window — cost should grow with B and 1/eps.
    let w = if full_scale() { 8_192 } else { 4_096 };
    println!("fixed window = {w}: cost vs B and eps");
    for &b in &[2usize, 4, 8, 16] {
        for &eps in &[1.0f64, 0.5, 0.1] {
            let c = materialization_cost(w, b, eps, &stream);
            let per_unit = c.evals / theorem1_units(w, b, eps);
            println!(
                "  B={b:<3} eps={eps:<5} CreateList = {:>9.3}ms  (queue total {}, \
                 {:.0} evals, {:.0} searches, {:.1} cand/eval, {:.1} ns/eval, \
                 {per_unit:.3e} evals/thm1)",
                c.fw_s * 1e3,
                c.queue_total,
                c.evals,
                c.searches,
                c.candidates_per_eval(),
                c.ns_per_eval()
            );
            println!(
                "csv,thm1_beps,{w},{b},{eps},{},{},{},{},{},{},{per_unit}",
                c.fw_s,
                c.queue_total,
                c.evals,
                c.searches,
                c.candidates_per_eval(),
                c.ns_per_eval()
            );
        }
    }
}
