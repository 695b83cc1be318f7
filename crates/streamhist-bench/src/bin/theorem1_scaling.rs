//! THM1-SCALING — sanity-checks the shape of Theorem 1: the fixed-window
//! materialization cost is `O((B³/ε²) log³ n)` — polylogarithmic in the
//! window length but polynomial in `B` and `1/ε` — and compares it against
//! the naive `O(n²B)` per-window DP, locating the crossover where the
//! paper's algorithm starts winning. Beside each CreateList time it
//! prints the work in the theorem's own units: `HERROR` evaluations and
//! endpoint searches per build, nanoseconds per evaluation, and the
//! evaluations per build divided by `(B³/ε²) log₂³ n` — the constant the
//! theorem's bound hides, which stays flat as the window grows if the
//! `log³ n` growth holds.
//!
//! Run: `cargo run --release -p streamhist-bench --bin theorem1_scaling`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use streamhist_bench::{full_scale, timed};
use streamhist_data::utilization_trace;
use streamhist_stream::{FixedWindowHistogram, NaiveSlidingWindow};

/// Mean cost of one fixed-window materialization, with its work counts.
struct Cost {
    /// CreateList seconds per build.
    fw_s: f64,
    /// Naive-DP seconds per build.
    naive_s: f64,
    /// Total interval count over the level queues (last build).
    queue_total: usize,
    /// `HERROR` evaluations per build.
    evals: f64,
    /// Binary searches per build.
    searches: f64,
}

impl Cost {
    fn ns_per_eval(&self) -> f64 {
        self.fw_s * 1e9 / self.evals.max(1.0)
    }
}

/// Theorem 1's per-build work bound without its constant,
/// `(B³/ε²) log₂³ n`.
fn theorem1_units(window: usize, b: usize, eps: f64) -> f64 {
    (b as f64).powi(3) / (eps * eps) * (window as f64).log2().powi(3)
}

fn materialization_cost(window: usize, b: usize, eps: f64, stream: &[f64]) -> Cost {
    let mut fw = FixedWindowHistogram::new(window, b, eps);
    for &v in &stream[..window] {
        fw.push(v);
    }
    // Time several materializations at different window positions.
    let reps = 5usize;
    let mut total = 0.0;
    let (mut evals, mut searches, mut queue_total) = (0usize, 0usize, 0usize);
    for r in 0..reps {
        fw.push(stream[window + r]);
        let ((_, s), t) = timed(|| fw.histogram_with_stats());
        total += t.as_secs_f64();
        evals += s.herror_evals;
        searches += s.binary_searches;
        queue_total = s.queue_sizes.iter().sum();
    }
    // Naive DP on the same windows.
    let mut naive = NaiveSlidingWindow::new(window, b);
    for &v in &stream[..window] {
        naive.push(v);
    }
    let mut naive_total = 0.0;
    for r in 0..reps {
        naive.push(stream[window + r]);
        let (h, t) = timed(|| naive.histogram());
        std::hint::black_box(h);
        naive_total += t.as_secs_f64();
    }
    Cost {
        fw_s: total / reps as f64,
        naive_s: naive_total / reps as f64,
        queue_total,
        evals: evals as f64 / reps as f64,
        searches: searches as f64 / reps as f64,
    }
}

fn main() {
    let max_window = if full_scale() { 32_768 } else { 8_192 };
    let stream = utilization_trace(max_window + 16, 555);

    println!("THM1-SCALING: per-materialization cost, CreateList vs naive O(n^2 B) DP\n");
    println!(
        "{:>6} {:>4} {:>6} {:>14} {:>14} {:>9} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "window",
        "B",
        "eps",
        "CreateList",
        "naive DP",
        "speedup",
        "queue sum",
        "evals/build",
        "searches",
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
                "{:>6} {:>4} {:>6} {:>13.3}ms {:>13.3}ms {:>8.1}x {:>10} {:>12.0} {:>10.0} {:>10.1} {:>12.3e}",
                w,
                b,
                eps,
                c.fw_s * 1e3,
                c.naive_s * 1e3,
                c.naive_s / c.fw_s.max(1e-12),
                c.queue_total,
                c.evals,
                c.searches,
                c.ns_per_eval(),
                per_unit
            );
            println!(
                "csv,thm1_window,{w},{b},{eps},{},{},{},{},{},{},{}",
                c.fw_s,
                c.naive_s,
                c.queue_total,
                c.evals,
                c.searches,
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
                 {:.0} evals, {:.0} searches, {:.1} ns/eval, {per_unit:.3e} evals/thm1)",
                c.fw_s * 1e3,
                c.queue_total,
                c.evals,
                c.searches,
                c.ns_per_eval()
            );
            println!(
                "csv,thm1_beps,{w},{b},{eps},{},{},{},{},{},{per_unit}",
                c.fw_s,
                c.queue_total,
                c.evals,
                c.searches,
                c.ns_per_eval()
            );
        }
    }
}
