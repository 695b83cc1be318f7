//! `per_arrival`: the paper's per-arrival maintenance step.
//!
//! One [`FixedWindowHistogram`] (n = 512, B = 8, ε = 0.1) on one thread,
//! closed loop: each arrival is a `push` followed by
//! `histogram_with_stats`, so every arrival pays one full kernel build.
//! No threads, sockets or WAL are involved; kernel changes show here and
//! gather, wire and WAL changes must read "no change".
//!
//! * set-up: build the summary, push a 16-window history, materialize the
//!   first histogram;
//! * warm-up (untimed): the first [`GATE_ARRIVALS`] arrivals check the
//!   `(1+ε)` guarantee against the optimal DP at every
//!   [`SAMPLE_EVERY`]-th window and supply the kernel work counts, then
//!   arrivals continue until [`WARMUP`] has passed;
//! * measured: arrivals until `--seconds` have passed.

use super::{finish_trace, median_setup_s, sse_ratio, timed, WARMUP};
use crate::input::{self, Cycle};
use crate::stats::{self, median_of, Timeline};
use crate::trace::SpanLog;
use crate::{Outcome, RunConfig, B, EPS};
use std::hint::black_box;
use std::time::{Duration, Instant};
use streamhist_optimal::optimal_sse;
use streamhist_stream::FixedWindowHistogram;

/// Window length `n`.
pub const WINDOW: usize = 512;
/// Values pushed during set-up.
pub const HISTORY: usize = 16 * WINDOW;
/// Untimed arrivals that carry the accuracy gate and the kernel counts.
pub const GATE_ARRIVALS: usize = 128;
/// Every this many gate arrivals, the window is checked against the DP.
pub const SAMPLE_EVERY: usize = 8;
/// Input pool: set-up history plus more arrivals than a run makes.
const POOL: usize = 1 << 16;

/// The summary a user would have after set-up.
fn setup(pool: &[f64]) -> FixedWindowHistogram {
    let mut h = FixedWindowHistogram::new(WINDOW, B, EPS);
    for &v in &pool[..HISTORY] {
        h.push(v);
    }
    black_box(h.histogram_with_stats());
    h
}

/// What one phase measured.
struct Phase {
    setup_s: f64,
    /// Per-arrival latency, ms.
    lat_ms: Timeline,
    peak_rss_mb: f64,
    sse_ratio: f64,
    herror_evals: f64,
    binary_searches: f64,
    /// HERROR evaluations of the measured builds.
    timed_evals: usize,
    log: SpanLog,
}

fn phase(pool: &[f64], seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
    let (mut hist, first_setup) = timed(|| setup(pool));
    let mut input = Cycle::new(&pool[HISTORY..]);

    // Warm-up, with the accuracy gate and the deterministic kernel counts.
    let warm = Instant::now();
    let mut ratios = Vec::new();
    let mut worst = 0.0f64;
    let (mut evals, mut searches) = (0usize, 0usize);
    for i in 0..GATE_ARRIVALS {
        hist.push(input.next_value());
        let (h, st) = hist.histogram_with_stats();
        evals += st.herror_evals;
        searches += st.binary_searches;
        if i % SAMPLE_EVERY == SAMPLE_EVERY - 1 {
            let window = hist.window();
            let ratio = sse_ratio(h.sse(&window), optimal_sse(&window, B));
            worst = worst.max(ratio);
            ratios.push(ratio);
        }
    }
    out.gate(
        format!(
            "per_arrival: SSE <= (1+eps)*OPT at {} sampled windows",
            ratios.len()
        ),
        worst <= 1.0 + EPS + 1e-9,
        format!("worst ratio {worst:.6}"),
    );
    while warm.elapsed() < WARMUP {
        hist.push(input.next_value());
        black_box(hist.histogram_with_stats());
    }

    // Measured phase.
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, traced);
    let run_for = Duration::from_secs_f64(seconds);
    let mut lat_ms = Timeline::new(epoch, run_for);
    let mut timed_evals = 0usize;
    let mut req = 0u64;
    let mut t0 = epoch;
    while t0.duration_since(epoch) < run_for {
        req += 1;
        let v = input.next_value();
        let root = log.begin("arrival", req, None);
        log.time("fixed_window.push", req, Some(root), || hist.push(v));
        let built = log.time("kernel.build", req, Some(root), || {
            hist.histogram_with_stats()
        });
        log.end(root);
        let t1 = Instant::now();
        timed_evals += built.1.herror_evals;
        black_box(built);
        lat_ms.record(t1, stats::ms(t1 - t0));
        t0 = t1;
    }
    let peak_rss_mb = stats::peak_rss_mb();
    out.attempted += req;
    drop(hist);
    Phase {
        setup_s: median_setup_s(first_setup, || setup(pool), drop),
        lat_ms,
        peak_rss_mb,
        sse_ratio: stats::mean(&ratios),
        herror_evals: evals as f64 / GATE_ARRIVALS as f64,
        binary_searches: searches as f64 / GATE_ARRIVALS as f64,
        timed_evals,
        log,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let pool = input::pool(cfg.seed, POOL);
    let mut out = Outcome::default();
    out.set("loadgen.zero_share", input::zero_share(&pool));
    let plain = phase(&pool, cfg.phase_seconds(), false, &mut out);
    let p50 = plain.lat_ms.quantile(0.5);
    out.set("setup_s", plain.setup_s);
    out.set("throughput_per_s", plain.lat_ms.rate_per_s());
    out.set("latency_p50_ms", p50);
    out.set("loadgen.latency_p99_ms", plain.lat_ms.quantile(0.99));
    out.set("sse_ratio", plain.sse_ratio);
    out.set("process.peak_rss_mb", plain.peak_rss_mb);
    out.set("kernel.herror_evals_per_build", plain.herror_evals);
    out.set("kernel.binary_searches_per_build", plain.binary_searches);
    if !cfg.trace {
        return out;
    }

    let traced = phase(&pool, cfg.phase_seconds(), true, &mut out);
    let selfs = traced.log.self_ns_by_name();
    let durs = traced.log.dur_ns_by_name();
    let build_ns: f64 = durs.get("kernel.build").map_or(0.0, |v| v.iter().sum());
    out.set(
        "kernel.build_ms_p50",
        median_of(&durs, "kernel.build") / 1e6,
    );
    out.set(
        "kernel.ns_per_herror_eval",
        build_ns / traced.timed_evals.max(1) as f64,
    );
    out.set(
        "fixed_window.push_ns_p50",
        median_of(&durs, "fixed_window.push"),
    );
    let chain_ms = ["arrival", "fixed_window.push", "kernel.build"]
        .iter()
        .map(|k| median_of(&selfs, k))
        .sum::<f64>()
        / 1e6;
    let traced_p50 = traced.lat_ms.quantile(0.5);
    finish_trace(&mut out, &traced.log, p50, traced_p50, chain_ms, cfg);
    out
}
