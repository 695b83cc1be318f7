//! BENCH-OBS-OVERHEAD — cost of the telemetry layer on the ingest path.
//!
//! The observability design promises that metrics stay out of the hot
//! path: the shard counters are plain relaxed atomics whether or not a
//! [`MetricsRegistry`] is attached (attaching only swaps in shared cells),
//! and span-style tracing costs nothing until a [`KernelTracer`] arms it.
//! This bench makes both claims measurable.
//!
//! Modes (each the same workload — sharded batch ingestion with snapshot
//! barriers):
//!
//! * `baseline` — nothing attached;
//! * `registry` — registry attached, no tracer: a monitored production
//!   fleet. Guarded: must stay within `MAX_REGRESSION` of `baseline`;
//! * `recorder` — registry *and* an explicit [`FlightRecorder`] attached.
//!   Guarded: must stay within `MAX_REGRESSION` of `registry`, pinning the
//!   flight recorder's promise that an idle ring (no shard deaths, no
//!   overload) costs the ingest path nothing beyond noise;
//! * `tracing` — registry attached and a fleet-scoped kernel tracer handed
//!   to the builder (worker threads install it thread-locally), so every
//!   build and every queued command is timed into GK latency summaries.
//!   Unguarded: this is the opt-in deep-tracing mode and its cost is
//!   reported, not bounded.
//!
//! Every repeat runs all four modes back to back, in an order rotated by
//! one mode per repeat, so a shared machine's slow drift lands on every
//! mode alike. The guards compare the median over repeats of each
//! repeat's *paired* throughput ratio, not best-of-N minima taken at
//! different moments.
//!
//! A noise-free structural check rides along: the `registry` fleet must
//! record no `streamhist_shard_queue_wait_seconds` sample (an untraced
//! fleet reads no clock on its queues), the `tracing` fleet at least one.
//!
//! Every mode's workload ends with one `snapshot_global()`, so the merge
//! path — including the live accuracy audit gauges — is inside the
//! measured region in all rows.
//!
//! ```text
//! cargo run --release -p streamhist-bench --bin bench_obs_overhead
//! ```
//!
//! Output: `BENCH_obs_overhead.json` in the current directory.
#![allow(clippy::disallowed_macros)] // bench bins report via stdout

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use streamhist_bench::full_scale;
use streamhist_data::utilization_trace;
use streamhist_obs::{FlightRecorder, MetricsRegistry, SampleValue};
use streamhist_stream::telemetry::KernelTracer;
use streamhist_stream::ShardedFixedWindow;

/// `registry` may run at no less than this fraction of `baseline`, and
/// `recorder` no less than this fraction of `registry`.
const MAX_REGRESSION: f64 = 0.98;

const SHARDS: usize = 2;
const WINDOW: usize = 512;
const B: usize = 8;
const EPS: f64 = 0.1;
const BATCH: usize = 512;

const MODES: [&str; 4] = ["baseline", "registry", "recorder", "tracing"];

/// What a pass attaches to the fleet; each mode is one combination.
struct Attach {
    registry: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    tracer: Arc<KernelTracer>,
}

/// One timed pass of `mode`: scatter the stream through the fleet in
/// slabs, then a per-shard snapshot barrier plus one `snapshot_global()` —
/// so elapsed time covers every queued record, one histogram
/// materialization per shard, and one fleet-global merge with its
/// accuracy audit. Each mode reports under its own `fleet` label.
fn one_pass(stream: &[f64], mode: &str, with: &Attach) -> f64 {
    let mut builder = ShardedFixedWindow::builder(SHARDS, WINDOW, B, EPS).fleet_label(mode);
    if mode != "baseline" {
        builder = builder.registry(Arc::clone(&with.registry));
    }
    if mode == "recorder" {
        builder = builder.recorder(Arc::clone(&with.recorder));
    }
    if mode == "tracing" {
        builder = builder.kernel_tracer(Arc::clone(&with.tracer));
    }
    let sw = builder.build().expect("valid config");
    let t0 = Instant::now();
    for slab in stream.chunks(BATCH) {
        sw.push_batch_scatter(slab).expect("lossless push");
    }
    for s in 0..SHARDS {
        sw.snapshot(s).expect("worker alive");
    }
    sw.snapshot_global().expect("fleet alive");
    let secs = t0.elapsed().as_secs_f64();
    for r in sw.join() {
        r.expect("worker alive");
    }
    secs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Samples recorded in latency family `family` under `{fleet = fleet}`.
fn latency_samples(registry: &MetricsRegistry, family: &str, fleet: &str) -> u64 {
    registry
        .gather()
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.series)
        .filter(|s| s.labels.iter().any(|(k, v)| k == "fleet" && v == fleet))
        .map(|s| match &s.value {
            SampleValue::Summary(l) => l.count,
            _ => 0,
        })
        .sum()
}

fn main() {
    // Many short pairs beat a few long ones: on a shared 2-vCPU VM a pass
    // varies by ~10%, mostly at pass granularity, so the median paired
    // ratio tightens with the number of repeats.
    let (len, repeats) = if full_scale() {
        (2_000_000, 121)
    } else {
        (1_000_000, 61)
    };
    let stream = utilization_trace(len, 77);
    let registry = Arc::new(MetricsRegistry::new());
    let with = Attach {
        tracer: Arc::new(KernelTracer::new(&registry)),
        recorder: Arc::new(FlightRecorder::default()),
        registry,
    };

    // Warm-up pass (untimed): fault in the stream, spin up and tear down
    // one fleet, so the first measured pass is not charged for cold-start.
    one_pass(&stream, "baseline", &with);

    println!(
        "BENCH-OBS-OVERHEAD: {SHARDS} shards, window {WINDOW}, B {B}, eps {EPS}, \
         stream {len}, {repeats} interleaved repeats"
    );

    // secs[m][r]: mode m's time in repeat r.
    let mut secs = vec![Vec::with_capacity(repeats); MODES.len()];
    for r in 0..repeats {
        for i in 0..MODES.len() {
            let m = (r + i) % MODES.len();
            secs[m].push(one_pass(&stream, MODES[m], &with));
        }
    }
    // A lossless run records nothing; the ring must still be empty.
    assert_eq!(with.recorder.recorded(), 0, "idle recorder captured events");

    let idx = |mode: &str| MODES.iter().position(|m| *m == mode).expect("mode");
    // Median over repeats of the paired throughput ratio `mode / reference`.
    let paired = |mode: &str, reference: &str| {
        let (a, b) = (&secs[idx(mode)], &secs[idx(reference)]);
        median(b.iter().zip(a).map(|(rs, ms)| rs / ms).collect())
    };
    let ratios = [
        ("registry", "baseline", paired("registry", "baseline")),
        ("recorder", "registry", paired("recorder", "registry")),
        ("tracing", "registry", paired("tracing", "registry")),
    ];
    let queue_wait =
        |mode: &str| latency_samples(&with.registry, "streamhist_shard_queue_wait_seconds", mode);
    let (untraced_waits, traced_waits) = (queue_wait("registry"), queue_wait("tracing"));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"shards\": {SHARDS}, \"window\": {WINDOW}, \"b\": {B}, \"eps\": {EPS}, \"batch\": {BATCH}, \"repeats\": {repeats}}},"
    );
    json.push_str("  \"rows\": [\n");
    let rows: Vec<String> = MODES
        .iter()
        .zip(&secs)
        .map(|(mode, s)| {
            let med = median(s.clone());
            println!(
                "{mode:>10} {len:>10} points {med:>9.3}s median {:>12.0} points/sec",
                len as f64 / med
            );
            format!(
                "    {{\"mode\": \"{mode}\", \"points\": {len}, \"secs_median\": {med:.6}, \"points_per_sec\": {:.1}}}",
                len as f64 / med
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n  \"paired_ratios\": {");
    let pairs: Vec<String> = ratios
        .iter()
        .map(|(m, r, x)| {
            println!(
                "{m} vs {r}: {:.1}% (median paired throughput ratio)",
                100.0 * x
            );
            format!("\"{m}_vs_{r}\": {x:.4}")
        })
        .collect();
    json.push_str(&pairs.join(", "));
    let _ = writeln!(
        json,
        "}},\n  \"queue_wait_samples\": {{\"registry\": {untraced_waits}, \"tracing\": {traced_waits}}}\n}}"
    );
    println!("queue-wait samples: registry {untraced_waits}, tracing {traced_waits}");

    let path = "BENCH_obs_overhead.json";
    std::fs::write(path, &json).expect("write BENCH_obs_overhead.json");
    println!("wrote {path}");

    assert_eq!(
        untraced_waits, 0,
        "an untraced fleet with a registry recorded queue-wait samples"
    );
    assert!(
        traced_waits >= 1,
        "a traced fleet recorded no queue-wait samples"
    );
    for (mode, reference, ratio) in &ratios[..2] {
        assert!(
            *ratio >= MAX_REGRESSION,
            "{mode} regressed ingestion versus {reference} by more than {:.0}%: \
             median paired ratio {:.1}%",
            100.0 * (1.0 - MAX_REGRESSION),
            100.0 * ratio
        );
    }
}
