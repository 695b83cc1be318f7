//! BENCH-BATCH — batch-ingestion throughput for the fixed-window summary.
//!
//! Measures the paper's per-point maintenance loop (push, then materialize
//! the histogram — one `CreateList` per arrival) against the batched
//! driving mode (`push_batch` a slab, then materialize once), for slab
//! sizes 1, 64 and 1024, single-threaded and through the sharded serving
//! layer. The batched mode is bit-identical to the per-point one (see
//! `tests/batch_equivalence.rs`); the speedup it reports is pure overhead
//! removal — one slab append over the prefix store and one deferred
//! interval-list rebuild per slab instead of per point.
//!
//! Output: a human-readable table plus `BENCH_batch_ingest.json` (written
//! to the current directory) with points/sec per configuration and the
//! kernel instrumentation counters at the end of each run.
//!
//! Exits nonzero if the final build of an unsharded run does more
//! `HERROR` evaluations than `MAX_FINAL_BUILD_EVALS` records for its
//! batch size, or if the sharded batch-1024
//! throughput falls behind sharded batch-64 beyond noise. The first gates
//! are in Theorem 1's own unit and exact: the final window and the builds
//! before it are the same fixed-seed input on every machine, so the
//! evaluation counts are deterministic, and a kernel change that does
//! more work per build fails them. The batch-1 gate (2,525) watches the
//! warm path, whose searches start from the previous build's endpoints:
//! without that seed the count is the cold one, 3,635. The batch-1024
//! gate (3,635) watches the cold build: without the carried interval
//! starts it reads 5,350, and without the galloping search 14,741. The
//! batch-64 gate (3,680) watches a seed 64 pushes stale, where
//! mispredicted endpoints cost one probe each and the seed does 45
//! evaluations more than a cold build; without the carried interval
//! starts it reads 5,395. The last gate guards against re-introducing the scatter
//! inversion (large slabs used to split into `len/k` monolithic chunks
//! that serialized the fleet behind the slowest worker; the scatter chunk
//! cap fixed it).
//!
//! Run: `cargo run --release -p streamhist-bench --bin bench_batch`
//! (set `STREAMHIST_FULL=1` for the paper-scale stream).

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::fmt::Write as _;
use std::time::Instant;
use streamhist_bench::full_scale;
use streamhist_data::utilization_trace;
use streamhist_stream::{FixedWindowHistogram, KernelStats, ShardedFixedWindow};

/// Upper bounds on the `HERROR` evaluations of an unsharded run's final
/// build (window 512, `B = 8`, `ε = 0.1`, `utilization_trace` seed 77),
/// as `(batch, bound)`. The batch-1 run builds after every push, so its
/// final build is seeded with the endpoints of the build one push
/// earlier: the warm path. The batch-1024 run built last a whole window
/// earlier, so no endpoint of that build falls in the final window and
/// the build is cold: only the carried interval starts save work there.
/// The batch-64 run is seeded by a build 64 pushes earlier. A kernel
/// change that lowers a count should lower its bound with it.
const MAX_FINAL_BUILD_EVALS: [(usize, usize); 3] = [(1, 2525), (64, 3680), (1024, 3635)];

/// [`MAX_FINAL_BUILD_EVALS`] for the `STREAMHIST_FULL=1` preset (window
/// 1024).
const MAX_FINAL_BUILD_EVALS_FULL: [(usize, usize); 3] = [(1, 3777), (64, 6240), (1024, 6411)];

struct Row {
    mode: &'static str,
    batch: usize,
    points: usize,
    secs: f64,
    stats: Option<KernelStats>,
}

impl Row {
    fn pps(&self) -> f64 {
        self.points as f64 / self.secs
    }
}

fn bench_unsharded(stream: &[f64], window: usize, b: usize, eps: f64, batch: usize) -> Row {
    let mut fw = FixedWindowHistogram::builder(window, b, eps)
        .build()
        .expect("valid config");
    // Warm the window so every measured materialization covers a full one.
    fw.push_batch(&stream[..window]);
    let body = &stream[window..];
    let t0 = Instant::now();
    for slab in body.chunks(batch) {
        let out = fw.push_batch(slab);
        assert_eq!(out.rejected, 0);
        let _ = fw.histogram(); // the maintenance-loop materialization
    }
    let secs = t0.elapsed().as_secs_f64();
    let (_, stats) = fw.histogram_with_stats();
    Row {
        mode: "fixed_window",
        batch,
        points: body.len(),
        secs,
        stats: Some(stats),
    }
}

fn bench_sharded(
    stream: &[f64],
    shards: usize,
    window: usize,
    b: usize,
    eps: f64,
    batch: usize,
) -> Row {
    let sw = ShardedFixedWindow::builder(shards, window, b, eps)
        .build()
        .expect("valid config");
    let t0 = Instant::now();
    for slab in stream.chunks(batch) {
        sw.push_batch_scatter(slab).expect("lossless push");
    }
    // Snapshot per shard: a barrier behind every queued slab, so elapsed
    // time covers ingestion *and* one materialization per shard.
    let mut stats = None;
    for s in 0..shards {
        let (_, st) = sw.snapshot(s).expect("worker alive");
        stats = Some(st);
    }
    let secs = t0.elapsed().as_secs_f64();
    for r in sw.join() {
        r.expect("worker alive");
    }
    Row {
        mode: "sharded",
        batch,
        points: stream.len(),
        secs,
        stats,
    }
}

fn json_escape_free(s: &str) -> &str {
    // All emitted strings are static identifiers — assert, don't escape.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn to_json(rows: &[Row], window: usize, b: usize, eps: f64, shards: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"window\": {window}, \"b\": {b}, \"eps\": {eps}, \"shards\": {shards}}},"
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"batch\": {}, \"points\": {}, \"secs\": {:.6}, \"points_per_sec\": {:.1}",
            json_escape_free(r.mode),
            r.batch,
            r.points,
            r.secs,
            r.pps()
        );
        if let Some(st) = &r.stats {
            let _ = write!(
                out,
                ", \"kernel\": {{\"herror_evals\": {}, \"binary_searches\": {}, \"queue_total\": {}, \"herror\": {:.6}}}",
                st.herror_evals,
                st.binary_searches,
                st.queue_sizes.iter().sum::<usize>(),
                st.herror
            );
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    // The batch-1 baseline materializes per point (the paper's maintenance
    // loop), which caps the affordable stream length: per-point builds run
    // at O(100) pts/s for kilobyte windows, so the presets are sized for a
    // seconds-scale smoke run and a minutes-scale full run.
    let (window, body) = if full_scale() {
        (1_024usize, 16_384usize)
    } else {
        (512usize, 4_096usize)
    };
    let (b, eps) = (8usize, 0.1f64);
    let shards = 4usize;
    let len = window + body;
    let stream = utilization_trace(len, 77);

    println!("BENCH-BATCH: window {window}, B {b}, eps {eps}, stream {len}, {shards} shards\n");
    println!(
        "{:>14} {:>8} {:>10} {:>10} {:>14}",
        "mode", "batch", "points", "secs", "points/sec"
    );

    let mut rows = Vec::new();
    for batch in [1usize, 64, 1024] {
        rows.push(bench_unsharded(&stream, window, b, eps, batch));
    }
    for batch in [1usize, 64, 1024] {
        rows.push(bench_sharded(&stream, shards, window, b, eps, batch));
    }
    for r in &rows {
        println!(
            "{:>14} {:>8} {:>10} {:>10.3} {:>14.0}",
            r.mode,
            r.batch,
            r.points,
            r.secs,
            r.pps()
        );
        println!(
            "csv,{},{},{},{:.6},{:.1}",
            r.mode,
            r.batch,
            r.points,
            r.secs,
            r.pps()
        );
    }

    let json = to_json(&rows, window, b, eps, shards);
    std::fs::write("BENCH_batch_ingest.json", &json).expect("write BENCH_batch_ingest.json");
    println!("\nwrote BENCH_batch_ingest.json");

    // The work gates: every unsharded run ends on the same window after
    // the same build history, so its final build's evaluation count is
    // exact.
    let bounds = if full_scale() {
        MAX_FINAL_BUILD_EVALS_FULL
    } else {
        MAX_FINAL_BUILD_EVALS
    };
    let mut regressed = Vec::new();
    for r in rows.iter().filter(|r| r.mode == "fixed_window") {
        let evals = r
            .stats
            .as_ref()
            .expect("unsharded rows keep stats")
            .herror_evals;
        let &(_, max) = bounds
            .iter()
            .find(|&&(batch, _)| batch == r.batch)
            .expect("every fixed_window row has a bound");
        println!(
            "fixed_window batch-{}: final build {evals} HERROR evals (max {max})",
            r.batch
        );
        if evals > max {
            regressed.push(format!("batch-{} did {evals} (max {max})", r.batch));
        }
    }
    assert!(
        regressed.is_empty(),
        "kernel work regressed: the final fixed_window build of {}",
        regressed.join(", ")
    );

    // The scatter-inversion gate: with the chunk cap, a 1024-record slab
    // scatters as pipeline-sized chunks, so it must not fall behind the
    // batch-64 sharded run by more than scheduler noise.
    let s64 = rows
        .iter()
        .find(|r| r.mode == "sharded" && r.batch == 64)
        .expect("sharded batch-64 row");
    let s1024 = rows
        .iter()
        .find(|r| r.mode == "sharded" && r.batch == 1024)
        .expect("sharded batch-1024 row");
    let ratio = s1024.pps() / s64.pps();
    println!("batch-1024 vs batch-64 (sharded): {ratio:.2}x");
    assert!(
        ratio > 0.75,
        "sharded scatter inversion: batch-1024 ({:.0} pts/s) fell behind batch-64 ({:.0} pts/s)",
        s1024.pps(),
        s64.pps()
    );
}
