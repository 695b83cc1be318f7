//! BENCH-MERGE — fleet-global snapshot latency and accuracy.
//!
//! Exercises the scatter/gather path end to end: a sharded fleet ingests a
//! stream, `snapshot_global()` gathers the per-shard V-optimal histograms
//! into one `B`-bucket fleet histogram, and the harness measures
//!
//! * **latency** — wall time of `snapshot_global()` after a fresh slab
//!   has been pushed *and drained* (per-shard barrier snapshots first, so
//!   the cache deterministically misses and the per-shard histograms are
//!   already materialized): the measured cost is the gather itself —
//!   every kernel re-optimization in the merge tree;
//! * **accuracy** — SSE of the gathered histogram against the true
//!   concatenated fleet window `u`, compared to the exact-replay optimum
//!   `OPT_B(u)` and checked against the documented gather bound
//!   (DESIGN.md §7): `√SSE ≤ √G + √(1+ε)·(√G + √OPT_B(u))` with
//!   `G = Σᵢ SSE(ĥᵢ, windowᵢ)`.
//!
//! Fleets of 1, 4 and 16 shards run with a flat gather; the 16-shard
//! fleet additionally runs a two-level `gather_fanout(4)` aggregation
//! tree, whose bound composes once per level.
//!
//! Output: a human-readable table plus `BENCH_merge.json` (written to the
//! current directory). **Exits nonzero** if any configuration's measured
//! global error exceeds its composed bound — the CI merge-smoke gate.
//!
//! Run: `cargo run --release -p streamhist-bench --bin bench_merge`
//! (set `STREAMHIST_FULL=1` for the paper-scale stream).

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::fmt::Write as _;
use std::time::Instant;
use streamhist_bench::full_scale;
use streamhist_data::utilization_trace;
use streamhist_optimal::optimal_sse;
use streamhist_stream::ShardedFixedWindow;

struct Row {
    shards: usize,
    fanout: usize, // 0 = flat gather
    points: usize,
    snapshot_secs: f64,
    merges: u64,
    sse: f64,
    gather_term: f64,
    opt: f64,
    bound_sq: f64,
}

fn run(shards: usize, fanout: usize, window: usize, b: usize, eps: f64) -> Row {
    let mut builder = ShardedFixedWindow::builder(shards, window, b, eps);
    if fanout > 0 {
        builder = builder.gather_fanout(fanout);
    }
    let fleet = builder.build().expect("valid config");

    // Fill every window twice over so the fleet is at steady state.
    let total = shards * window;
    let stream = utilization_trace(2 * total, 42 + shards as u64);
    fleet.push_batch_scatter(&stream).expect("lossless push");
    let _ = fleet.snapshot_global().expect("fleet healthy"); // warm-up build

    // Latency: invalidate with a small slab, drain it behind a per-shard
    // barrier (pushes are queued asynchronously — an undrained slab is
    // not yet absorbed, so the cached view would still be current and the
    // gather would be skipped), then time the global gather. The barrier
    // also materializes each shard's histogram, so the sample isolates
    // the merge tree.
    let iters = if full_scale() { 20 } else { 5 };
    let slab = utilization_trace(shards, 7);
    let mut secs = 0.0;
    for _ in 0..iters {
        fleet.push_batch_scatter(&slab).expect("lossless push");
        for s in 0..shards {
            let _ = fleet.snapshot(s).expect("worker alive");
        }
        let t0 = Instant::now();
        let _ = fleet.snapshot_global().expect("fleet healthy");
        secs += t0.elapsed().as_secs_f64();
    }
    let snapshot_secs = secs / iters as f64;

    // Accuracy: gather once more, then join to recover the true windows
    // (no pushes in between, so the snapshot covers exactly these).
    let (global, _) = fleet.snapshot_global().expect("fleet healthy");
    let merges = fleet.merge_metrics().merges;
    let summaries: Vec<_> = fleet
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive"))
        .collect();
    let mut u = Vec::with_capacity(total);
    let mut gather_term = 0.0f64;
    for fw in &summaries {
        let w = fw.window();
        gather_term += fw.histogram().sse(&w);
        u.extend_from_slice(&w);
    }
    assert_eq!(global.domain_len(), u.len(), "snapshot covers the fleet");

    let sse = global.sse(&u);
    let opt = optimal_sse(&u, b);
    let bound = gather_term.sqrt() + (1.0 + eps).sqrt() * (gather_term.sqrt() + opt.sqrt());
    Row {
        shards,
        fanout,
        points: u.len(),
        snapshot_secs,
        merges,
        sse,
        gather_term,
        opt,
        bound_sq: bound * bound,
    }
}

fn to_json(rows: &[Row], window: usize, b: usize, eps: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"window_per_shard\": {window}, \"b\": {b}, \"eps\": {eps}}},"
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shards\": {}, \"gather_fanout\": {}, \"points\": {}, \
             \"snapshot_secs\": {:.6}, \"merges\": {}, \"sse\": {:.6}, \
             \"gather_term\": {:.6}, \"optimal_sse\": {:.6}, \"bound\": {:.6}}}",
            r.shards,
            r.fanout,
            r.points,
            r.snapshot_secs,
            r.merges,
            r.sse,
            r.gather_term,
            r.opt,
            r.bound_sq
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let window = if full_scale() { 1_024usize } else { 256usize };
    let (b, eps) = (8usize, 0.1f64);

    println!("BENCH-MERGE: window/shard {window}, B {b}, eps {eps}\n");
    println!(
        "{:>7} {:>7} {:>8} {:>13} {:>7} {:>12} {:>12} {:>12}",
        "shards", "fanout", "points", "snapshot_s", "merges", "sse", "optimal", "bound"
    );

    let configs = [(1usize, 0usize), (4, 0), (16, 0), (16, 4)];
    let mut rows = Vec::new();
    for (shards, fanout) in configs {
        rows.push(run(shards, fanout, window, b, eps));
    }
    for r in &rows {
        println!(
            "{:>7} {:>7} {:>8} {:>13.6} {:>7} {:>12.3} {:>12.3} {:>12.3}",
            r.shards, r.fanout, r.points, r.snapshot_secs, r.merges, r.sse, r.opt, r.bound_sq
        );
        println!(
            "csv,{},{},{},{:.6},{},{:.6},{:.6},{:.6}",
            r.shards, r.fanout, r.points, r.snapshot_secs, r.merges, r.sse, r.opt, r.bound_sq
        );
    }

    let json = to_json(&rows, window, b, eps);
    std::fs::write("BENCH_merge.json", &json).expect("write BENCH_merge.json");
    println!("\nwrote BENCH_merge.json");

    // The accuracy gate: every configuration must honour the documented
    // gather bound. Tiny additive slack absorbs f64 summation order.
    for r in &rows {
        assert!(
            r.sse.sqrt() <= r.bound_sq.sqrt() + 1e-6,
            "{} shards (fanout {}): global SSE {:.6} exceeds the \
             documented gather bound {:.6} (G {:.6}, OPT {:.6})",
            r.shards,
            r.fanout,
            r.sse,
            r.bound_sq,
            r.gather_term,
            r.opt
        );
    }
    println!("all configurations within the documented gather bound");
}
