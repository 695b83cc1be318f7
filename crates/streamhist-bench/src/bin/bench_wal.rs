//! BENCH-WAL — checkpoint amplification of the durability pipeline.
//!
//! Streams a utilization trace into a durable sharded fleet (per-shard
//! WAL + periodic full frames behind a [`DirStore`]), quiesces, and
//! reports **checkpoint amplification**: bytes written to the store per
//! byte ingested (8 bytes per accepted `f64`). The run then proves the
//! store is actually good for something by rebuilding a second fleet from
//! it and accounting for every record: recovered + unsynced tail ==
//! ingested.
//!
//! **Gates** (exit nonzero on violation):
//!
//! 1. amplification ≤ [`AMPLIFICATION_GATE`] (2.0) at
//!    `checkpoint_interval = 1024` — writing the log must stay cheaper
//!    than writing the data twice;
//! 2. zero dropped segments and zero upload failures
//!    ([`OverloadPolicy::Block`](streamhist_stream::OverloadPolicy) plus a
//!    healthy local store must be lossless);
//! 3. exact recovery accounting — every ingested record is either in the
//!    rebuilt fleet or part of a shard's sub-`wal_sync` unsynced tail.
//!
//! Output: a human-readable summary plus `BENCH_wal.json` (current
//! directory), the CI durability artifact.
//!
//! Run: `cargo run --release -p streamhist-bench --bin bench_wal`
//! (set `STREAMHIST_FULL=1` for a 4x longer trace).

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use streamhist_bench::full_scale;
use streamhist_core::DirStore;
use streamhist_data::utilization_trace;
use streamhist_stream::{DurabilityOptions, ShardedFixedWindow};

/// Ceiling on bytes-written / bytes-ingested. The envelope math for the
/// configuration below lands near 1.8: one WAL segment per 64 records
/// (512 payload bytes + ~20 envelope bytes) plus one ~6 KiB frame per
/// 1024 records per shard.
const AMPLIFICATION_GATE: f64 = 2.0;

fn main() {
    let shards = 4;
    let capacity = 256;
    let b = 8;
    let eps = 0.1;
    let wal_sync = 64;
    let checkpoint_interval = 1024;
    let records: usize = if full_scale() { 262_144 } else { 65_536 };

    let store_dir = std::path::Path::new("target").join("bench-wal-store");
    if store_dir.exists() {
        std::fs::remove_dir_all(&store_dir).expect("clear previous store");
    }
    let store = Arc::new(DirStore::open(&store_dir).expect("open checkpoint store"));

    let fleet = ShardedFixedWindow::builder(shards, capacity, b, eps)
        .checkpoint_interval(checkpoint_interval)
        .durability(DurabilityOptions::new(Arc::clone(&store) as _).wal_sync(wal_sync))
        .build()
        .expect("valid durable fleet");

    // --- Ingest, then quiesce: drain every queue, land every upload. ---
    let trace = utilization_trace(records, 42);
    let start = Instant::now();
    for slab in trace.chunks(4096) {
        fleet.push_batch_scatter(slab).expect("lossless ingest");
    }
    for shard in 0..shards {
        fleet.snapshot(shard).expect("worker alive");
    }
    fleet.flush_wal();
    let ingest_secs = start.elapsed().as_secs_f64();

    let status = fleet.wal_status();
    assert!(status.enabled, "durable fleet reports an enabled WAL");
    let accepted: u64 = fleet.metrics_all().iter().map(|m| m.pushes_accepted).sum();
    assert_eq!(accepted as usize, records, "trace is all-finite");

    // --- Rebuild a second fleet from the store; account for everything. ---
    let mut rebuilt = ShardedFixedWindow::builder(shards, capacity, b, eps)
        .build()
        .expect("valid fleet");
    rebuilt
        .load_from_store(store.as_ref())
        .expect("store rebuilds the fleet");
    let recovered: u64 = rebuilt
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive").total_pushed())
        .sum();
    let tail = accepted - recovered;
    for r in fleet.join() {
        r.expect("worker alive at join");
    }

    // --- Report. ---
    println!("BENCH-WAL  ({records} records, {shards} shards, capacity {capacity})");
    println!("  wal_sync {wal_sync}, checkpoint_interval {checkpoint_interval}");
    println!(
        "  ingested {} B, written {} B ({} segments / {} B, {} frames / {} B)",
        status.bytes_ingested,
        status.bytes_written,
        status.segments_written,
        status.segment_bytes,
        status.frames_written,
        status.frame_bytes
    );
    println!(
        "  amplification {:.3} (gate {AMPLIFICATION_GATE}), ingest {:.3}s",
        status.amplification, ingest_secs
    );
    println!(
        "  retries {}, failures {}, dropped {}; recovered {recovered} of {accepted} \
         (unsynced tail {tail})",
        status.retries, status.failures, status.segments_dropped
    );

    // --- JSON artifact. ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"shards\": {shards}, \"capacity\": {capacity}, \"b\": {b}, \
         \"eps\": {eps}, \"wal_sync\": {wal_sync}, \
         \"checkpoint_interval\": {checkpoint_interval}, \"records\": {records}, \
         \"amplification_gate\": {AMPLIFICATION_GATE}}},"
    );
    let _ = writeln!(json, "  \"bytes_ingested\": {},", status.bytes_ingested);
    let _ = writeln!(json, "  \"bytes_written\": {},", status.bytes_written);
    let _ = writeln!(json, "  \"segments_written\": {},", status.segments_written);
    let _ = writeln!(json, "  \"segment_bytes\": {},", status.segment_bytes);
    let _ = writeln!(json, "  \"frames_written\": {},", status.frames_written);
    let _ = writeln!(json, "  \"frame_bytes\": {},", status.frame_bytes);
    let _ = writeln!(json, "  \"amplification\": {:.4},", status.amplification);
    let _ = writeln!(json, "  \"retries\": {},", status.retries);
    let _ = writeln!(json, "  \"failures\": {},", status.failures);
    let _ = writeln!(json, "  \"segments_dropped\": {},", status.segments_dropped);
    let _ = writeln!(json, "  \"recovered_records\": {recovered},");
    let _ = writeln!(json, "  \"unsynced_tail\": {tail},");
    let _ = writeln!(json, "  \"ingest_secs\": {ingest_secs:.3}");
    json.push_str("}\n");
    std::fs::write("BENCH_wal.json", &json).expect("write BENCH_wal.json");
    println!("wrote BENCH_wal.json");

    // --- Gates. ---
    let mut failed = false;
    if status.amplification > AMPLIFICATION_GATE {
        eprintln!(
            "GATE FAIL: amplification {:.3} exceeds {AMPLIFICATION_GATE}",
            status.amplification
        );
        failed = true;
    }
    if status.segments_dropped > 0 || status.failures > 0 {
        eprintln!(
            "GATE FAIL: {} dropped segments, {} upload failures on a lossless config",
            status.segments_dropped, status.failures
        );
        failed = true;
    }
    if tail >= (shards * wal_sync) as u64 {
        eprintln!(
            "GATE FAIL: unsynced tail {tail} >= {} — records unaccounted for",
            shards * wal_sync
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gates passed: amplification under {AMPLIFICATION_GATE}, lossless, exact accounting");
}
