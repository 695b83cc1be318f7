//! BENCH-RECOVERY — mean-time-to-recovery of the self-healing fleet.
//!
//! Stands a supervised, durable, sharded fleet up, then repeatedly kills
//! one worker and measures **MTTR**: the wall-clock time from the injected
//! panic to the moment the same shard serves a snapshot again, with the
//! supervisor doing every part of the recovery on its own (probe → detect
//! → store-backed respawn → serve). Ingest keeps running between kills so
//! recovery is measured against a moving fleet, not a museum piece.
//!
//! Gates — the run **exits nonzero** if:
//!
//! * any single kill's MTTR exceeds [`MTTR_GATE`] (2s — generous against
//!   a 2ms probe interval precisely so only an order-of-magnitude
//!   regression, like a stuck probe thread or a respawn deadlock, trips
//!   it on a noisy CI machine);
//! * conservation is violated: accepted records fleet-wide must equal the
//!   surviving summaries' totals plus every record the supervisor
//!   reported lost — a self-healing fleet that silently loses more than
//!   it admits is worse than one that stays down.
//!
//! Output: a human-readable summary plus `BENCH_recovery.json` (current
//! directory) with per-kill MTTR percentiles and the loss ledger — the
//! CI recovery-smoke artifact.
//!
//! Run: `cargo run --release -p streamhist-bench --bin bench_recovery`
//! (set `STREAMHIST_FULL=1` for more kill rounds).

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_bench::full_scale;
use streamhist_core::MemStore;
use streamhist_data::utilization_trace;
use streamhist_stream::{
    DurabilityOptions, FleetHandle, ShardedFixedWindow, Supervisor, SupervisorOptions,
};

/// Per-kill MTTR ceiling. See the module docs for why it is this loose.
const MTTR_GATE: Duration = Duration::from_secs(2);

fn percentile(sorted: &[u64], phi: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * phi).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let shards = 4;
    let window = 1024;
    let b = 8;
    let eps = 0.1;
    let kills: usize = if full_scale() { 32 } else { 16 };

    // A durable fleet (MemStore keeps the bench hermetic; the recovery
    // path through it is byte-identical to DirStore's) under a fast-probe
    // supervisor. flap_window is zero because this harness kills shards
    // on purpose: rapid deaths are the workload, not flapping.
    let store = Arc::new(MemStore::new());
    let fleet = ShardedFixedWindow::builder(shards, window, b, eps)
        .checkpoint_interval(256)
        .durability(DurabilityOptions::new(Arc::clone(&store) as _).wal_sync(64))
        .build()
        .expect("valid durable fleet");
    let handle = FleetHandle::new(fleet);
    let trace = utilization_trace(2 * shards * window, 42);
    handle.push_batch_scatter(&trace).expect("fleet healthy");
    let options = SupervisorOptions {
        probe_interval: Duration::from_millis(2),
        ping_timeout: Duration::from_millis(100),
        restart_burst: 4,
        restart_refill: Duration::ZERO,
        quarantine_after: 1_000_000,
        quarantine_backoff: Duration::ZERO,
        flap_window: Duration::ZERO,
    };
    let sup = Supervisor::start(handle.clone(), options).expect("valid supervisor options");

    // Kill rounds: panic one worker, stamp the clock, poll the same shard
    // until it serves a snapshot again. Between rounds, keep ingesting so
    // every recovery happens against live traffic.
    let mut mttr_ns: Vec<u64> = Vec::with_capacity(kills);
    let slab: Vec<f64> = trace.iter().copied().take(512).collect();
    for round in 0..kills {
        let shard = round % shards;
        handle
            .push_batch_scatter(&slab)
            .expect("fleet healthy before the kill");
        let killed_at = Instant::now();
        handle
            .inject_worker_panic(shard)
            .expect("valid index")
            .expect("worker alive before the kill");
        loop {
            if let Ok(Ok(_)) = handle.snapshot_shard(shard) {
                break;
            }
            if killed_at.elapsed() > 2 * MTTR_GATE {
                eprintln!(
                    "GATE FAIL: shard {shard} not serving {:?} after the kill",
                    2 * MTTR_GATE
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        mttr_ns.push(u64::try_from(killed_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    // Quiesce, freeze the supervisor ledger, and check conservation.
    for shard in 0..shards {
        handle
            .snapshot_shard(shard)
            .expect("valid index")
            .expect("fleet healthy at the end");
    }
    let sm = sup.metrics();
    sup.shutdown();
    let metrics = handle.metrics_all();
    let accepted: u64 = metrics.iter().map(|m| m.pushes_accepted).sum();
    let summaries = match handle.try_join() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("GATE FAIL: a fleet handle leaked; cannot audit the summaries");
            std::process::exit(1);
        }
    };
    let surviving: u64 = summaries
        .into_iter()
        .map(|r| r.expect("worker alive at join").total_pushed())
        .sum();

    mttr_ns.sort_unstable();
    let p50 = percentile(&mttr_ns, 0.50);
    let p99 = percentile(&mttr_ns, 0.99);
    let max = mttr_ns.last().copied().unwrap_or(0);
    println!(
        "recovery: {kills} kills across {shards} shards, MTTR p50 {:.2}ms p99 {:.2}ms max {:.2}ms",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        max as f64 / 1e6
    );
    println!(
        "ledger: {} deaths observed, {} restarts, {} records lost; accepted {accepted} = \
         surviving {surviving} + lost {}",
        sm.deaths, sm.restarts, sm.records_lost, sm.records_lost
    );

    // --- JSON artifact. ---
    let gate_ns = u64::try_from(MTTR_GATE.as_nanos()).expect("fits");
    let conserved = accepted == surviving + sm.records_lost;
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"shards\": {shards}, \"window_per_shard\": {window}, \"b\": {b}, \
         \"eps\": {eps}, \"kills\": {kills}, \"probe_interval_ms\": 2, \
         \"mttr_gate_ns\": {gate_ns}}},"
    );
    let _ = writeln!(json, "  \"mttr_p50_ns\": {p50},");
    let _ = writeln!(json, "  \"mttr_p99_ns\": {p99},");
    let _ = writeln!(json, "  \"mttr_max_ns\": {max},");
    let _ = writeln!(json, "  \"deaths\": {},", sm.deaths);
    let _ = writeln!(json, "  \"restarts\": {},", sm.restarts);
    let _ = writeln!(json, "  \"records_lost\": {},", sm.records_lost);
    let _ = writeln!(json, "  \"accepted\": {accepted},");
    let _ = writeln!(json, "  \"surviving\": {surviving},");
    let _ = writeln!(json, "  \"conservation_ok\": {conserved}");
    json.push_str("}\n");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");

    // --- Gates. ---
    let mut failed = false;
    if max > gate_ns {
        eprintln!(
            "GATE FAIL: max MTTR {:.2}ms exceeds the {:.0}ms gate",
            max as f64 / 1e6,
            gate_ns as f64 / 1e6
        );
        failed = true;
    }
    if !conserved {
        eprintln!(
            "GATE FAIL: conservation violated: accepted {accepted} != surviving {surviving} \
             + lost {}",
            sm.records_lost
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gates passed: every MTTR under the gate, every record accounted for");
}
