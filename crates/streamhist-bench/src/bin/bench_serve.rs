//! BENCH-SERVE — loopback load test of the framed TCP query front-end.
//!
//! Stands up a [`QueryServer`] over a live sharded fleet, then:
//!
//! 1. **Correctness gate** — for a sweep of index-domain queries, the
//!    answer read over the wire must be *bit-identical* to evaluating the
//!    same [`Query`] against the in-process
//!    `snapshot_global()` histogram. The wire is transport, not math.
//! 2. **Load** — `threads` client connections (≥ 4) each issue a paced
//!    stream of requests (target `qps` per thread) cycling through the
//!    scalar verbs; client-observed latency is recorded per verb.
//! 3. **Gates** — the run **exits nonzero** if any request came back as
//!    an error frame (the workload is all-valid by construction, so a
//!    single error frame is a server bug), or if any verb's client-side
//!    p99 exceeds [`P99_GATE_NS`]. The gate is deliberately generous —
//!    50 ms for a loopback round trip that typically takes tens of
//!    microseconds — because CI machines are noisy neighbors; it exists
//!    to catch order-of-magnitude regressions (a blocking accept loop, a
//!    lost wakeup, an O(n) frame parse), not microsecond drift.
//! 4. **Slow-query cross-check** — the server runs with its slow-query
//!    threshold set to the same 50 ms as the p99 gate, and after the load
//!    phase the bench drains the flight recorder over the `events` admin
//!    verb and counts [`SlowQuery`](streamhist_obs::EventKind::SlowQuery)
//!    events per verb. The two instruments watch the same requests from
//!    opposite ends of the socket, so they must agree about a regression:
//!    a verb whose client p99 breaches the gate should have put ≥ 1% of
//!    its requests in the server's slow-query log, and vice versa. A
//!    one-sided verdict means one instrument is lying (client-side clock
//!    bug, server-side phase timer bug, recorder losing events) and the
//!    run exits nonzero even when the p99 gate alone would pass.
//!
//! Output: a human-readable table plus `BENCH_serve.json` (current
//! directory) with per-verb count/p50/p99/max and the error-frame count —
//! the CI serve-smoke artifact.
//!
//! Run: `cargo run --release -p streamhist-bench --bin bench_serve`
//! (set `STREAMHIST_FULL=1` for more threads and a longer run).

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_bench::full_scale;
use streamhist_core::Query;
use streamhist_data::utilization_trace;
use streamhist_obs::{EventKind, MetricsRegistry};
use streamhist_serve::{
    QuantileMethod, QueryServer, Request, RetryBudget, ServeClient, ServeState, ServerOptions,
};
use streamhist_stream::{FleetHandle, ShardedFixedWindow};

/// Per-verb client-observed p99 ceiling, in nanoseconds (50 ms). See the
/// module docs for why it is this loose.
const P99_GATE_NS: u64 = 50_000_000;

/// Server-side slow-query threshold — deliberately the same 50 ms as the
/// client-side p99 gate so the two instruments form a cross-check: if a
/// verb's client p99 breaches the gate, at least 1% of its requests took
/// ≥ 50 ms end to end, and the server must have logged them as slow.
const SLOW_QUERY_GATE: Duration = Duration::from_nanos(P99_GATE_NS);

struct VerbStats {
    verb: &'static str,
    count: usize,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    /// Server-side `SlowQuery` events attributed to this verb, drained
    /// from the flight recorder over the `events` admin verb.
    slow_count: u64,
}

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
    let threads: usize = if full_scale() { 8 } else { 4 };
    let per_thread_requests: usize = if full_scale() { 4000 } else { 1200 };
    let qps_per_thread: f64 = 2000.0;

    // --- Stand the server up over a warmed fleet. ---
    let fleet = FleetHandle::new(ShardedFixedWindow::new(shards, window, b, eps));
    let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
    let trace = utilization_trace(2 * shards * window, 42);
    state.ingest_scatter(&trace).expect("lossless ingest");
    let (hist, _) = state
        .fleet()
        .snapshot_global()
        .expect("fleet healthy after ingest");
    let domain = hist.domain_len();
    assert!(domain >= 16, "warmed fleet must have a populated window");
    // Explicit options on the loopback bench: a generous per-connection
    // IO deadline so a noisy CI machine can't time out a paced client.
    let options = ServerOptions {
        io_timeout: Duration::from_secs(2),
        slow_query: SLOW_QUERY_GATE,
    };
    let io_timeout_ms = options.io_timeout.as_millis();
    let server = QueryServer::start_with("127.0.0.1:0", state.clone(), threads, options)
        .expect("bind loopback");
    let addr = server.local_addr();

    // --- 1. Bit-identity: wire answers == in-process answers. ---
    let mut probe = ServeClient::connect(addr).expect("connect");
    let mut checked = 0usize;
    for i in 0..32usize {
        let start = (i * 13) % (domain / 2);
        let end = start + (domain / 2 - 1).max(1);
        let cases = [
            Query::RangeSum { start, end },
            Query::RangeAvg { start, end },
            Query::Point {
                idx: (i * 29) % domain,
            },
            Query::RangeCount { start, end },
        ];
        for q in cases {
            let direct = q.try_estimate(&*hist).expect("valid probe query");
            let wire = match q {
                Query::RangeSum { start, end } => probe.range_sum(start, end),
                Query::RangeAvg { start, end } => probe.range_avg(start, end),
                Query::Point { idx } => probe.point(idx),
                Query::RangeCount { start, end } => probe.range_count(start, end),
            }
            .expect("valid probe query over the wire");
            assert_eq!(
                wire.to_bits(),
                direct.to_bits(),
                "wire answer for {q:?} diverged from snapshot_global()"
            );
            checked += 1;
        }
    }
    println!("bit-identity: {checked} wire answers match snapshot_global() exactly");
    // Connections pin pool workers for their lifetime; release the
    // probe's worker before the load phase so `threads` clients fit the
    // `threads`-worker pool exactly.
    drop(probe);

    // --- 2. Load: threads × paced request streams. ---
    let error_frames = Arc::new(AtomicU64::new(0));
    let retries_total = Arc::new(AtomicU64::new(0));
    let verbs = [
        "range_sum",
        "range_avg",
        "point",
        "range_count",
        "quantile_gk",
        "selectivity",
    ];
    let pace = Duration::from_secs_f64(1.0 / qps_per_thread);
    let wall = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let errors = Arc::clone(&error_frames);
            let retries = Arc::clone(&retries_total);
            std::thread::spawn(move || {
                // Each client retries transport failures and Overloaded
                // sheds within a bounded budget; the retry count is a
                // reported bench output (expected 0 on loopback).
                let mut client = ServeClient::connect(addr)
                    .expect("connect")
                    .with_retry_budget(RetryBudget {
                        deadline: Duration::from_secs(1),
                        backoff_start: Duration::from_millis(2),
                        seed: t as u64,
                    });
                // One latency vector per verb, ns.
                let mut lat: Vec<Vec<u64>> = vec![Vec::new(); 6];
                let started = Instant::now();
                for i in 0..per_thread_requests {
                    let hi = 1 + (i * 7 + t * 13) % (domain - 1);
                    let lo = (i * 3) % hi;
                    let req = match i % 6 {
                        0 => Request::RangeSum { start: lo, end: hi },
                        1 => Request::RangeAvg { start: lo, end: hi },
                        2 => Request::Point { idx: hi },
                        3 => Request::RangeCount { start: lo, end: hi },
                        4 => Request::Quantile {
                            method: QuantileMethod::Gk,
                            phi: (i % 100) as f64 / 100.0,
                        },
                        _ => Request::Selectivity {
                            lo: 0.0,
                            hi: 1.0 + (i % 50) as f64,
                        },
                    };
                    let t0 = Instant::now();
                    let outcome = client.call(&req);
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    if outcome.is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    lat[i % 6].push(ns);
                    // Pace to the target per-thread QPS.
                    let deadline = pace * (i as u32 + 1);
                    let elapsed = started.elapsed();
                    if elapsed < deadline {
                        std::thread::sleep(deadline - elapsed);
                    }
                }
                retries.fetch_add(client.retries(), Ordering::Relaxed);
                lat
            })
        })
        .collect();
    let mut merged: Vec<Vec<u64>> = vec![Vec::new(); 6];
    for h in handles {
        let lat = h.join().expect("load thread");
        for (m, v) in merged.iter_mut().zip(lat) {
            m.extend(v);
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let errors = error_frames.load(Ordering::Relaxed);
    let retries = retries_total.load(Ordering::Relaxed);
    let total: usize = merged.iter().map(Vec::len).sum();

    // --- Drain the server's flight recorder and bucket SlowQuery events
    // by verb. The recorder names verbs with `Request::verb_name()`
    // ("quantile", not the bench's "quantile_gk" display label), so map
    // explicitly. A verb outside the workload (e.g. the drain's own
    // `events` calls going slow) counts against no bucket but is still
    // reported in the total.
    let mut drain = ServeClient::connect(addr).expect("connect for events drain");
    let (recorded, events) = drain
        .events_all(0)
        .expect("drain the flight recorder over the wire");
    drop(drain);
    let mut slow_counts = [0u64; 6];
    let mut slow_total = 0u64;
    for event in &events {
        if let EventKind::SlowQuery { verb, .. } = &event.kind {
            slow_total += 1;
            let slot = match verb.as_str() {
                "range_sum" => Some(0),
                "range_avg" => Some(1),
                "point" => Some(2),
                "range_count" => Some(3),
                "quantile" => Some(4),
                "selectivity" => Some(5),
                _ => None,
            };
            if let Some(s) = slot {
                slow_counts[s] += 1;
            }
        }
    }

    let stats: Vec<VerbStats> = verbs
        .iter()
        .zip(merged.iter_mut())
        .zip(slow_counts)
        .map(|((verb, lat), slow_count)| {
            lat.sort_unstable();
            VerbStats {
                verb,
                count: lat.len(),
                p50_ns: percentile(lat, 0.50),
                p99_ns: percentile(lat, 0.99),
                max_ns: lat.last().copied().unwrap_or(0),
                slow_count,
            }
        })
        .collect();

    println!(
        "load: {threads} threads x {per_thread_requests} reqs (pace {qps_per_thread} qps/thread) \
         = {total} total in {wall_secs:.2}s ({:.0} qps aggregate), {errors} error frames, \
         {retries} retries",
        total as f64 / wall_secs
    );
    println!(
        "slow-query log: {slow_total} events over the {:.0}ms threshold \
         ({recorded} recorder events total, {} retained)",
        SLOW_QUERY_GATE.as_secs_f64() * 1e3,
        events.len()
    );
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12} {:>6}",
        "verb", "count", "p50_us", "p99_us", "max_us", "slow"
    );
    for s in &stats {
        println!(
            "{:<12} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>6}",
            s.verb,
            s.count,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
            s.max_ns as f64 / 1e3,
            s.slow_count
        );
    }

    // --- JSON artifact. ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"shards\": {shards}, \"window_per_shard\": {window}, \"b\": {b}, \
         \"eps\": {eps}, \"threads\": {threads}, \"requests_per_thread\": {per_thread_requests}, \
         \"qps_per_thread\": {qps_per_thread}, \"io_timeout_ms\": {io_timeout_ms}, \
         \"p99_gate_ns\": {P99_GATE_NS}, \"slow_query_gate_ns\": {}}},",
        SLOW_QUERY_GATE.as_nanos()
    );
    let _ = writeln!(json, "  \"bit_identity_checks\": {checked},");
    let _ = writeln!(json, "  \"error_frames\": {errors},");
    let _ = writeln!(json, "  \"slow_queries\": {slow_total},");
    let _ = writeln!(json, "  \"recorder_events\": {recorded},");
    let _ = writeln!(json, "  \"retries\": {retries},");
    let _ = writeln!(json, "  \"wall_secs\": {wall_secs:.3},");
    json.push_str("  \"verbs\": [\n");
    for (i, s) in stats.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"verb\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"max_ns\": {}, \"slow_queries\": {}}}",
            s.verb, s.count, s.p50_ns, s.p99_ns, s.max_ns, s.slow_count
        );
        json.push_str(if i + 1 == stats.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    server.shutdown();

    // --- 3. Gates. ---
    let mut failed = false;
    if errors > 0 {
        eprintln!("GATE FAIL: {errors} error frames on an all-valid workload");
        failed = true;
    }
    for s in &stats {
        if s.p99_ns > P99_GATE_NS {
            eprintln!(
                "GATE FAIL: {} p99 {:.1}us exceeds the {:.1}us gate",
                s.verb,
                s.p99_ns as f64 / 1e3,
                P99_GATE_NS as f64 / 1e3
            );
            failed = true;
        }
        // Cross-check: the client-side p99 gate and the server-side
        // slow-query log watch the same requests with the same 50 ms
        // threshold, so their regression verdicts must match. "Regressed"
        // per the slow log means ≥ 1% of the verb's requests were logged
        // slow — the server-side restatement of "p99 over the threshold".
        let p99_regressed = s.p99_ns > P99_GATE_NS;
        let slow_regressed = s.slow_count.saturating_mul(100) >= s.count as u64;
        if p99_regressed != slow_regressed {
            eprintln!(
                "GATE FAIL: {} regression verdicts disagree — client p99 {:.1}us \
                 ({} the gate) vs {} server-side slow queries of {} requests",
                s.verb,
                s.p99_ns as f64 / 1e3,
                if p99_regressed { "over" } else { "under" },
                s.slow_count,
                s.count
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates passed: zero error frames, every verb p99 under the gate, \
         slow-query log agrees"
    );
}
