//! `cached_query`: wire queries that all hit the snapshot cache.
//!
//! A 2-shard fleet behind [`ServeState`](streamhist_serve::ServeState) and
//! a 1-worker server. All ingest happens in set-up, so the fleet-global
//! snapshot never changes and every query is answered from the generation
//! cache. One connection sends range-sums in a closed loop. This isolates
//! the frame codec, server IO and `Histogram` answering that
//! `live_query`'s millisecond builds would drown, and is the "no change"
//! control for kernel and gather work.
//!
//! The traced phase keeps the wire query and splits it into client
//! encode (`Request::encode`), round trip (`ServeClient::call_raw_frame`:
//! socket write, server, socket read, response decode) and the server's
//! own phase timers (`ServeState::phase_latency`); the transport share is
//! the round trip minus the server phases.

use super::{
    accuracy_gate, bit_identity_gate, finish_trace, kernel_counts, median_setup_s,
    range_sum_request, timed, FleetAccuracy, ServeStack, WARMUP,
};
use crate::input;
use crate::stats::{self, median_of, Timeline};
use crate::trace::SpanLog;
use crate::{Outcome, RunConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_core::Query;
use streamhist_data::WorkloadGen;
use streamhist_serve::Response;

/// Records ingested during set-up (through the serve state, so the
/// value-domain sketches see them too).
pub const HISTORY: usize = 1 << 16;
/// Every this many queries, the wire answer is kept for the bit-identity
/// gate.
const SAMPLE_EVERY: u64 = 64;
/// Most wire answers kept for the bit-identity gate.
const MAX_SAMPLES: usize = 1024;
/// Seed offset of the query stream (the data stream uses the bare seed).
const QUERY_SEED: u64 = 0x5eed_0001;

struct Phase {
    setup_s: f64,
    /// Per-query latency, ms.
    lat_ms: Timeline,
    peak_rss_mb: f64,
    log: SpanLog,
    /// Server phase medians over the measured phase, ns:
    /// decode, answer, encode.
    server_ns: [f64; 3],
}

fn phase(pool: &[f64], cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Phase {
    let (mut stack, first_setup) = timed(|| ServeStack::start(pool));
    let (snapshot, _) = stack
        .state
        .fleet()
        .snapshot_global()
        .expect("fleet healthy after set-up");
    let mut queries = WorkloadGen::new(cfg.seed ^ QUERY_SEED, snapshot.domain_len());

    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        if stack
            .client
            .call(&range_sum_request(queries.range_sum()))
            .is_err()
        {
            out.failed += 1;
        }
    }
    for p in ["decode", "answer", "encode"] {
        stack.state.phase_latency(p).reset();
    }
    let merges_before = stack.state.fleet().merge_metrics();

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, traced);
    let run_for = Duration::from_secs_f64(cfg.phase_seconds());
    let mut lat_ms = Timeline::new(epoch, run_for);
    let mut samples: Vec<(Query, f64)> = Vec::with_capacity(MAX_SAMPLES);
    let mut req = 0u64;
    let mut t0 = epoch;
    while t0.duration_since(epoch) < run_for {
        req += 1;
        let q = queries.range_sum();
        let r = range_sum_request(q);
        let reply = if traced {
            let root = log.begin("request", req, None);
            let frame = log.time("serve.client_encode", req, Some(root), || r.encode());
            let reply = log.time("serve.roundtrip", req, Some(root), || {
                stack.client.call_raw_frame(&frame)
            });
            log.end(root);
            reply
        } else {
            stack.client.call(&r)
        };
        let t1 = Instant::now();
        lat_ms.record(t1, stats::ms(t1 - t0));
        match reply {
            Ok(Response::Scalar { value, .. }) => {
                if req.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
                    samples.push((q, value));
                }
            }
            _ => out.failed += 1,
        }
        if traced {
            // The query layer alone, in process, on the same snapshot —
            // outside the request's chain.
            log.time("query.estimate", req, None, || {
                q.try_estimate(&*snapshot).ok()
            });
        }
        t0 = Instant::now();
    }
    let peak_rss_mb = stats::peak_rss_mb();
    out.attempted += req;
    let server_ns =
        ["decode", "answer", "encode"].map(|p| stack.state.phase_latency(p).quantile_ns(0.5));

    let fleet = stack.state.fleet();
    let merges_after = fleet.merge_metrics();
    let (now, _) = fleet.snapshot_global().expect("fleet healthy");
    let hits = merges_after.cache_hits - merges_before.cache_hits;
    let gathers = merges_after.merges - merges_before.merges;
    out.set(
        "sharded.cache_hit_ratio",
        hits as f64 / (hits + gathers).max(1) as f64,
    );
    bit_identity_gate(out, "cached_query", &snapshot, &samples);
    out.gate(
        "cached_query: the served snapshot never changed",
        Arc::ptr_eq(&now, &snapshot),
        format!("{gathers} gathers, {hits} cache hits during the measured phase"),
    );
    kernel_counts(out, &stack);
    let shards = stack.shutdown();
    accuracy_gate(
        out,
        "cached_query",
        &FleetAccuracy::measure(&snapshot, &shards),
    );
    Phase {
        setup_s: median_setup_s(
            first_setup,
            || ServeStack::start(pool),
            |s| {
                drop(s.shutdown());
            },
        ),
        lat_ms,
        peak_rss_mb,
        log,
        server_ns,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let pool = input::pool(cfg.seed, HISTORY);
    let mut out = Outcome::default();
    out.set("loadgen.zero_share", input::zero_share(&pool));
    let plain = phase(&pool, cfg, false, &mut out);
    let p50 = plain.lat_ms.quantile(0.5);
    out.set("setup_s", plain.setup_s);
    out.set("throughput_per_s", plain.lat_ms.rate_per_s());
    out.set("latency_p50_ms", p50);
    out.set("loadgen.latency_p99_ms", plain.lat_ms.quantile(0.99));
    out.set("process.peak_rss_mb", plain.peak_rss_mb);
    if !cfg.trace {
        return out;
    }

    let traced = phase(&pool, cfg, true, &mut out);
    let durs = traced.log.dur_ns_by_name();
    let selfs = traced.log.self_ns_by_name();
    let [decode, answer, encode] = traced.server_ns;
    let roundtrip = median_of(&durs, "serve.roundtrip");
    out.set("serve.decode_us_p50", decode / 1e3);
    out.set("serve.answer_us_p50", answer / 1e3);
    out.set("serve.encode_us_p50", encode / 1e3);
    out.set(
        "serve.transport_us_p50",
        (roundtrip - decode - answer - encode) / 1e3,
    );
    out.set("query.estimate_ns_p50", median_of(&durs, "query.estimate"));
    let chain_ms = ["request", "serve.client_encode", "serve.roundtrip"]
        .iter()
        .map(|k| median_of(&selfs, k))
        .sum::<f64>()
        / 1e6;
    let traced_p50 = traced.lat_ms.quantile(0.5);
    finish_trace(&mut out, &traced.log, p50, traced_p50, chain_ms, cfg);
    out
}
