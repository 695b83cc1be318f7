//! `live_query`: wire queries beside live ingest — the snapshot-cache
//! miss path.
//!
//! A 2-shard fleet behind [`ServeState`](streamhist_serve::ServeState)
//! and a 1-worker server with one client connection, run open loop: a
//! producer thread `ingest_scatter`s [`BATCH`]-record batches at
//! [`BATCH_RATE`] per second and the main thread sends range-sums at
//! [`QUERY_RATE`] per second, both on fixed schedules and for fixed counts
//! (rate × seconds). A batch is due between any two queries, so each query
//! misses the snapshot cache: per-shard barrier and build, merge, answer,
//! frame. Latency is timed from when the query was due.
//!
//! The traced phase replaces the wire query with its public steps, in the
//! order the server runs them: `FleetHandle::snapshot_shard` for each
//! shard (the gather), `merge_histograms`, `Query::try_estimate`, then
//! request and response frame encode and decode. The ingest side is the
//! same in both phases.

use super::{
    accuracy_gate, bit_identity_gate, finish_trace, kernel_counts, median_setup_s,
    range_sum_request, timed, FleetAccuracy, ServeStack, SHARDS, SHARD_WINDOW, WARMUP,
};
use crate::input::{self, Cycle};
use crate::stats::{self, median_of, Timeline};
use crate::trace::SpanLog;
use crate::{Outcome, RunConfig, B, EPS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamhist_core::{Histogram, Query};
use streamhist_data::WorkloadGen;
use streamhist_serve::{Request, Response};
use streamhist_stream::{merge_histograms, Coverage};

/// Records ingested during set-up (pre-fills every shard window).
pub const HISTORY: usize = 1 << 14;
/// Input pool the producer cycles through after the history.
const POOL: usize = 1 << 16;
/// Queries per second.
pub const QUERY_RATE: f64 = 50.0;
/// Records per ingest batch.
pub const BATCH: usize = 512;
/// Ingest batches per second (32,768 records/s).
pub const BATCH_RATE: f64 = 64.0;
/// Wire probes compared against the in-process snapshot after quiescing.
const PROBES: usize = 32;
/// Least share of measured queries that must miss the snapshot cache for
/// the run to exercise the miss path it is meant to.
const MIN_MISS_SHARE: f64 = 0.95;
/// Seed offset of the query stream.
const QUERY_SEED: u64 = 0x5eed_0002;

/// What one open-loop drive measured.
struct Drive {
    /// Query latency from its due time, ms.
    lat_ms: Timeline,
    /// How late each query and batch was sent, ms.
    lag_ms: Vec<f64>,
    queries: u64,
    batches: u64,
    /// Queries completed per second, from the first query's due time to
    /// the last query's completion.
    rate_per_s: f64,
    /// Buckets fed into each traced merge.
    buckets_in: Vec<f64>,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One wire query, or — with `log` on — its public steps. Returns the
/// answer and, traced, the number of buckets merged.
fn query_once(
    stack: &mut ServeStack,
    q: Query,
    log: &mut SpanLog,
    req: u64,
) -> (Option<f64>, usize) {
    let r = range_sum_request(q);
    if !log.on() {
        return match stack.client.call(&r) {
            Ok(Response::Scalar { value, .. }) => (Some(value), 0),
            _ => (None, 0),
        };
    }
    let fleet = stack.state.fleet();
    let root = log.begin("request", req, None);
    let gather = log.begin("sharded.gather", req, Some(root));
    let mut parts = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let snap = log.time("sharded.snapshot_shard", req, Some(gather), || {
            fleet.snapshot_shard(s)
        });
        if let Ok(Ok((h, _))) = snap {
            parts.push(h);
        }
    }
    log.end(gather);
    if parts.len() < SHARDS {
        log.end(root);
        return (None, 0);
    }
    let refs: Vec<&Histogram> = parts.iter().map(AsRef::as_ref).collect();
    let buckets_in = refs.iter().map(|h| h.num_buckets()).sum();
    let merged = log.time("merge", req, Some(root), || merge_histograms(&refs, B, EPS));
    let value = merged.ok().and_then(|(h, _)| {
        log.time("query.estimate", req, Some(root), || {
            q.try_estimate(&h).ok()
        })
    });
    let answer = value.and_then(|value| {
        log.time("serve.codec", req, Some(root), || {
            let request = Request::decode(&r.encode()).ok()?;
            let records = parts.iter().map(|h| h.domain_len() as u64).sum();
            let reply = Response::Scalar {
                verb: request.wire_verb(),
                value,
                coverage: Coverage {
                    shards_included: SHARDS,
                    shards_total: SHARDS,
                    records_represented: records,
                    records_total: records,
                },
            };
            match Response::decode(&reply.encode()).ok()? {
                Response::Scalar { value, .. } => Some(value),
                _ => None,
            }
        })
    });
    log.end(root);
    (answer, buckets_in)
}

/// The open loop's inputs and where its spans go.
struct Generator<'a> {
    input: Cycle<'a>,
    queries: WorkloadGen,
    epoch: Instant,
}

/// Runs the open loop for `secs`: fixed counts of batches and queries on
/// fixed schedules. With `log` on, queries take their traced steps and
/// the producer's spans are merged into `log`.
fn drive(
    stack: &mut ServeStack,
    gen: &mut Generator<'_>,
    secs: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Drive {
    let n_batches = (BATCH_RATE * secs).round() as u64;
    let n_queries = (QUERY_RATE * secs).round() as u64;
    let traced = log.on();
    let epoch = gen.epoch;
    let state = stack.state.clone();
    let input = &mut gen.input;
    let mut lag_ms = Vec::with_capacity((n_batches + n_queries) as usize);
    let mut buckets_in = Vec::new();
    let start = Instant::now();
    let mut lat_ms = Timeline::new(start, Duration::from_secs_f64(secs));
    let mut last_done = start;
    let (producer_log, producer_lags, ingest_errors, depth_max) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut plog = SpanLog::new(epoch, traced);
            let mut lags = Vec::with_capacity(n_batches as usize);
            let (mut errors, mut depth_max) = (0u64, 0usize);
            for b in 0..n_batches {
                let due = start + Duration::from_secs_f64(b as f64 / BATCH_RATE);
                sleep_until(due);
                lags.push(stats::ms(due.elapsed()));
                let slab = input.take(BATCH);
                let res = plog.time("sharded.enqueue", b, None, || state.ingest_scatter(&slab));
                if res.is_err() {
                    errors += 1;
                }
                if traced {
                    let depth = state
                        .fleet()
                        .metrics_all()
                        .iter()
                        .map(|m| m.queue_depth)
                        .max();
                    depth_max = depth_max.max(depth.unwrap_or(0));
                }
            }
            (plog, lags, errors, depth_max)
        });
        for i in 0..n_queries {
            let due = start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
            sleep_until(due);
            lag_ms.push(stats::ms(due.elapsed()));
            let (answer, buckets) = query_once(stack, gen.queries.range_sum(), log, i);
            last_done = Instant::now();
            if answer.is_none() {
                out.failed += 1;
            }
            if traced {
                buckets_in.push(buckets as f64);
            }
            lat_ms.record(last_done, stats::ms(last_done.duration_since(due)));
        }
        producer.join().expect("producer thread")
    });
    out.failed += ingest_errors;
    if traced {
        log.absorb(producer_log);
        out.set("sharded.queue_depth_max", depth_max as f64);
    }
    lag_ms.extend(producer_lags);
    Drive {
        lat_ms,
        lag_ms,
        queries: n_queries,
        batches: n_batches,
        rate_per_s: n_queries as f64 / last_done.duration_since(start).as_secs_f64(),
        buckets_in,
    }
}

struct Phase {
    setup_s: f64,
    drive: Drive,
    peak_rss_mb: f64,
    log: SpanLog,
}

fn phase(pool: &[f64], cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Phase {
    let history = &pool[..HISTORY];
    let (mut stack, first_setup) = timed(|| ServeStack::start(history));
    let domain = SHARDS * SHARD_WINDOW;
    let epoch = Instant::now();
    let mut gen = Generator {
        input: Cycle::new(&pool[HISTORY..]),
        queries: WorkloadGen::new(cfg.seed ^ QUERY_SEED, domain),
        epoch,
    };
    let mut log = SpanLog::new(epoch, false);
    drive(&mut stack, &mut gen, WARMUP.as_secs_f64(), &mut log, out);
    let merges_before = stack.state.fleet().merge_metrics();
    let mut log = SpanLog::new(epoch, traced);
    let drive = drive(&mut stack, &mut gen, cfg.phase_seconds(), &mut log, out);
    let peak_rss_mb = stats::peak_rss_mb();
    out.attempted += drive.queries + drive.batches;
    if !traced {
        let after = stack.state.fleet().merge_metrics();
        let hits = after.cache_hits - merges_before.cache_hits;
        let gathers = after.merges - merges_before.merges;
        out.set(
            "sharded.cache_hit_ratio",
            hits as f64 / (hits + gathers).max(1) as f64,
        );
        out.set("loadgen.lag_p99_ms", stats::quantile(&drive.lag_ms, 0.99));
        out.gate(
            format!(
                "live_query: at least {:.0}% of queries missed the snapshot cache",
                MIN_MISS_SHARE * 100.0
            ),
            gathers as f64 >= MIN_MISS_SHARE * drive.queries as f64,
            format!(
                "{gathers} gathers, {hits} cache hits for {} queries",
                drive.queries
            ),
        );
    }

    // Quiesced: the producer is done. Probe the wire against the
    // in-process snapshot, then join and check accuracy.
    let (global, _) = stack
        .state
        .fleet()
        .snapshot_global()
        .expect("fleet healthy");
    let mut probes = WorkloadGen::new(cfg.seed ^ QUERY_SEED ^ 1, domain);
    let samples: Vec<(Query, f64)> = (0..PROBES)
        .filter_map(|_| {
            let q = probes.range_sum();
            match stack.client.call(&range_sum_request(q)) {
                Ok(Response::Scalar { value, .. }) => Some((q, value)),
                _ => None,
            }
        })
        .collect();
    bit_identity_gate(out, "live_query", &global, &samples);
    let dropped: u64 = stack
        .state
        .fleet()
        .metrics_all()
        .iter()
        .map(|m| m.records_dropped)
        .sum();
    out.set("sharded.records_dropped", dropped as f64);
    out.failed += dropped;
    kernel_counts(out, &stack);
    let shards = stack.shutdown();
    accuracy_gate(out, "live_query", &FleetAccuracy::measure(&global, &shards));
    Phase {
        setup_s: median_setup_s(
            first_setup,
            || ServeStack::start(history),
            |s| {
                drop(s.shutdown());
            },
        ),
        drive,
        peak_rss_mb,
        log,
    }
}

/// Median over requests of the sum or max of the durations of their
/// spans named `name`, in ms.
fn per_request_ms(log: &SpanLog, name: &str, combine: fn(f64, f64) -> f64) -> f64 {
    let mut by_req: BTreeMap<u64, f64> = BTreeMap::new();
    for s in log.spans().iter().filter(|s| s.name == name) {
        let d = s.dur_ns() as f64 / 1e6;
        by_req
            .entry(s.req)
            .and_modify(|acc| *acc = combine(*acc, d))
            .or_insert(d);
    }
    stats::median(&by_req.into_values().collect::<Vec<_>>())
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let pool = input::pool(cfg.seed, POOL);
    let mut out = Outcome::default();
    out.set("loadgen.zero_share", input::zero_share(&pool));
    let plain = phase(&pool, cfg, false, &mut out);
    let p50 = plain.drive.lat_ms.quantile(0.5);
    out.set("setup_s", plain.setup_s);
    out.set("throughput_per_s", plain.drive.rate_per_s);
    out.set("latency_p50_ms", p50);
    out.set("loadgen.latency_p99_ms", plain.drive.lat_ms.quantile(0.99));
    out.set("process.peak_rss_mb", plain.peak_rss_mb);
    if !cfg.trace {
        return out;
    }

    let traced = phase(&pool, cfg, true, &mut out);
    let log = &traced.log;
    let durs = log.dur_ns_by_name();
    let selfs = log.self_ns_by_name();
    out.set(
        "sharded.enqueue_us_p99",
        durs.get("sharded.enqueue")
            .map_or(0.0, |v| stats::quantile(v, 0.99))
            / 1e3,
    );
    out.set(
        "sharded.gather_ms_p50",
        median_of(&durs, "sharded.gather") / 1e6,
    );
    let snapshot_sum = per_request_ms(log, "sharded.snapshot_shard", |a, b| a + b);
    out.set("sharded.shard_snapshot_ms_sum", snapshot_sum);
    out.set(
        "sharded.shard_snapshot_ms_max",
        per_request_ms(log, "sharded.snapshot_shard", f64::max),
    );
    out.set("merge.ms_p50", median_of(&durs, "merge") / 1e6);
    out.set(
        "merge.buckets_in_per_merge",
        stats::mean(&traced.drive.buckets_in),
    );
    out.set("query.estimate_ns_p50", median_of(&durs, "query.estimate"));
    // The blocking chain of one query: its own self time, the gather's,
    // both shard snapshots (summed per request), merge, answer, codec.
    let chain_ms = snapshot_sum
        + [
            "request",
            "sharded.gather",
            "merge",
            "query.estimate",
            "serve.codec",
        ]
        .iter()
        .map(|k| median_of(&selfs, k))
        .sum::<f64>()
            / 1e6;
    let traced_p50 = traced.drive.lat_ms.quantile(0.5);
    finish_trace(&mut out, log, p50, traced_p50, chain_ms, cfg);
    out
}
