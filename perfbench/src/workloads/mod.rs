//! The four workloads and what they share.
//!
//! | workload | shape | stresses |
//! |---|---|---|
//! | [`per_arrival`] | closed loop, one thread | kernel build per arrival |
//! | [`live_query`] | open loop, queries beside scatter ingest | snapshot-cache miss: barrier, build, merge |
//! | [`cached_query`] | closed loop, one connection | frame codec, server IO, answering |
//! | [`durable_ingest`] | closed loop, one producer | queue, WAL, checkpoints, store |

pub mod cached_query;
pub mod durable_ingest;
pub mod live_query;
pub mod per_arrival;

use crate::stats;
use crate::{Outcome, RunConfig, B, EPS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_core::{Histogram, Query};
use streamhist_obs::MetricsRegistry;
use streamhist_optimal::optimal_sse;
use streamhist_serve::{QueryServer, Request, ServeClient, ServeState, ServerOptions};
use streamhist_stream::{FixedWindowHistogram, FleetHandle, ShardedFixedWindow};

/// Shards in every fleet: one per core of the 2-vCPU machine the sizes
/// were chosen on, so shard workers, the producer and the server thread
/// contend no more than the machine forces.
pub const SHARDS: usize = 2;
/// Window capacity of each fleet shard.
pub const SHARD_WINDOW: usize = 256;
/// Untimed warm-up before every measured phase.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Runs `f` once, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The median of `first` and [`SETUP_REPEATS`]` - 1` further timed runs of
/// `setup`, each torn down untimed. Workloads call it after the measured
/// phase and after reading `process.peak_rss_mb`, so the repeats leave no
/// trace in the memory figure.
pub fn median_setup_s<T>(
    first: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut times = vec![first];
    for _ in 1..SETUP_REPEATS {
        let (built, secs) = timed(&mut setup);
        times.push(secs);
        teardown(built);
    }
    stats::median(&times)
}

/// Accuracy of a fleet-global histogram over the shard windows it was
/// gathered from (concatenated in shard order).
#[derive(Debug, Clone, Copy)]
pub struct FleetAccuracy {
    /// SSE of the global histogram over the concatenated windows.
    pub sse: f64,
    /// Optimal `B`-bucket SSE of the concatenated windows.
    pub opt: f64,
    /// Summed per-shard SSE (`G` of the DESIGN.md §7 gather bound).
    pub shard_sse: f64,
    /// Largest SSE the §7 bound allows:
    /// `(√G + √(1+ε)·(√G + √OPT))²`.
    pub bound: f64,
}

impl FleetAccuracy {
    /// Measures `global` against the joined shard summaries.
    #[must_use]
    pub fn measure(global: &Histogram, shards: &[FixedWindowHistogram]) -> Self {
        let mut window = Vec::new();
        let mut shard_sse = 0.0;
        for s in shards {
            let w = s.window();
            shard_sse += s.histogram().sse(&w);
            window.extend(w);
        }
        let sse = global.sse(&window);
        let opt = optimal_sse(&window, B);
        let g = shard_sse.sqrt();
        let bound = (g + (1.0 + EPS).sqrt() * (g + opt.sqrt())).powi(2);
        Self {
            sse,
            opt,
            shard_sse,
            bound,
        }
    }

    /// `sse / opt` (1 when both are 0).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        sse_ratio(self.sse, self.opt)
    }

    /// Whether the §7 bound holds (with a relative float tolerance).
    #[must_use]
    pub fn within_bound(&self) -> bool {
        self.sse <= self.bound * (1.0 + 1e-9) + 1e-9
    }
}

/// `sse / opt`, defining 0/0 as 1.
#[must_use]
pub fn sse_ratio(sse: f64, opt: f64) -> f64 {
    if opt > 0.0 {
        sse / opt
    } else if sse <= 1e-9 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// A 2-shard fleet behind a [`ServeState`] and a 1-worker [`QueryServer`],
/// with one client connected.
pub struct ServeStack {
    /// The serve state (holds the fleet handle).
    pub state: ServeState,
    /// The running server.
    pub server: QueryServer,
    /// The connected client.
    pub client: ServeClient,
}

impl ServeStack {
    /// Builds the fleet, ingests `history` through the serve state (in
    /// 4096-record slabs), materializes the global snapshot, binds the
    /// server on a loopback port and connects.
    #[must_use]
    pub fn start(history: &[f64]) -> Self {
        let fleet = FleetHandle::new(ShardedFixedWindow::new(SHARDS, SHARD_WINDOW, B, EPS));
        let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
        for slab in history.chunks(4096) {
            state.ingest_scatter(slab).expect("all-finite history");
        }
        state
            .fleet()
            .snapshot_global()
            .expect("fresh fleet is healthy");
        let options = ServerOptions {
            io_timeout: Duration::from_secs(2),
            ..ServerOptions::default()
        };
        let server = QueryServer::start_with("127.0.0.1:0", state.clone(), 1, options)
            .expect("bind loopback");
        let client = ServeClient::connect(server.local_addr()).expect("connect to loopback server");
        Self {
            state,
            server,
            client,
        }
    }

    /// Closes the connection, stops the server, and joins the fleet,
    /// returning the shard summaries in shard order.
    #[must_use]
    pub fn shutdown(self) -> Vec<FixedWindowHistogram> {
        let Self {
            state,
            server,
            client,
        } = self;
        drop(client);
        server.shutdown();
        let fleet = state.fleet().clone();
        drop(state);
        match fleet.try_join() {
            Ok(shards) => shards
                .into_iter()
                .map(|r| r.expect("shard worker alive at shutdown"))
                .collect(),
            Err(_) => panic!("fleet handle still shared after server shutdown"),
        }
    }
}

/// The wire request for a range-sum query.
#[must_use]
pub fn range_sum_request(q: Query) -> Request {
    match q {
        Query::RangeSum { start, end } => Request::RangeSum { start, end },
        other => unreachable!("workload sends range sums only, got {other:?}"),
    }
}

/// Wire answers kept during a run must equal, bit for bit, the in-process
/// `Query::try_estimate` on the snapshot they were served from.
pub fn bit_identity_gate(
    out: &mut Outcome,
    workload: &str,
    hist: &Histogram,
    samples: &[(Query, f64)],
) {
    let mismatches = samples
        .iter()
        .filter(|(q, wire)| {
            q.try_estimate(hist)
                .map_or(true, |direct| direct.to_bits() != wire.to_bits())
        })
        .count();
    out.gate(
        format!(
            "{workload}: wire answers bit-identical to try_estimate on snapshot_global ({} sampled)",
            samples.len()
        ),
        !samples.is_empty() && mismatches == 0,
        format!("{mismatches} mismatches"),
    );
}

/// Records the §7 gather-bound gate and the SSE ratio.
pub fn accuracy_gate(out: &mut Outcome, workload: &str, acc: &FleetAccuracy) {
    out.set("sse_ratio", acc.ratio());
    out.gate(
        format!("{workload}: global SSE within the DESIGN.md section 7 gather bound"),
        acc.within_bound(),
        format!(
            "sse {:.1}, bound {:.1}, opt {:.1}, shard sse {:.1}",
            acc.sse, acc.bound, acc.opt, acc.shard_sse
        ),
    );
}

/// Kernel work per build, from each shard's current (quiesced) build:
/// the mean over shards of HERROR evaluations and binary searches.
pub fn kernel_counts(out: &mut Outcome, stack: &ServeStack) {
    let (mut evals, mut searches) = (0usize, 0usize);
    for s in 0..SHARDS {
        let (_, st) = stack
            .state
            .fleet()
            .snapshot_shard(s)
            .expect("shard index in range")
            .expect("shard worker alive");
        evals += st.herror_evals;
        searches += st.binary_searches;
    }
    out.set(
        "kernel.herror_evals_per_build",
        evals as f64 / SHARDS as f64,
    );
    out.set(
        "kernel.binary_searches_per_build",
        searches as f64 / SHARDS as f64,
    );
}

/// Reports the tracing overhead and the chain check shared by every
/// workload, and writes the spans out.
///
/// * `untraced_p50_ms` / `traced_p50_ms`: the end-to-end median latency
///   of the untraced and traced phases;
/// * `chain_ms`: the sum of the median self times along the operation's
///   blocking chain in the traced phase.
///
/// The chain must come within [`CHAIN_SLACK`] of the untraced median.
pub fn finish_trace(
    out: &mut Outcome,
    log: &crate::trace::SpanLog,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    chain_ms: f64,
    cfg: &RunConfig,
) {
    let gap = (chain_ms - untraced_p50_ms).abs() / untraced_p50_ms;
    out.set(
        "trace.overhead_pct",
        (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms * 100.0,
    );
    out.set("trace.chain_gap_pct", gap * 100.0);
    out.set("trace.spans", log.spans().len() as f64);
    out.gate(
        format!(
            "traced self times along the blocking chain add up to the untraced p50 within {:.0}%",
            CHAIN_SLACK * 100.0
        ),
        gap <= CHAIN_SLACK,
        format!("chain {chain_ms:.4} ms vs untraced p50 {untraced_p50_ms:.4} ms"),
    );
    if let Some(dir) = &cfg.span_dir {
        let path = dir.join(format!("spans-seed{}.csv", cfg.seed));
        let written = log.write_csv(&path, SPAN_CSV_CAP);
        out.gate(
            format!("spans written to {}", path.display()),
            written.is_ok(),
            written.err().map_or_else(String::new, |e| e.to_string()),
        );
    }
}

/// Largest relative gap allowed between the summed median self times of
/// the traced chain and the untraced median latency. Medians of parts do
/// not add exactly to the median of the whole, and the traced phase runs
/// later than the untraced one on a machine shared with other work.
pub const CHAIN_SLACK: f64 = 0.25;

/// Spans written to the CSV at most (every span still counts in the
/// statistics).
pub const SPAN_CSV_CAP: usize = 200_000;
