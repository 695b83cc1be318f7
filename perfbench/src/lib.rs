//! Layered end-to-end benchmark of `streamhist`.
//!
//! One binary runs one workload per invocation
//! (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`) and prints
//! every metric by name with its unit; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics ([`END_TO_END`]) with no
//!   span recording at all.
//! * `--trace 1` runs the same workload twice in one process — once
//!   untraced, once with spans recorded around every call into a layer —
//!   and reports the per-layer metrics ([`PER_LAYER`]), the tracing
//!   overhead, and whether the self times along the blocking chain add up
//!   to the untraced median latency.
//!
//! The workloads live in [`workloads`]; `NOTES.md` next to the manifest
//! records why each was chosen and how it is sized.

#![forbid(unsafe_code)]

pub mod input;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// Window-histogram bucket budget used by every workload.
pub const B: usize = 8;
/// Approximation parameter used by every workload.
pub const EPS: f64 = 0.1;

/// End-to-end metrics, `(name, unit)`: every workload reports all of them
/// in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("sse_ratio", "ratio"),
];

/// Per-layer metrics, `(name, unit)`: every workload reports all of them
/// in a traced run. A layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.build_ms_p50", "ms"),
    ("kernel.herror_evals_per_build", "count"),
    ("kernel.binary_searches_per_build", "count"),
    ("kernel.ns_per_herror_eval", "ns"),
    ("fixed_window.push_ns_p50", "ns"),
    ("sharded.enqueue_us_p99", "us"),
    ("sharded.queue_depth_max", "count"),
    ("sharded.records_dropped", "count"),
    ("sharded.gather_ms_p50", "ms"),
    ("sharded.shard_snapshot_ms_sum", "ms"),
    ("sharded.shard_snapshot_ms_max", "ms"),
    ("sharded.cache_hit_ratio", "ratio"),
    ("merge.ms_p50", "ms"),
    ("merge.buckets_in_per_merge", "count"),
    ("checkpoint.bytes_per_record", "B"),
    ("durability.write_amp", "ratio"),
    ("durability.flush_ms", "ms"),
    ("durability.upload_queue_depth_max", "count"),
    ("durability.retries", "count"),
    ("durability.failures", "count"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p99", "us"),
    ("store.puts_per_1k_records", "count"),
    ("serve.decode_us_p50", "us"),
    ("serve.answer_us_p50", "us"),
    ("serve.encode_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("query.estimate_ns_p50", "ns"),
    ("process.peak_rss_mb", "MB"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.zero_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.chain_gap_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "per_arrival",
    "live_query",
    "cached_query",
    "durable_ingest",
];

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, in seconds. A traced run splits it
    /// between its untraced and traced phases.
    pub seconds: f64,
    /// Whether to also run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Where the traced phase writes its spans (`None`: keep them in
    /// memory only).
    pub span_dir: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// Length of each measured phase: all of `seconds` for an untraced
    /// run, half of it for each phase of a traced one.
    #[must_use]
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One correctness gate and whether it held.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations among them that failed (error, refusal, dropped record).
    pub failed: u64,
    /// Every metric measured, by name. The caller selects the end-to-end
    /// or per-layer set.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every correctness gate checked.
    pub gates: Vec<Gate>,
}

impl Outcome {
    /// Records a gate.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Whether every gate held and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "per_arrival" => Ok(workloads::per_arrival::run(cfg)),
        "live_query" => Ok(workloads::live_query::run(cfg)),
        "cached_query" => Ok(workloads::cached_query::run(cfg)),
        "durable_ingest" => Ok(workloads::durable_ingest::run(cfg)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
