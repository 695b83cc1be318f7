//! # streamhist
//!
//! A production-quality Rust implementation of **streaming V-optimal
//! histograms** — a reproduction of *Sudipto Guha & Nick Koudas,
//! "Approximating a Data Stream for Querying and Estimation: Algorithms and
//! Performance Evaluation", ICDE 2002* — together with every substrate and
//! baseline the paper's evaluation depends on.
//!
//! ## The problem
//!
//! A histogram `H_B` approximates a sequence of values by `B` buckets, each
//! collapsing a contiguous index range to its mean, minimizing the
//! sum-squared-error. On a *data stream* the sequence is unbounded and read
//! once; the paper contributes one-pass `(1+ε)`-approximate constructions
//! for two models:
//!
//! * **agglomerative** — summarize everything seen so far
//!   ([`AgglomerativeHistogram`]);
//! * **fixed window** — summarize the latest `n` points
//!   ([`FixedWindowHistogram`]), the paper's headline algorithm, with
//!   amortized `O(1)` pushes and `O((B³/ε²) log³ n)` histogram
//!   materializations (Theorem 1).
//!
//! ## Quick start
//!
//! ```
//! use streamhist::{FixedWindowHistogram, SequenceSummary, StreamSummary};
//!
//! // Approximate the last 128 points with 8 buckets, within 10% of the
//! // optimal histogram's SSE.
//! let mut fw = FixedWindowHistogram::builder(128, 8, 0.1).build()?;
//! let slab: Vec<f64> = (0..1000).map(|t| (t % 50) as f64).collect();
//! fw.push_batch(&slab); // or fw.push(v) per point — bit-identical
//! let hist = fw.histogram(); // cached Arc<Histogram> until the next push
//! let estimate = hist.estimate_range_sum(10, 90);
//! let exact: f64 = fw.window()[10..=90].iter().sum();
//! assert!((estimate - exact).abs() / exact < 0.5);
//! # Ok::<(), streamhist::StreamhistError>(())
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Source crate | Role |
//! |---|---|---|
//! | [`Histogram`], [`Bucket`], [`Query`], [`PrefixSums`] | `streamhist-core` | representation, queries, evaluation |
//! | [`FixedWindowHistogram`], [`AgglomerativeHistogram`], [`approx_histogram`] | `streamhist-stream` | the paper's algorithms |
//! | [`optimal_histogram`], [`optimal_sse`] | `streamhist-optimal` | exact `O(n²B)` DP (Jagadish et al.) |
//! | [`WaveletSynopsis`], [`SlidingWindowWavelet`] | `streamhist-wavelet` | the paper's wavelet baseline (MVW) |
//! | [`GkSummary`], [`MrlSummary`], [`EquiDepthHistogram`] | `streamhist-quantile` | §2 quantile substrates |
//! | [`SeriesIndex`], [`apca()`], [`lower_bound_dist`] | `streamhist-similarity` | §5.2 similarity search (APCA comparator) |
//! | [`data`] | `streamhist-data` | synthetic traces and query workloads |
//! | [`obs`] | `streamhist-obs` | metrics registry, latency quantiles, Prometheus-style exposition |
//! | [`serve`] | `streamhist-serve` | framed TCP query front-end over a live sharded fleet |
//!
//! See `DESIGN.md` for the paper-to-module map and `EXPERIMENTS.md` for the
//! reproduced evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use streamhist_core::{
    evaluate_queries, max_abs_error, sum_abs_error, sum_squared_error, AccuracyReport,
    BatchOutcome, Bucket, Checkpoint, CheckpointStore, DirStore, ExactSummary, FailingStore,
    GrowableWindowSums, Histogram, HistogramError, MemStore, MergeableSummary, ObjectId,
    ObjectKind, PrefixProvider, PrefixSums, Query, SequenceSummary, SlidingPrefixSums, StoreError,
    StreamSummary, StreamhistError, WalSegment, WindowSums,
};

/// Histogram-to-histogram distances (L1/L2/L∞ over the expanded sequences)
/// for change detection on streams.
pub mod distance {
    pub use streamhist_core::distance::{l1, l2, l2_sq, linf};
}

/// Compact binary wire format for shipping histograms between processes.
pub mod codec {
    pub use streamhist_core::codec::{decode, encode, DecodeError};
}

pub use streamhist_optimal::{brute_force_optimal, herror_table, optimal_histogram, optimal_sse};
pub use streamhist_quantile::{
    EquiDepthHistogram, GkSummary, MrlSummary, QuantileSummary, StreamingEquiDepth,
};
pub use streamhist_similarity::{
    apca, euclidean, lower_bound_dist, PiecewiseConstant, ReprMethod, SearchStats, Segment,
    SeriesIndex, SubsequenceIndex,
};
pub use streamhist_stream::{
    approx_histogram, merge_histograms, AgglomerativeBuilder, AgglomerativeHistogram, Coverage,
    DurabilityOptions, FixedWindowBuilder, FixedWindowHistogram, FleetHandle, KernelStats,
    MergeMetrics, NaiveSlidingWindow, NaiveSlidingWindowBuilder, OverloadPolicy, RecoveryReport,
    ShardError, ShardHealth, ShardMetrics, ShardState, ShardedFixedWindow,
    ShardedFixedWindowBuilder, ShardedOptions, SnapshotPolicy, Supervisor, SupervisorEvent,
    SupervisorHandle, SupervisorMetrics, SupervisorOptions, TimeWindowBuilder, TimeWindowHistogram,
    WalStatus,
};
pub use streamhist_wavelet::{DynamicWavelet, SlidingWindowWavelet, WaveletSynopsis};

/// Self-hosted telemetry: the lock-free metrics registry, GK-backed
/// latency summaries, and the Prometheus-style exposition surface
/// (`streamhist-obs`), plus this workspace's publication helpers
/// (`streamhist-stream::telemetry`).
///
/// The registry records counters and gauges; the span-style kernel/shard
/// phase tracing is armed at run time by installing a [`obs::KernelTracer`]
/// (on a fleet builder or with [`obs::set_thread_kernel_tracer`]).
pub mod obs {
    pub use streamhist_obs::{
        global, parse_exposition, Counter, Event, EventKind, ExpositionOptions, ExpositionServer,
        FamilySnapshot, FlightRecorder, FloatGauge, Gauge, HealthStatus, LatencyRecorder,
        LatencySnapshot, LatencySpan, MetricKind, MetricsRegistry, ParsedSample, RateFamily,
        SampleValue, SeriesSnapshot, SlidingSum, DEFAULT_CAPACITY,
    };
    pub use streamhist_stream::telemetry::{
        publish_kernel_stats, set_thread_kernel_tracer, KernelTracer,
    };
}

/// The query path on the wire: a framed TCP front-end over a live
/// sharded fleet (`streamhist-serve`). Serves range/point queries from
/// the fleet-global snapshot and quantile/selectivity queries from
/// serve-side GK/MRL sketches; malformed input earns a structured error
/// frame, never a panic or a dropped connection.
pub mod serve {
    pub use streamhist_serve::{
        decode_event, encode_event, ClientError, ErrorCode, Packet, QuantileMethod, QueryServer,
        Request, Response, RetryBudget, ServeClient, ServeState, ServerOptions, WireError,
        EVENTS_PAGE_MAX, MAX_FRAME, MIN_FRAME,
    };
}

/// Value-domain frequency histograms for selectivity estimation (the
/// `[IP95]` query-optimization setting the paper builds on).
pub mod freq {
    pub use streamhist_freq::{
        evaluate_selectivity, max_diff_ends, FrequencyVector, SelectivityReport, ValueHistogram,
    };
}

/// Synthetic stream generators and query workload generators (the
/// substitution for the paper's proprietary AT&T traces; see `DESIGN.md`).
pub mod data {
    pub use streamhist_data::{
        collect, integerize, utilization_trace, Ar1, BurstyOnOff, Diurnal, LevelShift, Mixture,
        RandomWalk, SpikeTrain, UniformNoise, WorkloadGen, Zipfian,
    };
}
