//! # streamhist-obs
//!
//! Self-hosted telemetry for the streamhist workspace: a zero-external-
//! dependency metrics layer whose latency quantiles are maintained by the
//! workspace's *own* streaming summaries (a rotating pair of
//! Greenwald–Khanna sketches from `streamhist-quantile`), dogfooding the
//! reproduced paper's algorithms as the metrics backend.
//!
//! The pieces:
//!
//! * [`MetricsRegistry`] — named, labeled metric families. Hot-path
//!   handles ([`Counter`], [`Gauge`], [`FloatGauge`]) are cheap clones of
//!   an `Arc<AtomicU64>`; updating one is a single `Relaxed` atomic op,
//!   no lock. The registry's interior `Mutex` is touched only at
//!   registration and scrape time.
//! * [`LatencyRecorder`] — a summary-type metric (count / sum / max /
//!   quantiles) backed by two rotating [`GkSummary`](streamhist_quantile::GkSummary)
//!   epochs, so p50/p95/p99 come from the paper's quantile substrate in
//!   bounded memory. See the module docs of [`latency`] for the rotation
//!   and combined-quantile semantics.
//! * [`text_exposition`](MetricsRegistry::text_exposition) — the
//!   Prometheus text format (version 0.0.4), plus [`parse_exposition`], a
//!   strict validator used by the test suite (and available to callers)
//!   to check any exposition output.
//! * [`ExpositionServer`] — a tiny blocking `std::net::TcpListener` loop
//!   serving the exposition over HTTP for `curl`/Prometheus scrapes.
//! * [`json_snapshot`](MetricsRegistry::json_snapshot) — a JSON dump of
//!   the same gather.
//!
//! Nothing in this crate calls back into the instrumented code paths: the
//! recorder's GK backend is a plain value-domain sketch with no histogram
//! kernel involvement, so instrumenting the kernel with these types cannot
//! recurse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod http;
pub mod latency;
pub mod ratio;
pub mod recorder;
pub mod registry;
pub mod sliding;

pub use expo::{parse_exposition, ParsedSample};
pub use http::{read_line_bounded, ExpositionOptions, ExpositionServer, HealthStatus, MAX_LINE};
pub use latency::{LatencyRecorder, LatencySnapshot, LatencySpan};
pub use ratio::RatioTracker;
pub use recorder::{Event, EventKind, FlightRecorder, DEFAULT_CAPACITY};
pub use registry::{
    global, Counter, FamilySnapshot, FloatGauge, Gauge, MetricKind, MetricsRegistry, SampleValue,
    SeriesSnapshot,
};
pub use sliding::{RateFamily, SlidingSum};
