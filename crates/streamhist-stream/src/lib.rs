//! # streamhist-stream
//!
//! One-pass `(1+ε)`-approximate V-optimal histogram construction over data
//! streams — the primary contribution of *Guha & Koudas, "Approximating a
//! Data Stream for Querying and Estimation" (ICDE 2002)* and its companion
//! *Guha, Koudas & Shim, "Data Streams and Histograms" (STOC 2001)*.
//!
//! Two stream models (paper §3, Figure 1):
//!
//! * [`AgglomerativeHistogram`] — summarizes the **entire stream** seen so
//!   far (paper §4.3, Figure 3). Per-point cost `O(B · q)` where `q` is the
//!   interval-queue length, bounded by `O((B/ε) log n)`; total time
//!   `O((n B²/ε) log n)` and space `O((B²/ε) log n)`.
//! * [`FixedWindowHistogram`] — summarizes the **last `n` points** (paper
//!   §4.5, Figure 5), the paper's headline algorithm. Pushes are amortized
//!   `O(1)` (circular buffer + sliding prefix sums); materializing the
//!   histogram runs the `CreateList` procedure, which rebuilds the interval
//!   queues via binary search over the monotone `HERROR[·, k]` in
//!   `O((B³/ε²) log³ n)` (paper Theorem 1).
//!
//! Both algorithms (and the time-based [`TimeWindowHistogram`]) drive one
//! shared dynamic-programming kernel (`kernel` module): one
//! `HERROR` minimization and interval-queue maintenance implementation
//! per driving mode (online for the whole stream, batch `CreateList` for
//! the windows), generic over a
//! [`PrefixProvider`](streamhist_core::PrefixProvider) (absolute running
//! totals for the whole-stream algorithm, rebased `SUM'`/`SQSUM'` stores
//! for the windows). For every bucket-count level `k < B` the kernel
//! maintains a queue of index intervals such that the `(≤k)`-bucket error
//! `HERROR[·, k]` grows by at most a factor `(1+δ)`, `δ = ε/(2B)`, across
//! each interval; minimizations are then evaluated only at the
//! `O((1/δ) log n)` interval endpoints instead of at all `n` positions
//! (paper §4.2.1). Work is reported through [`KernelStats`].
//!
//! Bucket-boundary chains live in a flat index-linked arena (`arena`
//! module) rather than `Rc` cells, so **every summary is `Send +
//! 'static`** — asserted at compile time below — and summaries can be
//! built on worker threads and moved; [`ShardedFixedWindow`] packages that
//! deployment pattern over plain `std::thread` workers, with bounded
//! backpressure ([`ShardedOptions`], [`OverloadPolicy`]), a
//! `Result`-returning API over dead shards ([`ShardError`]) with
//! per-shard respawn, and lock-free per-shard counters ([`ShardMetrics`]).
//! Every summary implements the versioned, checksummed
//! [`Checkpoint`] frame format; the sharded
//! layer auto-checkpoints each shard and restores from the last checkpoint
//! on respawn, reporting the loss window in a [`RecoveryReport`].
//! Malformed input is rejected, not fatal: every summary implements the
//! [`StreamSummary`] trait with a fallible
//! `try_push` returning
//! [`StreamhistError`](streamhist_core::StreamhistError) alongside the
//! panicking convenience wrappers, and every summary is constructed either
//! through a legacy panicking constructor or a validating `builder()`.
//! Slabs of points go through `push_batch` (one prefix-store write pass,
//! interval maintenance deferred to the next histogram request — bit-for-bit
//! identical to per-point pushes), and `histogram()` returns a
//! generation-cached [`Arc`](std::sync::Arc) snapshot that is free to
//! re-request between mutations.
//!
//! [`NaiveSlidingWindow`] re-runs the exact `O(n²B)` DP per window — the
//! strawman of paper §3 ("excessive" per-update time) used as a baseline by
//! the benches.
//!
//! [`approx_histogram`] solves the offline ε-approximation (paper
//! Problem 2) by running the agglomerative algorithm over a stored slice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
mod arena;
pub mod baseline;
pub mod durability;
pub mod fixed_window;
mod kernel;
pub mod merge;
pub mod serve;
pub mod sharded;
pub mod supervisor;
pub mod telemetry;
pub mod time_window;

pub use agglomerative::{AgglomerativeBuilder, AgglomerativeHistogram};
pub use baseline::{NaiveSlidingWindow, NaiveSlidingWindowBuilder};
pub use durability::{DurabilityOptions, WalStatus};
pub use fixed_window::{FixedWindowBuilder, FixedWindowHistogram};
pub use kernel::KernelStats;
pub use merge::merge_histograms;
pub use serve::FleetHandle;
pub use sharded::{
    Coverage, MergeMetrics, OverloadPolicy, RecoveryReport, ShardError, ShardMetrics,
    ShardedFixedWindow, ShardedFixedWindowBuilder, ShardedOptions, SnapshotPolicy,
};
pub use streamhist_core::{BatchOutcome, Checkpoint, MergeableSummary, StreamSummary};
pub use supervisor::{
    ShardHealth, ShardState, Supervisor, SupervisorEvent, SupervisorHandle, SupervisorMetrics,
    SupervisorOptions,
};
pub use time_window::{TimeWindowBuilder, TimeWindowHistogram};

// The `Send + 'static` contract of the streaming summaries, checked at
// compile time: regressing it (e.g. by reintroducing an `Rc` into a chain
// or queue) fails the build, not a test at runtime.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<AgglomerativeHistogram>();
    assert_send::<FixedWindowHistogram>();
    assert_send::<TimeWindowHistogram>();
    assert_send::<NaiveSlidingWindow>();
    assert_send::<KernelStats>();
    assert_send::<ShardedFixedWindow>();
    // Ingestion takes `&self`, so producers on many threads share one
    // handle: the sharded front-end must also be `Sync`.
    const fn assert_sync<T: Sync>() {}
    assert_sync::<ShardedFixedWindow>();
};

/// Offline `(1+ε)`-approximate V-optimal histogram of a stored sequence
/// (paper Problem 2): a single agglomerative pass over `data`, time
/// `O((n B²/ε) log n)`.
///
/// # Panics
///
/// Panics if `b == 0` for non-empty data, or `eps <= 0`.
#[must_use]
pub fn approx_histogram(data: &[f64], b: usize, eps: f64) -> streamhist_core::Histogram {
    let mut agg = AgglomerativeHistogram::new(b, eps);
    for &v in data {
        agg.push(v);
    }
    agg.histogram().as_ref().clone()
}
