//! # streamhist-optimal
//!
//! Optimal V-optimal histogram construction: the dynamic program of
//! Jagadish, Koudas, Muthukrishnan, Poosala, Sevcik & Suel (VLDB 1998),
//! restated as `Algorithm OptimalHistogram` in §4.1 of the reproduced paper
//! (Guha & Koudas, ICDE 2002).
//!
//! The DP relies on the observation that "if the last bucket contains the
//! data points indexed by `[i+1, …, n]` in the optimal B-histogram, then the
//! rest of the buckets must form an optimal (B−1)-histogram for `[1, …, i]`".
//! With the `SUM`/`SQSUM` prefix arrays the bucket error `SQERROR[i, j]` is
//! `O(1)`, giving total time `O(n²·B)` and space `O(n·B)` with
//! reconstruction (an `O(n)`-space, error-only variant is also provided).
//!
//! This crate is the accuracy gold standard the streaming algorithms are
//! measured against (experiment `EXP-AGG-OPT` in `DESIGN.md`), and its
//! monotonicity properties (paper §4.2) are verified here as tests because
//! the correctness of the streaming algorithms rests on them.
//!
//! We use the *at-most-B-buckets* convention: allowing fewer buckets never
//! increases SSE, so the returned histogram has `min(B, n)` or fewer buckets
//! and its SSE equals the classical exactly-B formulation whenever `n >= B`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod dp;

pub use brute::brute_force_optimal;
pub use dp::{herror_table, optimal_histogram, optimal_sse};
