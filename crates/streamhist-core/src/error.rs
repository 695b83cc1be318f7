//! Sequence-level error metrics between a data sequence and its
//! approximation, and the workspace's ingestion error type.
//!
//! The paper's construction algorithms minimize the Sum-Squared-Error (SSE,
//! Eq. 1); the evaluation section additionally reports query-level errors
//! (see [`crate::eval`]). These helpers compare any reconstructed sequence
//! against the raw one and are used throughout the workspace's tests and
//! harnesses.
//!
//! [`StreamhistError`] is the recoverable counterpart to the ingestion
//! asserts: every summary's `push`/`push_at` has a `try_` variant that
//! reports malformed input instead of panicking, which is what lets a
//! serving deployment (the sharded layer in `streamhist-stream`)
//! count-and-reject bad records rather than lose a worker.

use crate::codec::DecodeError;
use std::fmt;

/// A recoverable ingestion error: the record was rejected, the summary is
/// unchanged and remains fully usable.
///
/// Returned by the `try_push`/`try_push_at` entry points of the streaming
/// summaries; the panicking `push`/`push_at` wrappers turn it into a panic
/// with the same message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamhistError {
    /// The value was NaN or infinite. Accepting it would silently corrupt
    /// the prefix sums and every later answer, so it is rejected up front.
    NonFiniteValue {
        /// The offending value.
        value: f64,
    },
    /// A timestamp moved backwards in a time-windowed summary, which only
    /// supports in-order (non-decreasing) arrival.
    NonMonotonicTimestamp {
        /// The rejected timestamp.
        ts: u64,
        /// The latest timestamp previously observed.
        now: u64,
    },
    /// A constructor/builder parameter is outside its valid domain. The
    /// builders return this instead of panicking; the legacy positional
    /// constructors panic with the same message.
    InvalidParameter {
        /// Which parameter was rejected (`"b"`, `"eps"`, `"capacity"`, ...).
        param: &'static str,
        /// Why it was rejected.
        message: &'static str,
    },
    /// A bounded structure (a fixed-length wavelet array, for example) has
    /// no room for another value.
    CapacityExhausted {
        /// The structure's fixed capacity.
        capacity: usize,
    },
    /// A query is malformed for the domain it was evaluated against: an
    /// inverted range (`end < start`) or an index past the end of the
    /// summarized sequence. Returned by [`crate::Query::validate`] and the
    /// `try_exact`/`try_estimate` evaluators — a network front-end turns
    /// this into an error frame instead of letting `end - start + 1`
    /// underflow.
    InvalidQuery {
        /// What the validator tripped on.
        reason: &'static str,
    },
    /// A checkpoint frame failed validation: truncated, checksum mismatch,
    /// wrong type tag, or a payload violating the summary's invariants.
    /// The frame is rejected whole; nothing is partially restored.
    CorruptCheckpoint {
        /// What the validator tripped on.
        reason: &'static str,
    },
    /// A histogram wire decode failed (see [`crate::codec::decode`]).
    /// Wraps [`DecodeError`] so checkpoint/serving callers handle one
    /// error type end to end.
    Decode(DecodeError),
}

impl From<DecodeError> for StreamhistError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

impl fmt::Display for StreamhistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteValue { value } => {
                write!(f, "stream values must be finite (got {value})")
            }
            Self::NonMonotonicTimestamp { ts, now } => {
                write!(f, "timestamps must be non-decreasing ({ts} < {now})")
            }
            Self::InvalidParameter { param, message } => {
                write!(f, "invalid parameter `{param}`: {message}")
            }
            Self::CapacityExhausted { capacity } => {
                write!(f, "summary capacity exhausted ({capacity} values)")
            }
            Self::InvalidQuery { reason } => {
                write!(f, "invalid query: {reason}")
            }
            Self::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint frame: {reason}")
            }
            Self::Decode(e) => write!(f, "histogram decode failed: {e}"),
        }
    }
}

impl std::error::Error for StreamhistError {}

/// Sum of squared differences `Σ (data[i] − approx[i])²`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn sum_squared_error(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len(), "sequences must have equal length");
    data.iter()
        .zip(approx)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Sum of absolute differences `Σ |data[i] − approx[i]|`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn sum_abs_error(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len(), "sequences must have equal length");
    data.iter().zip(approx).map(|(a, b)| (a - b).abs()).sum()
}

/// Maximum absolute difference `max |data[i] − approx[i]|` (0 for empty
/// input). The paper notes in §3 footnote 3 that its results hold for any
/// point-wise additive error; max-error is the common alternative.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn max_abs_error(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len(), "sequences must have equal length");
    data.iter()
        .zip(approx)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse_basic() {
        assert_eq!(sum_squared_error(&[1.0, 2.0], &[1.0, 4.0]), 4.0);
        assert_eq!(sum_squared_error(&[], &[]), 0.0);
    }

    #[test]
    fn sae_basic() {
        assert_eq!(sum_abs_error(&[1.0, 2.0, 3.0], &[2.0, 0.0, 3.0]), 3.0);
    }

    #[test]
    fn max_abs_basic() {
        assert_eq!(max_abs_error(&[1.0, 2.0, 3.0], &[2.0, -1.0, 3.0]), 3.0);
        assert_eq!(max_abs_error(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn sse_length_mismatch_panics() {
        let _ = sum_squared_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn streamhist_error_messages_name_the_violation() {
        let nan = StreamhistError::NonFiniteValue { value: f64::NAN };
        assert!(nan.to_string().contains("finite"));
        let back = StreamhistError::NonMonotonicTimestamp { ts: 3, now: 9 };
        assert!(back.to_string().contains("non-decreasing"));
        assert!(back.to_string().contains('3') && back.to_string().contains('9'));
        let bad = StreamhistError::InvalidParameter {
            param: "b",
            message: "need at least one bucket",
        };
        assert!(bad.to_string().contains("`b`"));
        assert!(bad.to_string().contains("need at least one bucket"));
        let full = StreamhistError::CapacityExhausted { capacity: 16 };
        assert!(full.to_string().contains("exhausted"));
        assert!(full.to_string().contains("16"));
        let corrupt = StreamhistError::CorruptCheckpoint {
            reason: "checksum mismatch",
        };
        assert!(corrupt.to_string().contains("checksum mismatch"));
        let decode: StreamhistError = DecodeError::BadHeader.into();
        assert_eq!(decode, StreamhistError::Decode(DecodeError::BadHeader));
        assert!(decode.to_string().contains("bad magic/version"));
    }
}
