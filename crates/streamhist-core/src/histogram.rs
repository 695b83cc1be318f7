//! The histogram representation `H_B` and its query estimators.

use crate::bucket::Bucket;
use crate::checkpoint::{tag, Checkpoint, FrameReader, FrameWriter};
use crate::error::StreamhistError;
use crate::prefix::PrefixSums;
use crate::summary::MergeableSummary;
use std::fmt;

/// Errors produced when assembling a [`Histogram`] from buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// The bucket list was empty but the domain is non-empty.
    Empty,
    /// The first bucket does not start at index 0.
    DoesNotStartAtZero {
        /// Actual start of the first bucket.
        start: usize,
    },
    /// Two consecutive buckets leave a gap or overlap.
    NotContiguous {
        /// End of the earlier bucket.
        prev_end: usize,
        /// Start of the later bucket.
        next_start: usize,
    },
    /// The last bucket does not end at `domain_len - 1`.
    DomainMismatch {
        /// End of the last bucket.
        last_end: usize,
        /// Expected domain length.
        domain_len: usize,
    },
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "histogram over a non-empty domain needs >= 1 bucket"),
            Self::DoesNotStartAtZero { start } => {
                write!(f, "first bucket starts at {start}, expected 0")
            }
            Self::NotContiguous {
                prev_end,
                next_start,
            } => write!(
                f,
                "buckets not contiguous: previous ends at {prev_end}, next starts at {next_start}"
            ),
            Self::DomainMismatch {
                last_end,
                domain_len,
            } => write!(
                f,
                "last bucket ends at {last_end} but the domain has length {domain_len}"
            ),
        }
    }
}

impl std::error::Error for HistogramError {}

/// A piecewise-constant approximation of a sequence of `domain_len` values
/// using `B` contiguous [`Bucket`]s that tile `[0, domain_len)`.
///
/// This is the representation `H_B` of the paper's §3: the answer object
/// produced by every construction algorithm in the workspace (optimal DP,
/// offline ε-approximation, agglomerative streaming, fixed-window streaming)
/// and consumed by the query layer.
///
/// # Example
///
/// ```
/// use streamhist_core::Histogram;
///
/// let data = [1.0, 1.0, 8.0, 8.0, 8.0, 2.0];
/// let h = Histogram::from_bucket_ends(&data, &[1, 4, 5]);
/// assert_eq!(h.num_buckets(), 3);
/// assert_eq!(h.point(3), 8.0);             // bucket mean
/// assert_eq!(h.range_sum(0, 5), 28.0);     // whole-domain sums are exact
/// assert_eq!(h.sse(&data), 0.0);           // boundaries match the runs
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    domain_len: usize,
    buckets: Vec<Bucket>,
}

impl Histogram {
    /// Builds a histogram from buckets, validating the structural invariants:
    /// buckets are contiguous, non-overlapping, start at 0 and end at
    /// `domain_len - 1`.
    pub fn new(domain_len: usize, buckets: Vec<Bucket>) -> Result<Self, HistogramError> {
        if domain_len == 0 {
            return Ok(Self {
                domain_len,
                buckets: Vec::new(),
            });
        }
        let first = buckets.first().ok_or(HistogramError::Empty)?;
        if first.start != 0 {
            return Err(HistogramError::DoesNotStartAtZero { start: first.start });
        }
        for pair in buckets.windows(2) {
            if pair[1].start != pair[0].end + 1 {
                return Err(HistogramError::NotContiguous {
                    prev_end: pair[0].end,
                    next_start: pair[1].start,
                });
            }
        }
        let last_end = buckets.last().expect("non-empty").end;
        if last_end + 1 != domain_len {
            return Err(HistogramError::DomainMismatch {
                last_end,
                domain_len,
            });
        }
        Ok(Self {
            domain_len,
            buckets,
        })
    }

    /// Builds the histogram induced on `data` by bucket *end* boundaries.
    ///
    /// `ends` lists the inclusive end index of every bucket in increasing
    /// order; the last entry must be `data.len() - 1`. Bucket heights are the
    /// means of the covered values (the SSE-optimal representative).
    ///
    /// # Panics
    ///
    /// Panics if `ends` is empty for non-empty data, unsorted, or does not
    /// end at `data.len() - 1` — boundary lists are produced by construction
    /// algorithms, so a malformed list is a bug.
    #[must_use]
    pub fn from_bucket_ends(data: &[f64], ends: &[usize]) -> Self {
        if data.is_empty() {
            assert!(ends.is_empty(), "boundaries for empty data must be empty");
            return Self {
                domain_len: 0,
                buckets: Vec::new(),
            };
        }
        assert_eq!(
            *ends.last().expect("at least one bucket"),
            data.len() - 1,
            "last boundary must end the domain"
        );
        let prefix = PrefixSums::new(data);
        let mut buckets = Vec::with_capacity(ends.len());
        let mut start = 0usize;
        for &end in ends {
            assert!(
                start <= end,
                "bucket boundaries must be strictly increasing"
            );
            buckets.push(Bucket::new(start, end, prefix.mean(start, end)));
            start = end + 1;
        }
        Self {
            domain_len: data.len(),
            buckets,
        }
    }

    /// Builds the equi-width histogram of `data` with at most `b` buckets:
    /// bucket boundaries at (near-)equal index spacing, heights = means.
    ///
    /// The classical baseline that ignores the data distribution entirely;
    /// V-optimal construction exists precisely because this is suboptimal
    /// on non-uniform data.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` and `data` is non-empty.
    #[must_use]
    pub fn equi_width(data: &[f64], b: usize) -> Self {
        if data.is_empty() {
            return Self {
                domain_len: 0,
                buckets: Vec::new(),
            };
        }
        assert!(b > 0, "need at least one bucket for non-empty data");
        let n = data.len();
        let b = b.min(n);
        let ends: Vec<usize> = (1..=b).map(|k| k * n / b - 1).collect();
        Self::from_bucket_ends(data, &ends)
    }

    /// Number of values the histogram approximates.
    #[must_use]
    pub fn domain_len(&self) -> usize {
        self.domain_len
    }

    /// Number of buckets `B` used.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The buckets, in increasing index order.
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Index of the bucket containing `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= domain_len`.
    #[must_use]
    pub fn bucket_index_of(&self, idx: usize) -> usize {
        assert!(
            idx < self.domain_len,
            "index {idx} out of domain {}",
            self.domain_len
        );
        self.buckets.partition_point(|b| b.end < idx)
    }

    /// Point estimate: the height of the bucket containing `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= domain_len`.
    #[must_use]
    pub fn point(&self, idx: usize) -> f64 {
        self.buckets[self.bucket_index_of(idx)].height
    }

    /// Range-sum estimate over the inclusive index range `[start, end]`:
    /// the sum of `height * overlap` across intersecting buckets. This is
    /// the estimator used for the paper's §5.1 "range sum queries".
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end >= domain_len`.
    #[must_use]
    pub fn range_sum(&self, start: usize, end: usize) -> f64 {
        assert!(start <= end, "range start {start} > end {end}");
        assert!(
            end < self.domain_len,
            "range end {end} out of domain {}",
            self.domain_len
        );
        let first = self.bucket_index_of(start);
        let mut total = 0.0;
        for b in &self.buckets[first..] {
            if b.start > end {
                break;
            }
            total += b.partial_sum(start, end);
        }
        total
    }

    /// Range-average estimate over `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end >= domain_len`.
    #[must_use]
    pub fn range_avg(&self, start: usize, end: usize) -> f64 {
        self.range_sum(start, end) / (end - start + 1) as f64
    }

    /// Total sum-squared-error of the approximation against `data`
    /// (`E_X(H_B)` of the paper, Eq. 1 summed over buckets).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != domain_len`.
    #[must_use]
    pub fn sse(&self, data: &[f64]) -> f64 {
        assert_eq!(
            data.len(),
            self.domain_len,
            "data length must match the domain"
        );
        self.buckets.iter().map(|b| b.sse(data)).sum()
    }

    /// Reconstructs the full approximated sequence (each index replaced by
    /// its bucket height). Useful for testing and for error metrics defined
    /// on raw sequences.
    #[must_use]
    pub fn expand(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.domain_len);
        for b in &self.buckets {
            out.extend(std::iter::repeat_n(b.height, b.len()));
        }
        out
    }

    /// The inclusive end index of every bucket, in order. The inverse of
    /// [`Histogram::from_bucket_ends`].
    #[must_use]
    pub fn bucket_ends(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.end).collect()
    }
}

/// Exact concatenation: `a.merge_from(&b)` appends `b`'s buckets after
/// `a`'s, shifting their indices by `a`'s domain length. The result is the
/// histogram of the concatenated sequence `a ++ b` with **no** information
/// loss (the bucket count grows to `a.B + b.B`; re-optimizing the merged
/// bucket list back down to a budget `B` is the job of the exact run-level
/// `merge_histograms` in `streamhist-stream`, see DESIGN.md §7).
///
/// `Histogram` carries no tunable configuration, so merging never rejects:
/// any two histograms (including empty-domain ones) concatenate.
impl MergeableSummary for Histogram {
    fn merge_from(&mut self, other: &Self) -> Result<(), StreamhistError> {
        let offset = self.domain_len;
        self.buckets.extend(
            other
                .buckets
                .iter()
                .map(|b| Bucket::new(b.start + offset, b.end + offset, b.height)),
        );
        self.domain_len += other.domain_len;
        Ok(())
    }
}

/// Frame layout (after the shared header, see [`crate::checkpoint`]):
///
/// ```text
/// domain_len   varint
/// num_buckets  varint   (count-checked: >= 10 payload bytes per bucket)
/// buckets      num_buckets x { start varint, end varint, height f64-le }
/// ```
///
/// Restore re-validates every structural invariant through
/// [`Histogram::new`], so a corrupted payload that happens to pass the CRC
/// still cannot materialize a malformed histogram.
impl Checkpoint for Histogram {
    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::HISTOGRAM);
        w.put_usize(self.domain_len);
        w.put_usize(self.buckets.len());
        for b in &self.buckets {
            w.put_usize(b.start);
            w.put_usize(b.end);
            w.put_f64(b.height);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, StreamhistError> {
        let mut r = FrameReader::open(bytes, tag::HISTOGRAM)?;
        let domain_len = r.get_usize()?;
        let num_buckets = r.get_count(10)?;
        let mut buckets = Vec::with_capacity(num_buckets);
        for _ in 0..num_buckets {
            let start = r.get_usize()?;
            let end = r.get_usize()?;
            let height = r.get_f64()?;
            if start > end {
                return Err(StreamhistError::CorruptCheckpoint {
                    reason: "bucket start exceeds its end",
                });
            }
            buckets.push(Bucket::new(start, end, height));
        }
        r.finish()?;
        Histogram::new(domain_len, buckets).map_err(|_| StreamhistError::CorruptCheckpoint {
            reason: "bucket list violates histogram invariants",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Histogram {
        Histogram::new(
            6,
            vec![
                Bucket::new(0, 1, 1.0),
                Bucket::new(2, 4, 3.0),
                Bucket::new(5, 5, 10.0),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn new_validates_contiguity() {
        let err = Histogram::new(4, vec![Bucket::new(0, 1, 0.0), Bucket::new(3, 3, 0.0)])
            .expect_err("gap");
        assert_eq!(
            err,
            HistogramError::NotContiguous {
                prev_end: 1,
                next_start: 3
            }
        );
    }

    #[test]
    fn new_validates_start_and_end() {
        assert_eq!(
            Histogram::new(3, vec![Bucket::new(1, 2, 0.0)]).expect_err("start"),
            HistogramError::DoesNotStartAtZero { start: 1 }
        );
        assert_eq!(
            Histogram::new(4, vec![Bucket::new(0, 2, 0.0)]).expect_err("end"),
            HistogramError::DomainMismatch {
                last_end: 2,
                domain_len: 4
            }
        );
        assert_eq!(
            Histogram::new(2, vec![]).expect_err("empty"),
            HistogramError::Empty
        );
    }

    #[test]
    fn empty_domain_is_allowed() {
        let h = Histogram::new(0, vec![]).expect("empty domain");
        assert_eq!(h.domain_len(), 0);
        assert_eq!(h.num_buckets(), 0);
        assert!(h.expand().is_empty());
    }

    #[test]
    fn point_returns_containing_bucket_height() {
        let h = simple();
        assert_eq!(h.point(0), 1.0);
        assert_eq!(h.point(1), 1.0);
        assert_eq!(h.point(2), 3.0);
        assert_eq!(h.point(4), 3.0);
        assert_eq!(h.point(5), 10.0);
    }

    #[test]
    fn range_sum_spans_buckets() {
        let h = simple();
        // [1, 3]: one index of height 1 + two of height 3 = 7
        assert_eq!(h.range_sum(1, 3), 7.0);
        // whole domain: 2*1 + 3*3 + 1*10 = 21
        assert_eq!(h.range_sum(0, 5), 21.0);
        // single point
        assert_eq!(h.range_sum(5, 5), 10.0);
    }

    #[test]
    fn range_avg_divides_by_span() {
        let h = simple();
        assert!((h.range_avg(1, 3) - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_bucket_ends_uses_means() {
        let data = [1.0, 3.0, 10.0, 20.0];
        let h = Histogram::from_bucket_ends(&data, &[1, 3]);
        assert_eq!(h.num_buckets(), 2);
        assert_eq!(h.buckets()[0].height, 2.0);
        assert_eq!(h.buckets()[1].height, 15.0);
        assert_eq!(h.bucket_ends(), vec![1, 3]);
    }

    #[test]
    fn sse_sums_bucket_errors() {
        let data = [1.0, 3.0, 10.0, 20.0];
        let h = Histogram::from_bucket_ends(&data, &[1, 3]);
        // bucket 0: (1-2)^2+(3-2)^2 = 2 ; bucket 1: (10-15)^2+(20-15)^2 = 50
        assert!((h.sse(&data) - 52.0).abs() < 1e-9);
    }

    #[test]
    fn expand_reconstructs_heights() {
        let h = simple();
        assert_eq!(h.expand(), vec![1.0, 1.0, 3.0, 3.0, 3.0, 10.0]);
    }

    #[test]
    fn equi_width_splits_evenly() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let h = Histogram::equi_width(&data, 3);
        assert_eq!(h.bucket_ends(), vec![3, 7, 11]);
        assert_eq!(h.buckets()[0].height, 1.5);
        // Non-divisible case still tiles the domain.
        let h = Histogram::equi_width(&data, 5);
        assert_eq!(h.num_buckets(), 5);
        assert_eq!(h.bucket_ends().last(), Some(&11));
        // b > n clamps; empty data allowed.
        assert_eq!(Histogram::equi_width(&data, 100).num_buckets(), 12);
        assert_eq!(Histogram::equi_width(&[], 3).domain_len(), 0);
    }

    #[test]
    fn bucket_index_of_boundaries() {
        let h = simple();
        assert_eq!(h.bucket_index_of(1), 0);
        assert_eq!(h.bucket_index_of(2), 1);
        assert_eq!(h.bucket_index_of(5), 2);
    }

    #[test]
    fn merge_from_concatenates_exactly() {
        let left = [1.0, 1.0, 5.0];
        let right = [2.0, 2.0];
        let mut a = Histogram::from_bucket_ends(&left, &[1, 2]);
        let b = Histogram::from_bucket_ends(&right, &[1]);
        a.merge_from(&b).expect("histograms always merge");
        assert_eq!(a.domain_len(), 5);
        assert_eq!(a.num_buckets(), 3);
        let whole: Vec<f64> = left.iter().chain(&right).copied().collect();
        assert_eq!(a.expand(), whole);
        assert_eq!(a.sse(&whole), 0.0);
    }

    #[test]
    fn merge_combinator_handles_empty_domains() {
        let a = Histogram::new(0, vec![]).expect("empty");
        let b = simple();
        let merged = Histogram::merge(&[&a, &b, &a]).expect("merge");
        assert_eq!(merged.domain_len(), 6);
        assert_eq!(merged.expand(), b.expand());
    }

    #[test]
    fn checkpoint_roundtrip_is_identical() {
        let h = simple();
        let bytes = h.encode_checkpoint();
        let restored = Histogram::restore(&bytes).expect("valid frame");
        assert_eq!(restored, h);
        let empty = Histogram::new(0, vec![]).expect("empty");
        let restored = Histogram::restore(&empty.encode_checkpoint()).expect("valid frame");
        assert_eq!(restored, empty);
    }

    #[test]
    fn checkpoint_rejects_invariant_violations() {
        // Hand-build a CRC-valid frame whose buckets leave a gap.
        let mut w = FrameWriter::new(tag::HISTOGRAM);
        w.put_usize(4);
        w.put_usize(2);
        w.put_usize(0);
        w.put_usize(1);
        w.put_f64(1.0);
        w.put_usize(3); // gap: previous ended at 1, this starts at 3
        w.put_usize(3);
        w.put_f64(2.0);
        let err = Histogram::restore(&w.finish()).expect_err("gap rejected");
        assert!(matches!(err, StreamhistError::CorruptCheckpoint { .. }));
        // start > end never reaches Bucket::new's panic.
        let mut w = FrameWriter::new(tag::HISTOGRAM);
        w.put_usize(1);
        w.put_usize(1);
        w.put_usize(1);
        w.put_usize(0);
        w.put_f64(1.0);
        let err = Histogram::restore(&w.finish()).expect_err("inverted rejected");
        assert!(matches!(err, StreamhistError::CorruptCheckpoint { .. }));
    }
}
