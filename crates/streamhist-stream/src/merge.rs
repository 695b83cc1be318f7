//! Exact run-level histogram merge — the gather half of scatter/gather.
//!
//! `MergeableSummary for Histogram` (streamhist-core) concatenates bucket
//! lists exactly but lets the bucket count grow to the sum of the parts.
//! [`merge_histograms`] finishes the job: it concatenates the parts and
//! re-optimizes the result back down to a `B`-bucket V-optimal histogram,
//! so a gathered fleet-global snapshot has the same shape and budget as
//! any per-shard one.
//!
//! # Why the merge is exact and cheap (DESIGN.md §7)
//!
//! The concatenation's expansion `û` is piecewise constant: each of its
//! `m` buckets is one constant run. Sliding one bucket boundary through a
//! run of value `v` (every other boundary fixed) changes each adjacent
//! bucket's SSE concavely — its derivative is `(v − μ)²` and the bucket
//! mean `μ` moves toward `v` — so some optimal `B`-histogram of `û` has
//! every boundary at a run end. The paper's exact V-optimal DP (§3) over
//! the `m` runs therefore returns `OPT_B(û)` itself, in `O(m²·B)` time
//! with `m ≤ Σ parts' buckets`, instead of expanding `û` and running the
//! `(1+ε)` kernel over its points.
//!
//! # Error composition (proved in DESIGN.md §7)
//!
//! Let `u` be the true concatenated window, `ĥᵢ` the per-part histograms
//! with gather term `G = Σᵢ SSE(ĥᵢ, partᵢ)`, and `h` the merged output.
//! By the L2 triangle inequality and `SSE(h, û) = OPT_B(û)`:
//!
//! ```text
//! √SSE(h, u)  <=  √G + √OPT_B(û)  <=  √G + (√G + √OPT_B(u))
//! ```
//!
//! which sits inside the documented `√G + √(1+ε) · (√G + √OPT_B(u))`:
//! the merge pays the per-part error twice (once as input noise, once
//! inside the re-optimization) — merges are cheap but never free.

// The DP indexes parallel prefix arrays by run boundary; iterator
// rewrites obscure the recurrence.
#![allow(clippy::needless_range_loop)]

use crate::kernel::KernelStats;
use streamhist_core::{Bucket, Histogram, MergeableSummary, StreamhistError};

/// Merges `parts` (per-shard / per-partition histograms, in stream order)
/// into one `b`-bucket histogram over the concatenated domain: the exact
/// V-optimal histogram of the concatenation's expansion `û`, computed by
/// the DP over its constant runs. Returns the histogram plus the DP's
/// work record: `herror` is `OPT_B(û)` and `herror_evals` counts DP
/// transitions.
///
/// Parts with empty domains contribute nothing; if every part is empty
/// the result is the empty histogram. A concatenation already within
/// `b` buckets is returned as is (it is exact relative to the parts).
/// `eps` is the fleet's approximation parameter; the exact merge needs
/// none, but it is validated so every merge caller states a valid one.
///
/// # Errors
///
/// [`StreamhistError::InvalidParameter`] if `parts` is empty, `b == 0`,
/// or `eps` is not positive.
pub fn merge_histograms(
    parts: &[&Histogram],
    b: usize,
    eps: f64,
) -> Result<(Histogram, KernelStats), StreamhistError> {
    if parts.is_empty() {
        return Err(StreamhistError::InvalidParameter {
            param: "parts",
            message: "merge needs at least one histogram",
        });
    }
    if b == 0 {
        return Err(StreamhistError::InvalidParameter {
            param: "b",
            message: "need at least one bucket",
        });
    }
    if eps.is_nan() || eps <= 0.0 {
        return Err(StreamhistError::InvalidParameter {
            param: "eps",
            message: "eps must be positive",
        });
    }
    let mut concat = parts[0].clone();
    for part in &parts[1..] {
        concat.merge_from(part)?;
    }
    if concat.num_buckets() <= b {
        // Already within budget (or empty): the concatenation itself is
        // the answer, exact relative to the parts.
        return Ok((concat, KernelStats::default()));
    }
    Ok(optimal_over_runs(concat.domain_len(), concat.buckets(), b))
}

/// The exact `O(m²·b)` V-optimal DP over `runs`, the `m > b` constant
/// runs covering `[0, domain_len)`, with bucket boundaries restricted to
/// run ends (which loses nothing, see the module docs). Same recurrence
/// and back-pointer shape as `streamhist-optimal`'s `optimal_histogram`,
/// with one run standing in for one point.
fn optimal_over_runs(domain_len: usize, runs: &[Bucket], b: usize) -> (Histogram, KernelStats) {
    let m = runs.len();
    // Prefix (count, sum, sqsum) over runs, centred on the overall mean:
    // SSE is shift-invariant, and centring keeps `sqsum − sum²/count`
    // from cancelling catastrophically on large, flat values.
    let shift = runs.iter().map(Bucket::sum).sum::<f64>() / domain_len as f64;
    let mut count = vec![0.0f64; m + 1];
    let mut sum = vec![0.0f64; m + 1];
    let mut sqsum = vec![0.0f64; m + 1];
    for (r, run) in runs.iter().enumerate() {
        let len = run.len() as f64;
        let v = run.height - shift;
        count[r + 1] = count[r] + len;
        sum[r + 1] = sum[r] + v * len;
        sqsum[r + 1] = sqsum[r] + v * v * len;
    }
    // SSE of one bucket over runs[i..j].
    let sqerror = |i: usize, j: usize| {
        let s = sum[j] - sum[i];
        (sqsum[j] - sqsum[i] - s * s / (count[j] - count[i])).max(0.0)
    };

    // err[j] = min SSE of runs[0..j] with at most k+1 buckets;
    // back[k][j] = first run of that solution's last bucket.
    let mut err: Vec<f64> = (0..=m)
        .map(|j| if j == 0 { 0.0 } else { sqerror(0, j) })
        .collect();
    let mut next = vec![0.0f64; m + 1];
    let mut back = vec![vec![0usize; m + 1]; b];
    let mut evals = 0usize;
    for k in 1..b {
        for j in 1..=m {
            // Using fewer buckets is always allowed (at-most semantics):
            // the inherited solution keeps level k-1's back-pointer.
            let mut best = err[j];
            let mut best_i = back[k - 1][j];
            for i in 1..j {
                let cand = err[i] + sqerror(i, j);
                if cand < best {
                    best = cand;
                    best_i = i;
                }
            }
            evals += j - 1;
            next[j] = best;
            back[k][j] = best_i;
        }
        std::mem::swap(&mut err, &mut next);
    }

    // Walk the back-pointers from (b-1, m) to recover run boundaries.
    let mut starts = Vec::with_capacity(b);
    let (mut j, mut k) = (m, b - 1);
    loop {
        let i = back[k][j];
        starts.push(i);
        if i == 0 {
            break;
        }
        j = i;
        k = k.saturating_sub(1);
    }
    starts.reverse();
    let buckets = starts
        .iter()
        .zip(starts.iter().skip(1).copied().chain([m]))
        .map(|(&i, j)| {
            let covered = &runs[i..j];
            // Running weighted mean: exact for a single run or equal
            // heights, where a sum-then-divide could round.
            let (mut mean, mut len) = (covered[0].height, covered[0].len());
            for run in &covered[1..] {
                len += run.len();
                mean += (run.height - mean) * run.len() as f64 / len as f64;
            }
            Bucket::new(covered[0].start, covered[covered.len() - 1].end, mean)
        })
        .collect();
    let hist = Histogram::new(domain_len, buckets).expect("run boundaries tile the domain");
    let stats = KernelStats {
        herror: err[m],
        herror_evals: evals,
        ..KernelStats::default()
    };
    (hist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamhist_core::sum_squared_error;

    #[test]
    fn rejects_bad_parameters() {
        let h = Histogram::from_bucket_ends(&[1.0, 2.0], &[1]);
        for (parts, b, eps, param) in [
            (vec![], 4, 0.1, "parts"),
            (vec![&h], 0, 0.1, "b"),
            (vec![&h], 4, 0.0, "eps"),
            (vec![&h], 4, f64::NAN, "eps"),
        ] {
            let err = merge_histograms(&parts, b, eps).expect_err("invalid");
            assert!(
                matches!(err, StreamhistError::InvalidParameter { param: p, .. } if p == param),
                "expected rejection on {param}"
            );
        }
    }

    #[test]
    fn within_budget_concatenation_is_exact() {
        let a = Histogram::from_bucket_ends(&[1.0, 1.0], &[1]);
        let b = Histogram::from_bucket_ends(&[9.0, 9.0, 9.0], &[2]);
        let (h, stats) = merge_histograms(&[&a, &b], 4, 0.1).expect("valid");
        assert_eq!(h.num_buckets(), 2);
        assert_eq!(h.expand(), vec![1.0, 1.0, 9.0, 9.0, 9.0]);
        assert_eq!(stats.herror, 0.0);
    }

    #[test]
    fn reoptimizes_piecewise_constant_parts_without_loss() {
        // Three exact parts, each one constant run; merged under B = 3 the
        // kernel must find the three run boundaries exactly.
        let parts_data: [&[f64]; 3] = [&[5.0; 4], &[9.0; 3], &[2.0; 5]];
        let parts: Vec<Histogram> = parts_data
            .iter()
            .map(|d| Histogram::from_bucket_ends(d, &[d.len() - 1]))
            .collect();
        let refs: Vec<&Histogram> = parts.iter().collect();
        let (h, _) = merge_histograms(&refs, 3, 0.1).expect("valid");
        assert_eq!(h.bucket_ends(), vec![3, 6, 11]);
        let whole: Vec<f64> = parts_data.iter().flat_map(|d| d.iter().copied()).collect();
        assert_eq!(h.sse(&whole), 0.0);
    }

    #[test]
    fn merged_error_respects_the_documented_bound() {
        // Parts summarized lossily (B=2 over non-constant data), merged to
        // B = 4: check sqrt(SSE) <= sqrt(G) + sqrt(1+eps)(sqrt(G) +
        // sqrt(OPT)) with OPT conservatively lower-bounded by 0.
        let data: Vec<f64> = (0..64).map(|i| ((i * 13 + 5) % 23) as f64).collect();
        let eps = 0.1;
        let mut parts = Vec::new();
        let mut gather = 0.0;
        for chunk in data.chunks(16) {
            let h = crate::approx_histogram(chunk, 2, eps);
            gather += h.sse(chunk);
            parts.push(h);
        }
        let refs: Vec<&Histogram> = parts.iter().collect();
        let (h, _) = merge_histograms(&refs, 4, eps).expect("valid");
        let sse = sum_squared_error(&data, &h.expand());
        // OPT_4(data) <= SSE of any 4-bucket histogram; use the offline
        // approximation as an upper bound on (1+eps) * OPT.
        let opt_upper = crate::approx_histogram(&data, 4, eps).sse(&data);
        let bound = gather.sqrt() + (1.0 + eps).sqrt() * (gather.sqrt() + opt_upper.sqrt());
        assert!(
            sse.sqrt() <= bound + 1e-9,
            "sqrt(SSE) {} > bound {}",
            sse.sqrt(),
            bound
        );
    }

    #[test]
    fn error_splits_into_gather_term_plus_merge_herror() {
        // Part heights are bucket means of the true data and the merge
        // cuts only at run ends, so SSE(h, u) = OPT_B(û) + G exactly.
        let data: Vec<f64> = (0..96).map(|i| ((i * 29 + 7) % 31) as f64).collect();
        let mut parts = Vec::new();
        let mut gather = 0.0;
        for chunk in data.chunks(24) {
            let h = crate::approx_histogram(chunk, 3, 0.1);
            gather += h.sse(chunk);
            parts.push(h);
        }
        let refs: Vec<&Histogram> = parts.iter().collect();
        let (h, stats) = merge_histograms(&refs, 5, 0.1).expect("valid");
        let split = stats.herror + gather;
        assert!(
            (h.sse(&data) - split).abs() <= 1e-9 * split,
            "SSE {} != OPT_B(û) + G = {}",
            h.sse(&data),
            split
        );
    }

    #[test]
    fn empty_parts_merge_to_empty() {
        let e = Histogram::from_bucket_ends(&[], &[]);
        let (h, _) = merge_histograms(&[&e, &e], 3, 0.1).expect("valid");
        assert_eq!(h.domain_len(), 0);
        assert_eq!(h.num_buckets(), 0);
    }
}
