//! Order statistics and process measurements.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 <= q <= 1`) of `values` by the nearest-rank rule,
/// or 0 for no values. Sorts a copy.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median of `values` (0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of the samples filed under `key` (0 when there are none).
#[must_use]
pub fn median_of(by_name: &BTreeMap<&str, Vec<f64>>, key: &str) -> f64 {
    by_name.get(key).map_or(0.0, |v| median(v))
}

/// The arithmetic mean of `values` (0 for none).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB, or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Length of one [`Timeline`] slice.
pub const SLICE: Duration = Duration::from_secs(2);

/// Samples each [`Timeline`] slice keeps.
pub const RESERVOIR: usize = 8192;

/// Latency samples of a measured phase, cut into slices of [`SLICE`] wall
/// time. Each slice keeps a uniform sample of at most [`RESERVOIR`] of its
/// latencies (reservoir sampling, allocated up front), so the benchmark's
/// own memory does not grow with throughput. Statistics are medians over
/// slices of a per-slice statistic: on a machine shared with other work,
/// an interference episode that covers fewer than half the slices does
/// not move them.
#[derive(Debug)]
pub struct Timeline {
    start: Instant,
    slices: Vec<Slice>,
    rng: u64,
}

#[derive(Debug)]
struct Slice {
    seen: u64,
    kept: Vec<f64>,
}

impl Timeline {
    /// A timeline for a phase of length `total` starting at `start`.
    #[must_use]
    pub fn new(start: Instant, total: Duration) -> Self {
        let n = (total.as_secs_f64() / SLICE.as_secs_f64()).round().max(1.0) as usize;
        Self {
            start,
            slices: (0..n)
                .map(|_| Slice {
                    seen: 0,
                    kept: Vec::with_capacity(RESERVOIR),
                })
                .collect(),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Files one latency sample of an operation that completed at `at`.
    pub fn record(&mut self, at: Instant, value: f64) {
        let idx =
            (at.saturating_duration_since(self.start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        let last = self.slices.len() - 1;
        let slice = &mut self.slices[idx.min(last)];
        slice.seen += 1;
        if slice.kept.len() < RESERVOIR {
            slice.kept.push(value);
        } else {
            // xorshift64: a fixed-seed generator keeps runs reproducible.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let j = self.rng % slice.seen;
            if let Ok(j) = usize::try_from(j) {
                if j < RESERVOIR {
                    slice.kept[j] = value;
                }
            }
        }
    }

    /// The `q`-quantile: the median over slices of each slice's
    /// `q`-quantile when every slice holds at least ten samples beyond it,
    /// otherwise the quantile of all kept samples together.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q).max(1e-9)).ceil() as usize;
        if self.slices.iter().all(|s| s.kept.len() >= need) {
            let per: Vec<f64> = self.slices.iter().map(|s| quantile(&s.kept, q)).collect();
            median(&per)
        } else {
            let all: Vec<f64> = self
                .slices
                .iter()
                .flat_map(|s| s.kept.iter().copied())
                .collect();
            quantile(&all, q)
        }
    }

    /// Median over slices of operations completed per second.
    #[must_use]
    pub fn rate_per_s(&self) -> f64 {
        let secs = SLICE.as_secs_f64();
        let rates: Vec<f64> = self.slices.iter().map(|s| s.seen as f64 / secs).collect();
        median(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn timeline_takes_medians_over_slices() {
        let start = Instant::now();
        let mut t = Timeline::new(start, SLICE * 3);
        // Slice 0 is disturbed (slow); slices 1 and 2 are not.
        for (slice, value, n) in [(0u32, 100.0, 40), (1, 1.0, 50), (2, 1.0, 60)] {
            for _ in 0..n {
                t.record(start + SLICE * slice, value);
            }
        }
        assert_eq!(t.quantile(0.5), 1.0);
        assert_eq!(t.rate_per_s(), 50.0 / SLICE.as_secs_f64());
        // Too few samples per slice for a p99: all samples together.
        assert_eq!(t.quantile(0.99), 100.0);
    }

    #[test]
    fn timeline_memory_is_bounded() {
        let start = Instant::now();
        let mut t = Timeline::new(start, SLICE);
        for i in 0..(RESERVOIR * 4) {
            t.record(start, i as f64);
        }
        assert_eq!(t.slices[0].kept.len(), RESERVOIR);
        assert_eq!(t.slices[0].seen, (RESERVOIR * 4) as u64);
        // A uniform sample of 0..4R has its median near 2R.
        let m = t.quantile(0.5) / (RESERVOIR * 4) as f64;
        assert!((0.4..0.6).contains(&m), "median share {m}");
    }
}
