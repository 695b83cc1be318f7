//! The benchmark's input stream, built from `streamhist-data`'s public
//! generators.
//!
//! `streamhist_data::utilization_trace` is a diurnal baseline plus an
//! AR(1) fluctuation plus heavy-tailed bursts plus a `LevelShift` random
//! walk. Two of those components make a poor benchmark input:
//!
//! * the level-shift walk is not stationary: it drifts into the clamp at
//!   0, and once a window goes flat a histogram build costs almost
//!   nothing, so a run measures where the walk happened to be rather than
//!   the program;
//! * the bursts have Pareto(1.3) magnitudes — infinite variance — so how
//!   much kernel work a window costs depends on which seed drew the
//!   largest burst (over ten seeds the mean HERROR evaluations per build
//!   of a 512-point window ranged 14% with the bursts and 5% without).
//!
//! This stream keeps the diurnal baseline and the AR(1) fluctuation with
//! the trace's own parameters: a stationary process whose cost per build
//! does not depend on stream position or seed. [`zero_share`] reports how
//! much of an input sits on the clamp.

use streamhist_data::{collect, integerize, Ar1, Diurnal, Mixture};

/// Values generated per chunk: the generator never materializes more than
/// this many values at once beyond the requested pool.
pub const CHUNK: usize = 4096;

/// The infinite stationary stream for `seed` (values before clamping).
fn stream(seed: u64) -> Mixture {
    Mixture::new(vec![
        Box::new(Diurnal::new(seed ^ 0x9e37_79b9, 2000.0, 800.0, 4096, 50.0)),
        Box::new(Ar1::new(seed ^ 0x7f4a_7c15, 0.95, 0.0, 120.0)),
    ])
}

/// The first `len` values of the stream for `seed`, integerized to
/// non-negative integers (the paper's value model), generated in
/// [`CHUNK`]-sized pieces. The same seed always gives the same values.
#[must_use]
pub fn pool(seed: u64, len: usize) -> Vec<f64> {
    let mut gen = stream(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let n = CHUNK.min(len - out.len());
        out.extend(integerize(collect(gen.by_ref(), n), 0.0, f64::MAX));
    }
    out
}

/// Share of `values` equal to 0 — the clamp a drifting generator piles
/// into.
#[must_use]
pub fn zero_share(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v == 0.0).count() as f64 / values.len() as f64
}

/// Cycles through a pool: `take(n)` hands out the next `n` values, wrapping
/// at the end. Workloads that need more values than a pool holds reuse it
/// rather than grow it, so the input's memory stays bounded.
#[derive(Debug)]
pub struct Cycle<'a> {
    pool: &'a [f64],
    at: usize,
}

impl<'a> Cycle<'a> {
    /// A cursor at the start of `pool`.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool.
    #[must_use]
    pub fn new(pool: &'a [f64]) -> Self {
        assert!(!pool.is_empty(), "empty input pool");
        Self { pool, at: 0 }
    }

    /// The next value.
    pub fn next_value(&mut self) -> f64 {
        let v = self.pool[self.at];
        self.at = (self.at + 1) % self.pool.len();
        v
    }

    /// The next `n` values.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_value()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_chunk_independent() {
        let a = pool(7, CHUNK * 2 + 5);
        assert_eq!(a, pool(7, CHUNK * 2 + 5));
        assert_ne!(a, pool(8, CHUNK * 2 + 5));
        // A shorter pool is a prefix of a longer one.
        assert_eq!(&a[..100], &pool(7, 100)[..]);
    }

    #[test]
    fn stream_stays_off_the_clamp() {
        // The level-shift walk this stream leaves out sends whole blocks
        // of utilization_trace to 0; the stationary mixture must not.
        for seed in [1, 7, 42] {
            let v = pool(seed, 1 << 18);
            for block in v.chunks(1 << 15) {
                assert!(zero_share(block) < 0.01, "seed {seed}: block at the clamp");
            }
        }
    }
}
