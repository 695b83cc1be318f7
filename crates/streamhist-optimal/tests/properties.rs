//! Property tests for the optimal construction: DP-vs-brute-force
//! agreement, the §4.2 monotonicity observations the streaming
//! algorithms rest on, and structural soundness.

use proptest::prelude::*;
use streamhist_optimal::{brute_force_optimal, herror_table, optimal_histogram, optimal_sse};

fn data_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50..50i64, 1..max_len)
        .prop_map(|v| v.into_iter().map(|x| x as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sse_dp_matches_brute(data in data_strategy(12), b in 1usize..5) {
        let dp = optimal_histogram(&data, b);
        let brute = brute_force_optimal(&data, b);
        prop_assert!((dp.sse(&data) - brute.sse(&data)).abs() < 1e-9);
        prop_assert!((optimal_sse(&data, b) - dp.sse(&data)).abs() < 1e-9);
    }

    /// Paper §4.2: HERROR[i, k] is non-decreasing in i and non-increasing
    /// in k — the monotonicity both streaming algorithms rely on.
    #[test]
    fn herror_monotonicity(data in data_strategy(30), b in 2usize..5) {
        let table = herror_table(&data, b);
        for row in &table {
            for w in row.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-9);
            }
        }
        for j in 0..data.len() {
            for k in 1..table.len() {
                prop_assert!(table[k][j] <= table[k - 1][j] + 1e-9);
            }
        }
    }

    /// The construction respects the bucket budget and tiles the domain
    /// (structural soundness on arbitrary inputs).
    #[test]
    fn constructions_are_structurally_sound(data in data_strategy(25), b in 1usize..6) {
        let h = optimal_histogram(&data, b);
        prop_assert!(h.num_buckets() <= b);
        prop_assert_eq!(h.domain_len(), data.len());
        let mut covered = 0usize;
        for bk in h.buckets() {
            prop_assert_eq!(bk.start, covered);
            covered = bk.end + 1;
        }
        prop_assert_eq!(covered, data.len());
    }
}
