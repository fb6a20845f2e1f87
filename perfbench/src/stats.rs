//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is computed from its raw samples
//! (not from a bucketed histogram), so a value keeps all its digits.

/// Percentiles the tail helper considers, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending). The
/// nearest rank is `ceil(p / 100 · n)`, so p50 of `[1, 2]` is 1.
/// Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let exact = p / 100.0 * n as f64;
    // 99.9 % of 10 000 must be rank 9990, not the 9991 that binary
    // rounding (9990.000000000002) would give.
    let rank = if (exact - exact.round()).abs() < 1e-6 {
        exact.round()
    } else {
        exact.ceil()
    };
    Some((rank as usize).clamp(1, n))
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, as
/// `(percentile, value)`. `None` when even the median lacks them.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = nearest_rank(n, p)?;
        (n - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts samples in place and returns them as a summary source.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// p50, p99 and sum of a set of durations, in the unit they were given.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    pub p50: f64,
    pub p99: f64,
    pub sum: f64,
}

impl Dist {
    /// Summarises `values`; all zero when there are none.
    pub fn of(values: Vec<f64>) -> Dist {
        let sum = values.iter().sum();
        let s = sorted(values);
        Dist {
            p50: percentile(&s, 50.0).unwrap_or(0.0),
            p99: percentile(&s, 99.0).unwrap_or(0.0),
            sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p50 sits at rank 10 with only 9 beyond it.
        assert_eq!(tail_percentile(&ramp(19)), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond; p90 has 2.
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) has 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 (rank 9990) has 10 beyond.
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 is the tail.
        assert_eq!(tail_percentile(&ramp(999)), Some((90.0, 900.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn dist_summarises_unsorted_input() {
        let d = Dist::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.p50, 3.0);
        assert_eq!(d.p99, 5.0);
        assert_eq!(d.sum, 15.0);
    }
}
