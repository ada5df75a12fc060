//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the value at rank `ceil(q * n)` of the
//! sorted samples, so every reported figure is a latency that one
//! request really had.

/// Nearest-rank rank (1-based) of the `permille`-th quantile of `n`
/// samples, in integer arithmetic so p99.9 of 10 000 samples is exactly
/// rank 9990.
fn rank(n: usize, permille: u64) -> usize {
    let r = (permille as u128 * n as u128).div_ceil(1000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank quantile of `sorted` (ascending); `permille` is in
/// `1..=1000` (500 = median). Returns `None` for an empty sample.
pub fn quantile(sorted: &[u64], permille: u64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), permille) - 1])
}

/// A tail latency chosen by [`tail`]: which percentile it is, its
/// value, and how many samples lie strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile label (`90.0`, `99.0`, `99.9`); `100.0` is the
    /// maximum, reported when no percentile has ten samples beyond it.
    pub percentile: f64,
    /// The latency at that percentile.
    pub value: u64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond
/// it. With fewer than ~100 samples none qualifies and the maximum is
/// reported instead, labelled as the 100th percentile, so a short run
/// still yields a number and says how thin it is.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    for (p, permille) in [(99.9, 999), (99.0, 990), (90.0, 900)] {
        let b = n - rank(n, permille);
        if b >= 10 {
            return Some(Tail {
                percentile: p,
                value: quantile(sorted, permille)?,
                beyond: b,
                count: n,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: sorted[n - 1],
        beyond: 0,
        count: n,
    })
}

/// Median of unsorted floating-point values (mean of the middle two
/// for an even count). `None` for an empty slice.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = one_to(10);
        assert_eq!(quantile(&s, 500), Some(5));
        assert_eq!(quantile(&s, 900), Some(9));
        assert_eq!(quantile(&s, 910), Some(10));
        assert_eq!(quantile(&s, 1000), Some(10));
        assert_eq!(quantile(&[7], 500), Some(7));
        assert_eq!(quantile(&[], 500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 sits at rank 90 with 9 beyond -> falls back to max.
        let t = tail(&one_to(99)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (100.0, 99, 0, 99)
        );
        // 100 samples: p90 at rank 90, exactly 10 beyond.
        let t = tail(&one_to(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90, 10));
        // 999 samples: p99 at rank 990 leaves 9 beyond -> still p90.
        let t = tail(&one_to(999)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900, 99));
        // 1000 samples: p99 at rank 990, 10 beyond.
        let t = tail(&one_to(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990, 10));
        // 10000 samples: p99.9 at rank 9990, 10 beyond.
        let t = tail(&one_to(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990, 10));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
