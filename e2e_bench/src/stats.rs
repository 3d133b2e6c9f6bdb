//! Summary statistics: medians, means and the tail-percentile rule.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A percentile read off a sample, with the percentile actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at that rank.
    pub value: f64,
    /// Which percentile the value is (99 unless the sample was too small).
    pub pct: f64,
}

/// Nearest-rank percentile of an ascending `sorted` sample.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile { value: 0.0, pct };
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        pct,
    }
}

/// The tail latency: p99 while at least 10 samples lie beyond it,
/// otherwise the highest percentile that still has 10 beyond it, and never
/// below the median (a sample of 20 or fewer reports its median).
pub fn tail(sorted: &[f64]) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            pct: 99.0,
        };
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    if n - p99_rank >= 10 {
        return nearest_rank(sorted, 99.0);
    }
    let median_rank = n.div_ceil(2);
    let rank = n.saturating_sub(10).max(median_rank).max(1);
    Percentile {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(200);
        assert_eq!(nearest_rank(&s, 50.0).value, 100.0);
        assert_eq!(nearest_rank(&s, 99.0).value, 198.0);
        assert_eq!(nearest_rank(&s, 100.0).value, 200.0);
        assert_eq!(nearest_rank(&[7.0], 99.0).value, 7.0);
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.pct), (990.0, 99.0));
        let t = tail(&ramp(5000));
        assert_eq!((t.value, t.pct), (4950.0, 99.0));
    }

    #[test]
    fn tail_falls_back_below_p99_on_small_samples() {
        // 500 samples: p99 (rank 495) has only 5 beyond; rank 490 has 10.
        let t = tail(&ramp(500));
        assert_eq!(t.value, 490.0);
        assert!((t.pct - 98.0).abs() < 1e-12);
        // 999 samples: p99 rank 990 has 9 beyond, so rank 989.
        assert_eq!(tail(&ramp(999)).value, 989.0);
        // 30 samples: rank 20.
        assert_eq!(tail(&ramp(30)).value, 20.0);
        // Too few for 10 beyond the median: the median itself.
        assert_eq!(tail(&ramp(12)).value, 6.0);
        assert_eq!(tail(&ramp(1)).value, 1.0);
    }
}
