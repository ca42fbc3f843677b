//! Order statistics over measured samples.

/// Percentiles the tail helper may report, highest last.
pub const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `[0, 100]`) of `samples`; `None` when
/// empty. The input need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (nearest-rank p50) of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean of `samples`, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a run whose every operation
/// failed has nothing to divide by).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest of [`TAIL_PERCENTILES`] that has at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when even the
/// median has fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(samples, p).expect("non-empty")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(beyond(55, 95.0), 2);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(0, 95.0), 0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 199 samples: p95 leaves 9 beyond, so p90 (19 beyond) is the tail.
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some(90.0));
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(99.0));
        // 20 samples: only the median has 10 beyond.
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        // 19 samples: nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
