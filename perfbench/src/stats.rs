//! Order statistics for the end-to-end report.

/// Nearest-rank `q`-quantile of `samples` (any order): the value at
/// 1-based rank `ceil(q * n)` of the sorted samples.
///
/// Refuses (returns `None`) when fewer than ten samples lie beyond the
/// quantile's rank, because a tail percentile resting on fewer is not
/// measured, only guessed. `None` also for an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` for an empty slice. Used for repeated set-up times,
/// where there are too few samples for [`nearest_rank`]'s tail rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1..=100 shuffled: nearest rank puts p50 at the 50th value and
    /// p90 at the 90th, with exactly ten samples beyond p90.
    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        samples.swap(3, 71);
        assert_eq!(nearest_rank(&samples, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(90.0));

        // n = 101: ranks ceil(50.5) = 51 and ceil(90.9) = 91.
        let samples: Vec<f64> = (0..101).map(|i| f64::from(i) * 2.0).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(100.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(180.0));
    }

    #[test]
    fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank ceil(89.1) = 90 leaves only 9 samples beyond.
        assert_eq!(nearest_rank(&samples, 0.9), None);
        assert_eq!(nearest_rank(&samples, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&[1.0; 10], 0.5), None);
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
