//! Percentiles, quartiles and spreads.

/// Sort a sample in place (latencies are finite, so the order is total).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of a sorted sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile. A
/// percentile is reported only as a tail figure when at least ten do
/// (the 95th needs 200 samples).
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&v| v > cut).count()
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method), so a spread computed here
/// is the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let m = sorted.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for
/// fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 100.0);
        assert_eq!(percentile(&sample, 95.0), 190.0);
        assert_eq!(percentile(&sample, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn two_hundred_samples_leave_ten_beyond_the_95th() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&sample, 95.0), 10);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            beyond(&short, 95.0),
            5,
            "100 samples cannot carry a p95 tail"
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
