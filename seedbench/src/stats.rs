//! Percentiles and medians over measured samples.

/// A percentile read from a sample, with the counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `q` of all samples are at or below it. `q` is clamped to `(0, 1]`; an
/// empty sample reads as 0 with no samples behind it.
pub fn percentile(samples: &[f64], q: f64) -> Tail {
    if samples.is_empty() {
        return Tail { value: 0.0, samples: 0, beyond: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(f64::MIN_POSITIVE, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Tail { value, samples: n, beyond }
}

/// The middle value (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts_beyond() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Tail { value: 5.0, samples: 10, beyond: 5 });
        assert_eq!(percentile(&v, 0.9), Tail { value: 9.0, samples: 10, beyond: 1 });
        assert_eq!(percentile(&v, 1.0), Tail { value: 10.0, samples: 10, beyond: 0 });
        assert_eq!(percentile(&v, 0.01).value, 1.0);
        assert_eq!(percentile(&[3.0], 0.9), Tail { value: 3.0, samples: 1, beyond: 0 });
        assert_eq!(percentile(&[], 0.5).samples, 0);
    }

    #[test]
    fn ties_at_the_percentile_are_not_counted_beyond_it() {
        let v = [1.0, 2.0, 2.0, 2.0, 7.0];
        assert_eq!(percentile(&v, 0.5), Tail { value: 2.0, samples: 5, beyond: 1 });
    }

    #[test]
    fn medians_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
