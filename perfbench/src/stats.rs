//! Order statistics used by every workload.

/// Samples that must lie above a tail percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`, quoted only
/// when at least [`MIN_BEYOND`] samples lie above its rank: a p90 needs
/// 100 samples, a p99 needs 1000. `None` otherwise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 leaves exactly ten samples (91..=100) above it.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        // 99 samples leave only nine above rank 90.
        assert_eq!(tail_percentile(&hundred[..99], 90.0), None);
        // A p99 on 100 samples has one sample beyond: not quoted.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 90.0), Some(180.0));
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
