//! Summary statistics for the benchmark's timings.

/// Percentiles the report ladder tries, lowest first.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of ascending `sorted` samples (nearest rank), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it, so a
/// reported tail is never one or two stray samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest ladder percentile `sorted` supports, with its value.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find_map(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Sort samples ascending (NaN-safe total order).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of the samples (mean of the middle pair for even counts);
/// NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// A residual column: the cost of the whole minus the summed cost of its
/// measured parts, so time no part explains stays visible.
pub fn residual(whole: f64, parts: &[f64]) -> f64 {
    whole - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank 990 leaves exactly ten samples above p99.
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s[..999], 0.99), None);
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.999), None);
        assert_eq!(percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(highest_supported(&s), Some((0.999, 9990.0)));
        assert_eq!(highest_supported(&s[..1000]), Some((0.99, 990.0)));
        assert_eq!(highest_supported(&s[..100]), Some((0.9, 90.0)));
        assert_eq!(highest_supported(&s[..5]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn residual_is_whole_minus_sum_of_parts() {
        let parts = [70.0, 210.0, 5.0, 80.0];
        let r = residual(400.0, &parts);
        assert_eq!(r, 35.0);
        assert_eq!(r + parts.iter().sum::<f64>(), 400.0);
        // Parts that over-explain the whole give a negative residual.
        assert_eq!(residual(300.0, &parts), -65.0);
    }
}
