//! Order statistics and trend fitting for the reported metrics.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between closest
/// ranks; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Whether `n` samples leave at least ten beyond the `q` quantile, so a
/// reported tail is never one outlier: a p99 needs 1000 samples.
pub fn supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

/// Least-squares slope of `y` against `x`; `None` with fewer than two
/// distinct `x`.
pub fn slope(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), Some(51.0));
        assert_eq!(quantile(&xs, 0.99), Some(100.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
    }

    #[test]
    fn slope_recovers_a_linear_trend_and_is_zero_when_flat() {
        // Due-lag rising 2.5 ms per simulated second = 150 ms per minute.
        let rising: Vec<(f64, f64)> =
            (0..600).map(|i| (i as f64, 3600.0 + 2.5 * i as f64)).collect();
        assert!((slope(&rising).unwrap() * 60.0 - 150.0).abs() < 1e-9);
        let flat: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 80.0)).collect();
        assert_eq!(slope(&flat), Some(0.0));
        // Symmetric noise around a flat line fits no trend.
        let noisy: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64, if i % 2 == 0 { 90.0 } else { 110.0 })).collect();
        assert!(slope(&noisy).unwrap().abs() < 0.1);
        assert_eq!(slope(&[(1.0, 2.0)]), None);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), None);
    }
}
