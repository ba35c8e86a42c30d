//! Order statistics for the reported timings.

/// A sampled percentile is reported only when at least this many samples
/// lie beyond it; below that the "tail" is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Quantile `q` in `[0, 1]` of `sorted` (ascending), interpolating linearly
/// between order statistics. For a fully enumerated population — every
/// cell of a fixed grid — this is exact, not an estimate.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// How many of `n` samples rank strictly above the `q` quantile.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Percentile `q` of a sampled stream, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so p95 needs 200 samples).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        let s: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), None);
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), Some(quantile(&s, 0.95)));
        // The median needs 20 samples.
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert!(percentile(&s[..20], 0.5).is_some());
    }

    #[test]
    fn quantile_interpolates_and_median_sorts() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
