//! Order statistics over measured samples.

/// Nearest-rank quantile of an ascending-sorted slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty series");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of `q` and the quantile that leaves at least ten samples
/// beyond it, whichever is lower: a tail percentile is only reported where
/// ten or more samples lie past it.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    q.min(1.0 - 10.0 / n as f64)
}

/// Median of unsorted host-time samples.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
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
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(supported_quantile(20_000, 0.999), 0.999);
        assert!((supported_quantile(1_000, 0.999) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
