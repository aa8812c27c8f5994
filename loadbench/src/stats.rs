//! Order statistics and the tail rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (sorts `values` in place); `None` when empty.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[rank(values.len(), p) - 1])
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.9), Some(90.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }
}
