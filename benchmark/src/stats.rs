//! Order statistics over timing samples.

pub fn sort(xs: &mut [f64]) {
    xs.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    sort(&mut xs);
    percentile(&xs, 0.5)
}

/// `(p50, p95)` of unsorted samples.
pub fn p50_p95(mut xs: Vec<f64>) -> (f64, f64) {
    sort(&mut xs);
    (percentile(&xs, 0.50), percentile(&xs, 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 1.0), 20.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
