//! Order statistics over a handful of samples.
//!
//! Every pick is nearest-rank: the reported value is one that was really
//! measured, never an interpolation between two rounds.

/// Ascending copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile: the `ceil(q·n)`-th smallest sample (the
/// smallest for `q = 0`). Panics on an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let s = sorted(v);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Lower quartile — the gated timing statistic. Interference on a shared
/// box only ever adds time, so the low side of the distribution is the
/// part that repeats.
pub fn q25(v: &[f64]) -> f64 {
    quantile(v, 0.25)
}

/// Median (nearest rank).
pub fn p50(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest percentile that still has ten samples beyond it, with its
/// value: `(percentile, value)`. `None` below eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let s = sorted(v);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the picker has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(q25(&ramp(30)), 8.0); // ceil(7.5) = 8th smallest
        assert_eq!(q25(&ramp(20)), 5.0);
        assert_eq!(q25(&ramp(4)), 1.0);
        assert_eq!(q25(&ramp(3)), 1.0); // a few setup passes → the fastest
        assert_eq!(q25(&[42.0]), 42.0);
    }

    #[test]
    fn median_is_a_measured_sample() {
        assert_eq!(p50(&ramp(30)), 15.0);
        assert_eq!(p50(&ramp(3)), 2.0);
        assert_eq!(p50(&[1.0, 9.0]), 1.0);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&ramp(10), 0.0), 1.0);
        assert_eq!(quantile(&ramp(10), 1.0), 10.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let (pct, v) = tail(&ramp(30)).unwrap();
        assert_eq!(v, 20.0); // ten samples (21..=30) lie beyond it
        assert!((pct - 66.666).abs() < 0.01, "{pct}");
        assert_eq!(tail(&ramp(11)).unwrap().1, 1.0);
        assert!(tail(&ramp(10)).is_none());
    }
}
