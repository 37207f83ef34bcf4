//! Order statistics over timing samples.

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many samples lie strictly above the nearest-rank percentile
/// `p`: the guide for whether a reported percentile is supported.
pub fn beyond(samples: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * samples as f64).ceil() as usize;
    samples.saturating_sub(rank.max(1))
}

/// Mean of `samples`, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Tracing overhead on one operation: the mean over operation kinds
/// of (traced median / untraced median) − 1. Comparing kind by kind
/// keeps a phase that ends part-way through the mix from biasing it.
pub fn overhead<K: Ord + Copy>(untraced: &[(K, f64)], traced: &[(K, f64)]) -> f64 {
    let kinds: std::collections::BTreeSet<K> = untraced.iter().map(|p| p.0).collect();
    let of =
        |v: &[(K, f64)], k: K| -> Vec<f64> { v.iter().filter(|p| p.0 == k).map(|p| p.1).collect() };
    let ratios: Vec<f64> = kinds
        .into_iter()
        .filter_map(|k| Some(median(&of(traced, k))? / median(&of(untraced, k))?))
        .collect();
    mean(&ratios) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn overhead_compares_like_with_like() {
        let untraced = [(0, 10.0), (1, 100.0), (0, 10.0)];
        let traced = [(0, 11.0), (1, 110.0)];
        assert!((overhead(&untraced, &traced) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
    }
}
