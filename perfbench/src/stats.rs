//! Order statistics over sample vectors.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0.0 for an empty input.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median of each group of `(key, sample)` pairs, in key order.
pub fn group_medians<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (k, v) in samples {
        groups.entry(k).or_default().push(v);
    }
    groups.values().map(|v| median(v)).collect()
}

/// The arithmetic mean of `samples`; 0.0 for an empty input.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sum of `samples`.
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        let g = group_medians([(2, 5.0), (1, 1.0), (2, 7.0), (1, 3.0), (2, 6.0)]);
        assert_eq!(g, vec![2.0, 6.0]);
    }
}
