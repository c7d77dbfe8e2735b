//! Order statistics over small sample sets.

/// The `p`-quantile (0..=1) by linear interpolation between order
/// statistics; sorts `v` in place. Empty input reads 0.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&mut v.to_vec(), 0.5)
}

pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&mut [1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
