//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Geometric mean of positive values: the average that weighs a kernel
/// of 0.1 ms and one of 10 ms equally, so no single input dominates.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
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
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
