//! Order statistics over measured samples.

/// A sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count; NaN when
/// empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`; NaN when empty).
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank
/// `p`-quantile; a percentile is reported only when this is >= 10.
#[must_use]
pub fn beyond(count: usize, p: f64) -> usize {
    let rank = (p * count as f64).ceil() as usize;
    count.saturating_sub(rank.max(1))
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// `n`, min, quartiles and max of `values`, scaled by `scale`, for a
/// readable line.
#[must_use]
pub fn summary(values: &[f64], scale: f64) -> String {
    let v = sorted(values);
    let (Some(min), Some(max)) = (v.first(), v.last()) else {
        return "n=0".to_string();
    };
    let [q1, q2, q3] = quartiles(&v).unwrap_or([*min; 3]);
    format!(
        "n={} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        v.len(),
        min * scale,
        q1 * scale,
        q2 * scale,
        q3 * scale,
        max * scale
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(median(&v), 50.5);
    }
}
