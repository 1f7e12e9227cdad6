//! Exact order statistics over raw samples. Timings are kept as raw
//! `f64` samples rather than histogram buckets, so a reported
//! percentile is a measured value with all its digits.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by linear interpolation
/// between order statistics; NaN when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail percentile, refused unless at least `min_beyond` samples lie
/// beyond it: a run too short to support the tail fails instead of
/// reporting a number the sample cannot back.
pub fn tail(samples: &[f64], p: f64, min_beyond: usize, what: &str) -> Result<f64, String> {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    let beyond = (samples.len() as f64 * (1.0 - p) + 1e-9).floor();
    if beyond < min_beyond as f64 || samples.is_empty() {
        return Err(format!(
            "{what}: {} samples leave {beyond} beyond p{}, fewer than {min_beyond}",
            samples.len(),
            p * 100.0
        ));
    }
    Ok(quantile(samples, p))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&v, 0.9, 10, "x").is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&v, 0.9, 10, "x").is_ok());
        assert!(tail(&[], 0.9, 0, "x").is_err());
    }
}
