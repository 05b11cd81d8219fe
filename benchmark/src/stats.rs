//! Order statistics for the timed runs, and the rule that decides which tail percentile
//! a sample of a given size may report.

/// Samples that must lie beyond a percentile before it is reported (choosing-metrics §1).
pub const TAIL_SAMPLES: usize = 10;

/// Sample count from which a p75 is backed by [`TAIL_SAMPLES`].
pub const P75_MIN_SAMPLES: usize = 4 * TAIL_SAMPLES;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(median, (q1, q3))` of an unsorted sample.
pub fn median_and_quartiles(values: &[f64]) -> (f64, (f64, f64)) {
    (
        median(values),
        (quantile(values, 0.25), quantile(values, 0.75)),
    )
}

/// The highest of the candidate percentiles {50, 75, 90, 95, 99} that still has at least
/// [`TAIL_SAMPLES`] samples beyond it in a sample of size `n`: 40 samples support p75,
/// 20 only the median, 100 p90.
pub fn supported_tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_SAMPLES * 100)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_follows_ten_samples_beyond() {
        assert_eq!(supported_tail_percentile(40), 75);
        assert_eq!(supported_tail_percentile(P75_MIN_SAMPLES), 75);
        assert_eq!(supported_tail_percentile(39), 50);
        assert_eq!(supported_tail_percentile(20), 50);
        assert_eq!(supported_tail_percentile(100), 90);
        assert_eq!(supported_tail_percentile(200), 95);
        assert_eq!(supported_tail_percentile(1000), 99);
        assert_eq!(supported_tail_percentile(0), 50);
    }

    #[test]
    fn quantiles_interpolate_and_ignore_input_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
