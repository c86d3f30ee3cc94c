//! Order statistics over latency samples and window rates.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a benchmark
/// bug, never a zero.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending and returns their median (the mean of the
/// two middle values for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Splits completion times (seconds since the phase start, any order)
/// into `windows` equal op-count windows and returns the median of the
/// per-window rates (operations per second).  A window runs from the
/// previous window's last completion (the phase start for the first) to
/// its own last completion.
pub fn window_rate_median(completions: &mut [f64], windows: usize) -> f64 {
    completions.sort_by(f64::total_cmp);
    let windows = windows.min(completions.len()).max(1);
    let mut rates = Vec::with_capacity(windows);
    let (mut done, mut since) = (0usize, 0.0f64);
    for w in 1..=windows {
        let upto = completions.len() * w / windows;
        let end = completions[upto - 1];
        rates.push((upto - done) as f64 / (end - since).max(1e-9));
        (done, since) = (upto, end);
    }
    median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_rate_median_ignores_one_slow_window() {
        // 10 ops/s for four windows of 10 ops, then one stalled window.
        let mut done: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.1).collect();
        done.extend((1..=10).map(|i| 4.0 + f64::from(i)));
        let rate = window_rate_median(&mut done, 5);
        assert!((rate - 10.0).abs() < 1e-6, "{rate}");
    }
}
