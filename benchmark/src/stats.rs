//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "at least ten samples beyond" rule, the faster half of a run's
//! windows, and the quartile spread regression bounds are judged against.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending (no NaNs are ever recorded).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the population at or below it. Empty → 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest of p99.9 / p99 / p90 / p50 that still has
/// [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median with the mean of the two middle samples for even counts —
/// what Python's `statistics.median` returns. Empty → 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean. Empty → 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Indices of the faster half (rounded up) of a run's windows, by
/// throughput, fastest first.
///
/// On the shared VM this benchmark is gated on, interference from
/// other tenants only ever slows a window down, arrives in bursts of
/// seconds, and mostly does not show as steal time. The slower half of
/// the windows is therefore set aside and every timing metric rests on
/// the faster half: the result moves only if most of a run was disturbed.
pub fn faster_half(rates: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| {
        rates[b]
            .partial_cmp(&rates[a])
            .expect("rates are never NaN")
    });
    order.truncate(rates.len().div_ceil(2));
    order
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread a
/// metric's bound is compared with. 0 below two samples or at median 0.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Least-squares slope of `y` over `x`; 0 when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n.max(1.0);
    let my = points.iter().map(|p| p.1).sum::<f64>() / n.max(1.0);
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn ten_beyond_rule_picks_the_reported_percentile() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(120, 0.9), 12);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn faster_half_sets_the_slow_windows_aside() {
        assert_eq!(
            faster_half(&[50.0, 20.0, 48.0, 49.0, 10.0, 30.0]),
            vec![0, 3, 2]
        );
        assert_eq!(faster_half(&[1.0, 3.0, 2.0]), vec![1, 2]);
        assert!(faster_half(&[]).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slope_of_a_line() {
        assert!((slope(&[(0.0, 10.0), (1.0, 30.0), (2.0, 50.0)]) - 20.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 5.0)]), 0.0);
    }
}
