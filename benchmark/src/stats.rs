//! The few statistics the benchmark adds on top of
//! `emca_metrics::stats`: which tail percentile a sample supports,
//! window-median throughput, and quartile spread.

pub use elastic_numa::emca_metrics::stats::percentile;

/// Percentiles a latency sample is reported at, lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        // 1e-9: 1.0 - 0.9 is a hair under 0.1 in binary.
        .find(|q| (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(f64::NAN)
}

/// Completions per second as the median count of `window_s`-wide
/// windows over `finish_s` (completion times in seconds from run
/// start). The first and the last occupied window are dropped: one holds
/// the ramp-up, the other is cut short. Falls back to the whole-run rate
/// when fewer than three windows are occupied.
pub fn window_median_qps(finish_s: &[f64], window_s: f64) -> f64 {
    let Some(end) = finish_s.iter().copied().reduce(f64::max) else {
        return 0.0;
    };
    let last = (end / window_s).floor() as usize;
    if last < 2 {
        return if end > 0.0 {
            finish_s.len() as f64 / end
        } else {
            0.0
        };
    }
    let mut counts = vec![0.0f64; last + 1];
    for &t in finish_s {
        counts[((t / window_s).floor() as usize).min(last)] += 1.0;
    }
    median(&counts[1..last]) / window_s
}

/// Latency as the median, over `window_s`-wide windows of `at_s`, of
/// each window's p50 and p95. A stall of the box lands in a window or
/// two: it is seen there, but it does not decide the number.
pub fn window_latency(at_s: &[f64], latencies_ms: &[f64], window_s: f64) -> (f64, f64) {
    let index = |t: f64| (t / window_s).max(0.0) as usize;
    let n = at_s.iter().map(|&t| index(t)).max().map_or(0, |m| m + 1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (&t, &l) in at_s.iter().zip(latencies_ms) {
        windows[index(t)].push(l);
    }
    let across = |q: f64| -> f64 {
        let per_window: Vec<f64> = windows.iter().filter_map(|w| percentile(w, q)).collect();
        median(&per_window)
    };
    (across(0.5), across(0.95))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the exclusive method).
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two or more values");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn window_median_drops_the_edge_windows_and_ignores_a_burst() {
        // 5 windows of 1 s: a slow ramp-up window, three steady ones of
        // which one holds a burst, and a cut-short tail.
        let mut t = vec![0.5];
        t.extend((0..10).map(|i| 1.0 + i as f64 * 0.1));
        t.extend((0..10).map(|i| 2.0 + i as f64 * 0.1));
        t.extend((0..40).map(|i| 3.0 + i as f64 * 0.02));
        t.extend([4.1, 4.2]);
        assert_eq!(window_median_qps(&t, 1.0), 10.0);
        // Half-width windows double-count nothing: rate is per second.
        let steady: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        assert_eq!(window_median_qps(&steady, 0.5), 10.0);
    }

    #[test]
    fn window_median_falls_back_on_short_runs() {
        assert_eq!(window_median_qps(&[], 1.0), 0.0);
        assert_eq!(window_median_qps(&[0.5, 1.0, 1.5], 1.0), 2.0);
    }

    #[test]
    fn window_latency_is_the_median_window_not_the_pooled_sample() {
        // Three windows of steady 10 ms answers, one stalled window.
        let mut at = Vec::new();
        let mut ms = Vec::new();
        for w in 0..4 {
            for i in 0..20 {
                at.push(w as f64 + i as f64 * 0.05);
                ms.push(if w == 2 {
                    500.0
                } else {
                    10.0 + f64::from(i % 2)
                });
            }
        }
        let (p50, p95) = window_latency(&at, &ms, 1.0);
        assert!((10.0..=11.0).contains(&p50), "{p50}");
        assert!((10.0..=11.0).contains(&p95), "{p95}");
        // Pooled, the stalled quarter of the sample owns the p95.
        assert_eq!(percentile(&ms, 0.95), Some(500.0));
        assert!(window_latency(&[], &[], 1.0).0.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
