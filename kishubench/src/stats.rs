//! Order statistics for latency samples.
//!
//! A timing is reported as its median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it, so a tail figure always rests
//! on enough observations to mean something.

/// Percentiles a tail figure may be taken at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// Computed in integer tenths of a percent so that `p99.9 × 10 000` lands
/// exactly on 9 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Smallest sample count at which percentile `p` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some n qualifies")
}

/// The highest percentile of [`LADDER`], at most `cap`, with at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` if even the median has
/// too few.
pub fn pick_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= cap && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (sorted internally).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `samples`; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Label of a percentile for tables and records (`p95`, `p99.9`).
pub fn label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(pick_percentile(0, 99.9), None);
        assert_eq!(pick_percentile(19, 99.9), None);
        assert_eq!(pick_percentile(20, 99.9), Some(50.0));
        assert_eq!(pick_percentile(99, 99.9), Some(50.0));
        assert_eq!(pick_percentile(100, 99.9), Some(90.0));
        assert_eq!(pick_percentile(199, 99.9), Some(90.0));
        assert_eq!(pick_percentile(200, 99.9), Some(95.0));
        assert_eq!(pick_percentile(999, 99.9), Some(95.0));
        assert_eq!(pick_percentile(1000, 99.9), Some(99.0));
        assert_eq!(pick_percentile(10_000, 99.9), Some(99.9));
        // The cap bounds the choice even when more samples would allow more.
        assert_eq!(pick_percentile(10_000, 95.0), Some(95.0));
        for p in LADDER {
            let n = min_samples(p);
            assert!(beyond(n, p) >= MIN_BEYOND);
            assert!(beyond(n - 1, p) < MIN_BEYOND);
            assert_eq!(pick_percentile(n, p), Some(p));
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(label(99.9), "p99.9");
        assert_eq!(label(95.0), "p95");
    }
}
