//! Order statistics with an explicit sample-support rule.
//!
//! A percentile is only reported when the sample holds at least
//! [`MIN_TAIL`] observations strictly beyond it; otherwise it is
//! unsupported and callers must report a lower one (or fail).

use std::time::Instant;

/// Observations that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether quantile `q` of `n` samples has at least [`MIN_TAIL`]
/// samples beyond it.
#[must_use]
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_TAIL
}

/// Quantile `q` (nearest rank) of an ascending sample, or `None` when the
/// sample does not support it.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supported(sorted.len(), q).then(|| sorted[rank(sorted.len(), q)])
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); `NaN` for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Whether a repeated set-up should run again: at least 5 repetitions,
/// then more until 1 s is spent, at most 51.
#[must_use]
pub fn more_setup_reps(secs: &[f64]) -> bool {
    secs.len() < 5 || (secs.len() < 51 && secs.iter().sum::<f64>() < 1.0)
}

/// Median seconds of `f` after one warm call, over at least 3 and at
/// most 25 calls, stopping once `budget_s` is spent.
///
/// # Errors
///
/// Propagates the first error of `f`.
pub fn time_median(
    mut f: impl FnMut() -> Result<(), String>,
    budget_s: f64,
) -> Result<f64, String> {
    f()?;
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < 3 || (times.len() < 25 && t0.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990 (index 989) leaves 10 beyond it.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // The median of 20 samples (rank 10) has exactly 10 above it.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn percentile_is_nearest_rank_and_gated() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
