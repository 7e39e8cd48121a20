//! Order statistics and the tail-sample rule.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to be reported at all.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
/// On an empty slice.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly beyond the `q` quantile out of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Operations a run needs so that `q` has [`MIN_TAIL_SAMPLES`] beyond it.
pub fn ops_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_TAIL_SAMPLES).expect("some n satisfies the rule")
}

/// The tail rule: refuse to report quantile `q` of `n` samples unless
/// at least [`MIN_TAIL_SAMPLES`] lie beyond it.
///
/// # Errors
/// When too few samples lie beyond `q`.
pub fn check_tail(n: usize, q: f64) -> Result<(), String> {
    let b = beyond(n, q);
    if b < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples has only {b} beyond it (need {MIN_TAIL_SAMPLES})",
            q * 100.0
        ));
    }
    Ok(())
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_fails_below_ten_samples_beyond_p99() {
        assert!(check_tail(999, 0.99).is_err());
        assert!(check_tail(500, 0.99).is_err());
        assert!(check_tail(0, 0.99).is_err());
        assert!(check_tail(1000, 0.99).is_ok());
        assert_eq!(ops_needed(0.99), 1000);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < f64::EPSILON);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < f64::EPSILON);
    }
}
