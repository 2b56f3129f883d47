//! Order statistics under the benchmark's reporting rule: a timing is a
//! median plus the highest percentile that still has at least ten samples
//! beyond it, always with its sample count.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank `q`-quantile: the smallest sample with at least
/// `ceil(q·n)` samples at or below it.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// True when the nearest-rank `q`-quantile of `n` samples has at least
/// [`TAIL_BEYOND`] samples above it, so the sample supports reporting it.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    rank >= 1 && n >= rank + TAIL_BEYOND
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// as `(percentile, value)`; `None` when the sample is too small to have one.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(v);
    Some((
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        s[n - TAIL_BEYOND - 1],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, val) = tail(&v).expect("1000 samples have a tail");
        assert_eq!(pct, 99.0);
        assert_eq!(val, 990.0);
        assert_eq!(val, quantile(&v, 0.99), "tail agrees with nearest-rank p99");
        assert_eq!(v.iter().filter(|&&x| x > val).count(), TAIL_BEYOND);

        let small: Vec<f64> = (1..=25).map(f64::from).collect();
        let (pct, val) = tail(&small).expect("25 samples have a tail");
        assert_eq!((pct, val), (60.0, 15.0));
        assert!(tail(&small[..10]).is_none(), "ten samples support no tail");
        assert!(tail(&small[..11]).is_some());
    }
}
