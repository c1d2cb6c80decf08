//! Order statistics over timing samples.

/// Sorted copy of `v` (NaN-free input assumed).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the two middle samples for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `0..=100`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The smallest sample (infinity when empty).
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise fastest across repetitions of one operation sequence:
/// `runs[r][i]` is the `i`-th step of repetition `r`; steps past the
/// shortest repetition are dropped. Contention from other tenants of a
/// shared host only ever adds time, so the fastest repetition of a step
/// is its least disturbed cost.
pub fn best_by_index(runs: &[Vec<f64>]) -> Vec<f64> {
    let len = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| fastest(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(
            best_by_index(&[vec![1.0, 5.0, 9.0], vec![2.0, 4.0]]),
            vec![1.0, 4.0]
        );
    }
}
