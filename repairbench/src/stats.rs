//! Order statistics over timing samples.

/// Sorts a copy of `samples` (NaN-free by construction).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads this tool prints match the ones a reader recomputes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = (n + 1) as f64;
    let at = |j: usize| {
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest whole percentile `p` such that at least ten samples lie
/// above the `p`-th percentile sample; `None` below forty samples, where
/// such a "tail" would be a handful of values.  Returns `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    let v = sorted(samples);
    (50..=99u32).rev().find_map(|p| {
        // Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
        let rank = (p as usize * n).div_ceil(100);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&vec![1.0; 39]), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 → rank 30, ten samples beyond it.
        assert_eq!(tail(&v), Some((75, 30.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
    }
}
