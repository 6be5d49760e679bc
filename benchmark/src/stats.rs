//! Order statistics, the tail-percentile rule, the α–β least-squares fit
//! and the FNV-1a state fingerprint.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank index (1-based) of the `permille`/1000 quantile among `n`
/// samples, in whole numbers: a float product would turn 0.999 × 10000
/// into rank 9991.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank quantile `permille`/1000 of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// The best-case value of an ascending-sorted sample: its 1st percentile
/// (nearest rank; the minimum below 100 samples).
///
/// The bench host is shared, and contention only ever slows a step: within
/// one run the median step moved by 30 % between identical runs while this
/// held within 3 % (the single fastest step does not: it has lucky
/// outliers 10 % below the rest).
pub fn best_case(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 10)
}

/// The tail quantile (per mille) a sample of size `n` can support: the
/// highest of p75/p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it.  `None` below 20 samples, or when not even p75 has ten
/// samples beyond it.
pub fn tail_permille(n: usize) -> Option<usize> {
    if n < 20 {
        return None;
    }
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&permille| n - nearest_rank(n, permille) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the default "exclusive" method); needs two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(xs) else {
        return 0.0;
    };
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// Least-squares line `t = alpha + beta * bytes` with the relative RMSE of
/// the fit, weighted by `1/t²` so the 8-byte and the 1-MiB rung count
/// alike (an unweighted fit is decided by the largest message alone).
pub fn fit_alpha_beta(samples: &[(f64, f64)]) -> (f64, f64, f64) {
    let (mut sw, mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y) in samples {
        let w = 1.0 / (y * y);
        sw += w;
        sx += w * x;
        sy += w * y;
        sxx += w * x * x;
        sxy += w * x * y;
    }
    let det = sw * sxx - sx * sx;
    let (alpha, beta) = if det.abs() > 0.0 {
        ((sy * sxx - sx * sxy) / det, (sw * sxy - sx * sy) / det)
    } else {
        (sy / sw, 0.0)
    };
    let mse = samples
        .iter()
        .map(|&(x, y)| ((alpha + beta * x - y) / y).powi(2))
        .sum::<f64>()
        / samples.len() as f64;
    (alpha, beta, mse.sqrt())
}

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash the little-endian bit patterns of `xs`; returns whether every
    /// value was finite.
    pub fn f64s(&mut self, xs: &[f64]) -> bool {
        let mut finite = true;
        for x in xs {
            finite &= x.is_finite();
            self.bytes(&x.to_bits().to_le_bytes());
        }
        finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 500), 50.0);
        assert_eq!(quantile_sorted(&v, 990), 99.0);
        assert_eq!(quantile_sorted(&v, 1000), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 999), 7.0);
        assert_eq!(best_case(&v), 1.0);
        let many: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(best_case(&many), 25.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(3), None);
        assert_eq!(tail_permille(19), None);
        // 30 samples: p75 leaves 7 beyond it
        assert_eq!(tail_permille(30), None);
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(2500), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_beta_recovered_from_a_synthetic_ladder() {
        let (alpha, beta) = (12e-6, 0.4e-9);
        let ladder: Vec<(f64, f64)> = [8.0, 1024.0, 8192.0, 65536.0, 1048576.0]
            .iter()
            .map(|&b| (b, alpha + beta * b))
            .collect();
        let (a, b, rmse) = fit_alpha_beta(&ladder);
        assert!((a - alpha).abs() / alpha < 1e-9, "alpha {a}");
        assert!((b - beta).abs() / beta < 1e-9, "beta {b}");
        assert!(rmse < 1e-9);
        // a perturbed ladder still fits, with a visible residual
        let noisy: Vec<(f64, f64)> = ladder
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (x, y * if i % 2 == 0 { 1.1 } else { 0.9 }))
            .collect();
        let (_, _, rmse) = fit_alpha_beta(&noisy);
        assert!(rmse > 0.05 && rmse < 0.2, "rmse {rmse}");
    }

    #[test]
    fn fnv1a_matches_hand_values() {
        // reference vectors of the FNV-1a 64-bit specification
        let mut h = Fnv1a::default();
        assert_eq!(h.0, 0xcbf29ce484222325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
        // 1.0f64 = 0x3FF0000000000000, hashed little-endian: seven zero
        // bytes, 0xF0, 0x3F — equal to hashing those bytes by hand
        let mut by_value = Fnv1a::default();
        assert!(by_value.f64s(&[1.0]));
        let mut by_hand = Fnv1a::default();
        by_hand.bytes(&[0, 0, 0, 0, 0, 0, 0xF0, 0x3F]);
        assert_eq!(by_value.0, by_hand.0);
        assert!(!Fnv1a::default().f64s(&[f64::INFINITY]));
    }
}
