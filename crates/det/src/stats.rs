//! The workspace's one percentile convention, plus the binomial
//! confidence intervals behind Table 1's error bars and its difference
//! lines.
//!
//! Two summaries used to disagree: the bench runner picked
//! `round((len-1)·frac)` while the campaign summary picked
//! `floor((len-1)·frac)`, so a p95 over the same sample could differ by
//! one rank between `BENCH_*.json` and Table 1's crash-latency columns.
//! This module pins the single convention every reporter now shares:
//!
//! **floor on the inclusive index** — `sorted[floor((len-1)·frac)]`.
//!
//! Properties worth the name:
//! - `frac = 0.0` is the minimum and `frac = 1.0` the maximum, exactly.
//! - The result is always an element of the sample (no interpolation),
//!   so integer metrics stay integers.
//! - For even `len`, the median is the *lower* middle element — the
//!   conservative pick for latency data (never reports a latency nobody
//!   experienced, never rounds a p50 upward past the true middle).

/// Picks `frac` (clamped to `0.0..=1.0`) of the way through a sorted
/// sample: `sorted[floor((len-1)·frac)]`. Returns 0 for an empty sample.
pub fn percentile(sorted: &[u64], frac: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let frac = frac.clamp(0.0, 1.0);
    let idx = ((sorted.len() - 1) as f64 * frac) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The 97.5th normal quantile: the `z` for a two-sided 95% interval.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Wilson score interval for a binomial proportion: `successes` out of
/// `n` at normal quantile `z` (use [`Z_95`] for a 95% interval).
///
/// The Wilson interval is the closed-form inversion of the score test.
/// Unlike the naive Wald interval it never leaves `[0, 1]` and behaves
/// sensibly at 0 and n successes — exactly the regime Table 1 lives in,
/// where several cells have zero observed corruptions.
///
/// Returns `(lo, hi)` as proportions in `[0, 1]`; `(0.0, 1.0)` for
/// `n == 0` (no data constrains nothing).
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    assert!(successes <= n, "more successes than trials");
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = p + z2 / (2.0 * n_f);
    let spread = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    // Pin the boundary cases exactly: 0 observed successes constrain the
    // lower bound to 0 (and dually at n), where raw f64 arithmetic leaves
    // ±1e-18 residue.
    let lo = if successes == 0 {
        0.0
    } else {
        ((center - spread) / denom).max(0.0)
    };
    let hi = if successes == n {
        1.0
    } else {
        ((center + spread) / denom).min(1.0)
    };
    (lo, hi)
}

/// Newcombe's hybrid score interval (his method 10) on the difference of
/// two binomial proportions, `x1/n1 − x2/n2`, at normal quantile `z`.
///
/// Each proportion's [`wilson_interval`] supplies the distance from its
/// point estimate to its bound; the difference's lower bound combines the
/// first's lower and the second's upper distance in quadrature, and dually
/// for the upper bound. Like Wilson, it stays sensible at 0 successes,
/// where the Wald interval collapses to a point.
///
/// Returns `(lo, hi)` as differences of proportions in `[-1, 1]`.
pub fn newcombe_difference(x1: u64, n1: u64, x2: u64, n2: u64, z: f64) -> (f64, f64) {
    let p = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let (p1, p2) = (p(x1, n1), p(x2, n2));
    let ((l1, u1), (l2, u2)) = (wilson_interval(x1, n1, z), wilson_interval(x2, n2, z));
    let d = p1 - p2;
    let below = ((p1 - l1).powi(2) + (u2 - p2).powi(2)).sqrt();
    let above = ((u1 - p1).powi(2) + (p2 - l2).powi(2)).sqrt();
    (d - below, d + above)
}

/// Clopper–Pearson "exact" interval for a binomial proportion at
/// two-sided confidence `1 - alpha` (e.g. `alpha = 0.05` for 95%).
///
/// Guaranteed coverage at the price of conservatism; it is the
/// cross-check for [`wilson_interval`] — the campaign renderer prints
/// Wilson, the test suite asserts the two agree to within the exact
/// interval's slack.
///
/// Returns `(lo, hi)` as proportions; `(0.0, 1.0)` for `n == 0`.
pub fn clopper_pearson(successes: u64, n: u64, alpha: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    assert!(successes <= n, "more successes than trials");
    let k = successes as f64;
    let n_f = n as f64;
    let half = alpha / 2.0;
    // lo solves P[Bin(n,p) >= k] = alpha/2  →  I_p(k, n-k+1) = alpha/2
    let lo = if successes == 0 {
        0.0
    } else {
        beta_quantile(half, k, n_f - k + 1.0)
    };
    // hi solves P[Bin(n,p) <= k] = alpha/2  →  I_p(k+1, n-k) = 1 - alpha/2
    let hi = if successes == n {
        1.0
    } else {
        beta_quantile(1.0 - half, k + 1.0, n_f - k)
    };
    (lo, hi)
}

/// Inverse of the regularized incomplete beta function `I_x(a, b)` by
/// bisection: the unique `x` with `I_x(a, b) = p`. `I` is monotone in
/// `x`, so 200 halvings pin the answer far below rendering precision.
fn beta_quantile(p: f64, a: f64, b: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if reg_inc_beta(mid, a, b) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Regularized incomplete beta `I_x(a, b)` via the standard continued
/// fraction (Lentz's algorithm), using the symmetry
/// `I_x(a,b) = 1 - I_{1-x}(b,a)` to keep the fraction in its
/// fast-converging region.
fn reg_inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // ln B(a,b) from ln Γ.
    let ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b);
    let front = (a * x.ln() + b * (1.0 - x).ln() - ln_beta).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// The continued-fraction core of the incomplete beta (Numerical-Recipes
/// style modified Lentz iteration).
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-15;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        // even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// `ln Γ(x)` by the Lanczos approximation (g = 7, n = 9), accurate to
/// ~15 significant digits for positive arguments.
fn ln_gamma(x: f64) -> f64 {
    // Canonical published coefficients, kept verbatim even where they
    // exceed f64 precision.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps small arguments accurate.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn single_element_is_every_percentile() {
        for frac in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[42], frac), 42);
        }
    }

    #[test]
    fn endpoints_are_min_and_max() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 10);
    }

    #[test]
    fn even_length_median_is_lower_middle() {
        let s: Vec<u64> = (1..=10).collect();
        // (10-1)·0.5 = 4.5 → floor → index 4 → value 5 (the old `.round()`
        // convention said 6; this pin is the regression guard).
        assert_eq!(percentile(&s, 0.5), 5);
    }

    #[test]
    fn odd_length_median_is_the_middle() {
        let s: Vec<u64> = (1..=9).collect();
        assert_eq!(percentile(&s, 0.5), 5);
    }

    #[test]
    fn p95_on_twenty_samples() {
        let s: Vec<u64> = (1..=20).collect();
        // (20-1)·0.95 = 18.05 → index 18 → value 19.
        assert_eq!(percentile(&s, 0.95), 19);
    }

    #[test]
    fn out_of_range_frac_is_clamped() {
        let s: Vec<u64> = (1..=4).collect();
        assert_eq!(percentile(&s, -1.0), 1);
        assert_eq!(percentile(&s, 2.0), 4);
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=10 {
            let fact: u64 = (1..n).product();
            assert!(
                close(ln_gamma(n as f64), (fact as f64).ln(), 1e-10),
                "ln_gamma({n})"
            );
        }
        // Γ(1/2) = √π
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10
        ));
    }

    #[test]
    fn reg_inc_beta_known_values() {
        // I_x(1, 1) = x (uniform CDF).
        for x in [0.1, 0.37, 0.5, 0.92] {
            assert!(close(reg_inc_beta(x, 1.0, 1.0), x, 1e-12));
        }
        // I_x(1, b) = 1 - (1-x)^b.
        assert!(close(
            reg_inc_beta(0.3, 1.0, 5.0),
            1.0 - 0.7f64.powi(5),
            1e-12
        ));
        // Symmetry at the midpoint of a symmetric beta.
        assert!(close(reg_inc_beta(0.5, 3.0, 3.0), 0.5, 1e-12));
    }

    #[test]
    fn wilson_reference_value() {
        // Canonical textbook check: 15/542 at 95%.
        let (lo, hi) = wilson_interval(15, 542, Z_95);
        assert!(close(lo, 0.0169, 5e-4), "lo = {lo}");
        assert!(close(hi, 0.0451, 5e-4), "hi = {hi}");
    }

    #[test]
    fn wilson_handles_extremes() {
        let (lo, hi) = wilson_interval(0, 100, Z_95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05, "hi = {hi}");
        let (lo, hi) = wilson_interval(100, 100, Z_95);
        assert!(lo > 0.95 && lo < 1.0, "lo = {lo}");
        assert_eq!(hi, 1.0);
        assert_eq!(wilson_interval(0, 0, Z_95), (0.0, 1.0));
    }

    #[test]
    fn newcombe_reference_value() {
        // Newcombe (1998), Statistics in Medicine 17:873–890, Table II
        // example (a): 56/70 − 48/80 → [0.0524, 0.3339] by method 10.
        let (lo, hi) = newcombe_difference(56, 70, 48, 80, Z_95);
        assert!(close(lo, 0.0524, 5e-5), "lo = {lo}");
        assert!(close(hi, 0.3339, 5e-5), "hi = {hi}");
    }

    #[test]
    fn newcombe_straddles_zero_where_the_sample_cannot_tell() {
        // 6.5 % against 3.0 %: a gap of 3.5 points that ~100 crashes a
        // side cannot resolve.
        let (lo, hi) = newcombe_difference(7, 107, 3, 99, Z_95);
        assert!(lo < 0.0 && hi > 0.0, "7/107 vs 3/99 is not separable");
        // Zero successes on both sides: a point estimate of 0, an
        // interval around it, never outside [-1, 1].
        let (lo, hi) = newcombe_difference(0, 10, 0, 10, Z_95);
        assert!(lo < 0.0 && hi > 0.0 && lo >= -1.0 && hi <= 1.0);
        // No data constrains nothing.
        assert_eq!(newcombe_difference(0, 0, 0, 0, Z_95), (-1.0, 1.0));
    }

    #[test]
    fn clopper_pearson_reference_values() {
        // 0/100 at 95%: the "rule of three" upper bound ≈ 3.62%.
        let (lo, hi) = clopper_pearson(0, 100, 0.05);
        assert_eq!(lo, 0.0);
        assert!(close(hi, 0.0362, 5e-4), "hi = {hi}");
        // 5/50 at 95% ≈ (3.33%, 21.81%).
        let (lo, hi) = clopper_pearson(5, 50, 0.05);
        assert!(close(lo, 0.0333, 5e-4), "lo = {lo}");
        assert!(close(hi, 0.2181, 5e-4), "hi = {hi}");
        assert_eq!(clopper_pearson(0, 0, 0.05), (0.0, 1.0));
    }

    #[test]
    fn exact_interval_contains_wilson_center() {
        // Clopper–Pearson is conservative: it must contain the point
        // estimate, and broadly agree with Wilson.
        for (k, n) in [(1u64, 30u64), (15, 542), (29, 525), (11, 533), (250, 1000)] {
            let p = k as f64 / n as f64;
            let (elo, ehi) = clopper_pearson(k, n, 0.05);
            let (wlo, whi) = wilson_interval(k, n, Z_95);
            assert!(elo <= p && p <= ehi, "exact misses p̂ for {k}/{n}");
            assert!(wlo <= p && p <= whi, "wilson misses p̂ for {k}/{n}");
            assert!((elo - wlo).abs() < 0.02 && (ehi - whi).abs() < 0.02);
        }
    }
}
