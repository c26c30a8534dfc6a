//! Special functions needed for p-values.
//!
//! Table 2 of the paper reports Spearman correlations together with
//! p-values. Computing those p-values requires the Student-t survival
//! function, which in turn needs the regularized incomplete beta function
//! and the log-gamma function. All are implemented here from scratch
//! (Lanczos approximation + Lentz continued fraction), accurate to ~1e-12
//! over the parameter ranges the analyses use.

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
///
/// Accurate to ~15 significant digits for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g=7, n=9 (Godfrey / Numerical Recipes style).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Computed with the Lentz continued-fraction expansion, using the
/// symmetry relation to stay in the rapidly-converging region.
pub fn betainc_reg(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Modified Lentz continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

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
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
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
        // Odd step.
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

/// Two-sided p-value of a Student-t statistic with `df` degrees of
/// freedom: `P(|T| >= |t|)`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    // P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)
    betainc_reg(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Error function, Abramowitz & Stegun 7.1.26-style rational approximation
/// refined with one Newton step against `erfc`; absolute error < 1e-12 is
/// not needed by the analyses, < 1.5e-7 from the base approximation is
/// plenty for normal-tail diagnostics.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    // A&S 7.1.26.
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal survival function `P(Z > x)`.
pub fn normal_sf(x: f64) -> f64 {
    1.0 - normal_cdf(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
        assert!(
            (actual - expected).abs() <= tol,
            "{what}: got {actual}, expected {expected} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let x = (i + 1) as f64;
            assert_close(ln_gamma(x), f.ln(), 1e-10, "ln_gamma integer");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        assert_close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10,
            "ln_gamma(0.5)",
        );
        // Γ(3/2) = sqrt(π)/2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-10,
            "ln_gamma(1.5)",
        );
    }

    #[test]
    fn betainc_symmetry_and_bounds() {
        assert_eq!(betainc_reg(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betainc_reg(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.0, 0.9)] {
            assert_close(
                betainc_reg(a, b, x),
                1.0 - betainc_reg(b, a, 1.0 - x),
                1e-12,
                "beta symmetry",
            );
        }
    }

    #[test]
    fn betainc_uniform_case() {
        // I_x(1,1) = x.
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert_close(betainc_reg(1.0, 1.0, x), x, 1e-12, "I_x(1,1)");
        }
    }

    #[test]
    fn betainc_known_value() {
        // I_{0.5}(2,2) = 0.5 by symmetry; I_{0.25}(2,2) = 0.15625 exactly
        // (CDF of Beta(2,2) is 3x^2 - 2x^3).
        assert_close(betainc_reg(2.0, 2.0, 0.5), 0.5, 1e-12, "I_.5(2,2)");
        assert_close(betainc_reg(2.0, 2.0, 0.25), 0.15625, 1e-12, "I_.25(2,2)");
    }

    #[test]
    fn t_pvalue_reference_values() {
        // t=0 -> p=1.
        assert_close(student_t_two_sided_p(0.0, 10.0), 1.0, 1e-12, "t=0");
        // df=1 (Cauchy): P(|T|>=1) = 0.5.
        assert_close(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-10, "cauchy");
        // df=10, t=2.228...: the 97.5% quantile -> p = 0.05.
        assert_close(
            student_t_two_sided_p(2.228_138_85, 10.0),
            0.05,
            1e-6,
            "t quantile df=10",
        );
        // Large df approaches the normal: t=1.96, p ~ 0.05.
        let p = student_t_two_sided_p(1.96, 1e6);
        assert!((p - 0.05).abs() < 1e-3, "p {p}");
    }

    #[test]
    fn t_pvalue_monotone_in_t() {
        let mut last = 1.0;
        for i in 0..50 {
            let t = i as f64 * 0.2;
            let p = student_t_two_sided_p(t, 20.0);
            assert!(p <= last + 1e-12, "p-value must decrease with |t|");
            last = p;
        }
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has absolute error < 1.5e-7.
        assert_close(erf(0.0), 0.0, 2e-7, "erf(0)");
        assert_close(erf(1.0), 0.842_700_79, 2e-7, "erf(1)");
        assert_close(erf(-1.0), -0.842_700_79, 2e-7, "erf(-1)");
        assert_close(erf(2.0), 0.995_322_27, 2e-7, "erf(2)");
    }

    #[test]
    fn normal_cdf_properties() {
        assert_close(normal_cdf(0.0), 0.5, 2e-7, "Phi(0)");
        assert_close(normal_cdf(1.96), 0.975, 1e-4, "Phi(1.96)");
        for i in -30..30 {
            let x = i as f64 / 5.0;
            assert_close(normal_cdf(x) + normal_sf(x), 1.0, 1e-12, "cdf+sf identity");
        }
    }
}
