//! A from-scratch fast `f64` parser for the ingestion hot path.
//!
//! [`parse_f64`] is **bit-exact** with `str::parse::<f64>()` — same
//! accepted grammar, same rejected inputs, same bits out (including the
//! sign of zero, subnormals, and the `inf`/`NaN` word forms) — while
//! being several times faster on the decimal forms power telemetry
//! actually contains (`151.25`, `72600`, `0.04`, `1.5e3`).
//!
//! The trick is the classic Clinger fast path: when the significand
//! fits in 53 bits and the decimal exponent keeps the scale inside the
//! exactly-representable powers of ten (`10^0 ..= 10^22`), the value is
//! `m × 10^e` computed with **one** IEEE multiply or divide of two
//! exactly-representable operands — and one correctly-rounded operation
//! on exact inputs yields the correctly-rounded decimal result, i.e.
//! precisely what `str::parse` produces. Everything outside that window
//! (19+ significant digits, huge exponents, subnormals, hex-ish
//! garbage, `inf`/`NaN` words) falls back to `str::parse` itself, so
//! equality is by construction rather than by re-implementation.
//!
//! The contract is enforced two ways: unit tests on the boundary cases
//! here, and a property-test corpus (`tests/fastfloat_parity.rs`)
//! driving random bit patterns, decimal strings, subnormals, and
//! malformed inputs through both parsers and comparing `to_bits()`.

/// Exactly-representable powers of ten: `10^k` for `k ≤ 22` has a
/// 53-bit-or-shorter significand, so `POW10[k] as f64` is exact.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Largest significand the fast path may use: `2^53`, the bound below
/// which every integer is exactly representable as an `f64`.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// Parses a decimal float exactly like `str::parse::<f64>()`.
///
/// Returns `None` iff `str::parse::<f64>` would return an error; on
/// success the returned value is bit-identical to `str::parse`'s.
#[inline]
pub fn parse_f64(s: &str) -> Option<f64> {
    match fast_path(s.as_bytes()) {
        Some(v) => Some(v),
        // Not a simple decimal within the exact window — let the
        // standard parser decide (and agree with it by construction).
        None => s.parse::<f64>().ok(),
    }
}

/// The exact-arithmetic fast path. Returns `Some` only when the input
/// is a complete simple decimal (`[+-]? digits [. digits]? ([eE][+-]?
/// digits)?` with at least one digit) whose significand and scale stay
/// inside the exact window. Anything else — including inputs
/// `str::parse` would reject — returns `None` and defers.
#[inline]
fn fast_path(b: &[u8]) -> Option<f64> {
    let mut i = 0;
    let negative = match b.first() {
        Some(b'-') => {
            i = 1;
            true
        }
        Some(b'+') => {
            i = 1;
            false
        }
        _ => false,
    };

    let mut mantissa: u64 = 0;
    let mut int_digits = 0usize;
    while let Some(d) = b.get(i).and_then(digit) {
        // Overflow guard: more than ~19 digits cannot stay exact.
        if mantissa > (u64::MAX - 9) / 10 {
            return None;
        }
        mantissa = mantissa * 10 + u64::from(d);
        int_digits += 1;
        i += 1;
    }

    let mut frac_digits = 0usize;
    if b.get(i) == Some(&b'.') {
        i += 1;
        while let Some(d) = b.get(i).and_then(digit) {
            if mantissa > (u64::MAX - 9) / 10 {
                return None;
            }
            mantissa = mantissa * 10 + u64::from(d);
            frac_digits += 1;
            i += 1;
        }
    }
    if int_digits + frac_digits == 0 {
        // ".", "+", "e5", "inf", "NaN", "" — not a simple decimal.
        return None;
    }

    let mut exp: i64 = 0;
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        let exp_negative = match b.get(i) {
            Some(b'-') => {
                i += 1;
                true
            }
            Some(b'+') => {
                i += 1;
                false
            }
            _ => false,
        };
        let mut exp_digits = 0usize;
        while let Some(d) = b.get(i).and_then(digit) {
            // Saturate: anything this large leaves the exact window
            // below anyway, and saturation avoids i64 overflow.
            exp = (exp * 10 + i64::from(d)).min(100_000);
            exp_digits += 1;
            i += 1;
        }
        if exp_digits == 0 {
            // "1e", "1e+" — str::parse rejects; defer so it does.
            return None;
        }
        if exp_negative {
            exp = -exp;
        }
    }
    if i != b.len() {
        // Trailing bytes ("1.5x", "1 ") — defer to str::parse's verdict.
        return None;
    }

    let e10 = exp - frac_digits as i64;
    if mantissa > MAX_EXACT_MANTISSA || !(-22..=22).contains(&e10) {
        return None;
    }
    // One correctly-rounded operation on two exact operands: the
    // Clinger fast-path guarantee of the correctly-rounded result.
    let m = mantissa as f64;
    let v = if e10 >= 0 {
        m * POW10[e10 as usize]
    } else {
        m / POW10[(-e10) as usize]
    };
    Some(if negative { -v } else { v })
}

#[inline]
fn digit(b: &u8) -> Option<u8> {
    b.is_ascii_digit().then(|| b - b'0')
}

/// Cursor-based fast path for fused row parsing: parses a float
/// literal starting at `*i`, stops at the first byte that cannot
/// continue it, and advances `*i` past what it consumed.
///
/// Returns `None` — with `*i` unspecified — when the literal is
/// malformed or leaves the exact window; the caller must then fall back
/// to per-field parsing, whose verdict is the behavioral contract. On
/// `Some(v)`, `v` is bit-identical to [`parse_f64`] of the consumed
/// text by construction: same grammar, same window checks, same single
/// rounding operation.
#[inline]
pub(crate) fn parse_f64_prefix(b: &[u8], i: &mut usize) -> Option<f64> {
    let negative = match b.get(*i) {
        Some(b'-') => {
            *i += 1;
            true
        }
        Some(b'+') => {
            *i += 1;
            false
        }
        _ => false,
    };

    let mut mantissa: u64 = 0;
    let mut digits = 0usize;
    while let Some(&c) = b.get(*i) {
        let x = c.wrapping_sub(b'0');
        if x > 9 {
            break;
        }
        if mantissa > (u64::MAX - 9) / 10 {
            return None;
        }
        mantissa = mantissa * 10 + u64::from(x);
        digits += 1;
        *i += 1;
    }
    let mut frac_digits = 0usize;
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        while let Some(&c) = b.get(*i) {
            let x = c.wrapping_sub(b'0');
            if x > 9 {
                break;
            }
            if mantissa > (u64::MAX - 9) / 10 {
                return None;
            }
            mantissa = mantissa * 10 + u64::from(x);
            frac_digits += 1;
            *i += 1;
        }
        digits += frac_digits;
    }
    if digits == 0 {
        return None;
    }

    let mut exp: i64 = 0;
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        let exp_negative = match b.get(*i) {
            Some(b'-') => {
                *i += 1;
                true
            }
            Some(b'+') => {
                *i += 1;
                false
            }
            _ => false,
        };
        let mut exp_digits = 0usize;
        while let Some(&c) = b.get(*i) {
            let x = c.wrapping_sub(b'0');
            if x > 9 {
                break;
            }
            exp = (exp * 10 + i64::from(x)).min(100_000);
            exp_digits += 1;
            *i += 1;
        }
        if exp_digits == 0 {
            return None;
        }
        if exp_negative {
            exp = -exp;
        }
    }

    let e10 = exp - frac_digits as i64;
    if mantissa > MAX_EXACT_MANTISSA || !(-22..=22).contains(&e10) {
        return None;
    }
    let m = mantissa as f64;
    let v = if e10 >= 0 {
        m * POW10[e10 as usize]
    } else {
        m / POW10[(-e10) as usize]
    };
    Some(if negative { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both parsers, compared to the bit (NaN compares by bit pattern
    /// too, so a NaN result must match exactly).
    fn assert_matches_std(s: &str) {
        let std = s.parse::<f64>().ok();
        let fast = parse_f64(s);
        match (std, fast) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{s:?}: std {a:?} vs fast {b:?}")
            }
            (a, b) => panic!("{s:?}: std {a:?} vs fast {b:?}"),
        }
    }

    #[test]
    fn simple_decimals_take_the_fast_path() {
        for s in [
            "0",
            "1",
            "-1",
            "+1",
            "151.25",
            "72600",
            "0.04",
            "1.5e3",
            "2e-5",
            "123.456e10",
            "9007199254740992", // 2^53, still exact
            "-0.0",
            "0.0",
            "1.",
            ".5",
            "-.5",
            "00000000000000000001.5",
            "3e+2",
        ] {
            assert_matches_std(s);
        }
    }

    #[test]
    fn fast_path_actually_fires_on_the_simple_forms() {
        for s in ["151.25", "72600", "0.04", "1.5e3", "-0.0", "12345.6789"] {
            assert!(
                fast_path(s.as_bytes()).is_some(),
                "{s:?} missed the fast path"
            );
        }
    }

    #[test]
    fn window_edges_defer_but_agree() {
        for s in [
            "9007199254740993", // 2^53 + 1: mantissa over the exact bound
            "1e23",             // scale past the exact powers
            "1e-23",
            "1.7976931348623157e308",
            "5e-324", // smallest subnormal
            "1e-320",
            "2.2250738585072011e-308", // the infamous slow-path value
            "1e400",                   // overflows to inf
            "-1e400",
            "1e-400", // underflows to zero
            "123456789012345678901234567890.123456789",
        ] {
            assert_matches_std(s);
        }
    }

    #[test]
    fn word_forms_defer_to_std() {
        for s in ["inf", "-inf", "infinity", "NaN", "nan", "-NaN", "INF"] {
            assert_matches_std(s);
        }
    }

    #[test]
    fn rejections_match_std() {
        for s in [
            "",
            ".",
            "+",
            "-",
            "e5",
            "1e",
            "1e+",
            "1..2",
            "1.5x",
            " 1",
            "1 ",
            "0x10",
            "1_000",
            "--1",
            "++1",
            "1.2.3",
            "not-a-number",
            ",",
            "NaN5",
        ] {
            assert_matches_std(s);
        }
    }

    #[test]
    fn signed_zero_keeps_its_sign_bit() {
        assert_eq!(parse_f64("-0.0").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(parse_f64("0.0").unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(parse_f64("-0").unwrap().to_bits(), (-0.0f64).to_bits());
    }
}
