//! Property-test corpus proving [`hpcpower_trace::fastfloat::parse_f64`]
//! is bit-exact with `str::parse::<f64>` — the contract the ingestion
//! engine's zero-copy row parser relies on.
//!
//! Coverage axes: random `f64` bit patterns rendered in every `format!`
//! style, synthetic decimal strings (leading zeros, signs, exponents),
//! subnormals, huge/tiny exponents, and the `inf`/`NaN` word forms plus
//! malformed rejections.

use hpcpower_trace::fastfloat::parse_f64;
use proptest::prelude::*;

/// Asserts both parsers agree: same accept/reject verdict and, on
/// accept, identical bits (NaN compared by bit pattern too).
fn assert_bit_exact(s: &str) {
    let std = s.parse::<f64>().ok();
    let fast = parse_f64(s);
    match (std, fast) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{s:?}: std {a:?} ({:#018x}) vs fast {b:?} ({:#018x})",
            a.to_bits(),
            b.to_bits()
        ),
        (a, b) => panic!("{s:?}: verdicts differ — std {a:?} vs fast {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Random bit patterns round-tripped through every standard
    /// rendering. Covers normals, subnormals, infinities, NaNs, and
    /// signed zeros as they would actually be printed.
    #[test]
    fn random_bits_round_trip(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        assert_bit_exact(&format!("{v}"));
        assert_bit_exact(&format!("{v:e}"));
        assert_bit_exact(&format!("{v:E}"));
        assert_bit_exact(&format!("{v:.17}"));
        assert_bit_exact(&format!("{v:.3}"));
    }

    /// Synthetic decimals: optional sign, leading zeros, fractional
    /// part, exponent — hitting both the Clinger window and the
    /// fallback on either side.
    #[test]
    fn synthetic_decimals(
        sign in 0u32..3,
        zeros in 0usize..4,
        int in any::<u64>(),
        frac in 0u64..1_000_000_000,
        frac_width in 1usize..12,
        exp in -340i32..340,
        with_exp in 0u32..2,
    ) {
        let sign = ["", "-", "+"][sign as usize];
        let zeros = "0".repeat(zeros);
        let mut s = format!("{sign}{zeros}{int}.{frac:0frac_width$}");
        if with_exp == 1 {
            s.push_str(&format!("e{exp}"));
        }
        assert_bit_exact(&s);
    }

    /// Subnormal territory: tiny mantissas scaled far below normal
    /// range must defer to the slow path and still agree.
    #[test]
    fn subnormals_agree(mantissa in 1u64..100_000, exp in 300u32..330) {
        assert_bit_exact(&format!("{mantissa}e-{exp}"));
        assert_bit_exact(&format!("0.{mantissa:020}e-{exp}"));
    }

    /// Integer-only forms with huge magnitudes (past 2^53) exercise the
    /// mantissa-overflow guard.
    #[test]
    fn big_integers_agree(v in any::<u64>()) {
        assert_bit_exact(&format!("{v}"));
        assert_bit_exact(&format!("-{v}"));
        assert_bit_exact(&format!("{v}00000"));
    }

    /// Power-telemetry-shaped values: watts with a few decimal places —
    /// the strings the jobs/system tables actually contain.
    #[test]
    fn telemetry_shapes_agree(w in 0.0f64..100_000.0, places in 0usize..6) {
        assert_bit_exact(&format!("{w:.places$}"));
    }
}

#[test]
fn word_forms_and_rejections() {
    for s in [
        "inf",
        "-inf",
        "+inf",
        "infinity",
        "-infinity",
        "NaN",
        "nan",
        "-NaN",
        "+nan",
        "INF",
        "Infinity",
    ] {
        assert_bit_exact(s);
    }
    for s in [
        "",
        " ",
        ".",
        "+",
        "-",
        "e",
        "e5",
        "1e",
        "1e+",
        "1e-",
        "1..2",
        "1.2.3",
        "0x1p3",
        "0b101",
        "1_000",
        "--1",
        "++1",
        "1f64",
        "1.5 ",
        " 1.5",
        "1,5",
        "NaN(payload)",
        "12e999999999999999999999",
        "-.e3",
    ] {
        assert_bit_exact(s);
    }
    // Window boundaries, pinned explicitly (also covered randomly).
    for s in [
        "9007199254740992",
        "9007199254740993",
        "1e22",
        "1e23",
        "1e-22",
        "1e-23",
        "2.2250738585072011e-308",
        "2.2250738585072014e-308",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "5e-324",
        "2e-324",
        "4.9406564584124654e-324",
    ] {
        assert_bit_exact(s);
    }
}
