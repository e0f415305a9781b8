//! The row writers' fast paths against their `std` oracles:
//! [`json_num`] must print exactly what `{v}` prints (`null` for
//! non-finite values) and [`fixed4`] exactly what `{v:.4}` prints, for
//! every `f64` — arbitrary bit patterns, dyadic fractions on both sides
//! of the fast path's 1e12 cut-off, both zeros, values near 1e12 and
//! 2^53, subnormals, NaN and the infinities. The JSON escaper is held to
//! its per-character reference the same way.

use facile_explain::{fixed4, json_escape, json_num};
use proptest::prelude::*;

fn fast_num(v: f64) -> String {
    let mut s = String::new();
    json_num(&mut s, v);
    s
}

fn fast_fixed4(v: f64) -> String {
    let mut s = String::new();
    fixed4(&mut s, v);
    s
}

fn check(v: f64) {
    let want = if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    };
    assert_eq!(
        fast_num(v),
        want,
        "json_num({v:e}, bits {:#x})",
        v.to_bits()
    );
    assert_eq!(
        fast_fixed4(v),
        format!("{v:.4}"),
        "fixed4({v:e}, bits {:#x})",
        v.to_bits()
    );
}

/// `k / 2^m`, rounded once (exact while `|k| < 2^53`).
#[allow(clippy::cast_precision_loss)]
fn dyadic(k: i64, m: u32) -> f64 {
    k as f64 / f64::from(1u32 << m)
}

#[test]
fn edge_values_match_std() {
    let specials = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 16.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::EPSILON,
        1.0 / 3.0,
        2.0 / 3.0,
        0.1,
        1e-5,
        -0.00004,
        0.00005,
        0.99995,
        1e12,
        -1e12,
        1e21,
        1e22,
    ];
    for v in specials {
        check(v);
    }
    let two53 = 9_007_199_254_740_992.0_f64;
    for j in -64i32..=64 {
        let j = f64::from(j);
        check(1e12 + j / 16.0);
        check(-1e12 + j / 16.0);
        check(1e12 + j);
        check(two53 + j);
        check(-two53 - j);
        check(two53 / 16.0 + j / 16.0);
    }
    // The neighbours of the cut-off, one ulp at a time.
    let mut up = 1e12_f64;
    let mut down = 1e12_f64;
    for _ in 0..64 {
        up = f64::from_bits(up.to_bits() + 1);
        down = f64::from_bits(down.to_bits() - 1);
        check(up);
        check(down);
        check(-up);
        check(-down);
    }
    // Every 128th in [-64, 64]: the sixteenths take the fast path, the
    // rest the fallback.
    for k in -8192i64..=8192 {
        check(dyadic(k, 7));
    }
}

#[test]
fn escape_matches_per_char_reference() {
    fn reference(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut all: String = (0u8..0x80).map(char::from).collect();
    all.push_str("é\u{2028}𝄞\"plain\\");
    for s in [
        "",
        "plain",
        "\"",
        "a\"b\\c\nd",
        "\u{1f}x\u{0}",
        all.as_str(),
    ] {
        assert_eq!(json_escape(s), reference(s), "{s:?}");
    }
    for start in 0..all.len() {
        if all.is_char_boundary(start) {
            assert_eq!(json_escape(&all[start..]), reference(&all[start..]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bit patterns: mostly huge, tiny or NaN, so mostly the
    /// fallback, but every class of `f64` turns up.
    #[test]
    fn arbitrary_bits_match_std(bits in any::<u64>()) {
        check(f64::from_bits(bits));
    }

    /// Dyadic fractions `k / 2^m`: the fast path's domain (m ≤ 4, below
    /// 1e12) and its neighbours (finer fractions, and magnitudes past the
    /// cut-off up to 2^52).
    #[test]
    fn dyadic_fractions_match_std(
        k in -(1i64 << 52)..(1i64 << 52),
        small in -100_000i64..100_000,
        m in 0u32..12,
    ) {
        check(dyadic(k, m));
        check(dyadic(small, m));
    }
}
