//! BHive CSV lines parse in time linear in their length: a 1 MiB line
//! may take at most 16× as long as a 128 KiB one (linear code gives 8×,
//! and the bound leaves 2× for noise where a quadratic parser would take
//! 64×). Batch inputs reach [`csv::hex_field`] line by line from files
//! and pipes, and a line has no length limit there.

use facile_bhive::csv;
use facile_util::timing::{assert_ratio, Clock};
use std::hint::black_box;

/// A `hex,throughput` line of about `bytes` bytes: the hex of a real
/// block, repeated, with blanks around the fields.
fn line(bytes: usize) -> String {
    format!("  {} , 1.25 ,extra", "4801c8480fafd0".repeat(bytes / 14))
}

/// Assert that `f` on a 1 MiB line takes at most 16× as long as on a
/// 128 KiB line, timing the small line eight times over.
fn assert_linear(f: impl Fn(&str), what: &str) {
    let (small, large) = (line(128 << 10), line(1 << 20));
    assert_ratio(
        Clock::Thread,
        &format!("{what}: {} B vs {} B", large.len(), small.len()),
        16.0,
        (8, |_| f(black_box(&small))),
        (1, |_| f(black_box(&large))),
    );
}

#[test]
fn hex_field_is_linear_in_the_line() {
    assert_linear(
        |l| {
            let hex = csv::hex_field(l).expect("not a comment");
            assert!(hex.starts_with("4801") && hex.ends_with("d0"));
        },
        "hex_field",
    );
}

#[test]
fn parse_line_is_linear_in_the_line() {
    assert_linear(
        |l| {
            let record = csv::parse_line(l).expect("valid line").expect("a record");
            assert_eq!(record.throughput, Some(1.25));
        },
        "parse_line",
    );
}
