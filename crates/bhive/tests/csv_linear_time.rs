//! BHive CSV lines parse in time linear in their length: a 1 MiB line
//! may take at most 16× as long as a 128 KiB one (linear code gives 8×,
//! and the bound leaves 2× for noise where a quadratic parser would take
//! 64×). Batch inputs reach [`csv::hex_field`] line by line from files
//! and pipes, and a line has no length limit there.

use facile_bhive::csv;
use std::time::Instant;

/// A `hex,throughput` line of about `bytes` bytes: the hex of a real
/// block, repeated, with blanks around the fields.
fn line(bytes: usize) -> String {
    format!("  {} , 1.25 ,extra", "4801c8480fafd0".repeat(bytes / 14))
}

/// Minimum over several runs of `reps` back-to-back calls of `f` on
/// `text`, in seconds.
fn min_secs(text: &str, reps: usize, f: impl Fn(&str)) -> f64 {
    (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f(std::hint::black_box(text));
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Assert that `f` on a 1 MiB line takes at most 16× as long as on a
/// 128 KiB line.
fn assert_linear(f: impl Fn(&str) + Copy, what: &str) {
    let (small, large) = (line(128 << 10), line(1 << 20));
    // The small line is timed eight times over, so both samples last
    // about as long and a preempted run is as likely in either.
    let t_small = min_secs(&small, 8, f) / 8.0;
    let t_large = min_secs(&large, 1, f);
    let ratio = t_large / t_small;
    assert!(
        ratio <= 16.0,
        "{what}: {} B took {t_large:.6} s, {} B took {t_small:.6} s: ratio {ratio:.1} > 16",
        large.len(),
        small.len()
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
