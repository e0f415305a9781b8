//! Hex decoding takes time linear in its input: 1 MiB of hex may take
//! at most 16× as long as 128 KiB (linear code gives 8×, and the bound
//! leaves 2× for noise where a quadratic decoder would take 64×). A
//! request line of up to 1 MiB reaches this decoder from untrusted
//! clients.

use facile_x86::hex;
use std::time::Instant;

/// Minimum over several runs of `reps` back-to-back decodes of `text`,
/// in seconds.
fn min_decode_secs(text: &str, reps: usize) -> f64 {
    (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                let bytes = hex::decode(std::hint::black_box(text)).expect("valid hex");
                assert_eq!(bytes.len(), text.len() / 2);
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn hex_decodes_in_linear_time() {
    // Mixed-case digits of a real block, repeated.
    let text = |bytes: usize| "4801C8480fafd0".repeat(bytes / 14);
    let (small, large) = (text(128 << 10), text(1 << 20));
    // The small input is timed eight times over, so both samples last
    // about as long and a preempted run is as likely in either.
    let t_small = min_decode_secs(&small, 8) / 8.0;
    let t_large = min_decode_secs(&large, 1);
    let ratio = t_large / t_small;
    assert!(
        ratio <= 16.0,
        "{} B took {t_large:.6} s, {} B took {t_small:.6} s: ratio {ratio:.1} > 16",
        large.len(),
        small.len()
    );
}
