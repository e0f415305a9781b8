//! Hex decoding takes time linear in its input: 1 MiB of hex may take
//! at most 16× as long as 128 KiB (linear code gives 8×, and the bound
//! leaves 2× for noise where a quadratic decoder would take 64×). A
//! request line of up to 1 MiB reaches this decoder from untrusted
//! clients.

use facile_util::timing::{assert_ratio, Clock};
use facile_x86::hex;
use std::hint::black_box;

fn decode(text: &str) {
    let bytes = hex::decode(black_box(text)).expect("valid hex");
    assert_eq!(bytes.len(), text.len() / 2);
}

#[test]
fn hex_decodes_in_linear_time() {
    // Mixed-case digits of a real block, repeated.
    let text = |bytes: usize| "4801C8480fafd0".repeat(bytes / 14);
    let (small, large) = (text(128 << 10), text(1 << 20));
    // The small input is timed eight times over.
    assert_ratio(
        Clock::Thread,
        &format!("{} B vs {} B", large.len(), small.len()),
        16.0,
        (8, |_| decode(&small)),
        (1, |_| decode(&large)),
    );
}
