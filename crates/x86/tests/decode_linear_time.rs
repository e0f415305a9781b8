//! Instruction decoding takes time linear in the block: a block of 8×
//! the instructions may take at most 16× as long (linear code gives 8×,
//! and the bound leaves 2× for noise where a quadratic decoder would
//! take 64×). Blocks reach the decoder from untrusted clients, up to a
//! 1 MiB request line, so each adversarial shape below is timed:
//!
//! * length-changing prefixes (`66` + imm16), which the predecoder
//!   model keys on;
//! * macro-fusible `cmp`/`jcc` pairs;
//! * a distinct memory displacement per instruction.

use facile_util::timing::{assert_ratio, Clock};
use facile_x86::Block;
use std::hint::black_box;

/// Instructions in the small block; the large one has eight times as
/// many.
const SMALL: u32 = 4096;

fn decode(bytes: &[u8], insts: usize) {
    let block = Block::decode(black_box(bytes)).expect("valid block");
    assert_eq!(block.num_insts(), insts);
}

/// A block of `n` instructions, each encoded by `inst(i)`.
fn block_of(n: u32, inst: impl Fn(u32) -> Vec<u8>) -> Vec<u8> {
    (0..n).flat_map(inst).collect()
}

fn assert_linear(shape: &str, per_block: usize, inst: impl Fn(u32) -> Vec<u8> + Copy) {
    let (small, large) = (block_of(SMALL, inst), block_of(SMALL * 8, inst));
    let n = SMALL as usize * per_block;
    // The small block is timed eight times over.
    assert_ratio(
        Clock::Thread,
        &format!("{shape}: {} B vs {} B", large.len(), small.len()),
        16.0,
        (8, |_| decode(&small, n)),
        (1, |_| decode(&large, n * 8)),
    );
}

#[test]
fn length_changing_prefixes_decode_in_linear_time() {
    // add cx, imm16: an operand-size prefix on a 16-bit immediate.
    assert_linear("66 + imm16", 1, |i| {
        let [lo, hi, ..] = i.to_le_bytes();
        vec![0x66, 0x81, 0xc1, lo, hi]
    });
}

#[test]
fn macro_fusible_pairs_decode_in_linear_time() {
    // cmp rax, rcx; jne -5 (back to the cmp).
    assert_linear("cmp/jcc pairs", 2, |_| vec![0x48, 0x39, 0xc8, 0x75, 0xfb]);
}

#[test]
fn distinct_displacements_decode_in_linear_time() {
    // mov rax, [rax + disp32], a new displacement each time.
    assert_linear("distinct disp32", 1, |i| {
        let mut inst = vec![0x48, 0x8b, 0x80];
        inst.extend_from_slice(&i.to_le_bytes());
        inst
    });
}
