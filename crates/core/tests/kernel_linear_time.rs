//! Each component kernel takes time linear in the block: on a block of
//! 4,096 instructions it may take at most 24× as long as on one of 512
//! (linear code gives 8×). A kernel runs once per prediction on blocks
//! that reach the engine from untrusted clients, so each is timed on
//! three adversarial shapes:
//!
//! - a distinct memory value per instruction (`add [rax+8i], rcx`),
//!   which gives the dependence graph one load and one store per
//!   instruction;
//! - macro-fused `cmp`/`jcc` pairs, a branch every other instruction;
//! - `66` + imm16 length-changing prefixes (`add cx, imm16`), which the
//!   predecoder model charges per instruction.
//!
//! The predecoder and precedence bounds keep the bounds of the last
//! dataflow a thread saw (`memo.rs`), so every timed call gets a block
//! annotated on its own: eight small blocks and two large ones, taken in
//! turn, so no call follows one on the same dataflow.

use facile_core::{dec, dsb, issue, lsd, ports, precedence, predec, Mode};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_util::timing::{assert_ratio, Clock};
use facile_x86::Block;

/// Instructions in the small blocks; the large ones have eight times as
/// many.
const SMALL: usize = 512;

/// One shape: its name and the encoding of instruction `i`.
type Shape = (&'static str, fn(usize) -> Vec<u8>);

const SHAPES: [Shape; 3] = [
    ("distinct memory values", |i| {
        // add [rax + 8i], rcx
        let mut inst = vec![0x48, 0x01, 0x88];
        inst.extend_from_slice(&u32::try_from(8 * i).expect("small").to_le_bytes());
        inst
    }),
    ("cmp/jcc pairs", |i| {
        // cmp rax, rcx, then jne -5 (back to the cmp) after it.
        if i % 2 == 0 {
            vec![0x48, 0x39, 0xc8]
        } else {
            vec![0x75, 0xfb]
        }
    }),
    ("66 + imm16", |i| {
        // add cx, imm16
        let [lo, hi, ..] = i.to_le_bytes();
        vec![0x66, 0x81, 0xc1, lo, hi]
    }),
];

fn annotate(n: usize, inst: fn(usize) -> Vec<u8>) -> AnnotatedBlock {
    let bytes: Vec<u8> = (0..n).flat_map(inst).collect();
    let block = Block::decode(&bytes).expect("valid block");
    assert_eq!(block.num_insts(), n);
    AnnotatedBlock::new(block, Uarch::Skl)
}

/// Time `kernel` on every shape: the small blocks twice over against the
/// large ones, so both sizes run the same number of instructions.
fn assert_linear(name: &str, kernel: impl Fn(&AnnotatedBlock) -> f64) {
    for (shape, inst) in SHAPES {
        let small: Vec<AnnotatedBlock> = (0..8).map(|_| annotate(SMALL, inst)).collect();
        let large: Vec<AnnotatedBlock> = (0..2).map(|_| annotate(SMALL * 8, inst)).collect();
        assert_ratio(
            Clock::Thread,
            &format!("{name}, {shape}: {} instructions vs {SMALL}", SMALL * 8),
            24.0,
            (16, |i| assert!(kernel(&small[i % 8]) >= 0.0)),
            (2, |i| assert!(kernel(&large[i]) >= 0.0)),
        );
    }
}

#[test]
fn predec_takes_linear_time() {
    assert_linear("predec", |ab| {
        predec::predec(ab, Mode::Unrolled) + predec::predec(ab, Mode::Loop)
    });
}

#[test]
fn dec_takes_linear_time() {
    assert_linear("dec", dec::dec);
}

#[test]
fn dsb_takes_linear_time() {
    assert_linear("dsb", dsb::dsb);
}

#[test]
fn lsd_takes_linear_time() {
    assert_linear("lsd", lsd::lsd);
}

#[test]
fn issue_takes_linear_time() {
    assert_linear("issue", issue::issue);
}

#[test]
fn ports_takes_linear_time() {
    assert_linear("ports", |ab| ports::ports(ab).bound);
}

#[test]
fn precedence_bound_takes_linear_time() {
    assert_linear("precedence_bound", precedence::precedence_bound);
}
