//! Explaining a block takes time linear in its length, even when most
//! of its dependence graph is a long acyclic tail. The block is
//! `add rax, 1; mov rcx, rax; (add rcx, rcx) × n`: the only cycle is
//! `add rax`'s, and the `rcx` chain hangs off it. A 4096-instruction
//! tail may take at most 24× as long as a 512-instruction one (linear
//! code gives 8×). This pins Howard's dead-node peel, which must not
//! re-scan every edge once per peeled node: that measured 43–54× in
//! debug and release builds.

use facile_core::{Facile, Mode};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::reg::names::{RAX, RCX};
use facile_x86::{Block, Mnemonic, Operand};
use std::time::Instant;

fn tail_block(n: usize) -> AnnotatedBlock {
    let mut prog = vec![
        (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Imm(1)]),
        (Mnemonic::Mov, vec![Operand::Reg(RCX), Operand::Reg(RAX)]),
    ];
    prog.extend((0..n).map(|_| (Mnemonic::Add, vec![Operand::Reg(RCX), Operand::Reg(RCX)])));
    AnnotatedBlock::new(Block::assemble(&prog).expect("assembles"), Uarch::Skl)
}

/// Minimum over several samples of `reps` back-to-back explanations.
fn min_secs(ab: &AnnotatedBlock, reps: u32) -> f64 {
    let model = Facile::new();
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                let e = model.explain(ab, Mode::Unrolled);
                assert!(e.throughput > 0.0);
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn explaining_a_long_dependence_tail_takes_linear_time() {
    let (small, large) = (tail_block(512), tail_block(4096));
    // The small block is timed eight times over, so both samples last
    // about as long and a preempted run is as likely in either.
    let t_small = min_secs(&small, 8) / 8.0;
    let t_large = min_secs(&large, 1);
    let ratio = t_large / t_small;
    assert!(
        ratio <= 24.0,
        "4096 instructions took {t_large:.6} s, 512 took {t_small:.6} s: ratio {ratio:.1} > 24"
    );
}
