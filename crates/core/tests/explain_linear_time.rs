//! Explaining or predicting a block takes time linear in its length,
//! on two shapes whose dependence graphs stress different passes. A
//! 4096-instruction block may take at most 24× as long as its
//! 512-instruction twin (linear code gives 8×). Both `Facile::explain`
//! and `Facile::predict` are timed: the bound alone runs the same Howard
//! solve, dead-node peel included.
//!
//! - **A long acyclic tail**, explained unrolled: `add rax, 1; mov rcx,
//!   rax; (add rcx, rcx) × n`. The only cycle is `add rax`'s, and the
//!   `rcx` chain hangs off it. This pins Howard's dead-node peel, which
//!   must not re-scan every edge once per peeled node: that measured
//!   43–54× in debug and release builds.
//! - **A critical chain through the whole block**, explained as a loop:
//!   `add [rax+8n], rcx`, then `mov rcx, [rax+8(i+1)]; add [rax+8i],
//!   rcx` for i = n−1 down to 0. Each store feeds the next load, and the
//!   last `rcx` feeds the first add of the next iteration, so the chain
//!   has steps in every instruction. This pins the per-instruction
//!   attribution, which must not re-scan the chain for each
//!   instruction: that measured 38.7× in a release build.

use facile_core::{Facile, Mode};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_util::timing::{assert_ratio, Clock};
use facile_x86::reg::names::{RAX, RCX};
use facile_x86::reg::Width;
use facile_x86::{Block, Mem, Mnemonic, Operand};

type Prog = Vec<(Mnemonic, Vec<Operand>)>;

/// One timed call: explain or predict a block, returning its throughput.
type Run<'a> = &'a dyn Fn(&AnnotatedBlock) -> f64;

fn annotate(prog: &Prog) -> AnnotatedBlock {
    AnnotatedBlock::new(Block::assemble(prog).expect("assembles"), Uarch::Skl)
}

fn tail_block(n: usize) -> AnnotatedBlock {
    let mut prog = vec![
        (Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Imm(1)]),
        (Mnemonic::Mov, vec![Operand::Reg(RCX), Operand::Reg(RAX)]),
    ];
    prog.extend((0..n).map(|_| (Mnemonic::Add, vec![Operand::Reg(RCX), Operand::Reg(RCX)])));
    annotate(&prog)
}

fn chain_block(n: usize) -> AnnotatedBlock {
    let slot = |i: usize| {
        let disp = i32::try_from(8 * i).expect("small displacement");
        Operand::Mem(Mem::base_disp(RAX, disp, Width::W64))
    };
    let mut prog: Prog = vec![(Mnemonic::Add, vec![slot(n), Operand::Reg(RCX)])];
    for i in (0..n).rev() {
        prog.push((Mnemonic::Mov, vec![Operand::Reg(RCX), slot(i + 1)]));
        prog.push((Mnemonic::Add, vec![slot(i), Operand::Reg(RCX)]));
    }
    annotate(&prog)
}

fn assert_linear(shape: &str, block: fn(usize) -> AnnotatedBlock, mode: Mode) {
    // Eight small blocks and two large ones, each timed once per sample.
    // Each annotation has its own dataflow, so a run never reuses the
    // bounds the previous one computed (the bound-only path keeps them
    // per dataflow).
    let small: Vec<AnnotatedBlock> = (0..8).map(|_| block(512)).collect();
    let large: Vec<AnnotatedBlock> = (0..2).map(|_| block(4096)).collect();
    let model = Facile::new();
    let explain = |ab: &AnnotatedBlock| model.explain(ab, mode).throughput;
    let predict = |ab: &AnnotatedBlock| model.predict(ab, mode).throughput;
    let runs: [(&str, Run); 2] = [("explain", &explain), ("predict", &predict)];
    for (what, run) in runs {
        assert_ratio(
            Clock::Thread,
            &format!("{shape}, {what}: 4096 instructions vs 512"),
            24.0,
            (8, |i| assert!(run(&small[i]) > 0.0)),
            (2, |i| assert!(run(&large[i]) > 0.0)),
        );
    }
}

#[test]
fn explaining_a_long_dependence_tail_takes_linear_time() {
    assert_linear("acyclic tail", tail_block, Mode::Unrolled);
}

#[test]
fn explaining_a_block_long_critical_chain_takes_linear_time() {
    assert_linear("block-long chain", chain_block, Mode::Loop);
}
