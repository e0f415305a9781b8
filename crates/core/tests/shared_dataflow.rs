//! One dataflow, nine uarchs: annotating a block's shared
//! [`Dataflow`] for each microarchitecture must predict exactly what the
//! naive per-uarch reference path (`new_uninterned`) predicts — the
//! precedence bound bit for bit, the critical chain step for step, and
//! the whole explanation.
//!
//! The interesting blocks are those whose macro fusion differs by uarch
//! (`dec rdx; jne` fuses on Skylake but not on Sandy Bridge): the shared
//! flows cover every instruction, and the per-uarch latency column alone
//! decides which fused tails the dependence graph skips.
//!
//! The bound-only entry points reuse a bound across the annotations of
//! one dataflow on a thread, so the same comparison also runs in an
//! interleaved uarch order and over dataflows freed and rebuilt in a
//! loop, against references that each build their own dataflow.

use facile_core::{precedence, predec, Facile, Mode, Prediction};
use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_x86::reg::names::*;
use facile_x86::{Block, Cond, Mem, Mnemonic, Operand, Reg, Width};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Hand-written loops whose fusion differs by uarch, including a fused
/// pair in the middle of a block (its tail's values are interned before
/// later instructions' values).
fn handwritten() -> Vec<Block> {
    let jne = |rel| (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(rel)]);
    let progs: Vec<Vec<(Mnemonic, Vec<Operand>)>> = vec![
        vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            jne(-7),
        ],
        vec![
            (Mnemonic::Imul, vec![RAX.into(), RAX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            jne(2),
            (Mnemonic::Add, vec![RCX.into(), RAX.into()]),
            (Mnemonic::Sub, vec![RSI.into(), RCX.into()]),
            jne(-16),
        ],
        vec![
            (
                Mnemonic::Add,
                vec![RAX.into(), Operand::Mem(Mem::base(RSI, Width::W64))],
            ),
            (Mnemonic::And, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Jcc(Cond::E), vec![Operand::Rel(-8)]),
        ],
        vec![
            (
                Mnemonic::Mov,
                vec![Operand::Mem(Mem::base_disp(RDI, 8, Width::W64)), RAX.into()],
            ),
            (
                Mnemonic::Add,
                vec![RAX.into(), Operand::Mem(Mem::base_disp(RDI, 8, Width::W64))],
            ),
            (Mnemonic::Inc, vec![RBX.into()]),
            jne(-14),
        ],
        // A loading pair head (fuses everywhere) before a `dec; jne`.
        vec![
            (
                Mnemonic::Cmp,
                vec![RAX.into(), Operand::Mem(Mem::base(RSI, Width::W64))],
            ),
            jne(4),
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            jne(-13),
        ],
    ];
    progs
        .iter()
        .map(|p| Block::assemble(p).expect("block assembles"))
        .collect()
}

/// Generated blocks whose number of fused tails differs between two
/// uarchs.
fn generated(n: usize) -> Vec<Block> {
    let fused_tails = |b: &Block, u| {
        AnnotatedBlock::new(b.clone(), u)
            .insts()
            .iter()
            .filter(|a| a.fused_with_prev)
            .count()
    };
    let mut seen = HashSet::new();
    facile_bhive::BlockStream::new(20)
        .map(|g| g.block)
        .filter(|b| !b.is_empty() && seen.insert(b.bytes().to_vec()))
        .filter(|b| fused_tails(b, Uarch::Snb) != fused_tails(b, Uarch::Skl))
        .take(n)
        .collect()
}

#[test]
fn a_shared_dataflow_predicts_like_the_reference_on_every_uarch() {
    let blocks: Vec<Block> = handwritten().into_iter().chain(generated(200)).collect();
    let mut fusion_differs = 0;
    for block in &blocks {
        let dataflow = Arc::new(Dataflow::new(Arc::new(block.clone())));
        let mut tails = HashSet::new();
        for u in Uarch::ALL {
            let shared = AnnotatedBlock::from_dataflow(Arc::clone(&dataflow), u);
            let reference = AnnotatedBlock::new_uninterned(block.clone(), u);
            let hex = block.to_hex();
            assert_eq!(shared.insts(), reference.insts(), "{hex} {u}");
            let (got, want) = (
                precedence::precedence(&shared),
                precedence::precedence(&reference),
            );
            assert_eq!(got.bound.to_bits(), want.bound.to_bits(), "{hex} {u}");
            assert_eq!(got.critical_chain, want.critical_chain, "{hex} {u}");
            for mode in [Mode::Loop, Mode::Unrolled] {
                assert_eq!(
                    Facile::new().explain(&shared, mode),
                    Facile::new().explain(&reference, mode),
                    "{hex} {u} {mode:?}"
                );
            }
            tails.insert(shared.insts().iter().filter(|a| a.fused_with_prev).count());
        }
        fusion_differs += usize::from(tails.len() > 1);
    }
    // Every block fuses differently on some pair of uarchs.
    assert_eq!(fusion_differs, blocks.len());
}

/// Everything the bound-only entry points return for one annotation,
/// floats as bits: `Facile::predict` and `predec` in both modes, and
/// `precedence_bound`. Each call after the first on a dataflow can be
/// served from the per-thread bound memo.
fn memoized_outputs(ab: &AnnotatedBlock) -> String {
    outputs(
        ab,
        |mode| Facile::new().predict(ab, mode),
        |mode| predec::predec(ab, mode),
        || precedence::precedence_bound(ab),
    )
}

/// The same outputs of `block` on `u` from the evidence paths, which
/// never reuse a bound, on an annotation with its own dataflow.
fn reference_outputs(block: &Block, u: Uarch) -> String {
    let ab = AnnotatedBlock::new_uninterned(block.clone(), u);
    outputs(
        &ab,
        |mode| Prediction::from(Facile::new().explain(&ab, mode)),
        |mode| predec::predec_analysis(&ab, mode).bound,
        || precedence::precedence(&ab).bound,
    )
}

fn outputs(
    ab: &AnnotatedBlock,
    predict: impl Fn(Mode) -> Prediction,
    predec: impl Fn(Mode) -> f64,
    precedence: impl Fn() -> f64,
) -> String {
    let mut s = format!("{} {}: ", ab.block().to_hex(), ab.uarch());
    for mode in [Mode::Loop, Mode::Unrolled] {
        let p = predict(mode);
        let _ = write!(s, "{mode:?} {:x}", p.throughput.to_bits());
        for (c, b) in &p.bounds {
            let _ = write!(s, " {c:?}={:x}", b.to_bits());
        }
        let _ = write!(
            s,
            " {:?} {:?} predec={:x}; ",
            p.bottlenecks,
            p.front_end,
            predec(mode).to_bits()
        );
    }
    let _ = write!(s, "precedence={:x}", precedence().to_bits());
    s
}

/// `mulsd xmm0, xmm1`: a carried chain of 4 cycles on SKL and 5 on HSW.
fn mulsd() -> Block {
    Block::assemble(&[(
        Mnemonic::Mulsd,
        vec![Operand::Reg(Reg::Xmm(0)), Operand::Reg(Reg::Xmm(1))],
    )])
    .expect("block assembles")
}

#[test]
fn interleaved_uarchs_of_shared_dataflows_match_fresh_references() {
    let one = mulsd();
    let skl = precedence::precedence_bound(&AnnotatedBlock::new(one.clone(), Uarch::Skl));
    let hsw = precedence::precedence_bound(&AnnotatedBlock::new(one.clone(), Uarch::Hsw));
    assert_eq!((skl, hsw), (4.0, 5.0), "the bound differs by uarch");
    let blocks: Vec<Block> = std::iter::once(one)
        .chain(handwritten())
        .chain(generated(40))
        .collect();
    for pair in blocks.windows(2) {
        let dataflows: Vec<Arc<Dataflow>> = pair
            .iter()
            .map(|b| Arc::new(Dataflow::new(Arc::new(b.clone()))))
            .collect();
        // All nine uarchs of A, then of B, then A again in reverse.
        let forward = (0..Uarch::ALL.len()).map(|k| (0, k));
        let second = (0..Uarch::ALL.len()).map(|k| (1, k));
        let reverse = (0..Uarch::ALL.len()).rev().map(|k| (0, k));
        for (b, k) in forward.chain(second).chain(reverse) {
            let u = Uarch::ALL[k];
            let ab = AnnotatedBlock::from_dataflow(Arc::clone(&dataflows[b]), u);
            assert_eq!(memoized_outputs(&ab), reference_outputs(&pair[b], u));
        }
    }
}

#[test]
fn rebuilt_dataflows_of_same_length_blocks_match_fresh_references() {
    // Two-instruction blocks with equal latency columns on every uarch
    // but different bounds: a freed dataflow's memory is likely to hold
    // the next one, so only an id that is never reused tells them
    // apart. The references are computed up front, so that nothing
    // else is allocated between one shared dataflow and the next.
    let progs: Vec<Vec<(Mnemonic, Vec<Operand>)>> = vec![
        vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Add, vec![RAX.into(), RDX.into()]),
        ],
        vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Add, vec![RDX.into(), RSI.into()]),
        ],
        vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Add, vec![R8.into(), R9.into()]),
        ],
        vec![(Mnemonic::Nop, vec![]), (Mnemonic::Nop, vec![])],
    ];
    let blocks: Vec<Block> = progs
        .iter()
        .map(|p| Block::assemble(p).expect("block assembles"))
        .collect();
    let want: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| Uarch::ALL.iter().map(|&u| reference_outputs(b, u)).collect())
        .collect();
    for round in 0..50 {
        for (b, block) in blocks.iter().enumerate() {
            let dataflow = Arc::new(Dataflow::new(Arc::new(block.clone())));
            let k = (round + b) % Uarch::ALL.len();
            let ab = AnnotatedBlock::from_dataflow(dataflow, Uarch::ALL[k]);
            assert_eq!(memoized_outputs(&ab), want[b][k], "round {round}");
        }
    }
}
