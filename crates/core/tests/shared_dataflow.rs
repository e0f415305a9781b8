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

use facile_core::{precedence, Facile, Mode};
use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_x86::reg::names::*;
use facile_x86::{Block, Cond, Mem, Mnemonic, Operand, Width};
use std::collections::HashSet;
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
