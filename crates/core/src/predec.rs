//! The predecoder throughput predictor (§4.3 of the paper).
//!
//! The predecoder fetches aligned 16-byte blocks and can predecode up to
//! five instructions per cycle. Instructions that cross a 16-byte boundary
//! may incur an extra cycle, and instructions with a length-changing prefix
//! (LCP) incur a three-cycle penalty that can partially overlap with the
//! predecoding of the previous block.

use crate::predict::Mode;
use facile_explain::{Component, ComponentAnalysis, Evidence, PredecEvidence};
use facile_isa::AnnotatedBlock;
use std::cell::RefCell;

/// Reusable per-16-byte-block counters (one set per thread): the
/// predecoder bound runs once per prediction, and for layouts that only
/// repeat after several unrolled copies the counter arrays are the size
/// of the whole repeating window.
#[derive(Debug, Default)]
struct PredecScratch {
    l_cnt: Vec<u32>,
    o_cnt: Vec<u32>,
    lcp_cnt: Vec<u32>,
}

thread_local! {
    static PREDEC_SCRATCH: RefCell<PredecScratch> = RefCell::new(PredecScratch::default());
}

/// The full predecoder model: per-16-byte-block cycle counts with boundary
/// and LCP penalties (the paper's `Predec`).
///
/// Returns predicted cycles per iteration. Another annotation of the
/// same dataflow with the same predecode width reuses the bound (see
/// `crate::memo`).
#[must_use]
pub fn predec(ab: &AnnotatedBlock, mode: Mode) -> f64 {
    crate::memo::predec(ab, mode, || predec_impl(ab, mode, None))
}

/// The predecoder bound as a typed [`ComponentAnalysis`], with the
/// frontend path breakdown (unroll window, chunk count, boundary
/// crossings, LCP penalty cycles) as evidence.
#[must_use]
pub fn predec_analysis(ab: &AnnotatedBlock, mode: Mode) -> ComponentAnalysis {
    let mut ev = PredecEvidence::default();
    let bound = predec_impl(ab, mode, Some(&mut ev));
    ComponentAnalysis {
        component: Component::Predec,
        bound,
        evidence: Evidence::Predec(ev),
    }
}

fn predec_impl(ab: &AnnotatedBlock, mode: Mode, evidence: Option<&mut PredecEvidence>) -> f64 {
    let l = ab.byte_len();
    if l == 0 {
        return 0.0;
    }
    let width = f64::from(ab.uarch().config().predecode_width);

    // Number of unrolled copies until the byte layout repeats.
    let u = match mode {
        Mode::Unrolled => lcm(l, 16) / l,
        Mode::Loop => 1,
    };
    let n_blocks = (u * l).div_ceil(16);

    PREDEC_SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        // L(b): instructions whose last byte is in block b.
        // O(b): instructions whose nominal opcode starts in block b but
        //       whose last byte is in a later block.
        // LCP(b): LCP instructions whose nominal opcode starts in block b.
        let (l_cnt, o_cnt, lcp_cnt) = (&mut s.l_cnt, &mut s.o_cnt, &mut s.lcp_cnt);
        for c in [&mut *l_cnt, &mut *o_cnt, &mut *lcp_cnt] {
            c.clear();
            c.resize(n_blocks, 0);
        }
        // Per-instruction placement facts come from the annotation's
        // precomputed column — a flat array built once per block, not
        // re-derived per prediction (let alone per unrolled copy).
        let facts = ab.columns().predec;
        // Placements of all instruction instances across the unrolled
        // copies, counted directly (no materialized placement list).
        for copy in 0..u {
            let base = (copy * l) as u32;
            for &(last, opcode, has_lcp) in facts {
                let last_block = ((base + last) / 16) as usize;
                let opcode_block = ((base + opcode) / 16) as usize;
                l_cnt[last_block] += 1;
                if opcode_block != last_block {
                    o_cnt[opcode_block] += 1;
                }
                if has_lcp {
                    lcp_cnt[opcode_block] += 1;
                }
            }
        }

        let cycle_nlcp = |b: usize| -> f64 { (f64::from(l_cnt[b] + o_cnt[b]) / width).ceil() };

        let mut total = 0.0;
        let mut base = 0.0;
        let mut penalty = 0.0;
        // Index arithmetic over a ring of blocks (b and its predecessor):
        // clearer with explicit indices than with enumerate().
        #[allow(clippy::needless_range_loop)]
        for b in 0..n_blocks {
            let prev = if b == 0 { n_blocks - 1 } else { b - 1 };
            let nlcp = cycle_nlcp(b);
            // The length-decoding algorithm for LCP instructions runs while
            // the previous block finishes predecoding, hiding all but one
            // of the previous block's cycles.
            let lcp_pen = (3.0 * f64::from(lcp_cnt[b]) - (cycle_nlcp(prev) - 1.0)).max(0.0);
            total += nlcp + lcp_pen;
            // Evidence-only split; `total` stays the authoritative sum so
            // the bound is bit-identical with and without evidence.
            base += nlcp;
            penalty += lcp_pen;
        }
        if let Some(ev) = evidence {
            *ev = PredecEvidence {
                unroll_copies: u as u32,
                chunks: n_blocks as u32,
                lcp_insts: ab.columns().lcp_insts,
                boundary_crossings: o_cnt.iter().sum(),
                base_cycles: base / u as f64,
                lcp_penalty_cycles: penalty / u as f64,
            };
        }
        total / u as f64
    })
}

/// The simplified predecoder model (`SimplePredec`): one 16-byte block per
/// cycle, i.e. `l / 16` cycles per iteration.
#[must_use]
pub fn simple_predec(ab: &AnnotatedBlock) -> f64 {
    ab.byte_len() as f64 / 16.0
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Mnemonic, Operand};

    fn annotate(prog: &[(Mnemonic, Vec<Operand>)]) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), Uarch::Skl)
    }

    #[test]
    fn lcm_gcd() {
        assert_eq!(lcm(4, 16), 16);
        assert_eq!(lcm(6, 16), 48);
        assert_eq!(lcm(16, 16), 16);
        assert_eq!(lcm(5, 16), 80);
    }

    #[test]
    fn five_wide_limit() {
        // Eight single-byte NOPs: 8 bytes, one 16-byte block per unrolled
        // pair of copies; 16 instructions in the block -> ceil(16/5) = 4
        // cycles per block = 2 copies -> 2 cycles per iteration.
        let prog: Vec<_> = (0..8).map(|_| (Mnemonic::Nop, vec![])).collect();
        let ab = annotate(&prog);
        assert_eq!(ab.byte_len(), 8);
        let tp = predec(&ab, Mode::Unrolled);
        assert!((tp - 2.0).abs() < 1e-9, "got {tp}");
    }

    #[test]
    fn sixteen_bytes_one_instruction_per_block() {
        // Two 8-byte instructions (mov rax, imm32 is 7 bytes; use lea with
        // disp32): easier: 4 x "add rax, rcx" (3B) + 4 nops = 16 bytes.
        let mut prog: Vec<(Mnemonic, Vec<Operand>)> = Vec::new();
        for _ in 0..4 {
            prog.push((Mnemonic::Add, vec![RAX.into(), RCX.into()]));
        }
        for _ in 0..4 {
            prog.push((Mnemonic::Nop, vec![]));
        }
        let ab = annotate(&prog);
        assert_eq!(ab.byte_len(), 16);
        // 8 instructions in one block -> ceil(8/5) = 2 cycles.
        let tp = predec(&ab, Mode::Unrolled);
        assert!((tp - 2.0).abs() < 1e-9, "got {tp}");
    }

    #[test]
    fn lcp_penalty_applies() {
        // One LCP instruction (add ax, imm16) alone in its block.
        let prog = vec![
            (Mnemonic::Add, vec![AX.into(), Operand::Imm(0x1234)]), // 5 bytes, LCP
            (Mnemonic::Nop, vec![]),
            (Mnemonic::Nop, vec![]),
        ]; // 7 bytes total
        let ab = annotate(&prog);
        assert!(ab.block().insts()[0].has_lcp);
        let with_lcp = predec(&ab, Mode::Unrolled);
        // Same layout without LCP.
        let prog2 = vec![
            (Mnemonic::Add, vec![EAX.into(), Operand::Imm(0x11223344)]), // 6 bytes, no LCP
            (Mnemonic::Nop, vec![]),
        ]; // 7 bytes total
        let ab2 = annotate(&prog2);
        assert_eq!(ab.byte_len(), ab2.byte_len());
        let without = predec(&ab2, Mode::Unrolled);
        assert!(
            with_lcp > without,
            "LCP should slow predecode: {with_lcp} vs {without}"
        );
    }

    #[test]
    fn loop_mode_single_copy() {
        let prog = vec![
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            (Mnemonic::Jcc(facile_x86::Cond::Ne), vec![Operand::Rel(-7)]),
        ];
        let ab = annotate(&prog);
        // 8 bytes, 3 instructions, all in one block: 1 cycle.
        let tp = predec(&ab, Mode::Loop);
        assert!((tp - 1.0).abs() < 1e-9, "got {tp}");
    }

    #[test]
    fn simple_predec_is_length_over_16() {
        let prog: Vec<_> = (0..5).map(|_| (Mnemonic::Nop, vec![])).collect();
        let ab = annotate(&prog);
        assert!((simple_predec(&ab) - 5.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_block_is_zero() {
        let ab = AnnotatedBlock::new(Block::decode(&[]).unwrap(), Uarch::Skl);
        assert_eq!(predec(&ab, Mode::Unrolled), 0.0);
        assert_eq!(predec(&ab, Mode::Loop), 0.0);
    }
}
