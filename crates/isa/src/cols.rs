//! Struct-of-arrays kernel columns, built once per annotated block.
//!
//! The batch kernels read their per-instruction facts from flat column
//! arrays instead of re-deriving them from the annotation's
//! pointer-shaped representation on every prediction. [`BlockColumns`]
//! is the kernels' view of those columns. Most of them are
//! uarch-independent and live in the block's shared
//! [`crate::Dataflow`]; an annotation adds the two that vary per
//! microarchitecture:
//!
//! - [`BlockColumns::predec`] — instruction placement facts for the
//!   predecoder's per-16-byte-chunk counting (shared);
//! - [`BlockColumns::port_uops`] — the dispatched `(port mask,
//!   occupancy)` stream for the port-contention kernel (per uarch);
//! - [`BlockColumns::ids`]/[`BlockColumns::flows`] — the precedence
//!   dataflow of every instruction with every value interned to a dense
//!   per-block id, so the dependence-graph kernel resolves last writers
//!   by direct indexing instead of comparing typed values (shared);
//! - [`BlockColumns::latency`] — each flow's latency on the
//!   annotation's uarch, or [`SKIPPED_FLOW`] for a macro-fused tail
//!   (per uarch);
//! - [`BlockColumns::values`] — the value behind each id, so the
//!   critical chain found on the id-built graph can be named (shared).
//!
//! This is the only source of the dependence graph: both the precedence
//! bound and the critical chain are computed on it (a test-only typed
//! builder in `facile-core` checks it, `tests/chain_oracle.rs`).
//!
//! The module also owns the annotation-pass timing cells ([`DATAFLOW`],
//! [`ANNOTATE`]): annotation runs below the engine's kernel-timing layer,
//! so the cells live here, behind the same [`facile_util::timing`]
//! switch as the kernels'.

use crate::dataflow::{ColValue, FlowCol};
use facile_uarch::PortMask;
use facile_util::timing::TimingCell;

/// [`BlockColumns::latency`] mark of a macro-fused tail: its flow is
/// skipped, because the pair's dataflow is carried by its head. No
/// descriptor has this latency.
pub const SKIPPED_FLOW: u8 = u8::MAX;

/// The kernel columns of one annotated block: the shared dataflow's and
/// the annotation's per-uarch ones, joined. Obtained from
/// [`crate::AnnotatedBlock::columns`]; see the module docs for layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockColumns<'a> {
    /// `(last byte, opcode byte, has LCP)` per instruction, including
    /// macro-fused tails — exactly what the predecoder counts.
    pub predec: &'a [(u32, u32, bool)],
    /// Number of instructions with a length-changing prefix.
    pub lcp_insts: u32,
    /// `(port mask, occupancy)` per µop that reaches the execution
    /// ports: µops of eliminated instructions and port-less µops are
    /// already filtered out, in dispatch order.
    pub port_uops: &'a [(PortMask, u8)],
    /// Dense value-id pool of the dataflow columns: ids are
    /// `0..values.len()`, ranges in [`FlowCol`] index into this.
    pub ids: &'a [u32],
    /// Per-instruction dataflow summaries, fused tails included: flow
    /// `i` belongs to instruction `i`.
    pub flows: &'a [FlowCol],
    /// Latency of flow `i` in cycles (its descriptor's), or
    /// [`SKIPPED_FLOW`] where instruction `i` is a macro-fused tail.
    pub latency: &'a [u8],
    /// The distinct values of the block, indexed by value id.
    pub values: &'a [ColValue],
}

/// Timing of the shared dataflow build, once per decoded block.
pub static DATAFLOW: TimingCell = TimingCell::new();
/// Timing of the per-uarch annotation of a built dataflow (descriptors,
/// fusion, per-uarch columns), once per (block, uarch).
pub static ANNOTATE: TimingCell = TimingCell::new();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::AnnotatedBlock;
    use crate::dataflow::NO_VALUE;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Cond, Mnemonic, Operand, Width};

    fn columns(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), u)
    }

    #[test]
    fn predec_column_matches_instruction_layout() {
        let ab = columns(
            &[
                (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
                (Mnemonic::Nop, vec![]),
            ],
            Uarch::Skl,
        );
        let c = ab.columns();
        assert_eq!(c.predec.len(), ab.insts().len());
        for (a, &(last, opcode, lcp)) in ab.insts().iter().zip(c.predec) {
            assert_eq!(last as usize, a.start + a.inst().len as usize - 1);
            assert_eq!(opcode as usize, a.start + a.inst().opcode_offset as usize);
            assert_eq!(lcp, a.inst().has_lcp);
        }
        assert_eq!(c.lcp_insts, 0);
    }

    #[test]
    fn port_uops_skip_eliminated_and_portless() {
        // mov r,r is eliminated on SKL; the fused jcc tail dispatches
        // nothing — neither may appear in the port column.
        let ab = columns(
            &[
                (Mnemonic::Mov, vec![RAX.into(), RCX.into()]),
                (Mnemonic::Dec, vec![RDX.into()]),
                (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-5)]),
            ],
            Uarch::Skl,
        );
        let c = ab.columns();
        let by_walk: usize = ab
            .insts()
            .iter()
            .filter(|a| !a.desc().eliminated)
            .flat_map(|a| a.desc().uops.iter())
            .filter(|u| !u.ports.is_empty())
            .count();
        assert_eq!(c.port_uops.len(), by_walk);
        assert!(!c.port_uops.is_empty());
    }

    #[test]
    fn flows_cover_every_inst_and_fused_tails_are_skipped() {
        let m = facile_x86::Mem::base(RSI, Width::W64);
        let prog = [
            (Mnemonic::Add, vec![Operand::Mem(m), RAX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-6)]),
        ];
        let ab = columns(&prog, Uarch::Skl);
        let c = ab.columns();
        assert_eq!(c.flows.len(), 3);
        assert_eq!(c.latency.len(), 3);
        assert!(!c.values.is_empty());
        assert!(c.ids.iter().all(|&id| (id as usize) < c.values.len()));
        // add [rsi], rax loads and stores the same memory value.
        let f = &c.flows[0];
        assert_ne!(f.stores_id, NO_VALUE);
        assert_ne!(f.via_load.0, f.via_load.1);
        // The stored value is among the produced ids.
        let produced = &c.ids[f.produced.0 as usize..f.produced.1 as usize];
        assert!(produced.contains(&f.stores_id));
        // dec+jne fuse on SKL, so the jne's flow is skipped there; SNB
        // does not fuse dec, so it keeps the jne's flow.
        assert_eq!(c.latency[2], SKIPPED_FLOW);
        assert!(c.latency[..2].iter().all(|&l| l != SKIPPED_FLOW));
        let snb = columns(&prog, Uarch::Snb);
        assert!(snb.columns().latency.iter().all(|&l| l != SKIPPED_FLOW));
    }

    #[test]
    fn pass_timing_records_when_enabled() {
        facile_util::timing::set_enabled(true);
        let _ = columns(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])], Uarch::Skl);
        facile_util::timing::set_enabled(false);
        assert!(DATAFLOW.snapshot().count >= 1);
        assert!(ANNOTATE.snapshot().count >= 1);
    }
}
