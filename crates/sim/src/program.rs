//! The simulator's program representation: the fused-domain instruction
//! view plus the raw byte layout needed by the fetch/predecode model.

use crate::uop::{expand, DynInst};
use facile_isa::AnnotatedBlock;

/// One raw (pre-macro-fusion) instruction with its byte placement.
#[derive(Debug, Clone, Copy)]
pub struct RawInst {
    /// Start offset within the block.
    pub start: usize,
    /// Encoded length.
    pub len: usize,
    /// Offset of the nominal opcode byte within the instruction.
    pub opcode_off: usize,
    /// Whether the instruction has a length-changing prefix.
    pub lcp: bool,
    /// Index of the fused-view instruction this raw instruction belongs to.
    pub fused_idx: u16,
    /// Whether this raw instruction completes its fused-view unit (true for
    /// everything except the head of a macro-fused pair).
    pub completes_unit: bool,
}

/// A block prepared for simulation.
#[derive(Debug, Clone)]
pub struct Program {
    /// Fused-view dynamic instructions.
    pub insts: Vec<DynInst>,
    /// Raw instructions in byte order.
    pub raw: Vec<RawInst>,
    /// Block length in bytes.
    pub byte_len: usize,
}

impl Program {
    /// Prepare `ab` for simulation.
    #[must_use]
    pub fn new(ab: &AnnotatedBlock) -> Program {
        let cfg = ab.uarch().config();
        let mut insts: Vec<DynInst> = Vec::new();
        let mut raw: Vec<RawInst> = Vec::new();
        let mut all = ab.insts().iter().peekable();
        while let Some(a) = all.next() {
            let fused_idx = insts.len() as u16;
            let pair = all.peek().is_some_and(|n| n.fused_with_prev);
            insts.push(expand(&a, fused_idx, cfg, pair));
            raw.push(RawInst {
                start: a.start,
                len: a.inst().len as usize,
                opcode_off: a.inst().opcode_offset as usize,
                lcp: a.inst().has_lcp,
                fused_idx,
                completes_unit: !pair,
            });
            if let Some(b) = all.next_if(|n| n.fused_with_prev) {
                raw.push(RawInst {
                    start: b.start,
                    len: b.inst().len as usize,
                    opcode_off: b.inst().opcode_offset as usize,
                    lcp: b.inst().has_lcp,
                    fused_idx,
                    completes_unit: true,
                });
            }
        }
        Program {
            insts,
            raw,
            byte_len: ab.byte_len(),
        }
    }

    /// Total fused-domain µops per iteration.
    #[must_use]
    pub fn fused_uops_per_iter(&self) -> u32 {
        self.insts.iter().map(|d| d.fused_len() as u32).sum()
    }
}
