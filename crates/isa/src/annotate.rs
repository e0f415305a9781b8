//! Annotated basic blocks: instructions paired with their performance
//! descriptors and macro-fusion structure for one microarchitecture.

use crate::classify::{
    describe, describe_fused_pair, describe_fused_pair_with_effects, macro_fuses,
};
use crate::cols::{self, BlockColumns};
use crate::desc::InstrDesc;
use crate::form::shape_key;
use crate::intern::InternedInst as Interned;
use crate::intern::{interner, DescInterner, InternedInst};
use crate::tables;
use facile_uarch::Uarch;
use facile_x86::{Block, Effects, Inst};
use std::sync::Arc;
use std::time::Instant;

/// The descriptor of a macro-fused branch: invisible to the decoders and
/// the back end (the pair's µops are attributed to the head instruction).
static FUSED_TAIL_DESC: InstrDesc = InstrDesc {
    fused_uops: 0,
    issue_uops: 0,
    uops: facile_util::SmallVec::empty_with(crate::desc::Uop {
        ports: facile_uarch::PortMask(0),
        kind: crate::desc::UopKind::Compute,
        occupancy: 0,
    }),
    complex_decoder: false,
    simple_decoders_after: 0,
    eliminated: true,
    latency: 0,
    load_latency_extra: 0,
};

/// Where an annotated instruction's descriptor comes from.
///
/// The three variants are observationally identical (same `inst`,
/// `effects`, and `desc` through the accessors); they differ only in
/// how the data was obtained and therefore what annotation paid for it.
#[derive(Debug, Clone)]
enum DescEntry {
    /// A shared entry in the process-wide descriptor intern table: the
    /// runtime-classified fallback for forms outside the static tables
    /// and the uninterned reference path.
    Interned(Arc<InternedInst>),
    /// Served from the build-time static tables: the descriptor is a
    /// `&'static` borrow — no classifier run, no interner hashing or
    /// locking, no shared allocation. Effects are *not* stored: the hot
    /// kernels read the block's precomputed columns, and the few
    /// remaining consumers recompute them on demand, keeping the
    /// retained annotation (and the cache's page-fault footprint)
    /// small.
    Static {
        inst: Inst,
        desc: &'static InstrDesc,
    },
    /// A macro-fused pair head. Pair descriptors are trivial (a branch
    /// µop plus an optional load), so they are built inline instead of
    /// being interned by pair bytes. Boxed so this variant doesn't set
    /// the size of every annotated instruction.
    Pair { inst: Inst, desc: Box<InstrDesc> },
}

/// One instruction of an annotated block.
///
/// Common forms carry a `&'static` descriptor from the build-time
/// tables; everything else holds an `Arc` reference into the
/// process-wide descriptor intern table, so annotating a corpus does
/// the heavy classification at most once per *distinct* instruction
/// encoding.
#[derive(Debug, Clone)]
pub struct AnnotatedInst {
    /// Decoded instruction + effects + descriptor.
    entry: DescEntry,
    /// Byte offset of the instruction within the block.
    pub start: usize,
    /// Whether this instruction is macro-fused with the *preceding*
    /// instruction (and therefore invisible to the decoders and back end).
    pub fused_with_prev: bool,
}

/// Equality is semantic — the observable instruction, effects, and
/// descriptor — so a table-served annotation compares equal to an
/// interned or reference-path annotation of the same instruction.
impl PartialEq for AnnotatedInst {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.fused_with_prev == other.fused_with_prev
            && self.inst() == other.inst()
            && self.effects() == other.effects()
            && self.desc() == other.desc()
    }
}

impl AnnotatedInst {
    /// The decoded instruction. For a macro-fused producer this is the
    /// producer itself (e.g. the `cmp` of a `cmp+jcc` pair).
    #[must_use]
    pub fn inst(&self) -> &Inst {
        match &self.entry {
            DescEntry::Interned(e) => e.inst(),
            DescEntry::Static { inst, .. } | DescEntry::Pair { inst, .. } => inst,
        }
    }

    /// The performance descriptor on the block's microarchitecture. For a
    /// macro-fused producer this is the descriptor of the *pair*; for the
    /// fused branch itself it is an empty descriptor.
    #[must_use]
    pub fn desc(&self) -> &InstrDesc {
        if self.fused_with_prev {
            return &FUSED_TAIL_DESC;
        }
        match &self.entry {
            DescEntry::Interned(e) => &e.desc,
            DescEntry::Static { desc, .. } => desc,
            DescEntry::Pair { desc, .. } => desc.as_ref(),
        }
    }

    /// Architectural reads and writes of [`Self::inst`].
    ///
    /// Returned by value: interned entries clone their stored effects
    /// (a couple of inline small-vectors), table-served entries derive
    /// them from the instruction on demand. The per-prediction hot
    /// paths never call this — they consume the precomputed
    /// [`AnnotatedBlock::columns`] instead — so the annotation doesn't
    /// retain a per-instruction `Effects` just to answer occasional
    /// queries (detail rendering, simulation).
    #[must_use]
    pub fn effects(&self) -> Effects {
        match &self.entry {
            DescEntry::Interned(e) => e.effects().clone(),
            DescEntry::Static { inst, .. } | DescEntry::Pair { inst, .. } => inst.effects(),
        }
    }

    /// End offset (exclusive) of this instruction.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.inst().len as usize
    }

    /// Heap bytes owned by this instruction's descriptor entry.
    /// Interned entries count as a pointer (the intern table accounts
    /// for their storage); static entries borrow their descriptor.
    fn entry_heap_bytes(&self) -> usize {
        use facile_util::HeapSize;
        match &self.entry {
            DescEntry::Interned(_) => 0,
            DescEntry::Static { inst, .. } => inst.heap_bytes(),
            DescEntry::Pair { inst, desc } => {
                inst.heap_bytes() + std::mem::size_of::<InstrDesc>() + desc.heap_bytes()
            }
        }
    }
}

/// Accounting: the instruction list and kernel columns. The backing
/// `Arc<Block>` and interned descriptors count as pointers — the
/// annotation cache's level-1 entry owns the block, and the intern
/// table owns the interned descriptors, so a process-global budget
/// never double counts them.
impl facile_util::HeapSize for AnnotatedBlock {
    fn heap_bytes(&self) -> usize {
        self.insts.capacity() * std::mem::size_of::<AnnotatedInst>()
            + self
                .insts
                .iter()
                .map(AnnotatedInst::entry_heap_bytes)
                .sum::<usize>()
            + self.cols.heap_bytes()
    }
}

/// A basic block annotated for one microarchitecture.
///
/// This is the input representation shared by every throughput predictor in
/// the workspace (the analytical model, the simulator, and the baselines).
#[derive(Debug, Clone)]
pub struct AnnotatedBlock {
    uarch: Uarch,
    block: Arc<Block>,
    insts: Vec<AnnotatedInst>,
    /// Struct-of-arrays kernel inputs, built once at annotation time;
    /// the predecoder, port, and precedence kernels run over these flat
    /// columns instead of re-walking the instruction list.
    cols: BlockColumns,
    // µop totals are consumed by several per-prediction bounds; cache them
    // at annotation time so predictions don't re-walk the block.
    total_fused: u32,
    total_issue: u32,
    total_unfused: u32,
}

impl AnnotatedBlock {
    /// Annotate `block` for `uarch`: look up descriptors (through the
    /// process-wide intern table) and apply macro fusion.
    #[must_use]
    pub fn new(block: Block, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::build(Arc::new(block), uarch, Some(interner()))
    }

    /// Annotate an already-shared block: a nine-uarch sweep reuses one
    /// `Arc<Block>` instead of cloning the decoded block per
    /// microarchitecture (the engine's two-level cache uses this).
    #[must_use]
    pub fn new_shared(block: Arc<Block>, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::build(block, uarch, Some(interner()))
    }

    /// Annotate without the intern table: every descriptor is classified
    /// from scratch. This is the naive reference path; it produces results
    /// identical to [`AnnotatedBlock::new`] and exists so tests can assert
    /// exactly that.
    #[must_use]
    pub fn new_uninterned(block: Block, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::build(Arc::new(block), uarch, None)
    }

    fn build(block: Arc<Block>, uarch: Uarch, table: Option<&DescInterner>) -> AnnotatedBlock {
        let t_annotate = cols::timing_enabled().then(Instant::now);
        let cfg = uarch.config();
        let raw = block.insts();
        let bytes = block.bytes();
        // Each entry comes paired with the instruction's effects: the
        // column builder consumes them transiently, so table-served
        // entries never pay for the effects walk twice and never retain
        // the result.
        let single = |i: usize| -> (DescEntry, Effects) {
            let Some(t) = table else {
                // The uninterned reference path stays entirely on the
                // runtime classifier — it is the oracle the static
                // tables are tested against.
                let entry = Arc::new(Interned::uninterned(raw[i].clone(), describe(&raw[i], cfg)));
                let effects = entry.effects().clone();
                return (DescEntry::Interned(entry), effects);
            };
            // Fast path: serve the descriptor from the build-time static
            // tables, skipping the classifier and the interner.
            let effects = raw[i].effects();
            if let Some(desc) = tables::lookup(raw[i].mnemonic, shape_key(&raw[i], &effects), uarch)
            {
                return (
                    DescEntry::Static {
                        inst: raw[i].clone(),
                        desc,
                    },
                    effects,
                );
            }
            let start = block.offset(i);
            let end = start + raw[i].len as usize;
            (
                DescEntry::Interned(t.single(&bytes[start..end], &raw[i], cfg)),
                effects,
            )
        };
        let mut insts: Vec<AnnotatedInst> = Vec::with_capacity(raw.len());
        let mut effs: Vec<Effects> = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            let start = block.offset(i);
            if i + 1 < raw.len() && macro_fuses(&raw[i], &raw[i + 1], cfg) {
                let (pair, effects) = if table.is_some() {
                    // Pair descriptors are a branch µop plus an optional
                    // load: cheaper to rebuild than to intern.
                    let effects = raw[i].effects();
                    let desc = describe_fused_pair_with_effects(&raw[i], &effects, cfg);
                    (
                        DescEntry::Pair {
                            inst: raw[i].clone(),
                            desc: Box::new(desc),
                        },
                        effects,
                    )
                } else {
                    let entry = Arc::new(Interned::uninterned(
                        raw[i].clone(),
                        describe_fused_pair(&raw[i], &raw[i + 1], cfg),
                    ));
                    let effects = entry.effects().clone();
                    (DescEntry::Interned(entry), effects)
                };
                insts.push(AnnotatedInst {
                    entry: pair,
                    start,
                    fused_with_prev: false,
                });
                effs.push(effects);
                let (entry, effects) = single(i + 1);
                insts.push(AnnotatedInst {
                    entry,
                    start: block.offset(i + 1),
                    fused_with_prev: true,
                });
                effs.push(effects);
                i += 2;
            } else {
                let (entry, effects) = single(i);
                insts.push(AnnotatedInst {
                    entry,
                    start,
                    fused_with_prev: false,
                });
                effs.push(effects);
                i += 1;
            }
        }
        let t_cols = cols::timing_enabled().then(Instant::now);
        let cols = BlockColumns::build(&insts, &effs);
        if let Some(t) = t_cols {
            cols::record_columns(t.elapsed());
        }
        let total_fused = insts.iter().map(|a| u32::from(a.desc().fused_uops)).sum();
        let total_issue = insts.iter().map(|a| u32::from(a.desc().issue_uops)).sum();
        let total_unfused = insts.iter().map(|a| a.desc().unfused_uops() as u32).sum();
        if let Some(t) = t_annotate {
            cols::record_annotate(t.elapsed());
        }
        AnnotatedBlock {
            uarch,
            block,
            insts,
            cols,
            total_fused,
            total_issue,
            total_unfused,
        }
    }

    /// The microarchitecture this block was annotated for.
    #[must_use]
    pub fn uarch(&self) -> Uarch {
        self.uarch
    }

    /// The underlying basic block.
    #[must_use]
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// All instructions, including macro-fused branches.
    #[must_use]
    pub fn insts(&self) -> &[AnnotatedInst] {
        &self.insts
    }

    /// The block's struct-of-arrays kernel columns (placement facts,
    /// dispatched µops, interned dataflow), built at annotation time.
    #[must_use]
    pub fn columns(&self) -> &BlockColumns {
        &self.cols
    }

    /// Instructions as seen *after* macro fusion (fused branches skipped).
    /// This is the instruction stream the decoders and the back end see.
    pub fn fused_insts(&self) -> impl Iterator<Item = &AnnotatedInst> {
        self.insts.iter().filter(|a| !a.fused_with_prev)
    }

    /// Total fused-domain µops delivered per iteration (DSB/LSD view).
    #[must_use]
    pub fn total_fused_uops(&self) -> u32 {
        self.total_fused
    }

    /// Total µops issued by the renamer per iteration (after unlamination).
    #[must_use]
    pub fn total_issue_uops(&self) -> u32 {
        self.total_issue
    }

    /// Total unfused-domain µops dispatched to ports per iteration.
    #[must_use]
    pub fn total_unfused_uops(&self) -> u32 {
        self.total_unfused
    }

    /// Length of the block in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.block.byte_len()
    }

    /// Whether the block ends in a branch (a TPL-style loop benchmark).
    #[must_use]
    pub fn ends_in_branch(&self) -> bool {
        self.block.ends_in_branch()
    }

    /// Whether the JCC-erratum mitigation affects this block on its
    /// microarchitecture: a jump (including the producer of a macro-fused
    /// pair) crosses or ends on a 32-byte boundary.
    #[must_use]
    pub fn jcc_erratum_applies(&self) -> bool {
        if !self.uarch.config().jcc_erratum {
            return false;
        }
        let mut i = 0;
        while i < self.insts.len() {
            let a = &self.insts[i];
            if i + 1 < self.insts.len() && self.insts[i + 1].fused_with_prev {
                let b = &self.insts[i + 1];
                if Block::crosses_or_ends_on_32(a.start, b.end() - a.start) {
                    return true;
                }
                i += 2;
                continue;
            }
            if a.inst().is_branch() && Block::crosses_or_ends_on_32(a.start, a.inst().len as usize)
            {
                return true;
            }
            i += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::reg::names::*;
    use facile_x86::{Cond, Mnemonic, Operand};

    fn loop_block() -> Block {
        Block::assemble(&[
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-7)]),
        ])
        .unwrap()
    }

    #[test]
    fn macro_fusion_applied() {
        let ab = AnnotatedBlock::new(loop_block(), Uarch::Skl);
        assert_eq!(ab.insts().len(), 3);
        assert!(ab.insts()[2].fused_with_prev); // jne fused with dec
        assert_eq!(ab.fused_insts().count(), 2);
        // dec+jne pair: 1 fused µop; add: 1 -> total 2
        assert_eq!(ab.total_fused_uops(), 2);
    }

    #[test]
    fn no_fusion_on_snb_for_dec() {
        let ab = AnnotatedBlock::new(loop_block(), Uarch::Snb);
        assert!(!ab.insts()[2].fused_with_prev); // SNB: dec does not fuse
        assert_eq!(ab.total_fused_uops(), 3);
    }

    #[test]
    fn uop_totals() {
        let b = Block::assemble(&[
            (Mnemonic::Mov, vec![RAX.into(), RCX.into()]), // eliminated on SKL
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
        ])
        .unwrap();
        let ab = AnnotatedBlock::new(b, Uarch::Skl);
        assert_eq!(ab.total_fused_uops(), 2);
        assert_eq!(ab.total_issue_uops(), 2);
        assert_eq!(ab.total_unfused_uops(), 1); // only the add reaches ports
    }

    #[test]
    fn interned_equals_uninterned() {
        for u in [Uarch::Skl, Uarch::Snb, Uarch::Icl] {
            let a = AnnotatedBlock::new(loop_block(), u);
            let b = AnnotatedBlock::new_uninterned(loop_block(), u);
            assert_eq!(a.insts(), b.insts(), "{u}");
            assert_eq!(a.total_fused_uops(), b.total_fused_uops());
            assert_eq!(a.total_issue_uops(), b.total_issue_uops());
            assert_eq!(a.total_unfused_uops(), b.total_unfused_uops());
        }
    }

    #[test]
    fn fused_tail_exposes_branch_but_empty_desc() {
        let ab = AnnotatedBlock::new(loop_block(), Uarch::Skl);
        let tail = &ab.insts()[2];
        assert!(tail.fused_with_prev);
        assert!(tail.inst().is_branch());
        assert!(tail.desc().eliminated);
        assert_eq!(tail.desc().fused_uops, 0);
        assert!(tail.desc().uops.is_empty());
        // The pair head carries the pair's descriptor and its own inst.
        let head = &ab.insts()[1];
        assert_eq!(head.inst().mnemonic, Mnemonic::Dec);
        assert!(head.desc().fused_uops > 0);
    }

    #[test]
    fn jcc_erratum_detection() {
        // Pad so that the jump ends exactly on the 32-byte boundary.
        let mut prog: Vec<(Mnemonic, Vec<Operand>)> = Vec::new();
        for _ in 0..30 {
            prog.push((Mnemonic::Nop, vec![]));
        }
        prog.push((Mnemonic::Jmp, vec![Operand::Rel(-32)])); // bytes 30..32
        let b = Block::assemble(&prog).unwrap();
        let ab_skl = AnnotatedBlock::new(b.clone(), Uarch::Skl);
        assert!(ab_skl.jcc_erratum_applies());
        // Same block on Haswell: no erratum.
        let ab_hsw = AnnotatedBlock::new(b, Uarch::Hsw);
        assert!(!ab_hsw.jcc_erratum_applies());
        // A short loop with the jump inside a 32-byte window: unaffected.
        let ab = AnnotatedBlock::new(loop_block(), Uarch::Skl);
        assert!(!ab.jcc_erratum_applies());
    }
}
