//! Annotated basic blocks: instructions paired with their performance
//! descriptors and macro-fusion structure for one microarchitecture.
//!
//! An annotation is the per-uarch half of a block's input to the
//! predictors. It shares the block's uarch-independent
//! [`Dataflow`] (the decoded block, effects-derived columns, shape keys)
//! by `Arc`, and holds one small descriptor entry per decoded
//! instruction, fused tails included, so entry `i` annotates
//! `block.insts()[i]`, plus the two per-uarch kernel columns (dispatched
//! µops and per-flow latencies). A nine-uarch sweep therefore builds the
//! dataflow once and specialises it nine times, and a per-uarch
//! annotation allocates a fixed number of times per block, however many
//! instructions it has; only macro-fused pairs and instructions outside
//! the static tables add a boxed descriptor each. [`AnnotatedInst`] is
//! the borrowed view that joins an entry to its instruction.

use crate::classify::{describe, describe_fused_pair, describe_fused_pair_loading, macro_fuses};
use crate::cols::{self, BlockColumns, SKIPPED_FLOW};
use crate::dataflow::Dataflow;
use crate::desc::InstrDesc;
use crate::tables;
use facile_uarch::{PortMask, Uarch};
use facile_x86::{Block, Effects, Inst};
use std::ops::Range;
use std::sync::Arc;

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
/// No variant stores the instruction or its effects: every view reads
/// the instruction from the annotation's block, and the few consumers of
/// effects recompute them on demand (the hot kernels read the block's
/// dataflow columns). The variants are observationally identical (same
/// instruction, effects and descriptor through [`AnnotatedInst`]); they
/// differ only in how the descriptor was obtained and so in what
/// annotation paid for it.
#[derive(Debug, Clone)]
pub(crate) enum DescEntry {
    /// Served from the build-time static tables: a `&'static` borrow,
    /// with no classifier run and no allocation.
    Static(&'static InstrDesc),
    /// Built for this annotation: a macro-fused pair head's descriptor
    /// (a branch µop plus an optional load), or the runtime classifier's
    /// for a form outside the static tables and on the reference path.
    /// Boxed so this variant doesn't set the size of every entry.
    Owned(Box<InstrDesc>),
    /// The branch of a macro-fused pair: its µops belong to the pair
    /// head, so it has the empty descriptor and no lookup of its own.
    FusedTail,
}

impl DescEntry {
    /// The performance descriptor (the empty one for a fused tail).
    pub(crate) fn desc(&self) -> &InstrDesc {
        match self {
            DescEntry::Static(desc) => desc,
            DescEntry::Owned(desc) => desc,
            DescEntry::FusedTail => &FUSED_TAIL_DESC,
        }
    }

    /// Heap bytes this entry owns (static entries borrow their
    /// descriptor).
    fn heap_bytes(&self) -> usize {
        use facile_util::HeapSize;
        match self {
            DescEntry::Owned(desc) => std::mem::size_of::<InstrDesc>() + desc.heap_bytes(),
            DescEntry::Static(_) | DescEntry::FusedTail => 0,
        }
    }
}

/// One instruction of an annotated block: a borrowed view joining the
/// decoded instruction to its descriptor on the block's
/// microarchitecture. Obtained from [`AnnotatedBlock::insts`].
#[derive(Debug, Clone, Copy)]
pub struct AnnotatedInst<'a> {
    /// Byte offset of the instruction within the block.
    pub start: usize,
    /// Whether this instruction is macro-fused with the *preceding*
    /// instruction (and therefore invisible to the decoders and back end).
    pub fused_with_prev: bool,
    inst: &'a Inst,
    entry: &'a DescEntry,
}

/// Equality is semantic — the observable instruction, effects, and
/// descriptor — so a table-served annotation compares equal to a
/// reference-path annotation of the same instruction.
impl PartialEq for AnnotatedInst<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.fused_with_prev == other.fused_with_prev
            && self.inst() == other.inst()
            && self.effects() == other.effects()
            && self.desc() == other.desc()
    }
}

impl<'a> AnnotatedInst<'a> {
    /// The decoded instruction. For a macro-fused producer this is the
    /// producer itself (e.g. the `cmp` of a `cmp+jcc` pair).
    #[must_use]
    pub fn inst(&self) -> &'a Inst {
        self.inst
    }

    /// The performance descriptor on the block's microarchitecture. For a
    /// macro-fused producer this is the descriptor of the *pair*; for the
    /// fused branch itself it is an empty descriptor.
    #[must_use]
    pub fn desc(&self) -> &'a InstrDesc {
        self.entry.desc()
    }

    /// Architectural reads and writes of [`Self::inst`].
    ///
    /// Returned by value, derived from the instruction on demand. The
    /// per-prediction hot paths never call this — they consume the
    /// block's dataflow through [`AnnotatedBlock::columns`] instead — so
    /// the annotation doesn't retain a per-instruction `Effects` just to
    /// answer occasional queries (detail rendering, simulation).
    #[must_use]
    pub fn effects(&self) -> Effects {
        self.inst.effects()
    }

    /// End offset (exclusive) of this instruction.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.inst.len as usize
    }
}

/// The annotated instructions of a block, fused tails included, in
/// block order: a cheap, copyable handle returned by
/// [`AnnotatedBlock::insts`]. Each element is an [`AnnotatedInst`] view
/// built on access.
#[derive(Clone, Copy)]
pub struct Insts<'a> {
    ab: &'a AnnotatedBlock,
}

impl<'a> Insts<'a> {
    /// Number of instructions.
    #[must_use]
    pub fn len(self) -> usize {
        self.ab.entries.len()
    }

    /// Whether the block has no instructions.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.ab.entries.is_empty()
    }

    /// Instruction `i`, or `None` past the end.
    #[must_use]
    pub fn get(self, i: usize) -> Option<AnnotatedInst<'a>> {
        (i < self.len()).then(|| self.ab.view(i))
    }

    /// Iterate over the instructions in block order.
    #[must_use]
    pub fn iter(self) -> InstIter<'a> {
        InstIter {
            ab: self.ab,
            range: 0..self.len(),
        }
    }
}

impl<'a> IntoIterator for Insts<'a> {
    type Item = AnnotatedInst<'a>;
    type IntoIter = InstIter<'a>;

    fn into_iter(self) -> InstIter<'a> {
        self.iter()
    }
}

/// Element-wise semantic equality (see [`AnnotatedInst`]'s `PartialEq`).
impl PartialEq for Insts<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Insts<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an annotated block's instructions (see [`Insts::iter`]).
#[derive(Clone)]
pub struct InstIter<'a> {
    ab: &'a AnnotatedBlock,
    range: Range<usize>,
}

impl<'a> Iterator for InstIter<'a> {
    type Item = AnnotatedInst<'a>;

    fn next(&mut self) -> Option<AnnotatedInst<'a>> {
        self.range.next().map(|i| self.ab.view(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for InstIter<'_> {}

/// Accounting: the entry list with its owned descriptors, and the
/// per-uarch columns. The shared [`Dataflow`] (with its block) counts as
/// a pointer — the annotation cache's level-1 entry owns it, so a
/// process-global budget never double counts it.
impl facile_util::HeapSize for AnnotatedBlock {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<DescEntry>()
            + self
                .entries
                .iter()
                .map(DescEntry::heap_bytes)
                .sum::<usize>()
            + self.port_uops.capacity() * std::mem::size_of::<(PortMask, u8)>()
            + self.latency.capacity()
    }
}

/// A basic block annotated for one microarchitecture.
///
/// This is the input representation shared by every throughput predictor in
/// the workspace (the analytical model, the simulator, and the baselines).
#[derive(Debug, Clone)]
pub struct AnnotatedBlock {
    uarch: Uarch,
    /// The block and its uarch-independent columns, shared with every
    /// other annotation of the same block.
    dataflow: Arc<Dataflow>,
    /// One entry per decoded instruction of the block, fused tails
    /// included: entry `i` describes `block.insts()[i]`.
    entries: Vec<DescEntry>,
    /// `(port mask, occupancy)` per µop that reaches the execution ports
    /// (see [`BlockColumns::port_uops`]).
    port_uops: Vec<(PortMask, u8)>,
    /// Per-flow latency, [`SKIPPED_FLOW`] for a fused tail (see
    /// [`BlockColumns::latency`]).
    latency: Vec<u8>,
    // µop totals are consumed by several per-prediction bounds; cache them
    // at annotation time so predictions don't re-walk the block.
    total_fused: u32,
    total_issue: u32,
    total_unfused: u32,
}

impl AnnotatedBlock {
    /// Annotate `block` for `uarch`: look up descriptors (in the static
    /// tables, else the runtime classifier) and apply macro fusion.
    #[must_use]
    pub fn new(block: Block, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new_shared(Arc::new(block), uarch)
    }

    /// Annotate an already-shared block, building its dataflow afresh.
    /// A sweep over several uarchs should build the [`Dataflow`] once
    /// and call [`AnnotatedBlock::from_dataflow`] per uarch instead (the
    /// engine's two-level cache does).
    #[must_use]
    pub fn new_shared(block: Arc<Block>, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::from_dataflow(Arc::new(Dataflow::new(block)), uarch)
    }

    /// Annotate the block behind a built dataflow for `uarch`, sharing
    /// the dataflow: only descriptors, fusion and the per-uarch columns
    /// are computed.
    #[must_use]
    pub fn from_dataflow(dataflow: Arc<Dataflow>, uarch: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::build(dataflow, uarch, true)
    }

    /// Annotate without the static tables: every descriptor comes from
    /// the runtime classifier. This is the naive reference path; it
    /// produces results identical to [`AnnotatedBlock::new`] and exists
    /// so tests can assert exactly that.
    #[must_use]
    pub fn new_uninterned(block: Block, uarch: Uarch) -> AnnotatedBlock {
        let dataflow = Arc::new(Dataflow::new(Arc::new(block)));
        AnnotatedBlock::build(dataflow, uarch, false)
    }

    /// Annotate `dataflow` for `uarch`, serving descriptors from the
    /// static tables when `static_tables` is set and classifying the
    /// rest (all of them on the reference path) in place.
    fn build(dataflow: Arc<Dataflow>, uarch: Uarch, static_tables: bool) -> AnnotatedBlock {
        let t_annotate = facile_util::timing::start();
        let cfg = uarch.config();
        let raw = dataflow.block().insts();
        // Table coverage, reported once per annotation.
        let (mut hits, mut fallbacks) = (0, 0);
        let mut single = |i: usize| -> DescEntry {
            if static_tables {
                let shape = dataflow.shape(i);
                if let Some(desc) = tables::lookup_uncounted(raw[i].mnemonic, shape, uarch) {
                    hits += 1;
                    return DescEntry::Static(desc);
                }
                fallbacks += 1;
            }
            DescEntry::Owned(Box::new(describe(&raw[i], cfg)))
        };
        let mut entries: Vec<DescEntry> = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            if i + 1 < raw.len() && macro_fuses(&raw[i], &raw[i + 1], cfg) {
                // The reference path derives the pair's load fact from
                // the producer's effects, not from the dataflow.
                let pair = if static_tables {
                    describe_fused_pair_loading(dataflow.loads(i), cfg)
                } else {
                    describe_fused_pair(&raw[i], &raw[i + 1], cfg)
                };
                entries.extend([DescEntry::Owned(Box::new(pair)), DescEntry::FusedTail]);
                i += 2;
            } else {
                entries.push(single(i));
                i += 1;
            }
        }
        tables::record_lookups(hits, fallbacks);
        // One pass for the latency column, the µop totals and the length
        // of the dispatched-µop column, so that column is allocated at
        // its exact length.
        let mut latency = Vec::with_capacity(entries.len());
        let (mut total_fused, mut total_issue, mut total_unfused) = (0, 0, 0);
        let mut dispatched = 0;
        for e in &entries {
            let d = e.desc();
            total_fused += u32::from(d.fused_uops);
            total_issue += u32::from(d.issue_uops);
            total_unfused += d.unfused_uops() as u32;
            if !d.eliminated {
                dispatched += d.uops.iter().filter(|u| !u.ports.is_empty()).count();
            }
            latency.push(match e {
                DescEntry::FusedTail => SKIPPED_FLOW,
                _ => {
                    debug_assert_ne!(d.latency, SKIPPED_FLOW);
                    d.latency
                }
            });
        }
        let mut port_uops = Vec::with_capacity(dispatched);
        port_uops.extend(
            entries
                .iter()
                .map(DescEntry::desc)
                .filter(|d| !d.eliminated)
                .flat_map(|d| d.uops.iter())
                .filter(|u| !u.ports.is_empty())
                .map(|u| (u.ports, u.occupancy)),
        );
        cols::ANNOTATE.record_since(t_annotate);
        AnnotatedBlock {
            uarch,
            dataflow,
            entries,
            port_uops,
            latency,
            total_fused,
            total_issue,
            total_unfused,
        }
    }

    /// The view of instruction `i` (in bounds).
    fn view(&self, i: usize) -> AnnotatedInst<'_> {
        let entry = &self.entries[i];
        AnnotatedInst {
            start: self.block().offset(i),
            fused_with_prev: matches!(entry, DescEntry::FusedTail),
            inst: &self.block().insts()[i],
            entry,
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
        self.dataflow.block()
    }

    /// The block's shared, uarch-independent dataflow.
    #[must_use]
    pub fn dataflow(&self) -> &Arc<Dataflow> {
        &self.dataflow
    }

    /// All instructions, including macro-fused branches.
    #[must_use]
    pub fn insts(&self) -> Insts<'_> {
        Insts { ab: self }
    }

    /// The block's struct-of-arrays kernel columns: the shared
    /// dataflow's (placement facts, interned dataflow) joined with this
    /// annotation's dispatched µops and per-flow latencies.
    #[must_use]
    pub fn columns(&self) -> BlockColumns<'_> {
        let df = &*self.dataflow;
        BlockColumns {
            predec: &df.predec,
            lcp_insts: df.lcp_insts,
            port_uops: &self.port_uops,
            ids: &df.ids,
            flows: &df.flows,
            latency: &self.latency,
            values: &df.values,
        }
    }

    /// Instructions as seen *after* macro fusion (fused branches skipped).
    /// This is the instruction stream the decoders and the back end see.
    pub fn fused_insts(&self) -> impl Iterator<Item = AnnotatedInst<'_>> {
        self.insts().iter().filter(|a| !a.fused_with_prev)
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
        self.block().byte_len()
    }

    /// Whether the block ends in a branch (a TPL-style loop benchmark).
    #[must_use]
    pub fn ends_in_branch(&self) -> bool {
        self.block().ends_in_branch()
    }

    /// Whether the JCC-erratum mitigation affects this block on its
    /// microarchitecture: a jump (including the producer of a macro-fused
    /// pair) crosses or ends on a 32-byte boundary.
    #[must_use]
    pub fn jcc_erratum_applies(&self) -> bool {
        if !self.uarch.config().jcc_erratum {
            return false;
        }
        let mut insts = self.insts().iter().peekable();
        while let Some(a) = insts.next() {
            // A fused pair is one jump spanning both instructions.
            let (end, jump) = match insts.next_if(|b| b.fused_with_prev) {
                Some(b) => (b.end(), true),
                None => (a.end(), a.inst().is_branch()),
            };
            if jump && Block::crosses_or_ends_on_32(a.start, end - a.start) {
                return true;
            }
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
        assert!(ab.insts().get(2).unwrap().fused_with_prev); // jne fused with dec
        assert_eq!(ab.fused_insts().count(), 2);
        // dec+jne pair: 1 fused µop; add: 1 -> total 2
        assert_eq!(ab.total_fused_uops(), 2);
    }

    #[test]
    fn no_fusion_on_snb_for_dec() {
        let ab = AnnotatedBlock::new(loop_block(), Uarch::Snb);
        assert!(!ab.insts().get(2).unwrap().fused_with_prev); // SNB: dec does not fuse
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
        let tail = ab.insts().get(2).unwrap();
        assert!(tail.fused_with_prev);
        assert!(tail.inst().is_branch());
        assert!(tail.desc().eliminated);
        assert_eq!(tail.desc().fused_uops, 0);
        assert!(tail.desc().uops.is_empty());
        // The pair head carries the pair's descriptor and its own inst.
        let head = ab.insts().get(1).unwrap();
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
