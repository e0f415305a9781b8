//! Per-thread reuse of component bounds across the annotations of one
//! block.
//!
//! Each component bound is a function of only the inputs its kernel
//! reads. The annotations of a block on different microarchitectures
//! share one [`facile_isa::Dataflow`], and often hand a kernel the same
//! per-uarch inputs as well, so a sweep that recomputes every bound per
//! uarch mostly repeats itself. This module keeps, per thread, the
//! bounds computed for the most recent dataflow, keyed by exactly the
//! per-uarch inputs each kernel reads besides the dataflow:
//!
//! - precedence: the latency column (which also marks the macro-fused
//!   tails the graph skips) and the load latency;
//! - predecoder: the mode and the predecode width.
//!
//! The dataflow is identified by [`facile_isa::Dataflow::id`], which is
//! never handed out again (a freed dataflow's address is), and keys are
//! compared exactly, columns byte for byte. A hit therefore returns the
//! value the kernel would compute, bit for bit, and results never depend
//! on call order; only the hit rate does. The batch engine predicts a
//! block's uarchs one after another on one worker, which is where the
//! hits come from. A different dataflow clears the memo, and blocks
//! above [`MAX_INSTS`] are never memoized.
//!
//! Only the bound-only entry points use this; the evidence paths
//! (`precedence`, `predec_analysis`) always compute.

use crate::predict::Mode;
use facile_isa::AnnotatedBlock;
use std::cell::RefCell;

/// Blocks of more instructions than this (the annotator's per-thread
/// scratch cap) are not memoized, so one huge block does not pin a
/// latency column per uarch on the thread.
const MAX_INSTS: usize = 4096;

/// The bounds of one dataflow's annotations seen on this thread.
#[derive(Debug, Default)]
struct Memo {
    /// [`facile_isa::Dataflow::id`] of the dataflow the entries belong to.
    dataflow: Option<u64>,
    /// Latency columns of the precedence entries, concatenated: entry
    /// `i` owns `columns[i * n..(i + 1) * n]`, `n` being the dataflow's
    /// flow count.
    columns: Vec<u8>,
    /// `(load latency, bound)` per precedence entry.
    precedence: Vec<(u8, f64)>,
    /// `(mode, predecode width, bound)` per predecoder entry.
    predec: Vec<(Mode, u8, f64)>,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

/// Run `f` on this thread's memo, cleared first unless it already holds
/// `ab`'s dataflow.
fn with_memo<R>(ab: &AnnotatedBlock, f: impl FnOnce(&mut Memo) -> R) -> R {
    MEMO.with(|m| {
        let m = &mut *m.borrow_mut();
        let id = ab.dataflow().id();
        if m.dataflow != Some(id) {
            m.dataflow = Some(id);
            m.columns.clear();
            m.precedence.clear();
            m.predec.clear();
        }
        f(m)
    })
}

/// The precedence bound of `ab`: a memo hit, or `compute()` recorded.
pub(crate) fn precedence_bound(ab: &AnnotatedBlock, compute: impl FnOnce() -> f64) -> f64 {
    let column = ab.columns().latency;
    if column.len() > MAX_INSTS {
        return compute();
    }
    let load = ab.uarch().config().load_latency;
    let n = column.len();
    let hit = with_memo(ab, |m| {
        m.precedence
            .iter()
            .enumerate()
            .find(|&(i, &(l, _))| l == load && m.columns[i * n..(i + 1) * n] == *column)
            .map(|(_, &(_, bound))| bound)
    });
    hit.unwrap_or_else(|| {
        let bound = compute();
        with_memo(ab, |m| {
            m.columns.extend_from_slice(column);
            m.precedence.push((load, bound));
        });
        bound
    })
}

/// The predecoder bound of `ab` in `mode`: a memo hit, or `compute()`
/// recorded.
pub(crate) fn predec(ab: &AnnotatedBlock, mode: Mode, compute: impl FnOnce() -> f64) -> f64 {
    if ab.block().num_insts() > MAX_INSTS {
        return compute();
    }
    let width = ab.uarch().config().predecode_width;
    let hit = with_memo(ab, |m| {
        m.predec
            .iter()
            .find(|&&(md, w, _)| md == mode && w == width)
            .map(|&(_, _, bound)| bound)
    });
    hit.unwrap_or_else(|| {
        let bound = compute();
        with_memo(ab, |m| m.predec.push((mode, width, bound)));
        bound
    })
}
