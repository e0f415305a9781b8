//! # facile-isa
//!
//! The instruction performance database: a synthesized, structural stand-in
//! for the uops.info measurements that the original Facile tool consumes.
//!
//! For every supported instruction and each of the nine modeled Intel Core
//! microarchitectures, [`describe`] yields an [`InstrDesc`]: fused- and
//! unfused-domain µop counts, execution-port bindings, latencies, decoder
//! requirements, and rename-stage behaviour (move elimination, zero idioms,
//! unlamination). [`AnnotatedBlock`] applies this to a whole basic block and
//! resolves macro fusion, producing the shared input representation for all
//! throughput predictors in this workspace. The uarch-independent half of
//! an annotation — the decoded block, its interned dataflow, predecoder
//! facts and shape keys — is a [`Dataflow`], built once per block and
//! shared by `Arc` across microarchitectures. An annotation adds only
//! per-uarch descriptors, dispatched µops and latencies, borrowing its
//! instructions from the block ([`AnnotatedInst`] is a view joining each
//! one to its descriptor), so it allocates a fixed number of times per
//! block, not per instruction. [`BlockColumns`] joins both halves for the
//! kernels.
//!
//! ```
//! use facile_isa::AnnotatedBlock;
//! use facile_uarch::Uarch;
//! use facile_x86::{Block, Mnemonic, reg::names::*};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = Block::assemble(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])])?;
//! let ab = AnnotatedBlock::new(block, Uarch::Skl);
//! assert_eq!(ab.total_fused_uops(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod classify;
pub mod cols;
pub mod dataflow;
pub mod desc;
pub mod form;
pub mod probes;
pub mod tables;
pub mod vocab;

pub use annotate::{AnnotatedBlock, AnnotatedInst, InstIter, Insts};
pub use classify::{describe, describe_fused_pair, macro_fuses};
pub use cols::{BlockColumns, SKIPPED_FLOW};
pub use dataflow::{ColValue, Dataflow, FlowCol};
pub use desc::{InstrDesc, Uop, UopKind};
pub use tables::{reset_static_table_stats, static_table_stats, StaticTableStats, TABLE_HASH};

/// What [`intern_stats`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// Always 0: there is no descriptor intern table.
    pub entries: usize,
}

/// A stub kept so the `perfbench/` benchmark, which records this count
/// as its `isa.intern_entries` metric, still builds. There is no
/// descriptor intern table: a form outside the static tables is
/// classified where it is annotated, so the count is always 0. The
/// benchmark's next update drops this call together with that metric
/// (ROADMAP item 12), and this stub with it.
#[must_use]
pub fn intern_stats() -> InternStats {
    InternStats::default()
}
