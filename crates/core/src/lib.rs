//! # facile-core
//!
//! The Facile analytical basic-block throughput model — the primary
//! contribution of the paper, reimplemented in Rust.
//!
//! Facile predicts the steady-state throughput (cycles per iteration) of a
//! basic block as the **maximum over a small set of independently analyzed
//! bottlenecks**:
//!
//! | Component | Section | Module |
//! |-----------|---------|--------|
//! | `Predec` (predecoder, LCP penalties) | §4.3 | [`predec`] |
//! | `Dec` (decoder allocation, Algorithm 1) | §4.4 | [`dec`] |
//! | `DSB` (µop cache delivery) | §4.5 | [`dsb`] |
//! | `LSD` (loop stream detector + unrolling) | §4.6 | [`lsd`] |
//! | `Issue` (rename width after unlamination) | §4.7 | [`issue`] |
//! | `Ports` (port contention, pairwise heuristic) | §4.8 | [`ports`] |
//! | `Precedence` (max cycle ratio of the dependence graph) | §4.9 | [`precedence`], [`mcr`] |
//!
//! Two throughput notions are supported: [`Mode::Unrolled`] (TPU, Eq. 1)
//! and [`Mode::Loop`] (TPL, Eq. 2–3 with JCC-erratum and LSD handling).
//! Because the model is compositional, every prediction is directly
//! explainable: [`Facile::predict`] returns the per-component bounds and
//! the bottleneck set, [`Facile::explain`] returns the full typed
//! [`Explanation`] (evidence per component, critical dependence chain,
//! contended-port load map, per-instruction attributions — see the
//! `facile-explain` crate), [`Facile::speedup_if_idealized`] computes
//! counterfactual speedups, and [`report::Report`] renders an
//! explanation as text.
//!
//! Each bound depends only on the inputs its kernel reads. The
//! predecoder and precedence bounds read the block's uarch-independent
//! [`facile_isa::Dataflow`] plus a few per-uarch inputs, so the
//! bound-only [`predec::predec`] and [`precedence::precedence_bound`]
//! keep, per thread, the bounds of the last dataflow they saw. A
//! nine-uarch sweep that predicts a block's uarchs one after another
//! computes each distinct bound once, with results bit-identical to
//! computing it per uarch.
//!
//! ```
//! use facile_core::{Facile, Mode};
//! use facile_isa::AnnotatedBlock;
//! use facile_uarch::Uarch;
//! use facile_x86::{Block, Mnemonic, reg::names::*};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = Block::assemble(&[
//!     (Mnemonic::Imul, vec![RAX.into(), RCX.into()]),
//!     (Mnemonic::Add, vec![RDX.into(), RAX.into()]),
//! ])?;
//! let ab = AnnotatedBlock::new(block, Uarch::Skl);
//! let prediction = Facile::new().predict(&ab, Mode::Unrolled);
//! assert!(prediction.throughput > 0.0);
//! println!("bottleneck: {:?}", prediction.primary_bottleneck());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod dec;
pub mod dsb;
pub mod issue;
pub mod lsd;
pub mod mcr;
mod memo;
pub mod ports;
pub mod precedence;
pub mod predec;
pub mod predict;
pub mod report;
pub mod timing;

pub use ablation::{variants as ablation_variants, Variant};
pub use facile_explain::{
    ChainStep, ComponentAnalysis, Detail, Evidence, Explanation, InstAttribution, ValueRef,
};
pub use ports::PortsAnalysis;
pub use precedence::PrecedenceAnalysis;
pub use predict::{Component, Facile, FacileConfig, FrontEndPath, Mode, Prediction};
pub use report::Report;
