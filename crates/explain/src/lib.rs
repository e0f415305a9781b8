//! # facile-explain
//!
//! The typed explanation data model that makes Facile's interpretability a
//! first-class data layer instead of formatted strings.
//!
//! Facile predicts throughput as the maximum over independently analyzed
//! pipeline-component bounds, so every prediction is *directly
//! explainable*: which component binds, by how much, and why. This crate
//! defines the machine-consumable form of that explanation, shared by the
//! core model (which produces it), the batch engine (which threads it
//! through [`Detail`] levels), the CLI (which renders it as text or JSON),
//! and the metrics/bench layers (which aggregate bottleneck distributions
//! over corpora):
//!
//! * [`Component`], [`Mode`], [`FrontEndPath`] — the vocabulary of the
//!   model (these are the canonical definitions; `facile-core` re-exports
//!   them).
//! * [`ComponentAnalysis`] — one component's bound plus its typed
//!   [`Evidence`] (frontend path breakdown, contended-port load map,
//!   critical dependence chain as typed [`ChainStep`] edges).
//! * [`Explanation`] — the composed result: dominant bottleneck under the
//!   paper's front-end-first tie break, per-component bounds, and
//!   per-instruction [`InstAttribution`]s.
//! * [`Detail`] — how much of the above a caller wants; the batch engine
//!   keeps its allocation-free brief path by requesting
//!   [`Detail::Brief`].
//!
//! Rendering lives here too: [`Explanation::to_json`] emits a structured
//! JSON object (no external dependencies) and [`Explanation::to_text`] a
//! compact human-readable summary. The legacy full-text report (which
//! needs the disassembled block) remains in `facile-core::report` as a
//! thin renderer over this data model.

#![warn(missing_docs)]

pub mod explanation;
pub mod model;
pub mod render;

pub use explanation::{
    ChainStep, ComponentAnalysis, DecEvidence, DsbEvidence, Evidence, Explanation, InstAttribution,
    IssueEvidence, LsdEvidence, PortLoad, PortsEvidence, PrecedenceEvidence, PredecEvidence,
    ValueRef,
};
pub use model::{Component, Detail, FrontEndPath, Mode};
pub use render::{fixed4, json_escape, json_escape_into, json_num};
