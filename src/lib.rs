//! # facile
//!
//! A Rust reproduction of **“Facile: Fast, Accurate, and Interpretable
//! Basic-Block Throughput Prediction”** (Abel, Sharma, Reineke — IISWC
//! 2023): an analytical model that predicts the steady-state throughput of
//! x86-64 basic blocks on nine Intel Core microarchitectures by analyzing
//! a small set of potential pipeline bottlenecks independently.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`engine`] — the unified prediction API: the object-safe `Predictor`
//!   trait, the string-keyed `PredictorRegistry`, and the batched
//!   `Engine` with its annotation cache;
//! * [`x86`] — from-scratch x86-64 decoder/assembler (the XED stand-in);
//! * [`isa`] — per-µarch instruction performance descriptors (the
//!   uops.info stand-in);
//! * [`uarch`] — microarchitecture configurations (Table 1);
//! * [`model`] — the Facile analytical model itself (the paper's §4);
//! * [`explain`] — the typed explanation data model: per-component
//!   evidence, critical-chain edges, port-load maps, bottleneck
//!   attribution, and JSON/text renderers;
//! * [`sim`] — a cycle-accurate pipeline simulator used as measurement
//!   oracle and as the simulation-based baseline;
//! * [`baselines`] — the competing predictors of Table 2, in spirit;
//! * [`bhive`] — the synthetic BHive-like benchmark suite and profiler;
//! * [`metrics`] — MAPE, Kendall's τ-b, timing and table utilities;
//! * [`diff`] — the differential-testing harness: cross-predictor
//!   inconsistency hunting with deterministic block shrinking;
//! * [`server`] — prediction-as-a-service: the NDJSON daemon with
//!   cross-connection micro-batching behind `facile serve` /
//!   `facile client`.
//!
//! ## Quickstart: one block, interpretable
//!
//! ```
//! use facile::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // add rax, rcx ; imul rdx, rax — a latency chain through rax/rdx.
//! let block = Block::from_hex("4801c8480fafd0")?;
//! let ab = AnnotatedBlock::new(block, Uarch::Skl);
//! let prediction = Facile::new().predict(&ab, Mode::Unrolled);
//! assert!(prediction.throughput >= 1.0);
//! println!(
//!     "{:.2} cycles/iter, bottleneck: {:?}",
//!     prediction.throughput,
//!     prediction.primary_bottleneck()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: batches, registry, structured errors
//!
//! The engine serves every predictor in the workspace under string keys
//! (`"facile"`, `"sim"`, `"llvm-mca"`, ... — glob patterns work too) and
//! fans batches out over a worker pool, memoizing block annotation per
//! `(block bytes, uarch)`. Bad input becomes per-row errors, not panics,
//! and output order is deterministic regardless of thread count:
//!
//! ```
//! use facile::prelude::*;
//!
//! let engine = Engine::with_builtins().with_threads(4);
//! let items = vec![
//!     BatchItem::hex("4801c8480fafd0", Uarch::Skl),
//!     BatchItem::hex("4801c8480fafd0", Uarch::Rkl),
//!     BatchItem::hex("not-hex", Uarch::Skl),
//! ];
//! let rows = engine.predict_batch(&items, "facile,sim").unwrap();
//! assert_eq!(rows.len(), 6); // 3 items x 2 predictors
//! assert!(rows[0].prediction.is_ok());
//! assert!(rows[4].prediction.is_err()); // structured, not a panic
//! ```
//!
//! The same path is scriptable from the CLI:
//!
//! ```text
//! echo 4801c8 | facile --batch --predictors 'facile,sim' --json
//! ```

#![warn(missing_docs)]

pub use facile_baselines as baselines;
pub use facile_bhive as bhive;
pub use facile_core as model;
pub use facile_diff as diff;
pub use facile_engine as engine;
pub use facile_explain as explain;
pub use facile_isa as isa;
pub use facile_metrics as metrics;
pub use facile_server as server;
pub use facile_sim as sim;
pub use facile_uarch as uarch;
pub use facile_x86 as x86;

/// The most common imports for working with the model.
pub mod prelude {
    pub use facile_core::{
        Component, Detail, Explanation, Facile, FacileConfig, Mode, Prediction, Report,
    };
    pub use facile_engine::{
        BatchItem, BlockInput, Engine, ItemResult, PredictError, PredictRequest, PredictorRegistry,
    };
    pub use facile_isa::AnnotatedBlock;
    pub use facile_uarch::{PortMask, Uarch, UarchConfig};
    pub use facile_x86::{Block, Cond, Inst, Mem, Mnemonic, Operand, Reg};
}
