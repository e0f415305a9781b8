//! # facile-engine
//!
//! The unified prediction API of the workspace: a first-class, object-safe
//! [`Predictor`] trait, a name-addressed [`PredictorRegistry`] with
//! glob-style lookup, and a batched [`Engine`] that fans prediction work
//! out over `blocks × uarchs × predictors` on a worker pool, optionally
//! memoizing block annotation across calls in a `(block bytes,
//! uarch)`-keyed [`AnnotationCache`].
//!
//! Where `facile-baselines` defines the *models* (Facile, the simulator,
//! and the Table 2 competitors), this crate defines how they are *served*:
//! string-keyed registration, structured [`PredictError`]s instead of
//! panics, and deterministic batch output that is byte-identical whether
//! it ran on one thread or sixteen.
//!
//! ```
//! use facile_engine::{BatchItem, Engine};
//! use facile_uarch::Uarch;
//!
//! let engine = Engine::with_builtins();
//! let items = vec![
//!     BatchItem::hex("4801c8480fafd0", Uarch::Skl), // add rax,rcx; imul rdx,rax
//!     BatchItem::hex("zz-not-hex", Uarch::Skl),
//! ];
//! let rows = engine.predict_batch(&items, "facile,sim").unwrap();
//! assert_eq!(rows.len(), 4); // 2 blocks x 2 predictors
//! assert!(rows[0].prediction.is_ok());
//! assert!(rows[2].prediction.is_err()); // bad hex: an error row, not a panic
//! ```

#![warn(missing_docs)]

pub mod adapters;
pub mod cache;
pub mod engine;
pub mod error;
pub mod external;
pub mod predictor;
pub mod registry;
pub mod render;

pub use adapters::{Baseline, FacileAdapter, LazyLearned, TrainConfig};
pub use cache::{AnnotationCache, CacheStats};
pub use engine::{
    host_threads, panic_payload, parallel_map_indexed, BatchItem, BlockInput, CacheBudget, Engine,
    EngineStats, ItemResult, PlannerStats,
};
pub use error::PredictError;
pub use external::{
    extract_selector_externals, load_config as load_external_config, parse_reply,
    register_selector_externals, BreakerSpec, ExternalPredictor, ExternalSpec,
};
pub use facile_explain::{Detail, Explanation};
pub use predictor::{PredictRequest, Prediction, Predictor};
pub use registry::{glob_match, PredictorRegistry};
