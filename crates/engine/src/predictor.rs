//! The first-class, object-safe prediction interface.

use crate::error::PredictError;
use facile_core::Mode;
use facile_explain::{Component, Detail, Explanation};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;

/// Everything a predictor needs for one prediction: the annotated block
/// (built once per `(block bytes, uarch)` by the engine's cache and shared
/// across predictors), the throughput notion to evaluate, and the
/// explanation [`Detail`] the caller wants back.
#[derive(Debug, Clone, Copy)]
pub struct PredictRequest<'a> {
    annotated: &'a AnnotatedBlock,
    mode: Mode,
    detail: Detail,
}

impl<'a> PredictRequest<'a> {
    /// Build a request from a pre-annotated block, at [`Detail::Brief`]
    /// (the allocation-lean batch default).
    #[must_use]
    pub fn new(annotated: &'a AnnotatedBlock, mode: Mode) -> PredictRequest<'a> {
        PredictRequest {
            annotated,
            mode,
            detail: Detail::Brief,
        }
    }

    /// Request a different explanation detail level.
    #[must_use]
    pub fn with_detail(mut self, detail: Detail) -> PredictRequest<'a> {
        self.detail = detail;
        self
    }

    /// The annotated block.
    #[must_use]
    pub fn annotated(&self) -> &'a AnnotatedBlock {
        self.annotated
    }

    /// The underlying basic block.
    #[must_use]
    pub fn block(&self) -> &'a Block {
        self.annotated.block()
    }

    /// The microarchitecture the block was annotated for.
    #[must_use]
    pub fn uarch(&self) -> Uarch {
        self.annotated.uarch()
    }

    /// The throughput notion to evaluate.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The requested explanation detail.
    #[must_use]
    pub fn detail(&self) -> Detail {
        self.detail
    }
}

/// The result of one successful prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted steady-state throughput in cycles per iteration.
    pub throughput: f64,
    /// The primary bottleneck, if the predictor is interpretable enough
    /// to report one (Facile reports its bottleneck component; this is
    /// carried even at [`Detail::Brief`], so batch rows always have
    /// attribution).
    pub bottleneck: Option<Component>,
    /// The typed explanation, if the request asked for more than
    /// [`Detail::Brief`] and the predictor can produce one (boxed: brief
    /// rows stay small and the warm path allocation-free).
    pub explanation: Option<Box<Explanation>>,
}

impl Prediction {
    /// A bare throughput value with no interpretability detail.
    #[must_use]
    pub fn plain(throughput: f64) -> Prediction {
        Prediction {
            throughput,
            bottleneck: None,
            explanation: None,
        }
    }
}

/// A basic-block throughput predictor.
///
/// This is the object-safe interface every predictor in the workspace is
/// served through: built-ins are registered in a
/// [`PredictorRegistry`](crate::PredictorRegistry) under string keys, and
/// the [`Engine`](crate::Engine) fans batches out over `&dyn Predictor`.
/// Implementations must be thread-safe — `predict` is called concurrently
/// from the engine's worker pool.
pub trait Predictor: Send + Sync {
    /// Stable registry key (lowercase, no spaces): `"facile"`, `"sim"`,
    /// `"llvm-mca"`, ...
    fn key(&self) -> &str;

    /// Human-readable tool name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// The notion the tool was designed for (`None` = handles both).
    fn native_notion(&self) -> Option<Mode> {
        None
    }

    /// Predict the throughput of the requested block, or explain why it
    /// cannot be predicted. Must not panic on any decodable input.
    /// Predictors that cannot explain themselves ignore
    /// [`PredictRequest::detail`] and leave `explanation` empty.
    fn predict(&self, req: &PredictRequest<'_>) -> Result<Prediction, PredictError>;

    /// Whether an engine with a cache may keep this predictor's `Ok`
    /// [`Detail::Brief`] predictions beside the block's annotation and
    /// answer repeats from there without calling
    /// [`Predictor::predict`]. True by default: the built-in predictors'
    /// answers are pure functions of the annotated block and notion. A
    /// predictor whose answers can change between calls (an external
    /// tool, with its own result cache and circuit breaker) returns
    /// false.
    fn memoizable(&self) -> bool {
        true
    }
}
