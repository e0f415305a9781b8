//! Structured prediction errors.
//!
//! Every failure mode of the engine is a variant here; nothing in the
//! batch path panics on bad input. Errors carry enough context to be
//! rendered in machine-readable output (one error per batch row) without
//! aborting the rest of the batch.

use facile_core::Mode;
use facile_uarch::Uarch;
use facile_x86::DecodeError;
use std::error::Error;
use std::fmt;

/// Why a prediction (or a batch row) could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The input bytes / hex string did not decode to a basic block.
    Decode {
        /// The offending input, as supplied (hex).
        input: String,
        /// The decoder's diagnosis.
        source: DecodeError,
    },
    /// The input hex string contained a non-hex character or an odd
    /// number of digits.
    BadHex {
        /// The offending input, as supplied.
        input: String,
    },
    /// The block decoded to zero instructions.
    EmptyBlock,
    /// A predictor selector did not match any registered predictor.
    UnknownPredictor {
        /// The selector (key or glob pattern) that failed to resolve.
        pattern: String,
        /// The keys that are registered.
        available: Vec<String>,
    },
    /// A learned predictor has no trained model for this
    /// microarchitecture (or training produced a non-finite output).
    NotTrained {
        /// Registry key of the predictor.
        predictor: String,
        /// The microarchitecture it was asked about.
        uarch: Uarch,
    },
    /// The predictor produced a non-finite or negative throughput.
    InvalidOutput {
        /// Registry key of the predictor.
        predictor: String,
        /// The value it produced.
        value: String,
        /// The notion it was evaluating.
        mode: Mode,
    },
    /// The prediction work for this item panicked. The panic was
    /// contained by the engine's per-item `catch_unwind` isolation; the
    /// rest of the batch is unaffected.
    Panicked {
        /// The panic payload, rendered to a string (`"opaque panic
        /// payload"` for non-string payloads).
        payload: String,
    },
    /// A deterministic fault-injection point (the `facile-faults` crate)
    /// fired for this item. Only ever produced in builds with fault
    /// injection compiled in and armed.
    Injected {
        /// The injection point that fired (e.g. `"predict-error"`).
        point: String,
    },
    /// An external predictor subprocess did not reply within its
    /// per-request timeout. The adapter kills the subprocess and
    /// respawns it on the next request, unless its circuit breaker opens.
    ExternalTimeout {
        /// Registry key of the external predictor (`ext:<name>`).
        tool: String,
        /// The per-request timeout that elapsed, in milliseconds.
        timeout_ms: u64,
    },
    /// An external predictor subprocess could not be spawned, exited, or
    /// closed its pipes mid-request.
    ExternalCrashed {
        /// Registry key of the external predictor (`ext:<name>`).
        tool: String,
        /// What happened (spawn error, exit status, ...).
        detail: String,
    },
    /// An external predictor replied with something that is not a valid
    /// protocol reply (garbage bytes, an unparsable object, a reply for
    /// the wrong request id). The adapter kills and restarts the
    /// subprocess: after a protocol violation the stream cannot be
    /// resynchronized.
    ExternalMalformed {
        /// Registry key of the external predictor (`ext:<name>`).
        tool: String,
        /// The parse diagnosis, with the offending line (truncated).
        detail: String,
    },
    /// An external predictor's circuit breaker is open: the tool failed
    /// its consecutive-failure threshold and requests fail fast (no
    /// subprocess work at all) until the request-counted cooldown
    /// elapses and a half-open probe is allowed through.
    ExternalCircuitOpen {
        /// Registry key of the external predictor (`ext:<name>`).
        tool: String,
        /// Requests remaining until a half-open probe is attempted.
        until_probe: u64,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Decode { input, source } => {
                write!(f, "cannot decode block {input:?}: {source}")
            }
            PredictError::BadHex { input } => {
                write!(f, "not a hex-encoded block: {input:?}")
            }
            PredictError::EmptyBlock => f.write_str("empty basic block"),
            PredictError::UnknownPredictor { pattern, available } => {
                write!(
                    f,
                    "no predictor matches {pattern:?} (available: {})",
                    available.join(", ")
                )
            }
            PredictError::NotTrained { predictor, uarch } => {
                write!(
                    f,
                    "predictor {predictor:?} has no trained model for {uarch}"
                )
            }
            PredictError::InvalidOutput {
                predictor,
                value,
                mode,
            } => {
                write!(
                    f,
                    "predictor {predictor:?} produced invalid {mode} output: {value}"
                )
            }
            PredictError::Panicked { payload } => {
                write!(f, "prediction panicked: {payload}")
            }
            PredictError::Injected { point } => {
                write!(f, "injected fault at {point}")
            }
            PredictError::ExternalTimeout { tool, timeout_ms } => {
                write!(
                    f,
                    "external predictor {tool:?} timed out after {timeout_ms} ms"
                )
            }
            PredictError::ExternalCrashed { tool, detail } => {
                write!(f, "external predictor {tool:?} crashed: {detail}")
            }
            PredictError::ExternalMalformed { tool, detail } => {
                write!(
                    f,
                    "external predictor {tool:?} sent a malformed reply: {detail}"
                )
            }
            PredictError::ExternalCircuitOpen { tool, until_probe } => {
                write!(
                    f,
                    "external predictor {tool:?} circuit open ({until_probe} request(s) until probe)"
                )
            }
        }
    }
}

impl Error for PredictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PredictError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PredictError {
    /// A short machine-readable code for this error (stable across
    /// releases; used in JSON/CSV batch output).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            PredictError::Decode { .. } => "decode-error",
            PredictError::BadHex { .. } => "bad-hex",
            PredictError::EmptyBlock => "empty-block",
            PredictError::UnknownPredictor { .. } => "unknown-predictor",
            PredictError::NotTrained { .. } => "not-trained",
            PredictError::InvalidOutput { .. } => "invalid-output",
            PredictError::Panicked { .. } => "internal-panic",
            PredictError::Injected { .. } => "injected-fault",
            PredictError::ExternalTimeout { .. } => "external-timeout",
            PredictError::ExternalCrashed { .. } => "external-crashed",
            PredictError::ExternalMalformed { .. } => "external-malformed",
            PredictError::ExternalCircuitOpen { .. } => "external-circuit-open",
        }
    }
}
