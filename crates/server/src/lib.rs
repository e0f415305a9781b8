//! # facile-server
//!
//! Prediction-as-a-service: a long-lived daemon over the batched
//! prediction engine (`facile-engine`), speaking newline-delimited JSON
//! over a Unix-domain socket or TCP.
//!
//! Two properties define the design:
//!
//! * **Cross-connection batching.** Requests from concurrent
//!   connections gather into shared engine batches (a thread per
//!   connection; the one that finds the queue idle runs the round, and
//!   requests that arrive meanwhile form the next), so the batch planner's
//!   dedup stage and the two-level annotation cache work *across*
//!   clients exactly as they work across lines of a CLI batch. See
//!   [`server`].
//! * **Byte-identical rows.** Protocol replies render rows with the
//!   same `facile_engine::render` functions the CLI uses, so a row
//!   served over a socket is byte-for-byte the row `facile --batch`
//!   prints for the same input. See [`protocol`].
//!
//! The `facile serve` and `facile client` CLI subcommands are thin
//! wrappers over this crate. Request lines are read with the
//! workspace's one JSON reader, `facile_util::json`, re-exported here
//! as [`json`].
//!
//! A third property — **fault containment** — is layered across all of
//! the above: per-item panics become `internal-panic` error rows (the
//! engine's `catch_unwind` isolation), every shared lock recovers from
//! poisoning, a panicking batch round fails only its own requests, and the
//! whole path can be exercised deterministically via the re-exported
//! [`faults`] crate (compiled in only with the `fault-injection`
//! feature).

#![warn(missing_docs)]

pub use facile_faults as faults;
pub use facile_util::json;

pub mod protocol;
pub mod server;

pub use protocol::{error_reply, parse_request, Parsed, ProtoError, Render, Request, Work};
pub use server::{sig, BoundAddr, Endpoint, Server, ServerConfig, ServerCounters};
