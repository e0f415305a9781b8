//! # facile-util
//!
//! Small, dependency-free performance utilities shared across the
//! workspace's hot paths (the repository is built offline, so these are
//! in-tree stand-ins for the usual `rustc-hash`/`smallvec` crates):
//!
//! * [`fxhash`] — a fast, deterministic, non-cryptographic hasher for
//!   interning and sharding. Its low bits depend only on the key's low
//!   bits, so keys that differ only in their high bytes all land in one
//!   bucket. Tables keyed by caller-controlled bytes (the [`SlruCache`]
//!   shard maps behind the annotation, intern and external result
//!   caches) therefore use the standard, randomly keyed hasher, and
//!   FxHash only picks their shard.
//! * [`SmallVec`] — an inline-first vector for `Copy` element types,
//!   written entirely in safe Rust: the first `N` elements live on the
//!   stack and the buffer spills to a heap `Vec` only when it outgrows
//!   the inline capacity.
//! * [`PoisonlessMutex`] — a `Mutex` wrapper that recovers from lock
//!   poisoning instead of propagating it, so one contained panic cannot
//!   wedge every later lock acquisition.
//! * [`json`] — the workspace's one JSON reader: a linear-time parser
//!   with source spans and typed errors, used for server requests,
//!   client replies, external-predictor replies and bench files.

#![warn(missing_docs)]

pub mod cache;
pub mod fxhash;
pub mod json;
mod smallvec;
pub mod sync;

pub use cache::{HeapSize, SlruCache};
pub use fxhash::{hash_bytes, FxBuildHasher, FxHashMap, FxHasher};
pub use smallvec::SmallVec;
pub use sync::{recover, PoisonlessMutex};
