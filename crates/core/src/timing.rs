//! Opt-in per-kernel timing cells.
//!
//! While [`facile_util::timing`] is enabled,
//! [`Facile::analyze`](crate::Facile::analyze) records the duration of
//! every component-kernel invocation into the kernel's cell, so `--stats`
//! (and `bench_engine`) can report where prediction time goes without a
//! separate `fig4` run. Disabled (the default), the cost is one relaxed
//! load per kernel call.

use facile_explain::Component;
use facile_util::timing::{Timing, TimingCell};

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: TimingCell = TimingCell::new();

/// One cell per component kernel, indexed by discriminant: read entry
/// `kernel as usize` (NOT the position in [`Component::ALL`], whose
/// tie-break order swaps Lsd and Dsb).
pub static KERNELS: [TimingCell; Component::ALL.len()] = [EMPTY; Component::ALL.len()];

/// Snapshot of all kernels, indexed like [`KERNELS`].
#[must_use]
pub fn snapshot() -> [Timing; Component::ALL.len()] {
    std::array::from_fn(|i| KERNELS[i].snapshot())
}
