//! # facile-metrics
//!
//! Evaluation metrics and reporting utilities for the experiment harness:
//! MAPE and tie-aware Kendall tau-b (the two accuracy metrics of the
//! paper's §6.2), wall-clock timing statistics for the efficiency studies,
//! corpus-level [`BottleneckDistribution`]s over Facile's typed bottleneck
//! attributions, and plain-text table/heatmap writers for regenerating
//! the paper's tables and figures.
//!
//! ```
//! use facile_metrics::{mape, kendall_tau_b};
//!
//! let pairs = [(2.0, 1.9), (4.0, 4.2)];
//! assert!(mape(&pairs) < 0.06);
//! let tau = kendall_tau_b(&[1.0, 2.0, 3.0], &[2.0, 4.0, 9.0]);
//! assert!((tau - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod accuracy;
pub mod bottleneck;
pub mod table;
pub mod timing;

pub use accuracy::{geomean, kendall_tau_b, kendall_tau_b_naive, mape, mean};
pub use bottleneck::BottleneckDistribution;
pub use table::{Heatmap, Table};
pub use timing::TimingStats;
