//! # pp-analysis — analysis toolkit for population protocol experiments
//!
//! Everything between raw simulation output and the paper's figures:
//!
//! * [`stats`] — descriptive statistics (nearest-rank quantiles matching
//!   the simulator's histogram convention).
//! * [`series`] — pooling estimate series across independent runs the way
//!   the paper's §5 does ("minimum, median, and maximum values of all 96
//!   estimates").
//! * [`convergence`] — convergence and holding time against an estimate
//!   band (Theorem 2.1).
//! * [`clock_analysis`] — burst/overlap decomposition of phase-clock tick
//!   logs (Theorem 2.2).
//! * [`relative_error`] — relative deviation from `log2 n` (Fig. 3).
//! * [`memory`] — per-agent bit footprints (Theorem 2.1's space bound).
//! * [`outcomes`] — resilient-grid readouts: per-cell outcome tallies in
//!   one shared CSV shape, and time-to-recovery after a fault injection.
//! * [`csv`] / [`sparkline`](mod@sparkline) — output: plot-ready CSV with
//!   its FNV-1a-64 digest, and terminal sparklines.
//! * [`report`] — named row tables ([`TableSpec`]): the single shared CSV
//!   emission point every bench experiment routes through, and the console
//!   view of the same rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock_analysis;
pub mod convergence;
pub mod csv;
pub mod memory;
pub mod outcomes;
pub mod relative_error;
pub mod report;
pub mod series;
pub mod sparkline;
pub mod stats;

pub use clock_analysis::{Burst, ClockDecomposition, ClockVerdict};
pub use convergence::{convergence_time, holding_time, Band, HoldingTime};
pub use csv::{csv_digest, write_csv, Fnv64};
pub use memory::{memory_profile, theorem_bound_bits, MemoryProfile};
pub use outcomes::{outcome_columns, recovery_after, RecoveryReadout, OUTCOME_HEADERS};
pub use relative_error::{relative_deviation, RelativeDeviation};
pub use report::{write_tables, TableSpec};
pub use series::{PooledPoint, PooledSeries};
pub use sparkline::{render_band, sparkline};
pub use stats::{mean, median, quantile, std_dev, Summary};
