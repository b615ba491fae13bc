//! Shared measurement utilities for the elastic-NUMA simulation stack.
//!
//! This crate is dependency-free and provides:
//!
//! - [`SimTime`] / [`SimDuration`]: the nanosecond-resolution simulated clock
//!   used by every other crate in the workspace;
//! - [`Counter`] and [`CounterVec`]: monotonically increasing hardware/OS
//!   counters whose snapshots monitors take window deltas of (the
//!   building block of the mpstat/likwid analogues);
//! - [`TimeSeries`]: sampled `(time, value)` traces used to render the
//!   paper's timeline figures;
//! - [`stats`]: summary statistics (mean, geometric mean, percentiles) used
//!   when aggregating the 10-run experiment repetitions;
//! - [`table`]: aligned text tables and CSV emission for the figure and
//!   table harnesses.

pub mod counter;
pub mod ewma;
pub mod fxhash;
pub mod series;
pub mod stats;
pub mod table;
pub mod time;

pub use counter::{Counter, CounterVec};
pub use ewma::Ewma;
pub use fxhash::{FxHashMap, FxHashSet};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
