//! # emca-bench — figure and table regeneration
//!
//! Every figure/table of the paper is a registered
//! [`Scenario`](emca_harness::Scenario) (see [`scenarios::registry`])
//! driven by a typed [`ExperimentSpec`]; one CLI runs them all:
//!
//! ```sh
//! cargo run --release -p emca-bench --bin emca -- list
//! cargo run --release -p emca-bench --bin emca -- run fig19 --policy adaptive --sf 0.25
//! cargo run --release -p emca-bench --bin emca -- check --fidelity
//! ```
//!
//! The documented `EMCA_*` environment variables remain as fallbacks,
//! parsed once by `emca_harness::config::from_env()`; CLI flags override
//! them.

pub mod scenarios;

use emca_harness::ExperimentSpec;

/// The paper's user-count sweep {1, 4, 16, 64, 256}, capped.
pub fn user_sweep(cap: usize) -> Vec<usize> {
    [1usize, 4, 16, 64, 256]
        .into_iter()
        .filter(|&u| u <= cap)
        .collect()
}

/// Prints a table and writes its CSV under the spec's output directory
/// (the workspace `results/` by default).
pub fn emit(spec: &ExperimentSpec, table: &emca_metrics::table::Table, csv_name: &str) {
    println!("{}", table.render());
    let path = spec.csv_path(csv_name);
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[csv] {}", path.display());
    }
}
