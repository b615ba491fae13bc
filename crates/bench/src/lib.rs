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
//! Flags are the only way to configure a run: one per spec key
//! (`emca help` lists them). The environment carries only run limits —
//! wall budget, run deadline, threads pool width — read in
//! `emca_harness::timing`; `emca` refuses any other `EMCA_*` variable.

pub mod scenarios;

use emca_harness::{ExperimentSpec, ScenarioError};

/// The paper's user-count sweep {1, 4, 16, 64, 256}, capped.
pub fn user_sweep(cap: usize) -> Vec<usize> {
    [1usize, 4, 16, 64, 256]
        .into_iter()
        .filter(|&u| u <= cap)
        .collect()
}

/// Prints a table and writes its CSV under the spec's output directory
/// (the workspace `results/` by default).
///
/// `schemas` is the calling scenario's declaration: a table whose header
/// line differs from the one declared for `csv_name` is refused before
/// anything is written, so a committed CSV can never drift from what
/// `emca check` validates it against. A name the scenario does not
/// declare (a figure panel renamed by a non-default `--policy`) is
/// written unchecked. A write failure is the scenario's failure.
pub fn emit(
    spec: &ExperimentSpec,
    schemas: &[(&str, &str)],
    table: &emca_metrics::table::Table,
    csv_name: &str,
) -> Result<(), ScenarioError> {
    if let Some((_, declared)) = schemas.iter().find(|(name, _)| *name == csv_name) {
        let built = table.headers().join(",");
        if built != *declared {
            return Err(format!(
                "{csv_name}: header mismatch\n  declared: {declared}\n  built:    {built}"
            )
            .into());
        }
    }
    println!("{}", table.render());
    let path = spec.csv_path(csv_name);
    table
        .write_csv(&path)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!("[csv] {}", path.display());
    Ok(())
}
