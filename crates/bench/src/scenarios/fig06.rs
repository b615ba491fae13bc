//! Fig. 6 — Tomograph view of Q6: per-MAL-operator calls and total time
//! across the worker threads.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, Alloc, ExperimentSpec, RunConfig};
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("fig06_tomograph.csv", report::TOMOGRAPH_HEADER)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let data = TpchData::generate(scale);
    eprintln!("fig06: sf={}", scale.sf);
    let out = run_config(
        spec.apply(
            RunConfig::new(
                Alloc::OsAll,
                1, // single client: pinned by the figure's definition
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: 1,
                },
            )
            .with_scale(scale),
        ),
        &data,
    );
    let table =
        report::render_tomograph("Fig. 6 — Tomograph of Q6 (operator calls and time)", &out);
    emit(spec, SCHEMAS, &table, SCHEMAS[0].0)?;
    Ok(())
}
