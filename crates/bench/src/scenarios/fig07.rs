//! Fig. 7 — PrT state transitions and core allocation along the
//! execution of TPC-H Q6 (single client, mechanism policy, CPU-load
//! strategy).

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::SimDuration;
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("fig07_transitions.csv", report::TRANSITIONS_HEADER)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let data = TpchData::generate(scale);
    eprintln!("fig07: sf={}", scale.sf);
    let out = run_config(
        spec.apply(
            RunConfig::new(
                spec.mech_alloc(),
                1, // single client: pinned by the figure's definition
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: spec.iters_or(10),
                },
            )
            .with_scale(scale)
            .with_mech_interval(SimDuration::from_millis(10)),
        ),
        &data,
    );
    let table = report::render_transitions(
        "Fig. 7 — state transitions and allocated cores over Q6",
        &out.transitions,
    );
    emit(spec, SCHEMAS, &table, SCHEMAS[0].0)?;
    if let Some(lonc) = elastic_core::lonc::analyze(&out.transitions) {
        println!(
            "LONC: {} cores (stable streak of {} control steps from {})",
            lonc.lonc, lonc.streak, lonc.reached_at
        );
    }
    Ok(())
}
