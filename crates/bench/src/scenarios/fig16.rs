//! Fig. 16 — lifespan and core migration of the Q6 threads under the
//! four policies (single client), the four-panel version of Fig. 5.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::table::Table;
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs (the default policy sweep's file names; a
/// `--policy` override renames the mechanism panel accordingly).
pub const SCHEMAS: &[(&str, &str)] = &[
    ("fig16_migration_adaptive.csv", report::MIGRATION_MAP_HEADER),
    ("fig16_migration_dense.csv", report::MIGRATION_MAP_HEADER),
    (
        "fig16_migration_os_monetdb.csv",
        report::MIGRATION_MAP_HEADER,
    ),
    ("fig16_migration_sparse.csv", report::MIGRATION_MAP_HEADER),
    SUMMARY,
];
const SUMMARY: (&str, &str) = ("fig16_summary.csv", "policy,threads,migrations,spans");

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let data = TpchData::generate(scale);
    eprintln!("fig16: sf={}", scale.sf);
    let topo = numa_sim::Topology::opteron_4x4();

    let mut summary = Table::with_header(
        "Fig. 16 — thread migration by policy (single-client Q6)",
        SUMMARY.1,
    );
    for alloc in spec.alloc_sweep() {
        let out = run_config(
            spec.apply(
                RunConfig::new(
                    alloc,
                    1, // single client: pinned by the figure's definition
                    Workload::Repeat {
                        spec: QuerySpec::Q6 { variant: 0 },
                        iterations: 1,
                    },
                )
                .with_scale(scale)
                .with_trace(),
            ),
            &data,
        );
        let label = alloc.label(Flavor::MonetDb);
        let trace = out.trace.as_ref().expect("tracing enabled");
        let map =
            report::render_migration_map(&format!("Fig. 16 ({label}) migration map"), trace, &topo);
        let file = format!(
            "fig16_migration_{}.csv",
            label.replace('/', "_").to_lowercase()
        );
        emit(spec, SCHEMAS, &map, &file)?;
        let (threads, migrations) = report::migration_summary(trace);
        summary.row(vec![
            label,
            threads.to_string(),
            migrations.to_string(),
            trace.spans().len().to_string(),
        ]);
    }
    emit(spec, SCHEMAS, &summary, SUMMARY.0)?;
    Ok(())
}
