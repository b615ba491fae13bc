//! Fig. 5 — lifespan and core migration of the threads spawned for a
//! single-client Q6 under the plain OS scheduler with all 16 cores.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, Alloc, ExperimentSpec, RunConfig};
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("fig05_migration_os.csv", report::MIGRATION_MAP_HEADER)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let data = TpchData::generate(scale);
    eprintln!("fig05: sf={}", scale.sf);
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
            .with_scale(scale)
            .with_trace(),
        ),
        &data,
    );
    let trace = out.trace.as_ref().expect("tracing enabled");
    let topo = numa_sim::Topology::opteron_4x4();
    let table =
        report::render_migration_map("Fig. 5 — OS/MonetDB thread migration map", trace, &topo);
    let (threads, migrations) = report::migration_summary(trace);
    emit(spec, SCHEMAS, &table, SCHEMAS[0].0)?;
    println!("threads traced: {threads}, total core migrations: {migrations}");
    Ok(())
}
