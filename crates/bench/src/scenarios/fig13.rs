//! Fig. 13 — scheduling metrics for the thetasubselect microbenchmark
//! (45 % selectivity) with increasing concurrent clients: (a) throughput,
//! (b) CPU load, (c) tasks, (d) stolen tasks, across the four allocation
//! policies.

use super::{figure_scale, ScenarioResult};
use crate::{emit, user_sweep};
use emca_harness::{run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig13_sched_metrics.csv",
    "users,policy,throughput_qps,cpu_load_pct,tasks,stolen_tasks,cores_mean",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let iters = spec.iters_or(4);
    let data = TpchData::generate(scale);
    eprintln!("fig13: sf={} iters={iters}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header(
        "Fig. 13 — thetasubselect scheduling metrics vs concurrent clients",
        header,
    );
    for users in user_sweep(spec.users_or(256)) {
        for alloc in spec.alloc_sweep() {
            let out = run_config(
                spec.apply(
                    RunConfig::new(
                        alloc,
                        users,
                        Workload::Repeat {
                            spec: QuerySpec::ThetaSubselect { sel_pct: 45 },
                            iterations: iters,
                        },
                    )
                    .with_scale(scale),
                ),
                &data,
            );
            t.row(vec![
                users.to_string(),
                alloc.label(Flavor::MonetDb),
                fnum(out.throughput_qps(), 2),
                fnum(out.load_series.mean().unwrap_or(0.0), 1),
                out.engine.tasks_created.to_string(),
                out.sched.steals.to_string(),
                fnum(out.cores_series.mean().unwrap_or(16.0), 1),
            ]);
        }
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
