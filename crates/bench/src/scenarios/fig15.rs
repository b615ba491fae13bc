//! Fig. 15 — L3 cache misses per socket at selectivities 2–100 % of the
//! thetasubselect with 256 concurrent clients, per allocation policy.

use super::{figure_scale, per_socket, ScenarioResult};
use crate::emit;
use emca_harness::{run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::table::Table;
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig15_selectivity.csv",
    "selectivity_pct,policy,l3_misses_S0,l3_misses_S1,l3_misses_S2,l3_misses_S3,total",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(256);
    let iters = spec.iters_or(2);
    let data = TpchData::generate(scale);
    eprintln!("fig15: sf={} users={users} iters={iters}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header(
        "Fig. 15 — L3 load misses vs selectivity (256 clients)",
        header,
    );
    for sel in [2u8, 4, 8, 16, 32, 64, 100] {
        for alloc in spec.alloc_sweep() {
            let out = run_config(
                spec.apply(
                    RunConfig::new(
                        alloc,
                        users,
                        Workload::Repeat {
                            spec: QuerySpec::ThetaSubselect { sel_pct: sel },
                            iterations: iters,
                        },
                    )
                    .with_scale(scale),
                ),
                &data,
            );
            let l3 = per_socket(&out.l3_misses_per_socket());
            let mut row = vec![sel.to_string(), alloc.label(Flavor::MonetDb)];
            row.extend(l3.iter().map(|m| m.to_string()));
            row.push(l3.iter().sum::<u64>().to_string());
            t.row(row);
        }
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
