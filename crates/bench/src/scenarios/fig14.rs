//! Fig. 14 — memory access metrics at 256 concurrent clients running the
//! thetasubselect: (a) per-socket L3 load misses, (b) per-socket memory
//! throughput, (c) HT traffic, across the four allocation policies.

use super::{figure_scale, per_socket, ScenarioResult};
use crate::emit;
use emca_harness::{run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig14_memory_metrics.csv",
    "policy,l3_misses_S0,l3_misses_S1,l3_misses_S2,l3_misses_S3,\
     mem_tp_S0_GBps,mem_tp_S1_GBps,mem_tp_S2_GBps,mem_tp_S3_GBps,ht_traffic_GBps",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(256);
    let iters = spec.iters_or(4);
    let data = TpchData::generate(scale);
    eprintln!("fig14: sf={} users={users} iters={iters}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header(
        "Fig. 14 — memory metrics, 256 clients, thetasubselect",
        header,
    );
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
        let l3 = per_socket(&out.l3_misses_per_socket());
        let imc = per_socket(&out.imc_bytes_per_socket());
        let mut row = vec![alloc.label(Flavor::MonetDb)];
        row.extend(l3.iter().map(|m| m.to_string()));
        row.extend(imc.iter().map(|&b| fnum(out.wall.rate_per_sec(b) / 1e9, 2)));
        row.push(fnum(out.ht_rate() / 1e9, 2));
        t.row(row);
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
