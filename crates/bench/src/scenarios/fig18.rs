//! Fig. 18 — stable-phases workload: per-socket memory throughput over
//! time, where every phase is the concurrent execution of one TPC-H
//! query by all clients. Four panels: {OS, mechanism} × {MonetDB,
//! SQL Server}.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, Alloc, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs (default-policy panel names).
pub const SCHEMAS: &[(&str, &str)] = &[
    ("fig18_adaptive-monetdb.csv", PANEL_HEADER),
    ("fig18_adaptive-sqlserver.csv", PANEL_HEADER),
    ("fig18_os_monetdb-monetdb.csv", PANEL_HEADER),
    ("fig18_os_sql server-sqlserver.csv", PANEL_HEADER),
    SUMMARY,
];
/// What `report::render_series` builds from the per-socket IMC series
/// of the 4-socket machine; `emit` refuses a panel that differs.
const PANEL_HEADER: &str = "time_s,S0,S1,S2,S3";
const SUMMARY: (&str, &str) = ("fig18_summary.csv", "panel,total_time_s,ht_GB,imc_GB,qps");

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(64);
    let data = TpchData::generate(scale);
    eprintln!("fig18: sf={} users={users}", scale.sf);
    let specs: Vec<QuerySpec> = (1..=22)
        .map(|n| QuerySpec::Tpch {
            number: n,
            variant: 0,
        })
        .collect();

    let mut summary = Table::with_header("Fig. 18 — stable phases summary", SUMMARY.1);
    for (flavor, fname) in [
        (Flavor::MonetDb, "MonetDB"),
        (Flavor::SqlServer, "SQLServer"),
    ] {
        for alloc in [Alloc::OsAll, spec.mech_alloc()] {
            let out = run_config(
                spec.apply(
                    RunConfig::new(
                        alloc,
                        users,
                        Workload::StablePhases {
                            specs: specs.clone(),
                        },
                    )
                    .with_scale(scale)
                    .with_flavor(flavor),
                ),
                &data,
            );
            let label = format!("{}-{}", alloc.label(flavor).replace('/', "_"), fname);
            let series: Vec<&emca_metrics::TimeSeries> = out.imc_series.iter().collect();
            let table = report::render_series(
                &format!("Fig. 18 ({label}) per-socket memory throughput (GB/s)"),
                &series,
            );
            let file = format!("fig18_{}.csv", label.to_lowercase());
            emit(spec, SCHEMAS, &table, &file)?;
            summary.row(vec![
                label,
                fnum(out.wall.as_secs_f64(), 2),
                fnum(out.ht_bytes() as f64 / 1e9, 1),
                fnum(
                    out.imc_bytes_per_socket().iter().sum::<u64>() as f64 / 1e9,
                    1,
                ),
                fnum(out.throughput_qps(), 2),
            ]);
        }
    }
    emit(spec, SCHEMAS, &summary, SUMMARY.0)?;
    Ok(())
}
