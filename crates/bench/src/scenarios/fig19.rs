//! Fig. 19 — mixed-phases workload: per-query speedup of the mechanism
//! policy over the OS scheduler and per-query HT/IMC ratios for all
//! four policies, on both engine flavors.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, ExperimentSpec, RunConfig, RunOutput};
use emca_metrics::table::{fnum, Table};
use emca_metrics::FxHashMap;
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[
    ("fig19_monetdb.csv", PANEL_HEADER),
    ("fig19_sqlserver.csv", PANEL_HEADER),
];
const PANEL_HEADER: &str =
    "query,speedup_adaptive,ratio_OS,ratio_Dense,ratio_Sparse,ratio_Adaptive";

fn mixed(iters: u32) -> Workload {
    let specs: Vec<QuerySpec> = (1..=22)
        .flat_map(|n| {
            (0..4).map(move |v| QuerySpec::Tpch {
                number: n,
                variant: v,
            })
        })
        .collect();
    Workload::Mixed {
        specs,
        iterations: iters,
        seed: 7,
    }
}

fn panel(
    spec: &ExperimentSpec,
    flavor: Flavor,
    users: usize,
    iters: u32,
    data: &TpchData,
    scale: volcano_db::tpch::TpchScale,
) -> Table {
    let outputs: Vec<RunOutput> = spec
        .alloc_sweep()
        .into_iter()
        .map(|alloc| {
            run_config(
                spec.apply(
                    RunConfig::new(alloc, users, mixed(iters))
                        .with_scale(scale)
                        .with_flavor(flavor),
                ),
                data,
            )
        })
        .collect();
    let fname = match flavor {
        Flavor::MonetDb => "MonetDB",
        Flavor::SqlServer => "SQL Server",
    };
    let mut t = Table::with_header(
        format!("Fig. 19 ({fname}) — per-query speedup and HT/IMC ratio"),
        PANEL_HEADER,
    );
    let speedups: FxHashMap<u32, f64> =
        report::speedup_by_tag(&outputs[0].results, &outputs[3].results)
            .into_iter()
            .collect();
    let per_alloc: Vec<FxHashMap<u32, report::TagStats>> = outputs
        .iter()
        .map(|o| report::by_tag(&o.results).into_iter().collect())
        .collect();
    for q in 1..=22u32 {
        let ratio = |i: usize| {
            per_alloc[i]
                .get(&q)
                .map(|s| fnum(s.mean_ht_imc, 3))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            format!("Q{q}"),
            speedups
                .get(&q)
                .map(|s| fnum(*s, 2))
                .unwrap_or_else(|| "-".into()),
            ratio(0),
            ratio(1),
            ratio(2),
            ratio(3),
        ]);
    }
    t
}

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(64);
    let iters = spec.iters_or(6);
    let data = TpchData::generate(scale);
    eprintln!("fig19: sf={} users={users} iters={iters}", scale.sf);

    let monetdb = panel(spec, Flavor::MonetDb, users, iters, &data, scale);
    emit(spec, SCHEMAS, &monetdb, SCHEMAS[0].0)?;
    let sqlserver = panel(spec, Flavor::SqlServer, users, iters, &data, scale);
    emit(spec, SCHEMAS, &sqlserver, SCHEMAS[1].0)?;
    Ok(())
}
