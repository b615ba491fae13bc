//! Fig. 20 — per-query energy estimates (CPU + HT) for the OS scheduler
//! vs the mechanism policy, on the mixed-phases workload with MonetDB.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{report, run as run_config, Alloc, ExperimentSpec, RunConfig};
use emca_metrics::stats;
use emca_metrics::table::{fnum, Table};
use numa_sim::EnergyModel;
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig20_energy.csv",
    "query,os_cpu_J,os_ht_J,adaptive_cpu_J,adaptive_ht_J,cpu_saving_pct,ht_saving_pct",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(64);
    let iters = spec.iters_or(6);
    let data = TpchData::generate(scale);
    eprintln!("fig20: sf={} users={users} iters={iters}", scale.sf);
    let specs: Vec<QuerySpec> = (1..=22)
        .flat_map(|n| {
            (0..4).map(move |v| QuerySpec::Tpch {
                number: n,
                variant: v,
            })
        })
        .collect();
    let workload = Workload::Mixed {
        specs,
        iterations: iters,
        seed: 7,
    };
    let model = EnergyModel::opteron_8387();

    let os = run_config(
        spec.apply(RunConfig::new(Alloc::OsAll, users, workload.clone()).with_scale(scale)),
        &data,
    );
    let adaptive = run_config(
        spec.apply(RunConfig::new(spec.mech_alloc(), users, workload).with_scale(scale)),
        &data,
    );
    let e_os: Vec<(u32, numa_sim::EnergyBreakdown)> = report::energy_by_tag(&os.results, &model, 4);
    let e_ad: std::collections::BTreeMap<u32, numa_sim::EnergyBreakdown> =
        report::energy_by_tag(&adaptive.results, &model, 4)
            .into_iter()
            .collect();

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header(
        "Fig. 20 — per-query energy (J): OS scheduler vs adaptive",
        header,
    );
    let mut cpu_ratios = Vec::new();
    let mut ht_ratios = Vec::new();
    let mut total_os = 0.0;
    let mut total_ad = 0.0;
    for (q, eo) in &e_os {
        let Some(ea) = e_ad.get(q) else { continue };
        total_os += eo.total();
        total_ad += ea.total();
        let cpu_s = stats::saving_pct(eo.cpu_j, ea.cpu_j).unwrap_or(0.0);
        let ht_s = stats::saving_pct(eo.ht_j, ea.ht_j).unwrap_or(100.0);
        if ea.cpu_j > 0.0 && eo.cpu_j > 0.0 {
            cpu_ratios.push(ea.cpu_j / eo.cpu_j);
        }
        if ea.ht_j > 0.0 && eo.ht_j > 0.0 {
            ht_ratios.push(ea.ht_j / eo.ht_j);
        }
        t.row(vec![
            format!("Q{q}"),
            fnum(eo.cpu_j, 1),
            fnum(eo.ht_j, 1),
            fnum(ea.cpu_j, 1),
            fnum(ea.ht_j, 1),
            fnum(cpu_s, 1),
            fnum(ht_s, 1),
        ]);
    }
    emit(spec, SCHEMAS, &t, file)?;
    let cpu_geo = stats::geomean(&cpu_ratios).map(|g| (1.0 - g) * 100.0);
    let ht_geo = stats::geomean(&ht_ratios).map(|g| (1.0 - g) * 100.0);
    println!(
        "geometric-mean savings: CPU {}%, HT {}%; total system energy saving {:.2}% (paper: 22.93% / 63.20% / 26.05%)",
        cpu_geo.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
        ht_geo.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
        stats::saving_pct(total_os, total_ad).unwrap_or(0.0),
    );
    Ok(())
}
