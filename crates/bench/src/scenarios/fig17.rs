//! Fig. 17 — single-client Q6 under the two PrT state-transition
//! strategies (CPU load vs HT/IMC ratio): response time, HT traffic and
//! per-socket L3 misses, per policy.

use super::{figure_scale, per_socket, ScenarioResult};
use crate::emit;
use emca_harness::{run as run_config, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig17_strategies.csv",
    "strategy,policy,response_s,ht_traffic_MBps,l3_misses_S0,l3_misses_S1,\
     l3_misses_S2,l3_misses_S3",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let iters = spec.iters_or(5);
    let data = TpchData::generate(scale);
    eprintln!("fig17: sf={} iters={iters}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header(
        "Fig. 17 — CPU-load vs HT/IMC transition strategies (Q6, 1 client)",
        header,
    );
    for (strategy, metric) in [
        ("CPU load", elastic_core::MetricKind::CpuLoad),
        ("HT/IMC", elastic_core::MetricKind::HtImcRatio),
    ] {
        for alloc in spec.alloc_sweep() {
            let out = run_config(
                spec.apply(
                    RunConfig::new(
                        alloc,
                        1, // single client: pinned by the figure's definition
                        Workload::Repeat {
                            spec: QuerySpec::Q6 { variant: 0 },
                            iterations: iters,
                        },
                    )
                    .with_scale(scale)
                    .with_metric(metric),
                ),
                &data,
            );
            let l3 = per_socket(&out.l3_misses_per_socket());
            let mut row = vec![
                strategy.to_string(),
                alloc.label(Flavor::MonetDb),
                fnum(out.mean_response().as_secs_f64(), 4),
                fnum(out.ht_rate() / 1e6, 1),
            ];
            row.extend(l3.iter().map(|m| m.to_string()));
            t.row(row);
        }
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
