//! Fig. 4 — TPC-H Q6 with an increasing number of concurrent clients:
//! (a) throughput, (b) minor page faults/s, (c) HT traffic, comparing the
//! hand-coded C version under Dense/Sparse/OS affinity against MonetDB
//! under the OS scheduler.

use super::{figure_scale, ScenarioResult};
use crate::{emit, user_sweep};
use emca_harness::{run as run_config, run_handcoded, Alloc, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use emca_metrics::SimDuration;
use volcano_db::client::Workload;
use volcano_db::handcoded::CAffinity;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "fig04_q6_users.csv",
    "users,series,throughput_qps,minor_faults_per_s,ht_traffic_MBps",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let iters = spec.iters_or(3);
    let data = TpchData::generate(scale);
    eprintln!("fig04: sf={} iters={iters}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header("Fig. 4 — Q6 with increasing concurrent clients", header);
    for users in user_sweep(spec.users_or(256)) {
        for (name, affinity) in [
            ("Dense/C", CAffinity::Dense),
            ("Sparse/C", CAffinity::Sparse),
            ("OS/C", CAffinity::Os),
        ] {
            let out = run_handcoded(
                &data,
                affinity,
                users,
                16,
                iters,
                SimDuration::from_secs(3600),
            );
            let rate = |n: u64| out.wall.rate_per_sec(n);
            t.row(vec![
                users.to_string(),
                name.to_string(),
                fnum(rate(out.runs.len() as u64), 3),
                fnum(rate(out.hw.minor_faults.iter().sum()), 0),
                fnum(rate(out.hw.link_bytes.iter().sum()) / 1e6, 1),
            ]);
        }
        let out = run_config(
            spec.apply(
                RunConfig::new(
                    Alloc::OsAll,
                    users,
                    Workload::Repeat {
                        spec: QuerySpec::Q6 { variant: 0 },
                        iterations: iters,
                    },
                )
                .with_scale(scale),
            ),
            &data,
        );
        t.row(vec![
            users.to_string(),
            "OS/MonetDB".to_string(),
            fnum(out.throughput_qps(), 3),
            fnum(out.fault_rate(), 0),
            fnum(out.ht_rate() / 1e6, 1),
        ]);
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
