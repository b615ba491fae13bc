//! Shared plumbing of the multi-tenant (`mt_*`) scenarios: default
//! scale, workload builders, and per-tenant row emission.

use emca_harness::{ExperimentSpec, TenantOutput};
use emca_metrics::table::fnum;
use emca_metrics::SimTime;
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchScale};

/// Default TPC-H scale factor of the `mt_*` scenarios. Smaller than the
/// figure default (0.25): every tenant loads its *own* copy of the data
/// and runs its own worker pool, so a two-tenant run costs roughly two
/// single-tenant runs.
pub const MT_DEFAULT_SF: f64 = 0.1;

/// The spec's scale at the multi-tenant default factor.
pub fn mt_scale(spec: &ExperimentSpec) -> TpchScale {
    spec.scale(MT_DEFAULT_SF)
}

/// A steady closed-loop workload: the same Q6 scan over and over — the
/// victim tenant of the interference scenarios.
pub fn steady_workload(iters: u32) -> Workload {
    Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: iters,
    }
}

/// An OLAP antagonist: a random mix of the heavier TPC-H queries
/// (joins and aggregations, not just scans), deterministic per seed.
pub fn olap_workload(iters: u32, seed: u64) -> Workload {
    let specs: Vec<QuerySpec> = [1u8, 3, 5, 6, 9, 18]
        .into_iter()
        .flat_map(|n| {
            (0..2).map(move |v| QuerySpec::Tpch {
                number: n,
                variant: v,
            })
        })
        .collect();
    Workload::Mixed {
        specs,
        iterations: iters,
        seed,
    }
}

/// The window where both tenants were active: latest arrival to
/// earliest finish. May be empty (`from >= to`) when one tenant
/// finished before the other arrived — phase metrics then read 0.
pub fn overlap(a: &TenantOutput, b: &TenantOutput) -> (SimTime, SimTime) {
    let from = a.started_at.max(b.started_at);
    let to = a.finished_at.min(b.finished_at);
    (from, to)
}

/// Standard per-tenant row of the `mt_*` CSVs, over `[from, to]`.
pub fn tenant_row(run: &str, t: &TenantOutput, from: SimTime, to: SimTime) -> Vec<String> {
    vec![
        run.to_string(),
        t.config.name.clone(),
        t.config.policy.mode_name().unwrap_or("os").to_string(),
        t.config.clients.to_string(),
        fnum(t.qps_between(from, to), 2),
        fnum(t.mean_response_between(from, to).as_millis_f64(), 2),
        fnum(
            t.response_percentile_between(0.95, from, to)
                .as_millis_f64(),
            2,
        ),
        fnum(t.cores_between(from, to).unwrap_or(0.0), 2),
        fnum(t.cores_max(), 0),
        t.sla_violations.to_string(),
        fnum(t.qps_cov_between(from, to).unwrap_or(0.0), 3),
    ]
}

/// Header matching [`tenant_row`].
pub const TENANT_ROW_HEADER: &str =
    "run,tenant,policy,users,qps,mean_ms,p95_ms,cores_mean,cores_max,sla_violations,qps_cov";
