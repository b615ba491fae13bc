//! `mt_fairshare` — two symmetric tenants under fair-share arbitration:
//! does the core split converge to the guaranteed half/half?
//!
//! Both tenants run the same closed-loop workload with the same client
//! count and weight, so each is guaranteed `ntotal/2` cores. The CSV
//! reports the steady-state (second half of the overlap window) mean
//! allocation per tenant against that guarantee. With `check=1` the
//! scenario enforces convergence: each tenant's steady-state mean must
//! sit within [`CONVERGENCE_TOLERANCE`] cores of its guarantee.

use super::mt::{mt_scale, overlap, steady_workload};
use super::ScenarioResult;
use crate::emit;
use elastic_core::ArbiterMode;
use emca_harness::{run_tenants, ExperimentSpec, MultiTenantConfig, TenantRunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::tpch::TpchData;

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "mt_fairshare.csv",
    "tenant,users,weight,guarantee,cores_mean_steady,cores_max,abs_dev,qps",
)];

/// `check=1` claim: steady-state mean allocation within this many cores
/// of the fair-share guarantee. The split cannot be exact — the
/// mechanisms keep hunting around the fixed point and each tenant only
/// holds what its load justifies — but it must not collapse to one
/// tenant owning the machine.
pub const CONVERGENCE_TOLERANCE: f64 = 3.0;

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = mt_scale(spec);
    let data = TpchData::generate(scale);
    let users = spec.users_or(16);
    let iters = spec.iters_or(16);
    eprintln!("mt_fairshare: sf={} users={users}/tenant", scale.sf);

    let mut cfg = MultiTenantConfig::new(
        ArbiterMode::FairShare,
        vec![
            TenantRunConfig::new("left", steady_workload(iters), users),
            TenantRunConfig::new("right", steady_workload(iters), users),
        ],
    )
    .with_scale(scale);
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    spec.apply_tenants(&mut cfg).map_err(|e| e.to_string())?;
    let n_tenants = cfg.tenants.len() as f64;
    let total_weight: u32 = cfg.tenants.iter().map(|t| t.weight).sum();
    let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.weight).collect();
    let out = run_tenants(cfg, &data);

    let (from, to) = overlap(&out.tenants[0], &out.tenants[1]);
    // Steady state: the second half of the overlap window (the first
    // half is the ramp from 1 core each).
    let mid = from + to.since(from) / 2;
    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header("mt_fairshare — convergence to the fair core split", header);
    let mut worst_dev = 0.0f64;
    for (t, &w) in out.tenants.iter().zip(&weights) {
        // The arbiter's own fair-share arithmetic over the run's
        // actual machine size.
        let guarantee = elastic_core::fair_guarantee(out.ntotal, w, total_weight as u64) as f64;
        let steady_cores = t.cores_between(mid, to).unwrap_or(0.0);
        let dev = (steady_cores - guarantee).abs();
        worst_dev = worst_dev.max(dev);
        table.row(vec![
            t.config.name.clone(),
            t.config.clients.to_string(),
            w.to_string(),
            fnum(guarantee, 1),
            fnum(steady_cores, 2),
            fnum(t.cores_max(), 0),
            fnum(dev, 2),
            fnum(t.qps_between(from, to), 2),
        ]);
    }
    emit(spec, SCHEMAS, &table, file)?;
    eprintln!(
        "mt_fairshare: worst deviation {worst_dev:.2} cores over {} tenants \
         (denials={} yields={})",
        n_tenants, out.arbiter_denials, out.arbiter_yields
    );

    if spec.check && worst_dev > CONVERGENCE_TOLERANCE {
        return Err(format!(
            "fair-share split did not converge: worst steady-state deviation \
             {worst_dev:.2} cores > tolerance {CONVERGENCE_TOLERANCE}"
        )
        .into());
    }
    Ok(())
}
