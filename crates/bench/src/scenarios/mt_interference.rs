//! `mt_interference` — an OLAP tenant ramping against a steady tenant,
//! with and without SLA caps on the antagonist.
//!
//! Two runs of the same two-tenant workload:
//!
//! - **uncapped** — fair-share arbitration only: the antagonist may
//!   grow into every core the victim does not defend;
//! - **capped** — the antagonist carries an [`SlaPolicy`] core budget
//!   and the arbiter runs budget-capped, so the cap binds both at the
//!   governor and at the arbitration layer.
//!
//! The CSV reports, per run × tenant, throughput, latency, allocated
//! cores, SLA violations and the per-window throughput coefficient of
//! variation (the stability measure). With `check=1` the scenario
//! *enforces* the headline claim: the capped run keeps the victim's
//! throughput within [`STABILITY_BOUND`] of the uncapped run's (caps on
//! the antagonist must not hurt — and in practice help — the victim),
//! and the capped antagonist never exceeds its core budget.

use super::mt::{mt_scale, olap_workload, overlap, steady_workload, tenant_row, TENANT_ROW_HEADER};
use super::ScenarioResult;
use crate::emit;
use elastic_core::{ArbiterMode, SlaPolicy};
use emca_harness::{run_tenants, ExperimentSpec, MultiTenantConfig, TenantRunConfig};
use emca_metrics::table::Table;
use volcano_db::tpch::TpchData;

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("mt_interference.csv", TENANT_ROW_HEADER)];

/// Core budget of the capped antagonist (of the machine's 16).
pub const ANTAGONIST_CAP: u32 = 6;

/// `check=1` claim: victim throughput in the capped run must be at
/// least this fraction of its uncapped-run throughput. Measured at the
/// default scale the cap *improves* victim throughput (the antagonist
/// stops stealing cores and memory bandwidth), so 1.0 is a conservative
/// floor with margin below the measured ratio.
pub const STABILITY_BOUND: f64 = 1.0;

fn config(
    spec: &ExperimentSpec,
    capped: bool,
    scale: volcano_db::tpch::TpchScale,
) -> Result<MultiTenantConfig, emca_harness::ScenarioError> {
    let iters = spec.iters_or(10);
    let steady = TenantRunConfig::new(
        "steady",
        steady_workload(iters * 2),
        spec.users_or(8).min(8),
    );
    let mut olap =
        TenantRunConfig::new("olap", olap_workload(iters, 11), spec.users_or(24)).with_weight(1);
    let mode = if capped {
        olap = olap.with_sla(SlaPolicy::cores(ANTAGONIST_CAP));
        ArbiterMode::BudgetCapped
    } else {
        ArbiterMode::FairShare
    };
    let mut cfg = MultiTenantConfig::new(mode, vec![steady, olap]).with_scale(scale);
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    spec.apply_tenants(&mut cfg).map_err(|e| e.to_string())?;
    if !capped {
        // A `--tenants olap:cap=N` override parameterises the *capped*
        // run's budget; the baseline's antagonist must stay genuinely
        // uncapped or the comparison (and the check) is capped-vs-capped.
        // Other tenants' overrides are left alone — the victim's config
        // must be identical in both runs so the antagonist cap is the
        // only experimental variable.
        if let Some(olap) = cfg.tenants.iter_mut().find(|t| t.name == "olap") {
            olap.sla.max_cores = None;
        }
    }
    Ok(cfg)
}

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = mt_scale(spec);
    let data = TpchData::generate(scale);
    eprintln!("mt_interference: sf={} cap={ANTAGONIST_CAP}", scale.sf);

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header(
        "mt_interference — victim stability with and without antagonist SLA caps",
        header,
    );
    let mut victim_qps = [0.0f64; 2]; // [uncapped, capped]
    let mut capped_olap_cores_max = 0.0f64;
    // The budget the capped run actually enforces: a `--tenants
    // olap:cap=N` override replaces the scenario default, and the check
    // below must gate on the effective value, not the constant.
    let mut effective_cap = ANTAGONIST_CAP;
    for (i, capped) in [false, true].into_iter().enumerate() {
        let label = if capped { "capped" } else { "uncapped" };
        let cfg = config(spec, capped, scale)?;
        if capped {
            effective_cap = cfg
                .tenants
                .iter()
                .find(|t| t.name == "olap")
                .and_then(|t| t.sla.max_cores)
                .unwrap_or(ANTAGONIST_CAP);
        }
        let out = run_tenants(cfg, &data);
        let steady = out.tenant("steady").expect("steady tenant present");
        let olap = out.tenant("olap").expect("olap tenant present");
        let (from, to) = overlap(steady, olap);
        victim_qps[i] = steady.qps_between(from, to);
        if capped {
            capped_olap_cores_max = olap.cores_max();
        }
        for t in &out.tenants {
            table.row(tenant_row(label, t, from, to));
        }
        eprintln!(
            "mt_interference[{label}]: victim {:.2} q/s (cov {:.3}), antagonist {:.2} q/s, \
             arbiter denials={} yields={}",
            victim_qps[i],
            steady.qps_cov_between(from, to).unwrap_or(0.0),
            olap.qps_between(from, to),
            out.arbiter_denials,
            out.arbiter_yields,
        );
    }
    emit(spec, SCHEMAS, &table, file)?;

    if spec.check {
        let [uncapped, capped] = victim_qps;
        if capped < uncapped * STABILITY_BOUND {
            return Err(format!(
                "victim throughput under SLA caps ({capped:.2} q/s) fell below \
                 {STABILITY_BOUND}× the uncapped run ({uncapped:.2} q/s)"
            )
            .into());
        }
        if capped_olap_cores_max > effective_cap as f64 {
            return Err(format!(
                "capped antagonist exceeded its budget: {capped_olap_cores_max} cores > \
                 {effective_cap}"
            )
            .into());
        }
    }
    Ok(())
}
