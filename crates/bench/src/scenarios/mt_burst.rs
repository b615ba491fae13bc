//! `mt_burst` — an antagonist burst arrives mid-run against a steady
//! tenant under *priority* arbitration; how fast are the cores
//! reclaimed?
//!
//! The steady tenant (priority 2) runs a long closed loop; the burst
//! tenant (priority 1) arrives after [`BURST_DELAY_MS`] of simulated
//! time with a short, wide workload and then drains away. The CSV
//! reports per-tenant metrics for the *pre*, *burst* and *post* phases,
//! plus the reclaim latency: how long after the burst's last completion
//! the antagonist's allocation is back at the one-core floor. With
//! `check=1` the scenario enforces that reclaim completes within
//! [`RECLAIM_BOUND_MS`] of simulated time.

use super::mt::{mt_scale, olap_workload, steady_workload};
use super::ScenarioResult;
use crate::emit;
use elastic_core::ArbiterMode;
use emca_harness::{run_tenants, ExperimentSpec, MultiTenantConfig, TenantOutput, TenantRunConfig};
use emca_metrics::table::{fnum, Table};
use emca_metrics::{SimDuration, SimTime};
use volcano_db::tpch::TpchData;

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "mt_burst.csv",
    "tenant,phase,qps,mean_ms,cores_mean,reclaim_ms",
)];

/// Simulated delay before the burst tenant's clients arrive.
pub const BURST_DELAY_MS: u64 = 150;

/// `check=1` claim: the antagonist's allocation must be back at the
/// one-core floor within this much simulated time of its last
/// completion. The mechanism's release path is its control interval ×
/// (cores − 1) plus hysteresis; at the default scale the measured
/// reclaim is well under a second.
pub const RECLAIM_BOUND_MS: f64 = 2000.0;

/// First time at or after `after` where the tenant's sampled allocation
/// is back at the one-core floor.
fn reclaim_at(t: &TenantOutput, after: SimTime) -> Option<SimTime> {
    t.cores_series
        .samples()
        .iter()
        .find(|(at, cores)| *at >= after && *cores <= 1.5)
        .map(|&(at, _)| at)
}

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = mt_scale(spec);
    let data = TpchData::generate(scale);
    let iters = spec.iters_or(12);
    eprintln!("mt_burst: sf={} burst_delay={BURST_DELAY_MS}ms", scale.sf);

    // The steady tenant is a modest-load priority tenant: few enough
    // clients that it does not saturate the machine (the burst must have
    // idle cores to soak), and a loop long enough to outlive the burst
    // by a wide margin — the reclaim latency is measured in the
    // post-burst window, so an empty post phase (steady finishing
    // first) makes it unmeasurable.
    let mut cfg = MultiTenantConfig::new(
        ArbiterMode::Priority,
        vec![
            TenantRunConfig::new(
                "steady",
                steady_workload(iters * 10),
                spec.users_or(3).min(4),
            )
            .with_weight(2),
            TenantRunConfig::new(
                "burst",
                olap_workload(iters.div_ceil(4), 23),
                spec.users_or(24),
            )
            .with_weight(1)
            .with_start_after(SimDuration::from_millis(BURST_DELAY_MS)),
        ],
    )
    .with_scale(scale)
    // Keep the simulation ticking past the last completion so the
    // release path is observable even when the burst finishes last.
    .with_drain(SimDuration::from_millis((RECLAIM_BOUND_MS * 1.5) as u64));
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    spec.apply_tenants(&mut cfg).map_err(|e| e.to_string())?;
    let out = run_tenants(cfg, &data);

    let steady = out.tenant("steady").expect("steady tenant present");
    let burst = out.tenant("burst").expect("burst tenant present");
    let burst_start = burst.started_at;
    let burst_end = burst.finished_at;
    let reclaim_ms = reclaim_at(burst, burst_end)
        .map(|at| at.since(burst_end).as_millis_f64())
        .unwrap_or(f64::INFINITY);

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header(
        "mt_burst — reclaim latency after an antagonist burst",
        header,
    );
    let phases: [(&str, SimTime, SimTime); 3] = [
        ("pre", steady.started_at, burst_start),
        ("burst", burst_start, burst_end),
        ("post", burst_end, steady.finished_at.max(burst_end)),
    ];
    for t in &out.tenants {
        for (phase, from, to) in phases {
            let (from, to) = (from.max(t.started_at), to);
            let reclaim = if t.config.name == "burst" && phase == "post" {
                fnum(reclaim_ms, 1)
            } else {
                "0".to_string()
            };
            table.row(vec![
                t.config.name.clone(),
                phase.to_string(),
                fnum(t.qps_between(from, to), 2),
                fnum(t.mean_response_between(from, to).as_millis_f64(), 2),
                fnum(t.cores_between(from, to).unwrap_or(0.0), 2),
                reclaim,
            ]);
        }
    }
    emit(spec, SCHEMAS, &table, file)?;
    eprintln!(
        "mt_burst: reclaim latency {reclaim_ms:.1} ms after burst end \
         (steady qps pre {:.2} / burst {:.2} / post {:.2})",
        steady.qps_between(steady.started_at, burst_start),
        steady.qps_between(burst_start, burst_end),
        steady.qps_between(burst_end, steady.finished_at),
    );

    if spec.check && reclaim_ms > RECLAIM_BOUND_MS {
        return Err(format!(
            "burst cores not reclaimed within {RECLAIM_BOUND_MS} ms \
             (measured {reclaim_ms:.1} ms)"
        )
        .into());
    }
    Ok(())
}
