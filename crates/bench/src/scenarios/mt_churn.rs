//! `mt_churn` — serverless tenant churn at 64+ tenants: adaptive
//! arbitration vs a static partitioner.
//!
//! A seeded [`ChurnPlan`] (default `churn=64:resident=12`) drives
//! tenants through the machine: Zipf-skewed demand, scattered arrivals,
//! admission queueing at the resident cap, departure reclaim. The same
//! plan runs twice — once under the elastic arbiter (fair-share mode),
//! once under a static partitioner that pins each resident slot to a
//! fixed 1/cap slice — and the CSV reports one row per run.
//!
//! With `check=1` the headline gates are enforced:
//!
//! - **zero lost queries**: both runs complete exactly the plan's
//!   expected completions across every arrival/departure;
//! - **throughput**: adaptive aggregate throughput ≥ static (a 10 %
//!   noise allowance on the `threads` backend, where walls are host
//!   time);
//! - **tail fairness** (sim only — host p99 is too noisy on a shared
//!   runner): the worst per-tenant p99 response under adaptive ≤
//!   static (no tenant is starved into the tail);
//! - **decision cost**: the mean measured arbitration cost per control
//!   tick stays below the control interval.

use super::ScenarioResult;
use crate::emit;
use elastic_core::ArbiterMode;
use emca_harness::{
    run_tenants, ChurnPlan, ChurnSpec, ExperimentSpec, MultiTenantConfig, MultiTenantOutput,
};
use emca_metrics::table::{fnum, Table};
use emca_metrics::{SimDuration, SimTime};
use volcano_db::tpch::{TpchData, TpchScale};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "mt_churn.csv",
    "run,tenants,resident,aggregate_qps,worst_p99_ms,mean_queue_ms,lost,denials,yields,ticks,mean_tick_us",
)];

/// Default TPC-H scale factor of the churn scenarios: every tenant
/// loads its own copy, and the default population is 64 tenants.
pub const CHURN_DEFAULT_SF: f64 = 0.05;

/// Pinned control interval of both churn scenarios — also the bound the
/// decision-cost gate holds the measured arbitration tick under.
pub const CONTROL_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// Summary metrics of one churn run.
pub(crate) struct ChurnRunStats {
    /// Total completions / wall (completions per second).
    pub aggregate_qps: f64,
    /// Worst per-tenant p99 response (ms) — the cross-tenant tail.
    pub worst_p99_ms: f64,
    /// Mean admission-queue wait (ms): admit time minus arrival time.
    pub mean_queue_ms: f64,
    /// Expected minus observed completions (0 = exact accounting).
    pub lost: i64,
    /// Mean measured arbitration cost per control tick (µs); 0 when no
    /// tick ran (the static baseline).
    pub mean_tick_us: f64,
}

/// Builds the shared churn config and runs one leg of the comparison.
pub(crate) fn run_churn(
    spec: &ExperimentSpec,
    plan: &ChurnPlan,
    scale: TpchScale,
    data: &TpchData,
    static_partition: bool,
) -> (MultiTenantOutput, ChurnRunStats) {
    let mut cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
        .with_scale(scale)
        .with_mech_interval(CONTROL_INTERVAL)
        .with_sample_every(SimDuration::from_millis(1))
        .with_resident_cap(plan.resident)
        .with_backend(spec.backend);
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    if static_partition {
        cfg = cfg.with_static_partition();
    }
    let out = run_tenants(cfg, data);

    let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
    let wall_s = out.wall.as_secs_f64();
    let aggregate_qps = if wall_s > 0.0 {
        total as f64 / wall_s
    } else {
        0.0
    };
    let worst_p99_ms = out
        .tenants
        .iter()
        .map(|t| t.response_percentile(0.99).as_millis_f64())
        .fold(0.0f64, f64::max);
    let queue_ms: f64 = out
        .tenants
        .iter()
        .map(|t| {
            t.started_at
                .since(SimTime::ZERO + t.config.start_after)
                .as_millis_f64()
        })
        .sum();
    let stats = ChurnRunStats {
        aggregate_qps,
        worst_p99_ms,
        mean_queue_ms: queue_ms / out.tenants.len().max(1) as f64,
        lost: plan.expected_completions() as i64 - total as i64,
        mean_tick_us: if out.arbiter_ticks > 0 {
            out.arbiter_ns as f64 / out.arbiter_ticks as f64 / 1000.0
        } else {
            0.0
        },
    };
    (out, stats)
}

/// The spec's churn plan (default `64:resident=12`), expanded at the
/// spec's seed and demand bounds.
pub(crate) fn churn_plan(spec: &ExperimentSpec) -> (ChurnSpec, ChurnPlan) {
    let churn = spec.churn.unwrap_or_else(|| {
        let mut c = ChurnSpec::new(64);
        c.resident = Some(12);
        c
    });
    let plan = churn.plan(spec.seed, spec.users_or(4), spec.iters_or(3));
    (churn, plan)
}

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = spec.scale(CHURN_DEFAULT_SF);
    let data = TpchData::generate(scale);
    let (churn, plan) = churn_plan(spec);
    eprintln!(
        "mt_churn: sf={} tenants={} resident={} expected_completions={}",
        scale.sf,
        churn.n,
        plan.resident,
        plan.expected_completions()
    );

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header(
        "mt_churn — adaptive arbitration vs static partitioning under churn",
        header,
    );
    let mut runs = Vec::new();
    for (label, static_partition) in [("adaptive", false), ("static", true)] {
        let (out, stats) = run_churn(spec, &plan, scale, &data, static_partition);
        eprintln!(
            "mt_churn/{label}: {:.1} q/s aggregate, worst p99 {:.1} ms, \
             queue {:.0} ms mean, {} ticks at {:.2} µs",
            stats.aggregate_qps,
            stats.worst_p99_ms,
            stats.mean_queue_ms,
            out.arbiter_ticks,
            stats.mean_tick_us
        );
        table.row(vec![
            label.to_string(),
            churn.n.to_string(),
            plan.resident.to_string(),
            fnum(stats.aggregate_qps, 2),
            fnum(stats.worst_p99_ms, 2),
            fnum(stats.mean_queue_ms, 1),
            stats.lost.to_string(),
            out.arbiter_denials.to_string(),
            out.arbiter_yields.to_string(),
            out.arbiter_ticks.to_string(),
            fnum(stats.mean_tick_us, 2),
        ]);
        runs.push(stats);
    }
    emit(spec, SCHEMAS, &table, file)?;

    if spec.check {
        let (adaptive, static_) = (&runs[0], &runs[1]);
        // The comparative gates are strict on the deterministic sim
        // backend. On threads the walls and responses are measured host
        // time (same idea as the sim-only byte-replay gate in
        // chaos_recovery): throughput carries a 10 % noise allowance
        // and the tail comparison is judged on sim only — a shared CI
        // host makes per-query p99 swing severalfold run to run.
        let is_sim = spec.backend == emca_harness::Backend::Sim;
        let qps_floor = if is_sim { 1.0 } else { 0.90 };
        if adaptive.lost != 0 || static_.lost != 0 {
            return Err(format!(
                "lost queries across departures: adaptive {} static {}",
                adaptive.lost, static_.lost
            )
            .into());
        }
        if adaptive.aggregate_qps < static_.aggregate_qps * qps_floor {
            return Err(format!(
                "adaptive aggregate throughput {:.2} q/s below the static \
                 partitioner's {:.2} q/s",
                adaptive.aggregate_qps, static_.aggregate_qps
            )
            .into());
        }
        if is_sim && adaptive.worst_p99_ms > static_.worst_p99_ms {
            return Err(format!(
                "adaptive worst-tenant p99 {:.2} ms above the static \
                 partitioner's {:.2} ms",
                adaptive.worst_p99_ms, static_.worst_p99_ms
            )
            .into());
        }
        let interval_us = CONTROL_INTERVAL.as_nanos() as f64 / 1000.0;
        if adaptive.mean_tick_us >= interval_us {
            return Err(format!(
                "arbiter decision cost {:.2} µs/tick not below the control \
                 interval ({interval_us:.0} µs)",
                adaptive.mean_tick_us
            )
            .into());
        }
    }
    Ok(())
}
