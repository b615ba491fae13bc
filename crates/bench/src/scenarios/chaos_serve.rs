//! `chaos_serve` — the full serving stack under fire, past saturation.
//!
//! One open-loop point at 1.5× the probed capacity, admitted through a
//! concurrency limit, with the fault plane armed: poisoned queries
//! (`badquery`) plus a mid-horizon worker kill (by default; a pinned
//! `faults=` spec overrides the plan). The serving side runs its full
//! resilience kit — retries with deterministic jittered backoff for
//! worker deaths, a per-request deadline at 4× the SLA covering every
//! attempt, and a drain at least as long as the deadline so every
//! dispatched request resolves inside the window.
//!
//! With `check=1` (the CI chaos gate, both backends):
//!
//! - **accounting exact** — completed + shed + unfinished + failed
//!   equals offered, nothing pending;
//! - **admitted p99 finite** — faults must not unbound the latency of
//!   the admitted series;
//! - **failures are explicit** — with `badquery` armed some requests
//!   fail, each carrying its error; with a deadline ≥ drain there are
//!   no unfinished stragglers.

use super::serve::{cell, horizon_of, probe, schedule_of, sla_of, SERVE_DEFAULT_SF, SERVE_KEYS};
use super::ScenarioResult;
use emca_harness::{
    run_serve, AdmissionSpec, ExperimentSpec, RequestOutcome, RetryPolicy, RunConfig, ServeConfig,
};
use emca_metrics::table::Table;
use emca_metrics::SimDuration;
use volcano_db::client::Workload;
use volcano_db::exec::FaultPlan;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "chaos_serve.csv",
    "backend,offered_mult,offered,completed,failed,retried,shed_gate,\
     shed_timeout,unfinished,recoveries,mttr_ms,goodput_qps,p50_ms,p99_ms,wall_s",
)];

/// Offered load as a multiple of the probed capacity.
pub const DEFAULT_MULT: f64 = 1.5;

/// Spec keys: the serve set plus `faults`.
pub const CHAOS_SERVE_KEYS: &[&str] = &[
    "sf",
    "flavor",
    "policy",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
    "arrival",
    "duration",
    "admission",
    "sla_ms",
    "faults",
];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    debug_assert!(SERVE_KEYS.iter().all(|k| CHAOS_SERVE_KEYS.contains(k)));
    let data = TpchData::generate(spec.scale(SERVE_DEFAULT_SF));
    let p = probe(spec, &data);
    let sla = sla_of(spec, &p);
    let horizon = horizon_of(spec);
    let schedule =
        schedule_of(spec, DEFAULT_MULT * p.capacity_qps, horizon).map_err(|e| e.to_string())?;
    let plan = match &spec.faults {
        Some(f) => f.clone(),
        None => FaultPlan::default()
            .with_badquery(0.02)
            .with_kill(0, horizon.mul_f64(0.5)),
    };
    let deadline = sla.mul_f64(4.0);
    eprintln!(
        "[chaos_serve] C={:.1} req/s, offering {:.1} req/s over {:.2}s under `{plan}`, \
         sla {:.1} ms, deadline {:.1} ms",
        p.capacity_qps,
        schedule.offered_qps(),
        horizon.as_secs_f64(),
        sla.as_millis_f64(),
        deadline.as_millis_f64()
    );

    let mut base = spec.apply(
        RunConfig::new(
            spec.mech_alloc(),
            0,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 0,
            },
        )
        .with_scale(data.scale)
        .with_faults(plan),
    );
    if let Some(f) = spec.flavor {
        base = base.with_flavor(f);
    }
    let admission = spec.admission.unwrap_or(AdmissionSpec::Limit {
        max_inflight: 16,
        queue: Some(64),
    });
    let cfg = ServeConfig {
        base,
        schedule,
        admission,
        sla,
        // Drain ≥ deadline: every dispatched request resolves in-window.
        drain: deadline.max(SimDuration::from_millis(250)),
        retry: Some(RetryPolicy::default_chaos()),
        request_deadline: Some(deadline),
    };
    let out = run_serve(&cfg, &data);

    let completed = out.count(RequestOutcome::Completed);
    let failed = out.count(RequestOutcome::Failed);
    let shed_gate = out.count(RequestOutcome::ShedGate);
    let shed_timeout = out.count(RequestOutcome::ShedTimeout);
    let unfinished = out.count(RequestOutcome::Unfinished);
    let pending = out.count(RequestOutcome::Pending);
    let retried = out.records.iter().filter(|r| r.attempts > 1).count();
    let p50 = out.latency_percentile_ms(0.5);
    let p99 = out.latency_percentile_ms(0.99);
    eprintln!(
        "[chaos_serve] {completed} completed, {failed} failed ({retried} retried), \
         {} shed, {unfinished} unfinished, {} recoveries, p99 {}",
        shed_gate + shed_timeout,
        out.engine.engine_recoveries,
        cell(p99)
    );

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header("chaos_serve — serving under injected faults", header);
    let mttr = out.engine.mttr_ms();
    table.row(vec![
        cfg.base.backend.to_string(),
        match spec.arrival {
            Some(_) => "pinned".to_string(),
            None => format!("{DEFAULT_MULT}"),
        },
        out.offered.to_string(),
        completed.to_string(),
        failed.to_string(),
        retried.to_string(),
        shed_gate.to_string(),
        shed_timeout.to_string(),
        unfinished.to_string(),
        out.engine.engine_recoveries.to_string(),
        if mttr.is_finite() {
            format!("{mttr:.3}")
        } else {
            "0.000".to_string()
        },
        cell(out.goodput_qps()),
        cell(p50),
        cell(p99),
        format!("{:.3}", out.wall.as_secs_f64()),
    ]);
    crate::emit(spec, SCHEMAS, &table, file)?;

    if spec.check {
        let resolved = completed + failed + shed_gate + shed_timeout + unfinished;
        if resolved != out.offered || pending != 0 {
            return Err(format!(
                "accounting must be exact: {resolved} resolved + {pending} pending \
                 of {} offered",
                out.offered
            )
            .into());
        }
        if !p99.is_finite() {
            return Err(format!(
                "admitted p99 must stay finite under faults, got {}",
                cell(p99)
            )
            .into());
        }
        if unfinished != 0 {
            return Err(format!(
                "with drain ≥ deadline every dispatched request must resolve, \
                 {unfinished} still unfinished"
            )
            .into());
        }
        if let Some(r) = out
            .records
            .iter()
            .find(|r| r.outcome == RequestOutcome::Failed && r.error.is_none())
        {
            return Err(format!(
                "a failed request must carry its error (arrival {:?})",
                r.arrival
            )
            .into());
        }
    }
    Ok(())
}
