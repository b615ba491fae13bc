//! `serve_latency_curve` — p50/p95/p99 latency and goodput vs offered
//! load, for the three front-door configurations (static OS baseline,
//! adaptive mechanism, adaptive + admission control).
//!
//! Offered load sweeps {0.5, 1.0, 1.5, 2.0}× the measured closed-loop
//! capacity C, crossing saturation on purpose: below C the three series
//! agree, past C the unprotected series drown in backlog (infinite p99
//! from requests that never finish inside the window) while admission
//! control sheds the excess and keeps the tail bounded.
//!
//! With `check=1`, the 2.0×C point gates the headline claim: the
//! adaptive policy with admission achieves strictly higher goodput and
//! a bounded p99 (finite, below the no-admission baseline's) than the
//! static OS baseline. A pinned `arrival=` replaces the sweep with that
//! single offered load; the gate then requires it to be ≥1.5×C.

use super::serve::{
    headline_violation, horizon_of, probe, row, run_point, schedule_of, series, sla_of, ROW_HEADER,
    SERVE_DEFAULT_SF,
};
use super::ScenarioResult;
use emca_harness::ExperimentSpec;
use emca_metrics::table::Table;
use volcano_db::tpch::TpchData;

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("serve_latency_curve.csv", ROW_HEADER)];

/// The offered-load multipliers of the sweep.
pub const MULTS: &[f64] = &[0.5, 1.0, 1.5, 2.0];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let data = TpchData::generate(spec.scale(SERVE_DEFAULT_SF));
    let p = probe(spec, &data);
    let sla = sla_of(spec, &p);
    let horizon = horizon_of(spec);
    eprintln!(
        "[serve] probed capacity C={:.1} req/s, unloaded mean {:.2} ms, sla {:.1} ms, window {:.2} s",
        p.capacity_qps,
        p.mean_ms,
        sla.as_millis_f64(),
        horizon.as_secs_f64()
    );

    // A pinned arrival replaces the multiplier sweep with one point.
    let sweep: Vec<(String, f64)> = match spec.arrival {
        Some(_) => vec![("pinned".to_string(), 0.0)],
        None => MULTS
            .iter()
            .map(|m| (format!("{m}"), m * p.capacity_qps))
            .collect(),
    };

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header(
        "serve_latency_curve — latency and goodput vs offered load",
        header,
    );
    let mut gate_pair = None;
    for (label, lambda) in &sweep {
        let schedule = schedule_of(spec, *lambda, horizon).map_err(|e| e.to_string())?;
        let mut os_out = None;
        let mut admitted_out = None;
        for s in series(spec) {
            let out = run_point(spec, &data, &s, schedule.clone(), sla);
            eprintln!(
                "[serve] mult={label} {}: {}/{} completed, goodput {:.1} qps, p99 {}",
                s.name,
                out.count(emca_harness::RequestOutcome::Completed),
                out.offered,
                out.goodput_qps(),
                super::serve::cell(out.latency_percentile_ms(0.99)),
            );
            table.row(row(&s, label, &out));
            match s.name {
                "os" => os_out = Some(out),
                "admitted" => admitted_out = Some(out),
                _ => {}
            }
        }
        // The gate judges the hottest sweep point (or the pinned one).
        let offered = schedule.offered_qps();
        let is_gate_point = match spec.arrival {
            Some(_) => true,
            None => (label.as_str(), lambda) == sweep.last().map(|(l, m)| (l.as_str(), m)).unwrap(),
        };
        if is_gate_point {
            gate_pair = Some((offered, os_out.unwrap(), admitted_out.unwrap()));
        }
    }
    crate::emit(spec, SCHEMAS, &table, file)?;

    if spec.check {
        let (offered, os_out, admitted_out) = gate_pair.expect("sweep is never empty");
        if offered < 1.5 * p.capacity_qps {
            return Err(format!(
                "check=1 needs a past-saturation point: offered {offered:.1} req/s is below \
                 1.5×C ({:.1} req/s)",
                1.5 * p.capacity_qps
            )
            .into());
        }
        if let Some(why) = headline_violation(&os_out, &admitted_out) {
            return Err(format!(
                "headline claim failed at {offered:.1} req/s offered ({:.2}×C): {why}",
                offered / p.capacity_qps
            )
            .into());
        }
        eprintln!(
            "[serve] headline claim holds at {offered:.1} req/s offered ({:.2}×C)",
            offered / p.capacity_qps
        );
    }
    Ok(())
}
