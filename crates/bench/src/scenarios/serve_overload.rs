//! `serve_overload` — one past-saturation serving point, in detail.
//!
//! Drives the three front-door configurations at a single offered load
//! (default 1.5× the measured capacity C, or the spec's pinned
//! `arrival=`) and reports the full outcome split — completed, shed at
//! the gate, shed on queue timeout, unfinished — next to the latency
//! percentiles and goodput. The quick serving smoke test: one look
//! shows whether shedding is doing its job (bounded p99, sheds counted)
//! while the unprotected baselines drown.
//!
//! With `check=1`, asserts the admitted series kept p99 finite.

use super::serve::{
    cell, horizon_of, probe, row, run_point, schedule_of, series, sla_of, ROW_HEADER,
    SERVE_DEFAULT_SF,
};
use super::ScenarioResult;
use emca_harness::{ExperimentSpec, RequestOutcome};
use emca_metrics::table::Table;
use volcano_db::tpch::TpchData;

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[("serve_overload.csv", ROW_HEADER)];

/// Default offered load, as a multiple of the probed capacity.
pub const DEFAULT_MULT: f64 = 1.5;

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let data = TpchData::generate(spec.scale(SERVE_DEFAULT_SF));
    let p = probe(spec, &data);
    let sla = sla_of(spec, &p);
    let horizon = horizon_of(spec);
    let schedule =
        schedule_of(spec, DEFAULT_MULT * p.capacity_qps, horizon).map_err(|e| e.to_string())?;
    let mult_label = match spec.arrival {
        Some(_) => "pinned".to_string(),
        None => format!("{DEFAULT_MULT}"),
    };
    eprintln!(
        "[serve] C={:.1} req/s, offering {:.1} req/s over {:.2} s, sla {:.1} ms",
        p.capacity_qps,
        schedule.offered_qps(),
        horizon.as_secs_f64(),
        sla.as_millis_f64()
    );

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header("serve_overload — one past-saturation point", header);
    let mut admitted_p99 = f64::NAN;
    for s in series(spec) {
        let out = run_point(spec, &data, &s, schedule.clone(), sla);
        eprintln!(
            "[serve] {}: {} completed, {} shed (gate {}, timeout {}), {} unfinished, \
             goodput {:.1} qps, p99 {}, queue peak {:.0}",
            s.name,
            out.count(RequestOutcome::Completed),
            out.count(RequestOutcome::ShedGate) + out.count(RequestOutcome::ShedTimeout),
            out.count(RequestOutcome::ShedGate),
            out.count(RequestOutcome::ShedTimeout),
            out.count(RequestOutcome::Unfinished),
            out.goodput_qps(),
            cell(out.latency_percentile_ms(0.99)),
            out.queue_series.max().unwrap_or(0.0),
        );
        if s.name == "admitted" {
            admitted_p99 = out.latency_percentile_ms(0.99);
        }
        table.row(row(&s, &mult_label, &out));
    }
    crate::emit(spec, SCHEMAS, &table, file)?;

    if spec.check && !admitted_p99.is_finite() {
        return Err(format!(
            "admission control must keep p99 bounded past saturation, got {}",
            cell(admitted_p99)
        )
        .into());
    }
    Ok(())
}
