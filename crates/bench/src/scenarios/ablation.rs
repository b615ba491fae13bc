//! Ablation of the calibration choices of docs/ARCHITECTURE.md, "The
//! control loop":
//!
//! 1. load signal: instantaneous demand vs windowed average vs HT/IMC;
//! 2. the Eq. 1 memory-saturation guard: on vs off;
//! 3. data placement: warm server (loader-concentrated) vs cold start
//!    (first-touch by queries).
//!
//! Each row reports throughput, interconnect traffic and the mean
//! allocation, all under the mechanism policy with 32 clients on Q6.

use super::{figure_scale, ScenarioResult};
use crate::emit;
use emca_harness::{run as run_config, Alloc, ExperimentSpec, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "ablation.csv",
    "variant,qps,ht_GB,faults,cores_mean,transitions",
)];

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let scale = figure_scale(spec);
    let users = spec.users_or(32);
    let iters = spec.iters_or(4);
    let data = TpchData::generate(scale);
    eprintln!("ablation: sf={} users={users} iters={iters}", scale.sf);
    let workload = Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: iters,
    };
    // Backend is honored, but the spec's guard/interval/warmup overrides
    // are NOT applied here: each row pins its own variant of exactly
    // those knobs, which is the point of the ablation.
    let base = || {
        RunConfig::new(spec.mech_alloc(), users, workload.clone())
            .with_scale(scale)
            .with_backend(spec.backend)
    };

    let (file, header) = SCHEMAS[0];
    let mut t = Table::with_header("Ablation — adaptive mode design choices", header);
    let mut row = |name: &str, cfg: RunConfig| {
        let out = run_config(cfg, &data);
        t.row(vec![
            name.to_string(),
            fnum(out.throughput_qps(), 2),
            fnum(out.ht_bytes() as f64 / 1e9, 2),
            out.minor_faults().to_string(),
            fnum(out.cores_series.mean().unwrap_or(16.0), 1),
            out.transitions.len().to_string(),
        ]);
    };

    row("default (windowed demand, guard, warm)", base());
    row(
        "instantaneous demand signal",
        base().with_metric(elastic_core::MetricKind::CpuLoadInstant),
    );
    row(
        "busy-time load signal",
        base().with_metric(elastic_core::MetricKind::CpuLoadWindowed),
    );
    row(
        "HT/IMC transition strategy",
        base().with_metric(elastic_core::MetricKind::HtImcRatio),
    );
    row(
        "cold start (first-touch by queries)",
        base().without_warmup(),
    );
    row("saturation guard off", base().with_guard(None));
    row(
        "interleaved base placement",
        base().with_warmup(emca_harness::Warmup::Interleave),
    );
    {
        // OS baseline for reference.
        let cfg = RunConfig::new(Alloc::OsAll, users, workload.clone())
            .with_scale(scale)
            .with_backend(spec.backend);
        row("OS baseline (all 16 cores)", cfg);
    }
    emit(spec, SCHEMAS, &t, file)?;
    Ok(())
}
