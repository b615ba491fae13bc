//! Shared plumbing of the `serve_*` scenarios: the capacity probe, SLA
//! derivation, the three comparison series, and row emission.
//!
//! Both scenarios compare the same three front-door configurations on
//! one arrival schedule:
//!
//! - `os` — static OS baseline, no admission control: every arrival
//!   dispatches immediately, all cores always on;
//! - `adaptive` — the elastic mechanism, still no admission control:
//!   cores follow demand but nothing protects the engine past
//!   saturation;
//! - `admitted` — the elastic mechanism behind a concurrency-limit
//!   front door with a deadline-aware queue (the full serving layer).
//!
//! Offered load is expressed as multiples of the *measured* capacity
//! `C`: a quick closed-loop probe on the OS baseline (the same engine
//! and scale the serve runs use) measures C and the unloaded mean
//! response, from which the λ sweep and the default SLA derive. The
//! probe runs on the selected backend, so sim and threads runs are each
//! calibrated against their own saturation point.

use emca_harness::{
    run as run_config, run_serve, AdmissionSpec, Alloc, ArrivalSchedule, ExperimentSpec, RunConfig,
    ServeConfig, ServeOutput,
};
use emca_metrics::{stats, SimDuration};
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Serve scenarios default to a small scale so a λ sweep stays quick.
pub const SERVE_DEFAULT_SF: f64 = 0.05;

/// Offered-load window (seconds) when the spec pins no `duration`.
pub const DEFAULT_DURATION_S: f64 = 2.0;

/// The SLA when the spec pins no `sla_ms`: this multiple of the probe's
/// unloaded mean response (generous at light load, binding past
/// saturation).
pub const DEFAULT_SLA_X: f64 = 8.0;

/// The declared CSV header line of both serve CSVs.
pub const ROW_HEADER: &str = "series,policy,admission,offered_mult,offered_qps,arrivals,completed,\
shed_gate,shed_timeout,unfinished,goodput_qps,p50_ms,p95_ms,p99_ms,cores_mean";

/// Spec keys the serve scenarios honour (no `users`/`iters`/`tenants`:
/// the schedule replaces the closed-loop client model).
pub const SERVE_KEYS: &[&str] = &[
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
];

/// What the calibration probe measured.
pub struct Probe {
    /// Closed-loop saturation throughput C (req/s).
    pub capacity_qps: f64,
    /// Unloaded mean response (ms).
    pub mean_ms: f64,
}

/// Probe bursts per calibration. One burst on real threads can read C
/// several times too high or too low (a preempted or an unusually lucky
/// run on a shared host); the median of five cannot be moved by one
/// such run. The simulator repeats itself exactly, so on sim the median
/// is every run.
const PROBE_RUNS: usize = 5;

/// Measures C with short closed-loop bursts (4 clients × 6 Q6 each)
/// through the OS baseline on the spec's backend and scale: the burst
/// with the median throughput, and that same burst's mean response.
pub fn probe(spec: &ExperimentSpec, data: &TpchData) -> Probe {
    let mut cfg = spec.apply(
        RunConfig::new(
            Alloc::OsAll,
            4,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 6,
            },
        )
        .with_scale(data.scale),
    );
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    let mut probes: Vec<Probe> = (0..PROBE_RUNS)
        .map(|_| {
            let out = run_config(cfg.clone(), data);
            Probe {
                capacity_qps: out.throughput_qps().max(1.0),
                mean_ms: out.mean_response().as_millis_f64().max(0.01),
            }
        })
        .collect();
    probes.sort_by(|a, b| a.capacity_qps.total_cmp(&b.capacity_qps));
    probes.swap_remove(PROBE_RUNS / 2)
}

/// One comparison series of the serve scenarios.
pub struct Series {
    /// Row label.
    pub name: &'static str,
    /// Core-allocation policy.
    pub alloc: Alloc,
    /// Front-door policy.
    pub admission: AdmissionSpec,
}

/// The three-way comparison every serve scenario runs. `--policy`
/// retargets the mechanism slot; `--admission` retargets the front door
/// of the `admitted` series (default: a machine-width concurrency limit
/// with a 64-deep queue).
pub fn series(spec: &ExperimentSpec) -> Vec<Series> {
    let admission = spec.admission.unwrap_or(AdmissionSpec::Limit {
        max_inflight: 16,
        queue: Some(64),
    });
    vec![
        Series {
            name: "os",
            alloc: Alloc::OsAll,
            admission: AdmissionSpec::None,
        },
        Series {
            name: "adaptive",
            alloc: spec.mech_alloc(),
            admission: AdmissionSpec::None,
        },
        Series {
            name: "admitted",
            alloc: spec.mech_alloc(),
            admission,
        },
    ]
}

/// Stable row label of an allocation policy.
pub fn alloc_name(a: Alloc) -> &'static str {
    match a {
        Alloc::OsAll => "os",
        Alloc::Dense => "dense",
        Alloc::Sparse => "sparse",
        Alloc::Adaptive => "adaptive",
        Alloc::HillClimb => "hillclimb",
    }
}

/// The SLA the run is judged against: the spec's `sla_ms`, else
/// [`DEFAULT_SLA_X`] × the probe's unloaded mean.
pub fn sla_of(spec: &ExperimentSpec, p: &Probe) -> SimDuration {
    SimDuration::from_secs_f64(spec.sla_ms.unwrap_or(DEFAULT_SLA_X * p.mean_ms) / 1e3)
}

/// The offered-load window: the spec's `duration`, else
/// [`DEFAULT_DURATION_S`].
pub fn horizon_of(spec: &ExperimentSpec) -> SimDuration {
    SimDuration::from_secs_f64(spec.duration.unwrap_or(DEFAULT_DURATION_S))
}

/// Materialises the run's schedule: the spec's `arrival` when pinned
/// (a trace carries its own window), else Poisson at `lambda`.
pub fn schedule_of(
    spec: &ExperimentSpec,
    lambda: f64,
    horizon: SimDuration,
) -> Result<ArrivalSchedule, String> {
    match &spec.arrival {
        Some(a) => ArrivalSchedule::from_spec(a, horizon, spec.seed),
        None => Ok(ArrivalSchedule::poisson(lambda, horizon, spec.seed)),
    }
}

/// Runs one serve point for one series.
pub fn run_point(
    spec: &ExperimentSpec,
    data: &TpchData,
    s: &Series,
    schedule: ArrivalSchedule,
    sla: SimDuration,
) -> ServeOutput {
    let mut base = spec.apply(
        RunConfig::new(
            s.alloc,
            0,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 0,
            },
        )
        .with_scale(data.scale),
    );
    if let Some(f) = spec.flavor {
        base = base.with_flavor(f);
    }
    let cfg = ServeConfig {
        base,
        schedule,
        admission: s.admission,
        sla,
        // Grace for the in-flight tail: generous against the SLA but
        // bounded, so an engine drowning in backlog still reports its
        // unfinished requests instead of stretching the window.
        drain: sla
            .mul_f64(2.0)
            .max(SimDuration::from_millis(250))
            .min(SimDuration::from_secs(2)),
        // The plain serve scenarios predate the fault plane and keep
        // retry/deadline off so their committed CSVs stay byte-stable;
        // chaos_serve exercises both.
        retry: None,
        request_deadline: None,
    };
    run_serve(&cfg, data)
}

/// Formats a latency/goodput cell; infinities render as `inf`.
pub fn cell(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "inf".to_string()
    }
}

/// One CSV row for a finished point.
pub fn row(s: &Series, mult_label: &str, out: &ServeOutput) -> Vec<String> {
    use emca_harness::RequestOutcome as O;
    let lat = out.latencies_ms();
    let (p50, p95, p99) = match stats::latency_summary(&lat) {
        Some(l) => (l.p50, l.p95, l.p99),
        None => (f64::NAN, f64::NAN, f64::NAN),
    };
    let cores_mean = out.cores_series.mean().unwrap_or(0.0);
    vec![
        s.name.to_string(),
        alloc_name(s.alloc).to_string(),
        s.admission.to_string(),
        mult_label.to_string(),
        cell(out.offered as f64 / out.horizon.as_secs_f64().max(1e-9)),
        out.offered.to_string(),
        out.count(O::Completed).to_string(),
        out.count(O::ShedGate).to_string(),
        out.count(O::ShedTimeout).to_string(),
        out.count(O::Unfinished).to_string(),
        cell(out.goodput_qps()),
        cell(p50),
        cell(p95),
        cell(p99),
        format!("{cores_mean:.2}"),
    ]
}

/// The headline claim, judged on one past-saturation point: admission
/// plus the elastic mechanism must beat the unprotected static baseline
/// on goodput *and* keep p99 bounded. Returns a description of the
/// failure, `None` when the claim holds.
pub fn headline_violation(os: &ServeOutput, admitted: &ServeOutput) -> Option<String> {
    let g_os = os.goodput_qps();
    let g_ad = admitted.goodput_qps();
    let p99_os = os.latency_percentile_ms(0.99);
    let p99_ad = admitted.latency_percentile_ms(0.99);
    if g_ad <= g_os {
        return Some(format!(
            "goodput: admitted {g_ad:.2} qps must strictly beat the OS baseline {g_os:.2} qps"
        ));
    }
    if !p99_ad.is_finite() {
        return Some("p99: admission control must keep p99 finite".to_string());
    }
    if p99_ad >= p99_os {
        return Some(format!(
            "p99: admitted {p99_ad:.1} ms must stay below the no-admission baseline \
             ({})",
            cell(p99_os)
        ));
    }
    None
}
