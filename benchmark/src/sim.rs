//! `sim_closed` and `sim_churn`: the deterministic simulator twin.
//! Each runs twice in one process and must reproduce itself exactly.

use crate::common::{latency_summary, Ctx, Outcome};
use crate::oracle::{digest, Fnv};
use crate::schema::Report;
use crate::stats::median;
use crate::{inputs, micro, note, sys};
use elastic_numa::elastic_core::ArbiterMode;
use elastic_numa::emca_harness::churn::run_tenants_churn;
use elastic_numa::emca_harness::{run, Alloc, MultiTenantConfig, RunConfig};
use elastic_numa::emca_metrics::SimDuration;
use elastic_numa::os_sim::KernelConfig;
use elastic_numa::volcano_db::exec::QueryResult;
use elastic_numa::volcano_db::tpch::{TpchData, TpchScale};
use std::time::Instant;

/// Simulated clients of `sim_closed`.
const CLIENTS: usize = 64;
const CLOSED_SF: f64 = 0.25;
/// Queries per client of one `sim_closed` run.
const CLOSED_ITERS: u32 = 6;
/// One `sim_closed` run is pooled into the simulated metrics per this
/// many seconds of `--seconds` (a run takes about 1.6 s of host time).
const CLOSED_POOL_EVERY_S: f64 = 2.5;
/// Every churn tenant loads its own copy, so the scale is small.
const CHURN_SF: f64 = 0.05;
const CHURN_TENANTS: u32 = 256;
/// Queries per client of the heaviest churn tenant; the Zipf tail gets
/// one. At 128 the 16 simulated cores stay allocated (mean 15.5), so the
/// arbiter is contended throughout and the median response sits inside
/// the distribution's dense mode; at 64 it sat on a flat stretch and
/// moved by a fifth from one seed's plans to the next.
const CHURN_MAX_ITERS: u32 = 128;
/// As [`CLOSED_POOL_EVERY_S`]; a churn run takes about 1.3 s, so the
/// pooled runs are about all that fit.
const CHURN_POOL_EVERY_S: f64 = 1.25;
/// Control interval of the churn tenants' mechanisms, as `mt_churn` pins
/// it.
const CHURN_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// What one simulated run produced, reduced to what both workloads
/// report.
struct SimRun {
    /// Host seconds and process CPU seconds the run call took.
    wall_s: f64,
    cpu_s: f64,
    /// Simulated duration.
    sim_wall: SimDuration,
    completed: u64,
    expected: u64,
    /// Simulated response times (ms).
    latencies_ms: Vec<f64>,
    /// Mean simulated cores allocated over the run.
    cores_mean: f64,
    /// Everything that must repeat exactly: simulated wall, every
    /// result with its completion time, the transition or arbitration
    /// counts.
    digest: u64,
    /// Per-layer numbers, by metric name.
    layers: Vec<(&'static str, f64)>,
}

fn fold_results<'a>(h: &mut Fnv, results: impl Iterator<Item = &'a QueryResult>) {
    for r in results {
        h.bytes(r.label.as_bytes());
        h.bytes(
            &r.finished
                .since(elastic_numa::emca_metrics::SimTime::ZERO)
                .as_nanos()
                .to_le_bytes(),
        );
        h.bytes(&digest(&r.result).to_le_bytes());
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (t, cpu0) = (Instant::now(), sys::cpu_seconds());
    let out = f();
    (out, t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0)
}

fn sim_ticks(sim_wall: SimDuration) -> f64 {
    sim_wall.as_nanos() as f64 / KernelConfig::default().tick.as_nanos() as f64
}

fn closed_run(seed: u64, data: &TpchData) -> SimRun {
    let cfg = RunConfig::new(Alloc::Adaptive, CLIENTS, inputs::mixed(seed, CLOSED_ITERS))
        .with_scale(data.scale);
    let (out, wall_s, cpu_s) = timed(|| run(cfg, data));
    let mut h = Fnv::default();
    h.bytes(&out.wall.as_nanos().to_le_bytes());
    h.bytes(&(out.transitions.len() as u64).to_le_bytes());
    fold_results(&mut h, out.results.iter());
    let completed = out.results.len() as u64;
    SimRun {
        wall_s,
        cpu_s,
        sim_wall: out.wall,
        completed,
        expected: CLIENTS as u64 * u64::from(CLOSED_ITERS),
        latencies_ms: out
            .results
            .iter()
            .map(|r| r.response().as_millis_f64())
            .collect(),
        cores_mean: out.cores_series.mean().unwrap_or(f64::NAN),
        digest: h.0,
        layers: vec![
            (
                "engine.tasks_per_wall_s",
                out.engine.tasks_executed as f64 / wall_s,
            ),
            (
                "engine.tasks_per_query",
                out.engine.tasks_executed as f64 / completed.max(1) as f64,
            ),
            ("mechanism.transitions", out.transitions.len() as f64),
        ],
    }
}

fn churn_run(seed: u64, data: &TpchData) -> SimRun {
    let plan = inputs::churn_plan(seed, CHURN_TENANTS, CHURN_MAX_ITERS);
    let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
        .with_scale(data.scale)
        .with_mech_interval(CHURN_INTERVAL)
        .with_sample_every(SimDuration::from_millis(1))
        .with_resident_cap(plan.resident);
    let (out, wall_s, cpu_s) = timed(|| run_tenants_churn(cfg, data));
    let mut h = Fnv::default();
    h.bytes(&out.wall.as_nanos().to_le_bytes());
    for n in [out.arbiter_ticks, out.arbiter_denials, out.arbiter_yields] {
        h.bytes(&n.to_le_bytes());
    }
    for t in &out.tenants {
        fold_results(&mut h, t.results.iter());
    }
    // Core-seconds the tenants held, over the run's simulated length.
    let core_s: f64 = out
        .tenants
        .iter()
        .map(|t| t.cores_mean() * t.wall().as_secs_f64())
        .sum();
    SimRun {
        wall_s,
        cpu_s,
        sim_wall: out.wall,
        completed: out.tenants.iter().map(|t| t.results.len() as u64).sum(),
        expected: plan.expected_completions(),
        latencies_ms: out
            .tenants
            .iter()
            .flat_map(|t| t.results.iter().map(|r| r.response().as_millis_f64()))
            .collect(),
        cores_mean: core_s / out.wall.as_secs_f64(),
        digest: h.0,
        layers: vec![
            ("tenant.ticks", out.arbiter_ticks as f64),
            (
                "tenant.tick_us_mean",
                out.arbiter_ns as f64 / 1e3 / out.arbiter_ticks.max(1) as f64,
            ),
            ("tenant.denials", out.arbiter_denials as f64),
            ("tenant.yields", out.arbiter_yields as f64),
        ],
    }
}

/// Shared frame of both simulator workloads. `go(data, k)` is one
/// whole simulated run of fixed size on the `k`-th input drawn from the
/// seed. Set-up ends with run 0 as the warm-up; the measured window
/// repeats whole runs, starting again at run 0, until the time is up.
/// Every run 0 of the process must reproduce the first one exactly.
///
/// Simulated latency and cores are pooled over the first `pooled` runs,
/// a number fixed by `--seconds` alone and always run, so for one seed
/// they repeat exactly however fast the host is; host-time rates use
/// every run that fitted.
fn run_sim(
    ctx: &Ctx,
    scale: TpchScale,
    pooled: usize,
    go: impl Fn(&TpchData, u64) -> SimRun,
) -> Outcome {
    let (mut setups, mut generates, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut data = None;
    let mut call_s = 0.0;
    for _ in 0..ctx.setup_repeats() {
        drop(data.take());
        let t = Instant::now();
        let d = TpchData::generate(scale);
        generates.push(t.elapsed().as_secs_f64());
        let warm = go(&d, 0);
        setups.push(t.elapsed().as_secs_f64());
        digests.push((warm.digest, warm.sim_wall, warm.completed));
        call_s = warm.wall_s;
        data = Some(d);
    }
    let data = data.expect("set-up ran at least once");

    // Whole runs until the window is used up; a run is started only
    // while at least half of it still fits.
    let mut runs: Vec<SimRun> = Vec::new();
    let start = Instant::now();
    while runs.len() < pooled || start.elapsed().as_secs_f64() + call_s / 2.0 < ctx.seconds {
        let r = go(&data, runs.len() as u64);
        call_s = r.wall_s;
        runs.push(r);
    }
    digests.push((runs[0].digest, runs[0].sim_wall, runs[0].completed));
    let same = digests.iter().all(|d| *d == digests[0]);
    note!(
        "sim.digest {:016x}, reproduced by {} of {} repeats of the first run; {} runs measured in {:.2} s",
        digests[0].0,
        digests.iter().filter(|d| **d == digests[0]).count() - 1,
        digests.len() - 1,
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    let completed: u64 = runs.iter().map(|r| r.completed).sum();
    let expected: u64 = runs.iter().map(|r| r.expected).sum();
    let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let failed = expected - completed.min(expected);

    if ctx.trace {
        let mut report = Report::new(true);
        micro::run(&mut report, ctx.width);
        report.set("tpch.generate_s", median(&generates));
        for (i, (name, _)) in runs[0].layers.iter().enumerate() {
            let per_run: Vec<f64> = runs.iter().map(|r| r.layers[i].1).collect();
            report.set(name, median(&per_run));
        }
        // Simulated ticks at the directly measured cost of one tick,
        // against the host time the runs took.
        let ticks: f64 = runs.iter().map(|r| sim_ticks(r.sim_wall)).sum();
        let tick_ns = report.get("os_sim.run_tick_ns_64").unwrap_or(0.0);
        report.set("os_sim.tick_share", ticks * tick_ns / 1e9 / wall_s);
        // The threads-backend layers do no work in the simulator, and
        // each simulator workload leaves the other's layer alone.
        report.zero_unset(&[
            "eval.busy_",
            "eval.top_op_share",
            "par.",
            "pool.",
            "serve.",
            "runner_threads.",
            "trace.",
            "engine.",
            "mechanism.transitions",
            "tenant.",
        ]);
        return Outcome {
            report,
            attempted: expected,
            failed,
            correct: same,
        };
    }

    let rates: Vec<f64> = runs.iter().map(|r| r.completed as f64 / r.wall_s).collect();
    let simulated = &runs[..pooled];
    let latencies: Vec<f64> = simulated
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let cores: Vec<f64> = simulated.iter().map(|r| r.cores_mean).collect();
    let (p50, p95) = latency_summary(ctx.workload, &latencies);
    let mut report = Report::new(false);
    report.set("setup_s", median(&setups));
    report.set("qps", median(&rates));
    report.set("latency_p50_ms", p50);
    report.set("latency_p95_ms", p95);
    report.set(
        "cpu_s_per_kquery",
        runs.iter().map(|r| r.cpu_s).sum::<f64>() / completed.max(1) as f64 * 1000.0,
    );
    report.set("cores_mean", cores.iter().sum::<f64>() / cores.len() as f64);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    Outcome {
        report,
        attempted: expected,
        failed,
        correct: same,
    }
}

pub fn run_closed(ctx: &Ctx) -> Outcome {
    note!(
        "simulated closed loop: {CLIENTS} clients x {CLOSED_ITERS} queries per run, sf {CLOSED_SF}, Workload::Mixed over 88 specs, Alloc::Adaptive, 16 simulated cores"
    );
    let pooled = ((ctx.seconds / CLOSED_POOL_EVERY_S) as usize).max(1);
    run_sim(ctx, inputs::scale(CLOSED_SF), pooled, |d, k| {
        closed_run(ctx.seed.wrapping_add(k), d)
    })
}

pub fn run_churn(ctx: &Ctx) -> Outcome {
    note!(
        "simulated churn: {CHURN_TENANTS} tenants through 16 resident slots per run, sf {CHURN_SF}, fair-share arbiter, Q6 per tenant with Zipf demand up to 4 clients x {CHURN_MAX_ITERS} queries"
    );
    let pooled = ((ctx.seconds / CHURN_POOL_EVERY_S) as usize).max(1);
    run_sim(ctx, inputs::scale(CHURN_SF), pooled, |d, k| {
        churn_run(ctx.seed.wrapping_add(k), d)
    })
}
