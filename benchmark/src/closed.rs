//! `olap_closed` and `small_closed`: W closed-loop clients over the 88
//! TPC-H specs through `emca_harness::run` on the threads backend, at a
//! kernel-bound and a dispatch-bound scale.

use crate::common::{latency_summary, prepare, write_trace, Ctx, Outcome, Prepared};
use crate::direct::{closed_loop, Control};
use crate::schema::Report;
use crate::stats::{window_latency, window_median_qps};
use crate::{inputs, micro, note, sys};
use elastic_numa::emca_harness::{run, Alloc, Backend, RunConfig, RunOutput};
use elastic_numa::emca_metrics::SimTime;
use elastic_numa::volcano_db::client::materialize_phases;
use elastic_numa::volcano_db::tpch::QuerySpec;

/// What differs between the two closed-loop workloads.
pub struct Sizing {
    pub sf: f64,
    /// Iterations per client of the warm-up run that ends set-up.
    warm_iters: u32,
    /// Iterations per client per second of `--seconds`: fixed work, the
    /// same on every commit, sized so that the measured run lasts about
    /// `--seconds` on the 2-core box the benchmark was written on.
    iters_per_s: f64,
    /// The `par.scaling_*` metric this workload owns.
    scaling: &'static str,
}

pub const OLAP: Sizing = Sizing {
    sf: 0.25,
    warm_iters: 120,
    iters_per_s: 70.0,
    scaling: "par.scaling_olap",
};

pub const SMALL: Sizing = Sizing {
    sf: 0.01,
    warm_iters: 2500,
    iters_per_s: 1800.0,
    scaling: "par.scaling_small",
};

fn config(ctx: &Ctx, p: &Prepared, iterations: u32) -> RunConfig {
    RunConfig::new(
        Alloc::Adaptive,
        ctx.width,
        inputs::mixed(ctx.seed, iterations),
    )
    .with_scale(p.data.scale)
    .with_backend(Backend::Threads)
}

/// Runs `iterations` per client through `run()`, checks every result
/// against the oracle, and returns the output with the process CPU
/// seconds the call took and the number of wrong results.
fn measured(ctx: &Ctx, p: &Prepared, iterations: u32) -> (RunOutput, f64, usize) {
    let cfg = config(ctx, p, iterations);
    let workload = cfg.workload.clone();
    let cpu0 = sys::cpu_seconds();
    let out = run(cfg, &p.data);
    let cpu_s = sys::cpu_seconds() - cpu0;
    let wrong = p.golden.mismatches(&out.results, &workload, ctx.width);
    (out, cpu_s, wrong)
}

/// Iterations per client of a run meant to last `seconds`.
fn iterations_for(sizing: &Sizing, seconds: f64) -> u32 {
    ((sizing.iters_per_s * seconds).round() as u32).max(4)
}

fn finish_times(out: &RunOutput) -> Vec<f64> {
    out.results
        .iter()
        .map(|r| r.finished.since(SimTime::ZERO).as_secs_f64())
        .collect()
}

pub fn run_workload(ctx: &Ctx, sizing: &Sizing) -> Outcome {
    note!(
        "closed loop: {} clients, sf {}, Workload::Mixed over 88 specs, Alloc::Adaptive, threads backend",
        ctx.width,
        sizing.sf
    );
    let (p, warm_wrongs) = prepare(
        inputs::scale(sizing.sf),
        ctx.width,
        &inputs::tpch_specs(),
        ctx.setup_repeats(),
        |p| measured(ctx, p, sizing.warm_iters).2,
    );
    let warm_wrong: usize = warm_wrongs.iter().sum();
    if ctx.trace {
        return traced(ctx, sizing, &p, warm_wrong);
    }

    let iterations = iterations_for(sizing, ctx.seconds);
    let (out, cpu_s, wrong) = measured(ctx, &p, iterations);
    let attempted = u64::from(iterations) * ctx.width as u64;
    let done = out.results.len() as u64;
    note!(
        "measured {done} of {attempted} queries in {:.2} s ({iterations} per client, fixed work)",
        out.wall.as_secs_f64()
    );

    let finish_s = finish_times(&out);
    let latencies: Vec<f64> = out
        .results
        .iter()
        .map(|r| r.response().as_millis_f64())
        .collect();
    latency_summary(ctx.workload, &latencies);
    let window_s = (ctx.seconds / 10.0).clamp(0.25, 1.0);
    let (p50, p95) = window_latency(&finish_s, &latencies, window_s);
    let mut report = Report::new(false);
    report.set("setup_s", p.setup_s);
    report.set("qps", window_median_qps(&finish_s, window_s));
    report.set("latency_p50_ms", p50);
    report.set("latency_p95_ms", p95);
    report.set("cpu_s_per_kquery", cpu_s / done.max(1) as f64 * 1000.0);
    report.set("cores_mean", out.cores_series.mean().unwrap_or(f64::NAN));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let failed = attempted - done.min(attempted) + out.errors.len() as u64;
    Outcome {
        report,
        attempted,
        failed,
        correct: wrong == 0 && warm_wrong == 0,
    }
}

/// The per-layer run: `run()` and the benchmark's own driver over the
/// same streams, with and without spans, then one client alone on a
/// full and on a one-worker pool, then the direct layer measurements.
fn traced(ctx: &Ctx, sizing: &Sizing, p: &Prepared, warm_wrong: usize) -> Outcome {
    let mut report = Report::new(true);
    let leg = ctx.seconds / 4.0;
    let iterations = iterations_for(sizing, leg);
    let attempted = u64::from(iterations) * ctx.width as u64;

    let (harness, harness_cpu, mut wrong) = measured(ctx, p, iterations);
    let workload = config(ctx, p, iterations).workload;
    let streams: Vec<Vec<QuerySpec>> = (0..ctx.width)
        .map(|c| materialize_phases(&workload, c).concat())
        .collect();

    let plain = closed_loop(&p.base, ctx.width, &streams, Control::Elastic, false);
    let spanned = closed_loop(&p.base, ctx.width, &streams, Control::Elastic, true);

    // One client alone, so dispatch cannot hide behind other queries:
    // all workers active against one, same stream, same partitioning.
    let alone_n = (iterations_for(sizing, ctx.seconds / 10.0) as usize).min(streams[0].len());
    let alone = [streams[0][..alone_n].to_vec()];
    let wide = closed_loop(
        &p.base,
        ctx.width,
        &alone,
        Control::Pinned(ctx.width),
        false,
    );
    let narrow = closed_loop(&p.base, ctx.width, &alone, Control::Pinned(1), false);

    let own_attempted = 2 * attempted + 2 * alone_n as u64;
    let mut own_done = 0u64;
    for leg in [&plain, &spanned, &wide, &narrow] {
        wrong += leg.wrong(&p.golden);
        own_done += leg.results.len() as u64;
    }
    let failed = (attempted - (harness.results.len() as u64).min(attempted))
        + (own_attempted - own_done.min(own_attempted));

    let (harness_qps, plain_qps, spanned_qps) = (
        harness.results.len() as f64 / harness.wall.as_secs_f64(),
        plain.qps(),
        spanned.qps(),
    );
    note!(
        "qps: run() {harness_qps:.1}, own driver {plain_qps:.1}, own driver with spans {spanned_qps:.1}"
    );
    plain.counters.report(&mut report, plain.results.len());
    report.set("tpch.generate_s", p.generate_s);
    report.set("eval.busy_ms_query", plain.busy_ms_query());
    report.set(
        "eval.busy_inflation",
        wide.counters.busy_ns as f64 / narrow.counters.busy_ns.max(1) as f64,
    );
    report.set(
        sizing.scaling,
        narrow.counters.wall_s / wide.counters.wall_s,
    );
    report.set("pool.transitions", harness.transitions.len() as f64);
    report.set(
        "runner_threads.overhead_pct",
        (plain_qps - harness_qps) / plain_qps * 100.0,
    );
    let harness_busy_s: f64 = harness.results.iter().map(|r| r.busy.as_secs_f64()).sum();
    report.set(
        "runner_threads.nonworker_cpu_share",
        ((harness_cpu - harness_busy_s) / harness_cpu).max(0.0),
    );
    report.set(
        "trace.overhead_pct",
        (plain_qps - spanned_qps) / plain_qps * 100.0,
    );
    let nested = write_trace(
        ctx.workload,
        spanned.spans.spans(),
        &spanned.counters.trace_fields(),
    );

    micro::run(&mut report, ctx.width);
    // Layers this workload never enters.
    report.zero_unset(&[
        "par.scaling_",
        "pool.",
        "serve.",
        "engine.",
        "os_sim.",
        "mechanism.",
        "tenant.",
    ]);
    Outcome {
        report,
        attempted: attempted + own_attempted,
        failed,
        correct: wrong == 0 && warm_wrong == 0 && nested,
    }
}
