//! `serve_open`: three consecutive fixed-rate open-loop steps through
//! `run_serve` on the threads backend, behind a concurrency limit.

use crate::common::{latency_summary, prepare, write_trace, Ctx, Outcome, Prepared};
use crate::direct::{closed_loop, open_loop, Control};
use crate::schema::Report;
use crate::stats::{median, percentile, window_latency};
use crate::{inputs, micro, note, sys};
use elastic_numa::emca_harness::{
    run_serve, AdmissionSpec, Alloc, Backend, RequestOutcome, RunConfig, ServeConfig, ServeOutput,
};
use elastic_numa::emca_metrics::SimDuration;
use elastic_numa::volcano_db::client::Workload;
use elastic_numa::volcano_db::exec::QueryResult;
use elastic_numa::volcano_db::tpch::QuerySpec;

/// Scale of the served database: the harness default.
const SF: f64 = 0.1;
/// The steps, lowest first: name and offered rate as a share of what
/// one worker sustains (measured in the warm-up, see [`one_worker_rate`]).
/// At `high` one worker would be 85 % loaded, over the controller's 70 %
/// growth threshold, and two are each far above its 10 % release
/// threshold: the pool holds two at under half load.
const STEPS: [(&str, f64); 3] = [("low", 0.2), ("mid", 0.5), ("high", 0.85)];
/// Queries of the saturating closed loop that measures the one-worker
/// rate.
const CALIBRATION_QUERIES: usize = 1000;
/// Index of the step the end-to-end numbers are measured at.
const HIGH: usize = 2;
/// The goodput bar: `qps` counts answers that took no longer.
const SLA_MS: f64 = 100.0;
/// How long the front door lets a request queue before it sheds it, and
/// how many it lets queue. Both are a second's worth: this box stalls
/// for up to two thirds of a second now and then, and a request shed
/// because the virtual machine stood still is not the program's failure.
/// Such a stall is still seen, as latency. The serving layer sheds at
/// half of what it is given as the SLA.
const QUEUE_DEADLINE_MS: f64 = 1000.0;
const QUEUE: u32 = 1024;
const DRAIN_S: f64 = 5.0;
/// Width of the windows whose median percentile is the latency. Half a
/// second holds some 200 requests; over the same run twenty windows of
/// that size gave a steadier median p95 than ten of twice the size.
const WINDOW_S: f64 = 0.5;

fn admission(width: usize) -> AdmissionSpec {
    AdmissionSpec::Limit {
        max_inflight: 2 * width as u32,
        queue: Some(QUEUE),
    }
}

/// Requests per second one active worker sustains on the serving mix:
/// `2W` closed-loop clients straight into a pool pinned to one worker.
///
/// The steps are set relative to this, not as absolute rates, because
/// this box's speed drifts by up to 2x within an hour, and at any
/// absolute rate that flips the pool between holding one worker and
/// two. A faster product gets a proportionally higher rate and must
/// hold its latency at it, so gains and losses still show in `qps` and
/// `latency_*`.
fn one_worker_rate(ctx: &Ctx, p: &Prepared) -> f64 {
    let clients = 2 * ctx.width;
    let stream = inputs::serve_stream(ctx.seed, CALIBRATION_QUERIES);
    let streams: Vec<Vec<QuerySpec>> = stream
        .chunks(CALIBRATION_QUERIES / clients)
        .map(<[QuerySpec]>::to_vec)
        .collect();
    let out = closed_loop(&p.base, ctx.width, &streams, Control::Pinned(1), false);
    out.results.len() as f64 / out.counters.wall_s
}

/// A serving workload in progress: its context, its data, and the
/// one-worker rate its steps are relative to.
struct Serving<'a> {
    ctx: &'a Ctx,
    p: &'a Prepared,
    one_worker_rate: f64,
}

impl Serving<'_> {
    fn rate(&self, step: usize) -> f64 {
        (STEPS[step].1 * self.one_worker_rate).round()
    }
}

fn config(sv: &Serving, step: usize, secs: f64) -> ServeConfig {
    let (ctx, p) = (sv.ctx, sv.p);
    // `clients` and `workload` are not honoured by the serving layer:
    // the schedule replaces them.
    let placeholder = Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: 1,
    };
    ServeConfig {
        base: RunConfig::new(Alloc::Adaptive, 1, placeholder)
            .with_scale(p.data.scale)
            .with_backend(Backend::Threads),
        schedule: inputs::serve_step(ctx.seed, step as u64, sv.rate(step), secs),
        admission: admission(ctx.width),
        sla: SimDuration::from_secs_f64(2.0 * QUEUE_DEADLINE_MS / 1e3),
        drain: SimDuration::from_secs_f64(DRAIN_S),
        retry: None,
        request_deadline: None,
    }
}

/// One step's output with what the accounting checks found.
struct Step {
    out: ServeOutput,
    lost: u64,
    /// Record count equals the schedule and every request reached a
    /// terminal outcome.
    delivered: bool,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        self.out.latencies_ms()
    }

    fn good(&self) -> usize {
        self.latencies().iter().filter(|&&l| l <= SLA_MS).count()
    }
}

fn run_step(sv: &Serving, step: usize, secs: f64) -> Step {
    let cfg = config(sv, step, secs);
    let out = run_serve(&cfg, &sv.p.data);
    let count = |o| out.count(o) as u64;
    let completed = count(RequestOutcome::Completed);
    let lost = count(RequestOutcome::ShedGate)
        + count(RequestOutcome::ShedTimeout)
        + count(RequestOutcome::Failed)
        + count(RequestOutcome::Unfinished);
    let delivered = out.records.len() == cfg.schedule.arrivals.len()
        && out.offered == out.records.len()
        && completed + lost == out.offered as u64;
    note!(
        "step {} at {} req/s for {secs:.2} s: offered {}, completed {completed}, shed/failed/unfinished {lost}, p50 {:.2} ms, p95 {:.2} ms, cores {:.2}",
        STEPS[step].0,
        sv.rate(step),
        out.offered,
        out.latency_percentile_ms(0.5),
        out.latency_percentile_ms(0.95),
        out.cores_series.mean().unwrap_or(0.0)
    );
    Step {
        out,
        lost,
        delivered,
    }
}

pub fn run_workload(ctx: &Ctx) -> Outcome {
    note!(
        "open loop: fixed rates of {:?} x the one-worker rate, sf {SF}, mix 70% Q6 / 10% Q14 / 10% Q12 / 10% Q3, limit {} in flight + queue {QUEUE} shed after {QUEUE_DEADLINE_MS} ms, goodput within {SLA_MS} ms, drain {DRAIN_S} s, no retry",
        STEPS.map(|s| s.1),
        2 * ctx.width
    );
    // From before the calibration to the last answer.
    let awake = sys::KeepAwake::start(sys::nproc());
    note!(
        "{} idle-class spinner processes keep the cores awake",
        awake.spinners()
    );
    // Set-up ends with the calibration and a second of the `mid` step
    // as the warm-up through the measured path.
    let (p, rates) = prepare(
        inputs::scale(SF),
        ctx.width,
        &inputs::serve_specs(),
        ctx.setup_repeats(),
        |p| {
            let one_worker_rate = one_worker_rate(ctx, p);
            let sv = Serving {
                ctx,
                p,
                one_worker_rate,
            };
            run_step(&sv, 1, 1.0);
            one_worker_rate
        },
    );
    // Every set-up repeat calibrated; the median steadies the steps.
    let sv = Serving {
        ctx,
        p: &p,
        one_worker_rate: median(&rates),
    };
    note!(
        "one worker sustains {:.0} req/s: steps at {:?} req/s",
        sv.one_worker_rate,
        [0, 1, 2].map(|k| sv.rate(k))
    );
    if ctx.trace {
        return traced(&sv);
    }

    // End-to-end numbers come from the top step alone, run for the whole
    // window: at the lower rates the pool flips between one and two
    // workers at moments that differ from run to run, and nothing
    // measured there repeats (see README). The ladder is in the traced
    // run.
    let cpu0 = sys::cpu_seconds();
    let high = run_step(&sv, HIGH, ctx.seconds);
    let cpu_s = sys::cpu_seconds() - cpu0;

    // Latency per window of scheduled arrivals, then the median window.
    latency_summary("serve_open whole step", &high.latencies());
    let (at_s, ms): (Vec<f64>, Vec<f64>) = high
        .out
        .records
        .iter()
        .filter_map(|r| r.latency_ms().map(|l| (r.arrival.as_secs_f64(), l)))
        // An unfinished request has no latency; it is in `failed`.
        .filter(|(_, l)| l.is_finite())
        .unzip();
    let (p50, p95) = window_latency(&at_s, &ms, WINDOW_S);
    let offered = high.out.offered as u64;
    let mut report = Report::new(false);
    report.set("setup_s", p.setup_s);
    report.set("qps", high.good() as f64 / ctx.seconds);
    report.set("latency_p50_ms", p50);
    report.set("latency_p95_ms", p95);
    report.set(
        "cpu_s_per_kquery",
        cpu_s / (offered - high.lost).max(1) as f64 * 1000.0,
    );
    report.set(
        "cores_mean",
        high.out.cores_series.mean().unwrap_or(f64::NAN),
    );
    report.set("peak_rss_mb", sys::peak_rss_mb());
    Outcome {
        report,
        attempted: offered,
        failed: high.lost,
        correct: high.delivered,
    }
}

/// The per-layer run: shorter steps through `run_serve` for the
/// front-door and pool numbers, the mid step again through the
/// benchmark's own dispatcher with spans, and the same mix straight
/// into the pool for what serving adds on top.
fn traced(sv: &Serving) -> Outcome {
    let (ctx, p) = (sv.ctx, sv.p);
    let mut report = Report::new(true);
    let secs = ctx.seconds / 5.0;
    let steps: Vec<Step> = (0..STEPS.len()).map(|k| run_step(sv, k, secs)).collect();
    let p_of = |s: &Step, q| percentile(&s.latencies(), q).unwrap_or(f64::NAN);

    for (k, (name, _)) in STEPS.iter().enumerate() {
        report.set(
            &format!("pool.cores_mean_{name}"),
            steps[k].out.cores_series.mean().unwrap_or(0.0),
        );
        report.set(
            &format!("serve.latency_p99_ms_{name}"),
            p_of(&steps[k], 0.99),
        );
    }
    report.set("serve.latency_p95_ms_low", p_of(&steps[0], 0.95));
    report.set(
        "pool.transitions",
        steps.iter().map(|s| s.out.transitions.len()).sum::<usize>() as f64,
    );
    // How long the shrunken pool of the high step took to hold two
    // workers, from its first scheduled arrival.
    let high = &steps[2].out;
    let first_arrival = high.records.first().map(|r| r.arrival);
    let grown = high
        .transitions
        .iter()
        .find(|t| t.nalloc >= 2)
        .map(|t| t.at);
    report.set(
        "pool.ramp_ms",
        match (first_arrival, grown) {
            (Some(a), Some(g)) if g >= a => g.since(a).as_millis_f64(),
            _ => 0.0,
        },
    );
    // At the low rate the in-flight cap is never reached, so every
    // request is dispatched in the poll it was first seen in: the gap
    // to its scheduled arrival is how late the front door itself runs.
    let lag_us: Vec<f64> = steps[0]
        .out
        .records
        .iter()
        .filter_map(|r| {
            r.dispatched
                .map(|d| d.since(r.arrival).as_nanos() as f64 / 1e3)
        })
        .collect();
    report.set(
        "serve.dispatch_lag_us_p50",
        percentile(&lag_us, 0.5).unwrap_or(0.0),
    );
    report.set(
        "serve.dispatch_lag_us_p95",
        percentile(&lag_us, 0.95).unwrap_or(0.0),
    );
    report.set(
        "serve.queue_peak",
        steps
            .iter()
            .filter_map(|s| s.out.queue_series.max())
            .fold(0.0, f64::max),
    );
    let offered: u64 = steps.iter().map(|s| s.out.offered as u64).sum();
    let lost: u64 = steps.iter().map(|s| s.lost).sum();
    report.set("serve.shed_share", lost as f64 / offered.max(1) as f64);
    report.set(
        "serve.max_rate_ok",
        steps
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                p_of(s, 0.95) <= SLA_MS && s.good() as f64 >= 0.99 * s.out.offered as f64
            })
            .map(|(k, _)| sv.rate(k))
            .fold(0.0, f64::max),
    );

    let mid = config(sv, 1, secs);
    let own = open_loop(
        &p.base,
        ctx.width,
        &mid.schedule,
        &mid.admission,
        mid.sla,
        mid.drain,
    );
    // Answered requests of the own dispatcher: latency from scheduled
    // arrival, and the result to hold against the oracle.
    let own_done: Vec<(f64, &QuerySpec, &QueryResult)> = own
        .records
        .iter()
        .filter_map(|r| {
            let (finished, result) = (r.finished_s?, r.result.as_ref()?);
            Some(((finished - r.arrival_s) * 1e3, &r.spec, result))
        })
        .collect();
    let own_wrong = own_done
        .iter()
        .filter(|(_, spec, q)| !p.golden.matches(spec, &q.result))
        .count();
    let own_lost = (own.records.len() - own_done.len()) as u64;
    let own_ms: Vec<f64> = own_done.iter().map(|d| d.0).collect();
    let own_busy_ms: f64 = own_done.iter().map(|d| d.2.busy.as_millis_f64()).sum();
    let own_p50 = percentile(&own_ms, 0.5).unwrap_or(f64::NAN);
    let mid_p50 = p_of(&steps[1], 0.5);
    report.set("trace.overhead_pct", (own_p50 - mid_p50) / mid_p50 * 100.0);

    // One client sending the same mix back to back into a full-width
    // pool: query latency with no front door in the way.
    let stream = [inputs::serve_stream(ctx.seed, (sv.rate(1) * secs) as usize)];
    let bare = closed_loop(
        &p.base,
        ctx.width,
        &stream,
        Control::Pinned(ctx.width),
        false,
    );
    let bare_ms: Vec<f64> = bare
        .results
        .iter()
        .map(|(_, r)| r.response().as_millis_f64())
        .collect();
    let bare_p50 = percentile(&bare_ms, 0.5).unwrap_or(f64::NAN);
    report.set("serve.overhead_ms_p50", mid_p50 - bare_p50);
    note!(
        "p50 at the mid step: run_serve {mid_p50:.3} ms, own dispatcher with spans {own_p50:.3} ms, straight into the pool {bare_p50:.3} ms"
    );

    own.counters.report(&mut report, own_done.len());
    report.set("tpch.generate_s", p.generate_s);
    report.set(
        "eval.busy_ms_query",
        own_busy_ms / own_done.len().max(1) as f64,
    );
    let nested = write_trace(
        ctx.workload,
        own.spans.spans(),
        &own.counters.trace_fields(),
    );

    micro::run(&mut report, ctx.width);
    // Layers this workload never enters, and the closed-loop-only
    // comparisons.
    report.zero_unset(&[
        "eval.busy_inflation",
        "par.scaling_",
        "runner_threads.",
        "engine.",
        "os_sim.",
        "mechanism.",
        "tenant.",
    ]);
    Outcome {
        report,
        attempted: offered + own.records.len() as u64 + stream[0].len() as u64,
        failed: lost + own_lost + bare.errors as u64,
        correct: steps.iter().all(|s| s.delivered)
            && own_wrong == 0
            && bare.wrong(&p.golden) == 0
            && nested,
    }
}
