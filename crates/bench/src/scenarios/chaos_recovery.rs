//! `chaos_recovery` — kill workers mid-run and measure the healing.
//!
//! Two closed-loop runs on the selected backend: a fault-free
//! *baseline*, then a *faulted* run with a kill/stall plan injected
//! mid-flight (by default two worker kills and one stall, timed off
//! the baseline's wall clock so the plan lands mid-run at any scale; a
//! pinned `faults=` spec overrides it). On the threads backend a repair
//! takes the watchdog's detection window of *wall* time however fast
//! the host drains the queries, so unless `iters` is pinned the
//! baseline is rerun with more iterations until it spans several such
//! windows. One CSV row per phase reports
//! the accounting — expected, completed, surfaced errors, lost — next
//! to the engine's recovery counters and a before/after goodput split
//! of the faulted run.
//!
//! The claims under `check=1` (the chaos gate the CI fidelity job
//! runs on both backends):
//!
//! - **zero lost queries** — every query either completes or surfaces
//!   a typed error; kills and stalls alone surface none, because the
//!   self-healing pool requeues drained work (threads) or re-queues
//!   the parked cursor (sim);
//! - **recoveries counted, MTTR finite** — the injected faults fire
//!   and each one is repaired;
//! - **goodput recovers** — after the last repair the pool reaches
//!   ≥ 90% of its pre-fault completion rate again (peak sliding
//!   window; judged only when enough work remains past the recovery
//!   point to measure it);
//! - **sim replay** — on the sim backend the faulted run is repeated
//!   and must match byte-for-byte, recovery timing included.

use super::{ScenarioResult, DEFAULT_SF};
use emca_harness::{run as run_config, ExperimentSpec, RunConfig, RunOutput};
use emca_metrics::table::Table;
use emca_metrics::SimDuration;
use volcano_db::client::Workload;
use volcano_db::exec::{FaultPlan, ParEngineConfig, WorkerFaultKind};
use volcano_db::tpch::{QuerySpec, TpchData};

/// Declared CSV outputs.
pub const SCHEMAS: &[(&str, &str)] = &[(
    "chaos_recovery.csv",
    "phase,backend,workers_killed,expected,completed,errors,lost,\
     recoveries,mttr_ms,prefault_qps,recovered_qps,recovery_ratio,wall_s",
)];

/// Default clients when the spec pins no `users`.
pub const DEFAULT_USERS: usize = 8;

/// Default per-client iterations when the spec pins no `iters`. Long
/// enough at the default scale that the closed loop still has work
/// after the last repair (stall end + watchdog MTTR ≈ 1.1 s into the
/// run), so the recovery-ratio gate has a window to judge.
pub const DEFAULT_ITERS: u32 = 30;

/// Watchdog detection windows a threads baseline must span before the
/// default plan is timed off it: the kills at 25 % and 50 % each need
/// one window to be noticed and repaired, and the recovery-ratio gate
/// wants healthy running time on both sides of them.
const THREADS_MIN_WINDOWS: u32 = 8;

/// The default chaos plan, timed off the baseline wall `w`: two kills
/// land at 25% and 50% of the healthy run, with a stall in between
/// long enough to trip the threads watchdog.
fn default_plan(w: SimDuration) -> FaultPlan {
    FaultPlan::default()
        .with_kill(0, w.mul_f64(0.25))
        .with_stall(2, w.mul_f64(0.40), SimDuration::from_millis(600))
        .with_kill(1, w.mul_f64(0.50))
}

/// Goodput split of the faulted run: the average completion rate
/// before the first scheduled fault vs the peak rate the pool reaches
/// again after the last repair (`t_rec` = last fault end + measured
/// MTTR). The post side is a sliding-window *maximum*, not a tail
/// average: a closed-loop run drains, clients finish at different
/// times after the recovery point, and a plain tail average would
/// conflate "pool never healed" with "work ran out". A healed pool
/// hits its pre-fault rate in some post-recovery window; a pool stuck
/// below strength cannot. Returns `(pre_qps, post_qps, post_n)` where
/// `post_n` is how many completions landed after `t_rec` — the gate
/// only judges the ratio when there is enough post-recovery signal.
fn qps_split(out: &RunOutput, first_fault: SimDuration, t_rec: SimDuration) -> (f64, f64, usize) {
    let wall = out.wall.as_secs_f64();
    let t1 = first_fault.as_secs_f64().min(wall);
    let rec = t_rec.as_secs_f64();
    let mut pre = 0usize;
    let mut post: Vec<f64> = Vec::new();
    for r in &out.results {
        let t = r.finished.since(emca_metrics::SimTime::ZERO).as_secs_f64();
        if t < t1 {
            pre += 1;
        }
        if t >= rec {
            post.push(t);
        }
    }
    let pre_qps = if t1 > 0.0 { pre as f64 / t1 } else { 0.0 };
    post.sort_by(f64::total_cmp);
    let mut post_qps = 0.0_f64;
    if let (Some(first), Some(last)) = (post.first(), post.last()) {
        // Window as wide as the pre-fault one, clamped to the span the
        // post-recovery completions actually cover.
        let w = t1.min((last - first).max(1e-9)).max(1e-9);
        let mut lo = 0usize;
        for hi in 0..post.len() {
            while post[hi] - post[lo] > w {
                lo += 1;
            }
            post_qps = post_qps.max((hi - lo + 1) as f64 / w);
        }
    }
    (pre_qps, post_qps, post.len())
}

/// Replay digest of a run: per-query identity plus the clock, enough
/// to catch any divergence in scheduling or recovery timing.
fn digest(out: &RunOutput) -> Vec<(String, u64, usize)> {
    let mut d: Vec<(String, u64, usize)> = out
        .results
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                r.finished.since(emca_metrics::SimTime::ZERO).as_nanos(),
                r.result.len(),
            )
        })
        .collect();
    d.sort();
    d
}

struct Phase {
    name: &'static str,
    out: RunOutput,
    killed: usize,
    first_fault: SimDuration,
    last_fault: SimDuration,
}

fn base_config(spec: &ExperimentSpec, data: &TpchData, iters: u32) -> RunConfig {
    let mut cfg = spec.apply(
        RunConfig::new(
            spec.mech_alloc(),
            spec.users_or(DEFAULT_USERS),
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: iters,
            },
        )
        .with_scale(data.scale),
    );
    if let Some(f) = spec.flavor {
        cfg = cfg.with_flavor(f);
    }
    // The baseline is the healthy control: the spec's fault plan only
    // applies to the faulted phase.
    cfg.faults = None;
    cfg
}

/// Runs the scenario.
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let data = TpchData::generate(spec.scale(DEFAULT_SF));
    let mut iters = spec.iters_or(DEFAULT_ITERS);
    let mut baseline = run_config(base_config(spec, &data, iters), &data);
    if spec.backend == emca_harness::Backend::Threads && spec.iters.is_none() {
        // A fast host drains the default run inside one detection
        // window: the kills fire but the loop ends before the watchdog
        // repairs them, and the gate below sees no recovery. Scale the
        // work (never the watchdog) until the run is long enough.
        let floor =
            ParEngineConfig::default().stall_after.as_secs_f64() * f64::from(THREADS_MIN_WINDOWS);
        while baseline.wall.as_secs_f64() < floor {
            let short_by = floor / baseline.wall.as_secs_f64().max(1e-3);
            iters = (f64::from(iters) * short_by * 1.25).ceil() as u32;
            eprintln!(
                "[chaos] baseline wall {:.3}s is under {floor:.1}s of watchdog windows; \
                 rerunning with iters={iters}",
                baseline.wall.as_secs_f64()
            );
            baseline = run_config(base_config(spec, &data, iters), &data);
        }
    }
    let expected = spec.users_or(DEFAULT_USERS) * iters as usize;
    let plan = match &spec.faults {
        Some(p) => p.clone(),
        None => default_plan(baseline.wall),
    };
    let killed = plan
        .worker_faults
        .iter()
        .filter(|f| matches!(f.kind, WorkerFaultKind::Kill))
        .count();
    let first_fault = plan
        .worker_faults
        .iter()
        .map(|f| f.at)
        .min()
        .unwrap_or(SimDuration::ZERO);
    // When the last scheduled fault is *over*: a stall occupies its
    // worker until `at + dur`, a kill is instantaneous at `at`.
    let last_fault = plan
        .worker_faults
        .iter()
        .map(|f| match f.kind {
            WorkerFaultKind::Kill => f.at,
            WorkerFaultKind::Stall(d) => f.at + d,
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    eprintln!(
        "[chaos] baseline wall {:.3}s; injecting `{plan}` ({killed} kills)",
        baseline.wall.as_secs_f64()
    );

    let faulted = run_config(
        base_config(spec, &data, iters).with_faults(plan.clone()),
        &data,
    );
    eprintln!(
        "[chaos] faulted wall {:.3}s: {}/{} completed, {} errors, {} recoveries, mttr {:.1} ms",
        faulted.wall.as_secs_f64(),
        faulted.results.len(),
        expected,
        faulted.errors.len(),
        faulted.engine.engine_recoveries,
        faulted.engine.mttr_ms()
    );

    let phases = [
        Phase {
            name: "baseline",
            out: baseline,
            killed: 0,
            first_fault: SimDuration::ZERO,
            last_fault: SimDuration::ZERO,
        },
        Phase {
            name: "faulted",
            out: faulted,
            killed,
            first_fault,
            last_fault,
        },
    ];

    let (file, header) = SCHEMAS[0];
    let mut table = Table::with_header(
        "chaos_recovery — self-healing under injected faults",
        header,
    );
    let mut problems: Vec<String> = Vec::new();
    for p in &phases {
        let completed = p.out.results.len();
        let errors = p.out.errors.len();
        let lost = expected as i64 - completed as i64 - errors as i64;
        let mttr = p.out.engine.mttr_ms();
        let (pre_qps, post_qps, post_n) = if p.killed > 0 {
            // Recovery point: every scheduled fault has ended and the
            // engine's measured repair latency has elapsed on top.
            let t_rec = if mttr.is_finite() {
                p.last_fault + SimDuration::from_secs_f64(mttr / 1000.0)
            } else {
                p.last_fault
            };
            qps_split(&p.out, p.first_fault, t_rec)
        } else {
            (0.0, 0.0, 0)
        };
        let ratio = if pre_qps > 0.0 {
            post_qps / pre_qps
        } else {
            0.0
        };
        table.row(vec![
            p.name.to_string(),
            p.out.config.backend.to_string(),
            p.killed.to_string(),
            expected.to_string(),
            completed.to_string(),
            errors.to_string(),
            lost.to_string(),
            p.out.engine.engine_recoveries.to_string(),
            if mttr.is_finite() {
                format!("{mttr:.3}")
            } else {
                "0.000".to_string()
            },
            format!("{pre_qps:.3}"),
            format!("{post_qps:.3}"),
            format!("{ratio:.3}"),
            format!("{:.3}", p.out.wall.as_secs_f64()),
        ]);

        if !spec.check {
            continue;
        }
        if lost != 0 {
            problems.push(format!(
                "{}: {lost} queries lost ({completed} completed + {errors} errors of {expected})",
                p.name
            ));
        }
        if p.name == "faulted" {
            // A scheduled fault only fires when its worker runs past
            // the trigger time, so a very short run can outrun part of
            // the plan; the gate demands that the chaos was real — at
            // least one fault fired and was repaired — not that every
            // scheduled entry landed.
            if p.out.engine.engine_recoveries == 0 {
                problems.push(format!(
                    "faulted: no injected fault fired/recovered ({} kills scheduled)",
                    p.killed
                ));
            }
            if p.out.engine.engine_recoveries > 0 && !(mttr.is_finite() && mttr > 0.0) {
                problems.push(format!(
                    "faulted: MTTR must be finite and positive, got {mttr}"
                ));
            }
            // The ratio is only judged with enough post-recovery
            // signal (at least one completion per client after the
            // recovery point): a short run can drain its closed-loop
            // work before the repairs finish, and a near-empty window
            // measures the drain-out, not the pool.
            let enough_signal = post_n >= spec.users_or(DEFAULT_USERS);
            if p.out.engine.engine_recoveries > 0 && pre_qps > 0.0 && enough_signal && ratio < 0.9 {
                problems.push(format!(
                    "faulted: goodput recovered to only {:.0}% of the pre-fault rate \
                     ({post_qps:.2} vs {pre_qps:.2} qps over {post_n} post-recovery completions)",
                    ratio * 100.0
                ));
            }
        }
    }
    crate::emit(spec, SCHEMAS, &table, file)?;

    // Replay gate: on the deterministic backend a faulted run must be
    // reproducible down to the clock.
    if spec.check && phases[1].out.config.backend == emca_harness::Backend::Sim {
        let again = run_config(base_config(spec, &data, iters).with_faults(plan), &data);
        if digest(&again) != digest(&phases[1].out) || again.errors != phases[1].out.errors {
            problems.push("faulted sim run did not replay byte-identically".to_string());
        }
    }

    if let Some(p) = problems.first() {
        return Err(format!("chaos gate failed: {p} ({} problems)", problems.len()).into());
    }
    Ok(())
}
