//! Deterministic fault injection: the parsed `faults=` spec field.
//!
//! A [`FaultPlan`] describes *when* the run misbehaves on purpose:
//! worker kills (`panic:worker=3@2s`), worker stalls
//! (`stall:worker=5@1s:dur=500ms`) and query poisoning
//! (`badquery:rate=0.01`). The plan itself is pure data — each backend
//! interprets it in its own time domain (simulated time for the sim
//! engine, wall time since [`crate::exec::par::ParEngine::arm_faults`]
//! for the threads pool) — so the same spec string drives both.
//!
//! Determinism: worker faults fire at fixed plan times; query poisoning
//! draws from a per-(seed, qid) seeded [`StdRng`], so a sim run with a
//! fault plan is still a pure function of the spec (byte-identical CSVs
//! across runs), and the threads backend poisons the *same* query ids.

use emca_metrics::SimDuration;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// What an injected worker fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkerFaultKind {
    /// The worker dies silently — no typed error, no pool bookkeeping;
    /// recovery (watchdog respawn on threads, timed revive on sim) is
    /// the mechanism under test.
    Kill,
    /// The worker goes dark for the given duration without making
    /// progress or heartbeating, then resumes.
    Stall(SimDuration),
}

/// One scheduled worker fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerFault {
    /// Pool index of the victim (out-of-range indices are ignored, so a
    /// plan written for the 16-core machine stays valid under
    /// `EMCA_THREADS`-capped pools).
    pub worker: u32,
    /// When the fault fires, measured from run start.
    pub at: SimDuration,
    /// What happens.
    pub kind: WorkerFaultKind,
}

/// A deterministic fault-injection plan (the `faults=` spec field).
///
/// The empty/default plan is fully inert: every injection site checks
/// [`FaultPlan::is_empty`] (or an absent plan) first, so runs without a
/// `faults=` key take the exact pre-fault-plane code paths.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled worker kills and stalls, in spec order.
    pub worker_faults: Vec<WorkerFault>,
    /// Probability that a submitted query is poisoned at the front door
    /// (fails instantly with [`crate::exec::par::QueryError::BadQuery`]).
    /// `0.0` disables poisoning.
    pub badquery_rate: f64,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.worker_faults.is_empty() && self.badquery_rate <= 0.0
    }

    /// Adds a worker kill at `at`.
    pub fn with_kill(mut self, worker: u32, at: SimDuration) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            kind: WorkerFaultKind::Kill,
        });
        self
    }

    /// Adds a worker stall of `dur` starting at `at`.
    pub fn with_stall(mut self, worker: u32, at: SimDuration, dur: SimDuration) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            kind: WorkerFaultKind::Stall(dur),
        });
        self
    }

    /// Sets the query-poisoning rate.
    pub fn with_badquery(mut self, rate: f64) -> Self {
        self.badquery_rate = rate;
        self
    }

    /// Deterministically decides whether query `qid` of the run seeded
    /// by `seed` is poisoned. Pure in (plan, seed, qid): both backends
    /// poison the same ids, and reruns poison the same ids.
    pub fn bad_query(&self, seed: u64, qid: u64) -> bool {
        if self.badquery_rate <= 0.0 {
            return false;
        }
        // One short-lived rng per decision keeps the draw independent of
        // submission order (concurrent clients race to submit on the
        // threads backend; a shared rng stream would make poisoning
        // racy there and order-coupled on the sim).
        let mut rng = StdRng::seed_from_u64(seed ^ qid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let draw = rng.random_range(0..1_000_000usize) as f64 / 1e6;
        draw < self.badquery_rate
    }

    /// Parses the `faults=` spec syntax: comma-separated entries of
    /// `panic:worker=<n>@<t>`, `stall:worker=<n>@<t>:dur=<d>`, and
    /// `badquery:rate=<p>`, with durations spelled `500ms` or `2s`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, params) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry {entry:?}: expected kind:params"))?;
            match kind {
                "panic" => {
                    let (worker, at) = parse_worker_at(params, entry)?;
                    plan.worker_faults.push(WorkerFault {
                        worker,
                        at,
                        kind: WorkerFaultKind::Kill,
                    });
                }
                "stall" => {
                    let (worker_part, dur_part) = params
                        .split_once(':')
                        .ok_or_else(|| format!("fault entry {entry:?}: stall needs :dur=<d>"))?;
                    let (worker, at) = parse_worker_at(worker_part, entry)?;
                    let dur = dur_part
                        .strip_prefix("dur=")
                        .and_then(parse_dur)
                        .ok_or_else(|| {
                            format!("fault entry {entry:?}: bad dur (want dur=500ms)")
                        })?;
                    plan.worker_faults.push(WorkerFault {
                        worker,
                        at,
                        kind: WorkerFaultKind::Stall(dur),
                    });
                }
                "badquery" => {
                    let rate: f64 = params
                        .strip_prefix("rate=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| {
                            format!("fault entry {entry:?}: bad rate (want rate=0.01)")
                        })?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault entry {entry:?}: rate must be in [0, 1]"));
                    }
                    plan.badquery_rate = rate;
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (known: panic, stall, badquery)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// The armed side of a plan, shared by both executors: which scheduled
/// worker faults already fired, and the seed its poisoning draws from.
/// Each executor measures `elapsed` in its own time domain (simulated
/// time on the sim engine, wall time since arming on the pool).
pub(crate) struct FaultClock {
    plan: FaultPlan,
    seed: u64,
    fired: Vec<bool>,
}

impl FaultClock {
    /// Arms `plan`; `None` when it injects nothing, so an unarmed
    /// fault plane costs one `Option` check.
    pub(crate) fn arm(plan: &FaultPlan, seed: u64) -> Option<Self> {
        (!plan.is_empty()).then(|| FaultClock {
            plan: plan.clone(),
            seed,
            fired: vec![false; plan.worker_faults.len()],
        })
    }

    /// The first unfired fault of `worker` due by `elapsed`, in plan
    /// order; it fires once.
    pub(crate) fn due(&mut self, worker: usize, elapsed: SimDuration) -> Option<WorkerFaultKind> {
        let i = self
            .plan
            .worker_faults
            .iter()
            .zip(&self.fired)
            .position(|(wf, &fired)| !fired && wf.worker as usize == worker && elapsed >= wf.at)?;
        self.fired[i] = true;
        Some(self.plan.worker_faults[i].kind)
    }

    /// Whether the plan poisons query `qid` ([`FaultPlan::bad_query`]).
    pub(crate) fn poisons(&self, qid: u64) -> bool {
        self.plan.bad_query(self.seed, qid)
    }
}

fn parse_worker_at(params: &str, entry: &str) -> Result<(u32, SimDuration), String> {
    let rest = params
        .strip_prefix("worker=")
        .ok_or_else(|| format!("fault entry {entry:?}: expected worker=<n>@<t>"))?;
    let (worker, at) = rest
        .split_once('@')
        .ok_or_else(|| format!("fault entry {entry:?}: expected worker=<n>@<t>"))?;
    let worker: u32 = worker
        .parse()
        .map_err(|_| format!("fault entry {entry:?}: bad worker index {worker:?}"))?;
    let at = parse_dur(at)
        .ok_or_else(|| format!("fault entry {entry:?}: bad time {at:?} (want e.g. 2s or 500ms)"))?;
    Ok((worker, at))
}

fn parse_dur(s: &str) -> Option<SimDuration> {
    let (num, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(secs) = s.strip_suffix('s') {
        (secs, 1.0)
    } else {
        return None;
    };
    let v: f64 = num.parse().ok()?;
    if !(v.is_finite() && v >= 0.0) {
        return None;
    }
    Some(SimDuration::from_secs_f64(v * scale))
}

fn fmt_dur(d: SimDuration, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let ms = d.as_secs_f64() * 1e3;
    if ms.fract() == 0.0 && (ms as u64) % 1000 != 0 {
        write!(f, "{}ms", ms as u64)
    } else {
        // Integral seconds render bare ("2s"); fractional values keep
        // their digits ("0.0015s") so Display always re-parses exactly.
        let secs = d.as_secs_f64();
        if secs.fract() == 0.0 {
            write!(f, "{}s", secs as u64)
        } else {
            write!(f, "{secs}s")
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            Ok(())
        };
        for wf in &self.worker_faults {
            sep(f)?;
            match wf.kind {
                WorkerFaultKind::Kill => {
                    write!(f, "panic:worker={}@", wf.worker)?;
                    fmt_dur(wf.at, f)?;
                }
                WorkerFaultKind::Stall(dur) => {
                    write!(f, "stall:worker={}@", wf.worker)?;
                    fmt_dur(wf.at, f)?;
                    write!(f, ":dur=")?;
                    fmt_dur(dur, f)?;
                }
            }
        }
        if self.badquery_rate > 0.0 {
            sep(f)?;
            write!(f, "badquery:rate={}", self.badquery_rate)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trips() {
        let s = "panic:worker=3@2s,stall:worker=5@1s:dur=500ms,badquery:rate=0.01";
        let plan = FaultPlan::parse(s).expect("parses");
        assert_eq!(plan.worker_faults.len(), 2);
        assert_eq!(plan.worker_faults[0].worker, 3);
        assert_eq!(plan.worker_faults[0].at, SimDuration::from_secs(2));
        assert_eq!(plan.worker_faults[0].kind, WorkerFaultKind::Kill);
        assert_eq!(
            plan.worker_faults[1].kind,
            WorkerFaultKind::Stall(SimDuration::from_millis(500))
        );
        assert_eq!(plan.badquery_rate, 0.01);
        assert_eq!(plan.to_string(), s, "canonical display round-trips");
        let reparsed = FaultPlan::parse(&plan.to_string()).expect("display re-parses");
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn fractional_and_bare_second_durations_round_trip() {
        for s in [
            "panic:worker=0@150ms",
            "panic:worker=0@10s",
            "stall:worker=1@0s:dur=2s",
        ] {
            let plan = FaultPlan::parse(s).expect("parses");
            assert_eq!(
                FaultPlan::parse(&plan.to_string()).expect("re-parses"),
                plan
            );
        }
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for bad in [
            "panic",
            "panic:worker=3",
            "panic:worker=x@2s",
            "panic:worker=3@2m",
            "stall:worker=5@1s",
            "badquery:rate=1.5",
            "flood:worker=1@1s",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::parse("").expect("empty parses");
        assert!(plan.is_empty());
        assert!(!plan.bad_query(42, 0));
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn clock_fires_each_due_fault_once_in_plan_order() {
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::default()
            .with_kill(0, ms(10))
            .with_stall(0, ms(10), ms(5))
            .with_kill(1, ms(20));
        assert!(FaultClock::arm(&FaultPlan::default(), 1).is_none());
        let mut clock = FaultClock::arm(&plan, 1).expect("a non-empty plan arms");
        // Nothing before its time.
        assert_eq!(clock.due(0, ms(9)), None);
        assert_eq!(clock.due(1, ms(19)), None);
        // Worker 0's two faults, in plan order, once each.
        assert_eq!(clock.due(0, ms(10)), Some(WorkerFaultKind::Kill));
        assert_eq!(clock.due(0, ms(10)), Some(WorkerFaultKind::Stall(ms(5))));
        assert_eq!(clock.due(0, ms(30)), None);
        // Worker 1's kill fires late too, and only once.
        assert_eq!(clock.due(1, ms(25)), Some(WorkerFaultKind::Kill));
        assert_eq!(clock.due(1, ms(30)), None);
        assert_eq!(clock.due(2, ms(30)), None);
    }

    #[test]
    fn bad_query_is_deterministic_and_rate_shaped() {
        let plan = FaultPlan::default().with_badquery(0.1);
        let hits: Vec<bool> = (0..10_000).map(|q| plan.bad_query(42, q)).collect();
        let again: Vec<bool> = (0..10_000).map(|q| plan.bad_query(42, q)).collect();
        assert_eq!(hits, again, "same seed + qid must redraw identically");
        let rate = hits.iter().filter(|&&h| h).count() as f64 / hits.len() as f64;
        assert!(
            (0.05..0.2).contains(&rate),
            "empirical poison rate {rate} far from 0.1"
        );
        let other: Vec<bool> = (0..10_000).map(|q| plan.bad_query(43, q)).collect();
        assert_ne!(hits, other, "different seeds must poison different ids");
    }
}
