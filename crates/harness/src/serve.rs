//! `emca serve` — the serving layer: an open-loop load generator and an
//! admission controller whose admitted queries run on either backend.
//!
//! The closed-loop runners ([`crate::runner`], [`crate::runner_threads`])
//! reproduce the paper's experiments: N clients that always have exactly
//! one query outstanding, so offered load is capped by N and the system
//! can never be pushed past saturation. A serving front door removes
//! that cap: requests arrive on their own schedule — Poisson or
//! trace-driven replay, materialised up front from a pinned seed
//! ([`ArrivalSchedule`]) — an [`AdmissionPolicy`] rules accept / queue /
//! shed per arrival, and admitted queries run on the simulated or
//! real-thread engine. The whole request state machine —
//! arrive, admit, time out, dispatch, complete / fail / retry, deadline,
//! window close — is one crate-private struct, `FrontDoor`, that both
//! backends drive through a two-operation seam (submit request *i*;
//! poll an attempt). There is no serving driver: [`run_serve`] is a
//! one-tenant run of the tenant lifecycle ([`crate::churn`]) whose
//! tenant is driven open-loop by its door instead of by closed-loop
//! clients, so the clock, the engine, the control tick and the samples
//! are the lifecycle's own — one loop over either backend. The elastic
//! mechanism sees the admission backlog as demand
//! ([`ElasticMechanism::note_queue_depth`](elastic_core::ElasticMechanism::note_queue_depth) /
//! [`PoolController::note_queue_depth`](elastic_core::PoolController::note_queue_depth)),
//! so cores move between keeping the queue drained and executing
//! admitted queries.
//!
//! Latency accounting is open-loop standard: a request's latency runs
//! from its *scheduled arrival* to completion, so waiting — in the
//! admission queue or inside the engine — is part of the number. A
//! dispatched request still running when the observation window closes
//! counts as `+inf`; an overloaded, unprotected system therefore
//! reports an infinite p99, which is exactly the failure mode admission
//! control exists to bound. Requests shed at the gate or timed out in
//! the queue have no latency (they never ran); they show up in the shed
//! counters and as lost goodput instead.
//!
//! Failures are first-class: an armed fault plan (`faults=` on the
//! spec) can kill or stall workers and poison queries mid-run. A
//! request whose attempt dies with a *retryable* error (worker death)
//! is resubmitted under the [`RetryPolicy`] — deterministic jittered
//! exponential backoff, bypassing admission, bounded by
//! `max_attempts` and the per-request deadline — while poisoned
//! queries fail immediately ([`RequestOutcome::Failed`], never aliased
//! to a shed or an unfinished request). The per-request deadline runs
//! from *scheduled arrival* and covers every attempt, so a drain at
//! least as long as the deadline guarantees every dispatched request
//! resolves inside the window. An attempt abandoned by the deadline is
//! still polled until it finishes, so the engine's result slot for it
//! is reaped instead of leaking for the rest of the run.

use crate::config::RunConfig;
use crate::spec::{AdmissionSpec, ArrivalSpec};
use crate::tenants::MultiTenantConfig;
use elastic_core::TransitionEvent;
use emca_metrics::{stats, SimDuration, SimTime, TimeSeries};
use os_sim::{GroupId, Kernel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use volcano_db::client::{ClientBody, SharedLog, Workload};
use volcano_db::exec::engine::Engine;
use volcano_db::exec::task::QueryId;
use volcano_db::exec::{EngineStats, ParEngine};
use volcano_db::tpch::{build_query, QuerySpec, TpchData};

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from serving start.
    pub at: SimDuration,
    /// The query this request runs.
    pub spec: QuerySpec,
}

/// A fully materialised arrival schedule. Built once, before the run
/// starts — the generator never consults the wall clock or the backend,
/// so the same `(λ, horizon, seed)` triple yields the same
/// byte-for-byte schedule ([`ArrivalSchedule::render`]) on every run
/// and on both backends.
#[derive(Clone, Debug)]
pub struct ArrivalSchedule {
    /// Arrivals in non-decreasing `at` order, all before `horizon`.
    pub arrivals: Vec<Arrival>,
    /// The offered-load window.
    pub horizon: SimDuration,
}

impl ArrivalSchedule {
    /// A Poisson process at `lambda` requests/s over `horizon`:
    /// inter-arrival gaps are `-ln(1-u)/λ` draws from a seeded
    /// [`StdRng`]. Every request runs the Q6 microbenchmark (use a
    /// trace for mixed queries).
    pub fn poisson(lambda: f64, horizon: SimDuration, seed: u64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "poisson arrival rate must be positive, got {lambda}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let end = horizon.as_secs_f64();
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / lambda;
            if t >= end {
                break;
            }
            arrivals.push(Arrival {
                at: SimDuration::from_secs_f64(t),
                spec: QuerySpec::Q6 { variant: 0 },
            });
        }
        ArrivalSchedule { arrivals, horizon }
    }

    /// Replays a trace file: one request per line, `arrival_ms[,query]`
    /// with `#` comments; `query` is `q6` (default) or a TPC-H number
    /// (`3` / `q3`). Timestamps must be non-decreasing — replay
    /// preserves the recorded order exactly.
    pub fn from_trace(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
        Self::parse_trace(&text).map_err(|e| format!("trace {}: {e}", path.display()))
    }

    /// [`ArrivalSchedule::from_trace`] on in-memory text.
    pub fn parse_trace(text: &str) -> Result<Self, String> {
        let mut arrivals: Vec<Arrival> = Vec::new();
        let mut last = SimDuration::ZERO;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let mut fields = line.split(',');
            let ms_text = fields.next().unwrap_or("").trim();
            let ms: f64 = ms_text
                .parse()
                .map_err(|_| format!("line {lineno}: arrival_ms {ms_text:?} is not a number"))?;
            if !ms.is_finite() || ms < 0.0 {
                return Err(format!(
                    "line {lineno}: arrival_ms must be finite and non-negative, got {ms_text}"
                ));
            }
            let at = SimDuration::from_secs_f64(ms / 1000.0);
            if at < last {
                return Err(format!(
                    "line {lineno}: arrivals must be non-decreasing ({ms}ms after {:.3}ms)",
                    last.as_millis_f64()
                ));
            }
            let spec = match fields.next().map(str::trim) {
                None | Some("") | Some("q6") => QuerySpec::Q6 { variant: 0 },
                Some(q) => {
                    let number: u8 = q
                        .strip_prefix('q')
                        .unwrap_or(q)
                        .parse()
                        .ok()
                        .filter(|n| (1..=22).contains(n))
                        .ok_or_else(|| {
                            format!("line {lineno}: query {q:?} is not q6 or a TPC-H number 1..22")
                        })?;
                    QuerySpec::Tpch { number, variant: 0 }
                }
            };
            if fields.next().is_some() {
                return Err(format!(
                    "line {lineno}: expected arrival_ms[,query], got {line:?}"
                ));
            }
            last = at;
            arrivals.push(Arrival { at, spec });
        }
        if arrivals.is_empty() {
            return Err("no arrivals".into());
        }
        Ok(ArrivalSchedule {
            horizon: last + SimDuration::from_nanos(1),
            arrivals,
        })
    }

    /// Materialises the schedule an [`ArrivalSpec`] describes;
    /// `horizon` and `seed` apply to the Poisson form only (a trace
    /// carries its own timestamps).
    pub fn from_spec(
        arrival: &ArrivalSpec,
        horizon: SimDuration,
        seed: u64,
    ) -> Result<Self, String> {
        match arrival {
            ArrivalSpec::Poisson { lambda } => Ok(Self::poisson(*lambda, horizon, seed)),
            ArrivalSpec::Trace { path } => Self::from_trace(path),
        }
    }

    /// Canonical rendering, one `arrival_ns,query_tag` line per request
    /// — the byte-identity witness the determinism tests compare.
    pub fn render(&self) -> String {
        self.arrivals
            .iter()
            .map(|a| format!("{},{}\n", a.at.as_nanos(), a.spec.tag()))
            .collect()
    }

    /// Offered load in requests/s.
    pub fn offered_qps(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.arrivals.len() as f64 / secs
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// The front door's verdict on a newly-arrived request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Dispatch now.
    Accept,
    /// Park in the FIFO queue.
    Queue,
    /// Refuse at the gate.
    Shed,
}

/// Decides what happens to each arriving request. The driver owns the
/// FIFO queue and the clock; a policy only judges counts, which keeps
/// every policy backend-agnostic by construction.
pub trait AdmissionPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Verdict for a new arrival, given current inflight and queued
    /// request counts.
    fn on_arrival(&mut self, inflight: usize, queued: usize) -> AdmissionDecision;
    /// Whether the queue head may dispatch with `inflight` running.
    fn may_dispatch(&mut self, inflight: usize) -> bool;
    /// How long a request may wait in the queue before being shed;
    /// `None` disables queue timeouts.
    fn queue_timeout(&self) -> Option<SimDuration> {
        None
    }
}

/// No admission control: every arrival dispatches immediately — the
/// open-loop equivalent of the paper's unprotected baseline.
pub struct AcceptAll;

impl AdmissionPolicy for AcceptAll {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_arrival(&mut self, _inflight: usize, _queued: usize) -> AdmissionDecision {
        AdmissionDecision::Accept
    }

    fn may_dispatch(&mut self, _inflight: usize) -> bool {
        true
    }
}

/// Concurrency limiter with a deadline-aware FIFO queue: at most
/// `max_inflight` admitted queries run at once; past that, arrivals
/// queue (up to `queue_cap`, beyond which they shed at the gate), and a
/// queued request that waits longer than `timeout` is shed — it can no
/// longer meet its SLA, so running it would only steal capacity from
/// requests that still can.
pub struct ConcurrencyLimit {
    /// Admitted queries allowed to run concurrently.
    pub max_inflight: usize,
    /// Queue bound; `None` = unbounded (timeouts still shed).
    pub queue_cap: Option<usize>,
    /// Longest tolerated queue wait.
    pub timeout: SimDuration,
}

impl AdmissionPolicy for ConcurrencyLimit {
    fn name(&self) -> &'static str {
        "limit"
    }

    fn on_arrival(&mut self, inflight: usize, queued: usize) -> AdmissionDecision {
        if inflight < self.max_inflight && queued == 0 {
            AdmissionDecision::Accept
        } else if self.queue_cap.is_some_and(|cap| queued >= cap) {
            AdmissionDecision::Shed
        } else {
            AdmissionDecision::Queue
        }
    }

    fn may_dispatch(&mut self, inflight: usize) -> bool {
        inflight < self.max_inflight
    }

    fn queue_timeout(&self) -> Option<SimDuration> {
        Some(self.timeout)
    }
}

/// Builds the policy an [`AdmissionSpec`] names. The queue deadline is
/// *half* the SLA: a request that already burned half its latency
/// budget waiting has no room left to execute inside it, so shedding
/// then (instead of at the full SLA) is what keeps the completions that
/// do dispatch on the right side of the deadline.
pub fn build_admission(spec: &AdmissionSpec, sla: SimDuration) -> Box<dyn AdmissionPolicy> {
    match spec {
        AdmissionSpec::None => Box::new(AcceptAll),
        AdmissionSpec::Limit {
            max_inflight,
            queue,
        } => Box::new(ConcurrencyLimit {
            max_inflight: *max_inflight as usize,
            queue_cap: queue.map(|q| q as usize),
            timeout: sla.mul_f64(0.5),
        }),
    }
}

// ---------------------------------------------------------------------------
// Requests and results
// ---------------------------------------------------------------------------

/// Retry policy for requests whose attempt dies inside the engine with
/// a *retryable* [`QueryError`](volcano_db::exec::QueryError) — a
/// worker death, where resubmitting can land on a survivor or a
/// watchdog respawn. Non-retryable errors (poisoned queries, internal
/// bugs) fail at once: the same input fails the same way again.
/// Resubmission bypasses admission — the request was admitted once and
/// keeps its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first dispatch (≥ 1; `1` means no
    /// retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; each further attempt doubles
    /// it. A ±25% jitter drawn from the run-seeded rng decorrelates
    /// retry bursts after a worker kill without costing run-to-run
    /// determinism.
    pub backoff: SimDuration,
}

impl RetryPolicy {
    /// Three attempts, 20ms base backoff — the chaos scenarios' shape.
    pub fn default_chaos() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_millis(20),
        }
    }

    /// How long to wait before attempt `next_attempt` (`2` = first
    /// retry). Deterministic in the rng state: exponential in the
    /// attempt number, jittered by a factor in `[0.75, 1.25)`.
    pub fn delay(&self, next_attempt: u32, rng: &mut StdRng) -> SimDuration {
        let doublings = next_attempt.saturating_sub(2).min(16);
        let base = self.backoff.as_secs_f64() * (1u64 << doublings) as f64;
        let jitter: f64 = rng.random_range(0.75..1.25);
        SimDuration::from_secs_f64(base * jitter)
    }
}

/// What finally happened to a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Still unresolved (never appears in a finished [`ServeOutput`]).
    Pending,
    /// Dispatched and completed inside the window.
    Completed,
    /// Refused at the gate (queue full / policy said no).
    ShedGate,
    /// Shed from the queue after waiting past the deadline.
    ShedTimeout,
    /// Dispatched but still running when the window closed.
    Unfinished,
    /// Dispatched and *failed*: the engine returned an error with
    /// retries exhausted (or non-retryable), or the per-request
    /// deadline expired before an attempt completed. Never aliased to
    /// [`RequestOutcome::Unfinished`] — a failed request carries its
    /// error.
    Failed,
}

/// Per-request bookkeeping.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Scheduled arrival (absolute).
    pub arrival: SimTime,
    /// The query.
    pub spec: QuerySpec,
    /// When the dispatcher handed it to the engine.
    pub dispatched: Option<SimTime>,
    /// When it completed (or failed for good).
    pub finished: Option<SimTime>,
    /// Terminal outcome.
    pub outcome: RequestOutcome,
    /// Engine submissions so far (0 = never dispatched; >1 = retried).
    pub attempts: u32,
    /// The rendered engine error that failed the request, if any.
    pub error: Option<String>,
}

impl RequestRecord {
    /// Open-loop latency in ms: scheduled arrival to completion; `+inf`
    /// for a dispatched request that never finished; `None` for shed
    /// and failed requests (they produced no answer — they count in the
    /// shed/failed columns, not in the latency distribution).
    pub fn latency_ms(&self) -> Option<f64> {
        match self.outcome {
            // A completed record always has `finished` set; `map`
            // instead of unwrapping keeps the accessor panic-free.
            RequestOutcome::Completed => {
                self.finished.map(|f| f.since(self.arrival).as_millis_f64())
            }
            RequestOutcome::Unfinished => Some(f64::INFINITY),
            _ => None,
        }
    }
}

/// One serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The lone tenant's instance, read as any run's
    /// [`MultiTenantConfig::base`] is (`alloc` is the tenant's
    /// allocation); `deadline` is the run-abort deadline, as for any run.
    /// `clients` and `workload` are not honoured — the schedule replaces
    /// them.
    pub base: RunConfig,
    /// When requests arrive and what they run.
    pub schedule: ArrivalSchedule,
    /// The front-door policy.
    pub admission: AdmissionSpec,
    /// Per-request SLA target: the goodput bar, and the admission
    /// queue's shed deadline.
    pub sla: SimDuration,
    /// Grace past the schedule horizon for in-flight work; whatever is
    /// still running after it counts as unfinished (`+inf` latency).
    pub drain: SimDuration,
    /// Retry policy for retryable engine failures (threads backend;
    /// the sim engine recovers worker kills internally — work is
    /// requeued, never lost — and its only surfaced error is a
    /// deterministically poisoned query, which a retry would poison
    /// again, so the sim path fails such requests at once). `None` =
    /// fail on the first error.
    pub retry: Option<RetryPolicy>,
    /// Per-request deadline measured from *scheduled arrival*,
    /// covering queueing, every attempt and every backoff: a request
    /// still unresolved past it fails (the engine may finish the
    /// abandoned work, but the answer no longer has a taker). Distinct
    /// from the run's wall budget — this bounds one request, not the
    /// run. `None` = no deadline; a dispatched request may run to the
    /// window edge and count as unfinished.
    pub request_deadline: Option<SimDuration>,
}

/// Everything measured by one serving run.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// One record per scheduled request, in arrival order.
    pub records: Vec<RequestRecord>,
    /// Scheduled arrivals (= `records.len()`).
    pub offered: usize,
    /// The offered-load window the schedule spanned.
    pub horizon: SimDuration,
    /// The SLA the run was judged against.
    pub sla: SimDuration,
    /// Serving start to last resolution (or window close).
    pub wall: SimDuration,
    /// Engine CPU load (%).
    pub load_series: TimeSeries,
    /// Allocated cores / active workers over time.
    pub cores_series: TimeSeries,
    /// Admission-queue depth over time.
    pub queue_series: TimeSeries,
    /// Mechanism transition log (empty for the OS baseline).
    pub transitions: Vec<TransitionEvent>,
    /// Engine counters, including `engine_recoveries` / `mttr_ms()`
    /// when a fault plan was armed.
    pub engine: EngineStats,
}

impl ServeOutput {
    /// How many requests ended as `outcome`.
    pub fn count(&self, outcome: RequestOutcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Latencies (ms) of every dispatched request; unfinished ones are
    /// `+inf`, shed ones are absent.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.latency_ms()).collect()
    }

    /// The `q`-quantile of [`ServeOutput::latencies_ms`]; NaN when no
    /// request was dispatched.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        stats::percentile(&self.latencies_ms(), q).unwrap_or(f64::NAN)
    }

    /// Goodput: completions within the SLA per second of offered
    /// window — the serving-side "useful work" rate. Shed, late, and
    /// unfinished requests all subtract from it.
    pub fn goodput_qps(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let sla_ms = self.sla.as_millis_f64();
        let good = self
            .records
            .iter()
            .filter(|r| r.latency_ms().is_some_and(|l| l <= sla_ms))
            .count();
        good as f64 / secs
    }
}

// ---------------------------------------------------------------------------
// The front door
// ---------------------------------------------------------------------------

/// Runs one serving experiment on the backend `cfg.base` names: a
/// one-tenant resident run of the tenant lifecycle ([`crate::churn`]),
/// the lone FairShare tenant (weight 1, no SLA, no clients) driven by a
/// `FrontDoor` for the window plus its drain. Its arbitration is a
/// no-op, as for a single [`run`](crate::run).
pub fn run_serve(cfg: &ServeConfig, data: &TpchData) -> ServeOutput {
    let lone = MultiTenantConfig::lone("serve", &cfg.base, 0);
    let mut door = FrontDoor::new(cfg, SimTime::ZERO);
    let mut out = crate::churn::run_lifecycle(lone, data, Some(&mut door));
    let tenant = out.tenants.pop();
    // emca-lint: allow(panic-freedom) — driver thread after the run, every pool already shut down; the lifecycle retires each tenant it admits
    let t = tenant.expect("a one-tenant run retires its tenant");
    ServeOutput {
        queue_series: std::mem::take(&mut door.queue_series),
        records: door.close_window(),
        offered: cfg.schedule.arrivals.len(),
        horizon: cfg.schedule.horizon,
        sla: cfg.sla,
        wall: out.wall,
        load_series: t.load_series,
        cores_series: t.cores_series,
        transitions: t.transitions,
        engine: t.engine,
    }
}

/// How an engine failed an attempt.
pub(crate) struct AttemptError {
    message: String,
    /// A worker death: resubmitting can land on a survivor or a
    /// watchdog respawn.
    retryable: bool,
}

/// A finished attempt as its backend saw it.
pub(crate) struct Completion {
    /// The completion stamp the request record carries.
    at: SimTime,
    /// Engine-side response time (the sim mechanism's interval scaler
    /// feeds on it).
    response: SimDuration,
}

/// The backend half of the front door: everything the request state
/// machine needs from an engine.
pub(crate) trait Attempts {
    /// Starts one attempt of request `i`; returns the attempt's id.
    fn submit(&mut self, i: usize, spec: QuerySpec) -> u64;
    /// `None` while the attempt is still running. A finished attempt is
    /// reported once; the backend keeps nothing for it afterwards.
    fn poll(&mut self, attempt: u64, now: SimTime) -> Option<Result<Completion, AttemptError>>;
}

/// The request state machine that drives a serving tenant: due arrivals
/// meet the [`AdmissionPolicy`], the FIFO queue sheds on timeout and
/// feeds freed slots, finished attempts complete / fail / retry their
/// request, and the per-request deadline abandons what can no longer
/// answer in time. The lifecycle supplies a clock and an [`Attempts`]
/// implementation ([`FrontDoor::step`]); everything else about a
/// request lives here.
pub(crate) struct FrontDoor {
    admission: Box<dyn AdmissionPolicy>,
    retry: Option<RetryPolicy>,
    /// Backoff jitter, seeded from the run seed: the *choice* of delays
    /// is reproducible even where thread timing is not.
    retry_rng: StdRng,
    request_deadline: Option<SimDuration>,
    records: Vec<RequestRecord>,
    next_arrival: usize,
    queue: VecDeque<usize>,
    /// Dispatched and unresolved: `(request, attempt id)`.
    inflight: Vec<(usize, u64)>,
    /// Waiting out a retry backoff: `(resubmit at, request)`.
    retry_at: Vec<(SimTime, usize)>,
    /// Attempts whose request was failed by its deadline while they
    /// ran. The answer has no taker, but the backend still holds the
    /// attempt's result slot until it is polled — so they keep being
    /// polled until they finish.
    abandoned: Vec<u64>,
    /// Response times of the attempts that completed in the last
    /// [`tick`](FrontDoor::tick).
    pub(crate) responses: Vec<SimDuration>,
    /// Start + horizon + drain: the window closes here.
    close: SimTime,
    /// Admission-queue depth at every sample of the tenant.
    pub(crate) queue_series: TimeSeries,
}

impl FrontDoor {
    fn new(cfg: &ServeConfig, start: SimTime) -> Self {
        FrontDoor {
            admission: build_admission(&cfg.admission, cfg.sla),
            retry: cfg.retry,
            retry_rng: StdRng::seed_from_u64(cfg.base.scale.seed ^ 0x7E7A_11CE),
            request_deadline: cfg.request_deadline,
            records: cfg
                .schedule
                .arrivals
                .iter()
                .map(|a| RequestRecord {
                    arrival: start + a.at,
                    spec: a.spec,
                    dispatched: None,
                    finished: None,
                    outcome: RequestOutcome::Pending,
                    attempts: 0,
                    error: None,
                })
                .collect(),
            next_arrival: 0,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            retry_at: Vec::new(),
            abandoned: Vec::new(),
            responses: Vec::new(),
            close: start + cfg.schedule.horizon + cfg.drain,
            queue_series: TimeSeries::new("queue"),
        }
    }

    /// Admission-queue depth (the controller's extra demand signal).
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Records the queue depth at `now`.
    pub(crate) fn sample(&mut self, now: SimTime) {
        self.queue_series.push(now, self.queue.len() as f64);
    }

    /// The lifecycle's step: a [`tick`](FrontDoor::tick) at `now` unless
    /// the window has closed. Returns when the door finished — every
    /// request resolved now, or the window closed — and `None` while it
    /// still runs; [`FrontDoor::responses`] holds what this step
    /// completed.
    pub(crate) fn step(&mut self, now: SimTime, engine: &mut impl Attempts) -> Option<SimTime> {
        if now >= self.close {
            self.responses.clear();
            return Some(self.close);
        }
        self.tick(now, engine).then_some(now)
    }

    fn submit(&mut self, i: usize, engine: &mut impl Attempts) {
        let attempt = engine.submit(i, self.records[i].spec);
        self.records[i].attempts += 1;
        self.inflight.push((i, attempt));
    }

    fn fail(&mut self, i: usize, now: SimTime, error: String) {
        self.records[i].finished = Some(now);
        self.records[i].outcome = RequestOutcome::Failed;
        self.records[i].error = Some(error);
    }

    /// One pass over the request state machine at `now`. Returns true
    /// once every scheduled request is resolved.
    fn tick(&mut self, now: SimTime, engine: &mut impl Attempts) -> bool {
        // Due retries resubmit first: they were admitted already and
        // re-enter ahead of the gate.
        let due: Vec<usize> = (0..self.retry_at.len())
            .filter(|&pos| self.retry_at[pos].0 <= now)
            .collect();
        for pos in due.into_iter().rev() {
            let (_, i) = self.retry_at.swap_remove(pos);
            self.submit(i, engine);
        }
        // Due arrivals meet the front door.
        while self.next_arrival < self.records.len()
            && self.records[self.next_arrival].arrival <= now
        {
            let i = self.next_arrival;
            self.next_arrival += 1;
            match self
                .admission
                .on_arrival(self.inflight.len(), self.queue.len())
            {
                AdmissionDecision::Accept => {
                    self.records[i].dispatched = Some(now);
                    self.submit(i, engine);
                }
                AdmissionDecision::Queue => self.queue.push_back(i),
                AdmissionDecision::Shed => self.records[i].outcome = RequestOutcome::ShedGate,
            }
        }
        // Deadline-aware queue: a head that waited past its timeout
        // sheds.
        if let Some(timeout) = self.admission.queue_timeout() {
            while let Some(&i) = self.queue.front() {
                if now.since(self.records[i].arrival) <= timeout {
                    break;
                }
                self.queue.pop_front();
                self.records[i].outcome = RequestOutcome::ShedTimeout;
            }
        }
        // Freed slots pull from the queue head.
        while self.admission.may_dispatch(self.inflight.len()) {
            let Some(i) = self.queue.pop_front() else {
                break;
            };
            self.records[i].dispatched = Some(now);
            self.submit(i, engine);
        }
        // Finished attempts. A degraded pool fails the request, not the
        // run: retryable deaths go back through the engine after a
        // backoff (bypassing admission — the request keeps its slot);
        // anything else fails the request here and now, explicitly, so
        // it can never masquerade as shed or unfinished.
        self.responses.clear();
        let mut done: Vec<usize> = Vec::new();
        for pos in 0..self.inflight.len() {
            let (i, attempt) = self.inflight[pos];
            match engine.poll(attempt, now) {
                None => continue,
                Some(Ok(c)) => {
                    self.records[i].finished = Some(c.at);
                    self.records[i].outcome = RequestOutcome::Completed;
                    self.responses.push(c.response);
                }
                Some(Err(e)) => match self.retry {
                    Some(p) if e.retryable && self.records[i].attempts < p.max_attempts => {
                        let wait = p.delay(self.records[i].attempts + 1, &mut self.retry_rng);
                        self.retry_at.push((now + wait, i));
                    }
                    _ => self.fail(i, now, e.message),
                },
            }
            done.push(pos);
        }
        for pos in done.into_iter().rev() {
            self.inflight.swap_remove(pos);
        }
        self.abandoned
            .retain(|&attempt| engine.poll(attempt, now).is_none());
        // Per-request deadline: fail requests (in flight or waiting out
        // a backoff) that can no longer answer in time. An abandoned
        // attempt keeps running — the answer just has no taker.
        if let Some(dl) = self.request_deadline {
            let expired = |records: &[RequestRecord], i: usize| now.since(records[i].arrival) >= dl;
            let error = |during: &str| {
                let ms = dl.as_millis_f64();
                format!("request deadline ({ms:.0}ms) expired{during}")
            };
            for pos in (0..self.inflight.len()).rev() {
                let (i, attempt) = self.inflight[pos];
                if expired(&self.records, i) {
                    self.fail(i, now, error(""));
                    self.abandoned.push(attempt);
                    self.inflight.swap_remove(pos);
                }
            }
            for pos in (0..self.retry_at.len()).rev() {
                let (_, i) = self.retry_at[pos];
                if expired(&self.records, i) {
                    self.fail(i, now, error(" mid-backoff"));
                    self.retry_at.remove(pos);
                }
            }
        }
        self.next_arrival == self.records.len()
            && self.queue.is_empty()
            && self.inflight.is_empty()
            && self.retry_at.is_empty()
    }

    /// Terminal sweep after the window closes: queued requests can no
    /// longer meet anything (the horizon is over), in-flight ones did
    /// not make the drain, requests still waiting out a retry backoff
    /// never got their next attempt, and arrivals past the close never
    /// reached the gate.
    pub(crate) fn close_window(mut self) -> Vec<RequestRecord> {
        for &i in &self.queue {
            self.records[i].outcome = RequestOutcome::ShedTimeout;
        }
        for &(i, _) in &self.inflight {
            self.records[i].outcome = RequestOutcome::Unfinished;
        }
        for &(_, i) in &self.retry_at {
            self.records[i].outcome = RequestOutcome::Failed;
            self.records[i]
                .error
                .get_or_insert_with(|| "window closed mid-backoff".into());
        }
        for r in self.records.iter_mut() {
            if r.outcome == RequestOutcome::Pending {
                r.outcome = RequestOutcome::ShedGate;
            }
        }
        self.records
    }
}

/// The simulated stack as an [`Attempts`] backend: each attempt is a
/// one-query client session spawned into the tenant's DBMS group mid-run.
pub(crate) struct SimSessions<'a> {
    pub kernel: &'a mut Kernel,
    pub group: GroupId,
    pub engine: &'a Engine,
    /// Session logs by attempt id; `None` once reported.
    pub sessions: &'a mut Vec<Option<SharedLog>>,
}

impl Attempts for SimSessions<'_> {
    fn submit(&mut self, i: usize, spec: QuerySpec) -> u64 {
        let (body, log) = ClientBody::new(
            self.engine.clone(),
            Workload::Repeat {
                spec,
                iterations: 1,
            },
            i,
            None,
        );
        self.kernel
            .spawn(format!("serve{i}"), self.group, None, Box::new(body));
        self.sessions.push(Some(log));
        self.sessions.len() as u64 - 1
    }

    /// One result or one error per one-shot session. The sim engine's
    /// worker kills requeue the parked work internally — no query is
    /// lost to them — so the only error a session can surface is a
    /// deterministically poisoned query, which fails outright (retrying
    /// would poison it again).
    fn poll(&mut self, attempt: u64, _now: SimTime) -> Option<Result<Completion, AttemptError>> {
        let slot = self.sessions.get_mut(attempt as usize)?;
        let outcome = {
            let log = slot.as_ref()?.borrow();
            if let Some(r) = log.results.first() {
                Ok(Completion {
                    at: r.finished,
                    response: r.response(),
                })
            } else {
                Err(AttemptError {
                    message: log.errors.first()?.clone(),
                    retryable: false,
                })
            }
        };
        *slot = None;
        Some(outcome)
    }
}

impl Attempts for Arc<ParEngine> {
    fn submit(&mut self, _i: usize, spec: QuerySpec) -> u64 {
        ParEngine::submit(self, Arc::new(build_query(&spec)), spec.tag()).0
    }

    fn poll(&mut self, attempt: u64, now: SimTime) -> Option<Result<Completion, AttemptError>> {
        Some(match self.try_result(QueryId(attempt))? {
            Ok(r) => Ok(Completion {
                at: now,
                response: r.response(),
            }),
            Err(e) => Err(AttemptError {
                message: e.to_string(),
                retryable: e.is_retryable(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Alloc;
    use volcano_db::tpch::TpchScale;

    #[test]
    fn poisson_schedule_is_pinned_to_the_seed() {
        let a = ArrivalSchedule::poisson(200.0, SimDuration::from_secs(2), 7);
        let b = ArrivalSchedule::poisson(200.0, SimDuration::from_secs(2), 7);
        assert!(!a.arrivals.is_empty());
        assert_eq!(a.render(), b.render(), "same seed must be byte-identical");
        let c = ArrivalSchedule::poisson(200.0, SimDuration::from_secs(2), 8);
        assert_ne!(a.render(), c.render(), "seeds must matter");
        assert!(a
            .arrivals
            .windows(2)
            .all(|w| w[0].at <= w[1].at && w[1].at < a.horizon));
    }

    #[test]
    fn poisson_interarrival_mean_tracks_the_rate() {
        // 10^5 gaps at λ=1000/s: the sample mean must land within 1% of
        // 1/λ (≈3σ for this n; the pinned seed makes it deterministic).
        let lambda = 1000.0;
        let sched = ArrivalSchedule::poisson(lambda, SimDuration::from_secs(120), 42);
        assert!(sched.arrivals.len() > 100_000, "need ≥1e5 gaps");
        let mut prev = 0.0;
        let gaps: Vec<f64> = sched.arrivals[..100_000]
            .iter()
            .map(|a| {
                let t = a.at.as_secs_f64();
                let g = t - prev;
                prev = t;
                g
            })
            .collect();
        let mean = stats::mean(&gaps).unwrap();
        let expect = 1.0 / lambda;
        assert!(
            (mean - expect).abs() / expect < 0.01,
            "inter-arrival mean {mean:.6}s should be within 1% of {expect:.6}s"
        );
    }

    #[test]
    fn trace_replay_preserves_order_and_timestamps() {
        let sched = ArrivalSchedule::parse_trace(
            "# demo trace\n0\n1.5, q3\n2.5 # trailing comment\n10,6\n",
        )
        .unwrap();
        assert_eq!(sched.arrivals.len(), 4);
        assert_eq!(sched.arrivals[1].at, SimDuration::from_micros(1500));
        assert_eq!(
            sched.arrivals[1].spec,
            QuerySpec::Tpch {
                number: 3,
                variant: 0
            }
        );
        assert_eq!(
            sched.arrivals[3].spec,
            QuerySpec::Tpch {
                number: 6,
                variant: 0
            }
        );
        assert!(sched.arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(sched.horizon > sched.arrivals[3].at);

        for bad in ["", "5\n3\n", "1,q99\n", "x\n", "1,6,6\n", "-1\n"] {
            assert!(
                ArrivalSchedule::parse_trace(bad).is_err(),
                "trace {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn concurrency_limit_gates_queues_and_times_out() {
        let mut p = ConcurrencyLimit {
            max_inflight: 2,
            queue_cap: Some(1),
            timeout: SimDuration::from_millis(10),
        };
        assert_eq!(p.on_arrival(0, 0), AdmissionDecision::Accept);
        assert_eq!(p.on_arrival(2, 0), AdmissionDecision::Queue);
        assert_eq!(p.on_arrival(2, 1), AdmissionDecision::Shed);
        // A non-empty queue means new arrivals go behind it even when a
        // slot is free (FIFO fairness).
        assert_eq!(p.on_arrival(1, 1), AdmissionDecision::Shed);
        assert!(p.may_dispatch(1));
        assert!(!p.may_dispatch(2));
        assert_eq!(p.queue_timeout(), Some(SimDuration::from_millis(10)));
        assert_eq!(AcceptAll.on_arrival(64, 64), AdmissionDecision::Accept);
    }

    #[test]
    fn serve_sim_accounts_for_every_request() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let base = RunConfig::new(
            Alloc::Adaptive,
            0,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 0,
            },
        )
        .with_scale(data.scale);
        let cfg = ServeConfig {
            base,
            schedule: ArrivalSchedule::poisson(60.0, SimDuration::from_millis(400), 42),
            admission: AdmissionSpec::Limit {
                max_inflight: 4,
                queue: Some(8),
            },
            sla: SimDuration::from_millis(200),
            drain: SimDuration::from_millis(400),
            retry: None,
            request_deadline: None,
        };
        let out = run_serve(&cfg, &data);
        assert_eq!(out.offered, cfg.schedule.arrivals.len());
        let resolved = out.count(RequestOutcome::Completed)
            + out.count(RequestOutcome::ShedGate)
            + out.count(RequestOutcome::ShedTimeout)
            + out.count(RequestOutcome::Unfinished)
            + out.count(RequestOutcome::Failed);
        assert_eq!(resolved, out.offered, "every request needs an outcome");
        assert_eq!(out.count(RequestOutcome::Failed), 0, "no faults armed");
        assert_eq!(out.count(RequestOutcome::Pending), 0);
        assert!(out.count(RequestOutcome::Completed) > 0);
        assert!(out.goodput_qps() > 0.0);
        // Completed latencies are measured from scheduled arrival.
        for r in &out.records {
            if let Some(l) = r.latency_ms() {
                assert!(l > 0.0);
            }
        }
    }

    #[test]
    fn serve_sim_runs_the_os_baseline_without_a_mechanism() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let base = RunConfig::new(
            Alloc::OsAll,
            0,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 0,
            },
        )
        .with_scale(data.scale);
        let cfg = ServeConfig {
            base,
            schedule: ArrivalSchedule::poisson(30.0, SimDuration::from_millis(300), 11),
            admission: AdmissionSpec::None,
            sla: SimDuration::from_millis(500),
            drain: SimDuration::from_millis(500),
            retry: None,
            request_deadline: None,
        };
        let out = run_serve(&cfg, &data);
        assert!(out.transitions.is_empty(), "baseline has no mechanism");
        assert_eq!(out.count(RequestOutcome::ShedGate), 0);
        assert_eq!(out.count(RequestOutcome::ShedTimeout), 0);
        assert!(out.count(RequestOutcome::Completed) > 0);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff: SimDuration::from_millis(20),
        };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let da: Vec<SimDuration> = (2..=4).map(|k| p.delay(k, &mut a)).collect();
        let db: Vec<SimDuration> = (2..=4).map(|k| p.delay(k, &mut b)).collect();
        assert_eq!(da, db, "same rng state must yield the same delays");
        for (k, d) in da.iter().enumerate() {
            // Attempt k+2 backs off around backoff * 2^k, jittered ±25%.
            let nominal = 20.0 * (1u64 << k) as f64;
            let ms = d.as_millis_f64();
            assert!(
                ms >= nominal * 0.75 && ms < nominal * 1.25,
                "delay {ms}ms outside the jitter band around {nominal}ms"
            );
        }
    }

    #[test]
    fn serve_sim_fails_poisoned_queries_and_stays_deterministic() {
        use volcano_db::exec::FaultPlan;
        let data = TpchData::generate(TpchScale::test_tiny());
        let run_once = |data: &TpchData| {
            let base = RunConfig::new(
                Alloc::Adaptive,
                0,
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: 0,
                },
            )
            .with_scale(data.scale)
            .with_faults(FaultPlan::default().with_badquery(0.5));
            let cfg = ServeConfig {
                base,
                schedule: ArrivalSchedule::poisson(60.0, SimDuration::from_millis(400), 42),
                admission: AdmissionSpec::None,
                sla: SimDuration::from_millis(200),
                drain: SimDuration::from_millis(400),
                retry: None,
                request_deadline: None,
            };
            run_serve(&cfg, data)
        };
        let a = run_once(&data);
        assert!(
            a.count(RequestOutcome::Failed) > 0,
            "rate=0.5 must poison some queries"
        );
        assert!(a.count(RequestOutcome::Completed) > 0);
        let resolved = a.count(RequestOutcome::Completed)
            + a.count(RequestOutcome::ShedGate)
            + a.count(RequestOutcome::ShedTimeout)
            + a.count(RequestOutcome::Unfinished)
            + a.count(RequestOutcome::Failed);
        assert_eq!(resolved, a.offered, "failures must not break accounting");
        for r in &a.records {
            if r.outcome == RequestOutcome::Failed {
                assert!(
                    r.error.as_deref().is_some_and(|e| e.contains("poisoned")),
                    "a failed request must carry its error, got {:?}",
                    r.error
                );
                assert!(r.latency_ms().is_none(), "failed ≠ a latency sample");
            }
        }
        // Same seed + same plan ⇒ byte-identical outcome sequence.
        let b = run_once(&data);
        let digest = |o: &ServeOutput| {
            o.records
                .iter()
                .map(|r| (r.outcome, r.attempts, r.error.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b), "recovery must stay deterministic");
    }

    /// A fake engine: every attempt takes `service` and then reports
    /// success exactly once; `outstanding` is what a real engine would
    /// still be holding a result slot for.
    struct FakeEngine {
        now: SimTime,
        service: SimDuration,
        outstanding: Vec<(u64, SimTime)>,
        submitted: u64,
    }

    impl Attempts for FakeEngine {
        fn submit(&mut self, _i: usize, _spec: QuerySpec) -> u64 {
            self.submitted += 1;
            self.outstanding
                .push((self.submitted, self.now + self.service));
            self.submitted
        }

        fn poll(&mut self, attempt: u64, now: SimTime) -> Option<Result<Completion, AttemptError>> {
            let pos = self
                .outstanding
                .iter()
                .position(|&(id, ready)| id == attempt && ready <= now)?;
            self.outstanding.swap_remove(pos);
            Some(Ok(Completion {
                at: now,
                response: self.service,
            }))
        }
    }

    #[test]
    fn abandoned_attempts_are_reaped_by_the_completion_poll() {
        // Regression: a request failed by its deadline used to drop its
        // in-flight attempt id on the floor, so the engine's eventual
        // result for it was never consumed. Deadline (5 ms) < service
        // time (20 ms): every attempt is abandoned mid-flight, and each
        // must still be polled to completion before the window closes.
        let ms = SimDuration::from_millis;
        let at = |t: u64| Arrival {
            at: ms(t),
            spec: QuerySpec::Q6 { variant: 0 },
        };
        let cfg = ServeConfig {
            base: RunConfig::new(
                Alloc::Adaptive,
                0,
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: 0,
                },
            ),
            schedule: ArrivalSchedule {
                arrivals: vec![at(0), at(1), at(2), at(30), at(31), at(60)],
                horizon: ms(61),
            },
            admission: AdmissionSpec::None,
            sla: ms(200),
            drain: ms(40),
            retry: None,
            request_deadline: Some(ms(5)),
        };
        let mut engine = FakeEngine {
            now: SimTime::ZERO,
            service: ms(20),
            outstanding: Vec::new(),
            submitted: 0,
        };
        let mut door = FrontDoor::new(&cfg, SimTime::ZERO);
        let cutoff = SimTime::ZERO + cfg.schedule.horizon + cfg.drain;
        let mut resolved_at = None;
        while engine.now < cutoff {
            let now = engine.now;
            if door.tick(now, &mut engine) {
                resolved_at.get_or_insert(now);
            }
            engine.now = now + ms(1);
        }
        // Every request resolved (failed) at its deadline, long before
        // its abandoned attempt finished…
        assert_eq!(resolved_at, Some(SimTime::ZERO + ms(65)));
        assert!(door.abandoned.is_empty(), "abandoned ids must drain");
        let records = door.close_window();
        assert!(records.iter().all(|r| r.outcome == RequestOutcome::Failed
            && r.error.as_deref().is_some_and(|e| e.contains("deadline"))));
        // …and every submitted attempt was nevertheless consumed.
        assert_eq!(engine.submitted, 6);
        assert!(
            engine.outstanding.is_empty(),
            "attempts never polled to completion: {:?}",
            engine.outstanding
        );
    }

    #[test]
    fn request_deadline_resolves_every_dispatched_request() {
        // An impossibly tight deadline: every dispatched request fails
        // by its deadline, and because drain ≥ deadline none survive to
        // be counted Unfinished at the window edge.
        let data = TpchData::generate(TpchScale::test_tiny());
        let base = RunConfig::new(
            Alloc::Adaptive,
            0,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 0,
            },
        )
        .with_scale(data.scale);
        let cfg = ServeConfig {
            base,
            schedule: ArrivalSchedule::poisson(60.0, SimDuration::from_millis(300), 7),
            admission: AdmissionSpec::None,
            sla: SimDuration::from_millis(200),
            drain: SimDuration::from_millis(400),
            retry: None,
            request_deadline: Some(SimDuration::from_nanos(1)),
        };
        let out = run_serve(&cfg, &data);
        assert_eq!(out.count(RequestOutcome::Unfinished), 0);
        assert_eq!(out.count(RequestOutcome::Completed), 0);
        assert_eq!(out.count(RequestOutcome::Failed), out.offered);
        assert!(out
            .records
            .iter()
            .all(|r| r.error.as_deref().is_some_and(|e| e.contains("deadline"))));
    }
}
