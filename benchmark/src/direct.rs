//! The benchmark's own closed- and open-loop drivers over `ParEngine`.
//! They do what `run_threads` and `serve_threads` do — same pool, same
//! controller, same 100 µs poll — with direct calls, so spans can be
//! recorded at each layer boundary and the engine's counters read at the
//! edges of the window. End-to-end numbers never come from here.

use crate::oracle::Golden;
use crate::schema::Report;
use crate::spans::SpanLog;
use crate::stats::percentile;
use elastic_numa::elastic_core::{PoolConfig, PoolController};
use elastic_numa::emca_harness::{
    build_admission, AdmissionDecision, AdmissionSpec, ArrivalSchedule,
};
use elastic_numa::emca_metrics::{SimDuration, SimTime};
use elastic_numa::volcano_db::exec::task::QueryId;
use elastic_numa::volcano_db::exec::{
    BaseData, EngineStats, ParEngine, ParEngineConfig, QueryResult, Tomograph,
};
use elastic_numa::volcano_db::tpch::{build_query, QuerySpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver poll granularity, as in `runner_threads`.
const POLL: Duration = Duration::from_micros(100);
/// The state lock is probed this often.
const PROBE_EVERY: Duration = Duration::from_millis(1);

/// How the pool's active width is driven.
#[derive(Clone, Copy)]
pub enum Control {
    /// A `PoolController` on the measured CPU load, as the runners do.
    Elastic,
    /// A fixed number of active workers, no controller.
    Pinned(usize),
}

/// What the engine's public counters moved by over a driver run.
pub struct Counters {
    pub wall_s: f64,
    pub width: usize,
    pub busy_ns: u64,
    pub stats: EngineStats,
    pub tomograph: Tomograph,
    /// Latency (µs) of `engine.active()` called once a millisecond from
    /// the driver thread: the state mutex's wait as seen from outside.
    pub lock_probe_us: Vec<f64>,
}

impl Counters {
    /// Share of the pool's wall capacity spent inside kernels.
    pub fn busy_share(&self) -> f64 {
        self.busy_ns as f64 / 1e9 / (self.width as f64 * self.wall_s)
    }

    /// Idle + lock + pop time per executed task (µs).
    pub fn nonkernel_us_task(&self) -> f64 {
        let capacity_ns = self.width as f64 * self.wall_s * 1e9;
        (capacity_ns - self.busy_ns as f64).max(0.0) / 1e3 / self.stats.tasks_executed.max(1) as f64
    }

    /// Share of operator time the most expensive operator takes.
    fn top_op(&self) -> (&'static str, f64) {
        let by_time = self.tomograph.by_time();
        let total: f64 = by_time
            .iter()
            .map(|(_, s)| s.total_time.as_secs_f64())
            .sum();
        by_time.first().map_or(("none", 0.0), |(name, s)| {
            (
                name,
                s.total_time.as_secs_f64() / total.max(f64::MIN_POSITIVE),
            )
        })
    }
}

impl Counters {
    /// Sets the `eval.*` and `par.*` metrics that are read off the
    /// engine's counters, for a driver run that completed `queries`.
    pub fn report(&self, report: &mut Report, queries: usize) {
        let queries = queries.max(1) as f64;
        let tasks = self.stats.tasks_executed as f64;
        let (top_op, top_share) = self.top_op();
        crate::note!("eval.top_op {top_op}");
        report.set("eval.busy_share", self.busy_share());
        report.set("eval.top_op_share", top_share);
        report.set("par.tasks_per_s", tasks / self.wall_s);
        report.set("par.tasks_per_query", tasks / queries);
        report.set(
            "par.steals_per_ktask",
            self.stats.engine_steals as f64 / tasks.max(1.0) * 1000.0,
        );
        report.set("par.nonkernel_us_task", self.nonkernel_us_task());
        let probe = |q| percentile(&self.lock_probe_us, q).unwrap_or(0.0);
        report.set("par.lock_probe_us_p50", probe(0.5));
        report.set("par.lock_probe_us_p99", probe(0.99));
    }

    /// The counter deltas written next to a run's spans.
    pub fn trace_fields(&self) -> [(&'static str, f64); 6] {
        [
            ("wall_s", self.wall_s),
            ("busy_ns", self.busy_ns as f64),
            ("tasks_executed", self.stats.tasks_executed as f64),
            ("engine_steals", self.stats.engine_steals as f64),
            ("queries_completed", self.stats.queries_completed as f64),
            ("operator_calls", self.tomograph.total_calls() as f64),
        ]
    }
}

/// The control and sampling half of a driver loop.
struct Pilot<'a> {
    engine: &'a ParEngine,
    t0: Instant,
    controller: Option<PoolController>,
    next_control: SimTime,
    ctl_busy: u64,
    ctl_at: SimTime,
    next_probe: Duration,
    lock_probe_us: Vec<f64>,
    busy0: u64,
    stats0: EngineStats,
}

impl<'a> Pilot<'a> {
    fn new(engine: &'a ParEngine, control: Control, t0: Instant) -> Self {
        let controller = match control {
            Control::Elastic => Some(PoolController::new(PoolConfig::cpu_load(
                engine.n_workers() as u32,
            ))),
            Control::Pinned(n) => {
                engine.set_active(n);
                None
            }
        };
        Pilot {
            engine,
            t0,
            controller,
            next_control: SimTime::ZERO,
            ctl_busy: engine.busy_ns(),
            ctl_at: SimTime::ZERO,
            next_probe: Duration::ZERO,
            lock_probe_us: Vec::new(),
            busy0: engine.busy_ns(),
            stats0: engine.stats(),
        }
    }

    /// One driver tick: control step and lock probe.
    fn tick(&mut self, queue_depth: Option<u64>) {
        let elapsed = self.t0.elapsed();
        let now = SimTime::ZERO + SimDuration::from_nanos(elapsed.as_nanos() as u64);
        if let Some(c) = self.controller.as_mut() {
            if now >= self.next_control {
                let busy = self.engine.busy_ns();
                let dt = now.since(self.ctl_at).as_nanos();
                let active = self.engine.active();
                let u = if dt == 0 {
                    0.0
                } else {
                    ((busy - self.ctl_busy) as f64 / (active as f64 * dt as f64) * 100.0)
                        .clamp(0.0, 100.0)
                };
                self.ctl_busy = busy;
                self.ctl_at = now;
                c.note_capacity(self.engine.live_workers() as u32);
                if let Some(depth) = queue_depth {
                    c.note_queue_depth(depth);
                }
                let d = c.observe(now, u);
                self.engine.set_active(d.nalloc as usize);
                self.next_control = now + c.interval();
            }
        }
        if elapsed >= self.next_probe {
            let t = Instant::now();
            std::hint::black_box(self.engine.active());
            self.lock_probe_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            self.next_probe = elapsed + PROBE_EVERY;
        }
    }

    fn finish(self, wall_s: f64) -> Counters {
        let after = self.engine.stats();
        Counters {
            wall_s,
            width: self.engine.n_workers(),
            busy_ns: self.engine.busy_ns() - self.busy0,
            stats: EngineStats {
                tasks_created: after.tasks_created - self.stats0.tasks_created,
                tasks_executed: after.tasks_executed - self.stats0.tasks_executed,
                engine_steals: after.engine_steals - self.stats0.engine_steals,
                queries_completed: after.queries_completed - self.stats0.queries_completed,
                queries_submitted: after.queries_submitted - self.stats0.queries_submitted,
                ..after
            },
            tomograph: self.engine.tomograph(),
            lock_probe_us: self.lock_probe_us,
        }
    }
}

fn pool(base: &Arc<BaseData>, width: usize) -> ParEngine {
    ParEngine::new(
        ParEngineConfig {
            n_workers: width,
            initial_active: 1,
            ..ParEngineConfig::default()
        },
        Arc::clone(base),
    )
}

/// Outcome of [`closed_loop`].
pub struct ClosedOut {
    /// Every completed query with the spec that asked for it.
    pub results: Vec<(QuerySpec, QueryResult)>,
    /// Queries the engine failed.
    pub errors: usize,
    pub counters: Counters,
    /// Empty unless spans were asked for.
    pub spans: SpanLog,
}

impl ClosedOut {
    /// Completions per second of driver wall time.
    pub fn qps(&self) -> f64 {
        self.results.len() as f64 / self.counters.wall_s
    }

    /// Results that are not bit for bit the oracle's.
    pub fn wrong(&self, golden: &Golden) -> usize {
        self.results
            .iter()
            .filter(|(s, r)| !golden.matches(s, &r.result))
            .count()
    }

    /// Mean `QueryResult::busy` (ms).
    pub fn busy_ms_query(&self) -> f64 {
        let total: f64 = self
            .results
            .iter()
            .map(|(_, r)| r.busy.as_millis_f64())
            .sum();
        total / self.results.len().max(1) as f64
    }
}

/// Closed loop: one client thread per stream, each submitting its next
/// query when the previous one completed, while this thread pilots the
/// pool. With `spans`, each request records `request` ⊃
/// `tpch.build_query`, `par.submit`, `par.wait_result`.
pub fn closed_loop(
    base: &Arc<BaseData>,
    width: usize,
    streams: &[Vec<QuerySpec>],
    control: Control,
    spans: bool,
) -> ClosedOut {
    let engine = pool(base, width);
    let t0 = Instant::now();
    let remaining = AtomicUsize::new(streams.len());
    let mut pilot = Pilot::new(&engine, control, t0);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(idx, stream)| {
                let (engine, remaining) = (&engine, &remaining);
                scope.spawn(move || {
                    let mut log = SpanLog::new(t0, spans);
                    let mut done = Vec::with_capacity(stream.len());
                    let mut errors = 0usize;
                    for (i, spec) in stream.iter().enumerate() {
                        let rid = ((idx as u64) << 32) | i as u64;
                        let request = log.open("request", None, rid);
                        let s = log.open("tpch.build_query", Some(request), rid);
                        let plan = Arc::new(build_query(spec));
                        log.close(s);
                        let s = log.open("par.submit", Some(request), rid);
                        let qid = engine.submit(plan, spec.tag());
                        log.close(s);
                        let s = log.open("par.wait_result", Some(request), rid);
                        let outcome = engine.wait_result(qid);
                        log.close(s);
                        log.close(request);
                        match outcome {
                            Ok(r) => done.push((*spec, r)),
                            Err(_) => errors += 1,
                        }
                    }
                    remaining.fetch_sub(1, Ordering::SeqCst);
                    (done, errors, log)
                })
            })
            .collect();
        while remaining.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(POLL);
            pilot.tick(None);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = ClosedOut {
        results: Vec::new(),
        errors: 0,
        counters: pilot.finish(wall_s),
        spans: SpanLog::new(t0, spans),
    };
    for (done, errors, log) in per_client {
        out.results.extend(done);
        out.errors += errors;
        out.spans.merge(log);
    }
    out
}

/// One request of [`open_loop`].
pub struct OpenRecord {
    pub spec: QuerySpec,
    /// Scheduled arrival and completion (seconds from start).
    pub arrival_s: f64,
    pub finished_s: Option<f64>,
    pub result: Option<QueryResult>,
}

/// Outcome of [`open_loop`].
pub struct OpenOut {
    pub records: Vec<OpenRecord>,
    pub counters: Counters,
    pub spans: SpanLog,
}

/// What the open-loop dispatcher hands a request through.
struct FrontDoor<'a> {
    engine: &'a ParEngine,
    log: SpanLog,
    records: Vec<OpenRecord>,
    /// Root span per request, once it has arrived.
    roots: Vec<Option<u32>>,
    /// Request, engine id and open `par.wait_result` span.
    inflight: Vec<(usize, QueryId, u32)>,
}

impl FrontDoor<'_> {
    fn root(&self, i: usize) -> u32 {
        self.roots[i].expect("an arrived request has a root span")
    }

    fn dispatch(&mut self, i: usize) {
        let (root, rid) = (Some(self.root(i)), i as u64);
        let spec = self.records[i].spec;
        let s = self.log.open("tpch.build_query", root, rid);
        let plan = Arc::new(build_query(&spec));
        self.log.close(s);
        let s = self.log.open("par.submit", root, rid);
        let qid = self.engine.submit(plan, spec.tag());
        self.log.close(s);
        let wait = self.log.open("par.wait_result", root, rid);
        self.inflight.push((i, qid, wait));
    }

    fn shed(&mut self, i: usize) {
        let root = self.root(i);
        self.log.close(root);
    }
}

/// Open loop: releases `schedule` through an admission policy into the
/// pool from one dispatcher thread, as `serve_threads` does (no retry,
/// no per-request deadline). Each request records `request` (from its
/// *scheduled* arrival) ⊃ `serve.admit`, `tpch.build_query`,
/// `par.submit`, `par.wait_result`. A request without a `result` was
/// shed or did not finish.
pub fn open_loop(
    base: &Arc<BaseData>,
    width: usize,
    schedule: &ArrivalSchedule,
    admission: &AdmissionSpec,
    sla: SimDuration,
    drain: SimDuration,
) -> OpenOut {
    let engine = pool(base, width);
    let mut gate = build_admission(admission, sla);
    let timeout = gate.queue_timeout().map(|t| t.as_secs_f64());
    let t0 = Instant::now();
    let mut pilot = Pilot::new(&engine, Control::Elastic, t0);
    let cutoff = (schedule.horizon + drain).as_secs_f64();
    let n = schedule.arrivals.len();
    let mut door = FrontDoor {
        engine: &engine,
        log: SpanLog::new(t0, true),
        records: schedule
            .arrivals
            .iter()
            .map(|a| OpenRecord {
                spec: a.spec,
                arrival_s: a.at.as_secs_f64(),
                finished_s: None,
                result: None,
            })
            .collect(),
        roots: vec![None; n],
        inflight: Vec::new(),
    };
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;

    loop {
        std::thread::sleep(POLL);
        let now_s = t0.elapsed().as_secs_f64();
        if now_s >= cutoff {
            break;
        }
        while next < n && door.records[next].arrival_s <= now_s {
            let i = next;
            next += 1;
            let due_ns = (door.records[i].arrival_s * 1e9) as u64;
            let root = door.log.open_at("request", None, i as u64, due_ns);
            door.roots[i] = Some(root);
            let s = door.log.open("serve.admit", Some(root), i as u64);
            let verdict = gate.on_arrival(door.inflight.len(), queue.len());
            door.log.close(s);
            match verdict {
                AdmissionDecision::Accept => door.dispatch(i),
                AdmissionDecision::Queue => queue.push_back(i),
                AdmissionDecision::Shed => door.shed(i),
            }
        }
        if let Some(timeout) = timeout {
            while let Some(&i) = queue.front() {
                if now_s - door.records[i].arrival_s <= timeout {
                    break;
                }
                queue.pop_front();
                door.shed(i);
            }
        }
        while gate.may_dispatch(door.inflight.len()) {
            let Some(i) = queue.pop_front() else { break };
            door.dispatch(i);
        }
        let FrontDoor {
            log,
            records,
            roots,
            inflight,
            ..
        } = &mut door;
        inflight.retain(|&(i, qid, wait)| match engine.try_result(qid) {
            None => true,
            Some(outcome) => {
                log.close(wait);
                log.close(roots[i].expect("a dispatched request has a root span"));
                records[i].finished_s = Some(now_s);
                records[i].result = outcome.ok();
                false
            }
        });
        if next == n && queue.is_empty() && door.inflight.is_empty() {
            break;
        }
        pilot.tick(Some(queue.len() as u64));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    OpenOut {
        records: door.records,
        counters: pilot.finish(wall_s),
        spans: door.log,
    }
}
