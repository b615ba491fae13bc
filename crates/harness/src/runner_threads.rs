//! The real-thread backend: `PoolSubstrate` is what the tenant
//! lifecycle of [`crate::churn`] — and with it every single-instance
//! [`run`](crate::run) and every [`run_serve`](crate::run_serve), the
//! lifecycle's one-tenant cases — runs on when the backend is threads:
//! [`ParEngine`]s, dedicated OS threads doing the actual work, with the
//! elastic mechanism actuating each tenant's worker pool instead of a
//! simulated cpuset. Each tenant carries its engine as a `Pool`:
//! `Pool::control` is the one measured-load → controller → park/unpark
//! tick and `Pool::sample` the one load window. This module has no
//! driver loop of its own: the lifecycle's loop is the backend's only
//! one, and `PoolSubstrate::advance` — one `POLL` sleep, then the wall
//! clock — is its only wait.
//!
//! What maps where, relative to the sim lifecycle:
//!
//! - **Engine**: the same plans and partitioning, executed by real
//!   threads ([`ParEngine`]); with the pool width fixed at the simulated
//!   machine's core count, results are bitwise-identical to the sim
//!   backend (allocation only changes timing).
//! - **Mechanism**: a [`PoolController`] is configured from
//!   `runner::mechanism_parts` exactly like a simulated
//!   [`ElasticMechanism`](elastic_core::ElasticMechanism) and runs the
//!   same controller — the policy's `observe`/`shape`/`decide` hooks
//!   (hill climbing, [`RunConfig::custom_policy`], a tenant's SLA
//!   governor), placement and tenant arbitration. The mask it returns
//!   is applied as the pool's wake order plus its active count, so a
//!   placement mode decides *which* workers run. This workspace links
//!   no affinity or perf-counter syscalls: the pool's samples carry CPU
//!   load and completions only, so what needs memory-traffic signals —
//!   the Eq. 1 guard, page-ranked adaptive placement, interconnect
//!   budgets — runs but never fires. Ignored: [`RunConfig::metric`] (no
//!   HT/IMC counters to drive the net with). A pinned `warmup` (no NUMA
//!   pages to home) is refused up front: `ExperimentSpec::validate_backend`.
//! - **Baseline**: an [`Alloc::OsAll`](crate::Alloc::OsAll) tenant becomes "no pool
//!   management": one always-active worker per client (never fewer than
//!   the machine width — exactly that for a clientless serving tenant),
//!   the thread-per-task shape the paper argues against.
//! - **Counters**: hardware series (IMC/HT) are empty and the counter
//!   snapshots zero; CPU load and the allocated-core count are measured
//!   for real. With [`RunConfig::with_trace`], the migration trace is
//!   real too: the driver samples each worker's host CPU from
//!   `/proc/self/task` (`ProcTracer`), so the Fig. 5/16 maps show actual
//!   OS placement.
//!
//! Environment knobs, read in [`crate::timing`]: `EMCA_THREADS` caps
//! the pool width (changes partitioning, hence results — CI smoke
//! only); `EMCA_RUN_DEADLINE_S` overrides the run-abort deadline in
//! wall seconds (unset, the config's deadline applies;
//! `EMCA_WALL_BUDGET_S` never does — see [`crate::timing`] for the
//! distinction).

use crate::churn::{socket_series, Control, Life, MachineRecord, Substrate};
use crate::config::RunConfig;
use crate::tenants::{TenantOutput, TenantRunConfig};
use elastic_core::PoolController;
use emca_metrics::{SimDuration, SimTime, TimeSeries};
use numa_sim::{CoreId, HwCounters, MachineConfig};
use os_sim::{SchedStats, SchedTrace, Tid};
use prt_petrinet::Thresholds;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use volcano_db::client::materialize_phases;
use volcano_db::exec::engine::QueryResult;
use volcano_db::exec::{BaseData, ParEngine, ParEngineConfig};
use volcano_db::tpch::{build_query, TpchData};

/// Driver poll granularity — well under the shortest control interval.
const POLL: std::time::Duration = std::time::Duration::from_micros(100);

/// Locks a mutex, recovering from poisoning: the values behind these
/// mutexes (result vectors, completion stamps) are only appended to, so
/// a panicking peer cannot leave them half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // emca-lint: allow(lock-order) — generic poison-recovery wrapper; the mutex's rank belongs to the call site, and no caller holds two of these result-sink locks at once
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Machine width the pool mirrors (the simulated Opteron's 16 cores),
/// unless `EMCA_THREADS` caps it.
fn capacity() -> usize {
    crate::timing::pool_width(MachineConfig::opteron_4x4().topology.n_cores())
}

/// Wall-clock run-abort deadline: `EMCA_RUN_DEADLINE_S` when set, else
/// the config's deadline read as wall time.
fn wall_deadline(configured: SimDuration) -> SimDuration {
    match crate::seconds_from_env(crate::timing::RUN_DEADLINE_ENV) {
        Ok(Some(secs)) => SimDuration::from_secs_f64(secs),
        Ok(None) => configured,
        // emca-lint: allow(panic-freedom) — config-parse tripwire on the driver thread at startup, before any pool exists
        Err(e) => panic!("{e}"),
    }
}

/// Wall time since `t0` on the simulation-time axis.
fn wall_now(t0: Instant) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(t0.elapsed().as_nanos() as u64)
}

/// CPU load (%) of the active workers over a wall window: busy worker
/// nanoseconds against the capacity `active * dt`.
fn load_pct(busy_delta: u64, active: usize, dt_ns: u64) -> f64 {
    if dt_ns == 0 || active == 0 {
        return 0.0;
    }
    (busy_delta as f64 / (active as f64 * dt_ns as f64) * 100.0).clamp(0.0, 100.0)
}

/// One worker pool under elastic control — what the lifecycle carries
/// per tenant engine: the controller's cadence and the busy-time and
/// completion cursors its windows are measured from.
struct Pool {
    engine: Arc<ParEngine>,
    /// `None` = unmanaged (the OS baseline, a static partition).
    controller: Option<PoolController>,
    next_control: SimTime,
    ctl_busy: u64,
    ctl_completed: u64,
    ctl_at: SimTime,
    sample_busy: u64,
    sample_at: SimTime,
}

impl Pool {
    /// An `n_workers`-wide engine over `base` with the run's fault plan
    /// armed. A pool with a `tenancy` — the tenant, whose SLA budgets
    /// govern its policy, and the controller it is installed under —
    /// runs a [`PoolController`] from its initial mask; an unmanaged one
    /// starts fully active. Control and load windows open at `since`.
    fn start(
        n_workers: usize,
        base: Arc<BaseData>,
        run: &RunConfig,
        since: SimTime,
        tenancy: Option<(&TenantRunConfig, Control)>,
    ) -> Self {
        let controller = tenancy.map(|(tenant, (policy, mut cfg, binding))| {
            // Busy time is the only load signal a pool has, whatever
            // `run.metric` asks the simulator to drive the net with.
            cfg.thresholds = Thresholds::cpu_load_default();
            let topology = PoolController::mirror(n_workers as u32);
            let policy = tenant.governed(policy, &topology);
            PoolController::install(policy, &cfg, topology, Some(binding), since)
        });
        let engine = Arc::new(ParEngine::new(
            ParEngineConfig {
                n_workers,
                initial_active: if controller.is_some() { 1 } else { n_workers },
                ..ParEngineConfig::default()
            },
            base,
        ));
        if let Some(plan) = &run.faults {
            engine.arm_faults(plan, run.scale.seed);
        }
        let pool = Pool {
            engine,
            controller,
            next_control: since,
            ctl_busy: 0,
            ctl_completed: 0,
            ctl_at: since,
            sample_busy: 0,
            sample_at: since,
        };
        pool.actuate(true);
        pool
    }

    /// Applies the controller's mask: exactly as many workers as it
    /// names are active, and (after a `moved` mask) they are the ones
    /// that wake first.
    fn actuate(&self, moved: bool) {
        let Some(c) = &self.controller else { return };
        if moved {
            let order: Vec<usize> = c.mask().iter().map(CoreId::idx).collect();
            self.engine.set_wake_order(&order);
        }
        self.engine.set_active(c.mask().count());
    }

    /// Whether a control step is due at `now` — the only calls to
    /// [`Pool::control`] that run one.
    fn control_due(&self, now: SimTime) -> bool {
        self.controller.is_some() && now >= self.next_control
    }

    /// Runs one control step if one is due ([`Pool::control_due`]):
    /// measured load and completions since the previous step →
    /// controller → actuation. Returns the steps run (0 or 1).
    fn control(&mut self, now: SimTime, queue_depth: u64) -> u64 {
        let due = now >= self.next_control;
        let Some(c) = self.controller.as_mut().filter(|_| due) else {
            return 0;
        };
        let busy = self.engine.busy_ns();
        let u = load_pct(
            busy - self.ctl_busy,
            self.engine.active(),
            now.since(self.ctl_at).as_nanos(),
        );
        self.ctl_busy = busy;
        self.ctl_at = now;
        let completed = self.engine.stats().queries_completed;
        c.note_completions(completed - self.ctl_completed);
        self.ctl_completed = completed;
        let before = c.mask();
        // Dead (fault-killed, not-yet-recovered) workers are
        // non-allocatable: clamp the controller's view first so a grow
        // decision never targets a corpse.
        c.note_capacity(self.engine.live_workers() as u32);
        c.note_queue_depth(queue_depth);
        c.observe(now, u);
        self.next_control = now + c.interval();
        let moved = c.mask() != before;
        self.actuate(moved);
        1
    }

    /// CPU load (%) over the window since the previous sample, and that
    /// window's length.
    fn sample(&mut self, now: SimTime) -> (f64, SimDuration) {
        let busy = self.engine.busy_ns();
        let window = now.since(self.sample_at);
        let u = load_pct(
            busy - self.sample_busy,
            self.engine.active(),
            window.as_nanos(),
        );
        self.sample_busy = busy;
        self.sample_at = now;
        (u, window)
    }
}

/// Trace sampling cadence — coarser than the driver poll: a sample is
/// one `/proc` stat read per pool worker.
const TRACE_EVERY: SimDuration = SimDuration::from_millis(1);

/// Real scheduling trace for the migration figures (Fig. 5 / Fig. 16):
/// samples the host CPU each pool worker last ran on from
/// `/proc/self/task/<tid>/stat` — plain pseudo-file reads, no syscall
/// bindings. Worker `i` (thread name `emca-worker{i}`) appears as
/// `Tid(i)`; a span's core is the *host* CPU id, not a simulated core
/// (the renderer leaves the NUMA-node column blank for CPUs outside
/// the simulated topology). On hosts without `/proc` the trace simply
/// stays empty.
struct ProcTracer {
    trace: SchedTrace,
    next: SimTime,
    /// Task entries skipped this run: stat reads that failed (the
    /// thread exited mid-scan) or worker stat lines that would not
    /// parse (a kernel format surprise). The trace degrades to the
    /// samples that did parse instead of aborting the run.
    skipped: u64,
}

impl ProcTracer {
    fn new() -> Self {
        ProcTracer {
            trace: SchedTrace::enabled(),
            next: SimTime::ZERO,
            skipped: 0,
        }
    }

    /// One sample: scan the process's task list, record each running
    /// worker on its current CPU and close the span of each sleeper.
    /// Unreadable or malformed entries are counted and skipped.
    fn sample(&mut self, now: SimTime) {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            match std::fs::read_to_string(task.path().join("stat")) {
                Err(_) => self.skipped += 1,
                Ok(stat) => match parse_worker_stat(&stat) {
                    WorkerStat::Worker(tid, 'R', cpu) => self.trace.on_run(tid, CoreId(cpu), now),
                    WorkerStat::Worker(tid, _, _) => self.trace.on_stop(tid, now),
                    WorkerStat::NotWorker => {}
                    WorkerStat::Malformed => self.skipped += 1,
                },
            }
        }
    }

    fn finish(mut self, now: SimTime) -> SchedTrace {
        self.sample(now);
        if self.skipped > 0 {
            eprintln!(
                "[trace] skipped {} unreadable or malformed /proc task stat entries",
                self.skipped
            );
        }
        self.trace.finish(now);
        self.trace
    }
}

/// What one `/proc/<pid>/task/<tid>/stat` line turned out to be.
#[derive(Debug, PartialEq, Eq)]
enum WorkerStat {
    /// A pool worker: (worker id, state char, host CPU).
    Worker(Tid, char, u16),
    /// Some other thread (clients, the driver, the main thread).
    NotWorker,
    /// Named like a worker but the line would not parse — skip and
    /// count, never abort the trace.
    Malformed,
}

/// Parses a `/proc/<pid>/task/<tid>/stat` line. The comm field is
/// parenthesized and may itself contain spaces and parentheses, so
/// fields are counted from the *last* closing parenthesis: state is the
/// first after it, `processor` — the CPU the thread last ran on — is
/// the 37th.
fn parse_worker_stat(stat: &str) -> WorkerStat {
    let comm = stat
        .find('(')
        .and_then(|open| stat.rfind(')').map(|close| (open, close)))
        .filter(|(open, close)| open < close);
    let Some((open, close)) = comm else {
        return WorkerStat::NotWorker;
    };
    let Some(idx) = stat[open + 1..close]
        .strip_prefix("emca-worker")
        .and_then(|n| n.parse::<u32>().ok())
    else {
        return WorkerStat::NotWorker;
    };
    let mut fields = stat[close + 1..].split_whitespace();
    let state = fields.next().and_then(|f| f.chars().next());
    let cpu = fields.nth(35).and_then(|f| f.parse::<u16>().ok());
    match (state, cpu) {
        (Some(state), Some(cpu)) => WorkerStat::Worker(Tid(idx), state, cpu),
        _ => WorkerStat::Malformed,
    }
}

/// Spawns one OS thread per client running the workload's phases; every
/// client of a barrier group finishes phase `p` before any starts
/// `p + 1`, mirroring the simulated clients' phase barrier.
fn spawn_client_threads(
    engine: &Arc<ParEngine>,
    workload: &volcano_db::client::Workload,
    clients: usize,
    start_after: std::time::Duration,
    sinks: &Arc<ClientSinks>,
    t0: Instant,
) -> Vec<std::thread::JoinHandle<()>> {
    let barrier = Arc::new(Barrier::new(clients));
    (0..clients)
        .map(|idx| {
            let engine = Arc::clone(engine);
            let phases = materialize_phases(workload, idx);
            let barrier = Arc::clone(&barrier);
            let sinks = Arc::clone(sinks);
            std::thread::Builder::new()
                .name(format!("emca-client{idx}"))
                .spawn(move || {
                    if !start_after.is_zero() {
                        std::thread::sleep(start_after);
                    }
                    let mut mine = Vec::new();
                    let mut failed: Option<String> = None;
                    for phase in phases {
                        // Keep hitting the barrier even after a failure:
                        // peers block on every phase boundary.
                        barrier.wait();
                        if failed.is_some() {
                            continue;
                        }
                        for spec in phase {
                            let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                            match engine.wait_result(qid) {
                                Ok(r) => mine.push(r),
                                Err(e) => {
                                    failed = Some(format!("client {idx}: {e}"));
                                    break;
                                }
                            }
                        }
                    }
                    lock(&sinks.results).extend(mine);
                    if let Some(e) = failed {
                        lock(&sinks.errors).push(e);
                    }
                    sinks.finish(wall_now(t0));
                })
                // emca-lint: allow(panic-freedom) — construction-time spawn failure (thread exhaustion) happens before the run starts; nothing to degrade to
                .expect("spawn client thread")
        })
        .collect()
}

/// One tenant's sinks, shared between its client threads and the
/// driver.
#[derive(Default)]
struct ClientSinks {
    results: Mutex<Vec<QueryResult>>,
    /// `"client <n>: <error>"` per failed client.
    errors: Mutex<Vec<String>>,
    /// The latest finish stamp (the clients' arrival until one
    /// finishes).
    finished_at: Mutex<SimTime>,
    /// Clients still running.
    remaining: AtomicUsize,
}

impl ClientSinks {
    /// One client finished at `now`.
    fn finish(&self, now: SimTime) {
        let mut last = lock(&self.finished_at);
        if now > *last {
            *last = now;
        }
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The thread pools as the lifecycle's substrate: the wall clock, one
/// [`ParEngine`] per tenant over the shared base data, and client
/// threads that sleep out their own `start_after`. A managed tenant's
/// active workers are exactly the cores it owns on the shared arbiter,
/// and its SLA governor wraps its policy as on sim: core ceilings hold
/// under every arbiter mode, power budgets are judged on measured busy
/// time, and traffic budgets never trip (a pool measures no
/// interconnect). Arbitration cost is the wall-clock duration of each
/// executed control step.
pub(crate) struct PoolSubstrate {
    base: Arc<BaseData>,
    width: usize,
    t0: Instant,
    /// The wall-clock run-abort deadline.
    deadline: SimDuration,
    tracer: Option<ProcTracer>,
}

impl PoolSubstrate {
    pub(crate) fn new(run: &RunConfig, data: &TpchData) -> Self {
        PoolSubstrate {
            base: Arc::new(BaseData::from_tpch(data)),
            width: capacity(),
            t0: Instant::now(),
            deadline: wall_deadline(run.deadline),
            tracer: run.trace_sched.then(ProcTracer::new),
        }
    }
}

/// One tenant on the thread pools: its pool and its client threads.
pub(crate) struct PoolTenant {
    pool: Pool,
    /// Where the pool's clock read zero on the lifecycle's: its
    /// [`QueryResult`] stamps are shifted by this at retirement.
    clock_offset: SimDuration,
    sinks: Arc<ClientSinks>,
    handles: Vec<std::thread::JoinHandle<()>>,
    sample_completed: u64,
}

impl Substrate for PoolSubstrate {
    type Tenant = PoolTenant;
    const DEADLINE_HINT: &'static str = "RunConfig::deadline or EMCA_RUN_DEADLINE_S";
    const SAMPLES_AT_EDGES: bool = true;

    fn width(&self) -> usize {
        self.width
    }

    fn deadline(&self) -> SimDuration {
        self.deadline
    }

    fn now(&self) -> SimTime {
        wall_now(self.t0)
    }

    /// A machine-width pool — the OS baseline hands every client a
    /// worker instead (thread-per-client, no elasticity), and a static
    /// slot runs only its slice active — plus its client threads, which
    /// sleep until `arrives`.
    fn install(
        &mut self,
        instance: &RunConfig,
        tcfg: &TenantRunConfig,
        slice: Option<Range<usize>>,
        control: Option<Control>,
        arrives: SimTime,
    ) -> PoolTenant {
        let os_baseline = control.is_none() && slice.is_none();
        let n_workers = self.width.max(if os_baseline { tcfg.clients } else { 0 });
        let (base, tenancy) = (Arc::clone(&self.base), control.map(|c| (tcfg, c)));
        let pool = Pool::start(n_workers, base, instance, arrives, tenancy);
        let clock_offset = self.now().since(pool.engine.now());
        if let Some(slice) = slice {
            pool.engine.set_active(slice.len());
        }
        let sinks = Arc::new(ClientSinks {
            remaining: AtomicUsize::new(tcfg.clients),
            finished_at: Mutex::new(arrives),
            ..ClientSinks::default()
        });
        let handles = spawn_client_threads(
            &pool.engine,
            &tcfg.workload,
            tcfg.clients,
            std::time::Duration::from_nanos(arrives.since(self.now()).as_nanos()),
            &sinks,
            self.t0,
        );
        PoolTenant {
            pool,
            clock_offset,
            sinks,
            handles,
            sample_completed: 0,
        }
    }

    fn finished(&self, t: &PoolTenant, _now: SimTime) -> Option<SimTime> {
        let done = t.sinks.remaining.load(Ordering::SeqCst) == 0;
        done.then(|| *lock(&t.sinks.finished_at))
    }

    /// One poll's sleep, then the wall clock (and, when due, the
    /// scheduling trace). This sleep is the backend's only wait.
    fn advance(&mut self) -> SimTime {
        std::thread::sleep(POLL);
        let now = wall_now(self.t0);
        if let Some(tr) = self.tracer.as_mut().filter(|tr| now >= tr.next) {
            tr.sample(now);
            tr.next = now + TRACE_EVERY;
        }
        now
    }

    fn control_due(&self, t: &PoolTenant, now: SimTime) -> bool {
        t.pool.control_due(now)
    }

    /// A serving tenant's requests arrive, dispatch and resolve first —
    /// the tenant finishes with its door — then the pool's control step
    /// runs if due, its demand including the door's backlog.
    fn poll(&mut self, l: &mut Life<'_, PoolTenant>, now: SimTime) -> u64 {
        let pool = &mut l.on.pool;
        let mut queue_depth = 0;
        if let Some(door) = l.door.as_mut() {
            if l.finished_at.is_none() {
                l.finished_at = door.step(now, &mut pool.engine);
            }
            queue_depth = door.queue_depth();
        }
        pool.control(now, queue_depth)
    }

    /// CPU load, active workers and completions per second over the
    /// window since the previous sample.
    fn sample(&mut self, t: &mut PoolTenant, out: &mut TenantOutput, now: SimTime) {
        let (u, window) = t.pool.sample(now);
        let completed = t.pool.engine.stats().queries_completed;
        let qps = window.rate_per_sec(completed - t.sample_completed);
        t.sample_completed = completed;
        out.load_series.push(now, u);
        out.cores_series.push(now, t.pool.engine.active() as f64);
        out.qps_series.push(now, qps);
    }

    /// Clients joined (a panicked client is a driver-thread tripwire),
    /// results moved onto the lifecycle's clock, engine counters and
    /// transition log taken, and — with the tenant's last pool `Arc`
    /// going out of scope — its workers shut down.
    fn retire(&mut self, t: PoolTenant, out: &mut TenantOutput) -> Vec<String> {
        let joined = t.handles.into_iter().map(|h| h.join());
        let panicked = joined.filter(Result::is_err).count();
        assert!(panicked == 0, "{panicked} client thread(s) panicked");
        if let Some(c) = t.pool.controller {
            out.sla_violations = c.violations();
            out.transitions = c.events;
        }
        out.results = std::mem::take(&mut *lock(&t.sinks.results));
        for r in &mut out.results {
            r.submitted += t.clock_offset;
            r.finished += t.clock_offset;
        }
        out.engine = t.pool.engine.stats();
        out.tomograph = t.pool.engine.tomograph();
        std::mem::take(&mut *lock(&t.sinks.errors))
    }

    /// No hardware counters or scheduler: zero snapshots, empty series,
    /// and the host CPUs the workers were seen on when tracing.
    fn finish(self) -> MachineRecord {
        let no_counters = HwCounters::new(0, 0, 0).snapshot();
        MachineRecord {
            hw_before: no_counters.clone(),
            hw_after: no_counters,
            sched: SchedStats::default(),
            imc_series: socket_series(MachineConfig::opteron_4x4().topology.n_nodes()),
            ht_series: TimeSeries::new("HT"),
            trace: self.tracer.map(|t| t.finish(wall_now(self.t0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_worker_stat, WorkerStat};
    use os_sim::Tid;

    #[test]
    fn sla_core_cap_holds_on_threads_under_fair_share() {
        // FairShare enforces no budget, so only the tenant's SLA
        // governor — wrapped around its policy exactly as on sim — can
        // hold eight hungry clients to two workers.
        use crate::{Backend, MultiTenantConfig, TenantRunConfig};
        use elastic_core::{ArbiterMode, SlaPolicy};
        use emca_metrics::SimDuration;
        use volcano_db::client::Workload;
        use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
        let data = TpchData::generate(TpchScale::test_tiny());
        let q6 = |iterations| Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations,
        };
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("capped", q6(12), 8).with_sla(SlaPolicy::cores(2)),
                TenantRunConfig::new("free", q6(12), 8),
            ],
        )
        .with_scale(data.scale)
        .with_sample_every(SimDuration::from_micros(500))
        .with_backend(Backend::Threads);
        let out = crate::run_tenants(cfg, &data);
        let capped = out.tenant("capped").unwrap();
        assert_eq!(capped.results.len(), 12 * 8, "the cap must not starve it");
        assert!(capped.control_steps > 0);
        // The clock is read only around polls with a step due, yet
        // every executed step is counted and timed.
        let steps: u64 = out.tenants.iter().map(|t| t.control_steps).sum();
        assert_eq!(out.arbiter_ticks, steps, "every control step is measured");
        assert!(
            capped.cores_max() <= 2.0,
            "capped tenant ran {} workers",
            capped.cores_max()
        );
    }

    #[test]
    #[should_panic(expected = "run hit the deadline")]
    fn a_threads_run_past_its_deadline_aborts() {
        // The wall-clock deadline (no `EMCA_RUN_DEADLINE_S` set) stops
        // the lifecycle as the simulated one does.
        use crate::{run, Alloc, Backend, RunConfig};
        use emca_metrics::SimDuration;
        use volcano_db::client::Workload;
        use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
        let data = TpchData::generate(TpchScale::test_tiny());
        let q6 = Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: 50,
        };
        let mut cfg = RunConfig::new(Alloc::Adaptive, 4, q6)
            .with_scale(data.scale)
            .with_backend(Backend::Threads);
        cfg.deadline = SimDuration::from_millis(1);
        run(cfg, &data);
    }

    #[test]
    fn threads_errors_name_their_tenant() {
        // Each tenant drains its own error sink, so a multi-tenant
        // threads run attributes every failed query as sim does.
        use crate::{Backend, MultiTenantConfig, TenantRunConfig};
        use elastic_core::ArbiterMode;
        use volcano_db::client::Workload;
        use volcano_db::exec::FaultPlan;
        use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
        let data = TpchData::generate(TpchScale::test_tiny());
        let q6 = Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: 8,
        };
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("a", q6.clone(), 2),
                TenantRunConfig::new("b", q6, 2),
            ],
        )
        .with_scale(data.scale)
        .with_faults(FaultPlan::default().with_badquery(0.5))
        .with_backend(Backend::Threads);
        let out = crate::run_tenants(cfg, &data);
        assert!(!out.errors.is_empty(), "rate=0.5 must poison some queries");
        for e in &out.errors {
            assert!(
                e.starts_with("a: client ") || e.starts_with("b: client "),
                "an error must name its tenant and client: {e:?}"
            );
        }
    }

    #[test]
    fn threads_churn_stamps_results_on_the_run_clock() {
        // One resident slot: each tenant's pool is built when the one
        // before it departs, so a stamp on that pool's own clock would
        // land before its tenant started.
        use crate::{Backend, ChurnSpec, MultiTenantConfig};
        use elastic_core::ArbiterMode;
        use emca_metrics::SimDuration;
        use volcano_db::tpch::{TpchData, TpchScale};
        let data = TpchData::generate(TpchScale::test_tiny());
        let plan = ChurnSpec::parse("3:resident=1:spread=0")
            .unwrap()
            .plan(42, 2, 12);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_resident_cap(plan.resident)
            .with_backend(Backend::Threads);
        let out = crate::run_tenants(cfg, &data);
        let slack = SimDuration::from_millis(1);
        for t in &out.tenants {
            assert!(!t.results.is_empty(), "{} ran no query", t.config.name);
            for r in &t.results {
                assert!(
                    r.submitted + slack >= t.started_at && r.finished <= t.finished_at + slack,
                    "{}: result [{:?}, {:?}] outside its tenant's [{:?}, {:?}]",
                    t.config.name,
                    r.submitted,
                    r.finished,
                    t.started_at,
                    t.finished_at
                );
            }
        }
    }

    #[test]
    fn serve_threads_accounts_for_every_request() {
        use crate::{
            run_serve, AdmissionSpec, Alloc, ArrivalSchedule, Backend, RequestOutcome, RunConfig,
            ServeConfig,
        };
        use emca_metrics::SimDuration;
        use volcano_db::client::Workload;
        use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
        let data = TpchData::generate(TpchScale::test_tiny());
        let serve = |alloc| {
            let base = RunConfig::new(
                alloc,
                0,
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: 0,
                },
            )
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(5))
            .with_backend(Backend::Threads);
            let cfg = ServeConfig {
                base,
                schedule: ArrivalSchedule::poisson(200.0, SimDuration::from_millis(300), 42),
                admission: AdmissionSpec::Limit {
                    max_inflight: 4,
                    queue: Some(16),
                },
                sla: SimDuration::from_millis(200),
                drain: SimDuration::from_secs(2),
                retry: None,
                request_deadline: None,
            };
            run_serve(&cfg, &data)
        };
        for alloc in [Alloc::Adaptive, Alloc::OsAll] {
            let out = serve(alloc);
            let resolved: usize = [
                RequestOutcome::Completed,
                RequestOutcome::ShedGate,
                RequestOutcome::ShedTimeout,
                RequestOutcome::Unfinished,
                RequestOutcome::Failed,
            ]
            .into_iter()
            .map(|o| out.count(o))
            .sum();
            assert_eq!(
                resolved, out.offered,
                "{alloc:?}: every request needs an outcome"
            );
            assert_eq!(out.records.len(), out.offered);
            assert!(out.count(RequestOutcome::Completed) > 0, "{alloc:?}");
            assert!(!out.cores_series.is_empty() && !out.queue_series.is_empty());
            if alloc == Alloc::OsAll {
                // The unmanaged baseline: a machine-width pool, all of
                // it active throughout, and no controller.
                assert!(out.transitions.is_empty(), "baseline has no controller");
                let width = super::capacity() as f64;
                assert!(
                    out.cores_series.samples().iter().all(|&(_, c)| c == width),
                    "every worker of the {width}-wide pool stays active"
                );
            } else {
                assert!(!out.transitions.is_empty(), "the controller must step");
            }
        }
    }

    /// A stat line for `comm` with `state` and `processor` in the field
    /// positions the kernel uses (processor is the 37th field after the
    /// comm's closing parenthesis).
    fn stat_line(comm: &str, state: &str, cpu: &str) -> String {
        let filler = "0 ".repeat(35);
        format!("4242 ({comm}) {state} {filler}{cpu} 0 0")
    }

    #[test]
    fn parses_a_running_worker() {
        let line = stat_line("emca-worker3", "R", "7");
        assert_eq!(parse_worker_stat(&line), WorkerStat::Worker(Tid(3), 'R', 7));
    }

    #[test]
    fn comm_with_spaces_and_parens_is_not_a_worker() {
        // The comm field may contain anything, including parentheses;
        // fields must be counted from the LAST closing parenthesis.
        let line = stat_line("evil) R comm (x", "S", "2");
        assert_eq!(parse_worker_stat(&line), WorkerStat::NotWorker);
    }

    #[test]
    fn other_threads_are_not_workers() {
        assert_eq!(
            parse_worker_stat(&stat_line("emca-client0", "R", "1")),
            WorkerStat::NotWorker
        );
        assert_eq!(
            parse_worker_stat(&stat_line("bash", "S", "0")),
            WorkerStat::NotWorker
        );
        assert_eq!(parse_worker_stat("no parens at all"), WorkerStat::NotWorker);
    }

    #[test]
    fn truncated_worker_lines_are_malformed_not_fatal() {
        // A worker-named line missing the processor field must degrade
        // to Malformed (skip-and-count), never panic or misparse.
        assert_eq!(
            parse_worker_stat("4242 (emca-worker1) S 0 0"),
            WorkerStat::Malformed
        );
        assert_eq!(
            parse_worker_stat("4242 (emca-worker1)"),
            WorkerStat::Malformed
        );
        // Non-numeric processor field.
        let line = stat_line("emca-worker2", "R", "x");
        assert_eq!(parse_worker_stat(&line), WorkerStat::Malformed);
    }
}
