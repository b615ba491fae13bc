//! Real-parallel execution backend: dedicated OS-thread workers driving
//! the `exec::dataflow` state machine.
//!
//! [`ParEngine`] spawns `n_workers` OS threads up front. The pool mutex
//! guards one `Flow` per in-flight query and the worker `Deques`;
//! this module adds what real threads need around them — the lock and
//! condvars, parking, generations, heartbeats, `catch_unwind` and the
//! watchdog. The elastic mechanism actuates the pool for real:
//! *grow/shrink* park and unpark workers ([`ParEngine::set_active`]),
//! *placement* is the unpark order ([`ParEngine::set_wake_order`] —
//! advisory, since the workspace has no affinity syscalls; see
//! `docs/ARCHITECTURE.md`).
//!
//! Tasks are scheduled at width `n_workers`, never the active count, so
//! shrinking the pool changes timing, not answers. There is no memo
//! cache here: every execution is real work, which is the point of this
//! backend.
//!
//! ## Failure model
//!
//! A panic inside operator evaluation must not poison the pool mutex
//! and wedge every parked peer. Evaluation and assembly run under
//! `catch_unwind`; a panicking worker marks itself **dead**, drains its
//! deque back to the global queue, fails the offending query with a
//! typed [`QueryError`], and exits its thread. Survivors keep serving
//! (dead workers are skipped in the wake order), and when the last
//! worker dies every in-flight and future query fails fast with
//! [`QueryError::PoolDead`]. All lock acquisitions recover from
//! poisoning (`unwrap_or_else(PoisonError::into_inner)`) so a panic
//! elsewhere can never wedge the pool either.
//!
//! ## Self-healing
//!
//! Panics are *permanent* deaths (the worker is provably wedged on a
//! deterministic input), but workers can also go dark without a panic:
//! an injected fault ([`FaultPlan`]), a scheduling stall, a hung
//! syscall. Every worker bumps a per-worker heartbeat counter once per
//! loop iteration (parked workers wake on a timeout to keep beating),
//! and a **watchdog** thread sweeps the counters. A heartbeat frozen
//! for [`ParEngineConfig::stall_after`] gets recovered: the watchdog
//! bumps the worker's *generation*, requeues the one task the worker
//! was holding (`running[idx]`) only while `Flow::uncommitted` holds
//! for it, drains the worker's deque back to the global queue, respawns
//! a replacement thread under the new generation, and counts the repair
//! in [`EngineStats::engine_recoveries`] /
//! [`EngineStats::recovery_ms`]. A superseded worker that turns out to
//! be merely slow discovers the generation bump at its next lock
//! acquisition and exits without committing, and `Flow::commit`
//! drops every copy of a partition after the first, so a watchdog false
//! positive can duplicate *work* but never a *result*.

use crate::exec::dataflow::{Commit, Deques, Flow};
use crate::exec::engine::{
    assemble_parts, evaluate_partition_on, EngineStats, ExecInputs, QueryResult,
};
use crate::exec::fault::{FaultClock, FaultPlan, WorkerFaultKind};
use crate::exec::mat::Mat;
use crate::exec::plan::{ColRef, NodeId, Plan};
use crate::exec::task::{QueryId, Task};
use crate::exec::tomograph::Tomograph;
use crate::storage::bat::ColData;
use crate::tpch::gen::TpchData;
use emca_metrics::{FxHashMap, SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a query produced no result. The pool stays serviceable after
/// either: callers decide whether to retry, shed, or abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A worker panicked evaluating this query's operator; the worker is
    /// dead and the pool degraded to the survivors.
    WorkerPanicked {
        /// MAL name of the operator that was evaluating.
        op: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Every worker has died; the pool cannot execute anything.
    PoolDead,
    /// The query was poisoned at the front door by the armed
    /// [`FaultPlan`] (`badquery:rate=…`); it never reached a worker.
    BadQuery,
    /// An internal dataflow invariant broke (a bug, reported instead of
    /// unwound).
    Internal(&'static str),
}

impl QueryError {
    /// Whether resubmitting the same query can plausibly succeed: the
    /// serve-path retry policy retries worker deaths (another worker —
    /// possibly a watchdog respawn — can run it) but not poisoned
    /// queries (deterministically poisoned again) or internal bugs.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            QueryError::WorkerPanicked { .. } | QueryError::PoolDead
        )
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::WorkerPanicked { op, message } => {
                write!(f, "worker panicked in {op}: {message}")
            }
            QueryError::PoolDead => write!(f, "every pool worker has died"),
            QueryError::BadQuery => write!(f, "query poisoned by the armed fault plan"),
            QueryError::Internal(what) => write!(f, "internal engine invariant broke: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Immutable base-table columns shared by every worker (all `Arc`-backed,
/// so cloning a snapshot is pointer-cheap).
pub struct BaseData {
    cols: FxHashMap<(&'static str, &'static str), ColData>,
    rows: FxHashMap<&'static str, usize>,
}

impl BaseData {
    /// Snapshots the generated database for lock-free worker reads.
    pub fn from_tpch(data: &TpchData) -> Self {
        let mut cols = FxHashMap::default();
        let mut rows = FxHashMap::default();
        for table in &data.tables {
            for gc in &table.columns {
                rows.entry(table.name).or_insert_with(|| gc.data.len());
                cols.insert((table.name, gc.name), gc.data.clone());
            }
        }
        BaseData { cols, rows }
    }

    fn col(&self, c: &ColRef) -> &ColData {
        self.cols
            .get(&(c.table, c.column))
            // emca-lint: allow(panic-freedom) — plan/catalog mismatch is a construction bug; workers evaluate under catch_unwind, so this fails the query, not the pool
            .unwrap_or_else(|| panic!("unknown column {}.{}", c.table, c.column))
    }

    fn rows(&self, table: &str) -> usize {
        *self
            .rows
            .get(table)
            // emca-lint: allow(panic-freedom) — plan/catalog mismatch is a construction bug; workers evaluate under catch_unwind, so this fails the query, not the pool
            .unwrap_or_else(|| panic!("unknown table {table}"))
    }
}

/// [`ExecInputs`] over a lock-free snapshot: base columns plus the mats
/// of already-finished nodes, cloned under the lock before evaluation.
struct Snapshot<'a> {
    base: &'a BaseData,
    mats: &'a [Option<Mat>],
}

impl ExecInputs for Snapshot<'_> {
    fn col_data(&self, c: &ColRef) -> &ColData {
        self.base.col(c)
    }

    fn node_mat(&self, n: NodeId) -> &Mat {
        // emca-lint: allow(panic-freedom) — dataflow ordering invariant; only reachable inside catch_unwind (evaluate/assemble), so it fails the query, not the pool
        self.mats[n.idx()].as_ref().expect("input mat ready")
    }
}

/// Everything behind the pool mutex.
struct State {
    queries: FxHashMap<u64, Flow<Arc<Plan>>>,
    next_qid: u64,
    deques: Deques,
    /// `rank_of[worker]` — a worker runs while its rank (among live
    /// workers) is below `active`; the mechanism's placement preference
    /// is expressed by permuting ranks ([`ParEngine::set_wake_order`]).
    rank_of: Vec<usize>,
    active: usize,
    shutdown: bool,
    /// Workers that panicked and exited; skipped in the wake order and
    /// never scheduled to again.
    dead: Vec<bool>,
    n_dead: usize,
    /// The one task each worker popped and is evaluating right now.
    /// Set at pop, cleared at commit (both under this mutex): if the
    /// worker dies in between, the watchdog requeues it exactly once.
    running: Vec<Option<Task>>,
    /// Incarnation counter per worker slot. The watchdog bumps it when
    /// it recovers a worker; a thread whose generation no longer
    /// matches has been superseded and must exit without committing.
    worker_gen: Vec<u64>,
    results: FxHashMap<u64, Result<QueryResult, QueryError>>,
    stats: EngineStats,
    tomograph: Tomograph,
    /// Total worker-busy wall nanoseconds (the pool controller's CPU-load
    /// signal).
    busy_ns: u64,
}

impl State {
    /// This worker's rank counting live workers only, so dead workers
    /// are transparently skipped by grow/shrink.
    fn live_rank(&self, idx: usize) -> usize {
        let mine = self.rank_of[idx];
        (0..self.rank_of.len())
            .filter(|&w| !self.dead[w] && self.rank_of[w] < mine)
            .count()
    }
}

/// An armed fault plan's clock and the wall-clock zero its offsets are
/// measured from.
struct FaultsRt {
    clock: FaultClock,
    t0: Instant,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for tasks or unparking.
    work: Condvar,
    /// Clients wait here for query completion.
    done: Condvar,
    /// The watchdog parks here between sweeps; only shutdown notifies.
    halt: Condvar,
    base: Arc<BaseData>,
    n_workers: usize,
    epoch: Instant,
    cfg: ParEngineConfig,
    /// Per-worker liveness counters, bumped once per worker loop
    /// iteration; the watchdog's only health signal.
    heartbeats: Vec<AtomicU64>,
    /// The armed fault plan, if any ([`ParEngine::arm_faults`]).
    faults: Mutex<Option<FaultsRt>>,
    /// Fast-path gate so un-faulted runs never touch the `faults`
    /// mutex (the fault plane must be fully inert when unused).
    faults_armed: AtomicBool,
    /// Worker thread handles — shared (not on [`ParEngine`]) because
    /// the watchdog pushes respawned workers here too.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Locks the pool state, recovering from poisoning: the invariants
    /// behind this mutex are repaired by the dead-worker path, never
    /// abandoned mid-update (updates happen outside the lock and commit
    /// under it), so a poisoned guard's data is still consistent.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wall-clock time since pool start, as simulation time.
    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Waits for work with a bounded park so the worker keeps
    /// heartbeating: a worker that waited forever would be
    /// indistinguishable from a dead one.
    fn wait_work_timeout<'a>(
        &self,
        guard: MutexGuard<'a, State>,
        dur: Duration,
    ) -> MutexGuard<'a, State> {
        self.work
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    fn wait_done<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.done
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// How long a parked worker sleeps between heartbeats: well inside
    /// the watchdog's stall window so idle workers never look dead.
    fn worker_poll(&self) -> Duration {
        (self.cfg.stall_after / 4).clamp(Duration::from_millis(1), Duration::from_millis(50))
    }

    /// Pops the next due fault for worker `idx`, if any. Each scheduled
    /// fault fires at most once; with no plan armed this is a single
    /// relaxed atomic load.
    fn due_fault(&self, idx: usize) -> Option<WorkerFaultKind> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut guard = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
        let rt = guard.as_mut()?;
        let elapsed = SimDuration::from_nanos(rt.t0.elapsed().as_nanos() as u64);
        rt.clock.due(idx, elapsed)
    }

    /// Whether the armed fault plan poisons query `qid` (deterministic
    /// in the plan seed and qid; see [`FaultPlan::bad_query`]).
    fn query_poisoned(&self, qid: u64) -> bool {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return false;
        }
        let guard = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().is_some_and(|rt| rt.clock.poisons(qid))
    }
}

/// Registers a worker thread handle for join-at-shutdown.
fn push_handle(shared: &Shared, h: JoinHandle<()>) {
    shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(h);
}

/// Construction parameters for the thread pool.
#[derive(Clone, Copy, Debug)]
pub struct ParEngineConfig {
    /// Pool size — also the scheduling width that decides partition
    /// counts (match the simulated machine's core count for sim/threads
    /// result equivalence).
    pub n_workers: usize,
    /// Workers unparked at start (the rest wait for
    /// [`ParEngine::set_active`]).
    pub initial_active: usize,
    /// How long a worker's heartbeat may stay frozen before the
    /// watchdog declares it dead/stalled and recovers it. Must comfortably
    /// exceed one operator-partition evaluation (a worker does not beat
    /// mid-evaluation); false positives are safe but waste work.
    pub stall_after: Duration,
    /// Watchdog sweep interval.
    pub sweep: Duration,
}

impl Default for ParEngineConfig {
    fn default() -> Self {
        ParEngineConfig {
            n_workers: 1,
            initial_active: 1,
            stall_after: Duration::from_millis(500),
            sweep: Duration::from_millis(50),
        }
    }
}

/// The real-parallel engine: a worker pool plus the dataflow state.
pub struct ParEngine {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl ParEngine {
    /// Spawns the pool. All `n_workers` threads start immediately;
    /// workers ranked at or above `initial_active` park until grown. A
    /// watchdog thread sweeps worker heartbeats from the start — self-
    /// healing is always on, fault plan or not.
    pub fn new(cfg: ParEngineConfig, base: Arc<BaseData>) -> Self {
        let n = cfg.n_workers.max(1);
        let cfg = ParEngineConfig {
            n_workers: n,
            ..cfg
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queries: FxHashMap::default(),
                next_qid: 0,
                deques: Deques::new(n),
                rank_of: (0..n).collect(),
                active: cfg.initial_active.clamp(1, n),
                shutdown: false,
                dead: vec![false; n],
                n_dead: 0,
                running: vec![None; n],
                worker_gen: vec![0; n],
                results: FxHashMap::default(),
                stats: EngineStats::default(),
                tomograph: Tomograph::new(),
                busy_ns: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            halt: Condvar::new(),
            base,
            n_workers: n,
            epoch: Instant::now(),
            cfg,
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            faults: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
            handles: Mutex::new(Vec::with_capacity(n + 4)),
        });
        for idx in 0..n {
            let worker = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("emca-worker{idx}"))
                .spawn(move || worker_loop(worker, idx, 0))
                // emca-lint: allow(panic-freedom) — construction-time spawn failure (fd/thread exhaustion) happens before any query exists; nothing to degrade to
                .expect("spawn worker thread");
            push_handle(&shared, h);
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("emca-watchdog".to_string())
                .spawn(move || watchdog_loop(shared))
                // emca-lint: allow(panic-freedom) — construction-time spawn failure happens before any query exists; nothing to degrade to
                .expect("spawn watchdog thread")
        };
        ParEngine {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// Arms a deterministic fault plan: worker faults fire at their
    /// offsets measured from *now*, and `badquery` poisoning applies to
    /// every later submission. Arm once, before the run's first query;
    /// an empty plan is a no-op (the fault plane stays fully inert).
    pub fn arm_faults(&self, plan: &FaultPlan, seed: u64) {
        let Some(clock) = FaultClock::arm(plan, seed) else {
            return;
        };
        let mut guard = self
            .shared
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(FaultsRt {
            clock,
            t0: Instant::now(),
        });
        drop(guard);
        self.shared.faults_armed.store(true, Ordering::Relaxed);
    }

    /// Workers the allocator may still count on: pool width minus
    /// permanently dead (panicked or unrespawnable) workers. Watchdog-
    /// recovered workers stay live; the elastic controller clamps its
    /// allocation to this so claims stay honest during degradation.
    pub fn live_workers(&self) -> usize {
        self.shared.n_workers - self.shared.lock_state().n_dead
    }

    /// Pool size (scheduling width).
    pub fn n_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// Workers that have panicked and exited.
    pub fn dead_workers(&self) -> usize {
        self.shared.lock_state().n_dead
    }

    /// Wall-clock time since pool start, as simulation time (both
    /// backends report [`QueryResult`] stamps on the same axis).
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Submits a query; workers are notified immediately. The result is
    /// fetched with [`ParEngine::wait_result`]. On a fully dead pool the
    /// query fails fast with [`QueryError::PoolDead`] instead of queuing
    /// forever.
    pub fn submit(&self, plan: Arc<Plan>, spec_tag: u32) -> QueryId {
        assert!(!plan.is_empty(), "cannot submit an empty plan");
        let submitted = self.now();
        let mut st = self.shared.lock_state();
        let qid = st.next_qid;
        st.next_qid += 1;
        st.stats.queries_submitted += 1;
        let pool_dead =
            |st: &State| (st.n_dead == self.shared.n_workers).then_some(QueryError::PoolDead);
        let mut refused = pool_dead(&st);
        if refused.is_none() && self.shared.faults_armed.load(Ordering::Relaxed) {
            // The poison draw locks the fault plan; take it outside the
            // state lock (the qid is already allocated, so the draw is
            // deterministic regardless of the interleaving). The pool may
            // have fully died by the time the lock is back.
            drop(st);
            let poisoned = self.shared.query_poisoned(qid);
            st = self.shared.lock_state();
            refused = if poisoned {
                Some(QueryError::BadQuery)
            } else {
                pool_dead(&st)
            };
        }
        if let Some(error) = refused {
            st.results.insert(qid, Err(error));
            drop(st);
            self.shared.done.notify_all();
            return QueryId(qid);
        }
        let (flow, sources) = Flow::new(QueryId(qid), plan, spec_tag, submitted);
        st.queries.insert(qid, flow);
        for node in sources {
            schedule_node(&mut st, &self.shared, qid, node);
        }
        drop(st);
        self.shared.work.notify_all();
        QueryId(qid)
    }

    /// Non-blocking result fetch: returns `qid`'s outcome if it has
    /// completed (or failed), `None` while still in flight. The serving
    /// dispatcher polls this for every in-flight request instead of
    /// blocking per query.
    pub fn try_result(&self, qid: QueryId) -> Option<Result<QueryResult, QueryError>> {
        self.shared.lock_state().results.remove(&qid.0)
    }

    /// Blocks until `qid` completes and returns its outcome. A query
    /// whose worker panicked resolves to `Err` instead of hanging.
    pub fn wait_result(&self, qid: QueryId) -> Result<QueryResult, QueryError> {
        let mut st = self.shared.lock_state();
        loop {
            if let Some(r) = st.results.remove(&qid.0) {
                return r;
            }
            // Unknown qid on a dead pool would otherwise wait forever.
            if !st.queries.contains_key(&qid.0) && st.n_dead == self.shared.n_workers {
                return Err(QueryError::PoolDead);
            }
            st = self.shared.wait_done(st);
        }
    }

    /// Unparks the first `n` live workers in wake order and parks the
    /// rest (the pool analogue of the simulator's cpuset grow/shrink). A
    /// worker mid-task finishes its task before re-checking its rank, so
    /// shrink has the same finish-current-slice semantics as the
    /// simulated actuation. Clamped to `1..=n_workers`.
    pub fn set_active(&self, n: usize) {
        let mut st = self.shared.lock_state();
        st.active = n.clamp(1, self.shared.n_workers);
        drop(st);
        self.shared.work.notify_all();
    }

    /// Currently unparked workers.
    pub fn active(&self) -> usize {
        self.shared.lock_state().active
    }

    /// Sets the unpark order: `order[r]` is the worker holding rank `r`,
    /// and ranks below the active count run. This is how a placement
    /// mode expresses *which* workers an allocation uses (dense packs
    /// neighbours, sparse strides across groups); without OS affinity
    /// syscalls in this workspace it is advisory. Workers absent from
    /// `order` keep ranks above every listed one (never scheduled while
    /// the listed workers cover the active count).
    pub fn set_wake_order(&self, order: &[usize]) {
        let n = self.shared.n_workers;
        let mut st = self.shared.lock_state();
        let mut next_rank = order.len();
        let mut seen = vec![false; n];
        for (rank, &w) in order.iter().enumerate() {
            assert!(w < n, "wake order names worker {w} of a {n}-wide pool");
            assert!(!seen[w], "wake order repeats worker {w}");
            seen[w] = true;
            st.rank_of[w] = rank;
        }
        for (w, seen) in seen.iter().enumerate() {
            if !seen {
                st.rank_of[w] = next_rank;
                next_rank += 1;
            }
        }
        drop(st);
        self.shared.work.notify_all();
    }

    /// Number of in-flight queries.
    pub fn active_queries(&self) -> usize {
        self.shared.lock_state().queries.len()
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.lock_state().stats
    }

    /// Total worker-busy wall nanoseconds so far (monotone; the pool
    /// controller differences it for its CPU-load signal).
    pub fn busy_ns(&self) -> u64 {
        self.shared.lock_state().busy_ns
    }

    /// Per-operator statistics snapshot.
    pub fn tomograph(&self) -> Tomograph {
        self.shared.lock_state().tomograph.clone()
    }

    /// Stops and joins every worker and the watchdog. Called by
    /// `Drop`; explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        self.shared.halt.notify_all();
        // Watchdog first, so no new workers are respawned mid-join.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut handles = self
                .shared
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            handles.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for ParEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Splits a ready node into its partition tasks and enqueues them.
/// Tasks preferring a dead worker go to the global queue.
fn schedule_node(st: &mut State, shared: &Shared, qid: u64, node: NodeId) {
    let Some(q) = st.queries.get_mut(&qid) else {
        return; // query failed by a dying peer; nothing to schedule
    };
    let primary_len = q.primary_len(node, |t| shared.base.rows(t));
    for task in q.schedule(node, primary_len, shared.n_workers) {
        st.stats.tasks_created += 1;
        st.deques.push(task, &st.dead);
    }
}

/// Renders a `catch_unwind` payload for the [`QueryError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fails one query with a typed error and wakes its waiting client.
fn fail_query(shared: &Shared, st: &mut State, qid: u64, error: QueryError) {
    if st.queries.remove(&qid).is_some() {
        st.results.insert(qid, Err(error));
    }
    shared.done.notify_all();
}

/// The last live worker is gone: fail everything in flight fast
/// instead of queuing forever.
fn collapse_pool(st: &mut State) {
    let in_flight: Vec<u64> = st.queries.keys().copied().collect();
    for q in in_flight {
        st.queries.remove(&q);
        st.results.insert(q, Err(QueryError::PoolDead));
    }
    st.deques.clear();
}

/// The dead-worker path: marks `idx` dead, rehomes its queued tasks,
/// fails the query it was executing, and — when it was the last live
/// worker — fails everything else with [`QueryError::PoolDead`]. The
/// caller (the worker thread) returns right after. A *panicked* worker
/// is permanently dead: the panic was deterministic, so the watchdog
/// never respawns into it (`dead[idx]` is skipped in its sweep).
fn worker_dies(shared: &Shared, st: &mut State, idx: usize, qid: u64, error: QueryError) {
    eprintln!(
        "[par] worker {idx} died ({error}); pool degrades to {} live workers",
        shared.n_workers - st.n_dead - 1
    );
    st.running[idx] = None;
    st.dead[idx] = true;
    st.n_dead += 1;
    // Rehome tasks routed to this worker so lineage preferences cannot
    // strand them.
    st.deques.rehome(idx);
    fail_query(shared, st, qid, error);
    if st.n_dead == shared.n_workers {
        collapse_pool(st);
    }
    shared.work.notify_all();
    shared.done.notify_all();
}

/// One watchdog recovery: supersede worker `idx`'s generation, requeue
/// the task it was holding (exactly once — only if its partial was
/// never committed and the query is still live), rehome its deque, and
/// respawn a replacement thread under the new generation.
fn recover_worker(shared: &Arc<Shared>, idx: usize, downtime: Duration) {
    let gen = {
        let mut st = shared.lock_state();
        if st.shutdown || st.dead[idx] {
            return;
        }
        st.worker_gen[idx] += 1;
        let gen = st.worker_gen[idx];
        if let Some(task) = st.running[idx].take() {
            let open = st
                .queries
                .get(&task.qid.0)
                .is_some_and(|q| q.uncommitted(&task));
            if open {
                st.deques.global.push_back(task);
            }
        }
        st.deques.rehome(idx);
        st.stats.engine_recoveries += 1;
        st.stats.recovery_ms += downtime.as_secs_f64() * 1e3;
        gen
    };
    eprintln!(
        "[par] watchdog: worker {idx} unresponsive for {downtime:?}; requeued its work, respawning (gen {gen})"
    );
    // Spawn outside the state lock.
    let spawned = {
        let worker = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("emca-worker{idx}g{gen}"))
            .spawn(move || worker_loop(worker, idx, gen))
    };
    match spawned {
        Ok(h) => push_handle(shared, h),
        Err(e) => {
            // Cannot heal this slot: degrade it permanently, like a
            // panicked worker.
            eprintln!("[par] failed to respawn worker {idx} ({e}); pool degrades");
            let mut st = shared.lock_state();
            if !st.dead[idx] {
                st.dead[idx] = true;
                st.n_dead += 1;
                if st.n_dead == shared.n_workers {
                    collapse_pool(&mut st);
                }
            }
        }
    }
    shared.work.notify_all();
    shared.done.notify_all();
}

/// The watchdog: sweeps worker heartbeats every `cfg.sweep`; a live,
/// not-permanently-dead worker whose heartbeat stayed frozen for
/// `cfg.stall_after` is recovered via [`recover_worker`].
fn watchdog_loop(shared: Arc<Shared>) {
    let sweep = shared.cfg.sweep.max(Duration::from_millis(1));
    let stall_after = shared.cfg.stall_after.max(sweep);
    let n = shared.n_workers;
    let mut seen: Vec<u64> = (0..n)
        .map(|i| shared.heartbeats[i].load(Ordering::Relaxed))
        .collect();
    let mut since: Vec<Instant> = vec![Instant::now(); n];
    loop {
        let mut stalled: Vec<(usize, Duration)> = Vec::new();
        {
            // Park for one sweep; `shutdown` notifies `halt`, so
            // dropping a pool never waits out the interval.
            let (st, _) = shared
                .halt
                .wait_timeout_while(shared.lock_state(), sweep, |st| !st.shutdown)
                .unwrap_or_else(PoisonError::into_inner);
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            for i in 0..n {
                let beat = shared.heartbeats[i].load(Ordering::Relaxed);
                if beat != seen[i] {
                    seen[i] = beat;
                    since[i] = now;
                    continue;
                }
                if st.dead[i] {
                    continue;
                }
                let down = now.duration_since(since[i]);
                if down >= stall_after {
                    stalled.push((i, down));
                }
            }
        }
        for (idx, down) in stalled {
            recover_worker(&shared, idx, down);
            // The replacement starts a fresh heartbeat epoch.
            seen[idx] = shared.heartbeats[idx].load(Ordering::Relaxed);
            since[idx] = Instant::now();
        }
    }
}

/// The dedicated worker loop: park while ranked out of the allocation,
/// otherwise pop a task, snapshot its inputs under the lock, evaluate
/// outside it (under `catch_unwind`), and complete. `my_gen` is the
/// incarnation this thread was spawned under: a generation mismatch at
/// any lock acquisition means the watchdog superseded this worker (it
/// already requeued the in-flight task), so the thread exits without
/// committing anything.
fn worker_loop(shared: Arc<Shared>, idx: usize, my_gen: u64) {
    let poll = shared.worker_poll();
    loop {
        shared.heartbeats[idx].fetch_add(1, Ordering::Relaxed);
        // Injected faults fire between tasks, never mid-evaluation
        // (the idle-worker window; the post-pop window is below).
        match shared.due_fault(idx) {
            // Silent death: no bookkeeping, a frozen heartbeat is the
            // only trace. Recovery is the watchdog's job.
            Some(WorkerFaultKind::Kill) => return,
            Some(WorkerFaultKind::Stall(d)) => {
                std::thread::sleep(Duration::from_nanos(d.as_nanos()));
                continue; // re-beat; a long stall may have been superseded
            }
            None => {}
        }
        let mut st = shared.lock_state();
        if st.shutdown {
            return;
        }
        if st.worker_gen[idx] != my_gen {
            return; // superseded by a watchdog respawn
        }
        if st.live_rank(idx) >= st.active {
            drop(shared.wait_work_timeout(st, poll));
            continue;
        }
        let State { deques, stats, .. } = &mut *st;
        let Some(task) = deques.pop(idx, &mut stats.engine_steals) else {
            drop(shared.wait_work_timeout(st, poll));
            continue;
        };
        let qid = task.qid.0;

        // ---- snapshot inputs under the lock ---------------------------
        let Some(q) = st.queries.get(&qid) else {
            continue; // query failed by a dying peer; drop its task
        };
        let plan = Arc::clone(q.plan());
        let (start, end) = q.range(&task);
        let mats = q.mats();
        st.running[idx] = Some(task);
        drop(st);

        // Post-pop fault window: a kill here strands the popped task in
        // `running[idx]`, exactly what the watchdog's exactly-once
        // requeue must recover without losing or duplicating it.
        match shared.due_fault(idx) {
            Some(WorkerFaultKind::Kill) => return,
            Some(WorkerFaultKind::Stall(d)) => {
                std::thread::sleep(Duration::from_nanos(d.as_nanos()))
            }
            None => {}
        }

        // ---- evaluate outside the lock --------------------------------
        let op = plan.node(task.node);
        let inputs = Snapshot {
            base: &shared.base,
            mats: &mats,
        };
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            evaluate_partition_on(op, &inputs, start, end)
        }));
        let mut elapsed = SimDuration::from_nanos(t0.elapsed().as_nanos() as u64);
        let partial = match outcome {
            Ok(p) => p,
            Err(payload) => {
                st = shared.lock_state();
                if st.worker_gen[idx] != my_gen {
                    // Superseded mid-evaluation: the requeued copy of
                    // this task will hit the same deterministic panic on
                    // the replacement worker, which does the bookkeeping.
                    return;
                }
                worker_dies(
                    &shared,
                    &mut st,
                    idx,
                    qid,
                    QueryError::WorkerPanicked {
                        op: op.mal_name(),
                        message: panic_message(payload),
                    },
                );
                return;
            }
        };

        // ---- complete -------------------------------------------------
        st = shared.lock_state();
        if st.worker_gen[idx] != my_gen {
            // Superseded while evaluating (a watchdog false positive on
            // a slow partition): the task was requeued, so drop this
            // partial — it must commit exactly once, from whichever
            // copy reaches here first under a live generation.
            return;
        }
        st.running[idx] = None;
        // A query failed while this partition was in flight has nothing
        // left to commit to, like a duplicate.
        let outcome = match st.queries.get_mut(&qid) {
            Some(q) => q.commit(&task, idx as u32, partial),
            None => Commit::Duplicate,
        };
        st.stats.tasks_executed += u64::from(outcome.counts());
        let mat = match outcome {
            Commit::Duplicate => {
                // A requeued copy raced the original commit: the first
                // one won and this one is dropped, its time still spent.
                st.busy_ns += elapsed.as_nanos();
                continue;
            }
            Commit::Pending => None,
            Commit::NodeDone(partials) => {
                // Assemble outside the lock too: only the last committer
                // of a node gets its partials, so they race with nobody.
                drop(st);
                let t1 = Instant::now();
                let assembled =
                    catch_unwind(AssertUnwindSafe(|| assemble_parts(op, &inputs, partials)));
                elapsed += SimDuration::from_nanos(t1.elapsed().as_nanos() as u64);
                st = shared.lock_state();
                match assembled {
                    Ok(m) => Some(m),
                    Err(payload) => {
                        let error = QueryError::WorkerPanicked {
                            op: op.mal_name(),
                            message: panic_message(payload),
                        };
                        if st.worker_gen[idx] != my_gen {
                            // The partials are consumed — nobody else can
                            // finish this node — so even a superseded worker
                            // must fail the query before exiting, or its
                            // client hangs.
                            fail_query(&shared, &mut st, qid, error);
                            return;
                        }
                        worker_dies(&shared, &mut st, idx, qid, error);
                        return;
                    }
                }
            }
        };
        st.busy_ns += elapsed.as_nanos();
        st.tomograph.record(op.mal_name(), elapsed);
        let Some(q) = st.queries.get_mut(&qid) else {
            continue;
        };
        q.charge(elapsed);
        if let Some(mat) = mat {
            // The one-finalizer exception: this worker took the node's
            // partials, so it must commit the mat and schedule the
            // dependents even if a watchdog supersession landed during
            // assembly — then exit.
            finalize_node(&mut st, &shared, qid, task.node, mat);
            if st.worker_gen[idx] != my_gen {
                return;
            }
        }
    }
}

/// Commits a node's assembled mat, schedules newly ready dependents, and
/// completes the query when it was the last pending node.
fn finalize_node(st: &mut State, shared: &Shared, qid: u64, node: NodeId, mat: Mat) {
    let Some(q) = st.queries.get_mut(&qid) else {
        return;
    };
    let (ready, done) = q.finalize(node, mat);
    if !ready.is_empty() {
        for d in ready {
            schedule_node(st, shared, qid, d);
        }
        shared.work.notify_all();
    }
    if done {
        let Some(q) = st.queries.remove(&qid) else {
            return;
        };
        let outcome = q.into_result(shared.now(), Default::default());
        st.stats.queries_completed += u64::from(outcome.is_ok());
        st.results.insert(qid, outcome);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Workload;
    use crate::exec::engine::tests::stack;
    use crate::tpch::queries::{build_query, QuerySpec};
    use crate::tpch::{TpchData, TpchScale};

    fn tiny_base() -> Arc<BaseData> {
        Arc::new(BaseData::from_tpch(&TpchData::generate(
            TpchScale::test_tiny(),
        )))
    }

    fn digest(r: &QueryResult) -> String {
        format!("{}:{:?}", r.label, r.result)
    }

    fn run_specs(engine: &ParEngine, specs: &[QuerySpec]) -> Vec<String> {
        specs
            .iter()
            .map(|s| {
                let qid = engine.submit(Arc::new(build_query(s)), s.tag());
                digest(&engine.wait_result(qid).expect("query should complete"))
            })
            .collect()
    }

    #[test]
    fn queries_complete_and_are_deterministic() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 16,
            initial_active: 16,
            ..ParEngineConfig::default()
        };
        let specs = [
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 1,
                variant: 0,
            },
            QuerySpec::Tpch {
                number: 14,
                variant: 0,
            },
        ];
        let a = run_specs(&ParEngine::new(cfg, Arc::clone(&base)), &specs);
        let b = run_specs(&ParEngine::new(cfg, Arc::clone(&base)), &specs);
        assert_eq!(a, b, "same pool width must give identical results");
        let stats = {
            let engine = ParEngine::new(cfg, base);
            run_specs(&engine, &specs);
            engine.stats()
        };
        assert_eq!(stats.queries_submitted, 3);
        assert_eq!(stats.queries_completed, 3);
        assert!(stats.tasks_executed >= stats.queries_completed);
    }

    /// The dataflow driven on one thread: pop, evaluate, commit,
    /// assemble, finalize — `worker_loop` without the pool around it.
    /// Workers take turns popping, so slices get stolen and the lineage
    /// differs from any real run; the result may not.
    fn serial_reference(base: &BaseData, plan: Arc<Plan>, width: usize) -> String {
        let (mut flow, sources) = Flow::new(QueryId(0), plan, 0, SimTime::ZERO);
        let mut deques = Deques::new(width);
        let schedule = |flow: &mut Flow<Arc<Plan>>, deques: &mut Deques, node: NodeId| {
            let len = flow.primary_len(node, |t| base.rows(t));
            for task in flow.schedule(node, len, width) {
                deques.push(task, &[]);
            }
        };
        for node in sources {
            schedule(&mut flow, &mut deques, node);
        }
        let (mut turn, mut steals) = (0, 0);
        while let Some(task) = deques.pop(turn % width, &mut steals) {
            let worker = (turn % width) as u32;
            turn += 1;
            let plan = Arc::clone(flow.plan());
            let op = plan.node(task.node);
            let mats = flow.mats();
            let inputs = Snapshot { base, mats: &mats };
            let (start, end) = flow.range(&task);
            let partial = evaluate_partition_on(op, &inputs, start, end);
            if let Commit::NodeDone(partials) = flow.commit(&task, worker, partial) {
                let mat = assemble_parts(op, &inputs, partials);
                let (ready, done) = flow.finalize(task.node, mat);
                for node in ready {
                    schedule(&mut flow, &mut deques, node);
                }
                if done {
                    let r = flow.into_result(SimTime::ZERO, Default::default());
                    return digest(&r.expect("root finalized"));
                }
            }
        }
        panic!("queues ran dry before the query completed");
    }

    /// lineitem ≈ 72 k rows: scans split 16 ways at width 16.
    const SF_0012: TpchScale = TpchScale {
        sf: 0.012,
        seed: 42,
    };

    /// The 88 TPC-H specs: every query, every variant.
    fn all_specs() -> Vec<QuerySpec> {
        (1..=22u8)
            .flat_map(|number| (0..4u8).map(move |variant| QuerySpec::Tpch { number, variant }))
            .collect()
    }

    fn pool_of_width(width: usize, base: Arc<BaseData>) -> ParEngine {
        let cfg = ParEngineConfig {
            n_workers: width,
            initial_active: width,
            ..ParEngineConfig::default()
        };
        ParEngine::new(cfg, base)
    }

    /// All 88 TPC-H specs at pool widths 1, 4 and 16: the pool must
    /// return, bit for bit, what the serial reference computes at the
    /// same width. Reads no environment, so it runs on every runner
    /// whatever its core count.
    #[test]
    fn pool_matches_the_serial_reference() {
        let base = Arc::new(BaseData::from_tpch(&TpchData::generate(SF_0012)));
        let specs = all_specs();
        for width in [1, 4, 16] {
            let engine = pool_of_width(width, Arc::clone(&base));
            for (spec, got) in specs.iter().zip(run_specs(&engine, &specs)) {
                let want = serial_reference(&base, Arc::new(build_query(spec)), width);
                assert_eq!(got, want, "{spec:?} at width {width}");
            }
        }
    }

    /// All 88 TPC-H specs at widths 1, 4 and 16: the cold simulated
    /// engine over a fresh dataset must return, bit for bit, what the
    /// pool returns at the same width — for both of its clients, the
    /// second one memo-served. Reads no environment, so it runs on every
    /// runner whatever its core count.
    #[test]
    fn sim_engine_matches_the_pool_at_every_width() {
        let specs = all_specs();
        for width in [1, 4, 16] {
            let data = TpchData::generate(SF_0012);
            let sim: Vec<String> = stack(&data, width)
                .results(Workload::StablePhases {
                    specs: specs.clone(),
                })
                .iter()
                .map(digest)
                .collect();
            let pool = pool_of_width(width, Arc::new(BaseData::from_tpch(&data)));
            let want = run_specs(&pool, &specs);
            assert_eq!(sim.len(), 2 * specs.len(), "two clients, every spec each");
            for client in sim.chunks(specs.len()) {
                for ((spec, got), want) in specs.iter().zip(client).zip(&want) {
                    assert_eq!(got, want, "{spec:?} at width {width}");
                }
            }
        }
    }

    #[test]
    fn active_count_changes_timing_not_answers() {
        let base = tiny_base();
        let wide = ParEngine::new(
            ParEngineConfig {
                n_workers: 16,
                initial_active: 16,
                ..ParEngineConfig::default()
            },
            Arc::clone(&base),
        );
        let narrow = ParEngine::new(
            ParEngineConfig {
                n_workers: 16,
                initial_active: 1,
                ..ParEngineConfig::default()
            },
            base,
        );
        narrow.set_wake_order(&[0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]);
        let specs = [
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 4,
                variant: 0,
            },
        ];
        assert_eq!(
            run_specs(&wide, &specs),
            run_specs(&narrow, &specs),
            "allocation must not leak into results"
        );
        assert_eq!(narrow.active(), 1);
        narrow.set_active(8);
        assert_eq!(narrow.active(), 8);
        narrow.set_active(0);
        assert_eq!(narrow.active(), 1, "active count clamps to 1");
    }

    #[test]
    fn concurrent_clients_all_finish() {
        let base = tiny_base();
        let engine = Arc::new(ParEngine::new(
            ParEngineConfig {
                n_workers: 8,
                initial_active: 8,
                ..ParEngineConfig::default()
            },
            base,
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        let spec = QuerySpec::Q6 { variant: 0 };
                        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                        let r = engine.wait_result(qid).expect("query should complete");
                        assert!(r.finished > r.submitted);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.stats().queries_completed, 12);
        assert_eq!(engine.active_queries(), 0);
    }

    /// A panicking worker must fail its query with a typed error, not
    /// poison the mutex: the engine stays queryable, and once the last
    /// worker dies submissions fail fast with `PoolDead`.
    #[test]
    fn worker_panic_degrades_without_poisoning() {
        // A catalog missing a column Q6 needs: evaluation panics inside
        // the worker, under catch_unwind.
        let mut data = TpchData::generate(TpchScale::test_tiny());
        for table in &mut data.tables {
            if table.name == "lineitem" {
                table.columns.retain(|c| c.name != "l_extendedprice");
            }
        }
        let base = Arc::new(BaseData::from_tpch(&data));
        let engine = ParEngine::new(
            ParEngineConfig {
                n_workers: 1,
                initial_active: 1,
                ..ParEngineConfig::default()
            },
            base,
        );
        let spec = QuerySpec::Q6 { variant: 0 };
        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        match engine.wait_result(qid) {
            Err(QueryError::WorkerPanicked { message, .. }) => {
                assert!(message.contains("l_extendedprice"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // No poisoning: every accessor still works after the panic.
        assert_eq!(engine.dead_workers(), 1);
        assert_eq!(engine.active_queries(), 0);
        let _ = engine.stats();
        // The single worker was the whole pool: everything now fails
        // fast instead of queuing forever.
        let qid2 = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        assert!(matches!(
            engine.wait_result(qid2),
            Err(QueryError::PoolDead)
        ));
        assert!(engine.try_result(qid2).is_none(), "error was consumed");
        assert_eq!(engine.live_workers(), 0, "a panicked worker stays dead");
    }

    /// The watchdog must recover injected worker kills with zero lost
    /// and zero duplicated queries: every submission resolves `Ok` with
    /// the fault-free digest, and the pool heals back to full strength
    /// instead of degrading.
    #[test]
    fn killed_workers_recover_without_losing_queries() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 8,
            initial_active: 8,
            stall_after: Duration::from_millis(40),
            sweep: Duration::from_millis(10),
        };
        let expected = {
            let engine = ParEngine::new(cfg, Arc::clone(&base));
            let spec = QuerySpec::Q6 { variant: 0 };
            let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
            digest(&engine.wait_result(qid).expect("fault-free run completes"))
        };
        let engine = Arc::new(ParEngine::new(cfg, base));
        engine.arm_faults(
            &FaultPlan::default()
                .with_kill(2, SimDuration::from_millis(10))
                .with_kill(5, SimDuration::from_millis(20)),
            42,
        );
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let mut n = 0u64;
                    // Keep queries flowing across both kills and the
                    // recoveries (~10/20ms kills + 40ms detection).
                    while t0.elapsed() < Duration::from_millis(150) {
                        let spec = QuerySpec::Q6 { variant: 0 };
                        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                        let r = engine
                            .wait_result(qid)
                            .expect("query lost across a worker kill");
                        assert_eq!(digest(&r), expected, "recovery corrupted a result");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: u64 = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
        // Both kills fire whether or not a query is in flight; wait for
        // the watchdog to notice and respawn both victims.
        let t0 = Instant::now();
        while engine.stats().engine_recoveries < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "watchdog never recovered the killed workers"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = engine.stats();
        assert_eq!(
            stats.queries_completed, total,
            "every submitted query completed exactly once"
        );
        assert_eq!(stats.queries_submitted, total);
        assert!(stats.mttr_ms() > 0.0 && stats.mttr_ms().is_finite());
        assert_eq!(
            engine.live_workers(),
            8,
            "killed workers were respawned, not declared dead"
        );
        assert_eq!(engine.dead_workers(), 0);
        // The healed pool still serves, and still gives the same answer.
        let spec = QuerySpec::Q6 { variant: 0 };
        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        let r = engine.wait_result(qid).expect("post-recovery query");
        assert_eq!(digest(&r), expected);
    }

    /// Dropping a pool wakes the parked watchdog instead of waiting out
    /// its sweep: the threads tenant driver retires pools on its control
    /// thread, where a blocked drop freezes every other tenant.
    #[test]
    fn drop_does_not_wait_out_the_watchdog_sweep() {
        let cfg = ParEngineConfig {
            n_workers: 2,
            initial_active: 2,
            sweep: Duration::from_secs(2),
            ..ParEngineConfig::default()
        };
        let engine = ParEngine::new(cfg, tiny_base());
        let spec = QuerySpec::Q6 { variant: 0 };
        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        engine.wait_result(qid).expect("query completes");
        let t0 = Instant::now();
        drop(engine);
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "drop blocked for {took:?} with a 2 s sweep"
        );
    }

    /// `badquery` poisoning is deterministic per qid and surfaces as a
    /// typed, non-retryable error; unpoisoned queries are untouched.
    #[test]
    fn badquery_poisons_deterministically() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 4,
            initial_active: 4,
            ..ParEngineConfig::default()
        };
        let run = |seed: u64| -> Vec<bool> {
            let engine = ParEngine::new(cfg, Arc::clone(&base));
            engine.arm_faults(&FaultPlan::default().with_badquery(0.3), seed);
            (0..40)
                .map(|_| {
                    let spec = QuerySpec::Q6 { variant: 0 };
                    let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                    match engine.wait_result(qid) {
                        Ok(_) => false,
                        Err(QueryError::BadQuery) => true,
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must poison the same qids");
        assert!(
            a.iter().any(|&p| p),
            "rate 0.3 over 40 queries poisons some"
        );
        assert!(!a.iter().all(|&p| p), "…but not all");
        assert!(!QueryError::BadQuery.is_retryable());
        assert!(QueryError::PoolDead.is_retryable());
    }
}
