//! The simulated execution engine: the worker pool on `os-sim` threads
//! and the two engine flavors the paper evaluates. *What* runs next —
//! partition counts, slice preferences, commit, readiness, completion —
//! is `exec::dataflow`'s decision; this module prepares a task
//! (evaluates it, allocates its simulated output, builds its charge
//! items), meters it against simulated time, and keeps the
//! simulator-only per-node state (`SimNode`).
//!
//! - **MonetDB flavor**: one worker thread per hardware core, *unpinned* —
//!   "MonetDB let to the OS the thread scheduling responsibility". Tasks
//!   live in one global dataflow queue.
//! - **SQL Server flavor**: workers pinned one-per-core, tasks dispatched
//!   to per-NUMA-node queues by input-data home, with cross-node stealing
//!   — "SQL Server is NUMA-aware associating threads and processors to
//!   improve affinity".
//!
//! Operators materialise partition-wise: each task allocates and
//! first-touches its own output slice, so intermediates spread across the
//! NUMA nodes that ran the operator. That is simulated memory, charged
//! through `machine.alloc` and the write items. The real values take the
//! one path both executors share: `evaluate_partition_on` fills a
//! [`Partial`] per partition and `assemble_parts` joins a node's
//! partials in partition order (`exec::par` calls the same two).
//!
//! Two layers keep the simulator from recomputing what it already knows,
//! and they answer different questions:
//!
//! - The per-engine **memo** decides *what is charged*. Identical
//!   sub-plans across an engine's concurrent clients share one result; a
//!   hit charges an even split of the node's rows over its partitions, a
//!   miss each partition's actual rows. Simulated time and traffic are
//!   charged per execution either way, and every committed CSV depends
//!   on exactly this rule, so it is pinned at schedule time and never
//!   consults anything outside the engine.
//! - The dataset's **evaluation cache** (`exec/cache.rs`) decides
//!   *whether kernels run*. A memo miss whose node some engine over the
//!   same [`TpchData`] already evaluated — the previous run of a sweep,
//!   another churn tenant — is charged from the recorded actual rows
//!   instead of being evaluated again: same charge items, same simulated
//!   allocation, no kernel.
//!
//! Each cache entry records rows *and* reads per partition: besides the
//! rows it produced, the base-column segments a partition's position
//! gather touched. A task pinned to a reused value (memo or cache) maps
//! that record onto the column instead of scanning the positions again,
//! so once a dataset has evaluated a node, its tasks cost only
//! simulation.
//!
//! They stay separate because folding them would change what a miss is
//! charged, and with it every simulated number (docs/ARCHITECTURE.md,
//! "What each executor adds").

use crate::exec::cache::{EvalCache, Evaluated};
use crate::exec::cost;
use crate::exec::dataflow::{Commit, Deques, Flow};
use crate::exec::eval;
use crate::exec::eval::GroupAcc;
use crate::exec::fault::{FaultClock, FaultPlan, WorkerFaultKind};
use crate::exec::mat::{FlatJoinMap, JoinTable, Mat, NodeStorage, PairsMat, PosMat, ValMat};
use crate::exec::par::QueryError;
use crate::exec::plan::{ColRef, NodeId, PhysOp, Plan, Side};
use crate::exec::task::{part_range, ChargeItem, Partial, QueryId, Task, TaskCursor};
use crate::exec::tomograph::Tomograph;
use crate::storage::bat::{
    segment_indices_sorted_into, segment_indices_unsorted_into, Bat, BatStore, ColData,
};
use crate::storage::catalog::Catalog;
use crate::tpch::gen::TpchData;
use emca_metrics::{FxHashMap, SimDuration, SimTime};
use numa_sim::{AccessKind, Machine, SegId, SpaceId, StreamId, StreamTraffic};
use os_sim::{SimWork, StepOutcome, Tid, WorkCtx};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Engine flavor (thread/data placement strategy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Volcano engine that leaves scheduling entirely to the OS.
    MonetDb,
    /// NUMA-aware engine with pinned workers and locality dispatch.
    SqlServer,
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Placement strategy.
    pub flavor: Flavor,
    /// Worker threads (0 = one per hardware core, the MonetDB default).
    pub n_workers: usize,
    /// Deterministic fault plan (`faults=` spec field); `None` (or an
    /// empty plan) keeps the fault plane fully inert.
    pub faults: Option<FaultPlan>,
    /// Seed for the plan's `badquery` poisoning draws.
    pub fault_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            flavor: Flavor::MonetDb,
            n_workers: 0,
            faults: None,
            fault_seed: 0,
        }
    }
}

/// Engine-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Dataflow tasks created (the "tasks" series of Fig. 13(c)).
    pub tasks_created: u64,
    /// Tasks fully executed.
    pub tasks_executed: u64,
    /// Tasks a worker took from a queue that was not its own: peer-deque
    /// steals (MonetDB flavor and the threads backend) or cross-node
    /// queue steals (SQL Server flavor).
    pub engine_steals: u64,
    /// Queries completed.
    pub queries_completed: u64,
    /// Queries submitted.
    pub queries_submitted: u64,
    /// Worker recoveries: watchdog respawns of dead/stalled workers on
    /// the threads backend, timed revives of killed workers on the sim.
    pub engine_recoveries: u64,
    /// Cumulative downtime repaired by those recoveries, in
    /// milliseconds (wall on threads, simulated on sim).
    pub recovery_ms: f64,
}

impl EngineStats {
    /// Mean time to recover a dead/stalled worker, in milliseconds
    /// (`0.0` when nothing was ever recovered).
    pub fn mttr_ms(&self) -> f64 {
        if self.engine_recoveries == 0 {
            0.0
        } else {
            self.recovery_ms / self.engine_recoveries as f64
        }
    }
}

/// The outcome of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Query instance id.
    pub qid: QueryId,
    /// Plan label (e.g. `"q06"`).
    pub label: String,
    /// Caller-chosen tag (e.g. TPC-H query number).
    pub spec_tag: u32,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Attributed memory traffic (per-query HT/IMC ratio of Fig. 19).
    pub traffic: StreamTraffic,
    /// Total worker CPU time spent on this query.
    pub busy: SimDuration,
    /// The root result.
    pub result: Mat,
}

impl QueryResult {
    /// Response time.
    pub fn response(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }
}

/// How a node's tasks get their partials, pinned at schedule time so
/// every partition of the node — a fault-requeued one included — takes
/// the same path while other queries and tenants fill or flush the memo
/// and the dataset cache under it.
enum Pin {
    /// Run the kernels; charge the rows each partition produces.
    Evaluate,
    /// Engine memo hit: charge an even split of the node's rows.
    Memo(MemoEntry),
    /// Dataset cache hit: charge the rows each partition produced when
    /// it was evaluated.
    Cached(Arc<Evaluated>),
}

/// What the simulator keeps per node beside the [`Flow`]'s record: where
/// the output lives in simulated memory, and the reuse shortcut.
struct SimNode {
    storage: NodeStorage,
    /// Out-of-order completed regions, committed sorted at finalize.
    pending_regions: Vec<(u32, usize, numa_sim::Region)>,
    pin: Pin,
    /// Per partition, the base-column segment indices the position
    /// gather touched — filled on the path that evaluates, recorded in
    /// the dataset cache at finalize.
    part_reads: Vec<Box<[u32]>>,
}

struct QueryRun {
    flow: Flow<Rc<Plan>>,
    /// `side[i]` belongs to plan node `i`.
    side: Vec<SimNode>,
    stream: StreamId,
    client: Tid,
    fingerprints: Vec<u64>,
}

/// What the engine memo keeps per fingerprint: the rows a hit is charged
/// for, and the shared value.
#[derive(Clone)]
struct MemoEntry {
    rows: usize,
    evaluated: Arc<Evaluated>,
}

/// Task queues per flavor: the MonetDB flavor uses the worker deques,
/// the SQL Server flavor their global queue plus one queue per NUMA
/// node.
struct TaskQueues {
    deques: Deques,
    per_node: Vec<VecDeque<Task>>,
}

impl TaskQueues {
    fn new(n_nodes: usize) -> Self {
        TaskQueues {
            deques: Deques::new(0),
            per_node: (0..n_nodes).map(|_| VecDeque::new()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.deques.len() + self.per_node.iter().map(|q| q.len()).sum::<usize>()
    }

    fn push(&mut self, flavor: Flavor, task: Task) {
        match (flavor, task.pref_node) {
            (Flavor::MonetDb, _) => self.deques.push(task, &[]),
            (Flavor::SqlServer, Some(n)) => self.per_node[n.idx()].push_back(task),
            (Flavor::SqlServer, None) => self.deques.global.push_back(task),
        }
    }
}

/// Shared engine state (single-threaded simulation: `Rc<RefCell<..>>`).
pub struct EngineCore {
    cfg: EngineConfig,
    /// The catalog of base BATs.
    pub catalog: Catalog,
    store: BatStore,
    space: Option<SpaceId>,
    /// The loaded dataset's evaluation cache.
    eval_cache: Option<EvalCache>,
    queries: FxHashMap<u64, QueryRun>,
    next_qid: u64,
    next_stream: u64,
    queues: TaskQueues,
    worker_tids: Vec<Tid>,
    memo: FxHashMap<u64, MemoEntry>,
    /// Per-operator trace (Fig. 6).
    pub tomograph: Tomograph,
    stats: EngineStats,
    results: FxHashMap<u64, Result<QueryResult, QueryError>>,
    /// Armed fault plan runtime, if the config carried one.
    faults: Option<SimFaults>,
    parked: Vec<Option<TaskCursor>>,
    /// Recycled charge-item vectors (capped; see [`POOL_CAP`]).
    item_pool: Vec<Vec<ChargeItem>>,
    /// Reusable read-segment gather buffer for task preparation.
    seg_scratch: Vec<SegId>,
    /// Reusable base-column segment-index buffer for task preparation.
    touched_scratch: Vec<u32>,
    /// Reusable bitmap for gathering unsorted (join-pair) positions.
    bitmap_scratch: Vec<u64>,
    /// Partition tasks whose kernels ran (the rest were served by the
    /// memo or the dataset cache).
    kernel_tasks: u64,
    /// Partition tasks that scanned a position list for the segments it
    /// touches (the rest gather no positions or reused a record).
    position_scans: u64,
}

/// Memo entries before an epoch flush.
const MEMO_CAPACITY: usize = 4096;

/// Upper bound on pooled charge-item vectors (one per in-flight task is
/// plenty; the cap keeps a queue burst from pinning memory).
const POOL_CAP: usize = 64;

/// How long a fault-killed simulated worker stays dark before it
/// revives (the sim analogue of the threads watchdog's detect+respawn
/// turnaround; fixed so recovery stays a pure function of the spec).
fn sim_revive_delay() -> SimDuration {
    SimDuration::from_millis(200)
}

/// Runtime state of the simulated fault plane: the plan's clock, and
/// until when each worker is dark (killed and not yet revived, or
/// mid-stall). All in simulated time — a faulted run is exactly as
/// deterministic as a healthy one.
struct SimFaults {
    clock: FaultClock,
    dark_until: Vec<SimTime>,
}

/// Cloneable handle to the engine.
#[derive(Clone)]
pub struct Engine {
    core: Rc<RefCell<EngineCore>>,
}

impl Engine {
    /// Creates an engine for a machine with `n_numa` nodes.
    pub fn new(cfg: EngineConfig, n_numa: usize) -> Self {
        let faults = cfg
            .faults
            .as_ref()
            .and_then(|p| FaultClock::arm(p, cfg.fault_seed))
            .map(|clock| SimFaults {
                clock,
                dark_until: Vec::new(),
            });
        Engine {
            core: Rc::new(RefCell::new(EngineCore {
                cfg,
                catalog: Catalog::new(),
                store: BatStore::new(),
                space: None,
                eval_cache: None,
                queries: FxHashMap::default(),
                next_qid: 0,
                next_stream: 1,
                queues: TaskQueues::new(n_numa),
                worker_tids: Vec::new(),
                memo: FxHashMap::default(),
                tomograph: Tomograph::new(),
                stats: EngineStats::default(),
                results: FxHashMap::default(),
                faults,
                parked: Vec::new(),
                item_pool: Vec::new(),
                seg_scratch: Vec::new(),
                touched_scratch: Vec::new(),
                bitmap_scratch: Vec::new(),
                kernel_tasks: 0,
                position_scans: 0,
            })),
        }
    }

    /// Borrows the core (single-threaded simulation; panics on re-entry).
    pub fn core(&self) -> std::cell::RefMut<'_, EngineCore> {
        self.core.borrow_mut()
    }

    /// Immutable core borrow.
    pub fn core_ref(&self) -> std::cell::Ref<'_, EngineCore> {
        self.core.borrow()
    }

    /// Loads the generated database: creates the DBMS address space,
    /// registers base BATs and binds the dataset's evaluation cache.
    ///
    /// `loader_core` controls page placement:
    ///
    /// - `Some(core)`: a single-threaded loader first-touches every base
    ///   segment from that core (all base data homed on one node);
    /// - `None`: BATs are mmap-style lazy — pages are homed by whichever
    ///   worker first scans them. This is MonetDB's actual behaviour and
    ///   the root of the paper's placement effects: under the OS
    ///   scheduler the first concurrent queries scatter the data over all
    ///   nodes, while the mechanism's ramp-up concentrates it.
    pub fn load(
        &self,
        machine: &mut Machine,
        data: &TpchData,
        loader_core: Option<numa_sim::CoreId>,
    ) {
        let mut core = self.core();
        let core = &mut *core;
        assert!(core.space.is_none(), "engine already loaded");
        let space = machine.create_space();
        core.space = Some(space);
        core.eval_cache = Some(data.eval_cache().clone());
        for table in &data.tables {
            let tname: &'static str = table.name;
            for gc in &table.columns {
                let bat = Bat::new(machine, space, gc.name, gc.data.clone());
                if let Some(lc) = loader_core {
                    for seg in bat.region.segments() {
                        machine.access_segment(lc, seg, AccessKind::Write, StreamId(0));
                    }
                }
                let id = core.store.insert(bat);
                core.catalog.register(tname, gc.name, id, &core.store);
            }
        }
    }

    /// The DBMS address space (for the mechanism's page statistics).
    pub fn space(&self) -> SpaceId {
        self.core_ref().space.expect("engine not loaded")
    }

    /// Homes every base segment round-robin across the NUMA nodes (the
    /// `numactl --interleave` warm-server placement): neutral first-touch
    /// that hands no allocation policy a head start. Must run after
    /// [`Engine::load`] and before any queries.
    pub fn interleave_base(&self, machine: &mut Machine) {
        let core = self.core_ref();
        let n_nodes = machine.topology().n_nodes();
        let cores_per_node = machine.topology().cores_per_node();
        let mut i = 0usize;
        for bat in core.store.iter() {
            for seg in bat.region.segments() {
                let node = i % n_nodes;
                let toucher = numa_sim::CoreId((node * cores_per_node) as u16);
                machine.access_segment(toucher, seg, AccessKind::Write, StreamId(0));
                i += 1;
            }
        }
    }

    /// Spawns the worker pool into `group` on `kernel`. SQL Server flavor
    /// pins worker `i` to core `i`.
    pub fn start_workers(&self, kernel: &mut os_sim::Kernel, group: os_sim::GroupId) {
        let (flavor, n) = {
            let core = self.core_ref();
            let n = if core.cfg.n_workers == 0 {
                kernel.machine().topology().n_cores()
            } else {
                core.cfg.n_workers
            };
            (core.cfg.flavor, n)
        };
        self.core().queues.deques.resize(n);
        for i in 0..n {
            let affinity = match flavor {
                Flavor::MonetDb => None,
                Flavor::SqlServer => Some(os_sim::CoreMask::single(numa_sim::CoreId(
                    (i % kernel.machine().topology().n_cores()) as u16,
                ))),
            };
            let body = WorkerBody {
                engine: self.clone(),
                idx: i,
            };
            let tid = kernel.spawn(format!("worker{i}"), group, affinity, Box::new(body));
            self.core().worker_tids.push(tid);
        }
    }

    /// Worker thread ids.
    pub fn worker_tids(&self) -> Vec<Tid> {
        self.core_ref().worker_tids.clone()
    }

    /// Submits a query from within a client work step. Wakes the worker
    /// pool through the step context. Returns the query id; the client is
    /// woken when the result is available via [`Engine::take_result`].
    /// `step_offset` is the simulated time the caller already consumed in
    /// this step (timestamps stay sub-tick accurate).
    pub fn submit(
        &self,
        ctx: &mut WorkCtx<'_>,
        plan: Rc<Plan>,
        spec_tag: u32,
        step_offset: SimDuration,
    ) -> QueryId {
        let mut core = self.core();
        let qid = core.submit_inner(plan, spec_tag, ctx.tid, ctx.now + step_offset);
        if core.results.contains_key(&qid.0) {
            // Poisoned at the front door: nothing was scheduled, so no
            // worker will ever wake the client — wake it ourselves.
            ctx.wake(ctx.tid);
            return qid;
        }
        for i in 0..core.worker_tids.len() {
            ctx.wake(core.worker_tids[i]);
        }
        qid
    }

    /// Fetches (and removes) a completed query's outcome: `Ok` with the
    /// result, or the typed [`QueryError`] the query failed with (on
    /// this backend, only fault-plan poisoning).
    pub fn take_result(&self, qid: QueryId) -> Option<Result<QueryResult, QueryError>> {
        self.core().results.remove(&qid.0)
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.core_ref().stats
    }

    /// Number of in-flight queries.
    pub fn active_queries(&self) -> usize {
        self.core_ref().queries.len()
    }
}

impl EngineCore {
    fn submit_inner(
        &mut self,
        plan: Rc<Plan>,
        spec_tag: u32,
        client: Tid,
        now: SimTime,
    ) -> QueryId {
        assert!(!plan.is_empty(), "cannot submit an empty plan");
        let qid = QueryId(self.next_qid);
        self.next_qid += 1;
        let stream = StreamId(self.next_stream);
        self.next_stream += 1;
        self.stats.queries_submitted += 1;
        if let Some(f) = &self.faults {
            // Same per-(seed, qid) draw as the threads backend, so both
            // poison the same query ids.
            if f.clock.poisons(qid.0) {
                self.results.insert(qid.0, Err(QueryError::BadQuery));
                return qid;
            }
        }

        let fingerprints = fingerprint_plan(&plan);
        let side = plan
            .nodes()
            .iter()
            .map(|op| SimNode {
                storage: NodeStorage::new(out_row_bytes(op).max(4)),
                pending_regions: Vec::new(),
                pin: Pin::Evaluate,
                part_reads: Vec::new(),
            })
            .collect();
        let (flow, sources) = Flow::new(qid, plan, spec_tag, now);
        let run = QueryRun {
            flow,
            side,
            stream,
            client,
            fingerprints,
        };
        self.queries.insert(qid.0, run);
        for node in sources {
            self.schedule_node(qid, node);
        }
        qid
    }

    /// Splits a ready node into tasks and enqueues them, pinning how
    /// they get their partials: the memo first, then the dataset cache.
    fn schedule_node(&mut self, qid: QueryId, node: NodeId) {
        let workers = self.worker_tids.len();
        let run = self.queries.get_mut(&qid.0).expect("scheduling dead query");
        let primary_len = run.flow.primary_len(node, |t| self.catalog.rows(t));
        let mut n_parts = 0;
        for task in run.flow.schedule(node, primary_len, workers) {
            n_parts = task.n_parts;
            self.stats.tasks_created += 1;
            self.queues.push(self.cfg.flavor, task);
        }
        let fp = run.fingerprints[node.idx()];
        let cache = self.eval_cache.as_ref().expect("engine not loaded");
        run.side[node.idx()].pin = match self.memo.get(&fp) {
            Some(entry) => Pin::Memo(entry.clone()),
            None => cache.get(fp, n_parts).map_or(Pin::Evaluate, Pin::Cached),
        };
    }

    /// Pops the next task for worker `worker_idx` running on NUMA node
    /// `worker_node`. SQL Server flavor prefers the local node queue and
    /// steals across nodes; MonetDB pops its worker deques (own slice
    /// first, then global, then a steal).
    pub fn pop_task(&mut self, worker_node: numa_sim::NodeId, worker_idx: usize) -> Option<Task> {
        match self.cfg.flavor {
            Flavor::MonetDb => self
                .queues
                .deques
                .pop(worker_idx, &mut self.stats.engine_steals),
            Flavor::SqlServer => {
                if let Some(t) = self.queues.per_node[worker_node.idx()].pop_front() {
                    return Some(t);
                }
                if let Some(t) = self.queues.deques.global.pop_front() {
                    return Some(t);
                }
                for i in 0..self.queues.per_node.len() {
                    if i == worker_node.idx() {
                        continue;
                    }
                    if let Some(t) = self.queues.per_node[i].pop_front() {
                        self.stats.engine_steals += 1;
                        return Some(t);
                    }
                }
                None
            }
        }
    }

    /// Re-dispatches tasks from the global queue to per-node queues once
    /// locality — the home node of the partition's first input segment —
    /// is known (SQL Server flavor). Called by workers before popping.
    pub fn localize_tasks(&mut self, machine: &Machine) {
        if self.cfg.flavor != Flavor::SqlServer || self.queues.deques.global.is_empty() {
            return;
        }
        let pending: Vec<Task> = self.queues.deques.global.drain(..).collect();
        for mut task in pending {
            task.pref_node = self
                .queries
                .get(&task.qid.0)
                .and_then(|run| first_input_segment(run, &task, &self.catalog, &self.store))
                .and_then(|seg| machine.mem().home_of(seg));
            self.queues.push(Flavor::SqlServer, task);
        }
    }

    /// Prepares a popped task: evaluates its partition (or reuses the
    /// memo), allocates its output region and builds the charge items.
    pub fn prepare_task(&mut self, task: Task, machine: &mut Machine) -> TaskCursor {
        let space = self.space.expect("engine not loaded");
        let mut reads: Vec<SegId> = std::mem::take(&mut self.seg_scratch);
        reads.clear();
        let (catalog, store) = (&self.catalog, &self.store);
        let col_bat = |c: &ColRef| store.get(catalog.column(c.table, c.column));
        let run = self
            .queries
            .get_mut(&task.qid.0)
            .expect("task for dead query");
        // The operator is *borrowed*, not cloned — an `InSet` predicate
        // clone per task was a hot-path allocation.
        let op = run.flow.plan().node(task.node);
        let stream = run.stream;

        let (start, end) = run.flow.range(&task);
        let rows_in = end - start;

        // ---- gather read segments -------------------------------------
        // Every source appends through the `*_into` forms, so no
        // per-input vectors are allocated. Base columns read through a
        // position list take the segments the node's evaluation recorded
        // for this partition; only the path that evaluates scans the
        // positions, and records what it found.
        let i = task.node.idx();
        let part = task.part as usize;
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        let mut scanned = false;
        let mat_of = |n: NodeId| run.flow.mat(n).expect("input ready");
        if let Some((list, sorted)) = gathered_positions(op, mat_of, start, end) {
            match &run.side[i].pin {
                Pin::Memo(MemoEntry { evaluated, .. }) | Pin::Cached(evaluated) => {
                    debug_assert_eq!(evaluated.part_reads.len(), task.n_parts as usize);
                    touched.extend_from_slice(&evaluated.part_reads[part]);
                    debug_assert_eq!(
                        touched,
                        {
                            let mut scan = Vec::new();
                            gather_indices(list, sorted, &mut Vec::new(), &mut scan);
                            scan
                        },
                        "recorded reads differ from the scan"
                    );
                }
                Pin::Evaluate => {
                    self.position_scans += 1;
                    scanned = true;
                    gather_indices(list, sorted, &mut self.bitmap_scratch, &mut touched);
                }
            }
        }
        {
            let side = &run.side;
            let read_node_rows = |node: NodeId, s: usize, e: usize, reads: &mut Vec<SegId>| {
                side[node.idx()].storage.segments_for_rows_into(s, e, reads);
            };
            match &op {
                PhysOp::ScanSelect { col, .. } => {
                    col_bat(col).segments_for_rows_into(start, end, &mut reads);
                }
                PhysOp::SelectAnd {
                    candidates, col, ..
                } => {
                    read_node_rows(*candidates, start, end, &mut reads);
                    col_bat(col).segments_at_into(&touched, &mut reads);
                }
                PhysOp::SelectColCmp {
                    candidates,
                    left,
                    right,
                    ..
                } => match candidates {
                    Some(c) => {
                        read_node_rows(*c, start, end, &mut reads);
                        col_bat(left).segments_at_into(&touched, &mut reads);
                        col_bat(right).segments_at_into(&touched, &mut reads);
                    }
                    None => {
                        col_bat(left).segments_for_rows_into(start, end, &mut reads);
                        col_bat(right).segments_for_rows_into(start, end, &mut reads);
                    }
                },
                PhysOp::Project { positions, col } => {
                    read_node_rows(*positions, start, end, &mut reads);
                    col_bat(col).segments_at_into(&touched, &mut reads);
                }
                PhysOp::ProjectSide { pairs, col, .. } => {
                    read_node_rows(*pairs, start, end, &mut reads);
                    col_bat(col).segments_at_into(&touched, &mut reads);
                }
                PhysOp::BinOp { left, right, .. } => {
                    read_node_rows(*left, start, end, &mut reads);
                    read_node_rows(*right, start, end, &mut reads);
                }
                PhysOp::AggrSum { values } => {
                    read_node_rows(*values, start, end, &mut reads);
                }
                PhysOp::GroupAgg { keys, values, .. } => {
                    read_node_rows(*keys, start, end, &mut reads);
                    if let Some(v) = values {
                        read_node_rows(*v, start, end, &mut reads);
                    }
                }
                PhysOp::JoinBuild { keys } => {
                    read_node_rows(*keys, start, end, &mut reads);
                }
                PhysOp::JoinProbe { build, probe } => {
                    read_node_rows(*probe, start, end, &mut reads);
                    let build_storage = &side[build.idx()].storage;
                    build_storage.segments_for_rows_into(
                        0,
                        build_storage.rows().max(1),
                        &mut reads,
                    );
                }
                PhysOp::TopN { .. } => {}
            }
        }
        if scanned {
            let recorded = &mut run.side[i].part_reads;
            if recorded.len() < task.n_parts as usize {
                recorded.resize_with(task.n_parts as usize, Default::default);
            }
            recorded[part] = touched.as_slice().into();
        }
        self.touched_scratch = touched;

        let row_bytes = out_row_bytes(op);
        let mal_name = op.mal_name();
        let cycles_each = op_cycles(op);

        // ---- evaluate (or reuse) ---------------------------------------
        let reused_rows = match &run.side[i].pin {
            Pin::Evaluate => None,
            Pin::Memo(entry) => {
                let (s, e) = part_range(entry.rows, task.part, task.n_parts);
                Some(e - s)
            }
            Pin::Cached(evaluated) => Some(evaluated.part_rows[task.part as usize]),
        };
        let (partial, out_rows) = if let Some(rows) = reused_rows {
            (Partial::Reuse, rows)
        } else {
            self.kernel_tasks += 1;
            let inputs = RunInputs {
                run,
                catalog,
                store,
            };
            let partial = evaluate_partition_on(op, &inputs, start, end);
            let rows = partial_rows(&partial);
            (partial, rows)
        };

        // ---- output region ---------------------------------------------
        let out_region = if out_rows > 0 && row_bytes > 0 {
            Some(machine.alloc(space, out_rows as u64 * row_bytes))
        } else {
            None
        };

        // ---- charge items ----------------------------------------------
        let cycles_total = rows_in as u64 * cycles_each + out_rows as u64 * cost::MERGE / 4;
        let n_chunks = reads.len().max(1) as u64;
        let per_chunk = (cycles_total / n_chunks).max(1);
        let mut items: Vec<ChargeItem> = self.item_pool.pop().unwrap_or_default();
        items.clear();
        items.reserve(reads.len() * 2 + 8);
        if reads.is_empty() {
            items.push(ChargeItem::Compute(cycles_total.max(1)));
        } else {
            for &seg in &reads {
                items.push(ChargeItem::Read(seg));
                items.push(ChargeItem::Compute(per_chunk));
            }
        }
        self.seg_scratch = reads;
        if let Some(region) = &out_region {
            items.extend(region.segments().map(ChargeItem::Write));
        }

        TaskCursor::new(task, stream, mal_name, items, partial, out_rows, out_region)
    }

    /// Completes an executed task. May finalize its node, schedule newly
    /// ready nodes, and complete the whole query (waking the client).
    /// `step_offset` is the executing worker's in-step elapsed time;
    /// `worker_idx` records the slice-affinity lineage.
    pub fn complete_task(
        &mut self,
        mut cursor: TaskCursor,
        ctx: &mut WorkCtx<'_>,
        step_offset: SimDuration,
        worker_idx: usize,
    ) {
        self.tomograph.record(cursor.mal_name, cursor.charged);
        let task = cursor.task;
        let run = self
            .queries
            .get_mut(&task.qid.0)
            .expect("completing dead query");
        run.flow.charge(cursor.charged);
        if let Some(region) = cursor.out_region.take() {
            // Tasks finish out of order but `NodeStorage` wants row
            // order: stash, and commit sorted at finalize.
            run.side[task.node.idx()]
                .pending_regions
                .push((task.part, cursor.out_rows, region));
        }
        let partial = cursor.partial.take().expect("partial already taken");
        let outcome = run.flow.commit(&task, worker_idx as u32, partial);
        self.stats.tasks_executed += u64::from(outcome.counts());
        if self.item_pool.len() < POOL_CAP {
            self.item_pool.push(cursor.take_items());
        }
        if let Commit::NodeDone(partials) = outcome {
            self.finalize_node(task.qid, task.node, partials, ctx, step_offset);
        }
    }

    /// Finalizes a node whose tasks all completed: assembles the Mat (a
    /// node whose kernels ran also fills the dataset cache), fills the
    /// memo, unblocks dependents, completes the query.
    fn finalize_node(
        &mut self,
        qid: QueryId,
        node: NodeId,
        partials: Vec<Option<Partial>>,
        ctx: &mut WorkCtx<'_>,
        step_offset: SimDuration,
    ) {
        let run = self.queries.get_mut(&qid.0).expect("dead query");
        let sn = &mut run.side[node.idx()];
        let pin = std::mem::replace(&mut sn.pin, Pin::Evaluate);
        let part_reads = std::mem::take(&mut sn.part_reads);
        sn.pending_regions.sort_by_key(|&(p, _, _)| p);
        for (_, rows, region) in sn.pending_regions.drain(..) {
            sn.storage.push_part(rows, region);
        }
        let rows = sn.storage.rows();
        let fp = run.fingerprints[node.idx()];
        let evaluated = match pin {
            Pin::Memo(MemoEntry { evaluated, .. }) | Pin::Cached(evaluated) => {
                debug_assert!(
                    partials.iter().all(|p| matches!(p, Some(Partial::Reuse))),
                    "reuse-pinned node produced real partials"
                );
                evaluated
            }
            // Only here are the partials' rows the actual ones (a
            // memo-served node carries the even split), so only a node
            // whose kernels ran fills the dataset cache.
            Pin::Evaluate => {
                let part_rows = partials
                    .iter()
                    .map(|p| p.as_ref().map_or(0, partial_rows))
                    .collect();
                // Partials are handed to assembly by value:
                // single-partition nodes move their buffers straight
                // into the Mat instead of copying, and group/hash
                // partials merge without clones.
                let mat = assemble_parts(
                    run.flow.plan().node(node),
                    &RunInputs {
                        run,
                        catalog: &self.catalog,
                        store: &self.store,
                    },
                    partials,
                );
                let cache = self.eval_cache.as_ref().expect("engine not loaded");
                let evaluated = Evaluated {
                    mat,
                    part_rows,
                    part_reads,
                };
                cache.insert(fp, evaluated)
            }
        };
        // Fill the memo (bounded by epoch flush).
        if !self.memo.contains_key(&fp) {
            if self.memo.len() >= MEMO_CAPACITY {
                self.memo.clear();
            }
            let entry = MemoEntry {
                rows,
                evaluated: Arc::clone(&evaluated),
            };
            self.memo.insert(fp, entry);
        }

        let (ready, done) = run.flow.finalize(node, evaluated.mat.clone());
        for d in ready {
            self.schedule_node(qid, d);
        }
        if self.queues.len() > 0 {
            for i in 0..self.worker_tids.len() {
                ctx.wake(self.worker_tids[i]);
            }
        }

        if done {
            let run = self.queries.remove(&qid.0).expect("dead query");
            // Free all intermediate regions.
            for sn in &run.side {
                for region in sn.storage.regions() {
                    ctx.machine.free(region);
                }
            }
            let traffic = ctx.machine.counters_mut().retire_stream(run.stream);
            let outcome = run.flow.into_result(ctx.now + step_offset, traffic);
            self.stats.queries_completed += u64::from(outcome.is_ok());
            self.results.insert(qid.0, outcome);
            ctx.wake(run.client);
        }
    }

    /// The simulated fault plane, checked at the top of every worker
    /// step. Fires any due fault for worker `idx`, then reports how
    /// long the worker is still dark (`None` = healthy, run normally).
    ///
    /// A **kill** loses the worker's in-flight cursor: its task is
    /// requeued (exactly once — the partial was never committed) and
    /// its allocated output freed, then the worker goes dark for
    /// [`sim_revive_delay`], the sim's fixed detect+respawn turnaround,
    /// counted in [`EngineStats::engine_recoveries`]/`recovery_ms`. A
    /// **stall** keeps the cursor and just goes dark for the stall
    /// duration. Dark workers burn their simulated quantum without
    /// progress, so recovery timing is deterministic.
    fn fault_dark(&mut self, idx: usize, ctx: &mut WorkCtx<'_>) -> Option<SimDuration> {
        let now = ctx.now;
        let mut kill = false;
        let mut stall: Option<SimDuration> = None;
        {
            let f = self.faults.as_mut()?;
            if f.dark_until.len() <= idx {
                f.dark_until.resize(idx + 1, SimTime::ZERO);
            }
            while let Some(kind) = f.clock.due(idx, now.since(SimTime::ZERO)) {
                match kind {
                    WorkerFaultKind::Kill => kill = true,
                    WorkerFaultKind::Stall(d) => stall = Some(d),
                }
            }
        }
        if kill {
            self.sim_kill_worker(idx, ctx);
            let revive = now + sim_revive_delay();
            self.stats.engine_recoveries += 1;
            self.stats.recovery_ms += sim_revive_delay().as_secs_f64() * 1e3;
            let f = self.faults.as_mut()?;
            if revive > f.dark_until[idx] {
                f.dark_until[idx] = revive;
            }
        }
        if let Some(d) = stall {
            let f = self.faults.as_mut()?;
            let until = now + d;
            if until > f.dark_until[idx] {
                f.dark_until[idx] = until;
            }
        }
        let dark = *self.faults.as_ref()?.dark_until.get(idx)?;
        if now < dark {
            Some(dark - now)
        } else {
            None
        }
    }

    /// The sim analogue of a worker dying mid-task: its parked cursor's
    /// task goes back to the global queue (to be re-prepared and
    /// re-executed by a survivor or by this worker after it revives),
    /// the cursor's output region is freed, and the worker's private
    /// queue is rehomed so lineage preferences cannot strand tasks on a
    /// dark worker.
    fn sim_kill_worker(&mut self, idx: usize, ctx: &mut WorkCtx<'_>) {
        if let Some(mut cursor) = self.resume_slot(idx) {
            if let Some(region) = cursor.out_region.take() {
                ctx.machine.free(&region);
            }
            self.queues.deques.global.push_back(cursor.task);
            if self.item_pool.len() < POOL_CAP {
                self.item_pool.push(cursor.take_items());
            }
        }
        self.queues.deques.rehome(idx);
        // Survivors may now have work they were never woken for.
        for i in 0..self.worker_tids.len() {
            ctx.wake(self.worker_tids[i]);
        }
    }
}

/// Input resolution for operator evaluation/assembly, abstracted over
/// the executor: the simulated engine resolves against its `QueryRun`
/// and `BatStore`, the threads backend ([`crate::exec::par`]) against a
/// lock-free snapshot of input mats and shared base columns.
pub(crate) trait ExecInputs {
    /// A base column's data.
    fn col_data(&self, c: &ColRef) -> &ColData;
    /// A finished upstream node's materialised result.
    fn node_mat(&self, n: NodeId) -> &Mat;
}

/// Engine-side [`ExecInputs`]: resolves against the live query run.
struct RunInputs<'a> {
    run: &'a QueryRun,
    catalog: &'a Catalog,
    store: &'a BatStore,
}

impl ExecInputs for RunInputs<'_> {
    fn col_data(&self, c: &ColRef) -> &ColData {
        &self.store.get(self.catalog.column(c.table, c.column)).data
    }

    fn node_mat(&self, n: NodeId) -> &Mat {
        self.run.flow.mat(n).expect("input mat ready")
    }
}

/// Evaluates rows `start..end` of an operator's primary input, over any
/// [`ExecInputs`] source — the one kernel entry point of both executors.
pub(crate) fn evaluate_partition_on(
    op: &PhysOp,
    inputs: &impl ExecInputs,
    start: usize,
    end: usize,
) -> Partial {
    let col_data = |c: &ColRef| -> &ColData { inputs.col_data(c) };
    let node_mat = |n: NodeId| -> &Mat { inputs.node_mat(n) };
    match op {
        PhysOp::ScanSelect { col, pred } => {
            Partial::Pos(eval::scan_select(col_data(col), start, end, pred))
        }
        PhysOp::SelectAnd {
            candidates,
            col,
            pred,
        } => {
            let cands = node_mat(*candidates).as_pos();
            Partial::Pos(eval::select_and(
                &cands.pos[start..end],
                col_data(col),
                pred,
            ))
        }
        PhysOp::SelectColCmp {
            candidates,
            left,
            right,
            op,
        } => {
            let out = match candidates {
                Some(c) => {
                    let cands = node_mat(*c).as_pos();
                    eval::select_col_cmp(
                        Some(&cands.pos[start..end]),
                        col_data(left),
                        col_data(right),
                        *op,
                        (0, 0),
                    )
                }
                None => {
                    eval::select_col_cmp(None, col_data(left), col_data(right), *op, (start, end))
                }
            };
            Partial::Pos(out)
        }
        PhysOp::Project { positions, col } => {
            let pos = node_mat(*positions).as_pos();
            project_partial(&pos.pos[start..end], col_data(col))
        }
        PhysOp::ProjectSide { pairs, side, col } => {
            let pm = node_mat(*pairs).as_pairs();
            let slice = match side {
                Side::Probe => &pm.probe.pos[start..end],
                Side::Build => &pm.build.pos[start..end],
            };
            project_partial(slice, col_data(col))
        }
        PhysOp::BinOp { left, right, op } => {
            let l = node_mat(*left).as_val();
            let r = node_mat(*right).as_val();
            Partial::ValsF64(eval::bin_op(&l.data, &r.data, *op, start, end))
        }
        PhysOp::AggrSum { values } => {
            let v = node_mat(*values).as_val();
            Partial::Sum(eval::aggr_sum(&v.data, start, end))
        }
        PhysOp::GroupAgg { keys, values, agg } => {
            let k = node_mat(*keys).as_val();
            let v = values.map(|v| node_mat(v).as_val());
            Partial::Groups(eval::group_agg(
                &k.data,
                v.map(|v| &v.data),
                *agg,
                start,
                end,
            ))
        }
        PhysOp::JoinBuild { keys } => {
            let k = node_mat(*keys).as_val();
            Partial::BuildKeys(eval::build_hash_part(&k.data, start, end))
        }
        PhysOp::JoinProbe { build, probe } => {
            let table = node_mat(*build).as_hash();
            let p = node_mat(*probe).as_val();
            let probe_origin = p.origin.as_ref().map(|o| o.pos.as_slice());
            let build_origin = table.build_origin.as_ref().map(|o| o.pos.as_slice());
            let (po, bo) = eval::probe_hash(table, &p.data, probe_origin, build_origin, start, end);
            Partial::PairParts(po, bo)
        }
        PhysOp::TopN { input, n } => {
            let g = node_mat(*input).as_groups();
            Partial::Groups(GroupAcc::Pairs(eval::top_n(g, *n)))
        }
    }
}

/// A projection's partial: the kernel's freshly gathered column, moved
/// out of its `Arc`.
fn project_partial(positions: &[u32], col: &ColData) -> Partial {
    match eval::project(positions, col) {
        ColData::I64(v) => Partial::ValsI64(Arc::unwrap_or_clone(v)),
        ColData::F64(v) => Partial::ValsF64(Arc::unwrap_or_clone(v)),
    }
}

/// Assembles a node's final [`Mat`] from its partials, over any
/// [`ExecInputs`] source — the one assembly path of both executors.
/// Partials arrive by value and are joined or merged strictly in
/// partition order, so both executors produce the same float results
/// bit for bit; buffers are joined by `concat`.
pub(crate) fn assemble_parts(
    op: &PhysOp,
    inputs: &impl ExecInputs,
    partials: Vec<Option<Partial>>,
) -> Mat {
    let node_mat = |n: NodeId| -> &Mat { inputs.node_mat(n) };
    let table_of = |col: &ColRef| -> &'static str { col.table };
    let pos_mat = |table, partials| {
        let parts = take_parts(partials, "selection", |p| match p {
            Partial::Pos(v) => Some(v),
            _ => None,
        });
        Mat::Pos(PosMat {
            table,
            pos: Arc::new(concat(parts)),
        })
    };
    match op {
        PhysOp::ScanSelect { col, .. } | PhysOp::SelectAnd { col, .. } => {
            pos_mat(table_of(col), partials)
        }
        PhysOp::SelectColCmp { left, .. } => pos_mat(table_of(left), partials),
        PhysOp::Project { positions, .. } => {
            let origin = node_mat(*positions).as_pos().clone();
            Mat::Val(ValMat {
                data: val_column(partials),
                origin: Some(origin),
            })
        }
        PhysOp::ProjectSide { pairs, side, .. } => {
            let pm = node_mat(*pairs).as_pairs();
            let origin = match side {
                Side::Probe => pm.probe.clone(),
                Side::Build => pm.build.clone(),
            };
            Mat::Val(ValMat {
                data: val_column(partials),
                origin: Some(origin),
            })
        }
        PhysOp::BinOp { left, .. } => {
            let origin = node_mat(*left).as_val().origin.clone();
            Mat::Val(ValMat {
                data: val_column(partials),
                origin,
            })
        }
        PhysOp::AggrSum { .. } => {
            let sums = take_parts(partials, "AggrSum", |p| match p {
                Partial::Sum(s) => Some(s),
                _ => None,
            });
            Mat::Scalar(sums.into_iter().sum())
        }
        PhysOp::GroupAgg { .. } | PhysOp::TopN { .. } => {
            let accs = take_parts(partials, "group/topn", |p| match p {
                Partial::Groups(acc) => Some(acc),
                _ => None,
            });
            let merged = eval::merge_groups(accs);
            if let PhysOp::TopN { n, .. } = op {
                Mat::Groups(Arc::new(eval::top_n(&merged, *n)))
            } else {
                Mat::Groups(Arc::new(merged))
            }
        }
        PhysOp::JoinBuild { keys } => {
            let k = node_mat(*keys).as_val();
            let key_parts = take_parts(partials, "JoinBuild", |p| match p {
                Partial::BuildKeys(v) => Some(v),
                _ => None,
            });
            let map = FlatJoinMap::from_parts(key_parts);
            debug_assert_eq!(
                map.n_rows(),
                k.data.len(),
                "build partials must tile the keys"
            );
            let build_table = k.origin.as_ref().map(|o| o.table).unwrap_or("unknown");
            Mat::Hash(Arc::new(JoinTable {
                map,
                build_origin: k.origin.clone(),
                build_table,
            }))
        }
        PhysOp::JoinProbe { build, probe } => {
            let p = node_mat(*probe).as_val();
            let probe_table = p.origin.as_ref().map(|o| o.table).unwrap_or("unknown");
            let table = node_mat(*build).as_hash();
            let build_table = table
                .build_origin
                .as_ref()
                .map(|o| o.table)
                .unwrap_or(table.build_table);
            let (probe_parts, build_parts) = take_parts(partials, "JoinProbe", |p| match p {
                Partial::PairParts(po, bo) => Some((po, bo)),
                _ => None,
            })
            .into_iter()
            .unzip();
            Mat::Pairs(PairsMat {
                probe: PosMat {
                    table: probe_table,
                    pos: Arc::new(concat(probe_parts)),
                },
                build: PosMat {
                    table: build_table,
                    pos: Arc::new(concat(build_parts)),
                },
            })
        }
    }
}

/// Takes every partial out through `unwrap`, in partition order.
///
/// # Panics
/// On a partial `unwrap` rejects, or one never committed: the node's
/// operator (`what`) cannot have produced it.
fn take_parts<T>(
    partials: Vec<Option<Partial>>,
    what: &str,
    unwrap: impl Fn(Partial) -> Option<T>,
) -> Vec<T> {
    partials
        .into_iter()
        .map(|p| {
            p.and_then(&unwrap)
                .unwrap_or_else(|| panic!("foreign partial in {what}"))
        })
        .collect()
}

/// A value node's column. Its partials share one type: a projection's
/// is its column's, a `BinOp`'s always f64.
fn val_column(partials: Vec<Option<Partial>>) -> ColData {
    if let Some(Some(Partial::ValsI64(_))) = partials.first() {
        let parts = take_parts(partials, "an i64 value node", |p| match p {
            Partial::ValsI64(v) => Some(v),
            _ => None,
        });
        ColData::I64(Arc::new(concat(parts)))
    } else {
        let parts = take_parts(partials, "an f64 value node", |p| match p {
            Partial::ValsF64(v) => Some(v),
            _ => None,
        });
        ColData::F64(Arc::new(concat(parts)))
    }
}

/// Joins partition buffers in partition order: the buffer moves when one
/// partition holds every row, otherwise the output is reserved once.
fn concat<T: Copy>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    match parts.iter().position(|p| p.len() == total) {
        Some(whole) => parts.swap_remove(whole),
        None => parts.concat(),
    }
}

fn partial_rows(p: &Partial) -> usize {
    match p {
        Partial::Pos(v) => v.len(),
        Partial::ValsF64(v) => v.len(),
        Partial::ValsI64(v) => v.len(),
        Partial::PairParts(a, _) => a.len(),
        Partial::Sum(_) => 0,
        Partial::Groups(acc) => acc.n_groups(),
        Partial::BuildKeys(v) => v.len(),
        Partial::Reuse => 0,
    }
}

/// The position list a partition gathers base columns through, and
/// whether it is sorted (selection vectors are; one side of join pairs
/// is not) — `None` for an operator that reads no base column by
/// position.
fn gathered_positions<'a>(
    op: &PhysOp,
    mat_of: impl Fn(NodeId) -> &'a Mat,
    start: usize,
    end: usize,
) -> Option<(&'a [u32], bool)> {
    match op {
        PhysOp::SelectAnd { candidates, .. }
        | PhysOp::SelectColCmp {
            candidates: Some(candidates),
            ..
        }
        | PhysOp::Project {
            positions: candidates,
            ..
        } => Some((&mat_of(*candidates).as_pos().pos[start..end], true)),
        PhysOp::ProjectSide { pairs, side, .. } => {
            let pm = mat_of(*pairs).as_pairs();
            let list = match side {
                Side::Probe => &pm.probe.pos[start..end],
                Side::Build => &pm.build.pos[start..end],
            };
            Some((list, false))
        }
        _ => None,
    }
}

/// Appends the segment indices a position list touches.
fn gather_indices(list: &[u32], sorted: bool, bitmap: &mut Vec<u64>, out: &mut Vec<u32>) {
    if sorted {
        segment_indices_sorted_into(list, out);
    } else {
        segment_indices_unsorted_into(list, bitmap, out);
    }
}

fn out_row_bytes(op: &PhysOp) -> u64 {
    match op {
        PhysOp::ScanSelect { .. } | PhysOp::SelectAnd { .. } | PhysOp::SelectColCmp { .. } => 4,
        PhysOp::Project { .. } | PhysOp::ProjectSide { .. } | PhysOp::BinOp { .. } => 8,
        PhysOp::JoinProbe { .. } => 8,
        PhysOp::GroupAgg { .. } => 16,
        PhysOp::JoinBuild { .. } => 16,
        PhysOp::AggrSum { .. } | PhysOp::TopN { .. } => 0,
    }
}

fn op_cycles(op: &PhysOp) -> u64 {
    match op {
        PhysOp::ScanSelect { .. } => cost::SCAN_SELECT,
        PhysOp::SelectAnd { .. } => cost::SELECT_AND,
        PhysOp::SelectColCmp { .. } => cost::SELECT_COL_CMP,
        PhysOp::Project { .. } => cost::PROJECT,
        PhysOp::ProjectSide { .. } => cost::PROJECT,
        PhysOp::BinOp { .. } => cost::BIN_OP,
        PhysOp::AggrSum { .. } => cost::AGGR_SUM,
        PhysOp::GroupAgg { .. } => cost::GROUP_AGG,
        PhysOp::JoinBuild { .. } => cost::JOIN_BUILD,
        PhysOp::JoinProbe { .. } => cost::JOIN_PROBE,
        PhysOp::TopN { .. } => cost::TOP_N,
    }
}

/// The first input segment of a task's partition (locality dispatch).
fn first_input_segment(
    run: &QueryRun,
    task: &Task,
    catalog: &Catalog,
    store: &BatStore,
) -> Option<SegId> {
    let (start, end) = run.flow.range(task);
    if start >= end {
        return None;
    }
    match run.flow.plan().node(task.node) {
        PhysOp::ScanSelect { col, .. } => {
            let bat = store.get(catalog.column(col.table, col.column));
            bat.segments_for_rows(start, start + 1).first().copied()
        }
        op => {
            let input = op.inputs().first().copied()?;
            run.side[input.idx()]
                .storage
                .segments_for_rows(start, start + 1)
                .first()
                .copied()
        }
    }
}

/// Structural fingerprints for memoisation: equal sub-plans over the same
/// base data share results.
fn fingerprint_plan(plan: &Plan) -> Vec<u64> {
    let mut fps: Vec<u64> = Vec::with_capacity(plan.len());
    for (i, op) in plan.nodes().iter().enumerate() {
        let mut h = emca_metrics::fxhash::FxHasher::default();
        std::mem::discriminant(op).hash(&mut h);
        match op {
            PhysOp::ScanSelect { col, pred } => {
                col.hash(&mut h);
                hash_pred(pred, &mut h);
            }
            PhysOp::SelectAnd { col, pred, .. } => {
                col.hash(&mut h);
                hash_pred(pred, &mut h);
            }
            PhysOp::SelectColCmp {
                left, right, op, ..
            } => {
                left.hash(&mut h);
                right.hash(&mut h);
                op.hash(&mut h);
            }
            PhysOp::Project { col, .. } => col.hash(&mut h),
            PhysOp::ProjectSide { side, col, .. } => {
                side.hash(&mut h);
                col.hash(&mut h);
            }
            PhysOp::BinOp { op, .. } => op.hash(&mut h),
            PhysOp::AggrSum { .. } => {}
            PhysOp::GroupAgg { agg, .. } => agg.hash(&mut h),
            PhysOp::JoinBuild { .. } => {}
            PhysOp::JoinProbe { .. } => {}
            PhysOp::TopN { n, .. } => n.hash(&mut h),
        }
        for input in plan.node(NodeId(i as u16)).inputs() {
            fps[input.idx()].hash(&mut h);
        }
        fps.push(h.finish());
    }
    fps
}

fn hash_pred(pred: &crate::exec::plan::ScalarPred, h: &mut impl Hasher) {
    use crate::exec::plan::ScalarPred as P;
    match pred {
        P::Cmp(op, k) => {
            0u8.hash(h);
            op.hash(h);
            k.to_bits().hash(h);
        }
        P::Between(a, b) => {
            1u8.hash(h);
            a.to_bits().hash(h);
            b.to_bits().hash(h);
        }
        P::InSet(s) => {
            2u8.hash(h);
            s.hash(h);
        }
    }
}

/// The worker thread body: pops tasks, advances cursors, completes them.
pub struct WorkerBody {
    engine: Engine,
    /// Worker index in the pool.
    pub idx: usize,
}

impl SimWork for WorkerBody {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        // Fault plane first: a killed/stalled worker burns its quantum
        // dark instead of executing (inert unless a plan is armed).
        if let Some(dark) = self.engine.core().fault_dark(self.idx, ctx) {
            return StepOutcome::Ran(dark.min(ctx.budget));
        }
        let mut elapsed = SimDuration::ZERO;
        loop {
            if elapsed >= ctx.budget {
                return StepOutcome::Ran(elapsed);
            }
            // Resume or fetch a task.
            let cursor = {
                let mut core = self.engine.core();
                match core.resume_slot(self.idx) {
                    Some(c) => Some(c),
                    None => {
                        core.localize_tasks(ctx.machine);
                        let node = ctx.machine.topology().node_of(ctx.core);
                        match core.pop_task(node, self.idx) {
                            Some(task) => Some(core.prepare_task(task, ctx.machine)),
                            None => None,
                        }
                    }
                }
            };
            let Some(mut cursor) = cursor else {
                return StepOutcome::Blocked(elapsed);
            };
            let (used, done) = cursor.advance(ctx, ctx.budget.saturating_sub(elapsed));
            elapsed += used;
            let mut core = self.engine.core();
            if done {
                core.complete_task(cursor, ctx, elapsed, self.idx);
            } else {
                core.park_slot(self.idx, cursor);
                return StepOutcome::Ran(elapsed);
            }
        }
    }

    fn label(&self) -> &str {
        "dbms-worker"
    }
}

// Per-worker parked cursors (tasks in progress across ticks).
impl EngineCore {
    fn resume_slot(&mut self, idx: usize) -> Option<TaskCursor> {
        if self.parked.len() <= idx {
            self.parked.resize_with(idx + 1, || None);
        }
        self.parked[idx].take()
    }

    fn park_slot(&mut self, idx: usize, cursor: TaskCursor) {
        if self.parked.len() <= idx {
            self.parked.resize_with(idx + 1, || None);
        }
        self.parked[idx] = Some(cursor);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{drain_results, spawn_clients, Workload};
    use crate::tpch::{QuerySpec, TpchScale};
    use os_sim::{CoreMask, GroupId, Kernel, ThreadState};

    /// One simulated machine with an engine loaded from `data`.
    pub(crate) struct Stack {
        kernel: Kernel,
        engine: Engine,
        group: GroupId,
    }

    /// `n_workers` 0 = one per core (16).
    pub(crate) fn stack(data: &TpchData, n_workers: usize) -> Stack {
        let mut kernel = Kernel::opteron_4x4();
        let engine = Engine::new(
            EngineConfig {
                n_workers,
                ..EngineConfig::default()
            },
            kernel.machine().topology().n_nodes(),
        );
        engine.load(kernel.machine_mut(), data, Some(numa_sim::CoreId(0)));
        let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
        engine.start_workers(&mut kernel, group);
        Stack {
            kernel,
            engine,
            group,
        }
    }

    impl Stack {
        /// Runs `workload` on two new clients to completion (the second
        /// client's sub-plans hit the memo). Returns the first client's
        /// results, then the second's.
        pub(crate) fn results(&mut self, workload: Workload) -> Vec<QueryResult> {
            let logs = spawn_clients(&mut self.kernel, &self.engine, self.group, 2, workload);
            let done = self.kernel.run_until_cond(SimTime::from_secs(3_000), |k| {
                (0..k.n_threads() as u32).map(Tid).all(|t| {
                    !k.thread_name(t).starts_with("client")
                        || k.thread_state(t) == ThreadState::Finished
                })
            });
            assert!(done, "clients did not finish");
            drain_results(&logs)
        }

        /// [`Stack::results`] with everything simulated that a result
        /// carries rendered, and the clock.
        fn run(&mut self, workload: Workload) -> (Vec<String>, SimTime) {
            let results = self
                .results(workload)
                .iter()
                .map(|r| {
                    format!(
                        "{} {:?} {:?} {:?} {:?}",
                        r.label, r.submitted, r.finished, r.traffic, r.result
                    )
                })
                .collect();
            (results, self.kernel.now())
        }

        fn kernel_tasks(&self) -> u64 {
            self.engine.core_ref().kernel_tasks
        }

        fn position_scans(&self) -> u64 {
            self.engine.core_ref().position_scans
        }
    }

    /// 60 k lineitem rows: 15 partitions at 16 workers, 4 at 4 — enough
    /// that partitions of one node produce visibly different row counts.
    const SF_001: TpchScale = TpchScale { sf: 0.01, seed: 42 };

    fn tpch(numbers: &[u8]) -> Workload {
        Workload::StablePhases {
            specs: numbers
                .iter()
                .map(|&number| QuerySpec::Tpch { number, variant: 0 })
                .collect(),
        }
    }

    #[test]
    fn second_engine_over_a_dataset_runs_no_kernels() {
        let all: Vec<u8> = (1..=22).collect();
        let data = TpchData::generate(SF_001);
        let mut first = stack(&data, 0);
        let cold = first.run(tpch(&all));
        assert!(first.kernel_tasks() > 0);
        let executed = first.engine.stats().tasks_executed;
        assert!(
            first.kernel_tasks() < executed,
            "the second client is memo-served"
        );

        let mut second = stack(&data, 0);
        let warm = second.run(tpch(&all));
        assert_eq!(second.kernel_tasks(), 0, "every node was already evaluated");
        assert_eq!(second.engine.stats().tasks_executed, executed);
        assert_eq!(warm, cold, "simulated time cannot tell the two apart");
    }

    #[test]
    fn second_engine_over_a_dataset_scans_no_positions() {
        let all: Vec<u8> = (1..=22).collect();
        let data = TpchData::generate(SF_001);
        let mut first = stack(&data, 0);
        let cold = first.run(tpch(&all));
        assert!(first.position_scans() > 0);
        assert!(
            first.position_scans() < first.kernel_tasks(),
            "only gathers scan, and the memo-served client reuses their records"
        );

        // Every position gather of the repeat maps a record onto its
        // column (debug builds check each against a scan).
        let mut second = stack(&data, 0);
        let warm = second.run(tpch(&all));
        assert_eq!(second.position_scans(), 0);
        assert_eq!(warm, cold);
    }

    #[test]
    fn memo_served_node_does_not_fill_the_cache() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let mut engine = stack(&data, 0);
        engine.run(tpch(&[6]));
        let ran = engine.kernel_tasks();
        assert!(ran > 0 && !data.eval_cache().is_empty());

        // With the dataset cache emptied under it, the engine's memo
        // still serves every node of a repeat — at even-split rows, which
        // must not be recorded as what the partitions produced.
        data.eval_cache().clear();
        engine.run(tpch(&[6]));
        assert_eq!(engine.kernel_tasks(), ran, "the repeat is memo-served");
        assert!(data.eval_cache().is_empty());

        // So the next engine evaluates again, and agrees with a fresh one.
        let mut next = stack(&data, 0);
        let got = next.run(tpch(&[6]));
        assert_eq!(next.kernel_tasks(), ran);
        let fresh = TpchData::generate(TpchScale::test_tiny());
        assert_eq!(got, stack(&fresh, 0).run(tpch(&[6])));
    }

    #[test]
    fn another_pool_width_misses_instead_of_reading_wrong_rows() {
        let scale = SF_001;
        let queries = [1, 3, 6, 12];
        let data = TpchData::generate(scale);
        stack(&data, 16).run(tpch(&queries));
        let mut narrow = stack(&data, 4);
        let got = narrow.run(tpch(&queries));
        assert!(
            narrow.kernel_tasks() > 0,
            "nodes split 4 ways were never evaluated"
        );
        assert!(
            narrow.position_scans() > 0,
            "16 partitions' reads must not be read as 4 partitions'"
        );

        // Same rows, same reads: every result's traffic and completion
        // time equals the twin's over freshly generated data.
        let fresh = TpchData::generate(scale);
        let mut twin = stack(&fresh, 4);
        assert_eq!(got, twin.run(tpch(&queries)));
        assert!(
            narrow.kernel_tasks() < twin.kernel_tasks(),
            "single-partition nodes are shared across widths"
        );
        assert!(narrow.position_scans() < twin.position_scans());
    }
}
