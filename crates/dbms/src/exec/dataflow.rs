//! The dataflow state machine: how a plan becomes partition tasks, and
//! when a node and a query are done.
//!
//! Both executors — the simulated [`Engine`](super::engine::Engine) and
//! the real-thread [`ParEngine`](super::par::ParEngine) — hold one
//! [`Flow`] per in-flight query and one [`Deques`] per pool, and only
//! *drive* them: they decide when a worker runs and what a partition
//! costs, never how many partitions a node has, which worker a slice
//! prefers, whether a partial may commit, or which node is ready next.
//! Nothing here reads a clock, takes a lock or knows about threads;
//! timestamps and worker indices are passed in.
//!
//! The lifecycle of a node is `waiting → scheduled → assembling → done`:
//!
//! - [`Flow::new`] returns the source nodes (no inputs), ready at once;
//! - [`Flow::schedule`] splits a ready node into its [`Task`]s — once;
//! - [`Flow::commit`] stores one partition's partial — once per
//!   partition ([`Commit::Duplicate`] otherwise) — and hands the full
//!   set to exactly one caller ([`Commit::NodeDone`]), who assembles;
//! - [`Flow::finalize`] stores the assembled mat — once — and returns
//!   the dependents that just became ready and whether the query is
//!   complete.
//!
//! Exactly-once is therefore a property of this type, not of the code
//! that happens to hold the pool lock around it.

use crate::exec::engine::QueryResult;
use crate::exec::mat::Mat;
use crate::exec::par::QueryError;
use crate::exec::plan::{NodeId, PhysOp, Plan};
use crate::exec::task::{n_parts_for, part_range, Partial, QueryId, Task};
use emca_metrics::{SimDuration, SimTime};
use numa_sim::StreamTraffic;
use std::collections::VecDeque;
use std::ops::Deref;

/// Per-node run record.
struct FlowNode {
    /// Rows of the primary input, fixed when the node is scheduled.
    len: usize,
    /// Partition count; `0` until scheduled.
    n_parts: u32,
    remaining: u32,
    waiting_inputs: u32,
    /// One slot per partition; taken as a whole by the last committer.
    partials: Vec<Option<Partial>>,
    /// Which worker executed each partition (slice-affinity lineage).
    part_worker: Vec<Option<u32>>,
    mat: Option<Mat>,
}

/// What a [`Flow::commit`] did.
pub(crate) enum Commit {
    /// The partition was already committed (or its node is already
    /// assembling, or was never scheduled): this copy is dropped.
    Duplicate,
    /// Stored; other partitions of the node are still outstanding.
    Pending,
    /// Stored, and it was the node's last: here are all its partials, in
    /// partition order. The caller assembles and calls
    /// [`Flow::finalize`].
    NodeDone(Vec<Option<Partial>>),
}

impl Commit {
    /// Whether the commit counts as an executed task (a dropped
    /// duplicate does not).
    pub(crate) fn counts(&self) -> bool {
        !matches!(self, Commit::Duplicate)
    }
}

/// One query's run record, generic over how the executor shares the
/// plan (`Rc` on the simulator, `Arc` on threads).
pub(crate) struct Flow<P> {
    qid: QueryId,
    plan: P,
    spec_tag: u32,
    submitted: SimTime,
    busy: SimDuration,
    dependents: Vec<Vec<NodeId>>,
    nodes: Vec<FlowNode>,
    pending_nodes: usize,
}

/// The plan node an operator partitions over (the slice-affinity lineage
/// source): for a join probe the *probe* side, not `inputs().first()`
/// (which is the build). `None` for operators partitioned over a base
/// table.
fn primary_input(op: &PhysOp) -> Option<NodeId> {
    match op {
        PhysOp::ScanSelect { .. } => None,
        PhysOp::SelectAnd { candidates, .. } => Some(*candidates),
        PhysOp::SelectColCmp { candidates, .. } => *candidates,
        PhysOp::Project { positions, .. } => Some(*positions),
        PhysOp::ProjectSide { pairs, .. } => Some(*pairs),
        PhysOp::BinOp { left, .. } => Some(*left),
        PhysOp::AggrSum { values } => Some(*values),
        PhysOp::GroupAgg { keys, .. } => Some(*keys),
        PhysOp::JoinBuild { keys } => Some(*keys),
        PhysOp::JoinProbe { probe, .. } => Some(*probe),
        PhysOp::TopN { input, .. } => Some(*input),
    }
}

impl<P: Deref<Target = Plan>> Flow<P> {
    /// Starts a query's flow; also returns its source nodes, which the
    /// caller schedules right away.
    pub(crate) fn new(
        qid: QueryId,
        plan: P,
        spec_tag: u32,
        submitted: SimTime,
    ) -> (Self, Vec<NodeId>) {
        let nodes: Vec<FlowNode> = plan
            .nodes()
            .iter()
            .map(|op| FlowNode {
                len: 0,
                n_parts: 0,
                remaining: 0,
                waiting_inputs: op.inputs().len() as u32,
                partials: Vec::new(),
                part_worker: Vec::new(),
                mat: None,
            })
            .collect();
        let sources = (0..nodes.len())
            .filter(|&i| nodes[i].waiting_inputs == 0)
            .map(|i| NodeId(i as u16))
            .collect();
        let flow = Flow {
            qid,
            dependents: plan.dependents(),
            pending_nodes: nodes.len(),
            plan,
            spec_tag,
            submitted,
            busy: SimDuration::ZERO,
            nodes,
        };
        (flow, sources)
    }

    /// The plan this flow runs.
    pub(crate) fn plan(&self) -> &P {
        &self.plan
    }

    /// A finished node's mat (`None` until finalized).
    pub(crate) fn mat(&self, node: NodeId) -> Option<&Mat> {
        self.nodes[node.idx()].mat.as_ref()
    }

    /// Snapshot of every node's mat, for evaluation outside a lock
    /// (mats are `Arc`-backed, so the clones are pointer-cheap).
    pub(crate) fn mats(&self) -> Vec<Option<Mat>> {
        self.nodes.iter().map(|n| n.mat.clone()).collect()
    }

    /// Rows of the input `node` partitions over: its primary input's
    /// mat, or the base table (`rows`) for scans.
    pub(crate) fn primary_len(&self, node: NodeId, rows: impl Fn(&'static str) -> usize) -> usize {
        let op = self.plan.node(node);
        match (primary_input(op), op) {
            (Some(input), _) => self.mat(input).map_or(0, Mat::len),
            (None, PhysOp::ScanSelect { col, .. }) => rows(col.table),
            (None, PhysOp::SelectColCmp { left, .. }) => rows(left.table),
            (None, _) => 0,
        }
    }

    /// Splits a ready node into its partition tasks: one per `width`
    /// (the pool's scheduling width — never the active count, results
    /// must not depend on the allocation), fewer for short inputs, one
    /// for a top-n. Partition `p` prefers the worker that executed the
    /// matching slice of the primary input (mitosis chains a slice
    /// through the operator pipeline on one dataflow thread); source
    /// scans are dealt round-robin from the query id. A node that is
    /// still waiting on an input, or was already scheduled, yields
    /// nothing.
    pub(crate) fn schedule(
        &mut self,
        node: NodeId,
        primary_len: usize,
        width: usize,
    ) -> impl Iterator<Item = Task> + '_ {
        let width = width.max(1);
        let op = self.plan.node(node);
        let nr = &mut self.nodes[node.idx()];
        let n_parts = if nr.waiting_inputs != 0 || nr.n_parts != 0 {
            0
        } else {
            let n_parts = match op {
                PhysOp::TopN { .. } => 1,
                _ => n_parts_for(primary_len, width),
            };
            nr.len = primary_len;
            nr.n_parts = n_parts;
            nr.remaining = n_parts;
            nr.partials = (0..n_parts).map(|_| None).collect();
            nr.part_worker = vec![None; n_parts as usize];
            n_parts
        };
        let lineage: &[Option<u32>] = match primary_input(op) {
            Some(input) => &self.nodes[input.idx()].part_worker,
            None => &[],
        };
        let qid = self.qid;
        (0..n_parts).map(move |part| Task {
            qid,
            node,
            part,
            n_parts,
            pref_node: None,
            pref_worker: if lineage.is_empty() {
                Some((qid.0 as u32).wrapping_add(part) % width as u32)
            } else {
                lineage[part as usize * lineage.len() / n_parts as usize]
            },
        })
    }

    /// Rows of `node`'s primary input as fixed at schedule time.
    fn scheduled_len(&self, node: NodeId) -> usize {
        self.nodes[node.idx()].len
    }

    /// The row range of the primary input `task` covers.
    pub(crate) fn range(&self, task: &Task) -> (usize, usize) {
        part_range(self.scheduled_len(task.node), task.part, task.n_parts)
    }

    /// Whether `task`'s partition is still open — the requeue test: a
    /// task held by a worker that went dark is put back only if this
    /// holds, so it can never be queued alongside its own result.
    pub(crate) fn uncommitted(&self, task: &Task) -> bool {
        let nr = &self.nodes[task.node.idx()];
        nr.partials.len() == task.n_parts as usize && nr.partials[task.part as usize].is_none()
    }

    /// Stores the partial `worker` computed for `task`. First commit
    /// wins; any later copy is dropped without touching the count.
    pub(crate) fn commit(&mut self, task: &Task, worker: u32, partial: Partial) -> Commit {
        if !self.uncommitted(task) {
            return Commit::Duplicate;
        }
        let nr = &mut self.nodes[task.node.idx()];
        nr.part_worker[task.part as usize] = Some(worker);
        nr.partials[task.part as usize] = Some(partial);
        nr.remaining -= 1;
        if nr.remaining == 0 {
            Commit::NodeDone(std::mem::take(&mut nr.partials))
        } else {
            Commit::Pending
        }
    }

    /// Adds worker time spent on this query.
    pub(crate) fn charge(&mut self, busy: SimDuration) {
        self.busy += busy;
    }

    /// Stores the mat assembled from a [`Commit::NodeDone`]. Returns the
    /// dependents whose last input this was (to be scheduled now) and
    /// whether this was the query's last node. Only an assembling node
    /// can be finalized; any other call changes nothing.
    pub(crate) fn finalize(&mut self, node: NodeId, mat: Mat) -> (Vec<NodeId>, bool) {
        let nr = &mut self.nodes[node.idx()];
        if nr.n_parts == 0 || nr.remaining != 0 || nr.mat.is_some() {
            return (Vec::new(), false);
        }
        nr.mat = Some(mat);
        self.pending_nodes -= 1;
        let mut ready = Vec::new();
        for d in &self.dependents[node.idx()] {
            let dep = &mut self.nodes[d.idx()];
            dep.waiting_inputs -= 1;
            if dep.waiting_inputs == 0 {
                ready.push(*d);
            }
        }
        (ready, self.pending_nodes == 0)
    }

    /// Ends a completed flow: the root mat with the query's stamps.
    /// `now` is clamped so responses stay strictly positive (on the
    /// simulator, steps within one tick share a timestamp).
    pub(crate) fn into_result(
        mut self,
        now: SimTime,
        traffic: StreamTraffic,
    ) -> Result<QueryResult, QueryError> {
        let root = self.plan.root();
        let result = self.nodes[root.idx()]
            .mat
            .take()
            .ok_or(QueryError::Internal("root mat missing at completion"))?;
        Ok(QueryResult {
            qid: self.qid,
            label: self.plan.label.clone(),
            spec_tag: self.spec_tag,
            submitted: self.submitted,
            finished: now.max(self.submitted + SimDuration::from_nanos(1)),
            traffic,
            busy: self.busy,
            result,
        })
    }
}

/// The MonetDB-style worker deques: one per worker, fed by slice
/// affinity, plus a global FIFO for tasks with no (usable) preference.
pub(crate) struct Deques {
    /// Tasks any worker may take, oldest first. A task whose worker went
    /// dark before committing it is put back here.
    pub(crate) global: VecDeque<Task>,
    per_worker: Vec<VecDeque<Task>>,
}

impl Deques {
    /// Deques for `n_workers` workers.
    pub(crate) fn new(n_workers: usize) -> Self {
        Deques {
            global: VecDeque::new(),
            per_worker: (0..n_workers).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Grows (or shrinks) to `n_workers` deques.
    pub(crate) fn resize(&mut self, n_workers: usize) {
        self.per_worker.resize_with(n_workers, VecDeque::new);
    }

    /// Queued tasks.
    pub(crate) fn len(&self) -> usize {
        self.global.len() + self.per_worker.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Routes a fresh task to its preferred worker's deque, or to the
    /// global queue when it has no preference or prefers a worker that
    /// does not exist or is marked in `dead`.
    pub(crate) fn push(&mut self, task: Task, dead: &[bool]) {
        match task.pref_worker.map(|w| w as usize) {
            Some(w) if w < self.per_worker.len() && dead.get(w) != Some(&true) => {
                self.per_worker[w].push_back(task)
            }
            _ => self.global.push_back(task),
        }
    }

    /// Next task for `worker`: its own deque LIFO (depth-first — the
    /// consumer of the slice it just finished runs next, cache-hot),
    /// then the global queue, then the first non-empty peer deque FIFO
    /// (the classic work-stealing deque), counted in `steals`.
    pub(crate) fn pop(&mut self, worker: usize, steals: &mut u64) -> Option<Task> {
        if let Some(t) = self.per_worker.get_mut(worker).and_then(VecDeque::pop_back) {
            return Some(t);
        }
        if let Some(t) = self.global.pop_front() {
            return Some(t);
        }
        for (i, q) in self.per_worker.iter_mut().enumerate() {
            if i == worker {
                continue;
            }
            if let Some(t) = q.pop_front() {
                *steals += 1;
                return Some(t);
            }
        }
        None
    }

    /// Moves a dark worker's queued tasks to the global queue, so
    /// lineage preferences cannot strand them.
    pub(crate) fn rehome(&mut self, worker: usize) {
        if let Some(q) = self.per_worker.get_mut(worker) {
            self.global.extend(q.drain(..));
        }
    }

    /// Drops every queued task (the pool died).
    pub(crate) fn clear(&mut self) {
        self.global.clear();
        self.per_worker.iter_mut().for_each(VecDeque::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::mat::PosMat;
    use crate::exec::plan::{col, CmpOp, ScalarPred};
    use crate::tpch::queries::{build_query, QuerySpec};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::Arc;

    const WIDTHS: [usize; 3] = [1, 4, 16];

    /// TPC-H 1–22 × parameter variants 0–3: the 88 plans.
    fn tpch_plans() -> Vec<Arc<Plan>> {
        (1..=22u8)
            .flat_map(|number| (0..4u8).map(move |variant| QuerySpec::Tpch { number, variant }))
            .map(|spec| Arc::new(build_query(&spec)))
            .collect()
    }

    /// Synthetic primary-input lengths, one per node and a pure function
    /// of `salt`: the flow is driven without data, and the choices cover
    /// one partition up to one per worker at every width.
    fn synthetic_lens(plan: &Plan, salt: u64) -> Vec<usize> {
        const CHOICES: [usize; 7] = [0, 1, 4096, 4097, 9000, 20_000, 100_000];
        let mut rng = StdRng::seed_from_u64(salt);
        (0..plan.len())
            .map(|_| CHOICES[rng.random_range(0..CHOICES.len())])
            .collect()
    }

    fn permutations(n: u32) -> Vec<Vec<u32>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(n - 1) {
            for at in 0..=shorter.len() {
                let mut p = shorter.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// `(node, part, n_parts, pref_worker)` of every task a drive emitted.
    type Emitted = Vec<(u16, u32, u32, Option<u32>)>;

    /// A flow plus an independent record of what has happened to it, so
    /// every answer the flow gives can be checked against the protocol.
    struct Model {
        flow: Flow<Arc<Plan>>,
        lens: Vec<usize>,
        width: usize,
        scheduled: Vec<bool>,
        finalized: Vec<bool>,
        committed: Vec<Vec<bool>>,
        pending: Vec<Task>,
        emitted: Emitted,
        executed: u64,
        completions: u32,
        /// Also poke the flow with calls that must be refused.
        inject: bool,
    }

    impl Model {
        fn schedule(&mut self, node: NodeId) {
            let (i, len) = (node.idx(), self.lens[node.idx()]);
            assert!(!self.scheduled[i], "{node:?} scheduled twice");
            let plan = Arc::clone(self.flow.plan());
            for input in plan.node(node).inputs() {
                assert!(
                    self.finalized[input.idx()],
                    "{node:?} ready before its input"
                );
            }
            self.scheduled[i] = true;
            let tasks: Vec<Task> = self.flow.schedule(node, len, self.width).collect();
            let want = match plan.node(node) {
                PhysOp::TopN { .. } => 1,
                _ => n_parts_for(len, self.width),
            };
            assert_eq!(tasks.len() as u32, want);
            for (p, t) in tasks.iter().enumerate() {
                assert_eq!((t.node, t.part, t.n_parts), (node, p as u32, want));
                assert_eq!(self.flow.range(t), part_range(len, t.part, want));
                self.emitted
                    .push((node.0, t.part, t.n_parts, t.pref_worker));
            }
            self.committed[i] = vec![false; tasks.len()];
            self.pending.extend(tasks);
            assert_eq!(
                self.flow.schedule(node, len, self.width).count(),
                0,
                "a scheduled node must not schedule again"
            );
        }

        /// Commits on the task's preferred worker, which makes the
        /// lineage — hence every later preference — order-independent.
        fn commit(&mut self, task: Task) {
            let i = task.node.idx();
            let open = !self.committed[i][task.part as usize];
            assert_eq!(self.flow.uncommitted(&task), open);
            let worker = task.pref_worker.unwrap_or(0);
            let outcome = self.flow.commit(&task, worker, Partial::Sum(0.0));
            self.executed += u64::from(outcome.counts());
            if !open {
                assert!(matches!(outcome, Commit::Duplicate), "second commit won");
                return;
            }
            self.committed[i][task.part as usize] = true;
            let left = self.committed[i].iter().filter(|c| !**c).count();
            match outcome {
                Commit::Duplicate => panic!("open partition refused"),
                Commit::Pending => {
                    assert!(left > 0, "last partition reported pending");
                    if self.inject {
                        // Finalizing a node that is still running is refused.
                        let (ready, done) = self.flow.finalize(task.node, Mat::Scalar(0.0));
                        assert!(ready.is_empty() && !done);
                    }
                }
                Commit::NodeDone(partials) => {
                    assert_eq!(left, 0, "node done with partitions open");
                    assert_eq!(partials.len(), task.n_parts as usize);
                    assert!(partials.iter().all(Option::is_some));
                    if self.inject {
                        // A copy arriving while the node is assembling.
                        let late = self.flow.commit(&task, 99, Partial::Sum(1.0));
                        assert!(matches!(late, Commit::Duplicate));
                    }
                    self.finalize(task.node);
                }
            }
        }

        fn finalize(&mut self, node: NodeId) {
            assert!(!self.finalized[node.idx()], "{node:?} finalized twice");
            let (ready, done) = self.flow.finalize(node, Mat::Scalar(0.0));
            self.finalized[node.idx()] = true;
            let (again, done_again) = self.flow.finalize(node, Mat::Scalar(1.0));
            assert!(again.is_empty() && !done_again, "second finalize acted");
            for d in ready {
                self.schedule(d);
            }
            if done {
                self.completions += 1;
                assert!(self.finalized.iter().all(|f| *f), "done with nodes open");
            }
        }
    }

    /// Runs one query's flow to completion, committing pending tasks in
    /// an order drawn from `seed` — except that `forced.0`'s partitions
    /// commit in the order `forced.1` — and returns the emitted tasks,
    /// sorted. With `inject`, also: commits tasks twice, requeues copies
    /// of tasks a "dark worker" holds (so original and copy both
    /// commit), and replays stale copies of finished tasks.
    fn drive(
        plan: &Arc<Plan>,
        lens: &[usize],
        width: usize,
        seed: u64,
        forced: Option<(NodeId, &[u32])>,
        inject: bool,
    ) -> Emitted {
        let mut rng = StdRng::seed_from_u64(seed);
        let submitted = SimTime::ZERO + SimDuration::from_micros(10);
        let (flow, sources) = Flow::new(QueryId(5), Arc::clone(plan), 7, submitted);
        let n = plan.len();
        let mut m = Model {
            flow,
            lens: lens.to_vec(),
            width,
            scheduled: vec![false; n],
            finalized: vec![false; n],
            committed: vec![Vec::new(); n],
            pending: Vec::new(),
            emitted: Vec::new(),
            executed: 0,
            completions: 0,
            inject,
        };
        for s in sources {
            m.schedule(s);
        }
        let mut forced_next = 0;
        let mut history: Vec<Task> = Vec::new();
        while !m.pending.is_empty() {
            let i = rng.random_range(0..m.pending.len());
            let mut task = m.pending.swap_remove(i);
            if let Some((node, perm)) = forced {
                if task.node == node {
                    let want = perm[forced_next];
                    forced_next += 1;
                    if task.part != want {
                        let j = m
                            .pending
                            .iter()
                            .position(|t| t.node == node && t.part == want)
                            .expect("forced partition is pending");
                        std::mem::swap(&mut task, &mut m.pending[j]);
                    }
                }
            }
            if inject && rng.random_bool(0.2) && m.flow.uncommitted(&task) {
                // The watchdog's requeue of a task its worker still
                // holds: the copy and the original will both commit.
                m.pending.push(task);
            }
            m.commit(task);
            history.push(task);
            if inject {
                match rng.random_range(0..3u32) {
                    0 => m.commit(task),
                    1 => assert!(!m.flow.uncommitted(&task), "requeue test passed a result"),
                    _ => m.commit(history[rng.random_range(0..history.len())]),
                }
            }
        }
        assert!(m.scheduled.iter().all(|s| *s), "a node never became ready");
        assert!(m.finalized.iter().all(|f| *f));
        assert_eq!(m.completions, 1, "the query completes exactly once");
        let parts: usize = m.committed.iter().map(Vec::len).sum();
        assert_eq!(m.executed, parts as u64, "one counted commit per partition");
        let r = m
            .flow
            .into_result(SimTime::ZERO, StreamTraffic::default())
            .expect("root finalized");
        assert_eq!((r.qid, r.spec_tag, r.submitted), (QueryId(5), 7, submitted));
        assert_eq!(r.label, plan.label);
        assert!(r.finished > r.submitted, "response clamped positive");
        m.emitted.sort_unstable();
        m.emitted
    }

    /// Every TPC-H plan at every width, under every commit order of one
    /// small node, seeded orders of the rest, and injected duplicates:
    /// the protocol holds (the model's assertions) and what gets emitted
    /// does not depend on the order.
    #[test]
    fn protocol_holds_under_every_order_and_duplicate() {
        for (i, plan) in tpch_plans().iter().enumerate() {
            let lens = synthetic_lens(plan, i as u64);
            for width in WIDTHS {
                let base = drive(plan, &lens, width, 0, None, false);
                for seed in 1..8 {
                    assert_eq!(drive(plan, &lens, width, seed, None, false), base);
                    assert_eq!(drive(plan, &lens, width, seed, None, true), base);
                }
                let small = base.iter().find(|t| (2..=4).contains(&t.2));
                if let Some(&(node, _, n_parts, _)) = small {
                    for perm in permutations(n_parts) {
                        let forced = Some((NodeId(node), perm.as_slice()));
                        assert_eq!(drive(plan, &lens, width, 9, forced, false), base);
                    }
                }
            }
        }
    }

    /// The partition-count rule, the lineage formula and `primary_len`,
    /// pinned on a three-node pipeline with stolen slices.
    #[test]
    fn schedule_follows_the_slices() {
        let mut plan = Plan::new("pipeline");
        let scan = plan.add(PhysOp::ScanSelect {
            col: col("lineitem", "l_quantity"),
            pred: ScalarPred::Cmp(CmpOp::Lt, 24.0),
        });
        let project = plan.add(PhysOp::Project {
            positions: scan,
            col: col("lineitem", "l_extendedprice"),
        });
        let sum = plan.add(PhysOp::AggrSum { values: project });
        let (mut flow, sources) = Flow::new(QueryId(5), Arc::new(plan), 0, SimTime::ZERO);
        assert_eq!(sources, vec![scan]);
        let prefs = |tasks: &[Task]| tasks.iter().map(|t| t.pref_worker).collect::<Vec<_>>();

        // A node whose input is not done yields nothing.
        assert_eq!(flow.schedule(project, 9000, 4).count(), 0);

        let len = flow.primary_len(scan, |t| {
            assert_eq!(t, "lineitem");
            100_000
        });
        let tasks: Vec<Task> = flow.schedule(scan, len, 4).collect();
        // Sources are dealt round-robin from the query id.
        assert_eq!(prefs(&tasks), [Some(1), Some(2), Some(3), Some(0)]);
        assert_eq!(flow.range(&tasks[1]), (25_000, 50_000));
        // Workers 3, 3, 0, 1 end up running the four slices.
        let mut outcome = Commit::Pending;
        for (task, worker) in tasks.iter().zip([3, 3, 0, 1]) {
            assert!(matches!(outcome, Commit::Pending));
            outcome = flow.commit(task, worker, Partial::Pos(Vec::new()));
        }
        assert!(matches!(outcome, Commit::NodeDone(ref p) if p.len() == 4));
        let positions = Mat::Pos(PosMat {
            table: "lineitem",
            pos: Arc::new(vec![0; 9000]),
        });
        assert_eq!(flow.finalize(scan, positions), (vec![project], false));

        // 9000 rows make three partitions; each follows the worker that
        // ran the matching slice of the four-way scan.
        let len = flow.primary_len(project, |_| unreachable!("not a scan"));
        assert_eq!(len, 9000);
        let tasks: Vec<Task> = flow.schedule(project, len, 4).collect();
        assert_eq!(prefs(&tasks), [Some(3), Some(3), Some(0)]);
        for task in &tasks {
            flow.commit(task, 2, Partial::ValsF64(Vec::new()));
        }
        let (ready, done) = flow.finalize(project, Mat::Scalar(0.0));
        assert_eq!((ready, done), (vec![sum], false));
        let tasks: Vec<Task> = flow.schedule(sum, 1, 4).collect();
        assert_eq!(prefs(&tasks), [Some(2)]);
        flow.commit(&tasks[0], 2, Partial::Sum(1.5));
        assert_eq!(flow.finalize(sum, Mat::Scalar(1.5)), (Vec::new(), true));
    }

    #[test]
    fn unfinished_flow_has_no_result() {
        let plan = Arc::new(build_query(&QuerySpec::Q6 { variant: 0 }));
        let (flow, _) = Flow::new(QueryId(0), plan, 0, SimTime::ZERO);
        let r = flow.into_result(SimTime::ZERO, StreamTraffic::default());
        assert!(matches!(r, Err(QueryError::Internal(_))));
    }

    fn task(part: u32, pref_worker: Option<u32>) -> Task {
        Task {
            qid: QueryId(0),
            node: NodeId(0),
            part,
            n_parts: 8,
            pref_node: None,
            pref_worker,
        }
    }

    #[test]
    fn deques_pop_own_lifo_then_global_then_steal_fifo() {
        let mut d = Deques::new(3);
        let dead = [false, false, true];
        d.push(task(0, Some(0)), &dead);
        d.push(task(1, Some(0)), &dead);
        d.push(task(2, Some(1)), &dead);
        d.push(task(3, Some(1)), &dead);
        d.push(task(4, None), &dead);
        d.push(task(5, Some(2)), &dead); // prefers a dead worker
        d.push(task(6, Some(7)), &dead); // prefers no such worker
        assert_eq!(d.len(), 7);
        let mut steals = 0;
        let mut order = Vec::new();
        while let Some(t) = d.pop(0, &mut steals) {
            order.push(t.part);
        }
        // Own deque newest first, the global queue oldest first, then
        // worker 1's deque oldest first — those two are the steals.
        assert_eq!(order, [1, 0, 4, 5, 6, 2, 3]);
        assert_eq!(steals, 2);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn rehome_feeds_the_global_queue() {
        let mut d = Deques::new(2);
        d.push(task(0, Some(1)), &[]);
        d.push(task(1, Some(1)), &[]);
        d.global.push_back(task(2, Some(1)));
        d.rehome(1);
        d.rehome(9); // no such worker: nothing to move
        let mut steals = 0;
        let order: Vec<u32> = std::iter::from_fn(|| d.pop(0, &mut steals))
            .map(|t| t.part)
            .collect();
        assert_eq!(order, [2, 0, 1]);
        assert_eq!(steals, 0, "rehomed tasks are nobody's to steal");
        d.push(task(3, Some(1)), &[]);
        d.clear();
        assert_eq!(d.len(), 0);
    }
}
