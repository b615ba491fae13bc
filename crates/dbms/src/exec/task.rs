//! Partition tasks and their charging cursors.
//!
//! Every plan node is split horizontally into partition tasks (one per
//! worker, fewer for small inputs). A running task is a [`TaskCursor`]: a
//! prepared sequence of charge items — segment reads, compute quanta,
//! segment writes — that the worker advances against its time budget.
//! Real evaluation happens eagerly at preparation (engine side); the
//! cursor only meters simulated time and traffic.

use crate::exec::eval::GroupAcc;
use crate::exec::plan::NodeId;
use emca_metrics::SimDuration;
use numa_sim::{AccessKind, Region, SegId, StreamId};
use os_sim::WorkCtx;

/// Identifier of a running query inside the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId(pub u64);

/// Minimum rows per partition before an operator is split less wide.
pub const MIN_ROWS_PER_PART: usize = 4096;

/// A schedulable unit: one partition of one plan node, as emitted by the
/// dataflow's `Flow::schedule` for both executors.
#[derive(Clone, Copy, Debug)]
pub struct Task {
    /// Owning query.
    pub qid: QueryId,
    /// Plan node.
    pub node: NodeId,
    /// Partition index.
    pub part: u32,
    /// Total partitions of the node.
    pub n_parts: u32,
    /// Preferred NUMA node (the simulated SQL Server flavor's dispatch),
    /// derived from the home of the partition's first input segment.
    pub pref_node: Option<numa_sim::NodeId>,
    /// Preferred worker (MonetDB flavor dispatch): the worker that
    /// executed the same slice of the producing operator. Mitosis chains
    /// an input slice through the whole operator pipeline on one dataflow
    /// thread, so consumer tasks inherit their producer's worker and read
    /// its still-warm output.
    pub pref_worker: Option<u32>,
}

/// The real partial result of a task, as both executors produce it: each
/// partition evaluates into buffers of its own, and the node's assembly
/// joins or merges them in partition order.
#[derive(Clone, Debug)]
pub enum Partial {
    /// Selected positions.
    Pos(Vec<u32>),
    /// Projected / computed f64 values.
    ValsF64(Vec<f64>),
    /// Projected i64 values.
    ValsI64(Vec<i64>),
    /// Join matches `(probe base positions, build base positions)`.
    PairParts(Vec<u32>, Vec<u32>),
    /// Partial sum.
    Sum(f64),
    /// Partial group accumulator (dense flat array or hash fallback).
    Groups(GroupAcc),
    /// Partial hash-join build: the partition's build keys, contiguous
    /// with the global build-row index space (chains are linked once at
    /// finalize, over the concatenated key array).
    BuildKeys(Vec<i64>),
    /// Memo or dataset-cache hit: the node's value already exists; the
    /// finalize step reuses it (timing still charged).
    Reuse,
}

/// One meterable step of a task.
#[derive(Clone, Copy, Debug)]
pub enum ChargeItem {
    /// Stream-read one segment.
    Read(SegId),
    /// Stream-write one segment.
    Write(SegId),
    /// Burn CPU cycles.
    Compute(u64),
}

/// A prepared, partially executed task.
pub struct TaskCursor {
    /// The task descriptor.
    pub task: Task,
    /// Traffic attribution stream of the owning query.
    pub stream: StreamId,
    /// MAL operator name (Tomograph).
    pub mal_name: &'static str,
    items: Vec<ChargeItem>,
    idx: usize,
    /// The evaluated partial (taken by the engine at completion).
    pub partial: Option<Partial>,
    /// Output rows produced by this partition.
    pub out_rows: usize,
    /// Output region (if the op materialises), allocated at prepare and
    /// first-touched by the write items.
    pub out_region: Option<Region>,
    /// Total simulated time charged so far.
    pub charged: SimDuration,
}

impl TaskCursor {
    /// Builds a cursor from prepared parts.
    pub fn new(
        task: Task,
        stream: StreamId,
        mal_name: &'static str,
        items: Vec<ChargeItem>,
        partial: Partial,
        out_rows: usize,
        out_region: Option<Region>,
    ) -> Self {
        TaskCursor {
            task,
            stream,
            mal_name,
            items,
            idx: 0,
            partial: Some(partial),
            out_rows,
            out_region,
            charged: SimDuration::ZERO,
        }
    }

    /// Remaining charge items (diagnostics).
    pub fn remaining(&self) -> usize {
        self.items.len() - self.idx
    }

    /// Takes the charge-item storage for reuse (the engine pools the
    /// vectors across tasks to cut allocator churn on the hot path).
    pub fn take_items(&mut self) -> Vec<ChargeItem> {
        self.idx = 0;
        std::mem::take(&mut self.items)
    }

    /// Advances the cursor by at most `budget`, charging reads/writes/
    /// compute against the machine. Returns `(time used, finished)`.
    /// May slightly overshoot the budget by one item (≤ a segment
    /// access); the caller treats the overshoot as consumed.
    pub fn advance(&mut self, ctx: &mut WorkCtx<'_>, budget: SimDuration) -> (SimDuration, bool) {
        let mut used = SimDuration::ZERO;
        while self.idx < self.items.len() {
            if used >= budget {
                self.charged += used;
                return (used, false);
            }
            let item = self.items[self.idx];
            self.idx += 1;
            let t = match item {
                ChargeItem::Read(seg) => {
                    ctx.machine
                        .access_segment(ctx.core, seg, AccessKind::Read, self.stream)
                        .time
                }
                ChargeItem::Write(seg) => {
                    ctx.machine
                        .access_segment(ctx.core, seg, AccessKind::Write, self.stream)
                        .time
                }
                ChargeItem::Compute(cycles) => ctx.machine.compute(cycles),
            };
            used += t;
        }
        self.charged += used;
        (used, true)
    }
}

/// Deterministic partition boundaries: row range of partition `part` of
/// `n_parts` over `len` rows.
pub fn part_range(len: usize, part: u32, n_parts: u32) -> (usize, usize) {
    debug_assert!(part < n_parts);
    let n = n_parts as usize;
    let p = part as usize;
    let start = len * p / n;
    let end = len * (p + 1) / n;
    (start, end)
}

/// How many partitions an operator over `len` rows is split into given
/// `workers` worker threads (MonetDB's mitosis: one slice per worker, but
/// never slices smaller than [`MIN_ROWS_PER_PART`]).
pub fn n_parts_for(len: usize, workers: usize) -> u32 {
    let by_size = len.div_ceil(MIN_ROWS_PER_PART).max(1);
    by_size.min(workers.max(1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_ranges_cover_exactly() {
        let len = 100_003;
        let n = 16;
        let mut covered = 0;
        for p in 0..n {
            let (s, e) = part_range(len, p, n);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, len);
    }

    #[test]
    fn part_count_respects_floor() {
        assert_eq!(n_parts_for(100, 16), 1);
        assert_eq!(n_parts_for(4096, 16), 1);
        assert_eq!(n_parts_for(8192, 16), 2);
        assert_eq!(n_parts_for(1_000_000, 16), 16);
        assert_eq!(n_parts_for(0, 16), 1);
        assert_eq!(n_parts_for(1_000_000, 0), 1);
    }

    #[test]
    fn cursor_advances_within_budget() {
        use emca_metrics::SimTime;
        use numa_sim::{CoreId, Machine};
        use os_sim::Tid;

        let mut machine = Machine::opteron_4x4();
        let sp = machine.create_space();
        let region = machine.alloc(sp, 4 * numa_sim::SEG_BYTES);
        let items: Vec<ChargeItem> = region
            .segments()
            .map(ChargeItem::Read)
            .chain(std::iter::once(ChargeItem::Compute(28_000)))
            .collect();
        let task = Task {
            qid: QueryId(1),
            node: NodeId(0),
            part: 0,
            n_parts: 1,
            pref_node: None,
            pref_worker: None,
        };
        let mut cursor = TaskCursor::new(
            task,
            StreamId(1),
            "algebra.thetasubselect",
            items,
            Partial::Pos(vec![]),
            0,
            None,
        );
        assert_eq!(cursor.remaining(), 5);
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut ctx = WorkCtx {
            machine: &mut machine,
            core: CoreId(0),
            now: SimTime::ZERO,
            budget: SimDuration::from_micros(100),
            tid: Tid(0),
            wakes: &mut wakes,
            spawns: &mut spawns,
        };
        // A tiny budget makes progress but does not finish.
        let (used, done) = cursor.advance(&mut ctx, SimDuration::from_micros(15));
        assert!(!done);
        assert!(used >= SimDuration::from_micros(10)); // at least one DRAM fetch
                                                       // A generous budget finishes the rest.
        let (_, done) = cursor.advance(&mut ctx, SimDuration::from_secs(1));
        assert!(done);
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.charged > SimDuration::from_micros(40));
        // The four segments were read once each.
        assert_eq!(ctx.machine.counters().total_l3_misses(), 4);
    }
}
