//! The hand-coded "C language" Q6 baseline of §II-B.
//!
//! The paper compares MonetDB's Volcano execution of Q6 against a
//! hand-written pthreads program that scans the four columns in one fused
//! pass (Fig. 3's C code). We reproduce it as a coordinator thread per
//! client that forks a team of worker threads over contiguous slices,
//! with the paper's three affinity policies:
//!
//! - **OS** — no affinity; the scheduler places the team;
//! - **Dense** — all team threads pinned to the cores of one node
//!   (`pthread_setaffinity_np` to the same socket);
//! - **Sparse** — thread `i` pinned to node `i mod n_nodes` (spread).
//!
//! The data is loaded once into its own address space (the C program's
//! mmap of the raw column files).

use crate::storage::bat::Bat;
use crate::tpch::gen::TpchData;
use crate::tpch::queries::YEAR_DAYS;
use emca_metrics::SimDuration;
use numa_sim::{AccessKind, CoreId, Machine, SpaceId, StreamId};
use os_sim::{CoreMask, GroupId, SimWork, SpawnReq, StepOutcome, Tid, WorkCtx};
use std::cell::RefCell;
use std::rc::Rc;

/// Affinity policy of the hand-coded program (Fig. 4 legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CAffinity {
    /// Leave placement to the OS (`OS/C`).
    Os,
    /// All threads on one node (`Dense/C`).
    Dense,
    /// One thread per node round-robin (`Sparse/C`).
    Sparse,
}

/// The four Q6 columns bound to simulated memory (the program's own
/// address space).
pub struct HandcodedData {
    /// Backing space.
    pub space: SpaceId,
    quantity: Bat,
    extendedprice: Bat,
    discount: Bat,
    shipdate: Bat,
    rows: usize,
}

impl HandcodedData {
    /// Loads the four columns and first-touches them from `loader_core`
    /// (one sequential loader, like reading the raw files).
    pub fn load(machine: &mut Machine, data: &TpchData, loader_core: CoreId) -> Self {
        let space = machine.create_space();
        let mut mk = |name: &'static str| {
            let bat = Bat::new(machine, space, name, data.column("lineitem", name).clone());
            for seg in bat.region.segments() {
                machine.access_segment(loader_core, seg, AccessKind::Write, StreamId(0));
            }
            bat
        };
        let quantity = mk("l_quantity");
        let extendedprice = mk("l_extendedprice");
        let discount = mk("l_discount");
        let shipdate = mk("l_shipdate");
        let rows = quantity.len();
        HandcodedData {
            space,
            quantity,
            extendedprice,
            discount,
            shipdate,
            rows,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Result sink shared between a team and its coordinator.
struct TeamState {
    remaining: usize,
    sum: f64,
    coordinator: Tid,
}

/// One team worker: fused scan of its slice.
struct TeamWorker {
    data: Rc<HandcodedData>,
    state: Rc<RefCell<TeamState>>,
    end: usize,
    cursor: usize,
    acc: f64,
    stream: StreamId,
}

/// Cycles per row of the fused Q6 loop (predicates + multiply-add).
const FUSED_CYCLES_PER_ROW: u64 = 4;

impl SimWork for TeamWorker {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        let mut used = SimDuration::ZERO;
        let rows_per_seg = crate::storage::bat::ROWS_PER_SEG as usize;
        let d0 = 5.0 * YEAR_DAYS;
        let d1 = d0 + YEAR_DAYS;
        while self.cursor < self.end {
            if used >= ctx.budget {
                return StepOutcome::Ran(used);
            }
            let chunk_end = ((self.cursor / rows_per_seg + 1) * rows_per_seg).min(self.end);
            // Stream all four columns for this chunk.
            for bat in [
                &self.data.quantity,
                &self.data.extendedprice,
                &self.data.discount,
                &self.data.shipdate,
            ] {
                for seg in bat.segments_for_rows(self.cursor, chunk_end) {
                    used += ctx
                        .machine
                        .access_segment(ctx.core, seg, AccessKind::Read, self.stream)
                        .time;
                }
            }
            // Fused evaluation (the real C loop of Fig. 3).
            let qty = self.data.quantity.data.as_f64();
            let price = self.data.extendedprice.data.as_f64();
            let disc = self.data.discount.data.as_f64();
            let ship = self.data.shipdate.data.as_i64();
            for i in self.cursor..chunk_end {
                let s = ship[i] as f64;
                if s >= d0 && s < d1 && disc[i] >= 0.06 && disc[i] <= 0.08 && qty[i] < 24.0 {
                    self.acc += price[i] * disc[i];
                }
            }
            used += ctx
                .machine
                .compute((chunk_end - self.cursor) as u64 * FUSED_CYCLES_PER_ROW);
            self.cursor = chunk_end;
        }
        // Slice done: merge and signal the coordinator if last.
        let mut st = self.state.borrow_mut();
        st.sum += self.acc;
        st.remaining -= 1;
        if st.remaining == 0 {
            ctx.wake(st.coordinator);
        }
        StepOutcome::Finished(used)
    }

    fn label(&self) -> &str {
        "q6-pthread"
    }
}

/// Per-client record of the hand-coded runs.
#[derive(Clone, Debug, Default)]
pub struct HandcodedLog {
    /// `(response time, revenue)` per completed run.
    pub runs: Vec<(SimDuration, f64)>,
}

/// Shared log handle.
pub type SharedHandcodedLog = Rc<RefCell<HandcodedLog>>;

/// The coordinator: forks a team per run, joins it, repeats.
pub struct HandcodedClient {
    data: Rc<HandcodedData>,
    affinity: CAffinity,
    team_size: usize,
    group: GroupId,
    iterations: u32,
    state: Option<Rc<RefCell<TeamState>>>,
    started: Option<emca_metrics::SimTime>,
    log: SharedHandcodedLog,
    stream_base: u64,
    run: u32,
}

impl HandcodedClient {
    /// Creates a coordinator body. `stream_base` must be unique per
    /// client (traffic attribution).
    pub fn new(
        data: Rc<HandcodedData>,
        affinity: CAffinity,
        team_size: usize,
        group: GroupId,
        iterations: u32,
        stream_base: u64,
    ) -> (Self, SharedHandcodedLog) {
        assert!(team_size >= 1, "team needs at least one thread");
        let log: SharedHandcodedLog = Rc::new(RefCell::new(HandcodedLog::default()));
        (
            HandcodedClient {
                data,
                affinity,
                team_size,
                group,
                iterations,
                state: None,
                started: None,
                log: Rc::clone(&log),
                stream_base,
                run: 0,
            },
            log,
        )
    }

    fn team_affinity(&self, thread_idx: usize, topo: &numa_sim::Topology) -> Option<CoreMask> {
        match self.affinity {
            CAffinity::Os => None,
            CAffinity::Dense => {
                // All team threads on node 0 (where the data lives).
                Some(CoreMask::from_cores(topo.cores_of(numa_sim::NodeId(0))))
            }
            CAffinity::Sparse => {
                let node = numa_sim::NodeId((thread_idx % topo.n_nodes()) as u16);
                Some(CoreMask::from_cores(topo.cores_of(node)))
            }
        }
    }
}

impl SimWork for HandcodedClient {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        // Join a finished team.
        if let Some(state) = &self.state {
            if state.borrow().remaining > 0 {
                return StepOutcome::Blocked(SimDuration::ZERO);
            }
            let sum = state.borrow().sum;
            let started = self.started.take().expect("run had a start time");
            self.log
                .borrow_mut()
                .runs
                .push((ctx.now.since(started), sum));
            self.state = None;
        }
        if self.run >= self.iterations {
            return StepOutcome::Finished(SimDuration::ZERO);
        }
        // Fork the next team: its threads join at the end of this tick.
        self.run += 1;
        self.started = Some(ctx.now);
        let state = Rc::new(RefCell::new(TeamState {
            remaining: self.team_size,
            sum: 0.0,
            coordinator: ctx.tid,
        }));
        self.state = Some(Rc::clone(&state));
        let rows = self.data.rows();
        let stream = StreamId(self.stream_base + self.run as u64);
        for t in 0..self.team_size {
            let start = rows * t / self.team_size;
            let end = rows * (t + 1) / self.team_size;
            let worker = TeamWorker {
                data: Rc::clone(&self.data),
                state: Rc::clone(&state),
                end,
                cursor: start,
                acc: 0.0,
                stream,
            };
            let affinity = self.team_affinity(t, ctx.machine.topology());
            ctx.spawn(SpawnReq {
                name: format!("pthread{t}"),
                group: self.group,
                affinity,
                work: Box::new(worker),
            });
        }
        StepOutcome::Blocked(self.spawn_overhead())
    }

    fn label(&self) -> &str {
        "q6-coordinator"
    }
}

impl HandcodedClient {
    /// Thread-creation cost charged per run (`pthread_create` etc.).
    fn spawn_overhead(&self) -> SimDuration {
        SimDuration::from_micros(20 * self.team_size as u64)
    }
}
