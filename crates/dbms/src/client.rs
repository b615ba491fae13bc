//! Client sessions and workload drivers.
//!
//! The paper's experiments run 1–256 *concurrent clients* in a closed
//! loop: each client submits a query, waits for its completion, and
//! immediately submits the next. Three workload types reproduce §V:
//!
//! - [`Workload::Repeat`] — the same query over and over (the Q6 and
//!   thetasubselect microbenchmarks, Figs. 4/13/14/15);
//! - [`Workload::StablePhases`] — all clients run query *i* concurrently,
//!   then everyone advances to query *i+1* (Fig. 18);
//! - [`Workload::Mixed`] — every client continuously runs a random query
//!   of the 22 (Fig. 19/20).

use crate::exec::engine::{Engine, QueryResult};
use crate::exec::task::QueryId;
use crate::tpch::queries::{build_query, QuerySpec};
use emca_metrics::SimDuration;
use os_sim::{SimWork, StepOutcome, Tid, WorkCtx};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-query parse/optimise CPU time charged to the client session.
const PLAN_OVERHEAD: SimDuration = SimDuration::from_micros(200);

/// What a client session runs.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Run `spec` exactly `iterations` times.
    Repeat {
        /// The query.
        spec: QuerySpec,
        /// How many executions per client.
        iterations: u32,
    },
    /// Phase `i` = every client executes `specs[i]` once; a shared
    /// barrier advances all clients to the next phase together.
    StablePhases {
        /// The phase queries, in order.
        specs: Vec<QuerySpec>,
    },
    /// Each iteration picks a uniformly random query from `specs`
    /// (deterministic per-client RNG).
    Mixed {
        /// Candidate queries.
        specs: Vec<QuerySpec>,
        /// Iterations per client.
        iterations: u32,
        /// Base seed (client index is mixed in).
        seed: u64,
    },
}

/// Shared barrier state for [`Workload::StablePhases`].
pub struct PhaseBarrier {
    n_clients: usize,
    phase: usize,
    arrived: usize,
    waiting: Vec<Tid>,
}

impl PhaseBarrier {
    /// A barrier for `n_clients` participants.
    pub fn new(n_clients: usize) -> Rc<RefCell<PhaseBarrier>> {
        Rc::new(RefCell::new(PhaseBarrier {
            n_clients,
            phase: 0,
            arrived: 0,
            waiting: Vec::new(),
        }))
    }

    /// Current phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }
}

/// Completed-query records of one client.
#[derive(Clone, Debug, Default)]
pub struct ClientLog {
    /// One entry per completed query.
    pub results: Vec<QueryResult>,
    /// One rendered [`crate::exec::QueryError`] per *failed* query
    /// (e.g. fault-plan poisoning). A failed query never aliases an
    /// unfinished one: it is recorded here and the client moves on.
    pub errors: Vec<String>,
}

/// Shared collection of client logs (harness side).
pub type SharedLog = Rc<RefCell<ClientLog>>;

enum ClientState {
    /// Ready to pick the next query.
    Idle,
    /// Burning the parse/optimise overhead before submitting `spec`.
    Planning {
        /// The query to submit once planning completes.
        spec: QuerySpec,
        /// Remaining planning CPU time.
        remaining: SimDuration,
    },
    /// Waiting for a submitted query.
    Waiting(QueryId),
    /// Parked on the phase barrier.
    AtBarrier(usize),
    /// Done.
    Finished,
}

/// A client session thread body: walks its [`materialize_phases`]
/// script.
pub struct ClientBody {
    engine: Engine,
    /// The queries to run, phase by phase.
    script: Vec<Vec<QuerySpec>>,
    /// The phase being run.
    phase: usize,
    /// The next query of the phase.
    pos: usize,
    state: ClientState,
    log: SharedLog,
    barrier: Option<Rc<RefCell<PhaseBarrier>>>,
}

impl ClientBody {
    /// Creates client `client_idx`. For [`Workload::StablePhases`] a
    /// shared barrier must be supplied.
    pub fn new(
        engine: Engine,
        workload: Workload,
        client_idx: usize,
        barrier: Option<Rc<RefCell<PhaseBarrier>>>,
    ) -> (Self, SharedLog) {
        if matches!(workload, Workload::StablePhases { .. }) {
            assert!(barrier.is_some(), "stable phases need a shared barrier");
        }
        let log: SharedLog = Rc::new(RefCell::new(ClientLog::default()));
        (
            ClientBody {
                engine,
                script: materialize_phases(&workload, client_idx),
                phase: 0,
                pos: 0,
                state: ClientState::Idle,
                log: Rc::clone(&log),
                barrier,
            },
            log,
        )
    }

    /// The next step of the script: the phase's next query; with a
    /// barrier, arrival at it once the phase is done (the last phase
    /// included); done after the last query otherwise.
    fn next_action(&mut self) -> NextAction {
        loop {
            let Some(specs) = self.script.get(self.phase) else {
                return NextAction::Done;
            };
            if let Some(&spec) = specs.get(self.pos) {
                self.pos += 1;
                return NextAction::Run(spec);
            }
            let phase = self.phase;
            self.phase += 1;
            self.pos = 0;
            if self.barrier.is_some() {
                return NextAction::Barrier(phase);
            }
        }
    }

    /// Arrives at the barrier; returns true if this arrival released the
    /// phase (the caller then wakes the waiters).
    fn arrive_barrier(&mut self, ctx: &mut WorkCtx<'_>, phase: usize) -> bool {
        let barrier = Rc::clone(self.barrier.as_ref().expect("barrier present"));
        let mut b = barrier.borrow_mut();
        if b.phase != phase {
            // Phase already advanced while we were being scheduled.
            return true;
        }
        b.arrived += 1;
        if b.arrived >= b.n_clients {
            b.phase += 1;
            b.arrived = 0;
            let waiters = std::mem::take(&mut b.waiting);
            for tid in waiters {
                ctx.wake(tid);
            }
            true
        } else {
            b.waiting.push(ctx.tid);
            false
        }
    }
}

enum NextAction {
    Run(QuerySpec),
    Barrier(usize),
    Done,
}

impl SimWork for ClientBody {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        let mut used = SimDuration::ZERO;
        loop {
            match &self.state {
                ClientState::Finished => return StepOutcome::Finished(used),
                ClientState::Planning { spec, remaining } => {
                    let spec = *spec;
                    let burn = (*remaining).min(ctx.budget.saturating_sub(used));
                    used += burn;
                    let left = remaining.saturating_sub(burn);
                    if left.is_zero() {
                        let plan = Rc::new(build_query(&spec));
                        let qid = self.engine.submit(ctx, plan, spec.tag(), used);
                        self.state = ClientState::Waiting(qid);
                        return StepOutcome::Blocked(used);
                    }
                    self.state = ClientState::Planning {
                        spec,
                        remaining: left,
                    };
                    return StepOutcome::Ran(used);
                }
                ClientState::Waiting(qid) => {
                    let qid = *qid;
                    match self.engine.take_result(qid) {
                        Some(Ok(result)) => {
                            self.log.borrow_mut().results.push(result);
                            self.state = ClientState::Idle;
                        }
                        Some(Err(error)) => {
                            // A failed query is terminal for the query,
                            // not the client: record the typed error and
                            // continue the workload.
                            self.log.borrow_mut().errors.push(error.to_string());
                            self.state = ClientState::Idle;
                        }
                        // Spurious wake (e.g. broadcast): keep waiting.
                        None => return StepOutcome::Blocked(used),
                    }
                }
                ClientState::AtBarrier(phase) => {
                    let phase = *phase;
                    let current = self
                        .barrier
                        .as_ref()
                        .expect("barrier present")
                        .borrow()
                        .phase();
                    if current > phase {
                        self.state = ClientState::Idle;
                    } else {
                        return StepOutcome::Blocked(used);
                    }
                }
                ClientState::Idle => match self.next_action() {
                    NextAction::Done => {
                        self.state = ClientState::Finished;
                        return StepOutcome::Finished(used);
                    }
                    NextAction::Barrier(phase) => {
                        if self.arrive_barrier(ctx, phase) {
                            self.state = ClientState::Idle;
                        } else {
                            self.state = ClientState::AtBarrier(phase);
                            return StepOutcome::Blocked(used);
                        }
                    }
                    NextAction::Run(spec) => {
                        // Parse/plan overhead is charged to the session,
                        // spread across ticks by the Planning state.
                        self.state = ClientState::Planning {
                            spec,
                            remaining: PLAN_OVERHEAD,
                        };
                    }
                },
            }
        }
    }

    fn label(&self) -> &str {
        "client"
    }
}

/// Spawns `n` concurrent clients into `group`, returning their logs.
pub fn spawn_clients(
    kernel: &mut os_sim::Kernel,
    engine: &Engine,
    group: os_sim::GroupId,
    n: usize,
    workload: Workload,
) -> Vec<SharedLog> {
    let barrier = match &workload {
        Workload::StablePhases { .. } => Some(PhaseBarrier::new(n)),
        _ => None,
    };
    (0..n)
        .map(|i| {
            let (body, log) = ClientBody::new(engine.clone(), workload.clone(), i, barrier.clone());
            kernel.spawn(format!("client{i}"), group, None, Box::new(body));
            log
        })
        .collect()
}

/// The script client `client_idx` runs, as phases: every query of phase
/// `p` completes before any client starts phase `p+1`. Both backends run
/// exactly this — [`ClientBody`] walks it in the simulation (phases
/// separated by a [`PhaseBarrier`]), the threads clients walk it between
/// [`std::sync::Barrier`]s — so a client runs the same queries on
/// either. `Repeat` and `Mixed` are a single phase (the `Mixed` draws
/// come from a per-client seeded RNG); `StablePhases` is one query per
/// phase.
pub fn materialize_phases(workload: &Workload, client_idx: usize) -> Vec<Vec<QuerySpec>> {
    match workload {
        Workload::Repeat { spec, iterations } => {
            vec![vec![*spec; *iterations as usize]]
        }
        Workload::StablePhases { specs } => specs.iter().map(|s| vec![*s]).collect(),
        Workload::Mixed {
            specs,
            iterations,
            seed,
        } => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(client_idx as u64 * 0x9e37));
            vec![(0..*iterations)
                .map(|_| specs[rng.random_range(0..specs.len())])
                .collect()]
        }
    }
}

/// Collects every query result recorded across client logs.
pub fn drain_results(logs: &[SharedLog]) -> Vec<QueryResult> {
    logs.iter()
        .flat_map(|l| l.borrow().results.clone())
        .collect()
}

/// Collects every rendered query error recorded across client logs.
pub fn drain_errors(logs: &[SharedLog]) -> Vec<String> {
    logs.iter()
        .flat_map(|l| l.borrow().errors.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::engine::EngineConfig;
    use crate::tpch::{TpchData, TpchScale};
    use emca_metrics::SimTime;
    use os_sim::{CoreMask, Kernel, ThreadState};

    fn tpch(numbers: std::ops::RangeInclusive<u8>) -> Vec<QuerySpec> {
        numbers
            .map(|number| QuerySpec::Tpch { number, variant: 0 })
            .collect()
    }

    /// The specs `body` walks through, phase barriers left out.
    fn walk(body: &mut ClientBody) -> Vec<u32> {
        let mut tags = Vec::new();
        loop {
            match body.next_action() {
                NextAction::Run(s) => tags.push(s.tag()),
                NextAction::Barrier(_) => {}
                NextAction::Done => return tags,
            }
        }
    }

    /// Runs three simulated clients of `workload` to completion on a
    /// tiny dataset: each client's completed spec tags, in order.
    fn sim_client_tags(workload: &Workload) -> Vec<Vec<u32>> {
        let data = TpchData::generate(TpchScale::test_tiny());
        let mut kernel = Kernel::opteron_4x4();
        let engine = Engine::new(
            EngineConfig::default(),
            kernel.machine().topology().n_nodes(),
        );
        engine.load(kernel.machine_mut(), &data, Some(numa_sim::CoreId(0)));
        let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
        engine.start_workers(&mut kernel, group);
        let logs = spawn_clients(&mut kernel, &engine, group, 3, workload.clone());
        let done = kernel.run_until_cond(SimTime::from_secs(3_000), |k| {
            (0..k.n_threads() as u32).map(Tid).all(|t| {
                !k.thread_name(t).starts_with("client")
                    || k.thread_state(t) == ThreadState::Finished
            })
        });
        assert!(done, "clients did not finish");
        logs.iter()
            .map(|l| l.borrow().results.iter().map(|r| r.spec_tag).collect())
            .collect()
    }

    #[test]
    fn repeat_workload_counts_iterations() {
        let engine = Engine::new(EngineConfig::default(), 4);
        let (mut body, _log) = ClientBody::new(
            engine,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 2,
            },
            0,
            None,
        );
        assert!(matches!(body.next_action(), NextAction::Run(_)));
        assert!(matches!(body.next_action(), NextAction::Run(_)));
        assert!(matches!(body.next_action(), NextAction::Done));
    }

    #[test]
    fn mixed_workload_is_deterministic_per_client() {
        let engine = Engine::new(EngineConfig::default(), 4);
        let mk = |idx| {
            let (mut body, _) = ClientBody::new(
                engine.clone(),
                Workload::Mixed {
                    specs: tpch(1..=22),
                    iterations: 10,
                    seed: 7,
                },
                idx,
                None,
            );
            walk(&mut body)
        };
        assert_eq!(mk(0), mk(0), "same client index must repeat");
        assert_ne!(mk(0), mk(1), "different clients should diverge");
    }

    #[test]
    fn materialized_phases_match_clientbody_sequencing() {
        let phased = materialize_phases(&Workload::StablePhases { specs: tpch(1..=3) }, 0);
        assert_eq!(phased.len(), 3);
        assert!(phased.iter().all(|p| p.len() == 1));
        let rep = materialize_phases(
            &Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 4,
            },
            3,
        );
        assert_eq!(rep, vec![vec![QuerySpec::Q6 { variant: 0 }; 4]]);
    }

    #[test]
    fn sim_clients_complete_their_script() {
        for workload in [
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 2,
            },
            Workload::Mixed {
                specs: tpch(1..=6),
                iterations: 3,
                seed: 7,
            },
            Workload::StablePhases { specs: tpch(4..=6) },
        ] {
            for (idx, tags) in sim_client_tags(&workload).into_iter().enumerate() {
                let script: Vec<u32> = materialize_phases(&workload, idx)
                    .concat()
                    .iter()
                    .map(|s| s.tag())
                    .collect();
                assert_eq!(tags, script, "client {idx} of {workload:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "barrier")]
    fn stable_phases_require_barrier() {
        let engine = Engine::new(EngineConfig::default(), 4);
        let _ = ClientBody::new(
            engine,
            Workload::StablePhases {
                specs: vec![QuerySpec::Q6 { variant: 0 }],
            },
            0,
            None,
        );
    }
}
