//! The cooperative work interface between the scheduler and simulated
//! threads.
//!
//! A simulated thread's body is a [`SimWork`] state machine. Each time the
//! scheduler gives the thread a slice of a core, it calls
//! [`SimWork::step`] with a time budget; the work advances (charging
//! memory accesses and compute against the [`numa_sim::Machine`]) and
//! reports how much simulated time it consumed and whether it is still
//! runnable. This is how the whole stack stays single-threaded and
//! deterministic.

use crate::cpuset::{CoreMask, GroupId};
use crate::thread::Tid;
use emca_metrics::{SimDuration, SimTime};
use numa_sim::{CoreId, Machine};

/// What a work step did with its budget.
#[derive(Debug)]
pub enum StepOutcome {
    /// Consumed `used` (≤ budget) and remains runnable. Returning less
    /// than the budget is a voluntary yield.
    Ran(SimDuration),
    /// Consumed `used`, then blocked waiting for an event. The thread
    /// will not run again until something calls `WorkCtx::wake` /
    /// `Kernel::wake` for it.
    Blocked(SimDuration),
    /// Consumed `used`, then exited.
    Finished(SimDuration),
}

impl StepOutcome {
    /// Time consumed by the step regardless of outcome.
    pub fn used(&self) -> SimDuration {
        match self {
            StepOutcome::Ran(d) | StepOutcome::Blocked(d) | StepOutcome::Finished(d) => *d,
        }
    }
}

/// Everything a work step may touch.
pub struct WorkCtx<'a> {
    /// The hardware: memory accesses and compute are charged here.
    pub machine: &'a mut Machine,
    /// The core the thread is currently running on.
    pub core: CoreId,
    /// Simulated time at the start of the step.
    pub now: SimTime,
    /// Maximum simulated time this step may consume.
    pub budget: SimDuration,
    /// The running thread's id.
    pub tid: Tid,
    /// Wake requests for other threads (processed after the step).
    pub wakes: &'a mut Vec<Tid>,
    /// Spawn requests (admitted at the end of the tick).
    pub spawns: &'a mut Vec<SpawnReq>,
}

impl WorkCtx<'_> {
    /// Requests that `tid` be woken once this step returns.
    pub fn wake(&mut self, tid: Tid) {
        self.wakes.push(tid);
    }

    /// Requests a new thread. Every spawn a tick's steps request is
    /// admitted at the very end of that tick, in request order, so the
    /// child first runs in the next tick.
    pub fn spawn(&mut self, req: SpawnReq) {
        self.spawns.push(req);
    }
}

/// A thread a work step asks the kernel to start ([`WorkCtx::spawn`]).
pub struct SpawnReq {
    /// Thread name (trace label).
    pub name: String,
    /// Owning group.
    pub group: GroupId,
    /// Optional per-thread affinity (`None` = group mask only).
    pub affinity: Option<CoreMask>,
    /// The thread body.
    pub work: Box<dyn SimWork>,
}

/// A simulated thread body.
pub trait SimWork {
    /// Advances the work by at most `ctx.budget` of simulated time.
    ///
    /// Implementations must not report more time than the budget; the
    /// kernel clamps and debug-asserts on violations.
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome;

    /// Short human-readable label (used by the trace renderer).
    fn label(&self) -> &str {
        "work"
    }
}

/// A trivial work item that spins for a fixed amount of CPU time, then
/// exits. Used in tests and microbenchmarks.
pub struct SpinWork {
    remaining: SimDuration,
}

impl SpinWork {
    /// Spins for `total` simulated CPU time.
    pub fn new(total: SimDuration) -> Self {
        SpinWork { remaining: total }
    }
}

impl SimWork for SpinWork {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        let used = self.remaining.min(ctx.budget);
        self.remaining -= used;
        if self.remaining.is_zero() {
            StepOutcome::Finished(used)
        } else {
            StepOutcome::Ran(used)
        }
    }

    fn label(&self) -> &str {
        "spin"
    }
}

/// Work that immediately blocks until woken `n` times, then finishes.
/// Used in scheduler tests.
pub struct WaitWork {
    remaining_wakes: u32,
}

impl WaitWork {
    /// Blocks until woken `n` times.
    pub fn new(n: u32) -> Self {
        WaitWork { remaining_wakes: n }
    }
}

impl SimWork for WaitWork {
    fn step(&mut self, _ctx: &mut WorkCtx<'_>) -> StepOutcome {
        if self.remaining_wakes == 0 {
            StepOutcome::Finished(SimDuration::ZERO)
        } else {
            self.remaining_wakes -= 1;
            StepOutcome::Blocked(SimDuration::ZERO)
        }
    }

    fn label(&self) -> &str {
        "wait"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_used() {
        assert_eq!(
            StepOutcome::Ran(SimDuration::from_micros(5)).used(),
            SimDuration::from_micros(5)
        );
        assert_eq!(
            StepOutcome::Blocked(SimDuration::ZERO).used(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn spin_work_consumes_budget_then_finishes() {
        let mut machine = Machine::opteron_4x4();
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut w = SpinWork::new(SimDuration::from_micros(150));
        let mut ctx = WorkCtx {
            machine: &mut machine,
            core: CoreId(0),
            now: SimTime::ZERO,
            budget: SimDuration::from_micros(100),
            tid: Tid(0),
            wakes: &mut wakes,
            spawns: &mut spawns,
        };
        match w.step(&mut ctx) {
            StepOutcome::Ran(d) => assert_eq!(d, SimDuration::from_micros(100)),
            other => panic!("expected Ran, got {other:?}"),
        }
        match w.step(&mut ctx) {
            StepOutcome::Finished(d) => assert_eq!(d, SimDuration::from_micros(50)),
            other => panic!("expected Finished, got {other:?}"),
        }
    }

    #[test]
    fn wait_work_blocks_until_woken() {
        let mut machine = Machine::opteron_4x4();
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut w = WaitWork::new(1);
        let mut ctx = WorkCtx {
            machine: &mut machine,
            core: CoreId(0),
            now: SimTime::ZERO,
            budget: SimDuration::from_micros(100),
            tid: Tid(0),
            wakes: &mut wakes,
            spawns: &mut spawns,
        };
        assert!(matches!(w.step(&mut ctx), StepOutcome::Blocked(_)));
        assert!(matches!(w.step(&mut ctx), StepOutcome::Finished(_)));
    }

    #[test]
    fn ctx_wake_collects() {
        let mut machine = Machine::opteron_4x4();
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut ctx = WorkCtx {
            machine: &mut machine,
            core: CoreId(1),
            now: SimTime::ZERO,
            budget: SimDuration::from_micros(1),
            tid: Tid(3),
            wakes: &mut wakes,
            spawns: &mut spawns,
        };
        ctx.wake(Tid(7));
        ctx.wake(Tid(9));
        assert_eq!(wakes, vec![Tid(7), Tid(9)]);
    }
}
