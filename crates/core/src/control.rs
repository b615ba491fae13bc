//! The control core: the paper's rule–condition–action pipeline, once.
//!
//! "A single mechanism instance supports all DBMS clients" (§V) — and a
//! single [`ControlCore`] backs both faces of the mechanism in this
//! workspace: [`ElasticMechanism`](crate::ElasticMechanism) actuating a
//! simulated cpuset and [`PoolController`](crate::PoolController)
//! parking real OS workers. The core owns every decision the two used to
//! know separately, and [`ControlCore::step`] fixes their order:
//!
//! 1. **queue-depth boost** — requests waiting at a front door are
//!    demand the load metric cannot see (they occupy no core yet); each
//!    queued request per allocated core pushes `u` toward Overload;
//! 2. **guard** — the caller's hook (Eq. 1 saturation damping on the
//!    sim; identity on threads, which has no memory-traffic signal);
//! 3. **release hysteresis** (LONC damping) — a below-`thmin` reading
//!    only reaches the net once it has held for `release_hysteresis`
//!    consecutive steps; until then a mid-band value is substituted;
//! 4. **shape** — the caller's hook ([`Policy::shape`](crate::Policy):
//!    SLA damping, hill-climb probe holds); runs after the hysteresis so
//!    a policy-forced release is not re-damped;
//! 5. **net** — [`ElasticNet::step`] classifies and fires;
//! 6. **AIMD cadence** — an Allocate/Release collapses the poll
//!    interval to the floor, every Hold doubles it up to the ceiling;
//! 7. the step is returned as a [`TransitionEvent`] for the caller's
//!    transition log.

use crate::mechanism::TransitionEvent;
use emca_metrics::{SimDuration, SimTime};
use prt_petrinet::{AllocAction, ElasticNet};

/// The shared decision state of one mechanism instance.
#[derive(Clone, Debug)]
pub struct ControlCore {
    net: ElasticNet,
    release_hysteresis: u32,
    /// AIMD ceiling (the configured base interval).
    max_interval: SimDuration,
    /// Consecutive under-`thmin` steps.
    idle_streak: u32,
    /// Requests queued in front of the engine; 0 without a front door.
    queue_depth: u64,
    cur_interval: SimDuration,
}

impl ControlCore {
    /// A core over `net`, polled every `cold_interval` until its first
    /// step (a fresh allocation is almost certainly wrong, so the first
    /// steps must come quickly).
    pub fn new(
        net: ElasticNet,
        release_hysteresis: u32,
        max_interval: SimDuration,
        cold_interval: SimDuration,
    ) -> Self {
        ControlCore {
            net,
            release_hysteresis,
            max_interval,
            idle_streak: 0,
            queue_depth: 0,
            cur_interval: cold_interval,
        }
    }

    /// Reports the serving layer's admission-queue depth for the next
    /// [`step`](ControlCore::step); closed-loop runs never call this.
    pub fn note_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
    }

    /// The last reported admission-queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth
    }

    /// Clamps the allocation to the `live` allocatable width (dead,
    /// not-yet-recovered workers are excluded). Never grows by itself.
    pub fn note_capacity(&mut self, live: u32) {
        if self.net.nalloc() > live.clamp(1, self.net.ntotal()) {
            self.resync(live);
        }
    }

    /// Forces the `Provision` token to what the actuation really holds
    /// (a denied claim, a placement that found no core).
    pub fn resync(&mut self, nalloc: u32) {
        self.net.set_nalloc(nalloc.clamp(1, self.net.ntotal()));
    }

    /// Currently allocated cores (the `Provision` token).
    pub fn nalloc(&self) -> u32 {
        self.net.nalloc()
    }

    /// How long to wait before the next step.
    pub fn interval(&self) -> SimDuration {
        self.cur_interval
    }

    /// The underlying PrT net.
    pub fn net(&self) -> &ElasticNet {
        &self.net
    }

    /// One control step over the measured usage `u` (see the module
    /// docs for the pipeline), returned as the event to log: its
    /// `action`/`nalloc` are the net's verdict. `cpu_load_pct` is only
    /// logged; `floor` is the live lower bound of the AIMD cadence.
    pub fn step(
        &mut self,
        at: SimTime,
        cpu_load_pct: f64,
        mut u: i64,
        floor: SimDuration,
        guard: impl FnOnce(i64) -> i64,
        shape: impl FnOnce(i64) -> i64,
    ) -> TransitionEvent {
        let th = self.net.thresholds();
        if self.queue_depth > 0 {
            let boost = (100 * self.queue_depth) / self.net.nalloc().max(1) as u64;
            u = (u + boost as i64).min(100);
        }
        u = guard(u);
        if u <= th.thmin {
            self.idle_streak += 1;
            if self.idle_streak < self.release_hysteresis {
                u = (th.thmin + th.thmax) / 2;
            }
        } else {
            self.idle_streak = 0;
        }
        let report = self.net.step(shape(u));
        // Keyed on the net's verdict, not on what the caller finally
        // actuates: a saturated Allocate keeps reacting at the floor.
        self.cur_interval = match report.action {
            AllocAction::Allocate | AllocAction::Release => floor,
            AllocAction::Hold => (self.cur_interval * 2).min(self.max_interval).max(floor),
        };
        TransitionEvent {
            at,
            label: report.label,
            state: report.state,
            action: report.action,
            u: report.u,
            cpu_load_pct,
            nalloc: report.nalloc,
        }
    }
}
