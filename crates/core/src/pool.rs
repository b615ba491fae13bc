//! Pool-level elastic control for the real-thread backend.
//!
//! [`PoolController`] is the mechanism's face toward an OS thread pool:
//! the shared [`ControlCore`] (queue-depth demand, release hysteresis,
//! the PrT net, AIMD cadence — see [`crate::control`]) consumes a
//! measured CPU load and emits allocate/release/hold actions, and the
//! actuation is *park/unpark workers* instead of editing a simulated
//! cpuset. What [`ElasticMechanism`](crate::mechanism) adds around the
//! same core has no real-hardware counterpart in this workspace — there
//! are no performance-counter syscalls, so no HT/IMC metric and no
//! saturation guard, and no placement for a [`Policy`](crate::Policy)
//! to decide — so the controller runs the core on CPU load alone with
//! identity shaping; `docs/ARCHITECTURE.md` discusses the gap.
//!
//! Real thread pools see much noisier load than the simulator (a sample
//! can land between task completions), which is why the core's release
//! hysteresis matters here: one noisy dip must not trigger a shrink.

use crate::control::ControlCore;
use crate::mechanism::TransitionEvent;
use emca_metrics::{SimDuration, SimTime};
use prt_petrinet::{AllocAction, ElasticNet, StateKind, Thresholds};

/// Configuration for a [`PoolController`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Idle / overload CPU-load thresholds (percent).
    pub thresholds: Thresholds,
    /// Pool capacity (total workers the controller may unpark).
    pub ntotal: u32,
    /// Workers unparked at start.
    pub initial: u32,
    /// Longest poll interval (AIMD upper bound).
    pub interval: SimDuration,
    /// Shortest poll interval, used right after a transition fires.
    pub min_interval: SimDuration,
    /// Consecutive under-`thmin` observations required before a release.
    pub release_hysteresis: u32,
}

impl PoolConfig {
    /// CPU-load defaults sized for a 16-worker pool.
    pub fn cpu_load(ntotal: u32) -> Self {
        PoolConfig {
            thresholds: Thresholds::cpu_load_default(),
            ntotal,
            initial: 1,
            interval: SimDuration::from_millis(50),
            min_interval: SimDuration::from_micros(200),
            release_hysteresis: 2,
        }
    }
}

/// One control decision: how many workers should be unparked now.
#[derive(Clone, Copy, Debug)]
pub struct PoolDecision {
    /// Target unparked-worker count.
    pub nalloc: u32,
    /// What the net did this step.
    pub action: AllocAction,
    /// The net's state after the step.
    pub state: StateKind,
}

/// Elastic controller for a real worker pool.
#[derive(Clone, Debug)]
pub struct PoolController {
    core: ControlCore,
    min_interval: SimDuration,
    /// Every control step, for the harness's `transitions` output.
    pub events: Vec<TransitionEvent>,
}

impl PoolController {
    /// Builds the controller with its PrT net at `cfg.initial` workers.
    pub fn new(cfg: PoolConfig) -> Self {
        cfg.thresholds.validate();
        let initial = cfg.initial.clamp(1, cfg.ntotal);
        PoolController {
            core: ControlCore::new(
                ElasticNet::new(cfg.thresholds, cfg.ntotal, initial),
                cfg.release_hysteresis,
                cfg.interval,
                cfg.min_interval,
            ),
            min_interval: cfg.min_interval,
            events: Vec::new(),
        }
    }

    /// Reports the serving layer's current admission-queue depth; the
    /// next [`observe`](PoolController::observe) boosts the load signal
    /// by the queued-requests-per-worker ratio, so backlog registers as
    /// demand even while the admitted queries leave workers idle.
    /// Closed-loop runs never call this.
    pub fn note_queue_depth(&mut self, depth: u64) {
        self.core.note_queue_depth(depth);
    }

    /// Feeds one CPU-load observation (percent of the *active* workers'
    /// capacity) and returns the new target allocation.
    pub fn observe(&mut self, now: SimTime, u_pct: f64) -> PoolDecision {
        let u = u_pct.round().clamp(0.0, 100.0) as i64;
        let event = self
            .core
            .step(now, u_pct, u, self.min_interval, |u| u, |u| u);
        let decision = PoolDecision {
            nalloc: event.nalloc,
            action: event.action,
            state: event.state,
        };
        self.events.push(event);
        decision
    }

    /// Forces the net's allocation to `nalloc` — used when the actuation
    /// could not follow a decision (e.g. a multi-tenant arbiter denied
    /// the claim), so net state and real pool state stay in step.
    pub fn resync(&mut self, nalloc: u32) {
        self.core.resync(nalloc);
    }

    /// Reports how many workers are actually allocatable right now
    /// (`live` excludes fault-killed, not-yet-recovered workers). A
    /// target above the live width is clamped down so grow decisions
    /// never point the actuation at a dead worker; recovery raises
    /// `live` again and the controller is free to re-grow.
    pub fn note_capacity(&mut self, live: u32) {
        self.core.note_capacity(live);
    }

    /// Current target allocation.
    pub fn nalloc(&self) -> u32 {
        self.core.nalloc()
    }

    /// How long the caller should wait before the next [`observe`]
    /// (AIMD: short after a transition, long while stable).
    ///
    /// [`observe`]: PoolController::observe
    pub fn interval(&self) -> SimDuration {
        self.core.interval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> PoolController {
        PoolController::new(PoolConfig::cpu_load(16))
    }

    fn drive(c: &mut PoolController, u: f64, steps: usize) -> u32 {
        let mut n = c.nalloc();
        for i in 0..steps {
            n = c.observe(SimTime::from_millis(i as u64), u).nalloc;
        }
        n
    }

    #[test]
    fn overload_grows_to_capacity() {
        let mut c = controller();
        assert_eq!(drive(&mut c, 95.0, 40), 16);
        assert!(!c.events.is_empty());
        assert_eq!(c.events.last().unwrap().nalloc, 16);
    }

    #[test]
    fn idle_shrinks_but_only_after_hysteresis() {
        let mut c = controller();
        drive(&mut c, 95.0, 20);
        let grown = c.nalloc();
        assert!(grown > 1);
        // One idle sample is noise: no release yet.
        let d = c.observe(SimTime::from_secs(1), 2.0);
        assert_eq!(d.nalloc, grown);
        // Sustained idleness releases.
        assert_eq!(drive(&mut c, 2.0, 40), 1);
    }

    #[test]
    fn stable_band_holds_and_backs_off() {
        let mut c = controller();
        drive(&mut c, 95.0, 4);
        let before = c.nalloc();
        let d = c.observe(SimTime::from_secs(2), 40.0);
        assert_eq!(d.nalloc, before);
        assert!(matches!(d.action, AllocAction::Hold));
        let short = c.interval();
        for i in 0..16 {
            c.observe(SimTime::from_secs(3 + i), 40.0);
        }
        assert!(c.interval() > short, "holds must back the cadence off");
        assert_eq!(c.interval(), SimDuration::from_millis(50));
    }

    #[test]
    fn queue_backlog_grows_an_idle_pool() {
        let mut c = controller();
        // Low measured load, but a deep admission queue: the backlog is
        // demand and must grow the pool despite the idle CPU signal.
        c.note_queue_depth(32);
        let mut n = c.nalloc();
        for i in 0..40 {
            c.note_queue_depth(32);
            n = c.observe(SimTime::from_millis(i), 5.0).nalloc;
        }
        assert_eq!(n, 16, "queue pressure must register as demand");
        // Backlog drained: the idle signal shrinks the pool again.
        c.note_queue_depth(0);
        assert_eq!(drive(&mut c, 2.0, 40), 1);
    }

    #[test]
    fn dead_capacity_clamps_and_recovery_regrows() {
        let mut c = controller();
        drive(&mut c, 95.0, 40);
        assert_eq!(c.nalloc(), 16);
        // 4 workers die: the target drops to the live width.
        c.note_capacity(12);
        assert_eq!(c.nalloc(), 12);
        // Recovery restores capacity; sustained load re-grows.
        c.note_capacity(16);
        assert_eq!(c.nalloc(), 12, "note_capacity never grows by itself");
        assert_eq!(drive(&mut c, 95.0, 40), 16);
        // A fully dead pool still reports one allocatable slot (the
        // controller cannot target zero workers).
        c.note_capacity(0);
        assert_eq!(c.nalloc(), 1);
    }

    /// The fixed input sequence of the golden decision trace: seven
    /// phases (ramp, idle, mid-band, backlog, noise, fault, recovery)
    /// with LCG noise on the load — `(load %, queue depth, live
    /// capacity note)` per step.
    fn golden_inputs() -> Vec<(f64, u64, Option<u32>)> {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut noise = move |span: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % span
        };
        let mut inputs = Vec::new();
        for step in 0..84u64 {
            let n = noise(20) as f64;
            let (load, depth, cap) = match step / 12 {
                0 => (75.0 + n, 0, None),
                1 => (n / 2.0, 0, None),
                2 => (30.0 + n, 0, None),
                3 => (5.0 + n / 4.0, noise(9), None),
                4 => (noise(101) as f64 + 0.5, 0, None),
                5 => (80.0 + n, 0, (step % 4 == 0).then_some(4 + noise(8) as u32)),
                _ => (60.0 + 2.0 * n, noise(3), Some(16)),
            };
            inputs.push((load, depth, cap));
        }
        inputs
    }

    /// `(nalloc, action, state, next interval µs)` per step of
    /// [`golden_inputs`], recorded from the pre-fold `PoolController`
    /// (PR 11): the fold onto [`ControlCore`] must not move a decision.
    #[rustfmt::skip]
    const GOLDEN: [(u32, char, char, u64); 84] = [
        (2, 'A', 'O', 200), (3, 'A', 'O', 200), (4, 'A', 'O', 200), (5, 'A', 'O', 200),
        (6, 'A', 'O', 200), (7, 'A', 'O', 200), (8, 'A', 'O', 200), (9, 'A', 'O', 200),
        (10, 'A', 'O', 200), (11, 'A', 'O', 200), (12, 'A', 'O', 200), (13, 'A', 'O', 200),
        (13, 'H', 'S', 400), (12, 'R', 'I', 200), (11, 'R', 'I', 200), (10, 'R', 'I', 200),
        (9, 'R', 'I', 200), (8, 'R', 'I', 200), (7, 'R', 'I', 200), (6, 'R', 'I', 200),
        (5, 'R', 'I', 200), (4, 'R', 'I', 200), (3, 'R', 'I', 200), (2, 'R', 'I', 200),
        (2, 'H', 'S', 400), (2, 'H', 'S', 800), (2, 'H', 'S', 1600), (2, 'H', 'S', 3200),
        (2, 'H', 'S', 6400), (2, 'H', 'S', 12800), (2, 'H', 'S', 25600), (2, 'H', 'S', 50000),
        (2, 'H', 'S', 50000), (2, 'H', 'S', 50000), (2, 'H', 'S', 50000), (2, 'H', 'S', 50000),
        (3, 'A', 'O', 200), (3, 'H', 'S', 400), (3, 'H', 'S', 800), (4, 'A', 'O', 200),
        (5, 'A', 'O', 200), (5, 'H', 'S', 400), (6, 'A', 'O', 200), (6, 'H', 'S', 400),
        (7, 'A', 'O', 200), (8, 'A', 'O', 200), (8, 'H', 'S', 400), (9, 'A', 'O', 200),
        (9, 'H', 'S', 400), (9, 'H', 'S', 800), (10, 'A', 'O', 200), (11, 'A', 'O', 200),
        (11, 'H', 'S', 400), (12, 'A', 'O', 200), (13, 'A', 'O', 200), (14, 'A', 'O', 200),
        (14, 'H', 'S', 400), (14, 'H', 'S', 800), (15, 'A', 'O', 200), (15, 'H', 'S', 400),
        (7, 'A', 'O', 200), (8, 'A', 'O', 200), (9, 'A', 'O', 200), (10, 'A', 'O', 200),
        (10, 'A', 'O', 200), (11, 'A', 'O', 200), (12, 'A', 'O', 200), (13, 'A', 'O', 200),
        (6, 'A', 'O', 200), (7, 'A', 'O', 200), (8, 'A', 'O', 200), (9, 'A', 'O', 200),
        (10, 'A', 'O', 200), (11, 'A', 'O', 200), (12, 'A', 'O', 200), (13, 'A', 'O', 200),
        (13, 'H', 'S', 400), (14, 'A', 'O', 200), (15, 'A', 'O', 200), (16, 'A', 'O', 200),
        (16, 'H', 'O', 400), (16, 'H', 'S', 800), (16, 'H', 'O', 1600), (16, 'H', 'S', 3200),
    ];

    fn digest(event: &TransitionEvent, interval: SimDuration) -> (u32, char, char, u64) {
        let initial = |name: String| name.chars().next().unwrap_or('?');
        (
            event.nalloc,
            initial(format!("{:?}", event.action)),
            initial(format!("{:?}", event.state)),
            interval.as_nanos() / 1_000,
        )
    }

    #[test]
    fn golden_decision_trace_is_unchanged() {
        let mut c = controller();
        let mut trace = Vec::new();
        for (i, (load, depth, cap)) in golden_inputs().into_iter().enumerate() {
            if let Some(live) = cap {
                c.note_capacity(live);
            }
            c.note_queue_depth(depth);
            let d = c.observe(SimTime::from_millis(i as u64), load);
            let logged = c.events.last().unwrap();
            assert_eq!(
                (d.nalloc, d.action, d.state),
                (logged.nalloc, logged.action, logged.state)
            );
            trace.push(digest(logged, c.interval()));
        }
        assert_eq!(trace, GOLDEN);
    }

    #[test]
    fn core_with_identity_shaping_matches_the_golden_trace() {
        // The same inputs through the shared core directly, configured
        // as `PoolConfig::cpu_load(16)` and with both hooks the identity:
        // the controller adds nothing but rounding on top of the core.
        let cfg = PoolConfig::cpu_load(16);
        let mut core = ControlCore::new(
            ElasticNet::new(cfg.thresholds, cfg.ntotal, cfg.initial),
            cfg.release_hysteresis,
            cfg.interval,
            cfg.min_interval,
        );
        let mut trace = Vec::new();
        for (i, (load, depth, cap)) in golden_inputs().into_iter().enumerate() {
            if let Some(live) = cap {
                core.note_capacity(live);
            }
            core.note_queue_depth(depth);
            let u = load.round() as i64;
            let at = SimTime::from_millis(i as u64);
            let event = core.step(at, load, u, cfg.min_interval, |u| u, |u| u);
            trace.push(digest(&event, core.interval()));
        }
        assert_eq!(trace, GOLDEN);
    }

    #[test]
    fn resync_tracks_denied_actuation() {
        let mut c = controller();
        drive(&mut c, 95.0, 10);
        assert!(c.nalloc() > 3);
        c.resync(3);
        assert_eq!(c.nalloc(), 3);
    }
}
