//! Pool-level elastic control for the real-thread backend.
//!
//! [`PoolController`] is the thread pool's substrate under the one
//! [`ControlCore`] (see [`crate::control`] for the pipeline — the same
//! [`Policy`] hooks, placement, tenant arbitration and cadence the
//! simulator's [`ElasticMechanism`](crate::mechanism) runs). What
//! belongs to a pool, and only that, lives here:
//!
//! - the **sample** is built from measured worker busy time: CPU load,
//!   zero resident pages and zero memory-controller utilisation. This
//!   workspace links no performance-counter syscalls, so the Eq. 1
//!   guard, the adaptive mode's page ranking and interconnect budgets
//!   are inert *by construction* — their signals read zero — not
//!   because code is missing (`docs/ARCHITECTURE.md` discusses the gap);
//! - the **mask** ranges over a pool-width mirror topology
//!   ([`PoolController::mirror`]); the driver unparks the workers the
//!   mask names, so a placement mode decides *which* workers run;
//! - masks apply at once (parking a worker has no token-flow latency),
//!   so a tenant shrink's ownership is released in the same step;
//! - [`PoolController::note_capacity`] clamps the mask to the live
//!   (not fault-killed) width.
//!
//! Real thread pools see much noisier load than the simulator (a sample
//! can land between task completions), which is why the core's release
//! hysteresis matters here: one noisy dip must not trigger a shrink.

use crate::control::ControlCore;
use crate::mechanism::{MechanismConfig, TransitionEvent};
use crate::monitor::MonitorSample;
use crate::policy::{Policy, PolicyId};
use crate::tenant::TenantBinding;
use emca_metrics::{SimDuration, SimTime};
use numa_sim::Topology;
use os_sim::CoreMask;
use prt_petrinet::{AllocAction, StateKind};

/// What [`PoolController::new`] takes: a pool width, controlled at
/// the CPU-load defaults of [`MechanismConfig::cpu_load`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Pool capacity (total workers the controller may unpark).
    pub ntotal: u32,
}

impl PoolConfig {
    /// CPU-load defaults for an `ntotal`-worker pool.
    pub fn cpu_load(ntotal: u32) -> Self {
        PoolConfig { ntotal }
    }
}

/// One control decision: how many workers should be unparked now.
#[derive(Clone, Copy, Debug)]
pub struct PoolDecision {
    /// Target unparked-worker count.
    pub nalloc: u32,
    /// What was applied this step.
    pub action: AllocAction,
    /// The net's state after the step.
    pub state: StateKind,
}

/// Elastic controller for a real worker pool.
pub struct PoolController {
    core: ControlCore,
    topology: Topology,
    /// The workers (as cores of the mirror topology) that should run.
    mask: CoreMask,
    /// The sample handed to the core: only `at`, `u` and `cpu_load_pct`
    /// ever change.
    sample: MonitorSample,
    min_interval: SimDuration,
    /// Every control step, for the harness's `transitions` output.
    pub events: Vec<TransitionEvent>,
}

impl PoolController {
    /// The topology a `width`-worker pool is placed over: the simulated
    /// machine's four sockets when the width divides evenly, one node
    /// otherwise.
    pub fn mirror(width: u32) -> Topology {
        if width % 4 == 0 {
            Topology::fully_connected(4, (width / 4) as u16)
        } else {
            Topology::fully_connected(1, width as u16)
        }
    }

    /// Dense placement over `cfg.ntotal` workers, no tenancy.
    pub fn new(cfg: PoolConfig) -> Self {
        Self::install(
            PolicyId::Dense.build(),
            &MechanismConfig::cpu_load(),
            Self::mirror(cfg.ntotal),
            None,
            SimTime::ZERO,
        )
    }

    /// A controller running `policy` over `topology` (a
    /// [`mirror`](PoolController::mirror)) from `cfg`'s thresholds,
    /// cadence, guard and initial allocation — the pool twin of
    /// [`ElasticMechanism::install`](crate::ElasticMechanism::install) /
    /// [`install_tenant`](crate::ElasticMechanism::install_tenant).
    /// `cfg.metric` and `cfg.actuation_latency` are simulator inputs and
    /// are not read.
    pub fn install(
        policy: Box<dyn Policy>,
        cfg: &MechanismConfig,
        topology: Topology,
        tenancy: Option<TenantBinding>,
        now: SimTime,
    ) -> Self {
        let nodes = topology.n_nodes();
        let pages = vec![0; nodes];
        let (core, mask) = ControlCore::install(policy, cfg, &topology, &pages, tenancy, now);
        PoolController {
            core,
            topology,
            mask,
            sample: MonitorSample {
                at: now,
                u: 0,
                cpu_load_pct: 0.0,
                ht_imc_ratio: 0.0,
                pages_per_node: pages,
                mc_util_per_node: vec![0.0; nodes],
                mc_pressure: 0.0,
            },
            min_interval: cfg.min_interval.min(cfg.interval),
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

    /// Counts `n` queries completed since the previous
    /// [`observe`](PoolController::observe) — the throughput feedback of
    /// [`Policy::observe`].
    pub fn note_completions(&mut self, n: u64) {
        self.core.note_completions(n);
    }

    /// Feeds one CPU-load observation (percent of the *active* workers'
    /// capacity) through the controller and applies the mask it returns.
    pub fn observe(&mut self, now: SimTime, u_pct: f64) -> PoolDecision {
        self.sample.at = now;
        self.sample.u = u_pct.round().clamp(0.0, 100.0) as i64;
        self.sample.cpu_load_pct = u_pct;
        let (mask, event) = self.core.step(
            &self.sample,
            0,
            self.min_interval,
            &self.topology,
            self.mask,
        );
        self.land(mask);
        let decision = PoolDecision {
            nalloc: event.nalloc,
            action: event.action,
            state: event.state,
        };
        self.events.push(event);
        decision
    }

    /// Applies `mask` at once, returning dropped cores to the arbiter.
    fn land(&mut self, mask: CoreMask) {
        self.core.release_owned(self.mask.minus(mask));
        self.mask = mask;
    }

    /// Reports how many workers are actually allocatable right now
    /// (`live` excludes fault-killed, not-yet-recovered workers). A
    /// mask wider than the live width loses its highest cores so grow
    /// decisions never point the actuation at a dead worker; recovery
    /// raises `live` again and the controller is free to re-grow. Never
    /// grows by itself.
    pub fn note_capacity(&mut self, live: u32) {
        let live = live.max(1) as usize;
        if self.mask.count() <= live {
            return;
        }
        let kept = CoreMask::from_cores(self.mask.iter().take(live));
        self.land(kept);
        self.core.resync(live as u32);
    }

    /// The workers that should run, as cores of the mirror topology.
    pub fn mask(&self) -> CoreMask {
        self.mask
    }

    /// Current target allocation.
    pub fn nalloc(&self) -> u32 {
        self.core.nalloc()
    }

    /// The policy's SLA budget violations so far ([`Policy::violations`]).
    pub fn violations(&self) -> u64 {
        self.core.policy.violations()
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
    use crate::tenant::{ArbiterMode, TenantArbiter};

    fn controller() -> PoolController {
        PoolController::new(PoolConfig::cpu_load(16))
    }

    /// A `width`-wide controller running `policy` at the CPU-load
    /// defaults.
    fn with_policy(policy: PolicyId, width: u32) -> PoolController {
        PoolController::install(
            policy.build(),
            &MechanismConfig::cpu_load(),
            PoolController::mirror(width),
            None,
            SimTime::ZERO,
        )
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
        // as `PoolConfig::cpu_load(16)` with the dense policy (identity
        // shaping, verdict-following decisions): the controller adds
        // nothing but rounding and the capacity clamp on top of the core.
        let cfg = MechanismConfig::cpu_load();
        let topo = PoolController::mirror(16);
        let (mut core, mut mask) = ControlCore::install(
            PolicyId::Dense.build(),
            &cfg,
            &topo,
            &[0; 4],
            None,
            SimTime::ZERO,
        );
        let mut sample = controller().sample;
        let mut trace = Vec::new();
        for (i, (load, depth, cap)) in golden_inputs().into_iter().enumerate() {
            if let Some(live) = cap.filter(|&live| mask.count() > live as usize) {
                mask = CoreMask::first_n(live as usize);
                core.resync(live);
            }
            core.note_queue_depth(depth);
            sample.at = SimTime::from_millis(i as u64);
            sample.u = load.round() as i64;
            sample.cpu_load_pct = load;
            let (next, event) = core.step(&sample, 0, cfg.min_interval, &topo, mask);
            mask = next;
            trace.push(digest(&event, core.interval()));
        }
        assert_eq!(trace, GOLDEN);
    }

    #[test]
    fn resync_tracks_denied_actuation() {
        // A budget-capped tenant: the arbiter denies every claim past
        // three cores, the policy is told, and the Provision token is
        // resynced to what the pool really holds.
        let arbiter = TenantArbiter::shared(ArbiterMode::BudgetCapped, 16);
        let tenant = arbiter.borrow_mut().register("capped", 1, Some(3));
        let mut c = PoolController::install(
            PolicyId::Dense.build(),
            &MechanismConfig::cpu_load(),
            PoolController::mirror(16),
            Some(TenantBinding::new(arbiter.clone(), tenant)),
            SimTime::ZERO,
        );
        assert_eq!(drive(&mut c, 95.0, 10), 3);
        assert_eq!(c.nalloc(), 3);
        assert_eq!(c.mask(), arbiter.borrow().owned(tenant));
        assert!(arbiter.borrow().denials > 0);
        let last = c.events.last().unwrap();
        assert_eq!(
            (last.state, last.action, last.nalloc),
            (StateKind::Overload, AllocAction::Hold, 3),
            "the log records the denied grow as a Hold"
        );
    }

    /// The order in which sustained overload adds workers to the mask.
    fn growth_order(policy: PolicyId, width: u32) -> Vec<usize> {
        let mut c = with_policy(policy, width);
        let mut order: Vec<usize> = c.mask().iter().map(|core| core.idx()).collect();
        for i in 0..width as u64 {
            let before = c.mask();
            c.observe(SimTime::from_millis(i), 100.0);
            order.extend(c.mask().minus(before).iter().map(|core| core.idx()));
        }
        order
    }

    #[test]
    fn placement_modes_order_the_workers() {
        // Sparse strides across the mirror's four sockets — the literal
        // vectors the hand-copied `sparse_order` of the threads runner
        // returned before the policies ran on the pool.
        assert_eq!(growth_order(PolicyId::Sparse, 4), [0, 1, 2, 3]);
        assert_eq!(growth_order(PolicyId::Sparse, 8), [0, 2, 4, 6, 1, 3, 5, 7]);
        assert_eq!(
            growth_order(PolicyId::Sparse, 16),
            [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
        );
        // Dense packs neighbours; adaptive has no page signal on a pool
        // and falls back to node order: both are the identity.
        for width in [4, 6, 8, 16] {
            let identity: Vec<usize> = (0..width as usize).collect();
            assert_eq!(growth_order(PolicyId::Dense, width), identity);
            assert_eq!(growth_order(PolicyId::Adaptive, width), identity);
        }
    }

    #[test]
    fn hillclimb_revert_is_applied_exactly_as_on_the_bare_core() {
        // Scripted (load %, completions) per 100 ms step: one saturated
        // step at 100 q/s grows the pool (a probe), then mid-band steps
        // at 70 q/s — the growth hurt, so the climber reverts it against
        // the net's Hold verdict.
        let script = [(95.0, 10), (50.0, 7), (50.0, 7), (50.0, 7), (50.0, 7)];
        let cfg = MechanismConfig {
            saturation_guard: None,
            ..MechanismConfig::cpu_load()
        };
        let topo = PoolController::mirror(16);
        let mut pool = PoolController::install(
            PolicyId::HillClimb.build(),
            &cfg,
            topo.clone(),
            None,
            SimTime::ZERO,
        );
        // The same script through the bare core — the call the
        // simulator's mechanism makes, minus its kernel.
        let (mut core, mut mask) = ControlCore::install(
            PolicyId::HillClimb.build(),
            &cfg,
            &topo,
            &[0; 4],
            None,
            SimTime::ZERO,
        );
        let mut sample = controller().sample;
        let mut bare = Vec::new();
        for (i, &(load, done)) in script.iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            pool.note_completions(done);
            pool.observe(at, load);
            core.note_completions(done);
            sample.at = at;
            sample.u = load as i64;
            sample.cpu_load_pct = load;
            let (next, event) = core.step(&sample, 0, cfg.min_interval, &topo, mask);
            mask = next;
            bare.push(event);
        }
        let view = |e: &TransitionEvent| (e.state, e.action, e.nalloc, e.u);
        assert_eq!(
            pool.events.iter().map(view).collect::<Vec<_>>(),
            bare.iter().map(view).collect::<Vec<_>>()
        );
        assert_eq!(view(&pool.events[0]).1, AllocAction::Allocate);
        let revert = pool
            .events
            .iter()
            .find(|e| e.action == AllocAction::Release)
            .expect("the climber reverts the growth that hurt");
        assert_eq!(revert.state, StateKind::Stable, "against a Hold verdict");
        assert_eq!(revert.nalloc, 1, "the log records the applied shrink");
        assert_eq!(pool.nalloc(), 1, "the Provision token was resynced");
        assert_eq!(pool.mask(), mask);
        assert_eq!(mask.count(), 1);
    }
}
