//! The elastic multi-core allocation mechanism on the simulator (the
//! paper's §III–§IV pipeline, assembled).
//!
//! Every control interval the mechanism:
//!
//! 1. **rule** — samples resource usage through the [`Monitor`]
//!    (mpstat/likwid analogues) and refreshes the page statistics;
//! 2. **condition + action** — hands the sample to the one
//!    [`ControlCore`] (see [`crate::control`] for the pipeline: policy
//!    feedback, queue-depth boost, Eq. 1 guard, release hysteresis,
//!    [`Policy::shape`], the PrT net, AIMD cadence, [`Policy::decide`],
//!    tenant arbitration), which returns the cpuset mask to apply;
//! 3. applies that mask to the DBMS group after the mode's actuation
//!    latency (the paper's measured token-flow times: dense 17 ms,
//!    sparse 21 ms, adaptive 31 ms), releasing a tenant's ownership of
//!    a dropped core only once the mask has landed.
//!
//! What is the simulator's own stays here and is not offered to the
//! thread pool ([`crate::pool`]): the [`Monitor`], the interconnect
//! byte rate, the service-time-scaled interval floor, the actuation
//! latency and its pending mask.
//!
//! A single mechanism instance supports all DBMS clients (§V).

use crate::control::ControlCore;
use crate::monitor::{MetricKind, Monitor};
use crate::policy::Policy;
use crate::tenant::TenantBinding;
use emca_metrics::{SimDuration, SimTime};
use numa_sim::SpaceId;
use os_sim::{CoreMask, GroupId, Kernel};
use prt_petrinet::{AllocAction, ElasticNet, StateKind, Thresholds};

/// Mechanism configuration.
#[derive(Clone, Debug)]
pub struct MechanismConfig {
    /// Metric driving the PrT transitions.
    pub metric: MetricKind,
    /// PrT thresholds (defaults depend on the metric).
    pub thresholds: Thresholds,
    /// Base (maximum) control interval — the paper's 50 ms. The live
    /// interval adapts between [`MechanismConfig::min_interval`] and this
    /// value: it collapses to the floor while the allocation is being
    /// hunted (an action just fired) and backs off exponentially once the
    /// system holds steady, so control overhead is paid only when the
    /// workload is actually moving.
    pub interval: SimDuration,
    /// Floor of the adaptive control interval. Also the cold-start
    /// interval: a freshly installed mechanism reacts at this rate until
    /// it has converged once. Raised automatically toward the observed
    /// query service time (see [`ElasticMechanism::note_response`]) so a
    /// scaled-down simulation keeps the paper's interval-to-service-time
    /// ratio instead of pinning 50 ms of wall-clock against
    /// millisecond-long queries.
    pub min_interval: SimDuration,
    /// Delay between deciding an action and the cpuset taking effect
    /// (the token-flow overhead measured in §V). Clamped to half the
    /// live control interval so an actuation never blocks the next
    /// control step.
    pub actuation_latency: SimDuration,
    /// Cores handed to the OS at start (the paper defaults to 1).
    pub initial_cores: u32,
    /// Memory-saturation guard implementing Eq. 1's `p(nalloc) ≥
    /// p(ntotal)` condition: when the workload-weighted memory-controller
    /// utilisation is at or above this threshold, an Overload
    /// classification is damped to Stable — extra cores cannot improve a
    /// memory-bound workload, only scatter it. Growth is never damped
    /// while the page-hottest node still has free cores (cores *on* the
    /// data cannot scatter it). `None` disables the guard (ablation).
    pub saturation_guard: Option<f64>,
}

impl MechanismConfig {
    /// Paper defaults for the CPU-load strategy.
    pub fn cpu_load() -> Self {
        MechanismConfig {
            metric: MetricKind::CpuLoad,
            thresholds: Thresholds::cpu_load_default(),
            interval: SimDuration::from_millis(50),
            min_interval: SimDuration::from_micros(200),
            actuation_latency: SimDuration::from_millis(31),
            initial_cores: 1,
            saturation_guard: Some(0.9),
        }
    }

    /// Paper defaults for the HT/IMC strategy (§V-B).
    pub fn ht_imc() -> Self {
        MechanismConfig {
            metric: MetricKind::HtImcRatio,
            thresholds: Thresholds::ht_imc_default(),
            ..Self::cpu_load()
        }
    }

    /// Sets the actuation latency from the paper's per-mode token-flow
    /// measurements (the hill climber places adaptively, so it pays the
    /// adaptive mode's token-flow cost).
    pub fn with_mode_latency(mut self, mode_name: &str) -> Self {
        self.actuation_latency = match mode_name {
            "dense" => SimDuration::from_millis(17),
            "sparse" => SimDuration::from_millis(21),
            "adaptive" | "hillclimb" => SimDuration::from_millis(31),
            _ => self.actuation_latency,
        };
        self
    }
}

/// One recorded state transition (Fig. 7's X axis).
#[derive(Clone, Debug)]
pub struct TransitionEvent {
    /// When the control step ran.
    pub at: SimTime,
    /// The fired-path label, e.g. `"t1-Overload-t5"`.
    pub label: String,
    /// Classified state.
    pub state: StateKind,
    /// Action taken.
    pub action: AllocAction,
    /// Metric value consumed.
    pub u: i64,
    /// CPU load (%) at the sample, regardless of metric.
    pub cpu_load_pct: f64,
    /// Allocated cores after the step.
    pub nalloc: u32,
}

/// The assembled mechanism: the simulator's substrate under the one
/// [`ControlCore`].
pub struct ElasticMechanism {
    cfg: MechanismConfig,
    /// The whole decision pipeline (policy, net, arbitration, cadence).
    core: ControlCore,
    monitor: Monitor,
    group: GroupId,
    next_control: SimTime,
    /// Smoothed observed query response time (seconds), fed by the
    /// harness through [`ElasticMechanism::note_response`].
    service_ewma: Option<f64>,
    /// Machine-wide link-byte count at the previous control step.
    prev_link_bytes: u64,
    /// A decided-but-not-yet-applied mask (actuation latency). A tenant
    /// shrink's ownership is released only once the mask lands — the
    /// core must not be free for peers before it has left this group's
    /// cpuset.
    pending: Option<(SimTime, CoreMask)>,
    /// Transition log (Fig. 7).
    pub events: Vec<TransitionEvent>,
    /// Number of control steps executed.
    pub steps: u64,
}

impl ElasticMechanism {
    /// Installs the mechanism on a kernel: shrinks the group's cpuset to
    /// the initial allocation (chosen by the policy) and arms the
    /// control timer.
    pub fn install(
        kernel: &mut Kernel,
        group: GroupId,
        space: SpaceId,
        policy: Box<dyn Policy>,
        cfg: MechanismConfig,
    ) -> Self {
        Self::install_inner(kernel, group, space, policy, cfg, None)
    }

    /// Installs one tenant's mechanism under a shared
    /// [`TenantArbiter`](crate::tenant::TenantArbiter): the initial
    /// cores are claimed through the arbiter, placement skips cores
    /// owned by other tenants, and every grow/shrink is arbitrated
    /// (growth past the tenant's entitlement can be denied, over-share
    /// allocations are yielded back when a peer starves).
    pub fn install_tenant(
        kernel: &mut Kernel,
        group: GroupId,
        space: SpaceId,
        policy: Box<dyn Policy>,
        cfg: MechanismConfig,
        binding: TenantBinding,
    ) -> Self {
        Self::install_inner(kernel, group, space, policy, cfg, Some(binding))
    }

    fn install_inner(
        kernel: &mut Kernel,
        group: GroupId,
        space: SpaceId,
        policy: Box<dyn Policy>,
        cfg: MechanismConfig,
        tenancy: Option<TenantBinding>,
    ) -> Self {
        let (core, mask) = ControlCore::install(
            policy,
            &cfg,
            kernel.machine().topology(),
            kernel.machine().mem().pages_per_node(space),
            tenancy,
            kernel.now(),
        );
        kernel.set_group_mask(group, mask);
        let monitor = Monitor::new(kernel, group, space, cfg.metric);
        let next_control = kernel.now() + core.interval();
        ElasticMechanism {
            cfg,
            core,
            monitor,
            group,
            next_control,
            service_ewma: None,
            prev_link_bytes: link_bytes(kernel),
            pending: None,
            events: Vec::new(),
            steps: 0,
        }
    }

    /// Feeds an observed query response time into the interval scaler.
    /// The control interval's floor tracks a fraction of the smoothed
    /// service time (clamped to `[min_interval, interval]`), so the
    /// mechanism reacts within a handful of queries at any simulation
    /// scale — at full scale, where queries take seconds, the floor sits
    /// at the paper's 50 ms default. Each call also counts one completed
    /// query toward the throughput feedback handed to
    /// [`Policy::observe`].
    pub fn note_response(&mut self, response: SimDuration) {
        self.core.note_completions(1);
        let secs = response.as_secs_f64();
        self.service_ewma = Some(match self.service_ewma {
            None => secs,
            Some(prev) => prev + 0.2 * (secs - prev),
        });
    }

    /// Reports the serving layer's current admission-queue depth. The
    /// backlog is demand the CPU-load metric cannot see — a single
    /// admitted query can leave a one-core allocation half idle while
    /// dozens of requests wait — so the next control step boosts the
    /// metric value proportionally to queued-requests-per-core. Runs
    /// without a front door never call this and behave exactly as
    /// before.
    pub fn note_queue_depth(&mut self, depth: u64) {
        self.core.note_queue_depth(depth);
    }

    /// The live floor of the control interval (service-time scaled).
    fn effective_min(&self) -> SimDuration {
        let lo = self.cfg.min_interval.min(self.cfg.interval);
        match self.service_ewma {
            None => lo,
            Some(s) => SimDuration::from_secs_f64(s / 64.0).clamp(lo, self.cfg.interval),
        }
    }

    /// The live control interval (diagnostics and tests).
    pub fn interval(&self) -> SimDuration {
        self.core.interval()
    }

    /// The controlled group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Currently allocated cores (the `Provision` token).
    pub fn nalloc(&self) -> u32 {
        self.core.nalloc()
    }

    /// The policy's SLA budget violations so far ([`Policy::violations`]).
    pub fn violations(&self) -> u64 {
        self.core.policy.violations()
    }

    /// The underlying PrT net (incidence matrix export etc.).
    pub fn net(&self) -> &ElasticNet {
        self.core.net()
    }

    /// The allocation policy's name.
    pub fn policy_name(&self) -> &str {
        self.core.policy_name()
    }

    /// Whether a control step is due at `now` — the only polls that can
    /// run one (a pending actuation can still hold it off). Lets a
    /// driver pay for host-clock timing around exactly those polls.
    pub fn control_due(&self, now: SimTime) -> bool {
        now >= self.next_control
    }

    /// Drives the mechanism; call once per simulation tick (cheap when
    /// nothing is due). Applies pending actuations and runs control steps
    /// on schedule.
    pub fn poll(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        if let Some((due, mask)) = self.pending {
            if now >= due {
                let left = kernel.group_mask(self.group).minus(mask);
                kernel.set_group_mask(self.group, mask);
                self.core.release_owned(left);
                self.pending = None;
            }
        }
        if self.control_due(now) && self.pending.is_none() {
            self.control(kernel);
            self.next_control = now + self.core.interval();
        }
    }

    /// One rule-condition-action step: sample, hand the sample to the
    /// controller, schedule the mask it returns.
    fn control(&mut self, kernel: &mut Kernel) {
        self.steps += 1;
        let sample = self.monitor.sample(kernel);
        let link_bytes = link_bytes(kernel);
        let ht_bytes = link_bytes.saturating_sub(self.prev_link_bytes);
        self.prev_link_bytes = link_bytes;
        let current = kernel.group_mask(self.group);
        let (mask, event) = self.core.step(
            &sample,
            ht_bytes,
            self.effective_min(),
            kernel.machine().topology(),
            current,
        );
        if mask != current {
            // Actuation never blocks more than half a control period.
            let latency = self.cfg.actuation_latency.min(self.core.interval() / 2);
            self.pending = Some((kernel.now() + latency, mask));
        }
        self.events.push(event);
    }

    /// Runs the kernel to `deadline`, polling the mechanism every tick.
    /// Only this crate's tests and its doc example drive a mechanism
    /// this way; the harness polls its mechanisms from the tenant
    /// lifecycle.
    pub fn run_with(&mut self, kernel: &mut Kernel, deadline: SimTime) {
        while kernel.now() < deadline {
            kernel.run_tick();
            self.poll(kernel);
        }
    }
}

/// Machine-wide interconnect byte count.
fn link_bytes(kernel: &Kernel) -> u64 {
    kernel.machine().counters().total_link_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{AdaptiveMode, DenseMode, ModeCtx, SparseMode};
    use crate::policy::{Decision, Observation, PolicyCtx};
    use numa_sim::CoreId;
    use os_sim::SpinWork;

    fn setup() -> (Kernel, GroupId, SpaceId) {
        let mut k = Kernel::opteron_4x4();
        let all = CoreMask::all(k.machine().topology());
        let g = k.create_group(all);
        let space = k.machine_mut().create_space();
        (k, g, space)
    }

    fn fast_cfg() -> MechanismConfig {
        MechanismConfig {
            interval: SimDuration::from_millis(5),
            actuation_latency: SimDuration::from_millis(1),
            ..MechanismConfig::cpu_load()
        }
    }

    #[test]
    fn install_shrinks_to_initial_core() {
        let (mut k, g, space) = setup();
        let mech = ElasticMechanism::install(&mut k, g, space, Box::new(DenseMode), fast_cfg());
        assert_eq!(k.group_mask(g).count(), 1);
        assert_eq!(k.group_mask(g).first(), Some(CoreId(0)));
        assert_eq!(mech.nalloc(), 1);
        assert_eq!(mech.policy_name(), "dense");
    }

    #[test]
    fn overload_grows_allocation() {
        let (mut k, g, space) = setup();
        let mut mech = ElasticMechanism::install(&mut k, g, space, Box::new(DenseMode), fast_cfg());
        // Ten CPU-hungry threads on one allowed core: load saturates.
        for i in 0..10 {
            k.spawn(
                format!("burn{i}"),
                g,
                None,
                Box::new(SpinWork::new(SimDuration::from_secs(10))),
            );
        }
        mech.run_with(&mut k, SimTime::from_millis(400));
        assert!(
            mech.nalloc() >= 4,
            "allocation did not grow: nalloc={} events={:?}",
            mech.nalloc(),
            mech.events.last()
        );
        assert_eq!(k.group_mask(g).count() as u32, mech.nalloc());
        assert!(mech.events.iter().any(|e| e.label == "t1-Overload-t5"));
    }

    #[test]
    fn idle_shrinks_allocation() {
        let (mut k, g, space) = setup();
        let cfg = MechanismConfig {
            initial_cores: 6,
            ..fast_cfg()
        };
        let mut mech = ElasticMechanism::install(&mut k, g, space, Box::new(DenseMode), cfg);
        assert_eq!(mech.nalloc(), 6);
        // No load at all: the mechanism must release down to one core.
        mech.run_with(&mut k, SimTime::from_millis(500));
        assert_eq!(mech.nalloc(), 1, "idle system should shrink to 1 core");
        assert!(mech.events.iter().any(|e| e.label == "t0-Idle-t4"));
        assert!(mech.events.iter().any(|e| e.label == "t0-Idle-t7"));
    }

    #[test]
    fn stable_load_holds_allocation() {
        let (mut k, g, space) = setup();
        let cfg = MechanismConfig {
            initial_cores: 2,
            ..fast_cfg()
        };
        let mut mech = ElasticMechanism::install(&mut k, g, space, Box::new(DenseMode), cfg);
        // One spinning thread over 2 cores ≈ 50% group load: stable band.
        k.spawn(
            "halfload",
            g,
            None,
            Box::new(SpinWork::new(SimDuration::from_secs(10))),
        );
        mech.run_with(&mut k, SimTime::from_millis(300));
        assert_eq!(mech.nalloc(), 2, "stable load must hold the allocation");
        assert!(mech.events.iter().any(|e| e.label == "t2-Stable-t3"));
    }

    #[test]
    fn sparse_mode_spreads_allocations() {
        let (mut k, g, space) = setup();
        let mut mech =
            ElasticMechanism::install(&mut k, g, space, Box::new(SparseMode), fast_cfg());
        for i in 0..12 {
            k.spawn(
                format!("burn{i}"),
                g,
                None,
                Box::new(SpinWork::new(SimDuration::from_secs(10))),
            );
        }
        mech.run_with(&mut k, SimTime::from_millis(300));
        let mask = k.group_mask(g);
        assert!(mask.count() >= 4, "expected growth, got {mask:?}");
        // Sparse must touch several nodes early.
        let per_node = mask.count_per_node(k.machine().topology());
        let nodes_used = per_node.iter().filter(|&&c| c > 0).count();
        assert!(nodes_used >= 3, "sparse should spread: {per_node:?}");
        drop(mech);
    }

    #[test]
    fn adaptive_mode_follows_pages() {
        let (mut k, g, space) = setup();
        // Home DBMS pages on node 2 before installing.
        let region = k.machine_mut().alloc(space, 8 * numa_sim::SEG_BYTES);
        for seg in region.segments() {
            k.machine_mut().access_segment(
                CoreId(8),
                seg,
                numa_sim::AccessKind::Write,
                numa_sim::StreamId(0),
            );
        }
        let mech = ElasticMechanism::install(
            &mut k,
            g,
            space,
            Box::new(AdaptiveMode::default()),
            fast_cfg(),
        );
        // The initial core must be on node 2 (the hottest node).
        let first = k.group_mask(g).first().expect("one core");
        assert_eq!(k.machine().topology().node_of(first), numa_sim::NodeId(2));
        assert_eq!(mech.policy_name(), "adaptive");
    }

    /// One hook call a [`Recorder`] saw.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Call {
        /// `observe`, with the raw sample value.
        Observe(i64),
        /// `shape`, with the `u` it was handed.
        Shape(i64),
        /// `decide`, with the net's verdict.
        Decide(AllocAction),
    }

    /// Dense placement that records every hook call and, when `force`
    /// is set, overrides the shaped value.
    struct Recorder {
        calls: std::rc::Rc<std::cell::RefCell<Vec<Call>>>,
        force: Option<i64>,
    }

    impl Policy for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            Policy::next_core(&mut DenseMode, ctx)
        }
        fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            Policy::release_core(&mut DenseMode, ctx)
        }
        fn observe(&mut self, obs: &Observation<'_>) {
            self.calls.borrow_mut().push(Call::Observe(obs.sample.u));
        }
        fn shape(&mut self, u: i64, _nalloc: u32, _th: Thresholds) -> i64 {
            self.calls.borrow_mut().push(Call::Shape(u));
            self.force.unwrap_or(u)
        }
        fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Decision {
            self.calls.borrow_mut().push(Call::Decide(ctx.action));
            Policy::decide(&mut DenseMode, ctx)
        }
    }

    /// Installs a [`Recorder`] on an idle machine (every raw sample
    /// reads `u = 0`) and runs `steps` control steps.
    fn record_idle_machine(
        cfg: MechanismConfig,
        queue_depth: u64,
        force: Option<i64>,
        steps: u64,
    ) -> (Vec<Call>, Vec<TransitionEvent>) {
        let (mut k, g, space) = setup();
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let recorder = Recorder {
            calls: calls.clone(),
            force,
        };
        let mut mech = ElasticMechanism::install(&mut k, g, space, Box::new(recorder), cfg);
        mech.note_queue_depth(queue_depth);
        while mech.steps < steps {
            k.run_tick();
            mech.poll(&mut k);
        }
        let calls = calls.borrow().clone();
        (calls, mech.events)
    }

    #[test]
    fn hooks_sit_in_the_documented_order() {
        use AllocAction::{Allocate, Hold, Release};
        let th = Thresholds::cpu_load_default();
        let mid = (th.thmin + th.thmax) / 2;
        let pinned = MechanismConfig {
            min_interval: SimDuration::from_millis(5),
            saturation_guard: None,
            ..fast_cfg()
        };

        // observe → boost → shape → net → decide: the policy observes
        // the raw sample, but an idle machine behind a deep queue reads
        // as saturated by the time it shapes the signal, and the net's
        // verdict on the shaped value is what it decides on.
        let (calls, _) = record_idle_machine(pinned.clone(), 100, None, 1);
        assert_eq!(
            calls,
            [Call::Observe(0), Call::Shape(100), Call::Decide(Allocate)],
            "the queue boost runs before Policy::shape"
        );

        // boost → guard → shape: the Eq. 1 guard only fires on an
        // Overload reading, which on an idle machine exists only after
        // the boost. A zero threshold with every core allocated (so the
        // page-hottest node is full) makes it fire at once; shape sees
        // the damped value.
        let guarded = MechanismConfig {
            saturation_guard: Some(0.0),
            initial_cores: 16,
            ..pinned.clone()
        };
        let (calls, _) = record_idle_machine(guarded, 100, None, 1);
        assert_eq!(
            calls,
            [Call::Observe(0), Call::Shape(mid), Call::Decide(Hold)],
            "the guard damps the boosted signal"
        );

        // hysteresis → shape: the first idle reading is replaced by the
        // mid-band value before the policy sees it; the second matures
        // the streak and passes through.
        let (calls, _) = record_idle_machine(pinned.clone(), 0, None, 2);
        let shaped: Vec<Call> = calls
            .into_iter()
            .filter(|c| matches!(c, Call::Shape(_)))
            .collect();
        assert_eq!(
            shaped,
            [Call::Shape(mid), Call::Shape(0)],
            "hysteresis runs before Policy::shape"
        );

        // shape → net: what the policy returns is what the net
        // classifies, un-damped — a forced idle reading releases on the
        // very first step even though the hysteresis would have held it.
        let four = MechanismConfig {
            initial_cores: 4,
            ..pinned
        };
        let (calls, events) = record_idle_machine(four, 100, Some(0), 1);
        assert_eq!(calls.last(), Some(&Call::Decide(Release)));
        assert_eq!(events[0].u, 0);
        assert_eq!(events[0].state, StateKind::Idle);
        assert_eq!(events[0].action, AllocAction::Release);
        assert_eq!(events[0].nalloc, 3);
    }

    #[test]
    fn actuation_latency_defaults_match_paper() {
        let cfg = MechanismConfig::cpu_load().with_mode_latency("dense");
        assert_eq!(cfg.actuation_latency, SimDuration::from_millis(17));
        let cfg = MechanismConfig::cpu_load().with_mode_latency("sparse");
        assert_eq!(cfg.actuation_latency, SimDuration::from_millis(21));
        let cfg = MechanismConfig::cpu_load().with_mode_latency("adaptive");
        assert_eq!(cfg.actuation_latency, SimDuration::from_millis(31));
    }

    #[test]
    fn ht_imc_config_uses_ratio_thresholds() {
        let cfg = MechanismConfig::ht_imc();
        assert_eq!(cfg.metric, MetricKind::HtImcRatio);
        assert_eq!(cfg.thresholds, Thresholds::ht_imc_default());
    }
}
