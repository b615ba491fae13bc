//! The elastic multi-core allocation mechanism (the paper's §III–§IV
//! pipeline, assembled).
//!
//! Every control interval the mechanism:
//!
//! 1. **rule** — samples resource usage through the [`Monitor`]
//!    (mpstat/likwid analogues) and refreshes the page statistics;
//! 2. **condition** — hands the measured `u` to the shared
//!    [`ControlCore`] (queue-depth boost → Eq. 1 guard → release
//!    hysteresis → [`Policy::shape`] → [`ElasticNet::step`] → AIMD
//!    cadence; the guard and the shaping are this module's hooks into
//!    that pipeline), which classifies the performance state and decides
//!    whether a core must be allocated or released;
//! 3. **action** — asks the [`Policy`] *where*, and applies the
//!    new cpuset mask to the DBMS group after the mode's actuation
//!    latency (the paper's measured token-flow times: dense 17 ms,
//!    sparse 21 ms, adaptive 31 ms).
//!
//! A single mechanism instance supports all DBMS clients (§V).

use crate::control::ControlCore;
use crate::modes::ModeCtx;
use crate::monitor::{MetricKind, Monitor};
use crate::policy::{Decision, Observation, Policy, PolicyCtx};
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
    /// Consecutive Idle classifications required before a release fires
    /// (LONC damping): a single below-`thmin` window — one drained
    /// runqueue between query waves — must not shed a core that the next
    /// wave immediately re-allocates.
    pub release_hysteresis: u32,
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
            release_hysteresis: 2,
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

/// The assembled mechanism.
pub struct ElasticMechanism {
    cfg: MechanismConfig,
    /// The shared decision pipeline (net, hysteresis, queue demand,
    /// AIMD cadence between `min_interval` and `interval`).
    core: ControlCore,
    policy: Box<dyn Policy>,
    monitor: Monitor,
    group: GroupId,
    next_control: SimTime,
    /// Smoothed observed query response time (seconds), fed by the
    /// harness through [`ElasticMechanism::note_response`].
    service_ewma: Option<f64>,
    /// Completed queries since the last control step (throughput
    /// feedback for [`Policy::observe`]).
    completions_since: u64,
    /// When the previous control step ran (observation window anchor).
    last_control_at: SimTime,
    /// Machine-wide link-byte count at the previous control step.
    prev_link_bytes: u64,
    /// A decided-but-not-yet-applied mask (actuation latency), plus the
    /// core whose arbiter ownership is released once the mask lands (a
    /// tenant shrink must not free the core for peers before it has
    /// left this group's cpuset).
    pending: Option<(SimTime, CoreMask, Option<numa_sim::CoreId>)>,
    /// Multi-tenant arbitration handle; `None` in single-tenant runs.
    tenancy: Option<TenantBinding>,
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
        mut policy: Box<dyn Policy>,
        cfg: MechanismConfig,
        tenancy: Option<TenantBinding>,
    ) -> Self {
        let topo = kernel.machine().topology().clone();
        let ntotal = topo.n_cores() as u32;
        assert!(
            (1..=ntotal).contains(&cfg.initial_cores),
            "initial_cores out of range"
        );
        // Build the initial mask by asking the policy for cores one by
        // one (skipping cores other tenants already own).
        let pages = kernel.machine().mem().pages_per_node(space).to_vec();
        let mut mask = CoreMask::EMPTY;
        for _ in 0..cfg.initial_cores {
            let barred = match &tenancy {
                Some(t) => t.arbiter.borrow().foreign_mask(t.tenant),
                None => CoreMask::EMPTY,
            };
            let ctx = ModeCtx {
                topology: &topo,
                current: mask,
                barred,
                pages_per_node: &pages,
                mc_util_per_node: &[],
            };
            let core = policy.next_core(&ctx).expect("initial cores available");
            if let Some(t) = &tenancy {
                t.arbiter.borrow_mut().claim_initial(t.tenant, core);
            }
            mask.insert(core);
        }
        kernel.set_group_mask(group, mask);
        let monitor = Monitor::new(kernel, group, space, cfg.metric);
        // Cold start reacts at the floor interval: the allocation is one
        // core and almost certainly wrong, so the first control steps
        // must come quickly relative to the workload.
        let core = ControlCore::new(
            ElasticNet::new(cfg.thresholds, ntotal, cfg.initial_cores),
            cfg.release_hysteresis,
            cfg.interval,
            cfg.min_interval.min(cfg.interval),
        );
        let next_control = kernel.now() + core.interval();
        let prev_link_bytes = kernel
            .machine()
            .counters()
            .snapshot()
            .link_bytes
            .iter()
            .sum();
        ElasticMechanism {
            cfg,
            core,
            policy,
            monitor,
            group,
            next_control,
            service_ewma: None,
            completions_since: 0,
            last_control_at: kernel.now(),
            prev_link_bytes,
            pending: None,
            tenancy,
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
        self.completions_since += 1;
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

    /// The underlying PrT net (incidence matrix export etc.).
    pub fn net(&self) -> &ElasticNet {
        self.core.net()
    }

    /// The allocation policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Drives the mechanism; call once per simulation tick (cheap when
    /// nothing is due). Applies pending actuations and runs control steps
    /// on schedule.
    pub fn poll(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        if let Some((due, mask, release)) = self.pending {
            if now >= due {
                kernel.set_group_mask(self.group, mask);
                if let (Some(core), Some(t)) = (release, &self.tenancy) {
                    t.arbiter.borrow_mut().release(t.tenant, core);
                }
                self.pending = None;
            }
        }
        if now >= self.next_control && self.pending.is_none() {
            self.control(kernel);
            self.next_control = now + self.core.interval();
        }
    }

    /// One rule-condition-action step.
    fn control(&mut self, kernel: &mut Kernel) {
        self.steps += 1;
        let sample = self.monitor.sample(kernel);
        // Throughput/traffic feedback for the policy (hill climbing, SLA
        // budgets); plain placement modes ignore it.
        let window = kernel.now().since(self.last_control_at);
        let link_bytes: u64 = kernel
            .machine()
            .counters()
            .snapshot()
            .link_bytes
            .iter()
            .sum();
        let ht_rate = if window.is_zero() {
            0.0
        } else {
            link_bytes.saturating_sub(self.prev_link_bytes) as f64 / window.as_secs_f64()
        };
        self.policy.observe(&Observation {
            sample: &sample,
            completions: self.completions_since,
            interval: window,
            nalloc: self.core.nalloc(),
            ht_rate,
            queue_depth: self.core.queue_depth(),
        });
        self.completions_since = 0;
        self.last_control_at = kernel.now();
        self.prev_link_bytes = link_bytes;
        // Eq. 1 guard (`p(nalloc) ≥ p(ntotal)`): when the memory
        // controllers actually serving the workload's data are saturated,
        // an extra core cannot improve performance — it can only scatter
        // the working set — so an Overload classification is damped into
        // the stable band and the allocation holds at its local optimum.
        // A core on a node that *already holds* the hot data cannot
        // scatter anything, though: growth is never damped while the
        // page-hottest node still has free cores (reaching them adds
        // local compute and cache without new interconnect traffic).
        let th = self.cfg.thresholds;
        let saturation_guard = self.cfg.saturation_guard;
        let floor = self.effective_min();
        let current = kernel.group_mask(self.group);
        let topo = kernel.machine().topology();
        let guard = |u: i64| match saturation_guard {
            Some(guard) if u >= th.thmax && sample.mc_pressure >= guard => {
                let hottest_full = sample
                    .pages_per_node
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &p)| p)
                    .map(|(n, _)| {
                        topo.cores_of(numa_sim::NodeId(n as u16))
                            .all(|c| current.contains(c))
                    })
                    .unwrap_or(true);
                if hottest_full {
                    (th.thmin + th.thmax) / 2
                } else {
                    u
                }
            }
            _ => u,
        };
        // Policy signal shaping (SLA damping, hill-climb probe holds);
        // identity for the plain placement modes.
        let policy = &mut self.policy;
        let shape = |u: i64| policy.shape(u, current.count() as u32, th);
        let mut event = self.core.step(
            sample.at,
            sample.cpu_load_pct,
            sample.u,
            floor,
            guard,
            shape,
        );
        let verdict = event.action;
        let barred = match &self.tenancy {
            Some(t) => t.arbiter.borrow().foreign_mask(t.tenant),
            None => CoreMask::EMPTY,
        };
        let ctx = PolicyCtx {
            mode: ModeCtx {
                topology: topo,
                current,
                barred,
                pages_per_node: &sample.pages_per_node,
                mc_util_per_node: &sample.mc_util_per_node,
            },
            action: verdict,
        };
        let mut decision = self.policy.decide(&ctx);
        // Tenant arbitration: record this step's demand, yield a core
        // toward a starved peer, and pass every grow/shrink through the
        // shared ownership map. A denied growth becomes a Hold (the
        // policy is told, so it can roll back probe state); the
        // Provision resync below keeps the net honest either way. A
        // shrink's ownership release is *deferred* to actuation time —
        // releasing at decision time would let a peer claim (and
        // schedule on) the core while it is still in this group's
        // not-yet-rewritten cpuset mask.
        let mut deferred_release = None;
        if let Some(t) = self.tenancy.clone() {
            let mut arb = t.arbiter.borrow_mut();
            arb.note(t.tenant, verdict == AllocAction::Allocate);
            if !matches!(decision, Decision::Shrink(_)) && arb.must_yield(t.tenant) {
                // Route the forced release through the policy's own
                // Release path (not bare release_core) so stateful
                // policies run their release bookkeeping — the hill
                // climber drops its in-flight probe exactly as on a
                // net-driven release.
                let release_ctx = PolicyCtx {
                    mode: ctx.mode,
                    action: AllocAction::Release,
                };
                decision = match self.policy.decide(&release_ctx) {
                    Decision::Shrink(core) => {
                        arb.yields += 1;
                        Decision::Shrink(core)
                    }
                    _ => Decision::Hold,
                };
            }
            decision = match decision {
                Decision::Grow(core) if !arb.try_claim(t.tenant, core) => {
                    self.policy.grow_denied(core);
                    Decision::Hold
                }
                Decision::Shrink(core) => {
                    deferred_release = Some(core);
                    Decision::Shrink(core)
                }
                other => other,
            };
        }
        let decision = decision;
        let new_mask = match decision {
            Decision::Grow(core) => {
                debug_assert!(!current.contains(core), "policy grew an allocated core");
                let mut m = current;
                m.insert(core);
                Some(m)
            }
            Decision::Shrink(core) => {
                debug_assert!(current.contains(core), "policy shrank a foreign core");
                let mut m = current;
                m.remove(core);
                Some(m)
            }
            Decision::Hold => None,
        };
        // Resync the Provision token whenever the decision diverged from
        // the net's verdict — the placement found no core, or the policy
        // vetoed/overrode the move (SLA cap, hill-climb revert).
        let in_sync = matches!(
            (verdict, decision),
            (AllocAction::Allocate, Decision::Grow(_))
                | (AllocAction::Release, Decision::Shrink(_))
                | (AllocAction::Hold, Decision::Hold)
        );
        let nalloc_after = new_mask.unwrap_or(current).count() as u32;
        if !in_sync {
            self.core.resync(nalloc_after);
        }
        if let Some(mask) = new_mask {
            debug_assert_eq!(mask.count() as u32, self.core.nalloc());
            // Actuation never blocks more than half a control period.
            let latency = self.cfg.actuation_latency.min(self.core.interval() / 2);
            self.pending = Some((kernel.now() + latency, mask, deferred_release));
        }
        // The log records what was actually applied, not the verdict.
        event.action = match decision {
            Decision::Grow(_) => AllocAction::Allocate,
            Decision::Shrink(_) => AllocAction::Release,
            Decision::Hold => AllocAction::Hold,
        };
        event.nalloc = nalloc_after;
        self.events.push(event);
    }

    /// Runs the kernel to `deadline`, polling the mechanism every tick —
    /// the main driver loop of every mechanism experiment.
    pub fn run_with(&mut self, kernel: &mut Kernel, deadline: SimTime) {
        while kernel.now() < deadline {
            kernel.run_tick();
            self.poll(kernel);
        }
    }

    /// Like [`ElasticMechanism::run_with`] but stops early when `pred`
    /// holds. Returns true if the predicate fired.
    pub fn run_with_until(
        &mut self,
        kernel: &mut Kernel,
        deadline: SimTime,
        mut pred: impl FnMut(&Kernel) -> bool,
    ) -> bool {
        while kernel.now() < deadline {
            if pred(kernel) {
                return true;
            }
            kernel.run_tick();
            self.poll(kernel);
        }
        pred(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{AdaptiveMode, DenseMode, SparseMode};
    use emca_metrics::SimDuration;
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

    /// Dense placement plus a `shape` hook that logs every `u` it is
    /// handed and, when `force` is set, overrides it.
    struct ShapeProbe {
        seen: std::rc::Rc<std::cell::RefCell<Vec<i64>>>,
        force: Option<i64>,
    }

    impl Policy for ShapeProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            Policy::next_core(&mut DenseMode, ctx)
        }
        fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            Policy::release_core(&mut DenseMode, ctx)
        }
        fn shape(&mut self, u: i64, _nalloc: u32, _th: Thresholds) -> i64 {
            self.seen.borrow_mut().push(u);
            self.force.unwrap_or(u)
        }
    }

    /// Installs a [`ShapeProbe`] on an idle machine (every raw sample
    /// reads `u = 0`) and runs `steps` control steps.
    fn probe_idle_machine(
        cfg: MechanismConfig,
        queue_depth: u64,
        force: Option<i64>,
        steps: u64,
    ) -> (Vec<i64>, Vec<TransitionEvent>) {
        let (mut k, g, space) = setup();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let probe = ShapeProbe {
            seen: seen.clone(),
            force,
        };
        let mut mech = ElasticMechanism::install(&mut k, g, space, Box::new(probe), cfg);
        mech.note_queue_depth(queue_depth);
        while mech.steps < steps {
            k.run_tick();
            mech.poll(&mut k);
        }
        let seen = seen.borrow().clone();
        (seen, mech.events)
    }

    #[test]
    fn hooks_sit_in_the_documented_order() {
        let th = Thresholds::cpu_load_default();
        let mid = (th.thmin + th.thmax) / 2;
        let pinned = MechanismConfig {
            min_interval: SimDuration::from_millis(5),
            saturation_guard: None,
            ..fast_cfg()
        };

        // boost → shape: an idle machine behind a deep queue reads as
        // saturated by the time the policy shapes it.
        let (seen, _) = probe_idle_machine(pinned.clone(), 100, None, 1);
        assert_eq!(seen, [100], "the queue boost runs before Policy::shape");

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
        let (seen, _) = probe_idle_machine(guarded, 100, None, 1);
        assert_eq!(seen, [mid], "the guard damps the boosted signal");

        // hysteresis → shape: the first idle reading is replaced by the
        // mid-band value before the policy sees it; the second matures
        // the streak and passes through.
        let (seen, _) = probe_idle_machine(pinned.clone(), 0, None, 2);
        assert_eq!(seen, [mid, 0], "hysteresis runs before Policy::shape");

        // shape → net: what the policy returns is what the net
        // classifies, un-damped — a forced idle reading releases on the
        // very first step even though the hysteresis would have held it.
        let four = MechanismConfig {
            initial_cores: 4,
            ..pinned
        };
        let (_, events) = probe_idle_machine(four, 100, Some(0), 1);
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
