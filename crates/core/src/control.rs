//! The controller: the paper's rule–condition–action pipeline, once.
//!
//! "A single mechanism instance supports all DBMS clients" (§V) — and a
//! single [`ControlCore`] is the whole pipeline from a sample on both
//! substrates of this workspace: [`ElasticMechanism`](crate::ElasticMechanism)
//! feeds it [`Monitor`](crate::Monitor) samples of a simulated cpuset,
//! [`PoolController`](crate::PoolController) measured busy time of real
//! OS workers. A substrate supplies a [`MonitorSample`], its topology
//! and the current [`CoreMask`], and applies the mask that comes back;
//! everything in between is [`ControlCore::step`], in this order:
//!
//! 1. **observe** — [`Policy::observe`] sees the raw sample, the
//!    completions and the interconnect bytes of the window;
//! 2. **queue-depth boost** — requests waiting at a front door are
//!    demand the load metric cannot see (they occupy no core yet); each
//!    queued request per allocated core pushes `u` toward Overload (it
//!    only ever raises `u`, saturating at the top of the metric's band);
//! 3. **guard** — Eq. 1 saturation damping: an Overload reading while
//!    the memory controllers serving the data are saturated and the
//!    page-hottest node is full is damped to Stable. Inert wherever the
//!    sample carries no memory traffic (`mc_pressure` = 0);
//! 4. **release hysteresis** (LONC damping) — a below-`thmin` reading
//!    only reaches the net once it has held for `RELEASE_HYSTERESIS`
//!    (2) consecutive steps; until then a mid-band value is substituted;
//! 5. **shape** — [`Policy::shape`] (SLA damping, hill-climb probe
//!    holds); runs after the hysteresis so a policy-forced release is
//!    not re-damped;
//! 6. **net** — [`ElasticNet::step`] classifies and fires;
//! 7. **AIMD cadence** — an Allocate/Release verdict collapses the poll
//!    interval to the floor, every Hold doubles it up to the ceiling;
//! 8. **decide** — [`Policy::decide`] maps the verdict to a core (or
//!    vetoes/overrides it);
//! 9. **tenant arbitration** — under a [`TenantBinding`] the step's
//!    demand is noted, an over-share tenant yields toward a starved
//!    peer through the policy's own Release path, and a grow is claimed
//!    or denied ([`Policy::grow_denied`]). A shrink's ownership is
//!    released by [`ControlCore::release_owned`] when the substrate
//!    says the mask has landed;
//! 10. **resync** — the `Provision` token is forced to the applied
//!     allocation whenever the decision diverged from the verdict;
//! 11. the step is returned as the new mask plus the
//!     [`TransitionEvent`] recording what was applied.

use crate::mechanism::{MechanismConfig, TransitionEvent};
use crate::modes::ModeCtx;
use crate::monitor::MonitorSample;
use crate::policy::{Decision, Observation, Policy, PolicyCtx};
use crate::tenant::TenantBinding;
use emca_metrics::{SimDuration, SimTime};
use numa_sim::{NodeId, Topology};
use os_sim::CoreMask;
use prt_petrinet::{AllocAction, ElasticNet};

/// The cores a tenant's placement must skip: those its peers own.
fn barred(tenancy: &Option<TenantBinding>) -> CoreMask {
    tenancy.as_ref().map_or(CoreMask::EMPTY, |t| {
        t.arbiter.borrow().foreign_mask(t.tenant)
    })
}

/// Consecutive Idle classifications required before a release fires
/// (LONC damping): a single below-`thmin` window — one drained runqueue
/// between query waves — must not shed a core that the next wave
/// immediately re-allocates.
const RELEASE_HYSTERESIS: u32 = 2;

/// The decision state of one mechanism instance.
pub struct ControlCore {
    net: ElasticNet,
    pub(crate) policy: Box<dyn Policy>,
    /// Multi-tenant arbitration handle; `None` in single-tenant runs.
    tenancy: Option<TenantBinding>,
    saturation_guard: Option<f64>,
    /// AIMD ceiling (the configured base interval).
    max_interval: SimDuration,
    /// Consecutive under-`thmin` steps.
    idle_streak: u32,
    /// Requests queued in front of the engine; 0 without a front door.
    queue_depth: u64,
    cur_interval: SimDuration,
    /// Completed queries since the last step (throughput feedback for
    /// [`Policy::observe`]).
    completions_since: u64,
    /// When the previous step ran (observation window anchor).
    last_step_at: SimTime,
}

impl ControlCore {
    /// Builds the controller and its initial allocation: the policy is
    /// asked for `cfg.initial_cores` cores one by one (skipping cores
    /// other tenants already own, claiming each through the arbiter),
    /// with `pages_per_node` as the only placement signal. Polls every
    /// `cfg.min_interval` until its first step — a fresh allocation is
    /// almost certainly wrong, so the first steps must come quickly.
    pub fn install(
        mut policy: Box<dyn Policy>,
        cfg: &MechanismConfig,
        topology: &Topology,
        pages_per_node: &[u64],
        tenancy: Option<TenantBinding>,
        now: SimTime,
    ) -> (Self, CoreMask) {
        let ntotal = topology.n_cores() as u32;
        assert!(
            (1..=ntotal).contains(&cfg.initial_cores),
            "initial_cores out of range"
        );
        let mut mask = CoreMask::EMPTY;
        for _ in 0..cfg.initial_cores {
            let ctx = ModeCtx {
                topology,
                current: mask,
                barred: barred(&tenancy),
                pages_per_node,
                mc_util_per_node: &[],
            };
            let Some(core) = policy.next_core(&ctx) else {
                break;
            };
            if let Some(t) = &tenancy {
                t.arbiter.borrow_mut().claim_initial(t.tenant, core);
            }
            mask.insert(core);
        }
        assert!(
            mask.count() as u32 == cfg.initial_cores,
            "initial cores available"
        );
        let core = ControlCore {
            net: ElasticNet::new(cfg.thresholds, ntotal, cfg.initial_cores),
            policy,
            tenancy,
            saturation_guard: cfg.saturation_guard,
            max_interval: cfg.interval,
            idle_streak: 0,
            queue_depth: 0,
            cur_interval: cfg.min_interval.min(cfg.interval),
            completions_since: 0,
            last_step_at: now,
        };
        (core, mask)
    }

    /// Reports the serving layer's admission-queue depth for the next
    /// [`step`](ControlCore::step); closed-loop runs never call this.
    pub fn note_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
    }

    /// Counts `n` queries completed since the previous step.
    pub fn note_completions(&mut self, n: u64) {
        self.completions_since += n;
    }

    /// Forces the `Provision` token to what the actuation really holds
    /// (a capacity clamp, a placement that found no core).
    pub fn resync(&mut self, nalloc: u32) {
        self.net.set_nalloc(nalloc.clamp(1, self.net.ntotal()));
    }

    /// Returns the tenant's ownership of `left` — the cores a shrink
    /// took out of the mask — to the arbiter. The substrate calls this
    /// when the mask has *landed*: releasing at decision time would let
    /// a peer claim (and schedule on) a core that is still in this
    /// group's not-yet-rewritten mask. A no-op without tenancy.
    pub fn release_owned(&self, left: CoreMask) {
        if let Some(t) = &self.tenancy {
            let mut arb = t.arbiter.borrow_mut();
            for core in left.iter() {
                arb.release(t.tenant, core);
            }
        }
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

    /// The allocation policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// One rule–condition–action step over `sample` (see the module
    /// docs for the pipeline). `ht_bytes` is the interconnect traffic
    /// since the previous step, `floor` the live lower bound of the AIMD
    /// cadence, `current` the mask the substrate holds now. Returns the
    /// mask to apply and the event to log — its `action`/`nalloc` are
    /// what was applied, not the net's verdict.
    pub fn step(
        &mut self,
        sample: &MonitorSample,
        ht_bytes: u64,
        floor: SimDuration,
        topology: &Topology,
        current: CoreMask,
    ) -> (CoreMask, TransitionEvent) {
        // Throughput/traffic feedback for the policy (hill climbing, SLA
        // budgets); plain placement modes ignore it.
        let window = sample.at.since(self.last_step_at);
        let ht_rate = if window.is_zero() {
            0.0
        } else {
            ht_bytes as f64 / window.as_secs_f64()
        };
        self.policy.observe(&Observation {
            sample,
            completions: self.completions_since,
            interval: window,
            nalloc: self.net.nalloc(),
            ht_rate,
            queue_depth: self.queue_depth,
        });
        self.completions_since = 0;
        self.last_step_at = sample.at;

        let th = self.net.thresholds();
        let mid = (th.thmin + th.thmax) / 2;
        let mut u = sample.u;
        if self.queue_depth > 0 {
            let boost = (100 * self.queue_depth) / self.net.nalloc().max(1) as u64;
            u = u.max((u + boost as i64).min(th.thmax.max(100)));
        }
        // Eq. 1 guard (`p(nalloc) ≥ p(ntotal)`): when the memory
        // controllers actually serving the workload's data are saturated,
        // an extra core cannot improve performance — it can only scatter
        // the working set — so an Overload classification is damped into
        // the stable band and the allocation holds at its local optimum.
        // A core on a node that *already holds* the hot data cannot
        // scatter anything, though: growth is never damped while the
        // page-hottest node still has free cores (reaching them adds
        // local compute and cache without new interconnect traffic).
        if let Some(guard) = self.saturation_guard {
            if u >= th.thmax && sample.mc_pressure >= guard {
                let hottest_full = sample
                    .pages_per_node
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &p)| p)
                    .map(|(n, _)| {
                        topology
                            .cores_of(NodeId(n as u16))
                            .all(|c| current.contains(c))
                    })
                    .unwrap_or(true);
                if hottest_full {
                    u = mid;
                }
            }
        }
        if u <= th.thmin {
            self.idle_streak += 1;
            if self.idle_streak < RELEASE_HYSTERESIS {
                u = mid;
            }
        } else {
            self.idle_streak = 0;
        }
        // Policy signal shaping (SLA damping, hill-climb probe holds);
        // identity for the plain placement modes.
        let report = self
            .net
            .step(self.policy.shape(u, current.count() as u32, th));
        let verdict = report.action;
        // Keyed on the net's verdict, not on what is finally actuated: a
        // saturated Allocate keeps reacting at the floor.
        self.cur_interval = match verdict {
            AllocAction::Allocate | AllocAction::Release => floor,
            AllocAction::Hold => (self.cur_interval * 2).min(self.max_interval).max(floor),
        };

        let ctx = PolicyCtx {
            mode: ModeCtx {
                topology,
                current,
                barred: barred(&self.tenancy),
                pages_per_node: &sample.pages_per_node,
                mc_util_per_node: &sample.mc_util_per_node,
            },
            action: verdict,
        };
        let mut decision = self.policy.decide(&ctx);
        // Tenant arbitration: record this step's demand, yield a core
        // toward a starved peer, and pass every grow through the shared
        // ownership map. A denied growth becomes a Hold (the policy is
        // told, so it can roll back probe state); the Provision resync
        // below keeps the net honest either way.
        if let Some(t) = &self.tenancy {
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
            if let Decision::Grow(core) = decision {
                if !arb.try_claim(t.tenant, core) {
                    self.policy.grow_denied(core);
                    decision = Decision::Hold;
                }
            }
        }
        let mut mask = current;
        let applied = match decision {
            Decision::Grow(core) => {
                debug_assert!(!current.contains(core), "policy grew an allocated core");
                mask.insert(core);
                AllocAction::Allocate
            }
            Decision::Shrink(core) => {
                debug_assert!(current.contains(core), "policy shrank a foreign core");
                mask.remove(core);
                AllocAction::Release
            }
            Decision::Hold => AllocAction::Hold,
        };
        // Resync the Provision token whenever the decision diverged from
        // the net's verdict — the placement found no core, or the policy
        // vetoed/overrode the move (SLA cap, hill-climb revert).
        let nalloc = mask.count() as u32;
        if applied != verdict {
            self.resync(nalloc);
        }
        debug_assert!(mask == current || nalloc == self.net.nalloc());
        let event = TransitionEvent {
            at: sample.at,
            label: report.label,
            state: report.state,
            // The log records what was actually applied, not the verdict.
            action: applied,
            u: report.u,
            cpu_load_pct: sample.cpu_load_pct,
            nalloc,
        };
        (mask, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::DenseMode;
    use crate::pool::PoolController;
    use crate::tenant::{ArbiterMode, TenantArbiter, STARVE_AFTER};
    use numa_sim::CoreId;
    use prt_petrinet::{StateKind, Thresholds};

    fn sample(at_ms: u64, u: i64) -> MonitorSample {
        MonitorSample {
            at: SimTime::from_millis(at_ms),
            u,
            cpu_load_pct: u.min(100) as f64,
            ht_imc_ratio: 0.0,
            pages_per_node: vec![0; 4],
            mc_util_per_node: vec![0.0; 4],
            mc_pressure: 0.0,
        }
    }

    #[test]
    fn queue_backlog_never_lowers_a_ratio_reading() {
        // HT/IMC readings live in per-mille, far above the percent
        // domain the boost was written for: a 450 ‰ reading behind a
        // non-empty queue must stay Overload, not be clamped down to
        // `thmin` and shed cores.
        let cfg = MechanismConfig {
            initial_cores: 4,
            ..MechanismConfig::ht_imc()
        };
        assert_eq!(cfg.thresholds, Thresholds::ht_imc_default());
        let topo = Topology::opteron_4x4();
        let install = || {
            ControlCore::install(
                Box::new(DenseMode),
                &cfg,
                &topo,
                &[0; 4],
                None,
                SimTime::ZERO,
            )
        };
        let (mut core, mask) = install();
        core.note_queue_depth(8);
        let (grown, event) = core.step(&sample(1, 450), 0, cfg.min_interval, &topo, mask);
        assert_eq!(event.u, 450, "the boost may only raise u");
        assert_eq!(event.state, StateKind::Overload);
        assert_eq!(grown.count(), 5);
        // A quiet link behind a deep queue is still pushed to the top of
        // the ratio band: backlog is demand under either metric.
        let (mut core, mask) = install();
        core.note_queue_depth(32);
        let (_, event) = core.step(&sample(1, 50), 0, cfg.min_interval, &topo, mask);
        assert_eq!(event.u, cfg.thresholds.thmax);
        assert_eq!(event.state, StateKind::Overload);
    }

    /// Dense release, but growth takes the *highest* free core — a first
    /// choice no substrate would make on the policy's behalf.
    struct HighestFirst;

    impl Policy for HighestFirst {
        fn name(&self) -> &str {
            "highest-first"
        }
        fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            ctx.topology.all_cores().filter(|&c| ctx.is_free(c)).last()
        }
        fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
            Policy::release_core(&mut DenseMode, ctx)
        }
    }

    /// One overload step of a substrate face: the mask it holds
    /// afterwards and the event it logged.
    type Stepper = Box<dyn FnMut(u64) -> (CoreMask, TransitionEvent)>;

    /// Two equal-weight tenants on four cores. The peer seeds core 0;
    /// the tenant under test (installed by `install`, which returns its
    /// initial mask and its stepper) grabs the other three while nobody
    /// starves, then the peer starts demanding its half.
    fn yield_script(install: impl FnOnce(TenantBinding) -> (CoreMask, Stepper)) {
        let arbiter = TenantArbiter::shared(ArbiterMode::FairShare, 4);
        let peer = arbiter.borrow_mut().register("peer", 1, None);
        arbiter.borrow_mut().claim_initial(peer, CoreId(0));
        let tenant = arbiter.borrow_mut().register("greedy", 1, None);
        let (first, mut step) = install(TenantBinding::new(arbiter.clone(), tenant));
        assert_eq!(
            first,
            CoreMask::single(CoreId(3)),
            "the first core is the policy's choice, not the lowest free one"
        );
        step(1);
        let (mask, _) = step(2);
        assert_eq!(mask.count(), 3);
        assert_eq!(arbiter.borrow().free_cores(), 0);
        for _ in 0..STARVE_AFTER {
            arbiter.borrow_mut().note(peer, true);
        }
        assert!(arbiter.borrow().must_yield(tenant));

        // Over its share, peer starving, verdict Allocate: the tenant
        // yields through the policy's Release path *instead of*
        // claiming — one shrink, no claim attempt, no denial.
        let (mask, event) = step(3);
        assert_eq!(event.state, StateKind::Overload);
        assert_eq!(event.action, AllocAction::Release);
        assert_eq!(event.nalloc, 2);
        assert_eq!(mask, CoreMask::from_cores([CoreId(1), CoreId(2)]));
        let arb = arbiter.borrow();
        assert_eq!(arb.owned(tenant), mask, "ownership follows the mask");
        assert_eq!((arb.yields, arb.denials), (1, 0));
    }

    #[test]
    fn over_share_tenant_yields_instead_of_claiming_on_both_faces() {
        let cfg = MechanismConfig::cpu_load();
        // The call `ElasticMechanism` makes, minus its kernel: ownership
        // is released once the mask lands, as `poll` does.
        yield_script(|binding| {
            let topo = PoolController::mirror(4);
            let (mut core, mut mask) = ControlCore::install(
                Box::new(HighestFirst),
                &cfg,
                &topo,
                &[0; 4],
                Some(binding),
                SimTime::ZERO,
            );
            let step = move |at_ms| {
                let (next, event) =
                    core.step(&sample(at_ms, 100), 0, cfg.min_interval, &topo, mask);
                core.release_owned(mask.minus(next));
                mask = next;
                (mask, event)
            };
            (mask, Box::new(step))
        });
        yield_script(|binding| {
            let mut pool = PoolController::install(
                Box::new(HighestFirst),
                &cfg,
                PoolController::mirror(4),
                Some(binding),
                SimTime::ZERO,
            );
            let first = pool.mask();
            let step = move |at_ms| {
                pool.observe(SimTime::from_millis(at_ms), 100.0);
                (pool.mask(), pool.events[pool.events.len() - 1].clone())
            };
            (first, Box::new(step))
        });
    }
}
