//! The unified allocation-policy API.
//!
//! [`Policy`] covers placement (*where* to allocate or release a core —
//! all that [`DenseMode`], [`SparseMode`] and [`AdaptiveMode`]
//! implement) **and** the SLA-governor hooks (*whether* to follow the
//! PrT net's verdict at all): every control step the
//! mechanism feeds the policy an [`Observation`] (throughput and resource
//! feedback) and then asks it to [`Policy::decide`] on the net's
//! [`AllocAction`]. Plain placement modes keep the net's verdict and only
//! pick the core; richer policies — the SLA cap ([`SlaCappedPolicy`]) or
//! the throughput hill climber ([`HillClimbPolicy`]) — may veto growth,
//! force a release, or revert a move that did not pay off.
//!
//! Policies are named by the typed [`PolicyId`]; parsing a name returns a
//! proper error ([`UnknownPolicy`]) instead of panicking, so CLIs can
//! print the valid list.
//!
//! ```
//! use elastic_core::{policy_by_name, ModeCtx, Policy, PolicyId};
//! use numa_sim::Topology;
//! use os_sim::CoreMask;
//!
//! let mut policy = policy_by_name("dense").unwrap();
//! let topo = Topology::opteron_4x4();
//! let ctx = ModeCtx {
//!     topology: &topo,
//!     current: CoreMask::EMPTY,
//!     barred: CoreMask::EMPTY,
//!     pages_per_node: &[0; 4],
//!     mc_util_per_node: &[],
//! };
//! let first = policy.next_core(&ctx).expect("an empty machine has room");
//! assert_eq!(first.0, 0, "dense fills node 0 first");
//! assert!(PolicyId::try_from("warp").is_err(), "unknown names are errors");
//! ```

use crate::modes::{AdaptiveMode, DenseMode, ModeCtx, SparseMode};
use crate::monitor::MonitorSample;
use crate::sla::{SlaGovernor, SlaPolicy};
use emca_metrics::SimDuration;
use numa_sim::CoreId;
use prt_petrinet::{AllocAction, Thresholds};

/// What a policy decided for one control step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Hand this core to the OS (must not already be allocated).
    Grow(CoreId),
    /// Take this core back (must be allocated).
    Shrink(CoreId),
    /// Keep the current allocation.
    Hold,
}

/// Context handed to [`Policy::decide`]: the placement context plus the
/// PrT net's verdict for this step.
pub struct PolicyCtx<'a> {
    /// Placement context (topology, current mask, pages, MC headroom).
    pub mode: ModeCtx<'a>,
    /// The net's verdict (the policy may override it).
    pub action: AllocAction,
}

/// Per-control-step feedback a policy can learn from.
#[derive(Clone, Copy, Debug)]
pub struct Observation<'a> {
    /// The monitor sample driving this step.
    pub sample: &'a MonitorSample,
    /// Queries completed since the previous control step.
    pub completions: u64,
    /// Wall (simulated) time covered since the previous control step.
    pub interval: SimDuration,
    /// Cores allocated going into this step.
    pub nalloc: u32,
    /// Interconnect traffic rate over the window (bytes/s).
    pub ht_rate: f64,
    /// Requests waiting for admission/dispatch in front of the engine
    /// (the serving layer's queue). Always 0 in closed-loop runs, where
    /// demand is only visible through CPU load. An open-loop front door
    /// feeds this via `note_queue_depth` so backlog registers as demand
    /// even while the few admitted queries leave the allocation idle.
    pub queue_depth: u64,
}

impl Observation<'_> {
    /// Completion throughput over the window (queries/s); `None` when the
    /// window is empty.
    pub fn rate(&self) -> Option<f64> {
        let secs = self.interval.as_secs_f64();
        (secs > 0.0).then(|| self.completions as f64 / secs)
    }
}

/// A core-allocation policy: placement (*where*) plus an optional veto
/// over the PrT net's verdict (*whether*).
pub trait Policy {
    /// Short name (`"dense"`, `"sparse"`, `"adaptive"`, `"hillclimb"`).
    fn name(&self) -> &str;

    /// The next core to add (must not already be in `ctx.current`);
    /// `None` when every core is allocated.
    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId>;

    /// The core to release (must be in `ctx.current`); `None` when only
    /// one core remains.
    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId>;

    /// Feedback hook, called once per control step *before*
    /// [`Policy::decide`]. Default: ignore.
    fn observe(&mut self, _obs: &Observation<'_>) {}

    /// Signal-shaping hook, applied to the metric value *before* the
    /// PrT net consumes it (after the mechanism's own Eq. 1 guard and
    /// release hysteresis). This is how a policy talks the net out of a
    /// move instead of fighting its verdict after the fact: damping an
    /// over-`thmax` value into the stable band makes the net classify
    /// Stable (so the control interval backs off and the LONC streak is
    /// visible in the transition log), and forcing `thmin` drives a
    /// release through the normal token path. Default: identity.
    fn shape(&mut self, u: i64, _nalloc: u32, _thresholds: Thresholds) -> i64 {
        u
    }

    /// Notification that a [`Decision::Grow`] returned by
    /// [`Policy::decide`] was denied downstream (a
    /// [`TenantArbiter`](crate::tenant::TenantArbiter) refused the
    /// claim) and the mechanism held instead. Stateful policies must
    /// roll back anything they armed for that growth — the hill
    /// climber drops its in-flight probe, since there is no grown
    /// allocation to judge. Default: ignore.
    fn grow_denied(&mut self, _core: CoreId) {}

    /// Maps the net's verdict to a concrete decision. The default
    /// follows the verdict, delegating placement to
    /// [`Policy::next_core`] / [`Policy::release_core`].
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Decision {
        match ctx.action {
            AllocAction::Allocate => self
                .next_core(&ctx.mode)
                .map(Decision::Grow)
                .unwrap_or(Decision::Hold),
            AllocAction::Release => self
                .release_core(&ctx.mode)
                .map(Decision::Shrink)
                .unwrap_or(Decision::Hold),
            AllocAction::Hold => Decision::Hold,
        }
    }

    /// SLA budget violations counted so far (an [`SlaCappedPolicy`]'s
    /// governor). Default: none.
    fn violations(&self) -> u64 {
        0
    }
}

/// Typed policy identifier — the CLI/config surface of [`Policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyId {
    /// Fill each node before moving on (Fig. 12b).
    Dense,
    /// One core per node round-robin (Fig. 12a).
    Sparse,
    /// Page-priority placement (§IV-B2, the paper's contribution).
    Adaptive,
    /// Adaptive placement plus throughput-feedback hill climbing:
    /// growth that drops the completion rate (scattering) is reverted,
    /// finding the LONC knee without a tuned Eq. 1 guard threshold.
    HillClimb,
}

impl PolicyId {
    /// All selectable policies, in CLI listing order.
    pub const ALL: [PolicyId; 4] = [
        PolicyId::Dense,
        PolicyId::Sparse,
        PolicyId::Adaptive,
        PolicyId::HillClimb,
    ];

    /// The canonical name (parseable back via `TryFrom<&str>`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyId::Dense => "dense",
            PolicyId::Sparse => "sparse",
            PolicyId::Adaptive => "adaptive",
            PolicyId::HillClimb => "hillclimb",
        }
    }

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyId::Dense => Box::new(DenseMode),
            PolicyId::Sparse => Box::new(SparseMode),
            PolicyId::Adaptive => Box::new(AdaptiveMode::default()),
            PolicyId::HillClimb => Box::new(HillClimbPolicy::default()),
        }
    }
}

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unrecognised policy name; its `Display` lists the valid
/// names so CLIs can surface it directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid: Vec<&str> = PolicyId::ALL.iter().map(|p| p.name()).collect();
        write!(
            f,
            "unknown policy {:?} (valid: {})",
            self.0,
            valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

impl TryFrom<&str> for PolicyId {
    type Error = UnknownPolicy;

    fn try_from(name: &str) -> Result<Self, Self::Error> {
        PolicyId::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| UnknownPolicy(name.to_string()))
    }
}

impl std::str::FromStr for PolicyId {
    type Err = UnknownPolicy;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyId::try_from(s)
    }
}

/// Builds a policy by name — the typed replacement for the old
/// panic-on-unknown `mode_by_name`.
pub fn policy_by_name(name: &str) -> Result<Box<dyn Policy>, UnknownPolicy> {
    PolicyId::try_from(name).map(PolicyId::build)
}

/// An in-flight growth probe: the hill climber grew the allocation and
/// is waiting for enough throughput signal to judge the move.
#[derive(Clone, Copy, Debug)]
struct Probe {
    /// Allocation size before the growth (the revert target).
    from: u32,
    /// Completion rate measured before the growth (queries/s).
    base_rate: f64,
    /// Whether the added core sits on the page-hottest node (local
    /// compute over the data — no scattering risk).
    local: bool,
    /// Control steps observed since the growth.
    steps: u32,
    /// Completions accumulated since the growth.
    completions: u64,
    /// Simulated time accumulated since the growth.
    elapsed: SimDuration,
}

/// A proven-unhelpful allocation size: the climber will not grow back to
/// it until the entry ages out (the workload may have changed).
#[derive(Clone, Copy, Debug)]
struct Ceiling {
    /// The allocation size that did not help.
    at: u32,
    /// Control steps since the revert.
    age: u32,
}

/// Throughput-feedback hill climbing over the adaptive placement
/// (the ROADMAP's hill-climbing LONC): every growth is a *probe* — the
/// climber records the completion rate before the move, lets the system
/// settle, and reverts the growth if the rate dropped (the scattering
/// signature; see [`HillClimbPolicy`]'s `growth_helped` for why a flat
/// rate keeps the core). A reverted size becomes a temporary ceiling so
/// the net's Overload signal cannot immediately re-grow into it. This
/// finds the knee of the throughput-vs-cores curve (Eq. 1's local
/// optimum) from feedback alone, without a tuned memory-saturation
/// threshold.
#[derive(Clone, Debug)]
pub struct HillClimbPolicy {
    placer: AdaptiveMode,
    /// Smoothed completion rate at the current allocation (queries/s).
    rate: Option<f64>,
    probe: Option<Probe>,
    ceiling: Option<Ceiling>,
    /// Minimum control steps before a probe may be judged.
    settle_steps: u32,
    /// Expected completions (at the base rate) required to judge.
    judge_expected: f64,
    /// Hard cap on probe length (control steps).
    max_probe_steps: u32,
    /// Relative rate improvement that unconditionally keeps a growth.
    min_gain: f64,
    /// Relative rate drop that marks a growth as harmful (reverted).
    max_loss: f64,
    /// Control steps a ceiling entry stays fresh.
    ceiling_ttl: u32,
}

impl Default for HillClimbPolicy {
    fn default() -> Self {
        HillClimbPolicy {
            placer: AdaptiveMode::default(),
            rate: None,
            probe: None,
            ceiling: None,
            settle_steps: 2,
            judge_expected: 4.0,
            max_probe_steps: 48,
            min_gain: 0.02,
            max_loss: 0.02,
            ceiling_ttl: 64,
        }
    }
}

impl HillClimbPolicy {
    /// Whether a probe has gathered enough signal to be judged.
    fn ripe(&self, probe: &Probe) -> bool {
        if probe.steps < self.settle_steps {
            return false;
        }
        if probe.base_rate <= 0.0 || probe.steps >= self.max_probe_steps {
            // No pre-growth rate to compare against (cold-start ramp):
            // nothing further to wait for — judge (and accept) now so
            // the probe does not block the ramp.
            return true;
        }
        // Enough expected completions at the pre-growth rate that a
        // flat/absent improvement is signal, not noise.
        probe.base_rate * probe.elapsed.as_secs_f64() >= self.judge_expected
    }

    /// Judges a ripe probe: `true` keeps the growth, `false` reverts it.
    ///
    /// - an *improved* completion rate always keeps the growth;
    /// - a *dropped* rate always reverts it (the scattering signature
    ///   the mechanism exists to avoid);
    /// - a *flat* rate keeps the growth only when the core sits on the
    ///   page-hottest node: local compute over the data costs nothing
    ///   and absorbs the queued demand that triggered the move, while a
    ///   remote core that bought no throughput is pure scatter risk.
    ///   This is the learned analogue of the Eq. 1 guard's
    ///   "hottest-node-has-free-cores" exception.
    fn growth_helped(&self, probe: &Probe) -> bool {
        let secs = probe.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return true;
        }
        let probe_rate = probe.completions as f64 / secs;
        if probe.base_rate <= 0.0 {
            // No throughput signal before the move (cold start): trust
            // the load metric that asked for the growth.
            return true;
        }
        if probe_rate >= probe.base_rate * (1.0 + self.min_gain) {
            return true;
        }
        if probe_rate < probe.base_rate * (1.0 - self.max_loss) {
            return false;
        }
        probe.local
    }
}

impl Policy for HillClimbPolicy {
    fn name(&self) -> &str {
        "hillclimb"
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.placer.next_core(ctx)
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.placer.release_core(ctx)
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        if let Some(r) = obs.rate() {
            self.rate = Some(match self.rate {
                None if obs.completions == 0 => return self.tick(obs),
                None => r,
                Some(prev) => prev + 0.25 * (r - prev),
            });
        }
        self.tick(obs);
    }

    fn shape(&mut self, u: i64, nalloc: u32, thresholds: Thresholds) -> i64 {
        if u < thresholds.thmax {
            return u;
        }
        // An over-threshold signal would make the net allocate. While a
        // probe settles, or toward a size that already proved unhelpful,
        // the climber talks the net into Stable instead — the learned
        // analogue of the Eq. 1 guard's damping, which also lets the
        // control interval back off and the LONC streak show up in the
        // transition log.
        let stable = (thresholds.thmin + thresholds.thmax) / 2;
        if self.probe.is_some() {
            return stable;
        }
        if let Some(c) = self.ceiling {
            if nalloc + 1 >= c.at {
                return stable;
            }
        }
        u
    }

    fn grow_denied(&mut self, _core: CoreId) {
        // The growth never happened: there is nothing to judge, and a
        // lingering probe would damp the demand signal while it
        // "settles" on an allocation that was never grown.
        self.probe = None;
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Decision {
        let nalloc = ctx.mode.current.count() as u32;
        match ctx.action {
            AllocAction::Allocate => {
                if self.probe.is_some() {
                    // One probe at a time: judge the in-flight growth
                    // before stacking another.
                    return Decision::Hold;
                }
                if let Some(c) = self.ceiling {
                    if nalloc + 1 >= c.at {
                        // That size was tried and did not help.
                        return Decision::Hold;
                    }
                }
                match self.placer.next_core(&ctx.mode) {
                    Some(core) => {
                        let total: u64 = ctx.mode.pages_per_node.iter().sum();
                        let hottest = ctx
                            .mode
                            .pages_per_node
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &p)| p)
                            .map(|(n, _)| n);
                        let node = ctx.mode.topology.node_of(core).idx();
                        self.probe = Some(Probe {
                            from: nalloc,
                            base_rate: self.rate.unwrap_or(0.0),
                            local: total == 0 || hottest == Some(node),
                            steps: 0,
                            completions: 0,
                            elapsed: SimDuration::ZERO,
                        });
                        Decision::Grow(core)
                    }
                    None => Decision::Hold,
                }
            }
            AllocAction::Release => {
                // Demand dropped: the probe's question is moot.
                self.probe = None;
                self.placer
                    .release_core(&ctx.mode)
                    .map(Decision::Shrink)
                    .unwrap_or(Decision::Hold)
            }
            AllocAction::Hold => {
                let Some(probe) = self.probe else {
                    return Decision::Hold;
                };
                if !self.ripe(&probe) {
                    return Decision::Hold;
                }
                self.probe = None;
                if self.growth_helped(&probe) {
                    // Accept: the post-growth rate becomes the new base.
                    let secs = probe.elapsed.as_secs_f64();
                    if secs > 0.0 {
                        self.rate = Some(probe.completions as f64 / secs);
                    }
                    return Decision::Hold;
                }
                // Revert the growth that did not help and remember the
                // unhelpful size.
                if nalloc > probe.from && nalloc > 1 {
                    self.ceiling = Some(Ceiling { at: nalloc, age: 0 });
                    return self
                        .placer
                        .release_core(&ctx.mode)
                        .map(Decision::Shrink)
                        .unwrap_or(Decision::Hold);
                }
                Decision::Hold
            }
        }
    }
}

impl HillClimbPolicy {
    /// Per-step bookkeeping shared by every `observe` path.
    fn tick(&mut self, obs: &Observation<'_>) {
        if let Some(p) = self.probe.as_mut() {
            p.steps += 1;
            p.completions += obs.completions;
            p.elapsed += obs.interval;
        }
        if let Some(c) = self.ceiling.as_mut() {
            c.age += 1;
            if c.age > self.ceiling_ttl {
                // The workload may have shifted; allow re-probing.
                self.ceiling = None;
            }
        }
    }
}

/// SLA enforcement as a policy: wraps any inner policy and applies an
/// [`SlaGovernor`]'s rolling core cap — the governor's `observe` becomes
/// [`Policy::observe`] and its damping becomes a [`Policy::decide`]
/// override (growth at the cap is vetoed; an allocation above a freshly
/// lowered cap is shrunk). The inner policy still decides *where*.
///
/// ```
/// use elastic_core::{Policy, PolicyId, SlaCappedPolicy, SlaPolicy};
///
/// // Adaptive placement under a 4-core budget on a 16-core machine.
/// let capped = SlaCappedPolicy::new(
///     PolicyId::Adaptive.build(),
///     SlaPolicy::cores(4),
///     16,
///     4,
/// );
/// assert_eq!(capped.cap(), 4, "the core budget seeds the rolling cap");
/// assert_eq!(capped.violations(), 0);
/// ```
pub struct SlaCappedPolicy {
    inner: Box<dyn Policy>,
    governor: SlaGovernor,
}

impl SlaCappedPolicy {
    /// Caps `inner` with `policy` on a machine of `ntotal` cores
    /// (`cores_per_socket` wide).
    pub fn new(
        inner: Box<dyn Policy>,
        policy: SlaPolicy,
        ntotal: u32,
        cores_per_socket: u32,
    ) -> Self {
        SlaCappedPolicy {
            inner,
            governor: SlaGovernor::new(policy, ntotal, cores_per_socket),
        }
    }

    /// The governor's current core cap.
    pub fn cap(&self) -> u32 {
        self.governor.cap()
    }
}

impl Policy for SlaCappedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.inner.next_core(ctx)
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.inner.release_core(ctx)
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        let busy_cores = obs.sample.cpu_load_pct / 100.0 * obs.nalloc as f64;
        self.governor.observe(obs.ht_rate, busy_cores);
        self.inner.observe(obs);
    }

    fn shape(&mut self, u: i64, nalloc: u32, thresholds: Thresholds) -> i64 {
        // The governor's damping (§VII future work): growth at the cap
        // reads as Stable, an over-cap allocation as Idle (release).
        let u = self.governor.damp(u, nalloc, thresholds);
        self.inner.shape(u, nalloc, thresholds)
    }

    fn grow_denied(&mut self, core: CoreId) {
        self.inner.grow_denied(core);
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Decision {
        let nalloc = ctx.mode.current.count() as u32;
        let cap = self.governor.cap();
        if nalloc > cap {
            // The cap was just lowered below the allocation: shrink
            // regardless of the net's verdict.
            return self
                .inner
                .release_core(&ctx.mode)
                .map(Decision::Shrink)
                .unwrap_or(Decision::Hold);
        }
        if ctx.action == AllocAction::Allocate && nalloc >= cap {
            return Decision::Hold;
        }
        self.inner.decide(ctx)
    }

    fn violations(&self) -> u64 {
        self.governor.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emca_metrics::SimTime;
    use numa_sim::Topology;
    use os_sim::CoreMask;

    fn sample() -> MonitorSample {
        MonitorSample {
            at: SimTime::ZERO,
            u: 50,
            cpu_load_pct: 50.0,
            ht_imc_ratio: 0.0,
            pages_per_node: vec![0; 4],
            mc_util_per_node: vec![0.0; 4],
            mc_pressure: 0.0,
        }
    }

    fn obs(sample: &MonitorSample, completions: u64, ms: u64, nalloc: u32) -> Observation<'_> {
        Observation {
            sample,
            completions,
            interval: SimDuration::from_millis(ms),
            nalloc,
            ht_rate: 0.0,
            queue_depth: 0,
        }
    }

    fn ctx_with<'a>(
        topo: &'a Topology,
        current: CoreMask,
        pages: &'a [u64],
        action: AllocAction,
    ) -> PolicyCtx<'a> {
        PolicyCtx {
            mode: ModeCtx {
                topology: topo,
                current,
                barred: CoreMask::EMPTY,
                pages_per_node: pages,
                mc_util_per_node: &[],
            },
            action,
        }
    }

    #[test]
    fn policy_id_round_trips_all_names() {
        for id in PolicyId::ALL {
            assert_eq!(PolicyId::try_from(id.name()), Ok(id));
            assert_eq!(policy_by_name(id.name()).unwrap().name(), id.name());
        }
    }

    #[test]
    fn unknown_policy_is_an_error_listing_valid_names() {
        let err = PolicyId::try_from("magic").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("magic"), "{msg}");
        for id in PolicyId::ALL {
            assert!(msg.contains(id.name()), "{msg} must list {}", id.name());
        }
        assert!(policy_by_name("magic").is_err());
    }

    #[test]
    fn plain_modes_follow_the_net() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let mut p: Box<dyn Policy> = PolicyId::Dense.build();
        let d = p.decide(&ctx_with(
            &topo,
            CoreMask::single(CoreId(0)),
            &pages,
            AllocAction::Allocate,
        ));
        assert_eq!(d, Decision::Grow(CoreId(1)));
        let d = p.decide(&ctx_with(
            &topo,
            CoreMask::from_cores([CoreId(0), CoreId(1)]),
            &pages,
            AllocAction::Release,
        ));
        assert_eq!(d, Decision::Shrink(CoreId(1)));
        let d = p.decide(&ctx_with(
            &topo,
            CoreMask::single(CoreId(0)),
            &pages,
            AllocAction::Hold,
        ));
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn saturated_allocate_holds() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let mut p: Box<dyn Policy> = PolicyId::Sparse.build();
        let all = CoreMask::all(&topo);
        let d = p.decide(&ctx_with(&topo, all, &pages, AllocAction::Allocate));
        assert_eq!(d, Decision::Hold);
    }

    /// Drives a hill climber through: grow, settle with the given
    /// post-growth completion pattern, then a Hold verdict to judge.
    fn probe_cycle(hc: &mut HillClimbPolicy, post_rate_per_100ms: u64) -> Decision {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let s = sample();
        // Establish a base rate of 100 q/s over a few steps.
        for _ in 0..4 {
            hc.observe(&obs(&s, 10, 100, 2));
        }
        let two = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Allocate));
        let Decision::Grow(core) = d else {
            panic!("expected growth, got {d:?}");
        };
        let mut three = two;
        three.insert(core);
        // Settle long enough to be ripe (expected completions covered).
        for _ in 0..8 {
            hc.observe(&obs(&s, post_rate_per_100ms, 100, 3));
        }
        hc.decide(&ctx_with(&topo, three, &pages, AllocAction::Hold))
    }

    #[test]
    fn hillclimb_keeps_growth_that_helped() {
        let mut hc = HillClimbPolicy::default();
        // 15 completions per 100 ms > base 10: clear improvement.
        let d = probe_cycle(&mut hc, 15);
        assert_eq!(d, Decision::Hold, "improving growth must be kept");
        assert!(hc.ceiling.is_none());
        // Rate was re-based to the probe window's measurement.
        assert!(hc.rate.unwrap() > 120.0);
    }

    #[test]
    fn hillclimb_keeps_throughput_neutral_growth() {
        // Flat rate: the load signal demanded the core and throughput
        // carries no evidence against it — kept (see `growth_helped`).
        let mut hc = HillClimbPolicy::default();
        let d = probe_cycle(&mut hc, 10);
        assert_eq!(d, Decision::Hold, "neutral growth must be kept");
        assert!(hc.ceiling.is_none());
    }

    #[test]
    fn hillclimb_reverts_flat_remote_growth() {
        // Data lives on node 0, node 0 is full, the next adaptive core
        // is remote; a flat probe there is pure scatter risk → revert.
        let topo = Topology::opteron_4x4();
        let pages = [100u64, 0, 0, 0];
        let s = sample();
        let mut hc = HillClimbPolicy::default();
        for _ in 0..4 {
            hc.observe(&obs(&s, 10, 100, 4));
        }
        let node0 = CoreMask::from_cores([CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        let d = hc.decide(&ctx_with(&topo, node0, &pages, AllocAction::Allocate));
        let Decision::Grow(core) = d else {
            panic!("expected growth, got {d:?}");
        };
        assert_ne!(topo.node_of(core), numa_sim::NodeId(0), "node 0 is full");
        let mut five = node0;
        five.insert(core);
        for _ in 0..8 {
            hc.observe(&obs(&s, 10, 100, 5)); // flat rate
        }
        let d = hc.decide(&ctx_with(&topo, five, &pages, AllocAction::Hold));
        assert!(
            matches!(d, Decision::Shrink(_)),
            "flat remote growth must revert, got {d:?}"
        );
        assert_eq!(hc.ceiling.expect("ceiling recorded").at, 5);
    }

    #[test]
    fn hillclimb_reverts_growth_that_hurt() {
        let mut hc = HillClimbPolicy::default();
        // 7 completions per 100 ms < base 10: the growth scattered the
        // workload and throughput dropped.
        let d = probe_cycle(&mut hc, 7);
        assert!(
            matches!(d, Decision::Shrink(_)),
            "harmful growth must revert, got {d:?}"
        );
        let c = hc.ceiling.expect("revert records a ceiling");
        assert_eq!(c.at, 3);
    }

    #[test]
    fn ceiling_blocks_regrowth_until_it_ages_out() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let s = sample();
        let mut hc = HillClimbPolicy::default();
        let _ = probe_cycle(&mut hc, 7); // revert -> ceiling at 3
        let two = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Allocate));
        assert_eq!(d, Decision::Hold, "ceiling must block regrowth");
        // Age the ceiling out.
        for _ in 0..=hc.ceiling_ttl {
            hc.observe(&obs(&s, 10, 100, 2));
        }
        assert!(hc.ceiling.is_none(), "ceiling must expire");
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Allocate));
        assert!(matches!(d, Decision::Grow(_)), "expired ceiling re-probes");
    }

    #[test]
    fn hillclimb_cold_start_growth_is_trusted() {
        // No completions at all (queries longer than the window): the
        // climber must not fight the ramp-up.
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let s = sample();
        let mut hc = HillClimbPolicy::default();
        let one = CoreMask::single(CoreId(0));
        let d = hc.decide(&ctx_with(&topo, one, &pages, AllocAction::Allocate));
        let Decision::Grow(core) = d else {
            panic!("cold start must grow");
        };
        let mut two = one;
        two.insert(core);
        for _ in 0..hc.max_probe_steps {
            hc.observe(&obs(&s, 0, 1, 2));
        }
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Hold));
        assert_eq!(d, Decision::Hold, "no-signal probe must not revert");
        assert!(hc.ceiling.is_none());
    }

    #[test]
    fn release_cancels_probe() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let mut hc = HillClimbPolicy::default();
        let two = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Allocate));
        assert!(matches!(d, Decision::Grow(_)));
        assert!(hc.probe.is_some());
        let d = hc.decide(&ctx_with(&topo, two, &pages, AllocAction::Release));
        assert!(matches!(d, Decision::Shrink(_)));
        assert!(hc.probe.is_none(), "release voids the probe");
    }

    #[test]
    fn sla_capped_policy_vetoes_growth_at_cap() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let mut p = SlaCappedPolicy::new(PolicyId::Dense.build(), SlaPolicy::cores(2), 16, 4);
        assert_eq!(p.cap(), 2);
        assert_eq!(p.name(), "dense");
        let two = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let d = p.decide(&ctx_with(&topo, two, &pages, AllocAction::Allocate));
        assert_eq!(d, Decision::Hold, "growth at the cap is vetoed");
        let one = CoreMask::single(CoreId(0));
        let d = p.decide(&ctx_with(&topo, one, &pages, AllocAction::Allocate));
        assert_eq!(d, Decision::Grow(CoreId(1)), "below the cap it follows");
    }

    #[test]
    fn sla_capped_policy_sheds_above_a_lowered_cap() {
        let topo = Topology::opteron_4x4();
        let pages = [0u64; 4];
        let s = sample();
        let budget = SlaPolicy {
            max_ht_rate: Some(1e6),
            ..SlaPolicy::unconstrained()
        };
        let mut p = SlaCappedPolicy::new(PolicyId::Dense.build(), budget, 16, 4);
        // Violating traffic lowers the cap below the allocation.
        for _ in 0..15 {
            p.observe(&Observation {
                sample: &s,
                completions: 0,
                interval: SimDuration::from_millis(50),
                nalloc: 4,
                ht_rate: 1e9,
                queue_depth: 0,
            });
        }
        assert_eq!(p.cap(), 1);
        assert!(p.violations() >= 15);
        let four = CoreMask::from_cores([CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        let d = p.decide(&ctx_with(&topo, four, &pages, AllocAction::Hold));
        assert!(
            matches!(d, Decision::Shrink(_)),
            "over-cap allocation must shed even on Hold, got {d:?}"
        );
    }
}
