//! Experiment configurations.

use crate::backend::Backend;
use elastic_core::{MetricKind, Policy, PolicyId};
use emca_metrics::SimDuration;
use std::sync::Arc;
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::exec::FaultPlan;
use volcano_db::tpch::TpchScale;

/// Core-allocation policy of a run: the paper's four configurations
/// plus the throughput hill climber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alloc {
    /// No mechanism: all cores handed to the OS (the baseline).
    OsAll,
    /// Mechanism with the dense mode.
    Dense,
    /// Mechanism with the sparse mode.
    Sparse,
    /// Mechanism with the adaptive priority mode.
    Adaptive,
    /// Mechanism with the hill-climbing LONC policy (adaptive placement
    /// plus throughput-feedback growth/revert).
    HillClimb,
}

impl Alloc {
    /// Display name matching the paper's figure legends.
    pub fn label(&self, flavor: Flavor) -> String {
        let engine = match flavor {
            Flavor::MonetDb => "MonetDB",
            Flavor::SqlServer => "SQL Server",
        };
        match self {
            Alloc::OsAll => format!("OS/{engine}"),
            Alloc::Dense => "Dense".to_string(),
            Alloc::Sparse => "Sparse".to_string(),
            Alloc::Adaptive => "Adaptive".to_string(),
            Alloc::HillClimb => "HillClimb".to_string(),
        }
    }

    /// The mechanism policy, if this allocation uses the mechanism.
    pub fn policy_id(&self) -> Option<PolicyId> {
        match self {
            Alloc::OsAll => None,
            Alloc::Dense => Some(PolicyId::Dense),
            Alloc::Sparse => Some(PolicyId::Sparse),
            Alloc::Adaptive => Some(PolicyId::Adaptive),
            Alloc::HillClimb => Some(PolicyId::HillClimb),
        }
    }

    /// Mechanism policy name, if this allocation uses the mechanism.
    pub fn mode_name(&self) -> Option<&'static str> {
        self.policy_id().map(PolicyId::name)
    }

    /// The four policies in figure order (the paper's grid; the hill
    /// climber replaces the adaptive slot via
    /// [`crate::spec::ExperimentSpec::alloc_sweep`] instead of widening
    /// every figure).
    pub fn all() -> [Alloc; 4] {
        [Alloc::OsAll, Alloc::Dense, Alloc::Sparse, Alloc::Adaptive]
    }
}

impl From<PolicyId> for Alloc {
    fn from(p: PolicyId) -> Self {
        match p {
            PolicyId::Dense => Alloc::Dense,
            PolicyId::Sparse => Alloc::Sparse,
            PolicyId::Adaptive => Alloc::Adaptive,
            PolicyId::HillClimb => Alloc::HillClimb,
        }
    }
}

/// A cloneable factory for user-defined [`Policy`] implementations, so
/// a [`RunConfig`] (which is `Clone`) can carry a custom policy through
/// the standard runner (`examples/custom_policy.rs`).
#[derive(Clone)]
pub struct PolicyFactory {
    name: &'static str,
    make: Arc<dyn Fn() -> Box<dyn Policy> + Send + Sync>,
}

impl PolicyFactory {
    /// Wraps a constructor for a custom policy.
    pub fn new(
        name: &'static str,
        make: impl Fn() -> Box<dyn Policy> + Send + Sync + 'static,
    ) -> Self {
        PolicyFactory {
            name,
            make: Arc::new(make),
        }
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds a fresh policy instance.
    pub fn build(&self) -> Box<dyn Policy> {
        (self.make)()
    }
}

impl std::fmt::Debug for PolicyFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyFactory")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Base-data placement before the measured run starts (§II-A / Fig. 18).
///
/// The paper measures a warm, long-running server; how its base pages
/// were homed decides which flavor starts with a locality advantage, so
/// the policy is explicit and applied identically to every flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Warmup {
    /// A single-threaded loader first-touches every base segment from
    /// core 0: all base data homed on node 0 (the paper's MonetDB server,
    /// Fig. 18(a)).
    #[default]
    Loader,
    /// Base segments homed round-robin across all NUMA nodes (a
    /// `numactl --interleave` server): neutral placement that hands no
    /// flavor a head start.
    Interleave,
    /// Cold start: pages are homed by whichever worker first scans them
    /// (mmap-style lazy loading, the cold-start ablation).
    None,
}

/// Full description of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Engine flavor.
    pub flavor: Flavor,
    /// Allocation policy.
    pub alloc: Alloc,
    /// Mechanism metric (ignored for [`Alloc::OsAll`]).
    pub metric: MetricKind,
    /// Number of concurrent clients.
    pub clients: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Database scale.
    pub scale: TpchScale,
    /// Safety cap on simulated time.
    pub deadline: SimDuration,
    /// Time-series sampling interval.
    pub sample_every: SimDuration,
    /// Record scheduler spans (Figs. 5/16) — expensive, off by default.
    pub trace_sched: bool,
    /// Override of the mechanism control interval (`None` = service-time
    /// scaled, see [`crate::runner::run`]). Setting this pins the
    /// interval, disabling the adaptive scaling.
    pub mech_interval: Option<SimDuration>,
    /// Override of the Eq. 1 memory-saturation guard threshold
    /// (`None` = mechanism default; `Some(None)` = guard disabled).
    pub mech_guard: Option<Option<f64>>,
    /// Base-data placement policy (identical for every flavor).
    pub warmup: Warmup,
    /// User-defined mechanism policy; when set it replaces the policy
    /// [`RunConfig::alloc`] names (the alloc still provides the label
    /// and must not be [`Alloc::OsAll`]).
    pub custom_policy: Option<PolicyFactory>,
    /// Execution backend (simulated workers vs real OS threads).
    pub backend: Backend,
    /// Deterministic fault-injection plan (the `faults=` spec field).
    /// `None` — the default — leaves the fault plane fully inert: no
    /// injection site is consulted and results are byte-identical to
    /// the pre-fault-plane runner.
    pub faults: Option<FaultPlan>,
}

impl RunConfig {
    /// A sensible default for microbenchmark-style runs.
    pub fn new(alloc: Alloc, clients: usize, workload: Workload) -> Self {
        RunConfig {
            flavor: Flavor::MonetDb,
            alloc,
            metric: MetricKind::CpuLoad,
            clients,
            workload,
            scale: TpchScale::harness_default(),
            deadline: SimDuration::from_secs(600),
            sample_every: SimDuration::from_millis(100),
            trace_sched: false,
            mech_interval: None,
            mech_guard: None,
            warmup: Warmup::default(),
            custom_policy: None,
            backend: Backend::default(),
            faults: None,
        }
    }

    /// Disables the warm-up pass (cold-start experiments).
    pub fn without_warmup(mut self) -> Self {
        self.warmup = Warmup::None;
        self
    }

    /// Sets the base-data placement policy.
    pub fn with_warmup(mut self, warmup: Warmup) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the Eq. 1 saturation-guard threshold (`None` disables
    /// the guard).
    pub fn with_guard(mut self, guard: Option<f64>) -> Self {
        self.mech_guard = Some(guard);
        self
    }

    /// Overrides the mechanism control interval (fast-reacting runs and
    /// small-scale tests).
    pub fn with_mech_interval(mut self, interval: SimDuration) -> Self {
        self.mech_interval = Some(interval);
        self
    }

    /// Switches the engine flavor.
    pub fn with_flavor(mut self, flavor: Flavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Switches the mechanism metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }

    /// Switches the database scale.
    pub fn with_scale(mut self, scale: TpchScale) -> Self {
        self.scale = scale;
        self
    }

    /// Enables scheduler span tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace_sched = true;
        self
    }

    /// Switches the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Arms a deterministic fault-injection plan. Empty plans are kept
    /// as `None` so the fault plane stays inert.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Runs the mechanism with a user-defined policy instead of one of
    /// the built-ins (the alloc is forced off the OS baseline so the
    /// mechanism installs).
    pub fn with_custom_policy(mut self, factory: PolicyFactory) -> Self {
        if self.alloc == Alloc::OsAll {
            self.alloc = Alloc::Adaptive;
        }
        self.custom_policy = Some(factory);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_db::tpch::QuerySpec;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Alloc::OsAll.label(Flavor::MonetDb), "OS/MonetDB");
        assert_eq!(Alloc::OsAll.label(Flavor::SqlServer), "OS/SQL Server");
        assert_eq!(Alloc::Adaptive.label(Flavor::MonetDb), "Adaptive");
    }

    #[test]
    fn mode_names() {
        assert_eq!(Alloc::OsAll.mode_name(), None);
        assert_eq!(Alloc::Dense.mode_name(), Some("dense"));
        assert_eq!(Alloc::HillClimb.mode_name(), Some("hillclimb"));
        assert_eq!(Alloc::HillClimb.label(Flavor::MonetDb), "HillClimb");
        assert_eq!(Alloc::all().len(), 4, "figure sweeps stay the paper's four");
    }

    #[test]
    fn alloc_maps_policy_ids_both_ways() {
        for id in elastic_core::PolicyId::ALL {
            assert_eq!(Alloc::from(id).policy_id(), Some(id));
        }
        assert_eq!(Alloc::OsAll.policy_id(), None);
    }

    #[test]
    fn custom_policy_forces_mechanism_alloc() {
        let factory = PolicyFactory::new("noop", || elastic_core::PolicyId::Dense.build());
        assert_eq!(factory.name(), "noop");
        assert_eq!(factory.build().name(), "dense");
        let cfg = RunConfig::new(
            Alloc::OsAll,
            1,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 1,
            },
        )
        .with_custom_policy(factory);
        assert_ne!(cfg.alloc, Alloc::OsAll, "mechanism must install");
        assert!(cfg.custom_policy.is_some());
    }

    #[test]
    fn builder_chains() {
        let cfg = RunConfig::new(
            Alloc::Adaptive,
            4,
            Workload::Repeat {
                spec: QuerySpec::Q6 { variant: 0 },
                iterations: 1,
            },
        )
        .with_flavor(Flavor::SqlServer)
        .with_metric(MetricKind::HtImcRatio)
        .with_trace();
        assert_eq!(cfg.flavor, Flavor::SqlServer);
        assert_eq!(cfg.metric, MetricKind::HtImcRatio);
        assert!(cfg.trace_sched);
    }
}
