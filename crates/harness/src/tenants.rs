//! Multi-tenant experiments: N DBMS tenants — each with its own engine,
//! cpuset group, workload and elastic mechanism — co-located on one
//! machine, arbitrated by a shared
//! [`TenantArbiter`](elastic_core::TenantArbiter). This module holds
//! the configuration and the per-tenant output; the lifecycle that runs
//! them (resident or churned) is one loop over both backends, in
//! [`crate::churn`].
//! A single-instance [`run`](crate::run) is that lifecycle's one-tenant
//! case: each tenant is a [`RunConfig`] (the run's
//! [`MultiTenantConfig::base`] with the tenant's allocation, clients and
//! workload), and the output records everything a
//! [`RunOutput`](crate::RunOutput) reports.
//!
//! This is the harness half of the ROADMAP's *SAM* / *OLTP on Hardware
//! Islands* direction: every tenant runs the paper's control loop
//! unmodified, but placement skips cores other tenants own, growth is
//! arbitrated ([`ArbiterMode`]), and each tenant may carry its own
//! [`SlaPolicy`] budgets through an [`SlaCappedPolicy`] wrap. The
//! output keeps per-tenant series so interference, fairness and reclaim
//! latency are measurable (the `mt_*` scenarios in `emca-bench`).

use crate::backend::Backend;
use crate::config::{Alloc, RunConfig};
use elastic_core::{ArbiterMode, Policy, PolicyId, SlaCappedPolicy, SlaPolicy, TransitionEvent};
use emca_metrics::{SimDuration, SimTime, TimeSeries};
use numa_sim::HwSnapshot;
use os_sim::{SchedStats, SchedTrace};
use volcano_db::client::Workload;
use volcano_db::exec::engine::{EngineStats, Flavor, QueryResult};
use volcano_db::exec::tomograph::Tomograph;
use volcano_db::exec::FaultPlan;
use volcano_db::tpch::TpchData;

/// One tenant's slice of a multi-tenant run.
#[derive(Clone, Debug)]
pub struct TenantRunConfig {
    /// Display name (also the arbiter registration name).
    pub name: String,
    /// The workload every client of this tenant runs.
    pub workload: Workload,
    /// Concurrent clients.
    pub clients: usize,
    /// The tenant's allocation: its mechanism's placement policy, or
    /// [`Alloc::OsAll`] for no mechanism (the whole machine on sim, a
    /// worker per client on threads).
    pub policy: Alloc,
    /// SLA budgets; [`SlaPolicy::unconstrained`] runs the bare policy.
    pub sla: SlaPolicy,
    /// Fair-share weight / priority rank for the arbiter.
    pub weight: u32,
    /// Simulated delay before this tenant's clients arrive (burst
    /// scenarios). A resident tenant's engine and mechanism are
    /// installed at start regardless; under churn this is the arrival
    /// time the whole tenant is admitted at.
    pub start_after: SimDuration,
}

impl TenantRunConfig {
    /// An unconstrained tenant with weight 1 starting immediately.
    pub fn new(name: impl Into<String>, workload: Workload, clients: usize) -> Self {
        TenantRunConfig {
            name: name.into(),
            workload,
            clients,
            policy: Alloc::Adaptive,
            sla: SlaPolicy::unconstrained(),
            weight: 1,
            start_after: SimDuration::ZERO,
        }
    }

    /// Sets the placement policy.
    pub fn with_policy(mut self, policy: PolicyId) -> Self {
        self.policy = policy.into();
        self
    }

    /// Attaches SLA budgets (enforced by an [`SlaCappedPolicy`] wrap).
    pub fn with_sla(mut self, sla: SlaPolicy) -> Self {
        self.sla = sla;
        self
    }

    /// Sets the arbiter weight / priority rank.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Delays this tenant's client arrival.
    pub fn with_start_after(mut self, delay: SimDuration) -> Self {
        self.start_after = delay;
        self
    }

    fn constrained(&self) -> bool {
        self.sla.max_power_w.is_some()
            || self.sla.max_ht_rate.is_some()
            || self.sla.max_cores.is_some()
    }
}

/// Full description of one multi-tenant run.
#[derive(Clone, Debug)]
pub struct MultiTenantConfig {
    /// What every tenant's instance is built from: `flavor`, `scale`,
    /// `deadline`, `sample_every`, `mech_interval`, `mech_guard`,
    /// `metric`, `warmup`, `custom_policy`, `trace_sched`, `backend` and
    /// `faults` apply to the run as a whole (each tenant loads its own
    /// copy of the data; the fault plan is armed on every engine);
    /// `alloc`, `clients` and `workload` are each tenant's own.
    pub base: RunConfig,
    /// How the arbiter resolves contention.
    pub arbiter: ArbiterMode,
    /// The tenants.
    pub tenants: Vec<TenantRunConfig>,
    /// How long the simulation keeps ticking after the last client
    /// finishes. The mechanisms keep polling during the drain, so
    /// post-completion core release (reclaim latency) stays observable
    /// even for the tenant that finishes last.
    pub drain: SimDuration,
    /// Serverless churn: cap on *simultaneously resident* tenants.
    /// `Some(_)` switches the lifecycle to churn — tenants are admitted
    /// at their `start_after` arrival (queueing when the machine is
    /// full), installed cold (data load + first allocation at admit
    /// time), and depart when their clients finish (cores reclaimed and
    /// redistributed). `None` installs every tenant up front and keeps
    /// it resident to the end of the drain (the classic `mt_*` shape).
    pub resident_cap: Option<usize>,
    /// Static-partitioner baseline (implies the churn lifecycle): each
    /// resident slot owns a fixed slice of the machine and no elastic
    /// mechanism runs — the strawman the adaptive arbiter is gated
    /// against.
    pub static_partition: bool,
}

impl MultiTenantConfig {
    /// A config over the given tenants with runner defaults.
    pub fn new(arbiter: ArbiterMode, tenants: Vec<TenantRunConfig>) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let first = &tenants[0];
        MultiTenantConfig {
            base: RunConfig::new(first.policy, first.clients, first.workload.clone()),
            arbiter,
            tenants,
            drain: SimDuration::ZERO,
            resident_cap: None,
            static_partition: false,
        }
    }

    /// Caps simultaneously resident tenants, switching to the churn
    /// lifecycle (admit on arrival, depart on completion).
    pub fn with_resident_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "resident cap must admit at least one tenant");
        self.resident_cap = Some(cap);
        self
    }

    /// Runs the static-partitioner baseline instead of elastic
    /// arbitration.
    pub fn with_static_partition(mut self) -> Self {
        self.static_partition = true;
        self
    }

    /// Changes the metric sampling interval (default 100 ms). Churn
    /// scenarios sample finer: short-lived tenants would otherwise
    /// depart before their first cores/load/qps sample.
    pub fn with_sample_every(mut self, every: SimDuration) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "sample interval must be positive"
        );
        self.base.sample_every = every;
        self
    }

    /// Keeps the simulation ticking for `drain` after the last client
    /// finishes (reclaim-latency measurements).
    pub fn with_drain(mut self, drain: SimDuration) -> Self {
        self.drain = drain;
        self
    }

    /// Switches the database scale.
    pub fn with_scale(mut self, scale: volcano_db::tpch::TpchScale) -> Self {
        self.base = self.base.with_scale(scale);
        self
    }

    /// Pins the mechanism control interval.
    pub fn with_mech_interval(mut self, interval: SimDuration) -> Self {
        self.base = self.base.with_mech_interval(interval);
        self
    }

    /// Switches the engine flavor.
    pub fn with_flavor(mut self, flavor: Flavor) -> Self {
        self.base = self.base.with_flavor(flavor);
        self
    }

    /// Switches the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.base = self.base.with_backend(backend);
        self
    }

    /// Arms a deterministic fault-injection plan on every tenant's
    /// engine. Empty plans are kept as `None` so the fault plane stays
    /// inert.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.base = self.base.with_faults(plan);
        self
    }

    /// The one-tenant case every single-instance run is: `base` as one
    /// resident FairShare tenant of weight 1 with no SLA, running `base`'s
    /// allocation and workload on `clients` clients.
    pub(crate) fn lone(name: &str, base: &RunConfig, clients: usize) -> Self {
        let tenant = TenantRunConfig {
            policy: base.alloc,
            ..TenantRunConfig::new(name, base.workload.clone(), clients)
        };
        MultiTenantConfig {
            base: base.clone(),
            ..MultiTenantConfig::new(ArbiterMode::FairShare, vec![tenant])
        }
    }

    /// One tenant's slice of this run: [`MultiTenantConfig::base`] with
    /// the tenant's allocation, clients and workload.
    pub(crate) fn instance(&self, tenant: &TenantRunConfig) -> RunConfig {
        RunConfig {
            alloc: tenant.policy,
            clients: tenant.clients,
            workload: tenant.workload.clone(),
            ..self.base.clone()
        }
    }
}

/// Everything measured for one tenant.
pub struct TenantOutput {
    /// The tenant's configuration.
    pub config: TenantRunConfig,
    /// Every completed query of this tenant.
    pub results: Vec<QueryResult>,
    /// Allocated cores over time.
    pub cores_series: TimeSeries,
    /// DBMS-group CPU load (%).
    pub load_series: TimeSeries,
    /// Completions per second per sample window.
    pub qps_series: TimeSeries,
    /// When the tenant's clients arrived.
    pub started_at: SimTime,
    /// When the tenant's last client finished.
    pub finished_at: SimTime,
    /// SLA budget violations observed by the tenant's governor.
    pub sla_violations: u64,
    /// Mechanism control steps executed.
    pub control_steps: u64,
    /// The tenant's engine counters, taken when it retired.
    pub engine: EngineStats,
    /// The tenant's mechanism transition log (empty without one).
    pub transitions: Vec<TransitionEvent>,
    /// The tenant's per-operator statistics.
    pub tomograph: Tomograph,
}

impl TenantOutput {
    /// Wall time from client arrival to the last completion.
    pub fn wall(&self) -> SimDuration {
        self.finished_at.since(self.started_at)
    }

    /// Queries per second over the tenant's active window.
    pub fn throughput_qps(&self) -> f64 {
        let wall = self.wall();
        if wall.is_zero() {
            0.0
        } else {
            self.results.len() as f64 / wall.as_secs_f64()
        }
    }

    /// Mean response time across the tenant's queries.
    pub fn mean_response(&self) -> SimDuration {
        self.mean_response_between(SimTime::ZERO, SimTime::MAX)
    }

    /// Mean response time over completions inside `[from, to]` (zero
    /// when none fall in the window).
    pub fn mean_response_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        let mut n = 0u64;
        let total: SimDuration = self
            .results
            .iter()
            .filter(|r| r.finished >= from && r.finished <= to)
            .map(|r| {
                n += 1;
                r.response()
            })
            .sum();
        if n == 0 {
            SimDuration::ZERO
        } else {
            total / n
        }
    }

    /// Response-time percentile over completions inside `[from, to]`.
    /// `percentile` orders with `f64::total_cmp` internally, so no
    /// pre-sort (and no ad-hoc NaN comparator) is needed here.
    pub fn response_percentile_between(&self, q: f64, from: SimTime, to: SimTime) -> SimDuration {
        let secs: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.finished >= from && r.finished <= to)
            .map(|r| r.response().as_secs_f64())
            .collect();
        match emca_metrics::stats::percentile(&secs, q) {
            Some(s) => SimDuration::from_secs_f64(s),
            None => SimDuration::ZERO,
        }
    }

    /// Response-time percentile (e.g. `0.95`).
    pub fn response_percentile(&self, q: f64) -> SimDuration {
        self.response_percentile_between(q, SimTime::ZERO, SimTime::MAX)
    }

    /// Mean allocated cores over the tenant's active window.
    pub fn cores_mean(&self) -> f64 {
        self.cores_between(self.started_at, self.finished_at)
            .unwrap_or(0.0)
    }

    /// Maximum allocated cores over the whole run.
    pub fn cores_max(&self) -> f64 {
        self.cores_series.max().unwrap_or(0.0)
    }

    /// Mean of the cores series restricted to `[from, to]`.
    pub fn cores_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .cores_series
            .samples()
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|&(_, v)| v)
            .collect();
        emca_metrics::stats::mean(&vals)
    }

    /// Coefficient of variation (σ/μ) of the per-window completion rate
    /// over `[from, to]` — the throughput-stability measure of the
    /// `mt_*` scenarios (0 = perfectly steady). `None` when fewer than
    /// two windows fall in range or the mean rate is zero.
    pub fn qps_cov_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        // Non-finite samples are dropped rather than poisoning the
        // mean/stddev into a NaN "stability" figure (same policy as
        // `stats::percentile` rejecting NaN input).
        let vals: Vec<f64> = self
            .qps_series
            .samples()
            .iter()
            .filter(|(t, v)| *t >= from && *t <= to && v.is_finite())
            .map(|&(_, v)| v)
            .collect();
        if vals.len() < 2 {
            return None;
        }
        let mean = emca_metrics::stats::mean(&vals)?;
        if mean <= 0.0 {
            return None;
        }
        Some(emca_metrics::stats::stddev(&vals)? / mean)
    }

    /// Throughput (completions/s) restricted to `[from, to]`, counted
    /// from the per-query completion stamps.
    pub fn qps_between(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let n = self
            .results
            .iter()
            .filter(|r| r.finished >= from && r.finished <= to)
            .count();
        n as f64 / span
    }
}

/// The combined outcome of a multi-tenant run.
pub struct MultiTenantOutput {
    /// Per-tenant measurements, in configuration order.
    pub tenants: Vec<TenantOutput>,
    /// Simulated time from start to the last tenant finishing.
    pub wall: SimDuration,
    /// Total cores of the simulated machine (what the arbiter split).
    pub ntotal: u32,
    /// Arbiter growth denials over the run.
    pub arbiter_denials: u64,
    /// Arbiter forced yields (cores actually shed toward a starved
    /// peer) over the run.
    pub arbiter_yields: u64,
    /// Control ticks executed by the tenants' mechanisms, each timed on
    /// the host clock (zero on the static-partition baseline).
    pub arbiter_ticks: u64,
    /// Total host-clock nanoseconds spent inside measured control
    /// ticks — `arbiter_ns / arbiter_ticks` is the mean decision cost
    /// the `mt_churn` gate holds below the control interval.
    pub arbiter_ns: u64,
    /// Query failures surfaced by the engines, `"<tenant>: <error>"`
    /// (on threads the error reads `"client <n>: <error>"`). Empty on
    /// fault-free runs — a failed query never silently aliases an
    /// unfinished one.
    pub errors: Vec<String>,
    /// Hardware counters after the t=0 admission pass (zero on threads,
    /// which read no hardware counters).
    pub hw_before: HwSnapshot,
    /// Hardware counters at the end of the run.
    pub hw_after: HwSnapshot,
    /// Scheduler statistics of the shared kernel (default on threads).
    pub sched: SchedStats,
    /// Machine-wide memory throughput (GB/s), one series per socket,
    /// sampled with the per-tenant series (empty on threads).
    pub imc_series: Vec<TimeSeries>,
    /// Machine-wide HT traffic (GB/s; empty on threads).
    pub ht_series: TimeSeries,
    /// Scheduler spans when [`RunConfig::trace_sched`] is set: the
    /// simulated kernel's trace, or on threads the host CPUs the pool
    /// workers were seen on.
    pub trace: Option<SchedTrace>,
}

impl MultiTenantOutput {
    /// Looks a tenant up by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantOutput> {
        self.tenants.iter().find(|t| t.config.name == name)
    }
}

impl TenantRunConfig {
    /// Wraps `placement` in this tenant's SLA governor when it carries
    /// any budget (the bare policy otherwise); the governor counts its
    /// violations ([`Policy::violations`]).
    pub(crate) fn governed(
        &self,
        placement: Box<dyn Policy>,
        topology: &numa_sim::Topology,
    ) -> Box<dyn Policy> {
        if !self.constrained() {
            return placement;
        }
        let ntotal = topology.n_cores() as u32;
        let cores_per_socket = (ntotal / topology.n_nodes() as u32).max(1);
        Box::new(SlaCappedPolicy::new(
            placement,
            self.sla,
            ntotal,
            cores_per_socket,
        ))
    }
}

impl TenantOutput {
    /// The record of a tenant admitted at `started_at`: named empty
    /// series, nothing completed yet.
    pub(crate) fn begin(config: &TenantRunConfig, started_at: SimTime) -> Self {
        TenantOutput {
            config: config.clone(),
            results: Vec::new(),
            cores_series: TimeSeries::new("cores"),
            load_series: TimeSeries::new("cpu_load"),
            qps_series: TimeSeries::new("qps"),
            started_at,
            finished_at: started_at,
            sla_violations: 0,
            control_steps: 0,
            engine: EngineStats::default(),
            transitions: Vec::new(),
            tomograph: Tomograph::default(),
        }
    }
}

/// Runs a multi-tenant experiment on the configured backend. `data` is
/// shared across tenants and runs; each tenant loads its own copy into
/// its own address space (the *OLTP on Hardware Islands* co-location
/// shape: instances share the machine, not the buffer pool). Resident
/// and churned populations run the same lifecycle — see
/// [`crate::churn`].
pub fn run_tenants(config: MultiTenantConfig, data: &TpchData) -> MultiTenantOutput {
    crate::churn::run_tenants_churn(config, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_db::tpch::{QuerySpec, TpchScale};

    fn tiny_data() -> TpchData {
        TpchData::generate(TpchScale::test_tiny())
    }

    fn q6(iters: u32) -> Workload {
        Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: iters,
        }
    }

    #[test]
    fn an_os_baseline_tenant_runs_no_custom_mechanism() {
        // Every tenant's instance carries the base's custom policy; the
        // OS baseline must still run unmanaged, as on threads.
        use crate::config::PolicyFactory;
        let data = tiny_data();
        let os = TenantRunConfig {
            policy: Alloc::OsAll,
            ..TenantRunConfig::new("os", q6(2), 2)
        };
        let mut cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![TenantRunConfig::new("managed", q6(2), 2), os],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(1));
        let dense = PolicyFactory::new("dense", || PolicyId::Dense.build());
        cfg.base = cfg.base.with_custom_policy(dense);
        let out = run_tenants(cfg, &data);
        let os = out.tenant("os").unwrap();
        assert!(
            os.transitions.is_empty(),
            "the OS baseline has no mechanism"
        );
        assert_eq!(os.control_steps, 0);
        assert!(out.tenant("managed").unwrap().control_steps > 0);
    }

    #[test]
    fn two_tenants_run_to_completion_without_core_overlap() {
        let data = tiny_data();
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("a", q6(2), 2),
                TenantRunConfig::new("b", q6(2), 2),
            ],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(2));
        let out = run_tenants(cfg, &data);
        assert_eq!(out.tenants.len(), 2);
        for t in &out.tenants {
            assert_eq!(
                t.results.len(),
                4,
                "{} must finish its queries",
                t.config.name
            );
            assert!(t.throughput_qps() > 0.0);
            assert!(t.control_steps > 0, "mechanism must run");
        }
        assert!(out.tenant("a").is_some() && out.tenant("missing").is_none());
    }

    #[test]
    fn tenants_carry_their_engine_counters_and_transitions() {
        let data = tiny_data();
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("a", q6(2), 2),
                TenantRunConfig::new("b", q6(3), 2),
            ],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(2));
        let out = run_tenants(cfg, &data);
        let mut completed = 0;
        for t in &out.tenants {
            assert!(
                t.engine.tasks_executed > 0,
                "{} ran no tasks",
                t.config.name
            );
            assert!(
                !t.transitions.is_empty(),
                "{} logged no transitions",
                t.config.name
            );
            completed += t.engine.queries_completed;
        }
        let results: usize = out.tenants.iter().map(|t| t.results.len()).sum();
        assert_eq!(completed, results as u64, "engine counters match results");
        // The machine-wide records a single run reports.
        assert_eq!(out.imc_series.len(), 4, "one IMC series per socket");
        let hw = out.hw_after.since(&out.hw_before);
        assert!(hw.imc_bytes.iter().sum::<u64>() > 0);
        assert!(out.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn delayed_tenant_starts_late() {
        let data = tiny_data();
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("steady", q6(3), 2),
                TenantRunConfig::new("burst", q6(1), 2)
                    .with_start_after(SimDuration::from_millis(20)),
            ],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(2));
        let out = run_tenants(cfg, &data);
        let steady = out.tenant("steady").unwrap();
        let burst = out.tenant("burst").unwrap();
        assert!(
            burst.started_at.since(steady.started_at) >= SimDuration::from_millis(20),
            "burst tenant must arrive at least 20ms later"
        );
        assert_eq!(burst.results.len(), 2);
    }

    #[test]
    fn budget_capped_tenant_stays_under_its_core_cap() {
        let data = tiny_data();
        let cap = 2u32;
        let cfg = MultiTenantConfig::new(
            ArbiterMode::BudgetCapped,
            vec![
                TenantRunConfig::new("capped", q6(3), 4).with_sla(SlaPolicy::cores(cap)),
                TenantRunConfig::new("free", q6(3), 4),
            ],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(2));
        let out = run_tenants(cfg, &data);
        let capped = out.tenant("capped").unwrap();
        assert!(
            capped.cores_max() <= cap as f64,
            "capped tenant exceeded its budget: {} cores",
            capped.cores_max()
        );
    }

    /// A synthetic output with completions at 1s, 2s, 3s (responses
    /// 100ms each) and one cores/qps sample per second.
    fn synthetic_output(n_results: usize) -> TenantOutput {
        let mut cores_series = TimeSeries::new("t_cores");
        let mut qps_series = TimeSeries::new("t_qps");
        let results = (0..n_results)
            .map(|i| {
                let finished = SimTime::from_secs(i as u64 + 1);
                cores_series.push(finished, (i + 1) as f64);
                qps_series.push(finished, 1.0);
                QueryResult {
                    qid: volcano_db::exec::task::QueryId(i as u64),
                    label: "q06".to_string(),
                    spec_tag: 6,
                    submitted: finished - SimDuration::from_millis(100),
                    finished,
                    traffic: Default::default(),
                    busy: SimDuration::from_millis(50),
                    result: volcano_db::exec::Mat::Scalar(1.0),
                }
            })
            .collect();
        TenantOutput {
            config: TenantRunConfig::new("t", q6(1), 1),
            results,
            cores_series,
            load_series: TimeSeries::new("t_load"),
            qps_series,
            started_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(3),
            sla_violations: 0,
            control_steps: 0,
            engine: EngineStats::default(),
            transitions: Vec::new(),
            tomograph: Tomograph::default(),
        }
    }

    #[test]
    fn windowed_metrics_on_an_empty_window() {
        let t = synthetic_output(3);
        // A window past every completion holds nothing: means and
        // percentiles report zero, optional stats report None.
        let from = SimTime::from_secs(100);
        let to = SimTime::from_secs(200);
        assert_eq!(t.mean_response_between(from, to), SimDuration::ZERO);
        assert_eq!(
            t.response_percentile_between(0.95, from, to),
            SimDuration::ZERO
        );
        assert_eq!(t.qps_between(from, to), 0.0);
        assert_eq!(t.cores_between(from, to), None);
        assert_eq!(t.qps_cov_between(from, to), None);
    }

    #[test]
    fn windowed_metrics_on_a_zero_or_inverted_span() {
        let t = synthetic_output(3);
        let at = SimTime::from_secs(1);
        // Zero span: a completion sits exactly on the window edge, but a
        // rate over no time is reported as zero, not a division blow-up.
        assert_eq!(t.qps_between(at, at), 0.0);
        // Inverted span (to < from): empty, not negative.
        assert_eq!(t.qps_between(SimTime::from_secs(3), at), 0.0);
        assert_eq!(
            t.mean_response_between(SimTime::from_secs(3), at),
            SimDuration::ZERO
        );
    }

    #[test]
    fn windowed_metrics_on_a_single_sample() {
        let t = synthetic_output(1);
        let from = SimTime::ZERO;
        let to = SimTime::from_secs(10);
        assert_eq!(
            t.mean_response_between(from, to),
            SimDuration::from_millis(100)
        );
        // Any percentile of one sample is that sample.
        assert_eq!(
            t.response_percentile_between(0.95, from, to),
            SimDuration::from_millis(100)
        );
        assert_eq!(t.cores_between(from, to), Some(1.0));
        // One qps window cannot support a variability estimate.
        assert_eq!(t.qps_cov_between(from, to), None);
    }

    #[test]
    fn windowed_metrics_on_a_tenant_departing_mid_window() {
        // A churned tenant departs at 3s but the observation window runs
        // to 10s: every metric clamps to what the tenant actually did —
        // no extrapolation past the departure, no NaN from the empty
        // tail of the window.
        let t = synthetic_output(3);
        let from = SimTime::from_secs(2);
        let to = SimTime::from_secs(10);
        // Completions at 2s and 3s fall in the window; the rate is over
        // the full window span (the tenant is simply absent after 3s).
        assert_eq!(t.qps_between(from, to), 2.0 / 8.0);
        assert_eq!(
            t.mean_response_between(from, to),
            SimDuration::from_millis(100)
        );
        // Core samples exist only while resident (at 2s and 3s).
        assert_eq!(t.cores_between(from, to), Some(2.5));
        // Whole-run aggregates keep using the tenant's own span.
        assert!(t.throughput_qps() > 0.0);
        assert!(t.wall() == SimDuration::from_secs(3));
    }

    #[test]
    fn cold_start_tenant_with_zero_completions_is_metric_safe() {
        // An admitted-then-departed tenant that never finished a query
        // (e.g. killed by a deadline assert upstream, or observed
        // mid-cold-start): every metric must stay finite or None.
        let started = SimTime::from_secs(5);
        let t = TenantOutput {
            config: TenantRunConfig::new("cold", q6(1), 1),
            results: Vec::new(),
            cores_series: TimeSeries::new("cold_cores"),
            load_series: TimeSeries::new("cold_load"),
            qps_series: TimeSeries::new("cold_qps"),
            started_at: started,
            finished_at: started,
            sla_violations: 0,
            control_steps: 0,
            engine: EngineStats::default(),
            transitions: Vec::new(),
            tomograph: Tomograph::default(),
        };
        assert_eq!(t.wall(), SimDuration::ZERO);
        assert_eq!(t.throughput_qps(), 0.0);
        assert!(t.throughput_qps().is_finite());
        assert_eq!(t.mean_response(), SimDuration::ZERO);
        assert_eq!(t.response_percentile(0.99), SimDuration::ZERO);
        assert_eq!(t.cores_mean(), 0.0);
        assert_eq!(t.cores_max(), 0.0);
        assert_eq!(t.qps_between(started, started), 0.0);
        assert_eq!(
            t.qps_cov_between(SimTime::ZERO, SimTime::from_secs(10)),
            None
        );
    }

    #[test]
    fn percentile_survives_nan_responses() {
        let mut t = synthetic_output(3);
        // Corrupt one response into NaN territory via a saturating
        // since(): submitted after finished yields a zero response, and
        // stats::percentile itself filters non-finite inputs — inject an
        // actual NaN through the series to prove the stats layer holds.
        t.qps_series.push(SimTime::from_secs(4), f64::NAN);
        let cov = t.qps_cov_between(SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(
            cov,
            Some(0.0),
            "the NaN sample is dropped; the three steady windows give CoV 0"
        );
        // With only the NaN in range there is nothing to estimate from.
        assert!(t
            .qps_cov_between(SimTime::from_secs(4), SimTime::from_secs(10))
            .is_none());
        // Percentiles over the (finite) responses stay correct.
        assert_eq!(t.response_percentile(0.5), SimDuration::from_millis(100));
    }
}
