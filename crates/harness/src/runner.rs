//! The single-instance runner: [`run`] executes a [`RunConfig`] as the
//! one-tenant case of the tenant lifecycle ([`crate::churn`]) on either
//! backend and reports every metric the paper's figures need
//! ([`RunOutput`]). The simulated-stack builders the lifecycle's sim
//! substrate installs tenants with live here too.

use crate::config::{Alloc, RunConfig};
use crate::tenants::{MultiTenantConfig, MultiTenantOutput};
use elastic_core::{MechanismConfig, Policy, PolicyId, TransitionEvent};
use emca_metrics::{SimDuration, TimeSeries};
use numa_sim::HwSnapshot;
use os_sim::{CoreMask, Kernel, SchedStats, SchedTrace};
use volcano_db::exec::engine::{Engine, EngineConfig, EngineStats, QueryResult};
use volcano_db::exec::tomograph::Tomograph;
use volcano_db::tpch::TpchData;

/// Everything measured during one run.
pub struct RunOutput {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// Every completed query.
    pub results: Vec<QueryResult>,
    /// Simulated time from start to the last client finishing.
    pub wall: SimDuration,
    /// Hardware counters at workload start.
    pub hw_before: HwSnapshot,
    /// Hardware counters at workload end.
    pub hw_after: HwSnapshot,
    /// Scheduler statistics (migrations, steals...).
    pub sched: SchedStats,
    /// Engine statistics (tasks, queries...).
    pub engine: EngineStats,
    /// Per-socket memory throughput (GB/s), one series per socket.
    pub imc_series: Vec<TimeSeries>,
    /// Machine-wide HT traffic (GB/s).
    pub ht_series: TimeSeries,
    /// DBMS-group CPU load (%).
    pub load_series: TimeSeries,
    /// Allocated cores over time.
    pub cores_series: TimeSeries,
    /// Mechanism transition log (empty for the OS baseline).
    pub transitions: Vec<TransitionEvent>,
    /// Scheduler spans (when tracing was enabled).
    pub trace: Option<SchedTrace>,
    /// Per-operator statistics.
    pub tomograph: Tomograph,
    /// Query failures surfaced by the engine, one rendered
    /// [`QueryError`](volcano_db::exec::QueryError) per failed query
    /// (the threads backend prefixes `"client <n>: "`). Empty on
    /// fault-free runs; under a fault plan a failed query lands here
    /// instead of silently aliasing an unfinished one.
    pub errors: Vec<String>,
}

impl RunOutput {
    /// The counters' growth over the run.
    fn hw(&self) -> HwSnapshot {
        self.hw_after.since(&self.hw_before)
    }

    /// Per-socket L3 load-miss deltas.
    pub fn l3_misses_per_socket(&self) -> Vec<u64> {
        self.hw().l3_misses
    }

    /// Per-socket IMC byte deltas.
    pub fn imc_bytes_per_socket(&self) -> Vec<u64> {
        self.hw().imc_bytes
    }

    /// Machine-wide HT byte delta.
    pub fn ht_bytes(&self) -> u64 {
        self.hw().link_bytes.iter().sum()
    }

    /// Machine-wide minor-fault delta.
    pub fn minor_faults(&self) -> u64 {
        self.hw().minor_faults.iter().sum()
    }

    /// Per-core busy-time deltas (ns).
    pub fn busy_ns(&self) -> Vec<u64> {
        self.hw().busy_ns
    }

    /// Queries per second over the measured wall time.
    pub fn throughput_qps(&self) -> f64 {
        self.wall.rate_per_sec(self.results.len() as u64)
    }

    /// Mean response time across all queries.
    pub fn mean_response(&self) -> SimDuration {
        if self.results.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.results.iter().map(|r| r.response()).sum();
        total / self.results.len() as u64
    }

    /// Mean HT traffic rate over the run (bytes/s).
    pub fn ht_rate(&self) -> f64 {
        self.wall.rate_per_sec(self.ht_bytes())
    }

    /// Minor faults per second over the run.
    pub fn fault_rate(&self) -> f64 {
        self.wall.rate_per_sec(self.minor_faults())
    }
}

/// Adds one DBMS instance to `kernel`: a thread group over every core
/// and an engine with `data` loaded into its own address space and its
/// workers started.
pub(crate) fn start_engine(
    kernel: &mut Kernel,
    config: &RunConfig,
    data: &TpchData,
) -> (os_sim::GroupId, Engine) {
    let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
    let engine = Engine::new(
        EngineConfig {
            flavor: config.flavor,
            faults: config.faults.clone(),
            fault_seed: config.scale.seed,
            ..EngineConfig::default()
        },
        kernel.machine().topology().n_nodes(),
    );
    // The paper measures a warm, long-running server; base-data homing is
    // an explicit policy applied identically to every flavor (see
    // [`Warmup`]). `Loader` reproduces Fig. 18(a)'s single-node placement,
    // `Interleave` spreads segments round-robin, `None` leaves pages
    // unhomed so the first queries place them (cold-start ablation).
    let loader = match config.warmup {
        crate::config::Warmup::Loader => Some(numa_sim::CoreId(0)),
        crate::config::Warmup::Interleave | crate::config::Warmup::None => None,
    };
    engine.load(kernel.machine_mut(), data, loader);
    if config.warmup == crate::config::Warmup::Interleave {
        engine.interleave_base(kernel.machine_mut());
    }
    engine.start_workers(kernel, group);
    (group, engine)
}

/// The policy and mechanism configuration `config` asks for (`None`
/// for the OS baseline, whatever custom policy it carries), with the
/// guard/interval/mode-latency overrides applied.
pub(crate) fn mechanism_parts(config: &RunConfig) -> Option<(Box<dyn Policy>, MechanismConfig)> {
    let builtin = config.alloc.policy_id()?;
    let (name, id, policy) = match &config.custom_policy {
        Some(factory) => (factory.name(), None, factory.build()),
        None => (builtin.name(), Some(builtin), builtin.build()),
    };
    let mut mech_cfg = match config.metric {
        elastic_core::MetricKind::HtImcRatio => MechanismConfig::ht_imc(),
        metric => MechanismConfig {
            metric,
            ..MechanismConfig::cpu_load()
        },
    }
    .with_mode_latency(name);
    if let Some(interval) = config.mech_interval {
        // Pinned interval: disables both the AIMD adaptation and the
        // service-time scaling (min == max == the override).
        mech_cfg.interval = interval;
        mech_cfg.min_interval = interval;
        mech_cfg.actuation_latency = mech_cfg.actuation_latency.min(interval / 2);
    }
    // The hill climber finds the LONC knee from throughput feedback;
    // running it under the tuned Eq. 1 guard would mask exactly the
    // behaviour it exists to replace, so the guard defaults off for
    // it (an explicit `mech_guard` still wins).
    if id == Some(PolicyId::HillClimb) {
        mech_cfg.saturation_guard = None;
    }
    if let Some(guard) = config.mech_guard {
        mech_cfg.saturation_guard = guard;
    }
    Some((policy, mech_cfg))
}

/// Runs one experiment. `data` is shared across runs of a sweep so
/// generation cost is paid once. A run is the one-tenant case of the
/// tenant lifecycle ([`crate::churn`]) on either backend: one resident
/// FairShare tenant of weight 1 with no SLA, whose arbitration is a
/// no-op (it is guaranteed the whole machine and no core is foreign).
pub fn run(config: RunConfig, data: &TpchData) -> RunOutput {
    let lone = MultiTenantConfig::lone("run", &config, config.clients);
    let MultiTenantOutput {
        mut tenants,
        wall,
        errors,
        hw_before,
        hw_after,
        sched,
        imc_series,
        ht_series,
        trace,
        ..
    } = crate::churn::run_tenants_churn(lone, data);
    let t = tenants.pop().expect("a one-tenant run retires its tenant");
    RunOutput {
        config,
        results: t.results,
        wall,
        hw_before,
        hw_after,
        sched,
        engine: t.engine,
        imc_series,
        ht_series,
        load_series: t.load_series,
        cores_series: t.cores_series,
        transitions: t.transitions,
        trace,
        tomograph: t.tomograph,
        // The lifecycle names each error's tenant; a run has one.
        errors: errors
            .iter()
            .map(|e| e.strip_prefix("run: ").unwrap_or(e).to_string())
            .collect(),
    }
}

/// Sweeps the same workload across the four allocation policies
/// (OS/Dense/Sparse/Adaptive), as most paper figures require.
pub fn run_all_allocs(base: &RunConfig, data: &TpchData) -> Vec<RunOutput> {
    Alloc::all()
        .into_iter()
        .map(|alloc| {
            let mut cfg = base.clone();
            cfg.alloc = alloc;
            run(cfg, data)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_db::client::Workload;
    use volcano_db::tpch::{QuerySpec, TpchScale};

    fn tiny_data() -> TpchData {
        TpchData::generate(TpchScale::test_tiny())
    }

    fn q6_workload(iters: u32) -> Workload {
        Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: iters,
        }
    }

    #[test]
    #[should_panic(expected = "run hit the deadline")]
    fn a_run_past_its_deadline_aborts() {
        // The lifecycle stops at the deadline and, with work unfinished,
        // refuses to report a partial run.
        let data = tiny_data();
        let mut cfg = RunConfig::new(Alloc::Adaptive, 4, q6_workload(20)).with_scale(data.scale);
        cfg.deadline = SimDuration::from_millis(1);
        run(cfg, &data);
    }

    #[test]
    fn os_baseline_runs_to_completion() {
        let data = tiny_data();
        let cfg = RunConfig::new(Alloc::OsAll, 2, q6_workload(2)).with_scale(data.scale);
        let out = run(cfg, &data);
        assert_eq!(out.results.len(), 4);
        assert!(out.wall > SimDuration::ZERO);
        assert!(out.throughput_qps() > 0.0);
        assert!(out.imc_bytes_per_socket().iter().sum::<u64>() > 0);
        assert!(out.transitions.is_empty(), "baseline has no mechanism");
    }

    #[test]
    fn adaptive_runs_and_logs_transitions() {
        let data = tiny_data();
        let cfg = RunConfig::new(Alloc::Adaptive, 4, q6_workload(3))
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2));
        let out = run(cfg, &data);
        assert_eq!(out.results.len(), 12);
        assert!(
            !out.transitions.is_empty(),
            "mechanism must record transitions"
        );
        // The cores series exists and stays within machine bounds.
        if let Some(max) = out.cores_series.max() {
            assert!(max <= 16.0);
        }
    }

    #[test]
    fn sim_faults_are_deterministic_and_lose_nothing() {
        use volcano_db::exec::FaultPlan;
        let data = tiny_data();
        let run_once = |data: &TpchData| {
            let plan = FaultPlan::default()
                .with_kill(0, SimDuration::from_millis(1))
                .with_badquery(0.25);
            let cfg = RunConfig::new(Alloc::Adaptive, 4, q6_workload(3))
                .with_scale(data.scale)
                .with_faults(plan);
            run(cfg, data)
        };
        let a = run_once(&data);
        // A worker kill requeues its work and a poisoned query surfaces
        // as an error: every one of the 12 queries is accounted for.
        assert_eq!(
            a.results.len() + a.errors.len(),
            12,
            "no query may be lost to the fault plane"
        );
        assert!(
            a.engine.engine_recoveries >= 1,
            "the 1ms kill must fire and be recovered"
        );
        assert!(a.engine.mttr_ms().is_finite() && a.engine.mttr_ms() > 0.0);
        // Same seed + same plan ⇒ byte-identical outputs, kill and all.
        let b = run_once(&data);
        let digest = |o: &RunOutput| {
            o.results
                .iter()
                .map(|r| (r.label.clone(), r.finished, r.result.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b), "faulted sim runs must replay");
        assert_eq!(a.errors, b.errors, "error sets must replay too");
        assert_eq!(a.engine.engine_recoveries, b.engine.engine_recoveries);
        assert_eq!(a.wall, b.wall, "even the clock must agree");
    }

    /// Everything simulated a run reports, rendered.
    fn simulated(o: &RunOutput) -> String {
        let results: Vec<_> = o
            .results
            .iter()
            .map(|r| (&r.label, r.submitted, r.finished, &r.result))
            .collect();
        format!(
            "{:?} {} {:?} {} {:?} {results:?}",
            o.wall,
            o.transitions.len(),
            o.imc_bytes_per_socket(),
            o.ht_bytes(),
            o.errors
        )
    }

    #[test]
    fn a_warm_dataset_changes_no_simulated_number() {
        use volcano_db::exec::{FaultPlan, Flavor};
        let mixed = Workload::Mixed {
            specs: (1..=22)
                .flat_map(|number| (0..4).map(move |variant| QuerySpec::Tpch { number, variant }))
                .collect(),
            iterations: 3,
            seed: 7,
        };
        let base = RunConfig::new(Alloc::Adaptive, 8, mixed).with_scale(TpchScale::test_tiny());
        let faulted = base.clone().with_faults(
            FaultPlan::default()
                .with_kill(0, SimDuration::from_millis(1))
                .with_badquery(0.25),
        );
        let shared = tiny_data();
        for cfg in [base.clone(), base.with_flavor(Flavor::SqlServer), faulted] {
            // The first run may find nodes an earlier configuration
            // left; the second finds every one of its own.
            let first = simulated(&run(cfg.clone(), &shared));
            let second = simulated(&run(cfg.clone(), &shared));
            let fresh = simulated(&run(cfg, &tiny_data()));
            assert_eq!(first, fresh);
            assert_eq!(second, fresh);
        }
    }

    #[test]
    fn trace_collects_spans() {
        let data = tiny_data();
        let cfg = RunConfig::new(Alloc::OsAll, 1, q6_workload(1))
            .with_scale(data.scale)
            .with_trace();
        let out = run(cfg, &data);
        let trace = out.trace.expect("tracing enabled");
        assert!(!trace.spans().is_empty());
    }
}
