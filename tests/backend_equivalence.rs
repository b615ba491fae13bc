//! Sim/threads backend equivalence: the simulated engine is the
//! deterministic-fidelity twin of the real-thread executor. With the
//! thread pool at the simulated machine's width (16), both backends
//! partition every operator identically and merge partials in strict
//! partition order, so each query's result is *bitwise* identical —
//! allocation and scheduling may only change timing.

use elastic_core::{ArbiterMode, Decision, DenseMode, ModeCtx, Policy, PolicyCtx};
use emca_harness::{
    run, run_tenants, Alloc, Backend, ChurnSpec, MultiTenantConfig, PolicyFactory, RunConfig,
    TenantRunConfig,
};
use numa_sim::CoreId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use volcano_db::client::Workload;
use volcano_db::exec::engine::QueryResult;
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

/// A mixed workload exercising per-client RNG sequencing, joins,
/// group-bys and scalar aggregates.
fn mixed(iters: u32) -> Workload {
    Workload::Mixed {
        specs: vec![
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 1,
                variant: 0,
            },
            QuerySpec::Tpch {
                number: 4,
                variant: 1,
            },
            QuerySpec::Tpch {
                number: 14,
                variant: 0,
            },
        ],
        iterations: iters,
        seed: 11,
    }
}

/// Sorted multiset of (label, full result debug) digests — submission
/// order differs across backends, so compare as a set of result values.
fn digests(results: &[QueryResult]) -> Vec<String> {
    let mut d: Vec<String> = results
        .iter()
        .map(|r| format!("{}:{:?}", r.label, r.result))
        .collect();
    d.sort();
    d
}

/// The equivalence argument needs the pool at machine width; a capped
/// pool (CI smoke) partitions differently by design.
fn pool_is_capped() -> bool {
    std::env::var("EMCA_THREADS").is_ok()
}

#[test]
fn sim_and_threads_agree_on_every_query_result() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |backend| {
        RunConfig::new(Alloc::Adaptive, 3, mixed(2))
            .with_scale(data.scale)
            .with_backend(backend)
    };
    let sim = run(cfg(Backend::Sim), &data);
    let thr = run(cfg(Backend::Threads), &data);
    assert_eq!(sim.results.len(), thr.results.len());
    assert_eq!(
        digests(&sim.results),
        digests(&thr.results),
        "same queries must produce bitwise-identical results on both backends"
    );
    assert!(thr.wall > emca_metrics::SimDuration::ZERO);
    assert_eq!(thr.engine.queries_completed, sim.engine.queries_completed);
}

#[test]
fn threads_baseline_matches_mechanism_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    // Within the threads backend, the OS baseline (thread-per-client)
    // and the elastic pool must also agree on values.
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |alloc| {
        RunConfig::new(alloc, 2, mixed(2))
            .with_scale(data.scale)
            .with_backend(Backend::Threads)
    };
    let os = run(cfg(Alloc::OsAll), &data);
    let sparse = run(cfg(Alloc::Sparse), &data);
    assert_eq!(digests(&os.results), digests(&sparse.results));
    assert!(os.transitions.is_empty(), "no mechanism on the baseline");
    assert!(
        !sparse.cores_series.is_empty(),
        "mechanism samples the pool size"
    );
}

#[test]
fn multi_tenant_threads_run_matches_sim_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |backend| {
        MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new(
                    "a",
                    Workload::Repeat {
                        spec: QuerySpec::Q6 { variant: 0 },
                        iterations: 2,
                    },
                    2,
                ),
                TenantRunConfig::new("b", mixed(1), 2),
            ],
        )
        .with_scale(data.scale)
        .with_backend(backend)
    };
    let sim = run_tenants(cfg(Backend::Sim), &data);
    let thr = run_tenants(cfg(Backend::Threads), &data);
    assert_eq!(thr.tenants.len(), 2);
    for (s, t) in sim.tenants.iter().zip(&thr.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            digests(&s.results),
            digests(&t.results),
            "tenant {} diverged across backends",
            s.config.name
        );
        assert!(t.control_steps > 0, "pool controller must run");
    }
}

/// The shared 16-tenant churn plan of the churn-equivalence tests:
/// admissions queue behind a 5-slot resident cap, demand is
/// Zipf-skewed, and arrivals scatter over half a second.
fn churn_16_config(data: &TpchData, backend: Backend) -> MultiTenantConfig {
    let mut churn = ChurnSpec::new(16);
    churn.resident = Some(5);
    churn.spread = Some(0.5);
    let plan = churn.plan(7, 2, 2);
    MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
        .with_scale(data.scale)
        .with_resident_cap(plan.resident)
        .with_backend(backend)
}

#[test]
fn churn_sim_runs_are_byte_identical_across_repeats() {
    // Determinism of the sim churn lifecycle: two runs of the same
    // seeded plan must agree byte-for-byte — results, admission times,
    // every metric series.
    let data = TpchData::generate(TpchScale::test_tiny());
    let a = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    let b = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    assert_eq!(a.wall, b.wall);
    assert_eq!(a.arbiter_denials, b.arbiter_denials);
    assert_eq!(a.arbiter_yields, b.arbiter_yields);
    assert_eq!(a.tenants.len(), b.tenants.len());
    for (s, t) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            s.started_at, t.started_at,
            "{} admission moved",
            s.config.name
        );
        assert_eq!(s.finished_at, t.finished_at);
        assert_eq!(
            format!("{:?}", s.results),
            format!("{:?}", t.results),
            "tenant {} results diverged across repeats",
            s.config.name
        );
        assert_eq!(
            format!("{:?}{:?}{:?}", s.cores_series, s.load_series, s.qps_series),
            format!("{:?}{:?}{:?}", t.cores_series, t.load_series, t.qps_series),
            "tenant {} series diverged across repeats",
            s.config.name
        );
    }
}

#[test]
fn churn_threads_run_loses_nothing_and_matches_sim_values() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    // The same 16-tenant plan on both backends: exact accounting (no
    // query lost across any departure) and bitwise-identical per-query
    // values; only timing may differ.
    let data = TpchData::generate(TpchScale::test_tiny());
    let mut churn = ChurnSpec::new(16);
    churn.resident = Some(5);
    churn.spread = Some(0.5);
    let plan = churn.plan(7, 2, 2);
    let expected = plan.expected_completions();

    let sim = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    let thr = run_tenants(churn_16_config(&data, Backend::Threads), &data);
    for out in [&sim, &thr] {
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, expected, "lost queries across departures");
        assert!(out.errors.is_empty());
    }
    assert_eq!(sim.tenants.len(), thr.tenants.len());
    for (s, t) in sim.tenants.iter().zip(&thr.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            digests(&s.results),
            digests(&t.results),
            "tenant {} diverged across backends",
            s.config.name
        );
    }
}

/// Dense placement that counts its `decide` calls — stands in for any
/// user policy handed to [`RunConfig::with_custom_policy`].
struct CountingDense(Arc<AtomicUsize>);

impl Policy for CountingDense {
    fn name(&self) -> &str {
        "counting-dense"
    }
    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        DenseMode.next_core(ctx)
    }
    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        DenseMode.release_core(ctx)
    }
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Decision {
        self.0.fetch_add(1, Ordering::Relaxed);
        Policy::decide(&mut DenseMode, ctx)
    }
}

#[test]
fn hill_climbing_runs_on_threads_with_sim_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |backend| {
        RunConfig::new(Alloc::HillClimb, 3, mixed(2))
            .with_scale(data.scale)
            .with_backend(backend)
    };
    let sim = run(cfg(Backend::Sim), &data);
    let thr = run(cfg(Backend::Threads), &data);
    assert_eq!(digests(&sim.results), digests(&thr.results));
    assert!(
        !thr.transitions.is_empty(),
        "the climber's pool is controlled"
    );
}

#[test]
fn custom_policy_runs_on_threads_with_sim_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let decides = Arc::new(AtomicUsize::new(0));
    let cfg = |backend| {
        let decides = Arc::clone(&decides);
        RunConfig::new(Alloc::Adaptive, 3, mixed(2))
            .with_scale(data.scale)
            .with_backend(backend)
            .with_custom_policy(PolicyFactory::new("counting-dense", move || {
                Box::new(CountingDense(Arc::clone(&decides)))
            }))
    };
    let sim = run(cfg(Backend::Sim), &data);
    decides.store(0, Ordering::Relaxed);
    let thr = run(cfg(Backend::Threads), &data);
    assert_eq!(digests(&sim.results), digests(&thr.results));
    assert!(
        decides.load(Ordering::Relaxed) >= 1,
        "the pool's controller must consult the custom policy"
    );
    assert_eq!(
        decides.load(Ordering::Relaxed),
        thr.transitions.len(),
        "one decide per logged control step"
    );
}
