//! Cross-crate integration tests: the paper's qualitative claims at tiny
//! scale, through the whole stack.

use elastic_numa::prelude::*;
use emca_harness::{run, Alloc, RunConfig};
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

fn tiny() -> TpchData {
    TpchData::generate(TpchScale::test_tiny())
}

fn q6(iters: u32) -> Workload {
    Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: iters,
    }
}

#[test]
fn results_identical_across_policies() {
    // The allocation policy must never change query answers.
    let data = tiny();
    let mut revenues = Vec::new();
    for alloc in Alloc::all() {
        let out = run(
            RunConfig::new(alloc, 2, q6(1)).with_scale(data.scale),
            &data,
        );
        revenues.push(out.results[0].result.as_scalar());
    }
    for w in revenues.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-6,
            "policy changed a result: {revenues:?}"
        );
    }
}

#[test]
fn adaptive_reduces_interconnect_traffic() {
    // The headline locality claim: with node-0-homed data, the adaptive
    // mode's traffic is far below the OS baseline's. Needs a workload
    // big enough to raise real memory pressure (the Eq. 1 guard is what
    // keeps the allocation concentrated); test_tiny fits in cache and
    // lets the allocation spread freely.
    let data = TpchData::generate(TpchScale { sf: 0.02, seed: 42 });
    let os = run(
        RunConfig::new(Alloc::OsAll, 8, q6(3)).with_scale(data.scale),
        &data,
    );
    let ad = run(
        RunConfig::new(Alloc::Adaptive, 8, q6(3)).with_scale(data.scale),
        &data,
    );
    assert!(
        (ad.ht_bytes() as f64) < 0.5 * os.ht_bytes() as f64,
        "adaptive HT {} vs OS {}",
        ad.ht_bytes(),
        os.ht_bytes()
    );
    assert!(
        ad.minor_faults() < os.minor_faults(),
        "adaptive faults {} vs OS {}",
        ad.minor_faults(),
        os.minor_faults()
    );
}

#[test]
fn mechanism_respects_core_bounds() {
    let data = tiny();
    let out = run(
        RunConfig::new(Alloc::Adaptive, 8, q6(3))
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2)),
        &data,
    );
    for e in &out.transitions {
        assert!((1..=16).contains(&e.nalloc), "nalloc out of range: {e:?}");
    }
    for &(_, v) in out.cores_series.samples() {
        assert!((1.0..=16.0).contains(&v), "cores series out of range: {v}");
    }
}

#[test]
fn sqlserver_flavor_runs_all_policies() {
    let data = tiny();
    for alloc in [Alloc::OsAll, Alloc::Adaptive] {
        let out = run(
            RunConfig::new(alloc, 2, q6(1))
                .with_scale(data.scale)
                .with_flavor(Flavor::SqlServer),
            &data,
        );
        assert_eq!(out.results.len(), 2);
    }
}

#[test]
fn stable_phases_complete_all_22_queries() {
    let data = tiny();
    let specs: Vec<QuerySpec> = (1..=22)
        .map(|n| QuerySpec::Tpch {
            number: n,
            variant: 0,
        })
        .collect();
    let out = run(
        RunConfig::new(Alloc::Adaptive, 2, Workload::StablePhases { specs }).with_scale(data.scale),
        &data,
    );
    assert_eq!(out.results.len(), 44, "2 clients x 22 phases");
    let mut tags: Vec<u32> = out.results.iter().map(|r| r.spec_tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 22, "every query number must appear");
}

#[test]
fn energy_estimation_favors_restriction() {
    // Fewer allocated cores at similar utilisation => lower CPU energy.
    let data = tiny();
    let model = numa_sim::EnergyModel::opteron_8387();
    let os = run(
        RunConfig::new(Alloc::OsAll, 4, q6(3)).with_scale(data.scale),
        &data,
    );
    let ad = run(
        RunConfig::new(Alloc::Adaptive, 4, q6(3)).with_scale(data.scale),
        &data,
    );
    let e_os = model.estimate(os.wall, &os.busy_ns(), 4, os.ht_bytes());
    let e_ad = model.estimate(ad.wall, &ad.busy_ns(), 4, ad.ht_bytes());
    assert!(
        e_ad.ht_j <= e_os.ht_j,
        "HT energy must not grow under adaptive"
    );
    assert!(e_os.total() > 0.0 && e_ad.total() > 0.0);
}

#[test]
fn deterministic_replay() {
    // The whole stack is deterministic: identical configs give identical
    // measurements.
    let data = tiny();
    let out1 = run(
        RunConfig::new(Alloc::Adaptive, 3, q6(2)).with_scale(data.scale),
        &data,
    );
    let out2 = run(
        RunConfig::new(Alloc::Adaptive, 3, q6(2)).with_scale(data.scale),
        &data,
    );
    assert_eq!(out1.wall, out2.wall);
    assert_eq!(out1.ht_bytes(), out2.ht_bytes());
    assert_eq!(out1.minor_faults(), out2.minor_faults());
    assert_eq!(out1.sched.migrations, out2.sched.migrations);
    assert_eq!(out1.transitions.len(), out2.transitions.len());
}

#[test]
fn handcoded_dense_beats_sparse_on_locality() {
    let data = tiny();
    let dense = emca_harness::run_handcoded(
        &data,
        volcano_db::handcoded::CAffinity::Dense,
        2,
        4,
        2,
        SimDuration::from_secs(120),
    );
    let sparse = emca_harness::run_handcoded(
        &data,
        volcano_db::handcoded::CAffinity::Sparse,
        2,
        4,
        2,
        SimDuration::from_secs(120),
    );
    let ht_bytes = |hw: &numa_sim::HwSnapshot| hw.link_bytes.iter().sum::<u64>();
    assert!(ht_bytes(&dense.hw) < ht_bytes(&sparse.hw));
    // Both compute the same revenue.
    assert!((dense.runs[0].1 - sparse.runs[0].1).abs() < 1e-6);
}
