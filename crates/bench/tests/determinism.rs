//! Determinism regression for the bench harness layer.
//!
//! `tests/full_stack.rs` already guards `deterministic_replay` at the
//! runner layer (identical `RunOutput` measurements). This test guards
//! the contract one layer up, where the scenarios live: a scenario run
//! twice from scratch through the registry must write the exact same
//! CSV bytes — fig04 (hand-coded Q6 under three affinities plus
//! OS/MonetDB), fig06 and fig07 (the full PrT control loop). Any
//! nondeterminism in data generation, scheduling, metric aggregation,
//! or float formatting shows up here as a byte diff.

use emca_harness::{run, Alloc, RunConfig};
use emca_metrics::table::{fnum, Table};
use volcano_db::tpch::{TpchData, TpchScale};

/// The registry path (`emca run <scenario>`) is as deterministic as the
/// direct-call path: the same spec run twice through the scenario
/// registry produces byte-identical CSV files: fig04's hand-coded teams
/// and OS baseline, and the mechanism scenarios (fig07 exercises the
/// full PrT control loop).
#[test]
fn registry_runs_are_byte_identical() {
    use emca_harness::ExperimentSpec;

    let registry = emca_bench::scenarios::registry();
    let base = std::env::temp_dir().join(format!("emca_determinism_cli_{}", std::process::id()));
    let spec = |dir: &std::path::Path| ExperimentSpec {
        sf: Some(0.002),
        users: Some(2),
        iters: Some(2),
        out_dir: Some(dir.to_path_buf()),
        ..ExperimentSpec::default()
    };
    for scenario in ["fig04", "fig06", "fig07"] {
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        for round in 0..2 {
            let dir = base.join(format!("{scenario}_{round}"));
            std::fs::create_dir_all(&dir).unwrap();
            // One generic spec drives every scenario; drop the knobs
            // each one does not honour (the --prune-unsupported path).
            let mut spec = spec(&dir);
            registry.prune_unsupported(scenario, &mut spec);
            registry
                .run(scenario, &spec)
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
            let (file, _) = registry.get(scenario).unwrap().schemas[0];
            bytes.push(std::fs::read(dir.join(file)).expect("scenario wrote its CSV"));
        }
        assert_eq!(
            bytes[0], bytes[1],
            "{scenario}: registry runs must be byte-identical"
        );
        assert!(!bytes[0].is_empty());
    }
    let _ = std::fs::remove_dir_all(base);
}

/// The kernel-rework determinism guard: a join/group-heavy workload
/// (Q3 joins + Q18's wide group-by + Q6 selections across variants)
/// exercises every new typed kernel — branchless selection, flat
/// direct/hashed join tables, dense/hash group accumulators, in-place
/// projection buffers — and must replay byte-identically, including the
/// actual query *results* (root aggregates), not just the timings.
#[test]
fn kernel_workload_is_byte_identical_across_runs() {
    use volcano_db::client::Workload;
    use volcano_db::tpch::QuerySpec;

    let run_once = || {
        let scale = TpchScale::test_tiny();
        let data = TpchData::generate(scale);
        let out = run(
            RunConfig::new(
                Alloc::OsAll,
                3,
                Workload::Mixed {
                    specs: vec![
                        QuerySpec::Tpch {
                            number: 3,
                            variant: 0,
                        },
                        QuerySpec::Tpch {
                            number: 18,
                            variant: 1,
                        },
                        QuerySpec::Q6 { variant: 2 },
                    ],
                    iterations: 3,
                    seed: 42,
                },
            )
            .with_scale(scale),
            &data,
        );
        let mut t = Table::new("kernel determinism probe", &["metric", "value"]);
        t.row(vec!["qps".into(), fnum(out.throughput_qps(), 4)]);
        t.row(vec!["ht_MBps".into(), fnum(out.ht_rate() / 1e6, 2)]);
        t.row(vec![
            "mean_resp_ms".into(),
            fnum(out.mean_response().as_millis_f64(), 3),
        ]);
        t.to_csv()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "kernel workload must replay byte-identically");
    assert!(a.lines().count() > 3);
}
