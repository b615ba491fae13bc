//! Determinism regression for the bench harness layer.
//!
//! `tests/full_stack.rs` already guards `deterministic_replay` at the
//! runner layer (identical `RunOutput` measurements). This test guards
//! the contract one layer up, where the figure binaries live: a
//! fig04-style sweep — hand-coded Q6 under three affinities plus
//! OS/MonetDB, swept over client counts — executed twice from scratch
//! must render the exact same table bytes (and therefore the exact same
//! CSV). Any nondeterminism in data generation, scheduling, metric
//! aggregation, or float formatting shows up here as a byte diff.

use emca_harness::{run, run_handcoded, Alloc, RunConfig};
use emca_metrics::table::{fnum, Table};
use emca_metrics::SimDuration;
use volcano_db::client::Workload;
use volcano_db::handcoded::CAffinity;
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

/// One fig04-style sweep at test-tiny scale, rendered to table bytes.
fn fig04_style_sweep() -> (String, String) {
    let scale = TpchScale::test_tiny();
    let iters = 2;
    let data = TpchData::generate(scale);

    let mut t = Table::new(
        "determinism probe — Q6 users sweep",
        &[
            "users",
            "series",
            "throughput_qps",
            "minor_faults_per_s",
            "ht_traffic_MBps",
        ],
    );
    for users in [1usize, 4] {
        for (name, affinity) in [
            ("Dense/C", CAffinity::Dense),
            ("Sparse/C", CAffinity::Sparse),
            ("OS/C", CAffinity::Os),
        ] {
            let out = run_handcoded(
                &data,
                affinity,
                users,
                16,
                iters,
                SimDuration::from_secs(3600),
            );
            let rate = |n: u64| out.wall.rate_per_sec(n);
            t.row(vec![
                users.to_string(),
                name.to_string(),
                fnum(rate(out.runs.len() as u64), 3),
                fnum(rate(out.hw.minor_faults.iter().sum()), 0),
                fnum(rate(out.hw.link_bytes.iter().sum()) / 1e6, 1),
            ]);
        }
        let out = run(
            RunConfig::new(
                Alloc::OsAll,
                users,
                Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: iters,
                },
            )
            .with_scale(scale),
            &data,
        );
        t.row(vec![
            users.to_string(),
            "OS/MonetDB".to_string(),
            fnum(out.throughput_qps(), 3),
            fnum(out.fault_rate(), 0),
            fnum(out.ht_rate() / 1e6, 1),
        ]);
    }
    (t.render(), t.to_csv())
}

#[test]
fn fig04_sweep_is_byte_identical_across_runs() {
    let (render1, csv1) = fig04_style_sweep();
    let (render2, csv2) = fig04_style_sweep();
    assert_eq!(render1, render2, "rendered table must be byte-identical");
    assert_eq!(csv1, csv2, "CSV must be byte-identical");
    // Sanity: the sweep actually produced data rows.
    assert!(csv1.lines().count() > 1, "sweep produced no rows:\n{csv1}");
}

/// The registry path (`emca run <scenario>`) is as deterministic as the
/// direct-call path: the same spec run twice through the scenario
/// registry produces byte-identical CSV files, including the mechanism
/// scenarios (fig07 exercises the full PrT control loop).
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
    for scenario in ["fig06", "fig07"] {
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        for round in 0..2 {
            let dir = base.join(format!("{scenario}_{round}"));
            std::fs::create_dir_all(&dir).unwrap();
            // One generic spec drives both scenarios; drop the knobs
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
