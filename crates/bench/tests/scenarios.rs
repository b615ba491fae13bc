//! Registry coverage: all 17 retired binaries plus the multi-tenant
//! (`mt_*`) and serving (`serve_*`) workloads are registered scenarios,
//! and every one of them runs end-to-end at tiny scale, emitting the
//! CSV schema it declares. The final `csv_check` pass validates the
//! freshly generated set with the same library call CI uses — so schema
//! declarations, scenario bodies, and the checker can never drift
//! apart.

use emca_bench::scenarios;
use emca_harness::timing::ENV_VARS;
use emca_harness::{ExperimentSpec, ALL_SCENARIO_KEYS, SPEC_KEYS};
use emca_metrics::table::Table;
use std::path::PathBuf;

/// Every name reachable through `emca run <name>`: the retired
/// one-binary-per-figure entry points plus the `mt_*` and `serve_*`
/// scenarios.
const EXPECTED: [&str; 25] = [
    "ablation",
    "chaos_recovery",
    "chaos_serve",
    "csv_check",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "mt_burst",
    "mt_churn",
    "mt_fairshare",
    "mt_interference",
    "mt_zipf",
    "serve_latency_curve",
    "serve_overload",
    "tab_overhead",
    "tab_summary",
];

#[test]
fn registry_lists_all_former_binaries() {
    let registry = scenarios::registry();
    assert_eq!(registry.names(), EXPECTED.to_vec());
    for s in registry.iter() {
        assert!(!s.about.is_empty(), "{} needs a description", s.name);
    }
}

#[test]
fn architecture_doc_states_the_registry_size() {
    // docs/ARCHITECTURE.md's crate map quotes the registry size; it
    // rotted once (22 stated, 26 registered), so it is checked now.
    let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/ARCHITECTURE.md");
    let text = std::fs::read_to_string(doc).expect("docs/ARCHITECTURE.md is readable");
    let stated: usize = text
        .split(" registered scenarios")
        .next()
        .and_then(|before| before.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("ARCHITECTURE.md states `<n> registered scenarios`");
    assert_eq!(stated, scenarios::registry().names().len());
}

#[test]
fn readme_environment_knobs_table_is_the_key_table() {
    // README "Flags and environment knobs" carries one flag row per spec
    // key, in table order, and one row per variable the environment may
    // carry (`ENV_VARS`), in that table's order.
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let text = std::fs::read_to_string(readme).expect("README.md is readable");
    let section = text
        .split("\n## Flags and environment knobs\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("README has a `## Flags and environment knobs` section");
    let first_cells = |prefix: &str| -> Vec<String> {
        section
            .lines()
            .filter(|l| l.starts_with(prefix))
            .map(|l| l.split('|').nth(1).unwrap().trim().trim_matches('`').into())
            .collect()
    };
    let flags: Vec<String> = SPEC_KEYS.iter().filter_map(|k| k.flag()).collect();
    assert_eq!(first_cells("| `--"), flags);
    let vars: Vec<&str> = ENV_VARS.iter().map(|(var, _)| *var).collect();
    assert_eq!(first_cells("| `EMCA_"), vars);
}

#[test]
fn scenarios_declare_only_non_universal_table_keys() {
    // Covers every `KEYS_*` constant of `scenarios/mod.rs`: a typo or a
    // universal key there would make the scenario reject (or pointlessly
    // list) a key no spec can pin.
    for s in scenarios::registry().iter() {
        for key in s.keys {
            assert!(
                ALL_SCENARIO_KEYS.contains(key),
                "{} declares {key:?}, which is not a non-universal spec key",
                s.name
            );
        }
    }
}

#[test]
fn registry_declares_the_full_results_schema_set() {
    // The committed results/ dir carries one CSV per declared schema;
    // 34 files across the 24 CSV-writing scenarios (csv_check only
    // prints).
    assert_eq!(scenarios::declared_csv_count(), 34);
    let registry = scenarios::registry();
    let mut seen = std::collections::BTreeSet::new();
    for s in registry.iter() {
        for (file, header) in s.schemas {
            assert!(seen.insert(*file), "{file} declared twice");
            assert!(!header.is_empty(), "{file} has an empty header");
            // `Table::with_header` splits the declaration on bare commas.
            for column in header.split(',') {
                assert!(
                    !column.is_empty() && column == column.trim(),
                    "{file}: column {column:?} of {header:?} is empty or padded"
                );
            }
        }
    }
}

/// A fresh scratch directory for one test (tests run in parallel).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emca_scenario_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `emit` is where a results CSV meets its declaration: a table whose
/// header drifted from the one declared for its file is refused before
/// anything is written, with both headers in the error.
#[test]
fn emit_refuses_a_header_that_differs_from_the_declaration() {
    let out_dir = scratch_dir("emit_drift");
    let spec = ExperimentSpec {
        out_dir: Some(out_dir.clone()),
        ..ExperimentSpec::default()
    };
    let schemas = &[("out.csv", "a,b,c")];
    let drifted = Table::with_header("t", "a,b,drifted");
    let err = emca_bench::emit(&spec, schemas, &drifted, "out.csv").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out.csv"), "{msg}");
    assert!(
        msg.contains("a,b,c") && msg.contains("a,b,drifted"),
        "{msg}"
    );
    assert!(!out_dir.join("out.csv").exists(), "refused, yet written");

    emca_bench::emit(&spec, schemas, &Table::with_header("t", "a,b,c"), "out.csv")
        .expect("the declared header passes");
    assert!(emca_harness::validate_csv(&out_dir.join("out.csv"), "a,b,c").is_ok());
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// A file name the scenario does not declare (a figure panel renamed by
/// a non-default `--policy`) is written unchecked.
#[test]
fn emit_writes_an_undeclared_file_unchecked() {
    let out_dir = scratch_dir("emit_undeclared");
    let spec = ExperimentSpec {
        out_dir: Some(out_dir.clone()),
        ..ExperimentSpec::default()
    };
    let table = Table::with_header("t", "x,y");
    emca_bench::emit(
        &spec,
        &[("out.csv", "a,b,c")],
        &table,
        "panel_hillclimb.csv",
    )
    .expect("undeclared names are not checked");
    let csv = std::fs::read_to_string(out_dir.join("panel_hillclimb.csv")).unwrap();
    assert_eq!(csv, "x,y\n");
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The threads backend has no hardware counters; the per-socket figures
/// (fig14/15/17, via `scenarios::per_socket`) must still fill every
/// declared column — a row built from the empty counter vector would
/// put fig15's total under `l3_misses_S0`.
#[test]
fn per_socket_figures_fill_every_column_on_threads() {
    let out_dir = scratch_dir("threads_sockets");
    let spec = ExperimentSpec {
        scenario: "fig15".into(),
        sf: Some(0.002),
        users: Some(2),
        iters: Some(1),
        backend: emca_harness::Backend::Threads,
        out_dir: Some(out_dir.clone()),
        ..ExperimentSpec::default()
    };
    scenarios::registry().run("fig15", &spec).expect("fig15");
    let csv = std::fs::read_to_string(out_dir.join("fig15_selectivity.csv")).unwrap();
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells[2..], ["0", "0", "0", "0", "0"], "{line}");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// A scenario whose CSV cannot be written fails, naming the path: a
/// run that exits 0 must have left its declared files behind.
#[test]
fn an_unwritable_out_dir_fails_the_scenario() {
    let dir = scratch_dir("unwritable");
    let blocker = dir.join("not_a_dir");
    std::fs::write(&blocker, "").expect("create blocker file");
    let spec = ExperimentSpec {
        scenario: "fig06".into(),
        sf: Some(0.002),
        out_dir: Some(blocker.join("out")),
        ..ExperimentSpec::default()
    };
    let err = scenarios::registry().run("fig06", &spec).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("could not write") && msg.contains("not_a_dir"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_scenario_is_a_listed_error() {
    let registry = scenarios::registry();
    let err = registry
        .run("fig99", &ExperimentSpec::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fig99") && msg.contains("fig04"), "{msg}");
}

/// Every scenario runs at sf=0.002 with a tiny client/iteration budget
/// and emits exactly the CSV files it declares, each matching its
/// declared header. `csv_check` runs last, validating the full freshly
/// generated set end-to-end.
#[test]
fn every_scenario_smokes_at_tiny_scale() {
    let out_dir = std::env::temp_dir().join(format!("emca_scenario_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).expect("create smoke dir");

    let spec = ExperimentSpec {
        sf: Some(0.002),
        users: Some(2),
        iters: Some(1),
        out_dir: Some(PathBuf::from(&out_dir)),
        ..ExperimentSpec::default()
    };
    let registry = scenarios::registry();
    let mut order: Vec<&str> = EXPECTED
        .iter()
        .copied()
        .filter(|n| *n != "csv_check")
        .collect();
    order.push("csv_check"); // validates everything the others wrote
    for name in order {
        let mut spec = spec.clone();
        spec.scenario = name.to_string();
        if name.starts_with("serve_") || name == "chaos_serve" {
            // The serving layer replaces the closed-loop client knobs
            // with an open-loop schedule; pin a tiny one so the smoke
            // stays quick.
            spec.set("arrival", "poisson:120").unwrap();
            spec.set("duration", "0.25").unwrap();
        }
        // One generic spec drives every scenario; drop the knobs each
        // one does not honour (the --prune-unsupported path).
        registry.prune_unsupported(name, &mut spec);
        registry
            .run(name, &spec)
            .unwrap_or_else(|e| panic!("scenario {name} failed at tiny scale: {e}"));
        let scenario = registry.get(name).expect("registered");
        for (file, header) in scenario.schemas {
            emca_harness::validate_csv(&out_dir.join(file), header)
                .unwrap_or_else(|e| panic!("scenario {name}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The policy override threads through a scenario end-to-end: the
/// mechanism slot's series is relabelled and still emits the declared
/// schema.
#[test]
fn policy_override_reaches_the_scenario_output() {
    let out_dir = std::env::temp_dir().join(format!("emca_scenario_policy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).expect("create dir");
    let spec = ExperimentSpec {
        scenario: "fig13".into(),
        sf: Some(0.002),
        users: Some(2),
        iters: Some(1),
        policy: Some(elastic_core::PolicyId::HillClimb),
        out_dir: Some(PathBuf::from(&out_dir)),
        ..ExperimentSpec::default()
    };
    scenarios::registry().run("fig13", &spec).expect("fig13");
    let csv = std::fs::read_to_string(out_dir.join("fig13_sched_metrics.csv")).unwrap();
    assert!(
        csv.contains("HillClimb"),
        "mechanism slot must carry the policy label:\n{csv}"
    );
    assert!(
        !csv.contains("Adaptive"),
        "the adaptive slot was replaced:\n{csv}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
