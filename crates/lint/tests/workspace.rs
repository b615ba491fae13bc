//! End-to-end: `run_workspace` over a seeded temp tree must surface a
//! violation of every rule (this is what makes `emca check --lint` and
//! the standalone binary exit non-zero), and a clean tree must come
//! back clean.

use std::fs;
use std::path::PathBuf;

const LINT_TOML: &str = r#"
[paths]
roots = ["crates"]
exclude = []

[determinism]
paths = ["crates/demo/src"]
allow = []

[float_ordering]
allow = []

[panic_freedom]
files = ["crates/demo/src/lib.rs"]

[lock_order]
order = ["state", "results"]
"#;

/// Creates a throwaway repo root under the test temp dir. Each test
/// uses its own subdirectory, so parallel tests never collide.
fn scratch_repo(name: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("emca-lint-ws-{name}"));
    let src = root.join("crates/demo/src");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&src).expect("create scratch tree");
    fs::write(root.join("lint.toml"), LINT_TOML).expect("write lint.toml");
    fs::write(src.join("lib.rs"), lib_rs).expect("write lib.rs");
    root
}

#[test]
fn seeded_violations_of_every_rule_are_found() {
    let lib = "\
fn run(s: &Shared, o: Option<u32>, v: &mut [f64]) {
    let t = std::time::Instant::now();
    v.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let r = s.results.lock();
    let g = s.state.lock();
    let _ = (t, r, g, o.unwrap());
}
";
    let root = scratch_repo("seeded", lib);
    let outcome = emca_lint::run_workspace(&root).expect("workspace lints");
    assert!(!outcome.clean());
    for rule in [
        "determinism",
        "float-ordering",
        "panic-freedom",
        "lock-order",
    ] {
        assert!(
            outcome.diagnostics.iter().any(|d| d.rule == rule),
            "no {rule} diagnostic in {:#?}",
            outcome.diagnostics
        );
    }
    // Diagnostics carry the repo-relative path and a real line.
    assert!(outcome
        .diagnostics
        .iter()
        .all(|d| d.path == "crates/demo/src/lib.rs" && d.line > 0));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_clean_tree_is_clean_and_reports_its_waivers() {
    let lib = "\
fn run(v: &mut [f64]) {
    v.sort_by(|x, y| x.total_cmp(y));
    // emca-lint: allow(determinism) — scratch fixture proving waivers surface in the outcome
    let t = std::time::Instant::now();
    let _ = t;
}
";
    let root = scratch_repo("clean", lib);
    let outcome = emca_lint::run_workspace(&root).expect("workspace lints");
    assert!(outcome.clean(), "{:#?}", outcome.diagnostics);
    assert_eq!(outcome.files, vec!["crates/demo/src/lib.rs"]);
    assert_eq!(outcome.waivers.len(), 1);
    assert_eq!(outcome.waivers[0].2, "determinism");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_table_naming_a_missing_file_is_refused() {
    let root = scratch_repo("stale", "fn run() {}\n");
    for (from, to) in [
        (
            "paths = [\"crates/demo/src\"]\nallow = []",
            "paths = [\"crates/demo/src\"]\nallow = [\"crates/demo/src/gone.rs\"]",
        ),
        (
            "[float_ordering]\nallow = []",
            "[float_ordering]\nallow = [\"crates/demo/src/gone.rs\"]",
        ),
        (
            "files = [\"crates/demo/src/lib.rs\"]",
            "files = [\"crates/demo/src/gone.rs\"]",
        ),
    ] {
        let stale = LINT_TOML.replacen(from, to, 1);
        assert_ne!(stale, LINT_TOML, "fixture edit {from:?} must apply");
        fs::write(root.join("lint.toml"), stale).expect("write lint.toml");
        let Err(err) = emca_lint::run_workspace(&root) else {
            panic!("a lint.toml entry naming a missing file must be refused ({to:?})");
        };
        assert!(err.contains("crates/demo/src/gone.rs"), "{err}");
    }
    let _ = fs::remove_dir_all(&root);
}
