//! The `emca` binary's environment contract: flags are the only spec
//! surface, so a retired `EMCA_*` spelling is refused instead of
//! silently running the default experiment, and `EMCA_WALL_BUDGET_S`
//! budgets every scenario run, not only the fidelity gate.

use std::process::{Command, Output};

/// A small `emca run fig19` (~10 ms of wall time) with one variable set.
fn tiny_run(var: &str, value: &str, tag: &str) -> Output {
    let out_dir = std::env::temp_dir().join(format!("emca_cli_{tag}_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_emca"))
        .args([
            "run", "fig19", "--sf", "0.01", "--users", "2", "--iters", "1",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .env(var, value)
        .output()
        .expect("spawn emca");
    let _ = std::fs::remove_dir_all(&out_dir);
    out
}

#[test]
fn a_retired_spec_variable_is_refused_with_its_flag() {
    let out = tiny_run("EMCA_SF", "1", "retired");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("EMCA_SF is not read (pass --sf instead)"),
        "{err}"
    );
}

#[test]
fn a_blown_wall_budget_fails_the_run() {
    let out = tiny_run("EMCA_WALL_BUDGET_S", "0.001", "budget");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("wall budget blown: fig19"), "{err}");
}
