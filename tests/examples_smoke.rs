//! Smoke tests for the documented `examples/` entry points.
//!
//! `cargo test` always compiles examples, so the binaries are present
//! next to the test executable (`target/<profile>/examples/`). Running
//! them here keeps the README's entry points from silently rotting: an
//! example that panics, deadlocks the simulated kernel, or stops
//! printing its report fails the suite.

use std::path::PathBuf;
use std::process::Command;

/// Directory holding compiled example binaries for the active profile.
fn examples_dir() -> PathBuf {
    // target/<profile>/deps/examples_smoke-<hash> -> target/<profile>/examples
    let mut dir = std::env::current_exe().expect("current_exe");
    dir.pop(); // deps/
    dir.pop(); // <profile>/
    dir.join("examples")
}

fn run_example(name: &str) -> String {
    run_example_with(name, &[]).0
}

/// Runs an example with command-line arguments; returns its stdout and
/// stderr.
fn run_example_with(name: &str, args: &[&str]) -> (String, String) {
    let exe = examples_dir().join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        exe.is_file(),
        "example binary missing: {} (examples are built by `cargo test`)",
        exe.display()
    );
    let out = Command::new(&exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", exe.display()));
    assert!(
        out.status.success(),
        "{name} exited with {:?}\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("example output must be UTF-8");
    (text(out.stdout), text(out.stderr))
}

#[test]
fn quickstart_runs() {
    let out = run_example("quickstart");
    assert!(out.contains("generated"), "missing data-gen line:\n{out}");
}

#[test]
fn adaptive_vs_os_runs() {
    let out = run_example("adaptive_vs_os");
    assert!(!out.trim().is_empty(), "no output");
}

#[test]
fn custom_metric_runs() {
    let out = run_example("custom_metric");
    assert!(!out.trim().is_empty(), "no output");
}

#[test]
fn energy_budget_runs() {
    let out = run_example("energy_budget");
    assert!(!out.trim().is_empty(), "no output");
}

#[test]
fn selectivity_sweep_runs() {
    let out = run_example("selectivity_sweep");
    assert!(!out.trim().is_empty(), "no output");
}

#[test]
fn custom_policy_runs() {
    let out = run_example("custom_policy");
    assert!(
        out.contains("widest-first"),
        "custom policy must appear in the report:\n{out}"
    );
}

#[test]
fn custom_policy_runs_on_real_threads() {
    // The same user policy on the threads backend: the pool's
    // controller takes `RunConfig::custom_policy` like the simulated
    // mechanism does.
    let (out, err) = run_example_with("custom_policy", &["backend=threads"]);
    assert!(
        out.contains("widest-first"),
        "custom policy must appear in the report:\n{out}"
    );
    let spec = err.lines().find(|l| l.starts_with("[spec]"));
    assert!(
        spec.is_some_and(|l| l.split(' ').any(|kv| kv == "backend=threads")),
        "the run must be on threads, logged as its spec line:\n{err}"
    );
}
