//! Scale-factor gate: the paper's own scale (`--sf 1`) must stay
//! tractable end-to-end. Opt-in (`EMCA_SF_GATE=1`) because a full sf-1
//! `tab_summary` costs minutes, not seconds — the default-scale wall
//! budget in CI (`EMCA_WALL_BUDGET_S` on `emca check --fidelity`) is
//! the everyday tripwire; this test is the direct claim check behind
//! the ROADMAP's sf-1 item.
//!
//! Beyond the wall budget, the generated CSVs are diffed byte-for-byte
//! against the pinned set in `results/sf1/` — the sim backend is
//! deterministic, so *any* drift at the paper's scale is a behaviour
//! change that must be reviewed, not just one that crosses a bound.
//! After an intentional change, regenerate the pinned set with:
//!
//! ```sh
//! emca run tab_summary --sf 1 --users 64 --out-dir results/sf1
//! ```
//!
//! Run with:
//!
//! ```sh
//! EMCA_SF_GATE=1 cargo test --release -p emca-bench --test sf_gate -- --nocapture
//! ```

use emca_harness::ExperimentSpec;
use std::path::Path;

/// Byte-diffs every CSV the scenario declares against the pinned sf-1
/// set, returning the list of divergences.
fn diff_pinned(generated: &Path, pinned: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let registry = emca_bench::scenarios::registry();
    let schemas = registry
        .iter()
        .find(|s| s.name == "tab_summary")
        .expect("tab_summary is registered")
        .schemas;
    for (name, _) in schemas {
        let got = std::fs::read_to_string(generated.join(name));
        let want = std::fs::read_to_string(pinned.join(name));
        match (got, want) {
            (Err(e), _) => problems.push(format!("{name}: generated file unreadable: {e}")),
            (_, Err(e)) => problems.push(format!(
                "{name}: pinned file unreadable ({e}) — regenerate results/sf1/ \
                 with `emca run tab_summary --sf 1 --users 64 --out-dir results/sf1`"
            )),
            (Ok(got), Ok(want)) => {
                if got != want {
                    let diverging: Vec<String> = got
                        .lines()
                        .zip(want.lines())
                        .enumerate()
                        .filter(|(_, (g, w))| g != w)
                        .map(|(i, (g, w))| format!("  line {}: got {g:?}, pinned {w:?}", i + 1))
                        .take(5)
                        .collect();
                    problems.push(format!(
                        "{name}: drifted from the pinned sf-1 set\n{}",
                        diverging.join("\n")
                    ));
                }
            }
        }
    }
    problems
}

/// Wall budget for the sf-1 run, seconds (the acceptance bound;
/// override with `EMCA_SF_GATE_BUDGET_S`).
const DEFAULT_BUDGET_S: f64 = 300.0;

#[test]
fn sf1_tab_summary_completes_within_budget() {
    if std::env::var("EMCA_SF_GATE")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        eprintln!("sf_gate: skipped (set EMCA_SF_GATE=1 to run the sf-1 gate)");
        return;
    }
    let budget_s = std::env::var("EMCA_SF_GATE_BUDGET_S")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_BUDGET_S);

    let dir = std::env::temp_dir().join(format!("emca_sf_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = ExperimentSpec {
        sf: Some(1.0),
        users: Some(64),
        out_dir: Some(dir.clone()),
        ..ExperimentSpec::default()
    };
    let registry = emca_bench::scenarios::registry();
    let timer = emca_harness::WallTimer::start("tab_summary@sf1");
    registry
        .run("tab_summary", &spec)
        .expect("sf-1 tab_summary must complete");
    let elapsed = timer.finish();
    let verdict = emca_harness::enforce_wall_budget("tab_summary@sf1", elapsed, budget_s);
    // Diff the run against the pinned sf-1 results before cleaning up.
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/sf1");
    let drift = diff_pinned(&dir, &pinned);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        drift.is_empty(),
        "sf_gate: sf-1 output drifted from the pinned set:\n{}",
        drift.join("\n")
    );
    match verdict {
        Ok(msg) => eprintln!("sf_gate: {msg}"),
        Err(msg) => panic!("sf_gate: {msg}"),
    }
}
