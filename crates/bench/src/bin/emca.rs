//! `emca` — the single scenario CLI of the reproduction.
//!
//! ```text
//! emca list [--names]                 list registered scenarios
//! emca run <scenario> [flags]         run one scenario
//! emca sweep <scenario> --over k=v1,v2,... [flags]
//!                                     run a scenario once per value
//! emca check [--fidelity] [flags]     validate results CSVs
//!                                     (+ the tab_summary fidelity gate)
//! emca check --lint                   run the workspace lint (emca-lint,
//!                                     four rules) and refresh
//!                                     results/lint_report.json
//! emca help                           this text
//! ```
//!
//! Flags mirror the [`ExperimentSpec`] fields, one per row of the key
//! table ([`SPEC_KEYS`]), and are the only way to configure a run.
//! `emca help` lists every flag with its value grammar and an example,
//! and the few run-limit variables the environment may carry
//! (`emca_harness::timing::ENV_VARS`); any other `EMCA_*` variable is
//! refused (exit 2) rather than silently ignored.
//!
//! With `EMCA_WALL_BUDGET_S` set, every scenario run — each `run` or
//! `sweep` step and both `check` runs — fails (exit 1) when it finishes
//! over budget.
//!
//! `run` and `sweep` also take `--prune-unsupported`: instead of
//! rejecting a spec that pins a key the scenario ignores, drop the key
//! (with a note) and run — the switch for generic CI loops that pass
//! one flag set to every scenario.
//!
//! Typical invocations:
//!
//! ```sh
//! cargo run --release -p emca-bench --bin emca -- run fig19 --policy adaptive --sf 0.25
//! cargo run --release -p emca-bench --bin emca -- run serve_latency_curve --check
//! cargo run --release -p emca-bench --bin emca -- sweep fig07 --over policy=dense,sparse,adaptive
//! cargo run --release -p emca-bench --bin emca -- check --fidelity --sf 0.25
//! ```

use emca_bench::scenarios;
use emca_harness::timing::{ENV_VARS, WALL_BUDGET_ENV};
use emca_harness::{ExperimentSpec, Scenario, ScenarioRegistry, SpecKey, Surface, SPEC_KEYS};

const USAGE: &str = "\
usage: emca <command> [...]

commands:
  list [--names]                     list scenarios (--names: bare names only)
  run <scenario> [flags]             run one scenario
  sweep <scenario> --over k=v1,v2,.. run once per value of one spec key
  check [--fidelity] [flags]         validate declared results CSVs;
                                     --fidelity also runs the tab_summary gate;
                                     --scenario <name> (repeatable) restricts
                                     the check to that scenario's CSVs;
                                     --lint runs the workspace static analysis
                                     (emca-lint's four rules, docs/LINTS.md)
                                     instead
  help                               show this text

flags:
";

/// `emca help`: the commands above, one entry per [`SPEC_KEYS`] row —
/// flag, value grammar, meaning and an example — then the environment
/// variables of [`ENV_VARS`].
fn usage() -> String {
    let mut out = String::from(USAGE);
    for key in SPEC_KEYS {
        let Some(flag) = key.flag() else { continue };
        let help = key.help;
        out += &match key.surface {
            Surface::Value(grammar) => {
                let example = key.example;
                format!("  {flag} {grammar}\n      {help} [e.g. {example}]\n")
            }
            _ => format!("  {flag}\n      {help}\n"),
        };
    }
    out += "  --prune-unsupported\n      \
        drop (with a note) spec keys the scenario does not honour instead of erroring\n\n\
        environment (any other EMCA_* variable is refused):\n";
    for (var, help) in ENV_VARS {
        out += &format!("  {var}={help}\n");
    }
    out
}

/// A usage error: exit 2, the diagnostic last so the flag list above it
/// cannot scroll it away.
fn fail(msg: &str) -> ! {
    eprintln!("{}\n", usage());
    eprintln!("emca: {msg}");
    std::process::exit(2);
}

/// `emca check --lint`: runs the emca-lint engine over the workspace,
/// prints every diagnostic, refreshes `results/lint_report.json`, and
/// exits non-zero on violations. Exclusive of the CSV check — the lint
/// reads source trees, not results files.
fn run_lint() {
    let root = emca_harness::results_path("")
        .parent()
        .map(std::path::Path::to_path_buf)
        .filter(|r| r.join("lint.toml").exists())
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|cwd| emca_lint::find_repo_root(&cwd))
        })
        .unwrap_or_else(|| fail("check --lint: no lint.toml found (run from inside the repo)"));
    let outcome = match emca_lint::run_workspace(&root) {
        Ok(o) => o,
        Err(e) => fail(&format!("check --lint: {e}")),
    };
    for d in &outcome.diagnostics {
        println!("{d}");
    }
    let report_path = root.join("results").join("lint_report.json");
    if let Err(e) = std::fs::write(&report_path, emca_lint::report::render(&outcome)) {
        fail(&format!(
            "check --lint: writing {}: {e}",
            report_path.display()
        ));
    }
    println!(
        "check --lint: {} files, {} violations, {} waivers -> {}",
        outcome.files.len(),
        outcome.diagnostics.len(),
        outcome.waivers.len(),
        report_path.display()
    );
    if !outcome.clean() {
        std::process::exit(1);
    }
}

/// Maps `--flag value` pairs onto spec fields; returns leftovers that
/// are not spec flags (command-specific switches).
fn parse_flags(spec: &mut ExperimentSpec, args: &[String]) -> Vec<String> {
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = SpecKey::for_flag(arg) else {
            rest.push(arg.clone());
            continue;
        };
        let value = match key.surface {
            Surface::Switch => "1",
            _ => match it.next() {
                Some(value) => value,
                None => fail(&format!("{arg} requires a value")),
            },
        };
        if let Err(e) = spec.set(key.name, value) {
            fail(&e.to_string());
        }
    }
    rest
}

/// Takes `--over key=v1,v2,...` out of `rest`: the swept key and its
/// values.
fn take_over(rest: &mut Vec<String>) -> (String, Vec<String>) {
    let Some(at) = rest.iter().position(|a| a == "--over") else {
        fail("sweep requires --over key=v1,v2,...");
    };
    let Some((key, values)) = rest.get(at + 1).and_then(|kv| kv.split_once('=')) else {
        fail("--over requires key=v1,v2,...");
    };
    let over = (
        key.to_string(),
        values.split(',').map(str::to_string).collect(),
    );
    rest.drain(at..at + 2);
    over
}

/// Drops (with a note) every pinned key `name` does not honour — the
/// `--prune-unsupported` path for generic loops that pass one flag set
/// to every scenario.
fn prune_spec(registry: &ScenarioRegistry, name: &str, spec: &mut ExperimentSpec) {
    for (key, value) in registry.prune_unsupported(name, spec) {
        eprintln!("emca: {name} does not honour {key}={value}; dropped (--prune-unsupported)");
    }
}

/// The registered scenario `name`, or the usage error listing the
/// valid names.
fn known<'r>(registry: &'r ScenarioRegistry, name: &str) -> &'r Scenario {
    registry.get(name).unwrap_or_else(|| {
        let valid = registry.names().join(", ");
        fail(&format!("unknown scenario {name:?} (valid: {valid})"))
    })
}

/// Runs one scenario with the wall clock stamped (`[wall] <name>=..s`)
/// and, when `EMCA_WALL_BUDGET_S` is set, budgeted: a run that finished
/// over budget exits 1.
fn run_one(registry: &ScenarioRegistry, name: &str, spec: &ExperimentSpec) {
    let scenario = known(registry, name);
    // Spec problems (a pinned key the scenario or the backend ignores)
    // are usage errors — one-line diagnostic, exit 2 — distinct from a
    // scenario that started and then failed (exit 1).
    let valid = registry.validate_spec(name, spec);
    if let Err(e) = valid.and_then(|()| spec.validate_backend()) {
        eprintln!("emca run {name}: {e}");
        std::process::exit(2);
    }
    let budget = emca_harness::seconds_from_env(WALL_BUDGET_ENV).unwrap_or_else(|e| fail(&e));
    spec.log_resolved();
    let timer = emca_harness::WallTimer::start(name);
    if let Err(e) = (scenario.run)(spec) {
        eprintln!("emca run {name}: {e}");
        std::process::exit(1);
    }
    let elapsed = timer.finish();
    let Some(budget) = budget else { return };
    match emca_harness::enforce_wall_budget(name, elapsed, budget) {
        Ok(msg) => eprintln!("emca: {msg}"),
        Err(blown) => {
            eprintln!("emca run {name}: {blown}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = emca_harness::refuse_stray_vars() {
        fail(&e);
    }
    let registry = scenarios::registry();
    match args.first().map(String::as_str) {
        Some("list") => {
            let names_only = args.iter().any(|a| a == "--names");
            if names_only {
                for name in registry.names() {
                    println!("{name}");
                }
            } else {
                let width = registry.names().iter().map(|n| n.len()).max().unwrap_or(0);
                for s in registry.iter() {
                    println!("{:width$}  {}", s.name, s.about);
                }
            }
        }
        Some(cmd @ ("run" | "sweep")) => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                fail(&format!("{cmd} requires a scenario name (see `emca list`)"));
            };
            let mut spec = ExperimentSpec::for_scenario(name.clone());
            let mut rest = parse_flags(&mut spec, &args[2..]);
            let n_args = rest.len();
            rest.retain(|a| a != "--prune-unsupported");
            let prune = rest.len() != n_args;
            let over = (cmd == "sweep").then(|| take_over(&mut rest));
            if let Some(extra) = rest.first() {
                fail(&format!("unknown flag {extra:?}"));
            }
            let run_step = |mut step: ExperimentSpec| {
                if prune {
                    prune_spec(&registry, name, &mut step);
                }
                run_one(&registry, name, &step);
            };
            // `run` is one step; `sweep` is one per `--over` value.
            let Some((key, values)) = over else {
                return run_step(spec);
            };
            for value in &values {
                let mut step = spec.clone();
                if let Err(e) = step.set(&key, value) {
                    fail(&e.to_string());
                }
                eprintln!("== sweep {key}={value} ==");
                run_step(step);
            }
        }
        Some("check") => {
            let mut spec = ExperimentSpec::default();
            let rest = parse_flags(&mut spec, &args[1..]);
            let mut fidelity = false;
            let mut lint = false;
            let mut only: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--fidelity" => fidelity = true,
                    "--lint" => lint = true,
                    "--scenario" => match it.next() {
                        Some(name) => only.push(name.clone()),
                        None => fail("--scenario requires a scenario name"),
                    },
                    other => fail(&format!("unknown flag {other:?}")),
                }
            }
            if lint {
                run_lint();
                return;
            }
            if !only.is_empty() {
                // Restricted check: validate only the named scenarios'
                // declared CSVs (smoke jobs that emit a subset).
                let mut checked = 0usize;
                let mut problems = 0usize;
                for name in &only {
                    for (file, header) in known(&registry, name).schemas {
                        checked += 1;
                        if let Err(e) = emca_harness::validate_csv(&spec.csv_path(file), header) {
                            eprintln!("emca check: {e}");
                            problems += 1;
                        }
                    }
                }
                if problems > 0 {
                    eprintln!("emca check: {problems} schema problem(s)");
                    std::process::exit(1);
                }
                println!(
                    "emca check: {checked} file(s) validate for {}",
                    only.join(", ")
                );
                return;
            }
            // `check` drives fixed scenarios with one flag set (the
            // fidelity gate pins scale that way), so flags one of them
            // does not honour are pruned for it, not hard errors —
            // `csv_check` honours none.
            let mut csv_spec = spec.clone();
            csv_spec.scenario = "csv_check".to_string();
            prune_spec(&registry, "csv_check", &mut csv_spec);
            run_one(&registry, "csv_check", &csv_spec);
            if fidelity {
                let mut spec = spec.clone();
                spec.scenario = "tab_summary".to_string();
                spec.check = true;
                prune_spec(&registry, "tab_summary", &mut spec);
                run_one(&registry, "tab_summary", &spec);
            }
        }
        Some("help") | Some("--help") | Some("-h") => println!("{}", usage()),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => fail("missing command"),
    }
}
