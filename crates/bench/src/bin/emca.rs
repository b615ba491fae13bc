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
//! table ([`SPEC_KEYS`]); the documented `EMCA_*` environment variables
//! remain as fallbacks and flags override them. `emca help` lists every
//! flag with its variable, value grammar and an example.
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
//! EMCA_SF=0.25 cargo run --release -p emca-bench --bin emca -- check --fidelity
//! ```

use emca_bench::scenarios;
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

flags (override the EMCA_* environment fallbacks):
";

/// `emca help`: the commands above, then one entry per [`SPEC_KEYS`]
/// row — flag, value grammar, meaning, variable and an example.
fn usage() -> String {
    let mut out = String::from(USAGE);
    for key in SPEC_KEYS {
        let (Some(flag), Some(var)) = (key.flag(), key.env()) else {
            continue;
        };
        let help = key.help;
        out += &match key.surface {
            Surface::Value(grammar) => {
                let example = key.example;
                format!("  {flag} {grammar}\n      {help} [{var}; e.g. {example}]\n")
            }
            _ => format!("  {flag}\n      {help} [{var}=1]\n"),
        };
    }
    out + "  --prune-unsupported\n      \
        drop (with a note) spec keys the scenario does not honour instead of erroring"
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

fn base_spec() -> ExperimentSpec {
    match emca_harness::config::from_env() {
        Ok(spec) => spec,
        Err(e) => fail(&e.to_string()),
    }
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
fn known<'r>(registry: &'r ScenarioRegistry, name: &str) -> &'r dyn Scenario {
    registry.get(name).unwrap_or_else(|| {
        let valid = registry.names().join(", ");
        fail(&format!("unknown scenario {name:?} (valid: {valid})"))
    })
}

/// Runs one scenario with the wall clock stamped (`[wall] <name>=..s`);
/// returns the elapsed seconds so gates can budget them.
fn run_one(registry: &ScenarioRegistry, name: &str, spec: &ExperimentSpec) -> f64 {
    // Spec problems (a pinned key the scenario or the backend ignores)
    // are usage errors — one-line diagnostic, exit 2 — distinct from a
    // scenario that started and then failed (exit 1).
    let valid = registry.validate_spec(name, spec);
    if let Err(e) = valid.and_then(|()| spec.validate_backend()) {
        eprintln!("emca run {name}: {e}");
        std::process::exit(2);
    }
    spec.log_resolved();
    let timer = emca_harness::WallTimer::start(name);
    if let Err(e) = registry.run(name, spec) {
        eprintln!("emca run {name}: {e}");
        std::process::exit(1);
    }
    timer.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
                    println!("{:width$}  {}", s.name(), s.about());
                }
            }
        }
        Some(cmd @ ("run" | "sweep")) => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                fail(&format!("{cmd} requires a scenario name (see `emca list`)"));
            };
            let mut spec = base_spec();
            spec.scenario = name.clone();
            let mut rest = parse_flags(&mut spec, &args[2..]);
            let n_args = rest.len();
            rest.retain(|a| a != "--prune-unsupported");
            let prune = rest.len() != n_args;
            let over = (cmd == "sweep").then(|| take_over(&mut rest));
            if let Some(extra) = rest.first() {
                fail(&format!("unknown flag {extra:?}"));
            }
            known(&registry, name);
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
            let mut spec = base_spec();
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
                    for (file, header) in known(&registry, name).csv_schemas() {
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
            // `check` inherits the ambient EMCA_* env (the fidelity
            // gate pins scale that way); the scenarios it drives are
            // fixed, so ambient keys they don't honour are pruned, not
            // hard errors — only `run`/`sweep` treat pins as explicit.
            let mut csv_spec = spec.clone();
            csv_spec.scenario = "csv_check".to_string();
            prune_spec(&registry, "csv_check", &mut csv_spec);
            run_one(&registry, "csv_check", &csv_spec);
            if fidelity {
                let mut spec = spec.clone();
                spec.scenario = "tab_summary".to_string();
                spec.check = true;
                prune_spec(&registry, "tab_summary", &mut spec);
                let elapsed = run_one(&registry, "tab_summary", &spec);
                // Wall budget (EMCA_WALL_BUDGET_S): the fidelity gate
                // doubles as the hot-path regression tripwire.
                match emca_harness::wall_budget_from_env() {
                    Err(e) => fail(&e),
                    Ok(Some(budget)) => {
                        match emca_harness::enforce_wall_budget("tab_summary", elapsed, budget) {
                            Ok(msg) => eprintln!("emca check: {msg}"),
                            Err(msg) => {
                                eprintln!("emca check: {msg}");
                                std::process::exit(1);
                            }
                        }
                    }
                    Ok(None) => {}
                }
            }
        }
        Some("help") | Some("--help") | Some("-h") => println!("{}", usage()),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => fail("missing command"),
    }
}
