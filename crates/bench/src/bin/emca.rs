//! `emca` — the single scenario CLI of the reproduction.
//!
//! ```text
//! emca list [--names]                 list registered scenarios
//! emca run <scenario> [flags]         run one scenario
//! emca sweep <scenario> --over k=v1,v2,... [flags]
//!                                     run a scenario once per value
//! emca check [--fidelity] [flags]     validate results CSVs
//!                                     (+ the tab_summary fidelity gate)
//! emca check --lint                   run the workspace lint (emca-lint)
//!                                     and refresh results/lint_report.json
//! emca help                           this text
//! ```
//!
//! Flags mirror the [`ExperimentSpec`] fields; the documented `EMCA_*`
//! environment variables remain as fallbacks and flags override them:
//!
//! ```text
//! --sf <f>  --seed <n>  --users <n>  --iters <n>
//! --policy dense|sparse|adaptive|hillclimb
//! --flavor monetdb|sqlserver
//! --warmup loader|interleave|none
//! --guard off|<threshold>  --interval-ms <ms>
//! --out-dir <dir>  --check  --backend sim|threads
//! --tenants name[:policy=..][:users=..][:weight=..][:cap=..],...
//! --arrival poisson:<qps>|trace:<path>  --duration <s>
//! --admission none|limit:<n>[:queue=<cap>]  --sla-ms <ms>
//! ```
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
use emca_harness::ExperimentSpec;

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
                                     (emca-lint, see docs/LINTS.md) instead
  help                               show this text

flags (override the EMCA_* environment fallbacks):
  --sf <f> --seed <n> --users <n> --iters <n>
  --policy dense|sparse|adaptive|hillclimb
  --flavor monetdb|sqlserver --warmup loader|interleave|none
  --guard off|<threshold> --interval-ms <ms> --out-dir <dir> --check
  --backend sim|threads              execute on simulated workers or real OS threads
  --tenants name[:policy=..][:users=..][:weight=..][:cap=..],...
                                     per-tenant overrides (mt_* scenarios)
  --arrival poisson:<qps>|trace:<path>  open-loop schedule (serve_* scenarios)
  --duration <s> --sla-ms <ms>       offered-load window and latency SLA
  --admission none|limit:<n>[:queue=<cap>]
                                     front-door policy of the admitted series
  --faults panic:worker=<n>@<t>,stall:worker=<n>@<t>:dur=<d>,badquery:rate=<p>
                                     deterministic fault plan (chaos_* scenarios,
                                     or any run; unset = fault plane inert)
  --churn <n>[:resident=<r>][:skew=<s>][:spread=<secs>]
                                     generated churn population (mt_churn/mt_zipf)
  --prune-unsupported                drop (with a note) spec keys the scenario
                                     does not honour instead of erroring";

fn fail(msg: &str) -> ! {
    eprintln!("emca: {msg}");
    eprintln!("{USAGE}");
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
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = match arg.as_str() {
            "--sf" => "sf",
            "--seed" => "seed",
            "--users" => "users",
            "--iters" => "iters",
            "--policy" => "policy",
            "--flavor" => "flavor",
            "--warmup" => "warmup",
            "--guard" => "guard",
            "--interval-ms" => "interval_ms",
            "--out-dir" => "out_dir",
            "--tenants" => "tenants",
            "--backend" => "backend",
            "--arrival" => "arrival",
            "--duration" => "duration",
            "--admission" => "admission",
            "--sla-ms" => "sla_ms",
            "--faults" => "faults",
            "--churn" => "churn",
            "--check" => {
                spec.check = true;
                continue;
            }
            _ => {
                rest.push(arg.clone());
                continue;
            }
        };
        let Some(value) = it.next() else {
            fail(&format!("{arg} requires a value"));
        };
        if let Err(e) = spec.set(key, value) {
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

/// Removes `switch` from `rest` if present; returns whether it was.
fn take_switch(rest: &mut Vec<String>, switch: &str) -> bool {
    let before = rest.len();
    rest.retain(|a| a != switch);
    before != rest.len()
}

/// Drops (with a note) every pinned key `name` does not honour — the
/// `--prune-unsupported` path for generic loops that pass one flag set
/// to every scenario.
fn prune_spec(
    registry: &emca_harness::ScenarioRegistry,
    name: &str,
    spec: &mut emca_harness::ExperimentSpec,
) {
    for (key, value) in registry.prune_unsupported(name, spec) {
        eprintln!("emca: {name} does not honour {key}={value}; dropped (--prune-unsupported)");
    }
}

/// Runs one scenario with the wall clock stamped (`[wall] <name>=..s`);
/// returns the elapsed seconds so gates can budget them.
fn run_one(registry: &emca_harness::ScenarioRegistry, name: &str, spec: &ExperimentSpec) -> f64 {
    // Spec problems (a pinned key the scenario ignores) are usage
    // errors — one-line diagnostic, exit 2 — distinct from a scenario
    // that started and then failed (exit 1).
    if let Err(e) = registry.validate_spec(name, spec) {
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
        Some("run") => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                fail("run requires a scenario name (see `emca list`)");
            };
            let mut spec = base_spec();
            spec.scenario = name.clone();
            let mut rest = parse_flags(&mut spec, &args[2..]);
            let prune = take_switch(&mut rest, "--prune-unsupported");
            if let Some(extra) = rest.first() {
                fail(&format!("unknown flag {extra:?}"));
            }
            if registry.get(name).is_none() {
                eprintln!(
                    "emca: unknown scenario {name:?} (valid: {})",
                    registry.names().join(", ")
                );
                std::process::exit(2);
            }
            if prune {
                prune_spec(&registry, name, &mut spec);
            }
            run_one(&registry, name, &spec);
        }
        Some("sweep") => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                fail("sweep requires a scenario name (see `emca list`)");
            };
            let mut spec = base_spec();
            spec.scenario = name.clone();
            let mut rest = parse_flags(&mut spec, &args[2..]);
            let prune = take_switch(&mut rest, "--prune-unsupported");
            let mut over: Option<(String, Vec<String>)> = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--over" {
                    let Some(kv) = it.next() else {
                        fail("--over requires key=v1,v2,...");
                    };
                    let Some((key, values)) = kv.split_once('=') else {
                        fail("--over requires key=v1,v2,...");
                    };
                    over = Some((
                        key.to_string(),
                        values.split(',').map(str::to_string).collect(),
                    ));
                } else {
                    fail(&format!("unknown flag {arg:?}"));
                }
            }
            let Some((key, values)) = over else {
                fail("sweep requires --over key=v1,v2,...");
            };
            if registry.get(name).is_none() {
                fail(&format!(
                    "unknown scenario {name:?} (valid: {})",
                    registry.names().join(", ")
                ));
            }
            for value in &values {
                let mut step = spec.clone();
                if let Err(e) = step.set(&key, value) {
                    fail(&e.to_string());
                }
                if prune {
                    prune_spec(&registry, name, &mut step);
                }
                eprintln!("== sweep {key}={value} ==");
                run_one(&registry, name, &step);
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
                    let Some(s) = registry.get(name) else {
                        fail(&format!(
                            "unknown scenario {name:?} (valid: {})",
                            registry.names().join(", ")
                        ));
                    };
                    for (file, header) in s.csv_schemas() {
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
        Some("help") | Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => fail("missing command"),
    }
}
