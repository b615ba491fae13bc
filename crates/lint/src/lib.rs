//! # emca-lint
//!
//! A dependency-free, token-level static analyzer for the emca
//! workspace. The workspace is offline/vendored, so there is no `syn`
//! here: a hand-rolled lexer (`lexer`) that is exact about raw strings,
//! nested block comments, char-vs-lifetime and byte literals feeds a
//! small rule engine (`rules`) that walks every `crates/**/src` file
//! and enforces the project invariants the test suite cannot see:
//!
//! - **determinism** — no wall clock / ambient RNG / default-hasher
//!   maps on the crates whose outputs are byte-identity gated;
//! - **float-ordering** — `total_cmp`, never `partial_cmp`;
//! - **panic-freedom** — no `unwrap`/`expect`/`panic!` on the worker
//!   loop and pool actuation paths;
//! - **lock-order** — nested `.lock()` acquisitions follow the table
//!   declared in `lint.toml`.
//!
//! What a test *can* see is left to the tests: that a results CSV's
//! header matches its scenario's declaration is enforced where the file
//! is written (`emca_bench::emit`) and exercised for every scenario by
//! `crates/bench/tests/scenarios.rs`.
//!
//! Violations are fixed or *waived* with an inline justification
//! (`// emca-lint: allow(<rule>) — <why>`); see `docs/LINTS.md`.
//!
//! Entry points: `emca check --lint` and `cargo run -p emca-lint`.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use config::Config;
use diag::Diagnostic;

/// The result of linting a tree: everything the report and the exit
/// code need.
pub struct LintOutcome {
    /// Repo-relative paths scanned, sorted.
    pub files: Vec<String>,
    /// Surviving diagnostics (violations + waiver hygiene), sorted by
    /// path, line, rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Used waivers, as (path, line, rule, justification), sorted.
    pub waivers: Vec<(String, u32, String, String)>,
}

impl LintOutcome {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints one source file against the config. `path` is the
/// repo-relative path (forward slashes) the rules and waivers key on.
/// Exposed for the fixture tests.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> (Vec<Diagnostic>, Vec<diag::Waiver>) {
    let tokens = lexer::lex(src);
    let in_test = rules::test_mask(&tokens);
    let ctx = rules::FileCtx {
        path,
        tokens: &tokens,
        in_test: &in_test,
    };
    let (mut waivers, mut diags) = diag::collect_waivers(path, &tokens);
    let found = rules::run_all(&ctx, cfg);
    diags.extend(diag::apply_waivers(found, &mut waivers));
    diags.extend(diag::unused_waiver_diags(path, &waivers));
    (diags, waivers)
}

/// Walks the configured roots under `repo_root` and lints every `.rs`
/// file. Returns an error only for environment problems (unreadable
/// config/files, a config entry naming a file that does not exist) —
/// violations are data, not errors.
pub fn run_workspace(repo_root: &Path) -> Result<LintOutcome, String> {
    let cfg_path = repo_root.join("lint.toml");
    let cfg_src =
        std::fs::read_to_string(&cfg_path).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&cfg_src)?;
    // An exemption or coverage entry naming a deleted file would go
    // stale unnoticed: refuse it.
    for (section, key) in [
        ("determinism", "allow"),
        ("float_ordering", "allow"),
        ("panic_freedom", "files"),
    ] {
        if let Some(gone) = cfg
            .list(section, key)
            .iter()
            .find(|p| !repo_root.join(p).is_file())
        {
            return Err(format!(
                "{}: [{section}] {key} names {gone}, which does not exist",
                cfg_path.display()
            ));
        }
    }

    let mut files = Vec::new();
    for root in cfg.list("paths", "roots") {
        collect_rs_files(repo_root, &repo_root.join(root), &cfg, &mut files)?;
    }
    files.sort();

    let mut diagnostics = Vec::new();
    let mut waivers = Vec::new();
    for rel in &files {
        let src =
            std::fs::read_to_string(repo_root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let (diags, ws) = lint_source(rel, &src, &cfg);
        diagnostics.extend(diags);
        waivers.extend(
            ws.into_iter()
                .filter(|w| w.used)
                .map(|w| (rel.clone(), w.line, w.rule, w.justification)),
        );
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    waivers.sort();
    Ok(LintOutcome {
        files,
        diagnostics,
        waivers,
    })
}

fn collect_rs_files(
    repo_root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let rel = match p.strip_prefix(repo_root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if cfg
            .list("paths", "exclude")
            .iter()
            .any(|x| rel == *x || rel.starts_with(&format!("{x}/")))
        {
            continue;
        }
        if p.is_dir() {
            collect_rs_files(repo_root, &p, cfg, out)?;
        } else if rel.ends_with(".rs") && rel.contains("/src/") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Finds the repo root by walking upward from `start` until a
/// `lint.toml` appears.
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
