//! `results/` CSV schema check (CI early job): validates that every
//! results file the registry's scenarios declare exists, has the
//! expected header, and that every data row matches the header's column
//! count. Catches truncated writes and accidental schema drift before
//! the expensive jobs run.
//!
//! The schemas are single-sourced from each scenario's declaration
//! (`Scenario::schemas`); validation itself is
//! `emca_harness::validate_csv`, shared with the scenario smoke tests.

use super::ScenarioResult;
use emca_harness::ExperimentSpec;

/// Declared CSV outputs: none (this scenario only reads).
pub const SCHEMAS: &[(&str, &str)] = &[];

/// Runs the scenario: validates the spec's output directory (the
/// committed `results/` by default).
pub fn run(spec: &ExperimentSpec) -> ScenarioResult {
    let dir = spec.csv_path("");
    let mut problems = super::check_results(&dir);
    let lint_report = dir.join("lint_report.json");
    if lint_report.exists() {
        match std::fs::read_to_string(&lint_report) {
            Ok(body) => problems.extend(
                check_lint_report(&body)
                    .into_iter()
                    .map(|p| format!("lint_report.json: {p}")),
            ),
            Err(e) => problems.push(format!("lint_report.json: unreadable: {e}")),
        }
    }
    if problems.is_empty() {
        println!(
            "csv_check: {} results files validate",
            super::declared_csv_count()
        );
        Ok(())
    } else {
        for p in &problems {
            eprintln!("csv_check: {p}");
        }
        Err(format!("{} schema problem(s)", problems.len()).into())
    }
}

/// Validates the committed lint report (`emca-lint`'s output): the
/// scalar fields must be present, `violations` must be `0` (a report
/// recording violations must never be committed), and every waiver
/// entry must carry file/line/rule/justification. Line-oriented — the
/// report writer emits one waiver per line, so no JSON parser is needed.
pub fn check_lint_report(body: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for field in [
        "\"version\"",
        "\"files_scanned\"",
        "\"rules\"",
        "\"waivers\"",
    ] {
        if !body.contains(field) {
            problems.push(format!("missing field {field}"));
        }
    }
    match body.lines().find(|l| l.contains("\"violations\"")) {
        None => problems.push("missing field \"violations\"".to_string()),
        Some(line) if !line.contains(": 0") => {
            problems.push(format!(
                "committed report records violations: {}",
                line.trim()
            ));
        }
        Some(_) => {}
    }
    for (i, line) in body
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.contains("\"rule\""))
        .enumerate()
    {
        for field in ["\"file\"", "\"line\"", "\"rule\"", "\"justification\""] {
            if !line.contains(field) {
                problems.push(format!("waiver {i}: missing field {field}"));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::check_lint_report;

    #[test]
    fn lint_report_accepts_clean_report() {
        let good = r#"{
  "version": 1,
  "files_scanned": 102,
  "rules": ["determinism", "float-ordering"],
  "violations": 0,
  "waivers": [
    {"file": "crates/dbms/src/exec/par.rs", "line": 42, "rule": "panic-freedom", "justification": "contained by catch_unwind"}
  ]
}
"#;
        assert!(check_lint_report(good).is_empty());
    }

    #[test]
    fn lint_report_rejects_violations_and_bare_waivers() {
        let dirty = r#"{
  "version": 1,
  "files_scanned": 5,
  "rules": [],
  "violations": 3,
  "waivers": [
    {"file": "x.rs", "line": 1, "rule": "determinism"}
  ]
}
"#;
        let problems = check_lint_report(dirty);
        assert!(
            problems.iter().any(|p| p.contains("violations")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("justification")),
            "{problems:?}"
        );
        assert!(!check_lint_report("{}").is_empty());
    }
}
