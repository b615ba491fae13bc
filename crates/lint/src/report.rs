//! The committed lint report: `results/lint_report.json`.
//!
//! Written deterministically (sorted entries, no timestamps, no host
//! data) so the file is byte-stable across runs and CI can pin it with
//! `git diff --exit-code` — the report in the tree is always the report
//! of the tree. The format is line-oriented on purpose: the workspace
//! has no JSON dependency, and `csv_check::check_lint_report` validates
//! it the same way it validates `bench.json`.

use crate::LintOutcome;

/// The rule ids the engine ships, in report order.
pub const RULE_IDS: &[&str] = &[
    "determinism",
    "float-ordering",
    "panic-freedom",
    "lock-order",
];

/// Renders the report JSON. One waiver per line, `\n`-terminated.
pub fn render(outcome: &LintOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", outcome.files.len()));
    let rules = RULE_IDS
        .iter()
        .map(|r| format!("\"{r}\""))
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!("  \"rules\": [{rules}],\n"));
    s.push_str(&format!(
        "  \"violations\": {},\n",
        outcome.diagnostics.len()
    ));
    s.push_str("  \"waivers\": [\n");
    for (i, (path, line, rule, justification)) in outcome.waivers.iter().enumerate() {
        let comma = if i + 1 == outcome.waivers.len() {
            ""
        } else {
            ","
        };
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"justification\": \"{}\"}}{}\n",
            escape(path),
            line,
            escape(rule),
            escape(justification),
            comma
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintOutcome;

    #[test]
    fn render_is_deterministic_and_sorted_input_stable() {
        let outcome = LintOutcome {
            files: vec!["a.rs".into(), "b.rs".into()],
            diagnostics: vec![],
            waivers: vec![(
                "crates/dbms/src/exec/par.rs".into(),
                42,
                "panic-freedom".into(),
                "invariant \"quoted\" reason".into(),
            )],
        };
        let one = render(&outcome);
        let two = render(&outcome);
        assert_eq!(one, two);
        assert!(one.contains("\"files_scanned\": 2"));
        assert!(one.contains("\"violations\": 0"));
        assert!(one.contains("\\\"quoted\\\""));
        assert!(one.ends_with("}\n"));
    }
}
