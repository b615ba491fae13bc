//! Fixture tests: seeded violations of every rule must be found at
//! their exact lines, lexer-level negatives (raw strings, comments)
//! must not trip rules, and the waiver mechanism must suppress, demand
//! justification, and garbage-collect itself.
//!
//! These fixtures live under `crates/lint/tests`, which `lint.toml`
//! excludes from the workspace walk — the seeded violations here never
//! reach the real lint run.

use emca_lint::config::Config;
use emca_lint::diag::Diagnostic;
use emca_lint::lint_source;

/// A config that covers the fixture path `crates/demo/src/lib.rs` with
/// every rule.
fn fixture_cfg() -> Config {
    Config::parse(
        r#"
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
order = ["state", "results", "finished_at"]
"#,
    )
    .expect("fixture config parses")
}

const PATH: &str = "crates/demo/src/lib.rs";

fn diags(src: &str) -> Vec<Diagnostic> {
    lint_source(PATH, src, &fixture_cfg()).0
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_flags_wall_clock_rng_and_std_maps() {
    let src = "\
use std::time::Instant;
use std::collections::HashMap;

fn f() {
    let t = Instant::now();
    let r = rand::thread_rng();
    let m: std::collections::HashSet<u32> = Default::default();
    let _ = (t, r, m);
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "determinism"), vec![1, 2, 5, 6, 7], "{d:#?}");
}

#[test]
fn determinism_ignores_strings_comments_and_fx_maps() {
    let src = "\
// Instant::now() in a comment is fine
/* and HashMap in /* a nested */ block comment too */
fn f() {
    let s = r#\"Instant SystemTime thread_rng HashMap\"#;
    let m = emca_metrics::FxHashMap::default(); // typed alias, not std
    let _ = (s, m);
}
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn determinism_skips_cfg_test_blocks() {
    let src = "\
fn shipping() {}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_is_fine_in_tests() {
        let t = std::time::Instant::now();
        let _ = t.elapsed();
    }
}
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}

// ------------------------------------------------------------- float-ordering

#[test]
fn float_ordering_flags_partial_cmp_at_its_line() {
    let src = "\
fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
fn ok(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "float-ordering"), vec![2], "{d:#?}");
}

#[test]
fn float_ordering_ignores_the_token_inside_strings() {
    let d = diags("fn f() -> &'static str { \"partial_cmp\" }\n");
    assert!(d.is_empty(), "{d:#?}");
}

// -------------------------------------------------------------- panic-freedom

#[test]
fn panic_freedom_flags_unwrap_expect_and_panic_family() {
    let src = "\
fn f(o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect(\"present\");
    if a + b > 100 {
        panic!(\"too big\");
    }
    unreachable!()
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "panic-freedom"), vec![2, 3, 5, 7], "{d:#?}");
}

#[test]
fn panic_freedom_permits_asserts_and_recovery_idioms() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>) -> u32 {
    assert!(true, \"tripwires stay legal\");
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *g
}
";
    // `m.lock()` is on an unranked receiver — only lock-order fires,
    // never panic-freedom (unwrap_or_else lexes as one ident).
    let d = diags(src);
    assert!(lines_of(&d, "panic-freedom").is_empty(), "{d:#?}");
}

#[test]
fn panic_freedom_only_applies_to_listed_files() {
    let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let d = lint_source("crates/demo/src/other.rs", src, &fixture_cfg()).0;
    assert!(lines_of(&d, "panic-freedom").is_empty(), "{d:#?}");
}

// ----------------------------------------------------------------- lock-order

#[test]
fn lock_order_flags_inverted_nesting() {
    let src = "\
fn inverted(s: &Shared) {
    let r = s.results.lock();
    let g = s.state.lock();
    drop((r, g));
}
fn in_order(s: &Shared) {
    let g = s.state.lock();
    let r = s.results.lock();
    drop((g, r));
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "lock-order"), vec![3], "{d:#?}");
    assert!(d[0].message.contains("rank 0"), "{}", d[0].message);
}

#[test]
fn lock_order_flags_unranked_receivers() {
    let src = "\
fn f(s: &Shared) {
    let g = s.mystery.lock();
    drop(g);
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "lock-order"), vec![2], "{d:#?}");
    assert!(d[0].message.contains("mystery"), "{}", d[0].message);
}

#[test]
fn lock_order_resets_per_function() {
    // Each fn is its own scope: taking `results` in one fn and `state`
    // in the next is not nesting.
    let src = "\
fn a(s: &Shared) { let r = s.results.lock(); drop(r); }
fn b(s: &Shared) { let g = s.state.lock(); drop(g); }
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}

// -------------------------------------------------------------------- waivers

#[test]
fn waiver_with_justification_suppresses_from_the_line_above() {
    let src = "\
fn f(o: Option<u32>) -> u32 {
    // emca-lint: allow(panic-freedom) — fixture exercises the waiver path
    o.unwrap()
}
";
    let (d, w) = lint_source(PATH, src, &fixture_cfg());
    assert!(d.is_empty(), "{d:#?}");
    assert!(w.iter().any(|w| w.used && w.rule == "panic-freedom"));
}

#[test]
fn trailing_waiver_on_the_same_line_suppresses() {
    let src = "\
fn f(o: Option<u32>) -> u32 {
    o.unwrap() // emca-lint: allow(panic-freedom) -- same-line form
}
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn waiver_without_justification_is_an_error_and_does_not_suppress() {
    let src = "\
fn f(o: Option<u32>) -> u32 {
    // emca-lint: allow(panic-freedom)
    o.unwrap()
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "waiver-syntax"), vec![2], "{d:#?}");
    assert_eq!(lines_of(&d, "panic-freedom"), vec![3], "{d:#?}");
}

#[test]
fn unused_waiver_is_flagged() {
    let src = "\
fn f() {
    // emca-lint: allow(determinism) — nothing here actually violates it
    let x = 1;
    let _ = x;
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "unused-waiver"), vec![2], "{d:#?}");
}

#[test]
fn waiver_too_far_from_the_violation_does_not_suppress() {
    let src = "\
fn f(o: Option<u32>) -> u32 {
    // emca-lint: allow(panic-freedom) — two lines up, out of range

    o.unwrap()
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "panic-freedom"), vec![4], "{d:#?}");
    assert_eq!(lines_of(&d, "unused-waiver"), vec![2], "{d:#?}");
}

#[test]
fn doc_comments_showing_waiver_syntax_do_not_waive() {
    let src = "\
/// Waive with `emca-lint: allow(panic-freedom) — why`.
fn f(o: Option<u32>) -> u32 {
    o.unwrap()
}
";
    let d = diags(src);
    assert_eq!(lines_of(&d, "panic-freedom"), vec![3], "{d:#?}");
    assert!(lines_of(&d, "unused-waiver").is_empty(), "{d:#?}");
}

// --------------------------------------------------- lexer-level exactness

#[test]
fn commented_out_violations_do_not_fire() {
    let src = "\
fn f() {
    // let t = Instant::now();
    /* o.unwrap(); panic!(\"no\"); */
    // v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn raw_strings_containing_violations_do_not_fire() {
    let src = "\
fn f() -> String {
    let a = r\"o.unwrap()\";
    let b = r##\"partial_cmp and Instant::now() and panic!()\"##;
    format!(\"{a}{b}\")
}
";
    let d = diags(src);
    assert!(d.is_empty(), "{d:#?}");
}
