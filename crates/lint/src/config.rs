//! `lint.toml` — the checked-in declaration of the workspace's
//! invariants: which paths each rule covers, whole-file allowlists, and
//! the lock-order table. The workspace is offline/vendored, so this is
//! a hand-rolled parser for the small TOML subset the file uses:
//!
//! ```toml
//! # comment
//! [section]
//! key = "one string"
//! other = [
//!     "a", "b",   # arrays may span lines
//! ]
//! ```
//!
//! Only string values and arrays of strings exist; everything else is a
//! parse error. Unknown sections/keys are errors too — a typo in the
//! config must not silently disable a rule.

use std::collections::BTreeMap;

/// Parsed configuration: section → key → list of strings (a scalar
/// string is a one-element list).
#[derive(Clone, Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

/// The sections and keys `emca-lint` understands; anything else in
/// `lint.toml` is a hard error.
const KNOWN: &[(&str, &[&str])] = &[
    ("paths", &["roots", "exclude"]),
    ("determinism", &["paths", "allow"]),
    ("float_ordering", &["allow"]),
    ("panic_freedom", &["files"]),
    ("lock_order", &["order"]),
];

impl Config {
    /// Parses the config, validating section/key names.
    pub fn parse(src: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !KNOWN.iter().any(|(s, _)| *s == section) {
                    return Err(format!("lint.toml:{}: unknown section [{section}]", i + 1));
                }
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected key = value", i + 1));
            };
            let key = key.trim().to_string();
            let known_keys = KNOWN
                .iter()
                .find(|(s, _)| *s == section)
                .map(|(_, k)| *k)
                .ok_or_else(|| format!("lint.toml:{}: key outside any section", i + 1))?;
            if !known_keys.contains(&key.as_str()) {
                return Err(format!(
                    "lint.toml:{}: unknown key {key:?} in [{section}]",
                    i + 1
                ));
            }
            let mut value = value.trim().to_string();
            // Multi-line arrays: accumulate until brackets balance
            // (strings in this file never contain brackets or quotes).
            while value.starts_with('[') && !balanced(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("lint.toml:{}: unterminated array", i + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            let parsed = parse_value(&value).map_err(|e| format!("lint.toml:{}: {e}", i + 1))?;
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key, parsed);
        }
        Ok(cfg)
    }

    /// The list under `section.key` (empty if absent).
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` only starts a comment outside quotes; values here never embed
    // `#` inside strings, but be precise anyway.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    value.matches('[').count() == value.matches(']').count()
}

fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_string(item)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value)?])
}

fn parse_string(item: &str) -> Result<String, String> {
    item.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {item:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_multiline_arrays() {
        let cfg = Config::parse(
            r#"
# top comment
[paths]
roots = ["crates"]
exclude = [
    "crates/vendor",  # vendored shims
    "target",
]

[panic_freedom]
files = "crates/dbms/src/exec/par.rs"
"#,
        )
        .unwrap();
        assert_eq!(cfg.list("paths", "roots"), ["crates"]);
        assert_eq!(cfg.list("paths", "exclude"), ["crates/vendor", "target"]);
        assert_eq!(
            cfg.list("panic_freedom", "files"),
            ["crates/dbms/src/exec/par.rs"]
        );
        assert!(cfg.list("lock_order", "order").is_empty());
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[paths]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("loose = \"x\"\n").is_err());
        assert!(Config::parse("[paths]\nroots = [unquoted]\n").is_err());
    }
}
