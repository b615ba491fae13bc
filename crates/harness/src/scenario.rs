//! The scenario registry — every figure, table and diagnostic of the
//! reproduction as a named, runnable unit.
//!
//! A [`Scenario`] is a plain struct: a name, a description, the CSV
//! schemas it declares, the spec keys it honours and one
//! `run(&ExperimentSpec)` body. The [`ScenarioRegistry`] maps
//! names to scenarios so one CLI (`emca list` / `emca run <name>`) can
//! drive all of them, and user code can [`ScenarioRegistry::register`]
//! its own (see `examples/custom_policy.rs`). Declared schemas double as
//! the validation source for `emca check`, via [`validate_csv`].

use crate::spec::{count_keys, key_names, ExperimentSpec, SpecError};
use std::collections::BTreeMap;
use std::path::Path;

/// Every non-universal spec key a scenario may declare support for —
/// the default for scenarios that do not narrow their surface. Derived
/// from the key table ([`crate::spec::SPEC_KEYS`]).
pub const ALL_SCENARIO_KEYS: &[&str] = &key_names::<{ count_keys(Some(false)) }>(Some(false));

/// A scenario failure (fidelity violation, missing data, bad config).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl From<String> for ScenarioError {
    fn from(s: String) -> Self {
        ScenarioError(s)
    }
}

impl From<&str> for ScenarioError {
    fn from(s: &str) -> Self {
        ScenarioError(s.to_string())
    }
}

/// A named experiment: one of the paper's figures/tables, or anything
/// user code wants driveable through the same surface.
pub struct Scenario {
    /// Registry key (`fig04`, `tab_summary`, …).
    pub name: &'static str,
    /// One-line description for `emca list`.
    pub about: &'static str,
    /// CSV files this scenario writes: `(file name, header)`. Used by
    /// `emca check` and the scenario smoke tests; empty for scenarios
    /// that only print.
    pub schemas: &'static [(&'static str, &'static str)],
    /// The non-universal spec keys this scenario honours
    /// ([`ALL_SCENARIO_KEYS`] for all of them). A spec pinning any
    /// other key is rejected with [`SpecError::Unsupported`] before the
    /// run starts — a scenario silently ignoring a pinned field ran the
    /// wrong experiment without a word.
    pub keys: &'static [&'static str],
    /// The body: runs the scenario under the given spec.
    pub run: fn(&ExperimentSpec) -> Result<(), ScenarioError>,
}

impl Scenario {
    /// The non-universal keys `spec` pins that this scenario does not
    /// honour, as `(key, value)` pairs.
    fn unsupported(&self, spec: &ExperimentSpec) -> Vec<(&'static str, String)> {
        let mut pinned = spec.set_keys();
        pinned.retain(|(key, _)| !self.keys.contains(key));
        pinned
    }
}

/// Name-ordered collection of scenarios.
#[derive(Default)]
pub struct ScenarioRegistry {
    items: BTreeMap<&'static str, Scenario>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a scenario; duplicate names are an error.
    pub fn register(&mut self, scenario: Scenario) -> Result<(), ScenarioError> {
        let name = scenario.name;
        if self.items.contains_key(name) {
            return Err(ScenarioError(format!("duplicate scenario name {name:?}")));
        }
        self.items.insert(name, scenario);
        Ok(())
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.items.get(name)
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.items.keys().copied().collect()
    }

    /// All scenarios, name-ordered.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.items.values()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Checks every key `spec` pins against `name`'s declared support;
    /// the first unsupported pinned key is a hard
    /// [`SpecError::Unsupported`]. An unknown scenario name passes —
    /// [`ScenarioRegistry::run`] reports it with the valid-name list.
    pub fn validate_spec(&self, name: &str, spec: &ExperimentSpec) -> Result<(), SpecError> {
        let Some(s) = self.get(name) else {
            return Ok(());
        };
        match s.unsupported(spec).into_iter().next() {
            Some((key, value)) => Err(SpecError::Unsupported {
                scenario: name.to_string(),
                key: key.to_string(),
                value,
            }),
            None => Ok(()),
        }
    }

    /// Clears every pinned key `name` does not support and returns the
    /// dropped `(key, value)` pairs — the `--prune-unsupported` path
    /// for generic sweep drivers that pass one spec to every scenario.
    pub fn prune_unsupported(
        &self,
        name: &str,
        spec: &mut ExperimentSpec,
    ) -> Vec<(&'static str, String)> {
        let Some(s) = self.get(name) else {
            return Vec::new();
        };
        let dropped = s.unsupported(spec);
        for (key, _) in &dropped {
            spec.clear(key);
        }
        dropped
    }

    /// Runs `name` under `spec`; an unknown name is an error listing
    /// the valid scenarios (no panic), and a spec pinning a key the
    /// scenario or the backend ignores is rejected (see
    /// [`ScenarioRegistry::validate_spec`] and
    /// [`ExperimentSpec::validate_backend`]).
    pub fn run(&self, name: &str, spec: &ExperimentSpec) -> Result<(), ScenarioError> {
        match self.get(name) {
            Some(s) => {
                self.validate_spec(name, spec)
                    .and_then(|()| spec.validate_backend())
                    .map_err(|e| ScenarioError(e.to_string()))?;
                (s.run)(spec)
            }
            None => Err(ScenarioError(format!(
                "unknown scenario {name:?} (valid: {})",
                self.names().join(", ")
            ))),
        }
    }
}

/// Counts RFC-4180-ish CSV fields (the quoting `Table::to_csv` emits).
fn n_fields(line: &str) -> usize {
    let mut n = 1;
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => n += 1,
            _ => {}
        }
    }
    n
}

/// Validates one CSV file against its declared header: the header line
/// must match exactly and every data row must have the header's column
/// count. This is the `csv_check` validation as a library call, shared
/// by `emca check` and the scenario smoke tests.
pub fn validate_csv(path: &Path, header: &str) -> Result<(), String> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let content = std::fs::read_to_string(path).map_err(|e| format!("{name}: unreadable ({e})"))?;
    let mut lines = content.lines();
    match lines.next() {
        Some(first) if first == header => {}
        Some(first) => {
            return Err(format!(
                "{name}: header mismatch\n  expected: {header}\n  found:    {first}"
            ))
        }
        None => return Err(format!("{name}: empty file")),
    }
    let want = n_fields(header);
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let got = n_fields(line);
        if got != want {
            return Err(format!(
                "{name}: row {} has {got} columns, header has {want}",
                i + 2
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(name: &'static str) -> Scenario {
        Scenario {
            name,
            about: "test scenario",
            schemas: &[],
            keys: ALL_SCENARIO_KEYS,
            run: |_| Ok(()),
        }
    }

    #[test]
    fn register_get_and_list() {
        let mut r = ScenarioRegistry::new();
        assert!(r.is_empty());
        r.register(noop("beta")).unwrap();
        r.register(noop("alpha")).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.names(), vec!["alpha", "beta"], "names are sorted");
        assert!(r.get("alpha").is_some());
        assert!(r.get("gamma").is_none());
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut r = ScenarioRegistry::new();
        r.register(noop("x")).unwrap();
        let err = r.register(noop("x")).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_scenario_error_lists_valid_names() {
        let mut r = ScenarioRegistry::new();
        r.register(noop("fig04")).unwrap();
        r.register(noop("tab_summary")).unwrap();
        let err = r.run("fig99", &ExperimentSpec::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fig99"), "{msg}");
        assert!(
            msg.contains("fig04") && msg.contains("tab_summary"),
            "{msg}"
        );
    }

    #[test]
    fn run_dispatches() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario {
            name: "fails",
            about: "always fails",
            schemas: &[],
            keys: ALL_SCENARIO_KEYS,
            run: |_| Err("boom".into()),
        })
        .unwrap();
        assert_eq!(
            r.run("fails", &ExperimentSpec::default()),
            Err(ScenarioError("boom".into()))
        );
    }

    #[test]
    fn unsupported_pinned_keys_are_rejected_not_ignored() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario {
            name: "narrow",
            about: "supports only sf",
            schemas: &[],
            keys: &["sf"],
            run: |_| Ok(()),
        })
        .unwrap();
        let spec: ExperimentSpec = "scenario=narrow sf=0.1 seed=7 check=1".parse().unwrap();
        assert_eq!(
            r.validate_spec("narrow", &spec),
            Ok(()),
            "universal keys pass"
        );
        assert!(r.run("narrow", &spec).is_ok());

        let spec: ExperimentSpec = "scenario=narrow sf=0.1 users=4".parse().unwrap();
        let err = r.validate_spec("narrow", &spec).unwrap_err();
        assert_eq!(
            err,
            SpecError::Unsupported {
                scenario: "narrow".into(),
                key: "users".into(),
                value: "4".into(),
            }
        );
        let err = r.run("narrow", &spec).unwrap_err();
        assert!(err.to_string().contains("users=4"), "{err}");

        // Unknown scenario names pass validation; `run` reports them.
        assert_eq!(r.validate_spec("ghost", &spec), Ok(()));
    }

    #[test]
    fn a_key_the_backend_ignores_is_refused_before_the_run() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario {
            name: "wide",
            about: "honours every key",
            schemas: &[],
            keys: ALL_SCENARIO_KEYS,
            run: |_| panic!("ran despite a refused key"),
        })
        .unwrap();
        let spec: ExperimentSpec = "backend=threads warmup=interleave".parse().unwrap();
        assert_eq!(
            r.validate_spec("wide", &spec),
            Ok(()),
            "the scenario honours it"
        );
        let err = r.run("wide", &spec).unwrap_err();
        assert!(
            err.to_string()
                .contains("backend threads does not support warmup=interleave"),
            "{err}"
        );
    }

    #[test]
    fn default_keys_accept_every_non_universal_key() {
        use crate::spec::SPEC_KEYS;
        let scenario_keys: Vec<&str> = SPEC_KEYS
            .iter()
            .filter(|k| !k.universal)
            .map(|k| k.name)
            .collect();
        assert_eq!(ALL_SCENARIO_KEYS, scenario_keys);

        // A scenario that does not narrow its surface honours whatever
        // a spec can pin — `faults=`/`churn=` were once rejected here.
        let mut r = ScenarioRegistry::new();
        r.register(noop("wide")).unwrap();
        let mut spec = ExperimentSpec::for_scenario("wide");
        for key in SPEC_KEYS {
            spec.set(key.name, key.example).unwrap();
        }
        assert_eq!(spec.set_keys().len(), scenario_keys.len());
        assert_eq!(r.validate_spec("wide", &spec), Ok(()));
        assert!(r.prune_unsupported("wide", &mut spec).is_empty());
    }

    #[test]
    fn prune_unsupported_clears_and_reports() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario {
            name: "narrow",
            about: "supports only sf",
            schemas: &[],
            keys: &["sf"],
            run: |_| Ok(()),
        })
        .unwrap();
        let mut spec: ExperimentSpec = "scenario=narrow sf=0.1 users=4 backend=threads"
            .parse()
            .unwrap();
        let dropped = r.prune_unsupported("narrow", &mut spec);
        assert_eq!(
            dropped,
            vec![
                ("users", "4".to_string()),
                ("backend", "threads".to_string())
            ]
        );
        assert_eq!(r.validate_spec("narrow", &spec), Ok(()));
        assert_eq!(spec.sf, Some(0.1), "supported keys survive the prune");
        assert!(r.prune_unsupported("ghost", &mut spec).is_empty());
    }

    #[test]
    fn csv_validation_catches_drift() {
        let dir = std::env::temp_dir().join("emca_scenario_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("ok.csv");
        std::fs::write(&ok, "a,b,c\n1,2,3\n").unwrap();
        assert_eq!(validate_csv(&ok, "a,b,c"), Ok(()));
        assert!(validate_csv(&ok, "a,b").unwrap_err().contains("header"));
        let ragged = dir.join("ragged.csv");
        std::fs::write(&ragged, "a,b,c\n1,2\n").unwrap();
        assert!(validate_csv(&ragged, "a,b,c")
            .unwrap_err()
            .contains("2 columns"));
        let quoted = dir.join("quoted.csv");
        std::fs::write(&quoted, "a,b\n\"x,y\",2\n").unwrap();
        assert_eq!(validate_csv(&quoted, "a,b"), Ok(()));
        assert!(validate_csv(&dir.join("missing.csv"), "a").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
