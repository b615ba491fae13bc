//! Wall-clock timing surface, and the one module that reads the
//! environment.
//!
//! The simulation meters *simulated* time; this module meters the real
//! time an invocation costs, which is what the engine hot-path work
//! optimises and what CI budgets. The `emca` CLI stamps every scenario
//! run with a [`WallTimer`] and, when `EMCA_WALL_BUDGET_S` is set,
//! turns a blown budget into a hard failure — so hot-path regressions
//! fail loudly instead of silently inflating a CI job.
//!
//! Experiments are configured by flags alone (the spec keys,
//! [`crate::SPEC_KEYS`]). The environment carries only the run limits
//! of [`ENV_VARS`]; [`refuse_stray_vars`] turns any other `EMCA_*`
//! variable into an error, so a retired spelling such as `EMCA_SF=1`
//! cannot silently run the default experiment.

use crate::SpecKey;
use std::fmt;
use std::time::Instant;

/// Environment variable carrying the wall-time budget, in seconds.
pub const WALL_BUDGET_ENV: &str = "EMCA_WALL_BUDGET_S";

/// Environment variable carrying the run-abort deadline, in seconds.
///
/// Distinct from [`WALL_BUDGET_ENV`]: the budget judges a *finished*
/// run after the fact (every `emca` scenario run), while the deadline aborts
/// a run that is still going — the threads backend's hang watchdog.
/// Neither stands in for the other: a job that wants both sets both.
pub const RUN_DEADLINE_ENV: &str = "EMCA_RUN_DEADLINE_S";

/// Environment variable capping the threads backend's pool width.
pub const THREADS_ENV: &str = "EMCA_THREADS";

/// Every `EMCA_*` variable the project reads, with its meaning as
/// `emca help` prints it. The last two belong to the opt-in sf-1 test
/// (`crates/bench/tests/sf_gate.rs`).
pub const ENV_VARS: &[(&str, &str)] = &[
    (WALL_BUDGET_ENV, "<s>: fail a run that took longer"),
    (RUN_DEADLINE_ENV, "<s>: abort a threads run still going"),
    (THREADS_ENV, "<n>: cap the threads pool width"),
    ("EMCA_SF_GATE", "1: opt in to the sf-1 gate test"),
    ("EMCA_SF_GATE_BUDGET_S", "<s>: the sf-1 gate test's budget"),
];

/// Refuses every `EMCA_*` variable outside [`ENV_VARS`]: the spec keys
/// are flags only, and a variable nothing reads must not pass for a
/// setting. The error names each stray variable and, where its
/// lower-cased suffix is a spec key, the flag that replaces it.
pub fn refuse_stray_vars() -> Result<(), String> {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("EMCA_"))
        .filter(|name| ENV_VARS.iter().all(|(var, _)| var != name))
        .map(|name| {
            let key = name["EMCA_".len()..].to_lowercase();
            match SpecKey::named(&key).and_then(SpecKey::flag) {
                Some(flag) => format!("{name} is not read (pass {flag} instead)"),
                None => format!("{name} is not read (see `emca help`)"),
            }
        })
        .collect();
    if stray.is_empty() {
        Ok(())
    } else {
        Err(stray.join(", "))
    }
}

/// The threads pool width for a `machine`-core machine: `EMCA_THREADS`
/// clamped to `1..=machine` when set, else `machine`. A malformed value
/// panics — read on the driver thread at startup, before any pool
/// exists.
pub(crate) fn pool_width(machine: usize) -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.clamp(1, machine),
            Err(_) => panic!("{THREADS_ENV} must be a thread count, got {v:?}"),
        },
        Err(_) => machine,
    }
}

/// A started wall-clock measurement of one named phase.
pub struct WallTimer {
    label: String,
    start: Instant,
}

impl WallTimer {
    /// Starts timing `label`.
    pub fn start(label: impl Into<String>) -> Self {
        WallTimer {
            label: label.into(),
            start: Instant::now(),
        }
    }

    /// Seconds elapsed so far.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Finishes the measurement: logs `[wall] <label>=<secs>s` to
    /// stderr and returns the elapsed seconds.
    pub fn finish(self) -> f64 {
        let secs = self.elapsed_s();
        eprintln!("[wall] {}={secs:.2}s", self.label);
        secs
    }
}

/// A number of seconds from variable `var` ([`WALL_BUDGET_ENV`],
/// [`RUN_DEADLINE_ENV`]), if set. Malformed or non-positive values are
/// hard errors (a typo must not disarm a gate).
pub fn seconds_from_env(var: &str) -> Result<Option<f64>, String> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(s) => match s.parse::<f64>() {
            Ok(v) if v > 0.0 => Ok(Some(v)),
            _ => Err(format!(
                "{var} must be a positive number of seconds, got {s:?}"
            )),
        },
    }
}

/// Typed outcome of a blown wall budget: the run *finished*, but took
/// longer than the fidelity gate allows.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetExceeded {
    /// What was being timed.
    pub label: String,
    /// Measured wall seconds.
    pub elapsed_s: f64,
    /// The budget it blew.
    pub budget_s: f64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wall budget blown: {} took {:.2}s > budget {:.2}s",
            self.label, self.elapsed_s, self.budget_s
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Typed outcome of a run aborted at its deadline: work was still
/// outstanding when time ran out. Distinct from [`BudgetExceeded`] —
/// an abort loses results, a blown budget only flags slowness.
#[derive(Clone, Debug, PartialEq)]
pub struct RunAborted {
    /// Which run hit the deadline.
    pub label: String,
    /// The deadline, in seconds.
    pub deadline_s: f64,
    /// What to raise to let the run finish.
    pub hint: &'static str,
}

impl fmt::Display for RunAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit the deadline ({:.2}s) with work unfinished — raise {}",
            self.label, self.deadline_s, self.hint
        )
    }
}

impl std::error::Error for RunAborted {}

/// Asserts `elapsed_s` against `budget_s`: `Err` describes the blown
/// budget, `Ok` restates the margin.
pub fn enforce_wall_budget(
    label: &str,
    elapsed_s: f64,
    budget_s: f64,
) -> Result<String, BudgetExceeded> {
    if elapsed_s > budget_s {
        Err(BudgetExceeded {
            label: label.to_string(),
            elapsed_s,
            budget_s,
        })
    } else {
        Ok(format!(
            "wall budget held: {label} took {elapsed_s:.2}s of {budget_s:.2}s"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_and_logs() {
        let t = WallTimer::start("unit");
        assert!(t.elapsed_s() >= 0.0);
        let secs = t.finish();
        assert!(secs >= 0.0);
    }

    #[test]
    fn budget_enforcement() {
        assert!(enforce_wall_budget("x", 1.0, 2.0).is_ok());
        let err = enforce_wall_budget("x", 3.0, 2.0).unwrap_err();
        assert_eq!(err.elapsed_s, 3.0);
        let shown = err.to_string();
        assert!(shown.contains("blown"));
        assert!(shown.contains("3.00s"));
    }

    #[test]
    fn budget_env_parses() {
        // Do not mutate the global env (tests run concurrently);
        // exercise only the unset path plus the parser via
        // enforce_wall_budget above.
        for var in [WALL_BUDGET_ENV, RUN_DEADLINE_ENV] {
            if std::env::var(var).is_err() {
                assert_eq!(seconds_from_env(var).unwrap(), None);
            }
        }
    }

    #[test]
    fn typed_outcomes_render_their_cause() {
        let aborted = RunAborted {
            label: "run".to_string(),
            deadline_s: 12.5,
            hint: "RunConfig::deadline or EMCA_RUN_DEADLINE_S",
        };
        let shown = aborted.to_string();
        assert!(shown.contains("deadline"));
        assert!(shown.contains("12.50s"));
        assert!(shown.contains("EMCA_RUN_DEADLINE_S"));
    }
}
