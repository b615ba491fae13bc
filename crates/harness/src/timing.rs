//! Wall-clock timing surface.
//!
//! The simulation meters *simulated* time; this module meters the real
//! time an invocation costs, which is what the engine hot-path work
//! optimises and what CI budgets. The `emca` CLI stamps every scenario
//! run with a [`WallTimer`] and, when `EMCA_WALL_BUDGET_S` is set,
//! turns a blown budget into a hard failure — so hot-path regressions
//! fail loudly instead of silently inflating the fidelity job.

use std::fmt;
use std::time::Instant;

/// Environment variable carrying the wall-time budget, in seconds.
pub const WALL_BUDGET_ENV: &str = "EMCA_WALL_BUDGET_S";

/// Environment variable carrying the run-abort deadline, in seconds.
///
/// Distinct from [`WALL_BUDGET_ENV`]: the budget judges a *finished*
/// run after the fact (the CI fidelity gate), while the deadline aborts
/// a run that is still going — the threads backend's hang watchdog.
/// Neither stands in for the other: a job that wants both sets both.
pub const RUN_DEADLINE_ENV: &str = "EMCA_RUN_DEADLINE_S";

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

/// The wall budget from the environment, if set. Malformed values are
/// hard errors (a typo must not disarm the gate).
pub fn wall_budget_from_env() -> Result<Option<f64>, String> {
    match std::env::var(WALL_BUDGET_ENV) {
        Err(_) => Ok(None),
        Ok(s) => match s.parse::<f64>() {
            Ok(v) if v > 0.0 => Ok(Some(v)),
            _ => Err(format!(
                "{WALL_BUDGET_ENV} must be a positive number of seconds, got {s:?}"
            )),
        },
    }
}

/// The run-abort deadline from the environment, if set. Same contract
/// as [`wall_budget_from_env`]: malformed values are hard errors.
pub fn run_deadline_from_env() -> Result<Option<f64>, String> {
    match std::env::var(RUN_DEADLINE_ENV) {
        Err(_) => Ok(None),
        Ok(s) => match s.parse::<f64>() {
            Ok(v) if v > 0.0 => Ok(Some(v)),
            _ => Err(format!(
                "{RUN_DEADLINE_ENV} must be a positive number of seconds, got {s:?}"
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
        if std::env::var(WALL_BUDGET_ENV).is_err() {
            assert_eq!(wall_budget_from_env().unwrap(), None);
        }
        if std::env::var(RUN_DEADLINE_ENV).is_err() {
            assert_eq!(run_deadline_from_env().unwrap(), None);
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
