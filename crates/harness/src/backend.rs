//! Execution backend selection.
//!
//! The harness can drive a run on two backends sharing one dataflow
//! engine model:
//!
//! - [`Backend::Sim`] — the deterministic discrete-event simulation:
//!   workers are simulated OS threads on the modelled Opteron, time is
//!   [`emca_metrics::SimTime`], and every run is exactly reproducible
//!   (the fidelity twin; committed CSVs come from this backend).
//! - [`Backend::Threads`] — real OS threads: the same plans, the same
//!   partitioning and lineage, but tasks execute on dedicated worker
//!   threads with per-worker deques and work stealing, and the elastic
//!   mechanism actuates a real thread pool (grow/shrink = unpark/park).
//!   Timestamps are wall-clock nanoseconds mapped onto `SimTime`, so
//!   every downstream metric works unchanged but is *not* deterministic.
//!
//! Selected per run via `ExperimentSpec` (`backend=threads`) or the CLI
//! flag `emca run <scenario> --backend threads`.

use std::fmt;
use std::str::FromStr;

/// Which executor carries out the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic single-threaded discrete-event simulation.
    #[default]
    Sim,
    /// Real-parallel execution on dedicated OS threads.
    Threads,
}

impl Backend {
    /// Canonical lowercase name (spec / CLI / env spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "threads" => Ok(Backend::Threads),
            other => Err(format!("unknown backend '{other}' (expected sim|threads)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in [Backend::Sim, Backend::Threads] {
            assert_eq!(b.name().parse::<Backend>(), Ok(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert!("simulated".parse::<Backend>().is_err());
    }

    #[test]
    fn default_is_sim() {
        assert_eq!(Backend::default(), Backend::Sim);
    }
}
