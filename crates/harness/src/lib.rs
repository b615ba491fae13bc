//! # emca-harness — experiment harness for the ICDE'18 reproduction
//!
//! Glues the whole stack together: builds a simulated Opteron machine,
//! kernel, engine, clients and (optionally) the elastic mechanism from a
//! declarative [`RunConfig`], runs the workload to completion, and
//! returns every metric the paper's figures plot ([`RunOutput`]).
//!
//! The experiment surface on top of the runner:
//!
//! - [`ExperimentSpec`] — the typed configuration of an invocation
//!   (scenario, flavor, policy, scale, …), with `Display`/`FromStr`
//!   round-tripping; its key table ([`SPEC_KEYS`]) is also the `emca`
//!   flag set, the only way to configure a run;
//! - [`Scenario`] / [`ScenarioRegistry`] — every figure/table of the
//!   paper as a named unit (setup + sweep + declared CSV schema) that
//!   the `emca` CLI lists and runs; user scenarios register the same
//!   way;
//! - [`serve`] — the serving layer (`emca serve_*`): an open-loop load
//!   generator ([`ArrivalSchedule`]) and an [`AdmissionPolicy`] front
//!   door whose admitted queries are the load of a one-tenant lifecycle
//!   run ([`churn`]) on either backend;
//! - [`timing`] — wall-clock budgets and the only environment reads
//!   (run budget, run deadline, threads pool width).

pub mod backend;
pub mod churn;
pub mod config;
pub mod handcoded_runner;
pub mod report;
pub mod runner;
pub mod runner_threads;
pub mod scenario;
pub mod serve;
pub mod spec;
pub mod tenants;
pub mod timing;

pub use backend::Backend;
pub use churn::{ChurnPlan, ChurnSpec, ChurnTenant};
pub use config::{Alloc, PolicyFactory, RunConfig, Warmup};
pub use handcoded_runner::{run_handcoded, HandcodedOutput};
pub use runner::{run, run_all_allocs, RunOutput};
pub use scenario::{validate_csv, Scenario, ScenarioError, ScenarioRegistry, ALL_SCENARIO_KEYS};
pub use serve::{
    build_admission, run_serve, AcceptAll, AdmissionDecision, AdmissionPolicy, Arrival,
    ArrivalSchedule, ConcurrencyLimit, RequestOutcome, RequestRecord, RetryPolicy, ServeConfig,
    ServeOutput,
};
pub use spec::{
    AdmissionSpec, ArrivalSpec, ExperimentSpec, SpecError, SpecKey, Surface, TenantSpec, SPEC_KEYS,
};
pub use tenants::{
    run_tenants, MultiTenantConfig, MultiTenantOutput, TenantOutput, TenantRunConfig,
};
pub use timing::{
    enforce_wall_budget, refuse_stray_vars, seconds_from_env, BudgetExceeded, RunAborted, WallTimer,
};

use std::path::PathBuf;

/// Resolves `results/<name>` relative to the workspace root (so figure
/// binaries can be run from anywhere inside the repo).
pub fn results_path(name: &str) -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.join("results").join(name)
}
