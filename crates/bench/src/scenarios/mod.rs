//! The built-in scenarios: every former figure/table binary, registered
//! by name. Each module holds one scenario's declared CSV schemas and
//! its `run(&ExperimentSpec)` body; [`registry`] assembles them for the
//! `emca` CLI and the tests.
//!
//! A module's `SCHEMAS` is the only place its CSVs' file names and
//! headers are spelled: `run` builds each table from the declared
//! header (`Table::with_header`, or a `report::render_*` whose header
//! const `SCHEMAS` references) and ends with
//! `emit(spec, SCHEMAS, &table, file)?` ([`crate::emit`]), which refuses
//! a header that differs from the declaration and propagates a failed
//! write.

pub mod ablation;
pub mod chaos_recovery;
pub mod chaos_serve;
pub mod csv_check;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod mt;
pub mod mt_burst;
pub mod mt_churn;
pub mod mt_fairshare;
pub mod mt_interference;
pub mod mt_zipf;
pub mod serve;
pub mod serve_latency_curve;
pub mod serve_overload;
pub mod tab_overhead;
pub mod tab_summary;

use emca_harness::{ExperimentSpec, Scenario, ScenarioError, ScenarioRegistry};
use std::path::Path;

// Per-scenario supported spec keys: a scenario declares exactly the
// non-universal keys it honours, and the registry rejects a spec pinning
// anything else instead of silently ignoring it. The universal keys
// (`scenario`, `seed`, `check`, `out_dir`) are always accepted.

/// The full user/iteration/policy sweep most figures run.
const KEYS_SWEEP: &[&str] = &[
    "sf",
    "users",
    "iters",
    "policy",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
];
/// Fixed single-client mechanism runs (no users/iters/policy knobs).
const KEYS_MECH: &[&str] = &["sf", "warmup", "guard", "interval_ms", "backend"];
/// Fig. 4 sweeps users/iters but has no mechanism slot.
const KEYS_FIG04: &[&str] = &[
    "sf",
    "users",
    "iters",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
];
/// Policy + iteration knobs, fixed client count.
const KEYS_POLICY_ITERS: &[&str] = &[
    "sf",
    "iters",
    "policy",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
];
/// Policy knob only (single-client trace figures).
const KEYS_POLICY: &[&str] = &["sf", "policy", "warmup", "guard", "interval_ms", "backend"];
/// Stable-phases workload: users + policy.
const KEYS_PHASES: &[&str] = &[
    "sf",
    "users",
    "policy",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
];
/// The ablation pins guard/interval/warmup/flavor per row itself.
const KEYS_ABLATION: &[&str] = &["sf", "users", "iters", "policy", "backend"];
/// Multi-tenant scenarios: tenant overrides instead of a policy slot.
const KEYS_MT: &[&str] = &["sf", "users", "iters", "flavor", "tenants", "backend"];
/// Churn scenarios: a generated tenant population (`churn=`) instead of
/// named tenant overrides.
const KEYS_CHURN: &[&str] = &["sf", "users", "iters", "flavor", "churn", "backend"];
/// Chaos scenarios: the sweep knobs plus a fault plan.
const KEYS_CHAOS: &[&str] = &[
    "sf",
    "users",
    "iters",
    "policy",
    "warmup",
    "guard",
    "interval_ms",
    "backend",
    "faults",
];
/// Pure timing/validation scenarios run no experiment at all.
const KEYS_NONE: &[&str] = &[];

/// All built-in scenarios: the former `emca-bench` binaries plus the
/// multi-tenant (`mt_*`) workloads and the serving layer (`serve_*`).
pub fn registry() -> ScenarioRegistry {
    let mut r = ScenarioRegistry::new();
    let items: [Scenario; 25] = [
        Scenario {
            name: "fig04",
            about: "Fig. 4 — Q6 vs concurrent clients (hand-coded C affinities vs OS/MonetDB)",
            schemas: fig04::SCHEMAS,
            run: fig04::run,
            keys: KEYS_FIG04,
        },
        Scenario {
            name: "fig05",
            about: "Fig. 5 — thread lifespan and core migration under the OS scheduler",
            schemas: fig05::SCHEMAS,
            run: fig05::run,
            keys: KEYS_MECH,
        },
        Scenario {
            name: "fig06",
            about: "Fig. 6 — Tomograph of Q6 (per-operator calls and time)",
            schemas: fig06::SCHEMAS,
            run: fig06::run,
            keys: KEYS_MECH,
        },
        Scenario {
            name: "fig07",
            about: "Fig. 7 — PrT state transitions and allocated cores over Q6",
            schemas: fig07::SCHEMAS,
            run: fig07::run,
            keys: KEYS_POLICY_ITERS,
        },
        Scenario {
            name: "fig13",
            about: "Fig. 13 — thetasubselect scheduling metrics vs concurrent clients",
            schemas: fig13::SCHEMAS,
            run: fig13::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "fig14",
            about: "Fig. 14 — memory access metrics at 256 clients",
            schemas: fig14::SCHEMAS,
            run: fig14::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "fig15",
            about: "Fig. 15 — L3 misses vs selectivity (256 clients)",
            schemas: fig15::SCHEMAS,
            run: fig15::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "fig16",
            about: "Fig. 16 — thread migration by allocation policy (single-client Q6)",
            schemas: fig16::SCHEMAS,
            run: fig16::run,
            keys: KEYS_POLICY,
        },
        Scenario {
            name: "fig17",
            about: "Fig. 17 — CPU-load vs HT/IMC transition strategies",
            schemas: fig17::SCHEMAS,
            run: fig17::run,
            keys: KEYS_POLICY_ITERS,
        },
        Scenario {
            name: "fig18",
            about: "Fig. 18 — stable-phases workload, per-socket memory throughput",
            schemas: fig18::SCHEMAS,
            run: fig18::run,
            keys: KEYS_PHASES,
        },
        Scenario {
            name: "fig19",
            about: "Fig. 19 — mixed-phases per-query speedup and HT/IMC ratios",
            schemas: fig19::SCHEMAS,
            run: fig19::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "fig20",
            about: "Fig. 20 — per-query energy: OS scheduler vs the mechanism",
            schemas: fig20::SCHEMAS,
            run: fig20::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "mt_interference",
            about: "Two tenants — OLAP antagonist vs steady victim, with/without SLA caps",
            schemas: mt_interference::SCHEMAS,
            run: mt_interference::run,
            keys: KEYS_MT,
        },
        Scenario {
            name: "mt_fairshare",
            about: "Two symmetric tenants — convergence to the fair core split",
            schemas: mt_fairshare::SCHEMAS,
            run: mt_fairshare::run,
            keys: KEYS_MT,
        },
        Scenario {
            name: "mt_burst",
            about: "Antagonist burst against a priority tenant — core reclaim latency",
            schemas: mt_burst::SCHEMAS,
            run: mt_burst::run,
            keys: KEYS_MT,
        },
        Scenario {
            name: "mt_churn",
            about: "Serverless churn at 64+ tenants — adaptive arbitration vs static partitioning",
            schemas: mt_churn::SCHEMAS,
            run: mt_churn::run,
            keys: KEYS_CHURN,
        },
        Scenario {
            name: "mt_zipf",
            about: "Zipf demand-skew sweep under churn — core split vs demand distribution",
            schemas: mt_zipf::SCHEMAS,
            run: mt_zipf::run,
            keys: KEYS_CHURN,
        },
        Scenario {
            name: "tab_summary",
            about: "Headline summary table; fidelity gate with check=1",
            schemas: tab_summary::SCHEMAS,
            run: tab_summary::run,
            keys: KEYS_SWEEP,
        },
        Scenario {
            name: "tab_overhead",
            about: "§V overhead table — PrT step cost per allocation mode",
            schemas: tab_overhead::SCHEMAS,
            run: tab_overhead::run,
            keys: KEYS_NONE,
        },
        Scenario {
            name: "ablation",
            about: "Ablation of the calibration choices (signal, guard, placement)",
            schemas: ablation::SCHEMAS,
            run: ablation::run,
            keys: KEYS_ABLATION,
        },
        Scenario {
            name: "chaos_recovery",
            about:
                "Kill workers mid-run — zero lost queries, bounded MTTR; chaos gate with check=1",
            schemas: chaos_recovery::SCHEMAS,
            run: chaos_recovery::run,
            keys: KEYS_CHAOS,
        },
        Scenario {
            name: "chaos_serve",
            about: "Serving under faults — retries, deadlines, exact accounting; gate with check=1",
            schemas: chaos_serve::SCHEMAS,
            run: chaos_serve::run,
            keys: chaos_serve::CHAOS_SERVE_KEYS,
        },
        Scenario {
            name: "serve_overload",
            about: "Serving layer — one past-saturation point: outcome split, p99, goodput",
            schemas: serve_overload::SCHEMAS,
            run: serve_overload::run,
            keys: serve::SERVE_KEYS,
        },
        Scenario {
            name: "serve_latency_curve",
            about: "Serving layer — latency/goodput vs offered load; headline gate with check=1",
            schemas: serve_latency_curve::SCHEMAS,
            run: serve_latency_curve::run,
            keys: serve::SERVE_KEYS,
        },
        Scenario {
            name: "csv_check",
            about: "Validate every declared results CSV against its schema",
            schemas: csv_check::SCHEMAS,
            run: csv_check::run,
            keys: KEYS_NONE,
        },
    ];
    for s in items {
        r.register(s).expect("built-in names are unique");
    }
    r
}

/// Validates every CSV declared by the registry's scenarios under
/// `dir`, returning the list of problems (empty = all good).
pub fn check_results(dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for scenario in registry().iter() {
        for (name, header) in scenario.schemas {
            if let Err(e) = emca_harness::validate_csv(&dir.join(name), header) {
                problems.push(e);
            }
        }
    }
    problems
}

/// The number of results files the registry declares (reporting).
pub fn declared_csv_count() -> usize {
    registry().iter().map(|s| s.schemas.len()).sum()
}

/// Shared `Result` alias for scenario bodies.
pub type ScenarioResult = Result<(), ScenarioError>;

/// The default scale factor every figure scenario uses when the spec
/// does not pin one (the repo's pinned default scale; the paper's is
/// 1.0).
pub const DEFAULT_SF: f64 = 0.25;

/// A per-socket counter vector as one cell per declared `S0..S3`
/// column. The threads backend has no hardware counters and reports an
/// empty vector, which reads as zero — not as a shorter row.
pub(crate) fn per_socket(counters: &[u64]) -> [u64; 4] {
    std::array::from_fn(|s| counters.get(s).copied().unwrap_or(0))
}

/// Helper: the spec's scale at the standard figure default.
pub(crate) fn figure_scale(spec: &ExperimentSpec) -> volcano_db::tpch::TpchScale {
    spec.scale(DEFAULT_SF)
}
