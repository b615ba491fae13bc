//! A custom `Policy` and a custom `Scenario`, registered from user
//! code — the one-file extension path the experiment API exists for.
//!
//! The policy (`WidestFirst`) allocates one core per node before
//! doubling up anywhere (sparse-style) but *releases* from the
//! page-coldest node (adaptive-style) — a mix no built-in provides.
//! The scenario wires it into the standard runner next to the OS
//! baseline and renders a two-row table, exactly like the built-in
//! figures do. Its arguments are a spec line (`key=value ...`, the
//! format `[spec]` lines are logged in). Run it:
//!
//! ```sh
//! cargo run --release --example custom_policy
//! cargo run --release --example custom_policy -- backend=threads users=2
//! ```

use elastic_core::{ModeCtx, Policy, SparseMode};
use emca_harness::{
    run, Alloc, ExperimentSpec, PolicyFactory, RunConfig, Scenario, ScenarioError, ScenarioRegistry,
};
use numa_sim::CoreId;
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Sparse growth, page-cold release.
#[derive(Default)]
struct WidestFirst {
    grow: SparseMode,
    release: elastic_core::AdaptiveMode,
}

impl Policy for WidestFirst {
    fn name(&self) -> &str {
        "widest-first"
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.grow.next_core(ctx)
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        self.release.release_core(ctx)
    }
    // `observe`, `shape` and `decide` keep their defaults: follow the
    // PrT net's verdict. See `elastic_core::HillClimbPolicy` for a
    // policy that overrides all three.
}

/// The scenario body: one OS run, one mechanism run under the custom
/// policy, two summary rows.
fn widest_first_scenario(spec: &ExperimentSpec) -> Result<(), ScenarioError> {
    let scale = spec.scale(0.002);
    let users = spec.users_or(4);
    let iters = spec.iters_or(2);
    let data = TpchData::generate(scale);
    let workload = Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: iters,
    };

    let os = run(
        spec.apply(RunConfig::new(Alloc::OsAll, users, workload.clone()).with_scale(scale)),
        &data,
    );
    let custom = run(
        spec.apply(
            RunConfig::new(Alloc::Adaptive, users, workload)
                .with_scale(scale)
                .with_custom_policy(PolicyFactory::new("widest-first", || {
                    Box::new(WidestFirst::default())
                })),
        ),
        &data,
    );
    for (name, out) in [("OS (all cores)", &os), ("widest-first", &custom)] {
        println!(
            "{name:<16} qps={:<8.2} ht={:.3} GB  mean response={}",
            out.throughput_qps(),
            out.ht_bytes() as f64 / 1e9,
            out.mean_response(),
        );
    }
    if os.throughput_qps() <= 0.0 || custom.throughput_qps() <= 0.0 {
        return Err("a run produced no throughput".into());
    }
    Ok(())
}

fn main() {
    // Register the custom scenario alongside nothing else (a user
    // registry; `emca_bench::scenarios::registry()` would give the
    // built-ins to extend instead).
    let mut registry = ScenarioRegistry::new();
    registry
        .register(Scenario {
            name: "widest_first",
            about: "sparse growth + page-cold release vs the OS baseline",
            schemas: &[],
            run: widest_first_scenario,
            // The keys this scenario honours; pinning anything else
            // (e.g. `policy=`) is a hard SpecError, not a silent no-op.
            keys: &[
                "sf",
                "users",
                "iters",
                "warmup",
                "guard",
                "interval_ms",
                "backend",
            ],
        })
        .expect("fresh registry");

    println!(
        "registered scenarios: {:?} ({})",
        registry.names(),
        registry
            .get("widest_first")
            .map(|s| s.about)
            .unwrap_or_default()
    );
    let line = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    let mut spec: ExperimentSpec = line.parse().unwrap_or_else(|e| {
        eprintln!("widest_first: {e}");
        std::process::exit(2);
    });
    spec.scenario = "widest_first".to_string();
    spec.log_resolved();
    if let Err(e) = registry.run("widest_first", &spec) {
        eprintln!("widest_first: {e}");
        std::process::exit(1);
    }
}
