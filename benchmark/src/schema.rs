//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`emca-benchmark manifest`) and a test
//! holds the committed file equal to them, so the names a run prints
//! and the names the manifest declares cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 12;

/// One benchmark workload.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

/// One declared metric. `bound` is `Some` for end-to-end metrics only.
#[derive(Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "olap_closed",
        why: "threads backend, sf 0.25, W closed-loop clients on the 88 TPC-H specs: kernel-bound, eval does most of the work and par dispatch little",
    },
    WorkloadDecl {
        name: "small_closed",
        why: "same path at sf 0.01: dispatch-bound, par submit/pop/steal/commit and plan building dominate, eval is negligible",
    },
    WorkloadDecl {
        name: "serve_open",
        why: "open loop through run_serve at a fixed rate: the only workload with admission, the dispatcher poll and pool grow/shrink on the latency path",
    },
    WorkloadDecl {
        name: "sim_closed",
        why: "the deterministic simulator twin: os_sim, numa_sim, sim engine, mechanism and petrinet do all the work, par/serve/pool none",
    },
    WorkloadDecl {
        name: "sim_churn",
        why: "256 simulated tenants churning through 16 resident slots: puts the tenant arbiter and the churn driver on the path",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p95_ms", "ms", "lower", 0.25),
    e2e("cpu_s_per_kquery", "s", "lower", 0.25),
    e2e("cores_mean", "cores", "lower", 0.10),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Every workload reports every one of these with `--trace 1`; a layer
/// that is not on the workload's path reports 0.
pub const PER_LAYER: &[MetricDecl] = &[
    // tpch
    layer("tpch.generate_s", "s", "lower"),
    layer("tpch.build_query_us", "us", "lower"),
    // eval: direct kernel calls at 2^18 rows, and against eval::reference
    layer("eval.scan_select_ns_row", "ns", "lower"),
    layer("eval.select_and_ns_row", "ns", "lower"),
    layer("eval.project_ns_row", "ns", "lower"),
    layer("eval.bin_op_ns_row", "ns", "lower"),
    layer("eval.aggr_sum_ns_row", "ns", "lower"),
    layer("eval.group_agg_ns_row", "ns", "lower"),
    layer("eval.build_hash_ns_row", "ns", "lower"),
    layer("eval.probe_hash_ns_row", "ns", "lower"),
    layer("eval.merge_groups_ns_group", "ns", "lower"),
    layer("eval.top_n_ns_row", "ns", "lower"),
    layer("eval.scan_select_ref_ratio", "ratio", "lower"),
    layer("eval.select_and_ref_ratio", "ratio", "lower"),
    layer("eval.bin_op_ref_ratio", "ratio", "lower"),
    layer("eval.aggr_sum_ref_ratio", "ratio", "lower"),
    layer("eval.group_agg_ref_ratio", "ratio", "lower"),
    layer("eval.build_hash_ref_ratio", "ratio", "lower"),
    layer("eval.probe_hash_ref_ratio", "ratio", "lower"),
    layer("eval.merge_groups_ref_ratio", "ratio", "lower"),
    layer("eval.top_n_ref_ratio", "ratio", "lower"),
    layer("eval.busy_ms_query", "ms", "lower"),
    layer("eval.busy_share", "ratio", "higher"),
    layer("eval.busy_inflation", "ratio", "lower"),
    layer("eval.top_op_share", "ratio", "lower"),
    // par
    layer("par.submit_us", "us", "lower"),
    layer("par.roundtrip_us_w1", "us", "lower"),
    layer("par.roundtrip_us_wN", "us", "lower"),
    layer("par.set_active_us", "us", "lower"),
    layer("par.tasks_per_s", "1/s", "higher"),
    layer("par.tasks_per_query", "count", "lower"),
    layer("par.steals_per_ktask", "count", "lower"),
    layer("par.nonkernel_us_task", "us", "lower"),
    layer("par.scaling_olap", "ratio", "higher"),
    layer("par.scaling_small", "ratio", "higher"),
    layer("par.lock_probe_us_p50", "us", "lower"),
    layer("par.lock_probe_us_p99", "us", "lower"),
    // pool
    layer("pool.observe_ns", "ns", "lower"),
    layer("pool.transitions", "count", "lower"),
    layer("pool.cores_mean_low", "cores", "lower"),
    layer("pool.cores_mean_mid", "cores", "lower"),
    layer("pool.cores_mean_high", "cores", "lower"),
    layer("pool.ramp_ms", "ms", "lower"),
    // serve
    layer("serve.admission_ns", "ns", "lower"),
    layer("serve.schedule_us_karrival", "us", "lower"),
    layer("serve.dispatch_lag_us_p50", "us", "lower"),
    layer("serve.dispatch_lag_us_p95", "us", "lower"),
    layer("serve.overhead_ms_p50", "ms", "lower"),
    layer("serve.latency_p95_ms_low", "ms", "lower"),
    layer("serve.latency_p99_ms_low", "ms", "lower"),
    layer("serve.latency_p99_ms_mid", "ms", "lower"),
    layer("serve.latency_p99_ms_high", "ms", "lower"),
    layer("serve.queue_peak", "count", "lower"),
    layer("serve.shed_share", "ratio", "lower"),
    layer("serve.max_rate_ok", "1/s", "higher"),
    // runner_threads
    layer("runner_threads.overhead_pct", "%", "lower"),
    layer("runner_threads.nonworker_cpu_share", "ratio", "lower"),
    // sim engine
    layer("engine.tasks_per_wall_s", "1/s", "higher"),
    layer("engine.tasks_per_query", "count", "lower"),
    // os_sim, numa_sim
    layer("os_sim.run_tick_ns_64", "ns", "lower"),
    layer("os_sim.tick_share", "ratio", "lower"),
    layer("numa_sim.access_dram_ns", "ns", "lower"),
    layer("numa_sim.end_tick_ns", "ns", "lower"),
    // mechanism + petrinet
    layer("mechanism.poll_ns", "ns", "lower"),
    layer("mechanism.transitions", "count", "lower"),
    layer("petrinet.step_ns", "ns", "lower"),
    // tenant
    layer("tenant.tick_ns_64", "ns", "lower"),
    layer("tenant.tick_ns_256", "ns", "lower"),
    layer("tenant.ref_ratio_256", "ratio", "lower"),
    layer("tenant.ticks", "count", "lower"),
    layer("tenant.tick_us_mean", "us", "lower"),
    layer("tenant.denials", "count", "lower"),
    layer("tenant.yields", "count", "lower"),
    // trace
    layer("trace.overhead_pct", "%", "lower"),
];

/// True when `name` is made only of the characters the manifest allows.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The metrics of one run, keyed by declared name. Setting an undeclared
/// name is a bug and panics; a declared name left unset fails the run.
pub struct Report {
    decls: &'static [MetricDecl],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A report over the end-to-end table (`trace == false`) or the
    /// per-layer table.
    pub fn new(trace: bool) -> Self {
        Report {
            decls: if trace { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under the declared metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = self
            .decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in schema.rs"));
        self.values.insert(decl.name, value);
    }

    /// Reports every still-unset metric whose name starts with one of
    /// `prefixes` as 0: the layer did no work on this workload's path.
    pub fn zero_unset(&mut self, prefixes: &[&str]) {
        for d in self.decls {
            if prefixes.iter().any(|p| d.name.starts_with(p)) {
                self.values.entry(d.name).or_insert(0.0);
            }
        }
    }

    /// The recorded value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared metric in declaration order with its value, or the
    /// names that were never set or are not finite.
    pub fn finish(&self) -> Result<Vec<(&'static MetricDecl, f64)>, Vec<&'static str>> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for d in self.decls {
            match self.values.get(d.name) {
                Some(v) if v.is_finite() => out.push((d, *v)),
                _ => missing.push(d.name),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "BENCHMARK.json drifted: regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} is declared twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "unit of {}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn a_report_prints_exactly_the_declared_names() {
        for trace in [false, true] {
            let mut r = Report::new(trace);
            let decls = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(r.finish().unwrap_err().len(), decls.len());
            for d in decls {
                r.set(d.name, 1.0);
            }
            let printed: Vec<&str> = r.finish().unwrap().iter().map(|(d, _)| d.name).collect();
            let declared: Vec<&str> = decls.iter().map(|d| d.name).collect();
            assert_eq!(printed, declared);
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Report::new(false).set("made_up", 1.0);
    }

    #[test]
    fn a_non_finite_value_counts_as_missing() {
        let mut r = Report::new(false);
        for d in END_TO_END {
            r.set(d.name, 1.0);
        }
        r.set("qps", f64::NAN);
        assert_eq!(r.finish().unwrap_err(), vec!["qps"]);
    }
}
