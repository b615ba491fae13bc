//! The typed experiment specification — the single configuration
//! surface of every scenario.
//!
//! [`ExperimentSpec`] is set from `emca` flags or a `key=value` spec
//! line and nothing else: no spec key has an environment fallback.
//! Fields a scenario does not override fall back to that scenario's own
//! defaults, so the spec only pins what the caller set.
//!
//! Each key is spelled once, in its [`SPEC_KEYS`] row: the spec line,
//! the CLI flag and the `emca help` text are all derived from that
//! table.
//!
//! The spec is serde-able without a serde dependency (the build is
//! offline): [`std::fmt::Display`] renders a stable `key=value` line and
//! [`std::str::FromStr`] parses it back, round-tripping every field —
//! the same format the CLI logs at startup and accepts in scripts.

use crate::backend::Backend;
use crate::config::{Alloc, RunConfig, Warmup};
use elastic_core::PolicyId;
use emca_metrics::SimDuration;
use std::path::PathBuf;
use volcano_db::exec::engine::Flavor;
use volcano_db::exec::FaultPlan;
use volcano_db::tpch::TpchScale;

/// A rejected experiment spec — every variant carries the offending
/// `key=value` pair, so the CLI can print a one-line diagnostic (and
/// exit 2) instead of a panic or an anonymous string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A key no spec field answers to.
    UnknownKey {
        /// The unrecognised key.
        key: String,
        /// The value it carried.
        value: String,
    },
    /// A recognised key with an unparseable or out-of-range value.
    Malformed {
        /// The spec key being set.
        key: String,
        /// The rejected value.
        value: String,
        /// What a valid value looks like.
        reason: String,
    },
    /// `policy=`/`tenants=…:policy=` naming no known policy.
    UnknownPolicy {
        /// The spec key being set.
        key: String,
        /// The unknown policy name.
        value: String,
        /// Valid policy names, comma-joined.
        valid: String,
    },
    /// A tenant override naming no tenant of the target scenario.
    UnknownTenant {
        /// The spec key being set (`tenants`).
        key: String,
        /// The unknown tenant name.
        value: String,
        /// The scenario's tenant names, comma-joined.
        valid: String,
    },
    /// `backend=` naming no known backend.
    UnknownBackend {
        /// The spec key being set.
        key: String,
        /// The unknown backend name.
        value: String,
    },
    /// A set field the target scenario ignores. Silently dropping a
    /// pinned field ran the wrong experiment without a word (the old
    /// `ablation.rs` drift); now it is a hard error.
    Unsupported {
        /// The scenario rejecting the field.
        scenario: String,
        /// The unsupported key.
        key: String,
        /// The value it carried.
        value: String,
    },
    /// A set field the chosen backend ignores, whatever the scenario.
    BackendUnsupported {
        /// The backend rejecting the field.
        backend: String,
        /// The unsupported key.
        key: String,
        /// The value it carried.
        value: String,
    },
}

impl SpecError {
    /// A [`SpecError::Malformed`] with owned strings.
    pub(crate) fn malformed(
        key: impl Into<String>,
        value: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        SpecError::Malformed {
            key: key.into(),
            value: value.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid experiment spec: ")?;
        match self {
            SpecError::UnknownKey { key, value } => write!(
                f,
                "unknown key in {key}={value} (valid: {})",
                ExperimentSpec::KEYS.join(" ")
            ),
            SpecError::Malformed { key, value, reason } => {
                write!(f, "{key}={value}: {reason}")
            }
            SpecError::UnknownPolicy { key, value, valid } => {
                write!(f, "{key}={value}: unknown policy (valid: {valid})")
            }
            SpecError::UnknownTenant { key, value, valid } => {
                write!(f, "{key}={value}: no such tenant (valid: {valid})")
            }
            SpecError::UnknownBackend { key, value } => {
                write!(f, "{key}={value}: unknown backend (expected sim|threads)")
            }
            SpecError::Unsupported {
                scenario,
                key,
                value,
            } => write!(
                f,
                "scenario {scenario} does not support {key}={value} (it would be \
                 silently ignored; drop the field or pick a scenario that honours it)"
            ),
            SpecError::BackendUnsupported {
                backend,
                key,
                value,
            } => write!(
                f,
                "backend {backend} does not support {key}={value} (it would be \
                 silently ignored; drop the field or run on a backend that honours it)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Per-tenant overrides for the multi-tenant (`mt_*`) scenarios: the
/// scenario defines its tenants (names, workloads, arbitration); the
/// spec may override each tenant's policy, client count, weight, or
/// core budget. Rendered/parsed as `name[:key=value]*` with keys
/// `policy|users|weight|cap`, e.g. `olap:users=24:cap=6`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TenantSpec {
    /// Tenant name, matched against the scenario's tenant names (or by
    /// position when no name matches).
    pub name: String,
    /// Placement-policy override.
    pub policy: Option<PolicyId>,
    /// Client-count override.
    pub users: Option<usize>,
    /// Arbiter weight / priority-rank override.
    pub weight: Option<u32>,
    /// Core-budget override (`SlaPolicy::max_cores`).
    pub max_cores: Option<u32>,
}

impl TenantSpec {
    /// A named tenant override with nothing overridden.
    pub fn named(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            ..Self::default()
        }
    }

    fn parse(s: &str) -> Result<Self, SpecError> {
        let mut parts = s.split(':');
        let name = parts
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| SpecError::malformed("tenants", s, "tenant spec needs a name"))?;
        let mut spec = TenantSpec::named(name);
        for part in parts {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                SpecError::malformed(
                    "tenants",
                    s,
                    format!("tenant field must be key=value, got {part:?}"),
                )
            })?;
            match key {
                "policy" => spec.policy = Some(parse_policy("tenants", value)?),
                "users" => spec.users = Some(parse_count(s, key, value)?),
                "weight" => spec.weight = Some(parse_count(s, key, value)?),
                "cap" => spec.max_cores = Some(parse_num("tenants", value)?),
                other => {
                    return Err(SpecError::malformed(
                        "tenants",
                        s,
                        format!("unknown tenant field {other:?} (valid: policy users weight cap)"),
                    ))
                }
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for TenantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(p) = self.policy {
            write!(f, ":policy={p}")?;
        }
        if let Some(u) = self.users {
            write!(f, ":users={u}")?;
        }
        if let Some(w) = self.weight {
            write!(f, ":weight={w}")?;
        }
        if let Some(c) = self.max_cores {
            write!(f, ":cap={c}")?;
        }
        Ok(())
    }
}

/// A tenant's `users`/`weight`: zero would panic deep in the
/// arbiter/runner, so it is a spec error naming the tenant spec `s`.
fn parse_count<T: std::str::FromStr + Default + PartialEq>(
    s: &str,
    field: &str,
    value: &str,
) -> Result<T, SpecError> {
    let n: T = parse_num("tenants", value)?;
    if n == T::default() {
        let reason = format!("tenant {field} must be >= 1");
        return Err(SpecError::malformed("tenants", s, reason));
    }
    Ok(n)
}

/// Comma-joined valid policy names, for error messages.
fn policy_names() -> String {
    let names: Vec<&str> = PolicyId::ALL.iter().map(|p| p.name()).collect();
    names.join(", ")
}

/// How the serving layer's open-loop requests arrive (`arrival=`):
/// a Poisson process at a fixed rate, or a recorded trace replayed
/// verbatim. Both produce a schedule pinned by the spec's seed, so a
/// run is reproducible across repeats and backends.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals at `lambda` requests per (simulated) second.
    Poisson {
        /// Offered load, requests/s (> 0).
        lambda: f64,
    },
    /// Replay a trace file: one arrival per line, `arrival_ms[,query]`,
    /// `#` comments, timestamps non-decreasing.
    Trace {
        /// Path to the trace file.
        path: PathBuf,
    },
}

impl ArrivalSpec {
    fn parse(value: &str) -> Result<Self, SpecError> {
        let bad = |reason: &str| SpecError::malformed("arrival", value, reason);
        match value.split_once(':') {
            Some(("poisson", rate)) => {
                let lambda: f64 = rate
                    .parse()
                    .map_err(|_| bad("poisson rate must be a number (requests/s)"))?;
                if !(lambda > 0.0 && lambda.is_finite()) {
                    return Err(bad("poisson rate must be finite and > 0"));
                }
                Ok(ArrivalSpec::Poisson { lambda })
            }
            Some(("trace", path)) if !path.is_empty() => Ok(ArrivalSpec::Trace {
                path: PathBuf::from(path),
            }),
            _ => Err(bad("expected poisson:<rate> or trace:<path>")),
        }
    }
}

impl std::fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalSpec::Poisson { lambda } => write!(f, "poisson:{lambda}"),
            ArrivalSpec::Trace { path } => write!(f, "trace:{}", path.display()),
        }
    }
}

/// The serving layer's admission policy (`admission=`): accept
/// everything, or cap concurrent in-flight queries with a
/// deadline-aware wait queue behind the cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionSpec {
    /// Every arrival is dispatched immediately (open door).
    None,
    /// At most `max_inflight` queries execute concurrently; excess
    /// arrivals wait in a queue of at most `queue` slots (`None` =
    /// unbounded) and are shed when the queue is full or their SLA
    /// deadline expires before dispatch.
    Limit {
        /// Concurrent in-flight query cap (>= 1).
        max_inflight: u32,
        /// Wait-queue capacity; `None` is unbounded.
        queue: Option<u32>,
    },
}

impl AdmissionSpec {
    fn parse(value: &str) -> Result<Self, SpecError> {
        let bad = |reason: &str| SpecError::malformed("admission", value, reason);
        if value == "none" {
            return Ok(AdmissionSpec::None);
        }
        let Some(rest) = value.strip_prefix("limit:") else {
            return Err(bad("expected none or limit:<max_inflight>[:queue=<slots>]"));
        };
        let (cap, queue) = match rest.split_once(':') {
            None => (rest, None),
            Some((cap, q)) => {
                let slots = q
                    .strip_prefix("queue=")
                    .ok_or_else(|| bad("expected queue=<slots> after limit:<max_inflight>"))?;
                let slots: u32 = slots
                    .parse()
                    .map_err(|_| bad("queue slots must be a number"))?;
                (cap, Some(slots))
            }
        };
        let max_inflight: u32 = cap
            .parse()
            .map_err(|_| bad("max_inflight must be a number"))?;
        if max_inflight == 0 {
            return Err(bad("max_inflight must be >= 1"));
        }
        Ok(AdmissionSpec::Limit {
            max_inflight,
            queue,
        })
    }
}

impl std::fmt::Display for AdmissionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionSpec::None => f.write_str("none"),
            AdmissionSpec::Limit {
                max_inflight,
                queue: None,
            } => write!(f, "limit:{max_inflight}"),
            AdmissionSpec::Limit {
                max_inflight,
                queue: Some(q),
            } => write!(f, "limit:{max_inflight}:queue={q}"),
        }
    }
}

/// Full description of one experiment invocation. Unset (`None`) fields
/// defer to the scenario's own defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Scenario name (`fig04` … `tab_summary`); empty for ad-hoc runs.
    pub scenario: String,
    /// Engine flavor override (scenarios that sweep both ignore it).
    pub flavor: Option<Flavor>,
    /// Mechanism policy: fills the *adaptive* slot of every scenario
    /// (`None` = the paper's adaptive mode).
    pub policy: Option<PolicyId>,
    /// Concurrent clients / cap on user sweeps (`--users`).
    pub users: Option<usize>,
    /// Per-client iterations (`--iters`).
    pub iters: Option<u32>,
    /// TPC-H scale factor (`--sf`; scenario default 0.25).
    pub sf: Option<f64>,
    /// Data-generation seed.
    pub seed: u64,
    /// Base-data placement override (`--warmup`).
    pub warmup: Option<Warmup>,
    /// Eq. 1 saturation-guard override (`--guard`): `Some(None)`
    /// disables the guard, `Some(Some(x))` pins the threshold.
    pub guard: Option<Option<f64>>,
    /// Pinned control interval in ms (`--interval-ms`).
    pub interval_ms: Option<f64>,
    /// Enforce fidelity/validation claims where the scenario defines
    /// them (`--check`).
    pub check: bool,
    /// CSV output directory (default: the workspace `results/`).
    pub out_dir: Option<PathBuf>,
    /// Per-tenant overrides for the multi-tenant scenarios
    /// (`--tenants`); `None` keeps every scenario
    /// default.
    pub tenants: Option<Vec<TenantSpec>>,
    /// Execution backend (`--backend`): the
    /// deterministic simulation (default) or real OS threads.
    pub backend: Backend,
    /// Open-loop arrival process for the serving scenarios
    /// (`--arrival`).
    pub arrival: Option<ArrivalSpec>,
    /// Open-loop offered-load window in seconds (`--duration`); arrivals stop after this, in-flight work drains.
    pub duration: Option<f64>,
    /// Admission policy of the serving front door (`--admission`).
    pub admission: Option<AdmissionSpec>,
    /// Per-request SLA target in milliseconds (`--sla-ms`); the deadline-aware queue sheds requests that cannot
    /// be dispatched before `arrival + sla`.
    pub sla_ms: Option<f64>,
    /// Deterministic fault-injection plan (`--faults`),
    /// e.g. `panic:worker=3@2s,badquery:rate=0.01`. Unset leaves the
    /// fault plane fully inert.
    pub faults: Option<FaultPlan>,
    /// Serverless churn population for the churn scenarios
    /// (`--churn`), e.g. `64:resident=12:skew=0.8`.
    pub churn: Option<crate::churn::ChurnSpec>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            scenario: String::new(),
            flavor: None,
            policy: None,
            users: None,
            iters: None,
            sf: None,
            seed: 42,
            warmup: None,
            guard: None,
            interval_ms: None,
            check: false,
            out_dir: None,
            tenants: None,
            backend: Backend::default(),
            arrival: None,
            duration: None,
            admission: None,
            sla_ms: None,
            faults: None,
            churn: None,
        }
    }
}

impl ExperimentSpec {
    /// A spec naming a scenario, everything else at defaults.
    pub fn for_scenario(name: impl Into<String>) -> Self {
        ExperimentSpec {
            scenario: name.into(),
            ..Self::default()
        }
    }

    /// The TPC-H scale, falling back to the scenario's default factor.
    pub fn scale(&self, default_sf: f64) -> TpchScale {
        TpchScale {
            sf: self.sf.unwrap_or(default_sf),
            seed: self.seed,
        }
    }

    /// Client count with the scenario's default cap.
    pub fn users_or(&self, default: usize) -> usize {
        self.users.unwrap_or(default)
    }

    /// Iteration count with the scenario's default.
    pub fn iters_or(&self, default: u32) -> u32 {
        self.iters.unwrap_or(default)
    }

    /// The allocation filling the scenario's *mechanism* slot: the
    /// paper's adaptive mode unless a policy override is set.
    pub fn mech_alloc(&self) -> Alloc {
        match self.policy {
            None => Alloc::Adaptive,
            Some(p) => Alloc::from(p),
        }
    }

    /// The four-series sweep of most figures, with the adaptive slot
    /// replaced by the spec's policy (identical to the paper's
    /// OS/Dense/Sparse/Adaptive by default).
    pub fn alloc_sweep(&self) -> [Alloc; 4] {
        [Alloc::OsAll, Alloc::Dense, Alloc::Sparse, self.mech_alloc()]
    }

    /// Applies the spec's mechanism overrides (guard, pinned interval,
    /// warm-up homing) to a run configuration.
    pub fn apply(&self, mut cfg: RunConfig) -> RunConfig {
        if let Some(guard) = self.guard {
            cfg = cfg.with_guard(guard);
        }
        if let Some(ms) = self.interval_ms {
            cfg = cfg.with_mech_interval(SimDuration::from_micros((ms * 1000.0) as u64));
        }
        if let Some(w) = self.warmup {
            cfg = cfg.with_warmup(w);
        }
        if let Some(p) = &self.faults {
            cfg = cfg.with_faults(p.clone());
        }
        cfg.with_backend(self.backend)
    }

    /// Applies the spec to a multi-tenant config: its run overrides to
    /// the config's base ([`ExperimentSpec::apply`]), then its tenant
    /// overrides — each [`TenantSpec`] is matched *by name* against the
    /// scenario's tenants and its set fields replace the scenario
    /// defaults. An override naming no tenant is a hard error listing
    /// the valid names — a typo must not silently retarget another
    /// tenant.
    pub fn apply_tenants(
        &self,
        cfg: &mut crate::tenants::MultiTenantConfig,
    ) -> Result<(), SpecError> {
        cfg.base = self.apply(cfg.base.clone());
        let Some(overrides) = &self.tenants else {
            return Ok(());
        };
        for ts in overrides {
            let Some(i) = cfg.tenants.iter().position(|t| t.name == ts.name) else {
                let valid: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
                return Err(SpecError::UnknownTenant {
                    key: "tenants".into(),
                    value: ts.name.clone(),
                    valid: valid.join(", "),
                });
            };
            let t = &mut cfg.tenants[i];
            if let Some(p) = ts.policy {
                t.policy = p.into();
            }
            if let Some(u) = ts.users {
                t.clients = u;
            }
            if let Some(w) = ts.weight {
                t.weight = w;
            }
            if let Some(c) = ts.max_cores {
                t.sla.max_cores = Some(c);
            }
        }
        Ok(())
    }

    /// Rejects a pinned key the spec's backend would silently ignore:
    /// `warmup` on threads, which have no simulated NUMA pages to home.
    /// Checked before a run starts, beside the scenario's own keys
    /// ([`crate::ScenarioRegistry::validate_spec`]).
    pub fn validate_backend(&self) -> Result<(), SpecError> {
        match (self.backend, &self.warmup) {
            (Backend::Threads, Some(w)) => Err(SpecError::BackendUnsupported {
                backend: self.backend.to_string(),
                key: "warmup".into(),
                value: show_warmup(w),
            }),
            _ => Ok(()),
        }
    }

    /// Where a scenario CSV goes: `out_dir/<name>` when set, the
    /// workspace `results/<name>` otherwise.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        match &self.out_dir {
            Some(dir) => dir.join(name),
            None => crate::results_path(name),
        }
    }

    /// Logs the resolved spec (the startup line every entry point
    /// prints, so a run's full configuration is always on record).
    pub fn log_resolved(&self) {
        eprintln!("[spec] {self}");
    }
}

fn show_flavor(f: &Flavor) -> String {
    match f {
        Flavor::MonetDb => "monetdb",
        Flavor::SqlServer => "sqlserver",
    }
    .to_string()
}

fn parse_flavor(key: &str, s: &str) -> Result<Flavor, SpecError> {
    match s {
        "monetdb" => Ok(Flavor::MonetDb),
        "sqlserver" => Ok(Flavor::SqlServer),
        _ => Err(SpecError::malformed(key, s, "must be monetdb|sqlserver")),
    }
}

fn show_warmup(w: &Warmup) -> String {
    match w {
        Warmup::Loader => "loader",
        Warmup::Interleave => "interleave",
        Warmup::None => "none",
    }
    .to_string()
}

fn parse_warmup(key: &str, s: &str) -> Result<Warmup, SpecError> {
    match s {
        "loader" => Ok(Warmup::Loader),
        "interleave" => Ok(Warmup::Interleave),
        "none" => Ok(Warmup::None),
        _ => Err(SpecError::malformed(
            key,
            s,
            "must be loader|interleave|none",
        )),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::malformed(key, value, "must be a number"))
}

/// A finite number > 0, measured in `unit` (for the diagnostic).
fn parse_positive(key: &str, value: &str, unit: &str) -> Result<f64, SpecError> {
    let x: f64 = parse_num(key, value)?;
    if !(x > 0.0 && x.is_finite()) {
        let reason = format!("must be finite {unit} > 0");
        return Err(SpecError::malformed(key, value, reason));
    }
    Ok(x)
}

fn parse_policy(key: &str, value: &str) -> Result<PolicyId, SpecError> {
    PolicyId::try_from(value).map_err(|_| SpecError::UnknownPolicy {
        key: key.into(),
        value: value.into(),
        valid: policy_names(),
    })
}

/// `off` disables the guard, a number pins its threshold.
fn parse_guard(key: &str, value: &str) -> Result<Option<f64>, SpecError> {
    if value == "off" {
        return Ok(None);
    }
    parse_num(key, value).map(Some)
}

/// A gate must never be disarmed by a typo: anything but the four
/// spellings is an error, not "off".
fn parse_switch(key: &str, value: &str) -> Result<bool, SpecError> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(SpecError::malformed(key, value, "must be 1|true|0|false")),
    }
}

/// An explicitly empty plan is the same as no plan: the fault plane
/// stays inert and the spec line unchanged.
fn parse_faults(key: &str, value: &str) -> Result<Option<FaultPlan>, SpecError> {
    let plan = FaultPlan::parse(value).map_err(|e| SpecError::malformed(key, value, e))?;
    Ok((!plan.is_empty()).then_some(plan))
}

fn parse_backend(key: &str, value: &str) -> Result<Backend, SpecError> {
    value
        .parse()
        .map_err(|_: String| SpecError::UnknownBackend {
            key: key.into(),
            value: value.into(),
        })
}

/// How a spec key is reached from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// `--flag <value>`; carries the value grammar `emca help` shows.
    Value(&'static str),
    /// A value-less `--flag` (it sets `1`); the spec line takes
    /// `1|true|0|false`.
    Switch,
    /// Filled in by the command itself (`emca run <scenario>`): no flag.
    Positional,
}

/// One row of [`SPEC_KEYS`]: everything the experiment surface knows
/// about one spec key besides its typed [`ExperimentSpec`] field.
pub struct SpecKey {
    /// The key as spelled in a spec line — the struct field's name.
    pub name: &'static str,
    /// Its CLI shape.
    pub surface: Surface,
    /// One-line meaning, as `emca help` prints it.
    pub help: &'static str,
    /// A valid value (`emca help` shows it; the tests round-trip it).
    pub example: &'static str,
    /// Every scenario honours the key (or it configures the harness
    /// around the scenario), so supported-keys validation skips it.
    pub universal: bool,
    /// Parses a value into the field.
    set: fn(&mut ExperimentSpec, &str) -> Result<(), SpecError>,
    /// The rendered value, `None` while the field is at its default (so
    /// a spec line only carries what was pinned).
    get: fn(&ExperimentSpec) -> Option<String>,
    /// Resets the field to its default.
    clear: fn(&mut ExperimentSpec),
}

impl SpecKey {
    const fn universal(mut self) -> Self {
        self.universal = true;
        self
    }

    /// The row a spec-line key names.
    pub fn named(name: &str) -> Option<&'static SpecKey> {
        SPEC_KEYS.iter().find(|k| k.name == name)
    }

    /// The row a CLI flag names.
    pub fn for_flag(flag: &str) -> Option<&'static SpecKey> {
        SPEC_KEYS.iter().find(|k| k.flag().as_deref() == Some(flag))
    }

    /// The CLI flag: `--` + the key with `_` as `-`.
    pub fn flag(&self) -> Option<String> {
        (self.surface != Surface::Positional).then(|| format!("--{}", self.name.replace('_', "-")))
    }
}

/// Builds one [`SPEC_KEYS`] row from the struct field's name, so a key
/// is spelled once. `opt` rows are `Option` fields (`None` = unset)
/// parsed to and shown from the inner value; `raw` rows parse to and
/// show the whole field.
macro_rules! key {
    (opt $f:ident, $surface:expr, $help:expr, $example:expr, $parse:expr, $show:expr) => {
        key!(@row $f, $surface, $help, $example, |s, v| {
            s.$f = Some($parse(stringify!($f), v)?);
            Ok(())
        }, |s| s.$f.as_ref().map($show))
    };
    (raw $f:ident, $surface:expr, $help:expr, $example:expr, $parse:expr, $show:expr) => {
        key!(@row $f, $surface, $help, $example, |s, v| {
            s.$f = $parse(stringify!($f), v)?;
            Ok(())
        }, |s| $show(&s.$f))
    };
    (@row $f:ident, $surface:expr, $help:expr, $example:expr, $set:expr, $get:expr) => {
        SpecKey {
            name: stringify!($f),
            surface: $surface,
            help: $help,
            example: $example,
            universal: false,
            set: $set,
            get: $get,
            clear: |s| s.$f = ExperimentSpec::default().$f,
        }
    };
}

use Surface::{Positional, Switch, Value};

/// The key table: one row per spec key, in `Display` order. The only
/// place a key is spelled besides its [`ExperimentSpec`] field —
/// rendering, parsing, the CLI flags and `emca help` are all loops
/// over it.
pub const SPEC_KEYS: &[SpecKey] = &[
    key!(raw scenario, Positional, "scenario name (see `emca list`)", "fig19",
        |_, v: &str| Ok::<_, SpecError>(v.to_string()),
        |s: &String| (!s.is_empty()).then(|| s.clone()))
    .universal(),
    key!(opt flavor, Value("monetdb|sqlserver"), "engine flavor override", "sqlserver",
        parse_flavor, show_flavor),
    key!(opt policy, Value("dense|sparse|adaptive|hillclimb"),
        "mechanism policy (fills the adaptive slot)", "hillclimb",
        parse_policy, ToString::to_string),
    key!(opt users, Value("<n>"), "concurrent clients / cap on user sweeps", "64",
        parse_num, ToString::to_string),
    key!(opt iters, Value("<n>"), "per-client query iterations", "6",
        parse_num, ToString::to_string),
    key!(opt sf, Value("<f>"), "TPC-H scale factor (scenario default 0.25)", "0.25",
        parse_num, ToString::to_string),
    // Always rendered, so a logged spec line pins its data.
    key!(raw seed, Value("<n>"), "data-generation seed (default 42)", "7",
        parse_num, |n: &u64| Some(n.to_string()))
    .universal(),
    key!(opt warmup, Value("loader|interleave|none"), "base-data homing", "interleave",
        parse_warmup, show_warmup),
    key!(opt guard, Value("off|<threshold>"), "Eq. 1 saturation guard", "0.85",
        parse_guard, |g| g.map_or("off".to_string(), |g| g.to_string())),
    key!(opt interval_ms, Value("<ms>"), "pinned control interval (disables adaptation)", "2.5",
        parse_num, ToString::to_string),
    key!(raw check, Switch, "arm the scenario's claim checks (fidelity gates)", "1",
        parse_switch, |on: &bool| on.then(|| "1".to_string()))
    .universal(),
    key!(opt out_dir, Value("<dir>"), "CSV output directory (default results/)", "/tmp/emca-out",
        |_, v: &str| Ok::<_, SpecError>(PathBuf::from(v)), |d| d.display().to_string())
    .universal(),
    key!(opt tenants, Value("name[:policy=..][:users=..][:weight=..][:cap=..],..."),
        "per-tenant overrides (mt_* scenarios)", "olap:users=24:cap=6,steady",
        |_, v: &str| v.split(',').map(TenantSpec::parse).collect::<Result<Vec<_>, _>>(),
        |t| t.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")),
    key!(opt arrival, Value("poisson:<qps>|trace:<path>"),
        "open-loop schedule (serve_* scenarios)", "poisson:12.5",
        |_, v| ArrivalSpec::parse(v), ToString::to_string),
    key!(opt duration, Value("<s>"), "offered-load window in seconds", "3",
        |k, v| parse_positive(k, v, "seconds"), ToString::to_string),
    key!(opt admission, Value("none|limit:<n>[:queue=<cap>]"),
        "front-door policy of the admitted series", "limit:8:queue=64",
        |_, v| AdmissionSpec::parse(v), ToString::to_string),
    key!(opt sla_ms, Value("<ms>"), "per-request latency SLA (goodput + queue deadline)", "250",
        |k, v| parse_positive(k, v, "milliseconds"), ToString::to_string),
    key!(raw faults,
        Value("panic:worker=<n>@<t>,stall:worker=<n>@<t>:dur=<d>,badquery:rate=<p>"),
        "deterministic fault plan (chaos_* scenarios; unset = fault plane inert)",
        "panic:worker=3@2s,badquery:rate=0.01",
        parse_faults, |p: &Option<FaultPlan>| p.as_ref().map(ToString::to_string)),
    key!(opt churn, Value("<n>[:resident=<r>][:skew=<s>][:spread=<secs>]"),
        "generated churn population (mt_churn/mt_zipf)", "64:resident=12:skew=0.8",
        |_, v| crate::churn::ChurnSpec::parse(v), ToString::to_string),
    // Rendered only off the default, so sim spec lines stay as short
    // as they were before there was a second backend.
    key!(raw backend, Value("sim|threads"),
        "execute on simulated workers or real OS threads", "threads",
        parse_backend, |b: &Backend| (*b != Backend::default()).then(|| b.to_string())),
];

/// Whether row `i` is in the selection: the universal rows
/// (`Some(true)`), the others (`Some(false)`), or every row (`None`).
const fn picked(i: usize, universal: Option<bool>) -> bool {
    match universal {
        Some(u) => u == SPEC_KEYS[i].universal,
        None => true,
    }
}

/// How many [`SPEC_KEYS`] rows a selection holds.
pub(crate) const fn count_keys(universal: Option<bool>) -> usize {
    let (mut i, mut n) = (0, 0);
    while i < SPEC_KEYS.len() {
        n += picked(i, universal) as usize;
        i += 1;
    }
    n
}

/// The names of a selection's rows, in table order; `N` is its
/// [`count_keys`].
pub(crate) const fn key_names<const N: usize>(universal: Option<bool>) -> [&'static str; N] {
    let mut names = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < SPEC_KEYS.len() {
        if picked(i, universal) {
            names[n] = SPEC_KEYS[i].name;
            n += 1;
        }
        i += 1;
    }
    names
}

impl std::fmt::Display for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        for key in SPEC_KEYS {
            let Some(value) = (key.get)(self) else {
                continue;
            };
            // Values with whitespace are quoted so the line stays
            // `FromStr`-parseable (the round-trip contract).
            let quote = if value.chars().any(char::is_whitespace) {
                "\""
            } else {
                ""
            };
            write!(f, "{sep}{}={quote}{value}{quote}", key.name)?;
            sep = " ";
        }
        Ok(())
    }
}

/// Splits a spec line into `key=value` tokens, honouring double quotes
/// around values (`out_dir="/tmp/my results"`).
fn tokenize(s: &str) -> Result<Vec<String>, SpecError> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in s.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(SpecError::malformed("spec", s, "unbalanced quote"));
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    Ok(tokens)
}

impl std::str::FromStr for ExperimentSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = ExperimentSpec::default();
        for pair in tokenize(s)? {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| SpecError::malformed("spec", &pair, "expected key=value"))?;
            spec.set(key, value)?;
        }
        Ok(spec)
    }
}

impl ExperimentSpec {
    /// Every spec key, in `Display` rendering order.
    pub const KEYS: &'static [&'static str] = &key_names::<{ count_keys(None) }>(None);

    /// Keys that are *universal* — every scenario honours them (or they
    /// configure the harness around the scenario), so the supported-keys
    /// validation never checks them.
    pub const UNIVERSAL_KEYS: &'static [&'static str] =
        &key_names::<{ count_keys(Some(true)) }>(Some(true));

    /// Sets one `key=value` field (the `FromStr`/CLI shared path).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match SpecKey::named(key) {
            Some(k) => (k.set)(self, value),
            None => Err(SpecError::UnknownKey {
                key: key.into(),
                value: value.into(),
            }),
        }
    }

    /// The non-universal keys this spec has pinned, as `(key, value)`
    /// pairs — what the supported-keys validation checks against a
    /// scenario's declared support, and what `--prune-unsupported`
    /// clears. `backend` counts as set only off its default.
    pub fn set_keys(&self) -> Vec<(&'static str, String)> {
        SPEC_KEYS
            .iter()
            .filter(|k| !k.universal)
            .filter_map(|k| Some((k.name, (k.get)(self)?)))
            .collect()
    }

    /// Resets one field to its default by key name (the
    /// `--prune-unsupported` path). Unknown keys are ignored.
    pub fn clear(&mut self, key: &str) {
        if let Some(k) = SpecKey::named(key) {
            (k.clear)(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default spec with `key` pinned to its row's example.
    fn pinned(key: &SpecKey) -> ExperimentSpec {
        let mut spec = ExperimentSpec::default();
        spec.set(key.name, key.example)
            .unwrap_or_else(|e| panic!("{}: example rejected: {e}", key.name));
        spec
    }

    #[test]
    fn default_spec_round_trips() {
        let spec = ExperimentSpec::default();
        let back: ExperimentSpec = spec.to_string().parse().unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn full_spec_round_trips() {
        let mut full = ExperimentSpec::default();
        for key in SPEC_KEYS {
            let name = key.name;
            let spec = pinned(key);
            assert_ne!(
                spec,
                ExperimentSpec::default(),
                "{name}: the example must move the field"
            );
            let line = spec.to_string();
            assert!(line.contains(&format!("{name}=")), "{name}: {line}");
            let back: ExperimentSpec = line.parse().unwrap();
            assert_eq!(spec, back, "{name}: serialised as {line:?}");
            full.set(name, key.example).unwrap();
        }
        // Every key at once: rendered in table order, parsed back equal.
        let line = full.to_string();
        let rendered: Vec<&str> = line
            .split(' ')
            .map(|pair| pair.split_once('=').unwrap().0)
            .collect();
        assert_eq!(rendered, ExperimentSpec::KEYS);
        assert_eq!(line.parse::<ExperimentSpec>().unwrap(), full, "{line}");
    }

    #[test]
    fn set_keys_tracks_pinned_fields_and_clear_unpins() {
        for key in SPEC_KEYS {
            let name = key.name;
            let mut spec = pinned(key);
            let reported = spec.set_keys();
            if key.universal {
                assert_eq!(reported, [], "{name}: universal keys are never reported");
            } else {
                let value = (key.get)(&spec).expect("a pinned key renders its value");
                assert_eq!(reported, [(name, value)]);
            }
            spec.clear("nonsense");
            assert_eq!(spec, pinned(key), "unknown keys are ignored");
            spec.clear(name);
            assert_eq!(spec, ExperimentSpec::default(), "{name}: clear unpins");
        }
    }

    #[test]
    fn every_flag_names_one_row() {
        for key in SPEC_KEYS {
            let name = key.name;
            let Some(flag) = key.flag() else {
                assert_eq!(key.surface, Surface::Positional, "{name}");
                continue;
            };
            assert_eq!(SpecKey::for_flag(&flag).map(|k| k.name), Some(name));
            let sharing = SPEC_KEYS
                .iter()
                .filter(|k| k.flag().as_deref() == Some(&flag))
                .count();
            assert_eq!(sharing, 1, "{flag} names one row");
        }
        // The naming rule: `--` + the key with `_` as `-`.
        let flag = |key: &str| SpecKey::named(key).unwrap().flag().unwrap();
        assert_eq!(flag("sf"), "--sf");
        assert_eq!(flag("sla_ms"), "--sla-ms");
        assert_eq!(flag("users"), "--users");
        assert_eq!(SpecKey::for_flag("--scenario").map(|k| k.name), None);
        assert_eq!(SpecKey::for_flag("--clients").map(|k| k.name), None);
    }

    #[test]
    fn key_lists_are_the_table() {
        let names: Vec<&str> = SPEC_KEYS.iter().map(|k| k.name).collect();
        assert_eq!(ExperimentSpec::KEYS, names);
        assert_eq!(
            ExperimentSpec::UNIVERSAL_KEYS,
            ["scenario", "seed", "check", "out_dir"]
        );
        for key in SPEC_KEYS {
            assert!(!key.help.is_empty(), "{}: emca help needs a line", key.name);
        }
    }

    #[test]
    fn check_takes_only_its_four_spellings() {
        for (value, on) in [("1", true), ("true", true), ("0", false), ("false", false)] {
            let spec: ExperimentSpec = format!("check={value}").parse().unwrap();
            assert_eq!(spec.check, on, "check={value}");
        }
        // A typo must not silently disarm the gate.
        for value in ["yes", "True", "on", ""] {
            let err = format!("check={value}")
                .parse::<ExperimentSpec>()
                .unwrap_err();
            assert_eq!(
                err,
                SpecError::malformed("check", value, "must be 1|true|0|false")
            );
        }
    }

    #[test]
    fn faults_round_trip_and_default_is_omitted() {
        let line = ExperimentSpec::default().to_string();
        assert!(!line.contains("faults"), "{line}");
        let spec: ExperimentSpec =
            "faults=panic:worker=3@2s,stall:worker=5@1s:dur=500ms,badquery:rate=0.01"
                .parse()
                .unwrap();
        let plan = spec.faults.as_ref().expect("plan parsed");
        assert_eq!(plan.worker_faults.len(), 2);
        assert_eq!(plan.badquery_rate, 0.01);
        let back: ExperimentSpec = spec.to_string().parse().unwrap();
        assert_eq!(spec, back);
        // Malformed plans report the offending pair; an empty plan is
        // the same as no plan.
        let err = "faults=flood:worker=1@1s"
            .parse::<ExperimentSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("faults"), "{err}");
        let empty: ExperimentSpec = "faults=".parse().unwrap();
        assert_eq!(empty.faults, None);
    }

    #[test]
    fn serve_fields_round_trip_and_default_is_omitted() {
        let line = ExperimentSpec::default().to_string();
        for key in ["arrival", "duration", "admission", "sla_ms"] {
            assert!(!line.contains(key), "{line}");
        }
        for (line, check) in [
            ("arrival=poisson:40", "poisson 40/s"),
            ("arrival=trace:/tmp/a.trace", "trace path"),
            ("admission=none", "open door"),
            ("admission=limit:8", "cap only"),
            ("admission=limit:8:queue=64", "cap and queue"),
            ("duration=2.5 sla_ms=100", "window and SLA"),
        ] {
            let spec: ExperimentSpec = line.parse().unwrap_or_else(|e| panic!("{check}: {e}"));
            assert_eq!(spec.to_string(), format!("seed=42 {line}"), "{check}");
        }
    }

    #[test]
    fn malformed_serve_fields_error_with_the_offending_pair() {
        for line in [
            "arrival=poisson:-3",
            "arrival=poisson:abc",
            "arrival=uniform:3",
            "arrival=trace:",
            "admission=limit:0",
            "admission=limit:8:depth=2",
            "admission=open",
            "duration=0",
            "duration=x",
            "sla_ms=-1",
        ] {
            let err = line.parse::<ExperimentSpec>().unwrap_err();
            let (key, value) = line.split_once('=').unwrap();
            let msg = err.to_string();
            assert!(
                msg.contains(key) && msg.contains(value),
                "{line:?} must report its key=value, got: {msg}"
            );
        }
    }

    #[test]
    fn unsupported_error_names_the_scenario_and_pair() {
        let err = SpecError::Unsupported {
            scenario: "tab_overhead".into(),
            key: "users".into(),
            value: "64".into(),
        };
        let msg = err.to_string();
        assert!(
            msg.contains("tab_overhead") && msg.contains("users=64"),
            "{msg}"
        );
    }

    #[test]
    fn threads_reject_a_pinned_warmup() {
        let spec: ExperimentSpec = "backend=threads warmup=loader".parse().unwrap();
        let err = spec.validate_backend().unwrap_err();
        assert_eq!(
            err,
            SpecError::BackendUnsupported {
                backend: "threads".into(),
                key: "warmup".into(),
                value: "loader".into(),
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("threads") && msg.contains("warmup=loader"),
            "{msg}"
        );

        // The simulator homes pages; an unpinned warmup passes anywhere.
        let sim: ExperimentSpec = "warmup=loader".parse().unwrap();
        assert_eq!(sim.validate_backend(), Ok(()));
        let threads: ExperimentSpec = "backend=threads".parse().unwrap();
        assert_eq!(threads.validate_backend(), Ok(()));
    }

    #[test]
    fn backend_round_trips_and_default_is_omitted() {
        let line = ExperimentSpec::default().to_string();
        assert!(!line.contains("backend"), "{line}");
        let spec = ExperimentSpec {
            backend: Backend::Threads,
            ..ExperimentSpec::default()
        };
        let line = spec.to_string();
        assert!(line.contains("backend=threads"), "{line}");
        let back: ExperimentSpec = line.parse().unwrap();
        assert_eq!(back.backend, Backend::Threads);
        assert!("backend=gpu".parse::<ExperimentSpec>().is_err());
    }

    #[test]
    fn spacey_out_dir_round_trips() {
        let spec = ExperimentSpec {
            out_dir: Some(PathBuf::from("/tmp/my results dir")),
            ..ExperimentSpec::default()
        };
        let line = spec.to_string();
        let back: ExperimentSpec = line.parse().unwrap();
        assert_eq!(spec, back, "serialised as {line:?}");
        assert!("out_dir=\"/tmp/unbalanced"
            .parse::<ExperimentSpec>()
            .is_err());
    }

    #[test]
    fn guard_off_round_trips() {
        let spec = ExperimentSpec {
            guard: Some(None),
            ..ExperimentSpec::default()
        };
        let line = spec.to_string();
        assert!(line.contains("guard=off"), "{line}");
        let back: ExperimentSpec = line.parse().unwrap();
        assert_eq!(back.guard, Some(None));
    }

    #[test]
    fn unknown_key_and_bad_values_error() {
        assert!("nonsense=1".parse::<ExperimentSpec>().is_err());
        assert!("sf=abc".parse::<ExperimentSpec>().is_err());
        assert!("warmup=sideways".parse::<ExperimentSpec>().is_err());
        let err = "policy=magic".parse::<ExperimentSpec>().unwrap_err();
        assert!(
            err.to_string().contains("adaptive"),
            "policy error must list valid names: {err}"
        );
    }

    #[test]
    fn malformed_values_are_rejected() {
        let err = ExperimentSpec::default().set("sf", "O.25").unwrap_err();
        assert_eq!(err, SpecError::malformed("sf", "O.25", "must be a number"));
        // Also for the value types that parse themselves.
        let err = "arrival=uniform:3".parse::<ExperimentSpec>().unwrap_err();
        assert!(err.to_string().contains("arrival=uniform:3"), "{err}");
        let err = ExperimentSpec::default().set("check", "True").unwrap_err();
        assert_eq!(
            err,
            SpecError::malformed("check", "True", "must be 1|true|0|false")
        );
    }

    #[test]
    fn tenant_specs_round_trip() {
        let spec = ExperimentSpec {
            tenants: Some(vec![
                TenantSpec {
                    name: "olap".into(),
                    policy: Some(PolicyId::HillClimb),
                    users: Some(24),
                    weight: Some(2),
                    max_cores: Some(6),
                },
                TenantSpec::named("steady"),
            ]),
            ..ExperimentSpec::default()
        };
        let line = spec.to_string();
        assert!(
            line.contains("tenants=olap:policy=hillclimb:users=24:weight=2:cap=6,steady"),
            "{line}"
        );
        let back: ExperimentSpec = line.parse().unwrap();
        assert_eq!(spec, back, "serialised as {line:?}");
    }

    #[test]
    fn malformed_tenant_specs_error() {
        assert!("tenants=".parse::<ExperimentSpec>().is_err());
        assert!("tenants=a:users=x".parse::<ExperimentSpec>().is_err());
        assert!("tenants=a:magic=1".parse::<ExperimentSpec>().is_err());
        // Zero weight/users would panic deep in the arbiter/runner;
        // they must be spec errors instead.
        assert!("tenants=a:weight=0".parse::<ExperimentSpec>().is_err());
        assert!("tenants=a:users=0".parse::<ExperimentSpec>().is_err());
        let err = "tenants=a:policy=warp"
            .parse::<ExperimentSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("adaptive"), "{err}");
    }

    #[test]
    fn apply_tenants_matches_by_name_and_rejects_unknown_names() {
        use crate::tenants::{MultiTenantConfig, TenantRunConfig};
        use volcano_db::client::Workload;
        use volcano_db::tpch::QuerySpec;
        let wl = Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: 1,
        };
        let mut cfg = MultiTenantConfig::new(
            elastic_core::ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("steady", wl.clone(), 8),
                TenantRunConfig::new("olap", wl, 16),
            ],
        );
        let spec = ExperimentSpec {
            tenants: Some(vec![TenantSpec {
                name: "olap".into(),
                users: Some(4),
                max_cores: Some(3),
                weight: Some(7),
                ..TenantSpec::default()
            }]),
            ..ExperimentSpec::default()
        };
        spec.apply_tenants(&mut cfg).unwrap();
        assert_eq!(cfg.tenants[0].clients, 8, "steady untouched");
        assert_eq!(cfg.tenants[1].clients, 4);
        assert_eq!(cfg.tenants[1].sla.max_cores, Some(3));
        assert_eq!(cfg.tenants[1].weight, 7);

        // A typo'd name must not silently retarget another tenant.
        let typo = ExperimentSpec {
            tenants: Some(vec![TenantSpec::named("olp")]),
            ..ExperimentSpec::default()
        };
        let err = typo.apply_tenants(&mut cfg).unwrap_err();
        assert!(
            err.to_string().contains("olp") && err.to_string().contains("steady"),
            "{err}"
        );
    }

    #[test]
    fn policy_fills_the_mech_slot() {
        let mut spec = ExperimentSpec::default();
        assert_eq!(spec.mech_alloc(), Alloc::Adaptive);
        assert_eq!(
            spec.alloc_sweep(),
            [Alloc::OsAll, Alloc::Dense, Alloc::Sparse, Alloc::Adaptive]
        );
        spec.policy = Some(PolicyId::HillClimb);
        assert_eq!(spec.mech_alloc(), Alloc::HillClimb);
        assert_eq!(spec.alloc_sweep()[3], Alloc::HillClimb);
        spec.policy = Some(PolicyId::Dense);
        assert_eq!(spec.mech_alloc(), Alloc::Dense);
    }

    #[test]
    fn scale_and_default_accessors() {
        let spec = ExperimentSpec::default();
        assert_eq!(spec.scale(0.25).sf, 0.25);
        assert_eq!(spec.scale(0.25).seed, 42);
        assert_eq!(spec.users_or(64), 64);
        assert_eq!(spec.iters_or(3), 3);
        let spec = ExperimentSpec {
            sf: Some(0.002),
            users: Some(4),
            iters: Some(1),
            ..ExperimentSpec::default()
        };
        assert_eq!(spec.scale(0.25).sf, 0.002);
        assert_eq!(spec.users_or(64), 4);
        assert_eq!(spec.iters_or(3), 1);
    }
}
