//! The tenant lifecycle — one driver for resident and churned
//! populations — and the `churn=` axis of
//! [`ExperimentSpec`](crate::ExperimentSpec) (`--churn`)
//! that describes the latter.
//!
//! A multi-tenant run is a set of tenants moving through one lifecycle
//! ([`run_tenants_churn`]): *admitted* (a cold start — its own engine
//! built, data loaded, workers started, mechanism installed and first
//! core claimed at admit time), *clients started*, *finished*, *retired*
//! (results drained, [`TenantArbiter`] registration dropped). The
//! lifecycle's loop is written once, over a `Substrate` that answers
//! what differs between backends — the clock, how a tenant is
//! installed, polled, sampled and retired: `SimSubstrate` here (a
//! kernel tick per pass) and `runner_threads::PoolSubstrate` on real
//! threads (a 100 µs poll per pass). That loop is each backend's only
//! driver loop.
//! A single-instance [`run`](crate::run) is the resident shape with one
//! tenant, and so is a serving run ([`run_serve`](crate::run_serve)),
//! whose lone tenant has no clients: a front door ticks where its
//! clients would start, its arrivals are the tenant's load, and the
//! tenant finishes when every request is resolved or the window closes.
//! The two population shapes differ only in when those steps happen:
//!
//! - **resident** (the classic `mt_*` shape, `resident_cap: None`):
//!   every tenant is admitted at t=0 in configuration order, its
//!   clients start at its `start_after`, and it stays installed — its
//!   mechanism still polling, so post-completion core release stays
//!   observable — until the drain ends;
//! - **churn** (the DBaaS shape the ROADMAP targets: dozens–hundreds of
//!   tenants through a machine that can only hold a few at a time): a
//!   tenant is admitted when its arrival time has passed *and* a
//!   resident slot plus a seed core are available, its clients start
//!   with it (first-query latency includes the cold start), and it
//!   departs the moment they finish — its cores return to the free pool
//!   for redistribution and its arbiter slot is reused by a later
//!   arrival. Arrivals beyond the resident cap wait, serverless style;
//!   queue time is observable as `started_at - start_after`.
//!
//! [`ChurnSpec`] describes a churn population
//! (`64:resident=12:skew=0.8:spread=6`) and [`ChurnPlan`] expands it —
//! deterministically, from the experiment seed — into per-tenant demand
//! drawn from a Zipf distribution over a shuffled rank order.
//!
//! With [`MultiTenantConfig::static_partition`] the churn lifecycle
//! runs against a *static partitioner* — each resident slot owns a
//! fixed 1/cap slice of the machine and no elastic mechanism runs. That
//! is the baseline the `mt_churn` `--check` gate compares adaptive
//! arbitration against.
//!
//! A tenant carrying SLA budgets runs under its governor wrap
//! ([`TenantRunConfig::with_sla`]) in either shape; core budgets also
//! reach the arbiter (BudgetCapped ceilings hold).
//!
//! Arbitration cost is measured for real, on both backends: every
//! tenant poll that runs a control step is timed on the host clock and
//! accumulated into [`MultiTenantOutput::arbiter_ticks`] /
//! `arbiter_ns`. The measurement never feeds back into the simulation,
//! so sim results stay a pure function of the seed. A run stops at its
//! deadline (simulated time on sim, wall time on threads) and aborts
//! ([`RunAborted`]) if a tenant is then unfinished or still waiting.

use crate::backend::Backend;
use crate::config::RunConfig;
use crate::runner::{mechanism_parts, start_engine};
use crate::runner_threads::PoolSubstrate;
use crate::serve::{FrontDoor, SimSessions};
use crate::spec::SpecError;
use crate::tenants::{MultiTenantConfig, MultiTenantOutput, TenantOutput, TenantRunConfig};
use crate::timing::RunAborted;
use elastic_core::{
    ElasticMechanism, MechanismConfig, Policy, SharedArbiter, TenantArbiter, TenantBinding,
    TenantId,
};
use emca_metrics::{SimDuration, SimTime, TimeSeries};
use numa_sim::{CoreId, HwSnapshot};
use os_sim::{CoreMask, GroupId, Kernel, LoadSampler, SchedStats, SchedTrace, ThreadState, Tid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
// emca-lint: allow(determinism) — host-clock probe for arbitration overhead; measurement-only, never feeds a sim decision
use std::time::Instant;
use volcano_db::client::{spawn_clients, SharedLog, Workload};
use volcano_db::exec::engine::Engine;
use volcano_db::tpch::{QuerySpec, TpchData};

/// Default cap on simultaneously resident tenants.
const DEFAULT_RESIDENT: u32 = 8;
/// Default Zipf exponent for the demand distribution (0 = uniform).
const DEFAULT_SKEW: f64 = 0.8;
/// Default arrival spread in simulated seconds.
const DEFAULT_SPREAD: f64 = 4.0;

/// The parsed `churn=` axis: `<n>[:resident=<r>][:skew=<s>][:spread=<secs>]`.
///
/// `n` is the total tenant population over the run's lifetime;
/// `resident` caps how many are installed at once (the "machine size"
/// in slots); `skew` is the Zipf exponent shaping per-tenant demand
/// (0 = uniform, larger = heavier head); `spread` is the window of
/// simulated seconds the arrivals are scattered over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Total tenants over the run's lifetime.
    pub n: u32,
    /// Resident-set cap; `None` defaults to [`ChurnSpec::resident`].
    pub resident: Option<u32>,
    /// Zipf exponent; `None` defaults to [`ChurnSpec::skew`].
    pub skew: Option<f64>,
    /// Arrival spread (simulated seconds); `None` defaults to
    /// [`ChurnSpec::spread`].
    pub spread: Option<f64>,
}

impl ChurnSpec {
    /// A churn population of `n` tenants with every knob defaulted.
    pub fn new(n: u32) -> Self {
        ChurnSpec {
            n,
            resident: None,
            skew: None,
            spread: None,
        }
    }

    /// The resident-set cap (defaulted).
    pub fn resident(&self) -> u32 {
        self.resident.unwrap_or(DEFAULT_RESIDENT)
    }

    /// The Zipf exponent (defaulted).
    pub fn skew(&self) -> f64 {
        self.skew.unwrap_or(DEFAULT_SKEW)
    }

    /// The arrival spread in simulated seconds (defaulted).
    pub fn spread(&self) -> f64 {
        self.spread.unwrap_or(DEFAULT_SPREAD)
    }

    /// Parses `<n>[:resident=<r>][:skew=<s>][:spread=<secs>]`.
    pub(crate) fn parse(value: &str) -> Result<Self, SpecError> {
        let bad = |reason: &str| SpecError::malformed("churn", value, reason);
        let mut parts = value.split(':');
        let head = parts.next().unwrap_or("");
        let n: u32 = head
            .parse()
            .map_err(|_| bad("tenant count must be an integer"))?;
        if n == 0 {
            return Err(bad("tenant count must be at least 1"));
        }
        let mut spec = ChurnSpec::new(n);
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| bad("options take the form key=value"))?;
            match key {
                "resident" => {
                    let r: u32 = val
                        .parse()
                        .map_err(|_| bad("resident must be an integer"))?;
                    if r == 0 {
                        return Err(bad("resident must be at least 1"));
                    }
                    spec.resident = Some(r);
                }
                "skew" => {
                    let s: f64 = val.parse().map_err(|_| bad("skew must be a number"))?;
                    if !s.is_finite() || s < 0.0 {
                        return Err(bad("skew must be finite and non-negative"));
                    }
                    spec.skew = Some(s);
                }
                "spread" => {
                    let s: f64 = val.parse().map_err(|_| bad("spread must be a number"))?;
                    if !s.is_finite() || s < 0.0 {
                        return Err(bad("spread must be finite and non-negative"));
                    }
                    spec.spread = Some(s);
                }
                _ => return Err(bad("unknown option (want resident, skew or spread)")),
            }
        }
        Ok(spec)
    }

    /// Expands the spec into a concrete, seeded plan. `max_clients` and
    /// `max_iters` bound the per-tenant demand the Zipf curve scales
    /// inside (the heaviest rank gets the maxima, the tail gets 1).
    pub fn plan(&self, seed: u64, max_clients: usize, max_iters: u32) -> ChurnPlan {
        let n = self.n as usize;
        // Decorrelate from the workload-generator streams that also key
        // off the experiment seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        // Zipf ranks 1..=n, shuffled so rank is independent of arrival
        // order (Fisher–Yates).
        let mut ranks: Vec<u32> = (1..=self.n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            ranks.swap(i, j);
        }
        let skew = self.skew();
        let spread = self.spread();
        let mut tenants: Vec<ChurnTenant> = (0..n)
            .map(|i| {
                // z ∈ (0, 1]: 1 for rank 1, 1/rank^skew down the tail.
                let z = 1.0 / f64::from(ranks[i]).powf(skew);
                let clients = (1.0 + z * (max_clients.saturating_sub(1)) as f64).round() as usize;
                let iters = (1.0 + z * f64::from(max_iters.saturating_sub(1))).round() as u32;
                let weight = 1 + (z * 3.0).round() as u32;
                let arrival = if spread > 0.0 {
                    SimDuration::from_secs_f64(rng.random_range(0.0..1.0) * spread)
                } else {
                    SimDuration::ZERO
                };
                ChurnTenant {
                    name: String::new(),
                    rank: ranks[i],
                    clients,
                    iters,
                    weight,
                    arrival,
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.rank.cmp(&b.rank)));
        for (i, t) in tenants.iter_mut().enumerate() {
            t.name = format!("t{i:03}");
        }
        ChurnPlan {
            tenants,
            resident: self.resident() as usize,
        }
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.n)?;
        if let Some(r) = self.resident {
            write!(f, ":resident={r}")?;
        }
        if let Some(s) = self.skew {
            write!(f, ":skew={s}")?;
        }
        if let Some(s) = self.spread {
            write!(f, ":spread={s}")?;
        }
        Ok(())
    }
}

/// One tenant of a [`ChurnPlan`]: Zipf rank, scaled demand, arrival.
#[derive(Clone, Debug)]
pub struct ChurnTenant {
    /// `t000`-style name, in arrival order.
    pub name: String,
    /// Zipf rank (1 = heaviest).
    pub rank: u32,
    /// Concurrent clients.
    pub clients: usize,
    /// Query iterations per client.
    pub iters: u32,
    /// Arbiter fair-share weight (heavier tenants weigh more).
    pub weight: u32,
    /// Arrival offset from run start.
    pub arrival: SimDuration,
}

/// A fully expanded churn plan — a pure function of
/// `(ChurnSpec, seed, max_clients, max_iters)`, identical on both
/// backends.
#[derive(Clone, Debug)]
pub struct ChurnPlan {
    /// Tenants in arrival order.
    pub tenants: Vec<ChurnTenant>,
    /// Resident-set cap.
    pub resident: usize,
}

impl ChurnPlan {
    /// Exact total completions the plan must produce (the zero-lost
    /// accounting gate: every client runs a fixed `Repeat` workload).
    pub fn expected_completions(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.clients as u64 * u64::from(t.iters))
            .sum()
    }

    /// The plan as runner tenant configs (Q6 `Repeat` workloads, so
    /// completion counts are exact).
    pub fn tenant_configs(&self) -> Vec<TenantRunConfig> {
        self.tenants
            .iter()
            .map(|t| {
                let workload = Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: t.iters,
                };
                TenantRunConfig::new(t.name.clone(), workload, t.clients)
                    .with_weight(t.weight)
                    .with_start_after(t.arrival)
            })
            .collect()
    }
}

/// The residency rules of the tenant lifecycle — who is admitted next,
/// when, and onto which slot — shared by both backends' drivers.
pub(crate) struct Admissions<'a> {
    config: &'a MultiTenantConfig,
    /// Whether the population churns (admit on arrival, depart on
    /// completion) instead of staying resident for the whole run.
    pub churn: bool,
    /// Tenant indices in admission order: by `(arrival, index)` under
    /// churn, configuration order otherwise.
    order: Vec<usize>,
    next: usize,
    /// Unoccupied resident slots, handed out lowest-first.
    free_slots: BinaryHeap<Reverse<usize>>,
    n_slots: usize,
    width: usize,
}

impl<'a> Admissions<'a> {
    /// Residency over a `width`-core machine: the configured cap of
    /// slots under churn, one per tenant otherwise.
    pub(crate) fn new(config: &'a MultiTenantConfig, width: usize) -> Self {
        let n = config.tenants.len();
        let churn = config.resident_cap.is_some() || config.static_partition;
        let mut order: Vec<usize> = (0..n).collect();
        let mut n_slots = n;
        if churn {
            order.sort_by_key(|&i| (config.tenants[i].start_after, i));
            n_slots = config.resident_cap.unwrap_or(n).clamp(1, width);
        }
        Admissions {
            config,
            churn,
            order,
            next: 0,
            free_slots: (0..n_slots).map(Reverse).collect(),
            n_slots,
            width,
        }
    }

    /// Admits the next tenant in line as `(tenant index, slot)` if a
    /// resident slot is free and — under churn — its arrival time has
    /// passed and (on the elastic path) a core is free for its initial
    /// claim; otherwise the arrival queues until a departure.
    pub(crate) fn admit(
        &mut self,
        elapsed: SimDuration,
        free_cores: u32,
    ) -> Option<(usize, usize)> {
        let &i = self.order.get(self.next)?;
        let late = elapsed >= self.config.tenants[i].start_after;
        let seedable = self.config.static_partition || free_cores > 0;
        if self.churn && !(late && seedable) {
            return None;
        }
        let Reverse(slot) = self.free_slots.pop()?;
        self.next += 1;
        Some((i, slot))
    }

    /// Frees a departed tenant's slot.
    pub(crate) fn depart(&mut self, slot: usize) {
        self.free_slots.push(Reverse(slot));
    }

    /// Whether tenants are still waiting to be admitted.
    pub(crate) fn pending(&self) -> bool {
        self.next < self.order.len()
    }

    /// The fixed slice of the machine `slot` owns on the
    /// static-partition baseline (the last slot takes the remainder);
    /// `None` off it.
    pub(crate) fn static_slice(&self, slot: usize) -> Option<Range<usize>> {
        let slice = self.width / self.n_slots;
        let hi = if slot + 1 == self.n_slots {
            self.width
        } else {
            (slot + 1) * slice
        };
        self.config.static_partition.then_some(slot * slice..hi)
    }
}

/// The controller a managed tenant is installed under: the policy and
/// mechanism configuration [`mechanism_parts`] describes, and the
/// tenant's registration on the shared arbiter.
pub(crate) type Control = (Box<dyn Policy>, MechanismConfig, TenantBinding);

/// One installed tenant: the lifecycle's record of it and its half on
/// the backend.
pub(crate) struct Life<'d, T> {
    /// Index into [`MultiTenantConfig::tenants`].
    tenant: usize,
    /// Resident slot (its fixed machine slice on the static baseline).
    slot: usize,
    /// Arbiter registration (managed tenants only).
    tid: Option<TenantId>,
    /// The front door driving a serving tenant open-loop; such a tenant
    /// has no clients and finishes with its door.
    pub(crate) door: Option<&'d mut FrontDoor>,
    /// The record being written (series and control steps so far;
    /// closed at retirement).
    pub(crate) out: TenantOutput,
    /// When the tenant finished: its last client, or its door.
    pub(crate) finished_at: Option<SimTime>,
    /// The tenant on the backend.
    pub(crate) on: T,
}

/// What a backend answers for the tenant lifecycle: its clock, how a
/// tenant is installed, loaded, polled, sampled and retired, and what
/// the machine recorded. [`SimSubstrate`] and
/// [`PoolSubstrate`](crate::runner_threads::PoolSubstrate) implement it.
pub(crate) trait Substrate {
    /// One installed tenant's state on this backend.
    type Tenant;
    /// What [`RunAborted`] tells the user to raise.
    const DEADLINE_HINT: &'static str;
    /// Whether tenants are also sampled at the first poll and once more
    /// before they retire at the end, so that even a wall-clock run
    /// shorter than one sample interval leaves non-empty series.
    const SAMPLES_AT_EDGES: bool;

    /// The cores the arbiter splits and the static partitioner slices.
    fn width(&self) -> usize;
    /// The run-abort deadline, counted from the start.
    fn deadline(&self) -> SimDuration;
    /// The clock, read now (zero is the start of the run).
    fn now(&self) -> SimTime;
    /// Cold-starts a tenant — engine, data, workers — pinned to its
    /// `slice` on the static baseline and under `control` when managed.
    /// Its clients arrive at `arrives`.
    fn install(
        &mut self,
        instance: &RunConfig,
        tcfg: &TenantRunConfig,
        slice: Option<Range<usize>>,
        control: Option<Control>,
        arrives: SimTime,
    ) -> Self::Tenant;
    /// The tenant's load arrives at `now` (nothing by default: clients
    /// that sleep out their own delay need no call).
    fn arrive(&mut self, _life: &mut Life<'_, Self::Tenant>, _now: SimTime) {}
    /// When the tenant's clients all finished, once they have.
    fn finished(&self, tenant: &Self::Tenant, now: SimTime) -> Option<SimTime>;
    /// Moves the clock on by one tick or poll and reads it.
    fn advance(&mut self) -> SimTime;
    /// Whether the tenant's controller has a step due at `now`.
    fn control_due(&self, tenant: &Self::Tenant, now: SimTime) -> bool;
    /// Polls the tenant at `now`; returns the control steps it ran.
    fn poll(&mut self, life: &mut Life<'_, Self::Tenant>, now: SimTime) -> u64;
    /// Samples the machine-wide series at `now`, before the tenants.
    fn sample_machine(&mut self, _now: SimTime) {}
    /// Pushes one point of each of the tenant's series at `now`.
    fn sample(&mut self, tenant: &mut Self::Tenant, out: &mut TenantOutput, now: SimTime);
    /// Closes the backend half of the tenant's record — results, engine
    /// counters, transition log, tomograph — and returns its failed
    /// queries.
    fn retire(&mut self, tenant: Self::Tenant, out: &mut TenantOutput) -> Vec<String>;
    /// What the machine recorded over the run.
    fn finish(self) -> MachineRecord;
}

/// The machine-wide part of a [`MultiTenantOutput`].
pub(crate) struct MachineRecord {
    pub(crate) hw_before: HwSnapshot,
    pub(crate) hw_after: HwSnapshot,
    pub(crate) sched: SchedStats,
    pub(crate) imc_series: Vec<TimeSeries>,
    pub(crate) ht_series: TimeSeries,
    pub(crate) trace: Option<SchedTrace>,
}

/// Runs a multi-tenant experiment on the backend the base config names;
/// [`crate::tenants::run_tenants`] is the same entry point and
/// [`crate::run`] its one-tenant case. With `resident_cap` or
/// `static_partition` set the population churns; otherwise every tenant
/// is resident from the start (see the module docs).
pub fn run_tenants_churn(config: MultiTenantConfig, data: &TpchData) -> MultiTenantOutput {
    run_lifecycle(config, data, None)
}

/// The lifecycle on the backend `config.base` names. `door`, when
/// given, drives the first tenant admitted — a serving run's lone,
/// clientless tenant — open-loop ([`crate::serve::run_serve`]).
pub(crate) fn run_lifecycle(
    config: MultiTenantConfig,
    data: &TpchData,
    door: Option<&mut FrontDoor>,
) -> MultiTenantOutput {
    match config.base.backend {
        Backend::Sim => lifecycle(SimSubstrate::new(&config.base, data), &config, door),
        Backend::Threads => lifecycle(PoolSubstrate::new(&config.base, data), &config, door),
    }
}

/// The tenant lifecycle on `sub` — the one driver loop of either
/// backend. Every pass runs: deadline → completions (departures under
/// churn) → admissions → arrivals → exit → clock → control → sample.
/// The run stops at the deadline, and aborts ([`RunAborted`]) if a
/// tenant is then unfinished or still waiting.
fn lifecycle<S: Substrate>(
    mut sub: S,
    config: &MultiTenantConfig,
    mut door: Option<&mut FrontDoor>,
) -> MultiTenantOutput {
    let width = sub.width();
    let arbiter = TenantArbiter::shared(config.arbiter, width as u32);
    let mut admissions = Admissions::new(config, width);
    let churn = admissions.churn;

    // The installed tenants in ascending tenant index — configuration
    // order, so departures, control steps and samples run in the order
    // a walk over every tenant would visit them.
    let mut lives: Vec<Life<S::Tenant>> = Vec::new();
    let mut outputs: Vec<Option<TenantOutput>> = config.tenants.iter().map(|_| None).collect();
    let mut errors: Vec<String> = Vec::new();
    let (mut arbiter_ticks, mut arbiter_ns) = (0u64, 0u64);

    // Both clocks start at zero: a fresh kernel, or the wall clock since
    // the pools' substrate was built.
    let start = SimTime::ZERO;
    let deadline = start + sub.deadline();
    let every = config.base.sample_every;
    let mut next_sample = if S::SAMPLES_AT_EDGES {
        start
    } else {
        start + every
    };
    let mut drained_from: Option<SimTime> = None;
    let mut now = start;
    while now < deadline {
        // Completions: a tenant whose clients all finished is done (a
        // serving tenant finishes with its door); under churn it departs
        // at once, freeing its slot and cores for redistribution.
        let mut k = 0;
        while k < lives.len() {
            let l = &mut lives[k];
            if l.finished_at.is_none() && l.door.is_none() {
                l.finished_at = sub.finished(&l.on, now);
            }
            if churn && l.finished_at.is_some() {
                let l = lives.remove(k);
                admissions.depart(l.slot);
                let i = l.tenant;
                outputs[i] = Some(retire(&mut sub, l, &arbiter, &mut errors, now));
            } else {
                k += 1;
            }
        }

        // Admissions, while the residency rules allow the next in line
        // (`free_cores` is a closure so its `Ref` is gone before the body
        // borrows the arbiter mutably).
        let free_cores = |arbiter: &SharedArbiter| arbiter.borrow().free_cores();
        while let Some((i, slot)) = admissions.admit(now.since(start), free_cores(&arbiter)) {
            let tcfg = &config.tenants[i];
            let instance = config.instance(tcfg);
            // A tenant with a mechanism is a registered tenant; an
            // OS-baseline tenant and the static baseline run none.
            let parts = mechanism_parts(&instance).filter(|_| !config.static_partition);
            let control = parts.map(|(policy, cfg)| {
                let (name, sla) = (tcfg.name.clone(), tcfg.sla.max_cores);
                let tid = arbiter.borrow_mut().register(name, tcfg.weight, sla);
                (policy, cfg, TenantBinding::new(Rc::clone(&arbiter), tid))
            });
            let slice = admissions.static_slice(slot);
            let arrives = now.max(start + tcfg.start_after);
            let mut life = Life {
                tenant: i,
                slot,
                tid: control.as_ref().map(|(_, _, binding)| binding.tenant),
                door: door.take(),
                out: TenantOutput::begin(tcfg, arrives),
                finished_at: None,
                on: sub.install(&instance, tcfg, slice, control, arrives),
            };
            // A churned tenant arrives whole: its clients come with it.
            if churn {
                sub.arrive(&mut life, now);
            }
            let at = lives.partition_point(|l| l.tenant < i);
            lives.insert(at, life);
        }
        // A resident tenant's `start_after` delays only its clients; a
        // serving tenant's door ticks where clients would start.
        for l in &mut lives {
            sub.arrive(l, now);
        }

        // Exit once nothing is left to run and the drain is over; the
        // mechanisms keep running through the drain.
        if !admissions.pending() && lives.iter().all(|l| l.finished_at.is_some()) {
            let from = *drained_from.get_or_insert(now);
            if now.since(from) >= config.drain {
                break;
            }
        }
        now = sub.advance();

        // Control: poll each tenant, timing executed control steps on
        // the host clock (measurement only — the elapsed time is
        // recorded, never consulted). The clock is read only around a
        // poll with a control step due.
        for l in &mut lives {
            // emca-lint: allow(determinism) — host-clock probe for arbitration overhead; measurement-only, never feeds a sim decision
            let t_tick = sub.control_due(&l.on, now).then(Instant::now);
            let steps = sub.poll(l, now);
            l.out.control_steps += steps;
            if let Some(t_tick) = t_tick.filter(|_| steps > 0) {
                arbiter_ns += t_tick.elapsed().as_nanos() as u64;
                arbiter_ticks += steps;
            }
        }

        if now >= next_sample {
            sub.sample_machine(now);
            for l in &mut lives {
                sample(&mut sub, l, now);
            }
            next_sample = now + every;
        }
    }
    let end = sub.now();
    assert!(
        !admissions.pending() && lives.iter().all(|l| l.finished_at.is_some()),
        "{}",
        RunAborted {
            label: "run".to_string(),
            deadline_s: sub.deadline().as_secs_f64(),
            hint: S::DEADLINE_HINT,
        }
    );
    // Resident tenants close their records here, in configuration order.
    for mut l in lives {
        if S::SAMPLES_AT_EDGES {
            sample(&mut sub, &mut l, end);
        }
        let i = l.tenant;
        outputs[i] = Some(retire(&mut sub, l, &arbiter, &mut errors, end));
    }

    // With a fault plan armed, failed queries are an expected outcome
    // and surface in `errors`; without one, any engine error is a real
    // defect.
    assert!(
        config.base.faults.is_some() || errors.is_empty(),
        "client queries failed in the engine: {errors:?}"
    );
    let arb = arbiter.borrow();
    let tenants: Vec<TenantOutput> = outputs.into_iter().flatten().collect();
    // Start → last completion; the drain window is measurement-only time
    // and does not count.
    let last_finish = tenants.iter().map(|t| t.finished_at).max();
    let machine = sub.finish();
    MultiTenantOutput {
        wall: last_finish.unwrap_or(end).since(start),
        tenants,
        ntotal: width as u32,
        arbiter_denials: arb.denials,
        arbiter_yields: arb.yields,
        arbiter_ticks,
        arbiter_ns,
        errors,
        hw_before: machine.hw_before,
        hw_after: machine.hw_after,
        sched: machine.sched,
        imc_series: machine.imc_series,
        ht_series: machine.ht_series,
        trace: machine.trace,
    }
}

/// One point of each of `l`'s series at `now`, and of its door's queue.
fn sample<S: Substrate>(sub: &mut S, l: &mut Life<'_, S::Tenant>, now: SimTime) {
    sub.sample(&mut l.on, &mut l.out, now);
    if let Some(door) = l.door.as_mut() {
        door.sample(now);
    }
}

/// Closes `l`'s record at `now`: its arbiter registration dropped, so
/// its cores return to the free pool, and its failed queries named
/// `"<tenant>: "`.
fn retire<S: Substrate>(
    sub: &mut S,
    l: Life<'_, S::Tenant>,
    arbiter: &SharedArbiter,
    errors: &mut Vec<String>,
    now: SimTime,
) -> TenantOutput {
    if let Some(tid) = l.tid {
        arbiter.borrow_mut().deregister(tid);
    }
    let mut out = l.out;
    out.finished_at = l.finished_at.unwrap_or(now);
    let failed = sub.retire(l.on, &mut out);
    let name = &out.config.name;
    errors.extend(failed.into_iter().map(|e| format!("{name}: {e}")));
    out
}

/// The simulator as the lifecycle's substrate: one kernel whose tick is
/// the clock, each tenant an engine in its own thread group.
struct SimSubstrate<'a> {
    kernel: Kernel,
    /// The deadline, the sample interval (every sample window's
    /// length) and whether the kernel traces.
    base: &'a RunConfig,
    data: &'a TpchData,
    /// Opened on the first tick, after the t=0 admission pass.
    machine: Option<MachineSeries>,
}

/// One tenant on the simulator: its instance of the stack plus the
/// cursors kept while it is installed.
struct SimTenant {
    group: GroupId,
    engine: Engine,
    /// `None` without a controller ([`Life::tid`]).
    mechanism: Option<ElasticMechanism>,
    /// When the clients are due; `None` once they started.
    arrival: Option<SimTime>,
    logs: Vec<SharedLog>,
    client_tids: Vec<Tid>,
    /// The logs of the one-shot sessions a serving tenant's door ran
    /// its attempts in, by attempt id.
    sessions: Vec<Option<SharedLog>>,
    load_sampler: LoadSampler,
    /// Per-log cursors for `note_response` feeding.
    seen: Vec<usize>,
    /// Completions counted since the last sample window.
    window_completions: u64,
}

impl<'a> SimSubstrate<'a> {
    fn new(base: &'a RunConfig, data: &'a TpchData) -> Self {
        let mut kernel = Kernel::opteron_4x4();
        if base.trace_sched {
            kernel.enable_trace();
        }
        SimSubstrate {
            kernel,
            base,
            data,
            machine: None,
        }
    }
}

impl Substrate for SimSubstrate<'_> {
    type Tenant = SimTenant;
    const DEADLINE_HINT: &'static str = "RunConfig::deadline";
    const SAMPLES_AT_EDGES: bool = false;

    fn width(&self) -> usize {
        self.kernel.machine().topology().n_cores()
    }

    fn deadline(&self) -> SimDuration {
        self.base.deadline
    }

    fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The cold start: the tenant's group and engine, its data loaded,
    /// its workers started and its mechanism installed — which claims
    /// its first core — at admit time.
    fn install(
        &mut self,
        instance: &RunConfig,
        tcfg: &TenantRunConfig,
        slice: Option<Range<usize>>,
        control: Option<Control>,
        arrives: SimTime,
    ) -> SimTenant {
        let kernel = &mut self.kernel;
        let (group, engine) = start_engine(kernel, instance, self.data);
        if let Some(slice) = slice {
            let cores = slice.map(|c| CoreId(c as u16));
            kernel.set_group_mask(group, CoreMask::from_cores(cores));
        }
        let mechanism = control.map(|(placement, cfg, binding)| {
            let policy = tcfg.governed(placement, kernel.machine().topology());
            ElasticMechanism::install_tenant(kernel, group, engine.space(), policy, cfg, binding)
        });
        SimTenant {
            group,
            load_sampler: LoadSampler::new(kernel, group),
            engine,
            mechanism,
            arrival: Some(arrives),
            logs: Vec::new(),
            client_tids: Vec::new(),
            sessions: Vec::new(),
            seen: Vec::new(),
            window_completions: 0,
        }
    }

    /// Spawns the tenant's clients once they are due, then steps a
    /// serving tenant's door — the tenant finishes with it — and feeds
    /// its completed responses and its queue depth (which only a step
    /// changes) to the mechanism before the next poll.
    fn arrive(&mut self, l: &mut Life<'_, SimTenant>, now: SimTime) {
        let t = &mut l.on;
        if t.arrival.is_some_and(|at| now >= at) {
            let before = self.kernel.n_threads();
            let (clients, workload) = (l.out.config.clients, l.out.config.workload.clone());
            t.logs = spawn_clients(&mut self.kernel, &t.engine, t.group, clients, workload);
            t.client_tids = (before as u32..self.kernel.n_threads() as u32)
                .map(Tid)
                .collect();
            t.seen = vec![0; t.logs.len()];
            t.arrival = None;
            l.out.started_at = now;
        }
        let Some(door) = l.door.as_mut().filter(|_| l.finished_at.is_none()) else {
            return;
        };
        let mut attempts = SimSessions {
            kernel: &mut self.kernel,
            group: t.group,
            engine: &t.engine,
            sessions: &mut t.sessions,
        };
        l.finished_at = door.step(now, &mut attempts);
        if let Some(m) = t.mechanism.as_mut() {
            door.responses.iter().for_each(|&r| m.note_response(r));
            m.note_queue_depth(door.queue_depth());
        }
        t.window_completions += door.responses.len() as u64;
    }

    fn finished(&self, t: &SimTenant, now: SimTime) -> Option<SimTime> {
        let done = |&tid: &Tid| self.kernel.thread_state(tid) == ThreadState::Finished;
        (t.arrival.is_none() && t.client_tids.iter().all(done)).then_some(now)
    }

    /// One kernel tick; the machine series opens before the first.
    fn advance(&mut self) -> SimTime {
        if self.machine.is_none() {
            self.machine = Some(MachineSeries::open(&self.kernel));
        }
        self.kernel.run_tick();
        self.kernel.now()
    }

    fn control_due(&self, t: &SimTenant, now: SimTime) -> bool {
        t.mechanism.as_ref().is_some_and(|m| m.control_due(now))
    }

    /// The mechanism's poll — a pending actuation applied, a due step
    /// run — then the responses completed this tick fed to it.
    fn poll(&mut self, l: &mut Life<'_, SimTenant>, _now: SimTime) -> u64 {
        let t = &mut l.on;
        let mut steps = 0;
        if let Some(m) = t.mechanism.as_mut() {
            let before = m.steps;
            m.poll(&mut self.kernel);
            steps = m.steps - before;
        }
        for (log, cursor) in t.logs.iter().zip(&mut t.seen) {
            let log = log.borrow();
            for r in &log.results[*cursor..] {
                if let Some(m) = t.mechanism.as_mut() {
                    m.note_response(r.response());
                }
                t.window_completions += 1;
            }
            *cursor = log.results.len();
        }
        steps
    }

    fn sample_machine(&mut self, now: SimTime) {
        if let Some(machine) = self.machine.as_mut() {
            machine.sample(&self.kernel, now, self.base.sample_every.as_secs_f64());
        }
    }

    fn sample(&mut self, t: &mut SimTenant, out: &mut TenantOutput, now: SimTime) {
        let cores = self.kernel.group_mask(t.group).count();
        out.cores_series.push(now, cores as f64);
        let load = t.load_sampler.sample(&self.kernel);
        out.load_series.push(now, load.group_load_pct());
        let dt = self.base.sample_every.as_secs_f64();
        out.qps_series.push(now, t.window_completions as f64 / dt);
        t.window_completions = 0;
    }

    /// Results and errors drained, engine counters and transition log
    /// taken. The departed group keeps its (now inert) workers; they are
    /// blocked with no submitters, so they never contend for the
    /// reclaimed cores. A serving tenant's requests are accounted in its
    /// door's records.
    fn retire(&mut self, t: SimTenant, out: &mut TenantOutput) -> Vec<String> {
        if let Some(m) = t.mechanism {
            out.sla_violations = m.violations();
            out.transitions = m.events;
        }
        out.results = volcano_db::client::drain_results(&t.logs);
        out.engine = t.engine.stats();
        out.tomograph = std::mem::take(&mut t.engine.core().tomograph);
        volcano_db::client::drain_errors(&t.logs)
    }

    fn finish(mut self) -> MachineRecord {
        let kernel = &mut self.kernel;
        // A run that ends before its first tick opens the series now:
        // nothing has moved the counters since the admission pass.
        let machine = self.machine.unwrap_or_else(|| MachineSeries::open(kernel));
        MachineRecord {
            hw_before: machine.before,
            hw_after: kernel.machine().counters().snapshot(),
            sched: kernel.stats(),
            imc_series: machine.imc,
            ht_series: machine.ht,
            trace: self.base.trace_sched.then(|| kernel.take_trace()),
        }
    }
}

/// The machine-wide counter series of a sim run, opened after the t=0
/// admission pass and sampled with the per-tenant series.
struct MachineSeries {
    before: HwSnapshot,
    imc: Vec<TimeSeries>,
    ht: TimeSeries,
    /// Per-socket IMC bytes and total HT bytes at the previous sample.
    prev: (Vec<u64>, u64),
}

impl MachineSeries {
    fn open(kernel: &Kernel) -> Self {
        let before = kernel.machine().counters().snapshot();
        let prev = (before.imc_bytes.clone(), before.link_bytes.iter().sum());
        let (imc, ht) = (socket_series(prev.0.len()), TimeSeries::new("HT"));
        MachineSeries {
            before,
            imc,
            ht,
            prev,
        }
    }

    /// Per-socket IMC and machine-wide HT throughput (GB/s) over the
    /// `dt`-second window ending at `now`.
    fn sample(&mut self, kernel: &Kernel, now: SimTime, dt: f64) {
        let counters = kernel.machine().counters();
        let imc = counters.imc_bytes.snapshot();
        let ht: u64 = counters.link_bytes.snapshot().iter().sum();
        let gbps = |bytes: u64, prev: u64| bytes.saturating_sub(prev) as f64 / dt / 1e9;
        for (s, series) in self.imc.iter_mut().enumerate() {
            series.push(now, gbps(imc[s], self.prev.0[s]));
        }
        self.ht.push(now, gbps(ht, self.prev.1));
        self.prev = (imc, ht);
    }
}

/// One empty `S<socket>` series per socket.
pub(crate) fn socket_series(n_sockets: usize) -> Vec<TimeSeries> {
    (0..n_sockets)
        .map(|s| TimeSeries::new(format!("S{s}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::ArbiterMode;
    use volcano_db::tpch::TpchScale;

    #[test]
    fn churn_spec_parses_and_round_trips() {
        let full = ChurnSpec::parse("64:resident=12:skew=0.8:spread=6").unwrap();
        assert_eq!(full.n, 64);
        assert_eq!(full.resident(), 12);
        assert_eq!(full.skew(), 0.8);
        assert_eq!(full.spread(), 6.0);
        assert_eq!(full.to_string().parse::<u32>().ok(), None);
        assert_eq!(ChurnSpec::parse(&full.to_string()).unwrap(), full);

        let bare = ChurnSpec::parse("16").unwrap();
        assert_eq!(bare, ChurnSpec::new(16));
        assert_eq!(bare.to_string(), "16");
        assert_eq!(bare.resident(), DEFAULT_RESIDENT);
    }

    #[test]
    fn churn_spec_rejects_malformed_input() {
        for bad in [
            "",
            "0",
            "x",
            "8:resident=0",
            "8:resident=x",
            "8:skew=-1",
            "8:skew=nan",
            "8:spread=-2",
            "8:wat=1",
            "8:resident",
        ] {
            assert!(ChurnSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn plans_are_deterministic_and_exactly_sized() {
        let spec = ChurnSpec::parse("64:skew=1.0").unwrap();
        let a = spec.plan(42, 4, 3);
        let b = spec.plan(42, 4, 3);
        assert_eq!(a.tenants.len(), 64);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.clients, y.clients);
            assert_eq!(x.iters, y.iters);
            assert_eq!(x.weight, y.weight);
            assert_eq!(x.arrival, y.arrival);
        }
        let c = spec.plan(43, 4, 3);
        assert!(
            a.tenants
                .iter()
                .zip(&c.tenants)
                .any(|(x, y)| { x.rank != y.rank || x.arrival != y.arrival }),
            "a different seed must reshuffle the plan"
        );
        // Arrival order is the naming order.
        for w in a.tenants.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Every rank appears exactly once.
        let mut ranks: Vec<u32> = a.tenants.iter().map(|t| t.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_skew_shapes_demand() {
        let spec = ChurnSpec::parse("32:skew=1.2").unwrap();
        let plan = spec.plan(7, 8, 5);
        let heavy = plan.tenants.iter().find(|t| t.rank == 1).unwrap();
        let light = plan.tenants.iter().find(|t| t.rank == 32).unwrap();
        assert_eq!(heavy.clients, 8);
        assert_eq!(heavy.iters, 5);
        assert!(heavy.weight > light.weight);
        assert!(light.clients <= 2);
        // Uniform (skew 0) gives everyone the maxima.
        let flat = ChurnSpec::parse("8:skew=0").unwrap().plan(7, 4, 3);
        assert!(flat.tenants.iter().all(|t| t.clients == 4 && t.iters == 3));
        // Expected completions are an exact sum.
        assert_eq!(flat.expected_completions(), 8 * 4 * 3);
    }

    #[test]
    fn churn_run_completes_with_zero_lost_queries() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("6:resident=3:spread=0.05").unwrap();
        let plan = spec.plan(42, 2, 2);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2))
            .with_resident_cap(plan.resident);
        let out = run_tenants_churn(cfg, &data);
        assert_eq!(out.tenants.len(), 6);
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, plan.expected_completions(), "zero lost queries");
        // The host clock is read only around polls with a step due, yet
        // every executed step is counted and timed.
        let steps: u64 = out.tenants.iter().map(|t| t.control_steps).sum();
        assert!(steps > 0, "control steps must run");
        assert_eq!(out.arbiter_ticks, steps, "every control step is measured");
        assert!(out.arbiter_ns > 0, "executed steps take host time");
        assert!(out.errors.is_empty());
    }

    #[test]
    fn churn_over_a_warm_dataset_replays_exactly() {
        // Tenants share the dataset's evaluation cache: the first run
        // fills it (tenant by tenant), the second finds everything.
        // Neither may differ from a run over a dataset nobody touched.
        let churn = |data: &TpchData| {
            let plan = ChurnSpec::parse("8:resident=3:spread=0.05")
                .unwrap()
                .plan(42, 2, 2);
            let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
                .with_scale(data.scale)
                .with_mech_interval(SimDuration::from_millis(2))
                .with_resident_cap(plan.resident);
            let out = run_tenants_churn(cfg, data);
            let results: Vec<_> = out
                .tenants
                .iter()
                .flat_map(|t| &t.results)
                .map(|r| (r.label.clone(), r.finished, format!("{:?}", r.result)))
                .collect();
            let arbiter = (out.arbiter_ticks, out.arbiter_denials, out.arbiter_yields);
            (results, out.wall, arbiter, out.errors)
        };
        let shared = TpchData::generate(TpchScale::test_tiny());
        let cold = churn(&shared);
        let warm = churn(&shared);
        assert_eq!(cold, warm);
        assert_eq!(warm, churn(&TpchData::generate(TpchScale::test_tiny())));
    }

    #[test]
    fn sla_governor_holds_under_churn() {
        // The follow-on gate of the lifecycle fold: a churned tenant's
        // SLA budgets are enforced by the same governor wrap as a
        // resident tenant's. Under FairShare nothing but the governor
        // caps `noisy`, and only the governor counts violations — both
        // were silently absent on the churn path before.
        use elastic_core::SlaPolicy;
        let data = TpchData::generate(TpchScale::test_tiny());
        let q6 = |iterations| Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations,
        };
        let cap = 2u32;
        let sla = SlaPolicy {
            // Just above the 100 W idle floor: any busy core violates.
            max_power_w: Some(101.0),
            ..SlaPolicy::cores(cap)
        };
        let cfg = MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new("noisy", q6(6), 8).with_sla(sla),
                TenantRunConfig::new("quiet", q6(2), 1)
                    .with_start_after(SimDuration::from_millis(2)),
            ],
        )
        .with_scale(data.scale)
        .with_mech_interval(SimDuration::from_millis(1))
        .with_sample_every(SimDuration::from_millis(1))
        .with_resident_cap(2);
        let out = run_tenants_churn(cfg, &data);
        let noisy = out.tenant("noisy").unwrap();
        assert_eq!(noisy.results.len(), 6 * 8, "the cap must not starve it");
        assert!(
            noisy.cores_max() <= cap as f64,
            "capped tenant exceeded its budget under churn: {} cores",
            noisy.cores_max()
        );
        assert!(
            noisy.sla_violations > 0,
            "the power budget must be seen violating under churn"
        );
        assert_eq!(out.tenant("quiet").unwrap().sla_violations, 0);
    }

    #[test]
    fn static_partition_pins_each_tenant_to_its_slice() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("4:resident=4:spread=0").unwrap();
        let plan = spec.plan(1, 2, 1);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_resident_cap(plan.resident)
            .with_static_partition();
        let out = run_tenants_churn(cfg, &data);
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, plan.expected_completions());
        // 16 cores / 4 slots: nobody ever exceeds their 4-core slice.
        for t in &out.tenants {
            assert!(
                t.cores_max() <= 4.0,
                "{} exceeded its static slice: {}",
                t.config.name,
                t.cores_max()
            );
        }
        assert_eq!(out.arbiter_ticks, 0, "no mechanism runs on the baseline");
    }

    #[test]
    fn arrivals_beyond_the_cap_queue_until_a_departure() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("4:resident=1:spread=0").unwrap();
        let plan = spec.plan(3, 1, 1);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2))
            .with_resident_cap(1);
        let out = run_tenants_churn(cfg, &data);
        // One resident at a time: admissions are serialized, so the
        // active windows never overlap.
        let mut spans: Vec<(SimTime, SimTime)> = out
            .tenants
            .iter()
            .map(|t| (t.started_at, t.finished_at))
            .collect();
        spans.sort_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "resident_cap=1 must serialize tenants: {spans:?}"
            );
        }
    }
}
