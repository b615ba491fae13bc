//! The tenant lifecycle — one driver for resident and churned
//! populations — and the `churn=` axis of
//! [`ExperimentSpec`](crate::ExperimentSpec) (`--churn`)
//! that describes the latter.
//!
//! A multi-tenant run is a set of tenants moving through one lifecycle
//! ([`run_tenants_churn`] on sim, its mirror in
//! [`crate::runner_threads`] on real threads, the residency rules of
//! `Admissions` shared between them): *admitted* (a cold start — its
//! own engine built, data loaded, workers started, mechanism installed
//! and first core claimed at admit time), *clients started*, *finished*,
//! *retired* (results drained, [`TenantArbiter`] registration dropped).
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
//! Arbitration cost is measured for real: every control tick executed
//! by a resident mechanism is timed on the host clock and accumulated
//! into [`MultiTenantOutput::arbiter_ticks`] / `arbiter_ns`. The
//! measurement never feeds back into the simulation, so sim results
//! stay a pure function of the seed.

use crate::backend::Backend;
use crate::runner::{mechanism_parts, sim_kernel, start_engine};
use crate::serve::{FrontDoor, SimSessions};
use crate::spec::SpecError;
use crate::tenants::{MultiTenantConfig, MultiTenantOutput, TenantOutput, TenantRunConfig};
use elastic_core::{ElasticMechanism, TenantArbiter, TenantBinding};
use emca_metrics::{SimDuration, SimTime, TimeSeries};
use numa_sim::{CoreId, HwSnapshot};
use os_sim::{CoreMask, Kernel, ThreadState, Tid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
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
    /// static-partition baseline (the last slot takes the remainder).
    pub(crate) fn static_slice(&self, slot: usize) -> std::ops::Range<usize> {
        let slice = self.width / self.n_slots;
        let hi = if slot + 1 == self.n_slots {
            self.width
        } else {
            (slot + 1) * slice
        };
        slot * slice..hi
    }
}

/// One resident tenant on the sim backend: its instance of the stack
/// plus the cursors the loop keeps while it is installed.
struct Resident<'d> {
    /// Index into [`MultiTenantConfig::tenants`].
    tenant: usize,
    group: os_sim::GroupId,
    engine: Engine,
    /// `None` on the static-partition baseline.
    mechanism: Option<ElasticMechanism>,
    /// Arbiter registration (elastic only).
    tid: Option<elastic_core::TenantId>,
    /// Resident slot (its fixed machine slice on the static baseline).
    slot: usize,
    logs: Vec<SharedLog>,
    client_tids: Vec<Tid>,
    /// The front door driving a serving tenant open-loop, with the logs
    /// of the one-shot sessions its attempts ran in (by attempt id).
    door: Option<(&'d mut FrontDoor, Vec<Option<SharedLog>>)>,
    load_sampler: os_sim::LoadSampler,
    /// The record being written (series so far; closed by `retire`).
    out: TenantOutput,
    /// Per-log cursors for `note_response` feeding.
    seen: Vec<usize>,
    /// Completions counted since the last sample window.
    window_completions: u64,
    /// When the clients arrived (`None` while a resident tenant waits
    /// out its `start_after`).
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
}

impl Resident<'_> {
    fn start_clients(&mut self, kernel: &mut Kernel, tcfg: &TenantRunConfig, now: SimTime) {
        let before = kernel.n_threads();
        self.logs = spawn_clients(
            kernel,
            &self.engine,
            self.group,
            tcfg.clients,
            tcfg.workload.clone(),
        );
        self.client_tids = (before as u32..kernel.n_threads() as u32)
            .map(Tid)
            .collect();
        self.seen = vec![0; self.logs.len()];
        self.started_at = Some(now);
    }

    /// Whether the tenant's clients have all finished. A serving tenant
    /// has none; it finishes with its door ([`Resident::tick_door`]).
    fn clients_done(&self, kernel: &Kernel) -> bool {
        let finished = |&tid: &Tid| kernel.thread_state(tid) == ThreadState::Finished;
        self.door.is_none() && self.started_at.is_some() && self.client_tids.iter().all(finished)
    }

    /// Steps a serving tenant's door at `now` — the tenant finishes with
    /// it — and feeds its completed responses and its queue depth (which
    /// only a step changes) to the mechanism before the next poll.
    fn tick_door(&mut self, kernel: &mut Kernel, now: SimTime) {
        let Some((door, sessions)) = self.door.as_mut().filter(|_| self.finished_at.is_none())
        else {
            return;
        };
        let mut attempts = SimSessions {
            kernel,
            group: self.group,
            engine: &self.engine,
            sessions,
        };
        self.finished_at = door.step(now, &mut attempts);
        if let Some(m) = self.mechanism.as_mut() {
            door.responses.iter().for_each(|&r| m.note_response(r));
            m.note_queue_depth(door.queue_depth());
        }
        self.window_completions += door.responses.len() as u64;
    }

    /// One point of each tenant series (and of the door's queue series)
    /// at `now`, closing the `dt`-second window.
    fn sample(&mut self, kernel: &Kernel, now: SimTime, dt: f64) {
        let out = &mut self.out;
        out.cores_series
            .push(now, kernel.group_mask(self.group).count() as f64);
        let sample = self.load_sampler.sample(kernel);
        out.load_series.push(now, sample.group_load_pct());
        out.qps_series
            .push(now, self.window_completions as f64 / dt);
        self.window_completions = 0;
        if let Some((door, _)) = self.door.as_mut() {
            door.sample(now);
        }
    }

    /// Closes the tenant's record: results and errors drained, engine
    /// counters and transition log taken, its arbiter registration
    /// dropped so its cores return to the free pool. The departed group
    /// keeps its (now inert) workers; they are blocked with no
    /// submitters, so they never contend for the reclaimed cores. A
    /// serving tenant's requests are accounted in its door's records.
    fn retire(
        self,
        arbiter: &elastic_core::SharedArbiter,
        errors: &mut Vec<String>,
        now: SimTime,
    ) -> TenantOutput {
        errors.extend(
            volcano_db::client::drain_errors(&self.logs)
                .into_iter()
                .map(|e| format!("{}: {e}", self.out.config.name)),
        );
        if let Some(tid) = self.tid {
            arbiter.borrow_mut().deregister(tid);
        }
        let (sla_violations, control_steps, transitions) = match self.mechanism {
            Some(m) => (m.violations(), m.steps, m.events),
            None => (0, 0, Vec::new()),
        };
        TenantOutput {
            results: volcano_db::client::drain_results(&self.logs),
            started_at: self.started_at.unwrap_or(now),
            finished_at: self.finished_at.unwrap_or(now),
            sla_violations,
            control_steps,
            engine: self.engine.stats(),
            transitions,
            tomograph: std::mem::take(&mut self.engine.core().tomograph),
            ..self.out
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

/// Runs a multi-tenant experiment on the sim backend (dispatching to
/// the threads mirror when the base config's backend says so);
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
    mut door: Option<&mut FrontDoor>,
) -> MultiTenantOutput {
    if config.base.backend == Backend::Threads {
        return crate::runner_threads::run_tenants_threads(config, data, door);
    }
    let mut kernel = sim_kernel();
    if config.base.trace_sched {
        kernel.enable_trace();
    }
    let topo = kernel.machine().topology().clone();
    let ntotal = topo.n_cores() as u32;
    let n = config.tenants.len();
    let arbiter = TenantArbiter::shared(config.arbiter, ntotal);
    let mut admissions = Admissions::new(&config, ntotal as usize);
    let churn = admissions.churn;

    // The installed tenants in ascending tenant index — configuration
    // order, so departures, control steps and samples run in the order
    // a walk over every tenant would visit them.
    let mut lives: Vec<Resident> = Vec::new();
    let mut outputs: Vec<Option<TenantOutput>> = (0..n).map(|_| None).collect();
    let mut errors: Vec<String> = Vec::new();
    let mut arbiter_ticks = 0u64;
    let mut arbiter_ns = 0u64;

    let start = kernel.now();
    let deadline = start + config.base.deadline;
    let mut next_sample = start + config.base.sample_every;
    let mut drained_from: Option<SimTime> = None;
    let mut machine: Option<MachineSeries> = None;

    loop {
        let now = kernel.now();
        if now >= deadline {
            break;
        }

        // Completions: a tenant whose clients all finished is done;
        // under churn it departs at once, freeing its slot and cores for
        // redistribution.
        let mut k = 0;
        while k < lives.len() {
            let l = &mut lives[k];
            if l.finished_at.is_none() && l.clients_done(&kernel) {
                l.finished_at = Some(now);
            }
            if churn && l.finished_at.is_some() {
                let l = lives.remove(k);
                admissions.depart(l.slot);
                let i = l.tenant;
                outputs[i] = Some(l.retire(&arbiter, &mut errors, now));
            } else {
                k += 1;
            }
        }

        // Admissions, while the residency rules allow the next in line
        // (`free_cores` is a closure so its `Ref` is gone before the body
        // borrows the arbiter mutably).
        let free_cores = |arbiter: &elastic_core::SharedArbiter| arbiter.borrow().free_cores();
        while let Some((i, slot)) = admissions.admit(now.since(start), free_cores(&arbiter)) {
            let tcfg = &config.tenants[i];
            // Cold start: build the tenant's engine, load its data and
            // start workers at admit time.
            let instance = config.instance(tcfg);
            let (group, engine) = start_engine(&mut kernel, &instance, data);
            if config.static_partition {
                let cores = admissions.static_slice(slot).map(|c| CoreId(c as u16));
                kernel.set_group_mask(group, CoreMask::from_cores(cores));
            }
            // An OS-baseline tenant keeps the whole machine, unarbitrated.
            let parts = mechanism_parts(&instance).filter(|_| !config.static_partition);
            let (mechanism, tid) = match parts {
                None => (None, None),
                Some((placement, mech_cfg)) => {
                    let tid = arbiter.borrow_mut().register(
                        tcfg.name.clone(),
                        tcfg.weight,
                        tcfg.sla.max_cores,
                    );
                    let mech = ElasticMechanism::install_tenant(
                        &mut kernel,
                        group,
                        engine.space(),
                        tcfg.governed(placement, &topo),
                        mech_cfg,
                        TenantBinding::new(Rc::clone(&arbiter), tid),
                    );
                    (Some(mech), Some(tid))
                }
            };
            let mut resident = Resident {
                tenant: i,
                group,
                engine,
                mechanism,
                tid,
                slot,
                logs: Vec::new(),
                client_tids: Vec::new(),
                door: door.take().map(|door| (door, Vec::new())),
                load_sampler: os_sim::LoadSampler::new(&kernel, group),
                out: TenantOutput::begin(tcfg, now),
                seen: Vec::new(),
                window_completions: 0,
                started_at: None,
                finished_at: None,
            };
            // A churned tenant arrives whole: its clients come with it.
            if churn {
                resident.start_clients(&mut kernel, tcfg, now);
            }
            let at = lives.partition_point(|l| l.tenant < i);
            lives.insert(at, resident);
        }
        // A resident tenant's `start_after` delays only its clients; a
        // serving tenant's door ticks where clients would start.
        for l in &mut lives {
            let tcfg = &config.tenants[l.tenant];
            if l.started_at.is_none() && now.since(start) >= tcfg.start_after {
                l.start_clients(&mut kernel, tcfg, now);
            }
            l.tick_door(&mut kernel, now);
        }
        let machine = machine.get_or_insert_with(|| MachineSeries::open(&kernel));

        if !admissions.pending() && lives.iter().all(|l| l.finished_at.is_some()) {
            let from = *drained_from.get_or_insert(now);
            if now.since(from) >= config.drain {
                break;
            }
        }
        kernel.run_tick();

        // Control: poll each resident mechanism, timing executed
        // control ticks on the host clock (measurement only — the
        // elapsed time is recorded, never consulted). The clock is read
        // only around a poll with a control step due; any other poll
        // just applies a pending actuation.
        let now = kernel.now();
        for l in &mut lives {
            if let Some(m) = l.mechanism.as_mut() {
                let before = m.steps;
                // emca-lint: allow(determinism) — host-clock probe for arbitration overhead; measurement-only, never feeds a sim decision
                let t_tick = m.control_due(now).then(Instant::now);
                m.poll(&mut kernel);
                if let Some(t_tick) = t_tick.filter(|_| m.steps > before) {
                    arbiter_ns += t_tick.elapsed().as_nanos() as u64;
                    arbiter_ticks += m.steps - before;
                }
            }
            for (log, cursor) in l.logs.iter().zip(&mut l.seen) {
                let log = log.borrow();
                for r in &log.results[*cursor..] {
                    if let Some(m) = l.mechanism.as_mut() {
                        m.note_response(r.response());
                    }
                    l.window_completions += 1;
                }
                *cursor = log.results.len();
            }
        }

        if now >= next_sample {
            let dt = config.base.sample_every.as_secs_f64();
            machine.sample(&kernel, now, dt);
            for l in &mut lives {
                l.sample(&kernel, now, dt);
            }
            next_sample = now + config.base.sample_every;
        }
    }
    let end = kernel.now();
    assert!(
        !admissions.pending() && lives.iter().all(|l| l.finished_at.is_some()),
        "{}",
        crate::timing::RunAborted {
            label: "run".to_string(),
            deadline_s: config.base.deadline.as_secs_f64(),
            hint: "RunConfig::deadline",
        }
    );
    // Resident tenants close their records here, in configuration order.
    for l in lives {
        let i = l.tenant;
        outputs[i] = Some(l.retire(&arbiter, &mut errors, end));
    }

    let (denials, yields) = {
        let arb = arbiter.borrow();
        (arb.denials, arb.yields)
    };
    let machine = machine.expect("the first pass opened the machine series");
    let tenants: Vec<TenantOutput> = outputs.into_iter().flatten().collect();
    // Start → last completion; the drain window is measurement-only time
    // and does not count.
    let last_finish = tenants.iter().map(|t| t.finished_at).max();
    MultiTenantOutput {
        wall: last_finish.unwrap_or(end).since(start),
        tenants,
        ntotal,
        arbiter_denials: denials,
        arbiter_yields: yields,
        arbiter_ticks,
        arbiter_ns,
        errors,
        hw_before: machine.before,
        hw_after: kernel.machine().counters().snapshot(),
        sched: kernel.stats(),
        imc_series: machine.imc,
        ht_series: machine.ht,
        trace: config.base.trace_sched.then(|| kernel.take_trace()),
    }
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
