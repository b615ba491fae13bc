//! The simulated OS kernel: a CFS-like scheduler over the NUMA machine.
//!
//! Reproduces the Linux behaviours the paper analyses in §II:
//!
//! - per-core runqueues ordered by virtual runtime, with timeslice
//!   preemption;
//! - wake placement on the least-loaded allowed core (spreading threads
//!   over all sockets, which is exactly the "scattered mapping" the paper
//!   criticises);
//! - periodic load balancing and new-idle stealing with pull migration
//!   (the *stolen tasks* of Fig. 13(d));
//! - cpuset groups whose allowed-core mask can be changed at runtime —
//!   the elastic mechanism's actuator;
//! - per-thread affinity (`pthread_setaffinity_np` analogue) used by the
//!   hand-coded Q6 baseline and the NUMA-aware engine flavor;
//! - scheduling traces for the migration maps of Fig. 5 / Fig. 16.

use crate::cpuset::{CoreMask, GroupId};
use crate::runqueue::RunQueue;
use crate::thread::{ThreadSlot, ThreadState, ThreadStats, Tid};
use crate::trace::SchedTrace;
use crate::work::{SimWork, SpawnReq, StepOutcome, WorkCtx};
use emca_metrics::{SimDuration, SimTime};
use numa_sim::{CoreId, Machine};

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Simulation tick: the granularity at which cores execute work.
    pub tick: SimDuration,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tick: SimDuration::from_micros(100),
        }
    }
}

/// Timeslice after which a running thread is preempted if others wait.
const TIMESLICE: SimDuration = SimDuration::from_millis(6);
/// A running thread is preempted once its vruntime exceeds the queue
/// minimum by this many nanoseconds.
const PREEMPT_GRANULARITY_NS: u64 = 3_000_000;
/// Period of the load balancer.
const BALANCE_INTERVAL: SimDuration = SimDuration::from_millis(4);
/// Minimum load difference (in runnable threads) to trigger a pull.
const IMBALANCE_THRESHOLD: usize = 2;

/// Kernel-wide scheduling statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Thread-to-core changes of any kind.
    pub migrations: u64,
    /// Pull-migrations performed by load balancing / new-idle stealing
    /// (the paper's "stolen tasks").
    pub steals: u64,
    /// Wake events delivered.
    pub wakeups: u64,
    /// Involuntary context switches (timeslice/granularity preemptions).
    pub preemptions: u64,
    /// Threads spawned over the kernel lifetime.
    pub spawned: u64,
}

/// A cgroup: member threads plus the allowed-core mask.
struct Group {
    mask: CoreMask,
    members: Vec<Tid>,
    /// Members that are runnable or running, kept current by
    /// `Kernel::add_runnable` where a thread enters or leaves that set
    /// (spawn, wake, block, finish) — groups are never removed, so
    /// recounting `members` every tick would cost every tenant ever
    /// admitted.
    runnable: usize,
    busy_ns: u64,
    /// Time-integrated CPU demand: Σ over tick ends of
    /// `runnable_members × tick`. A monitor's per-interval delta of this
    /// counter gives the *windowed* demand the elastic mechanism's
    /// `u` predicate consumes (instantaneous runnable-count sampling
    /// oscillates with sub-interval scheduling noise). Settled lazily:
    /// it holds the sum up to tick end `settled`, and every change of
    /// `runnable` first folds in the tick ends since at the old count
    /// (`Kernel::add_runnable`), so no tick walks the groups.
    demand_ns: u64,
    /// Tick ends already folded into `demand_ns`.
    settled: u64,
}

/// The simulated kernel. Owns the machine and all threads.
pub struct Kernel {
    machine: Machine,
    cfg: KernelConfig,
    now: SimTime,
    threads: Vec<ThreadSlot>,
    affinities: Vec<CoreMask>,
    runqueues: Vec<RunQueue>,
    current: Vec<Option<Tid>>,
    min_vruntime: Vec<u64>,
    groups: Vec<Group>,
    /// Tick ends passed — the points at which demand is integrated.
    ticks: u64,
    /// The cores some group mask allows. No thread may run anywhere
    /// else, so an idle core outside it has nothing to steal.
    group_union: CoreMask,
    next_balance: SimTime,
    stats: SchedStats,
    trace: SchedTrace,
    wake_buf: Vec<Tid>,
    /// Spawns this tick's steps requested, admitted at its end.
    spawn_buf: Vec<SpawnReq>,
    /// Deterministic LCG driving wake placement. Linux's idle-core scan
    /// order is arbitrary with respect to data placement; modelling it as
    /// seeded pseudo-randomness reproduces the thread scatter of the
    /// paper's Fig. 5 without sacrificing reproducibility.
    place_rng: u64,
}

impl Kernel {
    /// Creates a kernel over a machine. The machine must have been built
    /// with the same tick as `cfg.tick` (its congestion window).
    pub fn new(machine: Machine, cfg: KernelConfig) -> Self {
        let n_cores = machine.topology().n_cores();
        assert!(n_cores <= 64, "CoreMask supports at most 64 cores");
        assert!(!cfg.tick.is_zero(), "tick must be positive");
        Kernel {
            now: SimTime::ZERO,
            threads: Vec::new(),
            affinities: Vec::new(),
            runqueues: (0..n_cores).map(|_| RunQueue::new()).collect(),
            current: vec![None; n_cores],
            min_vruntime: vec![0; n_cores],
            groups: Vec::new(),
            ticks: 0,
            group_union: CoreMask::EMPTY,
            next_balance: SimTime::ZERO + BALANCE_INTERVAL,
            stats: SchedStats::default(),
            trace: SchedTrace::disabled(),
            wake_buf: Vec::new(),
            spawn_buf: Vec::new(),
            place_rng: 0x2545_F491_4F6C_DD1D,
            machine,
            cfg,
        }
    }

    /// Next placement random number (xorshift64*; deterministic).
    fn place_next(&mut self) -> u64 {
        let mut x = self.place_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.place_rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Convenience: the paper's machine with default scheduler tuning.
    pub fn opteron_4x4() -> Self {
        let cfg = KernelConfig::default();
        let machine = Machine::new(numa_sim::MachineConfig::opteron_4x4(), cfg.tick);
        Kernel::new(machine, cfg)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The machine (counters, memory map, topology).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (allocation of DB memory, counter injection
    /// in tests). Do not call from inside work steps — they receive the
    /// machine through their context.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Kernel scheduling statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Enables span tracing (Fig. 5 / Fig. 16).
    pub fn enable_trace(&mut self) {
        self.trace = SchedTrace::enabled();
    }

    /// Finishes and returns the trace.
    pub fn take_trace(&mut self) -> SchedTrace {
        let mut t = std::mem::take(&mut self.trace);
        t.finish(self.now);
        t
    }

    // ----- groups ---------------------------------------------------------

    /// Creates a thread group with an allowed-core mask.
    pub fn create_group(&mut self, mask: CoreMask) -> GroupId {
        assert!(!mask.is_empty(), "group mask must allow at least one core");
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            mask,
            members: Vec::new(),
            runnable: 0,
            busy_ns: 0,
            demand_ns: 0,
            settled: self.ticks,
        });
        self.group_union = self.group_union.or(mask);
        id
    }

    /// The group's current mask.
    pub fn group_mask(&self, group: GroupId) -> CoreMask {
        self.groups[group.0 as usize].mask
    }

    /// Cumulative on-CPU nanoseconds of the group's threads.
    pub fn group_busy_ns(&self, group: GroupId) -> u64 {
        self.groups[group.0 as usize].busy_ns
    }

    /// Cumulative time-integrated CPU demand of the group
    /// (`Σ runnable_members × tick`); monitors consume window deltas.
    pub fn group_demand_ns(&self, group: GroupId) -> u64 {
        let g = &self.groups[group.0 as usize];
        g.demand_ns + self.unsettled_demand_ns(g)
    }

    /// Demand of the tick ends `g` has not folded in yet.
    fn unsettled_demand_ns(&self, g: &Group) -> u64 {
        g.runnable as u64 * (self.ticks - g.settled) * self.cfg.tick.as_nanos()
    }

    /// Changes a group's runnable count by `delta` — the one place it
    /// changes — after settling its demand at the old count.
    fn add_runnable(&mut self, group: GroupId, delta: isize) {
        let gi = group.0 as usize;
        let unsettled = self.unsettled_demand_ns(&self.groups[gi]);
        let g = &mut self.groups[gi];
        g.demand_ns += unsettled;
        g.settled = self.ticks;
        g.runnable = g
            .runnable
            .checked_add_signed(delta)
            .expect("runnable count must stay non-negative");
        debug_assert_eq!(
            self.groups[gi].runnable,
            self.recount_runnable(&self.groups[gi])
        );
    }

    /// Number of group members that are runnable or running right now —
    /// the instantaneous CPU demand an `mpstat`/loadavg snapshot sees.
    pub fn group_runnable(&self, group: GroupId) -> usize {
        let g = &self.groups[group.0 as usize];
        debug_assert_eq!(g.runnable, self.recount_runnable(g));
        g.runnable
    }

    /// What [`Group::runnable`] must equal (checked in debug builds).
    fn recount_runnable(&self, group: &Group) -> usize {
        group
            .members
            .iter()
            .filter(|t| {
                matches!(
                    self.threads[t.idx()].state,
                    ThreadState::Runnable | ThreadState::Running
                )
            })
            .count()
    }

    /// Applies a new cpuset mask to a group: threads on disallowed cores
    /// are migrated immediately (the cgroup cpuset behaviour the
    /// mechanism relies on).
    pub fn set_group_mask(&mut self, group: GroupId, mask: CoreMask) {
        assert!(!mask.is_empty(), "group mask must allow at least one core");
        let g = group.0 as usize;
        self.groups[g].mask = mask;
        // A shrink may take cores out of the union: recount it (one OR
        // per group).
        self.group_union = self
            .groups
            .iter()
            .fold(CoreMask::EMPTY, |union, g| union.or(g.mask));
        // Re-placing a member never changes the member list, so it is
        // walked by index rather than copied.
        for m in 0..self.groups[g].members.len() {
            let tid = self.groups[g].members[m];
            let slot = &self.threads[tid.idx()];
            if !slot.is_live() {
                continue;
            }
            let allowed = self.allowed_mask(tid);
            match slot.state {
                ThreadState::Running => {
                    let core = slot.core.expect("running thread without core");
                    if !allowed.contains(core) {
                        self.deschedule(tid, core);
                        self.enqueue(tid, None);
                    }
                }
                ThreadState::Runnable => {
                    let core = slot.core.expect("queued thread without core");
                    if !allowed.contains(core) {
                        let vr = slot.vruntime;
                        let removed = self.runqueues[core.idx()].remove(vr, tid);
                        debug_assert!(removed, "runnable thread missing from queue");
                        self.enqueue(tid, None);
                    }
                }
                ThreadState::Blocked | ThreadState::Finished => {}
            }
        }
    }

    // ----- threads --------------------------------------------------------

    /// Spawns a thread into `group`, optionally with a per-thread affinity
    /// mask (intersected with the group mask). Returns its tid.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        group: GroupId,
        affinity: Option<CoreMask>,
        work: Box<dyn SimWork>,
    ) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        let slot = ThreadSlot::new(tid, name.into(), group, work);
        self.threads.push(slot);
        self.affinities
            .push(affinity.unwrap_or_else(|| CoreMask::all(self.machine.topology())));
        self.groups[group.0 as usize].members.push(tid);
        self.add_runnable(group, 1);
        self.stats.spawned += 1;
        self.enqueue(tid, None);
        tid
    }

    /// Wakes a blocked thread. Waking a running thread records a pending
    /// wake so a block racing with the wake is not lost; waking a
    /// runnable or finished thread is a no-op.
    pub fn wake(&mut self, tid: Tid) {
        match self.threads[tid.idx()].state {
            ThreadState::Blocked => {
                self.threads[tid.idx()].state = ThreadState::Runnable;
                self.threads[tid.idx()].stats.wakeups += 1;
                self.stats.wakeups += 1;
                self.add_runnable(self.threads[tid.idx()].group, 1);
                self.enqueue(tid, None);
            }
            ThreadState::Running => {
                self.threads[tid.idx()].wake_pending = true;
            }
            ThreadState::Runnable | ThreadState::Finished => {}
        }
    }

    /// The thread's lifecycle state.
    pub fn thread_state(&self, tid: Tid) -> ThreadState {
        self.threads[tid.idx()].state
    }

    /// The thread's accounting.
    pub fn thread_stats(&self, tid: Tid) -> ThreadStats {
        self.threads[tid.idx()].stats
    }

    /// The thread's name.
    pub fn thread_name(&self, tid: Tid) -> &str {
        &self.threads[tid.idx()].name
    }

    /// Number of live (not finished) threads.
    pub fn n_live_threads(&self) -> usize {
        self.threads.iter().filter(|t| t.is_live()).count()
    }

    /// Total threads ever spawned.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    // ----- execution ------------------------------------------------------

    /// Runs one scheduler tick: every core executes its current thread for
    /// up to one tick of simulated time, its step's wakes serviced right
    /// after it; then the machine's contention window rolls, the load
    /// balancer (periodically) runs, and last the tick's spawn requests
    /// are admitted, in request order.
    pub fn run_tick(&mut self) {
        let tick = self.cfg.tick;
        let n_cores = self.runqueues.len();
        for core_idx in 0..n_cores {
            let core = CoreId(core_idx as u16);
            if self.current[core_idx].is_none() {
                self.pick_next(core);
            }
            let Some(tid) = self.current[core_idx] else {
                continue;
            };
            // Pay off debt from a previous step that overshot its budget
            // (e.g. one congested memory access longer than a tick): the
            // thread is still executing that operation.
            let debt = self.threads[tid.idx()].debt;
            if debt >= tick {
                self.threads[tid.idx()].debt = debt - tick;
                self.charge(core_idx, tid, tick);
                continue;
            }
            let budget = tick - debt;
            let mut work = self.threads[tid.idx()]
                .work
                .take()
                .expect("running thread without work body");
            let mut wakes = std::mem::take(&mut self.wake_buf);
            let outcome = {
                let mut ctx = WorkCtx {
                    machine: &mut self.machine,
                    core,
                    now: self.now,
                    budget,
                    tid,
                    wakes: &mut wakes,
                    spawns: &mut self.spawn_buf,
                };
                work.step(&mut ctx)
            };
            self.threads[tid.idx()].work = Some(work);
            let total = debt + outcome.used();
            let used = total.min(tick);
            match outcome {
                // A runnable thread carries its overshoot into later ticks.
                StepOutcome::Ran(_) => {
                    self.threads[tid.idx()].debt = total.saturating_sub(tick);
                }
                // Block/exit take effect now; residual overshoot (at most
                // one charge item) is dropped.
                _ => self.threads[tid.idx()].debt = SimDuration::ZERO,
            }
            self.charge(core_idx, tid, used);
            let end = self.now + used;
            match outcome {
                StepOutcome::Ran(_) => {
                    let slot = &self.threads[tid.idx()];
                    let over_slice = slot.slice_used >= TIMESLICE;
                    let over_granularity = self.runqueues[core_idx]
                        .min_vruntime()
                        .is_some_and(|mv| slot.vruntime > mv + PREEMPT_GRANULARITY_NS);
                    if over_slice || over_granularity {
                        self.stats.preemptions += 1;
                        self.trace.on_stop(tid, end);
                        let slot = &mut self.threads[tid.idx()];
                        slot.state = ThreadState::Runnable;
                        slot.slice_used = SimDuration::ZERO;
                        let vr = slot.vruntime;
                        self.current[core_idx] = None;
                        self.runqueues[core_idx].push(vr, tid);
                    }
                }
                StepOutcome::Blocked(_) => {
                    self.trace.on_stop(tid, end);
                    self.current[core_idx] = None;
                    let slot = &mut self.threads[tid.idx()];
                    slot.slice_used = SimDuration::ZERO;
                    if slot.wake_pending {
                        slot.wake_pending = false;
                        slot.state = ThreadState::Runnable;
                        slot.stats.wakeups += 1;
                        self.stats.wakeups += 1;
                        self.enqueue(tid, Some(core));
                    } else {
                        slot.state = ThreadState::Blocked;
                        let group = slot.group;
                        self.add_runnable(group, -1);
                    }
                }
                StepOutcome::Finished(_) => {
                    self.trace.on_stop(tid, end);
                    self.current[core_idx] = None;
                    let slot = &mut self.threads[tid.idx()];
                    slot.state = ThreadState::Finished;
                    slot.work = None;
                    let group = slot.group;
                    self.add_runnable(group, -1);
                }
            }
            for w in wakes.drain(..) {
                self.wake(w);
            }
            self.wake_buf = wakes;
        }
        // The tick's demand integration point: every group's runnable
        // count as of now counts for this tick (settled lazily).
        self.ticks += 1;
        self.machine.end_tick();
        self.now += tick;
        if self.now >= self.next_balance {
            self.load_balance();
            self.next_balance = self.now + BALANCE_INTERVAL;
        }
        if !self.spawn_buf.is_empty() {
            let mut spawns = std::mem::take(&mut self.spawn_buf);
            for req in spawns.drain(..) {
                self.spawn(req.name, req.group, req.affinity, req.work);
            }
            self.spawn_buf = spawns;
        }
    }

    /// Accounts `used` on-CPU time for `tid` on core `core_idx`.
    fn charge(&mut self, core_idx: usize, tid: Tid, used: SimDuration) {
        if used.is_zero() {
            return;
        }
        self.machine
            .counters_mut()
            .busy_ns
            .add(core_idx, used.as_nanos());
        let group = self.threads[tid.idx()].group;
        self.groups[group.0 as usize].busy_ns += used.as_nanos();
        let slot = &mut self.threads[tid.idx()];
        slot.stats.cpu_time += used;
        slot.vruntime += used.as_nanos();
        slot.slice_used += used;
    }

    /// Runs ticks until simulated time reaches `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.now < deadline {
            self.run_tick();
        }
    }

    /// Runs ticks until `pred` returns true (checked between ticks) or
    /// `deadline` passes. Returns true if the predicate fired.
    pub fn run_until_cond(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&Kernel) -> bool,
    ) -> bool {
        while self.now < deadline {
            if pred(self) {
                return true;
            }
            self.run_tick();
        }
        pred(self)
    }

    // ----- internals ------------------------------------------------------

    /// Effective allowed mask: group ∩ thread affinity, falling back to
    /// the group mask when the intersection is empty (cpuset semantics:
    /// the cgroup wins).
    pub fn allowed_mask(&self, tid: Tid) -> CoreMask {
        let slot = &self.threads[tid.idx()];
        let group_mask = self.groups[slot.group.0 as usize].mask;
        let combined = group_mask.and(self.affinities[tid.idx()]);
        if combined.is_empty() {
            group_mask
        } else {
            combined
        }
    }

    /// Load metric of a core: queued plus running threads.
    fn core_load(&self, core: usize) -> usize {
        self.runqueues[core].len() + usize::from(self.current[core].is_some())
    }

    /// Places a runnable thread on a core's queue. `prefer` biases toward
    /// a specific core (wake affinity); otherwise Linux-like wake
    /// placement: the previous core if idle, else an idle allowed core
    /// found by a scan from a pseudo-random start (the scan order is
    /// arbitrary w.r.t. data placement), else a pseudo-random allowed
    /// core.
    fn enqueue(&mut self, tid: Tid, prefer: Option<CoreId>) {
        let allowed = self.allowed_mask(tid);
        debug_assert!(!allowed.is_empty());
        let prev = self.threads[tid.idx()].core;
        let target = prefer
            .filter(|c| allowed.contains(*c))
            .or_else(|| prev.filter(|c| allowed.contains(*c) && self.core_load(c.idx()) == 0))
            .unwrap_or_else(|| {
                // The allowed cores in id order, rotated to start at the
                // drawn one.
                let k = (self.place_next() % allowed.count() as u64) as usize;
                let start = allowed.nth(k).expect("k < count");
                let from_start = allowed.minus(CoreMask::first_n(start.idx()));
                from_start
                    .iter()
                    .chain(allowed.minus(from_start).iter())
                    .find(|c| self.core_load(c.idx()) == 0)
                    .unwrap_or(start)
            });
        let slot = &mut self.threads[tid.idx()];
        slot.state = ThreadState::Runnable;
        if let Some(p) = slot.core {
            if p != target {
                slot.stats.migrations += 1;
                self.stats.migrations += 1;
            }
        }
        slot.core = Some(target);
        // Normalise vruntime so migrated/woken threads neither starve the
        // queue nor get starved (CFS's min_vruntime placement).
        let floor = self.min_vruntime[target.idx()].saturating_sub(TIMESLICE.as_nanos());
        if slot.vruntime < floor {
            slot.vruntime = floor;
        }
        let vr = slot.vruntime;
        self.runqueues[target.idx()].push(vr, tid);
    }

    /// Takes the running thread off `core` and marks it runnable (used by
    /// mask changes).
    fn deschedule(&mut self, tid: Tid, core: CoreId) {
        debug_assert_eq!(self.current[core.idx()], Some(tid));
        self.trace.on_stop(tid, self.now);
        self.current[core.idx()] = None;
        let slot = &mut self.threads[tid.idx()];
        slot.state = ThreadState::Runnable;
        slot.slice_used = SimDuration::ZERO;
    }

    /// Picks the next thread for an idle core, stealing from the busiest
    /// queue if the local one is empty (new-idle balancing).
    fn pick_next(&mut self, core: CoreId) {
        let core_idx = core.idx();
        let picked = self.runqueues[core_idx].pop_min().or_else(|| {
            self.steal_for(core).inspect(|_| {
                self.stats.steals += 1;
            })
        });
        if let Some((vr, tid)) = picked {
            self.min_vruntime[core_idx] = self.min_vruntime[core_idx].max(vr);
            let slot = &mut self.threads[tid.idx()];
            debug_assert_eq!(slot.state, ThreadState::Runnable);
            slot.state = ThreadState::Running;
            if slot.core != Some(core) {
                slot.stats.migrations += 1;
                self.stats.migrations += 1;
            }
            slot.core = Some(core);
            self.current[core_idx] = Some(tid);
            self.trace.on_run(tid, core, self.now);
        }
    }

    /// Attempts to steal one queued thread (allowed on `core`) from the
    /// busiest other queue.
    fn steal_for(&mut self, core: CoreId) -> Option<(u64, Tid)> {
        // Every thread's allowed mask lies inside its group's mask, so a
        // core no group allows can take nothing — the idle cores outside
        // an elastic allocation answer here, without a scan.
        if !self.group_union.contains(core) {
            debug_assert_eq!(self.steal_candidate(core), None, "guard hid a steal");
            return None;
        }
        let (busiest, vr, tid) = self.steal_candidate(core)?;
        self.runqueues[busiest].remove(vr, tid);
        self.threads[tid.idx()].stats.times_stolen += 1;
        Some((vr, tid))
    }

    /// What [`Kernel::steal_for`] takes: the busiest other queue's
    /// last-queued thread allowed on `core`, with that queue.
    fn steal_candidate(&self, core: CoreId) -> Option<(usize, u64, Tid)> {
        let n = self.runqueues.len();
        let busiest = (0..n)
            .filter(|&c| c != core.idx() && !self.runqueues[c].is_empty())
            .max_by_key(|&c| (self.runqueues[c].len(), std::cmp::Reverse(c)))?;
        self.migratable_from(busiest, core)
            .map(|(vr, tid)| (busiest, vr, tid))
    }

    /// The last-queued thread of `queue` allowed on `core` (a tail scan:
    /// the cheapest thread to move).
    fn migratable_from(&self, queue: usize, core: CoreId) -> Option<(u64, Tid)> {
        self.runqueues[queue]
            .iter()
            .rev()
            .find(|&(_, tid)| self.allowed_mask(tid).contains(core))
    }

    /// Periodic balancing: each under-loaded core pulls one task from the
    /// busiest queue when the imbalance exceeds the threshold.
    fn load_balance(&mut self) {
        let n = self.runqueues.len();
        for core_idx in 0..n {
            let my_load = self.core_load(core_idx);
            let Some(busiest) = (0..n)
                .filter(|&c| c != core_idx)
                .max_by_key(|&c| self.runqueues[c].len())
            else {
                continue;
            };
            if self.runqueues[busiest].len() < my_load + IMBALANCE_THRESHOLD {
                continue;
            }
            let core = CoreId(core_idx as u16);
            if let Some((vr, tid)) = self.migratable_from(busiest, core) {
                self.runqueues[busiest].remove(vr, tid);
                self.threads[tid.idx()].stats.times_stolen += 1;
                self.stats.steals += 1;
                self.stats.migrations += 1;
                self.threads[tid.idx()].stats.migrations += 1;
                self.threads[tid.idx()].core = Some(core);
                let floor = self.min_vruntime[core_idx].saturating_sub(TIMESLICE.as_nanos());
                let vr = vr.max(floor);
                self.threads[tid.idx()].vruntime = vr;
                self.runqueues[core_idx].push(vr, tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{SpinWork, WaitWork};
    use numa_sim::MachineConfig;

    fn kernel() -> Kernel {
        let cfg = KernelConfig::default();
        let machine = Machine::new(MachineConfig::opteron_4x4(), cfg.tick);
        Kernel::new(machine, cfg)
    }

    fn spin(ms: u64) -> Box<SpinWork> {
        Box::new(SpinWork::new(SimDuration::from_millis(ms)))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        let t = k.spawn("spin", g, None, spin(1));
        k.run_until(SimTime::from_millis(2));
        assert_eq!(k.thread_state(t), ThreadState::Finished);
        assert_eq!(k.thread_stats(t).cpu_time, SimDuration::from_millis(1));
        assert_eq!(k.group_busy_ns(g), 1_000_000);
    }

    #[test]
    fn threads_spread_over_cores() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        for i in 0..16 {
            k.spawn(format!("w{i}"), g, None, spin(5));
        }
        k.run_tick();
        // All 16 cores should be occupied after one tick.
        let busy = k.machine().counters().busy_ns.snapshot();
        assert_eq!(busy.iter().filter(|&&b| b > 0).count(), 16);
    }

    #[test]
    fn mask_restricts_execution() {
        let mut k = kernel();
        let mask = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let g = k.create_group(mask);
        for i in 0..4 {
            k.spawn(format!("w{i}"), g, None, spin(2));
        }
        k.run_until(SimTime::from_millis(20));
        let busy = k.machine().counters().busy_ns.snapshot();
        assert!(busy[0] > 0 && busy[1] > 0);
        for b in &busy[2..] {
            assert_eq!(*b, 0, "work ran outside the cpuset");
        }
    }

    #[test]
    fn timesharing_on_restricted_mask_is_fair() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        let a = k.spawn("a", g, None, spin(50));
        let b = k.spawn("b", g, None, spin(50));
        k.run_until(SimTime::from_millis(50));
        let ca = k.thread_stats(a).cpu_time.as_nanos() as f64;
        let cb = k.thread_stats(b).cpu_time.as_nanos() as f64;
        assert!((ca / cb - 1.0).abs() < 0.3, "unfair split: {ca} vs {cb}");
        assert!(k.stats().preemptions > 0);
    }

    #[test]
    fn shrinking_mask_migrates_running_threads() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        for i in 0..8 {
            k.spawn(format!("w{i}"), g, None, spin(100));
        }
        k.run_until(SimTime::from_millis(2));
        let before = k.machine().counters().busy_ns.snapshot();
        let mask = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        k.set_group_mask(g, mask);
        k.run_until(SimTime::from_millis(12));
        let after = k.machine().counters().busy_ns.snapshot();
        for c in 2..16 {
            assert_eq!(
                after[c], before[c],
                "core {c} ran group work after mask shrink"
            );
        }
        assert!(k.stats().migrations > 0);
    }

    #[test]
    fn wake_unblocks_thread() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        let w = k.spawn("waiter", g, None, Box::new(WaitWork::new(1)));
        k.run_until(SimTime::from_millis(1));
        assert_eq!(k.thread_state(w), ThreadState::Blocked);
        k.wake(w);
        k.run_until(SimTime::from_millis(2));
        assert_eq!(k.thread_state(w), ThreadState::Finished);
        assert_eq!(k.thread_stats(w).wakeups, 1);
    }

    #[test]
    fn wake_pending_is_not_lost() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        let w = k.spawn("waiter", g, None, Box::new(WaitWork::new(1)));
        // Wake before it has even run (still Runnable): no-op, it will
        // block on first step. Then wake while Running is captured by the
        // pending flag. Simplest check: wake right after it blocks within
        // the same logical turn.
        k.run_tick();
        assert_eq!(k.thread_state(w), ThreadState::Blocked);
        k.wake(w);
        k.wake(w); // double wake coalesces
        k.run_until(SimTime::from_millis(2));
        assert_eq!(k.thread_state(w), ThreadState::Finished);
    }

    #[test]
    fn per_thread_affinity_pins() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        let t = k.spawn("pinned", g, Some(CoreMask::single(CoreId(7))), spin(3));
        k.run_until(SimTime::from_millis(5));
        assert_eq!(k.thread_state(t), ThreadState::Finished);
        let busy = k.machine().counters().busy_ns.snapshot();
        assert_eq!(busy[7], 3_000_000);
        assert_eq!(k.thread_stats(t).migrations, 0);
    }

    #[test]
    fn group_mask_overrides_incompatible_affinity() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        // Affinity to core 5, but the cgroup only allows core 0.
        let t = k.spawn("conflict", g, Some(CoreMask::single(CoreId(5))), spin(1));
        k.run_until(SimTime::from_millis(3));
        assert_eq!(k.thread_state(t), ThreadState::Finished);
        let busy = k.machine().counters().busy_ns.snapshot();
        assert_eq!(busy[0], 1_000_000);
        assert_eq!(busy[5], 0);
    }

    #[test]
    fn overload_triggers_steals() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        // 64 threads of uneven length on 16 cores: cores with short work
        // drain their queues first and must steal from busier ones.
        for i in 0..64u64 {
            k.spawn(format!("w{i}"), g, None, spin(1 + (i % 13) * 3));
        }
        k.run_until(SimTime::from_millis(200));
        assert!(k.stats().steals > 0, "expected load-balance steals");
        assert_eq!(k.n_live_threads(), 0, "all threads should finish");
    }

    #[test]
    fn trace_records_spans() {
        let mut k = kernel();
        k.enable_trace();
        let g = k.create_group(CoreMask::single(CoreId(3)));
        let t = k.spawn("traced", g, None, spin(1));
        k.run_until(SimTime::from_millis(2));
        let trace = k.take_trace();
        let spans: Vec<_> = trace.spans().iter().filter(|s| s.tid == t).collect();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.core == CoreId(3)));
    }

    #[test]
    fn run_until_cond_stops_early() {
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        let t = k.spawn("spin", g, None, spin(1));
        let fired = k.run_until_cond(SimTime::from_secs(1), |k| {
            k.thread_state(t) == ThreadState::Finished
        });
        assert!(fired);
        assert!(k.now() < SimTime::from_millis(10));
    }

    #[test]
    fn step_spawns_join_at_the_end_of_the_tick() {
        /// Spawns two spinners from its first step, then exits.
        struct Forker(GroupId);
        impl SimWork for Forker {
            fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
                for name in ["first", "second"] {
                    ctx.spawn(SpawnReq {
                        name: name.into(),
                        group: self.0,
                        affinity: None,
                        work: Box::new(SpinWork::new(SimDuration::from_micros(50))),
                    });
                }
                StepOutcome::Finished(SimDuration::ZERO)
            }
        }
        let mut k = kernel();
        let g = k.create_group(CoreMask::all(k.machine().topology()));
        k.spawn("forker", g, None, Box::new(Forker(g)));
        k.run_tick();
        // Both children exist only once the tick is over, in request
        // order, and have not run yet.
        assert_eq!(k.n_threads(), 3);
        assert_eq!(k.thread_name(Tid(1)), "first");
        assert_eq!(k.thread_name(Tid(2)), "second");
        for t in [Tid(1), Tid(2)] {
            assert_eq!(k.thread_state(t), ThreadState::Runnable);
            assert_eq!(k.thread_stats(t).cpu_time, SimDuration::ZERO);
        }
        k.run_until(SimTime::from_millis(2));
        assert_eq!(k.n_live_threads(), 0);
    }

    #[test]
    fn demand_integrates_at_runnable_changes() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Wakes `targets` from every step; spins `left` in half-budget
        /// steps, then exits.
        struct Waker {
            targets: Vec<Tid>,
            left: SimDuration,
        }
        impl SimWork for Waker {
            fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
                for &t in &self.targets {
                    ctx.wake(t);
                }
                let used = self.left.min(ctx.budget / 2);
                self.left -= used;
                if self.left.is_zero() {
                    StepOutcome::Finished(used)
                } else {
                    StepOutcome::Ran(used)
                }
            }
        }
        /// Requests a short spinner into `group` every other step (the
        /// requests counted in `spawned`), exiting after 30 steps.
        struct Forker {
            group: GroupId,
            steps: u32,
            spawned: Rc<Cell<usize>>,
        }
        impl SimWork for Forker {
            fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
                self.steps += 1;
                if self.steps % 2 == 0 {
                    ctx.spawn(SpawnReq {
                        name: "child".into(),
                        group: self.group,
                        affinity: None,
                        work: Box::new(SpinWork::new(SimDuration::from_micros(250))),
                    });
                    self.spawned.set(self.spawned.get() + 1);
                }
                if self.steps == 30 {
                    StepOutcome::Finished(ctx.budget)
                } else {
                    StepOutcome::Ran(ctx.budget / 2)
                }
            }
        }
        /// A waiter that blocks on every step, its waker, and a forker.
        fn populate(k: &mut Kernel, g: GroupId) -> (Tid, Rc<Cell<usize>>) {
            let waiter = k.spawn("waiter", g, None, Box::new(WaitWork::new(1_000)));
            let waker = Waker {
                targets: vec![waiter],
                left: SimDuration::from_micros(1_500),
            };
            k.spawn("waker", g, None, Box::new(waker));
            let spawned = Rc::new(Cell::new(0));
            let forker = Forker {
                group: g,
                steps: 0,
                spawned: Rc::clone(&spawned),
            };
            k.spawn("forker", g, None, Box::new(forker));
            (waiter, spawned)
        }

        let mut k = kernel();
        let tick_ns = k.config().tick.as_nanos();
        let g1 = k.create_group(CoreMask::from_cores((0..6).map(CoreId)));
        let (waiter1, spawned1) = populate(&mut k, g1);
        k.spawn("spin", g1, None, spin(1));
        // Per group: its forker's request count and the eager integral
        // Σ runnable-at-the-integration-point × tick, kept here.
        let mut groups = vec![(g1, spawned1, 0u64)];
        let mut waiter2 = None;
        for t in 1..=50 {
            // Changes between ticks.
            match t {
                10 => {
                    k.spawn("late", g1, None, spin(1));
                }
                15 | 30 => k.wake(waiter1),
                20 => {
                    let g2 = k.create_group(CoreMask::from_cores((4..10).map(CoreId)));
                    let (w, spawned) = populate(&mut k, g2);
                    waiter2 = Some(w);
                    groups.push((g2, spawned, 0));
                }
                35 => k.wake(waiter2.expect("created at tick 20")),
                _ => {}
            }
            for (g, _, eager) in &groups {
                assert_eq!(k.group_demand_ns(*g), *eager, "before tick {t}");
            }
            k.run_tick();
            for (g, spawned, eager) in &mut groups {
                // The tick's step spawns joined after its integration
                // point, so they count from the next tick on.
                let runnable = k.group_runnable(*g) - spawned.take();
                *eager += runnable as u64 * tick_ns;
                assert_eq!(k.group_demand_ns(*g), *eager, "after tick {t}");
            }
        }
        // Every kind of change happened.
        assert!(k.stats().wakeups > 20, "{:?}", k.stats());
        assert!(k.n_threads() > 20, "{} threads", k.n_threads());
        assert!(groups.iter().all(|(_, _, eager)| *eager > 0));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_group_mask_rejected() {
        let mut k = kernel();
        k.create_group(CoreMask::EMPTY);
    }

    #[test]
    fn shrunk_group_runs_as_the_scanning_scheduler_did() {
        // A group shrunk from 16 cores to 2 beside a second group on four
        // others: ten idle cores lie outside every mask from then on, so
        // the steal guard answers for them on every tick. Per-thread CPU
        // time, migrations and steals, the kernel's totals and the finish
        // time are pinned to what the scheduler gave when every idle core
        // scanned the busiest queue and placement collected its cores.
        let mut k = kernel();
        let wide = k.create_group(CoreMask::all(k.machine().topology()));
        let side = k.create_group(CoreMask::from_cores((8..12).map(CoreId)));
        let mut tids: Vec<Tid> = (0..8u64)
            .map(|i| k.spawn(format!("w{i}"), wide, None, spin(2 + 3 * i)))
            .collect();
        tids.extend((0..6u64).map(|i| k.spawn(format!("s{i}"), side, None, spin(1 + 2 * i))));
        k.run_until(SimTime::from_millis(2));
        k.set_group_mask(wide, CoreMask::from_cores([CoreId(0), CoreId(1)]));
        assert!(k.run_until_cond(SimTime::from_secs(1), |k| k.n_live_threads() == 0));

        let threads: Vec<(u64, u64, u64)> = tids
            .iter()
            .map(|&t| {
                let s = k.thread_stats(t);
                (s.cpu_time.as_nanos(), s.migrations, s.times_stolen)
            })
            .collect();
        let ms = 1_000_000;
        assert_eq!(
            threads,
            [
                (2 * ms, 0, 0),
                (5 * ms, 1, 0),
                (8 * ms, 0, 0),
                (11 * ms, 1, 0),
                (14 * ms, 1, 0),
                (17 * ms, 1, 1),
                (20 * ms, 2, 1),
                (23 * ms, 2, 1),
                (ms, 0, 0),
                (3 * ms, 0, 0),
                (5 * ms, 0, 0),
                (7 * ms, 0, 0),
                (9 * ms, 0, 0),
                (11 * ms, 0, 0),
            ]
        );
        let st = k.stats();
        assert_eq!((st.migrations, st.steals, st.preemptions), (8, 3, 15));
        assert_eq!(k.now(), SimTime::from_micros(47_300));
    }
}
