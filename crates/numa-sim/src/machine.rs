//! The simulated NUMA machine.
//!
//! [`Machine`] combines the topology, memory map, cache models, counters
//! and a fluid bandwidth-contention model. Work items (driven by the
//! simulated OS) call [`Machine::access_segment`] for every 64 KiB segment
//! they stream and [`Machine::compute`] for pure CPU work; both return the
//! simulated time consumed, which the scheduler charges against the
//! thread's timeslice.
//!
//! ### Contention model
//!
//! Per scheduler tick, the machine accumulates *demand* on each memory
//! controller and each directed link channel. Demand is the achieved
//! bytes scaled by the slowdown factor that was applied to them — i.e.
//! the unthrottled bandwidth the requesters would have consumed. At
//! `end_tick` the demand utilisation (`demand / (bandwidth × tick)`)
//! feeds an EWMA; during the next tick every access along a path is
//! slowed by the maximum smoothed utilisation over the path's resources
//! (clamped to `[1, max_congestion]`).
//!
//! Scaling by the applied factor is what makes the feedback converge to
//! a *hard* capacity cap: at equilibrium `achieved × factor = capacity ×
//! factor`, so achieved throughput equals capacity regardless of how
//! oversubscribed the resource is. (Accumulating raw achieved bytes
//! instead would under-report demand and let throughput overshoot
//! capacity by the square root of the oversubscription.) This reproduces
//! the saturation behaviour of Fig. 4(c): HT traffic plateaus as
//! concurrency grows.

use crate::cache::{LruCache, Probe, SegId};
use crate::config::{MachineConfig, SEG_BYTES};
use crate::counters::{HwCounters, StreamId};
use crate::mem::{MemoryMap, Region, Residency, SpaceId, Touch, TouchKind};
use crate::topology::{CoreId, NodeId};
use emca_metrics::{Ewma, SimDuration};

/// Kind of segment access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Streaming read of the segment.
    Read,
    /// Streaming write (materialisation). Writes are modelled as
    /// streaming stores: no read-for-ownership fetch is charged, the
    /// write-back bytes hit the home node's memory controller.
    Write,
}

/// Where a read was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L2 of the accessing core.
    L2,
    /// Shared L3 of the accessing socket.
    L3,
    /// Local DRAM (home node == accessing socket).
    DramLocal,
    /// Remote DRAM, `hops` links away.
    DramRemote(u32),
}

/// Outcome of one segment access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// Simulated time consumed by the access.
    pub time: SimDuration,
    /// Satisfaction level (for writes: the level the store targeted —
    /// always DRAM in this model).
    pub level: HitLevel,
    /// Whether a minor page fault was taken.
    pub fault: bool,
}

/// Per-tick congestion bookkeeping.
#[derive(Clone, Debug)]
struct Congestion {
    tick: SimDuration,
    mc_bytes: Vec<u64>,
    chan_bytes: Vec<u64>,
    mc_util: Vec<Ewma>,
    chan_util: Vec<Ewma>,
    /// Bitmask of cores that issued DRAM requests to each node this tick
    /// (row-buffer interference input; fits because CoreMask caps at 64
    /// cores machine-wide but one node sees at most 64 requesters too).
    mc_requesters: Vec<u64>,
    /// Smoothed distinct-requester count per node.
    mc_streams: Vec<Ewma>,
}

impl Congestion {
    fn new(n_nodes: usize, n_chans: usize, alpha: f64, tick: SimDuration) -> Self {
        Congestion {
            tick,
            mc_bytes: vec![0; n_nodes],
            chan_bytes: vec![0; n_chans],
            mc_util: vec![Ewma::new(alpha); n_nodes],
            chan_util: vec![Ewma::new(alpha); n_chans],
            mc_requesters: vec![0; n_nodes],
            mc_streams: vec![Ewma::new(alpha); n_nodes],
        }
    }

    fn end_tick(&mut self, mc_bw: f64, link_bw: f64) {
        let secs = self.tick.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        for (bytes, util) in self.mc_bytes.iter_mut().zip(&mut self.mc_util) {
            util.observe(*bytes as f64 / (mc_bw * secs));
            *bytes = 0;
        }
        for (bytes, util) in self.chan_bytes.iter_mut().zip(&mut self.chan_util) {
            util.observe(*bytes as f64 / (link_bw * secs));
            *bytes = 0;
        }
        for (mask, streams) in self.mc_requesters.iter_mut().zip(&mut self.mc_streams) {
            // Only ticks with traffic update the stream estimate; idle
            // ticks would otherwise decay it and let a bursty scatter
            // pattern look like a single sequential stream.
            if *mask != 0 {
                streams.observe(mask.count_ones() as f64);
            }
            *mask = 0;
        }
    }
}

/// The simulated machine. See module docs.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemoryMap,
    l2: Vec<LruCache>,
    l3: Vec<LruCache>,
    counters: HwCounters,
    congestion: Congestion,
    /// Cost of servicing a minor page fault (kernel time).
    fault_latency: SimDuration,
    /// [`MachineConfig::dram_seg_transfer`], computed once.
    dram_transfer: SimDuration,
    /// One link stage's segment transfer with the remote-stream penalty
    /// ([`MachineConfig::link_seg_transfer`] × (1 + penalty)), computed
    /// once.
    link_transfer: SimDuration,
}

impl Machine {
    /// Builds a machine from a validated configuration, with the given
    /// scheduler tick length for the contention model.
    pub fn new(cfg: MachineConfig, tick: SimDuration) -> Self {
        cfg.validate();
        assert!(!tick.is_zero(), "tick must be positive");
        let n_nodes = cfg.topology.n_nodes();
        let n_cores = cfg.topology.n_cores();
        let n_links = cfg.topology.n_links();
        assert!(n_cores <= 64, "core count must fit the L2 residency mask");
        Machine {
            mem: MemoryMap::new(n_nodes),
            l2: (0..n_cores)
                .map(|_| LruCache::new(cfg.l2_segments))
                .collect(),
            l3: (0..n_nodes)
                .map(|_| LruCache::new(cfg.l3_segments))
                .collect(),
            counters: HwCounters::new(n_nodes, n_cores, n_links),
            congestion: Congestion::new(n_nodes, n_links * 2, cfg.congestion_alpha, tick),
            fault_latency: SimDuration::from_micros(1),
            dram_transfer: cfg.dram_seg_transfer(),
            link_transfer: cfg
                .link_seg_transfer()
                .mul_f64(1.0 + cfg.remote_transfer_penalty),
            cfg,
        }
    }

    /// The paper's machine with a 100 µs scheduler tick.
    pub fn opteron_4x4() -> Self {
        Self::new(MachineConfig::opteron_4x4(), SimDuration::from_micros(100))
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The topology (shorthand for `config().topology`).
    pub fn topology(&self) -> &crate::topology::Topology {
        &self.cfg.topology
    }

    /// Immutable view of the memory map (for `numa_maps`-style stats).
    pub fn mem(&self) -> &MemoryMap {
        &self.mem
    }

    /// Immutable view of the hardware counters.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Mutable counter access (the scheduler charges `busy_ns`; tests
    /// inject values).
    pub fn counters_mut(&mut self) -> &mut HwCounters {
        &mut self.counters
    }

    /// Creates a fresh address space.
    pub fn create_space(&mut self) -> SpaceId {
        self.mem.create_space()
    }

    /// Allocates `bytes` (rounded to segments) in `space`.
    pub fn alloc(&mut self, space: SpaceId, bytes: u64) -> Region {
        self.mem.alloc(space, bytes)
    }

    /// Frees a region and drops any cached copies of its segments,
    /// visiting only the caches the directory says hold one.
    pub fn free(&mut self, region: &Region) {
        for seg in region.segments() {
            let Some(cached) = self.mem.residency(seg) else {
                continue;
            };
            for c in set_bits(cached.l2) {
                let held = self.l2[c].invalidate(seg);
                debug_assert!(held, "L2 {c} had no copy of {seg:?}");
            }
            for n in set_bits(cached.l3.into()) {
                let held = self.l3[n].invalidate(seg);
                debug_assert!(held, "L3 {n} had no copy of {seg:?}");
            }
        }
        self.mem.free(region);
    }

    /// Pure CPU work: converts cycles to time.
    #[inline]
    pub fn compute(&self, cycles: u64) -> SimDuration {
        self.cfg.cycles_to_time(cycles)
    }

    /// Must be called by the driver once per scheduler tick *after* all
    /// cores have executed, to roll the contention window.
    pub fn end_tick(&mut self) {
        self.congestion
            .end_tick(self.cfg.mc_bandwidth, self.cfg.link_bandwidth);
    }

    /// Streams one segment from `core`. See [`AccessKind`] for semantics.
    /// Traffic is attributed to `stream` (pass `StreamId::default()` for
    /// untagged system activity).
    pub fn access_segment(
        &mut self,
        core: CoreId,
        seg: SegId,
        kind: AccessKind,
        stream: StreamId,
    ) -> AccessResult {
        let socket = self.cfg.topology.node_of(core);
        let touch = self.mem.touch(seg, socket, kind == AccessKind::Write);
        let fault = self.count_fault(socket, touch.kind);
        let fault_time = if fault {
            self.fault_latency
        } else {
            SimDuration::ZERO
        };

        debug_assert_eq!(
            touch.cached.l2 >> core.idx() & 1 == 1,
            self.l2[core.idx()].holds(seg),
            "L2 residency bit of {seg:?} on core {}",
            core.idx()
        );
        debug_assert_eq!(
            touch.cached.l3 >> socket.idx() & 1 == 1,
            self.l3[socket.idx()].holds(seg),
            "L3 residency bit of {seg:?} on node {}",
            socket.idx()
        );

        let mut cached = touch.cached;
        let result = match kind {
            AccessKind::Read => self.read_segment(core, socket, seg, &touch, &mut cached, stream),
            AccessKind::Write => self.write_segment(core, socket, seg, &touch, &mut cached, stream),
        };
        if cached != touch.cached {
            *self.mem.residency_mut(seg) = cached;
        }
        AccessResult {
            time: result.time + fault_time,
            level: result.level,
            fault,
        }
    }

    /// Counts the page fault (if any) an access of this touch kind takes
    /// on `socket`; true if it took one.
    fn count_fault(&mut self, socket: NodeId, kind: TouchKind) -> bool {
        match kind {
            TouchKind::FirstTouch => {
                self.counters.minor_faults.inc(socket.idx());
                true
            }
            TouchKind::RemoteFirst => {
                self.counters.minor_faults.inc(socket.idx());
                self.counters.remote_faults.inc(socket.idx());
                true
            }
            TouchKind::Mapped => false,
        }
    }

    /// A streaming read: L2, then L3, then DRAM, filling both caches on
    /// the way back. `cached` is the directory record of `seg`, kept equal
    /// to the caches; a cache it rules out is not searched.
    fn read_segment(
        &mut self,
        core: CoreId,
        socket: NodeId,
        seg: SegId,
        touch: &Touch,
        cached: &mut Residency,
        stream: StreamId,
    ) -> AccessResult {
        let (home, version) = (touch.home, touch.version);
        let core_bit = 1u64 << core.idx();
        let l2 = &mut self.l2[core.idx()];
        let l2_probe = if cached.l2 & core_bit != 0 {
            l2.probe_resident(seg, version)
        } else {
            l2.probe_absent(seg)
        };
        match l2_probe {
            Probe::Hit => {
                return AccessResult {
                    time: self.cfg.l2_seg_time,
                    level: HitLevel::L2,
                    fault: false,
                };
            }
            Probe::Stale => {
                self.counters.invalidations.inc(socket.idx());
                cached.l2 &= !core_bit;
            }
            Probe::Miss => {}
        }
        let node_bit = 1u16 << socket.idx();
        let l3 = &mut self.l3[socket.idx()];
        let l3_probe = if cached.l3 & node_bit != 0 {
            l3.probe_resident(seg, version)
        } else {
            l3.probe_absent(seg)
        };
        match l3_probe {
            Probe::Hit => {
                self.counters.l3_hits.inc(socket.idx());
                self.fill_l2(core, seg, version, cached);
                return AccessResult {
                    time: self.cfg.l3_seg_time,
                    level: HitLevel::L3,
                    fault: false,
                };
            }
            Probe::Stale => {
                self.counters.invalidations.inc(socket.idx());
                cached.l3 &= !node_bit;
            }
            Probe::Miss => {}
        }
        // DRAM fetch from the home node.
        self.counters.l3_misses.inc(socket.idx());
        let time = self.charge_transfer(core, socket, home, stream, 1);
        self.fill_l3(socket, seg, version, cached);
        self.fill_l2(core, seg, version, cached);
        let level = if home == socket {
            HitLevel::DramLocal
        } else {
            HitLevel::DramRemote(self.cfg.topology.hops(socket, home))
        };
        AccessResult {
            time,
            level,
            fault: false,
        }
    }

    /// A streaming store: the version was already bumped by the map
    /// lookup (lazily invalidating stale copies everywhere); push the
    /// write-back bytes to the home MC.
    fn write_segment(
        &mut self,
        core: CoreId,
        socket: NodeId,
        seg: SegId,
        touch: &Touch,
        cached: &mut Residency,
        stream: StreamId,
    ) -> AccessResult {
        let (home, version) = (touch.home, touch.version);
        let time = self.charge_transfer(core, socket, home, stream, 0);
        self.fill_l3(socket, seg, version, cached);
        self.fill_l2(core, seg, version, cached);
        let level = if home == socket {
            HitLevel::DramLocal
        } else {
            HitLevel::DramRemote(self.cfg.topology.hops(socket, home))
        };
        AccessResult {
            time,
            level,
            fault: false,
        }
    }

    /// Inserts (or refreshes) `seg` in `core`'s L2 and records the copy in
    /// `cached`; an evicted segment loses its directory bit.
    fn fill_l2(&mut self, core: CoreId, seg: SegId, version: u32, cached: &mut Residency) {
        let bit = 1u64 << core.idx();
        let l2 = &mut self.l2[core.idx()];
        if cached.l2 & bit != 0 {
            l2.insert(seg, version);
        } else if let Some(victim) = l2.insert_absent(seg, version) {
            self.mem.residency_mut(victim).l2 &= !bit;
        }
        cached.l2 |= bit;
    }

    /// [`Machine::fill_l2`] for `node`'s L3.
    fn fill_l3(&mut self, node: NodeId, seg: SegId, version: u32, cached: &mut Residency) {
        let bit = 1u16 << node.idx();
        let l3 = &mut self.l3[node.idx()];
        if cached.l3 & bit != 0 {
            l3.insert(seg, version);
        } else if let Some(victim) = l3.insert_absent(seg, version) {
            self.mem.residency_mut(victim).l3 &= !bit;
        }
        cached.l3 |= bit;
    }

    /// Charges one segment of traffic between `socket` and `home`:
    /// IMC bytes at `home`, link bytes along the route, stream
    /// attribution, congestion-scaled timing. `l3_miss` is 1 for demand
    /// read misses (attributed to the stream), 0 for writes.
    ///
    /// The resources along the path are *serial queues*: the transfer
    /// waits at the home memory controller, then on every link channel it
    /// crosses, and each stage's delay scales with that stage's own
    /// smoothed utilisation. (An earlier model took the max utilisation
    /// over the path, which let a saturated MC completely mask link
    /// congestion — the scattered OS baseline never paid for crossing
    /// the interconnect, inflating its throughput well above what the
    /// paper's Fig. 4(c) HT saturation allows.)
    fn charge_transfer(
        &mut self,
        core: CoreId,
        socket: NodeId,
        home: NodeId,
        stream: StreamId,
        l3_miss: u64,
    ) -> SimDuration {
        let bytes = SEG_BYTES;
        // Resolve per-resource slowdown factors from the previous window
        // first...
        //
        // Row-buffer interference: the effective MC service time inflates
        // with the number of distinct request streams it interleaves (see
        // [`MachineConfig::mc_interleave_penalty`]). The inflated demand
        // also feeds the utilisation EWMA, so the capacity cap tightens
        // to the *effective* bandwidth.
        let streams = self.congestion.mc_streams[home.idx()].value_or(1.0);
        let interleave = 1.0
            + self.cfg.mc_interleave_penalty
                * (streams - self.cfg.mc_interleave_free as f64).max(0.0);
        let mc_factor = self.congestion.mc_util[home.idx()]
            .value_or(0.0)
            .clamp(1.0, self.cfg.max_congestion);
        let route = self.cfg.topology.route(home, socket);
        let hops = route.len() as u32;
        let mut chans = [(0usize, 1.0f64); 8];
        let mut n_chans = 0;
        let mut cur = home;
        for link_id in route {
            let link = self.cfg.topology.links()[link_id.idx()];
            // Channel 0 carries a->b, channel 1 carries b->a.
            let (chan, next) = if cur == link.a {
                (link_id.idx() * 2, link.b)
            } else {
                (link_id.idx() * 2 + 1, link.a)
            };
            cur = next;
            debug_assert!(n_chans < chans.len(), "route longer than 8 hops");
            let factor = self.congestion.chan_util[chan]
                .value_or(0.0)
                .clamp(1.0, self.cfg.max_congestion);
            chans[n_chans] = (chan, factor);
            n_chans += 1;
        }
        debug_assert_eq!(cur, socket, "route did not terminate at requester");

        // ...then account the *demand* (achieved × factor) per resource so
        // next-window feedback sees the unthrottled pressure (hard
        // capacity cap at every stage independently).
        // The queueing feedback (`mc_factor`) is clamped by
        // `max_congestion` for stability; the row-buffer interference
        // multiplier composes *outside* that clamp because it is not
        // feedback — it is a physically bounded efficiency factor
        // (≤ 1 + penalty × (n_cores − free)), so the product stays
        // finite without re-clamping and the effective-capacity demand
        // accounting below stays consistent with the charged time.
        let mc_slowdown = mc_factor * interleave;
        self.counters.imc_bytes.add(home.idx(), bytes);
        self.congestion.mc_bytes[home.idx()] += (bytes as f64 * mc_slowdown) as u64;
        self.congestion.mc_requesters[home.idx()] |= 1u64 << (core.idx() & 63);
        for &(chan, factor) in &chans[..n_chans] {
            self.counters.link_bytes.add(chan, bytes);
            self.congestion.chan_bytes[chan] += (bytes as f64 * factor) as u64;
        }

        let ht_bytes = if hops > 0 { bytes } else { 0 };
        self.counters.stream_add(stream, ht_bytes, bytes, l3_miss);

        // Serial delays: fixed latency, the MC stage, then each link
        // stage. The per-hop transfer penalty models the request/response
        // inefficiency of coherent remote streams (plus the broadcast
        // coherence probes of the probe-filter-less Opteron 8387).
        //
        // Link stages respond *superlinearly* to oversubscription: a
        // saturated HyperTransport link is a queueing system whose delay
        // blows up past the knee, not a fluid pipe that shares capacity
        // gracefully. This is what makes the OS baseline's throughput
        // plateau (and then sag) once its scattered traffic saturates the
        // interconnect — Fig. 4(a)/(c) of the paper — while NUMA-local
        // traffic is unaffected.
        let mut time = self.cfg.dram_latency
            + SimDuration::from_nanos(self.cfg.hop_latency.as_nanos() * hops as u64)
            + self.dram_transfer.mul_f64(mc_slowdown);
        for &(_, factor) in &chans[..n_chans] {
            let queueing = (factor * factor).clamp(1.0, self.cfg.max_congestion);
            time += self.link_transfer.mul_f64(queueing);
        }
        time
    }

    /// Current smoothed utilisation of a node's memory controller
    /// (diagnostics and tests).
    pub fn mc_utilisation(&self, node: NodeId) -> f64 {
        self.congestion.mc_util[node.idx()].value_or(0.0)
    }
}

/// The indices of the set bits of `mask`, in ascending order.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_2x2(), SimDuration::from_micros(100))
    }

    #[test]
    fn first_read_faults_and_fetches_local() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        let res = m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(1));
        assert!(res.fault);
        assert_eq!(res.level, HitLevel::DramLocal);
        assert_eq!(m.counters().minor_faults.get(0), 1);
        assert_eq!(m.counters().l3_misses.get(0), 1);
        assert_eq!(m.counters().imc_bytes.get(0), SEG_BYTES);
        // No link traffic for a local fetch.
        assert_eq!(m.counters().total_link_bytes(), 0);
        assert_eq!(m.counters().stream(StreamId(1)).ht_bytes, 0);
        assert_eq!(m.counters().stream(StreamId(1)).imc_bytes, SEG_BYTES);
    }

    #[test]
    fn second_read_hits_l2() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(1));
        let res = m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(1));
        assert!(!res.fault);
        assert_eq!(res.level, HitLevel::L2);
        assert_eq!(res.time, m.config().l2_seg_time);
    }

    #[test]
    fn sibling_core_hits_shared_l3() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(1));
        // Core 1 is on the same socket (2 cores per node).
        let res = m.access_segment(CoreId(1), seg, AccessKind::Read, StreamId(1));
        assert_eq!(res.level, HitLevel::L3);
        assert_eq!(m.counters().l3_hits.get(0), 1);
    }

    #[test]
    fn remote_read_crosses_link_and_faults() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        // Homed on node 0 by core 0.
        m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(1));
        // Core 2 lives on node 1: remote fetch.
        let res = m.access_segment(CoreId(2), seg, AccessKind::Read, StreamId(2));
        assert!(res.fault, "remote first map is a minor fault");
        assert_eq!(res.level, HitLevel::DramRemote(1));
        assert_eq!(m.counters().remote_faults.get(1), 1);
        assert_eq!(m.counters().total_link_bytes(), SEG_BYTES);
        let t = m.counters().stream(StreamId(2));
        assert_eq!(t.ht_bytes, SEG_BYTES);
        assert!(t.ht_imc_ratio().unwrap() > 0.99);
    }

    #[test]
    fn remote_read_slower_than_local() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, 2 * SEG_BYTES);
        let local = m.access_segment(CoreId(0), r.segment(0), AccessKind::Read, StreamId(0));
        // Home seg 1 on node 1 first, then read remotely from node 0.
        m.access_segment(CoreId(2), r.segment(1), AccessKind::Read, StreamId(0));
        let remote = m.access_segment(CoreId(0), r.segment(1), AccessKind::Read, StreamId(0));
        assert!(remote.time > local.time);
    }

    #[test]
    fn write_bumps_version_and_invalidates_reader() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(0));
        // A write from core 2 (other socket) bumps the version.
        m.access_segment(CoreId(2), seg, AccessKind::Write, StreamId(0));
        // Core 0's cached copy is now stale: the next read re-fetches.
        let res = m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(0));
        assert_ne!(res.level, HitLevel::L2);
        assert!(m.counters().invalidations.get(0) >= 1);
    }

    #[test]
    fn congestion_feedback_slows_transfers() {
        let mut m = machine();
        let sp = m.create_space();
        // Enough segments to blow out caches.
        let r = m.alloc(sp, 64 * SEG_BYTES);
        let baseline = m.access_segment(CoreId(0), r.segment(0), AccessKind::Read, StreamId(0));
        // Saturate node 0's MC within one tick (100us * 6.4GB/s = 640KB;
        // stream 60 segments ≈ 3.9 MB >> capacity).
        for i in 1..60 {
            m.access_segment(CoreId(0), r.segment(i), AccessKind::Read, StreamId(0));
        }
        m.end_tick();
        assert!(m.mc_utilisation(NodeId(0)) > 1.0);
        // Fresh (uncached) segment now costs more than the baseline.
        let r2 = m.alloc(sp, SEG_BYTES);
        let congested = m.access_segment(CoreId(0), r2.segment(0), AccessKind::Read, StreamId(0));
        assert!(congested.time > baseline.time);
    }

    #[test]
    fn free_drops_cached_copies() {
        let mut m = machine();
        let sp = m.create_space();
        let r = m.alloc(sp, SEG_BYTES);
        let seg = r.segment(0);
        m.access_segment(CoreId(0), seg, AccessKind::Read, StreamId(0));
        m.free(&r);
        // Reallocate: the new region reuses no page numbers, so nothing to
        // assert on seg identity, but the old seg must be gone from caches.
        assert_eq!(m.mem().n_segments(), 0);
    }

    #[test]
    fn compute_charges_cycles() {
        let m = machine();
        assert_eq!(m.compute(2_800).as_nanos(), 1_000);
    }

    use crate::cache::reference::StampLru;
    use proptest::prelude::*;

    /// The access path before the directory: every cache probed and
    /// filled by segment through the stamp model, in the order probe L2,
    /// probe L3, insert L3, insert L2, and a free that invalidates every
    /// cache. The map, the counters and the congestion model are a second
    /// [`Machine`]'s (its own caches stay unused).
    struct Reference {
        m: Machine,
        l2: Vec<StampLru>,
        l3: Vec<StampLru>,
    }

    impl Reference {
        fn new(cfg: &MachineConfig) -> Self {
            let m = Machine::new(cfg.clone(), SimDuration::from_micros(100));
            Reference {
                l2: (0..m.topology().n_cores())
                    .map(|_| StampLru::new(cfg.l2_segments))
                    .collect(),
                l3: (0..m.topology().n_nodes())
                    .map(|_| StampLru::new(cfg.l3_segments))
                    .collect(),
                m,
            }
        }

        fn free(&mut self, region: &Region) {
            for seg in region.segments() {
                for c in self.l2.iter_mut().chain(&mut self.l3) {
                    c.invalidate(seg);
                }
            }
            self.m.mem.free(region);
        }

        fn access(
            &mut self,
            core: CoreId,
            seg: SegId,
            kind: AccessKind,
            stream: StreamId,
        ) -> AccessResult {
            let m = &mut self.m;
            let socket = m.topology().node_of(core);
            let touch = m.mem.touch(seg, socket, kind == AccessKind::Write);
            let fault = m.count_fault(socket, touch.kind);
            let (c, n, version) = (core.idx(), socket.idx(), touch.version);
            let fault_time = if fault {
                m.fault_latency
            } else {
                SimDuration::ZERO
            };
            let result = |time, level| AccessResult {
                time: time + fault_time,
                level,
                fault,
            };
            if kind == AccessKind::Read {
                match self.l2[c].probe(seg, version) {
                    Probe::Hit => return result(m.cfg.l2_seg_time, HitLevel::L2),
                    Probe::Stale => m.counters.invalidations.inc(n),
                    Probe::Miss => {}
                }
                match self.l3[n].probe(seg, version) {
                    Probe::Hit => {
                        m.counters.l3_hits.inc(n);
                        self.l2[c].insert(seg, version);
                        return result(m.cfg.l3_seg_time, HitLevel::L3);
                    }
                    Probe::Stale => m.counters.invalidations.inc(n),
                    Probe::Miss => {}
                }
                m.counters.l3_misses.inc(n);
            }
            let l3_miss = u64::from(kind == AccessKind::Read);
            let time = m.charge_transfer(core, socket, touch.home, stream, l3_miss);
            self.l3[n].insert(seg, version);
            self.l2[c].insert(seg, version);
            let level = if touch.home == socket {
                HitLevel::DramLocal
            } else {
                HitLevel::DramRemote(m.cfg.topology.hops(socket, touch.home))
            };
            result(time, level)
        }
    }

    /// One step of a random trace: (operation, core draw, region draw,
    /// segment or size draw).
    type Step = (u8, u16, u16, u8);

    /// Replays `trace` on a machine and on the [`Reference`], comparing
    /// every access result and all counters after each step, and every
    /// residency bit of every live segment against the stamp caches.
    fn same_as_reference(cfg: MachineConfig, trace: &[Step]) -> Result<(), TestCaseError> {
        let mut m = Machine::new(cfg.clone(), SimDuration::from_micros(100));
        let mut r = Reference::new(&cfg);
        let (sp, rsp) = (m.create_space(), r.m.create_space());
        let n_cores = m.topology().n_cores();
        let mut live: Vec<Region> = Vec::new();
        for (step, &(op, core, pick, draw)) in trace.iter().enumerate() {
            match op {
                _ if live.is_empty() || op < 4 => {
                    let bytes = (1 + u64::from(draw % 6)) * SEG_BYTES;
                    let region = m.alloc(sp, bytes);
                    prop_assert_eq!(region.first_page, r.m.alloc(rsp, bytes).first_page);
                    live.push(region);
                }
                4 => {
                    let region = live.swap_remove(usize::from(pick) % live.len());
                    m.free(&region);
                    r.free(&region);
                }
                5 => {
                    m.end_tick();
                    r.m.end_tick();
                }
                _ => {
                    let region = live[usize::from(pick) % live.len()];
                    let seg = region.segment(u64::from(draw) % region.n_segments());
                    let core = CoreId(core % n_cores as u16);
                    let kind = if op < 16 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let stream = StreamId(u64::from(core.0 % 3));
                    let (got, want) = (
                        m.access_segment(core, seg, kind, stream),
                        r.access(core, seg, kind, stream),
                    );
                    prop_assert_eq!(
                        (got.time, got.level, got.fault),
                        (want.time, want.level, want.fault),
                        "access at step {step}"
                    );
                }
            }
            prop_assert_eq!(
                m.counters().snapshot(),
                r.m.counters().snapshot(),
                "counters after step {step}"
            );
            for s in 0..3 {
                prop_assert_eq!(
                    m.counters().stream(StreamId(s)),
                    r.m.counters().stream(StreamId(s))
                );
            }
            for seg in live.iter().flat_map(|region| region.segments()) {
                let cached = m.mem.residency(seg).expect("live segment unmapped");
                for (c, stamp) in r.l2.iter().enumerate() {
                    prop_assert_eq!(
                        cached.l2 >> c & 1 == 1,
                        stamp.holds(seg),
                        "L2 {} bit of {:?} after step {}",
                        c,
                        seg,
                        step
                    );
                    prop_assert_eq!(m.l2[c].holds(seg), stamp.holds(seg));
                }
                for (n, stamp) in r.l3.iter().enumerate() {
                    prop_assert_eq!(
                        cached.l3 >> n & 1 == 1,
                        stamp.holds(seg),
                        "L3 {} bit of {:?} after step {}",
                        n,
                        seg,
                        step
                    );
                    prop_assert_eq!(m.l3[n].holds(seg), stamp.holds(seg));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn directory_path_is_the_reference_access_sequence(
            // Allocs 4 draws in 20, frees 1, tick ends 1, reads 10,
            // writes 4.
            trace in collection::vec((0u8..20, 0u16..64, 0u16..1024, 0u8..64), 1..300)
        ) {
            same_as_reference(MachineConfig::tiny_2x2(), &trace)?;
            same_as_reference(MachineConfig::opteron_4x4(), &trace)?;
        }
    }
}
