//! Resource monitoring (the rule part of rule-condition-action).
//!
//! The paper's mechanism watches the DBMS through OS facilities: mpstat
//! for CPU load, likwid for HT/IMC traffic, and per-space page placement
//! for the priority queue (§IV-A). [`Monitor`] samples all of them over
//! the control interval and produces the integer-domain `u` value the
//! PetriNet predicates consume.

use emca_metrics::SimTime;
use numa_sim::SpaceId;
use os_sim::{GroupId, Kernel, LoadSampler};

/// Which resource drives the performance-state transitions (§V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Windowed CPU demand of the DBMS threads over the allowed cores,
    /// in percent: `u = 100 · Δdemand_ns / (nalloc · Δwall)`, clamped to
    /// 100, where `demand_ns` integrates the group's runnable thread
    /// count over every scheduler tick. This is a *per-interval delta*:
    /// it measures demand over the whole control window instead of at
    /// one instant, so sub-interval scheduling noise (a momentarily
    /// drained runqueue between two query waves) cannot flip the
    /// PetriNet between Idle and Overload on alternate steps.
    CpuLoad,
    /// Instantaneous CPU demand (`u = 100 · runnable / nalloc` at the
    /// sample point) — what a point-in-time mpstat/loadavg snapshot
    /// sees. Oscillates with scheduling noise; kept for ablation.
    CpuLoadInstant,
    /// Windowed average CPU *usage* over the control interval (busy time
    /// over capacity; smoother but blind to queued demand — used for
    /// ablation).
    CpuLoadWindowed,
    /// Ratio of HyperTransport traffic to integrated-memory-controller
    /// traffic, in per-mille (`u = 1000 · HT/IMC`).
    HtImcRatio,
}

/// One monitoring sample.
#[derive(Clone, Debug)]
pub struct MonitorSample {
    /// Sample time.
    pub at: SimTime,
    /// The metric value in the PetriNet's integer domain.
    pub u: i64,
    /// Group CPU load in percent (always sampled, for reporting).
    pub cpu_load_pct: f64,
    /// HT/IMC ratio over the window (always sampled, for reporting).
    pub ht_imc_ratio: f64,
    /// Resident pages per NUMA node of the DBMS space (priority queue
    /// input).
    pub pages_per_node: Vec<u64>,
    /// Smoothed memory-controller utilisation per node (the adaptive
    /// mode's headroom signal).
    pub mc_util_per_node: Vec<f64>,
    /// Traffic-weighted memory-controller utilisation: the utilisation
    /// experienced by the workload's own accesses (each node's smoothed
    /// utilisation weighted by its share of the window's IMC bytes).
    /// This is the `p(nalloc) ≥ p(ntotal)` signal — when ≥ 1, the
    /// controllers actually serving the data have no headroom left, so
    /// more cores cannot improve performance.
    pub mc_pressure: f64,
}

/// Windowed sampler over the kernel's counters.
pub struct Monitor {
    metric: MetricKind,
    group: GroupId,
    space: SpaceId,
    load: LoadSampler,
    /// Machine-wide interconnect bytes at the previous sample.
    prev_link_bytes: u64,
    /// Per-node memory-controller bytes at the previous sample.
    prev_imc_bytes: Vec<u64>,
    prev_demand_ns: u64,
    prev_at: SimTime,
}

impl Monitor {
    /// Creates a monitor anchored at the kernel's current time.
    pub fn new(kernel: &Kernel, group: GroupId, space: SpaceId, metric: MetricKind) -> Self {
        Monitor {
            metric,
            group,
            space,
            load: LoadSampler::new(kernel, group),
            prev_link_bytes: kernel.machine().counters().total_link_bytes(),
            prev_imc_bytes: kernel.machine().counters().imc_bytes.snapshot(),
            prev_demand_ns: kernel.group_demand_ns(group),
            prev_at: kernel.now(),
        }
    }

    /// The driving metric.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// Takes a sample over the window since the previous call.
    pub fn sample(&mut self, kernel: &Kernel) -> MonitorSample {
        let load = self.load.sample(kernel);
        let machine = kernel.machine();
        let counters = machine.counters();
        // Counters only grow, so the total's delta is the sum of the
        // per-link deltas.
        let link_bytes = counters.total_link_bytes();
        let ht_delta = link_bytes.saturating_sub(self.prev_link_bytes);
        self.prev_link_bytes = link_bytes;
        // Per node: the window's IMC bytes, and those bytes weighted by
        // the node's smoothed controller utilisation.
        let mut imc_delta = 0u64;
        let mut weighted_util = 0.0f64;
        let utils: Vec<f64> = machine
            .topology()
            .all_nodes()
            .map(|n| {
                let bytes = counters.imc_bytes.get(n.idx());
                let prev = std::mem::replace(&mut self.prev_imc_bytes[n.idx()], bytes);
                let delta = bytes.saturating_sub(prev);
                let util = machine.mc_utilisation(n);
                imc_delta += delta;
                weighted_util += util * delta as f64;
                util
            })
            .collect();
        let ht_imc_ratio = if imc_delta == 0 {
            0.0
        } else {
            ht_delta as f64 / imc_delta as f64
        };
        let cpu_load_pct = load.group_load_pct();
        let demand_ns = kernel.group_demand_ns(self.group);
        let wall_ns = kernel.now().since(self.prev_at).as_nanos();
        let nalloc = kernel.group_mask(self.group).count().max(1);
        let u = match self.metric {
            MetricKind::CpuLoad => {
                let delta = demand_ns.saturating_sub(self.prev_demand_ns);
                if wall_ns == 0 {
                    // Zero-width window (two samples in one tick): fall
                    // back to the instantaneous view.
                    let runnable = kernel.group_runnable(self.group);
                    ((runnable as f64 / nalloc as f64) * 100.0)
                        .round()
                        .min(100.0) as i64
                } else {
                    ((delta as f64 / (nalloc as f64 * wall_ns as f64)) * 100.0)
                        .round()
                        .min(100.0) as i64
                }
            }
            MetricKind::CpuLoadInstant => {
                let runnable = kernel.group_runnable(self.group);
                ((runnable as f64 / nalloc as f64) * 100.0)
                    .round()
                    .min(100.0) as i64
            }
            MetricKind::CpuLoadWindowed => cpu_load_pct.round() as i64,
            MetricKind::HtImcRatio => (ht_imc_ratio * 1000.0).round() as i64,
        };
        self.prev_demand_ns = demand_ns;
        self.prev_at = kernel.now();
        let mc_pressure = if imc_delta == 0 {
            0.0
        } else {
            weighted_util / imc_delta as f64
        };
        MonitorSample {
            at: kernel.now(),
            u,
            cpu_load_pct,
            ht_imc_ratio,
            pages_per_node: kernel.machine().mem().pages_per_node(self.space).to_vec(),
            mc_util_per_node: utils,
            mc_pressure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emca_metrics::SimDuration;
    use numa_sim::{AccessKind, CoreId, StreamId};
    use os_sim::{CoreMask, SpinWork};

    fn kernel_with_group() -> (Kernel, GroupId, SpaceId) {
        let mut k = Kernel::opteron_4x4();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        let space = k.machine_mut().create_space();
        (k, g, space)
    }

    #[test]
    fn cpu_load_metric_tracks_group() {
        let (mut k, g, space) = kernel_with_group();
        let mut m = Monitor::new(&k, g, space, MetricKind::CpuLoad);
        k.spawn(
            "spin",
            g,
            None,
            Box::new(SpinWork::new(SimDuration::from_millis(50))),
        );
        k.run_until(SimTime::from_millis(10));
        let s = m.sample(&k);
        assert!(s.u >= 95, "expected saturated load, got {}", s.u);
        assert!(s.cpu_load_pct >= 95.0);
        assert_eq!(s.at, SimTime::from_millis(10));
    }

    #[test]
    fn ht_imc_metric_reflects_remote_traffic() {
        let (mut k, g, space) = kernel_with_group();
        let mut m = Monitor::new(&k, g, space, MetricKind::HtImcRatio);
        // Home a region on node 0, then read it from node 3 repeatedly:
        // every miss crosses the interconnect, so HT/IMC ≈ 1.
        let region = k.machine_mut().alloc(space, 64 * numa_sim::SEG_BYTES);
        for seg in region.segments() {
            k.machine_mut()
                .access_segment(CoreId(0), seg, AccessKind::Read, StreamId(0));
        }
        let _ = m.sample(&k); // roll the window past the local warm-up
        for seg in region.segments() {
            k.machine_mut()
                .access_segment(CoreId(15), seg, AccessKind::Read, StreamId(0));
        }
        let s = m.sample(&k);
        assert!(s.u > 900, "expected ratio near 1000 per-mille, got {}", s.u);
        assert!(s.ht_imc_ratio > 0.9);
    }

    #[test]
    fn pages_per_node_flows_through() {
        let (mut k, g, space) = kernel_with_group();
        let mut m = Monitor::new(&k, g, space, MetricKind::CpuLoad);
        let region = k.machine_mut().alloc(space, numa_sim::SEG_BYTES);
        k.machine_mut()
            .access_segment(CoreId(9), region.segment(0), AccessKind::Read, StreamId(0));
        let s = m.sample(&k);
        // Core 9 lives on node 2.
        assert_eq!(s.pages_per_node[2], numa_sim::PAGES_PER_SEG);
    }

    #[test]
    fn idle_windows_report_zero() {
        let (mut k, g, space) = kernel_with_group();
        let mut m = Monitor::new(&k, g, space, MetricKind::HtImcRatio);
        k.run_until(SimTime::from_millis(5));
        let s = m.sample(&k);
        assert_eq!(s.u, 0);
        assert_eq!(s.ht_imc_ratio, 0.0);
    }
}
