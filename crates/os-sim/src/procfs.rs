//! `/proc`-style sampling: the mpstat analogue.
//!
//! The elastic mechanism monitors the DBMS through exactly the interfaces
//! the paper lists (§IV-A): *mpstat* for CPU load, *cgroups* for thread
//! membership, page placement statistics for the priority queue. This
//! module turns the kernel's monotonic group-busy counter into a windowed
//! load percentage.

use crate::cpuset::GroupId;
use crate::sched::Kernel;
use emca_metrics::SimTime;

/// A windowed load sample.
#[derive(Clone, Copy, Debug)]
pub struct LoadSample {
    /// Busy fraction of the observed group across the cores its mask
    /// allows, in `[0, 1]` — the paper's `u` predicate variable
    /// (multiplied by 100 for percent).
    pub group_load: f64,
}

impl LoadSample {
    /// Group CPU load in percent (the PetriNet's `u`).
    pub fn group_load_pct(&self) -> f64 {
        self.group_load * 100.0
    }
}

/// Samples a group's CPU load over successive windows (mpstat with a
/// configurable interval).
#[derive(Clone, Debug)]
pub struct LoadSampler {
    group: GroupId,
    prev_group_busy: u64,
    prev_time: SimTime,
}

impl LoadSampler {
    /// Creates a sampler anchored at the kernel's current time.
    pub fn new(kernel: &Kernel, group: GroupId) -> Self {
        LoadSampler {
            group,
            prev_group_busy: kernel.group_busy_ns(group),
            prev_time: kernel.now(),
        }
    }

    /// Takes a sample over the window since the previous call.
    pub fn sample(&mut self, kernel: &Kernel) -> LoadSample {
        let now = kernel.now();
        let wall_ns = now.since(self.prev_time).as_nanos().max(1);
        let group_busy_total = kernel.group_busy_ns(self.group);
        let group_busy_ns = group_busy_total.saturating_sub(self.prev_group_busy);
        let n_allowed = kernel.group_mask(self.group).count().max(1);
        let group_load = (group_busy_ns as f64 / (wall_ns as f64 * n_allowed as f64)).min(1.0);
        self.prev_group_busy = group_busy_total;
        self.prev_time = now;
        LoadSample { group_load }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuset::CoreMask;
    use crate::work::SpinWork;
    use emca_metrics::SimDuration;
    use numa_sim::CoreId;

    #[test]
    fn load_sampler_measures_busy_fraction() {
        let mut k = Kernel::opteron_4x4();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        let mut sampler = LoadSampler::new(&k, g);
        // One thread spinning for the whole window on 1 allowed core.
        k.spawn(
            "spin",
            g,
            None,
            Box::new(SpinWork::new(SimDuration::from_millis(100))),
        );
        k.run_until(SimTime::from_millis(10));
        let s = sampler.sample(&k);
        assert!(s.group_load_pct() > 95.0, "got {}", s.group_load_pct());
    }

    #[test]
    fn idle_group_reports_zero() {
        let mut k = Kernel::opteron_4x4();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        let mut sampler = LoadSampler::new(&k, g);
        k.run_until(SimTime::from_millis(5));
        let s = sampler.sample(&k);
        assert_eq!(s.group_load_pct(), 0.0);
    }

    #[test]
    fn group_load_accounts_mask_width() {
        let mut k = Kernel::opteron_4x4();
        let mask = CoreMask::from_cores([CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        let g = k.create_group(mask);
        let mut sampler = LoadSampler::new(&k, g);
        // One busy thread on a 4-core mask -> ~25% group load.
        k.spawn(
            "spin",
            g,
            None,
            Box::new(SpinWork::new(SimDuration::from_millis(100))),
        );
        k.run_until(SimTime::from_millis(8));
        let s = sampler.sample(&k);
        assert!(
            (s.group_load_pct() - 25.0).abs() < 5.0,
            "got {}",
            s.group_load_pct()
        );
    }

    #[test]
    fn successive_windows_are_deltas() {
        let mut k = Kernel::opteron_4x4();
        let g = k.create_group(CoreMask::single(CoreId(0)));
        let mut sampler = LoadSampler::new(&k, g);
        k.spawn(
            "spin",
            g,
            None,
            Box::new(SpinWork::new(SimDuration::from_millis(5))),
        );
        k.run_until(SimTime::from_millis(5));
        let s1 = sampler.sample(&k);
        // Work done; next window idle.
        k.run_until(SimTime::from_millis(10));
        let s2 = sampler.sample(&k);
        assert!(s1.group_load_pct() > 90.0);
        assert!(s2.group_load_pct() < 10.0);
    }
}
