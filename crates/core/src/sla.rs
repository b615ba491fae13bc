//! SLA-constrained allocation — the paper's stated future work (§VII):
//! *"evaluate the benefits of our strategy in the cloud computing context
//! when accessing cores as needed, like meeting service level agreements
//! (e.g., energy or data traffic)"*.
//!
//! [`SlaPolicy`] is a declarative budget over the same counters the
//! mechanism already monitors. [`SlaGovernor`] turns each control sample
//! into a *cap* on the allocation: when a budget is violated the governor
//! lowers the permissible core count (releasing through the normal PrT
//! path by damping the signal), and raises it again while the budgets
//! hold. This composes with any allocation mode — the mode still decides
//! *where*, the governor bounds *how many*.

/// Budgets an operator can attach to a tenant's DBMS group.
#[derive(Clone, Copy, Debug)]
pub struct SlaPolicy {
    /// Maximum average socket power in watts (CPU energy budget);
    /// `None` = unconstrained.
    pub max_power_w: Option<f64>,
    /// Maximum interconnect traffic rate in bytes/second (data-movement
    /// budget); `None` = unconstrained.
    pub max_ht_rate: Option<f64>,
    /// Hard ceiling on allocated cores (tenant sizing); `None` = machine
    /// size.
    pub max_cores: Option<u32>,
}

impl SlaPolicy {
    /// An unconstrained policy (the governor becomes a no-op).
    pub fn unconstrained() -> Self {
        SlaPolicy {
            max_power_w: None,
            max_ht_rate: None,
            max_cores: None,
        }
    }

    /// A cores-only tenant cap.
    pub fn cores(max: u32) -> Self {
        SlaPolicy {
            max_cores: Some(max),
            ..Self::unconstrained()
        }
    }
}

/// Rolling enforcement state.
#[derive(Clone, Debug)]
pub struct SlaGovernor {
    policy: SlaPolicy,
    /// Current allocation ceiling (cores).
    cap: u32,
    ntotal: u32,
    /// Consecutive compliant intervals needed before the cap is raised.
    raise_after: u32,
    compliant_streak: u32,
    /// Violations observed (reporting).
    pub violations: u64,
    /// Energy model constants for the power estimate.
    idle_w: f64,
    acp_w: f64,
    cores_per_socket: u32,
}

impl SlaGovernor {
    /// Creates a governor for a machine of `ntotal` cores
    /// (`cores_per_socket` wide) using the Opteron power constants.
    pub fn new(policy: SlaPolicy, ntotal: u32, cores_per_socket: u32) -> Self {
        assert!(ntotal >= 1 && cores_per_socket >= 1);
        let cap = policy.max_cores.unwrap_or(ntotal).clamp(1, ntotal);
        SlaGovernor {
            policy,
            cap,
            ntotal,
            raise_after: 4,
            compliant_streak: 0,
            violations: 0,
            idle_w: 25.0,
            acp_w: 75.0,
            cores_per_socket,
        }
    }

    /// The current allocation ceiling.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Estimated socket power draw at `busy` cores over `wall`.
    fn power_estimate(&self, busy_cores: f64) -> f64 {
        let sockets = (self.ntotal / self.cores_per_socket).max(1) as f64;
        let util = (busy_cores / self.ntotal as f64).clamp(0.0, 1.0);
        sockets * (self.idle_w + (self.acp_w - self.idle_w) * util)
    }

    /// Feeds one control step's readings; returns the (possibly updated)
    /// core cap. `ht_rate` is the interconnect rate over the interval,
    /// `busy_cores` the average number of busy cores.
    pub fn observe(&mut self, ht_rate: f64, busy_cores: f64) -> u32 {
        let hard_max = self
            .policy
            .max_cores
            .unwrap_or(self.ntotal)
            .clamp(1, self.ntotal);
        let mut violated = false;
        if let Some(max_power) = self.policy.max_power_w {
            if self.power_estimate(busy_cores) > max_power {
                violated = true;
            }
        }
        if let Some(max_ht) = self.policy.max_ht_rate {
            if ht_rate > max_ht {
                violated = true;
            }
        }
        if violated {
            self.violations += 1;
            self.compliant_streak = 0;
            self.cap = (self.cap.saturating_sub(1)).max(1);
        } else {
            self.compliant_streak += 1;
            if self.compliant_streak >= self.raise_after && self.cap < hard_max {
                self.cap += 1;
                self.compliant_streak = 0;
            }
        }
        self.cap = self.cap.min(hard_max);
        self.cap
    }

    /// Applies the cap to a metric value: if the allocation already sits
    /// at the cap, an Overload signal is damped into the stable band so
    /// the PrT net will not allocate past the SLA.
    pub fn damp(&self, u: i64, nalloc: u32, thresholds: prt_petrinet::Thresholds) -> i64 {
        if nalloc > self.cap {
            // Above the cap (it was just lowered): force a release.
            thresholds.thmin
        } else if nalloc == self.cap && u >= thresholds.thmax {
            (thresholds.thmin + thresholds.thmax) / 2
        } else {
            u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_petrinet::Thresholds;

    #[test]
    fn unconstrained_cap_is_machine_size() {
        let g = SlaGovernor::new(SlaPolicy::unconstrained(), 16, 4);
        assert_eq!(g.cap(), 16);
    }

    #[test]
    fn cores_policy_caps() {
        let g = SlaGovernor::new(SlaPolicy::cores(4), 16, 4);
        assert_eq!(g.cap(), 4);
    }

    #[test]
    fn traffic_violation_lowers_cap_then_recovers() {
        let policy = SlaPolicy {
            max_ht_rate: Some(1e9),
            ..SlaPolicy::unconstrained()
        };
        let mut g = SlaGovernor::new(policy, 16, 4);
        // Three violating intervals shrink the cap by three.
        for _ in 0..3 {
            g.observe(5e9, 8.0);
        }
        assert_eq!(g.cap(), 13);
        assert_eq!(g.violations, 3);
        // Sustained compliance raises it back one step per streak.
        for _ in 0..4 {
            g.observe(0.0, 8.0);
        }
        assert_eq!(g.cap(), 14);
    }

    #[test]
    fn power_budget_enforced() {
        // 4 sockets idle draw 100 W; full load 300 W. Budget 150 W allows
        // ~25% utilisation.
        let policy = SlaPolicy {
            max_power_w: Some(150.0),
            ..SlaPolicy::unconstrained()
        };
        let mut g = SlaGovernor::new(policy, 16, 4);
        g.observe(0.0, 16.0);
        assert_eq!(g.violations, 1);
        g.observe(0.0, 2.0);
        assert_eq!(g.violations, 1, "2 busy cores ≈ 125 W is compliant");
    }

    #[test]
    fn cap_never_leaves_bounds() {
        let policy = SlaPolicy {
            max_ht_rate: Some(1.0),
            max_cores: Some(2),
            max_power_w: None,
        };
        let mut g = SlaGovernor::new(policy, 16, 4);
        for _ in 0..10 {
            g.observe(f64::MAX, 16.0);
        }
        assert_eq!(g.cap(), 1, "cap floors at one core");
        for _ in 0..100 {
            g.observe(0.0, 0.0);
        }
        assert_eq!(g.cap(), 2, "cap ceils at the policy maximum");
    }

    #[test]
    fn cores_only_policy_never_violates() {
        let mut g = SlaGovernor::new(SlaPolicy::cores(2), 16, 4);
        for _ in 0..10 {
            g.observe(f64::MAX, 16.0);
        }
        assert_eq!(g.violations, 0, "no budget, no violations");
        assert_eq!(g.cap(), 2);
    }

    #[test]
    fn damping_respects_cap() {
        let g = SlaGovernor::new(SlaPolicy::cores(4), 16, 4);
        let th = Thresholds::cpu_load_default();
        // Below cap: signal passes through.
        assert_eq!(g.damp(99, 2, th), 99);
        // At cap: overload damped to stable.
        assert_eq!(g.damp(99, 4, th), 40);
        // Over cap: forced release.
        assert_eq!(g.damp(99, 6, th), th.thmin);
        // Non-overload signals unaffected.
        assert_eq!(g.damp(50, 4, th), 50);
    }
}
