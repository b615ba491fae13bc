//! The paper's elastic core-allocation net (§III-B).
//!
//! Places `P = {Checks, Idle, Stable, Overload, Provision}` and
//! transitions `T = {t0..t7}`:
//!
//! | transition | sub-net   | guard                 | effect |
//! |------------|-----------|-----------------------|--------|
//! | `t0` | idle     | `u <= thmin`           | Checks → Idle |
//! | `t1` | overload | `u >= thmax`           | Checks → Overload |
//! | `t2` | stable   | `thmin < u < thmax`    | Checks → Stable |
//! | `t3` | stable   | true                   | Stable → Checks |
//! | `t4` | idle     | `nalloc > 1`           | Idle → Checks, releases a core |
//! | `t7` | idle     | `nalloc == 1`          | Idle → Checks, lower bound hit |
//! | `t5` | overload | `nalloc < ntotal`      | Overload → Checks, allocates a core |
//! | `t6` | overload | `nalloc == ntotal`     | Overload → Checks, upper bound hit |
//!
//! `Checks` carries the resource-usage token `u` (CPU load percent by
//! default; the HT/IMC ratio strategy of §V-B uses per-mille). `Provision`
//! carries the `nalloc` token. The initial marking is
//! `m0(Provision) = {nalloc0}` (the paper starts with one core).

use crate::expr::{Binding, Cmp, Expr, Pred};
use crate::net::{InArc, Marking, OutArc, PlaceId, PrtNet, Transition, TransitionId};

/// Performance thresholds (integer domain units).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Thresholds {
    /// Below-or-equal ⇒ Idle.
    pub thmin: i64,
    /// Above-or-equal ⇒ Overload.
    pub thmax: i64,
}

impl Thresholds {
    /// The paper's CPU-load thresholds (percent): `thmin=10, thmax=70`,
    /// "following the rules of thumb in the literature".
    pub fn cpu_load_default() -> Self {
        Thresholds {
            thmin: 10,
            thmax: 70,
        }
    }

    /// The paper's HT/IMC-ratio thresholds (§V-B): `0.1 / 0.4`, scaled to
    /// per-mille so tokens stay integral.
    pub fn ht_imc_default() -> Self {
        Thresholds {
            thmin: 100,
            thmax: 400,
        }
    }

    /// Validates `thmin < thmax`.
    pub fn validate(&self) {
        assert!(
            self.thmin < self.thmax,
            "thmin ({}) must be below thmax ({})",
            self.thmin,
            self.thmax
        );
    }
}

/// The database performance state after a step (the paper's places).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// `u <= thmin`.
    Idle,
    /// `thmin < u < thmax`.
    Stable,
    /// `u >= thmax`.
    Overload,
}

impl StateKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StateKind::Idle => "Idle",
            StateKind::Stable => "Stable",
            StateKind::Overload => "Overload",
        }
    }
}

/// The action the mechanism must take after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocAction {
    /// Allocate one more core (t5 fired).
    Allocate,
    /// Release one core (t4 fired).
    Release,
    /// Keep the current allocation (t3, t6 or t7 fired).
    Hold,
}

/// Report of one rule-condition-action step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Classified state.
    pub state: StateKind,
    /// Resulting action.
    pub action: AllocAction,
    /// Fired transition ids, in order.
    pub fired: Vec<TransitionId>,
    /// Label in the paper's Fig. 7 style, e.g. `"t1-Overload-t5"`.
    pub label: String,
    /// `nalloc` after the step.
    pub nalloc: u32,
    /// The `u` value the step classified.
    pub u: i64,
}

/// The elastic net plus its marking and ambient constants.
#[derive(Clone, Debug)]
pub struct ElasticNet {
    net: PrtNet,
    marking: Marking,
    thresholds: Thresholds,
    ntotal: u32,
    checks: PlaceId,
    provision: PlaceId,
    idle: PlaceId,
    stable: PlaceId,
    overload: PlaceId,
}

impl ElasticNet {
    /// Builds the net with `ntotal` cores available, `nalloc0` initially
    /// allocated (the paper defaults to 1) and the given thresholds.
    pub fn new(thresholds: Thresholds, ntotal: u32, nalloc0: u32) -> Self {
        thresholds.validate();
        assert!(ntotal >= 1, "need at least one core");
        assert!(
            (1..=ntotal).contains(&nalloc0),
            "nalloc0 must be in 1..=ntotal"
        );
        let mut net = PrtNet::new();
        let checks = net.add_place("Checks");
        let idle = net.add_place("Idle");
        let stable = net.add_place("Stable");
        let overload = net.add_place("Overload");
        let provision = net.add_place("Provision");

        let u_arc = |p| InArc { place: p, var: "u" };
        let n_arc = |p| InArc {
            place: p,
            var: "nalloc",
        };
        let out_u = |p| OutArc {
            place: p,
            expr: Expr::Var("u"),
        };
        let out_n = |p, d: i64| OutArc {
            place: p,
            expr: if d == 0 {
                Expr::Var("nalloc")
            } else {
                Expr::var_plus("nalloc", d)
            },
        };

        // t0: Checks --(u <= thmin)--> Idle
        net.add_transition(Transition {
            name: "t0".into(),
            guard: Pred::var_cmp("u", Cmp::Le, thresholds.thmin),
            pre: vec![u_arc(checks)],
            post: vec![out_u(idle)],
        });
        // t1: Checks --(u >= thmax)--> Overload
        net.add_transition(Transition {
            name: "t1".into(),
            guard: Pred::var_cmp("u", Cmp::Ge, thresholds.thmax),
            pre: vec![u_arc(checks)],
            post: vec![out_u(overload)],
        });
        // t2: Checks --(thmin < u < thmax)--> Stable
        net.add_transition(Transition {
            name: "t2".into(),
            guard: Pred::and(
                Pred::var_cmp("u", Cmp::Gt, thresholds.thmin),
                Pred::var_cmp("u", Cmp::Lt, thresholds.thmax),
            ),
            pre: vec![u_arc(checks)],
            post: vec![out_u(stable)],
        });
        // t3: Stable --> Checks (monitor again)
        net.add_transition(Transition {
            name: "t3".into(),
            guard: Pred::True,
            pre: vec![u_arc(stable)],
            post: vec![out_u(checks)],
        });
        // t4: Idle + Provision --(nalloc > 1)--> Checks + Provision(nalloc-1)
        net.add_transition(Transition {
            name: "t4".into(),
            guard: Pred::var_cmp("nalloc", Cmp::Gt, 1),
            pre: vec![u_arc(idle), n_arc(provision)],
            post: vec![out_u(checks), out_n(provision, -1)],
        });
        // t5: Overload + Provision --(nalloc < ntotal)--> Checks + Provision(nalloc+1)
        net.add_transition(Transition {
            name: "t5".into(),
            guard: Pred::cmp(Expr::Var("nalloc"), Cmp::Lt, Expr::Var("ntotal")),
            pre: vec![u_arc(overload), n_arc(provision)],
            post: vec![out_u(checks), out_n(provision, 1)],
        });
        // t6: Overload + Provision --(nalloc == ntotal)--> Checks + Provision(nalloc)
        net.add_transition(Transition {
            name: "t6".into(),
            guard: Pred::cmp(Expr::Var("nalloc"), Cmp::Eq, Expr::Var("ntotal")),
            pre: vec![u_arc(overload), n_arc(provision)],
            post: vec![out_u(checks), out_n(provision, 0)],
        });
        // t7: Idle + Provision --(nalloc == 1)--> Checks + Provision(nalloc)
        net.add_transition(Transition {
            name: "t7".into(),
            guard: Pred::var_cmp("nalloc", Cmp::Eq, 1),
            pre: vec![u_arc(idle), n_arc(provision)],
            post: vec![out_u(checks), out_n(provision, 0)],
        });

        let mut marking = net.empty_marking();
        marking.add(provision, nalloc0 as i64);

        ElasticNet {
            net,
            marking,
            thresholds,
            ntotal,
            checks,
            provision,
            idle,
            stable,
            overload,
        }
    }

    /// The underlying generic net (incidence export, inspection).
    pub fn net(&self) -> &PrtNet {
        &self.net
    }

    /// Current number of allocated cores (the `Provision` token).
    pub fn nalloc(&self) -> u32 {
        self.marking.tokens(self.provision)[0] as u32
    }

    /// Forces the `Provision` token (used when the actuator could not
    /// honour an action, keeping model and system consistent).
    pub fn set_nalloc(&mut self, nalloc: u32) {
        assert!((1..=self.ntotal).contains(&nalloc), "nalloc out of range");
        self.marking.set_single(self.provision, nalloc as i64);
    }

    /// Total cores of the machine.
    pub fn ntotal(&self) -> u32 {
        self.ntotal
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// One rule-condition-action step: inject the measured usage `u` into
    /// `Checks`, run the net to quiescence, and report the classified
    /// state, fired path and resulting action.
    pub fn step(&mut self, u: i64) -> StepReport {
        // Rule: the Checks place is synchronously updated with the current
        // resource usage.
        self.marking.set_single(self.checks, u);
        let base = Binding::new().with("ntotal", self.ntotal as i64);
        let before = self.nalloc();

        // Condition/action: fire until the token returns to Checks. The
        // net is 1-safe on the state places, so at most 2 firings are
        // needed for idle/overload paths and exactly 2 for stable; the
        // bound of 4 guards against inscription bugs.
        let mut fired = Vec::with_capacity(2);
        for _ in 0..4 {
            match self.net.fire_first_enabled(&mut self.marking, &base) {
                Some(f) => {
                    let state_pending = [self.idle, self.stable, self.overload]
                        .iter()
                        .any(|&p| self.marking.count(p) > 0);
                    fired.push(f.transition);
                    if !state_pending {
                        break;
                    }
                }
                None => break,
            }
        }
        debug_assert_eq!(
            self.marking.count(self.checks),
            1,
            "token must return to Checks"
        );

        let state = if u <= self.thresholds.thmin {
            StateKind::Idle
        } else if u >= self.thresholds.thmax {
            StateKind::Overload
        } else {
            StateKind::Stable
        };
        let after = self.nalloc();
        let action = match after.cmp(&before) {
            std::cmp::Ordering::Greater => AllocAction::Allocate,
            std::cmp::Ordering::Less => AllocAction::Release,
            std::cmp::Ordering::Equal => AllocAction::Hold,
        };
        let label = match fired.as_slice() {
            [a, b] => format!(
                "{}-{}-{}",
                self.net.transition_name(*a),
                state.name(),
                self.net.transition_name(*b)
            ),
            [a] => format!("{}-{}", self.net.transition_name(*a), state.name()),
            _ => state.name().to_string(),
        };
        StepReport {
            state,
            action,
            fired,
            label,
            nalloc: after,
            u,
        }
    }

    /// Structural invariant used by tests: outside of `step`, exactly one
    /// token sits in `Provision`, at most one in `Checks`, and none in the
    /// state places.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.marking.count(self.provision),
            1,
            "Provision not 1-safe"
        );
        assert!(self.marking.count(self.checks) <= 1, "Checks overfull");
        for p in [self.idle, self.stable, self.overload] {
            assert_eq!(self.marking.count(p), 0, "state place retained a token");
        }
        let n = self.nalloc();
        assert!((1..=self.ntotal).contains(&n), "nalloc out of bounds: {n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net16() -> ElasticNet {
        ElasticNet::new(Thresholds::cpu_load_default(), 16, 1)
    }

    #[test]
    fn overload_allocates_until_full() {
        let mut net = net16();
        for expected in 2..=16 {
            let r = net.step(99);
            assert_eq!(r.state, StateKind::Overload);
            assert_eq!(r.action, AllocAction::Allocate);
            assert_eq!(r.nalloc, expected);
            net.check_invariants();
        }
        // At ntotal, t6 holds.
        let r = net.step(99);
        assert_eq!(r.action, AllocAction::Hold);
        assert_eq!(r.nalloc, 16);
        assert_eq!(r.label, "t1-Overload-t6");
    }

    #[test]
    fn idle_releases_until_one() {
        let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 4);
        for expected in (1..=3).rev() {
            let r = net.step(5);
            assert_eq!(r.state, StateKind::Idle);
            assert_eq!(r.action, AllocAction::Release);
            assert_eq!(r.nalloc, expected);
            net.check_invariants();
        }
        let r = net.step(5);
        assert_eq!(r.action, AllocAction::Hold);
        assert_eq!(r.nalloc, 1);
        assert_eq!(r.label, "t0-Idle-t7");
    }

    #[test]
    fn stable_holds() {
        let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 3);
        let r = net.step(40);
        assert_eq!(r.state, StateKind::Stable);
        assert_eq!(r.action, AllocAction::Hold);
        assert_eq!(r.nalloc, 3);
        assert_eq!(r.label, "t2-Stable-t3");
        net.check_invariants();
    }

    #[test]
    fn paper_example_fig9() {
        // Fig. 9: u = 99%, nalloc = 3 of 16, thmax = 70 -> t1 then t5,
        // allocating a fourth core.
        let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 3);
        let r = net.step(99);
        assert_eq!(r.label, "t1-Overload-t5");
        assert_eq!(r.nalloc, 4);
    }

    #[test]
    fn paper_example_fig10() {
        // Fig. 10: u = 8..10%, 5 cores provisioned, thmin = 10 -> t0 then
        // t4, releasing one core.
        let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 5);
        let r = net.step(8);
        assert_eq!(r.label, "t0-Idle-t4");
        assert_eq!(r.nalloc, 4);
    }

    #[test]
    fn boundary_values_route_correctly() {
        let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 8);
        assert_eq!(net.step(10).state, StateKind::Idle); // u == thmin
        assert_eq!(net.step(70).state, StateKind::Overload); // u == thmax
        assert_eq!(net.step(11).state, StateKind::Stable);
        assert_eq!(net.step(69).state, StateKind::Stable);
    }

    #[test]
    fn ht_imc_thresholds() {
        let mut net = ElasticNet::new(Thresholds::ht_imc_default(), 16, 4);
        // Ratio 0.05 (50 per-mille) <= 0.1 -> idle -> release.
        assert_eq!(net.step(50).action, AllocAction::Release);
        // Ratio 0.5 (500 per-mille) >= 0.4 -> overload -> allocate.
        assert_eq!(net.step(500).action, AllocAction::Allocate);
    }

    #[test]
    fn set_nalloc_resyncs_model() {
        let mut net = net16();
        net.set_nalloc(7);
        assert_eq!(net.nalloc(), 7);
        let r = net.step(5);
        assert_eq!(r.nalloc, 6);
        net.check_invariants();
    }

    #[test]
    fn incidence_has_eight_transitions_five_places() {
        let net = net16();
        let m = net.net().incidence();
        assert_eq!(m.len(), 5);
        assert_eq!(m[0].len(), 8);
        let text = net.net().incidence_text();
        for name in ["Checks", "Idle", "Stable", "Overload", "Provision"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn mutually_exclusive_classification() {
        // For any u exactly one of t0/t1/t2 is enabled from Checks.
        let net = net16();
        for u in -5..=120 {
            let mut m = net.net().empty_marking();
            m.add(PlaceId(0), u); // Checks
            m.add(PlaceId(4), 3); // Provision
            let base = Binding::new().with("ntotal", 16);
            let enabled = net.net().enabled(&m, &base);
            let classifiers = enabled.iter().filter(|t| t.0 <= 2).count();
            assert_eq!(classifiers, 1, "u={u} enabled {classifiers} classifiers");
        }
    }

    #[test]
    #[should_panic(expected = "thmin")]
    fn inverted_thresholds_rejected() {
        let _ = ElasticNet::new(
            Thresholds {
                thmin: 70,
                thmax: 10,
            },
            16,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "nalloc0")]
    fn bad_initial_allocation_rejected() {
        let _ = ElasticNet::new(Thresholds::cpu_load_default(), 16, 0);
    }
}
