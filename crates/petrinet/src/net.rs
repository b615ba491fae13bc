//! The generic Predicate/Transition net: domain `{P, T, F, R, M}`.
//!
//! - `P`, `T`: disjoint finite sets of places and transitions;
//! - `F ⊆ (P × T) ∪ (T × P)`: the flow relation, split into the `Pre`
//!   and `Post` functions (input and output arcs);
//! - `R`: the net inscription — a guard formula per transition plus arc
//!   inscriptions that bind/produce valued tokens;
//! - `M`: the marking — a multiset of integer-valued tokens per place.
//!
//! Firing follows the PrT semantics of the paper's §III: a transition is
//! enabled when every input place holds a token and the guard holds under
//! the binding formed by its input-arc variables; firing consumes the
//! input tokens and produces output tokens from the output-arc
//! expressions. The [`PrtNet::incidence`] export renders the
//! `Aᵀ = Post − Pre` matrix of Fig. 8.

use crate::expr::{Binding, Expr, Pred};
use std::fmt;

/// Place identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PlaceId(pub usize);

/// Transition identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransitionId(pub usize);

/// An input arc `<p, t>`: consumes one token from `place` and binds its
/// value to `var`.
#[derive(Clone, Debug)]
pub struct InArc {
    /// Source place.
    pub place: PlaceId,
    /// Variable name the consumed token value is bound to.
    pub var: &'static str,
}

/// An output arc `<t, p>`: produces one token into `place` with the value
/// of `expr` under the firing binding.
#[derive(Clone, Debug)]
pub struct OutArc {
    /// Destination place.
    pub place: PlaceId,
    /// Value inscription.
    pub expr: Expr,
}

/// A transition with its guard and arcs.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Human-readable name (`t0`, `t1`, ...).
    pub name: String,
    /// Guard formula.
    pub guard: Pred,
    /// Input arcs (the `Pre` row).
    pub pre: Vec<InArc>,
    /// Output arcs (the `Post` row).
    pub post: Vec<OutArc>,
}

/// Token multiset per place.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Marking {
    tokens: Vec<Vec<i64>>,
}

impl Marking {
    /// An empty marking over `n` places.
    pub fn new(n_places: usize) -> Self {
        Marking {
            tokens: vec![Vec::new(); n_places],
        }
    }

    /// Adds a token with `value` to `place`.
    pub fn add(&mut self, place: PlaceId, value: i64) {
        self.tokens[place.0].push(value);
    }

    /// Number of tokens in a place.
    pub fn count(&self, place: PlaceId) -> usize {
        self.tokens[place.0].len()
    }

    /// The tokens of a place.
    pub fn tokens(&self, place: PlaceId) -> &[i64] {
        &self.tokens[place.0]
    }

    /// Removes and returns the first token of a place.
    pub fn take(&mut self, place: PlaceId) -> Option<i64> {
        let ts = &mut self.tokens[place.0];
        if ts.is_empty() {
            None
        } else {
            Some(ts.remove(0))
        }
    }

    /// Replaces the tokens of a place with a single `value` (the paper's
    /// "Checks is synchronously updated with the current resource usage").
    pub fn set_single(&mut self, place: PlaceId, value: i64) {
        self.tokens[place.0].clear();
        self.tokens[place.0].push(value);
    }

    /// Total number of tokens in the net.
    pub fn total(&self) -> usize {
        self.tokens.iter().map(|t| t.len()).sum()
    }
}

/// A symbolic incidence-matrix entry (the paper prints variables, not
/// numbers, in `Aᵀ`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncidenceEntry {
    /// No arc.
    Zero,
    /// Output arc producing `expr`.
    Pos(String),
    /// Input arc consuming a token bound to `var`.
    Neg(String),
    /// Both an input and output arc (self-loop); shown as `±x∓y`.
    Both(String, String),
}

impl fmt::Display for IncidenceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncidenceEntry::Zero => write!(f, "0"),
            IncidenceEntry::Pos(s) => write!(f, "+{s}"),
            IncidenceEntry::Neg(s) => write!(f, "-{s}"),
            IncidenceEntry::Both(p, n) => write!(f, "+{p}-{n}"),
        }
    }
}

/// The net structure `{P, T, F, R}` (marking held separately so a net can
/// be shared/stepped from multiple initial markings).
#[derive(Clone, Debug, Default)]
pub struct PrtNet {
    place_names: Vec<String>,
    transitions: Vec<Transition>,
}

/// Result of one firing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firing {
    /// Which transition fired.
    pub transition: TransitionId,
    /// The binding it fired under.
    pub binding: Binding,
}

impl PrtNet {
    /// An empty net.
    pub fn new() -> Self {
        PrtNet::default()
    }

    /// Adds a place, returning its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        self.place_names.push(name.into());
        PlaceId(self.place_names.len() - 1)
    }

    /// Adds a transition, returning its id. Panics if any arc references
    /// an unknown place (structural validation — `P ∩ T = ∅` holds by
    /// construction).
    pub fn add_transition(&mut self, t: Transition) -> TransitionId {
        for a in &t.pre {
            assert!(
                a.place.0 < self.place_names.len(),
                "pre-arc to unknown place"
            );
        }
        for a in &t.post {
            assert!(
                a.place.0 < self.place_names.len(),
                "post-arc to unknown place"
            );
        }
        self.transitions.push(t);
        TransitionId(self.transitions.len() - 1)
    }

    /// Number of places.
    pub fn n_places(&self) -> usize {
        self.place_names.len()
    }

    /// A transition's name.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.0].name
    }

    /// The transition definition.
    pub fn transition(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.0]
    }

    /// Creates an empty marking shaped for this net.
    pub fn empty_marking(&self) -> Marking {
        Marking::new(self.n_places())
    }

    /// Computes the binding for a transition given a marking, if every
    /// input place has a token. Ambient constants (e.g. `ntotal`) are
    /// provided through `base`.
    fn binding_for(&self, t: &Transition, marking: &Marking, base: &Binding) -> Option<Binding> {
        let mut b = *base;
        for arc in &t.pre {
            let tokens = marking.tokens(arc.place);
            let &value = tokens.first()?;
            b.bind(arc.var, value);
        }
        Some(b)
    }

    /// Whether `t` is enabled under `marking` (tokens present + guard).
    pub fn is_enabled(&self, t: TransitionId, marking: &Marking, base: &Binding) -> bool {
        let tr = &self.transitions[t.0];
        match self.binding_for(tr, marking, base) {
            Some(b) => tr.guard.eval(&b).unwrap_or(false),
            None => false,
        }
    }

    /// All enabled transitions, in id order.
    pub fn enabled(&self, marking: &Marking, base: &Binding) -> Vec<TransitionId> {
        (0..self.transitions.len())
            .map(TransitionId)
            .filter(|&t| self.is_enabled(t, marking, base))
            .collect()
    }

    /// Fires `t`, mutating `marking`. Panics if not enabled (callers check
    /// with [`PrtNet::is_enabled`] / use [`PrtNet::fire_first_enabled`]).
    pub fn fire(&self, t: TransitionId, marking: &mut Marking, base: &Binding) -> Firing {
        let tr = &self.transitions[t.0];
        let binding = self
            .binding_for(tr, marking, base)
            .expect("fire: transition not token-enabled");
        assert_eq!(
            tr.guard.eval(&binding),
            Some(true),
            "fire: guard of {} not satisfied",
            tr.name
        );
        for arc in &tr.pre {
            marking.take(arc.place).expect("token vanished");
        }
        for arc in &tr.post {
            let v = arc
                .expr
                .eval(&binding)
                .unwrap_or_else(|| panic!("unbound inscription on {}", tr.name));
            marking.add(arc.place, v);
        }
        Firing {
            transition: t,
            binding,
        }
    }

    /// Fires the lowest-id enabled transition, if any (the deterministic
    /// execution rule used by the mechanism).
    pub fn fire_first_enabled(&self, marking: &mut Marking, base: &Binding) -> Option<Firing> {
        let t = (0..self.transitions.len())
            .map(TransitionId)
            .find(|&t| self.is_enabled(t, marking, base))?;
        Some(self.fire(t, marking, base))
    }

    /// The symbolic incidence matrix `Aᵀ = Post − Pre`, rows = places,
    /// columns = transitions (Fig. 8).
    pub fn incidence(&self) -> Vec<Vec<IncidenceEntry>> {
        let mut m = vec![vec![IncidenceEntry::Zero; self.transitions.len()]; self.n_places()];
        for (ti, t) in self.transitions.iter().enumerate() {
            for arc in &t.pre {
                let cell = &mut m[arc.place.0][ti];
                *cell = match cell.clone() {
                    IncidenceEntry::Zero => IncidenceEntry::Neg(arc.var.to_string()),
                    IncidenceEntry::Pos(p) => IncidenceEntry::Both(p, arc.var.to_string()),
                    other => other,
                };
            }
            for arc in &t.post {
                let cell = &mut m[arc.place.0][ti];
                *cell = match cell.clone() {
                    IncidenceEntry::Zero => IncidenceEntry::Pos(arc.expr.to_string()),
                    IncidenceEntry::Neg(n) => IncidenceEntry::Both(arc.expr.to_string(), n),
                    other => other,
                };
            }
        }
        m
    }

    /// Renders the incidence matrix as an aligned text block.
    pub fn incidence_text(&self) -> String {
        let m = self.incidence();
        let mut out = String::new();
        out.push_str("A^T = Post - Pre\n");
        let header: Vec<String> = self.transitions.iter().map(|t| t.name.clone()).collect();
        out.push_str(&format!("{:>10}", ""));
        for h in &header {
            out.push_str(&format!("{h:>14}"));
        }
        out.push('\n');
        for (pi, row) in m.iter().enumerate() {
            out.push_str(&format!("{:>10}", self.place_names[pi]));
            for cell in row {
                out.push_str(&format!("{:>14}", cell.to_string()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Cmp;

    /// Builds the paper's *stable* sub-net (Fig. 11): Checks -t2-> Stable
    /// -t3-> Checks with guard 10 < u < 70 on t2.
    fn stable_subnet() -> (PrtNet, PlaceId, PlaceId) {
        let mut net = PrtNet::new();
        let checks = net.add_place("Checks");
        let stable = net.add_place("Stable");
        net.add_transition(Transition {
            name: "t2".into(),
            guard: Pred::and(
                Pred::var_cmp("u", Cmp::Gt, 10),
                Pred::var_cmp("u", Cmp::Lt, 70),
            ),
            pre: vec![InArc {
                place: checks,
                var: "u",
            }],
            post: vec![OutArc {
                place: stable,
                expr: Expr::Var("u"),
            }],
        });
        net.add_transition(Transition {
            name: "t3".into(),
            guard: Pred::True,
            pre: vec![InArc {
                place: stable,
                var: "u",
            }],
            post: vec![OutArc {
                place: checks,
                expr: Expr::Var("u"),
            }],
        });
        (net, checks, stable)
    }

    #[test]
    fn stable_subnet_fires_roundtrip() {
        let (net, checks, stable) = stable_subnet();
        let mut m = net.empty_marking();
        m.add(checks, 40);
        let base = Binding::new();
        let f1 = net.fire_first_enabled(&mut m, &base).expect("t2 enabled");
        assert_eq!(net.transition_name(f1.transition), "t2");
        assert_eq!(m.count(stable), 1);
        assert_eq!(m.tokens(stable), &[40]);
        assert_eq!(m.count(checks), 0);
        let f2 = net.fire_first_enabled(&mut m, &base).expect("t3 enabled");
        assert_eq!(net.transition_name(f2.transition), "t3");
        assert_eq!(m.tokens(checks), &[40]);
        assert_eq!(m.total(), 1, "token conservation in the stable loop");
    }

    #[test]
    fn guard_blocks_out_of_range_token() {
        let (net, checks, _) = stable_subnet();
        let mut m = net.empty_marking();
        m.add(checks, 99); // overload: t2 guard fails
        assert!(net.fire_first_enabled(&mut m, &Binding::new()).is_none());
        assert_eq!(m.tokens(checks), &[99]);
    }

    #[test]
    fn enabled_lists_in_order() {
        let (net, checks, _) = stable_subnet();
        let mut m = net.empty_marking();
        m.add(checks, 40);
        let e = net.enabled(&m, &Binding::new());
        assert_eq!(e, vec![TransitionId(0)]);
    }

    #[test]
    fn incidence_matches_fig11_shape() {
        let (net, _, _) = stable_subnet();
        let m = net.incidence();
        // Row Checks: -u under t2, +u under t3.
        assert_eq!(m[0][0], IncidenceEntry::Neg("u".into()));
        assert_eq!(m[0][1], IncidenceEntry::Pos("u".into()));
        // Row Stable: +u under t2, -u under t3.
        assert_eq!(m[1][0], IncidenceEntry::Pos("u".into()));
        assert_eq!(m[1][1], IncidenceEntry::Neg("u".into()));
        let text = net.incidence_text();
        assert!(text.contains("Checks"));
        assert!(text.contains("t2"));
    }

    #[test]
    fn ambient_constants_reach_guards() {
        let mut net = PrtNet::new();
        let p = net.add_place("P");
        net.add_transition(Transition {
            name: "t".into(),
            guard: Pred::cmp(Expr::Var("x"), Cmp::Lt, Expr::Var("ntotal")),
            pre: vec![InArc { place: p, var: "x" }],
            post: vec![],
        });
        let mut m = net.empty_marking();
        m.add(p, 3);
        let base = Binding::new().with("ntotal", 16);
        assert!(net.fire_first_enabled(&mut m, &base).is_some());
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn marking_set_single_replaces() {
        let (net, checks, _) = stable_subnet();
        let mut m = net.empty_marking();
        m.add(checks, 1);
        m.add(checks, 2);
        m.set_single(checks, 50);
        assert_eq!(m.tokens(checks), &[50]);
    }

    #[test]
    #[should_panic(expected = "unknown place")]
    fn arc_validation() {
        let mut net = PrtNet::new();
        net.add_transition(Transition {
            name: "bad".into(),
            guard: Pred::True,
            pre: vec![InArc {
                place: PlaceId(9),
                var: "u",
            }],
            post: vec![],
        });
    }
}
