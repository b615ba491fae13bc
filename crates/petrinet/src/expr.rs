//! Guard predicates and arc expressions — the net inscription `R` of the
//! paper's tuple `{P, T, F, R, M}`.
//!
//! `R : T → <oper, bool>(X)` associates each transition with a first-order
//! logic formula over the variables bound by its input arcs (§III-A).
//! Variables are integer-valued (the paper's `u` is a percentage; ratio
//! metrics are scaled to integers by the caller).

use std::fmt;

/// The most variables one [`Binding`] holds. The elastic net binds at
/// most three (`ntotal` plus two input-arc variables).
const MAX_BOUND_VARS: usize = 8;

/// A variable binding produced by matching input-arc inscriptions against
/// consumed tokens, plus any ambient constants (e.g. `ntotal`).
///
/// An inline, `Copy` set of at most eight `(name, value)` pairs kept
/// sorted by name, so taking a transition's binding never allocates and
/// equality does not depend on the order of binds.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Binding {
    len: usize,
    /// The first `len` pairs, sorted by name; the rest stay at their
    /// default, so the derived equality compares only bound pairs.
    vars: [(&'static str, i64); MAX_BOUND_VARS],
}

impl Binding {
    /// An empty binding.
    pub fn new() -> Self {
        Binding::default()
    }

    /// The bound `(name, value)` pairs, sorted by name.
    fn vars(&self) -> &[(&'static str, i64)] {
        &self.vars[..self.len]
    }

    /// Binds `name` to `value` (overwrites). Panics when `name` would
    /// be the binding's ninth variable.
    pub fn bind(&mut self, name: &'static str, value: i64) {
        match self.vars().binary_search_by(|&(n, _)| n.cmp(name)) {
            Ok(i) => self.vars[i].1 = value,
            Err(i) => {
                assert!(
                    self.len < MAX_BOUND_VARS,
                    "a binding holds at most {MAX_BOUND_VARS} variables (binding {name:?})"
                );
                self.vars.copy_within(i..self.len, i + 1);
                self.vars[i] = (name, value);
                self.len += 1;
            }
        }
    }

    /// Looks a variable up.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.vars()
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Builder-style bind.
    pub fn with(mut self, name: &'static str, value: i64) -> Self {
        self.bind(name, value);
        self
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.vars().iter().copied()).finish()
    }
}

/// An integer expression over bound variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A literal.
    Const(i64),
    /// A bound variable.
    Var(&'static str),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `Var(name) + k` — the common allocation increment.
    pub fn var_plus(name: &'static str, k: i64) -> Expr {
        Expr::Add(Box::new(Expr::Var(name)), Box::new(Expr::Const(k)))
    }

    /// Evaluates under a binding. Returns `None` on unbound variables
    /// (an inscription bug surfaced at validation time).
    pub fn eval(&self, b: &Binding) -> Option<i64> {
        match self {
            Expr::Const(k) => Some(*k),
            Expr::Var(v) => b.get(v),
            Expr::Add(l, r) => Some(l.eval(b)?.checked_add(r.eval(b)?)?),
            Expr::Sub(l, r) => Some(l.eval(b)?.checked_sub(r.eval(b)?)?),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(k) => write!(f, "{k}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(l, r) => write!(f, "{l}+{r}"),
            Expr::Sub(l, r) => write!(f, "{l}-{r}"),
        }
    }
}

/// Comparison operators of the guard language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl Cmp {
    fn apply(self, l: i64, r: i64) -> bool {
        match self {
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
            Cmp::Ge => l >= r,
            Cmp::Gt => l > r,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// A first-order guard formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// Always true (e.g. the paper's `t3`).
    True,
    /// Binary comparison.
    Cmp(Expr, Cmp, Expr),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `l op r` helper.
    pub fn cmp(l: Expr, op: Cmp, r: Expr) -> Pred {
        Pred::Cmp(l, op, r)
    }

    /// `var op const` helper — the common predicate shape
    /// (`u >= 70`, `nalloc < 16`, ...).
    pub fn var_cmp(name: &'static str, op: Cmp, k: i64) -> Pred {
        Pred::Cmp(Expr::Var(name), op, Expr::Const(k))
    }

    /// `a && b` helper.
    pub fn and(a: Pred, b: Pred) -> Pred {
        Pred::And(Box::new(a), Box::new(b))
    }

    /// Evaluates under a binding; `None` on unbound variables.
    pub fn eval(&self, b: &Binding) -> Option<bool> {
        match self {
            Pred::True => Some(true),
            Pred::Cmp(l, op, r) => Some(op.apply(l.eval(b)?, r.eval(b)?)),
            Pred::And(a, c) => Some(a.eval(b)? && c.eval(b)?),
            Pred::Or(a, c) => Some(a.eval(b)? || c.eval(b)?),
            Pred::Not(a) => Some(!a.eval(b)?),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Pred::And(a, b) => write!(f, "({a} && {b})"),
            Pred::Or(a, b) => write!(f, "({a} || {b})"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        let b = Binding::new().with("u", 40).with("nalloc", 3);
        assert_eq!(Expr::Const(5).eval(&b), Some(5));
        assert_eq!(Expr::Var("u").eval(&b), Some(40));
        assert_eq!(Expr::var_plus("nalloc", 1).eval(&b), Some(4));
        assert_eq!(
            Expr::Sub(Box::new(Expr::Var("nalloc")), Box::new(Expr::Const(1))).eval(&b),
            Some(2)
        );
        assert_eq!(Expr::Var("missing").eval(&b), None);
    }

    #[test]
    fn pred_eval_paper_guards() {
        // The paper's t1 guard: u >= 70.
        let t1 = Pred::var_cmp("u", Cmp::Ge, 70);
        assert_eq!(t1.eval(&Binding::new().with("u", 99)), Some(true));
        assert_eq!(t1.eval(&Binding::new().with("u", 40)), Some(false));
        // t2: 10 < u < 70.
        let t2 = Pred::and(
            Pred::var_cmp("u", Cmp::Gt, 10),
            Pred::var_cmp("u", Cmp::Lt, 70),
        );
        assert_eq!(t2.eval(&Binding::new().with("u", 40)), Some(true));
        assert_eq!(t2.eval(&Binding::new().with("u", 10)), Some(false));
        assert_eq!(t2.eval(&Binding::new().with("u", 70)), Some(false));
    }

    #[test]
    fn logical_connectives() {
        let b = Binding::new().with("x", 1);
        let p = Pred::Or(
            Box::new(Pred::var_cmp("x", Cmp::Eq, 2)),
            Box::new(Pred::Not(Box::new(Pred::var_cmp("x", Cmp::Eq, 3)))),
        );
        assert_eq!(p.eval(&b), Some(true));
        assert_eq!(Pred::True.eval(&Binding::new()), Some(true));
    }

    #[test]
    fn unbound_guard_is_none() {
        let p = Pred::var_cmp("ghost", Cmp::Eq, 1);
        assert_eq!(p.eval(&Binding::new()), None);
    }

    #[test]
    fn rebinding_overwrites() {
        let b = Binding::new().with("u", 1).with("nalloc", 2).with("u", 3);
        assert_eq!(b.get("u"), Some(3));
        assert_eq!(b.get("nalloc"), Some(2));
        assert_eq!(b, Binding::new().with("nalloc", 2).with("u", 3));
    }

    #[test]
    fn bind_order_does_not_matter() {
        let ab = Binding::new().with("a", 1).with("b", 2).with("c", 3);
        let ba = Binding::new().with("c", 3).with("b", 2).with("a", 1);
        assert_eq!(ab, ba);
        assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        assert_ne!(ab, Binding::new().with("a", 1).with("b", 2));
        assert_ne!(ab, Binding::new().with("a", 1).with("b", 2).with("c", 4));
    }

    #[test]
    fn unbound_get_is_none() {
        assert_eq!(Binding::new().get("u"), None);
        let b = Binding::new().with("nalloc", 1).with("u", 2);
        assert_eq!(b.get("ntotal"), None);
        assert_eq!(b.get(""), None);
    }

    #[test]
    fn binding_holds_max_vars() {
        const NAMES: [&str; MAX_BOUND_VARS] = ["h", "g", "f", "e", "d", "c", "b", "a"];
        let mut b = Binding::new();
        for (v, name) in NAMES.into_iter().enumerate() {
            b.bind(name, v as i64);
        }
        // Overwriting a bound name needs no room.
        b.bind("a", -1);
        assert_eq!(b.get("a"), Some(-1));
        assert_eq!(b.get("h"), Some(0));
    }

    #[test]
    #[should_panic(expected = "a binding holds at most 8 variables (binding \"z\")")]
    fn ninth_variable_panics() {
        let mut b = Binding::new();
        for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            b.bind(name, 0);
        }
        b.bind("z", 0);
    }

    #[test]
    fn display_round() {
        let p = Pred::and(
            Pred::var_cmp("u", Cmp::Ge, 70),
            Pred::var_cmp("nalloc", Cmp::Lt, 16),
        );
        assert_eq!(format!("{p}"), "(u >= 70 && nalloc < 16)");
        assert_eq!(format!("{}", Expr::var_plus("nalloc", 1)), "nalloc+1");
    }
}
