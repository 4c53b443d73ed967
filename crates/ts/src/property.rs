//! Temporal-logic property ASTs.
//!
//! The paper verifies safety and liveness properties written in LTL
//! (`G(converged → available ≥ m)`, `F G stable`) and mentions CTL support;
//! both logics are provided. Atoms are boolean [`Expr`]s over current-state
//! variables.

use std::fmt;
use std::sync::Arc;

use crate::expr::Expr;

/// A linear temporal logic formula.
#[derive(Clone, Debug, PartialEq)]
pub enum Ltl {
    /// A state predicate.
    Atom(Expr),
    /// Negation.
    Not(Arc<Ltl>),
    /// Conjunction.
    And(Arc<Ltl>, Arc<Ltl>),
    /// Disjunction.
    Or(Arc<Ltl>, Arc<Ltl>),
    /// Next.
    X(Arc<Ltl>),
    /// Eventually.
    F(Arc<Ltl>),
    /// Always.
    G(Arc<Ltl>),
    /// Until: `a U b`.
    U(Arc<Ltl>, Arc<Ltl>),
    /// Release: `a R b` (dual of until).
    R(Arc<Ltl>, Arc<Ltl>),
}

impl Ltl {
    /// A state predicate.
    pub fn atom(e: Expr) -> Ltl {
        Ltl::Atom(e)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ltl {
        match self {
            Ltl::Not(inner) => inner.as_ref().clone(),
            other => Ltl::Not(Arc::new(other)),
        }
    }

    /// Conjunction.
    pub fn and(self, rhs: Ltl) -> Ltl {
        Ltl::And(Arc::new(self), Arc::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Ltl) -> Ltl {
        Ltl::Or(Arc::new(self), Arc::new(rhs))
    }

    /// Implication (sugar).
    pub fn implies(self, rhs: Ltl) -> Ltl {
        self.not().or(rhs)
    }

    /// Next.
    pub fn next(self) -> Ltl {
        Ltl::X(Arc::new(self))
    }

    /// Eventually.
    pub fn eventually(self) -> Ltl {
        Ltl::F(Arc::new(self))
    }

    /// Always.
    pub fn always(self) -> Ltl {
        Ltl::G(Arc::new(self))
    }

    /// Until.
    pub fn until(self, rhs: Ltl) -> Ltl {
        Ltl::U(Arc::new(self), Arc::new(rhs))
    }

    /// Release.
    pub fn release(self, rhs: Ltl) -> Ltl {
        Ltl::R(Arc::new(self), Arc::new(rhs))
    }

    /// Pushes negations down to atoms (negation normal form), rewriting
    /// `¬X` to `X¬`, `¬F` to `G¬`, `¬G` to `F¬`, `¬U` to `R` and vice versa.
    /// All engines operate on NNF.
    pub fn nnf(&self) -> Ltl {
        fn pos(f: &Ltl) -> Ltl {
            match f {
                Ltl::Atom(e) => Ltl::Atom(e.clone()),
                Ltl::Not(g) => neg(g),
                Ltl::And(a, b) => pos(a).and(pos(b)),
                Ltl::Or(a, b) => pos(a).or(pos(b)),
                Ltl::X(g) => pos(g).next(),
                Ltl::F(g) => pos(g).eventually(),
                Ltl::G(g) => pos(g).always(),
                Ltl::U(a, b) => pos(a).until(pos(b)),
                Ltl::R(a, b) => pos(a).release(pos(b)),
            }
        }
        fn neg(f: &Ltl) -> Ltl {
            match f {
                Ltl::Atom(e) => Ltl::Atom(e.clone().not()),
                Ltl::Not(g) => pos(g),
                Ltl::And(a, b) => neg(a).or(neg(b)),
                Ltl::Or(a, b) => neg(a).and(neg(b)),
                Ltl::X(g) => neg(g).next(),
                Ltl::F(g) => neg(g).always(),
                Ltl::G(g) => neg(g).eventually(),
                Ltl::U(a, b) => neg(a).release(neg(b)),
                Ltl::R(a, b) => neg(a).until(neg(b)),
            }
        }
        pos(self)
    }

    /// Collects the atoms of the formula (post-NNF callers see literals).
    pub fn atoms(&self, out: &mut Vec<Expr>) {
        match self {
            Ltl::Atom(e) => out.push(e.clone()),
            Ltl::Not(a) | Ltl::X(a) | Ltl::F(a) | Ltl::G(a) => a.atoms(out),
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::U(a, b) | Ltl::R(a, b) => {
                a.atoms(out);
                b.atoms(out);
            }
        }
    }
}

impl fmt::Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::Atom(e) => write!(f, "{e}"),
            Ltl::Not(a) => write!(f, "!({a})"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::X(a) => write!(f, "X({a})"),
            Ltl::F(a) => write!(f, "F({a})"),
            Ltl::G(a) => write!(f, "G({a})"),
            Ltl::U(a, b) => write!(f, "({a} U {b})"),
            Ltl::R(a, b) => write!(f, "({a} R {b})"),
        }
    }
}

/// A computation tree logic formula.
#[derive(Clone, Debug, PartialEq)]
pub enum Ctl {
    /// A state predicate.
    Atom(Expr),
    /// Negation.
    Not(Arc<Ctl>),
    /// Conjunction.
    And(Arc<Ctl>, Arc<Ctl>),
    /// Disjunction.
    Or(Arc<Ctl>, Arc<Ctl>),
    /// Exists-next.
    EX(Arc<Ctl>),
    /// Exists-finally.
    EF(Arc<Ctl>),
    /// Exists-globally.
    EG(Arc<Ctl>),
    /// Exists-until.
    EU(Arc<Ctl>, Arc<Ctl>),
    /// All-next.
    AX(Arc<Ctl>),
    /// All-finally.
    AF(Arc<Ctl>),
    /// All-globally.
    AG(Arc<Ctl>),
    /// All-until.
    AU(Arc<Ctl>, Arc<Ctl>),
}

impl Ctl {
    /// A state predicate.
    pub fn atom(e: Expr) -> Ctl {
        Ctl::Atom(e)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ctl {
        match self {
            Ctl::Not(inner) => inner.as_ref().clone(),
            other => Ctl::Not(Arc::new(other)),
        }
    }

    /// Conjunction.
    pub fn and(self, rhs: Ctl) -> Ctl {
        Ctl::And(Arc::new(self), Arc::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Ctl) -> Ctl {
        Ctl::Or(Arc::new(self), Arc::new(rhs))
    }

    /// Implication (sugar).
    pub fn implies(self, rhs: Ctl) -> Ctl {
        self.not().or(rhs)
    }

    /// EX.
    pub fn ex(self) -> Ctl {
        Ctl::EX(Arc::new(self))
    }

    /// EF.
    pub fn ef(self) -> Ctl {
        Ctl::EF(Arc::new(self))
    }

    /// EG.
    pub fn eg(self) -> Ctl {
        Ctl::EG(Arc::new(self))
    }

    /// EU.
    pub fn eu(self, rhs: Ctl) -> Ctl {
        Ctl::EU(Arc::new(self), Arc::new(rhs))
    }

    /// AX.
    pub fn ax(self) -> Ctl {
        Ctl::AX(Arc::new(self))
    }

    /// AF.
    pub fn af(self) -> Ctl {
        Ctl::AF(Arc::new(self))
    }

    /// AG.
    pub fn ag(self) -> Ctl {
        Ctl::AG(Arc::new(self))
    }

    /// AU.
    pub fn au(self, rhs: Ctl) -> Ctl {
        Ctl::AU(Arc::new(self), Arc::new(rhs))
    }

    /// Rewrites into the `{EX, EU, EG, ¬, ∧, atoms}` adequate base used by
    /// the BDD engine:
    ///
    /// * `EF p = E[true U p]`
    /// * `AX p = ¬EX¬p`, `AG p = ¬EF¬p`, `AF p = ¬EG¬p`
    /// * `A[p U q] = ¬(E[¬q U (¬p ∧ ¬q)] ∨ EG ¬q)`
    pub fn to_base(&self) -> Ctl {
        match self {
            Ctl::Atom(e) => Ctl::Atom(e.clone()),
            Ctl::Not(a) => a.to_base().not(),
            Ctl::And(a, b) => a.to_base().and(b.to_base()),
            Ctl::Or(a, b) => a.to_base().or(b.to_base()),
            Ctl::EX(a) => a.to_base().ex(),
            Ctl::EF(a) => Ctl::atom(crate::expr::Expr::tt()).eu(a.to_base()),
            Ctl::EG(a) => a.to_base().eg(),
            Ctl::EU(a, b) => a.to_base().eu(b.to_base()),
            Ctl::AX(a) => a.to_base().not().ex().not(),
            Ctl::AF(a) => a.to_base().not().eg().not(),
            Ctl::AG(a) => {
                let ef_not = Ctl::atom(crate::expr::Expr::tt()).eu(a.to_base().not());
                ef_not.not()
            }
            Ctl::AU(a, b) => {
                let na = a.to_base().not();
                let nb = b.to_base().not();
                let eu = nb.clone().eu(na.and(nb.clone()));
                let eg = nb.eg();
                eu.or(eg).not()
            }
        }
    }
}

impl fmt::Display for Ctl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ctl::Atom(e) => write!(f, "{e}"),
            Ctl::Not(a) => write!(f, "!({a})"),
            Ctl::And(a, b) => write!(f, "({a} & {b})"),
            Ctl::Or(a, b) => write!(f, "({a} | {b})"),
            Ctl::EX(a) => write!(f, "EX({a})"),
            Ctl::EF(a) => write!(f, "EF({a})"),
            Ctl::EG(a) => write!(f, "EG({a})"),
            Ctl::EU(a, b) => write!(f, "E[{a} U {b}]"),
            Ctl::AX(a) => write!(f, "AX({a})"),
            Ctl::AF(a) => write!(f, "AF({a})"),
            Ctl::AG(a) => write!(f, "AG({a})"),
            Ctl::AU(a, b) => write!(f, "A[{a} U {b}]"),
        }
    }
}

/// A property to check: the one type the DSL compiles to, the engines
/// dispatch on, and parameter synthesis sweeps over.
#[derive(Clone, Debug, PartialEq)]
pub enum Property {
    /// `G p` for a boolean state expression `p`.
    Invariant(Expr),
    /// An LTL property.
    Ltl(Ltl),
    /// A CTL property.
    Ctl(Ctl),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn p() -> Ltl {
        Ltl::atom(Expr::tt())
    }

    #[test]
    fn nnf_pushes_negation() {
        let f = p().always().not(); // !G p  =>  F !p
        match f.nnf() {
            Ltl::F(inner) => match inner.as_ref() {
                Ltl::Atom(e) => assert_eq!(*e, Expr::ff()),
                other => panic!("expected atom, got {other}"),
            },
            other => panic!("expected F, got {other}"),
        }
        // !(a U b) => !a R !b
        let f = p().until(p()).not();
        assert!(matches!(f.nnf(), Ltl::R(_, _)));
        // Double negation cancels.
        let f = p().not().not();
        assert_eq!(f.nnf(), p());
    }

    #[test]
    fn nnf_handles_fg() {
        // The paper's liveness shape: !(F G stable) => G F !stable
        let stable = Ltl::atom(Expr::tt());
        let f = stable.eventually().always(); // nonsense order on purpose
        let g = f.not().nnf();
        // !(G F p) = F G !p
        assert!(matches!(g, Ltl::F(_)));
    }

    #[test]
    fn ctl_base_rewrites() {
        let a = Ctl::atom(Expr::tt());
        // AG p rewritten to !E[true U !p]
        let base = a.clone().ag().to_base();
        assert!(matches!(base, Ctl::Not(_)));
        // EF p rewritten to E[true U p]
        let base = a.clone().ef().to_base();
        assert!(matches!(base, Ctl::EU(_, _)));
        // AX p => !EX !p
        let base = a.ax().to_base();
        assert!(matches!(base, Ctl::Not(_)));
    }

    #[test]
    fn display_round_readable() {
        let f = p().always();
        assert_eq!(f.to_string(), "G(true)");
        let c = Ctl::atom(Expr::tt()).ef();
        assert_eq!(c.to_string(), "EF(true)");
    }
}
