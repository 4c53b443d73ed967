//! Transition-system declarations and constraint sections.

use std::collections::HashMap;
use std::fmt;

use crate::expr::{Expr, TypeError};
use crate::sorts::Sort;

/// A variable handle within a [`System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// How a variable evolves over time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Ordinary state: evolves per `TRANS` (unconstrained = nondeterministic).
    State,
    /// Frozen parameter: the model checker picks an initial value and it
    /// never changes — the paper's symbolic configuration parameters
    /// (e.g. `p`, `k`, `m` in case study 1).
    Frozen,
}

/// A declared variable.
#[derive(Clone, Debug)]
pub struct VarDecl {
    /// Display name (unique within the system).
    pub name: String,
    /// The variable's sort.
    pub sort: Sort,
    /// State vs frozen parameter.
    pub kind: VarKind,
}

/// A parametric transition system: the modeling object the paper's
/// workflow (Fig. 4) feeds to the symbolic model checker.
///
/// Semantics: a state is a valuation of all variables. Initial states
/// satisfy every `INIT` and `INVAR` constraint; a transition `(s, s')`
/// is allowed iff every `TRANS` constraint holds over `(s, s')`, `s'`
/// satisfies every `INVAR` constraint, and every frozen variable keeps its
/// value. Fairness constraints restrict infinite paths to those where each
/// constraint holds infinitely often (used by liveness checking).
#[derive(Clone, Debug, Default)]
pub struct System {
    name: String,
    vars: Vec<VarDecl>,
    init: Vec<Expr>,
    trans: Vec<Expr>,
    invar: Vec<Expr>,
    fairness: Vec<Expr>,
    next_memo: NextMemo,
}

/// [`Expr::mentions_next_in`] answers shared by every `INIT`, `INVAR` and
/// fairness constraint, so a DAG shared between constraints is walked once
/// per system. Its keys are addresses of nodes inside the constraints'
/// `Arc`s, which the system keeps alive.
#[derive(Default)]
struct NextMemo(HashMap<usize, bool>);

/// A clone starts empty. The memo is only a cache, and copying it would
/// add its size to every pinned copy of a system.
impl Clone for NextMemo {
    fn clone(&self) -> NextMemo {
        NextMemo::default()
    }
}

impl fmt::Debug for NextMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NextMemo({} nodes)", self.0.len())
    }
}

impl System {
    /// An empty system.
    pub fn new(name: &str) -> System {
        System {
            name: name.to_string(),
            ..System::default()
        }
    }

    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a variable.
    ///
    /// # Panics
    /// Panics if the name is already taken (models are built by code; a
    /// duplicate name is a construction bug, not user input).
    pub fn add_var(&mut self, name: &str, sort: Sort, kind: VarKind) -> VarId {
        assert!(
            self.vars.iter().all(|v| v.name != name),
            "duplicate variable name {name}"
        );
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.to_string(),
            sort,
            kind,
        });
        id
    }

    /// Convenience: a boolean state variable.
    pub fn bool_var(&mut self, name: &str) -> VarId {
        self.add_var(name, Sort::Bool, VarKind::State)
    }

    /// Convenience: a bounded-integer state variable.
    pub fn int_var(&mut self, name: &str, lo: i64, hi: i64) -> VarId {
        self.add_var(name, Sort::int(lo, hi), VarKind::State)
    }

    /// Convenience: a frozen bounded-integer parameter.
    pub fn int_param(&mut self, name: &str, lo: i64, hi: i64) -> VarId {
        self.add_var(name, Sort::int(lo, hi), VarKind::Frozen)
    }

    /// Convenience: a real-valued state variable.
    pub fn real_var(&mut self, name: &str) -> VarId {
        self.add_var(name, Sort::Real, VarKind::State)
    }

    /// Convenience: a frozen real-valued parameter.
    pub fn real_param(&mut self, name: &str) -> VarId {
        self.add_var(name, Sort::Real, VarKind::Frozen)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Iterates over variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Declaration of a variable.
    pub fn decl(&self, v: VarId) -> &VarDecl {
        &self.vars[v.index()]
    }

    /// Sort of a variable.
    pub fn sort_of(&self, v: VarId) -> &Sort {
        &self.vars[v.index()].sort
    }

    /// Name of a variable.
    pub fn name_of(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Panics with "`section` must not mention next()" if `e` does.
    fn assert_current_state(&mut self, e: &Expr, section: &str) {
        if e.mentions_next_in(&mut self.next_memo.0) {
            // `e` is dropped while unwinding and its nodes' addresses may
            // be reused: forget every answer rather than just its own.
            self.next_memo.0.clear();
            panic!("{section} must not mention next()");
        }
    }

    /// Adds an `INIT` constraint (over current-state variables only).
    pub fn add_init(&mut self, e: Expr) {
        self.assert_current_state(&e, "INIT");
        self.init.push(e);
    }

    /// Adds a `TRANS` constraint (over current and next state).
    pub fn add_trans(&mut self, e: Expr) {
        self.trans.push(e);
    }

    /// Adds an `INVAR` constraint (holds in every reachable state).
    pub fn add_invar(&mut self, e: Expr) {
        self.assert_current_state(&e, "INVAR");
        self.invar.push(e);
    }

    /// Adds a fairness (justice) constraint: infinite paths must satisfy it
    /// infinitely often.
    pub fn add_fairness(&mut self, e: Expr) {
        self.assert_current_state(&e, "fairness");
        self.fairness.push(e);
    }

    /// The `INIT` constraints.
    pub fn init(&self) -> &[Expr] {
        &self.init
    }

    /// The `TRANS` constraints.
    pub fn trans(&self) -> &[Expr] {
        &self.trans
    }

    /// The `INVAR` constraints.
    pub fn invar(&self) -> &[Expr] {
        &self.invar
    }

    /// The fairness constraints.
    pub fn fairness(&self) -> &[Expr] {
        &self.fairness
    }

    /// True iff any variable has sort `Real` (such systems need the SMT
    /// engines; finite engines reject them).
    pub fn has_real_vars(&self) -> bool {
        self.vars.iter().any(|v| v.sort == Sort::Real)
    }

    /// Frozen (parameter) variables.
    pub fn frozen_vars(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| self.decl(*v).kind == VarKind::Frozen)
            .collect()
    }

    /// Renders an expression with variable names substituted for ids.
    pub fn pretty(&self, e: &Expr) -> String {
        fn go(sys: &System, e: &Expr, out: &mut String) {
            use std::fmt::Write as _;
            match e {
                Expr::Var(v) => out.push_str(sys.name_of(*v)),
                Expr::Next(v) => {
                    let _ = write!(out, "next({})", sys.name_of(*v));
                }
                Expr::Const(v) => {
                    let _ = write!(out, "{v}");
                }
                Expr::Not(a) => {
                    out.push('!');
                    go(sys, a, out);
                }
                Expr::Neg(a) => {
                    out.push('-');
                    go(sys, a, out);
                }
                Expr::And(xs) | Expr::Or(xs) | Expr::Add(xs) => {
                    let sep = match e {
                        Expr::And(_) => " & ",
                        Expr::Or(_) => " | ",
                        _ => " + ",
                    };
                    out.push('(');
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(sep);
                        }
                        go(sys, x, out);
                    }
                    out.push(')');
                }
                Expr::Implies(a, b)
                | Expr::Iff(a, b)
                | Expr::Eq(a, b)
                | Expr::Le(a, b)
                | Expr::Lt(a, b)
                | Expr::Sub(a, b) => {
                    let op = match e {
                        Expr::Implies(..) => " -> ",
                        Expr::Iff(..) => " <-> ",
                        Expr::Eq(..) => " = ",
                        Expr::Le(..) => " <= ",
                        Expr::Lt(..) => " < ",
                        _ => " - ",
                    };
                    out.push('(');
                    go(sys, a, out);
                    out.push_str(op);
                    go(sys, b, out);
                    out.push(')');
                }
                Expr::Ite(c, t, f) => {
                    out.push_str("(if ");
                    go(sys, c, out);
                    out.push_str(" then ");
                    go(sys, t, out);
                    out.push_str(" else ");
                    go(sys, f, out);
                    out.push(')');
                }
                Expr::MulConst(k, a) => {
                    let _ = write!(out, "({k}*");
                    go(sys, a, out);
                    out.push(')');
                }
                Expr::CountTrue(xs) => {
                    out.push_str("count(");
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        go(sys, x, out);
                    }
                    out.push(')');
                }
            }
        }
        let mut out = String::new();
        go(self, e, &mut out);
        out
    }

    /// Type-checks every constraint section; returns the first error.
    /// One memo serves every section, so a shared DAG is sorted once.
    pub fn check(&self) -> Result<(), TypeError> {
        let sections: [(&str, &[Expr]); 4] = [
            ("INIT", &self.init),
            ("TRANS", &self.trans),
            ("INVAR", &self.invar),
            ("FAIRNESS", &self.fairness),
        ];
        let mut memo = HashMap::new();
        for (section, exprs) in sections {
            for e in exprs {
                match e.sort_rec(self, &mut memo) {
                    Ok(Sort::Bool) => {}
                    Ok(s) => {
                        return Err(TypeError(format!(
                            "{section} constraint has sort {s}, expected bool: {e}"
                        )))
                    }
                    Err(TypeError(msg)) => {
                        return Err(TypeError(format!("in {section} ({e}): {msg}")))
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SYSTEM {}", self.name)?;
        for v in &self.vars {
            let kind = match v.kind {
                VarKind::State => "VAR",
                VarKind::Frozen => "FROZEN",
            };
            writeln!(f, "  {kind} {}: {}", v.name, v.sort)?;
        }
        for e in &self.init {
            writeln!(f, "  INIT {}", self.pretty(e))?;
        }
        for e in &self.invar {
            writeln!(f, "  INVAR {}", self.pretty(e))?;
        }
        for e in &self.trans {
            writeln!(f, "  TRANS {}", self.pretty(e))?;
        }
        for e in &self.fairness {
            writeln!(f, "  FAIRNESS {}", self.pretty(e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Value;

    #[test]
    fn declare_and_lookup() {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 3);
        let p = sys.int_param("p", 1, 2);
        assert_eq!(sys.num_vars(), 2);
        assert_eq!(sys.name_of(n), "n");
        assert_eq!(sys.var_by_name("p"), Some(p));
        assert_eq!(sys.var_by_name("zzz"), None);
        assert_eq!(sys.frozen_vars(), vec![p]);
        assert!(!sys.has_real_vars());
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_names_rejected() {
        let mut sys = System::new("s");
        sys.bool_var("x");
        sys.bool_var("x");
    }

    #[test]
    #[should_panic(expected = "INIT must not mention next()")]
    fn init_with_next_rejected() {
        let mut sys = System::new("s");
        let x = sys.bool_var("x");
        sys.add_init(Expr::next(x));
    }

    #[test]
    fn check_catches_sort_errors() {
        let mut sys = System::new("s");
        let n = sys.int_var("n", 0, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        assert!(sys.check().is_ok());
        sys.add_trans(Expr::next(n)); // int, not bool
        let e = sys.check().unwrap_err();
        assert!(e.0.contains("TRANS"), "{e}");
    }

    #[test]
    fn counter_semantics_via_eval() {
        // n' = n + 1 mod nothing (saturating range keeps it simple).
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::var(n).add(Expr::int(1))));
        assert!(sys.check().is_ok());
        let trans = &sys.trans()[0];
        let holds = trans.eval(&|_, next| Value::Int(if next { 2 } else { 1 }));
        assert_eq!(holds, Value::Bool(true));
        let fails = trans.eval(&|_, next| Value::Int(if next { 3 } else { 1 }));
        assert_eq!(fails, Value::Bool(false));
    }

    #[test]
    fn display_lists_sections() {
        let mut sys = System::new("demo");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x));
        sys.add_trans(Expr::next(x).iff(Expr::var(x).not()));
        sys.add_fairness(Expr::var(x));
        let shown = sys.to_string();
        assert!(shown.contains("VAR x: bool"));
        assert!(shown.contains("INIT"));
        assert!(shown.contains("TRANS"));
        assert!(shown.contains("FAIRNESS"));
    }
}
