//! Timed unrolling of a finite-domain [`System`] to CNF.
//!
//! The [`Unroller`] allocates a block of SAT variables per (state variable,
//! step) pair, lowers expressions at a given step through the circuits in
//! [`crate::bits`], and Tseitin-encodes everything into one growing clause
//! database. Bounded model checking, k-induction, and the finite part of
//! the parameter-synthesis loop in `verdict-mc` all drive this type.
//!
//! Encodings:
//! * `bool` variables are one bit;
//! * `enum`/bounded-`int` variables are offset-binary blocks of
//!   `⌈log₂(cardinality)⌉` bits with a domain constraint `value ≤ card-1`;
//! * `real` variables are rejected ([`Unroller::new`] fails) — real-sorted
//!   systems go through the SMT encoder in `verdict-mc` instead.
//!
//! Expressions are shared DAGs (the layered reachability expansions of the
//! fat-tree models especially), and many constraints and queries share one
//! DAG. So lowering keeps one memo for the life of the unrolling: every
//! non-leaf boolean node is lowered once per step, and meeting it again,
//! from any call or constraint, costs one lookup. Lowering a boolean DAG
//! is therefore linear in its number of distinct nodes, whatever its
//! shape. (Integer and enum terms are not memoized: each use builds its
//! bit vector again, over the memoized literals of its boolean operands.)
//! The memo holds the node's defined literal, not its formula, so no formula
//! DAG outlives the call that built it. Its keys are node addresses, which
//! is sound only while no keyed node can be freed: roots are never keyed,
//! every key is a node inside some root's `Arc`s, and the unroller keeps
//! every root it lowers alive (a clone bumps reference counts only). The
//! system's own constraints live as long as the unroller's borrow of the
//! system.

use std::collections::HashMap;

use verdict_logic::cnf::EncodedLit;
use verdict_logic::{Clause, Formula, Lit, Var};

use crate::bits::{self, FormulaAlg, Num};
use crate::expr::{Expr, TypeError};
use crate::sorts::{Sort, Value};
use crate::system::{System, VarId, VarKind};

/// Bit width for a finite sort.
fn sort_width(sort: &Sort) -> Result<usize, TypeError> {
    let card = sort
        .cardinality()
        .ok_or_else(|| TypeError("real variable in finite encoder".to_string()))?;
    Ok(64 - (card - 1).leading_zeros() as usize)
}

/// The timed SAT encoder. See the [module docs](self).
pub struct Unroller<'s> {
    sys: &'s System,
    enc: verdict_logic::Tseitin,
    widths: Vec<usize>,
    /// `steps[t][v]` = SAT bit block of variable `v` at step `t`.
    steps: Vec<Vec<Vec<Var>>>,
    use_init: bool,
    /// `(node address, step)` → what the boolean node was defined as.
    lowered: HashMap<(usize, usize), EncodedLit>,
    /// Node address → whether the node mentions `next()`.
    mentions_next: HashMap<usize, bool>,
    /// Every expression [`Unroller::lower_bool`] was given, kept alive so
    /// that no address in the memos is freed and reused.
    roots: Vec<Expr>,
}

impl<'s> Unroller<'s> {
    /// Creates an encoder for a finite-domain system. Fails if the system
    /// has real-sorted variables or does not type-check.
    pub fn new(sys: &'s System) -> Result<Unroller<'s>, TypeError> {
        Unroller::with_init(sys, true)
    }

    /// Like [`Unroller::new`] but does **not** assert `INIT` at step 0:
    /// paths may start in any state satisfying `INVAR`. This is the
    /// encoder k-induction uses for its induction step.
    pub fn new_free(sys: &'s System) -> Result<Unroller<'s>, TypeError> {
        Unroller::with_init(sys, false)
    }

    fn with_init(sys: &'s System, use_init: bool) -> Result<Unroller<'s>, TypeError> {
        sys.check()?;
        let widths = sys
            .var_ids()
            .map(|v| sort_width(sys.sort_of(v)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Unroller {
            sys,
            enc: verdict_logic::Tseitin::new(),
            widths,
            steps: Vec::new(),
            use_init,
            lowered: HashMap::new(),
            mentions_next: HashMap::new(),
            roots: Vec::new(),
        })
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        self.sys
    }

    /// Number of materialized steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total SAT variables allocated so far.
    pub fn num_sat_vars(&mut self) -> u32 {
        self.enc.cnf_mut().num_vars()
    }

    /// Extends the unrolling to include step `t`, asserting all path
    /// constraints: `INIT` at step 0, `INVAR` and domain constraints at
    /// every step, `TRANS` and frozen-variable equality between every
    /// consecutive pair.
    pub fn extend_to(&mut self, t: usize) {
        while self.steps.len() <= t {
            self.push_step();
        }
    }

    fn push_step(&mut self) {
        let t = self.steps.len();
        // Allocate bit blocks.
        let mut blocks = Vec::with_capacity(self.sys.num_vars());
        for v in self.sys.var_ids() {
            let w = self.widths[v.index()];
            let bits: Vec<Var> = (0..w).map(|_| self.enc.cnf_mut().fresh_var()).collect();
            blocks.push(bits);
        }
        self.steps.push(blocks);
        // Domain constraints.
        for v in self.sys.var_ids() {
            let card = self.sys.sort_of(v).cardinality().expect("finite");
            let w = self.widths[v.index()];
            if w > 0 && !card.is_power_of_two() {
                let bit_forms: Vec<Formula> = self.steps[t][v.index()]
                    .iter()
                    .map(|&b| Formula::var(b))
                    .collect();
                let mut alg = FormulaAlg;
                let dom = bits::unsigned_le_const(&mut alg, &bit_forms, card - 1);
                self.enc.assert(&dom);
            }
        }
        // INVAR at this step. The system's constraints outlive the
        // unroller and need no keeping alive.
        for inv in self.sys.invar() {
            let f = self.lower_root(inv, t);
            self.enc.assert(&f);
        }
        if t == 0 {
            if self.use_init {
                for init in self.sys.init() {
                    let f = self.lower_root(init, 0);
                    self.enc.assert(&f);
                }
            }
        } else {
            // TRANS between t-1 and t.
            for tr in self.sys.trans() {
                let f = self.lower_root(tr, t - 1);
                self.enc.assert(&f);
            }
            // Frozen variables keep their value.
            for v in self.sys.var_ids() {
                if self.sys.decl(v).kind == VarKind::Frozen {
                    let f = self.var_bits_equal(v, t - 1, t);
                    self.enc.assert(&f);
                }
            }
        }
    }

    fn var_bits_equal(&mut self, v: VarId, t1: usize, t2: usize) -> Formula {
        let a: Vec<Formula> = self.steps[t1][v.index()]
            .iter()
            .map(|&b| Formula::var(b))
            .collect();
        let b: Vec<Formula> = self.steps[t2][v.index()]
            .iter()
            .map(|&b| Formula::var(b))
            .collect();
        let mut alg = FormulaAlg;
        bits::bits_eq(&mut alg, &a, &b)
    }

    /// The SAT bit block of variable `v` at step `t` (allocating steps up
    /// to `t` if needed). Bit `i` is the `2^i` weight of the offset-binary
    /// encoding; `bool` variables have a single bit, width-0 (singleton)
    /// sorts an empty block.
    pub fn var_bits(&mut self, v: VarId, t: usize) -> Vec<Var> {
        self.extend_to(t);
        self.steps[t][v.index()].clone()
    }

    /// The unsigned offset encoding of `value` under `sort` — the number
    /// whose bits the variable's SAT block carries.
    fn unsigned_encoding(sort: &Sort, value: &Value) -> Result<u64, TypeError> {
        let card = sort
            .cardinality()
            .ok_or_else(|| TypeError("cannot pin a real-sorted value".to_string()))?;
        let u = match (sort, value) {
            (Sort::Bool, Value::Bool(b)) => u64::from(*b),
            (Sort::Int { lo, hi }, Value::Int(n)) if n >= lo && n <= hi => (n - lo) as u64,
            (Sort::Enum(e), Value::Enum(ve, idx)) if e == ve => u64::from(*idx),
            _ => {
                return Err(TypeError(format!(
                    "value {value} does not inhabit sort {sort:?}"
                )))
            }
        };
        debug_assert!(u < card);
        Ok(u)
    }

    /// Assumption literals pinning variable `v` to `value` at step 0 —
    /// one literal per bit of the block, positive where the encoding has a
    /// 1-bit. For frozen variables the per-step equality clauses propagate
    /// the pin to every step, so passing these to
    /// `Solver::solve_with_assumptions` is equivalent to (but reversible,
    /// unlike) asserting `INVAR v = value`.
    pub fn pin_value(&mut self, v: VarId, value: &Value) -> Result<Vec<Lit>, TypeError> {
        let u = Self::unsigned_encoding(self.sys.sort_of(v), value)?;
        Ok(self
            .var_bits(v, 0)
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.lit(u >> i & 1 == 1))
            .collect())
    }

    /// Per-parameter assumption blocks for an assignment: element `i`
    /// holds the literals pinning `params[i]` to `assignment[i]`. Keeping
    /// the blocks separate lets callers map a failed-assumption core back
    /// to the parameters it mentions (unsat-core pruning).
    pub fn assumptions_per_param(
        &mut self,
        params: &[VarId],
        assignment: &[Value],
    ) -> Result<Vec<Vec<Lit>>, TypeError> {
        if params.len() != assignment.len() {
            return Err(TypeError(format!(
                "{} parameters but {} values",
                params.len(),
                assignment.len()
            )));
        }
        params
            .iter()
            .zip(assignment)
            .map(|(&p, v)| self.pin_value(p, v))
            .collect()
    }

    /// Flattened assumption literals pinning `params` to `assignment` —
    /// the list to pass to `Solver::solve_with_assumptions` /
    /// `solve_limited` so one incremental solver can sweep many
    /// assignments over a shared unrolling.
    pub fn assumptions_for(
        &mut self,
        params: &[VarId],
        assignment: &[Value],
    ) -> Result<Vec<Lit>, TypeError> {
        Ok(self
            .assumptions_per_param(params, assignment)?
            .into_iter()
            .flatten()
            .collect())
    }

    /// Formula asserting that the *state* (non-frozen) variables at steps
    /// `i` and `j` are equal — the lasso loop-back condition.
    pub fn states_equal(&mut self, i: usize, j: usize) -> Formula {
        self.extend_to(i.max(j));
        let vars: Vec<VarId> = self
            .sys
            .var_ids()
            .filter(|v| self.sys.decl(*v).kind == VarKind::State)
            .collect();
        let parts: Vec<Formula> = vars
            .into_iter()
            .map(|v| self.var_bits_equal(v, i, j))
            .collect();
        Formula::and_all(parts)
    }

    /// Formula asserting the states at `i` and `j` differ — the simple-path
    /// strengthening used by k-induction.
    pub fn states_differ(&mut self, i: usize, j: usize) -> Formula {
        self.states_equal(i, j).not()
    }

    /// Lowers a boolean expression at step `t` (allocating step `t+1` if
    /// the expression mentions `next()`). The unroller keeps a clone of
    /// `e` for its lifetime; see the [module docs](self).
    pub fn lower_bool(&mut self, e: &Expr, t: usize) -> Formula {
        // Kept alive before any node below it enters a memo.
        self.roots.push(e.clone());
        if e.mentions_next_in(&mut self.mentions_next) {
            self.extend_to(t + 1);
        } else {
            self.extend_to(t);
        }
        self.lower_root(e, t)
    }

    /// Lowers `e`, an operand inside a lowered expression's `Arc`s, at
    /// step `t`. A non-leaf operand goes through the memo: the first time
    /// it is met at `t` its formula is defined as a literal, and every later
    /// meeting costs one lookup.
    fn lower_operand(&mut self, e: &Expr, t: usize) -> Formula {
        if matches!(e, Expr::Const(_) | Expr::Var(_) | Expr::Next(_)) {
            return self.lower_root(e, t);
        }
        let key = (e as *const Expr as usize, t);
        let lit = match self.lowered.get(&key) {
            Some(&lit) => lit,
            None => {
                let f = self.lower_root(e, t);
                let lit = self.enc.define(&f);
                self.lowered.insert(key, lit);
                lit
            }
        };
        match lit {
            EncodedLit::True => Formula::tt(),
            EncodedLit::False => Formula::ff(),
            EncodedLit::Lit(l) => Formula::lit(l.var(), l.is_positive()),
        }
    }

    /// Lowers `e` at step `t` from its operands; `e` itself never enters
    /// the memo, as its address may be a temporary. Steps `t` (and `t+1`
    /// if `e` mentions `next()`) must exist.
    fn lower_root(&mut self, e: &Expr, t: usize) -> Formula {
        match e {
            Expr::Const(Value::Bool(b)) => Formula::constant(*b),
            Expr::Var(v) => self.bool_bit(*v, t),
            Expr::Next(v) => self.bool_bit(*v, t + 1),
            Expr::Not(a) => self.lower_operand(a, t).not(),
            Expr::And(xs) => {
                let mut acc = Formula::tt();
                for x in xs.iter() {
                    let f = self.lower_operand(x, t);
                    acc = Formula::and_pair(acc, f);
                }
                acc
            }
            Expr::Or(xs) => {
                let mut acc = Formula::ff();
                for x in xs.iter() {
                    let f = self.lower_operand(x, t);
                    acc = Formula::or_pair(acc, f);
                }
                acc
            }
            Expr::Implies(a, b) => {
                let a = self.lower_operand(a, t);
                let b = self.lower_operand(b, t);
                a.implies(b)
            }
            Expr::Iff(a, b) => {
                let a = self.lower_operand(a, t);
                let b = self.lower_operand(b, t);
                a.iff(b)
            }
            Expr::Ite(c, a, b) => {
                let c = self.lower_operand(c, t);
                let a = self.lower_operand(a, t);
                let b = self.lower_operand(b, t);
                Formula::ite(c, a, b)
            }
            Expr::Eq(a, b) => {
                let sort = a.sort(self.sys).expect("type-checked system");
                match sort {
                    Sort::Bool => {
                        let a = self.lower_operand(a, t);
                        let b = self.lower_operand(b, t);
                        a.iff(b)
                    }
                    Sort::Enum(_) => {
                        let a = self.lower_enum_bits(a, t);
                        let b = self.lower_enum_bits(b, t);
                        let mut alg = FormulaAlg;
                        bits::bits_eq(&mut alg, &a, &b)
                    }
                    Sort::Int { .. } => {
                        let a = self.lower_num(a, t);
                        let b = self.lower_num(b, t);
                        let mut alg = FormulaAlg;
                        bits::eq(&mut alg, &a, &b)
                    }
                    Sort::Real => unreachable!("finite encoder"),
                }
            }
            Expr::Le(a, b) => {
                let a = self.lower_num(a, t);
                let b = self.lower_num(b, t);
                let mut alg = FormulaAlg;
                bits::le(&mut alg, &a, &b)
            }
            Expr::Lt(a, b) => {
                let a = self.lower_num(a, t);
                let b = self.lower_num(b, t);
                let mut alg = FormulaAlg;
                bits::lt(&mut alg, &a, &b)
            }
            other => panic!("boolean lowering of non-boolean expr {other}"),
        }
    }

    fn bool_bit(&self, v: VarId, t: usize) -> Formula {
        debug_assert_eq!(*self.sys.sort_of(v), Sort::Bool);
        Formula::var(self.steps[t][v.index()][0])
    }

    fn lower_num(&mut self, e: &Expr, t: usize) -> Num<Formula> {
        let mut alg = FormulaAlg;
        match e {
            Expr::Const(Value::Int(n)) => bits::num_const(&mut alg, *n),
            Expr::Var(v) | Expr::Next(v) => {
                let tt = if matches!(e, Expr::Next(_)) { t + 1 } else { t };
                let sort = self.sys.sort_of(*v).clone();
                let Sort::Int { lo, .. } = sort else {
                    panic!("numeric lowering of non-int var");
                };
                let raw: Vec<Formula> = self.steps[tt][v.index()]
                    .iter()
                    .map(|&b| Formula::var(b))
                    .collect();
                let unsigned = bits::from_unsigned(&mut alg, &raw);
                if lo == 0 {
                    unsigned
                } else {
                    let off = bits::num_const(&mut alg, lo);
                    bits::add(&mut alg, &unsigned, &off)
                }
            }
            Expr::Add(xs) => {
                let mut acc = bits::num_const(&mut alg, 0);
                for x in xs.iter() {
                    let n = self.lower_num(x, t);
                    let mut alg = FormulaAlg;
                    acc = bits::add(&mut alg, &acc, &n);
                }
                acc
            }
            Expr::Sub(a, b) => {
                let a = self.lower_num(a, t);
                let b = self.lower_num(b, t);
                let mut alg = FormulaAlg;
                bits::sub(&mut alg, &a, &b)
            }
            Expr::Neg(a) => {
                let a = self.lower_num(a, t);
                let mut alg = FormulaAlg;
                bits::neg(&mut alg, &a)
            }
            Expr::MulConst(k, a) => {
                assert!(k.is_integer(), "type-checked");
                let a = self.lower_num(a, t);
                let mut alg = FormulaAlg;
                bits::mul_const(&mut alg, &a, k.numer() as i64)
            }
            Expr::CountTrue(xs) => {
                let flags: Vec<Formula> = xs.iter().map(|x| self.lower_operand(x, t)).collect();
                let mut alg = FormulaAlg;
                bits::count_true(&mut alg, &flags)
            }
            Expr::Ite(c, a, b) => {
                let c = self.lower_operand(c, t);
                let a = self.lower_num(a, t);
                let b = self.lower_num(b, t);
                let mut alg = FormulaAlg;
                bits::mux(&mut alg, &c, &a, &b)
            }
            other => panic!("numeric lowering of non-numeric expr {other}"),
        }
    }

    fn lower_enum_bits(&mut self, e: &Expr, t: usize) -> Vec<Formula> {
        match e {
            Expr::Const(Value::Enum(sort, idx)) => {
                let w = sort_width(&Sort::Enum(sort.clone())).expect("finite");
                (0..w)
                    .map(|i| Formula::constant(idx >> i & 1 == 1))
                    .collect()
            }
            Expr::Var(v) | Expr::Next(v) => {
                let tt = if matches!(e, Expr::Next(_)) { t + 1 } else { t };
                self.steps[tt][v.index()]
                    .iter()
                    .map(|&b| Formula::var(b))
                    .collect()
            }
            Expr::Ite(c, a, b) => {
                let c = self.lower_operand(c, t);
                let a = self.lower_enum_bits(a, t);
                let b = self.lower_enum_bits(b, t);
                a.into_iter()
                    .zip(b)
                    .map(|(x, y)| Formula::ite(c.clone(), x, y))
                    .collect()
            }
            other => panic!("enum lowering of unsupported expr {other}"),
        }
    }

    /// Asserts a boolean expression at step `t`.
    pub fn assert_expr(&mut self, e: &Expr, t: usize) {
        let f = self.lower_bool(e, t);
        self.enc.assert(&f);
    }

    /// Asserts a pre-built formula (e.g. loop-back conditions).
    pub fn assert_formula(&mut self, f: &Formula) {
        self.enc.assert(f);
    }

    /// Returns a literal equivalent to the formula, materializing constants
    /// through a constrained fresh variable — suitable as an activation or
    /// assumption literal.
    pub fn literal_for(&mut self, f: &Formula) -> Lit {
        match self.enc.define(f) {
            verdict_logic::cnf::EncodedLit::Lit(l) => l,
            verdict_logic::cnf::EncodedLit::True => {
                let v = self.enc.cnf_mut().fresh_var();
                self.enc.cnf_mut().add_unit(v.positive());
                v.positive()
            }
            verdict_logic::cnf::EncodedLit::False => {
                let v = self.enc.cnf_mut().fresh_var();
                self.enc.cnf_mut().add_unit(v.negative());
                v.positive()
            }
        }
    }

    /// A fresh unconstrained literal (for activation variables).
    pub fn fresh_lit(&mut self) -> Lit {
        self.enc.cnf_mut().fresh_var().positive()
    }

    /// Clauses added since the previous drain (feed these to the solver).
    /// They are moved out, not copied: the unroller keeps no clauses it
    /// has handed over.
    pub fn drain_clauses(&mut self) -> Vec<Clause> {
        self.enc.cnf_mut().take_clauses()
    }

    /// Decodes the value of variable `v` at step `t` from a SAT model.
    pub fn decode(&self, t: usize, v: VarId, model: &dyn Fn(Var) -> bool) -> Value {
        let bits = &self.steps[t][v.index()];
        let mut u: u64 = 0;
        for (i, &b) in bits.iter().enumerate() {
            if model(b) {
                u |= 1 << i;
            }
        }
        match self.sys.sort_of(v) {
            Sort::Bool => Value::Bool(u == 1),
            Sort::Enum(e) => {
                let idx = (u as u32).min(e.variants.len() as u32 - 1);
                Value::Enum(e.clone(), idx)
            }
            Sort::Int { lo, hi } => Value::Int((*lo + u as i64).min(*hi)),
            Sort::Real => unreachable!("finite encoder"),
        }
    }

    /// Decodes the full state at step `t`.
    pub fn decode_state(&self, t: usize, model: &dyn Fn(Var) -> bool) -> Vec<Value> {
        self.sys
            .var_ids()
            .map(|v| self.decode(t, v, model))
            .collect()
    }

    /// Decodes states `0..len`.
    pub fn decode_trace(&self, len: usize, model: &dyn Fn(Var) -> bool) -> Vec<Vec<Value>> {
        (0..len).map(|t| self.decode_state(t, model)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::EnumSort;
    use crate::system::System;
    /// Solves the drained clauses with the real CDCL solver (dev-dependency).
    fn solve_cnf(num_vars: u32, clauses: &[Clause]) -> Option<Vec<bool>> {
        let mut solver = verdict_sat::Solver::new();
        solver.reserve_vars(num_vars);
        for c in clauses {
            solver.add_clause(c.iter().copied());
        }
        solver.solve().model().map(|m| m.as_slice().to_vec())
    }

    fn drain_all(u: &mut Unroller<'_>) -> (u32, Vec<Clause>) {
        let clauses = u.drain_clauses();
        (u.num_sat_vars(), clauses)
    }

    #[test]
    fn counter_reaches_three_and_not_five() {
        // n: 0..7, starts 0, increments by 1 until 7 (stays).
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 7);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(7)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));

        // Reached n == 3 at step 3?
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::var(n).eq(Expr::int(3)), 3);
        let (vars, clauses) = drain_all(&mut u);
        let model = solve_cnf(vars, &clauses).expect("n reaches 3 at step 3");
        let val = u.decode(3, n, &|v| model[v.index()]);
        assert_eq!(val, Value::Int(3));
        // And the whole trace is 0,1,2,3.
        let trace = u.decode_trace(4, &|v| model[v.index()]);
        for (t, st) in trace.iter().enumerate() {
            assert_eq!(st[0], Value::Int(t as i64));
        }

        // n == 5 at step 3 must be UNSAT.
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::var(n).eq(Expr::int(5)), 3);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none());
    }

    #[test]
    fn frozen_vars_stay_constant() {
        let mut sys = System::new("frozen");
        let p = sys.int_param("p", 0, 3);
        let x = sys.bool_var("x");
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(3);
        // p at step 0 is 2, p at step 3 must also be 2.
        u.assert_expr(&Expr::var(p).eq(Expr::int(2)), 0);
        u.assert_expr(&Expr::var(p).eq(Expr::int(1)), 3);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none(), "frozen var changed");
    }

    #[test]
    fn invar_constrains_every_step() {
        let mut sys = System::new("invar");
        let n = sys.int_var("n", 0, 7);
        sys.add_invar(Expr::var(n).le(Expr::int(5)));
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::var(n).eq(Expr::int(6)), 2);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none());
    }

    #[test]
    fn enum_transition() {
        let phase = EnumSort::new("phase", &["idle", "busy", "done"]);
        let mut sys = System::new("enum");
        let s = sys.add_var("s", Sort::Enum(phase.clone()), VarKind::State);
        let c = |i: u32| Expr::Const(Value::Enum(phase.clone(), i));
        sys.add_init(Expr::var(s).eq(c(0)));
        // idle -> busy -> done -> done
        sys.add_trans(Expr::and_all([
            Expr::var(s).eq(c(0)).implies(Expr::next(s).eq(c(1))),
            Expr::var(s).eq(c(1)).implies(Expr::next(s).eq(c(2))),
            Expr::var(s).eq(c(2)).implies(Expr::next(s).eq(c(2))),
        ]));
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::var(s).eq(c(2)), 2);
        let (vars, clauses) = drain_all(&mut u);
        let model = solve_cnf(vars, &clauses).expect("done reachable at 2");
        assert_eq!(u.decode(1, s, &|v| model[v.index()]), Value::Enum(phase, 1));
    }

    #[test]
    fn enum_domain_constraint_blocks_phantom_value() {
        // 3-variant enum in 2 bits: value 3 must be unreachable.
        let phase = EnumSort::new("phase", &["a", "b", "c"]);
        let mut sys = System::new("enum-dom");
        let s = sys.add_var("s", Sort::Enum(phase.clone()), VarKind::State);
        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(0);
        // Force both raw bits true via not-equal to each variant.
        let ne_all = Expr::and_all([
            Expr::var(s).ne(Expr::Const(Value::Enum(phase.clone(), 0))),
            Expr::var(s).ne(Expr::Const(Value::Enum(phase.clone(), 1))),
            Expr::var(s).ne(Expr::Const(Value::Enum(phase.clone(), 2))),
        ]);
        u.assert_expr(&ne_all, 0);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none());
    }

    #[test]
    fn count_true_guard() {
        // Three flags; invariant: at least 2 set. All-false initial state
        // must be unsat.
        let mut sys = System::new("count");
        let a = sys.bool_var("a");
        let b = sys.bool_var("b");
        let c = sys.bool_var("c");
        let count = Expr::count_true([Expr::var(a), Expr::var(b), Expr::var(c)]);
        sys.add_invar(count.ge(Expr::int(2)));
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::and_all([Expr::var(a).not(), Expr::var(b).not()]), 0);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none());
    }

    #[test]
    fn states_equal_and_differ() {
        let mut sys = System::new("loop");
        let x = sys.bool_var("x");
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        sys.add_init(Expr::var(x));
        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(2);
        // x flips each step: state 0 == state 2, state 0 != state 1.
        let eq02 = u.states_equal(0, 2);
        u.assert_formula(&eq02);
        let df01 = u.states_differ(0, 1);
        u.assert_formula(&df01);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_some());

        let mut u = Unroller::new(&sys).unwrap();
        let eq01 = u.states_equal(0, 1);
        u.assert_formula(&eq01);
        let (vars, clauses) = drain_all(&mut u);
        assert!(solve_cnf(vars, &clauses).is_none(), "x must flip");
    }

    #[test]
    fn real_vars_rejected() {
        let mut sys = System::new("real");
        sys.real_var("r");
        assert!(Unroller::new(&sys).is_err());
    }

    #[test]
    fn negative_ranges() {
        let mut sys = System::new("neg");
        let n = sys.int_var("n", -4, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(-4)));
        sys.add_trans(Expr::next(n).eq(Expr::var(n).add(Expr::int(1))));
        let mut u = Unroller::new(&sys).unwrap();
        u.assert_expr(&Expr::var(n).eq(Expr::int(-1)), 3);
        let (vars, clauses) = drain_all(&mut u);
        let model = solve_cnf(vars, &clauses).expect("-4 + 3 = -1");
        assert_eq!(u.decode(3, n, &|v| model[v.index()]), Value::Int(-1));
    }

    /// Loads the drained clauses into a fresh solver kept alive by the
    /// caller, for assumption-based queries against one clause set.
    fn load_solver(num_vars: u32, clauses: &[Clause]) -> verdict_sat::Solver {
        let mut solver = verdict_sat::Solver::new();
        solver.reserve_vars(num_vars);
        for c in clauses {
            solver.add_clause(c.iter().copied());
        }
        solver
    }

    #[test]
    fn assumptions_pin_parameters_without_asserting() {
        // Pin p at step 0 via assumptions only; the frozen-variable
        // step-to-step equality must propagate the pin to later steps,
        // and the SAME solver must accept a different pin afterwards
        // (nothing entered the clause database).
        let mut sys = System::new("pin");
        let p = sys.int_param("p", 0, 3);
        let x = sys.bool_var("x");
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(3);
        let pin2 = u.assumptions_for(&[p], &[Value::Int(2)]).unwrap();
        let pin0 = u.assumptions_for(&[p], &[Value::Int(0)]).unwrap();
        let (vars, clauses) = drain_all(&mut u);
        let mut solver = load_solver(vars, &clauses);
        let m = solver
            .solve_with_assumptions(&pin2)
            .model()
            .map(|m| m.as_slice().to_vec())
            .expect("p = 2 is satisfiable");
        assert_eq!(u.decode(3, p, &|v| m[v.index()]), Value::Int(2));
        let m = solver
            .solve_with_assumptions(&pin0)
            .model()
            .map(|m| m.as_slice().to_vec())
            .expect("same solver accepts a different pin");
        assert_eq!(u.decode(3, p, &|v| m[v.index()]), Value::Int(0));
    }

    #[test]
    fn conflicting_pin_unsat_but_recoverable() {
        // INIT forces p = 1: assuming p = 2 refutes, and the refutation
        // leaves the solver reusable for the consistent pin.
        let mut sys = System::new("pin-conflict");
        let p = sys.int_param("p", 0, 3);
        sys.add_init(Expr::var(p).eq(Expr::int(1)));
        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(1);
        let bad = u.assumptions_for(&[p], &[Value::Int(2)]).unwrap();
        let good = u.assumptions_for(&[p], &[Value::Int(1)]).unwrap();
        let (vars, clauses) = drain_all(&mut u);
        let mut solver = load_solver(vars, &clauses);
        assert!(solver.solve_with_assumptions(&bad).model().is_none());
        assert!(solver.solve_with_assumptions(&good).model().is_some());
    }

    #[test]
    fn pin_rejects_values_outside_the_sort() {
        let mut sys = System::new("pin-sorts");
        let p = sys.int_param("p", 1, 3);
        let b = sys.bool_var("b");
        let mut u = Unroller::new(&sys).unwrap();
        assert!(u.pin_value(p, &Value::Int(0)).is_err(), "below lo");
        assert!(u.pin_value(p, &Value::Int(4)).is_err(), "above hi");
        assert!(u.pin_value(p, &Value::Bool(true)).is_err(), "wrong sort");
        assert!(u.pin_value(b, &Value::Bool(true)).is_ok());
        let e = EnumSort::new("other", &["a", "b"]);
        assert!(u.pin_value(p, &Value::Enum(e, 0)).is_err());
        // Arity mismatch between params and values.
        assert!(u
            .assumptions_for(&[p], &[Value::Int(1), Value::Int(2)])
            .is_err());
    }

    /// Four boolean state variables and no constraints.
    fn four_bools() -> (System, Vec<VarId>) {
        let mut sys = System::new("bools");
        let xs = (0..4).map(|i| sys.bool_var(&format!("x{i}"))).collect();
        (sys, xs)
    }

    #[test]
    fn lowering_twice_at_one_step_adds_no_clauses() {
        let (sys, xs) = four_bools();
        let x = |i: usize| Expr::var(xs[i]);
        let shared = Expr::or_pair(x(0), Expr::and_pair(x(1), x(2).not()));
        let e = Expr::and_pair(shared.clone(), Expr::or_pair(shared, x(3)).iff(x(0)));
        let mut u = Unroller::new(&sys).unwrap();
        let f = u.lower_bool(&e, 1);
        let first = u.literal_for(&f);
        let (vars, clauses) = drain_all(&mut u);
        assert!(!clauses.is_empty());
        let f = u.lower_bool(&e, 1);
        assert_eq!(u.literal_for(&f), first);
        assert!(
            u.drain_clauses().is_empty(),
            "the second lowering added clauses"
        );
        assert_eq!(u.num_sat_vars(), vars);
    }

    #[test]
    fn nested_copies_of_a_shared_node_lower_in_linear_time() {
        // Each level holds two copies of the level below, as a DSL
        // `define` used twice does: the copies are distinct nodes sharing
        // one `Arc`. Lowering every copy afresh would take 2^40 walks.
        const DEPTH: usize = 40;
        let (sys, xs) = four_bools();
        let (a, b) = (Expr::var(xs[0]), Expr::var(xs[1]));
        // r_i = !(r_{i-1} & a) | !(r_{i-1} & b)
        let mut r = Expr::or_pair(a.clone(), b.clone());
        // s_i = count(s_{i-1}, a) + count(s_{i-1}, b) >= 2
        let mut s = r.clone();
        for _ in 0..DEPTH {
            r = Expr::or_pair(
                Expr::and_pair(r.clone(), a.clone()).not(),
                Expr::and_pair(r, b.clone()).not(),
            );
            s = Expr::count_true([s.clone(), a.clone()])
                .add(Expr::count_true([s, b.clone()]))
                .ge(Expr::int(2));
        }
        let mut u = Unroller::new(&sys).unwrap();
        for e in [&r, &s] {
            let f = u.lower_bool(e, 0);
            u.assert_formula(&f);
        }
        assert!(
            u.lowered.len() < 10 * DEPTH,
            "{} memo entries",
            u.lowered.len()
        );
    }

    /// A deterministic generator, so the test needs no extra dependency.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n
        }
    }

    /// A random boolean DAG over `xs` in which each level's subexpression
    /// has two parents, so lowering it hits the memo.
    fn random_expr(rng: &mut Lcg, xs: &[VarId], depth: usize) -> Expr {
        let leaf = Expr::var(xs[rng.below(xs.len())]);
        if depth == 0 {
            return if rng.below(2) == 0 { leaf } else { leaf.not() };
        }
        let shared = random_expr(rng, xs, depth - 1);
        let other = random_expr(rng, xs, depth - 1);
        let mut op = |a: Expr, b: Expr| match rng.below(4) {
            0 => Expr::and_pair(a, b),
            1 => Expr::or_pair(a, b),
            2 => a.iff(b),
            _ => Expr::ite(leaf.clone(), a, b),
        };
        let a = op(shared.clone(), leaf.clone().not());
        let b = op(other, shared);
        op(a, b)
    }

    /// Whether `lit` can be true with the state at step 0 pinned to each
    /// of the 16 valuations of `xs`.
    fn truth_table(
        u: &mut Unroller<'_>,
        solver: &mut verdict_sat::Solver,
        xs: &[VarId],
        lit: Lit,
    ) -> Vec<bool> {
        solver.reserve_vars(u.num_sat_vars());
        for c in u.drain_clauses() {
            solver.add_clause(c);
        }
        (0..16u32)
            .map(|row| {
                let mut assumptions: Vec<Lit> = xs
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| u.var_bits(x, 0)[0].lit(row >> i & 1 == 1))
                    .collect();
                assumptions.push(lit);
                solver
                    .solve_with_assumptions(&assumptions)
                    .model()
                    .is_some()
            })
            .collect()
    }

    #[test]
    fn memo_stays_sound_when_lowered_expressions_are_dropped() {
        // Each expression is dropped after it is lowered. An unroller that
        // keyed its memo on node addresses without keeping the expressions
        // alive would see the next ones allocated at the freed addresses
        // and hand a new node the literal of a dead one.
        let (sys, xs) = four_bools();
        let mut long = Unroller::new(&sys).unwrap();
        let mut long_solver = verdict_sat::Solver::new();
        let mut rng = Lcg(0x5eed);
        for round in 0..100 {
            let e = random_expr(&mut rng, &xs, 3);
            let f = long.lower_bool(&e, 0);
            let lit = long.literal_for(&f);
            let got = truth_table(&mut long, &mut long_solver, &xs, lit);
            let mut fresh = Unroller::new(&sys).unwrap();
            let f = fresh.lower_bool(&e, 0);
            let lit = fresh.literal_for(&f);
            let want = truth_table(&mut fresh, &mut verdict_sat::Solver::new(), &xs, lit);
            assert_eq!(got, want, "round {round}: {e}");
        }
    }

    #[test]
    fn drain_returns_exactly_the_clauses_added_since_the_last_drain() {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 7);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::var(n).add(Expr::int(1))));
        let query = Expr::var(n).eq(Expr::int(3));

        let mut u = Unroller::new(&sys).unwrap();
        u.extend_to(1);
        let mut pieces = u.drain_clauses();
        assert!(!pieces.is_empty());
        assert!(u.drain_clauses().is_empty(), "a drain returned old clauses");
        u.assert_expr(&query, 3);
        let second = u.drain_clauses();
        assert!(!second.is_empty());
        pieces.extend(second);

        let mut whole = Unroller::new(&sys).unwrap();
        whole.extend_to(1);
        whole.assert_expr(&query, 3);
        assert_eq!(pieces, whole.drain_clauses());
    }
}
