//! Typed expressions over transition-system variables.
//!
//! Expressions reference current-state variables ([`Expr::var`]) and
//! next-state variables ([`Expr::next`]); `TRANS` constraints use both,
//! everything else uses only current state. Arithmetic is linear — the
//! only multiplication is by a constant — matching both what the paper's
//! models need and what the simplex backend can decide.

use std::fmt;
use std::sync::Arc;

use verdict_logic::{IdMap, Rational};

use crate::sorts::{Sort, Value};
use crate::system::{System, VarId};

/// A typed expression.
///
/// Construct through the associated builder functions, which perform light
/// constant folding; well-sortedness is established by [`Expr::sort`]
/// against a [`System`].
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// Current-state value of a variable.
    Var(VarId),
    /// Next-state value of a variable (TRANS constraints only).
    Next(VarId),
    /// Boolean negation.
    Not(Arc<Expr>),
    /// N-ary conjunction.
    And(Arc<Vec<Expr>>),
    /// N-ary disjunction.
    Or(Arc<Vec<Expr>>),
    /// Implication.
    Implies(Arc<Expr>, Arc<Expr>),
    /// Bi-implication.
    Iff(Arc<Expr>, Arc<Expr>),
    /// If-then-else (any sort, both branches alike).
    Ite(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Equality (bool, enum, int, or real operands of matching sort).
    Eq(Arc<Expr>, Arc<Expr>),
    /// Less-or-equal on int or real operands.
    Le(Arc<Expr>, Arc<Expr>),
    /// Strictly-less on int or real operands.
    Lt(Arc<Expr>, Arc<Expr>),
    /// N-ary sum (int or real, homogeneous).
    Add(Arc<Vec<Expr>>),
    /// Difference.
    Sub(Arc<Expr>, Arc<Expr>),
    /// Arithmetic negation.
    Neg(Arc<Expr>),
    /// Multiplication by a constant (keeps arithmetic linear).
    MulConst(Rational, Arc<Expr>),
    /// Number of true operands, as a bounded integer — the idiom behind
    /// quantitative guards like "available service nodes ≥ m".
    CountTrue(Arc<Vec<Expr>>),
}

/// A sort error found while checking an expression.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError(msg.into()))
}

impl Expr {
    // ---- builders ---------------------------------------------------

    /// Boolean constant.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// The constant true.
    pub fn tt() -> Expr {
        Expr::bool(true)
    }

    /// The constant false.
    pub fn ff() -> Expr {
        Expr::bool(false)
    }

    /// Integer constant.
    pub fn int(n: i64) -> Expr {
        Expr::Const(Value::Int(n))
    }

    /// Rational constant.
    pub fn real(r: Rational) -> Expr {
        Expr::Const(Value::Real(r))
    }

    /// Current-state variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Next-state variable reference.
    pub fn next(v: VarId) -> Expr {
        Expr::Next(v)
    }

    /// Negation with involution folding.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        match self {
            Expr::Const(Value::Bool(b)) => Expr::bool(!b),
            Expr::Not(e) => e.as_ref().clone(),
            other => Expr::Not(Arc::new(other)),
        }
    }

    /// Conjunction (flattens, folds constants).
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::and_all([self, rhs])
    }

    /// Disjunction (flattens, folds constants).
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::or_all([self, rhs])
    }

    /// N-ary conjunction.
    pub fn and_all<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut parts = Vec::new();
        for e in items {
            match e {
                Expr::Const(Value::Bool(true)) => {}
                Expr::Const(Value::Bool(false)) => return Expr::ff(),
                Expr::And(xs) => parts.extend(xs.iter().cloned()),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Expr::tt(),
            1 => parts.pop().expect("len checked"),
            _ => Expr::And(Arc::new(parts)),
        }
    }

    /// Raw binary conjunction without flattening. Use when building deep
    /// shared DAGs (e.g. layered reachability expansions): the flattening
    /// constructors copy child vectors, which is quadratic on such
    /// structures.
    pub fn and_pair(a: Expr, b: Expr) -> Expr {
        match (&a, &b) {
            (Expr::Const(Value::Bool(false)), _) | (_, Expr::Const(Value::Bool(false))) => {
                return Expr::ff()
            }
            (Expr::Const(Value::Bool(true)), _) => return b,
            (_, Expr::Const(Value::Bool(true))) => return a,
            _ => {}
        }
        Expr::And(Arc::new(vec![a, b]))
    }

    /// Raw binary disjunction without flattening (see [`Expr::and_pair`]).
    pub fn or_pair(a: Expr, b: Expr) -> Expr {
        match (&a, &b) {
            (Expr::Const(Value::Bool(true)), _) | (_, Expr::Const(Value::Bool(true))) => {
                return Expr::tt()
            }
            (Expr::Const(Value::Bool(false)), _) => return b,
            (_, Expr::Const(Value::Bool(false))) => return a,
            _ => {}
        }
        Expr::Or(Arc::new(vec![a, b]))
    }

    /// N-ary disjunction.
    pub fn or_all<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut parts = Vec::new();
        for e in items {
            match e {
                Expr::Const(Value::Bool(false)) => {}
                Expr::Const(Value::Bool(true)) => return Expr::tt(),
                Expr::Or(xs) => parts.extend(xs.iter().cloned()),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Expr::ff(),
            1 => parts.pop().expect("len checked"),
            _ => Expr::Or(Arc::new(parts)),
        }
    }

    /// Implication.
    pub fn implies(self, rhs: Expr) -> Expr {
        Expr::Implies(Arc::new(self), Arc::new(rhs))
    }

    /// Bi-implication.
    pub fn iff(self, rhs: Expr) -> Expr {
        Expr::Iff(Arc::new(self), Arc::new(rhs))
    }

    /// If-then-else.
    pub fn ite(cond: Expr, then: Expr, els: Expr) -> Expr {
        match cond {
            Expr::Const(Value::Bool(true)) => then,
            Expr::Const(Value::Bool(false)) => els,
            c => Expr::Ite(Arc::new(c), Arc::new(then), Arc::new(els)),
        }
    }

    /// Equality.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Eq(Arc::new(self), Arc::new(rhs))
    }

    /// Disequality.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.eq(rhs).not()
    }

    /// `self ≤ rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Le(Arc::new(self), Arc::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Lt(Arc::new(self), Arc::new(rhs))
    }

    /// `self ≥ rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        rhs.le(self)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        rhs.lt(self)
    }

    /// Sum.
    #[allow(clippy::should_implement_trait)] // builder DSL, not std::ops
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::sum([self, rhs])
    }

    /// N-ary sum.
    pub fn sum<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut parts = Vec::new();
        for e in items {
            match e {
                Expr::Add(xs) => parts.extend(xs.iter().cloned()),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Expr::int(0),
            1 => parts.pop().expect("len checked"),
            _ => Expr::Add(Arc::new(parts)),
        }
    }

    /// Difference.
    #[allow(clippy::should_implement_trait)] // builder DSL, not std::ops
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Arc::new(self), Arc::new(rhs))
    }

    /// Arithmetic negation.
    #[allow(clippy::should_implement_trait)] // builder DSL, not std::ops
    pub fn neg(self) -> Expr {
        Expr::Neg(Arc::new(self))
    }

    /// Multiplication by a rational constant.
    pub fn scale(self, k: Rational) -> Expr {
        Expr::MulConst(k, Arc::new(self))
    }

    /// Number of true expressions among `items`.
    pub fn count_true<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        Expr::CountTrue(Arc::new(items.into_iter().collect()))
    }

    // ---- analysis ---------------------------------------------------

    /// True iff the expression mentions any next-state variable.
    /// Memoized on node identity, so shared DAGs are walked once.
    pub fn mentions_next(&self) -> bool {
        self.mentions_next_in(&mut IdMap::default())
    }

    /// [`Expr::mentions_next`] against a memo that outlives the call.
    ///
    /// The memo maps the address of every non-leaf node inside `self`'s
    /// `Arc`s to its answer. `self` is never entered — its address may be
    /// a temporary. So the memo stays sound for as long as every expression
    /// it was used on, or a clone of it, is kept alive.
    pub(crate) fn mentions_next_in(&self, memo: &mut IdMap<usize, bool>) -> bool {
        fn go(e: &Expr, memo: &mut IdMap<usize, bool>) -> bool {
            if matches!(e, Expr::Const(_) | Expr::Var(_) | Expr::Next(_)) {
                return e.mentions_next_in(memo);
            }
            let key = e as *const Expr as usize;
            if let Some(&b) = memo.get(&key) {
                return b;
            }
            let b = e.mentions_next_in(memo);
            memo.insert(key, b);
            b
        }
        match self {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::Next(_) => true,
            Expr::Not(x) | Expr::Neg(x) | Expr::MulConst(_, x) => go(x, memo),
            Expr::And(xs) | Expr::Or(xs) | Expr::Add(xs) | Expr::CountTrue(xs) => {
                xs.iter().any(|x| go(x, memo))
            }
            Expr::Implies(a, b)
            | Expr::Iff(a, b)
            | Expr::Eq(a, b)
            | Expr::Le(a, b)
            | Expr::Lt(a, b)
            | Expr::Sub(a, b) => go(a, memo) || go(b, memo),
            Expr::Ite(c, t, f) => go(c, memo) || go(t, memo) || go(f, memo),
        }
    }

    /// Computes the sort of the expression under the system's declarations,
    /// checking well-sortedness along the way. Integer sorts carry the
    /// statically-derived value range.
    pub fn sort(&self, sys: &System) -> Result<Sort, TypeError> {
        self.sort_rec(sys, &mut IdMap::default())
    }

    /// Memoized recursion for [`Expr::sort`]: shared DAG nodes are sorted
    /// once (keyed by node identity). The cache must not outlive the
    /// expressions it was filled from.
    pub(crate) fn sort_rec(
        &self,
        sys: &System,
        cache: &mut IdMap<*const Expr, Sort>,
    ) -> Result<Sort, TypeError> {
        // Leaves cost less to sort again than to look up.
        let key = match self {
            Expr::Const(v) => return Ok(v.sort_of()),
            Expr::Var(v) | Expr::Next(v) => return Ok(sys.sort_of(*v).clone()),
            _ => self as *const Expr,
        };
        if let Some(s) = cache.get(&key) {
            return Ok(s.clone());
        }
        let result = match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Next(_) => unreachable!("leaves return above"),
            Expr::Not(e) => {
                expect_bool(sys, e, "not", cache)?;
                Ok(Sort::Bool)
            }
            Expr::And(xs) | Expr::Or(xs) => {
                for e in xs.iter() {
                    expect_bool(sys, e, "and/or", cache)?;
                }
                Ok(Sort::Bool)
            }
            Expr::Implies(a, b) | Expr::Iff(a, b) => {
                expect_bool(sys, a, "implies/iff", cache)?;
                expect_bool(sys, b, "implies/iff", cache)?;
                Ok(Sort::Bool)
            }
            Expr::Ite(c, t, e) => {
                expect_bool(sys, c, "ite condition", cache)?;
                let ts = t.sort_rec(sys, cache)?;
                let es = e.sort_rec(sys, cache)?;
                merge_branch_sorts(ts, es)
            }
            Expr::Eq(a, b) => {
                let sa = a.sort_rec(sys, cache)?;
                let sb = b.sort_rec(sys, cache)?;
                if compatible(&sa, &sb) {
                    Ok(Sort::Bool)
                } else {
                    err(format!("eq on incompatible sorts {sa} and {sb}"))
                }
            }
            Expr::Le(a, b) | Expr::Lt(a, b) => {
                let sa = a.sort_rec(sys, cache)?;
                let sb = b.sort_rec(sys, cache)?;
                match (&sa, &sb) {
                    (Sort::Int { .. }, Sort::Int { .. }) => Ok(Sort::Bool),
                    (Sort::Real, Sort::Real) => Ok(Sort::Bool),
                    _ => err(format!("comparison on sorts {sa} and {sb}")),
                }
            }
            Expr::Add(xs) => {
                if xs.is_empty() {
                    return Ok(Sort::int(0, 0));
                }
                let mut acc = xs[0].sort_rec(sys, cache)?;
                for e in &xs[1..] {
                    let s = e.sort_rec(sys, cache)?;
                    acc = match (acc, s) {
                        (Sort::Int { lo: a, hi: b }, Sort::Int { lo: c, hi: d }) => Sort::Int {
                            lo: a.checked_add(c).ok_or_else(range_overflow)?,
                            hi: b.checked_add(d).ok_or_else(range_overflow)?,
                        },
                        (Sort::Real, Sort::Real) => Sort::Real,
                        (a, b) => return err(format!("add on sorts {a} and {b}")),
                    };
                }
                Ok(acc)
            }
            Expr::Sub(a, b) => {
                let sa = a.sort_rec(sys, cache)?;
                let sb = b.sort_rec(sys, cache)?;
                match (sa, sb) {
                    (Sort::Int { lo: a, hi: b }, Sort::Int { lo: c, hi: d }) => Ok(Sort::Int {
                        lo: a.checked_sub(d).ok_or_else(range_overflow)?,
                        hi: b.checked_sub(c).ok_or_else(range_overflow)?,
                    }),
                    (Sort::Real, Sort::Real) => Ok(Sort::Real),
                    (a, b) => err(format!("sub on sorts {a} and {b}")),
                }
            }
            Expr::Neg(e) => match e.sort_rec(sys, cache)? {
                Sort::Int { lo, hi } => Ok(Sort::Int {
                    lo: hi.checked_neg().ok_or_else(range_overflow)?,
                    hi: lo.checked_neg().ok_or_else(range_overflow)?,
                }),
                Sort::Real => Ok(Sort::Real),
                s => err(format!("neg on sort {s}")),
            },
            Expr::MulConst(k, e) => match e.sort_rec(sys, cache)? {
                Sort::Int { lo, hi } => {
                    if !k.is_integer() {
                        return err(format!("int scaled by non-integer {k}"));
                    }
                    let k = k.numer() as i64;
                    let (a, b) = (
                        lo.checked_mul(k).ok_or_else(range_overflow)?,
                        hi.checked_mul(k).ok_or_else(range_overflow)?,
                    );
                    Ok(Sort::Int {
                        lo: a.min(b),
                        hi: a.max(b),
                    })
                }
                Sort::Real => Ok(Sort::Real),
                s => err(format!("scale on sort {s}")),
            },
            Expr::CountTrue(xs) => {
                for e in xs.iter() {
                    expect_bool(sys, e, "count_true", cache)?;
                }
                Ok(Sort::int(0, xs.len() as i64))
            }
        }?;
        cache.insert(key, result.clone());
        Ok(result)
    }

    /// Evaluates the expression. `env(v, false)` must yield the current
    /// value of `v`; `env(v, true)` the next value (only consulted for
    /// [`Expr::Next`]).
    pub fn eval(&self, env: &dyn Fn(VarId, bool) -> Value) -> Value {
        match self {
            Expr::Const(v) => v.clone(),
            Expr::Var(v) => env(*v, false),
            Expr::Next(v) => env(*v, true),
            Expr::Not(e) => Value::Bool(!e.eval(env).as_bool()),
            Expr::And(xs) => Value::Bool(xs.iter().all(|e| e.eval(env).as_bool())),
            Expr::Or(xs) => Value::Bool(xs.iter().any(|e| e.eval(env).as_bool())),
            Expr::Implies(a, b) => Value::Bool(!a.eval(env).as_bool() || b.eval(env).as_bool()),
            Expr::Iff(a, b) => Value::Bool(a.eval(env).as_bool() == b.eval(env).as_bool()),
            Expr::Ite(c, t, e) => {
                if c.eval(env).as_bool() {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
            Expr::Eq(a, b) => Value::Bool(values_equal(&a.eval(env), &b.eval(env))),
            Expr::Le(a, b) => Value::Bool(compare(&a.eval(env), &b.eval(env)) <= 0),
            Expr::Lt(a, b) => Value::Bool(compare(&a.eval(env), &b.eval(env)) < 0),
            Expr::Add(xs) => {
                let vals: Vec<Value> = xs.iter().map(|e| e.eval(env)).collect();
                if vals.iter().any(|v| matches!(v, Value::Real(_))) {
                    Value::Real(
                        vals.iter()
                            .map(Value::as_real)
                            .fold(Rational::ZERO, |a, b| a + b),
                    )
                } else {
                    Value::Int(vals.iter().map(Value::as_int).sum())
                }
            }
            Expr::Sub(a, b) => match (a.eval(env), b.eval(env)) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a - b),
                (Value::Real(a), Value::Real(b)) => Value::Real(a - b),
                (a, b) => panic!("sub on {a} and {b}"),
            },
            Expr::Neg(e) => match e.eval(env) {
                Value::Int(n) => Value::Int(-n),
                Value::Real(r) => Value::Real(-r),
                v => panic!("neg on {v}"),
            },
            Expr::MulConst(k, e) => match e.eval(env) {
                Value::Int(n) => Value::Int(n * k.numer() as i64 / k.denom() as i64),
                Value::Real(r) => Value::Real(r * *k),
                v => panic!("scale on {v}"),
            },
            Expr::CountTrue(xs) => {
                Value::Int(xs.iter().filter(|e| e.eval(env).as_bool()).count() as i64)
            }
        }
    }
}

fn range_overflow() -> TypeError {
    TypeError("integer range overflow in derived sort".to_string())
}

fn expect_bool(
    sys: &System,
    e: &Expr,
    ctx: &str,
    cache: &mut IdMap<*const Expr, Sort>,
) -> Result<(), TypeError> {
    match e.sort_rec(sys, cache)? {
        Sort::Bool => Ok(()),
        s => err(format!("{ctx} expects bool, got {s}")),
    }
}

/// Sorts compatible for equality comparison.
fn compatible(a: &Sort, b: &Sort) -> bool {
    match (a, b) {
        (Sort::Bool, Sort::Bool) => true,
        (Sort::Real, Sort::Real) => true,
        (Sort::Int { .. }, Sort::Int { .. }) => true,
        (Sort::Enum(x), Sort::Enum(y)) => x.name == y.name,
        _ => false,
    }
}

/// Merged sort of two ite branches.
fn merge_branch_sorts(a: Sort, b: Sort) -> Result<Sort, TypeError> {
    match (a, b) {
        (Sort::Int { lo: a, hi: b }, Sort::Int { lo: c, hi: d }) => Ok(Sort::Int {
            lo: a.min(c),
            hi: b.max(d),
        }),
        (a, b) if compatible(&a, &b) => Ok(a),
        (a, b) => err(format!("ite branches have sorts {a} and {b}")),
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x == y,
        (Value::Enum(_, x), Value::Enum(_, y)) => x == y,
        (a, b) => panic!("eq on {a} and {b}"),
    }
}

/// Three-way comparison of numeric values (-1, 0, 1).
fn compare(a: &Value, b: &Value) -> i32 {
    let ord = match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Real(x), Value::Real(y)) => x.cmp(y),
        (a, b) => panic!("comparison on {a} and {b}"),
    };
    ord as i32
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, xs: &[Expr], sep: &str, empty: &str) -> fmt::Result {
            if xs.is_empty() {
                return write!(f, "{empty}");
            }
            write!(f, "(")?;
            for (i, e) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, " {sep} ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")
        }
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v:?}"),
            Expr::Next(v) => write!(f, "next({v:?})"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::And(xs) => join(f, xs, "&", "true"),
            Expr::Or(xs) => join(f, xs, "|", "false"),
            Expr::Implies(a, b) => write!(f, "({a} -> {b})"),
            Expr::Iff(a, b) => write!(f, "({a} <-> {b})"),
            Expr::Ite(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Expr::Eq(a, b) => write!(f, "({a} = {b})"),
            Expr::Le(a, b) => write!(f, "({a} <= {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Add(xs) => join(f, xs, "+", "0"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::MulConst(k, e) => write!(f, "({k}*{e})"),
            Expr::CountTrue(xs) => {
                write!(f, "count(")?;
                for (i, e) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, VarKind};

    fn tiny_system() -> (System, VarId, VarId, VarId) {
        let mut sys = System::new("test");
        let b = sys.add_var("b", Sort::Bool, VarKind::State);
        let n = sys.add_var("n", Sort::int(0, 7), VarKind::State);
        let r = sys.add_var("r", Sort::Real, VarKind::State);
        (sys, b, n, r)
    }

    #[test]
    fn sorts_of_builders() {
        let (sys, b, n, r) = tiny_system();
        assert_eq!(Expr::var(b).sort(&sys).unwrap(), Sort::Bool);
        assert_eq!(Expr::var(n).sort(&sys).unwrap(), Sort::int(0, 7));
        assert_eq!(Expr::var(r).sort(&sys).unwrap(), Sort::Real);
        let sum = Expr::var(n).add(Expr::int(3));
        assert_eq!(sum.sort(&sys).unwrap(), Sort::int(3, 10));
        let diff = Expr::var(n).sub(Expr::var(n));
        assert_eq!(diff.sort(&sys).unwrap(), Sort::int(-7, 7));
        let cnt = Expr::count_true([Expr::var(b), Expr::var(b).not()]);
        assert_eq!(cnt.sort(&sys).unwrap(), Sort::int(0, 2));
    }

    #[test]
    fn type_errors_caught() {
        let (sys, b, n, r) = tiny_system();
        assert!(Expr::var(b).add(Expr::int(1)).sort(&sys).is_err());
        assert!(Expr::var(n).le(Expr::var(r)).sort(&sys).is_err());
        assert!(Expr::var(n).eq(Expr::var(b)).sort(&sys).is_err());
        assert!(Expr::var(b).not().not().sort(&sys).is_ok());
        assert!(Expr::var(r).scale(Rational::new(1, 2)).sort(&sys).is_ok());
        assert!(Expr::var(n).scale(Rational::new(1, 2)).sort(&sys).is_err());
    }

    #[test]
    fn eval_arithmetic_and_logic() {
        let (_, b, n, r) = tiny_system();
        let env = |v: VarId, _next: bool| -> Value {
            if v == b {
                Value::Bool(true)
            } else if v == n {
                Value::Int(5)
            } else if v == r {
                Value::Real(Rational::new(1, 2))
            } else {
                unreachable!()
            }
        };
        let e = Expr::var(n).add(Expr::int(2)).le(Expr::int(7));
        assert_eq!(e.eval(&env), Value::Bool(true));
        let e = Expr::var(n).gt(Expr::int(4)).and(Expr::var(b));
        assert_eq!(e.eval(&env), Value::Bool(true));
        let e = Expr::var(r).add(Expr::real(Rational::new(1, 2)));
        assert_eq!(e.eval(&env), Value::Real(Rational::ONE));
        let e = Expr::count_true([Expr::var(b), Expr::var(b).not(), Expr::var(b)]);
        assert_eq!(e.eval(&env), Value::Int(2));
        let e = Expr::ite(Expr::var(b), Expr::int(1), Expr::int(9));
        assert_eq!(e.eval(&env), Value::Int(1));
    }

    #[test]
    fn mentions_next() {
        let (_, b, n, _) = tiny_system();
        assert!(!Expr::var(b).mentions_next());
        assert!(Expr::next(b).mentions_next());
        let e = Expr::next(n).eq(Expr::var(n).add(Expr::int(1)));
        assert!(e.mentions_next());
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Expr::tt().and(Expr::ff()), Expr::ff());
        assert_eq!(Expr::tt().not(), Expr::ff());
        let (_, b, _, _) = tiny_system();
        assert_eq!(Expr::var(b).and(Expr::tt()), Expr::var(b));
        assert_eq!(Expr::var(b).or(Expr::tt()), Expr::tt());
        assert_eq!(
            Expr::ite(Expr::tt(), Expr::int(1), Expr::int(2)),
            Expr::int(1)
        );
    }

    #[test]
    fn display_readable() {
        let (_, b, n, _) = tiny_system();
        let e = Expr::var(b).implies(Expr::var(n).ge(Expr::int(2)));
        let shown = e.to_string();
        assert!(shown.contains("->"), "{shown}");
        assert!(shown.contains("<="), "{shown}");
    }
}
