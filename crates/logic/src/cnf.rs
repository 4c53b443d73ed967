//! Conjunctive normal form and the Tseitin transformation.
//!
//! [`Cnf`] is the clause database consumed by `verdict-sat`. [`Tseitin`]
//! converts arbitrary [`Formula`]s into equisatisfiable CNF by introducing
//! one definition variable per distinct subformula, with memoization so that
//! shared subtrees (ubiquitous in transition-relation unrollings) are encoded
//! once.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::formula::Formula;
use crate::lit::{Lit, Var};

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF instance: a number of variables and a list of clauses.
#[derive(Clone, Default)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// An empty instance with no variables and no clauses (trivially SAT).
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Moves the clauses out and keeps the variable count, so the next
    /// call returns only the clauses added since this one. Lets an encoder
    /// stream into an incremental solver without keeping a second copy.
    pub fn take_clauses(&mut self) -> Vec<Clause> {
        std::mem::take(&mut self.clauses)
    }

    /// Adds a clause. An empty clause makes the instance trivially UNSAT.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let clause: Clause = lits.into_iter().collect();
        for l in &clause {
            self.reserve_vars(l.var().0 + 1);
        }
        self.clauses.push(clause);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Evaluates the CNF under a total assignment (indexed by variable).
    ///
    /// Used by tests to cross-check solver models.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }

    /// Serializes in DIMACS `cnf` format.
    pub fn to_dimacs(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses DIMACS `cnf` format. Lines starting with `c` are comments.
    pub fn from_dimacs(text: &str) -> Result<Cnf, DimacsError> {
        let mut cnf = Cnf::new();
        let mut declared_vars = None;
        let mut current = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(DimacsError::new(lineno, "expected `p cnf`"));
                }
                let vars: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| DimacsError::new(lineno, "bad var count"))?;
                declared_vars = Some(vars);
                continue;
            }
            for tok in line.split_whitespace() {
                let d: i64 = tok
                    .parse()
                    .map_err(|_| DimacsError::new(lineno, "bad literal"))?;
                if d == 0 {
                    cnf.add_clause(current.drain(..));
                } else {
                    current.push(Lit::from_dimacs(d));
                }
            }
        }
        if !current.is_empty() {
            return Err(DimacsError::new(0, "unterminated clause"));
        }
        if let Some(v) = declared_vars {
            cnf.reserve_vars(v);
        }
        Ok(cnf)
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf {{ vars: {}, clauses: {} }}",
            self.num_vars,
            self.clauses.len()
        )
    }
}

/// Error parsing DIMACS input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimacsError {
    line: usize,
    message: &'static str,
}

impl DimacsError {
    fn new(line: usize, message: &'static str) -> DimacsError {
        DimacsError { line, message }
    }
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DIMACS parse error at line {}: {}",
            self.line + 1,
            self.message
        )
    }
}

impl std::error::Error for DimacsError {}

/// Memoizing Tseitin encoder from [`Formula`] to [`Cnf`].
///
/// Each distinct subformula (by pointer identity for shared `Rc`s plus
/// structural identity for small nodes) receives one definition literal.
/// The encoding is polarity-insensitive (full iff definitions), which keeps
/// the encoder simple and is entirely adequate for the clause volumes
/// produced by BMC unrollings in this workspace.
///
/// ```
/// use verdict_logic::{Formula, Tseitin, Var};
/// let f = Formula::var(Var(0)).xor(Formula::var(Var(1)));
/// let mut enc = Tseitin::new();
/// enc.reserve_inputs(2);
/// let root = enc.assert(&f);
/// let cnf = enc.into_cnf();
/// assert!(root.is_some());
/// assert!(cnf.clauses().len() >= 4);
/// ```
pub struct Tseitin {
    cnf: Cnf,
    cache: HashMap<FormulaKey, Lit>,
    /// The per-call node memo of [`Tseitin::encode`], kept between calls
    /// only for its allocation: it is emptied before each call returns.
    seen: HashMap<usize, EncodedLit>,
}

/// Structural key for memoization, built from already-encoded literal
/// indices so shared subtrees hash cheaply. (`Iff` reuses the `Xor` key via
/// negation; `Not` and `Var` need no definitions.)
#[derive(PartialEq, Eq, Hash)]
enum FormulaKey {
    /// Two distinct literals, in ascending order: the common case, kept
    /// inline so that a lookup allocates nothing.
    And2(usize, usize),
    Or2(usize, usize),
    /// Three or more distinct literals, in ascending order.
    And(Vec<usize>),
    Or(Vec<usize>),
    Xor(usize, usize),
    Ite(usize, usize, usize),
}

impl Default for Tseitin {
    fn default() -> Self {
        Tseitin::new()
    }
}

impl Tseitin {
    /// Fresh encoder with an empty clause database.
    pub fn new() -> Tseitin {
        Tseitin {
            cnf: Cnf::new(),
            cache: HashMap::new(),
            seen: HashMap::new(),
        }
    }

    /// Ensures input variables `0..n` exist in the output CNF so that input
    /// variable indices survive the encoding unchanged.
    pub fn reserve_inputs(&mut self, n: u32) {
        self.cnf.reserve_vars(n);
    }

    /// Access to the clause database being built (e.g. to add raw clauses).
    pub fn cnf_mut(&mut self) -> &mut Cnf {
        &mut self.cnf
    }

    /// Encodes `f` and asserts it as a unit clause. Returns the definition
    /// literal, or `None` when the formula is a constant (`True` asserts
    /// nothing, `False` adds the empty clause).
    pub fn assert(&mut self, f: &Formula) -> Option<Lit> {
        match self.encode_root(f) {
            EncodedLit::True => None,
            EncodedLit::False => {
                self.cnf.add_clause([]);
                None
            }
            EncodedLit::Lit(l) => {
                self.cnf.add_unit(l);
                Some(l)
            }
        }
    }

    /// Encodes `f` and returns a literal equivalent to it (without asserting),
    /// or a constant outcome.
    pub fn define(&mut self, f: &Formula) -> EncodedLit {
        self.encode_root(f)
    }

    /// Finishes encoding and returns the CNF.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    fn fresh(&mut self) -> Lit {
        self.cnf.fresh_var().positive()
    }

    /// Encodes `f` with an empty node memo and empties it again after.
    fn encode_root(&mut self, f: &Formula) -> EncodedLit {
        let mut seen = std::mem::take(&mut self.seen);
        let result = self.encode(f, &mut seen);
        seen.clear();
        self.seen = seen;
        result
    }

    /// Recursive encoder. `seen` memoizes by node identity *within one
    /// top-level call* (formulas are shared DAGs; without this the walk is
    /// exponential). It must not outlive the call: addresses of dropped
    /// formulas could be reused.
    fn encode(&mut self, f: &Formula, seen: &mut HashMap<usize, EncodedLit>) -> EncodedLit {
        // Leaves and negations cost less to encode again than to look up.
        match f {
            Formula::True | Formula::False | Formula::Var(_) | Formula::Not(_) => {
                return self.encode_uncached(f, seen)
            }
            _ => {}
        }
        let key = f as *const Formula as usize;
        if let Some(&hit) = seen.get(&key) {
            return hit;
        }
        let result = self.encode_uncached(f, seen);
        seen.insert(key, result);
        result
    }

    fn encode_uncached(
        &mut self,
        f: &Formula,
        seen: &mut HashMap<usize, EncodedLit>,
    ) -> EncodedLit {
        match f {
            Formula::True => EncodedLit::True,
            Formula::False => EncodedLit::False,
            Formula::Var(v) => {
                self.cnf.reserve_vars(v.0 + 1);
                EncodedLit::Lit(v.positive())
            }
            Formula::Not(inner) => self.encode(inner, seen).negate(),
            Formula::And(parts) => self.encode_nary(parts, true, seen),
            Formula::Or(parts) => self.encode_nary(parts, false, seen),
            Formula::Xor(a, b) => {
                let (a, b) = (self.encode(a, seen), self.encode(b, seen));
                match (a, b) {
                    (EncodedLit::False, x) | (x, EncodedLit::False) => x,
                    (EncodedLit::True, x) | (x, EncodedLit::True) => x.negate(),
                    (EncodedLit::Lit(a), EncodedLit::Lit(b)) => {
                        let key = FormulaKey::Xor(a.index(), b.index());
                        if let Some(&l) = self.cache.get(&key) {
                            return EncodedLit::Lit(l);
                        }
                        let o = self.fresh();
                        // o <-> a xor b
                        self.cnf.add_clause([!o, a, b]);
                        self.cnf.add_clause([!o, !a, !b]);
                        self.cnf.add_clause([o, !a, b]);
                        self.cnf.add_clause([o, a, !b]);
                        self.cache.insert(key, o);
                        EncodedLit::Lit(o)
                    }
                }
            }
            Formula::Iff(a, b) => {
                // a <-> b  ==  !(a xor b); encode operands through the
                // memo, then combine like Xor.
                let (ea, eb) = (self.encode(a, seen), self.encode(b, seen));
                let xor = match (ea, eb) {
                    (EncodedLit::False, x) | (x, EncodedLit::False) => x,
                    (EncodedLit::True, x) | (x, EncodedLit::True) => x.negate(),
                    (EncodedLit::Lit(la), EncodedLit::Lit(lb)) => {
                        let key = FormulaKey::Xor(la.index(), lb.index());
                        if let Some(&l) = self.cache.get(&key) {
                            EncodedLit::Lit(l)
                        } else {
                            let o = self.fresh();
                            self.cnf.add_clause([!o, la, lb]);
                            self.cnf.add_clause([!o, !la, !lb]);
                            self.cnf.add_clause([o, !la, lb]);
                            self.cnf.add_clause([o, la, !lb]);
                            self.cache.insert(key, o);
                            EncodedLit::Lit(o)
                        }
                    }
                };
                xor.negate()
            }
            Formula::Ite(c, t, e) => {
                let c = self.encode(c, seen);
                match c {
                    EncodedLit::True => self.encode(t, seen),
                    EncodedLit::False => self.encode(e, seen),
                    EncodedLit::Lit(c) => {
                        let t = self.encode(t, seen);
                        let e = self.encode(e, seen);
                        match (t, e) {
                            (EncodedLit::True, EncodedLit::True) => EncodedLit::True,
                            (EncodedLit::False, EncodedLit::False) => EncodedLit::False,
                            (EncodedLit::True, EncodedLit::False) => EncodedLit::Lit(c),
                            (EncodedLit::False, EncodedLit::True) => EncodedLit::Lit(!c),
                            (t, e) => {
                                let t = self.materialize(t);
                                let e = self.materialize(e);
                                let key = FormulaKey::Ite(c.index(), t.index(), e.index());
                                if let Some(&l) = self.cache.get(&key) {
                                    return EncodedLit::Lit(l);
                                }
                                let o = self.fresh();
                                // o <-> ite(c, t, e)
                                self.cnf.add_clause([!c, !t, o]);
                                self.cnf.add_clause([!c, t, !o]);
                                self.cnf.add_clause([c, !e, o]);
                                self.cnf.add_clause([c, e, !o]);
                                self.cache.insert(key, o);
                                EncodedLit::Lit(o)
                            }
                        }
                    }
                }
            }
        }
    }

    /// Turns an encoded constant into a literal via a constrained fresh var;
    /// only reachable through `Ite` arms with one constant branch.
    fn materialize(&mut self, e: EncodedLit) -> Lit {
        match e {
            EncodedLit::Lit(l) => l,
            EncodedLit::True => {
                let l = self.fresh();
                self.cnf.add_unit(l);
                l
            }
            EncodedLit::False => {
                let l = self.fresh();
                self.cnf.add_unit(!l);
                l
            }
        }
    }

    fn encode_nary(
        &mut self,
        parts: &Rc<Vec<Formula>>,
        is_and: bool,
        seen: &mut HashMap<usize, EncodedLit>,
    ) -> EncodedLit {
        let mut lits = Vec::with_capacity(parts.len());
        for p in parts.iter() {
            match (self.encode(p, seen), is_and) {
                (EncodedLit::True, true) | (EncodedLit::False, false) => {}
                (EncodedLit::False, true) => return EncodedLit::False,
                (EncodedLit::True, false) => return EncodedLit::True,
                (EncodedLit::Lit(l), _) => lits.push(l),
            }
        }
        match lits.len() {
            0 => {
                if is_and {
                    EncodedLit::True
                } else {
                    EncodedLit::False
                }
            }
            1 => EncodedLit::Lit(lits[0]),
            _ => {
                let pair = |a: usize, b: usize| {
                    if a == b {
                        None
                    } else if is_and {
                        Some(FormulaKey::And2(a.min(b), a.max(b)))
                    } else {
                        Some(FormulaKey::Or2(a.min(b), a.max(b)))
                    }
                };
                let key = if let [a, b] = lits[..] {
                    pair(a.index(), b.index())
                } else {
                    let mut key_ids: Vec<usize> = lits.iter().map(|l| l.index()).collect();
                    key_ids.sort_unstable();
                    key_ids.dedup();
                    match key_ids.len() {
                        1 => None,
                        2 => pair(key_ids[0], key_ids[1]),
                        _ if is_and => Some(FormulaKey::And(key_ids)),
                        _ => Some(FormulaKey::Or(key_ids)),
                    }
                };
                // `None`: every literal is the same one.
                let Some(key) = key else {
                    return EncodedLit::Lit(lits[0]);
                };
                if let Some(&l) = self.cache.get(&key) {
                    return EncodedLit::Lit(l);
                }
                let o = self.fresh();
                if is_and {
                    // o -> each lit;  all lits -> o
                    let mut big: Clause = lits.iter().map(|&l| !l).collect();
                    for &l in &lits {
                        self.cnf.add_clause([!o, l]);
                    }
                    big.push(o);
                    self.cnf.add_clause(big);
                } else {
                    // each lit -> o;  o -> some lit
                    let mut big: Clause = lits.clone();
                    for &l in &lits {
                        self.cnf.add_clause([!l, o]);
                    }
                    big.push(!o);
                    self.cnf.add_clause(big);
                }
                self.cache.insert(key, o);
                EncodedLit::Lit(o)
            }
        }
    }
}

/// Result of encoding a formula: a literal or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodedLit {
    /// The formula is constantly true.
    True,
    /// The formula is constantly false.
    False,
    /// The formula is equivalent to this literal under the added definitions.
    Lit(Lit),
}

impl EncodedLit {
    fn negate(self) -> EncodedLit {
        match self {
            EncodedLit::True => EncodedLit::False,
            EncodedLit::False => EncodedLit::True,
            EncodedLit::Lit(l) => EncodedLit::Lit(!l),
        }
    }

    /// Extracts the literal, materializing constants is the caller's job.
    pub fn as_lit(self) -> Option<Lit> {
        match self {
            EncodedLit::Lit(l) => Some(l),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Brute-force check: formula `f` (over vars 0..n) is satisfiable iff its
    /// Tseitin CNF is satisfiable, checked by enumerating all assignments of
    /// the CNF's full variable set.
    fn equisatisfiable(f: &Formula, n: u32) {
        let mut enc = Tseitin::new();
        enc.reserve_inputs(n);
        enc.assert(f);
        let cnf = enc.into_cnf();
        let cnf_vars = cnf.num_vars();
        assert!(cnf_vars <= 24, "test formula too large to brute force");
        let formula_sat = (0u32..1 << n).any(|bits| f.eval(&|v| bits >> v.0 & 1 == 1));
        let cnf_sat = (0u64..1 << cnf_vars).any(|bits| {
            let assignment: Vec<bool> = (0..cnf_vars).map(|i| bits >> i & 1 == 1).collect();
            cnf.eval(&assignment)
        });
        assert_eq!(formula_sat, cnf_sat, "formula: {f}");
    }

    /// Stronger check: for every assignment of the inputs, the formula value
    /// matches whether the CNF is satisfiable with the inputs fixed.
    fn equivalent_on_inputs(f: &Formula, n: u32) {
        let mut enc = Tseitin::new();
        enc.reserve_inputs(n);
        enc.assert(f);
        let cnf = enc.into_cnf();
        let cnf_vars = cnf.num_vars();
        let aux = cnf_vars - n;
        assert!(aux <= 16, "too many aux vars to brute force");
        for bits in 0u32..1 << n {
            let fval = f.eval(&|v| bits >> v.0 & 1 == 1);
            let sat_with_inputs = (0u64..1 << aux).any(|aux_bits| {
                let assignment: Vec<bool> = (0..cnf_vars)
                    .map(|i| {
                        if i < n {
                            bits >> i & 1 == 1
                        } else {
                            aux_bits >> (i - n) & 1 == 1
                        }
                    })
                    .collect();
                cnf.eval(&assignment)
            });
            assert_eq!(fval, sat_with_inputs, "formula {f} at inputs {bits:b}");
        }
    }

    #[test]
    fn tseitin_simple_ops() {
        equivalent_on_inputs(&v(0).and(v(1)), 2);
        equivalent_on_inputs(&v(0).or(v(1)), 2);
        equivalent_on_inputs(&v(0).xor(v(1)), 2);
        equivalent_on_inputs(&v(0).iff(v(1)), 2);
        equivalent_on_inputs(&v(0).implies(v(1)), 2);
        equivalent_on_inputs(&Formula::ite(v(0), v(1), v(2)), 3);
    }

    #[test]
    fn tseitin_nested() {
        let f = v(0).and(v(1)).or(v(2).xor(v(3)));
        equivalent_on_inputs(&f, 4);
        let g = Formula::ite(v(0).iff(v(1)), v(2).not(), v(3).and(v(0)));
        equivalent_on_inputs(&g, 4);
        let h = Formula::exactly_one(&[v(0), v(1), v(2), v(3)]);
        equivalent_on_inputs(&h, 4);
    }

    #[test]
    fn tseitin_constants() {
        equisatisfiable(&Formula::tt(), 0);
        let mut enc = Tseitin::new();
        enc.assert(&Formula::ff());
        let cnf = enc.into_cnf();
        assert!(cnf.clauses().iter().any(|c| c.is_empty()));
    }

    #[test]
    fn tseitin_contradiction_unsat() {
        equisatisfiable(&v(0).and(v(0).not()), 1);
        equivalent_on_inputs(&v(0).and(v(0).not()), 1);
    }

    #[test]
    fn tseitin_memoizes_shared_subtrees() {
        let shared = v(0).xor(v(1));
        let f = shared.clone().and(shared.clone().or(v(2)));
        let mut enc = Tseitin::new();
        enc.reserve_inputs(3);
        enc.assert(&f);
        let cnf = enc.into_cnf();
        // One xor definition (1 var), one or (1), one and (1): 3 aux vars.
        assert_eq!(cnf.num_vars(), 6, "xor must be encoded once");
    }

    #[test]
    fn dimacs_round_trip() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Var(0).positive(), Var(1).negative()]);
        cnf.add_clause([Var(2).positive()]);
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(back.num_vars(), 3);
        assert_eq!(back.clauses(), cnf.clauses());
    }

    #[test]
    fn dimacs_rejects_garbage() {
        assert!(Cnf::from_dimacs("p cnf x 1").is_err());
        assert!(Cnf::from_dimacs("1 2 3").is_err()); // unterminated
        assert!(Cnf::from_dimacs("p sat 3 1").is_err());
    }

    #[test]
    fn cnf_eval() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Var(0).positive(), Var(1).positive()]);
        cnf.add_clause([Var(0).negative()]);
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }
}
