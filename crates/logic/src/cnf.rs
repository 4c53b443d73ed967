//! Conjunctive normal form and the Tseitin transformation.
//!
//! [`Cnf`] is the clause database consumed by `verdict-sat`. [`Tseitin`]
//! converts arbitrary [`Formula`]s, or gates over literals it already
//! defined, into equisatisfiable CNF by introducing one definition variable
//! per distinct gate, with memoization so that shared subtrees (ubiquitous
//! in transition-relation unrollings) are encoded once.

use std::fmt;
use std::rc::Rc;

use crate::formula::Formula;
use crate::idhash::IdMap;
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
/// Each gate has one constructor on already-encoded operands: [`Tseitin::and`],
/// [`Tseitin::or`], [`Tseitin::xor`] and [`Tseitin::ite`]. A constructor
/// folds constant operands, collapses duplicate ones where the gate allows,
/// and looks its operands up in a structural hash (strash) table before it
/// defines a fresh literal with full iff clauses, so equal gates over equal
/// literals share one definition. [`Tseitin::define`] walks a [`Formula`] DAG
/// onto these constructors; callers that already hold their operands'
/// literals (the unroller in `verdict-ts`) call them directly and build no
/// formula at all. The encoding is polarity-insensitive, which keeps the
/// encoder simple and is entirely adequate for the clause volumes produced
/// by BMC unrollings in this workspace.
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
    /// The strash table: gate kind and operand literal indices to the
    /// gate's literal.
    cache: IdMap<GateKey, Lit>,
    /// The per-call node memo of [`Tseitin::encode`], kept between calls
    /// only for its allocation: it is emptied before each call returns.
    seen: IdMap<usize, EncodedLit>,
    /// The operand literals of the and/or gate being defined, kept only
    /// for its allocation.
    lits: Vec<Lit>,
}

/// Strash key of a gate, built from its operands' literal indices.
/// (`Iff` reuses the `Xor` key via negation; `Not` and `Var` need no
/// definitions.)
#[derive(PartialEq, Eq, Hash)]
enum GateKey {
    /// Two distinct literals, in ascending order: the common case, kept
    /// inline so that a lookup allocates nothing.
    And2(usize, usize),
    Or2(usize, usize),
    /// Three or more distinct literals, in ascending order.
    And(Vec<usize>),
    Or(Vec<usize>),
    /// The operands in the order given: `xor(a, b)` and `xor(b, a)` are
    /// two gates.
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
            cache: IdMap::default(),
            seen: IdMap::default(),
            lits: Vec::new(),
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
    fn encode(&mut self, f: &Formula, seen: &mut IdMap<usize, EncodedLit>) -> EncodedLit {
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

    fn encode_uncached(&mut self, f: &Formula, seen: &mut IdMap<usize, EncodedLit>) -> EncodedLit {
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
                self.xor(a, b)
            }
            Formula::Iff(a, b) => {
                // a <-> b  ==  !(a xor b)
                let (a, b) = (self.encode(a, seen), self.encode(b, seen));
                self.xor(a, b).negate()
            }
            // A constant condition leaves the other branch unencoded.
            Formula::Ite(c, t, e) => match self.encode(c, seen) {
                EncodedLit::True => self.encode(t, seen),
                EncodedLit::False => self.encode(e, seen),
                c => {
                    let t = self.encode(t, seen);
                    let e = self.encode(e, seen);
                    self.ite(c, t, e)
                }
            },
        }
    }

    /// Encodes the parts of an n-ary and/or up to the first absorbing one,
    /// leaving the rest unencoded, then defines the gate.
    fn encode_nary(
        &mut self,
        parts: &Rc<Vec<Formula>>,
        is_and: bool,
        seen: &mut IdMap<usize, EncodedLit>,
    ) -> EncodedLit {
        let absorbing = EncodedLit::from(!is_and);
        let mut encoded = Vec::with_capacity(parts.len());
        for p in parts.iter() {
            let e = self.encode(p, seen);
            if e == absorbing {
                return absorbing;
            }
            encoded.push(e);
        }
        self.nary(&encoded, is_and)
    }

    /// A literal for an encoded value: a constant becomes a fresh variable
    /// fixed by a unit clause, so it can serve as an operand or assumption.
    pub fn materialize(&mut self, e: EncodedLit) -> Lit {
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

    /// The conjunction of `parts`. A `False` part makes it `False`, `True`
    /// parts are dropped, and a single remaining literal (or one literal
    /// repeated) is returned as is; otherwise the gate is defined once per
    /// distinct set of operand literals.
    pub fn and(&mut self, parts: &[EncodedLit]) -> EncodedLit {
        self.nary(parts, true)
    }

    /// The disjunction of `parts`, folded like [`Tseitin::and`].
    pub fn or(&mut self, parts: &[EncodedLit]) -> EncodedLit {
        self.nary(parts, false)
    }

    fn nary(&mut self, parts: &[EncodedLit], is_and: bool) -> EncodedLit {
        let absorbing = EncodedLit::from(!is_and);
        if parts.contains(&absorbing) {
            return absorbing;
        }
        let mut lits = std::mem::take(&mut self.lits);
        lits.clear();
        lits.extend(parts.iter().filter_map(|p| p.as_lit()));
        let result = self.nary_gate(&lits, is_and);
        self.lits = lits;
        result
    }

    /// The and/or gate over non-constant operands.
    fn nary_gate(&mut self, lits: &[Lit], is_and: bool) -> EncodedLit {
        let key = match *lits {
            [] => return EncodedLit::from(is_and),
            [l] => return EncodedLit::Lit(l),
            [a, b] => Self::pair_key(a.index(), b.index(), is_and),
            _ => {
                let mut key_ids: Vec<usize> = lits.iter().map(|l| l.index()).collect();
                key_ids.sort_unstable();
                key_ids.dedup();
                match key_ids.len() {
                    1 => None,
                    2 => Self::pair_key(key_ids[0], key_ids[1], is_and),
                    _ if is_and => Some(GateKey::And(key_ids)),
                    _ => Some(GateKey::Or(key_ids)),
                }
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
            for &l in lits {
                self.cnf.add_clause([!o, l]);
            }
            self.cnf
                .add_clause(lits.iter().map(|&l| !l).chain(std::iter::once(o)));
        } else {
            // each lit -> o;  o -> some lit
            for &l in lits {
                self.cnf.add_clause([!l, o]);
            }
            self.cnf
                .add_clause(lits.iter().copied().chain(std::iter::once(!o)));
        }
        self.cache.insert(key, o);
        EncodedLit::Lit(o)
    }

    /// The key of a two-operand and/or, or `None` if both are one literal.
    fn pair_key(a: usize, b: usize, is_and: bool) -> Option<GateKey> {
        if a == b {
            None
        } else if is_and {
            Some(GateKey::And2(a.min(b), a.max(b)))
        } else {
            Some(GateKey::Or2(a.min(b), a.max(b)))
        }
    }

    /// `a xor b`, folding a constant operand. Two literals get a gate even
    /// when equal or complementary.
    pub fn xor(&mut self, a: EncodedLit, b: EncodedLit) -> EncodedLit {
        match (a, b) {
            (EncodedLit::False, x) | (x, EncodedLit::False) => x,
            (EncodedLit::True, x) | (x, EncodedLit::True) => x.negate(),
            (EncodedLit::Lit(a), EncodedLit::Lit(b)) => {
                let key = GateKey::Xor(a.index(), b.index());
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

    /// `if c then t else e`. A constant condition selects a branch, and two
    /// constant branches fold to a constant, `c` or `!c`. Otherwise a
    /// constant branch is [materialized](Tseitin::materialize) as a fresh
    /// unit variable before the gate is defined.
    pub fn ite(&mut self, c: EncodedLit, t: EncodedLit, e: EncodedLit) -> EncodedLit {
        let c = match c {
            EncodedLit::True => return t,
            EncodedLit::False => return e,
            EncodedLit::Lit(c) => c,
        };
        match (t, e) {
            (EncodedLit::True, EncodedLit::True) => EncodedLit::True,
            (EncodedLit::False, EncodedLit::False) => EncodedLit::False,
            (EncodedLit::True, EncodedLit::False) => EncodedLit::Lit(c),
            (EncodedLit::False, EncodedLit::True) => EncodedLit::Lit(!c),
            (t, e) => {
                let t = self.materialize(t);
                let e = self.materialize(e);
                let key = GateKey::Ite(c.index(), t.index(), e.index());
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

impl From<bool> for EncodedLit {
    fn from(b: bool) -> EncodedLit {
        if b {
            EncodedLit::True
        } else {
            EncodedLit::False
        }
    }
}

impl EncodedLit {
    /// The negation: constants swap, a literal flips its sign.
    pub fn negate(self) -> EncodedLit {
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
