//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! `verdict-bdd` is the symbolic-set substrate for the BDD-based model
//! checking engines in `verdict-mc`: forward reachability, CTL fixpoints
//! and fair-cycle detection all manipulate sets of states as BDDs.
//!
//! Design:
//!
//! * One [`BddManager`] owns all nodes. Nodes are hash-consed in a unique
//!   table, so structural equality is pointer (index) equality and
//!   equivalence checks are O(1).
//! * [`Bdd`] handles are plain `u32` indices (no complement edges — the
//!   classic textbook form keeps invariants simple, one of the design
//!   anti-goals borrowed from smoltcp: no cleverness that costs clarity).
//! * `ite` is the single core operator with a memo cache; and/or/xor/not
//!   are derived from it.
//! * Quantification (`exists`/`forall` over variable cubes), the fused
//!   relational product [`BddManager::and_exists`], and variable
//!   substitution via [`BddManager::rename`] support image computation
//!   for transition systems.
//! * Model counting and cube extraction support counterexample recovery.
//!
//! # Variable order and garbage collection
//!
//! The variable order is the id order, fixed for the manager's lifetime:
//! [`BddManager::new_var`] appends each new variable at the bottom, and
//! every node's variable is smaller than its children's. Callers choose
//! a good order when they allocate variables (the symbolic engine in
//! `verdict-mc` interleaves each state bit's current and next copies).
//!
//! The arena is append-only between collections. [`BddManager::gc`]
//! rebuilds it from a list of roots, dropping every unreachable node, and
//! returns the remapped roots: it invalidates *every* other outstanding
//! handle.
//!
//! # Resource ceilings
//!
//! [`BddManager::set_node_limit`] arms a hard node ceiling enforced inside
//! node construction itself (so one huge `and_exists` cannot blow past the
//! budget before a caller polls). Once the ceiling is hit the manager is
//! *poisoned*: every subsequent operation short-circuits to ⊥ and
//! [`BddManager::limit_exceeded`] reports `true`. Poisoned results are
//! garbage — callers must check `limit_exceeded()` before interpreting
//! any result computed since the limit was armed.
//!
//! [`BddManager::set_deadline`] arms a wall-clock deadline with the same
//! poisoning contract, polled every few thousand allocations inside node
//! construction ([`BddManager::deadline_exceeded`] reports expiry). This
//! is what makes a timeout mean something on models whose *encoding*
//! explodes: the grind is inside a single `and`/`and_exists` call, where
//! no outer loop ever gets a chance to poll.
//!
//! ```
//! use verdict_bdd::BddManager;
//! let mut m = BddManager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let f = m.and(x, y);
//! let g = m.not(f);
//! let h = m.or(g, f);
//! assert_eq!(h, m.constant(true));
//! assert_eq!(m.sat_count(f, 2), 1.0);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// A handle to a BDD node inside a [`BddManager`].
///
/// Handles are only meaningful with the manager that created them, and
/// only until the next [`BddManager::gc`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-false node (index 0 in every manager).
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true node (index 1 in every manager).
    pub const TRUE: Bdd = Bdd(1);

    /// True iff this handle is one of the two constants.
    pub fn is_constant(self) -> bool {
        self.0 <= 1
    }

    /// Raw index (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "⊥"),
            Bdd::TRUE => write!(f, "⊤"),
            Bdd(i) => write!(f, "bdd#{i}"),
        }
    }
}

/// A decision node: branch on `var`, `low` = var false, `high` = var true.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: Bdd,
    high: Bdd,
}

/// Memoization key for binary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct IteKey(Bdd, Bdd, Bdd);

/// Operation caches are cleared wholesale when they reach this many
/// entries: across a long synthesis sweep an unbounded memo table is a
/// slow memory leak (every distinct `(f, g, h)` triple ever seen stays
/// resident). Clearing costs a warm-up penalty on the next operation but
/// bounds residency at roughly `CACHE_CAP × entry size` (≈ 48 MB for the
/// `ite` cache). A [`BddManager::gc`] starts both caches empty, because
/// their entries may name collected nodes.
const CACHE_CAP: usize = 1 << 20;
// The cap must stay generous or long fixpoints thrash on re-derivation.
const _: () = assert!(CACHE_CAP >= 1 << 16);

/// The node store and operation caches.
///
/// All operations take `&mut self` because they may allocate nodes and
/// populate caches; the structure is single-threaded by design (the
/// model-checking engines are deterministic sequential fixpoints).
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, Bdd>,
    ite_cache: HashMap<IteKey, Bdd>,
    /// Cache for `and_exists`, keyed by (a, b, cube-id ∥ cube position).
    and_exists_cache: HashMap<(Bdd, Bdd, u64), Bdd>,
    /// Interned quantification cubes (variable lists sorted by id, which
    /// is also the order `and_exists` walks them in), so caches can key on
    /// a small id instead of a vector.
    cubes: Vec<Vec<u32>>,
    num_vars: u32,
    /// Hard ceiling on arena size (None = unlimited).
    node_limit: Option<usize>,
    /// Sticky poison flag: set when the ceiling is hit, never cleared.
    limit_hit: bool,
    /// Wall-clock deadline (None = unlimited), polled inside node
    /// construction every [`DEADLINE_POLL_INTERVAL`] allocations.
    deadline: Option<Instant>,
    /// Sticky poison flag: set when the deadline expires, never cleared.
    deadline_hit: bool,
    /// Allocations remaining until the next deadline poll.
    deadline_fuel: u32,
    stats: BddStats,
}

/// Node allocations between wall-clock polls of the armed deadline: rare
/// enough that `Instant::now` is noise, frequent enough (well under a
/// millisecond of allocation work) that a deadline overrun stays small.
const DEADLINE_POLL_INTERVAL: u32 = 4096;

/// Manager statistics, cumulative over the manager's lifetime (each
/// [`BddManager::gc`] carries them forward).
#[derive(Clone, Copy, Debug, Default)]
pub struct BddStats {
    /// Nodes allocated (excludes the two constant nodes; includes the
    /// nodes each garbage collection copies into its fresh arena).
    pub nodes_allocated: u64,
    /// `ite` cache lookups.
    pub ite_cache_lookups: u64,
    /// `ite` cache hits.
    pub ite_cache_hits: u64,
    /// Peak live node count: the high-water mark of
    /// [`BddManager::node_count`], sampled before each garbage collection
    /// shrinks the arena (so collection never lowers the reported peak).
    pub peak_live_nodes: u64,
    /// Times an operation cache was cleared for reaching `CACHE_CAP`
    /// (the fresh caches of a garbage collection are not counted here).
    pub cache_clears: u64,
}

/// A registered set of variables to quantify or rename over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarSet(u64);

impl Default for BddManager {
    fn default() -> Self {
        BddManager::new()
    }
}

impl BddManager {
    /// A manager containing only the two constant nodes.
    pub fn new() -> BddManager {
        let sentinel = Node {
            var: u32::MAX,
            low: Bdd::FALSE,
            high: Bdd::FALSE,
        };
        let sentinel_true = Node {
            var: u32::MAX,
            low: Bdd::TRUE,
            high: Bdd::TRUE,
        };
        BddManager {
            // Index 0 = false, 1 = true. The sentinel nodes carry
            // var = u32::MAX so every real variable orders before them.
            nodes: vec![sentinel, sentinel_true],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            and_exists_cache: HashMap::new(),
            cubes: Vec::new(),
            num_vars: 0,
            node_limit: None,
            limit_hit: false,
            deadline: None,
            deadline_hit: false,
            deadline_fuel: DEADLINE_POLL_INTERVAL,
            stats: BddStats::default(),
        }
    }

    /// Number of live nodes (including the two constants).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cumulative manager statistics.
    pub fn stats(&self) -> BddStats {
        let mut s = self.stats;
        s.peak_live_nodes = s.peak_live_nodes.max(self.nodes.len() as u64);
        s
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Arms a hard ceiling on arena size, enforced inside node
    /// construction. `None` disarms the ceiling (but does not clear an
    /// already-set poison flag).
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.node_limit = limit;
    }

    /// True once the node ceiling has been hit. From that point every
    /// operation short-circuits to ⊥ and all results computed since the
    /// limit was armed are unreliable — check this before interpreting
    /// any verdict derived from this manager.
    pub fn limit_exceeded(&self) -> bool {
        self.limit_hit
    }

    /// Arms a wall-clock deadline enforced inside node construction,
    /// so even a single monolithic `and`/`and_exists` unwinds promptly
    /// when time runs out. `None` disarms the deadline (but does not
    /// clear an already-set poison flag).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// True once the armed deadline has expired. Same poisoning contract
    /// as [`BddManager::limit_exceeded`]: everything computed since is
    /// garbage.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline_hit
    }

    /// True if either poison flag is set — the manager's results are
    /// garbage and every operation short-circuits to ⊥. Distinguish the
    /// cause with [`BddManager::limit_exceeded`] /
    /// [`BddManager::deadline_exceeded`].
    pub fn poisoned(&self) -> bool {
        self.limit_hit || self.deadline_hit
    }

    /// A constant BDD.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Creates the next variable, at the bottom of the order, and returns
    /// its positive literal as a BDD.
    pub fn new_var(&mut self) -> Bdd {
        let v = self.num_vars;
        self.num_vars += 1;
        self.mk_node(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The positive literal of variable `v` (which must already exist).
    pub fn var(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "unknown BDD variable {v}");
        self.mk_node(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negative literal of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "unknown BDD variable {v}");
        self.mk_node(v, Bdd::TRUE, Bdd::FALSE)
    }

    fn mk_node(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        if self.limit_hit || self.deadline_hit {
            return Bdd::FALSE;
        }
        if let Some(deadline) = self.deadline {
            // Amortize the clock read over a batch of constructions
            // (counting unique-table hits too: heavy-dedup recursions
            // must still poll); the poison then unwinds the in-flight
            // recursion just like the node ceiling does.
            self.deadline_fuel -= 1;
            if self.deadline_fuel == 0 {
                self.deadline_fuel = DEADLINE_POLL_INTERVAL;
                if Instant::now() >= deadline {
                    self.deadline_hit = true;
                    return Bdd::FALSE;
                }
            }
        }
        let node = Node { var, low, high };
        if let Some(&b) = self.unique.get(&node) {
            return b;
        }
        if let Some(limit) = self.node_limit {
            if self.nodes.len() >= limit {
                // Poison: from here on every construction collapses to ⊥,
                // so recursions unwind promptly instead of allocating.
                self.limit_hit = true;
                return Bdd::FALSE;
            }
        }
        let b = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, b);
        self.stats.nodes_allocated += 1;
        b
    }

    #[inline]
    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    /// Decomposes a non-constant node into `(var, low, high)`: branch on
    /// `var`, `low` when it is false, `high` when it is true. This is the
    /// read-only introspection hook external checkers use to convert a BDD
    /// back into a formula (e.g. certificate re-checking in `verdict-mc`).
    ///
    /// # Panics
    /// Panics on the constant nodes.
    pub fn node_parts(&self, b: Bdd) -> (u32, Bdd, Bdd) {
        assert!(!b.is_constant(), "node_parts on constant BDD");
        let n = self.node(b);
        (n.var, n.low, n.high)
    }

    /// The top variable of `b`: `u32::MAX` for the constants, whose
    /// sentinel nodes carry it, so they order below every variable.
    fn top_var(&self, b: Bdd) -> u32 {
        self.node(b).var
    }

    /// Cofactors of `b` with respect to variable `v` (which must be at or
    /// above `b`'s top variable in the order).
    fn cofactors(&self, b: Bdd, v: u32) -> (Bdd, Bdd) {
        if b.is_constant() || self.node(b).var != v {
            (b, b)
        } else {
            let n = self.node(b);
            (n.low, n.high)
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Fault-injection probe at site `bdd.ite` (panic only; node
        // exhaustion is simulated at the mc budget layer). Free when no
        // fault plan is armed.
        verdict_journal::fault::panic_if_armed("bdd.ite");
        if self.limit_hit || self.deadline_hit {
            return Bdd::FALSE;
        }
        // Terminal cases.
        if f == Bdd::TRUE {
            return g;
        }
        if f == Bdd::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return f;
        }
        let key = IteKey(f, g, h);
        self.stats.ite_cache_lookups += 1;
        if let Some(&r) = self.ite_cache.get(&key) {
            self.stats.ite_cache_hits += 1;
            return r;
        }
        let v = self.top_var(f).min(self.top_var(g)).min(self.top_var(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk_node(v, low, high);
        if self.limit_hit || self.deadline_hit {
            // Poisoned subresults must not be memoized as real answers.
            return Bdd::FALSE;
        }
        if self.ite_cache.len() >= CACHE_CAP {
            self.ite_cache.clear();
            self.stats.cache_clears += 1;
        }
        self.ite_cache.insert(key, r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd::FALSE, Bdd::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// If-and-only-if.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Conjunction over an iterator.
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = self.and(acc, b);
            if acc == Bdd::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator.
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = self.or(acc, b);
            if acc == Bdd::TRUE {
                break;
            }
        }
        acc
    }

    /// Registers a set of variables for quantification/renaming. The set is
    /// interned so repeated image computations share caches. `VarSet`s
    /// survive garbage collection (they name variables, not nodes).
    pub fn var_set<I: IntoIterator<Item = u32>>(&mut self, vars: I) -> VarSet {
        let mut vs: Vec<u32> = vars.into_iter().collect();
        vs.sort_unstable();
        vs.dedup();
        for &v in &vs {
            assert!(v < self.num_vars, "unknown BDD variable {v}");
        }
        if let Some(i) = self.cubes.iter().position(|c| *c == vs) {
            return VarSet(i as u64);
        }
        self.cubes.push(vs);
        VarSet(self.cubes.len() as u64 - 1)
    }

    /// The variables of a registered set, in ascending id order.
    pub fn var_set_vars(&self, s: VarSet) -> &[u32] {
        &self.cubes[s.0 as usize]
    }

    /// Existential quantification: `∃ vars. f`.
    pub fn exists(&mut self, f: Bdd, vars: VarSet) -> Bdd {
        self.and_exists(f, Bdd::TRUE, vars)
    }

    /// Universal quantification: `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, vars: VarSet) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Fused relational product: `∃ vars. (f ∧ g)`.
    ///
    /// This is the workhorse of image computation: conjoining the state set
    /// with the transition relation while quantifying away current-state
    /// variables, without building the full conjunction.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: VarSet) -> Bdd {
        self.and_exists_rec(f, g, vars, 0)
    }

    fn and_exists_rec(&mut self, f: Bdd, g: Bdd, vars: VarSet, from: usize) -> Bdd {
        if f == Bdd::FALSE || g == Bdd::FALSE || self.limit_hit || self.deadline_hit {
            return Bdd::FALSE;
        }
        // Advance past cube variables above both tops: they no longer
        // occur in either operand, so ∃ over them is a no-op.
        let v = self.top_var(f).min(self.top_var(g));
        let cube = self.var_set_vars(vars);
        let mut from = from;
        while from < cube.len() && cube[from] < v {
            from += 1;
        }
        if f == Bdd::TRUE && g == Bdd::TRUE {
            return Bdd::TRUE;
        }
        if from >= cube.len() {
            // No quantified variables remain in scope: plain conjunction.
            return self.and(f, g);
        }
        let key = (f, g, vars.0 << 32 | from as u64);
        if let Some(&r) = self.and_exists_cache.get(&key) {
            return r;
        }
        let qvar = self.var_set_vars(vars)[from];
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = if v == qvar {
            // Quantify this variable: OR of the two cofactor products.
            let low = self.and_exists_rec(f0, g0, vars, from + 1);
            if low == Bdd::TRUE {
                Bdd::TRUE
            } else {
                let high = self.and_exists_rec(f1, g1, vars, from + 1);
                self.or(low, high)
            }
        } else {
            debug_assert!(v < qvar);
            let low = self.and_exists_rec(f0, g0, vars, from);
            let high = self.and_exists_rec(f1, g1, vars, from);
            self.mk_node(v, low, high)
        };
        if self.limit_hit || self.deadline_hit {
            return Bdd::FALSE;
        }
        if self.and_exists_cache.len() >= CACHE_CAP {
            self.and_exists_cache.clear();
            self.stats.cache_clears += 1;
        }
        self.and_exists_cache.insert(key, r);
        r
    }

    /// Renames variables: each `(from, to)` pair substitutes variable
    /// `from` with variable `to`. Pairs must map distinct sources to
    /// distinct targets, and the mapping must preserve the order (sources
    /// and targets sorted by id give the same pair sequence), which holds
    /// for the interleaved current↔next encoding of the symbolic engine
    /// in `verdict-mc`.
    pub fn rename(&mut self, f: Bdd, pairs: &[(u32, u32)]) -> Bdd {
        let mut sorted: Vec<(u32, u32)> = pairs.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0].1 < w[1].1, "rename map must be strictly increasing");
        }
        let map: HashMap<u32, u32> = pairs.iter().copied().collect();
        let mut cache: HashMap<Bdd, Bdd> = HashMap::new();
        self.rename_rec(f, &map, &mut cache)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        map: &HashMap<u32, u32>,
        cache: &mut HashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_constant() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.node(f);
        let low = self.rename_rec(n.low, map, cache);
        let high = self.rename_rec(n.high, map, cache);
        let var = map.get(&n.var).copied().unwrap_or(n.var);
        // Order preservation guarantees var is still above low/high tops.
        debug_assert!(var < self.top_var(low) && var < self.top_var(high));
        let r = self.mk_node(var, low, high);
        cache.insert(f, r);
        r
    }

    /// Restricts variable `v` to a constant value.
    pub fn restrict(&mut self, f: Bdd, v: u32, value: bool) -> Bdd {
        let lit = if value { self.var(v) } else { self.nvar(v) };
        let conj = self.and(f, lit);
        let vs = self.var_set([v]);
        self.exists(conj, vs)
    }

    /// Care-set simplification (Coudert–Madre restrict, a.k.a. sibling
    /// substitution): returns `g` with `g ∧ care = f ∧ care`, choosing
    /// `g` freely outside `care`. When `care` prunes most of the space
    /// — a reachable-state set, an invariant — `g` is typically far
    /// smaller than `f`, which makes this the right operator for
    /// lowering formulas *after* reachability instead of over the full
    /// free state space.
    ///
    /// With `care = FALSE` every result is valid; this returns `FALSE`.
    pub fn simplify(&mut self, f: Bdd, care: Bdd) -> Bdd {
        let mut memo = HashMap::new();
        self.simplify_rec(f, care, &mut memo)
    }

    fn simplify_rec(&mut self, f: Bdd, c: Bdd, memo: &mut HashMap<(Bdd, Bdd), Bdd>) -> Bdd {
        if c == Bdd::FALSE {
            return Bdd::FALSE;
        }
        if c == Bdd::TRUE || f.is_constant() {
            return f;
        }
        if let Some(&r) = memo.get(&(f, c)) {
            return r;
        }
        let (vf, vc) = (self.top_var(f), self.top_var(c));
        let r = if vc < vf {
            // The care set branches on a variable `f` does not test:
            // any state in either branch must keep `f`'s value, so
            // simplify against the union of the two care branches.
            let cn = self.node(c);
            let c2 = self.or(cn.low, cn.high);
            self.simplify_rec(f, c2, memo)
        } else {
            let fnode = self.node(f);
            let (c0, c1) = if vc == vf {
                let cn = self.node(c);
                (cn.low, cn.high)
            } else {
                (c, c)
            };
            if c0 == Bdd::FALSE {
                // The low branch is entirely don't-care: substitute the
                // sibling, eliminating the test on this variable.
                self.simplify_rec(fnode.high, c1, memo)
            } else if c1 == Bdd::FALSE {
                self.simplify_rec(fnode.low, c0, memo)
            } else {
                let low = self.simplify_rec(fnode.low, c0, memo);
                let high = self.simplify_rec(fnode.high, c1, memo);
                self.mk_node(fnode.var, low, high)
            }
        };
        memo.insert((f, c), r);
        r
    }

    /// Number of satisfying assignments of `f` over `total_vars` variables.
    ///
    /// Returned as `f64` (state-space sizes are reported, not enumerated).
    pub fn sat_count(&self, f: Bdd, total_vars: u32) -> f64 {
        assert!(total_vars >= self.num_vars || f.is_constant());
        // cnt(b) = solutions of b over the variables [top_var(b), total),
        // where top_var(constant) = total. Variables beyond num_vars
        // (callers may count over a larger universe) order below every
        // manager variable.
        let total = total_vars;
        let top = |b: Bdd| self.top_var(b).min(total);
        let mut cache: HashMap<Bdd, f64> = HashMap::new();
        fn go(m: &BddManager, b: Bdd, total: u32, cache: &mut HashMap<Bdd, f64>) -> f64 {
            if b == Bdd::FALSE {
                return 0.0;
            }
            if b == Bdd::TRUE {
                return 1.0;
            }
            if let Some(&c) = cache.get(&b) {
                return c;
            }
            let n = m.node(b);
            let lv = m.top_var(n.low).min(total);
            let hv = m.top_var(n.high).min(total);
            let low = go(m, n.low, total, cache) * ((lv - n.var - 1) as f64).exp2();
            let high = go(m, n.high, total, cache) * ((hv - n.var - 1) as f64).exp2();
            let c = low + high;
            cache.insert(b, c);
            c
        }
        go(self, f, total, &mut cache) * (top(f) as f64).exp2()
    }

    /// One satisfying assignment of `f` as `(var, value)` pairs for the
    /// variables on the chosen path (unmentioned variables are free).
    /// Returns `None` for the constant false.
    pub fn sat_one(&self, f: Bdd) -> Option<Vec<(u32, bool)>> {
        if f == Bdd::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_constant() {
            let n = self.node(cur);
            // Deterministically prefer the low edge when viable.
            if n.low != Bdd::FALSE {
                path.push((n.var, false));
                cur = n.low;
            } else {
                path.push((n.var, true));
                cur = n.high;
            }
        }
        Some(path)
    }

    /// Evaluates `f` under a total assignment (indexed by variable).
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_constant() {
            let n = self.node(cur);
            cur = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
        cur == Bdd::TRUE
    }

    /// Number of nodes reachable from `f` (its size).
    pub fn size(&self, f: Bdd) -> usize {
        self.size_multi(std::slice::from_ref(&f))
    }

    /// Number of distinct nodes reachable from any of `roots` (shared
    /// structure counted once), plus the two constants.
    pub fn size_multi(&self, roots: &[Bdd]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<Bdd> = roots.to_vec();
        while let Some(b) = stack.pop() {
            if b.is_constant() || !seen.insert(b) {
                continue;
            }
            let n = self.node(b);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len() + 2
    }

    /// Garbage collection: rebuilds the arena keeping only the nodes
    /// reachable from `roots`, and returns the remapped roots, in order.
    /// Every handle not in `roots` is invalid afterwards. The operation
    /// caches start empty (their entries may name collected nodes);
    /// interned `VarSet`s, the node ceiling, the deadline and both poison
    /// flags carry over. The pre-collection arena size feeds the
    /// `peak_live_nodes` high-water mark, so collection never hides a
    /// memory spike.
    pub fn gc(&mut self, roots: &[Bdd]) -> Vec<Bdd> {
        self.stats.peak_live_nodes = self.stats.peak_live_nodes.max(self.nodes.len() as u64);
        let mut fresh = BddManager::new();
        fresh.num_vars = self.num_vars;
        // The order never changes, so each node copies as is: `mk_node`
        // over the copied children is already canonical.
        let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
        fn copy(
            m: &BddManager,
            b: Bdd,
            fresh: &mut BddManager,
            memo: &mut HashMap<Bdd, Bdd>,
        ) -> Bdd {
            if b.is_constant() {
                return b;
            }
            if let Some(&r) = memo.get(&b) {
                return r;
            }
            let n = m.node(b);
            let low = copy(m, n.low, fresh, memo);
            let high = copy(m, n.high, fresh, memo);
            let r = fresh.mk_node(n.var, low, high);
            memo.insert(b, r);
            r
        }
        let new_roots = roots
            .iter()
            .map(|&r| copy(self, r, &mut fresh, &mut memo))
            .collect();
        // The stats stay cumulative; the copies count as allocations.
        fresh.stats = BddStats {
            nodes_allocated: self.stats.nodes_allocated + fresh.stats.nodes_allocated,
            ..self.stats
        };
        fresh.cubes = std::mem::take(&mut self.cubes);
        fresh.node_limit = self.node_limit;
        fresh.limit_hit = self.limit_hit;
        fresh.deadline = self.deadline;
        fresh.deadline_hit = self.deadline_hit;
        *self = fresh;
        new_roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let m = BddManager::new();
        assert!(Bdd::TRUE.is_constant());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
    }

    #[test]
    fn basic_ops_truth_tables() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        type Case = (&'static str, Bdd, fn(bool, bool) -> bool);
        let cases: Vec<Case> = vec![
            ("and", m.and(x, y), |a, b| a && b),
            ("or", m.or(x, y), |a, b| a || b),
            ("xor", m.xor(x, y), |a, b| a ^ b),
            ("iff", m.iff(x, y), |a, b| a == b),
            ("implies", m.implies(x, y), |a, b| !a || b),
        ];
        for (name, f, spec) in cases {
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(m.eval(f, &[a, b]), spec(a, b), "{name}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn simplify_agrees_inside_care_set() {
        // Exhaustive: over every pair from a pool of random-ish functions
        // on 4 variables, simplify(f, c) ∧ c must equal f ∧ c.
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|_| m.new_var()).collect();
        let mut pool = vec![Bdd::TRUE, Bdd::FALSE];
        // A deterministic spread of functions: all single literals, some
        // pairwise ops, one three-way.
        for &v in &vars {
            pool.push(v);
            pool.push(m.not(v));
        }
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                pool.push(m.and(vars[i], vars[j]));
                pool.push(m.or(vars[i], vars[j]));
                pool.push(m.xor(vars[i], vars[j]));
            }
        }
        let vi = m.iff(vars[0], vars[3]);
        pool.push(m.and(vi, vars[1]));
        for &f in &pool {
            for &c in &pool {
                let g = m.simplify(f, c);
                let gc = m.and(g, c);
                let fc = m.and(f, c);
                assert_eq!(gc, fc, "simplify broke f∧c");
                assert!(m.size(g) <= m.size(f) + 1, "simplify should not blow up");
            }
        }
    }

    #[test]
    fn gc_drops_garbage_and_keeps_roots_valid() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..6).map(|_| m.new_var()).collect();
        // Live function plus a pile of dead intermediates.
        let live = {
            let a = m.and(vars[0], vars[1]);
            m.or(a, vars[2])
        };
        for i in 0..6 {
            for j in 0..6 {
                let x = m.xor(vars[i], vars[j]);
                let _dead = m.and(x, vars[(i + j) % 6]);
            }
        }
        // A quantification set interned before the collection.
        let vs = m.var_set([1u32, 5]);
        let before = m.node_count();
        let roots = m.gc(&[live]);
        let live = roots[0];
        assert!(m.node_count() < before, "collection must shrink the arena");
        assert!(
            m.stats().peak_live_nodes >= before as u64,
            "collection must not hide the high-water mark"
        );
        // The remapped root still computes the same function, and the
        // old `VarSet` handle still quantifies {x1, x5}: ∃x1. live is
        // x0 ∨ x2.
        assert_eq!(m.var_set_vars(vs), &[1, 5]);
        assert_eq!(m.var_set([5u32, 1]), vs, "interning survives collection");
        let e = m.exists(live, vs);
        for bits in 0..8u8 {
            let mut a = vec![false; 6];
            for (i, s) in a.iter_mut().enumerate().take(3) {
                *s = bits & (1 << i) != 0;
            }
            assert_eq!(m.eval(live, &a), (a[0] && a[1]) || a[2]);
            assert_eq!(m.eval(e, &a), a[0] || a[2]);
        }
        // And the manager still operates (caches were cleared, not
        // corrupted).
        let x = m.var(3);
        let f = m.and(live, x);
        assert_ne!(f, Bdd::FALSE);
    }

    #[test]
    fn simplify_collapses_under_tight_care() {
        // care pins x0..x2 false; f = parity over all four collapses to
        // a single-literal function of x3.
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|_| m.new_var()).collect();
        let mut parity = Bdd::FALSE;
        for &v in &vars {
            parity = m.xor(parity, v);
        }
        let mut care = Bdd::TRUE;
        for &v in &vars[..3] {
            let nv = m.not(v);
            care = m.and(care, nv);
        }
        let g = m.simplify(parity, care);
        assert_eq!(g, vars[3], "parity restricted to x0=x1=x2=0 is x3");
    }

    #[test]
    fn hash_consing_gives_canonical_forms() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f1 = m.and(x, y);
        let f2 = {
            let nx = m.not(x);
            let ny = m.not(y);
            let nf = m.or(nx, ny);
            m.not(nf)
        };
        assert_eq!(f1, f2, "De Morgan forms must be the same node");
        let nf1 = m.not(f1);
        let tautology = m.or(f1, nf1);
        assert_eq!(tautology, Bdd::TRUE);
    }

    #[test]
    fn ite_shannon() {
        let mut m = BddManager::new();
        let c = m.new_var();
        let t = m.new_var();
        let e = m.new_var();
        let f = m.ite(c, t, e);
        for bits in 0..8u8 {
            let a = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expected = if a[0] { a[1] } else { a[2] };
            assert_eq!(m.eval(f, &a), expected);
        }
    }

    #[test]
    fn exists_forall() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = m.and(x, y);
        let vx = m.var_set([0u32]);
        let ex = m.exists(f, vx);
        // ∃x. x∧y == y
        assert_eq!(ex, y);
        let fx = m.forall(f, vx);
        // ∀x. x∧y == false
        assert_eq!(fx, Bdd::FALSE);
        let g = m.or(x, y);
        let fg = m.forall(g, vx);
        // ∀x. x∨y == y
        assert_eq!(fg, y);
    }

    #[test]
    fn and_exists_is_fused_correctly() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..6).map(|_| m.new_var()).collect();
        // f = (x0 ↔ x2) ∧ (x1 ↔ x3), g = x0 ∧ ¬x1
        let a = m.iff(vars[0], vars[2]);
        let b = m.iff(vars[1], vars[3]);
        let f = m.and(a, b);
        let nb1 = m.not(vars[1]);
        let g = m.and(vars[0], nb1);
        let qs = m.var_set([0u32, 1]);
        let fused = m.and_exists(f, g, qs);
        let plain = {
            let c = m.and(f, g);
            m.exists(c, qs)
        };
        assert_eq!(fused, plain);
        // Semantically: x2 ∧ ¬x3
        let nx3 = m.not(vars[3]);
        let expect = m.and(vars[2], nx3);
        assert_eq!(fused, expect);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|_| m.new_var()).collect();
        let f = m.and(vars[0], vars[1]);
        let g = m.rename(f, &[(0, 2), (1, 3)]);
        let expect = m.and(vars[2], vars[3]);
        assert_eq!(g, expect);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rename_rejects_non_monotone_maps() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = m.and(x, y);
        let _ = m.rename(f, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = m.xor(x, y);
        let f_x1 = m.restrict(f, 0, true);
        let ny = m.not(y);
        assert_eq!(f_x1, ny);
        let f_x0 = m.restrict(f, 0, false);
        assert_eq!(f_x0, y);
    }

    #[test]
    fn sat_count_small() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let f = m.and(x, y);
        assert_eq!(m.sat_count(f, 3), 2.0); // z free
        let g = m.or_all([x, y, z]);
        assert_eq!(m.sat_count(g, 3), 7.0);
        assert_eq!(m.sat_count(Bdd::TRUE, 3), 8.0);
        assert_eq!(m.sat_count(Bdd::FALSE, 3), 0.0);
    }

    #[test]
    fn sat_one_satisfies() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let nx = m.not(x);
        let f = m.and_all([nx, y, z]);
        let cube = m.sat_one(f).unwrap();
        let mut assignment = vec![false; 3];
        for (v, val) in cube {
            assignment[v as usize] = val;
        }
        assert!(m.eval(f, &assignment));
        assert!(m.sat_one(Bdd::FALSE).is_none());
    }

    #[test]
    fn eval_matches_semantics_exhaustively() {
        // Build a nontrivial function and compare against direct evaluation.
        let mut m = BddManager::new();
        let vs: Vec<Bdd> = (0..5).map(|_| m.new_var()).collect();
        let t1 = m.and(vs[0], vs[1]);
        let t2 = m.xor(vs[2], vs[3]);
        let t3 = m.implies(vs[4], t1);
        let part = m.or(t1, t2);
        let f = m.and(part, t3);
        for bits in 0..32u8 {
            let a: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let spec = {
                let t1 = a[0] && a[1];
                let t2 = a[2] ^ a[3];
                let t3 = !a[4] || t1;
                (t1 || t2) && t3
            };
            assert_eq!(m.eval(f, &a), spec, "bits={bits:05b}");
        }
    }

    #[test]
    fn size_reports_reachable_nodes() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = m.and(x, y);
        assert_eq!(m.size(f), 4); // two decision nodes + two constants
        assert_eq!(m.size(Bdd::TRUE), 2);
    }

    // ----- Node limits, cache bounds -----------------------------------

    #[test]
    fn node_limit_poisons_promptly_and_stays_sticky() {
        let mut m = BddManager::new();
        for _ in 0..32 {
            m.new_var();
        }
        m.set_node_limit(Some(64));
        assert!(!m.limit_exceeded());
        // A function whose BDD is far larger than 64 nodes: the ceiling
        // must trip during construction, not after.
        let mut acc = Bdd::FALSE;
        for i in 0..16u32 {
            let a = m.var(2 * i);
            let b = m.var(2 * i + 1);
            let t = m.and(a, b);
            acc = m.or(acc, t);
            if m.limit_exceeded() {
                break;
            }
        }
        assert!(m.limit_exceeded(), "ceiling of 64 nodes must trip");
        assert!(
            m.node_count() <= 64 + 2,
            "arena must not blow past the ceiling: {}",
            m.node_count()
        );
        // Sticky: further operations short-circuit to ⊥.
        let x = m.var(0);
        assert_eq!(m.and(x, Bdd::TRUE), Bdd::FALSE);
        assert!(m.limit_exceeded());
    }

    #[test]
    fn expired_deadline_poisons_mid_construction() {
        let mut m = BddManager::new();
        for _ in 0..40 {
            m.new_var();
        }
        m.set_deadline(Some(Instant::now()));
        assert!(
            !m.deadline_exceeded(),
            "arming alone must not poison — only an allocation poll does"
        );
        // Keep constructing until one poll interval of mk_node calls has
        // passed; the expired deadline must trip *inside* the work,
        // bounding total allocations near the poll granularity.
        let mut acc = Bdd::FALSE;
        for round in 0..100_000u32 {
            let x = m.var(round % 40);
            let y = m.var((round + 7) % 40);
            let t = m.and(x, y);
            acc = m.xor(acc, t);
            if m.deadline_exceeded() {
                break;
            }
        }
        assert!(m.deadline_exceeded(), "expired deadline must trip");
        assert!(m.poisoned());
        assert!(!m.limit_exceeded(), "distinct cause from the node ceiling");
        assert!(
            m.node_count() <= 2 * DEADLINE_POLL_INTERVAL as usize,
            "poison must land within a poll interval or two: {}",
            m.node_count()
        );
        // Sticky, exactly like the ceiling.
        let x = m.var(0);
        assert_eq!(m.or(x, Bdd::FALSE), Bdd::FALSE);
        // A comfortable future deadline never fires.
        let mut fresh = BddManager::new();
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        fresh.set_deadline(Some(far));
        let a = fresh.new_var();
        let b = fresh.new_var();
        let f = fresh.and(a, b);
        assert!(!fresh.poisoned());
        assert_ne!(f, Bdd::FALSE);
    }

    #[test]
    fn node_limit_trips_inside_and_exists() {
        let mut m = BddManager::new();
        for _ in 0..40 {
            m.new_var();
        }
        // Build the operands within a generous ceiling, then tighten it so
        // only the fused product can trip it.
        let mut f = Bdd::TRUE;
        for i in 0..10u32 {
            let a = m.var(i);
            let b = m.var(i + 20);
            let t = m.iff(a, b);
            f = m.and(f, t);
        }
        let mut g = Bdd::TRUE;
        for i in 10..20u32 {
            let a = m.var(i);
            let b = m.var(i + 20);
            let t = m.xor(a, b);
            g = m.and(g, t);
        }
        assert!(!m.limit_exceeded());
        m.set_node_limit(Some(m.node_count() + 8));
        let vs = m.var_set(0..20u32);
        let r = m.and_exists(f, g, vs);
        assert!(m.limit_exceeded(), "and_exists must hit the tight ceiling");
        assert_eq!(r, Bdd::FALSE, "poisoned result collapses to ⊥");
    }

    #[test]
    fn caches_are_bounded() {
        // White-box: CACHE_CAP is too large to hit in a unit test, so this
        // only checks the clear accounting plumbing via stats and relies
        // on the cap constant for the bound itself.
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let _ = m.and(x, y);
        assert_eq!(m.stats().cache_clears, 0);
    }
}
