//! The CDCL solver implementation.
//!
//! One `struct Solver` owns the clause arena (every clause's literals
//! back to back in one vector), the two-watched-literal scheme, the
//! trail, and the VSIDS order heap. The public surface is
//! intentionally small: add clauses, solve (optionally under assumptions
//! and/or with a theory hook), read the model or the failed-assumption core.
//!
//! The inner loop keeps each propagated literal and each decision cheap;
//! none of the following changes which ones the search makes:
//!
//! * a two-literal clause that is never deleted propagates from its
//!   watcher alone (the blocker is the other literal), without reading
//!   the clause or the arena;
//! * every literal has its own value slot, so a value is one load;
//! * the decision heap keeps a copy of each variable's activity next to
//!   it, and skips the assigned entries that decide nothing.
//!
//! The heap pops by a total order (activity, then the smaller index), so
//! which assigned entries it still holds does not matter. It is rebuilt
//! after an activity rescale, which can round two activities to one value
//! and so hand their order to the index. A binary conflict leaves its
//! literals in the arena in the order the general path would, so conflict
//! analysis learns the same clauses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use verdict_logic::{Cnf, Lit, Var};

use crate::proof::ProofEvent;
use crate::share::{Endpoint, PrefixChain, SharedClause};

/// Three-valued assignment state of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// A clause: where its literals sit in `Solver::lit_arena`, and its
/// bookkeeping.
#[derive(Debug)]
struct ClauseData {
    /// Offset of the clause's literals in `Solver::lit_arena`.
    start: usize,
    /// Number of literals.
    len: u32,
    learnt: bool,
    /// Literal-block distance at learn time; lower is better.
    lbd: u32,
    deleted: bool,
    /// Imported from a peer via clause sharing (counts import hits when
    /// it later participates in a conflict).
    shared: bool,
}

impl ClauseData {
    /// True iff database reduction may delete the clause: only learnt
    /// clauses above glue level are candidates.
    fn deletable(&self) -> bool {
        self.learnt && self.lbd > 2
    }
}

type ClauseId = u32;

/// Set in [`Watcher::tagged`] for a two-literal clause that is never
/// deleted.
const BINARY: u32 = 1 << 31;

/// Watcher entry: the watched clause plus a "blocker" literal whose
/// satisfaction lets propagation skip the clause without touching it.
/// A binary watcher's blocker is the clause's other literal, so
/// propagation settles the clause from the watcher alone.
#[derive(Clone, Copy)]
struct Watcher {
    /// The clause id, with [`BINARY`] set for a two-literal clause that
    /// is never deleted.
    tagged: u32,
    blocker: Lit,
}

impl Watcher {
    #[inline]
    fn clause(self) -> ClauseId {
        self.tagged & !BINARY
    }

    #[inline]
    fn binary(self) -> bool {
        self.tagged & BINARY != 0
    }
}

/// Reason for an assignment: a clause, a decision, or a theory/assumption.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reason {
    Decision,
    Clause(ClauseId),
}

/// A satisfying assignment, indexed by [`Var`].
#[derive(Clone, Debug)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Truth value of `v` in the model.
    ///
    /// # Panics
    /// Panics if `v` was never declared to the solver.
    pub fn value(&self, v: Var) -> bool {
        self.values[v.index()]
    }

    /// Truth value of a literal.
    pub fn lit_value(&self, l: Lit) -> bool {
        self.value(l.var()) == l.is_positive()
    }

    /// The raw assignment vector, indexed by variable.
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug)]
pub enum SolveResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// A resource limit was hit before a decision was reached.
    Unknown,
}

impl SolveResult {
    /// True iff the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// True iff the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Extracts the model if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Verdict returned by a theory's final check in DPLL(T).
pub enum TheoryVerdict {
    /// The Boolean model is theory-consistent; the solver reports SAT.
    Consistent,
    /// The Boolean model is theory-inconsistent. The payload is a *lemma*
    /// clause (valid in the theory) that the current model falsifies; the
    /// solver learns it and continues searching.
    Lemma(Vec<Lit>),
}

/// DPLL(T) final-check hook.
///
/// `verdict-smt` implements this with a simplex-backed linear-arithmetic
/// checker; plain SAT solving uses the default no-op theory.
pub trait TheoryHook {
    /// Called with every total Boolean assignment the SAT core finds.
    fn final_check(&mut self, model: &Model) -> TheoryVerdict;
}

/// The trivial theory: every Boolean model is consistent.
struct NoTheory;

impl TheoryHook for NoTheory {
    fn final_check(&mut self, _model: &Model) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// Resource limits for a solve call.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Give up after this many conflicts (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Give up at this wall-clock instant (`None` = unlimited).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: give up as soon as this shared flag is
    /// observed `true` (`None` = never). Another thread raises the flag;
    /// the solver polls it alongside the deadline, so cancellation lands
    /// within a few hundred conflicts/decisions.
    pub stop: Option<Arc<AtomicBool>>,
    /// Give up once the clause arena holds this many clauses (`None` =
    /// unlimited). A memory-budget backstop: clause explosion degrades to
    /// `Unknown` instead of exhausting the machine.
    pub max_clauses: Option<usize>,
}

impl Limits {
    /// No limits.
    pub const NONE: Limits = Limits {
        max_conflicts: None,
        deadline: None,
        stop: None,
        max_clauses: None,
    };

    /// True once the deadline has passed or the stop flag is raised —
    /// the solver gives up with [`SolveResult::Unknown`].
    pub fn interrupted(&self) -> bool {
        if let Some(stop) = &self.stop {
            if stop.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }
}

/// Solver statistics, cumulative across solve calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Total literals across all clauses ever learnt (unit learnts included).
    pub learnt_literals: u64,
    /// Learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Theory final-check invocations.
    pub theory_checks: u64,
    /// Theory lemmas learnt.
    pub theory_lemmas: u64,
    /// Learnt clauses exported to peers via clause sharing (counted once
    /// per peer delivery).
    pub clauses_exported: u64,
    /// Peer clauses accepted by the prefix guard and integrated.
    pub clauses_imported: u64,
    /// Peer clauses refused by the prefix guard (foreign CNF prefix) or
    /// the proof-logging rule.
    pub imports_rejected: u64,
    /// Times an imported clause participated in a conflict (as the
    /// conflicting clause or a resolved reason) — the payoff counter.
    pub import_hits: u64,
}

/// A CDCL SAT solver. See the [crate docs](crate) for the feature list.
pub struct Solver {
    clauses: Vec<ClauseData>,
    /// Every clause's literals, back to back, in the order the clauses
    /// were attached, so propagation reads neighbouring clauses from
    /// neighbouring memory whatever the allocator did meanwhile.
    lit_arena: Vec<Lit>,
    watches: Vec<Vec<Watcher>>, // indexed by Lit::index()
    /// The value of every literal, indexed by `Lit::index()`: `enqueue`
    /// sets a literal and its negation together.
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: IndexedHeap,
    saved_phase: Vec<bool>,

    // Learning scratch
    seen: Vec<bool>,

    // Restarts / DB reduction
    conflicts_since_restart: u64,
    luby_index: u64,
    max_learnts: f64,

    // Assumptions / core
    assumptions: Vec<Lit>,
    conflict_core: Vec<Lit>,

    /// DRUP-style proof log; `Some` once [`Solver::enable_proof`] is called.
    proof: Option<Vec<ProofEvent>>,

    /// Clause-sharing endpoint; `Some` once [`Solver::attach_sharing`]
    /// is called.
    sharing: Option<Endpoint>,
    /// Running fingerprint of every clause handed to
    /// [`Solver::add_clause`] — the sharing import guard (see
    /// [`crate::share`]). Maintained only while sharing is attached.
    prefix: Option<PrefixChain>,
    /// Peer clauses stamped ahead of our prefix: parked until our chain
    /// grows to cover them (bounded by [`MAX_PENDING_IMPORTS`]).
    pending_imports: Vec<SharedClause>,

    ok: bool,
    stats: Stats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESCALE_FACTOR: f64 = 1e-100;
const LUBY_UNIT: u64 = 128;
/// Cap on clauses parked while a sharing peer's prefix runs ahead of
/// ours; overflow is rejected (sharing is best-effort, never a leak).
const MAX_PENDING_IMPORTS: usize = 4096;

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            lit_arena: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: IndexedHeap::new(),
            saved_phase: Vec::new(),
            seen: Vec::new(),
            conflicts_since_restart: 0,
            luby_index: 0,
            max_learnts: 2000.0,
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            proof: None,
            sharing: None,
            prefix: None,
            pending_imports: Vec::new(),
            ok: true,
            stats: Stats::default(),
        }
    }

    /// Attaches a clause-sharing endpoint (see [`crate::share`]). Must
    /// be called on an empty solver — the prefix fingerprint has to
    /// cover every clause, so attaching after clauses exist returns
    /// `false` and leaves sharing off. Imports are additionally
    /// suppressed while proof logging is enabled (an imported clause has
    /// no DRUP derivation here); exports still flow.
    pub fn attach_sharing(&mut self, endpoint: Endpoint) -> bool {
        if !self.clauses.is_empty() || !self.trail.is_empty() {
            return false;
        }
        self.sharing = Some(endpoint);
        self.prefix = Some(PrefixChain::new());
        true
    }

    /// True iff a sharing endpoint is attached.
    pub fn sharing_attached(&self) -> bool {
        self.sharing.is_some()
    }

    /// Turns on DRUP-style proof logging. Every clause added from now on is
    /// recorded as an input (theory lemmas included — they are axioms to the
    /// propositional proof), every learnt clause as a derivation step, and
    /// every database deletion as a delete. Call before adding clauses so
    /// the log covers the whole database.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Vec::new());
        }
    }

    /// True iff proof logging is on.
    pub fn proof_enabled(&self) -> bool {
        self.proof.is_some()
    }

    /// Takes the proof log accumulated so far (logging stays enabled, the
    /// internal log restarts empty). After an assumption-free `Unsat`
    /// answer the log ends with the empty clause and
    /// [`crate::proof::check_proof`] can certify it; an `Unsat` under
    /// assumptions has no empty-clause step and is not checkable this way.
    pub fn take_proof(&mut self) -> Vec<ProofEvent> {
        match &mut self.proof {
            Some(p) => std::mem::take(p),
            None => Vec::new(),
        }
    }

    #[inline]
    fn log_proof(&mut self, ev: ProofEvent) {
        if let Some(p) = &mut self.proof {
            p.push(ev);
        }
    }

    /// Number of clauses in the arena (deleted slots included — the arena
    /// never shrinks, so this tracks memory footprint).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Builds a solver pre-loaded with a CNF instance.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars());
        self.reserve_vars(v.0 + 1);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: u32) {
        while self.num_vars() < n {
            let v = Var(self.num_vars());
            self.values.push(LBool::Undef);
            self.values.push(LBool::Undef);
            self.level.push(0);
            self.reason.push(Reason::Decision);
            self.activity.push(0.0);
            self.saved_phase.push(false);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.heap.insert(v, 0.0);
        }
    }

    /// Adds a clause. May be called between solve calls (the solver must be
    /// at decision level 0, which it always is between calls).
    ///
    /// Returns `false` if the database became unsatisfiable at level 0.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.into_iter().collect();
        for l in &c {
            self.reserve_vars(l.var().0 + 1);
        }
        if let Some(prefix) = &mut self.prefix {
            // Fingerprint the clause exactly as handed in: two solvers
            // may exchange learnt clauses only while these chains agree.
            prefix.record(&c);
        }
        if self.proof.is_some() {
            self.log_proof(ProofEvent::Input(c.clone()));
        }
        if !self.normalize(&mut c) {
            return true; // tautology, or already satisfied at level 0
        }
        match c.len() {
            0 => {
                // All literals false at level 0: the empty clause follows
                // by unit propagation from the recorded database.
                self.log_proof(ProofEvent::Learn(Vec::new()));
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.log_proof(ProofEvent::Learn(Vec::new()));
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&c, false, 0, false);
                true
            }
        }
    }

    /// Normalizes a clause in place: sorts and dedups it and drops the
    /// literals false at level 0. Returns false if it is a tautology or
    /// already satisfied at level 0, and so needs no storing.
    fn normalize(&self, c: &mut Vec<Lit>) -> bool {
        c.sort_unstable();
        c.dedup();
        // A literal and its negation sort next to each other.
        if c.windows(2).any(|w| w[0] == !w[1])
            || c.iter().any(|&l| self.lit_value(l) == LBool::True)
        {
            return false;
        }
        c.retain(|&l| self.lit_value(l) == LBool::Undef);
        true
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32, shared: bool) -> ClauseId {
        debug_assert!(lits.len() >= 2);
        let id = self.clauses.len() as ClauseId;
        debug_assert!(id < BINARY, "clause ids overflow the watcher tag");
        let data = ClauseData {
            start: self.lit_arena.len(),
            len: lits.len() as u32,
            learnt,
            lbd,
            deleted: false,
            shared,
        };
        let tagged = if lits.len() == 2 && !data.deletable() {
            id | BINARY
        } else {
            id
        };
        let w0 = Watcher {
            tagged,
            blocker: lits[1],
        };
        let w1 = Watcher {
            tagged,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        self.lit_arena.extend_from_slice(lits);
        self.clauses.push(data);
        if learnt {
            self.stats.learnt_clauses += 1;
            self.stats.learnt_literals += lits.len() as u64;
        }
        id
    }

    /// The literals of clause `cid`.
    #[inline]
    fn lits(&self, cid: ClauseId) -> &[Lit] {
        let c = &self.clauses[cid as usize];
        &self.lit_arena[c.start..c.start + c.len as usize]
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.values[l.index()]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        self.values[l.index()] = LBool::True;
        self.values[(!l).index()] = LBool::False;
        let v = l.var().index();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates all enqueued assignments. Returns the conflicting clause
    /// if a conflict is found.
    fn propagate(&mut self) -> Option<ClauseId> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut i = 0;
            // Take the watch list; entries are pushed back or moved.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            while i < ws.len() {
                let w = ws[i];
                // Blocker short-circuit.
                let blocker = self.lit_value(w.blocker);
                if blocker == LBool::True {
                    i += 1;
                    continue;
                }
                let cid = w.clause() as usize;
                if w.binary() {
                    // The blocker is the other literal: the clause is unit
                    // or conflicting, and neither it nor the arena is read
                    // (it is never deleted).
                    if self.sharing.is_some() && self.clauses[cid].shared {
                        self.stats.import_hits += 1;
                    }
                    if blocker == LBool::False {
                        // Conflict: leave the pair in the arena as the
                        // general path orders it, other literal first,
                        // since that is the order `analyze` reads.
                        let start = self.clauses[cid].start;
                        self.lit_arena[start] = w.blocker;
                        self.lit_arena[start + 1] = false_lit;
                        self.watches[p.index()] = ws;
                        self.qhead = self.trail.len();
                        return Some(w.clause());
                    }
                    self.enqueue(w.blocker, Reason::Clause(w.clause()));
                    i += 1;
                    continue;
                }
                if self.clauses[cid].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure false_lit is at position 1.
                let (start, len) = (self.clauses[cid].start, self.clauses[cid].len as usize);
                let lits = &mut self.lit_arena[start..start + len];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..len {
                    let cand = self.lit_arena[start + k];
                    if self.lit_value(cand) != LBool::False {
                        self.lit_arena.swap(start + 1, start + k);
                        self.watches[(!cand).index()].push(Watcher {
                            tagged: w.tagged,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting. Either way an imported
                // clause just did real work: count the hit.
                if self.clauses[cid].shared {
                    self.stats.import_hits += 1;
                }
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore the watch list (no entries were
                    // added to `watches[p]` while we held it) and stop.
                    self.watches[p.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.clause());
                }
                self.enqueue(first, Reason::Clause(w.clause()));
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= RESCALE_FACTOR;
            }
            self.var_inc *= RESCALE_FACTOR;
            self.heap.rescale(RESCALE_FACTOR);
        }
        self.heap.update(v, self.activity[v.index()]);
    }

    fn decay_activities(&mut self) {
        self.var_inc *= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level,
    /// LBD). `learnt[0]` is the asserting literal.
    fn analyze(&mut self, confl: ClauseId) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            let (cstart, clen) = (
                self.clauses[confl as usize].start,
                self.clauses[confl as usize].len as usize,
            );
            // For the initial conflict clause consider all literals; a
            // reason clause's propagated literal is skipped by variable (a
            // binary clause holds its two in either order) and bumped
            // first. Bumps are in clause order otherwise: a rescale
            // between two bumps makes the activities depend on the order.
            let implied = p.map(Lit::var);
            if let Some(v) = implied {
                self.bump_var(v);
            }
            for k in 0..clen {
                let q = self.lit_arena[cstart + k];
                let v = q.var();
                if Some(v) == implied {
                    continue;
                }
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
                self.bump_var(v);
            }
            // Find next literal to expand.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("p set above").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = match self.reason[pv.index()] {
                Reason::Clause(c) => c,
                Reason::Decision => unreachable!("UIP reached before decision"),
            };
        }
        let uip = !p.expect("analysis found a UIP");

        // Clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = Vec::with_capacity(learnt.len() + 1);
        minimized.push(uip);
        'next: for &q in &learnt {
            let v = q.var();
            if let Reason::Clause(c) = self.reason[v.index()] {
                // q is redundant if every other literal of its reason is
                // already seen (i.e. in the learnt clause) or at level 0.
                for &r in self.lits(c) {
                    if r.var() == v {
                        continue;
                    }
                    if !self.seen[r.var().index()] && self.level[r.var().index()] > 0 {
                        minimized.push(q);
                        continue 'next;
                    }
                }
                // redundant: skip
            } else {
                minimized.push(q);
            }
        }

        // Clear seen flags.
        for &q in &learnt {
            self.seen[q.var().index()] = false;
        }

        // Backtrack level = second-highest level in the clause.
        let mut bt = 0;
        if minimized.len() > 1 {
            // Move the literal with the highest level to position 1.
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            bt = self.level[minimized[1].var().index()];
        }

        // LBD: number of distinct decision levels.
        let mut levels: Vec<u32> = minimized
            .iter()
            .map(|l| self.level[l.var().index()])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        (minimized, bt, lbd)
    }

    /// Undoes all assignments above `target` decision level.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.saved_phase[v.index()] = l.is_positive();
            self.values[l.index()] = LBool::Undef;
            self.values[(!l).index()] = LBool::Undef;
            self.heap.insert(v, self.activity[v.index()]);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target as usize);
        self.qhead = keep;
    }

    /// Picks the next decision literal, or `None` when all vars assigned.
    fn pick_branch(&mut self) -> Option<Lit> {
        // Every unassigned variable is in the heap; the other entries are
        // assigned variables that have not been popped yet.
        let unassigned = self.num_vars() as usize - self.trail.len();
        if unassigned == 0 {
            return None;
        }
        // Once most entries are assigned, one pass that drops them all
        // costs less than a sift-down for each.
        if 2 * (self.heap.len() - unassigned) > self.heap.len() {
            let values = &self.values;
            self.heap
                .retain(|v| values[v.positive().index()] == LBool::Undef);
        }
        while let Some(v) = self.heap.pop() {
            if self.lit_value(v.positive()) == LBool::Undef {
                return Some(v.lit(self.saved_phase[v.index()]));
            }
        }
        unreachable!("an unassigned variable is missing from the heap")
    }

    /// Reduces the learnt-clause database, keeping low-LBD clauses and any
    /// clause currently acting as a reason.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<(u32, usize, ClauseId)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.deletable() && !c.deleted)
            .map(|(i, c)| (c.lbd, c.len as usize, i as ClauseId))
            .collect();
        // Worst first: high LBD, then long.
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let locked: std::collections::HashSet<ClauseId> = self
            .trail
            .iter()
            .filter_map(|l| match self.reason[l.var().index()] {
                Reason::Clause(c) => Some(c),
                Reason::Decision => None,
            })
            .collect();
        let target = candidates.len() / 2;
        let mut removed = 0;
        for &(_, _, cid) in candidates.iter().take(target) {
            if locked.contains(&cid) {
                continue;
            }
            self.clauses[cid as usize].deleted = true;
            if self.proof.is_some() {
                let lits = self.lits(cid).to_vec();
                self.log_proof(ProofEvent::Delete(lits));
            }
            removed += 1;
        }
        self.stats.deleted_clauses += removed;
        self.stats.learnt_clauses -= removed;
    }

    /// The failed-assumption core from the most recent `Unsat` answer to
    /// [`Solver::solve_with_assumptions`]: a subset of the assumptions that
    /// is already jointly inconsistent with the clause database.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// MiniSat-style name for [`Solver::unsat_core`]: the assumption
    /// literals that participated in the last `Unsat` answer. Assumptions
    /// absent from this set played no part in the refutation, so the same
    /// query stays `Unsat` under any polarity of those literals — the
    /// property incremental parameter synthesis exploits to transfer
    /// verdicts across assignments (unsat-core pruning).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Builds the failed-assumption core by walking the implication graph
    /// backwards from a literal that contradicts an assumption.
    fn analyze_final(&mut self, p: Lit) {
        // `p` is the implied-true literal that contradicts assumption `!p`.
        // The core collects *assumption literals* (as passed by the caller)
        // that jointly cannot hold.
        self.conflict_core.clear();
        self.conflict_core.push(!p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                Reason::Decision => {
                    // All decisions during the assumption phase are
                    // assumptions, enqueued with their own polarity.
                    if l.var() != p.var() {
                        self.conflict_core.push(l);
                    }
                }
                Reason::Clause(c) => {
                    let c = &self.clauses[c as usize];
                    for &q in &self.lit_arena[c.start..c.start + c.len as usize] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    /// Solves the current database with no assumptions and no theory.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_full(&[], &mut NoTheory, Limits::NONE)
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::unsat_core`] holds a subset of the assumptions
    /// sufficient for unsatisfiability (negated: the core lists the
    /// assumption literals that failed).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_full(assumptions, &mut NoTheory, Limits::NONE)
    }

    /// Solves with a DPLL(T) theory hook and optional limits.
    pub fn solve_with_theory(
        &mut self,
        assumptions: &[Lit],
        theory: &mut dyn TheoryHook,
        limits: Limits,
    ) -> SolveResult {
        self.solve_full(assumptions, theory, limits)
    }

    /// Solves with limits only.
    pub fn solve_limited(&mut self, assumptions: &[Lit], limits: Limits) -> SolveResult {
        self.solve_full(assumptions, &mut NoTheory, limits)
    }

    /// Fault-injection probe at site `sat.solve`: `Panic` kills the
    /// solve (exercising caller containment), `Exhaust` makes it return
    /// `Unknown` as if the clause ceiling had been hit. Free when no
    /// fault plan is armed.
    fn fault_check(&mut self) -> Option<SolveResult> {
        use verdict_journal::fault;
        match fault::probe("sat.solve") {
            Some(fault::FaultKind::Panic) => panic!("{} at sat.solve", fault::PANIC_TAG),
            Some(fault::FaultKind::Exhaust) => Some(SolveResult::Unknown),
            _ => None,
        }
    }

    /// Offers a freshly-learnt clause to the sharing peers (no-op unless
    /// an endpoint is attached and the filter wants the clause).
    fn export_shared(&mut self, learnt: &[Lit], lbd: u32) {
        let Some(prefix) = &self.prefix else {
            return;
        };
        let (plen, phash) = (prefix.len(), prefix.head());
        if let Some(ep) = &mut self.sharing {
            if ep.wants(learnt.len(), lbd) {
                self.stats.clauses_exported += ep.export(learnt, lbd, plen, phash);
            }
        }
    }

    /// Drains and integrates peer clauses. Must run at decision level 0
    /// (solve entry / restart boundary). Returns `self.ok` — `false`
    /// means an entailed import exposed level-0 unsatisfiability.
    fn import_shared(&mut self) -> bool {
        if self.sharing.is_none() || !self.ok {
            return self.ok;
        }
        if self.proof.is_some() {
            // Proof-logged solvers never import: the clause would enter
            // resolutions without a DRUP derivation. Drain so the rings
            // don't silt up, and account for the refusals.
            let mut dropped = self.pending_imports.len() as u64;
            self.pending_imports.clear();
            if let Some(ep) = &mut self.sharing {
                ep.drain(|_| dropped += 1);
            }
            self.stats.imports_rejected += dropped;
            return self.ok;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut batch: Vec<SharedClause> = std::mem::take(&mut self.pending_imports);
        if let Some(ep) = &mut self.sharing {
            ep.drain(|m| batch.push(m));
        }
        for msg in batch {
            let (our_len, covered) = match &self.prefix {
                Some(p) => (p.len(), p.covers(msg.prefix_len, msg.prefix_hash)),
                None => (0, false),
            };
            if !covered {
                if msg.prefix_len > our_len && self.pending_imports.len() < MAX_PENDING_IMPORTS {
                    // The peer is ahead of us on (what may be) the same
                    // clause stream — common when a finished run seeded
                    // the ring. Park the clause; once our own prefix
                    // grows to cover the stamp it imports normally, and
                    // if the chains turn out to diverge it is rejected
                    // at that point instead.
                    self.pending_imports.push(msg);
                } else {
                    // Foreign CNF prefix: not a consequence of our
                    // database (or the parking lot is full).
                    self.stats.imports_rejected += 1;
                }
                continue;
            }
            self.stats.clauses_imported += 1;
            if !self.integrate_shared(msg) {
                break;
            }
        }
        self.ok
    }

    /// Integrates one guard-approved peer clause: re-normalized against
    /// our level-0 facts (sound — the clause is entailed by our first
    /// `prefix_len` inputs) and attached as a learnt, `shared` clause so
    /// database reduction treats it like any other learnt clause.
    fn integrate_shared(&mut self, msg: SharedClause) -> bool {
        let mut c = msg.lits;
        for l in &c {
            self.reserve_vars(l.var().0 + 1);
        }
        if !self.normalize(&mut c) {
            return true;
        }
        match c.len() {
            0 => {
                // Every literal false at level 0, yet the clause is a
                // consequence of our database: the database is unsat.
                self.stats.import_hits += 1;
                self.ok = false;
                false
            }
            1 => {
                // A unit import is a level-0 fact put to work right
                // here; its reason is `Decision`, so count the hit now.
                self.stats.import_hits += 1;
                self.enqueue(c[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&c, true, msg.lbd, true);
                true
            }
        }
    }

    fn solve_full(
        &mut self,
        assumptions: &[Lit],
        theory: &mut dyn TheoryHook,
        limits: Limits,
    ) -> SolveResult {
        if !self.ok {
            self.conflict_core.clear();
            return SolveResult::Unsat;
        }
        for l in assumptions {
            self.reserve_vars(l.var().0 + 1);
        }
        self.assumptions = assumptions.to_vec();
        self.conflict_core.clear();
        if let Some(max) = limits.max_clauses {
            if self.clauses.len() >= max {
                return SolveResult::Unknown;
            }
        }
        // Check the deadline/stop flag before doing any work: the in-loop
        // polls only fire every 256 conflicts/decisions, so a trivially
        // easy query would otherwise return a real verdict after its
        // budget already expired (and a caller looping over such queries
        // could overshoot its deadline by many solve calls).
        if limits.interrupted() {
            return SolveResult::Unknown;
        }
        if let Some(res) = self.fault_check() {
            return res;
        }
        // Solve entry is a quiet point (decision level 0): pick up any
        // clauses peers shared since the last call.
        if !self.import_shared() {
            return SolveResult::Unsat;
        }
        self.conflicts_since_restart = 0;
        self.luby_index = 0;
        let mut restart_budget = LUBY_UNIT * luby(1);
        let mut checked_since = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                checked_since += 1;
                if self.decision_level() == 0 {
                    self.log_proof(ProofEvent::Learn(Vec::new()));
                    self.ok = false;
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                if self.decision_level() <= self.assumptions.len() as u32 {
                    // Conflict within the assumption prefix: extract core.
                    // Find the conflicting clause's deepest assumption.
                    self.build_core_from_conflict(confl);
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                self.export_shared(&learnt, lbd);
                // Backtracking below the assumption prefix is fine: the main
                // loop re-queues assumptions while decision level < prefix.
                self.cancel_until(bt);
                let asserting = learnt[0];
                if self.proof.is_some() {
                    self.log_proof(ProofEvent::Learn(learnt.clone()));
                }
                if learnt.len() == 1 {
                    self.stats.learnt_literals += 1;
                    self.cancel_until(0);
                    if self.lit_value(asserting) == LBool::False {
                        self.log_proof(ProofEvent::Learn(Vec::new()));
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    if self.lit_value(asserting) == LBool::Undef {
                        self.enqueue(asserting, Reason::Decision);
                    }
                    // Re-establish assumptions on next iterations.
                } else {
                    let cid = self.attach_clause(&learnt, true, lbd, false);
                    self.enqueue(asserting, Reason::Clause(cid));
                }
                self.decay_activities();

                if let Some(max) = limits.max_conflicts {
                    if self.stats.conflicts >= max {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if let Some(max) = limits.max_clauses {
                    if self.clauses.len() >= max {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if checked_since >= 256 {
                    checked_since = 0;
                    if limits.interrupted() {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                    if let Some(res) = self.fault_check() {
                        self.cancel_until(0);
                        return res;
                    }
                }
                if self.conflicts_since_restart >= restart_budget {
                    self.stats.restarts += 1;
                    self.conflicts_since_restart = 0;
                    self.luby_index += 1;
                    restart_budget = LUBY_UNIT * luby(self.luby_index + 1);
                    self.cancel_until(0);
                    // Restart boundary: integrate peer clauses while the
                    // trail is empty.
                    if !self.import_shared() {
                        return SolveResult::Unsat;
                    }
                }
                if self.stats.learnt_clauses as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                // No conflict: place assumptions, then decide.
                let dl = self.decision_level() as usize;
                if dl < self.assumptions.len() {
                    let a = self.assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied; open an empty level so the
                            // prefix invariant (level i = assumption i) holds.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(!a);
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, Reason::Decision);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    Some(l) => {
                        self.stats.decisions += 1;
                        // Conflict-free stretches also poll the limits, so a
                        // cancelled solve cannot run away on an easy instance.
                        checked_since += 1;
                        if checked_since >= 256 {
                            checked_since = 0;
                            if limits.interrupted() {
                                // `l` left the heap but never reached the
                                // trail, so backjumping would not return it:
                                // put it back, since `pick_branch` relies on
                                // every unassigned variable being there.
                                self.heap.insert(l.var(), self.activity[l.var().index()]);
                                self.cancel_until(0);
                                return SolveResult::Unknown;
                            }
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, Reason::Decision);
                    }
                    None => {
                        // Total assignment: run the theory final check.
                        let model = self.extract_model();
                        self.stats.theory_checks += 1;
                        match theory.final_check(&model) {
                            TheoryVerdict::Consistent => {
                                self.cancel_until(0);
                                return SolveResult::Sat(model);
                            }
                            TheoryVerdict::Lemma(lemma) => {
                                self.stats.theory_lemmas += 1;
                                self.cancel_until(0);
                                if !self.add_clause(lemma) {
                                    return SolveResult::Unsat;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Builds an unsat core when a conflict occurs inside the assumption
    /// prefix: walk the implication graph from the conflict clause.
    fn build_core_from_conflict(&mut self, confl: ClauseId) {
        self.conflict_core.clear();
        let mut stack: Vec<Lit> = self.lits(confl).to_vec();
        // Visited variables are marked in `seen` and listed for clearing.
        let mut visited: Vec<Var> = Vec::new();
        while let Some(l) = stack.pop() {
            let v = l.var();
            if self.seen[v.index()] || self.level[v.index()] == 0 {
                continue;
            }
            self.seen[v.index()] = true;
            visited.push(v);
            match self.reason[v.index()] {
                Reason::Decision => {
                    // An assumption.
                    self.conflict_core.push(!l);
                }
                Reason::Clause(c) => {
                    for &q in self.lits(c) {
                        if q.var() != v {
                            stack.push(q);
                        }
                    }
                }
            }
        }
        for v in visited {
            self.seen[v.index()] = false;
        }
    }

    fn extract_model(&self) -> Model {
        Model {
            values: (0..self.num_vars())
                .map(|v| self.lit_value(Var(v).positive()) == LBool::True)
                .collect(),
        }
    }
}

/// The Luby restart sequence (1-indexed): 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(i: u64) -> u64 {
    debug_assert!(i >= 1);
    let mut x = i - 1; // 0-indexed position
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Max-heap over variables keyed by activity, with a position index for
/// O(log n) increase-key. Ties break toward the smaller variable index, so
/// the order is total: every exact heap pops the same variable, and runs
/// are deterministic. Each entry carries a copy of its variable's
/// activity, so a sift compares neighbouring memory.
struct IndexedHeap {
    heap: Vec<HeapEntry>,
    /// Position of each variable in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>, // indexed by var
}

#[derive(Clone, Copy)]
struct HeapEntry {
    act: f64,
    var: Var,
}

impl HeapEntry {
    /// True iff `self` pops before `other`.
    #[inline]
    fn before(self, other: HeapEntry) -> bool {
        self.act > other.act || (self.act == other.act && self.var.0 < other.var.0)
    }
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl IndexedHeap {
    fn new() -> IndexedHeap {
        IndexedHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Adds `v` with activity `act` unless it is already in the heap.
    fn insert(&mut self, v: Var, act: f64) {
        if self.pos.len() <= v.index() {
            self.pos.resize(v.index() + 1, NOT_IN_HEAP);
        }
        if self.pos[v.index()] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(HeapEntry { act, var: v });
        self.sift_up(self.heap.len() - 1);
    }

    /// Raises the activity of `v`, if it is in the heap, to `act`.
    fn update(&mut self, v: Var, act: f64) {
        match self.pos.get(v.index()) {
            Some(&i) if i != NOT_IN_HEAP => {
                self.heap[i as usize].act = act;
                self.sift_up(i as usize);
            }
            _ => {}
        }
    }

    fn pop(&mut self) -> Option<Var> {
        let last = self.heap.pop()?;
        self.pos[last.var.index()] = NOT_IN_HEAP;
        let Some(root) = self.heap.first_mut() else {
            return Some(last.var);
        };
        let top = std::mem::replace(root, last).var;
        self.pos[top.index()] = NOT_IN_HEAP;
        self.sift_down(0);
        Some(top)
    }

    /// Multiplies every activity copy by `factor`, as the solver scales
    /// its activity array, so the copies stay bit-identical to it.
    /// Rounding can make two activities equal, after which the index
    /// decides, so the order is rebuilt.
    fn rescale(&mut self, factor: f64) {
        for e in &mut self.heap {
            e.act *= factor;
        }
        self.heapify();
    }

    /// Drops the variables `keep` rejects and restores the heap order.
    fn retain(&mut self, mut keep: impl FnMut(Var) -> bool) {
        let pos = &mut self.pos;
        self.heap.retain(|e| {
            let kept = keep(e.var);
            if !kept {
                pos[e.var.index()] = NOT_IN_HEAP;
            }
            kept
        });
        self.heapify();
    }

    /// Restores the heap order over the whole array (Floyd's bottom-up
    /// construction, O(n)).
    fn heapify(&mut self) {
        for (i, e) in self.heap.iter().enumerate() {
            self.pos[e.var.index()] = i as u32;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` up: parents it outranks move down into the
    /// hole it leaves.
    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !e.before(p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.var.index()] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.var.index()] = i as u32;
    }

    /// Moves the entry at `i` down: the children that outrank it move up
    /// into the hole it leaves.
    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].before(self.heap[child]) {
                child += 1;
            }
            let c = self.heap[child];
            if !c.before(e) {
                break;
            }
            self.heap[i] = c;
            self.pos[c.var.index()] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.var.index()] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Var(v).lit(pos)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        let m = s.solve().model().unwrap();
        assert!(m.value(Var(0)));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(0, false)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_db_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn added_clauses_are_normalized_before_storing() {
        let mut s = Solver::new();
        assert!(s.add_clause([lit(0, true)]));
        // A tautology, and a clause the level-0 fact x0 satisfies.
        assert!(s.add_clause([lit(1, true), lit(2, true), lit(1, false)]));
        assert!(s.add_clause([lit(2, true), lit(0, true)]));
        assert_eq!(s.num_clauses(), 0);
        // ¬x0 is false at level 0 and x1 repeats: stored as x1 ∨ x2.
        assert!(s.add_clause([lit(2, true), lit(0, false), lit(1, true), lit(1, true)]));
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.lits(0), [lit(1, true), lit(2, true)]);
        // Down to one literal: a unit, propagated rather than stored.
        assert!(s.add_clause([lit(0, false), lit(3, false)]));
        assert_eq!(s.num_clauses(), 1);
        let m = s.solve().model().unwrap();
        assert!(m.value(Var(0)) && !m.value(Var(3)));
        // Down to no literal: unsatisfiable.
        assert!(!s.add_clause([lit(0, false)]));
    }

    #[test]
    fn chain_propagation() {
        // x0 & (x_i -> x_{i+1}) forces all true.
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        for i in 0..20 {
            s.add_clause([lit(i, false), lit(i + 1, true)]);
        }
        let m = s.solve().model().unwrap();
        for i in 0..21 {
            assert!(m.value(Var(i)), "x{i}");
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // Parity cycle with odd total parity is unsatisfiable:
        // a^b=1, b^c=1 imply a^c=0, so also requiring a^c=1 conflicts.
        let mut s = Solver::new();
        let xor = |s: &mut Solver, a: u32, b: u32, val: bool| {
            if val {
                s.add_clause([lit(a, true), lit(b, true)]);
                s.add_clause([lit(a, false), lit(b, false)]);
            } else {
                s.add_clause([lit(a, true), lit(b, false)]);
                s.add_clause([lit(a, false), lit(b, true)]);
            }
        };
        xor(&mut s, 0, 1, true);
        xor(&mut s, 1, 2, true);
        xor(&mut s, 0, 2, true);
        assert!(s.solve().is_unsat());
    }

    /// Pigeonhole principle PHP(n+1, n) is a classic hard UNSAT family.
    fn pigeonhole(holes: u32) -> Solver {
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| Var(p * holes + h);
        let mut s = Solver::new();
        // Every pigeon in some hole.
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            let mut s = pigeonhole(holes);
            assert!(s.solve().is_unsat(), "PHP({}, {holes})", holes + 1);
        }
    }

    #[test]
    fn pigeonhole_exact_fit_sat() {
        // n pigeons, n holes is satisfiable.
        let holes = 5u32;
        let var = |p: u32, h: u32| Var(p * holes + h);
        let mut s = Solver::new();
        for p in 0..holes {
            s.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in (p1 + 1)..holes {
                    s.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(s.solve_with_assumptions(&[lit(0, false)]).is_sat());
        assert!(s
            .solve_with_assumptions(&[lit(0, false), lit(1, false)])
            .is_unsat());
        // Solver is reusable after assumption UNSAT.
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[lit(0, true)]).is_sat());
    }

    #[test]
    fn unsat_core_is_subset_of_assumptions() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(1, false)]); // !a | !b
        let assumptions = [lit(2, true), lit(0, true), lit(1, true)];
        assert!(s.solve_with_assumptions(&assumptions).is_unsat());
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "core lit {l} not an assumption");
        }
        // x2 is irrelevant, so a good core excludes it.
        assert!(core.contains(&lit(0, true)) || core.contains(&lit(1, true)));
    }

    #[test]
    fn failed_assumptions_subset_survives_learned_clause_reuse() {
        // A pigeonhole instance plus a relaxation switch r: with r assumed
        // false the PHP clauses bite and the query is UNSAT; the core must
        // name only assumptions that took part.
        let holes = 4u32;
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| Var(1 + p * holes + h);
        let r = lit(0, true); // relaxation: r | php-clause
        let mut s = Solver::new();
        for p in 0..pigeons {
            let mut c: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            c.push(r);
            s.add_clause(c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([var(p1, h).negative(), var(p2, h).negative(), r]);
                }
            }
        }
        let spare = Var(1 + pigeons * holes).positive();
        let assumptions = [spare, !r];
        assert!(s.solve_with_assumptions(&assumptions).is_unsat());
        let first_core = s.failed_assumptions().to_vec();
        assert!(!first_core.is_empty());
        for l in &first_core {
            assert!(assumptions.contains(l), "core lit {l} not an assumption");
        }
        assert!(first_core.contains(&!r), "refutation needs !r");
        assert!(!first_core.contains(&spare), "spare lit is irrelevant");

        // Re-running the same query reuses the learnt clauses from the
        // first solve (possibly concluding inside the assumption prefix);
        // the core must still be a subset of the assumptions and still
        // name the relaxation literal.
        assert!(s.solve_with_assumptions(&assumptions).is_unsat());
        let second_core = s.failed_assumptions().to_vec();
        assert!(!second_core.is_empty());
        for l in &second_core {
            assert!(assumptions.contains(l), "core lit {l} not an assumption");
        }
        assert!(second_core.contains(&!r));
        assert!(!second_core.contains(&spare));
        // And flipping the relaxation on is SAT — the solver state is not
        // poisoned by the two UNSAT answers.
        assert!(s.solve_with_assumptions(&[spare, r]).is_sat());
    }

    #[test]
    fn failed_assumptions_empty_after_assumption_free_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(0, false)]);
        assert!(s.solve().is_unsat());
        assert!(s.failed_assumptions().is_empty());
        // Same for a level-0 refutation reached with assumptions passed
        // but irrelevant: a DB-only UNSAT leaves no failed assumptions.
        let mut s2 = Solver::new();
        s2.add_clause([lit(0, true), lit(1, true)]);
        s2.add_clause([lit(0, true), lit(1, false)]);
        s2.add_clause([lit(0, false), lit(1, true)]);
        s2.add_clause([lit(0, false), lit(1, false)]);
        let r = s2.solve_with_assumptions(&[lit(2, true)]);
        assert!(r.is_unsat());
        for l in s2.failed_assumptions() {
            assert_eq!(*l, lit(2, true), "only passed assumptions may appear");
        }
    }

    #[test]
    fn expired_deadline_checked_at_solve_entry() {
        // A trivially satisfiable query must still return Unknown when its
        // deadline has already passed: the in-loop polls (every 256
        // conflicts) never fire on easy instances, so without the entry
        // check a caller sweeping many easy queries could overshoot its
        // budget arbitrarily.
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        let r = s.solve_limited(
            &[],
            Limits {
                deadline: Some(Instant::now()),
                ..Limits::NONE
            },
        );
        assert!(matches!(r, SolveResult::Unknown));
        // Without the expired deadline the same query is Sat.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish structured instance solved and cross-checked.
        let mut cnf = verdict_logic::Cnf::new();
        let n = 12u32;
        for i in 0..n {
            cnf.add_clause([
                Var(i).positive(),
                Var((i + 1) % n).negative(),
                Var((i + 5) % n).positive(),
            ]);
            cnf.add_clause([Var(i).negative(), Var((i + 3) % n).positive()]);
        }
        let mut s = Solver::from_cnf(&cnf);
        let m = s.solve().model().unwrap();
        assert!(cnf.eval(m.as_slice()));
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(0, false)]);
        let m = s.solve().model().unwrap();
        assert!(m.value(Var(1)));
        s.add_clause([lit(1, false)]);
        assert!(s.solve().is_unsat());
        // Once level-0 UNSAT, stays UNSAT.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        let mut s = pigeonhole(8);
        let r = s.solve_limited(
            &[],
            Limits {
                max_conflicts: Some(5),
                ..Limits::NONE
            },
        );
        assert!(matches!(r, SolveResult::Unknown));
    }

    #[test]
    fn pre_raised_stop_flag_returns_unknown() {
        let mut s = pigeonhole(8);
        let stop = Arc::new(AtomicBool::new(true));
        let r = s.solve_limited(
            &[],
            Limits {
                stop: Some(stop),
                ..Limits::NONE
            },
        );
        assert!(matches!(r, SolveResult::Unknown));
        // The solver stays usable after an interrupted solve.
        let mut easy = Solver::new();
        easy.add_clause([lit(0, true)]);
        assert!(easy.solve().is_sat());
    }

    #[test]
    fn stop_flag_cancels_running_solve() {
        // Raise the flag from another thread mid-solve; the solver must
        // come back Unknown promptly instead of finishing PHP(11,10).
        let mut s = pigeonhole(10);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            flag.store(true, Ordering::Relaxed);
        });
        let r = s.solve_limited(
            &[],
            Limits {
                stop: Some(stop),
                ..Limits::NONE
            },
        );
        raiser.join().unwrap();
        assert!(matches!(r, SolveResult::Unknown));
    }

    #[test]
    fn theory_hook_drives_lemmas() {
        // Theory: "x0 and x1 cannot both be true" expressed only via hook.
        struct AtMostOne;
        impl TheoryHook for AtMostOne {
            fn final_check(&mut self, model: &Model) -> TheoryVerdict {
                if model.value(Var(0)) && model.value(Var(1)) {
                    TheoryVerdict::Lemma(vec![Var(0).negative(), Var(1).negative()])
                } else {
                    TheoryVerdict::Consistent
                }
            }
        }
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        s.reserve_vars(2);
        let r = s.solve_with_theory(&[], &mut AtMostOne, Limits::NONE);
        let m = r.model().unwrap();
        assert!(m.value(Var(0)) && !m.value(Var(1)));
        assert!(s.stats().theory_lemmas <= 1);
    }

    #[test]
    fn decision_interrupted_at_the_poll_stays_decidable() {
        // The decision poll fires after the next variable has left the
        // heap; a later solve on the same solver must still decide it.
        struct StopAtFirstModel(Arc<AtomicBool>);
        impl TheoryHook for StopAtFirstModel {
            fn final_check(&mut self, model: &Model) -> TheoryVerdict {
                self.0.store(true, Ordering::Relaxed);
                TheoryVerdict::Lemma(vec![Var(0).lit(!model.value(Var(0)))])
            }
        }
        // 300 free variables: the first model takes 300 decisions (one
        // poll), and the poll after the lemma lands 212 decisions later,
        // with 88 variables still unassigned.
        let mut s = Solver::new();
        s.reserve_vars(300);
        let stop = Arc::new(AtomicBool::new(false));
        let r = s.solve_with_theory(
            &[],
            &mut StopAtFirstModel(stop.clone()),
            Limits {
                stop: Some(stop),
                ..Limits::NONE
            },
        );
        assert!(matches!(r, SolveResult::Unknown));
        assert_eq!(s.stats().theory_lemmas, 1);
        assert_eq!(s.stats().decisions, 300 + 212);
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[lit(299, true)]).is_sat());
    }

    #[test]
    fn theory_hook_can_force_unsat() {
        struct Never;
        impl TheoryHook for Never {
            fn final_check(&mut self, model: &Model) -> TheoryVerdict {
                // Reject every model by blocking it.
                let lemma = (0..model.as_slice().len() as u32)
                    .map(|i| Var(i).lit(!model.value(Var(i))))
                    .collect();
                TheoryVerdict::Lemma(lemma)
            }
        }
        let mut s = Solver::new();
        s.reserve_vars(3);
        let r = s.solve_with_theory(&[], &mut Never, Limits::NONE);
        assert!(r.is_unsat());
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn clause_limit_returns_unknown() {
        let mut s = pigeonhole(8);
        let n = s.num_clauses();
        let r = s.solve_limited(
            &[],
            Limits {
                max_clauses: Some(n + 3),
                ..Limits::NONE
            },
        );
        assert!(matches!(r, SolveResult::Unknown));
        assert!(s.num_clauses() >= n);
        // Without the ceiling the same instance still resolves.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn proof_log_certifies_unsat() {
        use crate::proof::check_proof;
        for holes in 2..=5 {
            let pigeons = holes + 1;
            let var = |p: u32, h: u32| Var(p * holes + h);
            let mut s = Solver::new();
            s.enable_proof();
            for p in 0..pigeons {
                s.add_clause((0..holes).map(|h| var(p, h).positive()));
            }
            for h in 0..holes {
                for p1 in 0..pigeons {
                    for p2 in (p1 + 1)..pigeons {
                        s.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                    }
                }
            }
            assert!(s.solve().is_unsat());
            let proof = s.take_proof();
            assert!(check_proof(&proof).is_ok(), "PHP({}, {holes})", holes + 1);
        }
    }

    #[test]
    fn proof_log_covers_level_zero_unsat() {
        use crate::proof::check_proof;
        let mut s = Solver::new();
        s.enable_proof();
        s.add_clause([lit(0, true), lit(1, true)]);
        s.add_clause([lit(0, false)]);
        s.add_clause([lit(1, false)]);
        assert!(s.solve().is_unsat());
        assert!(check_proof(&s.take_proof()).is_ok());
    }

    #[test]
    fn proof_log_with_db_reduction_still_checks() {
        use crate::proof::check_proof;
        // Big enough to trigger restarts; deletions (if any) must be
        // reflected in the log so the checker sees the same database.
        let holes = 7u32;
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| Var(p * holes + h);
        let mut s = Solver::new();
        s.enable_proof();
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        let proof = s.take_proof();
        assert!(check_proof(&proof).is_ok());
    }

    /// Checks every structural invariant of the heap against the
    /// activity array it copies.
    fn check_heap(h: &IndexedHeap, act: &[f64]) {
        for (i, e) in h.heap.iter().enumerate() {
            assert_eq!(h.pos[e.var.index()], i as u32, "position of {}", e.var.0);
            assert_eq!(e.act.to_bits(), act[e.var.index()].to_bits());
            if i > 0 {
                assert!(!e.before(h.heap[(i - 1) / 2]), "heap order at {i}");
            }
        }
        let members = h.pos.iter().filter(|&&p| p != NOT_IN_HEAP).count();
        assert_eq!(members, h.heap.len());
    }

    #[test]
    fn heap_pops_match_an_ordered_model() {
        use std::cmp::Reverse;
        use std::collections::BTreeSet;
        use verdict_prng::Prng;
        // The model orders (activity, then the smaller index) through the
        // activity's bits, which order like the values for non-negative
        // floats: its last element is the variable the heap must pop.
        let key = |act: &[f64], v: u32| (act[v as usize].to_bits(), Reverse(v));
        let n = 40u32;
        // Subnormal and repeated increments make ties: equal activities,
        // and activities a rescale rounds together or down to zero.
        let increments = [1.0, 1.0, 0.5, 3.0, 1e-310];
        for seed in 0..8u64 {
            let mut rng = Prng::seed_from_u64(seed);
            let mut act = vec![0.0f64; n as usize];
            let mut heap = IndexedHeap::new();
            let mut model: BTreeSet<(u64, Reverse<u32>)> = BTreeSet::new();
            for v in 0..n {
                heap.insert(Var(v), 0.0);
                model.insert(key(&act, v));
            }
            for _ in 0..20_000 {
                let v = rng.gen_index(n as usize) as u32;
                match rng.gen_index(11) {
                    0..=1 => {
                        heap.insert(Var(v), act[v as usize]);
                        model.insert(key(&act, v));
                    }
                    2..=5 => {
                        let was = model.remove(&key(&act, v));
                        act[v as usize] += increments[rng.gen_index(increments.len())];
                        heap.update(Var(v), act[v as usize]);
                        if was {
                            model.insert(key(&act, v));
                        }
                    }
                    6 => {
                        if rng.gen_percent(10) {
                            let members: Vec<u32> = model.iter().map(|k| k.1 .0).collect();
                            for a in &mut act {
                                *a *= RESCALE_FACTOR;
                            }
                            heap.rescale(RESCALE_FACTOR);
                            model = members.into_iter().map(|v| key(&act, v)).collect();
                        }
                    }
                    7..=9 => {
                        let want = model.pop_last().map(|k| Var(k.1 .0));
                        assert_eq!(heap.pop(), want, "seed {seed}");
                    }
                    _ => {
                        // Prune, as `pick_branch` drops assigned entries.
                        let mask = rng.next_u64();
                        let keep = |v: Var| mask >> (v.0 % 64) & 1 == 1;
                        heap.retain(keep);
                        model.retain(|k| keep(Var(k.1 .0)));
                    }
                }
                check_heap(&heap, &act);
                assert_eq!(heap.len(), model.len());
            }
            while let Some(k) = model.pop_last() {
                assert_eq!(heap.pop(), Some(Var(k.1 .0)), "seed {seed}");
            }
            assert_eq!(heap.pop(), None);
        }
    }

    /// True iff every watcher of clause `cid` carries the binary tag.
    fn watched_as_binary(s: &Solver, cid: ClauseId) -> bool {
        let ws: Vec<Watcher> = s.watches.iter().flatten().copied().collect();
        let mine: Vec<&Watcher> = ws.iter().filter(|w| w.clause() == cid).collect();
        assert_eq!(mine.len(), 2, "clause {cid} has two watchers");
        mine.iter().all(|w| w.binary())
    }

    #[test]
    fn two_literal_import_above_glue_is_deletable() {
        use crate::share::SharedClause;
        let mut s = Solver::new();
        // x2 and x3 are false at level 0, so the peer clause of four
        // literals and LBD 4 is integrated as x0 ∨ x1.
        assert!(s.add_clause([lit(2, false)]));
        assert!(s.add_clause([lit(3, false)]));
        let peer = SharedClause {
            lits: vec![lit(0, true), lit(1, true), lit(2, true), lit(3, true)],
            lbd: 4,
            prefix_len: 0,
            prefix_hash: 0,
        };
        assert!(s.integrate_shared(peer));
        let import = (s.num_clauses() - 1) as ClauseId;
        assert_eq!(s.lits(import), [lit(0, true), lit(1, true)]);
        assert!(
            !watched_as_binary(&s, import),
            "LBD 4 keeps the general path"
        );
        // A better-ranked learnt clause, so reduction's worse half is the
        // import alone.
        s.reserve_vars(7);
        let other = s.attach_clause(&[lit(4, true), lit(5, true), lit(6, true)], true, 3, false);
        s.reduce_db();
        assert!(s.clauses[import as usize].deleted);
        assert!(!s.clauses[other as usize].deleted);
        // With x0 false the deleted clause would imply x1; it must not.
        s.trail_lim.push(s.trail.len());
        s.enqueue(lit(0, false), Reason::Decision);
        assert!(s.propagate().is_none());
        assert_eq!(s.lit_value(lit(1, true)), LBool::Undef);
        assert_eq!(s.stats.import_hits, 0);
        assert!(s.watches[lit(0, false).index()]
            .iter()
            .all(|w| w.clause() != import));
    }

    #[test]
    fn binary_import_counts_its_hits() {
        use crate::share::{ClauseHub, SharedClause};
        let hub = ClauseHub::new(2);
        let mut s = Solver::new();
        assert!(s.attach_sharing(hub.endpoint().unwrap()));
        let peer = SharedClause {
            lits: vec![lit(0, true), lit(1, true)],
            lbd: 2,
            prefix_len: 0,
            prefix_hash: 0,
        };
        assert!(s.integrate_shared(peer));
        assert!(watched_as_binary(&s, 0));
        // Propagating x1 from the watcher alone still counts the hit.
        s.trail_lim.push(s.trail.len());
        s.enqueue(lit(0, false), Reason::Decision);
        assert!(s.propagate().is_none());
        assert_eq!(s.lit_value(lit(1, true)), LBool::True);
        assert_eq!(s.stats.import_hits, 1);
        // So does a conflict, which leaves the pair in the arena as
        // [other literal, falsified literal] for conflict analysis: x0 is
        // propagated false first, so x1 leads.
        s.cancel_until(0);
        s.trail_lim.push(s.trail.len());
        s.enqueue(lit(0, false), Reason::Decision);
        s.enqueue(lit(1, false), Reason::Decision);
        assert_eq!(s.propagate(), Some(0));
        assert_eq!(s.lits(0), [lit(1, true), lit(0, true)]);
        assert_eq!(s.stats.import_hits, 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = pigeonhole(5);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }
}
