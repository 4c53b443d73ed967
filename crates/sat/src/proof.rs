//! DRUP-style clause proofs and an independent checker.
//!
//! When proof logging is enabled ([`crate::Solver::enable_proof`]), the
//! solver records every original clause it is given, every clause it
//! learns, and every learnt clause it deletes. A refutation ends with the
//! empty clause. The log is exactly a DRUP (Delete Reverse Unit
//! Propagation) proof: each learnt clause must be derivable from the
//! clauses active at that point by unit propagation alone — assert the
//! negation of every literal in the learnt clause, propagate, and demand a
//! conflict.
//!
//! [`check_proof`] replays the log forward, as DRAT-trim's forward mode
//! does (Wetzler, Heule & Hunt, SAT 2014). Clauses are stored sorted and
//! deduplicated, back to back in one literal arena; each clause of two or
//! more literals is watched by two of them, and unit and empty clauses
//! are kept in lists of their own. What the active clauses propagate with
//! nothing assumed is kept as a level-0 trail between lemmas: a lemma
//! check extends it with the lemma's negated literals, propagates, and
//! truncates it back. A `Delete` may remove the reason for a level-0
//! literal, so it invalidates the trail, which is rebuilt from the active
//! unit clauses at the next lemma. The index that finds a deleted clause
//! is built at the first `Delete`; proofs without deletions never pay for
//! it.
//!
//! The checker is a second, independent propagator: it shares no code
//! with the CDCL search in [`crate::solver`], so a bug in the solver's
//! watched literals, conflict analysis, or clause minimization cannot
//! also hide in the checker. The previous checker, which rescanned every
//! active clause until a pass assigned nothing, is kept in the tests as
//! the reference this one is differentially tested against.
//!
//! Theory lemmas from DPLL(T) enter the solver through `add_clause` and are
//! therefore recorded as *inputs* (axioms): they are valid in the theory,
//! not propositionally derivable, so the checker treats them the same way
//! it treats user clauses. A proof checked here certifies "UNSAT given the
//! recorded inputs".

use std::collections::HashMap;

use verdict_logic::Lit;

/// One entry in a clause-proof log, in emission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofEvent {
    /// An original (or theory-lemma) clause added to the database. Axiom.
    Input(Vec<Lit>),
    /// A clause the solver learnt; must pass reverse unit propagation.
    Learn(Vec<Lit>),
    /// A learnt clause removed from the database; the checker drops it so
    /// later RUP checks run against the clauses the solver actually had.
    Delete(Vec<Lit>),
}

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// A `Learn` clause is not a reverse-unit-propagation consequence of
    /// the active database. Payload: event index and the offending clause.
    NotRup(usize, Vec<Lit>),
    /// A `Delete` event names a clause that is not active.
    UnknownDelete(usize, Vec<Lit>),
    /// The log never derives the empty clause, so it proves nothing.
    NoEmptyClause,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::NotRup(i, c) => {
                write!(f, "proof event {i}: clause {c:?} is not RUP")
            }
            ProofError::UnknownDelete(i, c) => {
                write!(f, "proof event {i}: delete of inactive clause {c:?}")
            }
            ProofError::NoEmptyClause => {
                write!(f, "proof does not derive the empty clause")
            }
        }
    }
}

/// Checks a DRUP-style proof log for a refutation.
///
/// Every `Learn` event is verified by reverse unit propagation against the
/// clauses active at that point; `Ok(())` additionally requires that some
/// `Learn` event derives the empty clause (directly, or via a clause whose
/// negated literals propagate to a conflict with nothing assumed — the
/// empty clause is the conventional terminator).
pub fn check_proof(events: &[ProofEvent]) -> Result<(), ProofError> {
    let mut checker = Checker::default();
    let mut refuted = false;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            ProofEvent::Input(c) => checker.add(c),
            ProofEvent::Learn(c) => {
                if !checker.is_rup(c) {
                    return Err(ProofError::NotRup(i, c.clone()));
                }
                if c.is_empty() {
                    refuted = true;
                }
                checker.add(c);
            }
            ProofEvent::Delete(c) => {
                if !checker.delete(c) {
                    return Err(ProofError::UnknownDelete(i, c.clone()));
                }
            }
        }
    }
    if refuted {
        Ok(())
    } else {
        Err(ProofError::NoEmptyClause)
    }
}

/// Three-valued assignment used by the checkers' propagators.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    True,
    False,
    Undef,
}

/// Index of a clause in [`Checker::clauses`].
type ClauseId = u32;

/// A clause of the checker's database: `len` literals at `start` in the
/// arena. For a watched clause the two watched literals come first.
#[derive(Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    active: bool,
}

impl Clause {
    /// Where the clause's literals sit in the arena.
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The forward checker's clause database and level-0 state.
#[derive(Default)]
struct Checker {
    /// Every clause's literals, sorted and deduplicated when added.
    lits: Vec<Lit>,
    clauses: Vec<Clause>,
    /// `watches[l.index()]`: clauses watching `l`, visited when `l`
    /// becomes false. Entries of deleted clauses are dropped lazily.
    watches: Vec<Vec<ClauseId>>,
    /// Every unit clause ever added: the roots of a level-0 rebuild.
    units: Vec<ClauseId>,
    /// Number of active empty clauses.
    empties: usize,
    /// `vals[l.index()]`: the current value of literal `l`.
    vals: Vec<Val>,
    /// Assigned literals in order; between lemma checks, the level-0
    /// trail.
    trail: Vec<Lit>,
    /// Trail entries before `head` have been propagated.
    head: usize,
    /// The level-0 trail hit a conflict: the active clauses refute
    /// themselves by unit propagation, so every lemma is RUP.
    conflict: bool,
    /// A `Delete` ran since the level-0 trail was built.
    stale: bool,
    /// Active clauses by [`set_hash`], built at the first `Delete`.
    index: Option<HashMap<u64, Vec<ClauseId>>>,
}

impl Checker {
    /// Grows the per-literal tables to cover every literal in `lits`.
    fn reserve(&mut self, lits: &[Lit]) {
        let Some(top) = lits.iter().map(|l| l.index() | 1).max() else {
            return;
        };
        if top >= self.vals.len() {
            self.vals.resize(top + 1, Val::Undef);
            self.watches.resize_with(top + 1, Vec::new);
        }
    }

    fn val(&self, l: Lit) -> Val {
        self.vals[l.index()]
    }

    fn assign(&mut self, l: Lit) {
        self.vals[l.index()] = Val::True;
        self.vals[(!l).index()] = Val::False;
        self.trail.push(l);
    }

    /// Unassigns every trail literal from `len` on.
    fn backtrack(&mut self, len: usize) {
        for &l in &self.trail[len..] {
            self.vals[l.index()] = Val::Undef;
            self.vals[(!l).index()] = Val::Undef;
        }
        self.trail.truncate(len);
        self.head = len;
    }

    /// Whether the level-0 trail is current and conflict-free, so that
    /// added clauses must be fitted into it.
    fn live(&self) -> bool {
        !self.stale && !self.conflict
    }

    /// Makes `l` true at level 0 and propagates it, recording a conflict
    /// if `l` is false there or its propagation conflicts.
    fn imply(&mut self, l: Lit) {
        match self.val(l) {
            Val::True => {}
            Val::False => self.conflict = true,
            Val::Undef => {
                self.assign(l);
                self.conflict = !self.propagate();
            }
        }
    }

    /// Adds a clause to the active database, propagating it at level 0
    /// at once if it is unit there.
    fn add(&mut self, clause: &[Lit]) {
        let start = self.lits.len();
        self.lits.extend_from_slice(clause);
        let tail = &mut self.lits[start..];
        tail.sort_unstable();
        let mut len = 0;
        for r in 0..tail.len() {
            if len == 0 || tail[r] != tail[len - 1] {
                tail[len] = tail[r];
                len += 1;
            }
        }
        self.lits.truncate(start + len);
        let id = ClauseId::try_from(self.clauses.len()).expect("fewer than 2^32 proof clauses");
        let end = u32::try_from(self.lits.len()).expect("fewer than 2^32 proof literals");
        // `start <= end`, so it fits as well.
        let start32 = start as u32;
        self.clauses.push(Clause {
            start: start32,
            len: end - start32,
            active: true,
        });
        if let Some(index) = &mut self.index {
            index
                .entry(set_hash(&self.lits[start..]))
                .or_default()
                .push(id);
        }
        // Sorted, a tautology has both polarities of a variable side by
        // side. It is satisfied under every assignment, so it is never
        // watched.
        if self.lits[start..]
            .windows(2)
            .any(|w| w[0].var() == w[1].var())
        {
            return;
        }
        let live = self.live();
        match len {
            0 => {
                self.empties += 1;
                self.conflict = true;
            }
            1 => {
                self.units.push(id);
                let l = self.lits[start];
                self.reserve(&[l]);
                if live {
                    self.imply(l);
                }
            }
            _ => {
                let last = self.lits[start + len - 1];
                self.reserve(&[last]);
                // Watch two literals that are not false at level 0 if
                // there are two. With fewer, the clause is unit or
                // falsified there, and its first literal says which.
                let mut free = 0;
                if live {
                    for k in start..start + len {
                        if self.val(self.lits[k]) != Val::False {
                            self.lits.swap(start + free, k);
                            free += 1;
                            if free == 2 {
                                break;
                            }
                        }
                    }
                }
                self.watches[self.lits[start].index()].push(id);
                self.watches[self.lits[start + 1].index()].push(id);
                if live && free < 2 {
                    self.imply(self.lits[start]);
                }
            }
        }
    }

    /// Propagates the trail from `head`; false on a conflict.
    fn propagate(&mut self) -> bool {
        while self.head < self.trail.len() {
            let false_lit = !self.trail[self.head];
            self.head += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = false;
            while i < ws.len() {
                let id = ws[i];
                i += 1;
                let clause = self.clauses[id as usize];
                if !clause.active {
                    continue;
                }
                let c = &mut self.lits[clause.range()];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                let first = c[0];
                if self.vals[first.index()] == Val::True {
                    ws[kept] = id;
                    kept += 1;
                    continue;
                }
                if let Some(k) = (2..c.len()).find(|&k| self.vals[c[k].index()] != Val::False) {
                    c.swap(1, k);
                    self.watches[c[1].index()].push(id);
                    continue;
                }
                ws[kept] = id;
                kept += 1;
                if self.vals[first.index()] == Val::False {
                    conflict = true;
                    break;
                }
                self.assign(first);
            }
            // Drop the moved and dead watches; after a conflict, keep the
            // unvisited ones.
            ws.drain(kept..i);
            self.watches[false_lit.index()] = ws;
            if conflict {
                return false;
            }
        }
        true
    }

    /// Reverse unit propagation: whether assuming the negation of every
    /// literal of `clause` propagates the active database to a conflict.
    fn is_rup(&mut self, clause: &[Lit]) -> bool {
        if self.stale {
            self.rebuild();
        }
        if self.conflict {
            return true;
        }
        debug_assert_eq!(self.head, self.trail.len(), "level 0 is propagated");
        self.reserve(clause);
        let level0 = self.trail.len();
        let mut rup = false;
        for &l in clause {
            match self.val(l) {
                // Implied at level 0 (or, for a tautology, by an earlier
                // negated literal): assuming its negation conflicts.
                Val::True => {
                    rup = true;
                    break;
                }
                Val::False => {}
                Val::Undef => self.assign(!l),
            }
        }
        if !rup {
            rup = !self.propagate();
        }
        self.backtrack(level0);
        rup
    }

    /// Rebuilds the level-0 trail from the active unit clauses.
    fn rebuild(&mut self) {
        self.backtrack(0);
        self.stale = false;
        let clauses = &self.clauses;
        self.units.retain(|&id| clauses[id as usize].active);
        self.conflict = self.empties > 0;
        for i in 0..self.units.len() {
            if self.conflict {
                break;
            }
            let unit = self.clauses[self.units[i] as usize];
            self.imply(self.lits[unit.start as usize]);
        }
    }

    /// Deactivates one active copy of `clause`; false if there is none.
    fn delete(&mut self, clause: &[Lit]) -> bool {
        let mut key = clause.to_vec();
        key.sort_unstable();
        key.dedup();
        let (clauses, lits) = (&self.clauses, &self.lits);
        let index = self.index.get_or_insert_with(|| {
            let mut index: HashMap<u64, Vec<ClauseId>> = HashMap::new();
            for (id, c) in clauses.iter().enumerate() {
                if c.active {
                    index
                        .entry(set_hash(&lits[c.range()]))
                        .or_default()
                        .push(id as ClauseId);
                }
            }
            index
        });
        let Some(ids) = index.get_mut(&set_hash(&key)) else {
            return false;
        };
        let Some(pos) = ids.iter().position(|&id| {
            let c = clauses[id as usize];
            c.active
                && c.len as usize == key.len()
                && lits[c.range()].iter().all(|l| key.binary_search(l).is_ok())
        }) else {
            return false;
        };
        let id = ids.remove(pos);
        let c = &mut self.clauses[id as usize];
        c.active = false;
        if c.len == 0 {
            self.empties -= 1;
        }
        self.stale = true;
        true
    }
}

/// Hash of a deduplicated literal set that ignores literal order, since
/// watching reorders a clause's literals in the arena.
fn set_hash(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |h, l| {
        // splitmix64's finalizer spreads each literal over all 64 bits.
        let mut z = (l.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h.wrapping_add(z ^ (z >> 31))
    })
}

/// The full-scan checker the forward checker is differentially tested
/// against: it starts every lemma from an empty assignment and rescans
/// every active clause until a pass assigns nothing.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use verdict_logic::Lit;

    use super::{ProofError, ProofEvent, Val};

    /// A clause plus its liveness flag in the checker's database.
    struct Entry {
        lits: Vec<Lit>,
        active: bool,
    }

    fn key(lits: &[Lit]) -> Vec<Lit> {
        let mut k = lits.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Same contract as [`super::check_proof`].
    pub(super) fn check_proof(events: &[ProofEvent]) -> Result<(), ProofError> {
        let mut db: Vec<Entry> = Vec::new();
        // Sorted-deduped clause -> indices of active copies, for deletes.
        let mut index: HashMap<Vec<Lit>, Vec<usize>> = HashMap::new();
        let mut refuted = false;

        for (i, ev) in events.iter().enumerate() {
            match ev {
                ProofEvent::Input(c) => {
                    index.entry(key(c)).or_default().push(db.len());
                    // Store the sorted-deduped form: a clause with a repeated
                    // literal (CNF lowerings emit them) is semantically its
                    // deduped self, and the naive propagator below would
                    // otherwise count the duplicate as a second unassigned
                    // literal and never treat the clause as unit.
                    db.push(Entry {
                        lits: key(c),
                        active: true,
                    });
                }
                ProofEvent::Learn(c) => {
                    if !is_rup(&db, c) {
                        return Err(ProofError::NotRup(i, c.clone()));
                    }
                    if c.is_empty() {
                        refuted = true;
                    }
                    index.entry(key(c)).or_default().push(db.len());
                    db.push(Entry {
                        lits: key(c),
                        active: true,
                    });
                }
                ProofEvent::Delete(c) => {
                    let slot = index
                        .get_mut(&key(c))
                        .and_then(|ids| ids.iter().position(|&id| db[id].active).map(|p| ids[p]));
                    match slot {
                        Some(id) => db[id].active = false,
                        None => return Err(ProofError::UnknownDelete(i, c.clone())),
                    }
                }
            }
        }
        if refuted {
            Ok(())
        } else {
            Err(ProofError::NoEmptyClause)
        }
    }

    /// Reverse unit propagation: assume the negation of every literal in
    /// `clause`, propagate the active database to fixpoint, and report whether
    /// a conflict (empty or all-false clause) is reached.
    fn is_rup(db: &[Entry], clause: &[Lit]) -> bool {
        let mut assign: HashMap<u32, Val> = HashMap::new();
        let set = |assign: &mut HashMap<u32, Val>, l: Lit| -> bool {
            // Returns false on contradiction with an existing assignment.
            let want = if l.is_positive() {
                Val::True
            } else {
                Val::False
            };
            match assign.insert(l.var().0, want) {
                None => true,
                Some(prev) => prev == want,
            }
        };
        let value = |assign: &HashMap<u32, Val>, l: Lit| -> Val {
            match assign.get(&l.var().0) {
                None | Some(Val::Undef) => Val::Undef,
                Some(Val::True) => {
                    if l.is_positive() {
                        Val::True
                    } else {
                        Val::False
                    }
                }
                Some(Val::False) => {
                    if l.is_positive() {
                        Val::False
                    } else {
                        Val::True
                    }
                }
            }
        };

        // Assume the negated clause. A tautologous clause is trivially RUP.
        for &l in clause {
            if !set(&mut assign, !l) {
                return true;
            }
        }

        loop {
            let mut progressed = false;
            for e in db {
                if !e.active {
                    continue;
                }
                let mut unassigned: Option<Lit> = None;
                let mut n_unassigned = 0usize;
                let mut satisfied = false;
                for &l in &e.lits {
                    match value(&assign, l) {
                        Val::True => {
                            satisfied = true;
                            break;
                        }
                        Val::False => {}
                        Val::Undef => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return true, // conflict: clause fully falsified
                    1 => {
                        let u = unassigned.expect("counted one unassigned literal");
                        if !set(&mut assign, u) {
                            return true;
                        }
                        progressed = true;
                    }
                    _ => {}
                }
            }
            if !progressed {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_logic::Var;

    fn l(v: u32, pos: bool) -> Lit {
        Var(v).lit(pos)
    }

    #[test]
    fn hand_built_rup_proof_accepted() {
        // (a | b), (!a | b), (a | !b), (!a | !b) is UNSAT.
        // RUP derivation: learn (b), then (a)... then empty.
        let events = vec![
            ProofEvent::Input(vec![l(0, true), l(1, true)]),
            ProofEvent::Input(vec![l(0, false), l(1, true)]),
            ProofEvent::Input(vec![l(0, true), l(1, false)]),
            ProofEvent::Input(vec![l(0, false), l(1, false)]),
            ProofEvent::Learn(vec![l(1, true)]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(check_proof(&events), Ok(()));
    }

    #[test]
    fn bogus_learn_rejected() {
        let events = vec![
            ProofEvent::Input(vec![l(0, true), l(1, true)]),
            // (x2) is not implied by anything.
            ProofEvent::Learn(vec![l(2, true)]),
            ProofEvent::Learn(vec![]),
        ];
        assert!(matches!(
            check_proof(&events),
            Err(ProofError::NotRup(1, _))
        ));
    }

    #[test]
    fn missing_empty_clause_rejected() {
        let events = vec![
            ProofEvent::Input(vec![l(0, true)]),
            ProofEvent::Input(vec![l(0, false), l(1, true)]),
            ProofEvent::Learn(vec![l(1, true)]),
        ];
        assert_eq!(check_proof(&events), Err(ProofError::NoEmptyClause));
    }

    #[test]
    fn delete_of_unknown_clause_rejected() {
        let events = vec![
            ProofEvent::Input(vec![l(0, true)]),
            ProofEvent::Delete(vec![l(1, true)]),
        ];
        assert!(matches!(
            check_proof(&events),
            Err(ProofError::UnknownDelete(1, _))
        ));
    }

    #[test]
    fn deleted_clause_no_longer_supports_rup() {
        // (a), (!a | b) |- (b) by RUP — but not once (a) is deleted.
        let events = vec![
            ProofEvent::Input(vec![l(0, true)]),
            ProofEvent::Input(vec![l(0, false), l(1, true)]),
            ProofEvent::Delete(vec![l(0, true)]),
            ProofEvent::Learn(vec![l(1, true)]),
        ];
        assert!(matches!(
            check_proof(&events),
            Err(ProofError::NotRup(3, _))
        ));
    }

    #[test]
    fn duplicate_literals_still_propagate() {
        // CNF lowerings emit clauses like (!a | b | b). The checker must
        // treat them as their deduped selves — here (!a | b) and (!a | !b)
        // resolve with (a) to the empty clause, and each RUP step needs
        // the duplicated clause to become unit.
        let events = vec![
            ProofEvent::Input(vec![l(0, true)]),
            ProofEvent::Input(vec![l(0, false), l(1, true), l(1, true)]),
            ProofEvent::Input(vec![l(0, false), l(1, false), l(1, false)]),
            ProofEvent::Learn(vec![l(1, true)]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(check_proof(&events), Ok(()));
    }

    #[test]
    fn tautology_is_trivially_rup() {
        let events = vec![
            ProofEvent::Input(vec![l(0, true), l(0, false)]),
            ProofEvent::Learn(vec![l(1, true), l(1, false)]),
            ProofEvent::Input(vec![l(2, true)]),
            ProofEvent::Input(vec![l(2, false)]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(check_proof(&events), Ok(()));
    }

    /// Checks `events` with both checkers and demands the same result.
    fn both(events: &[ProofEvent]) -> Result<(), ProofError> {
        let forward = check_proof(events);
        assert_eq!(forward, reference::check_proof(events), "{events:?}");
        forward
    }

    #[test]
    fn delete_invalidates_the_level_zero_trail() {
        // (a) puts a, b and c on the level-0 trail. Once (a) is deleted,
        // b is no longer implied: a trail kept across the delete would
        // still find b true and accept the lemma.
        let (a, b, c) = (l(0, true), l(1, true), l(2, true));
        let events = vec![
            ProofEvent::Input(vec![a]),
            ProofEvent::Input(vec![!a, b]),
            ProofEvent::Input(vec![!b, c]),
            ProofEvent::Learn(vec![c]),
            ProofEvent::Delete(vec![a]),
            ProofEvent::Learn(vec![b]),
        ];
        assert_eq!(both(&events), Err(ProofError::NotRup(5, vec![b])));
    }

    #[test]
    fn empty_input_makes_lemmas_rup_until_deleted() {
        let (a, b, c) = (l(0, true), l(1, true), l(2, true));
        let events = vec![
            ProofEvent::Input(vec![a, b]),
            ProofEvent::Input(vec![]),
            ProofEvent::Learn(vec![c]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(both(&events), Ok(()));
        let events = vec![
            ProofEvent::Input(vec![a, b]),
            ProofEvent::Input(vec![]),
            ProofEvent::Learn(vec![c]),
            ProofEvent::Delete(vec![]),
            ProofEvent::Learn(vec![a, b]),
            ProofEvent::Learn(vec![b]),
        ];
        assert_eq!(both(&events), Err(ProofError::NotRup(5, vec![b])));
    }

    #[test]
    fn clause_unit_at_level_zero_propagates_when_added() {
        // When (!a | !b | c) arrives, a and b are already true at level
        // 0, so c must be implied at once: (!c) then refutes the
        // database. A clause that only watched two of its false literals
        // would never be visited again, and the empty clause would fail.
        let (a, b, c, d) = (l(0, true), l(1, true), l(2, true), l(3, true));
        let events = vec![
            ProofEvent::Input(vec![a]),
            ProofEvent::Input(vec![b]),
            ProofEvent::Input(vec![!a, !b, c]),
            ProofEvent::Input(vec![!c]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(both(&events), Ok(()));
        // The same for a clause that arrives as a lemma.
        let events = vec![
            ProofEvent::Input(vec![a]),
            ProofEvent::Input(vec![!a, b]),
            ProofEvent::Input(vec![!b, !a, c]),
            ProofEvent::Input(vec![!c, d]),
            ProofEvent::Learn(vec![!b, d]),
            ProofEvent::Input(vec![!d]),
            ProofEvent::Learn(vec![]),
        ];
        assert_eq!(both(&events), Ok(()));
    }
}

/// Differential tests: the forward checker against the reference scanner
/// on proofs the solver emits and on mutations of them.
#[cfg(test)]
mod differential {
    use verdict_logic::{Lit, Var};
    use verdict_prng::Prng;

    use super::{check_proof, reference, ProofError, ProofEvent};
    use crate::Solver;

    /// The solver's proof log for `clauses` (a refutation if they are
    /// UNSAT, a log without the empty clause if not).
    fn solver_proof(clauses: &[Vec<Lit>]) -> Vec<ProofEvent> {
        let mut s = Solver::new();
        s.enable_proof();
        for c in clauses {
            s.add_clause(c.iter().copied());
        }
        let _ = s.solve();
        s.take_proof()
    }

    /// Random 3-CNF over `vars` variables at clause/variable ratio 4.3,
    /// where random instances turn from SAT to UNSAT.
    fn random_3cnf(rng: &mut Prng, vars: u32) -> Vec<Vec<Lit>> {
        (0..vars * 43 / 10)
            .map(|_| {
                let mut c: Vec<Lit> = Vec::new();
                while c.len() < 3 {
                    let v = Var(rng.gen_index(vars as usize) as u32);
                    if c.iter().all(|l| l.var() != v) {
                        c.push(v.lit(rng.gen_bool()));
                    }
                }
                c
            })
            .collect()
    }

    /// Pigeonhole: `holes + 1` pigeons, `holes` holes.
    fn pigeonhole(holes: u32) -> Vec<Vec<Lit>> {
        let var = |p: u32, h: u32| Var(p * holes + h);
        let mut clauses: Vec<Vec<Lit>> = (0..=holes)
            .map(|p| (0..holes).map(|h| var(p, h).positive()).collect())
            .collect();
        for h in 0..holes {
            for p1 in 0..=holes {
                for p2 in (p1 + 1)..=holes {
                    clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        clauses
    }

    fn clause_of(ev: &ProofEvent) -> &Vec<Lit> {
        match ev {
            ProofEvent::Input(c) | ProofEvent::Learn(c) | ProofEvent::Delete(c) => c,
        }
    }

    /// Positions of the events `keep` selects.
    fn positions(proof: &[ProofEvent], keep: impl Fn(&ProofEvent) -> bool) -> Vec<usize> {
        (0..proof.len()).filter(|&i| keep(&proof[i])).collect()
    }

    fn pick(rng: &mut Prng, from: &[usize]) -> Option<usize> {
        (!from.is_empty()).then(|| from[rng.gen_index(from.len())])
    }

    /// One mutation of each kind, at random positions.
    fn mutants(proof: &[ProofEvent], rng: &mut Prng) -> Vec<(&'static str, Vec<ProofEvent>)> {
        let inputs = positions(proof, |e| matches!(e, ProofEvent::Input(_)));
        let lemmas = positions(
            proof,
            |e| matches!(e, ProofEvent::Learn(c) if !c.is_empty()),
        );
        let clauses = positions(
            proof,
            |e| matches!(e, ProofEvent::Input(c) | ProofEvent::Learn(c) if !c.is_empty()),
        );
        let mut out = Vec::new();
        if let Some(i) = pick(rng, &inputs) {
            let mut p = proof.to_vec();
            p.remove(i);
            out.push(("drop input", p));
        }
        if let Some(i) = pick(rng, &lemmas) {
            let mut p = proof.to_vec();
            if let ProofEvent::Learn(c) = &mut p[i] {
                let k = rng.gen_index(c.len());
                c[k] = !c[k];
            }
            out.push(("flip lemma literal", p));
        }
        if let Some(j) = pick(rng, &lemmas) {
            // Delete, just before lemma j, an earlier clause holding one
            // of its literals: such a clause is where its RUP check can
            // start propagating.
            let lemma = clause_of(&proof[j]);
            let used: Vec<usize> = clauses
                .iter()
                .copied()
                .filter(|&i| i < j && clause_of(&proof[i]).iter().any(|l| lemma.contains(l)))
                .collect();
            if let Some(i) = pick(rng, &used) {
                let mut p = proof.to_vec();
                p.insert(j, ProofEvent::Delete(clause_of(&proof[i]).clone()));
                out.push(("delete needed clause", p));
            }
        }
        if let Some(i) = proof
            .iter()
            .rposition(|e| matches!(e, ProofEvent::Learn(c) if c.is_empty()))
        {
            let mut p = proof.to_vec();
            p.remove(i);
            out.push(("drop empty clause", p));
        }
        if let Some(i) = pick(rng, &clauses) {
            let mut p = proof.to_vec();
            if let ProofEvent::Input(c) | ProofEvent::Learn(c) = &mut p[i] {
                let k = rng.gen_index(c.len());
                let at = rng.gen_index(c.len() + 1);
                c.insert(at, c[k]);
            }
            out.push(("duplicate literal", p));
        }
        if let Some(i) = pick(rng, &clauses) {
            let x = clause_of(&proof[i])[0];
            let mut p = proof.to_vec();
            let at = rng.gen_index(p.len() + 1);
            p.insert(at, ProofEvent::Learn(vec![x, Var(0).positive(), !x]));
            out.push(("tautological lemma", p));
        }
        out
    }

    /// Counts of the results both checkers agreed on.
    #[derive(Default, Debug)]
    struct Tally {
        accepted: usize,
        not_rup: usize,
        unknown_delete: usize,
        no_empty_clause: usize,
    }

    impl Tally {
        fn check(&mut self, what: &str, events: &[ProofEvent]) {
            let forward = check_proof(events);
            assert_eq!(forward, reference::check_proof(events), "{what}");
            match forward {
                Ok(()) => self.accepted += 1,
                Err(ProofError::NotRup(..)) => self.not_rup += 1,
                Err(ProofError::UnknownDelete(..)) => self.unknown_delete += 1,
                Err(ProofError::NoEmptyClause) => self.no_empty_clause += 1,
            }
        }

        /// Checks `proof` and `rounds` rounds of its mutants.
        fn check_with_mutants(
            &mut self,
            what: &str,
            proof: &[ProofEvent],
            rng: &mut Prng,
            rounds: usize,
        ) {
            self.check(what, proof);
            for _ in 0..rounds {
                for (kind, mutant) in mutants(proof, rng) {
                    self.check(&format!("{what}, {kind}"), &mutant);
                }
            }
        }
    }

    #[test]
    fn forward_checker_matches_reference_on_random_3cnf() {
        let mut rng = Prng::seed_from_u64(0x3c4f);
        let mut tally = Tally::default();
        for round in 0..48 {
            let vars = 20 + 10 * (round % 4);
            let proof = solver_proof(&random_3cnf(&mut rng, vars));
            tally.check_with_mutants(
                &format!("3-CNF round {round}, {vars} vars"),
                &proof,
                &mut rng,
                2,
            );
        }
        assert!(tally.accepted > 0 && tally.not_rup > 0, "{tally:?}");
        assert!(tally.no_empty_clause > 0, "{tally:?}");
    }

    #[test]
    fn forward_checker_matches_reference_on_pigeonhole() {
        let mut rng = Prng::seed_from_u64(0x9e0);
        let mut tally = Tally::default();
        for holes in 2..=6 {
            let proof = solver_proof(&pigeonhole(holes));
            tally.check_with_mutants(&format!("PHP({}, {holes})", holes + 1), &proof, &mut rng, 1);
        }
        assert!(tally.accepted >= 5 && tally.not_rup > 0, "{tally:?}");
    }

    /// PHP(8, 7) learns more clauses than the solver keeps, so its proof
    /// deletes half of them at each database reduction. The reference
    /// scanner needs about a minute per check of it unoptimized.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; runs under --release")]
    fn forward_checker_matches_reference_with_deletions() {
        let mut rng = Prng::seed_from_u64(0xde1);
        let proof = solver_proof(&pigeonhole(7));
        assert!(proof.iter().any(|e| matches!(e, ProofEvent::Delete(_))));
        let mut tally = Tally::default();
        tally.check_with_mutants("PHP(8, 7)", &proof, &mut rng, 1);
        assert!(tally.accepted > 0 && tally.not_rup > 0, "{tally:?}");
    }
}
