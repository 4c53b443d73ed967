//! BDD fixpoint engine: complete verification for finite systems.
//!
//! Reached through [`crate::engine::check`] (`EngineKind::Bdd`, and
//! LTL/CTL under `auto` and `kind`):
//!
//! * invariants — forward reachability with onion-ring trace
//!   reconstruction.
//! * CTL — the full logic over the `{EX, EU, EG}` base, with the
//!   system's fairness constraints honored via fair-EG.
//! * LTL — tableau product + Emerson–Lei fair-cycle detection;
//!   counterexample traces are reconstructed by a bounded fair-lasso
//!   search on the product.
//!
//! This engine exhausts the state space, which is what the paper's Fig. 6
//! "verification" runs measure (and why they grow exponentially while
//! falsification stays cheap).

use verdict_bdd::{Bdd, BddManager, VarSet};
use verdict_ts::bits::{self, BoolAlg, Num};
use verdict_ts::{Ctl, Expr, Ltl, Sort, System, Trace, Value, VarId, VarKind};

use crate::result::{Budget, CheckOptions, CheckResult, McError, UnknownReason};
use crate::stats::{Phase, SpanTimer, Stats};
use crate::tableau::violation_product;

/// Node-size cap for merging adjacent per-variable clusters into one
/// partition. Deliberately small: the relation stays per-variable except
/// where updates are trivial (frozen params, domain bits), because early
/// quantification — not cluster count — is what keeps intermediate image
/// products off the monolithic blowup curve.
const PARTITION_NODE_CAP: usize = 50;

/// Floor for the adaptive garbage-collection trigger: below this the
/// arena is too small for a collection pass to matter.
const GC_MIN_TRIGGER: usize = 1 << 12;

/// [`BoolAlg`] adapter over a [`BddManager`] (newtype for coherence).
pub struct BddAlg<'m>(pub &'m mut BddManager);

impl BoolAlg for BddAlg<'_> {
    type B = Bdd;

    fn tt(&mut self) -> Bdd {
        self.0.constant(true)
    }
    fn ff(&mut self) -> Bdd {
        self.0.constant(false)
    }
    fn not(&mut self, a: &Bdd) -> Bdd {
        self.0.not(*a)
    }
    fn and(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.0.and(*a, *b)
    }
    fn or(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.0.or(*a, *b)
    }
    fn xor(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.0.xor(*a, *b)
    }
    fn iff(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.0.iff(*a, *b)
    }
    fn ite(&mut self, c: &Bdd, t: &Bdd, e: &Bdd) -> Bdd {
        self.0.ite(*c, *t, *e)
    }
}

/// Bit width of a finite sort.
fn sort_width(sort: &Sort) -> Result<usize, McError> {
    let card = sort
        .cardinality()
        .ok_or_else(|| McError("BDD engine requires finite sorts".to_string()))?;
    Ok(64 - (card - 1).leading_zeros() as usize)
}

/// One cluster of the partitioned transition relation together with its
/// early-quantification schedule: the variables quantified out right
/// after this partition is conjoined are exactly those no later
/// partition (in chain order) mentions.
#[derive(Clone, Copy)]
struct Partition {
    /// Conjunction of the cluster's update constraints (current + next
    /// vars).
    rel: Bdd,
    /// Current-state vars whose last mention is this partition
    /// (quantified here during [`SymbolicSystem::image`]).
    img_quant: VarSet,
    /// Next-state vars whose last mention is this partition (for
    /// [`SymbolicSystem::preimage`]).
    pre_quant: VarSet,
}

/// Index into the engine's protected-root registry: handles stored there
/// are remapped when a garbage collection invalidates the arena, so
/// fixpoint loops can keep BDDs alive across collections.
#[derive(Clone, Copy, Debug)]
struct RootId(usize);

/// The symbolic encoding of a finite system: interleaved current/next BDD
/// variables per state bit, plus the INIT / TRANS / INVAR BDDs.
pub struct SymbolicSystem<'s> {
    sys: &'s System,
    man: BddManager,
    /// `bit_base[v]` = index of the first bit of variable `v`; bit `j` of
    /// `v` has current BDD var `2*(bit_base[v]+j)` and next var `+1`.
    bit_base: Vec<usize>,
    widths: Vec<usize>,
    total_bits: usize,
    /// ∃-sets and rename maps for image computation.
    current_set: VarSet,
    next_set: VarSet,
    cur_to_next: Vec<(u32, u32)>,
    next_to_cur: Vec<(u32, u32)>,
    /// INIT ∧ INVAR ∧ domains.
    pub init: Bdd,
    /// TRANS ∧ frozen-equality ∧ next-state INVAR/domains — monolithic
    /// mode only; stays `TRUE` when the relation is partitioned.
    pub trans: Bdd,
    /// INVAR ∧ domain constraints (the legal state space).
    pub space: Bdd,
    /// Whether images chain over `partitions` instead of `trans`.
    partitioned: bool,
    partitions: Vec<Partition>,
    /// Current-state vars no partition mentions: quantified out of the
    /// source set before the image chain starts.
    img_prequant: VarSet,
    /// Next-state vars no partition mentions (preimage counterpart).
    pre_prequant: VarSet,
    /// Garbage collection fires when the arena outgrows this many
    /// nodes (re-armed to 4× the post-collection live set).
    gc_trigger: usize,
    /// Caller-held handles that must survive a garbage collection (stack
    /// discipline: see [`SymbolicSystem::protect`]).
    protected: Vec<Bdd>,
    /// Care set for expression lowering: when set, every intermediate
    /// boolean BDD is simplified against it (sibling substitution), so
    /// results are only trusted inside the care set. Installed by
    /// [`SymbolicSystem::expr_bdd_within`].
    care: Option<Bdd>,
    /// Fixpoint iterations performed so far (reachability rings plus
    /// EU/EG rounds); snapshotted into [`Stats::fixpoint_iterations`].
    fixpoints: u64,
}

impl<'s> SymbolicSystem<'s> {
    /// Builds the encoding with default options (partitioned relation,
    /// no node ceiling). Fails on real-sorted variables.
    pub fn new(sys: &'s System) -> Result<SymbolicSystem<'s>, McError> {
        SymbolicSystem::configured(sys, &CheckOptions::default())
    }

    /// Builds the encoding honoring the symbolic-engine knobs in `opts`
    /// (`bdd_partitioned`, `max_bdd_nodes`, and the deadline). The node
    /// ceiling is installed *before* lowering starts, so even encoding a
    /// pathological model cannot blow past it; callers must consult
    /// [`BddManager::limit_exceeded`] before trusting any BDD built here.
    pub fn configured(sys: &'s System, opts: &CheckOptions) -> Result<SymbolicSystem<'s>, McError> {
        sys.check()?;
        let mut man = BddManager::new();
        man.set_node_limit(opts.max_bdd_nodes);
        // The wall-clock deadline is enforced inside the manager too:
        // on models whose *encoding* explodes (a monolithic `and_all`
        // over a wide relation) the grind is inside a single BDD call,
        // where no engine loop ever gets a chance to poll the budget.
        man.set_deadline(opts.deadline());
        let mut bit_base = Vec::with_capacity(sys.num_vars());
        let mut widths = Vec::with_capacity(sys.num_vars());
        let mut total_bits = 0usize;
        for v in sys.var_ids() {
            let w = sort_width(sys.sort_of(v))?;
            bit_base.push(total_bits);
            widths.push(w);
            total_bits += w;
        }
        // Interleaved allocation: current bit 2i, next bit 2i+1.
        for _ in 0..2 * total_bits {
            man.new_var();
        }
        let current_set = man.var_set((0..total_bits).map(|i| 2 * i as u32));
        let next_set = man.var_set((0..total_bits).map(|i| 2 * i as u32 + 1));
        let empty_set = man.var_set([]);
        let cur_to_next: Vec<(u32, u32)> = (0..total_bits)
            .map(|i| (2 * i as u32, 2 * i as u32 + 1))
            .collect();
        let next_to_cur: Vec<(u32, u32)> = (0..total_bits)
            .map(|i| (2 * i as u32 + 1, 2 * i as u32))
            .collect();

        let mut enc = SymbolicSystem {
            sys,
            man,
            bit_base,
            widths,
            total_bits,
            current_set,
            next_set,
            cur_to_next,
            next_to_cur,
            init: Bdd::TRUE,
            trans: Bdd::TRUE,
            space: Bdd::TRUE,
            partitioned: opts.bdd_partitioned,
            partitions: Vec::new(),
            img_prequant: empty_set,
            pre_prequant: empty_set,
            gc_trigger: GC_MIN_TRIGGER,
            protected: Vec::new(),
            care: None,
            fixpoints: 0,
        };

        // Legal state space: domain constraints + INVAR (current vars).
        // Lowering leaves dead intermediates behind; collecting at
        // every stage boundary keeps the arena's high-water mark near
        // the live set instead of the sum of all lowering garbage.
        let mut space = Bdd::TRUE;
        for v in sys.var_ids() {
            let d = enc.domain_constraint(v, false);
            space = enc.man.and(space, d);
        }
        // Each constraint is lowered under the accumulated set as its
        // care set: constraints already conjoined (parameter pins,
        // "nothing failed yet") collapse later ones (deep connectivity
        // expansions) *during* lowering, instead of paying for the
        // exact full-space BDD and then conjoining it away.
        for inv in sys.invar() {
            let b = enc.expr_bdd_within(inv, space)?;
            space = enc.man.and(space, b);
            space = enc.maybe_gc(vec![space])[0];
        }
        enc.space = space;

        // INIT.
        let mut init = space;
        for e in sys.init() {
            let b = enc.expr_bdd_within(e, init)?;
            init = enc.man.and(init, b);
            init = enc.maybe_gc(vec![init])[0];
        }
        enc.init = init;

        // TRANS, as a list of conjuncts: the model's own transition
        // constraints, frozen-variable equalities, and next-state
        // legality (per-variable domain constraints plus renamed INVAR
        // — the monolithic `rename(space)` distributed so each conjunct
        // stays attached to the variables it mentions).
        let mut conjuncts: Vec<Bdd> = Vec::new();
        for e in sys.trans() {
            conjuncts.push(enc.expr_bdd(e)?);
            conjuncts = enc.maybe_gc(conjuncts);
        }
        for v in sys.var_ids() {
            if sys.decl(v).kind == VarKind::Frozen {
                let eq = enc.var_bits_equal_cur_next(v);
                conjuncts.push(eq);
            }
        }
        for v in sys.var_ids() {
            let d = enc.domain_constraint(v, true);
            conjuncts.push(d);
        }
        for inv in sys.invar() {
            let b = enc.expr_bdd(inv)?;
            let map = enc.cur_to_next.clone();
            conjuncts.push(enc.man.rename(b, &map));
            conjuncts = enc.maybe_gc(conjuncts);
        }
        conjuncts.retain(|&c| c != Bdd::TRUE);

        if enc.partitioned {
            enc.build_partitions(&conjuncts);
        } else {
            enc.trans = enc.man.and_all(conjuncts);
        }
        enc.maybe_gc(Vec::new());
        Ok(enc)
    }

    /// Clusters the transition conjuncts into partitions and computes the
    /// early-quantification schedules. Conjuncts are bucketed by the
    /// system variable owning their lowest next-state bit (pure-guard
    /// conjuncts with no next bits ride with their lowest current bit),
    /// then adjacent buckets merge while the merged BDD stays under
    /// [`PARTITION_NODE_CAP`] nodes.
    fn build_partitions(&mut self, conjuncts: &[Bdd]) {
        let mut buckets: Vec<Vec<Bdd>> = vec![Vec::new(); self.sys.num_vars().max(1)];
        for &c in conjuncts {
            let sup = self.support(c);
            let key_bit = sup
                .iter()
                .copied()
                .filter(|b| b % 2 == 1)
                .min()
                .or_else(|| sup.iter().copied().min());
            let key = key_bit.map_or(0, |b| self.owner_var(b));
            buckets[key].push(c);
        }
        let mut rels: Vec<Bdd> = Vec::new();
        for bucket in buckets {
            if bucket.is_empty() {
                continue;
            }
            let r = self.man.and_all(bucket);
            match rels.last().copied() {
                Some(prev) if self.man.size(prev) + self.man.size(r) <= PARTITION_NODE_CAP => {
                    let merged = self.man.and(prev, r);
                    *rels.last_mut().expect("nonempty") = merged;
                }
                _ => rels.push(r),
            }
        }
        if rels.is_empty() {
            // Fully unconstrained system: one trivial partition keeps the
            // image chain well-formed.
            rels.push(Bdd::TRUE);
        }
        // The bucket conjunctions are done with the raw conjuncts;
        // collect their garbage before the supports are computed.
        let rels = self.maybe_gc(rels);
        let k = rels.len();
        let sups: Vec<std::collections::HashSet<u32>> =
            rels.iter().map(|&r| self.support(r)).collect();
        let mut img_lists: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut pre_lists: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut img_pre: Vec<u32> = Vec::new();
        let mut pre_pre: Vec<u32> = Vec::new();
        for i in 0..self.total_bits {
            let cur = 2 * i as u32;
            let next = cur + 1;
            match (0..k).rev().find(|&j| sups[j].contains(&cur)) {
                Some(j) => img_lists[j].push(cur),
                None => img_pre.push(cur),
            }
            match (0..k).rev().find(|&j| sups[j].contains(&next)) {
                Some(j) => pre_lists[j].push(next),
                None => pre_pre.push(next),
            }
        }
        self.img_prequant = self.man.var_set(img_pre);
        self.pre_prequant = self.man.var_set(pre_pre);
        self.partitions = Vec::with_capacity(k);
        for ((rel, img), pre) in rels.into_iter().zip(img_lists).zip(pre_lists) {
            let img_quant = self.man.var_set(img);
            let pre_quant = self.man.var_set(pre);
            self.partitions.push(Partition {
                rel,
                img_quant,
                pre_quant,
            });
        }
    }

    /// The set of BDD variables a function depends on.
    fn support(&self, b: Bdd) -> std::collections::HashSet<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut sup = std::collections::HashSet::new();
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if x.is_constant() || !seen.insert(x) {
                continue;
            }
            let (v, low, high) = self.man.node_parts(x);
            sup.insert(v);
            stack.push(low);
            stack.push(high);
        }
        sup
    }

    /// The system variable owning BDD variable `bdd_var`.
    fn owner_var(&self, bdd_var: u32) -> usize {
        let pos = (bdd_var / 2) as usize;
        // Zero-width variables share a base with their successor; the
        // last base ≤ pos is the owner.
        self.bit_base.partition_point(|&b| b <= pos) - 1
    }

    /// The manager (for node-count diagnostics).
    pub fn manager(&self) -> &BddManager {
        &self.man
    }

    /// Mutable manager access, for callers composing their own boolean
    /// operations over handles obtained from this encoding. Such handles
    /// stay valid only until the encoding's next garbage collection,
    /// which runs during encoding and at the end of every reachability
    /// ring: compose after [`SymbolicSystem::reachable`] returns, or
    /// recompute them.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.man
    }

    /// Why every result this manager now produces is garbage, if it is:
    /// the node ceiling poisons to `ResourceExhausted`, the wall-clock
    /// deadline to `Timeout`. Engines consult this at every phase
    /// boundary before trusting any BDD built since the last check.
    pub fn give_up(&self) -> Option<UnknownReason> {
        if self.man.limit_exceeded() {
            Some(UnknownReason::ResourceExhausted)
        } else if self.man.deadline_exceeded() {
            Some(UnknownReason::Timeout)
        } else {
            None
        }
    }

    /// Total fixpoint iterations performed by this encoding so far.
    pub fn fixpoint_count(&self) -> u64 {
        self.fixpoints
    }

    /// Transition-relation partitions this encoding images over (1 in
    /// monolithic mode).
    pub fn partition_count(&self) -> usize {
        if self.partitioned {
            self.partitions.len()
        } else {
            1
        }
    }

    /// Registers a handle to survive garbage collection: the registry is
    /// remapped alongside the engine's own roots whenever a collection
    /// invalidates the arena. Stack discipline — release with
    /// [`SymbolicSystem::unprotect_to`] in reverse order.
    fn protect(&mut self, b: Bdd) -> RootId {
        self.protected.push(b);
        RootId(self.protected.len() - 1)
    }

    /// The current handle behind a protected slot (fresh after any
    /// collection).
    fn root(&self, id: RootId) -> Bdd {
        self.protected[id.0]
    }

    /// Replaces the handle in a protected slot.
    fn set_root(&mut self, id: RootId, b: Bdd) {
        self.protected[id.0] = b;
    }

    /// Releases `id` and every slot protected after it.
    fn unprotect_to(&mut self, id: RootId) {
        self.protected.truncate(id.0);
    }

    /// Engine-owned handles that must survive a garbage collection:
    /// INIT/TRANS/space, partition relations, and the protected registry
    /// — in that fixed order, which [`Self::install_roots`] mirrors.
    fn engine_roots(&self) -> Vec<Bdd> {
        let mut roots = vec![self.init, self.trans, self.space];
        for p in &self.partitions {
            roots.push(p.rel);
        }
        roots.extend(self.protected.iter().copied());
        roots
    }

    /// Reinstalls the engine roots from a rebuild's remapped handle
    /// list (same order as [`Self::engine_roots`], possibly followed by
    /// caller extras, which are returned remapped).
    fn install_roots(&mut self, remapped: Vec<Bdd>) -> Vec<Bdd> {
        let mut it = remapped.into_iter();
        self.init = it.next().expect("root");
        self.trans = it.next().expect("root");
        self.space = it.next().expect("root");
        for p in &mut self.partitions {
            p.rel = it.next().expect("root");
        }
        for slot in &mut self.protected {
            *slot = it.next().expect("root");
        }
        it.collect()
    }

    /// Collects lowering garbage once the arena has outgrown the live
    /// set. Engine roots and `extras` survive (extras come back
    /// remapped); every other handle is invalidated — callers must not
    /// hold any. Cheap no-op below the adaptive trigger.
    fn maybe_gc(&mut self, extras: Vec<Bdd>) -> Vec<Bdd> {
        debug_assert!(self.care.is_none(), "care-set handle would go stale");
        if self.man.node_count() < self.gc_trigger || self.man.poisoned() {
            return extras;
        }
        let mut roots = self.engine_roots();
        roots.extend(extras.iter().copied());
        let remapped = self.man.gc(&roots);
        let out = self.install_roots(remapped);
        self.gc_trigger = (4 * self.man.node_count()).max(GC_MIN_TRIGGER);
        out
    }

    fn bdd_var_index(&self, v: VarId, bit: usize, next: bool) -> u32 {
        (2 * (self.bit_base[v.index()] + bit) + usize::from(next)) as u32
    }

    fn var_bits(&mut self, v: VarId, next: bool) -> Vec<Bdd> {
        (0..self.widths[v.index()])
            .map(|j| {
                let idx = self.bdd_var_index(v, j, next);
                self.man.var(idx)
            })
            .collect()
    }

    fn domain_constraint(&mut self, v: VarId, next: bool) -> Bdd {
        let card = self.sys.sort_of(v).cardinality().expect("finite");
        if card.is_power_of_two() {
            return Bdd::TRUE;
        }
        let bits = self.var_bits(v, next);
        let mut alg = BddAlg(&mut self.man);
        bits::unsigned_le_const(&mut alg, &bits, card - 1)
    }

    /// Lowers a boolean expression (current and next vars allowed).
    pub fn expr_bdd(&mut self, e: &Expr) -> Result<Bdd, McError> {
        // Per-call pointer memo: expressions are shared DAGs and BDD
        // results are canonical, so caching by node identity is exact.
        let mut seen = std::collections::HashMap::new();
        Ok(self.lower_bool(e, &mut seen))
    }

    /// Lowers a boolean expression under a care set: every intermediate
    /// boolean BDD is simplified by sibling substitution against
    /// `care`, so the result agrees with the exact lowering *inside*
    /// `care` and is unconstrained elsewhere. Lowering a property
    /// against the already-computed reachable set this way sidesteps
    /// the full-space blowup of order-hostile formulas (deep
    /// connectivity expansions, view-vs-truth comparators) whose exact
    /// BDDs dwarf the reachable set itself.
    pub fn expr_bdd_within(&mut self, e: &Expr, care: Bdd) -> Result<Bdd, McError> {
        self.care = Some(care);
        let r = self.expr_bdd(e);
        self.care = None;
        r
    }

    fn lower_bool(
        &mut self,
        e: &Expr,
        seen: &mut std::collections::HashMap<*const Expr, Bdd>,
    ) -> Bdd {
        let key = e as *const Expr;
        if let Some(&hit) = seen.get(&key) {
            return hit;
        }
        let mut result = self.lower_bool_uncached(e, seen);
        if let Some(care) = self.care {
            result = self.man.simplify(result, care);
        }
        seen.insert(key, result);
        result
    }

    fn lower_bool_uncached(
        &mut self,
        e: &Expr,
        seen: &mut std::collections::HashMap<*const Expr, Bdd>,
    ) -> Bdd {
        match e {
            Expr::Const(Value::Bool(b)) => self.man.constant(*b),
            Expr::Var(v) => self.bool_bit(*v, false),
            Expr::Next(v) => self.bool_bit(*v, true),
            Expr::Not(a) => {
                let a = self.lower_bool(a, seen);
                self.man.not(a)
            }
            Expr::And(xs) => {
                let mut acc = Bdd::TRUE;
                for x in xs.iter() {
                    let b = self.lower_bool(x, seen);
                    acc = self.man.and(acc, b);
                }
                acc
            }
            Expr::Or(xs) => {
                let mut acc = Bdd::FALSE;
                for x in xs.iter() {
                    let b = self.lower_bool(x, seen);
                    acc = self.man.or(acc, b);
                }
                acc
            }
            Expr::Implies(a, b) => {
                let a = self.lower_bool(a, seen);
                let b = self.lower_bool(b, seen);
                self.man.implies(a, b)
            }
            Expr::Iff(a, b) => {
                let a = self.lower_bool(a, seen);
                let b = self.lower_bool(b, seen);
                self.man.iff(a, b)
            }
            Expr::Ite(c, t, f) => {
                let c = self.lower_bool(c, seen);
                let t = self.lower_bool(t, seen);
                let f = self.lower_bool(f, seen);
                self.man.ite(c, t, f)
            }
            Expr::Eq(a, b) => {
                let sort = a.sort(self.sys).expect("type-checked");
                match sort {
                    Sort::Bool => {
                        let a = self.lower_bool(a, seen);
                        let b = self.lower_bool(b, seen);
                        self.man.iff(a, b)
                    }
                    Sort::Enum(_) => {
                        let a = self.lower_enum_bits(a, seen);
                        let b = self.lower_enum_bits(b, seen);
                        let mut alg = BddAlg(&mut self.man);
                        bits::bits_eq(&mut alg, &a, &b)
                    }
                    Sort::Int { .. } => {
                        let a = self.lower_num(a, seen);
                        let b = self.lower_num(b, seen);
                        let mut alg = BddAlg(&mut self.man);
                        bits::eq(&mut alg, &a, &b)
                    }
                    Sort::Real => unreachable!("finite engine"),
                }
            }
            Expr::Le(a, b) => {
                let a = self.lower_num(a, seen);
                let b = self.lower_num(b, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::le(&mut alg, &a, &b)
            }
            Expr::Lt(a, b) => {
                let a = self.lower_num(a, seen);
                let b = self.lower_num(b, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::lt(&mut alg, &a, &b)
            }
            other => panic!("boolean lowering of {other}"),
        }
    }

    fn bool_bit(&mut self, v: VarId, next: bool) -> Bdd {
        let idx = self.bdd_var_index(v, 0, next);
        self.man.var(idx)
    }

    fn lower_num(
        &mut self,
        e: &Expr,
        seen: &mut std::collections::HashMap<*const Expr, Bdd>,
    ) -> Num<Bdd> {
        match e {
            Expr::Const(Value::Int(n)) => {
                let mut alg = BddAlg(&mut self.man);
                bits::num_const(&mut alg, *n)
            }
            Expr::Var(v) | Expr::Next(v) => {
                let next = matches!(e, Expr::Next(_));
                let Sort::Int { lo, .. } = *self.sys.sort_of(*v) else {
                    panic!("numeric lowering of non-int var");
                };
                let raw = self.var_bits(*v, next);
                let mut alg = BddAlg(&mut self.man);
                let unsigned = bits::from_unsigned(&mut alg, &raw);
                if lo == 0 {
                    unsigned
                } else {
                    let off = bits::num_const(&mut alg, lo);
                    bits::add(&mut alg, &unsigned, &off)
                }
            }
            Expr::Add(xs) => {
                let mut acc = {
                    let mut alg = BddAlg(&mut self.man);
                    bits::num_const(&mut alg, 0)
                };
                for x in xs.iter() {
                    let n = self.lower_num(x, seen);
                    let mut alg = BddAlg(&mut self.man);
                    acc = bits::add(&mut alg, &acc, &n);
                }
                acc
            }
            Expr::Sub(a, b) => {
                let a = self.lower_num(a, seen);
                let b = self.lower_num(b, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::sub(&mut alg, &a, &b)
            }
            Expr::Neg(a) => {
                let a = self.lower_num(a, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::neg(&mut alg, &a)
            }
            Expr::MulConst(k, a) => {
                let a = self.lower_num(a, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::mul_const(&mut alg, &a, k.numer() as i64)
            }
            Expr::CountTrue(xs) => {
                let flags: Vec<Bdd> = xs.iter().map(|x| self.lower_bool(x, seen)).collect();
                let mut alg = BddAlg(&mut self.man);
                bits::count_true(&mut alg, &flags)
            }
            Expr::Ite(c, a, b) => {
                let c = self.lower_bool(c, seen);
                let a = self.lower_num(a, seen);
                let b = self.lower_num(b, seen);
                let mut alg = BddAlg(&mut self.man);
                bits::mux(&mut alg, &c, &a, &b)
            }
            other => panic!("numeric lowering of {other}"),
        }
    }

    fn lower_enum_bits(
        &mut self,
        e: &Expr,
        seen: &mut std::collections::HashMap<*const Expr, Bdd>,
    ) -> Vec<Bdd> {
        match e {
            Expr::Const(Value::Enum(sort, idx)) => {
                let w = sort_width(&Sort::Enum(sort.clone())).expect("finite");
                (0..w)
                    .map(|i| self.man.constant(idx >> i & 1 == 1))
                    .collect()
            }
            Expr::Var(v) | Expr::Next(v) => self.var_bits(*v, matches!(e, Expr::Next(_))),
            Expr::Ite(c, a, b) => {
                let c = self.lower_bool(c, seen);
                let a = self.lower_enum_bits(a, seen);
                let b = self.lower_enum_bits(b, seen);
                a.into_iter()
                    .zip(b)
                    .map(|(x, y)| self.man.ite(c, x, y))
                    .collect()
            }
            other => panic!("enum lowering of {other}"),
        }
    }

    fn var_bits_equal_cur_next(&mut self, v: VarId) -> Bdd {
        let cur = self.var_bits(v, false);
        let next = self.var_bits(v, true);
        let mut alg = BddAlg(&mut self.man);
        bits::bits_eq(&mut alg, &cur, &next)
    }

    /// Forward image: states reachable in one step from `s`. Partitioned
    /// mode chains `and_exists` over the clusters, quantifying each
    /// current-state variable at its last mention, so no intermediate
    /// product ever carries the full monolithic relation.
    pub fn image(&mut self, s: Bdd) -> Bdd {
        let stepped = if self.partitioned {
            let mut acc = self.man.exists(s, self.img_prequant);
            for i in 0..self.partitions.len() {
                let p = self.partitions[i];
                acc = self.man.and_exists(acc, p.rel, p.img_quant);
            }
            acc
        } else {
            self.man.and_exists(s, self.trans, self.current_set)
        };
        let map = self.next_to_cur.clone();
        self.man.rename(stepped, &map)
    }

    /// Backward image: states with a successor in `s` (same chained
    /// schedule as [`SymbolicSystem::image`], quantifying next-state
    /// variables at their last mention).
    pub fn preimage(&mut self, s: Bdd) -> Bdd {
        let map = self.cur_to_next.clone();
        let s_next = self.man.rename(s, &map);
        if self.partitioned {
            let mut acc = self.man.exists(s_next, self.pre_prequant);
            for i in 0..self.partitions.len() {
                let p = self.partitions[i];
                acc = self.man.and_exists(acc, p.rel, p.pre_quant);
            }
            acc
        } else {
            self.man.and_exists(self.trans, s_next, self.next_set)
        }
    }

    /// Onion rings of reachability from `init`; `None` on timeout,
    /// cancellation, or node-count overflow (consult the budget and
    /// [`BddManager::limit_exceeded`] for which). The rings live in the
    /// protected registry, so the collection at the end of each ring
    /// cannot orphan them.
    pub fn reachable(&mut self, budget: &Budget) -> Option<Vec<Bdd>> {
        let reach_id = self.protect(self.init);
        let mut ring_ids = vec![self.protect(self.init)];
        let ok = loop {
            self.fixpoints += 1;
            if budget.check_nodes(self.man.node_count()).is_some() {
                break false;
            }
            let frontier = self.root(*ring_ids.last().expect("nonempty"));
            let img = self.image(frontier);
            let reach = self.root(reach_id);
            let not_reach = self.man.not(reach);
            let new = self.man.and(img, not_reach);
            // A poisoned manager collapses everything to FALSE — check
            // both poison flags before trusting `new` as a fixpoint
            // witness.
            if self.man.poisoned() {
                break false;
            }
            if new == Bdd::FALSE {
                break true;
            }
            let grown = self.man.or(reach, new);
            self.set_root(reach_id, grown);
            ring_ids.push(self.protect(new));
            // Image chains shed intermediates every iteration; the
            // rings and reach live in the protected registry, so
            // nothing the loop still needs can be collected.
            self.maybe_gc(Vec::new());
        };
        let rings: Vec<Bdd> = ring_ids.iter().map(|&id| self.root(id)).collect();
        self.unprotect_to(reach_id);
        if ok {
            Some(rings)
        } else {
            None
        }
    }

    /// Decodes one concrete state out of a nonempty set.
    pub fn pick_state(&mut self, set: Bdd) -> Vec<Value> {
        let cube = self.man.sat_one(set).expect("nonempty set");
        // Assignments for current bits; unmentioned bits default to 0.
        let mut bits_on = vec![false; self.total_bits];
        for (var, val) in cube {
            if var % 2 == 0 {
                bits_on[(var / 2) as usize] = val;
            }
        }
        self.sys
            .var_ids()
            .map(|v| {
                let base = self.bit_base[v.index()];
                let w = self.widths[v.index()];
                let mut u: u64 = 0;
                for j in 0..w {
                    if bits_on[base + j] {
                        u |= 1 << j;
                    }
                }
                match self.sys.sort_of(v) {
                    Sort::Bool => Value::Bool(u == 1),
                    Sort::Enum(en) => {
                        Value::Enum(en.clone(), (u as u32).min(en.variants.len() as u32 - 1))
                    }
                    Sort::Int { lo, hi } => Value::Int((*lo + u as i64).min(*hi)),
                    Sort::Real => unreachable!(),
                }
            })
            .collect()
    }

    /// Converts a current-state BDD back into a boolean [`Expr`] over the
    /// system's variables, via Shannon expansion over the decision nodes.
    /// A decision on bit `j` of an int/enum variable becomes a disjunction
    /// of the domain values whose offset-binary encoding has that bit set,
    /// so the result mentions only the system's own vocabulary — this is
    /// what lets an independent SAT-based checker re-verify a reachable
    /// set computed symbolically (see [`crate::certify`]).
    pub fn bdd_to_expr(&mut self, b: Bdd) -> Expr {
        let mut memo = std::collections::HashMap::new();
        self.bdd_to_expr_in(b, &mut memo)
    }

    fn bdd_to_expr_in(&mut self, b: Bdd, memo: &mut std::collections::HashMap<Bdd, Expr>) -> Expr {
        if b == Bdd::TRUE {
            return Expr::tt();
        }
        if b == Bdd::FALSE {
            return Expr::ff();
        }
        if let Some(hit) = memo.get(&b) {
            return hit.clone();
        }
        let (var, low, high) = self.man.node_parts(b);
        let cond = self.bit_expr(var);
        let low_e = self.bdd_to_expr_in(low, memo);
        let high_e = self.bdd_to_expr_in(high, memo);
        let e = Expr::ite(cond, high_e, low_e);
        memo.insert(b, e.clone());
        e
    }

    /// The predicate "BDD variable `idx` is true" over the system's
    /// variables. Only current-state bits are convertible.
    fn bit_expr(&self, idx: u32) -> Expr {
        assert!(
            idx.is_multiple_of(2),
            "next-state bit in a current-state BDD"
        );
        let pos = (idx / 2) as usize;
        let v = self
            .sys
            .var_ids()
            .find(|v| {
                let base = self.bit_base[v.index()];
                pos >= base && pos < base + self.widths[v.index()]
            })
            .expect("bit belongs to a declared variable");
        let j = pos - self.bit_base[v.index()];
        match self.sys.sort_of(v) {
            Sort::Bool => Expr::var(v),
            Sort::Int { lo, hi } => Expr::or_all((*lo..=*hi).filter_map(|val| {
                if (val - lo) as u64 >> j & 1 == 1 {
                    Some(Expr::var(v).eq(Expr::int(val)))
                } else {
                    None
                }
            })),
            Sort::Enum(en) => Expr::or_all((0..en.variants.len() as u32).filter_map(|i| {
                if i >> j & 1 == 1 {
                    Some(Expr::var(v).eq(Expr::Const(Value::Enum(en.clone(), i))))
                } else {
                    None
                }
            })),
            Sort::Real => unreachable!("finite engine"),
        }
    }

    /// BDD of the single concrete state `state` (current vars).
    pub fn state_bdd(&mut self, state: &[Value]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for v in self.sys.var_ids() {
            let u: u64 = match &state[v.index()] {
                Value::Bool(b) => u64::from(*b),
                Value::Int(n) => {
                    let Sort::Int { lo, .. } = self.sys.sort_of(v) else {
                        unreachable!()
                    };
                    (n - lo) as u64
                }
                Value::Enum(_, i) => u64::from(*i),
                Value::Real(_) => unreachable!(),
            };
            for j in 0..self.widths[v.index()] {
                let idx = self.bdd_var_index(v, j, false);
                let lit = if u >> j & 1 == 1 {
                    self.man.var(idx)
                } else {
                    self.man.nvar(idx)
                };
                acc = self.man.and(acc, lit);
            }
        }
        acc
    }
}

/// Why a fixpoint gave up: the manager's own poisoned ceiling beats the
/// budget's explanation (a poisoned arena is always `ResourceExhausted`,
/// whatever the clock says).
fn give_up_reason(enc: &SymbolicSystem<'_>, budget: &Budget) -> UnknownReason {
    enc.give_up().unwrap_or_else(|| budget.unknown_reason())
}

/// Folds the encoding's observability into the stats sink: manager
/// counters and partition count.
fn finish_stats(stats: &mut Stats, enc: &SymbolicSystem<'_>) {
    stats.fixpoint_iterations += enc.fixpoint_count();
    stats.absorb_bdd(enc.manager());
    stats.bdd.partitions = stats.bdd.partitions.max(enc.partition_count() as u64);
}

/// Trait-dispatch entry point for the complete invariant check by
/// forward reachability (see [`crate::engine::engine`]).
pub(crate) fn run_invariant(
    sys: &System,
    p: &Expr,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    // One budget for the whole check: the deadline armed inside the
    // manager during encode and the deadline the fixpoint loops poll
    // are the same instant, so encode time counts against the timeout.
    let budget = Budget::new(opts);
    let encode = SpanTimer::begin(Phase::Encode);
    let mut enc = SymbolicSystem::configured(sys, opts)?;
    stats.end_span(encode);
    let res = if let Some(reason) = enc.give_up() {
        Ok(CheckResult::Unknown(reason))
    } else {
        invariant_fix(sys, p, opts, &budget, stats, &mut enc)
    };
    finish_stats(stats, &enc);
    res
}

fn invariant_fix(
    sys: &System,
    p: &Expr,
    opts: &CheckOptions,
    budget: &Budget,
    stats: &mut Stats,
    enc: &mut SymbolicSystem<'_>,
) -> Result<CheckResult, McError> {
    // Reachability FIRST: the rings are cheap to saturate partition by
    // partition, and their union then serves as the care set for
    // lowering the property. Exact property BDDs over the free state
    // space (deep connectivity expansions, view-vs-truth comparators)
    // can dwarf the reachable set by orders of magnitude; restricted
    // lowering never pays for states no execution visits.
    let solve = SpanTimer::begin(Phase::Solve);
    let rings = enc.reachable(budget);
    stats.end_span(solve);
    let Some(rings) = rings else {
        return Ok(CheckResult::Unknown(give_up_reason(enc, budget)));
    };
    let encode = SpanTimer::begin(Phase::Encode);
    let mut reach = Bdd::FALSE;
    for &r in &rings {
        reach = enc.man.or(reach, r);
    }
    let p_bdd = enc.expr_bdd_within(p, reach)?;
    let bad = enc.man.not(p_bdd);
    stats.end_span(encode);
    if let Some(reason) = enc.give_up() {
        return Ok(CheckResult::Unknown(reason));
    }
    // First ring intersecting ¬p.
    let mut hit = None;
    for (i, &ring) in rings.iter().enumerate() {
        let overlap = enc.man.and(ring, bad);
        if let Some(reason) = enc.give_up() {
            return Ok(CheckResult::Unknown(reason));
        }
        if overlap != Bdd::FALSE {
            hit = Some((i, overlap));
            break;
        }
    }
    let Some((i, overlap)) = hit else {
        if opts.certify {
            // Certificate: the reachable set is an inductive invariant
            // implying p. Export it as an expression and re-check the
            // three obligations with fresh proof-logged SAT queries.
            // Under partitioning, first re-check inductiveness against
            // every partition symbolically: one more chained image must
            // stay inside the computed set. A nonempty escape means the
            // partitioned fixpoint lied — withhold the verdict.
            let img = enc.image(reach);
            let not_reach = enc.man.not(reach);
            let escaped = enc.man.and(img, not_reach);
            if let Some(reason) = enc.give_up() {
                return Ok(CheckResult::Unknown(reason));
            }
            if escaped != Bdd::FALSE {
                return Ok(CheckResult::Unknown(UnknownReason::CertificateRejected));
            }
            let inv = enc.bdd_to_expr(reach);
            let certify = SpanTimer::begin(Phase::Certify);
            let gated = crate::certify::gate_holds(
                "BDD reachable-set",
                crate::certify::check_inductive_invariant(sys, p, &inv, budget),
            );
            stats.end_span(certify);
            return Ok(gated);
        }
        return Ok(CheckResult::Holds);
    };
    // Reconstruct a path init → overlap through the onion rings.
    let mut states = vec![enc.pick_state(overlap)];
    for ring_idx in (0..i).rev() {
        let cur_bdd = enc.state_bdd(states.last().expect("nonempty"));
        let pre = enc.preimage(cur_bdd);
        let in_ring = enc.man.and(pre, rings[ring_idx]);
        if let Some(reason) = enc.give_up() {
            return Ok(CheckResult::Unknown(reason));
        }
        debug_assert!(in_ring != Bdd::FALSE, "onion ring reconstruction");
        states.push(enc.pick_state(in_ring));
    }
    states.reverse();
    let trace = Trace::new(sys, states, None);
    Ok(if opts.certify {
        let replay = SpanTimer::begin(Phase::Replay);
        let gated = crate::certify::gate_invariant_cex(sys, p, trace);
        stats.end_span(replay);
        gated
    } else {
        CheckResult::Violated(trace)
    })
}

/// Trait-dispatch entry point for full CTL model checking: does `phi`
/// hold in every initial state? Fairness constraints of the system
/// restrict path quantifiers to fair paths — fair-CTL semantics (see
/// [`crate::engine::engine`]).
pub(crate) fn run_ctl(
    sys: &System,
    phi: &Ctl,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    let budget = Budget::new(opts);
    let encode = SpanTimer::begin(Phase::Encode);
    let mut enc = SymbolicSystem::configured(sys, opts)?;
    stats.end_span(encode);
    let res = if let Some(reason) = enc.give_up() {
        Ok(CheckResult::Unknown(reason))
    } else {
        ctl_fix(sys, phi, &budget, stats, &mut enc)
    };
    finish_stats(stats, &enc);
    res
}

fn ctl_fix(
    sys: &System,
    phi: &Ctl,
    budget: &Budget,
    stats: &mut Stats,
    enc: &mut SymbolicSystem<'_>,
) -> Result<CheckResult, McError> {
    let encode = SpanTimer::begin(Phase::Encode);
    let justice: Vec<Bdd> = sys
        .fairness()
        .iter()
        .map(|e| enc.expr_bdd(e))
        .collect::<Result<_, _>>()?;
    stats.end_span(encode);
    if let Some(reason) = enc.give_up() {
        return Ok(CheckResult::Unknown(reason));
    }
    let solve = SpanTimer::begin(Phase::Solve);
    let fair = fair_states(enc, &justice, budget);
    let Some(fair) = fair else {
        stats.end_span(solve);
        return Ok(CheckResult::Unknown(give_up_reason(enc, budget)));
    };
    let base = phi.to_base();
    let sat = eval_ctl(enc, &base, fair, &justice, budget);
    stats.end_span(solve);
    let Some(sat) = sat else {
        return Ok(CheckResult::Unknown(give_up_reason(enc, budget)));
    };
    let nsat = enc.man.not(sat);
    let cex = enc.man.and(enc.init, nsat);
    if let Some(reason) = enc.give_up() {
        return Ok(CheckResult::Unknown(reason));
    }
    if cex == Bdd::FALSE {
        Ok(CheckResult::Holds)
    } else {
        // CTL counterexamples are trees in general; report the offending
        // initial state as a single-state trace.
        let state = enc.pick_state(cex);
        Ok(CheckResult::Violated(Trace::new(sys, vec![state], None)))
    }
}

/// States with at least one (fair) infinite path: the Emerson–Lei fixpoint
/// `gfp Z. space ∧ ⋀_j pre(E[Z U (Z ∧ j)])`, specializing to
/// `gfp Z. pre(Z)` when there are no justice constraints.
fn fair_states(enc: &mut SymbolicSystem<'_>, justice: &[Bdd], budget: &Budget) -> Option<Bdd> {
    let space = enc.space;
    eg_fair(enc, space, justice, budget)
}

/// `E[p U q]` least fixpoint.
fn eu_fix(enc: &mut SymbolicSystem<'_>, p: Bdd, q: Bdd, budget: &Budget) -> Option<Bdd> {
    let mut y = q;
    loop {
        enc.fixpoints += 1;
        if budget.check_nodes(enc.man.node_count()).is_some() {
            return None;
        }
        let pre = enc.preimage(y);
        let step = enc.man.and(p, pre);
        let ynew = enc.man.or(y, step);
        // Poisoned results collapse to FALSE; never mistake that for
        // convergence.
        if enc.man.poisoned() {
            return None;
        }
        if ynew == y {
            return Some(y);
        }
        y = ynew;
    }
}

/// `EG p` greatest fixpoint restricted to fair paths:
/// `gfp Z. p ∧ ⋀_j pre(E[Z U (Z ∧ j)])` (plain `gfp Z. p ∧ pre(Z)`
/// without justice).
fn eg_fair(enc: &mut SymbolicSystem<'_>, p: Bdd, justice: &[Bdd], budget: &Budget) -> Option<Bdd> {
    let mut z = p;
    loop {
        enc.fixpoints += 1;
        if budget.check_nodes(enc.man.node_count()).is_some() {
            return None;
        }
        let mut znew = z;
        if justice.is_empty() {
            let pre = enc.preimage(z);
            znew = enc.man.and(z, pre);
        } else {
            for &j in justice {
                let target = enc.man.and(z, j);
                let eu = eu_fix(enc, z, target, budget)?;
                let pre = enc.preimage(eu);
                znew = enc.man.and(znew, pre);
            }
        }
        if enc.man.poisoned() {
            return None;
        }
        if znew == z {
            return Some(z);
        }
        z = znew;
    }
}

/// Evaluates a base-form CTL formula to its satisfying state set.
/// Path quantifiers are restricted to `fair` states.
fn eval_ctl(
    enc: &mut SymbolicSystem<'_>,
    phi: &Ctl,
    fair: Bdd,
    justice: &[Bdd],
    budget: &Budget,
) -> Option<Bdd> {
    Some(match phi {
        Ctl::Atom(e) => {
            let b = enc.expr_bdd(e).ok()?;
            enc.man.and(b, enc.space)
        }
        Ctl::Not(a) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            let na = enc.man.not(a);
            enc.man.and(na, enc.space)
        }
        Ctl::And(a, b) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            let b = eval_ctl(enc, b, fair, justice, budget)?;
            enc.man.and(a, b)
        }
        Ctl::Or(a, b) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            let b = eval_ctl(enc, b, fair, justice, budget)?;
            enc.man.or(a, b)
        }
        Ctl::EX(a) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            let af = enc.man.and(a, fair);
            enc.preimage(af)
        }
        Ctl::EU(a, b) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            let b = eval_ctl(enc, b, fair, justice, budget)?;
            let bf = enc.man.and(b, fair);
            eu_fix(enc, a, bf, budget)?
        }
        Ctl::EG(a) => {
            let a = eval_ctl(enc, a, fair, justice, budget)?;
            eg_fair(enc, a, justice, budget)?
        }
        other => {
            // to_base() eliminates the A-quantifiers and EF.
            unreachable!("non-base CTL form {other}")
        }
    })
}

/// Trait-dispatch entry point for the complete LTL check: tableau
/// product + fair-cycle detection. A violation exists iff some initial
/// product state starts a fair path; the trace is recovered by bounded
/// fair-lasso search on the product (see [`crate::engine::engine`]).
pub(crate) fn run_ltl(
    sys: &System,
    phi: &Ltl,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    let budget = Budget::new(opts);
    let encode = SpanTimer::begin(Phase::Encode);
    let product = violation_product(sys, phi);
    let mut enc = SymbolicSystem::configured(&product.system, opts)?;
    stats.end_span(encode);
    let res = if let Some(reason) = enc.give_up() {
        Ok(CheckResult::Unknown(reason))
    } else {
        ltl_fix(sys, phi, &product, opts, &budget, stats, &mut enc)
    };
    finish_stats(stats, &enc);
    res
}

fn ltl_fix(
    sys: &System,
    phi: &Ltl,
    product: &crate::tableau::TableauProduct,
    opts: &CheckOptions,
    budget: &Budget,
    stats: &mut Stats,
    enc: &mut SymbolicSystem<'_>,
) -> Result<CheckResult, McError> {
    let encode = SpanTimer::begin(Phase::Encode);
    let justice: Vec<Bdd> = product
        .justice
        .iter()
        .map(|e| enc.expr_bdd(e))
        .collect::<Result<_, _>>()?;
    stats.end_span(encode);
    if let Some(reason) = enc.give_up() {
        return Ok(CheckResult::Unknown(reason));
    }
    // Lockstep forward/backward over the partitions: the forward sweep
    // restricts to reachable states (cheaper fixpoints and sound
    // verdicts — fair cycles must be reachable from init), then the
    // backward Emerson–Lei pass runs under that restriction. The justice
    // sets must survive the collections inside the forward sweep.
    let justice_base = justice.first().map(|_| enc.protect(justice[0]));
    for &j in justice.iter().skip(1) {
        enc.protect(j);
    }
    let solve = SpanTimer::begin(Phase::Solve);
    let rings = enc.reachable(budget);
    let justice: Vec<Bdd> = match justice_base {
        Some(base) => (0..justice.len())
            .map(|k| enc.root(RootId(base.0 + k)))
            .collect(),
        None => Vec::new(),
    };
    if let Some(base) = justice_base {
        enc.unprotect_to(base);
    }
    let Some(rings) = rings else {
        stats.end_span(solve);
        return Ok(CheckResult::Unknown(give_up_reason(enc, budget)));
    };
    let mut reach = Bdd::FALSE;
    for r in rings {
        reach = enc.man.or(reach, r);
    }
    if let Some(reason) = enc.give_up() {
        stats.end_span(solve);
        return Ok(CheckResult::Unknown(reason));
    }
    let saved_space = enc.space;
    enc.space = reach;
    let fair = fair_states(enc, &justice, budget);
    enc.space = saved_space;
    stats.end_span(solve);
    let Some(fair) = fair else {
        return Ok(CheckResult::Unknown(give_up_reason(enc, budget)));
    };
    let witness = enc.man.and(enc.init, fair);
    if let Some(reason) = enc.give_up() {
        return Ok(CheckResult::Unknown(reason));
    }
    if witness == Bdd::FALSE {
        return Ok(CheckResult::Holds);
    }
    // Property violated; reconstruct a concrete lasso via bounded search.
    match crate::bmc::find_fair_lasso(product, opts, stats)? {
        crate::bmc::LassoOutcome::Found(trace) => Ok(if opts.certify {
            let replay = SpanTimer::begin(Phase::Replay);
            let gated = crate::certify::gate_ltl_cex(sys, phi, trace);
            stats.end_span(replay);
            gated
        } else {
            CheckResult::Violated(trace)
        }),
        // The violation is certain; only the trace search hit a limit, so
        // report the witnessing initial state. No lasso means the replay
        // interpreter cannot validate it, so certify mode withholds it.
        _ => {
            let trace = Trace::new(
                sys,
                vec![enc.pick_state(witness)[..product.original_vars].to_vec()],
                None,
            );
            Ok(if opts.certify {
                let replay = SpanTimer::begin(Phase::Replay);
                let gated = crate::certify::gate_ltl_cex(sys, phi, trace);
                stats.end_span(replay);
                gated
            } else {
                CheckResult::Violated(trace)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariant_t(
        sys: &System,
        p: &Expr,
        opts: &CheckOptions,
    ) -> Result<CheckResult, McError> {
        run_invariant(sys, p, opts, &mut Stats::default())
    }

    fn check_ctl_t(sys: &System, phi: &Ctl, opts: &CheckOptions) -> Result<CheckResult, McError> {
        run_ctl(sys, phi, opts, &mut Stats::default())
    }

    fn check_ltl_t(sys: &System, phi: &Ltl, opts: &CheckOptions) -> Result<CheckResult, McError> {
        run_ltl(sys, phi, opts, &mut Stats::default())
    }

    fn counter(limit: i64) -> (System, VarId) {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, limit);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(limit)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));
        (sys, n)
    }

    #[test]
    fn reachability_proves_invariant() {
        let (sys, n) = counter(5);
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).le(Expr::int(5)),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
    }

    #[test]
    fn reachability_finds_shortest_violation() {
        let (sys, n) = counter(5);
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).lt(Expr::int(3)),
            &CheckOptions::default(),
        )
        .unwrap();
        let t = r.trace().expect("violated");
        assert_eq!(t.len(), 4, "shortest path is 0,1,2,3:\n{t}");
        assert_eq!(t.value(3, "n"), Some(&Value::Int(3)));
    }

    #[test]
    fn unreachable_range_values_ignored() {
        // n cycles 0..3 inside range 0..7: G(n <= 3) holds.
        let mut sys = System::new("mod");
        let n = sys.int_var("n", 0, 7);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).ge(Expr::int(3)),
            Expr::int(0),
            Expr::var(n).add(Expr::int(1)),
        )));
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).le(Expr::int(3)),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
    }

    #[test]
    fn ctl_ef_and_ag() {
        let (sys, n) = counter(3);
        let r = check_ctl_t(
            &sys,
            &Ctl::atom(Expr::var(n).eq(Expr::int(3))).ef(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
        let r = check_ctl_t(
            &sys,
            &Ctl::atom(Expr::var(n).le(Expr::int(3))).ag(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
        let r = check_ctl_t(
            &sys,
            &Ctl::atom(Expr::var(n).le(Expr::int(2))).ag(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.violated(), "{r}");
    }

    #[test]
    fn ctl_nondeterminism_ex_vs_ax() {
        // x unconstrained: from any state both next values possible.
        let mut sys = System::new("free");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x).not());
        let ex_x = Ctl::atom(Expr::var(x)).ex();
        let r = check_ctl_t(&sys, &ex_x, &CheckOptions::default()).unwrap();
        assert!(r.holds(), "EX x: {r}");
        let ax_x = Ctl::atom(Expr::var(x)).ax();
        let r = check_ctl_t(&sys, &ax_x, &CheckOptions::default()).unwrap();
        assert!(r.violated(), "AX x: {r}");
    }

    #[test]
    fn ctl_fairness_restricts_paths() {
        // x fully nondeterministic; AF x fails without fairness but holds
        // when fairness demands x infinitely often.
        let mut sys = System::new("fair");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x).not());
        let af_x = Ctl::atom(Expr::var(x)).af();
        let r = check_ctl_t(&sys, &af_x, &CheckOptions::default()).unwrap();
        assert!(r.violated(), "AF x without fairness: {r}");
        sys.add_fairness(Expr::var(x));
        let r = check_ctl_t(&sys, &af_x, &CheckOptions::default()).unwrap();
        assert!(r.holds(), "AF x with fairness: {r}");
    }

    #[test]
    fn ltl_complete_verdicts() {
        // Oscillator: G F x holds, F G x fails with a lasso trace.
        let mut sys = System::new("flip");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let gfx = Ltl::atom(Expr::var(x)).eventually().always();
        let r = check_ltl_t(&sys, &gfx, &CheckOptions::default()).unwrap();
        assert!(r.holds(), "G F x: {r}");
        let fgx = Ltl::atom(Expr::var(x)).always().eventually();
        let r = check_ltl_t(&sys, &fgx, &CheckOptions::default()).unwrap();
        let t = r.trace().expect("F G x violated");
        assert!(t.loop_back.is_some(), "lasso expected:\n{t}");
    }

    #[test]
    fn ltl_holds_where_bmc_was_unknown() {
        // The stabilizing system from the BMC tests: BDD proves F G x.
        let mut sys = System::new("stabilize");
        let x = sys.bool_var("x");
        let done = sys.bool_var("done");
        sys.add_init(Expr::var(x).and(Expr::var(done).not()));
        sys.add_trans(Expr::var(done).implies(Expr::next(done)));
        sys.add_trans(Expr::next(done).implies(Expr::next(x)));
        sys.add_trans(
            Expr::next(done)
                .not()
                .implies(Expr::next(x).eq(Expr::var(x).not())),
        );
        sys.add_fairness(Expr::var(done));
        let phi = Ltl::atom(Expr::var(x)).always().eventually();
        let r = check_ltl_t(&sys, &phi, &CheckOptions::default()).unwrap();
        assert!(r.holds(), "{r}");
    }

    #[test]
    fn frozen_params_in_bdd_engine() {
        // Step counter: BDD proves safety over all parameter values.
        let mut sys = System::new("param");
        let n = sys.int_var("n", 0, 10);
        let p = sys.int_param("p", 1, 2);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).le(Expr::int(8)),
            Expr::var(n).add(Expr::var(p)),
            Expr::var(n),
        )));
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).le(Expr::int(10)),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).ne(Expr::int(9)),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.violated(), "p=1 reaches 9: {r}");
    }

    #[test]
    fn real_vars_rejected() {
        let mut sys = System::new("real");
        sys.real_var("r");
        assert!(SymbolicSystem::new(&sys).is_err());
    }

    #[test]
    fn monolithic_matches_partitioned() {
        let (sys, n) = counter(5);
        for p in [Expr::var(n).le(Expr::int(5)), Expr::var(n).lt(Expr::int(3))] {
            let part = check_invariant_t(&sys, &p, &CheckOptions::default()).unwrap();
            let mono = check_invariant_t(
                &sys,
                &p,
                &CheckOptions::default().with_bdd_partitioned(false),
            )
            .unwrap();
            assert_eq!(part, mono, "partitioned vs monolithic on {p}");
        }
    }

    #[test]
    fn partitioned_builds_multiple_clusters() {
        // Independent counters land in separate partitions (their update
        // BDDs stay tiny, so adjacent clusters may merge — but never into
        // one monolith spanning all 6 variables given the node cap).
        let mut sys = System::new("many");
        for name in ["a", "b", "c", "d", "e", "f"] {
            let v = sys.int_var(name, 0, 255);
            sys.add_init(Expr::var(v).eq(Expr::int(0)));
            sys.add_trans(Expr::next(v).eq(Expr::ite(
                Expr::var(v).lt(Expr::int(255)),
                Expr::var(v).add(Expr::int(1)),
                Expr::int(0),
            )));
        }
        let enc = SymbolicSystem::new(&sys).unwrap();
        assert!(
            enc.partition_count() >= 2,
            "expected a partitioned relation, got {} cluster(s)",
            enc.partition_count()
        );
    }

    #[test]
    fn tiny_node_ceiling_is_prompt_unknown() {
        let (sys, n) = counter(5);
        let opts = CheckOptions::default().with_max_bdd_nodes(16);
        let r = check_invariant_t(&sys, &Expr::var(n).le(Expr::int(5)), &opts).unwrap();
        assert_eq!(
            r,
            CheckResult::Unknown(UnknownReason::ResourceExhausted),
            "poisoned manager must demote to ResourceExhausted, not Holds"
        );
    }
}
