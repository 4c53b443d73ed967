//! Explicit-state reference engine.
//!
//! Enumerates the reachable state graph outright, then answers:
//!
//! * invariants by BFS,
//! * LTL by SCC analysis on the tableau product — a reachable SCC with a
//!   cycle that intersects every justice set is exactly a fair lasso,
//! * CTL by direct fixpoint evaluation over explicit state sets,
//!
//! all reached through [`crate::engine::check`]
//! (`EngineKind::Explicit`).
//!
//! Everything here is exponential in the number of state bits; its role is
//! to be *obviously correct* — the differential oracle the symbolic
//! engines are tested against — and to handle tiny models exactly.

use std::collections::HashMap;

use verdict_ts::explicit::{holds, initial_states, successors, State};
use verdict_ts::{Ctl, Expr, Ltl, System, Trace};

use crate::result::{Budget, CheckOptions, CheckResult, McError};
use crate::stats::{Phase, SpanTimer, Stats};
use crate::tableau::violation_product;

/// The explored reachable graph of a finite system.
struct Graph {
    states: Vec<State>,
    index: HashMap<String, usize>,
    init: Vec<usize>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

fn state_key(s: &State) -> String {
    format!("{s:?}")
}

/// Explores the reachable graph; `None` on timeout or cancellation.
fn explore(sys: &System, budget: &Budget) -> Option<Graph> {
    let mut g = Graph {
        states: Vec::new(),
        index: HashMap::new(),
        init: Vec::new(),
        succs: Vec::new(),
        preds: Vec::new(),
    };
    let mut queue = Vec::new();
    for s in initial_states(sys) {
        let k = state_key(&s);
        if !g.index.contains_key(&k) {
            let id = g.states.len();
            g.index.insert(k, id);
            g.states.push(s);
            g.succs.push(Vec::new());
            g.preds.push(Vec::new());
            g.init.push(id);
            queue.push(id);
        }
    }
    while let Some(id) = queue.pop() {
        if budget.exceeded().is_some() {
            return None;
        }
        let succs = successors(sys, &g.states[id].clone());
        for n in succs {
            let k = state_key(&n);
            let nid = match g.index.get(&k) {
                Some(&nid) => nid,
                None => {
                    let nid = g.states.len();
                    g.index.insert(k, nid);
                    g.states.push(n);
                    g.succs.push(Vec::new());
                    g.preds.push(Vec::new());
                    queue.push(nid);
                    nid
                }
            };
            g.succs[id].push(nid);
            g.preds[nid].push(id);
        }
    }
    Some(g)
}

/// Trait-dispatch entry point for the complete invariant check by
/// explicit BFS (see [`crate::engine::engine`]).
pub(crate) fn run_invariant(
    sys: &System,
    p: &Expr,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    sys.check()?;
    let budget = Budget::new(opts);
    let bad = p.clone().not();
    let solve = SpanTimer::begin(Phase::Solve);
    // BFS keeping parents for trace reconstruction.
    let mut parent: HashMap<String, Option<State>> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    for s in initial_states(sys) {
        if parent.insert(state_key(&s), None).is_none() {
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        stats.states_visited += 1;
        if let Some(reason) = budget.exceeded() {
            stats.end_span(solve);
            return Ok(CheckResult::Unknown(reason));
        }
        if holds(&bad, &s) {
            let mut path = vec![s.clone()];
            let mut cur = s;
            while let Some(Some(p)) = parent.get(&state_key(&cur)) {
                path.push(p.clone());
                cur = p.clone();
            }
            path.reverse();
            let trace = Trace::new(sys, path, None);
            stats.end_span(solve);
            return Ok(if opts.certify {
                let replay = SpanTimer::begin(Phase::Replay);
                let gated = crate::certify::gate_invariant_cex(sys, p, trace);
                stats.end_span(replay);
                gated
            } else {
                CheckResult::Violated(trace)
            });
        }
        for n in successors(sys, &s) {
            let k = state_key(&n);
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(k) {
                slot.insert(Some(s.clone()));
                queue.push_back(n);
            }
        }
    }
    stats.end_span(solve);
    Ok(CheckResult::Holds)
}

/// Tarjan's strongly-connected components (iterative).
fn sccs(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut counter = 0usize;
    let mut out = Vec::new();

    // Iterative DFS with explicit frames: (node, child-iterator position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < succs[v].len() {
                let w = succs[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out
}

/// Trait-dispatch entry point for the complete LTL check by SCC analysis
/// on the tableau product (see [`crate::engine::engine`]).
pub(crate) fn run_ltl(
    sys: &System,
    phi: &Ltl,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    let budget = Budget::new(opts);
    let encode = SpanTimer::begin(Phase::Encode);
    let product = violation_product(sys, phi);
    product.system.check()?;
    stats.end_span(encode);
    let solve = SpanTimer::begin(Phase::Solve);
    let explored = explore(&product.system, &budget);
    if let Some(g) = &explored {
        stats.states_visited += g.states.len() as u64;
    }
    stats.end_span(solve);
    let Some(g) = explored else {
        return Ok(CheckResult::Unknown(budget.unknown_reason()));
    };
    // A fair SCC: has at least one internal edge (or self-loop) and
    // intersects every justice constraint.
    let fair_scc = sccs(&g.succs).into_iter().find(|comp| {
        let has_cycle = comp.len() > 1 || g.succs[comp[0]].contains(&comp[0]);
        if !has_cycle {
            return false;
        }
        product
            .justice
            .iter()
            .all(|j| comp.iter().any(|&s| holds(j, &g.states[s])))
    });
    let Some(comp) = fair_scc else {
        return Ok(CheckResult::Holds);
    };
    // Build a concrete lasso: shortest path from init to the SCC, then a
    // cycle inside the SCC hitting every justice constraint.
    let in_comp: std::collections::HashSet<usize> = comp.iter().copied().collect();
    // BFS from init to any SCC member.
    let mut parent: HashMap<usize, Option<usize>> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    for &i in &g.init {
        parent.entry(i).or_insert(None);
        queue.push_back(i);
    }
    let mut entry = None;
    while let Some(v) = queue.pop_front() {
        if in_comp.contains(&v) {
            entry = Some(v);
            break;
        }
        for &w in &g.succs[v] {
            parent.entry(w).or_insert_with(|| {
                queue.push_back(w);
                Some(v)
            });
        }
    }
    let entry = entry.expect("SCC reachable by exploration construction");
    let mut prefix = vec![entry];
    let mut cur = entry;
    while let Some(Some(p)) = parent.get(&cur) {
        prefix.push(*p);
        cur = *p;
    }
    prefix.reverse();
    // Cycle: from entry, visit a witness of each justice constraint within
    // the SCC, then return to entry (BFS restricted to the SCC each hop).
    let mut cycle = vec![entry];
    let mut pos = entry;
    let mut targets: Vec<usize> = Vec::new();
    for j in &product.justice {
        let w = comp
            .iter()
            .copied()
            .find(|&s| holds(j, &g.states[s]))
            .expect("fair SCC");
        targets.push(w);
    }
    targets.push(entry); // close the loop
    for target in targets {
        if pos == target && cycle.len() > 1 {
            continue;
        }
        let hop = bfs_within(&g, &in_comp, pos, target);
        cycle.extend(hop.into_iter().skip(1));
        pos = target;
    }
    // If the cycle never moved (entry satisfies everything and self-loops).
    if cycle.len() == 1 {
        if g.succs[entry].contains(&entry) {
            cycle.push(entry);
        } else {
            // Walk any internal cycle through a successor.
            let next = *g.succs[entry]
                .iter()
                .find(|s| in_comp.contains(s))
                .expect("cycle exists");
            cycle.extend(bfs_within(&g, &in_comp, next, entry));
        }
    }
    // Assemble the trace: prefix + cycle (entry repeated at the end);
    // loop-back index is the entry position.
    let loop_back = prefix.len() - 1;
    let mut ids = prefix;
    ids.extend(cycle.into_iter().skip(1));
    let states: Vec<State> = ids
        .iter()
        .map(|&i| g.states[i][..product.original_vars].to_vec())
        .collect();
    let mut trace = Trace::new(&product.system, states, Some(loop_back));
    trace.var_names.truncate(product.original_vars);
    Ok(if opts.certify {
        let replay = SpanTimer::begin(Phase::Replay);
        let gated = crate::certify::gate_ltl_cex(sys, phi, trace);
        stats.end_span(replay);
        gated
    } else {
        CheckResult::Violated(trace)
    })
}

/// Shortest path from `from` to `to` staying inside `allowed`.
fn bfs_within(
    g: &Graph,
    allowed: &std::collections::HashSet<usize>,
    from: usize,
    to: usize,
) -> Vec<usize> {
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &w in &g.succs[v] {
            if !allowed.contains(&w) || parent.contains_key(&w) {
                continue;
            }
            parent.insert(w, v);
            if w == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            queue.push_back(w);
        }
    }
    // target == from with no progress possible; return the trivial path.
    vec![from]
}

/// Trait-dispatch entry point for the complete CTL check by explicit
/// fixpoints — fairness honored like the BDD engine: quantifiers
/// restricted to states opening a fair path (see
/// [`crate::engine::engine`]).
pub(crate) fn run_ctl(
    sys: &System,
    phi: &Ctl,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    sys.check()?;
    let budget = Budget::new(opts);
    // CTL must be evaluated over the whole (invar-legal) state graph, not
    // just reachable states, to keep subformula semantics standard; for
    // the tiny models this engine targets that is fine.
    let solve = SpanTimer::begin(Phase::Solve);
    let states = verdict_ts::explicit::all_states(sys);
    stats.states_visited += states.len() as u64;
    let index: HashMap<String, usize> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (state_key(s), i))
        .collect();
    let n = states.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in states.iter().enumerate() {
        if let Some(reason) = budget.exceeded() {
            stats.end_span(solve);
            return Ok(CheckResult::Unknown(reason));
        }
        for nx in successors(sys, s) {
            if let Some(&j) = index.get(&state_key(&nx)) {
                succs[i].push(j);
                preds[j].push(i);
            }
        }
    }
    let justice: Vec<Vec<bool>> = sys
        .fairness()
        .iter()
        .map(|f| states.iter().map(|s| holds(f, s)).collect())
        .collect();

    let fair = fair_set(&succs, &preds, &justice, &vec![true; n]);
    let sat = eval_ctl(&states, &succs, &preds, &justice, &fair, &phi.to_base());
    let bad_init = initial_states(sys)
        .into_iter()
        .find(|s| !sat[index[&state_key(s)]]);
    stats.end_span(solve);
    match bad_init {
        None => Ok(CheckResult::Holds),
        Some(s) => Ok(CheckResult::Violated(Trace::new(sys, vec![s], None))),
    }
}

/// Explicit fair-EG: gfp Z ⊆ base with justice-visiting cycles.
fn fair_set(
    succs: &[Vec<usize>],
    preds: &[Vec<usize>],
    justice: &[Vec<bool>],
    base: &[bool],
) -> Vec<bool> {
    let n = succs.len();
    let mut z = base.to_vec();
    loop {
        let mut znew = z.clone();
        if justice.is_empty() {
            // z ∧ pre(z)
            for v in 0..n {
                if znew[v] && !succs[v].iter().any(|&w| z[w]) {
                    znew[v] = false;
                }
            }
        } else {
            for j in justice {
                // target = z ∧ j; eu = E[z U target]; znew ∧= pre(eu)
                let target: Vec<bool> = (0..n).map(|v| z[v] && j[v]).collect();
                let eu = eu_explicit(succs, preds, &z, &target);
                for v in 0..n {
                    if znew[v] && !succs[v].iter().any(|&w| eu[w]) {
                        znew[v] = false;
                    }
                }
            }
        }
        if znew == z {
            return z;
        }
        z = znew;
    }
}

fn eu_explicit(_succs: &[Vec<usize>], preds: &[Vec<usize>], p: &[bool], q: &[bool]) -> Vec<bool> {
    let mut y = q.to_vec();
    let mut queue: Vec<usize> = (0..y.len()).filter(|&v| y[v]).collect();
    while let Some(v) = queue.pop() {
        for &u in &preds[v] {
            if p[u] && !y[u] {
                y[u] = true;
                queue.push(u);
            }
        }
    }
    y
}

#[allow(clippy::too_many_arguments)]
fn eval_ctl(
    states: &[State],
    succs: &[Vec<usize>],
    preds: &[Vec<usize>],
    justice: &[Vec<bool>],
    fair: &[bool],
    phi: &Ctl,
) -> Vec<bool> {
    let n = states.len();
    match phi {
        Ctl::Atom(e) => states.iter().map(|s| holds(e, s)).collect(),
        Ctl::Not(a) => eval_ctl(states, succs, preds, justice, fair, a)
            .into_iter()
            .map(|b| !b)
            .collect(),
        Ctl::And(a, b) => {
            let a = eval_ctl(states, succs, preds, justice, fair, a);
            let b = eval_ctl(states, succs, preds, justice, fair, b);
            (0..n).map(|i| a[i] && b[i]).collect()
        }
        Ctl::Or(a, b) => {
            let a = eval_ctl(states, succs, preds, justice, fair, a);
            let b = eval_ctl(states, succs, preds, justice, fair, b);
            (0..n).map(|i| a[i] || b[i]).collect()
        }
        Ctl::EX(a) => {
            let a = eval_ctl(states, succs, preds, justice, fair, a);
            (0..n)
                .map(|i| succs[i].iter().any(|&w| a[w] && fair[w]))
                .collect()
        }
        Ctl::EU(a, b) => {
            let a = eval_ctl(states, succs, preds, justice, fair, a);
            let b = eval_ctl(states, succs, preds, justice, fair, b);
            let bf: Vec<bool> = (0..n).map(|i| b[i] && fair[i]).collect();
            eu_explicit(succs, preds, &a, &bf)
        }
        Ctl::EG(a) => {
            let a = eval_ctl(states, succs, preds, justice, fair, a);
            fair_set(succs, preds, justice, &a)
        }
        other => unreachable!("non-base CTL {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::Value;

    fn check_invariant_t(
        sys: &System,
        p: &Expr,
        opts: &CheckOptions,
    ) -> Result<CheckResult, McError> {
        run_invariant(sys, p, opts, &mut Stats::default())
    }

    fn check_ltl_t(sys: &System, phi: &Ltl, opts: &CheckOptions) -> Result<CheckResult, McError> {
        run_ltl(sys, phi, opts, &mut Stats::default())
    }

    fn check_ctl_t(sys: &System, phi: &Ctl, opts: &CheckOptions) -> Result<CheckResult, McError> {
        run_ctl(sys, phi, opts, &mut Stats::default())
    }

    fn counter(limit: i64) -> (System, verdict_ts::VarId) {
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
    fn invariant_agreement_with_expectations() {
        let (sys, n) = counter(4);
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).le(Expr::int(4)),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds());
        let r = check_invariant_t(
            &sys,
            &Expr::var(n).lt(Expr::int(2)),
            &CheckOptions::default(),
        )
        .unwrap();
        let t = r.trace().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(2, "n"), Some(&Value::Int(2)));
    }

    #[test]
    fn ltl_oscillator() {
        let mut sys = System::new("flip");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let fgx = Ltl::atom(Expr::var(x)).always().eventually();
        let r = check_ltl_t(&sys, &fgx, &CheckOptions::default()).unwrap();
        let t = r.trace().expect("violated");
        assert!(t.loop_back.is_some());
        let gfx = Ltl::atom(Expr::var(x)).eventually().always();
        let r = check_ltl_t(&sys, &gfx, &CheckOptions::default()).unwrap();
        assert!(r.holds(), "{r}");
    }

    #[test]
    fn ctl_matches_bdd_engine_on_counter() {
        let (sys, n) = counter(3);
        for phi in [
            Ctl::atom(Expr::var(n).eq(Expr::int(3))).ef(),
            Ctl::atom(Expr::var(n).le(Expr::int(3))).ag(),
            Ctl::atom(Expr::var(n).eq(Expr::int(1))).ax(),
            Ctl::atom(Expr::var(n).eq(Expr::int(2))).ef().not(),
        ] {
            let explicit = check_ctl_t(&sys, &phi, &CheckOptions::default()).unwrap();
            let symbolic =
                crate::bdd::run_ctl(&sys, &phi, &CheckOptions::default(), &mut Stats::default())
                    .unwrap();
            assert_eq!(explicit.holds(), symbolic.holds(), "disagreement on {phi}");
        }
    }

    #[test]
    fn scc_detects_self_loop_fairness() {
        // done latches; fairness done: the only fair cycle is done-states.
        let mut sys = System::new("latch");
        let done = sys.bool_var("done");
        sys.add_init(Expr::var(done).not());
        sys.add_trans(Expr::var(done).implies(Expr::next(done)));
        sys.add_fairness(Expr::var(done));
        // F done holds on fair paths.
        let r = check_ltl_t(
            &sys,
            &Ltl::atom(Expr::var(done)).eventually(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.holds(), "{r}");
        // G !done is violated on fair paths (they must reach done).
        let r = check_ltl_t(
            &sys,
            &Ltl::atom(Expr::var(done).not()).always(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r.violated(), "{r}");
    }
}
