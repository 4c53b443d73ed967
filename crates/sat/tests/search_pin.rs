//! Pins the CDCL search on seeded instances: the exact verdicts, models,
//! failed-assumption cores and search counters.
//!
//! The solver is deterministic, so a change to how it stores clauses,
//! values or the decision order that is meant to leave the search alone
//! must leave every line below unchanged. A line that moves means the
//! solver now makes different decisions, propagations or learnt clauses.

use verdict_logic::{Lit, Var};
use verdict_prng::Prng;
use verdict_sat::{check_proof, ClauseHub, ShareConfig, SolveResult, Solver};

/// FNV-1a: pins a model, or a run of records, in one number.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per solve: the outcome (model hash, or the failed-assumption
/// core in DIMACS numbering and in the solver's order), then the
/// cumulative decisions, propagations, conflicts, restarts, learnt
/// clauses and deleted clauses.
fn record(s: &Solver, r: &SolveResult) -> String {
    let outcome = match r {
        SolveResult::Sat(m) => {
            let values = m.as_slice().iter().map(|&b| u8::from(b));
            format!("sat {:016x}", fnv1a(values))
        }
        SolveResult::Unsat => {
            let core: Vec<i64> = s
                .failed_assumptions()
                .iter()
                .map(|l| l.to_dimacs())
                .collect();
            format!("unsat {core:?}")
        }
        SolveResult::Unknown => "unknown".to_string(),
    };
    let st = s.stats();
    format!(
        "{outcome} d{} p{} c{} r{} l{} x{}",
        st.decisions,
        st.propagations,
        st.conflicts,
        st.restarts,
        st.learnt_clauses,
        st.deleted_clauses
    )
}

/// Random 3-CNF clauses over `vars` variables, three distinct variables
/// per clause.
fn random_3cnf(rng: &mut Prng, vars: u32, clauses: usize) -> Vec<Vec<Lit>> {
    (0..clauses)
        .map(|_| {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
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

/// `n` assumption literals over distinct variables.
fn random_assumptions(rng: &mut Prng, vars: u32, n: usize) -> Vec<Lit> {
    let mut a: Vec<Lit> = Vec::with_capacity(n);
    while a.len() < n {
        let v = Var(rng.gen_index(vars as usize) as u32);
        if a.iter().all(|l| l.var() != v) {
            a.push(v.lit(rng.gen_bool()));
        }
    }
    a
}

/// Loads PHP(holes+1, holes).
fn load_pigeonhole(s: &mut Solver, holes: u32) {
    let pigeons = holes + 1;
    let var = |p: u32, h: u32| Var(p * holes + h);
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
}

#[test]
fn pigeonhole_search_is_pinned() {
    // PHP(8, 7) learns past the first database-reduction threshold.
    let mut s = Solver::new();
    load_pigeonhole(&mut s, 7);
    let r = s.solve();
    assert!(r.is_unsat());
    assert!(s.stats().deleted_clauses > 0, "reduce_db never ran");
    assert_eq!(
        record(&s, &r),
        "unsat [] d5237 p61824 c4428 r17 l2126 x2294"
    );
}

#[test]
fn random_3cnf_under_assumptions_is_pinned() {
    // Ratio 4.26, near the satisfiability threshold; each solver answers
    // three assumption sets in turn, reusing what it learnt.
    let vars = 100u32;
    let mut lines = Vec::new();
    for seed in 0..6u64 {
        let mut rng = Prng::seed_from_u64(0x5eed_0000 + seed);
        let mut s = Solver::new();
        for c in random_3cnf(&mut rng, vars, 426) {
            s.add_clause(c);
        }
        for _ in 0..3 {
            let assumptions = random_assumptions(&mut rng, vars, 3);
            let r = s.solve_with_assumptions(&assumptions);
            lines.push(record(&s, &r));
        }
    }
    assert!(lines.iter().any(|l| l.starts_with("sat ")), "no SAT answer");
    assert!(
        lines.iter().any(|l| l.starts_with("unsat [")),
        "no UNSAT core"
    );
    assert_eq!(
        lines,
        [
            "unsat [-58, 69, 74] d125 p2301 c104 r0 l103 x0",
            "unsat [-3, 76, -9] d160 p3071 c138 r0 l136 x0",
            "unsat [-45, 93, -47] d203 p3840 c177 r0 l174 x0",
            "unsat [-74, -99, -77] d144 p3001 c126 r0 l125 x0",
            "unsat [-30, -40, 62] d240 p4953 c210 r0 l208 x0",
            "sat 464ab8c681f98169 d294 p5644 c239 r0 l237 x0",
            "unsat [63, 96, 79] d217 p3731 c175 r1 l174 x0",
            "unsat [-79, 88, -80] d295 p5373 c247 r1 l245 x0",
            "unsat [-21, -98, -14] d422 p7469 c343 r1 l340 x0",
            "unsat [15, -74, 37] d124 p2511 c99 r0 l98 x0",
            "unsat [4, -88, -18] d270 p5514 c228 r1 l226 x0",
            "unsat [-59, 48, 31] d330 p6670 c273 r1 l270 x0",
            "sat 6a275a9e99ce23ac d172 p3082 c129 r1 l129 x0",
            "sat 6a275a9e99ce23ac d199 p3182 c129 r1 l129 x0",
            "unsat [-99, 25, 65] d313 p5740 c232 r1 l231 x0",
            "unsat [10, 48, -32] d307 p6840 c253 r1 l252 x0",
            "unsat [-9, 74, 82] d561 p11814 c466 r2 l464 x0",
            "unsat [100, 73, -91] d662 p13572 c551 r2 l548 x0",
        ]
    );
}

#[test]
fn incremental_search_is_pinned() {
    // Clauses arrive in batches between solves, with and without
    // assumptions, until the database turns unsatisfiable.
    let vars = 100u32;
    let mut rng = Prng::seed_from_u64(0x1c4e_3e47);
    let mut s = Solver::new();
    let mut lines = Vec::new();
    for _ in 0..5 {
        for c in random_3cnf(&mut rng, vars, 90) {
            s.add_clause(c);
        }
        let r = s.solve();
        lines.push(record(&s, &r));
        let assumptions = random_assumptions(&mut rng, vars, 5);
        let r = s.solve_with_assumptions(&assumptions);
        lines.push(record(&s, &r));
    }
    assert_eq!(
        lines,
        [
            "sat fdc47af1ce0a41d7 d79 p100 c0 r0 l0 x0",
            "sat caa0ced4c4e5adb4 d155 p200 c0 r0 l0 x0",
            "sat dd234ab37630066b d207 p300 c0 r0 l0 x0",
            "sat 8c826e0bbf0c3637 d258 p400 c0 r0 l0 x0",
            "sat c3309253cb78016e d300 p583 c5 r0 l5 x0",
            "sat 0ba69b25450ee18c d338 p683 c5 r0 l5 x0",
            "sat d13b488ddd7acf91 d379 p1052 c17 r0 l17 x0",
            "sat da99b5a63b4e86e3 d402 p1332 c25 r0 l25 x0",
            "unsat [] d843 p9158 c392 r2 l383 x0",
            "unsat [] d843 p9158 c392 r2 l383 x0",
        ]
    );
}

#[test]
fn rescaled_search_is_pinned() {
    // One solver answers assumption sets on a random 3-CNF at ratio 4.26
    // until it has met more than 4,600 conflicts. The activity increment
    // grows by 1/0.95 per conflict, so it passes the rescale limit of
    // 1e100 near conflict 4,490, and the search goes on across at least
    // one rescale of every activity.
    let vars = 150u32;
    let mut rng = Prng::seed_from_u64(0x7e5c_a1ed);
    let mut s = Solver::new();
    for c in random_3cnf(&mut rng, vars, 639) {
        s.add_clause(c);
    }
    let mut lines = Vec::new();
    while s.stats().conflicts <= 4600 {
        let assumptions = random_assumptions(&mut rng, vars, 3);
        let r = s.solve_with_assumptions(&assumptions);
        let level_zero_unsat = r.is_unsat() && s.failed_assumptions().is_empty();
        lines.push(record(&s, &r));
        assert!(!level_zero_unsat, "no more conflicts to meet");
    }
    assert_eq!(lines.len(), 15);
    assert_eq!(
        lines[14],
        "unsat [-102, 90, -67] d5654 p148190 c4910 r27 l2641 x2254"
    );
    let all = fnv1a(lines.iter().flat_map(|l| l.bytes()));
    assert_eq!(all, 0x5633_c8dc_1f21_909a, "an earlier solve moved");
}

#[test]
fn proof_logged_search_is_pinned() {
    // An unsatisfiable random 3-CNF (ratio 5) solved with proof logging:
    // the pinned search must also leave a proof the checker accepts.
    let vars = 70u32;
    let mut rng = Prng::seed_from_u64(0x9400_f10c);
    let mut s = Solver::new();
    s.enable_proof();
    for c in random_3cnf(&mut rng, vars, 350) {
        s.add_clause(c);
    }
    let r = s.solve();
    assert!(r.is_unsat());
    assert_eq!(check_proof(&s.take_proof()), Ok(()));
    assert_eq!(record(&s, &r), "unsat [] d108 p1483 c93 r0 l85 x0");
}

#[test]
fn shared_search_is_pinned() {
    // B imports A's exported clauses at solve entry; the import hits
    // count the imports that took part in B's conflicts.
    let hub = ClauseHub::with_config(
        2,
        ShareConfig {
            ring_capacity: 4096,
            ..ShareConfig::default()
        },
    );
    let mut a = Solver::new();
    let mut b = Solver::new();
    assert!(a.attach_sharing(hub.endpoint().unwrap()));
    assert!(b.attach_sharing(hub.endpoint().unwrap()));
    load_pigeonhole(&mut a, 6);
    load_pigeonhole(&mut b, 6);
    let ra = a.solve();
    let rb = b.solve();
    let st = b.stats();
    let lines = vec![
        record(&a, &ra),
        record(&b, &rb),
        format!("imported {} hits {}", st.clauses_imported, st.import_hits),
    ];
    assert_eq!(
        lines,
        [
            "unsat [] d864 p9234 c718 r4 l715 x0",
            "unsat [] d0 p16 c0 r0 l410 x0",
            "imported 412 hits 6",
        ]
    );
}
