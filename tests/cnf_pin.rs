//! Pins the CNF the finite unroller emits, clause for clause.
//!
//! Each case unrolls a system from its initial states and from any
//! state, lowers a set of queries at every step as the SAT engines do
//! (`lower_bool`, then `literal_for`), and compares against recorded
//! values: the clause count, the SAT variable count, the literal each
//! `literal_for` returned, and an FNV-1a hash of the drained clause
//! stream (each literal's DIMACS value, then a 0 after each clause). A
//! change to the encoder that keeps these equal emits the same CNF, so
//! every solver run over it takes the same search.

use std::path::Path;
use std::sync::Arc;

use verdict::models::{RolloutModel, RolloutSpec, Topology};
use verdict::ts::{Expr, Property, System, Unroller};
use verdict_scenarios::{generate, GenConfig, Pattern};

/// What one unrolling emitted.
#[derive(Debug, PartialEq)]
struct Pin {
    clauses: usize,
    vars: u32,
    lits: Vec<i64>,
    hash: u64,
}

/// FNV-1a over a stream of DIMACS values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, value: i64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Unrolls `sys` to `depth` (from INIT, or from any state when `free`)
/// and, at every step, lowers each query and asks for its literal.
fn pin(sys: &System, queries: &[Expr], depth: usize, free: bool) -> Pin {
    let mut u = if free {
        Unroller::new_free(sys)
    } else {
        Unroller::new(sys)
    }
    .expect("finite, well-sorted system");
    let mut hash = Fnv::new();
    let mut clauses = 0;
    let mut lits = Vec::new();
    for step in 0..=depth {
        u.extend_to(step);
        for q in queries {
            let f = u.lower_bool(q, step);
            lits.push(u.literal_for(&f).to_dimacs());
        }
        for clause in u.drain_clauses() {
            clauses += 1;
            for lit in clause {
                hash.feed(lit.to_dimacs());
            }
            hash.feed(0);
        }
    }
    Pin {
        clauses,
        vars: u.num_sat_vars(),
        lits,
        hash: hash.0,
    }
}

/// The queries the engines lower for a property: the bad states of an
/// invariant, or each atom of an LTL or CTL formula.
fn queries(prop: &Property) -> Vec<Expr> {
    match prop {
        Property::Invariant(p) => vec![p.clone().not()],
        Property::Ltl(phi) => {
            let mut atoms = Vec::new();
            phi.clone().not().nnf().atoms(&mut atoms);
            atoms
        }
        Property::Ctl(_) => panic!("no CTL property in the pinned models"),
    }
}

/// Both unrollings of every property of a compiled model.
fn model_pins(source: &str, depth: usize) -> Vec<(String, bool, Pin)> {
    let model = verdict::dsl::parse(source).expect("model compiles");
    let mut out = Vec::new();
    for (name, prop) in &model.properties {
        for free in [false, true] {
            out.push((
                name.clone(),
                free,
                pin(&model.system, &queries(prop), depth, free),
            ));
        }
    }
    out
}

/// Checks `got` against the recorded table, printing every mismatch as a
/// row to paste before failing.
fn check(label: &str, got: Vec<(String, bool, Pin)>, want: &[(&str, bool, Pin)]) {
    let mut bad = Vec::new();
    for (name, free, pin) in &got {
        let recorded = want.iter().find(|(n, f, _)| n == name && f == free);
        if recorded.map(|(_, _, p)| p) != Some(pin) {
            bad.push(format!(
                "(\"{name}\", {free}, Pin {{ clauses: {}, vars: {}, lits: vec!{:?}, hash: {:#018x} }}),",
                pin.clauses, pin.vars, pin.lits, pin.hash
            ));
        }
    }
    assert!(
        bad.is_empty() && got.len() == want.len(),
        "{label}: {} cases recorded, {} run; CNF changed:\n{}",
        want.len(),
        got.len(),
        bad.join("\n")
    );
}

fn p(clauses: usize, vars: u32, lits: Vec<i64>, hash: u64) -> Pin {
    Pin {
        clauses,
        vars,
        lits,
        hash,
    }
}

#[test]
fn fat_tree_rollout_cnf_is_pinned() {
    let mut got = Vec::new();
    for arity in [4, 6] {
        let model = RolloutModel::build(&RolloutSpec::paper(Topology::fat_tree(arity)))
            .expect("fat tree builds");
        let sys = model.pinned(1, 2, 1);
        let bad = [model.property.clone().not()];
        for free in [false, true] {
            got.push((format!("fattree{arity}"), free, pin(&sys, &bad, 3, free)));
        }
    }
    #[rustfmt::skip]
    let want = [
        ("fattree4", false, p(26829, 8809, vec![-2134, -4359, -6584, -8809], 0x8f2d_83ad_9814_5b91)),
        ("fattree4", true, p(26776, 8809, vec![-2134, -4359, -6584, -8809], 0xfb16_8e37_52f3_6c74)),
        ("fattree6", false, p(217413, 72027, vec![-17829, -35895, -53961, -72027], 0xd265_8d5c_b86e_e7a6)),
        ("fattree6", true, p(217254, 72027, vec![-17829, -35895, -53961, -72027], 0x094b_4192_bcd1_f827)),
    ];
    check("fat trees", got, &want);
}

#[test]
fn example_model_cnf_is_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/models");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("example model");
    let mut got = Vec::new();
    for file in ["step_counter.vd", "taint_loop.vd"] {
        for (name, free, pin) in model_pins(&read(file), 4) {
            got.push((format!("{file}/{name}"), free, pin));
        }
    }
    #[rustfmt::skip]
    let want = [
        ("step_counter.vd/miss5", false, p(728, 223, vec![12, 64, 117, 170, 223], 0x0c05_a9bf_979e_5ae5)),
        ("step_counter.vd/miss5", true, p(727, 223, vec![11, 64, 117, 170, 223], 0xdacd_82d8_1590_7956)),
        ("taint_loop.vd/settles", false, p(153, 56, vec![-7, -16, -28, -40, -52], 0xa0fe_de80_96a5_b7a1)),
        ("taint_loop.vd/settles", true, p(149, 55, vec![-5, -15, -27, -39, -51], 0x2137_4df4_d0f0_f649)),
    ];
    check("example models", got, &want);
    // The third example is real-valued: the finite encoder rejects it.
    let leaky = verdict::dsl::parse(&read("leaky_bucket.vd")).expect("model compiles");
    assert!(Unroller::new(&leaky.system).is_err());
}

#[test]
fn scenario_pattern_cnf_is_pinned() {
    let mut got = Vec::new();
    for pattern in Pattern::ALL {
        let cfg = GenConfig {
            patterns: vec![pattern],
            ..GenConfig::default()
        };
        let first = generate(&cfg)
            .into_iter()
            .next()
            .expect("a base-grid point");
        for (name, free, pin) in model_pins(&first.source, 3) {
            got.push((format!("{}/{name}", first.id), free, pin));
        }
    }
    #[rustfmt::skip]
    let want = [
        ("rollout-lb-replicas4-batch1-cap2-load6/no_overload", false, p(700, 208, vec![-10, -76, -142, -208], 0x4a0a_2d3e_8399_b263)),
        ("rollout-lb-replicas4-batch1-cap2-load6/no_overload", true, p(692, 206, vec![-8, -74, -140, -206], 0x4bbb_8561_09b1_1fb5)),
        ("rollout-lb-replicas4-batch1-cap2-load6/recovers", false, p(684, 203, vec![-7, -73, -138, -203], 0x2ed0_6b01_ae6a_625e)),
        ("rollout-lb-replicas4-batch1-cap2-load6/recovers", true, p(680, 202, vec![-7, -72, -137, -202], 0x5801_c8ae_58ec_f485)),
        ("autoscaler-descheduler-lo1-hi8-load10-grow4-shrink2-n01/few_flips", false, p(2330, 797, vec![21, 279, 538, 797], 0xff61_5580_0124_17e5)),
        ("autoscaler-descheduler-lo1-hi8-load10-grow4-shrink2-n01/few_flips", true, p(2323, 795, vec![14, 277, 536, 795], 0x089b_8c85_cf38_90d3)),
        ("autoscaler-descheduler-lo1-hi8-load10-grow4-shrink2-n01/settles", false, p(2289, 789, vec![-22, -277, -533, -789], 0xd9ee_0468_3ff3_c136)),
        ("autoscaler-descheduler-lo1-hi8-load10-grow4-shrink2-n01/settles", true, p(2278, 786, vec![-18, -274, -530, -786], 0x2cf3_c69e_1c1c_2ed2)),
        ("cascading-failover-nodes4-cap2-load4-budget1/contained", false, p(432, 126, vec![12, 50, 88, 126], 0x4ba7_8c69_8926_7fd7)),
        ("cascading-failover-nodes4-cap2-load4-budget1/contained", true, p(428, 125, vec![11, 49, 87, 125], 0xecbb_c0b6_1b6f_0ede)),
        ("cascading-failover-nodes4-cap2-load4-budget1/never_total_loss", false, p(380, 115, vec![3, 11, 46, 82], 0xbd0c_4444_b822_3c29)),
        ("cascading-failover-nodes4-cap2-load4-budget1/never_total_loss", true, p(376, 114, vec![3, 9, 45, 81], 0x6cc8_b405_d6ff_155b)),
        ("config-canary-promote3-detect2/no_bad_promote", false, p(388, 132, vec![13, 52, 92, 132], 0xb441_183b_d680_b66e)),
        ("config-canary-promote3-detect2/no_bad_promote", true, p(380, 130, vec![10, 50, 90, 130], 0xa016_0063_9223_d885)),
        ("config-canary-promote3-detect2/resolves", false, p(388, 132, vec![-12, -13, -51, -52, -91, -92, -131, -132], 0x88d4_9a5e_9dc3_569a)),
        ("config-canary-promote3-detect2/resolves", true, p(380, 130, vec![-9, -10, -49, -50, -89, -90, -129, -130], 0xb4a3_cbf7_9207_cd2d)),
        ("split-brain-members3-side_a1-quorum2/one_primary", false, p(252, 86, vec![11, 36, 61, 86], 0xb007_bd77_57a5_e654)),
        ("split-brain-members3-side_a1-quorum2/one_primary", true, p(241, 83, vec![8, 33, 58, 83], 0x0c14_3f43_1aae_5f9d)),
        ("split-brain-members3-side_a1-quorum2/heals", false, p(240, 82, vec![-4, 5, -14, 15, -38, 39, -62, 63], 0x3944_0ca5_ee2d_eaaa)),
        ("split-brain-members3-side_a1-quorum2/heals", true, p(229, 79, vec![-4, 5, -11, 12, -35, 36, -59, 60], 0xc804_6d57_d677_9c3f)),
    ];
    check("scenario patterns", got, &want);
}

/// Boolean nodes built raw, past the builders' folding, so the encoder
/// meets every constant and duplicate case itself.
#[test]
fn constant_folds_cnf_is_pinned() {
    let mut sys = System::new("folds");
    let x: Vec<Expr> = (0..4)
        .map(|i| Expr::var(sys.bool_var(&format!("x{i}"))))
        .collect();
    let n = sys.int_var("n", 0, 5);
    sys.add_trans(Expr::next(n).eq(Expr::var(n)));
    let (tt, ff) = (Expr::tt(), Expr::ff());
    let and = |xs: Vec<Expr>| Expr::And(Arc::new(xs));
    let or = |xs: Vec<Expr>| Expr::Or(Arc::new(xs));
    let not = |e: Expr| Expr::Not(Arc::new(e));
    let ite = |c: Expr, a: Expr, b: Expr| Expr::Ite(Arc::new(c), Arc::new(a), Arc::new(b));
    let iff = |a: Expr, b: Expr| Expr::Iff(Arc::new(a), Arc::new(b));
    let imp = |a: Expr, b: Expr| Expr::Implies(Arc::new(a), Arc::new(b));
    let eq = |a: Expr, b: Expr| Expr::Eq(Arc::new(a), Arc::new(b));
    let nodes = vec![
        // An absorbing constant after a non-constant conjunct.
        and(vec![x[0].clone(), ff.clone(), x[1].clone()]),
        or(vec![
            x[0].clone(),
            tt.clone(),
            and(vec![x[1].clone(), x[2].clone()]),
        ]),
        and(vec![tt.clone(), x[0].clone(), tt.clone()]),
        or(vec![ff.clone(), ff.clone()]),
        and(vec![]),
        or(vec![]),
        // A constant ite branch, which becomes a fresh unit variable. As
        // a root, a constant result reaches `literal_for`, which also
        // makes a fresh unit variable of it.
        ite(x[0].clone(), tt.clone(), x[1].clone()),
        ite(x[0].clone(), x[1].clone(), ff.clone()),
        ite(x[0].clone(), tt.clone(), ff.clone()),
        ite(x[0].clone(), ff.clone(), tt.clone()),
        ite(x[0].clone(), tt.clone(), tt.clone()),
        ite(tt.clone(), x[1].clone(), x[2].clone()),
        ite(x[0].clone(), x[1].clone(), x[1].clone()),
        // Duplicate and complementary operands.
        and(vec![x[0].clone(), x[0].clone()]),
        and(vec![x[0].clone(), x[1].clone(), x[0].clone()]),
        or(vec![x[0].clone(), not(x[0].clone())]),
        iff(x[0].clone(), x[0].clone()),
        iff(x[0].clone(), not(x[0].clone())),
        iff(x[1].clone(), x[0].clone()),
        // Iff, equality and implication with a constant side.
        iff(x[0].clone(), tt.clone()),
        iff(ff.clone(), x[1].clone()),
        iff(tt.clone(), ff.clone()),
        eq(x[2].clone(), ff.clone()),
        imp(tt.clone(), x[0].clone()),
        imp(x[0].clone(), ff.clone()),
        imp(ff.clone(), x[1].clone()),
        imp(x[2].clone(), x[2].clone()),
        not(tt.clone()),
        // Next-state leaves and a numeric comparison among boolean nodes.
        and(vec![Expr::next(n).le(Expr::int(3)), x[3].clone()]),
        ite(
            eq(Expr::var(n), Expr::int(2)),
            x[3].clone(),
            Expr::next(n).lt(Expr::var(n)),
        ),
    ];
    let mut queries = Vec::new();
    for e in &nodes {
        // As a root, as an operand under a root, and nested one deeper.
        queries.push(e.clone());
        queries.push(not(e.clone()));
        queries.push(or(vec![x[3].clone(), and(vec![e.clone(), x[2].clone()])]));
    }
    let got = vec![("folds".to_string(), false, pin(&sys, &queries, 1, false))];
    #[rustfmt::skip]
    let want = [
        ("folds", false, p(563, 220, vec![
            9, 10, 4, 12, 13, 14, 1, -1, 16, 17, 18, 4, 19, 20, 14, 21, 22, 4,
            24, -26, 30, 32, -34, 38, 1, -1, 16, -1, 1, 40, 41, 42, 14, 2, -2, 43,
            44, -44, 46, 1, -1, 16, 48, -48, 50, 51, -51, 53, -54, 54, 56, -57, 57, 59,
            -60, 60, 62, 1, -1, 16, -2, 2, 64, 65, 66, 4, -3, 3, 68, 1, -1, 16,
            -1, 1, 40, 69, 70, 14, 71, -71, 73, 74, 75, 4, 96, -96, 98, 114, -114, 116,
            117, 118, 79, 120, 121, 122, 76, -76, 124, 125, 126, 79, 127, 128, 122, 129, 130, 79,
            132, -134, 138, 140, -142, 146, 76, -76, 124, -76, 76, 148, 149, 150, 122, 77, -77, 151,
            152, -152, 154, 76, -76, 124, 156, -156, 158, 159, -159, 161, -162, 162, 164, -165, 165, 167,
            -168, 168, 170, 76, -76, 124, -77, 77, 172, 173, 174, 79, -78, 78, 176, 76, -76, 124,
            -76, 76, 148, 177, 178, 122, 179, -179, 181, 182, 183, 79, 204, -204, 206, 218, -218, 220,
        ], 0x35d6_fc16_3c22_b9fc)),
    ];
    check("constant folds", got, &want);
}
