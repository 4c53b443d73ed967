//! Cross-engine agreement for the partitioned symbolic engine.
//!
//! The partitioned transition relation, early quantification, garbage
//! collection, and care-set property lowering are all pure optimizations:
//! every verdict — including under `--certify` — must be identical to
//! the monolithic relation and to k-induction. This suite pins that on
//! the shipped case studies (`examples/models/*.vd`, the rollout
//! topologies) and on a batch of seeded random systems.

use verdict_mc::prelude::*;
use verdict_mc::{Stats, UnknownReason};
use verdict_models::{RolloutModel, RolloutSpec, Topology};
use verdict_prng::Prng;
use verdict_ts::{Expr, System, VarId};

fn check(sys: &System, p: &Expr, opts: &CheckOptions) -> CheckResult {
    engine(EngineKind::Bdd)
        .check_invariant(sys, p, opts, &mut Stats::default())
        .unwrap()
}

fn partitioned(depth: usize) -> CheckOptions {
    CheckOptions::with_depth(depth)
}

fn monolithic(depth: usize) -> CheckOptions {
    CheckOptions::with_depth(depth).with_bdd_partitioned(false)
}

/// Compiles a `.vd` case study from `examples/models`. (The leaky-bucket
/// example is real-valued and thus out of reach of any BDD mode, so this
/// suite drives the two finite-state examples.)
fn vd_model(file: &str) -> verdict_dsl::CompiledModel {
    let path = format!(
        "{}/../../examples/models/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    verdict_dsl::parse(&source).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn case_study_invariants_agree_partitioned_vs_monolithic_vs_kinduction() {
    let model = vd_model("step_counter.vd");
    for (name, p) in &model.properties {
        let verdict_dsl::CompiledProperty::Invariant(p) = p else {
            continue;
        };
        let sys = &model.system;
        let part = check(sys, p, &partitioned(24));
        let mono = check(sys, p, &monolithic(24));
        let kind = engine(EngineKind::KInduction)
            .check_invariant(sys, p, &CheckOptions::with_depth(24), &mut Stats::default())
            .unwrap();
        assert_eq!(
            part.holds(),
            mono.holds(),
            "{name}: partitioned vs monolithic"
        );
        assert_eq!(
            part.violated(),
            mono.violated(),
            "{name}: partitioned vs monolithic"
        );
        if kind.holds() || kind.violated() {
            assert_eq!(
                part.violated(),
                kind.violated(),
                "{name}: partitioned vs k-induction"
            );
        }
        // Shortest-counterexample lengths must also agree: both BDD
        // modes do ring-indexed breadth-first reachability.
        if let (Some(a), Some(b)) = (part.trace(), mono.trace()) {
            assert_eq!(a.len(), b.len(), "{name}: trace lengths differ");
        }
    }
}

#[test]
fn case_study_ltl_agrees_partitioned_vs_monolithic_vs_explicit() {
    // The taint-loop case study ships an LTL property (F G running);
    // liveness via the product construction must be partition-agnostic.
    let model = vd_model("taint_loop.vd");
    let mut checked = 0;
    for (name, p) in &model.properties {
        let verdict_dsl::CompiledProperty::Ltl(phi) = p else {
            continue;
        };
        let run = |opts: &CheckOptions, kind: EngineKind| {
            engine(kind)
                .check_ltl(&model.system, phi, opts, &mut Stats::default())
                .unwrap()
        };
        let part = run(&partitioned(24), EngineKind::Bdd);
        let mono = run(&monolithic(24), EngineKind::Bdd);
        let oracle = run(&CheckOptions::with_depth(24), EngineKind::Explicit);
        assert_eq!(
            part.holds(),
            mono.holds(),
            "{name}: partitioned vs monolithic"
        );
        assert_eq!(
            part.violated(),
            mono.violated(),
            "{name}: partitioned vs monolithic"
        );
        assert_eq!(
            part.holds(),
            oracle.holds(),
            "{name}: partitioned vs explicit"
        );
        checked += 1;
    }
    assert!(checked > 0, "taint_loop must ship an LTL property");
}

#[test]
fn rollout_sweep_agrees_partitioned_vs_monolithic() {
    // The paper's case study 1 on the test topology, over the Fig. 5/6
    // configurations: violated and holding cases both covered.
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    for (p, k, m) in [(1, 2, 1), (0, 0, 1), (1, 1, 1), (2, 1, 1), (2, 0, 3)] {
        let sys = model.pinned(p, k, m);
        let part = check(&sys, &model.property, &partitioned(24));
        let mono = check(&sys, &model.property, &monolithic(24));
        assert_eq!(
            part.holds(),
            mono.holds(),
            "(p={p},k={k},m={m}): partitioned vs monolithic"
        );
        assert_eq!(
            part.violated(),
            mono.violated(),
            "(p={p},k={k},m={m}): partitioned vs monolithic"
        );
        if let (Some(a), Some(b)) = (part.trace(), mono.trace()) {
            assert_eq!(a.len(), b.len(), "(p={p},k={k},m={m}): trace lengths");
        }
    }
}

/// A random small finite system (same shape as the cross-engine suite:
/// a few booleans with latch/flip/free dynamics and one bounded
/// saturating counter).
fn random_system(seed: u64) -> (System, VarId) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut sys = System::new("random");
    let nbools = 1 + rng.gen_index(3);
    let bools: Vec<VarId> = (0..nbools)
        .map(|i| sys.bool_var(&format!("b{i}")))
        .collect();
    let hi = rng.gen_range_i64(2, 5);
    let n = sys.int_var("n", 0, hi);
    for &b in &bools {
        if rng.gen_bool() {
            let positive = rng.gen_bool();
            sys.add_init(if positive {
                Expr::var(b)
            } else {
                Expr::var(b).not()
            });
        }
    }
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    let guard_bool = bools[rng.gen_index(nbools)];
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(guard_bool).and(Expr::var(n).lt(Expr::int(hi))),
        Expr::var(n).add(Expr::int(1)),
        Expr::var(n),
    )));
    for &b in &bools {
        match rng.gen_index(3) {
            0 => sys.add_trans(Expr::var(b).implies(Expr::next(b))),
            1 => sys.add_trans(Expr::next(b).eq(Expr::var(b).not())),
            _ => {}
        }
    }
    (sys, n)
}

#[test]
fn random_models_agree_partitioned_vs_monolithic() {
    for seed in 0..60u64 {
        let (sys, n) = random_system(seed.wrapping_mul(2654435761));
        let mut rng = Prng::seed_from_u64(seed ^ 0x9e37);
        let p = Expr::var(n).lt(Expr::int(rng.gen_range_i64(1, 4)));
        let part = check(&sys, &p, &partitioned(32));
        let mono = check(&sys, &p, &monolithic(32));
        assert_eq!(part.holds(), mono.holds(), "seed {seed}\n{sys}");
        assert_eq!(part.violated(), mono.violated(), "seed {seed}\n{sys}");
        if let (Some(a), Some(b)) = (part.trace(), mono.trace()) {
            assert_eq!(a.len(), b.len(), "seed {seed}: shortest traces\n{sys}");
        }
    }
}

#[test]
fn certify_survives_partitioning() {
    // Certified verdicts under the partitioned relation: proofs pass the
    // partition re-check plus the SAT re-check, counterexamples replay.
    // No spurious CertificateRejected demotions.
    for seed in 0..25u64 {
        let (sys, n) = random_system(seed.wrapping_mul(48271));
        let p = Expr::var(n).lt(Expr::int(2));
        let plain = check(&sys, &p, &partitioned(32));
        let certified = check(&sys, &p, &partitioned(32).with_certify());
        assert_eq!(plain.holds(), certified.holds(), "seed {seed}\n{sys}");
        assert_eq!(plain.violated(), certified.violated(), "seed {seed}\n{sys}");
        assert!(
            !matches!(
                certified,
                CheckResult::Unknown(UnknownReason::CertificateRejected)
            ),
            "seed {seed}: spurious certificate rejection\n{sys}"
        );
    }
    // And on a holding rollout configuration, where the partition count
    // is real (> 1).
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    let sys = model.pinned(1, 1, 1);
    let mut stats = Stats::default();
    let r = engine(EngineKind::Bdd)
        .check_invariant(
            &sys,
            &model.property,
            &partitioned(24).with_certify(),
            &mut stats,
        )
        .unwrap();
    assert!(
        r.holds(),
        "rollout (1,1,1) certified under partitioning: {r}"
    );
    assert!(
        stats.bdd.partitions > 1,
        "rollout must exercise a genuinely partitioned relation, got {}",
        stats.bdd.partitions
    );
}

#[test]
fn partitioned_reruns_are_deterministic() {
    // Verdicts and traces must be bit-identical across runs.
    for seed in [3u64, 11, 17] {
        let (sys, n) = random_system(seed.wrapping_mul(6364136223846793005));
        let p = Expr::var(n).lt(Expr::int(2));
        let a = check(&sys, &p, &partitioned(32));
        let b = check(&sys, &p, &partitioned(32));
        assert_eq!(a.holds(), b.holds(), "seed {seed}\n{sys}");
        assert_eq!(a.violated(), b.violated(), "seed {seed}\n{sys}");
        match (a.trace(), b.trace()) {
            (Some(ta), Some(tb)) => {
                assert_eq!(ta.states, tb.states, "seed {seed}: reruns differ\n{sys}");
            }
            (None, None) => {}
            _ => panic!("seed {seed}: trace presence differs"),
        }
    }
}

#[test]
fn encode_phase_respects_the_wall_clock_timeout() {
    // The monolithic relation for fattree6 grinds inside a single
    // `and_all` where no engine loop can poll the budget; the deadline
    // armed inside the manager must unwind it. (Before that fix this
    // check ran for tens of minutes regardless of the timeout.)
    let model =
        RolloutModel::build(&RolloutSpec::paper(Topology::fat_tree(6))).expect("valid topology");
    let sys = model.pinned(1, 1, 1);
    let start = std::time::Instant::now();
    let r = check(
        &sys,
        &model.property,
        &monolithic(24).with_timeout(std::time::Duration::from_secs(2)),
    );
    let took = start.elapsed();
    if !r.holds() {
        // On fast hosts the check may legitimately finish inside the
        // budget; otherwise the verdict must be a timeout, promptly.
        assert!(
            matches!(r, CheckResult::Unknown(UnknownReason::Timeout)),
            "expected timeout, got {r}"
        );
    }
    assert!(
        took.as_secs() < 30,
        "2s timeout must not take {took:?} to honor"
    );
}

#[test]
fn tiny_node_ceiling_fails_promptly_on_a_large_model() {
    // Memory-safety regression: a node ceiling far below what fattree4
    // needs must produce Unknown(ResourceExhausted) quickly — the
    // poisoned manager unwinds instead of thrashing toward a timeout.
    let model =
        RolloutModel::build(&RolloutSpec::paper(Topology::fat_tree(4))).expect("valid topology");
    let sys = model.pinned(1, 1, 1);
    let start = std::time::Instant::now();
    let r = check(
        &sys,
        &model.property,
        &partitioned(24).with_max_bdd_nodes(2_000),
    );
    let took = start.elapsed();
    assert!(
        matches!(r, CheckResult::Unknown(UnknownReason::ResourceExhausted)),
        "expected resource exhaustion, got {r}"
    );
    assert!(
        took.as_secs() < 30,
        "poisoned run must fail promptly, took {took:?}"
    );
}

#[test]
fn partitioned_stats_report_partitions() {
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    let sys = model.pinned(1, 1, 1);
    let mut stats = Stats::default();
    let r = engine(EngineKind::Bdd)
        .check_invariant(&sys, &model.property, &partitioned(24), &mut stats)
        .unwrap();
    assert!(r.holds(), "{r}");
    assert!(stats.bdd.partitions > 1, "got {}", stats.bdd.partitions);
    // Monolithic mode reports exactly one partition.
    let mut stats = Stats::default();
    let _ = engine(EngineKind::Bdd)
        .check_invariant(&sys, &model.property, &monolithic(24), &mut stats)
        .unwrap();
    assert_eq!(stats.bdd.partitions, 1, "monolithic is one partition");
}
