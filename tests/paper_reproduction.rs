//! End-to-end reproduction tests: every headline claim of the paper,
//! checked through the public `verdict` API.

use verdict::incidents;
use verdict::ksim::ClusterSpec;
use verdict::models::k8s;
use verdict::prelude::*;

/// Trait dispatch with a scratch stats sink.
fn inv(kind: EngineKind, sys: &System, p: &Expr, opts: &CheckOptions) -> CheckResult {
    engine(kind)
        .check_invariant(sys, p, opts, &mut Stats::default())
        .unwrap()
}

/// Trait dispatch for LTL with a scratch stats sink.
fn ltl(kind: EngineKind, sys: &System, phi: &Ltl, opts: &CheckOptions) -> CheckResult {
    engine(kind)
        .check_ltl(sys, phi, opts, &mut Stats::default())
        .unwrap()
}

/// Table 1: the aggregation over the embedded study matches the paper.
#[test]
fn table1_counts() {
    let t = incidents::table1();
    assert_eq!(t.google_studied, 42);
    assert_eq!(t.aws_studied, 11);
    let totals: Vec<usize> = t.rows.iter().map(|r| r.total).collect();
    assert_eq!(totals, vec![38, 19, 27, 30]);
}

/// Figure 2: the simulated cluster oscillates at the paper's thresholds
/// and stabilizes when the threshold clears the request.
#[test]
fn figure2_oscillation() {
    let metrics = ClusterSpec::figure2().run(30 * 60);
    assert!(metrics.placement_changes("app-").len() >= 10);
    let mut fixed = ClusterSpec::figure2();
    fixed.descheduler_policies = vec![verdict::ksim::DeschedulerPolicy::LowNodeUtilization {
        evict_above_permille: 550,
    }];
    assert_eq!(fixed.run(30 * 60).placement_changes("app-").len(), 1);
}

/// Case study 1 / Figure 5: `p = m = 1, k = 2` violates on the test
/// topology; `k ≤ 1` is safe; synthesis suggests `p ∈ {1, 2}`.
#[test]
fn case_study_1() {
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");

    // Fig. 5 falsification.
    let r = inv(
        EngineKind::Bmc,
        &model.pinned(1, 2, 1),
        &model.property,
        &CheckOptions::with_depth(8),
    );
    assert!(r.violated());

    // Verification at k = 1.
    let r = inv(
        EngineKind::KInduction,
        &model.pinned(1, 1, 1),
        &model.property,
        &CheckOptions::with_depth(24),
    );
    assert!(r.holds(), "{r}");

    // Synthesis: safe non-zero p ∈ {1, 2}.
    let mut pinned = model.system.clone();
    pinned.add_invar(Expr::var(model.k).eq(Expr::int(1)));
    pinned.add_invar(Expr::var(model.m).eq(Expr::int(1)));
    let synth = Verifier::new(&pinned)
        .options(CheckOptions::with_depth(16))
        .synthesize_params(&[model.p], &Property::Invariant(model.property.clone()))
        .unwrap();
    let safe_nonzero: Vec<i64> = synth
        .safe()
        .iter()
        .filter_map(|v| match v[0] {
            Value::Int(n) if n > 0 => Some(n),
            _ => None,
        })
        .collect();
    assert_eq!(safe_nonzero, vec![1, 2]);
}

/// Case study 2: both liveness properties fail with lasso counterexamples
/// over synthesized real-valued parameters.
#[test]
fn case_study_2() {
    let model = LbModel::build(&LbSpec::default());
    let r = ltl(
        EngineKind::SmtBmc,
        &model.system,
        &model.liveness,
        &CheckOptions::with_depth(10),
    );
    assert!(r.trace().is_some_and(|t| t.loop_back.is_some()));
    let r = ltl(
        EngineKind::SmtBmc,
        &model.system,
        &model.conditional_liveness,
        &CheckOptions::with_depth(12),
    );
    let t = r.trace().expect("violated");
    // The external event fires somewhere before the loop completes.
    let ext_fired =
        (0..t.len()).any(|s| t.value(s, "external_traffic") == Some(&Value::Bool(true)));
    assert!(ext_fired, "{t}");
}

/// §3.2 issues: both Kubernetes bugs manifest in the models.
#[test]
fn kubernetes_issue_models() {
    let m = k8s::taint_loop();
    let k8s::K8sProperty::Ltl(phi) = &m.property else {
        panic!()
    };
    assert!(ltl(
        EngineKind::Bmc,
        &m.system,
        phi,
        &CheckOptions::with_depth(10)
    )
    .violated());

    let m = k8s::hpa_ruc(1, 5);
    let k8s::K8sProperty::Invariant(p) = &m.property else {
        panic!()
    };
    assert!(inv(EngineKind::Bmc, &m.system, p, &CheckOptions::with_depth(16)).violated());
}

/// Figure 6's qualitative shape on the smallest instances: verification
/// succeeds for k ≤ 1 and fails for k = 2 on test and fattree4 (the
/// paper's footnote 6); on fattree6, whose front end has three uplinks,
/// BMC falsifies at k = 3 and verification succeeds for every k ≤ 2.
#[test]
fn figure6_shape_smallest() {
    let cases = [
        (Topology::test_topology(), None, [true, true, false]),
        (Topology::fat_tree(4), None, [true, true, false]),
        (Topology::fat_tree(6), Some(3), [true, true, true]),
    ];
    for (topo, k_fail, holds) in cases {
        let name = topo.name.clone();
        let model = RolloutModel::build(&RolloutSpec::paper(topo)).expect("valid topology");
        if let Some(k) = k_fail {
            let r = inv(
                EngineKind::Bmc,
                &model.pinned(1, k, 1),
                &model.property,
                &CheckOptions::with_depth(8),
            );
            assert!(r.violated(), "{name} k={k}: {r:.0}");
        }
        for (k, expect_holds) in (0i64..).zip(holds) {
            let r = inv(
                EngineKind::KInduction,
                &model.pinned(1, k, 1),
                &model.property,
                &CheckOptions::with_depth(24),
            );
            assert_eq!(r.holds(), expect_holds, "{name} k={k}: {r:.0}");
        }
    }
}

/// The DSL round-trips a paper-style model through the whole stack.
#[test]
fn dsl_to_engines() {
    let m = verdict::dsl::parse(
        "system flip {
            var x : bool;
            init x;
            trans next(x) = !x;
            ltl fg: F (G x);
        }",
    )
    .unwrap();
    let verdict::dsl::CompiledProperty::Ltl(phi) = m.property("fg").unwrap() else {
        panic!()
    };
    let r = ltl(EngineKind::Bdd, &m.system, phi, &CheckOptions::default());
    assert!(r.violated());
}
