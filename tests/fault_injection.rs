//! Fault-injection matrix: inject every supported fault kind at every
//! probe site across the bmc, k-induction, bdd, smt-bmc, portfolio, and
//! incremental-synthesis paths, and assert the three robustness
//! invariants of the harness:
//!
//! 1. no injected fault escapes its isolation boundary (the test process
//!    never dies),
//! 2. a faulted run never *disagrees* with the fault-free reference on a
//!    definitive Safe/Unsafe verdict — faults only ever degrade to
//!    `Unknown`, and
//! 3. the degraded verdict carries the `UnknownReason` the fault models
//!    (panic → engine-failure, exhaust/overflow → resource-exhausted),
//!    and a retry policy then restores full agreement.
//!
//! The fault registry is process-global, so every test here serializes
//! on `fault::test_lock()`.

use std::time::Duration;

use verdict_journal::fault::{self, FaultKind, FaultPlan};
use verdict_mc::params::{synthesize, Property, SynthesisEngine, SynthesisResult};
use verdict_mc::{CheckOptions, CheckResult, EngineKind, RetryPolicy, UnknownReason, Verifier};
use verdict_ts::{Expr, System, VarId};

/// Case-study-style sweep model: which step sizes avoid hitting 5?
fn step_system() -> (System, VarId) {
    let mut sys = System::new("step");
    let n = sys.int_var("n", 0, 10);
    let p = sys.int_param("p", 1, 3);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).le(Expr::int(7)),
        Expr::var(n).add(Expr::var(p)),
        Expr::var(n),
    )));
    (sys, p)
}

fn step_property(sys: &System) -> Property {
    let n = sys.var_by_name("n").expect("n exists");
    Property::Invariant(Expr::var(n).ne(Expr::int(5)))
}

/// Parameterless counter for solo-engine checks.
fn counter() -> (System, Expr) {
    let mut sys = System::new("counter");
    let n = sys.int_var("n", 0, 7);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).lt(Expr::int(7)),
        Expr::var(n).add(Expr::int(1)),
        Expr::var(n),
    )));
    let prop = Expr::var(n).le(Expr::int(7));
    (sys, prop)
}

/// Real-valued ramp: drives the simplex (site `smt.pivot`).
fn real_ramp() -> (System, Expr) {
    let mut sys = System::new("ramp");
    let x = sys.real_var("x");
    sys.add_init(Expr::var(x).eq(Expr::real(verdict_logic::Rational::ZERO)));
    sys.add_trans(Expr::next(x).eq(Expr::var(x).add(Expr::real(verdict_logic::Rational::ONE))));
    let prop = Expr::var(x).lt(Expr::real(verdict_logic::Rational::integer(3)));
    (sys, prop)
}

fn reason_of(r: &CheckResult) -> Option<UnknownReason> {
    match r {
        CheckResult::Unknown(u) => Some(*u),
        _ => None,
    }
}

/// Definitive verdicts must never flip under fault injection.
fn assert_no_disagreement(reference: &SynthesisResult, got: &SynthesisResult, ctx: &str) {
    assert_eq!(reference.verdicts.len(), got.verdicts.len(), "{ctx}: space");
    for (r, g) in reference.verdicts.iter().zip(&got.verdicts) {
        assert_eq!(r.values, g.values, "{ctx}: order changed");
        if g.result.holds() || g.result.violated() {
            assert_eq!(
                r.result.holds(),
                g.result.holds(),
                "{ctx}: flipped at {:?}",
                g.values
            );
            assert_eq!(
                r.result.violated(),
                g.result.violated(),
                "{ctx}: flipped at {:?}",
                g.values
            );
        }
    }
}

fn retry_fast() -> RetryPolicy {
    RetryPolicy::with_retries(2).with_backoff(Duration::ZERO)
}

/// Sweep workload. `jobs(1)` keeps the probe hit order deterministic.
fn run_sweep(opts: &CheckOptions) -> SynthesisResult {
    let (sys, p) = step_system();
    let prop = step_property(&sys);
    synthesize(&sys, &[p], &prop, SynthesisEngine::KInduction, opts).expect("sweep runs")
}

fn sweep_opts() -> CheckOptions {
    CheckOptions::with_depth(16).with_jobs(1)
}

/// Fault matrix over the synthesis sweep (incremental k-induction by
/// default): both worker-boundary and engine-internal sites.
#[test]
fn sweep_faults_degrade_then_retry_restores() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = run_sweep(&sweep_opts());
    assert!(reference
        .verdicts
        .iter()
        .all(|v| !matches!(v.result, CheckResult::Unknown(_))));

    // (site, kind, opts, expected reason of the degraded verdict)
    let cases: &[(&str, FaultKind, CheckOptions, UnknownReason)] = &[
        (
            "sat.solve",
            FaultKind::Panic,
            sweep_opts(),
            UnknownReason::EngineFailure,
        ),
        (
            "sat.solve",
            FaultKind::Exhaust,
            sweep_opts(),
            UnknownReason::ResourceExhausted,
        ),
        (
            "sat.solve",
            FaultKind::Panic,
            sweep_opts().with_incremental(false),
            UnknownReason::EngineFailure,
        ),
        (
            "mc.budget",
            FaultKind::Exhaust,
            sweep_opts(),
            UnknownReason::ResourceExhausted,
        ),
        (
            "mc.synth.worker",
            FaultKind::Panic,
            sweep_opts(),
            UnknownReason::EngineFailure,
        ),
        (
            "mc.synth.worker",
            FaultKind::Panic,
            sweep_opts().with_incremental(false),
            UnknownReason::EngineFailure,
        ),
        (
            "mc.certify",
            FaultKind::Panic,
            sweep_opts().with_certify(),
            UnknownReason::EngineFailure,
        ),
    ];

    for (site, kind, opts, expected) in cases {
        let ctx = format!("{site}:{}", kind.tag());
        // Without retries: the fault fires once, one verdict degrades to
        // the matching Unknown reason, nothing flips.
        fault::install(&FaultPlan::single(site, *kind, 1));
        let got = run_sweep(opts);
        fault::clear();
        assert_no_disagreement(&reference, &got, &ctx);
        let reasons: Vec<_> = got
            .verdicts
            .iter()
            .filter_map(|v| reason_of(&v.result))
            .collect();
        assert!(
            reasons.iter().all(|r| r == expected),
            "{ctx}: wrong reason {reasons:?}"
        );
        assert!(
            !reasons.is_empty(),
            "{ctx}: fault did not surface (probe never hit?)"
        );

        // With retries: the one-shot fault is absorbed and the sweep
        // agrees with the reference verdict-for-verdict.
        fault::install(&FaultPlan::single(site, *kind, 1));
        let retried = run_sweep(&opts.clone().with_retry(retry_fast()));
        fault::clear();
        assert_no_disagreement(&reference, &retried, &format!("{ctx}+retry"));
        for (r, g) in reference.verdicts.iter().zip(&retried.verdicts) {
            assert_eq!(
                reason_of(&r.result),
                reason_of(&g.result),
                "{ctx}+retry: residual unknown at {:?}",
                g.values
            );
        }
        let max_attempts = retried.verdicts.iter().map(|v| v.attempts).max().unwrap();
        assert!(
            max_attempts >= 2,
            "{ctx}+retry: no attempt was recorded as a retry"
        );
    }
}

/// Solo engines (bmc, k-induction, bdd, smt-bmc): a fault inside the
/// engine is contained at the `Verifier` boundary and degrades the
/// check, never the process.
#[test]
fn solo_engine_faults_are_contained() {
    let _guard = fault::test_lock();
    fault::clear();

    let (fin_sys, fin_prop) = counter();
    let (real_sys, real_prop) = real_ramp();
    let opts = CheckOptions::with_depth(10);

    // (site, kind, engine, expected reason); each runs the engine that
    // actually reaches the site.
    let cases: &[(&str, FaultKind, EngineKind, UnknownReason)] = &[
        (
            "sat.solve",
            FaultKind::Panic,
            EngineKind::Bmc,
            UnknownReason::EngineFailure,
        ),
        (
            "sat.solve",
            FaultKind::Exhaust,
            EngineKind::KInduction,
            UnknownReason::ResourceExhausted,
        ),
        (
            "bdd.ite",
            FaultKind::Panic,
            EngineKind::Bdd,
            UnknownReason::EngineFailure,
        ),
        (
            "smt.pivot",
            FaultKind::Panic,
            EngineKind::SmtBmc,
            UnknownReason::EngineFailure,
        ),
        (
            "smt.pivot",
            FaultKind::Overflow,
            EngineKind::SmtBmc,
            UnknownReason::ResourceExhausted,
        ),
        (
            "mc.portfolio.worker",
            FaultKind::Panic,
            EngineKind::Portfolio,
            UnknownReason::EngineFailure,
        ),
    ];

    for (site, kind, engine, expected) in cases {
        let ctx = format!("{site}:{} under {engine}", kind.tag());
        let (sys, prop) = if *engine == EngineKind::SmtBmc {
            (&real_sys, &real_prop)
        } else {
            (&fin_sys, &fin_prop)
        };
        fault::install(&FaultPlan::single(site, *kind, 1));
        let got = Verifier::new(sys)
            .engine(*engine)
            .options(opts.clone())
            .check_invariant(prop)
            .expect("contained fault is not an error");
        fault::clear();
        match *engine {
            // The portfolio races several contenders; killing one lets
            // another win, so a definitive verdict is acceptable — it
            // must only agree with the fault-free run.
            EngineKind::Portfolio => {
                let clean = Verifier::new(sys)
                    .engine(*engine)
                    .options(opts.clone())
                    .check_invariant(prop)
                    .expect("clean run");
                if got.holds() || got.violated() {
                    assert_eq!(got.holds(), clean.holds(), "{ctx}: flipped");
                } else {
                    assert_eq!(reason_of(&got), Some(*expected), "{ctx}");
                }
            }
            _ => assert_eq!(reason_of(&got), Some(*expected), "{ctx}: got {got}"),
        }
    }
}

/// A counter that stops at 5: `n <= 5` holds, and k-induction proves it
/// with a step query that needs search.
fn capped() -> (System, Expr) {
    let mut sys = System::new("capped");
    let n = sys.int_var("n", 0, 10);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).lt(Expr::int(5)),
        Expr::var(n).add(Expr::int(1)),
        Expr::var(n),
    )));
    let prop = Expr::var(n).le(Expr::int(5));
    (sys, prop)
}

/// Exhausts each `sat.solve` probe of `check` in turn, from the first
/// until one past the last, and returns how many probes the run has.
/// Every faulted run must end in `Unknown(ResourceExhausted)` and the
/// unfaulted one must hold.
fn exhaust_each_solve(what: &str, check: impl Fn() -> CheckResult) -> u64 {
    for hit in 1..=64 {
        let fired_before = fault::fired_count();
        fault::install(&FaultPlan::single("sat.solve", FaultKind::Exhaust, hit));
        let got = check();
        fault::clear();
        if fault::fired_count() == fired_before {
            assert!(got.holds(), "{what}, hit {hit}: {got}");
            return hit - 1;
        }
        assert_eq!(
            reason_of(&got),
            Some(UnknownReason::ResourceExhausted),
            "{what}, hit {hit}: {got}"
        );
    }
    panic!("{what}: more than 64 sat.solve probes");
}

/// Running out of budget inside certification is not a rejected
/// certificate: exhausting any `sat.solve` probe of a certified
/// k-induction run, the engine's own solves and the fresh re-proof
/// alike, must end in `Unknown(ResourceExhausted)`.
#[test]
fn certification_budget_exhaustion_is_not_a_rejection() {
    let _guard = fault::test_lock();
    fault::clear();
    let (sys, prop) = capped();
    let check = |opts: CheckOptions| {
        Verifier::new(&sys)
            .engine(EngineKind::KInduction)
            .options(opts)
            .check_invariant(&prop)
            .expect("contained fault is not an error")
    };
    let engine = exhaust_each_solve("uncertified", || check(CheckOptions::with_depth(10)));
    let certified = exhaust_each_solve("certified", || {
        check(CheckOptions::with_depth(10).with_certify())
    });
    assert!(
        certified > engine,
        "no probe inside the re-proof ({certified} vs {engine})"
    );
}

/// A journal whose backing file starts failing mid-sweep must disable
/// itself (losing resumability, not correctness): the sweep still
/// completes with the reference verdicts.
#[test]
fn journal_append_fault_degrades_to_unjournaled() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = run_sweep(&sweep_opts());

    let (sys, p) = step_system();
    let prop = step_property(&sys);
    let opts = sweep_opts();
    let dir = std::env::temp_dir().join(format!("verdict-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("append-fault.jsonl");
    let _ = std::fs::remove_file(&path);

    let (recorder, resume) = verdict_mc::durable::start_sweep_journal(
        &path,
        false,
        &sys,
        &[p],
        &prop,
        SynthesisEngine::KInduction,
        &opts,
    )
    .expect("journal opens");
    fault::install(&FaultPlan::single("journal.append", FaultKind::Exhaust, 1));
    let durability = verdict_mc::Durability {
        recorder: Some(&recorder),
        resume: Some(&resume),
    };
    let got = verdict_mc::params::synthesize_durable(
        &sys,
        &[p],
        &prop,
        SynthesisEngine::KInduction,
        &opts,
        &durability,
    )
    .expect("sweep survives journal failure");
    fault::clear();
    assert_no_disagreement(&reference, &got, "journal.append:exhaust");
    assert!(
        got.verdicts
            .iter()
            .all(|v| !matches!(v.result, CheckResult::Unknown(_))),
        "journal failure must not degrade verdicts"
    );
    let _ = std::fs::remove_file(&path);
}

/// Unsupported kinds at a site are a no-op: the probe consumes the spec
/// without firing anything.
#[test]
fn unsupported_kind_is_noop() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = run_sweep(&sweep_opts());
    // bdd.ite only supports panics; an exhaust spec there must change
    // nothing on a k-induction sweep (site never probed) …
    fault::install(&FaultPlan::single("bdd.ite", FaultKind::Exhaust, 1));
    let got = run_sweep(&sweep_opts());
    fault::clear();
    assert_no_disagreement(&reference, &got, "bdd.ite:exhaust");
    // … and an overflow spec on sat.solve fires as a no-op: counted,
    // but sat has no overflow to poison.
    fault::install(&FaultPlan::single("sat.solve", FaultKind::Overflow, 1));
    let got = run_sweep(&sweep_opts());
    fault::clear();
    assert_no_disagreement(&reference, &got, "sat.solve:overflow");
    assert!(got
        .verdicts
        .iter()
        .all(|v| !matches!(v.result, CheckResult::Unknown(_))));
}
