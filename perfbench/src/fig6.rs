//! `fig6`: case study 1 on `fattree4` and `fattree6` with p = m = 1 —
//! the paper's Fig. 6 falsification and verification runs.
//!
//! Per topology, one BMC falsification at the k that cuts off the front
//! end and k-induction verification at k = 0, 1, 2, the same checks as
//! the `fig6` bin. The known verdicts are the paper's: every
//! falsification finds a counterexample, `fattree4` fails verification
//! at k = 2 (footnote 6), and `fattree6` holds.

use std::collections::BTreeMap;
use std::time::Instant;

use verdict_mc::prelude::*;
use verdict_mc::spec::verdict_tag;
use verdict_models::{RolloutModel, RolloutSpec, Topology};
use verdict_ts::{Expr, System};

use crate::probe::Probe;
use crate::report::{median, Pass};
use crate::trace::{SpanId, Tracer};
use crate::unroll::{self, Frames};
use crate::{batch_outcome, run_passes, Config, Outcome};

/// Fig. 6 rows measured here: fat-tree arity, the k that disconnects the
/// front end, and whether verification holds at k = 0, 1, 2.
const PAPER: [(usize, i64, [bool; 3]); 2] =
    [(4, 2, [true, true, false]), (6, 3, [true, true, true])];

/// BMC depth of the falsification runs (the `fig6` bin's default).
const FALSIFY_DEPTH: usize = 8;
/// Depth bound of the verification runs.
const VERIFY_DEPTH: usize = 64;

/// One check of the pass.
struct Check {
    name: String,
    sys: System,
    property: Expr,
    falsify: bool,
    expect_holds: bool,
}

/// Builds the models of `rows` and pins every check's system; returns the checks
/// and the seconds spent in `RolloutModel::build`.
fn set_up(
    rows: &[(usize, i64, [bool; 3])],
    flip: bool,
    t: &mut Tracer,
    root: SpanId,
) -> Result<(Vec<Check>, f64), String> {
    let mut checks = Vec::new();
    let mut build_s = 0.0;
    for &(arity, k_fail, holds) in rows {
        let t0 = Instant::now();
        let spec = RolloutSpec::paper(Topology::fat_tree(arity));
        let model = t.span("models.RolloutModel::build", root, || {
            RolloutModel::build(&spec)
        })?;
        build_s += t0.elapsed().as_secs_f64();
        let pin = |t: &mut Tracer, k| t.span("models.pinned", root, || model.pinned(1, k, 1));
        checks.push(Check {
            name: format!("fattree{arity} falsify k={k_fail}"),
            sys: pin(t, k_fail),
            property: model.property.clone(),
            falsify: true,
            expect_holds: false,
        });
        for (k, &h) in holds.iter().enumerate() {
            checks.push(Check {
                name: format!("fattree{arity} verify k={k}"),
                sys: pin(t, k as i64),
                property: model.property.clone(),
                falsify: false,
                expect_holds: h,
            });
        }
    }
    if flip {
        checks[0].expect_holds = !checks[0].expect_holds;
    }
    Ok((checks, build_s))
}

/// One pass over the checks. Returns the pass and, per falsification
/// check, the depth of the counterexample found.
fn pass(cfg: &Config, checks: &[Check], t: &mut Tracer, cex_depths: &mut Vec<usize>) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    let root = t.open("pass", SpanId::NONE);
    cex_depths.clear();
    for (i, c) in checks.iter().enumerate() {
        t.set_job(i as u64);
        let (kind, depth) = if c.falsify {
            (EngineKind::Bmc, FALSIFY_DEPTH)
        } else {
            (EngineKind::KInduction, VERIFY_DEPTH)
        };
        let opts = CheckOptions::with_depth(depth).with_timeout(cfg.remaining());
        let mut stats = Stats::for_engine(kind);
        let call = t.open("mc.Engine::check_invariant", root);
        let t0 = Instant::now();
        let res = engine(kind).check_invariant(&c.sys, &c.property, &opts, &mut stats);
        let took = t0.elapsed();
        t.close(call);
        t.engine_call(call, &stats, took);
        let ok = match &res {
            Ok(CheckResult::Holds) => c.expect_holds,
            Ok(CheckResult::Violated(tr)) => {
                if c.falsify {
                    cex_depths.push(tr.states.len().saturating_sub(1));
                }
                !c.expect_holds
            }
            _ => false,
        };
        if !ok {
            eprintln!(
                "fig6: {} gave {:?}, expected holds={}",
                c.name,
                res.as_ref().map(|r| r.to_string()),
                c.expect_holds
            );
        }
        p.verdicts.push(res.as_ref().map_or("unknown", verdict_tag));
        if c.falsify {
            p.falsify_s += took.as_secs_f64();
        } else {
            p.verify_s += took.as_secs_f64();
        }
        p.attempted += 1;
        p.failed += u64::from(!ok);
        p.verdict_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    t.close(root);
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// Runs the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut builds = Vec::new();
    let (checks, setup) = crate::set_up(cfg, &mut tracer, probe, |t, root| {
        let (checks, build_s) = set_up(&PAPER, cfg.flip_answer, t, root)?;
        builds.push(build_s);
        Ok(checks)
    })?;
    let mut cex_depths = Vec::new();
    let (plain, traced) = run_passes(cfg, &mut tracer, probe, |t| {
        pass(cfg, &checks, t, &mut cex_depths)
    })?;

    let mut layers = BTreeMap::new();
    if cfg.trace {
        // Per-frame encode cost of each falsification's unrolling, driven
        // from outside the engine, after the measured passes.
        tracer.set_enabled(true);
        let mut frames = Frames::default();
        let root = tracer.open("unroll", SpanId::NONE);
        for (c, &d) in checks.iter().filter(|c| c.falsify).zip(&cex_depths) {
            let bad = c.property.clone().not();
            frames.absorb(unroll::drive(&c.sys, &bad, d, false, &mut tracer, root)?);
        }
        tracer.close(root);
        tracer.set_enabled(false);
        let n = traced.len() as f64;
        layers = tracer.engine_layers(n);
        layers.insert("models.build_s", median(&builds));
        layers.insert("ts.frame_ms", frames.frame_ms());
        layers.insert("ts.frame_clauses", frames.frame_clauses());
        layers.insert("ts.frame_vars", frames.frame_vars());
    }
    let mut out = batch_outcome(&setup, plain, traced, layers, tracer);
    out.notes.push(format!(
        "fig6: {} checks per pass on fattree4 and fattree6 (p = m = 1); falsification depths {cex_depths:?}",
        checks.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fattree4_pass(flip: bool) -> (Pass, BTreeMap<&'static str, f64>) {
        let cfg = Config::for_test("fig6");
        let mut t = Tracer::new(Instant::now());
        let (checks, _) = set_up(&PAPER[..1], flip, &mut t, SpanId::NONE).expect("fattree4 builds");
        t.set_enabled(true);
        let p = pass(&cfg, &checks, &mut t, &mut Vec::new());
        (p, t.counts())
    }

    #[test]
    fn fattree4_checks_repeat_exactly() {
        let (a, counts_a) = fattree4_pass(false);
        let (b, counts_b) = fattree4_pass(false);
        assert_eq!(a.failed, 0, "{:?}", a.verdicts);
        assert_eq!(a.verdicts, ["unsafe", "safe", "safe", "unsafe"]);
        assert_eq!(a.verdicts, b.verdicts);
        assert!(counts_a["sat.conflicts"] > 0.0);
        assert_eq!(counts_a, counts_b);
    }

    #[test]
    fn a_wrong_expected_answer_is_a_failure() {
        let (p, _) = fattree4_pass(true);
        assert_eq!((p.attempted, p.failed), (4, 1));
    }
}
