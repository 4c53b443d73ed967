//! `synth`: incremental (assumption-pinned) synthesis of (p, k, m) over
//! the paper's ranges on `fattree6` — 112 assignments per sweep.
//!
//! Verdicts are scored against `data/synth_fattree6.tsv`, a committed
//! (p, k, m) → safe/unsafe table written by `--write-synth-table`, which
//! cross-checks the incremental sweep against the clone-per-assignment
//! path before writing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use verdict_mc::incremental::{HoldsPattern, PinnedKInduction, PinnedOutcome};
use verdict_mc::params::{synthesize, AssignmentSpace, Property, SynthesisEngine, SynthesisResult};
use verdict_mc::spec::verdict_tag;
use verdict_mc::CheckOptions;
use verdict_models::{RolloutModel, RolloutSpec, Topology};
use verdict_ts::Value;

use crate::probe::Probe;
use crate::report::{median, Pass};
use crate::trace::{SpanId, Tracer};
use crate::unroll::{self, Frames};
use crate::{batch_outcome, run_passes, Config, Outcome};

/// The committed answers, one `p k m safe|unsafe` line per assignment in
/// sweep (odometer) order.
const TABLE: &str = include_str!("../data/synth_fattree6.tsv");

/// Depth bound of the sweep (the `synth` bin's default).
const DEPTH: usize = 10;

/// The case-study model on `fattree6` with the paper's parameter ranges.
fn model() -> Result<RolloutModel, String> {
    RolloutModel::build(&RolloutSpec::paper(Topology::fat_tree(6)))
}

/// Sweep options: single-threaded, through the incremental or the
/// clone-per-assignment path.
fn sweep_options(timeout: std::time::Duration, incremental: bool) -> CheckOptions {
    CheckOptions::with_depth(DEPTH)
        .with_jobs(1)
        .with_incremental(incremental)
        .with_timeout(timeout)
}

fn sweep(m: &RolloutModel, opts: &CheckOptions) -> Result<SynthesisResult, String> {
    let prop = Property::Invariant(m.property.clone());
    synthesize(
        &m.system,
        &[m.p, m.k, m.m],
        &prop,
        SynthesisEngine::KInduction,
        opts,
    )
    .map_err(|e| e.to_string())
}

/// `p k m` of an assignment.
fn key(values: &[Value]) -> String {
    let v: Vec<String> = values.iter().map(Value::to_string).collect();
    v.join(" ")
}

/// Parses the committed table into (assignment, holds) pairs.
fn answers(flip: bool) -> Result<Vec<(String, bool)>, String> {
    let mut out = Vec::new();
    for line in TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let (k, verdict) = line
            .rsplit_once(' ')
            .ok_or(format!("bad table line `{line}`"))?;
        let holds = match verdict {
            "safe" => true,
            "unsafe" => false,
            v => return Err(format!("bad verdict `{v}` in the synth table")),
        };
        out.push((k.to_string(), holds));
    }
    if flip {
        out[0].1 = !out[0].1;
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Result<Outcome, String> {
    let expected = answers(cfg.flip_answer)?;
    let mut tracer = Tracer::new(Instant::now());
    let (model, setup) = crate::set_up(cfg, &mut tracer, probe, |t, root| {
        t.span("models.RolloutModel::build", root, model)
    })?;
    let (plain, traced) = run_passes(cfg, &mut tracer, probe, |t| {
        let mut p = Pass::default();
        let start = Instant::now();
        let root = t.open("pass", SpanId::NONE);
        let opts = sweep_options(cfg.remaining(), true);
        let res = t.span("mc.params::synthesize", root, || sweep(&model, &opts));
        t.close(root);
        p.wall_s = start.elapsed().as_secs_f64();
        p.falsify_s = p.wall_s;
        p.verify_s = p.wall_s;
        p.attempted = expected.len() as u64;
        p.failed = match res {
            Ok(r) => {
                p.verdicts = r.verdicts.iter().map(|v| verdict_tag(&v.result)).collect();
                score(&r, &expected)
            }
            Err(e) => {
                eprintln!("synth: sweep failed: {e}");
                p.attempted
            }
        };
        p.verdict_ms = vec![p.wall_s * 1e3; expected.len()];
        p
    })?;

    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    if cfg.trace {
        let n = traced.len() as f64;
        let synth_s = tracer.seconds("mc.params::synthesize") / n.max(1.0);
        tracer.set_enabled(true);
        let replica = replica_sweep(&model, &expected, &mut tracer)?;
        let bad = model.property.clone().not();
        let mut frames = Frames::default();
        let root = tracer.open("unroll", SpanId::NONE);
        for free in [false, true] {
            frames.absorb(unroll::drive(
                &model.system,
                &bad,
                replica.max_depth,
                free,
                &mut tracer,
                root,
            )?);
        }
        tracer.close(root);
        tracer.set_enabled(false);
        let assignments = expected.len() as f64;
        layers.insert("models.build_s", median(&setup));
        layers.insert("mc.synth_s", synth_s);
        layers.insert("ts.encode_s", frames.encode_s);
        layers.insert("ts.frame_ms", frames.frame_ms());
        layers.insert("ts.frame_clauses", frames.frame_clauses());
        layers.insert("ts.frame_vars", frames.frame_vars());
        layers.insert(
            "mc.assignment_ms",
            (synth_s - frames.encode_s) * 1e3 / assignments,
        );
        layers.insert("mc.max_depth", replica.max_depth as f64);
        layers.insert("sat.solve_s", (replica.check_s - frames.encode_s).max(0.0));
        layers.insert("sat.conflicts", replica.sat.conflicts as f64);
        layers.insert("sat.decisions", replica.sat.decisions as f64);
        layers.insert("sat.propagations", replica.sat.propagations as f64);
        layers.insert("sat.learnt_clauses", replica.sat.learnt_clauses as f64);
        notes.push(format!(
            "synth replica: {} solved, {} inherited, {} mismatches against the table",
            replica.solved, replica.inherited, replica.mismatches
        ));
    }
    let mut out = batch_outcome(&setup, plain, traced, layers, tracer);
    out.notes.push(format!(
        "synth: {} assignments of (p, k, m) on fattree6 per sweep, depth {DEPTH}, jobs 1, incremental",
        expected.len()
    ));
    out.notes.extend(notes);
    Ok(out)
}

/// Wrong or undecided verdicts of a sweep against the table.
fn score(r: &SynthesisResult, expected: &[(String, bool)]) -> u64 {
    if r.verdicts.len() != expected.len() {
        eprintln!(
            "synth: {} verdicts for {} assignments",
            r.verdicts.len(),
            expected.len()
        );
        return expected.len() as u64;
    }
    let mut failed = 0;
    for (v, (k, holds)) in r.verdicts.iter().zip(expected) {
        let got = key(&v.values);
        let ok = got == *k
            && if *holds {
                v.result.holds()
            } else {
                v.result.violated()
            };
        if !ok {
            eprintln!(
                "synth: ({got}) gave {}, table says ({k}) {}",
                v.result,
                if *holds { "safe" } else { "unsafe" }
            );
            failed += 1;
        }
    }
    failed
}

/// What the replica sweep measured.
struct Replica {
    max_depth: usize,
    check_s: f64,
    sat: verdict_sat::Stats,
    solved: usize,
    inherited: usize,
    mismatches: usize,
}

/// Re-runs the sweep's schedule through the public `PinnedKInduction`
/// — one engine, assignments in odometer order, `Holds` verdicts
/// inherited through their unsat-core patterns — to read what
/// `synthesize` does not return: induction depths and SAT counters (of
/// the base-case solver, the only one the engine exposes).
fn replica_sweep(
    m: &RolloutModel,
    expected: &[(String, bool)],
    t: &mut Tracer,
) -> Result<Replica, String> {
    let params = [m.p, m.k, m.m];
    let domains = params
        .iter()
        .map(|&p| m.system.sort_of(p).values())
        .collect();
    let space = AssignmentSpace::new(domains).map_err(|e| e.to_string())?;
    let root = t.open("replica", SpanId::NONE);
    let mut engine = t
        .span("mc.PinnedKInduction::new", root, || {
            PinnedKInduction::new(&m.system, &params, &m.property)
        })
        .map_err(|e| e.to_string())?;
    let opts = CheckOptions::with_depth(DEPTH);
    let mut patterns: Vec<HoldsPattern> = Vec::new();
    let mut r = Replica {
        max_depth: 0,
        check_s: 0.0,
        sat: verdict_sat::Stats::default(),
        solved: 0,
        inherited: 0,
        mismatches: 0,
    };
    for (i, a) in space.iter().enumerate() {
        t.set_job(i as u64);
        let holds = if patterns.iter().any(|p| p.matches(&a)) {
            r.inherited += 1;
            Some(true)
        } else {
            let t0 = Instant::now();
            let out = t.span("mc.PinnedKInduction::check", root, || {
                engine.check(&a, &opts)
            });
            r.check_s += t0.elapsed().as_secs_f64();
            r.solved += 1;
            match out.map_err(|e| e.to_string())? {
                PinnedOutcome::Holds { depth, relevant } => {
                    r.max_depth = r.max_depth.max(depth);
                    if relevant.iter().any(|&x| !x) {
                        patterns.push(HoldsPattern {
                            values: a.clone(),
                            relevant,
                            depth,
                        });
                    }
                    Some(true)
                }
                PinnedOutcome::Violated(tr) => {
                    r.max_depth = r.max_depth.max(tr.states.len().saturating_sub(1));
                    Some(false)
                }
                PinnedOutcome::Unknown(_) => None,
            }
        };
        if expected
            .get(i)
            .is_none_or(|(k, h)| *k != key(&a) || holds != Some(*h))
        {
            r.mismatches += 1;
        }
    }
    t.close(root);
    r.sat = engine.base_solver_stats();
    Ok(r)
}

/// Writes the committed table: runs the sweep through the clone path and
/// the incremental path, requires them to agree and decide every
/// assignment, and writes the verdicts to `data/synth_fattree6.tsv`.
pub fn write_table() -> Result<(), String> {
    let m = model()?;
    let budget = std::time::Duration::from_secs(3600);
    let clone = sweep(&m, &sweep_options(budget, false))?;
    let inc = sweep(&m, &sweep_options(budget, true))?;
    let mut text = String::from(
        "# (p, k, m) -> verdict for the rollout property G(converged -> available >= m) on fattree6, RolloutSpec::paper ranges.\n\
         # Written by `--write-synth-table`: the clone-per-assignment and the incremental\n\
         # sweeps agreed on every assignment. Columns: p k m verdict.\n",
    );
    for (c, i) in clone.verdicts.iter().zip(&inc.verdicts) {
        let decided = |r: &verdict_mc::CheckResult| r.holds() || r.violated();
        if c.values != i.values || !decided(&c.result) || c.result.holds() != i.result.holds() {
            return Err(format!(
                "clone and incremental disagree at ({})",
                key(&c.values)
            ));
        }
        let _ = writeln!(
            text,
            "{} {}",
            key(&c.values),
            if c.result.holds() { "safe" } else { "unsafe" }
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/synth_fattree6.tsv");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}: {} safe, {} unsafe",
        clone.safe().len(),
        clone.unsafe_values().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_repeats_exactly() {
        let spec = RolloutSpec {
            k_max: 3,
            ..RolloutSpec::paper(Topology::fat_tree(4))
        };
        let m = RolloutModel::build(&spec).expect("fattree4 builds");
        let run = || {
            let r = sweep(
                &m,
                &sweep_options(std::time::Duration::from_secs(600), true),
            )
            .expect("sweep runs");
            let tags: Vec<&str> = r.verdicts.iter().map(|v| verdict_tag(&v.result)).collect();
            let replica =
                replica_sweep(&m, &[], &mut Tracer::new(Instant::now())).expect("replica runs");
            let s = replica.sat;
            let sat = (s.decisions, s.propagations, s.conflicts, s.learnt_clauses);
            (
                tags,
                r.safe().len(),
                r.unsafe_values().len(),
                sat,
                replica.max_depth,
                replica.solved,
            )
        };
        let a = run();
        assert!(
            a.1 > 0 && a.2 > 0,
            "the small sweep has safe and unsafe points: {a:?}"
        );
        assert_eq!(a, run());
    }

    #[test]
    fn the_table_covers_the_sweep() {
        let t = answers(false).expect("table parses");
        assert_eq!(t.len(), 112);
        assert_eq!(t.iter().filter(|(_, holds)| *holds).count(), 64);
        assert_eq!(answers(true).expect("table parses")[0].1, !t[0].1);
    }
}
