//! `matrix`: the scenario factory's ground-truth matrix, run as
//! certified check jobs through `spec::execute`, one job per instance.
//!
//! The instances are the generator's base grid plus 100 seeded
//! draws per pattern (`--gen-seed`); each instance's engine is `auto`
//! (k-induction) or `bdd`, half and half, assigned by a seeded shuffle
//! (`--mix-seed`). Verdicts are scored against the generator's ground
//! truth, which comes from closed forms or exact simulation.

use std::collections::BTreeMap;
use std::time::Instant;

use verdict_dsl::CompiledProperty;
use verdict_mc::spec::{execute, verdict_tag, ExecContext, JobSpec};
use verdict_mc::{CheckOptions, EngineKind, Verifier};
use verdict_prng::Prng;
use verdict_scenarios::{generate, Expectation, GenConfig, Scenario};

use crate::probe::Probe;
use crate::report::{median, Pass};
use crate::trace::{SpanId, Tracer};
use crate::{batch_outcome, run_passes, Config, Outcome};

/// One job of the matrix: its spec and its instance's ground truth.
pub struct Job {
    /// The scenario's id.
    pub id: String,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// (property name, expected verdict tag) in declaration order.
    pub expected: Vec<(&'static str, &'static str)>,
}

impl Job {
    /// True when some property of the instance is expected to fail: the
    /// job's time counts as falsification, else as verification.
    pub fn falsifies(&self) -> bool {
        self.expected
            .iter()
            .any(|(_, e)| *e == Expectation::Unsafe.tag())
    }

    /// Verdicts that are missing, wrong or undecided among `rows`
    /// (property name, verdict tag).
    pub fn failures<'a>(&self, rows: impl Iterator<Item = (&'a str, &'a str)> + Clone) -> u64 {
        let mut failed = 0;
        for (name, want) in &self.expected {
            let got = rows.clone().find(|(n, _)| n == name).map(|(_, v)| v);
            if got != Some(*want) {
                eprintln!("{}: property {name} gave {got:?}, expected {want}", self.id);
                failed += 1;
            }
        }
        failed
    }
}

/// The scenario instances of the configured generator seed and size.
pub fn scenarios(cfg: &Config) -> Vec<Scenario> {
    generate(&GenConfig {
        seed: cfg.gen_seed,
        samples: cfg.samples,
        patterns: Vec::new(),
    })
}

/// Jobs for `scenarios`, each with its ground truth; `engine(i)` picks
/// instance `i`'s engine tag.
pub fn jobs(
    scenarios: &[Scenario],
    certify: bool,
    engine: impl Fn(usize) -> &'static str,
    flip: bool,
) -> Vec<Job> {
    let mut jobs: Vec<Job> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut spec = JobSpec::check(&s.source);
            spec.engine = engine(i).to_string();
            spec.certify = certify;
            Job {
                id: s.id.clone(),
                spec,
                expected: s
                    .properties
                    .iter()
                    .map(|p| (p.name, p.expected.tag()))
                    .collect(),
            }
        })
        .collect();
    if flip {
        let e = &mut jobs[0].expected[0].1;
        *e = if *e == "safe" { "unsafe" } else { "safe" };
    }
    jobs
}

/// Half the instances, chosen by a seeded shuffle, run on `bdd`.
fn engine_mix(n: usize, seed: u64) -> Vec<&'static str> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Prng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let mut mix = vec!["auto"; n];
    for &i in &order[..n / 2] {
        mix[i] = "bdd";
    }
    mix
}

/// Runs one job the way `spec::execute` does — parse, then one
/// `Verifier::check_*_report` per property — with a span around each
/// call. Returns (property, verdict tag) rows.
fn execute_traced(
    cfg: &Config,
    job: &Job,
    t: &mut Tracer,
    parent: SpanId,
) -> Vec<(String, &'static str)> {
    let model = match t.span("dsl.parse", parent, || verdict_dsl::parse(&job.spec.source)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("matrix: model does not parse: {e}");
            return Vec::new();
        }
    };
    let kind = EngineKind::from_tag(&job.spec.engine).unwrap_or(EngineKind::Auto);
    let mut opts = CheckOptions::default()
        .with_jobs(1)
        .with_timeout(cfg.remaining());
    if job.spec.certify {
        opts = opts.with_certify();
    }
    let mut rows = Vec::new();
    for (name, property) in &model.properties {
        let verifier = Verifier::new(&model.system)
            .engine(kind)
            .options(opts.clone());
        let call = t.open("mc.Verifier::check_report", parent);
        let t0 = Instant::now();
        let report = match property {
            CompiledProperty::Invariant(p) => verifier.check_invariant_report(p),
            CompiledProperty::Ltl(f) => verifier.check_ltl_report(f),
            CompiledProperty::Ctl(f) => verifier.check_ctl_report(f),
        };
        let took = t0.elapsed();
        t.close(call);
        match report {
            Ok(r) => {
                t.engine_call(call, &r.stats, took);
                rows.push((name.clone(), verdict_tag(&r.result)));
            }
            Err(e) => {
                eprintln!("matrix: {name}: {e}");
                rows.push((name.clone(), "unknown"));
            }
        }
    }
    rows
}

/// One pass over every job: through `spec::execute` untraced, through
/// the same calls with spans when traced.
fn pass(cfg: &Config, jobs: &[Job], t: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    let root = t.open("pass", SpanId::NONE);
    for (i, job) in jobs.iter().enumerate() {
        t.set_job(i as u64);
        let t0 = Instant::now();
        let rows: Vec<(String, &str)> = if t.enabled() {
            let call = t.open("spec::execute", root);
            let rows = execute_traced(cfg, job, t, call);
            t.close(call);
            rows
        } else {
            let ctx = ExecContext {
                timeout: Some(cfg.remaining()),
                jobs: 1,
                ..ExecContext::default()
            };
            let (rows, _) = execute(&job.spec, &ctx);
            rows.into_iter()
                .map(|r| {
                    let tag = if r.decided() {
                        tag_of(&r.verdict)
                    } else {
                        "unknown"
                    };
                    (r.name, tag)
                })
                .collect()
        };
        let took = t0.elapsed().as_secs_f64();
        p.attempted += job.expected.len() as u64;
        p.failed += job.failures(rows.iter().map(|(n, v)| (n.as_str(), *v)));
        if job.falsifies() {
            p.falsify_s += took;
        } else {
            p.verify_s += took;
        }
        let at = start.elapsed().as_secs_f64() * 1e3;
        p.verdict_ms.extend(std::iter::repeat_n(at, rows.len()));
        p.verdicts.extend(rows.iter().map(|(_, v)| *v));
    }
    t.close(root);
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// The static tag of a decided verdict row.
pub fn tag_of(verdict: &str) -> &'static str {
    match verdict {
        "safe" => "safe",
        "unsafe" => "unsafe",
        _ => "unknown",
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut generate_s = Vec::new();
    let (jobs, setup) = crate::set_up(cfg, &mut tracer, probe, |t, root| {
        let t0 = Instant::now();
        let s = t.span("scenarios::generate", root, || scenarios(cfg));
        generate_s.push(t0.elapsed().as_secs_f64());
        let mix = engine_mix(s.len(), cfg.mix_seed);
        Ok(jobs(&s, true, |i| mix[i], cfg.flip_answer))
    })?;
    let (plain, traced) = run_passes(cfg, &mut tracer, probe, |t| pass(cfg, &jobs, t))?;
    let mut layers = BTreeMap::new();
    if cfg.trace {
        let n = traced.len() as f64;
        layers = tracer.engine_layers(n);
        layers.insert("scenarios.generate_s", median(&generate_s));
        layers.insert("dsl.parse_s", tracer.seconds("dsl.parse") / n.max(1.0));
        layers.insert(
            "dsl.parse_p50_ms",
            median(&tracer.durations_ms("dsl.parse")),
        );
    }
    let bdd = jobs.iter().filter(|j| j.spec.engine == "bdd").count();
    let props: usize = jobs.iter().map(|j| j.expected.len()).sum();
    let mut out = batch_outcome(&setup, plain, traced, layers, tracer);
    out.notes.push(format!(
        "matrix: {} instances, {props} properties per pass, {bdd} on bdd and {} on auto, certified; \
         gen-seed {}, mix-seed {}, samples {}",
        jobs.len(),
        jobs.len() - bdd,
        cfg.gen_seed,
        cfg.mix_seed,
        cfg.samples
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_grid_repeats_exactly() {
        let cfg = Config::for_test("matrix");
        let s = scenarios(&cfg);
        let mix = engine_mix(s.len(), cfg.mix_seed);
        let jobs = jobs(&s, true, |i| mix[i], false);
        let run = |traced: bool| {
            let mut t = Tracer::new(Instant::now());
            t.set_enabled(traced);
            let p = pass(&cfg, &jobs, &mut t);
            (p.verdicts, p.failed, t.counts())
        };
        let a = run(true);
        assert_eq!(a.1, 0);
        assert!(a.2["sat.conflicts"] > 0.0 && a.2["bdd.nodes_allocated"] > 0.0);
        assert_eq!(a, run(true));
        // The untraced path goes through `spec::execute` itself.
        assert_eq!(a.0, run(false).0);
    }
}
