//! End-to-end and per-layer benchmark of the verdict workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6|synth|matrix|serve --seed N --seconds S --trace 0|1 \
//!     [--gen-seed N] [--mix-seed N] [--flip-answer]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-synth-table
//! ```
//!
//! Each workload runs a fixed, seeded job set through the crates' public
//! functions for at least `--seconds` of measured time, scores every
//! verdict against an answer that does not come from the engine under
//! test, and ends its standard output with one JSON line holding
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics — on the batch workloads scaled to a reference
//! host by the host-speed probe (`probe.rs`) — and `--trace 1` the
//! per-layer ones from spans around the benchmark's calls into each
//! layer (written to `.bench_out/`). `NOTES.md` explains the choices.

mod fig6;
mod host;
mod matrix;
mod probe;
mod report;
mod serve;
mod synth;
mod trace;
mod unroll;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Probe;
use report::{EndToEnd, Pass};
use trace::{SpanId, Tracer};

/// Hard cap on one run's wall time, set-up and teardown included; the
/// engines get what is left of it as their timeout.
const RUN_BUDGET: Duration = Duration::from_secs(150);

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-up seconds a run spends at least, repeating short set-ups.
const SETUP_SECONDS: f64 = 1.0;
/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 1000;

/// Default generator and engine-mix seed. Seed 2 is held out for
/// confirming a claim on a job set it was not tuned on.
const DEFAULT_JOB_SEED: u64 = 1;

/// Seeded scenario samples per pattern on top of the base grid: 482
/// instances with the default seed.
const SAMPLES: usize = 100;

/// Fewest passes of each kind (untraced, and traced in trace mode).
const MIN_PASSES: usize = 2;

/// The command line, checked.
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// The run's seed: the order in which `serve` submits its jobs. The
    /// batch workloads run fixed job sets in a fixed order.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Record spans (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Scenario generator seed (`matrix`, `serve`).
    pub gen_seed: u64,
    /// Engine-mix seed (`matrix`).
    pub mix_seed: u64,
    /// Seeded extra scenario samples per pattern (`matrix`, `serve`):
    /// [`SAMPLES`], or 0 for the base grid alone in tests.
    pub samples: usize,
    /// Corrupt the first expected answer, to show scoring catches it.
    pub flip_answer: bool,
    /// Where spans and daemon state go, relative to the working directory.
    pub out_dir: PathBuf,
    /// When the run must wrap up.
    pub deadline: Instant,
}

impl Config {
    /// The defaults of a `workload` run, as the tests use them.
    #[cfg(test)]
    pub fn for_test(workload: &str) -> Config {
        Config {
            workload: workload.to_string(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            gen_seed: DEFAULT_JOB_SEED,
            mix_seed: DEFAULT_JOB_SEED,
            samples: 0,
            flip_answer: false,
            out_dir: PathBuf::from(".bench_out"),
            deadline: Instant::now() + RUN_BUDGET,
        }
    }

    /// Time left before the run's hard deadline.
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

/// What a workload measured.
pub struct Outcome {
    /// End-to-end figures of the untraced part.
    pub plain: EndToEnd,
    /// End-to-end figures of the traced part (trace mode only).
    pub traced: Option<EndToEnd>,
    /// Per-layer metrics (trace mode only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Verdicts attempted (and, for `serve`, submits).
    pub attempted: u64,
    /// Wrong or undecided verdicts, rejected submits, abandoned jobs.
    pub failed: u64,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Facts echoed before the result line.
    pub notes: Vec<String>,
}

/// Runs a workload's set-up at least [`SETUP_REPS`] times and until
/// [`SETUP_SECONDS`] have passed — traced under a `setup` root span in
/// trace mode, each followed by its share of probe slices — and returns
/// the last result with the seconds of every repetition. A set-up of
/// milliseconds thus gets enough repetitions for a steady median.
pub fn set_up<T>(
    cfg: &Config,
    tracer: &mut Tracer,
    probe: &mut Probe,
    mut f: impl FnMut(&mut Tracer, SpanId) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    tracer.set_enabled(cfg.trace);
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX_REPS)
    {
        let root = tracer.open("setup", SpanId::NONE);
        let t0 = Instant::now();
        last = Some(f(tracer, root)?);
        let took = t0.elapsed().as_secs_f64();
        times.push(took);
        tracer.close(root);
        probe.follow(took)?;
    }
    tracer.set_enabled(false);
    Ok((last.expect("at least one set-up"), times))
}

/// Runs batch passes, each followed by its share of probe slices, for
/// the configured time. Untraced only, or — in trace mode — alternating
/// untraced and traced passes, so the two sets see the same host and
/// their difference is the tracing overhead. Returns the untraced and
/// the traced passes.
pub fn run_passes(
    cfg: &Config,
    tracer: &mut Tracer,
    probe: &mut Probe,
    mut pass: impl FnMut(&mut Tracer) -> Pass,
) -> Result<(Vec<Pass>, Vec<Pass>), String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        let enough = |v: &Vec<Pass>| v.len() >= MIN_PASSES;
        let done = start.elapsed().as_secs_f64() >= cfg.seconds
            && enough(&plain)
            && (!cfg.trace || enough(&traced));
        if done || (!plain.is_empty() && cfg.remaining() < longest * 2) {
            break;
        }
        let trace_this = cfg.trace && traced.len() < plain.len();
        tracer.set_enabled(trace_this);
        let t0 = Instant::now();
        let p = pass(tracer);
        longest = longest.max(t0.elapsed());
        probe.follow(p.wall_s)?;
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    tracer.set_enabled(false);
    Ok((plain, traced))
}

/// Builds the [`Outcome`] of a batch workload from its passes.
pub fn batch_outcome(
    setup: &[f64],
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    layers: BTreeMap<&'static str, f64>,
    tracer: Tracer,
) -> Outcome {
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let plain_e2e = EndToEnd::from_passes(setup, &plain.iter().collect::<Vec<_>>());
    let traced_e2e = (!traced.is_empty())
        .then(|| EndToEnd::from_passes(setup, &traced.iter().collect::<Vec<_>>()));
    let mut layers = layers;
    if let Some(t) = &traced_e2e {
        layers.insert("trace.uncovered_share", tracer.uncovered_share());
        layers.insert(
            "trace.overhead_pct",
            100.0 * (plain_e2e.verdicts_per_s / t.verdicts_per_s - 1.0),
        );
    }
    Outcome {
        plain: plain_e2e,
        traced: traced_e2e,
        layers,
        attempted: all.iter().map(|p| p.attempted).sum(),
        failed: all.iter().map(|p| p.failed).sum(),
        tracer,
        notes: vec![format!(
            "pass seconds, untraced {:.3?}, traced {:.3?}",
            plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()
        )],
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, String> = BTreeMap::new();
    let mut flip_answer = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--flip-answer" => flip_answer = true,
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--gen-seed"
            | "--mix-seed") => {
                let v = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
                values.insert(&flag[2..], v.clone());
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    fn num<T: std::str::FromStr>(
        values: &BTreeMap<&str, String>,
        k: &str,
        d: T,
    ) -> Result<T, String> {
        values.get(k).map_or(Ok(d), |v| {
            v.parse()
                .map_err(|_| format!("--{k} expects a number, got `{v}`"))
        })
    }
    let workload = values
        .get("workload")
        .cloned()
        .ok_or("--workload is required")?;
    if !["fig6", "synth", "matrix", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (fig6, synth, matrix, serve)"
        ));
    }
    let seed: u64 = num(&values, "seed", 1)?;
    let seconds: f64 = num(&values, "seconds", 10.0)?;
    if !(seconds.is_finite() && (0.0..=60.0).contains(&seconds)) {
        return Err("--seconds must be between 0 and 60".into());
    }
    let trace = match values.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace expects 0 or 1, got `{v}`")),
    };
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        gen_seed: num(&values, "gen-seed", DEFAULT_JOB_SEED)?,
        mix_seed: num(&values, "mix-seed", DEFAULT_JOB_SEED)?,
        samples: SAMPLES,
        flip_answer,
        out_dir: PathBuf::from(".bench_out"),
        deadline: Instant::now() + RUN_BUDGET,
    })
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--probe"]) {
        return match probe::child_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    if std::env::args().skip(1).eq(["--write-synth-table"]) {
        return match synth::write_table() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let noise_start = host::Sample::take();
    // The batch workloads' timings are scaled to the reference host;
    // `serve`'s are reported as measured (NOTES.md says why).
    let outcome = if cfg.workload == "serve" {
        serve::run(&cfg).map(|o| (o, None))
    } else {
        Probe::start().and_then(|mut probe| {
            let o = match cfg.workload.as_str() {
                "fig6" => fig6::run(&cfg, &mut probe),
                "synth" => synth::run(&cfg, &mut probe),
                _ => matrix::run(&cfg, &mut probe),
            }?;
            probe.finish()?;
            Ok((o, Some(probe.summary())))
        })
    };
    let (outcome, probe) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let noise = host::noise_json(&noise_start, &host::Sample::take());
    let peak = host::peak_rss_mb();
    let reported = probe.map_or(outcome.plain, |p| outcome.plain.scaled(p.scale));

    for n in &outcome.notes {
        println!("{n}");
    }
    println!("{}", outcome.plain.describe("untraced, as measured"));
    if probe.is_some() {
        println!(
            "{}",
            reported.describe("untraced, scaled to the reference host")
        );
    }
    if let Some(t) = &outcome.traced {
        println!("{}", t.describe("traced"));
        let path = cfg
            .out_dir
            .join(format!("{}-seed{}-spans.jsonl", cfg.workload, cfg.seed));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"gen_seed\": {}, \"mix_seed\": {}, \
         \"samples\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \
         \"tail_percentile\": {}, \"tail_samples\": {}, \"probe\": {}, \"noise\": {noise}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.gen_seed,
        cfg.mix_seed,
        cfg.samples,
        cfg.seconds,
        cfg.trace,
        host::git_rev(),
        host::nproc(),
        outcome.plain.tail.percentile,
        outcome.plain.tail.samples,
        probe.map_or("null".to_string(), |p| p.json()),
    );
    let line = if cfg.trace {
        report::result_line(
            outcome.attempted,
            outcome.failed,
            &report::PER_LAYER,
            &outcome.layers,
        )
    } else {
        report::result_line(
            outcome.attempted,
            outcome.failed,
            &report::END_TO_END,
            &reported.metrics(peak),
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}
