//! `verdict` — the command-line interface.
//!
//! ```text
//! verdict check <model.vd> [--prop NAME] [--engine E] [--depth N] [--timeout SECS]
//! verdict table1
//! verdict fig2 [--minutes N]
//! verdict fig1-dot
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use verdict_dsl::{parse, CompiledProperty};
use verdict_journal::json::quote;
use verdict_journal::VerdictTag;
use verdict_mc::{
    certify, params, CheckOptions, CheckResult, EngineKind, TraceSink, UnknownReason,
    STATS_SCHEMA_VERSION,
};

mod scenarios_cmd;
mod server_cmd;
mod sigint;

const USAGE: &str = "\
verdict — symbolic model checking for self-driving infrastructure control

USAGE:
    verdict check <model.vd> [OPTIONS]   check properties of a .vd model
    verdict synth <model.vd> --params a,b [OPTIONS]
                                         synthesize safe values for frozen params
    verdict blast <model.vd> --event EXPR --metric EXPR [OPTIONS]
                                         worst metric value reachable after event
    verdict serve --socket PATH --wal DIR [--workers N] [--queue N]
                  [--grace SECS] [--segment-bytes N] [--watchdog-grace-ms MS]
                  [--hedge-after-ms MS | --no-hedge] [--quarantine-after N]
                  [--quarantine-ttl SECS] [--fault SPEC | --fault-seed N]
                                         run the verdict daemon: accept jobs over a
                                         Unix-socket JSONL API, journal every
                                         acknowledged job in a group-commit WAL,
                                         recover in-flight jobs on restart, drain
                                         gracefully (exit 0) on SIGTERM/SIGINT.
                                         A watchdog escalates hung workers (stop
                                         flag -> solver poisoning -> abandonment
                                         with a respawned slot), slow jobs get a
                                         hedged second run on a spare worker, and
                                         specs that crash-loop are quarantined
    verdict submit <model.vd> --socket PATH [--synth --params a,b] [--prop NAME]
                  [--engine E] [--depth N] [--deadline SECS] [--certify]
                  [--resilient] [--no-wait] [--events] [--json]
                                         send a job to a running daemon; blocks for
                                         the verdict (check exit codes) unless
                                         --no-wait, which returns once the job is
                                         durably acknowledged. --resilient retries
                                         the submit across reconnects under an
                                         idempotency key (never double-runs)
    verdict unquarantine --socket PATH FINGERPRINT
                                         lift a crash-loop quarantine early (the
                                         fingerprint is printed in the rejection)
    verdict server-stats --socket PATH   print the daemon's stats JSON (schema 2,
                                         including the server and supervision
                                         counter groups)
    verdict scenarios [--pattern P,..] [--seed N] [--samples N] [--list]
                  [--jobs N] [--depth N] [--timeout SECS] [--certify]
                  [--engine E] [--socket PATH] [--json]
                                         generate the incident-driven scenario
                                         matrix (5 control-loop interference
                                         patterns x parameter grid, each instance
                                         with a ground-truth property pack), run
                                         every instance through the engines —
                                         locally on a worker pool, or via a
                                         running daemon with --socket — and score
                                         verdicts against expectations, rolled up
                                         per pattern with the Table 1 incident
                                         ids. --samples N adds seeded random
                                         parameter draws on top of the base grid;
                                         --list only enumerates. Exit codes:
                                         0 all verdicts match, 2 any mismatch,
                                         1 infrastructure failure, 130 interrupted
    verdict schema                       dump the versioned JSON output contract
                                         (field shapes for check/synth/scenarios/
                                         server-stats documents)
    verdict table1                       print the incident-study table (Table 1)
    verdict fig2 [--minutes N]           run the Fig. 2 cluster simulation
    verdict fig1-dot                     print the Fig. 1 interaction graph as DOT

OPTIONS (check/synth):
    --prop NAME        check only the named property (synth: required if
                       the model has several)
    --engine ENGINE    auto | bmc | kind | bdd | explicit | smtbmc | portfolio
                       (portfolio races BMC against the provers in
                       parallel threads and keeps the first verdict;
                       the JSON engine tags k-induction and smt-bmc
                       are accepted too)
                                                                    [default: auto]
    --depth N          unrolling depth bound                        [default: 64]
    --timeout SECS     wall-clock budget per property
    --jobs N           worker threads for parallel operations
                       (synth assignment sweep)  [default: all cores]
    --first-safe       synth only: stop at the first SAFE assignment,
                       cancelling the rest of the sweep
    --incremental      synth only: pin assignments with assumption
                       literals over one shared unrolling so each worker
                       keeps one solver for its whole sweep (learned
                       clauses carry over, unsat cores prune parameters
                       that don't matter). Default for invariant
                       properties under the k-induction engine
    --no-incremental   synth only: force the clone-per-assignment sweep
    --no-sharing       disable learnt-clause exchange between portfolio
                       contenders / synthesis workers (verdicts are
                       identical either way; see DESIGN.md §13)
    --bdd-partitioned  symbolic engine: image via per-variable update
                       partitions chained with early quantification
                       (the default; see DESIGN.md §15)
    --bdd-monolithic   symbolic engine: one conjoined transition-relation
                       BDD (baseline; verdicts are identical either way)
    --max-bdd-nodes N  BDD node ceiling: the manager refuses further
                       allocation and the run demotes to UNKNOWN
                       (resource-exhausted) instead of exhausting memory
    --certify          independently validate every verdict: replay
                       counterexamples through the reference interpreter,
                       re-check proofs with fresh proof-logged SAT queries;
                       a failed check demotes the verdict to UNKNOWN
                       (certificate rejected)
    --retries N        re-run assignments/properties that came back
                       unknown for an infrastructure reason
                       (engine-failure, resource-exhausted, timeout) up
                       to N extra times with escalating budgets and
                       jittered backoff                          [default: 0]
    --retry-factor F   budget multiplier between attempts        [default: 2]
    --retry-backoff-ms MS
                       base backoff before a retry               [default: 20]
    --journal PATH     append every decided verdict to a crash-safe
                       (fsync'd, checksummed) journal at PATH; refuses
                       to overwrite an existing journal (resume or
                       delete it)
    --resume PATH      resume from a journal written by --journal:
                       trusted verdicts are skipped, undecided work
                       re-runs, new verdicts append to the same file
    --fault SPEC       deterministic fault injection for testing:
                       site:kind[:hit], comma-separated (kinds: panic,
                       overflow, exhaust; also via env VERDICT_FAULT)
    --fault-seed N     derive a random fault spec from seed N
    --json             machine-readable output on stdout (one JSON
                       document, top-level \"schema\": 2: verdicts,
                       winning engine, certificate status, attempt
                       counts, wall-clock millis)
    --stats            check only: report engine counters (SAT
                       decisions/conflicts, simplex pivots, BDD nodes),
                       per-depth unroll/solve timings, and phase timers
                       per property — as a \"stats\" object under --json,
                       as indented lines otherwise
    --trace FILE       check only: append span/depth/mark events as
                       JSON lines to FILE while solving (one object per
                       line; shared by portfolio contenders)

EXIT CODES (check):
    0   every property holds or is unknown for an honest reason
        (depth-bound, timeout, effort-bound, cancelled)
    2   at least one property is violated
    1   usage, parse, or engine error — including a property left
        unknown by an infrastructure failure (engine-failure,
        resource-exhausted, certificate-rejected, hung-worker)
    130 interrupted (first Ctrl-C drains workers and keeps the
        journal intact; resume with --resume)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("synth") => synth(&args[1..]),
        Some("blast") => blast(&args[1..]),
        Some("serve") => server_cmd::serve(&args[1..]),
        Some("submit") => server_cmd::submit(&args[1..]),
        Some("unquarantine") => server_cmd::unquarantine(&args[1..]),
        Some("server-stats") => server_cmd::server_stats(&args[1..]),
        Some("scenarios") => scenarios_cmd::scenarios(&args[1..]),
        Some("schema") => scenarios_cmd::schema(&args[1..]),
        Some("table1") => {
            print!("{}", verdict_incidents::table1());
            ExitCode::SUCCESS
        }
        Some("fig2") => fig2(&args[1..]),
        Some("fig1-dot") => {
            print!(
                "{}",
                verdict_models::interaction::InteractionGraph::figure1().to_dot()
            );
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the shared engine-budget flags through the unified
/// `verdict_mc::spec` path (a typo'd value is an error, not a silent
/// fallback to the default).
fn options_from(args: &[String]) -> Result<CheckOptions, String> {
    verdict_mc::spec::options_from_args(args)
}

/// Installs the deterministic fault-injection plan from `--fault SPEC`,
/// `--fault-seed N`, or the `VERDICT_FAULT` environment variable
/// (testing only; a no-op when none is given).
fn install_faults(args: &[String]) -> Result<(), String> {
    use verdict_journal::fault;
    if let Some(seed) = flag_value(args, "--fault-seed") {
        if flag_value(args, "--fault").is_some() {
            return Err("--fault and --fault-seed are mutually exclusive".to_string());
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("--fault-seed expects a number, got `{seed}`"))?;
        let plan = fault::FaultPlan::seeded(seed);
        eprintln!("fault injection (seed {seed}): {}", plan.to_spec_string());
        fault::install(&plan);
        return Ok(());
    }
    let spec = flag_value(args, "--fault").or_else(|| std::env::var("VERDICT_FAULT").ok());
    if let Some(spec) = spec {
        let plan = fault::FaultPlan::parse(&spec).map_err(|e| format!("--fault: {e}"))?;
        fault::install(&plan);
    }
    Ok(())
}

/// Journal flags shared by `check` and `synth`: `--resume PATH` implies
/// journaling to the same file.
fn journal_flags(args: &[String]) -> Result<(Option<String>, bool), String> {
    let journal = flag_value(args, "--journal");
    let resume = flag_value(args, "--resume");
    if journal.is_some() && resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (resume appends to the same journal)"
                .to_string(),
        );
    }
    let is_resume = resume.is_some();
    Ok((resume.or(journal), is_resume))
}

/// True for `Unknown` reasons that indicate the infrastructure (not the
/// model) failed — these map to exit code 1 under the check contract.
fn infra_failure(r: &CheckResult) -> bool {
    matches!(
        r,
        CheckResult::Unknown(
            UnknownReason::EngineFailure
                | UnknownReason::ResourceExhausted
                | UnknownReason::CertificateRejected
                | UnknownReason::HungWorker
        )
    )
}

/// What a run concluded, boiled down to the bits the exit-code contract
/// cares about. Shared by `check` and `synth` so the mapping lives in
/// exactly one place.
#[derive(Clone, Copy, Debug, Default)]
struct Outcome {
    /// Ctrl-C arrived (workers drained, journal intact).
    interrupted: bool,
    /// At least one property/assignment is violated (check only).
    violated: bool,
    /// Some verdict is unknown for an infrastructure reason.
    infra_unknown: bool,
}

/// The process exit code for an [`Outcome`]: 130 interrupted, 2
/// violated, 1 infrastructure failure, 0 otherwise (holds or honest
/// unknown). Interruption takes precedence over everything.
fn exit_code(o: &Outcome) -> u8 {
    if o.interrupted {
        130
    } else if o.violated {
        2
    } else if o.infra_unknown {
        1
    } else {
        0
    }
}

/// The coarse verdict bucket used in JSON output and the exit code —
/// the shared `verdict_mc::spec` mapping, so local and server rows
/// always use the same tags.
fn verdict_tag(r: &CheckResult) -> &'static str {
    verdict_mc::spec::verdict_tag(r)
}

/// Pulls `--flag value` out of an argument list (shared
/// `verdict_mc::spec` helper).
use verdict_mc::spec::flag_value;

/// The `--engine` flag, parsed by [`EngineKind::from_tag`] like every
/// other surface (so the tags `check --json` prints parse back); `auto`
/// when absent.
fn engine_from(args: &[String]) -> Result<EngineKind, String> {
    match flag_value(args, "--engine") {
        None => Ok(EngineKind::Auto),
        Some(tag) => EngineKind::from_tag(&tag).ok_or_else(|| format!("unknown engine `{tag}`")),
    }
}

/// The flags of USAGE's `OPTIONS (check/synth)` block that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--prop",
    "--engine",
    "--depth",
    "--timeout",
    "--jobs",
    "--max-bdd-nodes",
    "--retries",
    "--retry-factor",
    "--retry-backoff-ms",
    "--journal",
    "--resume",
    "--fault",
    "--fault-seed",
    "--trace",
];

/// The flags of USAGE's `OPTIONS (check/synth)` block that take none.
const SWITCHES: &[&str] = &[
    "--first-safe",
    "--incremental",
    "--no-incremental",
    "--no-sharing",
    "--bdd-partitioned",
    "--bdd-monolithic",
    "--certify",
    "--json",
    "--stats",
];

/// Rejects any `--flag` that is neither in the OPTIONS block nor one of
/// the command's own value flags `extra`; a value flag takes its value
/// with it, so a value is never mistaken for a flag.
fn reject_unknown_flags(args: &[String], extra: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg) || extra.contains(&arg) {
            rest.next();
        } else if arg.starts_with("--") && !SWITCHES.contains(&arg) {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(())
}

fn check(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("check: missing model path\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match parse(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let engine = match engine_from(args) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = reject_unknown_flags(args, &[]) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let mut opts = match options_from(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match flag_value(args, "--trace") {
        Some(p) => match TraceSink::create(Path::new(&p)) {
            Ok(sink) => Some(Arc::new(sink)),
            Err(e) => {
                eprintln!("--trace {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if let Some(sink) = &trace {
        opts = opts.with_trace(sink.clone());
    }
    let stats_on = args.iter().any(|a| a == "--stats");
    if let Err(e) = install_faults(args) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let opts = opts.with_stop(sigint::install());
    let only = flag_value(args, "--prop");

    let selected: Vec<&(String, CompiledProperty)> = model
        .properties
        .iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|p| p == name))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no matching properties (model has: {})",
            model
                .properties
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }

    let (journal_path, resume) = match journal_flags(args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Fingerprint material: property formulas (not just names), so an
    // edited property body invalidates the journal.
    let prop_specs: Vec<(String, String)> = selected
        .iter()
        .map(|(n, p)| (n.clone(), format!("{p:?}")))
        .collect();
    let (recorder, resumed) = match &journal_path {
        Some(p) => {
            match verdict_mc::durable::start_check_journal(
                Path::new(p),
                resume,
                &model.system,
                &prop_specs,
                &engine.to_string(),
            ) {
                Ok((rec, map)) => (Some(rec), map),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => (None, HashMap::new()),
    };

    let json = args.iter().any(|a| a == "--json");
    let mut any_violated = false;
    let mut infra_unknown = false;
    let mut rows: Vec<String> = Vec::new();
    for (prop_idx, (name, property)) in selected.into_iter().enumerate() {
        // A resumed verdict is reused only without --certify; with it,
        // every property is re-verified (trivially sound). Only decided
        // (safe/unsafe) verdicts are ever resumed — unknowns are
        // filtered out by `start_check_journal` and re-solved here, so
        // `--resume --retries N` can clear a journaled infra failure.
        if !opts.certify {
            if let Some(prev) = resumed.get(name.as_str()) {
                any_violated |= prev.verdict == VerdictTag::Unsafe;
                // Older journals record the requested engine, not the one
                // that ran: resolve it as `verdict_mc::check` does.
                let ran = EngineKind::from_tag(&prev.engine).map_or_else(
                    || prev.engine.clone(),
                    |k| verdict_mc::engine::resolve(k, &model.system, property).to_string(),
                );
                if json {
                    rows.push(format!(
                        "{{\"name\":{},\"verdict\":{},\"detail\":{},\"engine\":{},\"certificate\":{},\"wall_ms\":0,\"resumed\":true}}",
                        quote(name),
                        quote(prev.verdict.tag()),
                        quote(prev.verdict.tag()),
                        quote(&ran),
                        quote("skipped"),
                    ));
                } else {
                    println!(
                        "property `{name}` (resumed from journal, engine {ran}): {}",
                        prev.verdict.tag()
                    );
                }
                continue;
            }
        }
        let max_attempts = opts.retry.as_ref().map_or(1, |p| p.max_attempts);
        let mut attempt = 1u32;
        let (result, used_engine, wall, mut stats, contenders) = loop {
            // Retries re-run the property with escalated budgets
            // (timeout, clause/node ceilings) per the policy.
            let run_opts = match &opts.retry {
                Some(policy) if attempt > 1 => policy.escalate(&opts, attempt),
                _ => opts.clone(),
            };
            // The report names the engine that ran (a portfolio's
            // winner) and carries its stats.
            let report = match verdict_mc::check(&model.system, property, engine, &run_opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("property `{name}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let retryable = matches!(&report.result, CheckResult::Unknown(r) if r.retryable())
                && !sigint::interrupted();
            if retryable && attempt < max_attempts {
                if let Some(policy) = &opts.retry {
                    std::thread::sleep(policy.backoff_for(prop_idx as u64, attempt + 1));
                }
                attempt += 1;
                continue;
            }
            break (
                report.result,
                report.winner,
                report.wall,
                report.stats,
                report.contender_stats,
            );
        };
        stats.retries += u64::from(attempt - 1);
        let cert = certify::status(opts.certify, used_engine, property, &result);
        any_violated |= result.violated();
        infra_unknown |= infra_failure(&result);
        if let Some(rec) = &recorder {
            rec.record_property(name, &result, &used_engine.to_string());
        }
        if json {
            let stats_field = if stats_on {
                let per_contender: Vec<String> =
                    contenders.iter().map(|(_, s)| s.counters_json()).collect();
                format!(
                    ",\"stats\":{},\"contenders\":[{}]",
                    stats.to_json(),
                    per_contender.join(",")
                )
            } else {
                String::new()
            };
            rows.push(format!(
                "{{\"name\":{},\"verdict\":{},\"detail\":{},\"engine\":{},\"certificate\":{},\"wall_ms\":{}{stats_field}}}",
                quote(name),
                quote(verdict_tag(&result)),
                quote(&result.to_string()),
                quote(&used_engine.to_string()),
                quote(&cert.to_string()),
                wall.as_millis()
            ));
        } else {
            let cert_note = if opts.certify {
                format!("  [certificate: {cert}]")
            } else {
                String::new()
            };
            println!("property `{name}` ({wall:.2?}, engine {used_engine}): {result}{cert_note}");
            if stats_on {
                print_stats_text(&stats, &contenders);
            }
        }
    }
    if let Some(sink) = &trace {
        if let Err(e) = sink.flush() {
            eprintln!("--trace: {e}");
        }
    }
    // Interruption takes precedence over the verdict-derived code, and
    // the JSON document must report the code the process actually exits
    // with.
    let code = exit_code(&Outcome {
        interrupted: sigint::interrupted(),
        violated: any_violated,
        infra_unknown,
    });
    if json {
        println!(
            "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"check\",\"model\":{},\"properties\":[{}],\"exit_code\":{code}}}",
            quote(path),
            rows.join(",")
        );
    }
    ExitCode::from(code)
}

/// Human-readable `--stats` rendering: one indented block per property
/// with the counter groups that actually fired, plus phase timers and —
/// for portfolio runs — a one-line summary per contender.
fn print_stats_text(stats: &verdict_mc::Stats, contenders: &[(EngineKind, verdict_mc::Stats)]) {
    use verdict_mc::stats::Phase;
    if !stats.sat.is_zero() {
        println!(
            "  sat: {} decisions, {} propagations, {} conflicts, {} restarts, {} learnt clauses",
            stats.sat.decisions,
            stats.sat.propagations,
            stats.sat.conflicts,
            stats.sat.restarts,
            stats.sat.learnt_clauses
        );
    }
    if !stats.smt.is_zero() {
        println!(
            "  smt: {} pivots, {} bound flips, {} overflow poisonings",
            stats.smt.pivots, stats.smt.bound_flips, stats.smt.overflow_poisonings
        );
    }
    if !stats.bdd.is_zero() {
        println!(
            "  bdd: {} nodes, {:.1}% ite cache hits, {} peak live, {} partition(s), \
             {} cache clears",
            stats.bdd.nodes_allocated,
            stats.bdd.ite_hit_rate() * 100.0,
            stats.bdd.peak_live_nodes,
            stats.bdd.partitions,
            stats.bdd.cache_clears
        );
    }
    if stats.fixpoint_iterations > 0 || stats.states_visited > 0 {
        println!(
            "  search: {} fixpoint iterations, {} states visited",
            stats.fixpoint_iterations, stats.states_visited
        );
    }
    if !stats.server.is_zero() {
        println!(
            "  server: {} accepted, {} rejected, {} completed, {} recovered; \
             wal {} appends in {} group commits ({} fsyncs, {} rotations)",
            stats.server.jobs_accepted,
            stats.server.jobs_rejected,
            stats.server.jobs_completed,
            stats.server.jobs_recovered,
            stats.server.wal_appends,
            stats.server.wal_group_commits,
            stats.server.wal_fsyncs,
            stats.server.wal_rotations
        );
    }
    if !stats.supervision.is_zero() {
        println!(
            "  supervision: {} heartbeats, {} escalations, {} hung workers \
             ({} respawned); hedges {} launched ({} won, {} lost, {} wasted); \
             quarantine {} armed, {} hits",
            stats.supervision.heartbeats,
            stats.supervision.escalations,
            stats.supervision.hung_workers,
            stats.supervision.workers_respawned,
            stats.supervision.hedges_launched,
            stats.supervision.hedges_won,
            stats.supervision.hedges_lost,
            stats.supervision.hedges_wasted,
            stats.supervision.quarantined,
            stats.supervision.quarantine_hits
        );
    }
    println!(
        "  phases: encode {}us, solve {}us, certify {}us, replay {}us; {} depth samples",
        stats.phase_nanos(Phase::Encode) / 1_000,
        stats.phase_nanos(Phase::Solve) / 1_000,
        stats.phase_nanos(Phase::Certify) / 1_000,
        stats.phase_nanos(Phase::Replay) / 1_000,
        stats.depths.len()
    );
    if contenders.len() > 1 {
        for (kind, s) in contenders {
            println!(
                "  contender {kind}: sat {} conflicts, smt {} pivots, bdd {} nodes, {} states",
                s.sat.conflicts, s.smt.pivots, s.bdd.nodes_allocated, s.states_visited
            );
        }
    }
}

fn synth(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("synth: missing model path\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match parse(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(param_list) = flag_value(args, "--params") else {
        eprintln!("synth: --params a,b,... is required");
        return ExitCode::FAILURE;
    };
    let mut params = Vec::new();
    for name in param_list.split(',') {
        match model.system.var_by_name(name.trim()) {
            Some(v) => params.push(v),
            None => {
                eprintln!("unknown parameter `{name}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let only = flag_value(args, "--prop");
    let selected: Vec<&(String, CompiledProperty)> = model
        .properties
        .iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|p| p == name))
        .collect();
    let [(name, property)] = selected.as_slice() else {
        eprintln!(
            "synth needs exactly one property (use --prop); model has: {}",
            model
                .properties
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };
    let engine = match engine_from(args) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = reject_unknown_flags(args, &["--params"]) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let opts = match options_from(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = install_faults(args) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let opts = opts.with_stop(sigint::install());
    let json = args.iter().any(|a| a == "--json");
    let first_safe = args.iter().any(|a| a == "--first-safe");
    let synth_engine = verdict_mc::engine::synthesis_engine(engine, property);

    let (journal_path, resume) = match journal_flags(args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = match &journal_path {
        Some(p) => {
            match verdict_mc::durable::start_sweep_journal(
                Path::new(p),
                resume,
                &model.system,
                &params,
                property,
                synth_engine,
                &opts,
            ) {
                Ok(pair) => Some(pair),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let durability = match &journal {
        Some((recorder, state)) => {
            if resume && !state.is_empty() {
                eprintln!(
                    "resumed {} decided assignment(s) from {}",
                    state.len(),
                    journal_path.as_deref().unwrap_or("journal")
                );
            }
            verdict_mc::Durability {
                recorder: Some(recorder),
                resume: Some(state),
            }
        }
        None => verdict_mc::Durability::none(),
    };

    let started = std::time::Instant::now();
    let sweep = if first_safe {
        params::synthesize_first_safe_durable
    } else {
        params::synthesize_durable
    };
    let synthesis = sweep(
        &model.system,
        &params,
        property,
        synth_engine,
        &opts,
        &durability,
    );
    match synthesis {
        Ok(result) => {
            if json {
                let rows: Vec<String> = result
                    .verdicts
                    .iter()
                    .map(|v| {
                        let vals: Vec<String> =
                            v.values.iter().map(|x| quote(&x.to_string())).collect();
                        let reason = match &v.result {
                            CheckResult::Unknown(r) => quote(r.tag()),
                            _ => "null".to_string(),
                        };
                        format!(
                            "{{\"values\":[{}],\"verdict\":{},\"detail\":{},\"attempts\":{},\"reason\":{}}}",
                            vals.join(","),
                            quote(verdict_tag(&v.result)),
                            quote(&v.result.to_string()),
                            v.attempts,
                            reason
                        )
                    })
                    .collect();
                let names: Vec<String> = result.param_names.iter().map(|n| quote(n)).collect();
                println!(
                    "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"synth\",\"model\":{},\"property\":{},\"params\":[{}],\"verdicts\":[{}],\"wall_ms\":{}}}",
                    quote(path),
                    quote(name),
                    names.join(","),
                    rows.join(","),
                    started.elapsed().as_millis()
                );
            } else {
                println!("property `{name}`:");
                print!("{result}");
            }
            // Unsafe assignments are an answer here, not a failure: the
            // sweep's job is to map the safe region, so only
            // interruption changes the exit code.
            ExitCode::from(exit_code(&Outcome {
                interrupted: sigint::interrupted(),
                ..Outcome::default()
            }))
        }
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn blast(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("blast: missing model path\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match parse(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(event_src), Some(metric_src)) =
        (flag_value(args, "--event"), flag_value(args, "--metric"))
    else {
        eprintln!("blast: --event EXPR and --metric EXPR are required");
        return ExitCode::FAILURE;
    };
    let event = match model.compile_bool_expr(&event_src) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("--event: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metric = match model.compile_int_expr(&metric_src) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("--metric: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match options_from(args) {
        Ok(o) => o.max_depth_defaulted(16),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match verdict_mc::blast::worst_case_after(&model.system, &event, &metric, &opts) {
        Ok(Some(r)) => {
            println!(
                "worst `{metric_src}` at-or-after `{event_src}` within {} steps: {} (range {}..={})",
                opts.max_depth, r.worst, r.range.0, r.range.1
            );
            println!("witness:\n{}", r.witness);
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!(
                "event `{event_src}` not reachable within {} steps",
                opts.max_depth
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("blast failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fig2(args: &[String]) -> ExitCode {
    let minutes: u64 = flag_value(args, "--minutes")
        .and_then(|m| m.parse().ok())
        .unwrap_or(30);
    let metrics = verdict_ksim::ClusterSpec::figure2().run(minutes * 60);
    println!("pod placement over {minutes} minutes (descheduler every 2 min):");
    println!("  time   node");
    for (t, node) in metrics.placement_changes("app-") {
        println!("  {t:>5}  {node}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_table() {
        // (interrupted, violated, infra_unknown) -> code. Interruption
        // beats violation beats infrastructure failure.
        let table: [(bool, bool, bool, u8); 8] = [
            (false, false, false, 0),
            (false, false, true, 1),
            (false, true, false, 2),
            (false, true, true, 2),
            (true, false, false, 130),
            (true, false, true, 130),
            (true, true, false, 130),
            (true, true, true, 130),
        ];
        for (interrupted, violated, infra_unknown, want) in table {
            let got = exit_code(&Outcome {
                interrupted,
                violated,
                infra_unknown,
            });
            assert_eq!(
                got, want,
                "exit_code(interrupted={interrupted}, violated={violated}, infra={infra_unknown})"
            );
        }
    }
}
