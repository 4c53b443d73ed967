//! `serve`: an in-process daemon fed by two closed-loop clients, each on
//! its own connection, that `submit` a job and then `wait` for it.
//!
//! The daemon is `Server::open` with the default config, its WAL on the
//! checkout's disk. Jobs are uncertified `auto` check jobs of the
//! scenario generator's instances (`--gen-seed`); the
//! clients share one cursor over the instance list in an order drawn
//! from `--seed`, so fingerprints recur the way CI resubmits unchanged
//! models. Latency is measured at the client, from submit to verdict.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use verdict_journal::json::Json;
use verdict_mc::spec::{execute, ExecContext};
use verdict_prng::Prng;
use verdict_server::{Client, DrainReport, Server, ServerConfig, ServerError};

use crate::matrix::{jobs, scenarios, tag_of, Job};
use crate::report::{mean, median, tail, EndToEnd};
use crate::trace::{SpanId, Tracer};
use crate::{Config, Outcome, SETUP_REPS};

/// Client threads, one connection each (the host has two cores).
const CLIENTS: usize = 2;

/// Jobs per block in trace mode: blocks alternate untraced and traced.
const TRACE_BLOCK: usize = 64;

/// A running daemon and its connected clients.
struct Daemon {
    dir: PathBuf,
    runner: JoinHandle<Result<DrainReport, ServerError>>,
    clients: Vec<Client>,
}

/// Opens a daemon in `dir`, starts it, and connects and pings every
/// client — the set-up a user pays before the first job.
fn open(dir: &Path, t: &mut Tracer, root: SpanId) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let socket = dir.join("d.sock");
    let cfg = ServerConfig::new(&socket, dir.join("wal"));
    let (server, _) = t
        .span("server::Server::open", root, || Server::open(cfg))
        .map_err(|e| e.to_string())?;
    let runner = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = t
            .span("server::Client::connect", root, || Client::connect(&socket))
            .map_err(|e| e.to_string())?;
        t.span("server::Client::ping", root, || c.ping())
            .map_err(|e| e.to_string())?;
        clients.push(c);
    }
    Ok(Daemon {
        dir: dir.to_path_buf(),
        runner,
        clients,
    })
}

/// Drains the daemon and removes its directory; returns the drain report.
fn close(mut d: Daemon) -> Result<DrainReport, String> {
    let asked = d.clients[0].shutdown().map_err(|e| e.to_string());
    d.clients.clear();
    let report = d
        .runner
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&d.dir);
    asked?;
    report.map_err(|e| e.to_string())
}

/// One finished (or refused) job, as a client saw it.
struct Record {
    instance: usize,
    traced: bool,
    rejected: bool,
    submit_ms: f64,
    wait_ms: f64,
    latency_ms: f64,
    verdicts: u64,
    failed: u64,
    fingerprint: u64,
}

/// A client's closed loop: take the next job, submit, wait, score, until
/// `until`.
fn client_loop(
    cfg: &Config,
    client: &mut Client,
    jobs: &[Job],
    order: &[usize],
    cursor: &AtomicUsize,
    until: Instant,
    t: &mut Tracer,
) -> Vec<Record> {
    let mut out = Vec::new();
    while Instant::now() < until && cfg.remaining() > Duration::from_secs(20) {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let instance = order[i % order.len()];
        let job = &jobs[instance];
        let traced = cfg.trace && (i / TRACE_BLOCK) % 2 == 1;
        t.set_enabled(traced);
        t.set_job(i as u64);
        let root = t.open("serve.job", SpanId::NONE);
        let t0 = Instant::now();
        let id = t.span("server::Client::submit", root, || client.submit(&job.spec));
        let t1 = Instant::now();
        let mut rec = Record {
            instance,
            traced,
            rejected: false,
            submit_ms: (t1 - t0).as_secs_f64() * 1e3,
            wait_ms: 0.0,
            latency_ms: 0.0,
            verdicts: job.expected.len() as u64,
            failed: 0,
            fingerprint: job.spec.fingerprint(),
        };
        let outcome = match id {
            Ok(id) => t.span("server::Client::wait", root, || client.wait(id, |_| {})),
            Err(e) => Err(e),
        };
        let t2 = Instant::now();
        t.close(root);
        rec.wait_ms = (t2 - t1).as_secs_f64() * 1e3;
        rec.latency_ms = (t2 - t0).as_secs_f64() * 1e3;
        match outcome {
            Ok(o) => {
                let rows: Vec<(&str, &str)> = o
                    .verdicts
                    .iter()
                    .map(|r| {
                        (
                            r.name.as_str(),
                            if r.decided() {
                                tag_of(&r.verdict)
                            } else {
                                "unknown"
                            },
                        )
                    })
                    .collect();
                rec.failed = job.failures(rows.iter().copied());
            }
            Err(e) => {
                eprintln!("serve: job {i} failed: {e}");
                rec.rejected = true;
                rec.failed = rec.verdicts;
            }
        }
        out.push(rec);
    }
    t.set_enabled(false);
    out
}

/// Reads `group.key` of the daemon's stats document as a number.
fn stat(doc: &Json, group: &str, key: &str) -> f64 {
    doc.get(group)
        .and_then(|g| g.get(key))
        .and_then(Json::as_int)
        .unwrap_or(0) as f64
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let base = cfg.out_dir.join(format!("serve-{}", std::process::id()));
    let mut tracer = Tracer::new(Instant::now());
    let (mut setup, mut generate_s) = (Vec::new(), Vec::new());
    let mut daemon: Option<Daemon> = None;
    let mut job_list = Vec::new();
    tracer.set_enabled(cfg.trace);
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            close(d)?;
        }
        let root = tracer.open("setup", SpanId::NONE);
        let t0 = Instant::now();
        let s = tracer.span("scenarios::generate", root, || scenarios(cfg));
        generate_s.push(t0.elapsed().as_secs_f64());
        job_list = jobs(&s, false, |_| "auto", cfg.flip_answer);
        daemon = Some(open(&base.join(rep.to_string()), &mut tracer, root)?);
        setup.push(t0.elapsed().as_secs_f64());
        tracer.close(root);
    }
    tracer.set_enabled(false);
    let mut daemon = daemon.expect("at least one set-up");

    let mut order: Vec<usize> = (0..job_list.len()).collect();
    let mut rng = Prng::seed_from_u64(cfg.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(cfg.seconds);
    let epoch = tracer.epoch();
    let mut per_client: Vec<(Vec<Record>, Tracer)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .map(|c| {
                let (jobs, order, cursor) = (&job_list, &order, &cursor);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let recs = client_loop(cfg, c, jobs, order, cursor, until, &mut t);
                    (recs, t)
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread panicked"));
        }
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for (r, t) in per_client {
        records.extend(r);
        tracer.merge(t);
    }

    tracer.set_enabled(true);
    let doc = tracer.span("server::Client::stats", SpanId::NONE, || {
        daemon.clients[0].stats()
    });
    tracer.set_enabled(false);
    let doc = doc.map_err(|e| e.to_string())?;
    let drain = close(daemon)?;
    let _ = std::fs::remove_dir_all(&base);

    let jobs_run = records.len() as f64;
    let cycles = jobs_run / job_list.len().max(1) as f64;
    let e2e = |recs: &[&Record]| -> EndToEnd {
        let lat: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
        let sum = |f: bool| {
            recs.iter()
                .filter(|r| job_list[r.instance].falsifies() == f)
                .map(|r| r.latency_ms / 1e3)
                .sum::<f64>()
        };
        let n = recs.len() as f64 / job_list.len().max(1) as f64;
        EndToEnd {
            setup_s: median(&setup),
            falsify_s: sum(true) / n.max(1e-9),
            verify_s: sum(false) / n.max(1e-9),
            // Traced and untraced jobs interleave, so throughput is the
            // whole window's.
            verdicts_per_s: records.iter().map(|r| r.verdicts - r.failed).sum::<u64>() as f64
                / window_s,
            p50_ms: median(&lat),
            tail: tail(&lat),
            passes: n,
            window_s,
        }
    };
    let plain_recs: Vec<&Record> = records.iter().filter(|r| !r.traced).collect();
    let traced_recs: Vec<&Record> = records.iter().filter(|r| r.traced).collect();
    let plain = e2e(&plain_recs);

    let mut distinct: Vec<u64> = records.iter().map(|r| r.fingerprint).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let repeated = 1.0 - distinct.len() as f64 / jobs_run.max(1.0);
    let rejected = records.iter().filter(|r| r.rejected).count();
    let mut notes = vec![format!(
        "serve: {} jobs in {window_s:.2} s over {} instances ({cycles:.2} cycles), {CLIENTS} clients; \
         {:.1}% of fingerprints repeated; {rejected} rejected, {} abandoned at drain; \
         tail is p{:.3} over {} jobs; {} waits over 100 ms",
        records.len(),
        job_list.len(),
        100.0 * repeated,
        drain.jobs_abandoned,
        plain.tail.percentile,
        plain.tail.samples,
        records.iter().filter(|r| r.wait_ms > 100.0).count(),
    )];

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if cfg.trace {
        let t_e2e = e2e(&traced_recs);
        // In-process reference for every instance the traced jobs ran:
        // its parse time and its `spec::execute` time.
        tracer.set_enabled(true);
        let root = tracer.open("reference", SpanId::NONE);
        let mut exec_ms = vec![f64::NAN; job_list.len()];
        let mut parse_ms = Vec::new();
        for r in &traced_recs {
            if exec_ms[r.instance].is_nan() {
                let job = &job_list[r.instance];
                let t0 = Instant::now();
                let _ = tracer.span("dsl.parse", root, || verdict_dsl::parse(&job.spec.source));
                parse_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let t1 = Instant::now();
                let ctx = ExecContext {
                    jobs: 1,
                    ..ExecContext::default()
                };
                tracer.span("spec::execute", root, || execute(&job.spec, &ctx));
                exec_ms[r.instance] = t1.elapsed().as_secs_f64() * 1e3;
            }
        }
        tracer.close(root);
        tracer.set_enabled(false);
        let overhead: Vec<f64> = traced_recs
            .iter()
            .map(|r| r.latency_ms - exec_ms[r.instance])
            .collect();
        let submit: Vec<f64> = traced_recs.iter().map(|r| r.submit_ms).collect();
        let wait: Vec<f64> = traced_recs.iter().map(|r| r.wait_ms).collect();
        let per = |v: f64| v / cycles.max(1e-9);
        let appends = stat(&doc, "server", "wal_appends");
        let fsyncs = stat(&doc, "server", "wal_fsyncs");
        let parse_p50 = median(&parse_ms);
        layers = BTreeMap::from([
            ("scenarios.generate_s", median(&generate_s)),
            // The daemon parses each job twice: at admission and at run.
            (
                "dsl.parse_s",
                2.0 * mean(&parse_ms) / 1e3 * job_list.len() as f64,
            ),
            ("dsl.parse_p50_ms", parse_p50),
            ("sat.conflicts", per(stat(&doc, "sat", "conflicts"))),
            ("sat.decisions", per(stat(&doc, "sat", "decisions"))),
            ("sat.propagations", per(stat(&doc, "sat", "propagations"))),
            (
                "sat.learnt_clauses",
                per(stat(&doc, "sat", "learnt_clauses")),
            ),
            (
                "bdd.nodes_allocated",
                per(stat(&doc, "bdd", "nodes_allocated")),
            ),
            ("bdd.peak_live_nodes", stat(&doc, "bdd", "peak_live_nodes")),
            ("bdd.sifts", per(stat(&doc, "bdd", "sifts"))),
            (
                "mc.fixpoint_iterations",
                per(doc
                    .get("fixpoint_iterations")
                    .and_then(Json::as_int)
                    .unwrap_or(0) as f64),
            ),
            (
                "mc.certify_s",
                per(stat(&doc, "phases", "certify_us") / 1e6),
            ),
            ("mc.replay_s", per(stat(&doc, "phases", "replay_us") / 1e6)),
            ("server.submit_ms", median(&submit)),
            ("server.wait_ms", median(&wait)),
            ("server.overhead_ms", median(&overhead)),
            (
                "server.waits_over_100ms",
                records.iter().filter(|r| r.wait_ms > 100.0).count() as f64,
            ),
            (
                "server.hedges_launched",
                stat(&doc, "supervision", "hedges_launched"),
            ),
            ("server.hedges_won", stat(&doc, "supervision", "hedges_won")),
            (
                "server.jobs_rejected",
                stat(&doc, "server", "jobs_rejected"),
            ),
            ("journal.appends", appends),
            (
                "journal.group_commits",
                stat(&doc, "server", "wal_group_commits"),
            ),
            ("journal.fsyncs", fsyncs),
            (
                "journal.appends_per_fsync",
                if fsyncs > 0.0 { appends / fsyncs } else { 0.0 },
            ),
            ("trace.uncovered_share", tracer.uncovered_share()),
            (
                "trace.overhead_pct",
                100.0 * (t_e2e.p50_ms / plain.p50_ms - 1.0),
            ),
        ]);
        let lookups = stat(&doc, "bdd", "ite_cache_lookups");
        if lookups > 0.0 {
            layers.insert(
                "bdd.ite_hit_rate",
                stat(&doc, "bdd", "ite_cache_hits") / lookups,
            );
        }
        notes.push(format!(
            "serve reference: {} instances executed in-process for server.overhead_ms",
            parse_ms.len()
        ));
        traced = Some(t_e2e);
    }
    let attempted = records.iter().map(|r| r.verdicts).sum();
    let failed = records.iter().map(|r| r.failed).sum::<u64>() + drain.jobs_abandoned;
    Ok(Outcome {
        plain,
        traced,
        layers,
        attempted,
        failed,
        tracer,
        notes,
    })
}
