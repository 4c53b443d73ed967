//! Measures the verdict-serving daemon and writes `BENCH_server.json`
//! to the repo root.
//!
//! ```text
//! cargo run -p verdict-bench --release --bin server -- \
//!     [--jobs N] [--submitters N] [--per-submitter N] [--out PATH]
//! ```
//!
//! One in-process daemon per scenario (real Unix socket, real WAL on
//! disk), loaded by 1 vs. N concurrent submitter threads, each blocking
//! on the durable acknowledgement of every submit. Reported per
//! scenario:
//!
//! * **jobs/sec** — submit-to-all-done throughput,
//! * **ack p50/p99** — the client-visible latency of a durable submit
//!   (one group-commit fsync away, never more),
//! * **WAL counters** — appends vs. group commits vs. fsyncs.
//!
//! The group-commit claim is asserted, not just printed: with ≥ 4
//! concurrent submitters the WAL must fsync measurably fewer times than
//! it appends (admission + completion records batch while the previous
//! fsync is in flight). A regression that serializes fsyncs again fails
//! the run.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use verdict_bench::{flag_value, host_provenance_json, sample_cores};
use verdict_server::{Client, ClientError, JobSpec, Server, ServerConfig};

/// Decided instantly by every engine, so the bench measures the daemon
/// and its WAL rather than solver time.
const TINY: &str = "\
system tiny {
    var n : 0..7;
    init n = 0;
    trans next(n) = if n < 7 then n + 1 else n;
    invariant in_range: n <= 7;
}
";

struct Scenario {
    submitters: usize,
    jobs: usize,
    wall: Duration,
    ack_p50: Duration,
    ack_p99: Duration,
    appends: u64,
    group_commits: u64,
    fsyncs: u64,
}

impl Scenario {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_scenario(
    dir: &PathBuf,
    submitters: usize,
    per_submitter: usize,
    workers: usize,
) -> Scenario {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scenario dir");
    let socket = dir.join("verdict.sock");
    let mut cfg = ServerConfig::new(&socket, dir.join("wal"));
    cfg.workers = workers;
    cfg.queue_capacity = submitters * per_submitter + 1;
    let (server, _recovery) = Server::open(cfg).expect("server opens");
    let stop = server.stop_flag();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));

    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..submitters {
        let socket = socket.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&socket, Duration::from_secs(10))
                .expect("submitter connects");
            let spec = JobSpec::check(TINY);
            let mut acks = Vec::with_capacity(per_submitter);
            let mut jobs = Vec::with_capacity(per_submitter);
            for _ in 0..per_submitter {
                let t0 = Instant::now();
                jobs.push(client.submit(&spec).expect("submit admitted"));
                acks.push(t0.elapsed());
            }
            for job in jobs {
                match client.wait(job, |_| {}) {
                    Ok(out) => assert_eq!(out.state, "done"),
                    // Past the daemon's window of retained jobs a finished
                    // job answers `evicted`; nothing here cancels, so it
                    // finished done.
                    Err(ClientError::Rejected(r)) if r.reason == "evicted" => {}
                    Err(e) => panic!("job {job} did not complete: {e}"),
                }
            }
            acks
        }));
    }
    let mut acks: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    let wall = started.elapsed();
    acks.sort_unstable();

    stop.store(true, Ordering::Release);
    let report = runner.join().expect("runner joins");
    let _ = std::fs::remove_dir_all(dir);
    Scenario {
        submitters,
        jobs: submitters * per_submitter,
        wall,
        ack_p50: percentile(&acks, 0.50),
        ack_p99: percentile(&acks, 0.99),
        appends: report.wal.appends,
        group_commits: report.wal.group_commits,
        fsyncs: report.wal.fsyncs,
    }
}

fn scenario_json(s: &Scenario) -> String {
    format!(
        "{{\"submitters\": {}, \"jobs\": {}, \"wall_secs\": {:.6}, \
         \"jobs_per_sec\": {:.1}, \"ack_p50_us\": {:.1}, \"ack_p99_us\": {:.1}, \
         \"wal_appends\": {}, \"wal_group_commits\": {}, \"wal_fsyncs\": {}}}",
        s.submitters,
        s.jobs,
        s.wall.as_secs_f64(),
        s.jobs_per_sec(),
        s.ack_p50.as_secs_f64() * 1e6,
        s.ack_p99.as_secs_f64() * 1e6,
        s.appends,
        s.group_commits,
        s.fsyncs,
    )
}

fn main() {
    let workers: usize = flag_value("--jobs")
        .and_then(|j| j.parse().ok())
        .unwrap_or(4);
    let submitters: usize = flag_value("--submitters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .max(4); // the acceptance claim is about ≥ 4 concurrent submitters
    let per_submitter: usize = flag_value("--per-submitter")
        .and_then(|n| n.parse().ok())
        .unwrap_or(100);
    let out: PathBuf = flag_value("--out").map_or_else(
        || {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_server.json"
            ))
        },
        PathBuf::from,
    );
    let cores = sample_cores();
    let dir = std::env::temp_dir().join(format!("verdict-bench-server-{}", std::process::id()));

    println!(
        "verdict-server benchmark ({workers} worker(s), 1 vs {submitters} submitter(s), \
         {per_submitter} jobs each, {cores} core(s))\n"
    );

    let solo = run_scenario(&dir, 1, per_submitter, workers);
    let fleet = run_scenario(&dir, submitters, per_submitter, workers);
    for s in [&solo, &fleet] {
        println!(
            "  {} submitter(s): {:>7.1} jobs/sec, ack p50 {:.0}µs p99 {:.0}µs, \
             {} appends in {} group commits ({} fsyncs)",
            s.submitters,
            s.jobs_per_sec(),
            s.ack_p50.as_secs_f64() * 1e6,
            s.ack_p99.as_secs_f64() * 1e6,
            s.appends,
            s.group_commits,
            s.fsyncs,
        );
    }

    // The acceptance claim: concurrent submitters share fsyncs.
    assert!(
        fleet.fsyncs < fleet.appends,
        "group commit must amortize fsyncs under {} submitters: {} fsyncs for {} appends",
        fleet.submitters,
        fleet.fsyncs,
        fleet.appends
    );
    let amortization = fleet.appends as f64 / fleet.fsyncs.max(1) as f64;
    println!(
        "\ngroup-commit amortization at {} submitters: {amortization:.2} appends/fsync",
        fleet.submitters
    );

    // Re-sample after the measured runs: if the host lost cores mid-run
    // the degraded flag must reflect the worst budget observed.
    let host = host_provenance_json(cores.min(sample_cores()), workers.max(submitters), 1);
    let json = format!(
        "{{\n  \"host\": {host},\n  \"workers\": {workers},\n  \
         \"solo\": {},\n  \"fleet\": {},\n  \
         \"fleet_appends_per_fsync\": {amortization:.3}\n}}\n",
        scenario_json(&solo),
        scenario_json(&fleet),
    );
    std::fs::write(&out, json).expect("write BENCH_server.json");
    println!("wrote {}", out.display());
}
