//! In-process daemon tests: admission control, cancellation, drain, and
//! crash-recovery semantics — everything short of actually SIGKILLing a
//! process (the CLI integration test covers that).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use verdict_server::{
    Client, ClientError, JobSpec, RecoveryReport, Server, ServerConfig, RETAINED_JOBS,
};

/// A model every engine decides instantly.
const TINY: &str = "\
system tiny {
    var n : 0..7;
    init n = 0;
    trans next(n) = if n < 7 then n + 1 else n;
    invariant in_range: n <= 7;
}
";

/// A model the explicit engine grinds on for >30s (it rescans the full
/// domain per visited state), but abandons within ~10ms on a cancel or
/// deadline — calibrated so tests never hang on a missed stop flag.
const SLOW: &str = "\
system slow {
    var n : 0..20000;
    init n = 0;
    trans next(n) = if n < 20000 then n + 1 else n;
    invariant nonneg: n >= 0;
}
";

struct TestServer {
    socket: PathBuf,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    runner: Option<std::thread::JoinHandle<verdict_server::DrainReport>>,
    _dir: Option<tempdir::TempDir>,
}

impl TestServer {
    /// Starts a daemon on fresh socket/WAL paths inside a tempdir.
    fn start(configure: impl FnOnce(&mut ServerConfig)) -> TestServer {
        let dir = tempdir::TempDir::new();
        let (mut server, _recovery) = TestServer::open(&dir.path, "verdict.sock", configure);
        server._dir = Some(dir);
        server
    }

    /// Starts a daemon on socket `socket` in `dir`, over the WAL in
    /// `dir/wal` that an earlier daemon may have left.
    fn open(
        dir: &Path,
        socket: &str,
        configure: impl FnOnce(&mut ServerConfig),
    ) -> (TestServer, RecoveryReport) {
        let socket = dir.join(socket);
        let mut cfg = ServerConfig::new(&socket, dir.join("wal"));
        cfg.workers = 1;
        cfg.grace = Duration::from_secs(2);
        configure(&mut cfg);
        let (server, recovery) = Server::open(cfg).expect("server opens");
        let stop = server.stop_flag();
        let runner = std::thread::spawn(move || server.run().expect("server runs"));
        let server = TestServer {
            socket,
            stop,
            runner: Some(runner),
            _dir: None,
        };
        (server, recovery)
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.socket, Duration::from_secs(5)).expect("client connects")
    }

    fn finish(mut self) -> verdict_server::DrainReport {
        self.stop.store(true, Ordering::Release);
        self.runner.take().unwrap().join().expect("runner joins")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(r) = self.runner.take() {
            let _ = r.join();
        }
    }
}

/// Minimal self-cleaning tempdir (no external crates allowed).
mod tempdir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct TempDir {
        pub path: PathBuf,
    }

    impl TempDir {
        pub fn new() -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "verdict-daemon-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir { path }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn wait_until_running(client: &mut Client, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = client.status(job).expect("status");
        if s.state == "running" {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {job} never started running (state {})",
            s.state
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn check_job_round_trip_with_events() {
    let server = TestServer::start(|_| {});
    let mut client = server.client();
    client.ping().expect("ping");

    let job = client.submit(&JobSpec::check(TINY)).expect("submit");
    let mut events = Vec::new();
    let outcome = client.wait(job, |ev| events.push(ev.to_string())).unwrap();
    assert_eq!(outcome.state, "done");
    assert!(!outcome.recovered);
    assert_eq!(outcome.verdicts.len(), 1);
    assert_eq!(outcome.verdicts[0].name, "in_range");
    assert_eq!(outcome.verdicts[0].verdict, "safe");
    // The stream carries PR-5 trace JSONL: span/depth events with the
    // engine tag.
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"kind\"") && e.contains("\"engine\"")),
        "no trace events streamed: {events:?}"
    );

    let stats = client.stats().expect("stats");
    let server_group = stats
        .get("server")
        .cloned()
        .expect("stats has a server counter group");
    assert_eq!(
        server_group
            .get("jobs_completed")
            .and_then(verdict_journal::json::Json::as_int),
        Some(1)
    );
    assert!(
        server_group
            .get("wal_fsyncs")
            .and_then(verdict_journal::json::Json::as_int)
            .unwrap_or(0)
            > 0
    );

    let report = server.finish();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.jobs_abandoned, 0);
}

#[test]
fn bad_jobs_rejected_before_journaling() {
    let server = TestServer::start(|_| {});
    let mut client = server.client();

    let reason = |r: Result<u64, ClientError>| match r {
        Err(ClientError::Rejected(rej)) => rej.reason,
        other => panic!("expected rejection, got {other:?}"),
    };
    assert_eq!(
        reason(client.submit(&JobSpec::check("not a model"))),
        "parse-error"
    );
    let mut spec = JobSpec::check(TINY);
    spec.engine = "warp-drive".into();
    assert_eq!(reason(client.submit(&spec)), "bad-request");
    let mut spec = JobSpec::check(TINY);
    spec.prop = Some("no_such_prop".into());
    assert_eq!(reason(client.submit(&spec)), "bad-request");
    assert_eq!(
        reason(client.submit(&JobSpec::synth(TINY, &["ghost"]))),
        "bad-request"
    );

    // Nothing was journaled, so nothing recovers.
    let stats = client.stats().expect("stats");
    let rejected = stats
        .get("server")
        .and_then(|s| s.get("jobs_rejected"))
        .and_then(verdict_journal::json::Json::as_int);
    assert_eq!(rejected, Some(4));
    server.finish();
}

#[test]
fn full_queue_rejects_with_structured_reason() {
    let server = TestServer::start(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 2;
    });
    let mut client = server.client();

    // Occupy the single worker so later submits stay queued.
    let mut slow = JobSpec::check(SLOW);
    slow.engine = "explicit".into();
    slow.deadline_ms = Some(60_000);
    let blocker = client.submit(&slow).expect("blocker admitted");
    wait_until_running(&mut client, blocker);

    let a = client.submit(&JobSpec::check(TINY)).expect("fits");
    let _b = client.submit(&JobSpec::check(TINY)).expect("fits");
    match client.submit(&JobSpec::check(TINY)) {
        Err(ClientError::Rejected(rej)) => {
            assert_eq!(rej.reason, "queue-full");
            assert_eq!(rej.queued, Some(2));
            assert_eq!(rej.capacity, Some(2));
        }
        other => panic!("expected queue-full, got {other:?}"),
    }

    // Cancel the blocker; the queued jobs then complete normally.
    client.cancel(blocker).expect("cancel");
    let outcome = client.wait(blocker, |_| {}).expect("wait blocker");
    assert_eq!(outcome.state, "cancelled");
    let outcome = client.wait(a, |_| {}).expect("wait queued");
    assert_eq!(outcome.state, "done");
    assert_eq!(outcome.verdicts[0].verdict, "safe");
    server.finish();
}

#[test]
fn cancel_running_job_is_prompt_and_durable() {
    let server = TestServer::start(|_| {});
    let mut client = server.client();
    let mut slow = JobSpec::check(SLOW);
    slow.engine = "explicit".into();
    slow.deadline_ms = Some(60_000);
    let job = client.submit(&slow).expect("submit");
    wait_until_running(&mut client, job);

    let started = Instant::now();
    client.cancel(job).expect("cancel");
    let outcome = client.wait(job, |_| {}).expect("wait");
    assert_eq!(outcome.state, "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation took {:?}",
        started.elapsed()
    );
    server.finish();
}

#[test]
fn deadline_expires_to_unknown_timeout() {
    let server = TestServer::start(|_| {});
    let mut client = server.client();
    let mut slow = JobSpec::check(SLOW);
    slow.engine = "explicit".into();
    slow.deadline_ms = Some(300);
    let job = client.submit(&slow).expect("submit");
    let outcome = client.wait(job, |_| {}).expect("wait");
    assert_eq!(outcome.state, "done");
    assert_eq!(outcome.verdicts[0].verdict, "unknown");
    assert_eq!(outcome.verdicts[0].reason.as_deref(), Some("timeout"));
    server.finish();
}

#[test]
fn shutdown_drains_and_rejects_new_submits() {
    let server = TestServer::start(|cfg| {
        cfg.grace = Duration::from_secs(5);
    });
    let mut client = server.client();
    let mut slow = JobSpec::check(SLOW);
    slow.engine = "explicit".into();
    slow.deadline_ms = Some(60_000);
    let job = client.submit(&slow).expect("submit");
    wait_until_running(&mut client, job);

    client.shutdown().expect("shutdown acked");
    match client.submit(&JobSpec::check(TINY)) {
        Err(ClientError::Rejected(rej)) => assert_eq!(rej.reason, "draining"),
        other => panic!("expected draining rejection, got {other:?}"),
    }
    let report = server.finish();
    // The running job was stopped by the drain, not completed.
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(report.jobs_abandoned, 1);
}

#[test]
fn restart_trusts_decided_verdicts_and_reruns_the_rest() {
    let dir = tempdir::TempDir::new();
    let wal_dir = dir.path.join("wal");
    let socket_a = dir.path.join("a.sock");
    let socket_b = dir.path.join("b.sock");

    // Life 1: complete one decided job, leave one cancelled-by-drain.
    let (decided_job, decided_rows) = {
        let mut cfg = ServerConfig::new(&socket_a, &wal_dir);
        cfg.workers = 1;
        cfg.grace = Duration::from_millis(200);
        let (server, recovery) = Server::open(cfg).expect("open");
        assert_eq!(recovery.jobs_requeued + recovery.jobs_trusted, 0);
        let stop = server.stop_flag();
        let runner = std::thread::spawn(move || server.run().unwrap());
        let mut client =
            Client::connect_with_retry(&socket_a, Duration::from_secs(5)).expect("connect");
        let done = client.submit(&JobSpec::check(TINY)).expect("submit");
        let outcome = client.wait(done, |_| {}).expect("wait");
        assert_eq!(outcome.state, "done");
        let mut slow = JobSpec::check(SLOW);
        slow.engine = "explicit".into();
        slow.deadline_ms = Some(60_000);
        let interrupted = client.submit(&slow).expect("submit slow");
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.status(interrupted).unwrap().state != "running" {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Release);
        runner.join().unwrap();
        (done, outcome.verdicts)
    };

    // Life 2: decided verdicts come back as recovered, the interrupted
    // job re-enters the queue and runs again.
    let mut cfg = ServerConfig::new(&socket_b, &wal_dir);
    cfg.workers = 1;
    cfg.grace = Duration::from_millis(200);
    let (server, recovery) = Server::open(cfg).expect("reopen");
    assert_eq!(recovery.jobs_trusted, 1);
    assert_eq!(recovery.jobs_requeued, 1);
    let stop = server.stop_flag();
    let runner = std::thread::spawn(move || server.run().unwrap());
    let mut client =
        Client::connect_with_retry(&socket_b, Duration::from_secs(5)).expect("connect");
    let outcome = client.status(decided_job).expect("status");
    assert_eq!(outcome.state, "done");
    assert!(outcome.recovered, "decided job must be trusted, not re-run");
    assert_eq!(outcome.verdicts, decided_rows);
    // The re-queued job is present and either queued/running again or
    // already finished — but never falsely "done with decided rows".
    let requeued = client.status(decided_job + 1).expect("status requeued");
    assert!(!requeued.recovered || requeued.state != "done");
    stop.store(true, Ordering::Release);
    runner.join().unwrap();
}

#[test]
fn cancel_survives_restart() {
    let dir = tempdir::TempDir::new();
    let wal_dir = dir.path.join("wal");
    let socket_a = dir.path.join("a.sock");
    let socket_b = dir.path.join("b.sock");

    let job = {
        let mut cfg = ServerConfig::new(&socket_a, &wal_dir);
        cfg.workers = 1;
        cfg.grace = Duration::from_millis(200);
        let (server, _) = Server::open(cfg).expect("open");
        let stop = server.stop_flag();
        let runner = std::thread::spawn(move || server.run().unwrap());
        let mut client =
            Client::connect_with_retry(&socket_a, Duration::from_secs(5)).expect("connect");
        let mut slow = JobSpec::check(SLOW);
        slow.engine = "explicit".into();
        slow.deadline_ms = Some(60_000);
        let job = client.submit(&slow).expect("submit");
        client.cancel(job).expect("cancel");
        let outcome = client.wait(job, |_| {}).expect("wait");
        assert_eq!(outcome.state, "cancelled");
        stop.store(true, Ordering::Release);
        runner.join().unwrap();
        job
    };

    let mut cfg = ServerConfig::new(&socket_b, &wal_dir);
    cfg.workers = 1;
    let (server, recovery) = Server::open(cfg).expect("reopen");
    assert_eq!(recovery.jobs_cancelled, 1);
    assert_eq!(recovery.jobs_requeued, 0);
    let stop = server.stop_flag();
    let runner = std::thread::spawn(move || server.run().unwrap());
    let mut client =
        Client::connect_with_retry(&socket_b, Duration::from_secs(5)).expect("connect");
    let outcome = client.status(job).expect("status");
    assert_eq!(outcome.state, "cancelled");
    stop.store(true, Ordering::Release);
    runner.join().unwrap();
}

#[test]
fn wait_wakes_for_a_job_that_finished_while_the_handler_was_writing() {
    let server = TestServer::start(|_| {});
    let mut client = server.client();
    // 9,003 trace events, about 700 KB: more than a Unix socket buffers.
    let mut spec = JobSpec::check(TINY);
    spec.engine = "bmc".into();
    spec.depth = Some(3000);
    let job = client.submit(&spec).expect("submit");
    // Stop reading at the first event, so the handler blocks writing its
    // backlog while the job runs to the end.
    let mut stamps: Vec<Instant> = Vec::new();
    let outcome = client
        .wait(job, |_| {
            if stamps.is_empty() {
                std::thread::sleep(Duration::from_millis(1500));
            }
            stamps.push(Instant::now());
        })
        .expect("wait");
    stamps.push(Instant::now());
    assert_eq!(outcome.state, "done");
    assert_eq!(outcome.verdicts[0].reason.as_deref(), Some("depth-bound"));
    assert!(stamps.len() > 9000, "{} events streamed", stamps.len() - 1);
    let (at, gap) = stamps
        .windows(2)
        .map(|w| w[1] - w[0])
        .enumerate()
        .max_by_key(|&(_, gap)| gap)
        .expect("events streamed");
    assert!(
        gap < Duration::from_millis(50),
        "the stream stalled {gap:?} after event {} of {}",
        at + 1,
        stamps.len() - 1
    );
    server.finish();
}

/// The reason of a rejected request.
fn rejection<T: std::fmt::Debug>(r: Result<T, ClientError>) -> String {
    match r {
        Err(ClientError::Rejected(rej)) => rej.reason,
        other => panic!("expected a rejection, got {other:?}"),
    }
}

#[test]
fn finished_jobs_past_the_retention_bound_are_evicted_across_a_restart() {
    let dir = tempdir::TempDir::new();
    let configure = |cfg: &mut ServerConfig| cfg.queue_capacity = 2048;
    let (server, _) = TestServer::open(&dir.path, "a.sock", configure);
    let mut client = server.client();

    // The oldest job carries an idempotency key and finishes first.
    let mut keyed = JobSpec::check(TINY);
    keyed.idem = Some("retention-oldest".into());
    let oldest = client.submit(&keyed).expect("submit");
    assert_eq!(client.wait(oldest, |_| {}).expect("wait").state, "done");
    // The rest come from four clients, each waiting for its job before
    // it submits the next, so no client waits for an evicted job.
    let left = AtomicUsize::new(RETAINED_JOBS + 7);
    let newest = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut client = server.client();
                    let mut newest = 0;
                    while left
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        let job = client.submit(&JobSpec::check(TINY)).expect("submit");
                        assert_eq!(client.wait(job, |_| {}).expect("wait").state, "done");
                        newest = newest.max(job);
                    }
                    newest
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .max()
            .unwrap()
    });
    assert_eq!(newest, oldest + RETAINED_JOBS as u64 + 7);

    assert_eq!(rejection(client.status(oldest)), "evicted");
    assert_eq!(rejection(client.wait(oldest, |_| {})), "evicted");
    assert_eq!(client.status(newest).expect("status").state, "done");
    client
        .cancel(oldest)
        .expect("cancelling an evicted job is a no-op");
    assert_eq!(rejection(client.status(newest + 1000)), "bad-request");
    // The evicted job's key left the dedup map with it.
    let again = client.submit(&keyed).expect("resubmit");
    assert!(again > newest, "the key still named job {again}");
    assert_eq!(client.wait(again, |_| {}).expect("wait").state, "done");
    server.finish();

    // A restart on the same WAL trusts every job and retains the same
    // window.
    let (server, recovery) = TestServer::open(&dir.path, "b.sock", configure);
    assert_eq!(recovery.jobs_trusted, RETAINED_JOBS as u64 + 9);
    let mut client = server.client();
    let status = client.status(newest).expect("status");
    assert_eq!(status.state, "done");
    assert!(status.recovered);
    assert_eq!(rejection(client.status(oldest)), "evicted");
    server.finish();
}

#[test]
fn stale_socket_is_reclaimed_but_live_daemon_is_not() {
    let dir = tempdir::TempDir::new();
    let socket = dir.path.join("verdict.sock");

    // A dead daemon's leftover socket file must not block restart.
    std::fs::write(&socket, b"").unwrap();
    let mut cfg = ServerConfig::new(&socket, dir.path.join("wal"));
    cfg.workers = 1;
    let (server, _) = Server::open(cfg.clone()).expect("stale socket reclaimed");
    let stop = server.stop_flag();
    let runner = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect_with_retry(&socket, Duration::from_secs(5)).expect("connect");
    client.ping().expect("ping");

    // A live daemon must not be usurped.
    cfg.wal_dir = dir.path.join("wal2");
    match Server::open(cfg) {
        Err(verdict_server::ServerError::SocketBusy(_)) => {}
        other => panic!("expected SocketBusy, got {other:?}"),
    }
    stop.store(true, Ordering::Release);
    runner.join().unwrap();
}
