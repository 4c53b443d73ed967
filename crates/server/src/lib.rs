//! Verdict-as-a-service: a crash-safe, self-healing verification daemon.
//!
//! The paper pitches verification as *infrastructure* — a standing
//! service operators query continuously, not a one-shot CLI. This crate
//! is that daemon. It accepts `check`/`synth` jobs over a local
//! Unix-socket JSONL API ([`proto`]), schedules them across a bounded
//! worker fleet, and streams per-job progress using the `--trace` JSONL
//! event format as the wire format.
//!
//! The robustness surface is the point:
//!
//! * **Durability.** Every admitted job is written to a group-commit
//!   write-ahead log ([`verdict_journal::wal`]) *before* the submit is
//!   acknowledged — an acked job survives `SIGKILL` at any byte
//!   boundary. Completion writes a `done` record with the full verdict
//!   map; on restart, decided verdicts are trusted (the PR-4 re-gating
//!   policy — the WAL pins the exact model source, so a `done` record
//!   provably describes the same input) and everything else re-runs.
//! * **Admission control.** The queue is bounded. A full queue, a
//!   draining server, an unparseable model, or a quarantined spec
//!   rejects with a structured reason ([`proto::Rejection`]) — never
//!   unbounded growth, never a silent hang.
//! * **Supervision.** A watchdog thread reads per-worker heartbeats
//!   (stamped by the engines' budget polls) and per-job deadlines. A
//!   job past `deadline + watchdog_grace` — or a worker whose heartbeat
//!   has gone stale — is escalated through a ladder: cooperative stop
//!   flag, then solver poisoning (the next budget poll returns
//!   `Unknown(HungWorker)`), then thread abandonment with a fresh
//!   worker respawned into the slot. The hung job's honest
//!   `unknown/hung-worker` verdict is journaled; the service keeps its
//!   full fleet.
//! * **Hedged re-execution.** A job running well past its spec's
//!   historical p99 gets a speculative second run on a spare worker
//!   with a different engine; the first finished verdict wins and the
//!   loser is cancelled. Hedging never changes verdicts — an undecided
//!   hedge result defers to a still-live primary.
//! * **Crash-loop quarantine.** A spec fingerprint that crashes or
//!   hangs workers N times consecutively is circuit-broken: further
//!   submits reject with `quarantined` (carrying the fingerprint and a
//!   TTL) instead of wedging the fleet again. The `unquarantine` op
//!   lifts it early; quarantine state is journaled and survives
//!   restart.
//! * **Deadlines and cancellation.** Per-job wall-clock deadlines count
//!   from *admission* (queue wait is charged), and `cancel` routes into
//!   the engines' cooperative stop-flag plumbing; a cancel is journaled
//!   so it survives restart too.
//! * **Graceful drain.** SIGTERM/SIGINT (or the `shutdown` op) stops
//!   admission, lets running jobs finish within a grace period, then
//!   raises their stop flags; a worker that ignores the flag is
//!   escalated by the watchdog rather than stalling the exit. Queued
//!   and wedged jobs are already journaled and re-run on the next
//!   start. The daemon exits 0.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use verdict_journal::json::Json;
use verdict_journal::wal::{Wal, WalError, WalOptions, WalRecovery, WriterPool};
use verdict_mc::{
    ServerCounters, Stats, Supervision, SupervisionCounters, TraceSink, UnknownReason,
};
use verdict_ring::Heartbeat;

mod client;
pub mod proto;

pub use client::{Client, ClientError, JobOutcome};
pub use proto::{JobKind, JobSpec, Rejection, Request, VerdictRow};

/// Finished jobs the daemon keeps answering `status` and `wait` for.
/// Jobs join a FIFO in the order they finish (done, or cancelled by a
/// client); once it holds more than this many, the oldest leaves the
/// job table and its idempotency key leaves the dedup map, and asking
/// for it gets an `evicted` rejection. Counted in jobs, not trace bytes.
pub const RETAINED_JOBS: usize = 1024;

/// How the daemon is wired: socket path, WAL directory, fleet size,
/// admission-queue capacity, and the supervision knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Directory for the write-ahead log's segment files.
    pub wal_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum jobs waiting in the admission queue; submits beyond this
    /// are rejected with `queue-full`.
    pub queue_capacity: usize,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// How long a drain waits for running jobs before raising their
    /// stop flags.
    pub grace: Duration,
    /// Watchdog patience: a job is hung once it runs past
    /// `deadline + watchdog_grace`, and each escalation step (stop →
    /// poison → abandon) waits this long before the next.
    pub watchdog_grace: Duration,
    /// A worker whose heartbeat hasn't advanced for this long is
    /// treated as hung even without a deadline. Generous by default:
    /// solver inner loops poll stop flags without stamping heartbeats,
    /// so staleness is the backstop, deadline overrun the primary
    /// detector.
    pub heartbeat_timeout: Duration,
    /// Base hedging threshold: a job running longer than this (or than
    /// twice its spec's observed p99, once enough history exists) gets
    /// a speculative second run on a spare worker. `None` disables
    /// hedging.
    pub hedge_after: Option<Duration>,
    /// Consecutive crashes/hangs of one spec fingerprint before it is
    /// quarantined. `0` disables the circuit breaker.
    pub quarantine_after: u32,
    /// How long a quarantine holds before submits are admitted again.
    pub quarantine_ttl: Duration,
}

impl ServerConfig {
    /// A config with defaults for everything but the two paths.
    pub fn new(socket: impl Into<PathBuf>, wal_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            wal_dir: wal_dir.into(),
            workers: 2,
            queue_capacity: 64,
            segment_bytes: 4 << 20,
            grace: Duration::from_secs(10),
            watchdog_grace: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(120),
            hedge_after: Some(Duration::from_secs(2)),
            quarantine_after: 3,
            quarantine_ttl: Duration::from_secs(300),
        }
    }
}

/// Errors from opening or running the daemon.
#[derive(Debug)]
pub enum ServerError {
    /// Underlying socket/filesystem failure.
    Io(io::Error),
    /// The write-ahead log failed.
    Wal(WalError),
    /// Another live daemon already owns the socket.
    SocketBusy(PathBuf),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Wal(e) => write!(f, "server wal error: {e}"),
            ServerError::SocketBusy(p) => write!(
                f,
                "another daemon is already serving on {} (connect to it, or stop it first)",
                p.display()
            ),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> ServerError {
        ServerError::Wal(e)
    }
}

/// What [`Server::open`] recovered from the WAL.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// WAL scan details (segments, torn-tail truncation).
    pub wal: WalRecovery,
    /// Jobs re-enqueued because they were admitted but not finished (or
    /// finished with undecided verdicts).
    pub jobs_requeued: u64,
    /// Jobs whose decided verdict maps were trusted and re-reported.
    pub jobs_trusted: u64,
    /// Jobs that were durably cancelled.
    pub jobs_cancelled: u64,
}

/// What a completed drain looked like.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Jobs that finished during this server's lifetime.
    pub jobs_completed: u64,
    /// Jobs still queued or stopped mid-run at exit; all are journaled
    /// and re-run on the next start.
    pub jobs_abandoned: u64,
    /// Final WAL counters.
    pub wal: verdict_journal::wal::WalStats,
}

/// Job lifecycle phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Cancelled,
}

impl JobPhase {
    fn tag(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    fn finished(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled)
    }
}

/// Mutable job state, guarded by the job's mutex.
struct JobState {
    phase: JobPhase,
    /// PR-5 trace JSONL lines, appended live while the job runs.
    events: Vec<String>,
    verdicts: Vec<VerdictRow>,
    /// True when the verdicts were recovered from the WAL, not computed
    /// by this process.
    recovered: bool,
}

/// One job: immutable spec plus guarded state. A job can have several
/// executions alive at once (primary plus hedge, or a zombie plus its
/// replacement), so stop flags live per-execution and are collected
/// here for cancel/drain to raise; `finalized` is the swap-once gate
/// ensuring exactly one execution's outcome is journaled.
struct Job {
    id: u64,
    spec: JobSpec,
    /// Spec fingerprint ([`JobSpec::fingerprint`]) — quarantine and
    /// hedge-latency key.
    fp: u64,
    /// Stop flags of every execution ever started for this job.
    stops: Mutex<Vec<Arc<AtomicBool>>>,
    /// Set by the `cancel` op (as opposed to a drain or the watchdog
    /// raising stop flags).
    cancel_requested: AtomicBool,
    /// Swap-once outcome gate: the execution (or watchdog) that flips
    /// this owns the WAL `done` record and the terminal phase.
    finalized: AtomicBool,
    /// Set once a hedge has been launched — at most one per job.
    hedged: AtomicBool,
    /// Set once the job has joined the retention FIFO.
    retained: AtomicBool,
    /// When the job entered the queue; deadlines count from here.
    enqueued_at: Mutex<Instant>,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Arc<Job> {
        let fp = spec.fingerprint();
        Arc::new(Job {
            id,
            spec,
            fp,
            stops: Mutex::new(Vec::new()),
            cancel_requested: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            hedged: AtomicBool::new(false),
            retained: AtomicBool::new(false),
            enqueued_at: Mutex::new(Instant::now()),
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                events: Vec::new(),
                verdicts: Vec::new(),
                recovered: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn set_phase(&self, phase: JobPhase, verdicts: Vec<VerdictRow>, recovered: bool) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.phase = phase;
        g.verdicts = verdicts;
        g.recovered = recovered;
        self.cv.notify_all();
    }

    /// Raises the stop flag of every execution of this job.
    fn raise_stops(&self) {
        let stops = self.stops.lock().unwrap_or_else(|e| e.into_inner());
        for s in stops.iter() {
            s.store(true, Ordering::Release);
        }
    }

    /// The job's absolute deadline, if the spec set one. Counted from
    /// admission: queue wait is charged against it.
    fn deadline(&self) -> Option<Instant> {
        let enq = *self.enqueued_at.lock().unwrap_or_else(|e| e.into_inner());
        self.spec
            .deadline_ms
            .map(|ms| enq + Duration::from_millis(ms))
    }
}

/// A worker slot: a stable index in the fleet whose thread can be
/// replaced. The heartbeat cell is shared with whatever execution the
/// slot's thread is running (stamped on every engine budget poll); the
/// generation bumps when the watchdog abandons the thread, telling the
/// old thread — should it ever wake — that it has been replaced.
struct Slot {
    heartbeat: Arc<Heartbeat>,
    generation: AtomicU64,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// One attempt at running a job: the primary worker run, a hedge, or a
/// respawned retry all get their own `Execution` with their own stop
/// flag and supervision handle. The watchdog walks these.
struct Execution {
    job: Arc<Job>,
    /// The worker slot running this, or `None` for a hedge thread.
    slot: Option<usize>,
    /// Engine tag overriding the spec's (hedges run a different engine).
    engine_override: Option<String>,
    is_hedge: bool,
    stop: Arc<AtomicBool>,
    sup: Arc<Supervision>,
    started: Instant,
    /// Absolute deadline (admission time + `deadline_ms`), if any.
    deadline: Option<Instant>,
    /// Watchdog escalation ladder position: 0 = healthy, 1 = stop flag
    /// raised, 2 = poisoned, 3 = abandoned.
    escalation: AtomicU8,
    escalated_at: Mutex<Instant>,
    /// Last heartbeat count the watchdog observed, and when it last
    /// changed — staleness detection by *change*, not by absolute rate.
    last_beat: AtomicU64,
    last_beat_change: Mutex<Instant>,
    /// Set when the watchdog gave up on this execution's thread.
    abandoned: AtomicBool,
    /// Set exactly once when the execution is finished with (normally
    /// or by abandonment); retiring decrements the running count.
    retired: AtomicBool,
}

impl Execution {
    fn new(
        job: Arc<Job>,
        slot: Option<usize>,
        heartbeat: Arc<Heartbeat>,
        engine_override: Option<String>,
        is_hedge: bool,
    ) -> Arc<Execution> {
        let now = Instant::now();
        let deadline = job.deadline();
        let stop = Arc::new(AtomicBool::new(false));
        job.stops
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&stop));
        let hb0 = heartbeat.count();
        Arc::new(Execution {
            job,
            slot,
            engine_override,
            is_hedge,
            stop,
            sup: Arc::new(Supervision::new(heartbeat)),
            started: now,
            deadline,
            escalation: AtomicU8::new(0),
            escalated_at: Mutex::new(now),
            last_beat: AtomicU64::new(hb0),
            last_beat_change: Mutex::new(now),
            abandoned: AtomicBool::new(false),
            retired: AtomicBool::new(false),
        })
    }
}

/// Everything the supervisor thread walks: the worker slots, the live
/// execution list, and the thread handles it has given up on.
struct SupervisorState {
    slots: Vec<Arc<Slot>>,
    runs: Mutex<Vec<Arc<Execution>>>,
    /// Handles of abandoned worker threads — joined at drain if they
    /// ever finish, detached otherwise.
    orphans: Mutex<Vec<JoinHandle<()>>>,
    hedge_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// One quarantine-table entry, keyed by spec fingerprint.
#[derive(Clone, Debug, Default)]
struct QEntry {
    /// Consecutive crash/hang completions; a success resets it.
    consecutive: u32,
    /// Armed quarantine: submits reject until this instant.
    until: Option<Instant>,
    /// What the last failure looked like, echoed in rejections.
    detail: String,
}

/// The jobs the daemon answers for: every queued, running or
/// drain-stopped job, and the last [`RETAINED_JOBS`] finished ones.
#[derive(Default)]
struct JobTable {
    jobs: HashMap<u64, Arc<Job>>,
    /// Ids of the retained finished jobs, in the order they finished.
    finished: VecDeque<u64>,
}

/// State shared by the accept loop, connection handlers, workers, and
/// the supervisor.
struct Inner {
    cfg: ServerConfig,
    wal: Wal,
    pool: WriterPool,
    jobs: Mutex<JobTable>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    /// Jobs queued or mid-admission — the bounded-queue occupancy count.
    admitted: AtomicU64,
    running: AtomicU64,
    next_job: AtomicU64,
    /// Set on SIGTERM/SIGINT/`shutdown`: stop admitting, begin drain.
    stop: Arc<AtomicBool>,
    /// Set once drain is complete: connection handlers exit.
    terminating: AtomicBool,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    recovered: AtomicU64,
    /// Aggregate engine stats across every job this process ran.
    engine_stats: Mutex<Stats>,
    sup: SupervisorState,
    /// Circuit breaker: spec fingerprint → consecutive-failure entry.
    quarantine: Mutex<HashMap<u64, QEntry>>,
    /// Completion-latency sketch (ms, newest-last, capped) per spec
    /// fingerprint — feeds the p99-derived hedge threshold.
    sketch: Mutex<HashMap<u64, Vec<u64>>>,
    /// Idempotency-key → job-id dedup map.
    idem: Mutex<HashMap<String, u64>>,
    escalations: AtomicU64,
    hung_workers: AtomicU64,
    workers_respawned: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    hedges_lost: AtomicU64,
    hedges_wasted: AtomicU64,
    quarantine_hits: AtomicU64,
    quarantined: AtomicU64,
}

impl Inner {
    /// The job `id` names, or why there is none: `evicted` for an id
    /// this daemon issued whose job has left the retained window,
    /// `bad-request` for one it never issued.
    fn lookup(&self, id: u64) -> Result<Arc<Job>, Rejection> {
        let table = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(job) = table.jobs.get(&id) {
            return Ok(Arc::clone(job));
        }
        if (1..self.next_job.load(Ordering::Acquire)).contains(&id) {
            Err(Rejection::new("evicted").with_detail(format!(
                "job {id} is no longer held: the daemon keeps the last {RETAINED_JOBS} finished jobs"
            )))
        } else {
            Err(Rejection::new("bad-request").with_detail(format!("no job {id}")))
        }
    }

    /// Moves a job to its terminal phase and wakes its waiters. A job
    /// that is done, or that a client cancelled, is retained; one a
    /// drain stopped stays in the table unretained, to be counted
    /// abandoned and re-run on the next start.
    fn finish(&self, job: &Arc<Job>, phase: JobPhase, rows: Vec<VerdictRow>, recovered: bool) {
        job.set_phase(phase, rows, recovered);
        if phase == JobPhase::Done || job.cancel_requested.load(Ordering::Acquire) {
            self.retain(job);
        }
    }

    /// Enters a finished job into the retention FIFO, once, and evicts
    /// the job that finished first if that puts the FIFO over its bound.
    fn retain(&self, job: &Arc<Job>) {
        if job.retained.swap(true, Ordering::AcqRel) {
            return;
        }
        let evicted = {
            let mut table = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            table.finished.push_back(job.id);
            if table.finished.len() <= RETAINED_JOBS {
                return;
            }
            let oldest = table
                .finished
                .pop_front()
                .expect("the FIFO is over its bound");
            table.jobs.remove(&oldest)
        };
        if let Some(old) = evicted {
            if let Some(key) = &old.spec.idem {
                let mut idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
                if idem.get(key) == Some(&old.id) {
                    idem.remove(key);
                }
            }
        }
    }

    fn server_counters(&self) -> ServerCounters {
        let wal = self.wal.stats();
        ServerCounters {
            jobs_accepted: self.accepted.load(Ordering::Relaxed),
            jobs_rejected: self.rejected.load(Ordering::Relaxed),
            jobs_queued: self.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            jobs_running: self.running.load(Ordering::Relaxed),
            jobs_completed: self.completed.load(Ordering::Relaxed),
            jobs_recovered: self.recovered.load(Ordering::Relaxed),
            wal_appends: wal.appends,
            wal_group_commits: wal.group_commits,
            wal_fsyncs: wal.fsyncs,
            wal_rotations: wal.rotations,
        }
    }

    fn supervision_counters(&self) -> SupervisionCounters {
        SupervisionCounters {
            heartbeats: self.sup.slots.iter().map(|s| s.heartbeat.count()).sum(),
            escalations: self.escalations.load(Ordering::Relaxed),
            hung_workers: self.hung_workers.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            hedges_lost: self.hedges_lost.load(Ordering::Relaxed),
            hedges_wasted: self.hedges_wasted.load(Ordering::Relaxed),
            quarantine_hits: self.quarantine_hits.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Executions not yet retired — what a drain waits on (hedges included).
fn live_runs(inner: &Inner) -> usize {
    inner
        .sup
        .runs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|r| !r.retired.load(Ordering::Acquire))
        .count()
}

/// The daemon. [`Server::open`] binds the socket and recovers the WAL;
/// [`Server::run`] blocks serving until the stop flag is raised and the
/// drain completes.
pub struct Server {
    inner: Arc<Inner>,
    listener: UnixListener,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.inner.cfg.socket)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Opens the WAL (recovering every acknowledged job and the
    /// quarantine table), binds the socket, and returns the
    /// ready-to-run server plus what recovery found. The socket is
    /// connectable as soon as this returns, even before [`Server::run`]
    /// starts accepting.
    pub fn open(cfg: ServerConfig) -> Result<(Server, RecoveryReport), ServerError> {
        // A leftover socket file from a SIGKILL'd daemon must not block
        // restart — but a *live* daemon must not be usurped.
        if cfg.socket.exists() {
            match UnixStream::connect(&cfg.socket) {
                Ok(_) => return Err(ServerError::SocketBusy(cfg.socket.clone())),
                Err(_) => {
                    let _ = std::fs::remove_file(&cfg.socket);
                }
            }
        }
        let (wal, wal_recovery) = Wal::open(
            &cfg.wal_dir,
            WalOptions {
                segment_bytes: cfg.segment_bytes,
                ..WalOptions::default()
            },
        )?;
        let pool = WriterPool::new(&wal, cfg.workers.max(2));
        let listener = UnixListener::bind(&cfg.socket)?;

        let slots: Vec<Arc<Slot>> = (0..cfg.workers.max(1))
            .map(|_| {
                Arc::new(Slot {
                    heartbeat: Arc::new(Heartbeat::new()),
                    generation: AtomicU64::new(0),
                    handle: Mutex::new(None),
                })
            })
            .collect();

        let inner = Arc::new(Inner {
            cfg,
            wal,
            pool,
            jobs: Mutex::new(JobTable::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            running: AtomicU64::new(0),
            next_job: AtomicU64::new(1),
            stop: Arc::new(AtomicBool::new(false)),
            terminating: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            engine_stats: Mutex::new(Stats::default()),
            sup: SupervisorState {
                slots,
                runs: Mutex::new(Vec::new()),
                orphans: Mutex::new(Vec::new()),
                hedge_handles: Mutex::new(Vec::new()),
            },
            quarantine: Mutex::new(HashMap::new()),
            sketch: Mutex::new(HashMap::new()),
            idem: Mutex::new(HashMap::new()),
            escalations: AtomicU64::new(0),
            hung_workers: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            hedges_lost: AtomicU64::new(0),
            hedges_wasted: AtomicU64::new(0),
            quarantine_hits: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        });

        let mut report = RecoveryReport {
            wal: wal_recovery,
            ..RecoveryReport::default()
        };
        recover_jobs(&inner, &report.wal.records.clone(), &mut report);
        Ok((Server { inner, listener }, report))
    }

    /// The flag that triggers graceful drain — wire SIGTERM/SIGINT to
    /// set it. The `shutdown` op sets the same flag.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.stop)
    }

    /// Serves until the stop flag is raised, then drains: admission
    /// stops, running jobs get `grace` to finish before their stop
    /// flags are raised, and the watchdog escalates any worker that
    /// ignores the flag — a wedged engine can delay exit by a few
    /// `watchdog_grace` periods, never hang it. Queued and abandoned
    /// jobs are left journaled for the next start. Returns once
    /// everything is quiesced and the socket is unlinked.
    pub fn run(self) -> Result<DrainReport, ServerError> {
        let inner = Arc::clone(&self.inner);
        for idx in 0..inner.sup.slots.len() {
            spawn_worker(&inner, idx);
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("verdict-supervisor".to_string())
                .spawn(move || supervisor_loop(&inner))
                .expect("supervisor thread spawns")
        };

        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !inner.stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&inner);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("verdict-conn".to_string())
                            .spawn(move || handle_connection(stream, &inner))
                            .expect("connection thread spawns"),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    // A transient accept failure must not kill the
                    // daemon; back off and retry.
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            handlers.retain(|h| !h.is_finished());
        }

        // Drain, phase 1: wake idle workers so they observe the stop
        // flag, and give running executions the grace period.
        inner.queue_cv.notify_all();
        let deadline = Instant::now() + inner.cfg.grace;
        while live_runs(&inner) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Phase 2: cancel the stragglers cooperatively.
        if live_runs(&inner) > 0 {
            let table = inner.jobs.lock().unwrap_or_else(|e| e.into_inner());
            for job in table.jobs.values() {
                job.raise_stops();
            }
        }
        // Phase 3: wait for the fleet to quiesce. A worker wedged past
        // the stop flag is escalated and abandoned by the supervisor
        // (still running), so this wait is bounded by a few watchdog
        // grace periods — never by the hung engine itself.
        let hard = Instant::now() + inner.cfg.watchdog_grace * 4 + Duration::from_secs(2);
        while live_runs(&inner) > 0 && Instant::now() < hard {
            std::thread::sleep(Duration::from_millis(10));
        }
        inner.terminating.store(true, Ordering::Release);
        let _ = supervisor.join();
        // Join worker threads that actually finished; abandon the rest
        // (their jobs are journaled and re-run on the next start).
        let join_by = Instant::now() + Duration::from_secs(1);
        for slot in &inner.sup.slots {
            let handle = slot.handle.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(h) = handle {
                while !h.is_finished() && Instant::now() < join_by {
                    std::thread::sleep(Duration::from_millis(10));
                }
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    inner
                        .sup
                        .orphans
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(h);
                }
            }
        }
        {
            let mut hedges = inner
                .sup
                .hedge_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for h in hedges.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                }
                // Unfinished hedges are detached; their jobs' outcomes
                // are owned by finalize's swap-once gate either way.
            }
        }
        // Detach abandoned threads: they hold no locks we need, and
        // their jobs were either finalized as hung or left journaled.
        inner
            .sup
            .orphans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        for h in handlers {
            let _ = h.join();
        }

        let abandoned = {
            let table = inner.jobs.lock().unwrap_or_else(|e| e.into_inner());
            table
                .jobs
                .values()
                .filter(|j| {
                    let g = j.state.lock().unwrap_or_else(|e| e.into_inner());
                    !g.phase.finished()
                        || (g.phase == JobPhase::Cancelled
                            && !j.cancel_requested.load(Ordering::Acquire))
                })
                .count() as u64
        };
        let report = DrainReport {
            jobs_completed: inner.completed.load(Ordering::Relaxed),
            jobs_abandoned: abandoned,
            wal: inner.wal.stats(),
        };
        let _ = std::fs::remove_file(&inner.cfg.socket);
        // Dropping the last Arc closes the WAL (drains + final fsync).
        drop(inner);
        Ok(report)
    }
}

/// Replays the WAL into job state: `submit` without a matching `done`
/// or `cancel` re-enqueues; `done` with every verdict decided is
/// trusted; `done` with any undecided verdict re-runs (the re-gating
/// policy); `cancel` sticks. `quarantine`/`unquarantine` records
/// rebuild the circuit-breaker table (re-armed with a fresh TTL), and
/// recovered idempotency keys repopulate the dedup map. Trusted and
/// cancelled jobs are retained in job-id order, so the table keeps the
/// last [`RETAINED_JOBS`] of them, as a daemon that never stopped would.
fn recover_jobs(inner: &Arc<Inner>, records: &[String], report: &mut RecoveryReport) {
    struct Entry {
        spec: Option<JobSpec>,
        done: Option<Vec<VerdictRow>>,
        cancelled: bool,
    }
    let mut entries: BTreeMap<u64, Entry> = BTreeMap::new();
    let mut qmap: HashMap<u64, String> = HashMap::new();
    for payload in records {
        let Ok(v) = verdict_journal::json::parse(payload) else {
            continue;
        };
        match v.get("type").and_then(Json::as_str) {
            Some("quarantine") => {
                if let Some(fp) = v
                    .get("fp")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                {
                    let detail = v
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("recovered from journal")
                        .to_string();
                    qmap.insert(fp, detail);
                }
                continue;
            }
            Some("unquarantine") => {
                if let Some(fp) = v
                    .get("fp")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                {
                    qmap.remove(&fp);
                }
                continue;
            }
            _ => {}
        }
        let Some(id) = v.get("job").and_then(Json::as_int).filter(|&j| j >= 0) else {
            continue;
        };
        let entry = entries.entry(id as u64).or_insert(Entry {
            spec: None,
            done: None,
            cancelled: false,
        });
        match v.get("type").and_then(Json::as_str) {
            Some("submit") => {
                if let Some(spec) = v.get("spec").and_then(|s| JobSpec::from_json(s).ok()) {
                    entry.spec = Some(spec);
                }
            }
            Some("done") => {
                if let Some(rows) = v.get("verdicts").and_then(Json::as_arr) {
                    let rows: Result<Vec<_>, _> = rows.iter().map(VerdictRow::from_json).collect();
                    if let Ok(rows) = rows {
                        entry.done = Some(rows);
                    }
                }
            }
            Some("cancel") => entry.cancelled = true,
            _ => {}
        }
    }

    let mut max_id = 0u64;
    for (id, entry) in entries {
        max_id = id;
        let Some(spec) = entry.spec else {
            continue;
        };
        if let Some(key) = spec.idem.clone() {
            inner
                .idem
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key, id);
        }
        let job = Job::new(id, spec);
        inner
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .insert(id, Arc::clone(&job));
        if entry.cancelled {
            job.cancel_requested.store(true, Ordering::Release);
            job.finalized.store(true, Ordering::Release);
            inner.finish(&job, JobPhase::Cancelled, Vec::new(), true);
            report.jobs_cancelled += 1;
        } else if let Some(rows) = entry
            .done
            .filter(|rows| rows.iter().all(VerdictRow::decided))
        {
            job.finalized.store(true, Ordering::Release);
            inner.finish(&job, JobPhase::Done, rows, true);
            report.jobs_trusted += 1;
            inner.recovered.fetch_add(1, Ordering::Relaxed);
        } else {
            // Unfinished, or finished with undecided verdicts: re-run.
            // The submit record is already durable — no new WAL write.
            report.jobs_requeued += 1;
            inner.recovered.fetch_add(1, Ordering::Relaxed);
            inner.admitted.fetch_add(1, Ordering::Relaxed);
            inner
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(id);
        }
    }
    inner.next_job.store(max_id + 1, Ordering::Release);

    if !qmap.is_empty() {
        let mut q = inner.quarantine.lock().unwrap_or_else(|e| e.into_inner());
        for (fp, detail) in qmap {
            q.insert(
                fp,
                QEntry {
                    consecutive: inner.cfg.quarantine_after,
                    until: Some(Instant::now() + inner.cfg.quarantine_ttl),
                    detail,
                },
            );
        }
    }
}

/// Admission: validate, consult the quarantine table and idempotency
/// map, reserve a queue slot, journal durably, enqueue. The WAL append
/// *is* the acknowledgment — a submit that returns a job id survives
/// SIGKILL from this moment on.
fn submit(inner: &Arc<Inner>, spec: JobSpec) -> Result<u64, Rejection> {
    let reject = |r: Rejection| {
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        Err(r)
    };
    if inner.stop.load(Ordering::Acquire) {
        return reject(Rejection::new("draining"));
    }
    if let Err(e) = validate_spec(&spec) {
        return reject(e);
    }
    // Circuit breaker: a spec that keeps crashing or hanging workers is
    // refused outright until its TTL expires (or `unquarantine`).
    let fp = spec.fingerprint();
    {
        let mut q = inner.quarantine.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = q.get(&fp) {
            if let Some(until) = entry.until {
                let now = Instant::now();
                if now < until {
                    inner.quarantine_hits.fetch_add(1, Ordering::Relaxed);
                    let mut r = Rejection::new("quarantined").with_detail(format!(
                        "spec crash-looped {} time(s): {}",
                        entry.consecutive, entry.detail
                    ));
                    r.fingerprint = Some(format!("{fp:016x}"));
                    r.retry_after_ms = Some((until - now).as_millis() as u64);
                    return reject(r);
                }
                // TTL expired: lift lazily and admit on probation.
                q.remove(&fp);
            }
        }
    }
    // Idempotent resubmit: a key the daemon has already admitted maps
    // back to the original job instead of running twice.
    if let Some(key) = &spec.idem {
        let idem = inner.idem.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = idem.get(key) {
            return Ok(id);
        }
    }
    // Reserve a bounded-queue slot before the (slow) durable append so
    // concurrent submits can never overshoot the capacity.
    let occupied = inner.admitted.fetch_add(1, Ordering::SeqCst) + 1;
    if occupied > inner.cfg.queue_capacity as u64 {
        inner.admitted.fetch_sub(1, Ordering::SeqCst);
        let mut r = Rejection::new("queue-full");
        r.queued = Some(occupied - 1);
        r.capacity = Some(inner.cfg.queue_capacity as u64);
        return reject(r);
    }
    let id = inner.next_job.fetch_add(1, Ordering::SeqCst);
    if let Some(key) = &spec.idem {
        // Check-and-insert under one lock so two racing submits with
        // the same key admit exactly one job.
        let mut idem = inner.idem.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&existing) = idem.get(key) {
            inner.admitted.fetch_sub(1, Ordering::SeqCst);
            return Ok(existing);
        }
        idem.insert(key.clone(), id);
    }
    let record = proto::obj(vec![
        ("type", Json::Str("submit".into())),
        ("job", Json::Int(id as i64)),
        ("spec", spec.to_json()),
    ])
    .to_string();
    if let Err(e) = inner.pool.append(&record) {
        inner.admitted.fetch_sub(1, Ordering::SeqCst);
        if let Some(key) = &spec.idem {
            inner
                .idem
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(key);
        }
        return reject(Rejection::new("wal-error").with_detail(e.to_string()));
    }
    let job = Job::new(id, spec);
    inner
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .jobs
        .insert(id, job);
    inner
        .queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(id);
    inner.queue_cv.notify_one();
    inner.accepted.fetch_add(1, Ordering::Relaxed);
    Ok(id)
}

/// Rejects malformed jobs at admission, before anything is journaled,
/// through the shared `verdict_mc::spec` validation gate — the same
/// rules the CLI applies locally, mapped onto wire rejections.
fn validate_spec(spec: &JobSpec) -> Result<(), Rejection> {
    spec.validate().map(|_| ()).map_err(|e| match e {
        verdict_mc::spec::SpecError::Parse(m) => Rejection::new("parse-error").with_detail(m),
        verdict_mc::spec::SpecError::BadRequest(m) => Rejection::new("bad-request").with_detail(m),
    })
}

/// Durably journals a cancel and raises the job's stop flags. Queued
/// jobs flip to `cancelled` immediately; running jobs get there when
/// the engine observes the flag.
fn cancel(inner: &Arc<Inner>, id: u64) -> Result<(), Rejection> {
    let job = match inner.lookup(id) {
        Ok(job) => job,
        // An evicted job finished long ago: nothing left to cancel.
        Err(r) if r.reason == "evicted" => return Ok(()),
        Err(r) => return Err(r),
    };
    if job
        .state
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .phase
        .finished()
    {
        return Ok(());
    }
    let record = proto::obj(vec![
        ("type", Json::Str("cancel".into())),
        ("job", Json::Int(id as i64)),
    ])
    .to_string();
    if let Err(e) = inner.pool.append(&record) {
        return Err(Rejection::new("wal-error").with_detail(e.to_string()));
    }
    job.cancel_requested.store(true, Ordering::Release);
    job.raise_stops();
    let mut g = job.state.lock().unwrap_or_else(|e| e.into_inner());
    if g.phase == JobPhase::Queued {
        g.phase = JobPhase::Cancelled;
        job.cv.notify_all();
        drop(g);
        inner.retain(&job);
    }
    Ok(())
}

/// Lifts a quarantine entry. The clear is journaled so a restart does
/// not resurrect the circuit breaker.
fn unquarantine(inner: &Arc<Inner>, fp_hex: &str) -> Result<bool, Rejection> {
    let fp = u64::from_str_radix(fp_hex, 16).map_err(|_| {
        Rejection::new("bad-request").with_detail(format!("bad fingerprint `{fp_hex}`"))
    })?;
    let cleared = inner
        .quarantine
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&fp)
        .is_some();
    if cleared {
        let record = proto::obj(vec![
            ("type", Json::Str("unquarantine".into())),
            ("fp", Json::Str(format!("{fp:016x}"))),
        ])
        .to_string();
        let _ = inner.pool.append(&record);
    }
    Ok(cleared)
}

/// Records a crash/hang completion against a spec fingerprint; arms the
/// circuit breaker (journaled) once the consecutive-failure threshold
/// is crossed.
fn quarantine_failure(inner: &Arc<Inner>, fp: u64, detail: String) {
    if inner.cfg.quarantine_after == 0 {
        return;
    }
    let mut q = inner.quarantine.lock().unwrap_or_else(|e| e.into_inner());
    let entry = q.entry(fp).or_default();
    entry.consecutive += 1;
    entry.detail = detail.clone();
    if entry.until.is_none() && entry.consecutive >= inner.cfg.quarantine_after {
        entry.until = Some(Instant::now() + inner.cfg.quarantine_ttl);
        inner.quarantined.fetch_add(1, Ordering::Relaxed);
        let record = proto::obj(vec![
            ("type", Json::Str("quarantine".into())),
            ("fp", Json::Str(format!("{fp:016x}"))),
            ("detail", Json::Str(detail)),
        ])
        .to_string();
        let _ = inner.pool.append(&record);
    }
}

/// A clean completion resets the spec's consecutive-failure streak.
fn quarantine_success(inner: &Arc<Inner>, fp: u64) {
    inner
        .quarantine
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&fp);
}

/// Feeds the per-spec completion-latency sketch (bounded window).
fn record_latency(inner: &Arc<Inner>, fp: u64, elapsed: Duration) {
    let mut s = inner.sketch.lock().unwrap_or_else(|e| e.into_inner());
    let v = s.entry(fp).or_default();
    if v.len() >= 32 {
        v.remove(0);
    }
    v.push(elapsed.as_millis() as u64);
}

/// The elapsed time after which a run of this spec deserves a hedge:
/// twice the observed p99 once ≥8 completions are on record, else the
/// configured base threshold.
fn hedge_threshold(inner: &Inner, fp: u64, base: Duration) -> Duration {
    let s = inner.sketch.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(v) = s.get(&fp) {
        if v.len() >= 8 {
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let idx = (sorted.len() * 99).div_ceil(100).saturating_sub(1);
            let p99 = sorted[idx.min(sorted.len() - 1)];
            return Duration::from_millis((p99 * 2).max(10));
        }
    }
    base
}

/// An `io::Write` that turns the engines' trace byte stream back into
/// whole JSONL lines on the job's event list, waking `wait` streams.
struct JobEventWriter {
    job: Arc<Job>,
    partial: Vec<u8>,
}

impl io::Write for JobEventWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            if let Ok(s) = std::str::from_utf8(&line[..line.len() - 1]) {
                let mut g = self.job.state.lock().unwrap_or_else(|e| e.into_inner());
                g.events.push(s.to_string());
                self.job.cv.notify_all();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Starts (or restarts, after an abandonment) the worker thread for a
/// slot. The spawned loop exits when its generation is superseded.
fn spawn_worker(inner: &Arc<Inner>, idx: usize) {
    let slot = Arc::clone(&inner.sup.slots[idx]);
    let my_gen = slot.generation.load(Ordering::Acquire);
    let inner2 = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("verdict-worker-{idx}"))
        .spawn(move || worker_loop(&inner2, idx, my_gen))
        .expect("worker thread spawns");
    *slot.handle.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
}

/// Worker: pop a job, run it under supervision, journal the outcome,
/// repeat until drain — or until this thread's slot generation is
/// superseded because the watchdog abandoned it.
fn worker_loop(inner: &Arc<Inner>, slot_idx: usize, my_gen: u64) {
    let slot = Arc::clone(&inner.sup.slots[slot_idx]);
    loop {
        if slot.generation.load(Ordering::Acquire) != my_gen {
            return;
        }
        let id = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if inner.stop.load(Ordering::Acquire)
                    || slot.generation.load(Ordering::Acquire) != my_gen
                {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    inner.admitted.fetch_sub(1, Ordering::SeqCst);
                    break id;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let job = {
            let table = inner.jobs.lock().unwrap_or_else(|e| e.into_inner());
            table.jobs.get(&id).cloned()
        };
        let Some(job) = job else { continue };
        // The deadline counts from admission: a job that burned its
        // whole budget waiting in the queue fails honestly right here
        // instead of starting a doomed run.
        if let Some(deadline) = job.deadline() {
            if Instant::now() >= deadline && !job.finalized.swap(true, Ordering::SeqCst) {
                let rows = vec![VerdictRow {
                    name: "(job)".into(),
                    verdict: "unknown".into(),
                    reason: Some(UnknownReason::Timeout.tag().into()),
                    engine: job.spec.engine.clone(),
                    detail: "deadline expired while queued".into(),
                }];
                journal_done(inner, &job, &rows);
                inner.completed.fetch_add(1, Ordering::Relaxed);
                inner.finish(&job, JobPhase::Done, rows, false);
                continue;
            }
        }
        let exec = Execution::new(
            Arc::clone(&job),
            Some(slot_idx),
            Arc::clone(&slot.heartbeat),
            None,
            false,
        );
        {
            // Cancelled while queued: nothing to run. (The stop flag
            // was registered before this check, so a cancel landing in
            // between still reaches the execution.)
            let mut g = job.state.lock().unwrap_or_else(|e| e.into_inner());
            if g.phase != JobPhase::Queued {
                continue;
            }
            g.phase = JobPhase::Running;
            job.cv.notify_all();
        }
        inner.running.fetch_add(1, Ordering::SeqCst);
        inner
            .sup
            .runs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&exec));
        drive_execution(inner, &exec);
        retire(inner, &exec);
        if exec.abandoned.load(Ordering::Acquire) {
            // The watchdog replaced this thread while it was wedged;
            // the slot belongs to the successor now.
            return;
        }
    }
}

/// Runs one execution with panic containment: a worker-killing panic
/// (an engine bug, or the injected `server.worker.panic` fault) becomes
/// an honest `unknown/engine-failure` verdict instead of a dead slot.
fn drive_execution(inner: &Arc<Inner>, exec: &Arc<Execution>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_execution(inner, exec);
    }));
    if let Err(payload) = outcome {
        let msg = verdict_mc::engine::panic_message(payload.as_ref());
        let rows = vec![VerdictRow {
            name: "(worker)".into(),
            verdict: "unknown".into(),
            reason: Some(UnknownReason::EngineFailure.tag().into()),
            engine: exec.job.spec.engine.clone(),
            detail: format!("worker thread panicked: {msg}"),
        }];
        finalize_rows(inner, exec, rows, None);
    }
}

/// Executes the spec for one execution and routes the rows through the
/// swap-once finalizer. Fault probes for the chaos harness sit at the
/// top: `server.worker.hang` simulates a wedge that ignores every
/// cooperative signal (only abandonment frees it), `server.worker.panic`
/// kills the thread mid-job.
fn run_execution(inner: &Arc<Inner>, exec: &Arc<Execution>) {
    if verdict_journal::fault::probe("server.worker.hang").is_some() {
        let cap = Instant::now() + Duration::from_secs(120);
        while !exec.abandoned.load(Ordering::Acquire) && Instant::now() < cap {
            std::thread::sleep(Duration::from_millis(5));
        }
        if exec.abandoned.load(Ordering::Acquire) {
            // The watchdog owns the outcome (finalized hung, or left
            // journaled for restart during a drain).
            return;
        }
        let rows = vec![hung_row(&exec.job.spec)];
        finalize_rows(inner, exec, rows, None);
        return;
    }
    verdict_journal::fault::panic_if_armed("server.worker.panic");

    let sink = if exec.is_hedge {
        // Only the primary streams trace events: interleaving two
        // engines' traces on one wait stream would be noise.
        None
    } else {
        Some(Arc::new(TraceSink::from_writer(Box::new(JobEventWriter {
            job: Arc::clone(&exec.job),
            partial: Vec::new(),
        }))))
    };
    let timeout = exec
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let (rows, stats) = execute_spec(
        &exec.job.spec,
        Arc::clone(&exec.stop),
        sink,
        Some(Arc::clone(&exec.sup)),
        timeout,
        exec.engine_override.as_deref(),
    );
    finalize_rows(inner, exec, rows, stats);
}

/// The verdict row recorded for a job whose worker hung past every
/// escalation step.
fn hung_row(spec: &JobSpec) -> VerdictRow {
    VerdictRow {
        name: "(job)".into(),
        verdict: "unknown".into(),
        reason: Some(UnknownReason::HungWorker.tag().into()),
        engine: spec.engine.clone(),
        detail: UnknownReason::HungWorker.to_string(),
    }
}

/// Appends the job's `done` record. A WAL failure here leaves the job
/// complete in memory but not durable — it re-runs on restart, which is
/// safe (just wasteful).
fn journal_done(inner: &Arc<Inner>, job: &Arc<Job>, rows: &[VerdictRow]) {
    let record = proto::obj(vec![
        ("type", Json::Str("done".into())),
        ("job", Json::Int(job.id as i64)),
        (
            "verdicts",
            Json::Arr(rows.iter().map(VerdictRow::to_json).collect()),
        ),
    ])
    .to_string();
    let _ = inner.pool.append(&record);
}

/// Routes one execution's finished rows through the job's swap-once
/// outcome gate. Exactly one caller — primary, hedge, or the watchdog's
/// hung-finalizer — wins; the rest account themselves as losers. The
/// winner journals, updates quarantine/latency bookkeeping, and flips
/// the job phase.
fn finalize_rows(
    inner: &Arc<Inner>,
    exec: &Arc<Execution>,
    mut rows: Vec<VerdictRow>,
    stats: Option<Stats>,
) {
    if let Some(stats) = &stats {
        inner
            .engine_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(stats);
    }
    let job = &exec.job;
    // Hedge restraint: an *undecided* hedge result must not race the
    // still-running primary to the gate — a hedge exists to return a
    // faster decided verdict, never to replace one unknown with
    // another. This is what keeps hedged runs agreeing with unhedged
    // baselines.
    if exec.is_hedge
        && !rows.iter().all(VerdictRow::decided)
        && !job.finalized.load(Ordering::Acquire)
        && primary_live(inner, job)
    {
        inner.hedges_wasted.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if job.finalized.swap(true, Ordering::SeqCst) {
        // Lost the race: the other execution's verdict stands.
        if exec.is_hedge {
            inner.hedges_wasted.fetch_add(1, Ordering::Relaxed);
        }
        return;
    }
    // Winner: cancel every other execution of this job.
    job.raise_stops();
    if job.hedged.load(Ordering::Acquire) {
        if exec.is_hedge {
            inner.hedges_won.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.hedges_lost.fetch_add(1, Ordering::Relaxed);
        }
    }
    let was_stopped = exec.stop.load(Ordering::Acquire);
    let any_cancelled = rows.iter().any(|r| r.verdict == "cancelled");
    let escalated = exec.escalation.load(Ordering::Acquire) > 0;
    if escalated && any_cancelled && !job.cancel_requested.load(Ordering::Acquire) {
        // The stop flag was raised by the watchdog, not a client: the
        // honest verdict is hung-worker, not cancelled.
        for r in &mut rows {
            if r.verdict == "cancelled" {
                r.verdict = "unknown".into();
                r.reason = Some(UnknownReason::HungWorker.tag().into());
                r.detail = UnknownReason::HungWorker.to_string();
            }
        }
        journal_done(inner, job, &rows);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        quarantine_failure(inner, job.fp, "job hung past its deadline".into());
        inner.finish(job, JobPhase::Done, rows, false);
        return;
    }
    if was_stopped && any_cancelled {
        // User cancel (its `cancel` record is durable) or a drain
        // casualty (its `submit` record re-runs it on restart): either
        // way, no `done` record.
        inner.finish(job, JobPhase::Cancelled, rows, false);
        return;
    }
    journal_done(inner, job, &rows);
    inner.completed.fetch_add(1, Ordering::Relaxed);
    let crashed = rows
        .iter()
        .any(|r| r.reason.as_deref() == Some(UnknownReason::EngineFailure.tag()));
    let hung = rows
        .iter()
        .any(|r| r.reason.as_deref() == Some(UnknownReason::HungWorker.tag()));
    if crashed {
        let detail = rows
            .iter()
            .find(|r| r.reason.as_deref() == Some(UnknownReason::EngineFailure.tag()))
            .map(|r| r.detail.clone())
            .unwrap_or_default();
        quarantine_failure(inner, job.fp, detail);
    } else if hung {
        quarantine_failure(inner, job.fp, "worker hung".into());
    } else {
        quarantine_success(inner, job.fp);
        record_latency(inner, job.fp, exec.started.elapsed());
    }
    inner.finish(job, JobPhase::Done, rows, false);
}

/// Is a non-hedge execution of this job still live?
fn primary_live(inner: &Inner, job: &Arc<Job>) -> bool {
    inner
        .sup
        .runs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .any(|r| !r.is_hedge && r.job.id == job.id && !r.retired.load(Ordering::Acquire))
}

/// Marks an execution finished-with. Swap-once: callable from the
/// worker (normal path) and the watchdog (abandonment) without double
/// decrementing the running count.
fn retire(inner: &Arc<Inner>, exec: &Arc<Execution>) {
    if exec.retired.swap(true, Ordering::SeqCst) {
        return;
    }
    if exec.slot.is_some() {
        inner.running.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The watchdog: scans live executions, detects hangs (deadline overrun
/// past the grace, or a stale heartbeat), and walks each hung execution
/// up the escalation ladder. Healthy-but-slow executions are considered
/// for hedging instead.
fn supervisor_loop(inner: &Arc<Inner>) {
    while !inner.terminating.load(Ordering::Acquire) {
        let draining = inner.stop.load(Ordering::Acquire);
        let now = Instant::now();
        let runs: Vec<Arc<Execution>> = {
            let mut g = inner.sup.runs.lock().unwrap_or_else(|e| e.into_inner());
            g.retain(|r| !r.retired.load(Ordering::Acquire));
            g.clone()
        };
        for exec in &runs {
            if exec.retired.load(Ordering::Acquire) {
                continue;
            }
            if exec.job.finalized.load(Ordering::Acquire) {
                // Another execution already decided this job; keep the
                // loser's stop flag raised until it notices.
                exec.stop.store(true, Ordering::Release);
            }
            let hb = exec.sup.heartbeat().count();
            let prev = exec.last_beat.swap(hb, Ordering::AcqRel);
            let stale = {
                let mut changed = exec
                    .last_beat_change
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if hb != prev {
                    *changed = now;
                }
                now.saturating_duration_since(*changed)
            };
            let grace = inner.cfg.watchdog_grace;
            let overdue = exec.deadline.is_some_and(|d| now > d + grace)
                || stale > inner.cfg.heartbeat_timeout
                || (exec.stop.load(Ordering::Acquire) && stale > grace && draining)
                || (exec.job.finalized.load(Ordering::Acquire) && stale > grace);
            if overdue {
                escalate(inner, exec, now);
            } else if !draining {
                maybe_hedge(inner, exec);
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One step up the escalation ladder, paced `watchdog_grace` apart:
/// raise the stop flag → poison the supervision handle (the next budget
/// poll returns `Unknown(HungWorker)`) → abandon the thread.
fn escalate(inner: &Arc<Inner>, exec: &Arc<Execution>, now: Instant) {
    let step = exec.escalation.load(Ordering::Acquire);
    if step > 0 {
        let since = {
            let at = exec.escalated_at.lock().unwrap_or_else(|e| e.into_inner());
            now.saturating_duration_since(*at)
        };
        if since < inner.cfg.watchdog_grace {
            return;
        }
    }
    match step {
        0 => exec.stop.store(true, Ordering::Release),
        1 => exec.sup.poison(),
        _ => {
            abandon(inner, exec);
            return;
        }
    }
    exec.escalation.store(step + 1, Ordering::Release);
    *exec.escalated_at.lock().unwrap_or_else(|e| e.into_inner()) = now;
    inner.escalations.fetch_add(1, Ordering::Relaxed);
}

/// The ladder's last rung: give up on the thread. Its slot gets a fresh
/// generation and (outside a drain) a respawned worker, the old handle
/// is parked for best-effort joining at exit, and — unless another
/// execution of the job is still live — the job is finalized with an
/// honest `unknown/hung-worker` verdict. During a drain the job is
/// left `running`, so it counts as abandoned and re-runs on restart.
fn abandon(inner: &Arc<Inner>, exec: &Arc<Execution>) {
    if exec.abandoned.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.escalations.fetch_add(1, Ordering::Relaxed);
    exec.escalation.store(3, Ordering::Release);
    inner.hung_workers.fetch_add(1, Ordering::Relaxed);
    if let Some(idx) = exec.slot {
        let slot = &inner.sup.slots[idx];
        slot.generation.fetch_add(1, Ordering::SeqCst);
        let old = slot.handle.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = old {
            inner
                .sup
                .orphans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(h);
        }
        if !inner.stop.load(Ordering::Acquire) {
            spawn_worker(inner, idx);
            inner.workers_respawned.fetch_add(1, Ordering::Relaxed);
        }
    }
    retire(inner, exec);
    if inner.stop.load(Ordering::Acquire) {
        return;
    }
    let other_live = {
        let runs = inner.sup.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.iter().any(|r| {
            r.job.id == exec.job.id && !r.retired.load(Ordering::Acquire) && !Arc::ptr_eq(r, exec)
        })
    };
    if other_live {
        // A hedge (or replacement) is still running; let it decide.
        return;
    }
    let job = &exec.job;
    if job.finalized.swap(true, Ordering::SeqCst) {
        return;
    }
    let rows = vec![hung_row(&job.spec)];
    journal_done(inner, job, &rows);
    inner.completed.fetch_add(1, Ordering::Relaxed);
    quarantine_failure(inner, job.fp, "worker hung; thread abandoned".into());
    inner.finish(job, JobPhase::Done, rows, false);
}

/// Launches a speculative second run for a healthy-but-slow execution,
/// if capacity allows: the queue must be empty and a worker-equivalent
/// must be spare. The hedge runs a *different* engine (portfolio unless
/// the spec already asked for it), so a pathological engine/spec pair
/// doesn't just wedge twice.
fn maybe_hedge(inner: &Arc<Inner>, exec: &Arc<Execution>) {
    let Some(base) = inner.cfg.hedge_after else {
        return;
    };
    if exec.is_hedge
        || exec.escalation.load(Ordering::Acquire) > 0
        || exec.stop.load(Ordering::Acquire)
        || exec.job.finalized.load(Ordering::Acquire)
        || exec.job.hedged.load(Ordering::Acquire)
    {
        return;
    }
    if exec.started.elapsed() < hedge_threshold(inner, exec.job.fp, base) {
        return;
    }
    // Spare capacity only: hedges must never delay queued jobs.
    if !inner
        .queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_empty()
    {
        return;
    }
    let active = {
        let runs = inner.sup.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.iter()
            .filter(|r| !r.retired.load(Ordering::Acquire))
            .count()
    };
    if active >= inner.cfg.workers.max(1) {
        return;
    }
    if exec.job.hedged.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.hedges_launched.fetch_add(1, Ordering::Relaxed);
    let engine = if exec.job.spec.engine == "portfolio" {
        "auto"
    } else {
        "portfolio"
    };
    let hedge = Execution::new(
        Arc::clone(&exec.job),
        None,
        Arc::new(Heartbeat::new()),
        Some(engine.to_string()),
        true,
    );
    inner
        .sup
        .runs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&hedge));
    let inner2 = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("verdict-hedge-{}", exec.job.id))
        .spawn(move || {
            drive_execution(&inner2, &hedge);
            retire(&inner2, &hedge);
        })
        .expect("hedge thread spawns");
    let mut hedges = inner
        .sup
        .hedge_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // Join the hedges that have exited now, so their threads are released
    // while the daemon runs; the rest are joined at drain.
    for h in hedges.extract_if(.., |h| h.is_finished()) {
        let _ = h.join();
    }
    hedges.push(handle);
}

/// Runs a spec to a verdict-row list through the shared
/// `verdict_mc::spec::execute` path — the same function the CLI's
/// local sweep uses, which is what makes local and remote verdicts
/// agree structurally. Public within the crate so the bench and the
/// tests can execute specs exactly like a worker does. `timeout` (the
/// job's remaining deadline budget) takes precedence over the spec's
/// `deadline_ms`; `engine_override` replaces the spec's engine tag
/// (hedged re-execution); `supervision` threads the heartbeat/poison
/// handle into every engine budget poll.
pub(crate) fn execute_spec(
    spec: &JobSpec,
    stop: Arc<AtomicBool>,
    sink: Option<Arc<TraceSink>>,
    supervision: Option<Arc<Supervision>>,
    timeout: Option<Duration>,
    engine_override: Option<&str>,
) -> (Vec<VerdictRow>, Option<Stats>) {
    let ctx = verdict_mc::spec::ExecContext {
        stop: Some(stop),
        sink,
        supervision,
        timeout,
        engine_override: engine_override.map(str::to_string),
        jobs: 1,
    };
    verdict_mc::spec::execute(spec, &ctx)
}

/// Serializes a job snapshot into a response document.
fn status_json(job: &Arc<Job>) -> Json {
    let g = job.state.lock().unwrap_or_else(|e| e.into_inner());
    proto::obj(vec![
        ("ok", Json::Bool(true)),
        ("job", Json::Int(job.id as i64)),
        ("state", Json::Str(g.phase.tag().to_string())),
        ("recovered", Json::Bool(g.recovered)),
        (
            "verdicts",
            Json::Arr(g.verdicts.iter().map(VerdictRow::to_json).collect()),
        ),
    ])
}

/// One connection: read JSONL requests, answer each. Uses a short read
/// timeout so the handler can notice server termination mid-read.
fn handle_connection(stream: UnixStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = stream;
    let Ok(mut writer) = reader.try_clone() else {
        return;
    };
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        // Extract the next complete line, reading more as needed.
        let line = loop {
            if let Some(nl) = acc.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = acc.drain(..=nl).collect();
                break String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            }
            match reader.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => acc.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if inner.terminating.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response_ok = match Request::parse(&line) {
            Ok(req) => respond(&req, inner, &mut writer),
            Err(e) => write_line(
                &mut writer,
                &Rejection::new("bad-request").with_detail(e).to_json(),
            ),
        };
        if response_ok.is_err() {
            return;
        }
    }
}

fn write_line(w: &mut UnixStream, v: &Json) -> io::Result<()> {
    let mut line = v.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Answers one request. Errors mean the client hung up.
fn respond(req: &Request, inner: &Arc<Inner>, w: &mut UnixStream) -> io::Result<()> {
    match req {
        Request::Ping => write_line(w, &proto::obj(vec![("ok", Json::Bool(true))])),
        Request::Submit(spec) => match submit(inner, spec.clone()) {
            Ok(id) => write_line(
                w,
                &proto::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("job", Json::Int(id as i64)),
                ]),
            ),
            Err(r) => write_line(w, &r.to_json()),
        },
        Request::Status { job } => match inner.lookup(*job) {
            Ok(j) => write_line(w, &status_json(&j)),
            Err(r) => write_line(w, &r.to_json()),
        },
        Request::Wait { job } => {
            let j = match inner.lookup(*job) {
                Ok(j) => j,
                Err(r) => return write_line(w, &r.to_json()),
            };
            // Stream trace events as they land, then the final state.
            // Periodic keepalive lines protect clients running socket
            // read timeouts from long quiet stretches.
            let mut seen = 0usize;
            let mut last_write = Instant::now();
            loop {
                let (pending, finished): (Vec<String>, bool) = {
                    let g = j.state.lock().unwrap_or_else(|e| e.into_inner());
                    let pending = g.events[seen.min(g.events.len())..].to_vec();
                    (pending, g.phase.finished())
                };
                for ev in &pending {
                    seen += 1;
                    // Events are verbatim PR-5 trace JSONL lines.
                    let mut framed = format!("{{\"job\":{},\"event\":{ev}}}", j.id);
                    framed.push('\n');
                    w.write_all(framed.as_bytes())?;
                    last_write = Instant::now();
                }
                if finished {
                    return write_line(w, &status_json(&j));
                }
                if inner.terminating.load(Ordering::Acquire) {
                    return write_line(
                        w,
                        &Rejection::new("draining")
                            .with_detail("server shutting down".into())
                            .to_json(),
                    );
                }
                if last_write.elapsed() > Duration::from_secs(1) {
                    let mut line = format!("{{\"job\":{},\"keepalive\":true}}", j.id);
                    line.push('\n');
                    w.write_all(line.as_bytes())?;
                    last_write = Instant::now();
                }
                // Decide to wait under the lock that reads the state: an
                // event or a finish that landed while this handler was
                // writing has already notified, so waiting on it would
                // sleep out the whole timeout. The timeout is only for
                // keepalives and drain.
                let g = j.state.lock().unwrap_or_else(|e| e.into_inner());
                if g.events.len() == seen && !g.phase.finished() {
                    let _ =
                        j.cv.wait_timeout(g, Duration::from_millis(100))
                            .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        Request::Cancel { job } => match cancel(inner, *job) {
            Ok(()) => write_line(w, &proto::obj(vec![("ok", Json::Bool(true))])),
            Err(r) => write_line(w, &r.to_json()),
        },
        Request::Unquarantine { fp } => match unquarantine(inner, fp) {
            Ok(cleared) => write_line(
                w,
                &proto::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("cleared", Json::Bool(cleared)),
                ]),
            ),
            Err(r) => write_line(w, &r.to_json()),
        },
        Request::Stats => {
            let mut stats = inner
                .engine_stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            stats.server = inner.server_counters();
            stats.supervision = inner.supervision_counters();
            // to_json is already a JSON document; frame it raw.
            let mut line = format!("{{\"ok\":true,\"stats\":{}}}", stats.to_json());
            line.push('\n');
            w.write_all(line.as_bytes())
        }
        Request::Shutdown => {
            inner.stop.store(true, Ordering::Release);
            inner.queue_cv.notify_all();
            write_line(
                w,
                &proto::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("draining", Json::Bool(true)),
                ]),
            )
        }
    }
}
