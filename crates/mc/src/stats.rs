//! Structured observability for the solver stack.
//!
//! Every engine run owns a [`Stats`] sink: a flat bundle of counters
//! (SAT, simplex, BDD), per-depth timings, phase timers, and retry/fault
//! tallies. Recording is cheap — counters are plain integers incremented
//! in the solver crates and absorbed here in bulk after each solve, so
//! the hot loops never see an allocation or a branch they did not already
//! have.
//!
//! Two output surfaces:
//!
//! * [`Stats::to_json`] — a versioned JSON block (`"schema": 2`), emitted
//!   by the CLI under `--stats` and embedded in `--json` rows.
//! * [`TraceSink`] — an optional JSONL event log (`--trace FILE`) with
//!   span-style phase events for offline flamegraph-style analysis.
//!
//! Counter values are deterministic for a fixed seed and a single worker:
//! two identical runs produce identical [`Stats::counters_json`] strings
//! (timings are excluded from that view — see the stats-determinism tests).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use verdict_journal::json::quote;

use crate::engine::EngineKind;

/// Version of the stats / CLI JSON schema. Bumped whenever a field is
/// renamed or removed, so downstream bench tooling can evolve safely.
/// Documented in DESIGN.md §12.
pub const STATS_SCHEMA_VERSION: u32 = 2;

/// CDCL SAT counters, summed over every SAT solver the run created
/// (k-induction owns two, the DPLL(T) core of SMT-BMC counts here too).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatCounters {
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt (cumulative, deletions not subtracted).
    pub learnt_clauses: u64,
    /// Total literals across all learnt clauses (size proxy).
    pub learnt_literals: u64,
    /// Learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
}

impl SatCounters {
    fn add(&mut self, o: SatCounters) {
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.conflicts += o.conflicts;
        self.restarts += o.restarts;
        self.learnt_clauses += o.learnt_clauses;
        self.learnt_literals += o.learnt_literals;
        self.deleted_clauses += o.deleted_clauses;
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SatCounters::default()
    }
}

impl From<verdict_sat::Stats> for SatCounters {
    fn from(s: verdict_sat::Stats) -> SatCounters {
        SatCounters {
            decisions: s.decisions,
            propagations: s.propagations,
            conflicts: s.conflicts,
            restarts: s.restarts,
            // The solver reports the *live* learnt count; add back the
            // deleted ones so the counter is monotone across reductions.
            learnt_clauses: s.learnt_clauses + s.deleted_clauses,
            learnt_literals: s.learnt_literals,
            deleted_clauses: s.deleted_clauses,
        }
    }
}

/// Simplex (QF_LRA theory core) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmtCounters {
    /// Tableau pivot operations.
    pub pivots: u64,
    /// Nonbasic-variable bound flips.
    pub bound_flips: u64,
    /// Times tableau arithmetic overflowed `i128` and poisoned itself.
    pub overflow_poisonings: u64,
}

impl SmtCounters {
    fn add(&mut self, o: SmtCounters) {
        self.pivots += o.pivots;
        self.bound_flips += o.bound_flips;
        self.overflow_poisonings += o.overflow_poisonings;
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SmtCounters::default()
    }
}

/// ROBDD manager counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddCounters {
    /// Nodes allocated (constants excluded).
    pub nodes_allocated: u64,
    /// `ite` cache lookups.
    pub ite_cache_lookups: u64,
    /// `ite` cache hits.
    pub ite_cache_hits: u64,
    /// High-water mark of the manager's live node count.
    pub peak_live_nodes: u64,
    /// Transition-relation partitions (1 under `--bdd-monolithic`).
    pub partitions: u64,
    /// Always 0: the BDD manager has no dynamic variable reordering.
    /// Kept so the schema-2 `sifts` key and its readers stay valid.
    pub sifts: u64,
    /// Always 0, like [`BddCounters::sifts`].
    pub sift_nodes_before: u64,
    /// Always 0, like [`BddCounters::sifts`].
    pub sift_nodes_after: u64,
    /// Bounded-cache evictions (wholesale `ite`/`and_exists` cache
    /// clears on reaching capacity).
    pub cache_clears: u64,
}

impl BddCounters {
    fn add(&mut self, o: BddCounters) {
        self.nodes_allocated += o.nodes_allocated;
        self.ite_cache_lookups += o.ite_cache_lookups;
        self.ite_cache_hits += o.ite_cache_hits;
        self.peak_live_nodes = self.peak_live_nodes.max(o.peak_live_nodes);
        self.partitions = self.partitions.max(o.partitions);
        self.sifts += o.sifts;
        self.sift_nodes_before += o.sift_nodes_before;
        self.sift_nodes_after += o.sift_nodes_after;
        self.cache_clears += o.cache_clears;
    }

    /// `ite` cache hit rate in `[0, 1]`; 0 when there were no lookups.
    pub fn ite_hit_rate(&self) -> f64 {
        if self.ite_cache_lookups == 0 {
            0.0
        } else {
            self.ite_cache_hits as f64 / self.ite_cache_lookups as f64
        }
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == BddCounters::default()
    }
}

/// Parallel-runtime counters: learned-clause sharing traffic plus the
/// lock-free collection machinery (SPSC rings and parked collectors)
/// introduced with `verdict-ring`. All zero for single-worker runs with
/// sharing disabled, which keeps the stats-determinism contract intact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Learnt clauses this run's solvers exported to sharing peers.
    pub clauses_exported: u64,
    /// Shared clauses imported after clearing the prefix guard.
    pub clauses_imported: u64,
    /// Shared clauses refused (foreign prefix or proof logging active).
    pub imports_rejected: u64,
    /// Imported clauses that became unit or conflicting in propagation.
    pub import_hits: u64,
    /// Messages drained from result-collection rings.
    pub ring_messages: u64,
    /// Nonempty drain sweeps over the result rings (messages ÷ batches
    /// is the mean batch size).
    pub ring_batches: u64,
    /// Times a collector parked on its doorbell.
    pub parks: u64,
    /// Times a parked collector was woken by a producer.
    pub wakes: u64,
    /// Wakeups that found no work ready (timeouts and spurious unparks).
    pub spurious_wakeups: u64,
}

impl RuntimeCounters {
    /// Sums another group into this one (collectors fold their own
    /// counters into the stats they report).
    pub(crate) fn add(&mut self, o: RuntimeCounters) {
        self.clauses_exported += o.clauses_exported;
        self.clauses_imported += o.clauses_imported;
        self.imports_rejected += o.imports_rejected;
        self.import_hits += o.import_hits;
        self.ring_messages += o.ring_messages;
        self.ring_batches += o.ring_batches;
        self.parks += o.parks;
        self.wakes += o.wakes;
        self.spurious_wakeups += o.spurious_wakeups;
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == RuntimeCounters::default()
    }
}

/// Serving-daemon counters: job admission/lifecycle tallies plus the
/// group-commit WAL's I/O behaviour. All zero for plain CLI runs, which
/// keeps the stats-determinism contract intact; the `verdict-server`
/// crate fills them in and surfaces them through the daemon's `stats`
/// operation. `wal_fsyncs < wal_appends` is the group-commit win the
/// server bench asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Jobs admitted (durably journaled and queued or started).
    pub jobs_accepted: u64,
    /// Jobs refused with a structured reason (queue full, draining,
    /// parse error, WAL failure).
    pub jobs_rejected: u64,
    /// Jobs currently waiting in the admission queue.
    pub jobs_queued: u64,
    /// Jobs currently executing on a worker.
    pub jobs_running: u64,
    /// Jobs finished with a recorded verdict map.
    pub jobs_completed: u64,
    /// Jobs re-enqueued (or re-reported) from the WAL on restart.
    pub jobs_recovered: u64,
    /// Records durably appended to the WAL.
    pub wal_appends: u64,
    /// Group commits performed (batches sharing one fsync).
    pub wal_group_commits: u64,
    /// `fsync` calls the WAL issued.
    pub wal_fsyncs: u64,
    /// WAL segment rotations.
    pub wal_rotations: u64,
}

impl ServerCounters {
    /// Sums another group into this one (gauges `jobs_queued` and
    /// `jobs_running` are summed too — merging is for aggregating
    /// disjoint servers, not snapshots of one).
    pub fn add(&mut self, o: ServerCounters) {
        self.jobs_accepted += o.jobs_accepted;
        self.jobs_rejected += o.jobs_rejected;
        self.jobs_queued += o.jobs_queued;
        self.jobs_running += o.jobs_running;
        self.jobs_completed += o.jobs_completed;
        self.jobs_recovered += o.jobs_recovered;
        self.wal_appends += o.wal_appends;
        self.wal_group_commits += o.wal_group_commits;
        self.wal_fsyncs += o.wal_fsyncs;
        self.wal_rotations += o.wal_rotations;
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ServerCounters::default()
    }
}

/// Supervision-layer counters: the self-healing machinery of the
/// serving daemon (watchdog escalations, hedged re-execution, crash-loop
/// quarantine). All zero for plain CLI runs — the group only moves when
/// `verdict-server`'s supervisor thread is alive — so the
/// stats-determinism contract is untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Total heartbeat stamps across the worker fleet (each budget poll
    /// by a supervised run is one beat).
    pub heartbeats: u64,
    /// Watchdog escalation steps taken (stop-flag raise, solver
    /// poisoning, and thread abandonment each count one).
    pub escalations: u64,
    /// Runs the watchdog declared hung and abandoned.
    pub hung_workers: u64,
    /// Worker slots respawned after their thread was abandoned.
    pub workers_respawned: u64,
    /// Speculative second runs launched past the hedge threshold.
    pub hedges_launched: u64,
    /// Hedges whose verdict finalized the job (the primary lost).
    pub hedges_won: u64,
    /// Hedges beaten by the primary run (launched, then cancelled).
    pub hedges_lost: u64,
    /// Hedge runs that finished without a usable verdict (undecided, or
    /// job already finalized when they reported).
    pub hedges_wasted: u64,
    /// Submits rejected because the spec fingerprint was quarantined.
    pub quarantine_hits: u64,
    /// Spec fingerprints placed into quarantine (crash/hang loop
    /// tripped the consecutive-failure threshold).
    pub quarantined: u64,
}

impl SupervisionCounters {
    /// Sums another group into this one.
    pub fn add(&mut self, o: SupervisionCounters) {
        self.heartbeats += o.heartbeats;
        self.escalations += o.escalations;
        self.hung_workers += o.hung_workers;
        self.workers_respawned += o.workers_respawned;
        self.hedges_launched += o.hedges_launched;
        self.hedges_won += o.hedges_won;
        self.hedges_lost += o.hedges_lost;
        self.hedges_wasted += o.hedges_wasted;
        self.quarantine_hits += o.quarantine_hits;
        self.quarantined += o.quarantined;
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SupervisionCounters::default()
    }
}

impl From<verdict_bdd::BddStats> for BddCounters {
    fn from(s: verdict_bdd::BddStats) -> BddCounters {
        BddCounters {
            nodes_allocated: s.nodes_allocated,
            ite_cache_lookups: s.ite_cache_lookups,
            ite_cache_hits: s.ite_cache_hits,
            peak_live_nodes: s.peak_live_nodes,
            partitions: 0, // engine-level, filled in by the symbolic engine
            sifts: 0,
            sift_nodes_before: 0,
            sift_nodes_after: 0,
            cache_clears: s.cache_clears,
        }
    }
}

/// Cost of one unrolling depth in a BMC / k-induction loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepthSample {
    /// The depth (number of transitions unrolled).
    pub depth: usize,
    /// Time spent extending + lowering the unrolling at this depth.
    pub unroll_ns: u64,
    /// Time spent inside solver calls at this depth.
    pub solve_ns: u64,
}

/// A span-timed phase of an engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Building and lowering the problem (unrolling, CNF/BDD encoding).
    Encode,
    /// Solver time (SAT/SMT solve calls, fixpoint computation).
    Solve,
    /// Certificate construction and re-checking (induction recheck,
    /// inductive-invariant recheck).
    Certify,
    /// Counterexample replay through the reference interpreter.
    Replay,
}

impl Phase {
    /// Every phase, in accumulator-index order.
    pub const ALL: [Phase; 4] = [Phase::Encode, Phase::Solve, Phase::Certify, Phase::Replay];

    /// Stable lowercase tag used in JSON output and trace events.
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Solve => "solve",
            Phase::Certify => "certify",
            Phase::Replay => "replay",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Encode => 0,
            Phase::Solve => 1,
            Phase::Certify => 2,
            Phase::Replay => 3,
        }
    }
}

/// A running phase timer, detached from the [`Stats`] sink so engines can
/// keep mutating stats while a span is open. Close it with
/// [`Stats::end_span`].
#[derive(Debug)]
pub struct SpanTimer {
    phase: Phase,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing `phase` now.
    pub fn begin(phase: Phase) -> SpanTimer {
        SpanTimer {
            phase,
            start: Instant::now(),
        }
    }
}

/// The per-run observability sink. One per engine run; portfolio races
/// give each contender its own and report the winner's alongside
/// per-contender summaries ([`crate::CheckReport`]).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// The engine that produced these stats, when known.
    pub engine: Option<EngineKind>,
    /// CDCL SAT counters (BMC, k-induction, and the SMT SAT core).
    pub sat: SatCounters,
    /// Simplex counters (SMT-BMC only).
    pub smt: SmtCounters,
    /// BDD manager counters (symbolic engine only).
    pub bdd: BddCounters,
    /// Parallel-runtime counters (clause sharing, ring traffic, parking).
    pub runtime: RuntimeCounters,
    /// Serving-daemon counters (job lifecycle, WAL I/O); zero outside
    /// `verdict serve`.
    pub server: ServerCounters,
    /// Self-healing counters (watchdog, hedging, quarantine); zero
    /// outside `verdict serve`.
    pub supervision: SupervisionCounters,
    /// Per-depth unroll/solve cost for bounded engines, in depth order.
    pub depths: Vec<DepthSample>,
    /// Symbolic fixpoint iterations (reachability onion rings, EU/EG
    /// iterations, Emerson–Lei passes).
    pub fixpoint_iterations: u64,
    /// States expanded by the explicit-state engine.
    pub states_visited: u64,
    /// Retry attempts consumed by the retry-escalation layer (PR 4).
    pub retries: u64,
    /// Fault-injection probes that fired during this run (PR 4 harness;
    /// zero in production runs).
    pub faults_injected: u64,
    /// Accumulated nanoseconds per [`Phase`], indexed by `Phase::index`.
    phase_ns: [u64; 4],
    trace: Option<Arc<TraceSink>>,
}

impl Stats {
    /// An empty sink labelled with the engine that will fill it.
    pub fn for_engine(engine: EngineKind) -> Stats {
        Stats {
            engine: Some(engine),
            ..Stats::default()
        }
    }

    /// Attaches a JSONL trace sink; span and depth events are mirrored to
    /// it as they are recorded.
    pub fn with_trace(mut self, trace: Option<Arc<TraceSink>>) -> Stats {
        self.trace = trace;
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    fn engine_tag(&self) -> &'static str {
        self.engine.map_or("?", EngineKind::tag)
    }

    /// Adds a SAT solver's cumulative counters (fresh-solver runs: call
    /// once at exit).
    pub fn absorb_sat(&mut self, s: verdict_sat::Stats) {
        self.sat.add(SatCounters::from(s));
        self.runtime.clauses_exported += s.clauses_exported;
        self.runtime.clauses_imported += s.clauses_imported;
        self.runtime.imports_rejected += s.imports_rejected;
        self.runtime.import_hits += s.import_hits;
    }

    /// Adds the delta between two snapshots of a persistent SAT solver
    /// (incremental synthesis keeps solvers alive across assignments).
    pub fn absorb_sat_delta(&mut self, before: verdict_sat::Stats, after: verdict_sat::Stats) {
        let mut d = SatCounters::from(after);
        let b = SatCounters::from(before);
        d.decisions -= b.decisions;
        d.propagations -= b.propagations;
        d.conflicts -= b.conflicts;
        d.restarts -= b.restarts;
        d.learnt_clauses -= b.learnt_clauses;
        d.learnt_literals -= b.learnt_literals;
        d.deleted_clauses -= b.deleted_clauses;
        self.sat.add(d);
        self.runtime.clauses_exported += after.clauses_exported - before.clauses_exported;
        self.runtime.clauses_imported += after.clauses_imported - before.clauses_imported;
        self.runtime.imports_rejected += after.imports_rejected - before.imports_rejected;
        self.runtime.import_hits += after.import_hits - before.import_hits;
    }

    /// Absorbs an SMT solver's counters: its SAT core plus the simplex.
    pub fn absorb_smt(&mut self, smt: &verdict_smt::SmtSolver) {
        self.absorb_sat(smt.sat_stats());
        self.smt.add(SmtCounters {
            pivots: smt.simplex_pivots(),
            bound_flips: smt.simplex_bound_flips(),
            overflow_poisonings: smt.simplex_poisonings(),
        });
    }

    /// Absorbs a BDD manager's counters.
    pub fn absorb_bdd(&mut self, m: &verdict_bdd::BddManager) {
        self.bdd.add(BddCounters::from(m.stats()));
    }

    /// Records the cost of one unrolling depth and mirrors it to the
    /// trace sink.
    pub fn record_depth(&mut self, depth: usize, unroll: Duration, solve: Duration) {
        let sample = DepthSample {
            depth,
            unroll_ns: unroll.as_nanos() as u64,
            solve_ns: solve.as_nanos() as u64,
        };
        if let Some(t) = &self.trace {
            t.depth_event(self.engine_tag(), &sample);
        }
        self.depths.push(sample);
    }

    /// Closes a span: adds its elapsed time to the phase accumulator and
    /// mirrors a span event to the trace sink.
    pub fn end_span(&mut self, timer: SpanTimer) {
        let dur = timer.start.elapsed();
        self.phase_ns[timer.phase.index()] += dur.as_nanos() as u64;
        if let Some(t) = &self.trace {
            t.span_event(self.engine_tag(), timer.phase.tag(), dur);
        }
    }

    /// Accumulated time in `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Folds another run's counters into this one (parameter sweeps sum
    /// their workers' stats). Per-depth samples are per-run artifacts and
    /// are not concatenated; phase and counter totals are summed.
    pub fn merge(&mut self, other: &Stats) {
        self.sat.add(other.sat);
        self.smt.add(other.smt);
        self.bdd.add(other.bdd);
        self.runtime.add(other.runtime);
        self.server.add(other.server);
        self.supervision.add(other.supervision);
        self.fixpoint_iterations += other.fixpoint_iterations;
        self.states_visited += other.states_visited;
        self.retries += other.retries;
        self.faults_injected += other.faults_injected;
        for (acc, v) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *acc += v;
        }
    }

    /// True iff no counter in any group is nonzero (timings ignored).
    pub fn counters_are_zero(&self) -> bool {
        self.sat.is_zero()
            && self.smt.is_zero()
            && self.bdd.is_zero()
            && self.runtime.is_zero()
            && self.server.is_zero()
            && self.supervision.is_zero()
            && self.fixpoint_iterations == 0
            && self.states_visited == 0
            && self.retries == 0
            && self.faults_injected == 0
            && self.depths.is_empty()
    }

    fn counters_body(&self) -> String {
        format!(
            concat!(
                "\"engine\":\"{}\",",
                "\"sat\":{{\"decisions\":{},\"propagations\":{},\"conflicts\":{},",
                "\"restarts\":{},\"learnt_clauses\":{},\"learnt_literals\":{},",
                "\"deleted_clauses\":{}}},",
                "\"smt\":{{\"pivots\":{},\"bound_flips\":{},\"overflow_poisonings\":{}}},",
                "\"bdd\":{{\"nodes_allocated\":{},\"ite_cache_lookups\":{},",
                "\"ite_cache_hits\":{},\"peak_live_nodes\":{},\"partitions\":{},",
                "\"sifts\":{},\"sift_nodes_before\":{},\"sift_nodes_after\":{},",
                "\"cache_clears\":{}}},",
                "\"runtime\":{{\"clauses_exported\":{},\"clauses_imported\":{},",
                "\"imports_rejected\":{},\"import_hits\":{},\"ring_messages\":{},",
                "\"ring_batches\":{},\"parks\":{},\"wakes\":{},\"spurious_wakeups\":{}}},",
                "\"server\":{{\"jobs_accepted\":{},\"jobs_rejected\":{},",
                "\"jobs_queued\":{},\"jobs_running\":{},\"jobs_completed\":{},",
                "\"jobs_recovered\":{},\"wal_appends\":{},\"wal_group_commits\":{},",
                "\"wal_fsyncs\":{},\"wal_rotations\":{}}},",
                "\"supervision\":{{\"heartbeats\":{},\"escalations\":{},",
                "\"hung_workers\":{},\"workers_respawned\":{},",
                "\"hedges_launched\":{},\"hedges_won\":{},\"hedges_lost\":{},",
                "\"hedges_wasted\":{},\"quarantine_hits\":{},\"quarantined\":{}}},",
                "\"fixpoint_iterations\":{},\"states_visited\":{},",
                "\"retries\":{},\"faults_injected\":{},\"depth_samples\":{}"
            ),
            self.engine_tag(),
            self.sat.decisions,
            self.sat.propagations,
            self.sat.conflicts,
            self.sat.restarts,
            self.sat.learnt_clauses,
            self.sat.learnt_literals,
            self.sat.deleted_clauses,
            self.smt.pivots,
            self.smt.bound_flips,
            self.smt.overflow_poisonings,
            self.bdd.nodes_allocated,
            self.bdd.ite_cache_lookups,
            self.bdd.ite_cache_hits,
            self.bdd.peak_live_nodes,
            self.bdd.partitions,
            self.bdd.sifts,
            self.bdd.sift_nodes_before,
            self.bdd.sift_nodes_after,
            self.bdd.cache_clears,
            self.runtime.clauses_exported,
            self.runtime.clauses_imported,
            self.runtime.imports_rejected,
            self.runtime.import_hits,
            self.runtime.ring_messages,
            self.runtime.ring_batches,
            self.runtime.parks,
            self.runtime.wakes,
            self.runtime.spurious_wakeups,
            self.server.jobs_accepted,
            self.server.jobs_rejected,
            self.server.jobs_queued,
            self.server.jobs_running,
            self.server.jobs_completed,
            self.server.jobs_recovered,
            self.server.wal_appends,
            self.server.wal_group_commits,
            self.server.wal_fsyncs,
            self.server.wal_rotations,
            self.supervision.heartbeats,
            self.supervision.escalations,
            self.supervision.hung_workers,
            self.supervision.workers_respawned,
            self.supervision.hedges_launched,
            self.supervision.hedges_won,
            self.supervision.hedges_lost,
            self.supervision.hedges_wasted,
            self.supervision.quarantine_hits,
            self.supervision.quarantined,
            self.fixpoint_iterations,
            self.states_visited,
            self.retries,
            self.faults_injected,
            self.depths.len(),
        )
    }

    /// The deterministic subset of the stats as JSON: counters only, no
    /// timings. Two runs with the same seed and one worker produce equal
    /// strings (the stats-determinism contract).
    pub fn counters_json(&self) -> String {
        format!(
            "{{\"schema\":{},{}}}",
            STATS_SCHEMA_VERSION,
            self.counters_body()
        )
    }

    /// The full stats block as JSON, including per-depth and per-phase
    /// timings. Carries `"schema": 2` (see [`STATS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let depths: Vec<String> = self
            .depths
            .iter()
            .map(|d| {
                format!(
                    "{{\"depth\":{},\"unroll_us\":{},\"solve_us\":{}}}",
                    d.depth,
                    d.unroll_ns / 1_000,
                    d.solve_ns / 1_000
                )
            })
            .collect();
        format!(
            "{{\"schema\":{},{},\"depths\":[{}],\"phases\":{{\"encode_us\":{},\"solve_us\":{},\"certify_us\":{},\"replay_us\":{}}}}}",
            STATS_SCHEMA_VERSION,
            self.counters_body(),
            depths.join(","),
            self.phase_nanos(Phase::Encode) / 1_000,
            self.phase_nanos(Phase::Solve) / 1_000,
            self.phase_nanos(Phase::Certify) / 1_000,
            self.phase_nanos(Phase::Replay) / 1_000,
        )
    }
}

/// A shared JSONL event log (`--trace FILE`). One JSON object per line:
///
/// ```json
/// {"ts_us":1234,"kind":"span","engine":"bmc","phase":"solve","dur_us":87}
/// {"ts_us":1300,"kind":"depth","engine":"bmc","depth":3,"unroll_us":12,"solve_us":60}
/// {"ts_us":1400,"kind":"mark","engine":"portfolio","name":"winner","detail":"bmc"}
/// ```
///
/// `ts_us` is microseconds since the sink was created (emission time).
/// The sink is `Sync`; portfolio contenders on different threads share
/// one via `Arc` and interleave whole lines.
pub struct TraceSink {
    epoch: Instant,
    out: Mutex<Box<dyn io::Write + Send>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A sink writing JSONL to `path` (truncates an existing file).
    pub fn create(path: &Path) -> io::Result<TraceSink> {
        let f = File::create(path)?;
        Ok(TraceSink::from_writer(Box::new(BufWriter::new(f))))
    }

    /// A sink writing JSONL to an arbitrary writer.
    pub fn from_writer(w: Box<dyn io::Write + Send>) -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            out: Mutex::new(w),
        }
    }

    fn emit(&self, body: &str) {
        let ts = self.epoch.elapsed().as_micros();
        let mut g = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // Trace logging is best-effort: a full disk must not fail a check.
        let _ = writeln!(g, "{{\"ts_us\":{ts},{body}}}");
    }

    fn span_event(&self, engine: &str, phase: &str, dur: Duration) {
        self.emit(&format!(
            "\"kind\":\"span\",\"engine\":\"{engine}\",\"phase\":\"{phase}\",\"dur_us\":{}",
            dur.as_micros()
        ));
    }

    fn depth_event(&self, engine: &str, d: &DepthSample) {
        self.emit(&format!(
            "\"kind\":\"depth\",\"engine\":\"{engine}\",\"depth\":{},\"unroll_us\":{},\"solve_us\":{}",
            d.depth,
            d.unroll_ns / 1_000,
            d.solve_ns / 1_000
        ));
    }

    /// Emits a free-form marker event (race winners, retry attempts, …).
    pub fn mark(&self, engine: &str, name: &str, detail: &str) {
        self.emit(&format!(
            "\"kind\":\"mark\",\"engine\":{},\"name\":{},\"detail\":{}",
            quote(engine),
            quote(name),
            quote(detail)
        ));
    }

    /// Flushes buffered events to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap_or_else(|e| e.into_inner()).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_json_is_deterministic_and_versioned() {
        let mut a = Stats::for_engine(EngineKind::Bmc);
        a.sat.decisions = 41;
        a.record_depth(0, Duration::from_micros(10), Duration::from_micros(20));
        let mut b = Stats::for_engine(EngineKind::Bmc);
        b.sat.decisions = 41;
        b.record_depth(0, Duration::from_micros(99), Duration::from_micros(1));
        // Same counters, different timings: the deterministic view agrees.
        assert_eq!(a.counters_json(), b.counters_json());
        assert!(a.counters_json().starts_with("{\"schema\":2,"));
        assert!(a.to_json().contains("\"depths\":[{\"depth\":0,"));
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats::default();
        a.sat.conflicts = 3;
        a.retries = 1;
        let mut b = Stats::default();
        b.sat.conflicts = 4;
        b.bdd.peak_live_nodes = 17;
        a.merge(&b);
        assert_eq!(a.sat.conflicts, 7);
        assert_eq!(a.retries, 1);
        assert_eq!(a.bdd.peak_live_nodes, 17);
    }

    #[test]
    fn span_accumulates_and_traces() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(TraceSink::from_writer(Box::new(Shared(buf.clone()))));
        let mut s = Stats::for_engine(EngineKind::Bdd).with_trace(Some(sink.clone()));
        let t = SpanTimer::begin(Phase::Solve);
        s.end_span(t);
        sink.mark("bdd", "done", "it \"worked\"");
        sink.flush().unwrap();
        let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span\"") && lines[0].contains("\"phase\":\"solve\""));
        assert!(lines[1].contains("\\\"worked\\\""));
        assert!(s.phase_nanos(Phase::Solve) > 0);
        assert_eq!(s.phase_nanos(Phase::Encode), 0);
    }

    #[test]
    fn absorb_sat_delta_subtracts_baseline() {
        let before = verdict_sat::Stats {
            decisions: 10,
            conflicts: 2,
            ..Default::default()
        };
        let after = verdict_sat::Stats {
            decisions: 25,
            conflicts: 7,
            ..Default::default()
        };
        let mut s = Stats::default();
        s.absorb_sat_delta(before, after);
        assert_eq!(s.sat.decisions, 15);
        assert_eq!(s.sat.conflicts, 5);
    }

    #[test]
    fn ite_hit_rate() {
        let b = BddCounters {
            ite_cache_lookups: 8,
            ite_cache_hits: 2,
            ..Default::default()
        };
        assert!((b.ite_hit_rate() - 0.25).abs() < 1e-9);
        assert_eq!(BddCounters::default().ite_hit_rate(), 0.0);
    }
}
