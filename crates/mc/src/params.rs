//! Parameter synthesis over frozen variables.
//!
//! The paper (§4.2, case study 1) asks: *"find safe non-zero values for
//! `p`, given the property and `k = 1`, `m = 1` — the system suggests
//! `p ∈ {1, 2}`."* This module implements that workflow: enumerate the
//! (finite) assignments of chosen frozen parameters, verify the property
//! under each assignment with a complete engine, and partition the space
//! into safe and unsafe values with witnesses for the unsafe ones.
//!
//! Assignments are indexed lazily in odometer order ([`AssignmentSpace`]):
//! the sweep decodes assignment `i` on demand instead of materializing the
//! cross-product up front. They are independent, so the sweep shards them
//! over a worker pool ([`CheckOptions::jobs`], default
//! `available_parallelism()`); the verdict vector keeps odometer order
//! regardless of which worker finished first, so parallel output is
//! identical to a `jobs = 1` run. [`synthesize_first_safe`] additionally
//! stops the sweep as soon as one SAFE assignment is found, cancelling
//! outstanding workers cooperatively (their slots report
//! [`UnknownReason::Cancelled`]).
//!
//! For invariants under the k-induction engine the sweep defaults to the
//! **incremental** path ([`crate::incremental`]): each worker keeps one
//! assumption-pinned [`PinnedKInduction`] engine for its whole shard, so
//! learned clauses and solver heuristics transfer between assignments, and
//! unsat-core pruning lets assignments differing only in parameters that
//! never entered a proof inherit the `Holds` verdict without a solve.
//! `CheckOptions::with_incremental(false)` forces the original
//! clone-per-assignment path; with [`CheckOptions::certify`] every
//! incremental verdict (inherited ones included) is re-proved with fresh
//! proof-logged solvers before being reported.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use verdict_ring::{ring, Consumer, Doorbell, Published, PublishedReader};
use verdict_sat::ClauseHub;
use verdict_ts::{Expr, System, Trace, Value, VarId};

use verdict_journal::fault;

use crate::durable::Durability;
use crate::incremental::{HoldsPattern, PinnedKInduction, PinnedOutcome};
use crate::result::{Budget, CheckOptions, CheckResult, McError, UnknownReason};
use crate::stats::RuntimeCounters;

/// The property being synthesized against: an invariant or an LTL
/// property (a sweep rejects CTL).
pub use verdict_ts::Property;

/// Verdict for one parameter assignment.
#[derive(Clone, Debug)]
pub struct ParamVerdict {
    /// Values of the synthesized parameters, in the order given to
    /// [`synthesize`].
    pub values: Vec<Value>,
    /// The verification outcome under this assignment.
    pub result: CheckResult,
    /// Attempts spent on the verdict: 1 for a first-try result, more when
    /// a [`crate::RetryPolicy`] re-ran an infrastructure failure. Resumed
    /// verdicts keep the attempt count recorded in the journal.
    pub attempts: u32,
}

/// Aggregated synthesis output.
#[derive(Clone, Debug, Default)]
pub struct SynthesisResult {
    /// Names of the synthesized parameters.
    pub param_names: Vec<String>,
    /// One verdict per enumerated assignment.
    pub verdicts: Vec<ParamVerdict>,
    /// Parallel-runtime counters for the sweep: clause-sharing traffic
    /// summed over the workers' persistent solvers plus the collector's
    /// ring/parking activity. All zero for a sequential (`jobs = 1`)
    /// sweep without a pre-installed sharing hub.
    pub runtime: RuntimeCounters,
}

impl SynthesisResult {
    /// Assignments under which the property was proved.
    pub fn safe(&self) -> Vec<&[Value]> {
        self.verdicts
            .iter()
            .filter(|v| v.result.holds())
            .map(|v| v.values.as_slice())
            .collect()
    }

    /// Assignments with a counterexample.
    pub fn unsafe_values(&self) -> Vec<(&[Value], &Trace)> {
        self.verdicts
            .iter()
            .filter_map(|v| v.result.trace().map(|t| (v.values.as_slice(), t)))
            .collect()
    }

    /// True iff any assignment failed to get a verdict for a reason other
    /// than cooperative cancellation. Cancelled slots are the *expected*
    /// outcome of a successful [`synthesize_first_safe`] sweep (the tail
    /// is skipped on purpose), not a verification failure — see
    /// [`SynthesisResult::has_cancelled`] for those.
    pub fn has_unknown(&self) -> bool {
        self.verdicts
            .iter()
            .any(|v| matches!(&v.result, CheckResult::Unknown(r) if *r != UnknownReason::Cancelled))
    }

    /// True iff any assignment was skipped by cooperative cancellation
    /// (first-safe early exit or a caller stop flag).
    pub fn has_cancelled(&self) -> bool {
        self.verdicts
            .iter()
            .any(|v| matches!(&v.result, CheckResult::Unknown(UnknownReason::Cancelled)))
    }
}

impl fmt::Display for SynthesisResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "parameter synthesis over ({})",
            self.param_names.join(", ")
        )?;
        for v in &self.verdicts {
            let vals: Vec<String> = v.values.iter().map(Value::to_string).collect();
            let verdict = match &v.result {
                CheckResult::Holds => "SAFE".to_string(),
                CheckResult::Violated(_) => "UNSAFE".to_string(),
                CheckResult::Unknown(UnknownReason::Cancelled) => "SKIPPED (cancelled)".to_string(),
                CheckResult::Unknown(r) => format!("UNKNOWN ({r})"),
            };
            writeln!(f, "  ({}) -> {verdict}", vals.join(", "))?;
        }
        Ok(())
    }
}

/// The complete engine used per assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthesisEngine {
    /// k-induction (safety only).
    KInduction,
    /// BDD fixpoints (safety and LTL).
    Bdd,
    /// Explicit state (safety and LTL; tiny models only).
    Explicit,
}

impl SynthesisEngine {
    /// Stable lowercase tag used in journal headers.
    pub fn tag(self) -> &'static str {
        match self {
            SynthesisEngine::KInduction => "kind",
            SynthesisEngine::Bdd => "bdd",
            SynthesisEngine::Explicit => "explicit",
        }
    }

    /// The [`EngineKind`](crate::engine::EngineKind) this synthesis engine
    /// dispatches to.
    pub fn kind(self) -> crate::engine::EngineKind {
        match self {
            SynthesisEngine::KInduction => crate::engine::EngineKind::KInduction,
            SynthesisEngine::Bdd => crate::engine::EngineKind::Bdd,
            SynthesisEngine::Explicit => crate::engine::EngineKind::Explicit,
        }
    }
}

/// The assignment cross-product in odometer order (the first parameter
/// varies fastest — the order the original sequential sweep visited, which
/// callers and tests rely on), indexed lazily: assignment `i` is decoded
/// from its mixed-radix index on demand, so the sweep never materializes
/// the whole product.
#[derive(Clone, Debug)]
pub struct AssignmentSpace {
    domains: Vec<Vec<Value>>,
    total: usize,
}

impl AssignmentSpace {
    /// Builds the space over the given per-parameter domains. Errors if
    /// the product size overflows `usize`.
    pub fn new(domains: Vec<Vec<Value>>) -> Result<AssignmentSpace, McError> {
        let mut total = 1usize;
        for d in &domains {
            total = total
                .checked_mul(d.len())
                .ok_or_else(|| McError("parameter space size overflows usize".to_string()))?;
        }
        Ok(AssignmentSpace { domains, total })
    }

    /// Number of assignments in the space (1 for an empty parameter list:
    /// the single empty assignment).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True iff the space has no assignments (some domain is empty).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Decodes assignment `idx` (odometer order, first parameter fastest).
    pub fn get(&self, idx: usize) -> Vec<Value> {
        debug_assert!(idx < self.total);
        let mut i = idx;
        self.domains
            .iter()
            .map(|d| {
                let v = d[i % d.len()].clone();
                i /= d.len();
                v
            })
            .collect()
    }

    /// All assignments, lazily, in odometer order.
    pub fn iter(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.total).map(|i| self.get(i))
    }
}

/// Clones `sys` with `params` pinned to `assignment` via INVAR
/// constraints: frozen variables are constant, so INVAR equals INIT on
/// executions, but INVAR also constrains free-start engines (k-induction's
/// step case).
pub(crate) fn pin_system(sys: &System, params: &[VarId], assignment: &[Value]) -> System {
    let mut pinned = sys.clone();
    for (&p, v) in params.iter().zip(assignment) {
        pinned.add_invar(Expr::var(p).eq(Expr::Const(v.clone())));
    }
    pinned
}

/// Verifies the property on `sys` with `params` pinned to `assignment`.
fn check_assignment(
    sys: &System,
    params: &[VarId],
    assignment: &[Value],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
) -> Result<CheckResult, McError> {
    let pinned = pin_system(sys, params, assignment);
    // Per-assignment counters land in a scratch sink: sweep-level
    // observability tracks verdicts and retries, not per-pin solver work.
    let mut stats = crate::stats::Stats::default();
    crate::engine::run(engine.kind(), &pinned, property, opts, &mut stats)
}

fn report_panic(assignment: &[Value], payload: &(dyn std::any::Any + Send)) {
    let msg = crate::engine::panic_message(payload);
    let vals: Vec<String> = assignment.iter().map(Value::to_string).collect();
    eprintln!(
        "verdict-mc: synthesis worker panicked on ({}): {msg}",
        vals.join(", ")
    );
}

/// A contained check outcome plus the induction depth when the engine
/// reports one — recorded in the journal so a certified resume can
/// re-prove the verdict at that depth.
struct Checked {
    result: CheckResult,
    depth: Option<usize>,
}

impl Checked {
    fn plain(result: CheckResult) -> Checked {
        Checked {
            result,
            depth: None,
        }
    }
}

/// [`check_assignment`] with panic containment: an engine crash on one
/// assignment becomes `Unknown(EngineFailure)` for that slot instead of
/// poisoning the whole sweep (the payload is reported on stderr).
fn check_assignment_contained(
    sys: &System,
    params: &[VarId],
    assignment: &[Value],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
) -> Result<Checked, McError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Fault-injection probe at site `mc.synth.worker`, inside the
        // containment boundary so an injected panic exercises it.
        fault::panic_if_armed("mc.synth.worker");
        check_assignment(sys, params, assignment, property, engine, opts).map(Checked::plain)
    }))
    .unwrap_or_else(|payload| {
        report_panic(assignment, payload.as_ref());
        Ok(Checked::plain(CheckResult::Unknown(
            UnknownReason::EngineFailure,
        )))
    })
}

/// A worker's persistent incremental state: one lazily-built
/// [`PinnedKInduction`] engine plus a read handle on the sweep-wide pool
/// of transferable `Holds` patterns.
struct IncrementalChecker<'a> {
    engine: Option<PinnedKInduction<'a>>,
    sys: &'a System,
    params: &'a [VarId],
    prop: &'a Expr,
    patterns: PublishedReader<HoldsPattern>,
    /// Clause-sharing hub for sibling workers' base solvers; the engine
    /// attaches an endpoint when (re)built.
    hub: Option<Arc<ClauseHub>>,
}

impl IncrementalChecker<'_> {
    fn check(&mut self, assignment: &[Value], opts: &CheckOptions) -> Result<Checked, McError> {
        // Core-pruned inheritance: a previous Holds proof whose unsat
        // cores ignored every parameter this assignment differs in
        // transfers verbatim. The epoch-read store may serve a snapshot
        // one publish behind — a missed pattern only costs a redundant
        // solve, never a wrong answer.
        let inherited = self
            .patterns
            .read()
            .iter()
            .find(|p| p.matches(assignment))
            .map(|p| p.depth);
        if let Some(depth) = inherited {
            if !opts.certify {
                return Ok(Checked {
                    result: CheckResult::Holds,
                    depth: Some(depth),
                });
            }
            // Certification never trusts the transfer argument: re-prove
            // the inherited verdict at the recorded depth with fresh
            // proof-logged solvers; on failure fall through to a full
            // incremental solve.
            let budget = Budget::new(opts);
            let pinned = pin_system(self.sys, self.params, assignment);
            if crate::certify::recheck_induction(&pinned, self.prop, depth, &budget).is_ok() {
                return Ok(Checked {
                    result: CheckResult::Holds,
                    depth: Some(depth),
                });
            }
        }
        let engine = match &mut self.engine {
            Some(e) => e,
            None => {
                let mut e = PinnedKInduction::new(self.sys, self.params, self.prop)?;
                if let Some(hub) = &self.hub {
                    // Best-effort: a hub out of endpoints (e.g. after a
                    // panic-triggered rebuild) just means this worker
                    // solves without sharing.
                    e.attach_sharing(hub);
                }
                self.engine.insert(e)
            }
        };
        match engine.check(assignment, opts)? {
            PinnedOutcome::Violated(trace) => {
                if opts.certify {
                    let pinned = pin_system(self.sys, self.params, assignment);
                    Ok(Checked::plain(crate::certify::gate_invariant_cex(
                        &pinned, self.prop, trace,
                    )))
                } else {
                    Ok(Checked::plain(CheckResult::Violated(trace)))
                }
            }
            PinnedOutcome::Holds { depth, relevant } => {
                let result = if opts.certify {
                    let budget = Budget::new(opts);
                    let pinned = pin_system(self.sys, self.params, assignment);
                    crate::certify::gate_holds(
                        "k-induction",
                        crate::certify::recheck_induction(&pinned, self.prop, depth, &budget),
                    )
                } else {
                    CheckResult::Holds
                };
                if result.holds() && relevant.iter().any(|&r| !r) {
                    self.patterns.publish(HoldsPattern {
                        values: assignment.to_vec(),
                        relevant,
                        depth,
                    });
                }
                let depth = result.holds().then_some(depth);
                Ok(Checked { result, depth })
            }
            PinnedOutcome::Unknown(r) => Ok(Checked::plain(CheckResult::Unknown(r))),
        }
    }

    fn check_contained(
        &mut self,
        assignment: &[Value],
        opts: &CheckOptions,
    ) -> Result<Checked, McError> {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Fault-injection probe, inside containment (see the clone
            // path in `check_assignment_contained`).
            fault::panic_if_armed("mc.synth.worker");
            self.check(assignment, opts)
        }));
        res.unwrap_or_else(|payload| {
            // The shared engine may be mid-update; rebuild it from scratch
            // on the next assignment rather than trusting its state.
            self.engine = None;
            report_panic(assignment, payload.as_ref());
            Ok(Checked::plain(CheckResult::Unknown(
                UnknownReason::EngineFailure,
            )))
        })
    }
}

/// One worker's checking strategy for the sweep.
enum Checker<'a> {
    /// Clone the system and pin parameters with INVAR per assignment.
    Clone,
    /// Shared-unrolling assumption pinning ([`crate::incremental`]).
    /// Boxed: the engine carries two unrollings and two solvers, far
    /// larger than the dataless `Clone` variant.
    Incremental(Box<IncrementalChecker<'a>>),
}

impl Checker<'_> {
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        sys: &System,
        params: &[VarId],
        assignment: &[Value],
        property: &Property,
        engine: SynthesisEngine,
        opts: &CheckOptions,
    ) -> Result<Checked, McError> {
        match self {
            Checker::Clone => {
                check_assignment_contained(sys, params, assignment, property, engine, opts)
            }
            Checker::Incremental(inc) => inc.check_contained(assignment, opts),
        }
    }

    /// [`Checker::check`] under the sweep's retry policy: a verdict of
    /// `Unknown` with a [retryable](UnknownReason::retryable) reason is
    /// re-run with escalated budgets (each failed attempt journaled)
    /// until it decides, stops being retryable, or the attempt cap is
    /// hit. Returns the final outcome and the attempts spent.
    #[allow(clippy::too_many_arguments)]
    fn check_with_retry(
        &mut self,
        sys: &System,
        params: &[VarId],
        idx: usize,
        assignment: &[Value],
        property: &Property,
        engine: SynthesisEngine,
        opts: &CheckOptions,
        durability: &Durability<'_>,
    ) -> Result<(Checked, u32), McError> {
        let max_attempts = opts.retry.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut attempt = 1u32;
        loop {
            let run_opts = match &opts.retry {
                Some(policy) if attempt > 1 => policy.escalate(opts, attempt),
                _ => opts.clone(),
            };
            let checked = self.check(sys, params, assignment, property, engine, &run_opts)?;
            let reason = match &checked.result {
                CheckResult::Unknown(r) if r.retryable() => *r,
                _ => return Ok((checked, attempt)),
            };
            if attempt >= max_attempts {
                return Ok((checked, attempt));
            }
            durability.record_attempt(idx, attempt, reason);
            if let Some(policy) = &opts.retry {
                let pause = policy.backoff_for(idx as u64, attempt + 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            attempt += 1;
        }
    }

    /// Clause-sharing counters of this worker's persistent solver, read
    /// once at worker exit (the clone path creates throwaway engines and
    /// reports nothing here).
    fn runtime_counters(&self) -> RuntimeCounters {
        match self {
            Checker::Clone => RuntimeCounters::default(),
            Checker::Incremental(inc) => match &inc.engine {
                Some(e) => {
                    let s = e.base_solver_stats();
                    RuntimeCounters {
                        clauses_exported: s.clauses_exported,
                        clauses_imported: s.clauses_imported,
                        imports_rejected: s.imports_rejected,
                        import_hits: s.import_hits,
                        ..RuntimeCounters::default()
                    }
                }
                None => RuntimeCounters::default(),
            },
        }
    }
}

/// Shards the assignments of `space` over `opts.effective_jobs()` workers
/// and returns the verdicts in input (odometer) order, plus the sweep's
/// parallel-runtime counters.
///
/// Each worker publishes results into its own SPSC ring and rings a
/// shared [`Doorbell`]; the collector parks between results instead of
/// polling a channel, draining whole batches per wakeup. In incremental
/// mode the workers' base solvers exchange learnt clauses through a
/// [`ClauseHub`] (all workers unroll the identical unpinned system, and
/// assumption pins never enter the clause database, so everything any of
/// them learns is sound for the others — the solver-side prefix guard
/// enforces exactly that).
///
/// With `stop_at_first_safe`, the first `Holds` verdict raises a shared
/// stop flag: outstanding workers exit cooperatively and unvisited
/// assignments report `Unknown(Cancelled)`. A worker error is returned for
/// the smallest-index erroring assignment, matching what the sequential
/// sweep would have hit first.
#[allow(clippy::too_many_arguments)]
fn run_assignments(
    sys: &System,
    params: &[VarId],
    space: &AssignmentSpace,
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
    stop_at_first_safe: bool,
    durability: &Durability<'_>,
) -> Result<(Vec<ParamVerdict>, RuntimeCounters), McError> {
    // The incremental path handles invariants under k-induction and is
    // the default there; `with_incremental(false)` forces the clone path.
    let inc_prop: Option<&Expr> = match (property, engine) {
        (Property::Invariant(p), SynthesisEngine::KInduction)
            if opts.incremental.unwrap_or(true) =>
        {
            Some(p)
        }
        _ => None,
    };
    let patterns = Arc::new(Published::<HoldsPattern>::new());
    let make_checker = |hub: Option<Arc<ClauseHub>>| match inc_prop {
        Some(prop) => Checker::Incremental(Box::new(IncrementalChecker {
            engine: None,
            sys,
            params,
            prop,
            patterns: patterns.reader(),
            hub,
        })),
        None => Checker::Clone,
    };

    let n = space.len();
    let jobs = opts.effective_jobs().min(n.max(1));
    if jobs <= 1 {
        // Sequential: no hub unless the caller pre-installed one, so a
        // `jobs = 1` sweep stays deterministic and sharing-free.
        let mut checker = make_checker(if opts.sharing {
            opts.share_hub.clone()
        } else {
            None
        });
        let mut verdicts = Vec::with_capacity(n);
        let mut found_safe = false;
        for idx in 0..n {
            let a = space.get(idx);
            let (result, attempts) = if let Some((result, attempts)) = durability.resumed(idx) {
                // Already durably decided by a previous run: skip the
                // solve, don't re-journal.
                found_safe |= result.holds();
                (result, attempts)
            } else if found_safe && stop_at_first_safe {
                (CheckResult::Unknown(UnknownReason::Cancelled), 0)
            } else {
                let (checked, attempts) = checker
                    .check_with_retry(sys, params, idx, &a, property, engine, opts, durability)?;
                found_safe |= checked.result.holds();
                durability.record_verdict(idx, &a, &checked.result, attempts, checked.depth);
                (checked.result, attempts)
            };
            verdicts.push(ParamVerdict {
                values: a,
                result,
                attempts,
            });
        }
        return Ok((verdicts, checker.runtime_counters()));
    }

    let pool_stop = Arc::new(AtomicBool::new(false));
    let caller_stop = opts.stop.clone();
    // Learned-clause sharing between the workers' persistent base
    // solvers (incremental mode only — the clone path builds per-pin
    // systems whose clause streams differ, so there is nothing sound to
    // exchange). Sized 2× jobs: a worker whose engine was rebuilt after
    // a contained panic takes a fresh endpoint.
    let hub = (opts.sharing && opts.share_hub.is_none() && inc_prop.is_some())
        .then(|| ClauseHub::new(jobs * 2));
    let worker_opts = CheckOptions {
        stop: Some(pool_stop.clone()),
        ..opts.clone()
    };
    let next = AtomicUsize::new(0);
    type Slot = Result<(CheckResult, u32), McError>;
    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();

    // One result ring per worker plus a shared doorbell (built on this
    // thread: the collector below parks on it). Workers' sharing
    // counters are folded into `worker_runtime` once, at worker exit.
    let mut producers = Vec::with_capacity(jobs);
    let mut consumers: Vec<Consumer<(usize, Slot)>> = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let (p, c) = ring::<(usize, Slot)>(64);
        producers.push(p);
        consumers.push(c);
    }
    let bell = Doorbell::new();
    let finished = AtomicUsize::new(0);
    let worker_runtime = Mutex::new(RuntimeCounters::default());

    // Increments the finished count and rings the collector no matter
    // how the worker exits, so a dead worker can never strand a parked
    // collector.
    struct FinishGuard<'a> {
        finished: &'a AtomicUsize,
        bell: &'a Doorbell,
    }
    impl Drop for FinishGuard<'_> {
        fn drop(&mut self) {
            self.finished.fetch_add(1, Ordering::Release);
            self.bell.ring();
        }
    }

    let mut runtime = std::thread::scope(|scope| {
        let make_checker = &make_checker;
        for mut tx in producers {
            let next = &next;
            let pool_stop = pool_stop.clone();
            let worker_opts = worker_opts.clone();
            let hub = hub.clone();
            let (bell, finished, worker_runtime) = (&bell, &finished, &worker_runtime);
            scope.spawn(move || {
                let _guard = FinishGuard { finished, bell };
                // One persistent checker per worker: in incremental mode
                // its solvers survive every assignment this worker claims.
                let mut checker = make_checker(hub);
                // Publish a result and ring the collector; when the ring
                // is full (collector far behind), nudge it and yield
                // until a slot frees up — the payload is never dropped.
                let send = |tx: &mut verdict_ring::Producer<(usize, Slot)>,
                            mut msg: (usize, Slot)| {
                    loop {
                        match tx.push(msg) {
                            Ok(()) => break,
                            Err(back) => {
                                msg = back;
                                bell.ring();
                                std::thread::yield_now();
                            }
                        }
                    }
                    bell.ring();
                };
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    if let Some((result, attempts)) = durability.resumed(idx) {
                        // Durably decided by a previous run: skip the
                        // solve, don't re-journal.
                        if stop_at_first_safe && result.holds() {
                            pool_stop.store(true, Ordering::Relaxed);
                        }
                        send(&mut tx, (idx, Ok((result, attempts))));
                        continue;
                    }
                    if pool_stop.load(Ordering::Relaxed) {
                        // The sweep is already decided (first-safe hit or
                        // caller cancellation); don't start new work.
                        send(
                            &mut tx,
                            (idx, Ok((CheckResult::Unknown(UnknownReason::Cancelled), 0))),
                        );
                        continue;
                    }
                    let a = space.get(idx);
                    let res = checker.check_with_retry(
                        sys,
                        params,
                        idx,
                        &a,
                        property,
                        engine,
                        &worker_opts,
                        durability,
                    );
                    let res = match res {
                        Ok((checked, attempts)) => {
                            if stop_at_first_safe && checked.result.holds() {
                                pool_stop.store(true, Ordering::Relaxed);
                            }
                            durability.record_verdict(
                                idx,
                                &a,
                                &checked.result,
                                attempts,
                                checked.depth,
                            );
                            Ok((checked.result, attempts))
                        }
                        Err(e) => Err(e),
                    };
                    send(&mut tx, (idx, res));
                }
                let mine = checker.runtime_counters();
                worker_runtime
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .add(mine);
            });
        }

        let mut received = 0;
        let mut collector = RuntimeCounters::default();
        // Only wake on a timer when there is a caller-side stop flag
        // that nobody rings for; otherwise park until results arrive.
        let tick = caller_stop.as_ref().map(|_| Duration::from_millis(25));
        loop {
            // Forward caller-side cancellation into the pool.
            if caller_stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                pool_stop.store(true, Ordering::Relaxed);
            }
            let mut batch = 0u64;
            for rx in consumers.iter_mut() {
                let got = rx.drain(|(idx, res)| {
                    slots[idx] = Some(res);
                });
                batch += got as u64;
                received += got;
            }
            if batch > 0 {
                collector.ring_messages += batch;
                collector.ring_batches += 1;
            }
            if received >= n {
                break;
            }
            if batch == 0 && finished.load(Ordering::Acquire) >= jobs {
                // Every worker exited and the rings are dry: a worker
                // died without reporting (its slots stay `None`).
                break;
            }
            bell.wait(tick, || {
                finished.load(Ordering::Acquire) >= jobs
                    || consumers.iter_mut().any(|rx| !rx.is_empty())
            });
        }
        let d = bell.counters();
        collector.parks = d.parks;
        collector.wakes = d.wakes;
        collector.spurious_wakeups = d.spurious_wakeups;
        collector
    });
    runtime.add(*worker_runtime.lock().unwrap_or_else(|e| e.into_inner()));

    let mut verdicts = Vec::with_capacity(n);
    for (idx, slot) in slots.into_iter().enumerate() {
        let values = space.get(idx);
        match slot {
            Some(Ok((result, attempts))) => verdicts.push(ParamVerdict {
                values,
                result,
                attempts,
            }),
            Some(Err(e)) => return Err(e),
            None => verdicts.push(ParamVerdict {
                values,
                result: CheckResult::Unknown(UnknownReason::Cancelled),
                attempts: 0,
            }),
        }
    }
    Ok((verdicts, runtime))
}

/// The one gate on what a sweep can run: invariants and LTL properties
/// (k-induction proves invariants only) over finite parameters. Returns
/// the parameter names and the assignment space.
pub(crate) fn validate_and_enumerate(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
) -> Result<(Vec<String>, AssignmentSpace), McError> {
    match (property, engine) {
        (Property::Ctl(_), _) => {
            return Err(McError(
                "synthesis supports invariant and LTL properties".to_string(),
            ))
        }
        (Property::Ltl(_), SynthesisEngine::KInduction) => {
            return Err(McError(
                "k-induction synthesizes safety properties only".to_string(),
            ))
        }
        _ => {}
    }
    for &p in params {
        if !sys.sort_of(p).is_finite() {
            return Err(McError(format!(
                "cannot enumerate real-sorted parameter {}",
                sys.name_of(p)
            )));
        }
    }
    let domains: Vec<Vec<Value>> = params.iter().map(|&p| sys.sort_of(p).values()).collect();
    let names = params.iter().map(|&p| sys.name_of(p).to_string()).collect();
    Ok((names, AssignmentSpace::new(domains)?))
}

/// Enumerates every assignment of `params` (all must have finite sorts)
/// and verifies the property under each, sharding assignments over
/// `opts.effective_jobs()` worker threads.
///
/// The remaining frozen variables stay symbolic (universally quantified by
/// the underlying engine). Verdict order is the sequential odometer order
/// whatever the worker count.
pub fn synthesize(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
) -> Result<SynthesisResult, McError> {
    synthesize_durable(sys, params, property, engine, opts, &Durability::none())
}

/// [`synthesize`] with durability hooks: completed verdicts are appended
/// to `durability.recorder`'s journal as workers finish, and assignments
/// already decided in `durability.resume` are skipped (their recorded
/// verdict and attempt count reported as-is).
pub fn synthesize_durable(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
    durability: &Durability<'_>,
) -> Result<SynthesisResult, McError> {
    let (param_names, space) = validate_and_enumerate(sys, params, property, engine)?;
    let (verdicts, runtime) = run_assignments(
        sys, params, &space, property, engine, opts, false, durability,
    )?;
    Ok(SynthesisResult {
        param_names,
        verdicts,
        runtime,
    })
}

/// Like [`synthesize`], but stops the sweep at the first SAFE assignment:
/// the winning worker raises a shared stop flag, outstanding workers exit
/// cooperatively, and every assignment not fully checked reports
/// `Unknown(Cancelled)`.
///
/// Use this when any one safe configuration is enough (the paper's
/// "suggest safe parameters" workflow) — on sweeps where most values are
/// safe it turns a full cross-product scan into a near-constant-time
/// query.
pub fn synthesize_first_safe(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
) -> Result<SynthesisResult, McError> {
    synthesize_first_safe_durable(sys, params, property, engine, opts, &Durability::none())
}

/// [`synthesize_first_safe`] with durability hooks (see
/// [`synthesize_durable`]). A resumed SAFE verdict stops the sweep just
/// like a freshly proved one.
pub fn synthesize_first_safe_durable(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
    durability: &Durability<'_>,
) -> Result<SynthesisResult, McError> {
    let (param_names, space) = validate_and_enumerate(sys, params, property, engine)?;
    let (verdicts, runtime) = run_assignments(
        sys, params, &space, property, engine, opts, true, durability,
    )?;
    Ok(SynthesisResult {
        param_names,
        verdicts,
        runtime,
    })
}

/// Convenience for the falsification direction the paper also uses: leave
/// the parameters symbolic and let BMC pick violating values (they appear
/// in the returned trace, constant over time since parameters are frozen).
pub fn find_violating_params(
    sys: &System,
    property: &Property,
    opts: &CheckOptions,
) -> Result<CheckResult, McError> {
    crate::engine::check(sys, property, crate::engine::EngineKind::Bmc, opts).map(|r| r.result)
}

/// Guard for empty parameter lists in [`synthesize`] callers: with no
/// parameters the function still runs exactly one verification.
pub fn no_params_is_single_check(result: &SynthesisResult) -> bool {
    result.param_names.is_empty() && result.verdicts.len() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::Ltl;

    /// Step counter: n += p (saturating at 10); G(n != target) safety.
    fn step_counter() -> (System, VarId) {
        let mut sys = System::new("step");
        let n = sys.int_var("n", 0, 10);
        let p = sys.int_param("p", 1, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).le(Expr::int(7)),
            Expr::var(n).add(Expr::var(p)),
            Expr::var(n),
        )));
        (sys, p)
    }

    #[test]
    fn synthesis_partitions_parameter_space() {
        let (sys, p) = step_counter();
        // n hits 5 exactly iff p=1 (0,1,..) or p=5... p∈{1..3}: p=1 yes,
        // p=2 (0,2,4,6,8,10) no, p=3 (0,3,6,9,10?) 9+3 clamps... n<=7
        // guard: from 9 no step (9>7) stays 9. So p=3 path: 0,3,6,9,9...
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = synthesize(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(r.verdicts.len(), 3);
        let safe = r.safe();
        assert_eq!(safe.len(), 2, "{r}");
        assert!(safe.contains(&&[Value::Int(2)][..]));
        assert!(safe.contains(&&[Value::Int(3)][..]));
        let unsafe_ = r.unsafe_values();
        assert_eq!(unsafe_.len(), 1);
        assert_eq!(unsafe_[0].0, &[Value::Int(1)][..]);
        assert!(!r.has_unknown());
    }

    #[test]
    fn engines_agree_on_synthesis() {
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(6)));
        let opts = CheckOptions::default();
        let a = synthesize(&sys, &[p], &prop, SynthesisEngine::KInduction, &opts).unwrap();
        let b = synthesize(&sys, &[p], &prop, SynthesisEngine::Bdd, &opts).unwrap();
        let c = synthesize(&sys, &[p], &prop, SynthesisEngine::Explicit, &opts).unwrap();
        for ((x, y), z) in a.verdicts.iter().zip(&b.verdicts).zip(&c.verdicts) {
            assert_eq!(x.result.holds(), y.result.holds(), "kind vs bdd");
            assert_eq!(y.result.holds(), z.result.holds(), "bdd vs explicit");
        }
    }

    #[test]
    fn ltl_synthesis_via_bdd() {
        // p chooses whether x eventually latches: F G x holds iff p = 1.
        let mut sys = System::new("latchable");
        let x = sys.bool_var("x");
        let p = sys.int_param("p", 0, 1);
        sys.add_init(Expr::var(x));
        // p=1: x stays true. p=0: x flips forever.
        sys.add_trans(Expr::ite(
            Expr::var(p).eq(Expr::int(1)),
            Expr::next(x).eq(Expr::var(x)),
            Expr::next(x).eq(Expr::var(x).not()),
        ));
        let prop = Property::Ltl(Ltl::atom(Expr::var(x)).always().eventually());
        let r = synthesize(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::Bdd,
            &CheckOptions::default(),
        )
        .unwrap();
        let safe = r.safe();
        assert_eq!(safe, vec![&[Value::Int(1)][..]], "{r}");
    }

    #[test]
    fn lazy_odometer_matches_eager_reference() {
        // The eager cross-product this sweep used to materialize, kept
        // here as the order oracle: first parameter varies fastest.
        fn eager(domains: &[Vec<Value>]) -> Vec<Vec<Value>> {
            let mut out = Vec::new();
            let mut indices = vec![0usize; domains.len()];
            'outer: loop {
                out.push(
                    indices
                        .iter()
                        .zip(domains)
                        .map(|(&i, d)| d[i].clone())
                        .collect(),
                );
                let mut pos = 0;
                loop {
                    if pos == indices.len() {
                        break 'outer;
                    }
                    indices[pos] += 1;
                    if indices[pos] < domains[pos].len() {
                        break;
                    }
                    indices[pos] = 0;
                    pos += 1;
                }
            }
            out
        }
        let domains = vec![
            vec![Value::Int(0), Value::Int(1), Value::Int(2)],
            vec![Value::Bool(false), Value::Bool(true)],
            vec![Value::Int(7), Value::Int(8)],
        ];
        let reference = eager(&domains);
        let space = AssignmentSpace::new(domains).unwrap();
        assert_eq!(space.len(), reference.len());
        for (i, a) in reference.iter().enumerate() {
            assert_eq!(&space.get(i), a, "index {i}");
        }
        assert_eq!(space.iter().collect::<Vec<_>>(), reference);
        // Empty parameter list = exactly one empty assignment.
        let empty = AssignmentSpace::new(Vec::new()).unwrap();
        assert_eq!(empty.len(), 1);
        assert!(empty.get(0).is_empty());
    }

    #[test]
    fn parallel_sweep_matches_sequential_order() {
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let baseline = synthesize(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1),
        )
        .unwrap();
        for jobs in 2..=4 {
            let r = synthesize(
                &sys,
                &[p],
                &prop,
                SynthesisEngine::KInduction,
                &CheckOptions::default().with_jobs(jobs),
            )
            .unwrap();
            assert_eq!(r.verdicts.len(), baseline.verdicts.len());
            for (x, y) in baseline.verdicts.iter().zip(&r.verdicts) {
                assert_eq!(x.values, y.values, "jobs={jobs}");
                assert_eq!(x.result.holds(), y.result.holds(), "jobs={jobs}");
                assert_eq!(x.result.violated(), y.result.violated(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn incremental_sweep_matches_clone_sweep() {
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        for jobs in [1, 4] {
            for certify in [false, true] {
                let mut base = CheckOptions::default().with_jobs(jobs);
                if certify {
                    base = base.with_certify();
                }
                let cloned = synthesize(
                    &sys,
                    &[p],
                    &prop,
                    SynthesisEngine::KInduction,
                    &base.clone().with_incremental(false),
                )
                .unwrap();
                let inc = synthesize(
                    &sys,
                    &[p],
                    &prop,
                    SynthesisEngine::KInduction,
                    &base.with_incremental(true),
                )
                .unwrap();
                assert_eq!(cloned.verdicts.len(), inc.verdicts.len());
                for (x, y) in cloned.verdicts.iter().zip(&inc.verdicts) {
                    assert_eq!(x.values, y.values, "jobs={jobs} certify={certify}");
                    assert_eq!(
                        x.result.holds(),
                        y.result.holds(),
                        "jobs={jobs} certify={certify} values={:?}",
                        x.values
                    );
                    assert_eq!(
                        x.result.violated(),
                        y.result.violated(),
                        "jobs={jobs} certify={certify} values={:?}",
                        x.values
                    );
                }
            }
        }
    }

    #[test]
    fn core_pruning_agrees_with_clone_path() {
        // q is irrelevant to the property (it only drives the x toggle),
        // so the incremental sweep inherits q-siblings of each safe p via
        // core pruning — the verdict partition must still match the clone
        // path on the full 12-assignment product.
        let (mut sys, p) = step_counter();
        let q = sys.int_param("q", 0, 3);
        let x = sys.bool_var("x");
        sys.add_trans(Expr::next(x).eq(Expr::ite(
            Expr::var(q).ge(Expr::int(2)),
            Expr::var(x).not(),
            Expr::var(x),
        )));
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let cloned = synthesize(
            &sys,
            &[p, q],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1).with_incremental(false),
        )
        .unwrap();
        let inc = synthesize(
            &sys,
            &[p, q],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1).with_incremental(true),
        )
        .unwrap();
        assert_eq!(cloned.verdicts.len(), 12);
        assert_eq!(inc.verdicts.len(), 12);
        for (x, y) in cloned.verdicts.iter().zip(&inc.verdicts) {
            assert_eq!(x.values, y.values);
            assert_eq!(x.result.holds(), y.result.holds(), "values={:?}", x.values);
            assert_eq!(
                x.result.violated(),
                y.result.violated(),
                "values={:?}",
                x.values
            );
        }
        // Inherited verdicts survive certification: every slot gets a
        // definitive verdict, none demoted to CertificateRejected.
        let certified = synthesize(
            &sys,
            &[p, q],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1).with_certify(),
        )
        .unwrap();
        for v in &certified.verdicts {
            assert!(
                !matches!(
                    v.result,
                    CheckResult::Unknown(UnknownReason::CertificateRejected)
                ),
                "{certified}"
            );
        }
        assert!(!certified.has_unknown(), "{certified}");
    }

    #[test]
    fn first_safe_stops_sequential_sweep() {
        let (sys, p) = step_counter();
        // p=1 is unsafe, p=2 safe, p=3 safe: with jobs=1 the sweep must
        // check p=1 (UNSAFE), find p=2 SAFE, and skip p=3 as Cancelled.
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = synthesize_first_safe(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1),
        )
        .unwrap();
        assert_eq!(r.verdicts.len(), 3);
        assert!(r.verdicts[0].result.violated());
        assert!(r.verdicts[1].result.holds());
        assert!(matches!(
            r.verdicts[2].result,
            CheckResult::Unknown(UnknownReason::Cancelled)
        ));
        assert_eq!(r.safe().len(), 1);
    }

    #[test]
    fn cancelled_slots_do_not_count_as_unknown() {
        // Regression: a successful first-safe sweep used to report
        // has_unknown() because its skipped tail is Unknown(Cancelled) —
        // making every early exit look like a verification failure.
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = synthesize_first_safe(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(1),
        )
        .unwrap();
        assert!(matches!(
            r.verdicts[2].result,
            CheckResult::Unknown(UnknownReason::Cancelled)
        ));
        assert!(!r.has_unknown(), "{r}");
        assert!(r.has_cancelled());
        // Display distinguishes the skipped slot from a real unknown.
        let shown = r.to_string();
        assert!(shown.contains("SKIPPED (cancelled)"), "{shown}");
    }

    #[test]
    fn first_safe_parallel_finds_a_safe_value() {
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = synthesize_first_safe(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default().with_jobs(3),
        )
        .unwrap();
        // Racing workers may complete more than one assignment before the
        // flag propagates, but at least one SAFE value must be reported
        // and no verdict may contradict the sequential partition.
        assert!(!r.safe().is_empty(), "{r}");
        for v in &r.verdicts {
            if v.values == [Value::Int(1)] {
                assert!(!v.result.holds());
            } else {
                assert!(!v.result.violated());
            }
        }
    }

    #[test]
    fn violating_params_found_symbolically() {
        let (sys, _) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = find_violating_params(&sys, &prop, &CheckOptions::default()).unwrap();
        let t = r.trace().expect("p=1 violates");
        assert_eq!(t.value(0, "p"), Some(&Value::Int(1)));
    }

    #[test]
    fn real_params_rejected_for_enumeration() {
        let mut sys = System::new("r");
        let p = sys.real_param("p");
        let prop = Property::Invariant(Expr::tt());
        let e = synthesize(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::Bdd,
            &CheckOptions::default(),
        );
        assert!(e.is_err());
    }

    #[test]
    fn display_lists_verdicts() {
        let (sys, p) = step_counter();
        let prop = Property::Invariant(Expr::var(sys.var_by_name("n").unwrap()).ne(Expr::int(5)));
        let r = synthesize(
            &sys,
            &[p],
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::default(),
        )
        .unwrap();
        let shown = r.to_string();
        assert!(shown.contains("SAFE"), "{shown}");
        assert!(shown.contains("UNSAFE"), "{shown}");
    }
}
