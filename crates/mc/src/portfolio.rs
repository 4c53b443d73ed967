//! Portfolio racing: run a falsifier and a prover concurrently, keep the
//! first definitive answer.
//!
//! The paper's Fig. 5/6 observation is that falsification (BMC) is cheap
//! while proving (k-induction, BDD fixpoints) is exponentially expensive —
//! but which one terminates first depends on whether the property actually
//! holds, which is exactly what we don't know going in. The portfolio
//! engine hedges: it spawns one thread per contender engine on the same
//! system, takes the first `Holds`/`Violated` verdict, and raises a shared
//! stop flag so the losers exit cooperatively (see
//! [`crate::result::Budget`]). Because every contender is sound, any two
//! definitive answers agree, so first-wins is deterministic in the verdict
//! (the winning *engine* may differ run to run; it is reported in the
//! [`CheckReport`]).
//!
//! Contender line-ups (real-valued systems run a solo
//! [`crate::smtbmc`] instead, see [`crate::engine::check`]):
//!
//! | property  | falsifier | provers          |
//! |-----------|-----------|------------------|
//! | invariant | [`crate::bmc`] | [`crate::kind`], [`crate::bdd`] |
//! | LTL       | [`crate::bmc`] | [`crate::bdd`]  |
//! | CTL       | —         | [`crate::bdd`], [`crate::explicit_engine`] |

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use verdict_ring::{ring, Consumer, Doorbell};
use verdict_sat::ClauseHub;
use verdict_ts::Property;

use crate::engine::EngineKind;
use crate::result::{CheckOptions, CheckResult, McError, UnknownReason};
use crate::stats::{RuntimeCounters, Stats};

/// A verdict plus racing metadata: which engine won and how long the
/// portfolio took wall-clock.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The portfolio verdict (the winner's verdict).
    pub result: CheckResult,
    /// The engine that produced `result`. For a solo (non-raced) run this
    /// is simply the engine used.
    pub winner: EngineKind,
    /// Wall-clock time from spawn to verdict.
    pub wall: Duration,
    /// Every contender's final outcome, in spawn order — losers typically
    /// report `Unknown(Cancelled)`.
    pub outcomes: Vec<(EngineKind, CheckResult)>,
    /// The winner's solver/engine counters (the stats behind `result`).
    pub stats: Stats,
    /// Per-contender counter summaries, aligned with `outcomes`.
    pub contender_stats: Vec<(EngineKind, Stats)>,
}

/// The engines a portfolio races on `property`, in spawn order.
pub(crate) fn line_up(property: &Property) -> &'static [EngineKind] {
    match property {
        Property::Invariant(_) => &[EngineKind::Bmc, EngineKind::KInduction, EngineKind::Bdd],
        Property::Ltl(_) => &[EngineKind::Bmc, EngineKind::Bdd],
        Property::Ctl(_) => &[EngineKind::Bdd, EngineKind::Explicit],
    }
}

/// One contender: an engine tag plus the closure that runs it, recording
/// its counters into the per-contender [`Stats`] sink it is handed.
pub type Contender<'a> =
    Box<dyn FnOnce(&CheckOptions, &mut Stats) -> Result<CheckResult, McError> + Send + 'a>;

/// Races `contenders` to the first definitive (`Holds`/`Violated`) verdict
/// and cancels the rest via a shared stop flag.
///
/// Each contender publishes its verdict into its own SPSC ring and rings
/// a shared [`Doorbell`]; the collector parks between results instead of
/// polling a channel. With no caller stop flag to forward the park is
/// untimed — the collector wakes exactly once per verdict.
///
/// When `opts.sharing` is on (and no hub was pre-installed) the race
/// also builds a [`ClauseHub`] sized for the line-up: contenders whose
/// solvers unroll the same CNF prefix (BMC and the k-induction base
/// case) exchange learnt clauses through it, guarded by the solver-side
/// prefix check.
///
/// A stop flag already present in `opts` still works: the race monitor
/// polls it and forwards a caller-side cancellation to every contender.
///
/// Contenders are panic-isolated: a panicking engine is contained by its
/// worker thread and recorded as `Unknown(EngineFailure)`, so one buggy
/// contender cannot take down the race (the panic payload is reported on
/// stderr). Public so tests can inject custom contenders;
/// [`crate::engine::check`] races the standard line-ups.
pub fn race(
    opts: &CheckOptions,
    contenders: Vec<(EngineKind, Contender<'_>)>,
) -> Result<CheckReport, McError> {
    let start = Instant::now();
    let caller_stop = opts.stop.clone();
    let race_stop = Arc::new(AtomicBool::new(false));
    let n = contenders.len();
    type Verdict = (EngineKind, Result<CheckResult, McError>, Stats);

    // One ring per contender: single producer, and the slot index is the
    // ring index, so nothing needs a lock or a tag.
    let mut producers = Vec::with_capacity(n);
    let mut consumers: Vec<Consumer<Verdict>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = ring::<Verdict>(2);
        producers.push(tx);
        consumers.push(rx);
    }
    // Built on this thread: the collector below parks on it.
    let bell = Doorbell::new();
    let finished = AtomicUsize::new(0);
    let hub = (opts.sharing && opts.share_hub.is_none() && n > 1).then(|| ClauseHub::new(n));

    // Increments the finished count and rings the collector no matter how
    // the worker exits, so a worker that dies without publishing a
    // verdict can never strand a parked (untimed) collector.
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

    let (slots, winner_idx, collector) = std::thread::scope(|scope| {
        for ((engine, run), mut tx) in contenders.into_iter().zip(producers) {
            let worker_opts = CheckOptions {
                stop: Some(race_stop.clone()),
                share_hub: hub.clone().or_else(|| opts.share_hub.clone()),
                ..opts.clone()
            };
            let trace = opts.trace.clone();
            let (bell, finished) = (&bell, &finished);
            scope.spawn(move || {
                let _guard = FinishGuard { finished, bell };
                let mut stats = Stats::for_engine(engine).with_trace(trace);
                // Contain contender panics: a crashing engine becomes an
                // `Unknown(EngineFailure)` outcome instead of unwinding
                // through the scope and aborting the whole race.
                let res = crate::engine::contained(engine, || {
                    // Fault-injection probe at site `mc.portfolio.worker`,
                    // inside the containment boundary so an injected
                    // panic exercises it.
                    verdict_journal::fault::panic_if_armed("mc.portfolio.worker");
                    run(&worker_opts, &mut stats)
                });
                // Cannot fail: the ring holds 2 and this producer pushes
                // exactly once. The guard rings the bell on drop.
                let _ = tx.push((engine, res, stats));
            });
        }

        type Slot = Option<(EngineKind, Result<CheckResult, McError>, Stats)>;
        let mut slots: Vec<Slot> = (0..n).map(|_| None).collect();
        let mut winner_idx = None;
        let mut received = 0;
        let mut collector = RuntimeCounters::default();
        // Only wake on a timer when there is a caller-side stop flag that
        // nobody rings for; otherwise park until a verdict arrives.
        let tick = caller_stop.as_ref().map(|_| Duration::from_millis(25));
        loop {
            // Forward caller-side cancellation into the race.
            if caller_stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                race_stop.store(true, Ordering::Relaxed);
            }
            let mut batch = 0u64;
            for (idx, rx) in consumers.iter_mut().enumerate() {
                if let Some((engine, res, stats)) = rx.pop() {
                    batch += 1;
                    received += 1;
                    let definitive =
                        matches!(res, Ok(CheckResult::Holds | CheckResult::Violated(_)));
                    slots[idx] = Some((engine, res, stats));
                    if definitive && winner_idx.is_none() {
                        winner_idx = Some(idx);
                        // First definitive verdict: cancel the losers.
                        race_stop.store(true, Ordering::Relaxed);
                    }
                }
            }
            if batch > 0 {
                collector.ring_messages += batch;
                collector.ring_batches += 1;
            }
            if received >= n {
                break;
            }
            if batch == 0 && finished.load(Ordering::Acquire) >= n {
                // Every worker exited and the rings are dry: a worker
                // died without reporting (its slot stays `None`).
                break;
            }
            bell.wait(tick, || {
                finished.load(Ordering::Acquire) >= n
                    || consumers.iter_mut().any(|rx| !rx.is_empty())
            });
        }
        let d = bell.counters();
        collector.parks = d.parks;
        collector.wakes = d.wakes;
        collector.spurious_wakeups = d.spurious_wakeups;
        (slots, winner_idx, collector)
    });

    let wall = start.elapsed();
    let mut outcomes: Vec<(EngineKind, CheckResult)> = Vec::with_capacity(n);
    let mut contender_stats: Vec<(EngineKind, Stats)> = Vec::with_capacity(n);
    let mut first_err: Option<McError> = None;
    let mut winner: Option<(EngineKind, CheckResult, Stats)> = None;
    for (idx, slot) in slots.into_iter().enumerate() {
        let Some((engine, res, stats)) = slot else {
            continue;
        };
        match res {
            Ok(r) => {
                if winner_idx == Some(idx) {
                    winner = Some((engine, r.clone(), stats.clone()));
                }
                outcomes.push((engine, r));
                contender_stats.push((engine, stats));
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }

    if let Some((engine, result, mut stats)) = winner {
        // The collection machinery's counters describe the race itself;
        // report them on the winning stats so the PR-5 sink sees them.
        stats.runtime.add(collector);
        return Ok(CheckReport {
            result,
            winner: engine,
            wall,
            outcomes,
            stats,
            contender_stats,
        });
    }
    // No definitive verdict: prefer the most informative Unknown.
    let rank = |r: &CheckResult| match r {
        CheckResult::Unknown(UnknownReason::DepthBound) => 0,
        CheckResult::Unknown(UnknownReason::EffortBound) => 1,
        CheckResult::Unknown(UnknownReason::ResourceExhausted) => 2,
        CheckResult::Unknown(UnknownReason::Timeout) => 3,
        CheckResult::Unknown(UnknownReason::CertificateRejected) => 4,
        CheckResult::Unknown(UnknownReason::Cancelled) => 5,
        CheckResult::Unknown(UnknownReason::EngineFailure) => 6,
        _ => 7,
    };
    let best = outcomes
        .iter()
        .enumerate()
        .min_by_key(|(_, (_, r))| rank(r))
        .map(|(i, (e, r))| (i, *e, r.clone()));
    match best {
        Some((idx, engine, result)) => {
            let mut stats = contender_stats[idx].1.clone();
            stats.runtime.add(collector);
            Ok(CheckReport {
                result,
                winner: engine,
                wall,
                outcomes,
                stats,
                contender_stats,
            })
        }
        None => Err(first_err.unwrap_or_else(|| McError("portfolio: no contenders".to_string()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::{Ctl, Expr, Ltl, System};

    fn check_t(
        sys: &System,
        property: Property,
        opts: &CheckOptions,
    ) -> Result<CheckReport, McError> {
        crate::engine::check(sys, &property, EngineKind::Portfolio, opts)
    }

    fn counter(limit: i64) -> (System, verdict_ts::VarId) {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, limit);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(limit)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));
        (sys, n)
    }

    #[test]
    fn portfolio_proves_and_falsifies() {
        let (sys, n) = counter(7);
        let opts = CheckOptions::default();
        let holds = check_t(
            &sys,
            Property::Invariant(Expr::var(n).le(Expr::int(7))),
            &opts,
        )
        .unwrap();
        assert!(holds.result.holds(), "{}", holds.result);
        // BMC cannot prove, so the winner must be a prover.
        assert!(matches!(
            holds.winner,
            EngineKind::KInduction | EngineKind::Bdd
        ));

        let viol = check_t(
            &sys,
            Property::Invariant(Expr::var(n).lt(Expr::int(5))),
            &opts,
        )
        .unwrap();
        assert!(viol.result.violated());
        assert!(!viol.outcomes.is_empty());
        assert!(viol.outcomes.iter().any(|(e, _)| *e == viol.winner));
    }

    #[test]
    fn caller_stop_flag_cancels_whole_portfolio() {
        let (sys, n) = counter(7);
        let stop = Arc::new(AtomicBool::new(true)); // raised before the race
        let opts = CheckOptions::default().with_stop(stop);
        let r = check_t(
            &sys,
            Property::Invariant(Expr::var(n).le(Expr::int(7))),
            &opts,
        );
        // Workers may still finish (tiny model) or come back Cancelled —
        // but the call must return, not hang, and never report Violated.
        let report = r.unwrap();
        assert!(!report.result.violated());
    }

    #[test]
    fn ltl_portfolio_agrees_with_bdd() {
        let mut sys = System::new("flip");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let phi = Ltl::atom(Expr::var(x)).always().eventually();
        let opts = CheckOptions::default();
        let racy = check_t(&sys, Property::Ltl(phi.clone()), &opts).unwrap();
        let seq = crate::bdd::run_ltl(&sys, &phi, &opts, &mut Stats::default()).unwrap();
        assert_eq!(racy.result.violated(), seq.violated());
    }

    #[test]
    fn report_carries_winner_and_contender_stats() {
        let (sys, n) = counter(7);
        let report = check_t(
            &sys,
            Property::Invariant(Expr::var(n).lt(Expr::int(5))),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(report.result.violated());
        assert_eq!(report.stats.engine, Some(report.winner));
        assert!(!report.stats.counters_are_zero(), "winner did no work?");
        assert_eq!(report.contender_stats.len(), report.outcomes.len());
        for ((e1, _), (e2, _)) in report.outcomes.iter().zip(&report.contender_stats) {
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn ctl_portfolio() {
        let (sys, n) = counter(7);
        let phi = Ctl::atom(Expr::var(n).eq(Expr::int(7))).ef();
        let r = check_t(&sys, Property::Ctl(phi), &CheckOptions::default()).unwrap();
        assert!(r.result.holds());
        assert!(matches!(r.winner, EngineKind::Bdd | EngineKind::Explicit));
    }
}
