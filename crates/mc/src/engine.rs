//! One way into an engine: [`check`].
//!
//! Every verification in the workspace — the [`crate::Verifier`] façade,
//! [`crate::spec::execute`], the CLI, the daemon's workers — answers
//! through [`check`]. It is the only code that maps an engine request and
//! a property to an engine entry point. It resolves the request:
//!
//! | request | invariant | LTL | CTL |
//! |---|---|---|---|
//! | `auto` | k-induction | bdd | bdd |
//! | `kind` | k-induction | bdd | bdd |
//! | `bmc`, `smt-bmc` | itself | itself | error |
//! | `bdd`, `explicit` | itself | itself | itself |
//! | `portfolio` | race bmc, k-induction, bdd | race bmc, bdd | race bdd, explicit |
//!
//! and a real-valued system runs `smt-bmc` under `auto` and `portfolio`.
//! It then runs the resolved engine (or races the line-up through
//! [`crate::portfolio::race`]), contains engine panics, counts the fault
//! probes that fired, attaches the options' trace sink, and labels the
//! [`CheckReport`] and its [`Stats`] with the engine that ran.
//!
//! [`engine`] is a thin adapter over [`check`] for callers that bring
//! their own [`Stats`] sink: the report's counters, phase timers and
//! depth samples are folded into it.
//!
//! ```
//! use verdict_mc::prelude::*;
//! use verdict_ts::{Expr, System};
//!
//! let mut sys = System::new("counter");
//! let n = sys.int_var("n", 0, 7);
//! sys.add_init(Expr::var(n).eq(Expr::int(0)));
//! sys.add_trans(Expr::next(n).eq(Expr::ite(
//!     Expr::var(n).lt(Expr::int(7)),
//!     Expr::var(n).add(Expr::int(1)),
//!     Expr::var(n),
//! )));
//! let bounded = Property::Invariant(Expr::var(n).le(Expr::int(7)));
//! let report = check(&sys, &bounded, EngineKind::Auto, &CheckOptions::default()).unwrap();
//! assert!(report.result.holds());
//! assert_eq!(report.winner, EngineKind::KInduction);
//! assert!(report.stats.sat.decisions > 0);
//! ```

use std::time::Instant;

use verdict_journal::fault;
use verdict_ts::{Ctl, Expr, Ltl, Property, System};

use crate::params::SynthesisEngine;
use crate::portfolio::{self, CheckReport, Contender};
use crate::result::{CheckOptions, CheckResult, McError, UnknownReason};
use crate::stats::Stats;

/// Engine selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Choose automatically: SMT-BMC for real-sorted systems; otherwise
    /// k-induction for invariants (falsify + prove) and BDD for LTL/CTL.
    #[default]
    Auto,
    /// SAT bounded model checking (falsification only).
    Bmc,
    /// k-induction (invariants; proves and falsifies).
    KInduction,
    /// BDD fixpoint engine (complete on finite systems).
    Bdd,
    /// Explicit-state reference engine (tiny finite systems).
    Explicit,
    /// SMT bounded model checking (real-valued systems; falsification).
    SmtBmc,
    /// Race a falsifier against the provers in parallel threads and keep
    /// the first definitive verdict (see [`crate::portfolio`]).
    Portfolio,
}

impl EngineKind {
    /// Stable lowercase tag used in CLI flags, JSON output, and stats.
    pub fn tag(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Bmc => "bmc",
            EngineKind::KInduction => "k-induction",
            EngineKind::Bdd => "bdd",
            EngineKind::Explicit => "explicit",
            EngineKind::SmtBmc => "smt-bmc",
            EngineKind::Portfolio => "portfolio",
        }
    }

    /// Parses an engine tag. Accepts both the canonical [`tag`] spelling
    /// and the historical CLI/wire aliases (`kind`, `smtbmc`), so every
    /// surface — CLI flags, job specs on the wire, WAL records — parses
    /// through this one function.
    ///
    /// [`tag`]: EngineKind::tag
    pub fn from_tag(s: &str) -> Option<EngineKind> {
        match s {
            "auto" => Some(EngineKind::Auto),
            "bmc" => Some(EngineKind::Bmc),
            "kind" | "k-induction" => Some(EngineKind::KInduction),
            "bdd" => Some(EngineKind::Bdd),
            "explicit" => Some(EngineKind::Explicit),
            "smtbmc" | "smt-bmc" => Some(EngineKind::SmtBmc),
            "portfolio" => Some(EngineKind::Portfolio),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The engine a request runs on `property` (see the module table):
/// `auto` and `kind` send LTL/CTL to bdd, a real-valued system runs
/// smt-bmc under `auto` and `portfolio`, and every other request runs
/// as asked. A tag that names an engine that ran resolves to itself.
pub fn resolve(kind: EngineKind, sys: &System, property: &Property) -> EngineKind {
    match kind {
        EngineKind::Auto | EngineKind::Portfolio if sys.has_real_vars() => EngineKind::SmtBmc,
        EngineKind::Auto | EngineKind::KInduction => match property {
            Property::Invariant(_) => EngineKind::KInduction,
            Property::Ltl(_) | Property::Ctl(_) => EngineKind::Bdd,
        },
        other => other,
    }
}

/// The complete engine a parameter sweep under request `kind` runs per
/// assignment: bdd and explicit as asked, otherwise k-induction for
/// invariants and bdd for temporal properties (which synthesis rejects
/// for CTL, see [`crate::params`]).
pub fn synthesis_engine(kind: EngineKind, property: &Property) -> SynthesisEngine {
    match (kind, property) {
        (EngineKind::Bdd, _) => SynthesisEngine::Bdd,
        (EngineKind::Explicit, _) => SynthesisEngine::Explicit,
        (_, Property::Invariant(_)) => SynthesisEngine::KInduction,
        (_, Property::Ltl(_) | Property::Ctl(_)) => SynthesisEngine::Bdd,
    }
}

/// Checks `property` on `sys` with the engine `kind` resolves to. The
/// report names the engine that ran — a portfolio's winner — and so do
/// its stats. An engine panic comes back as `Unknown(EngineFailure)`.
pub fn check(
    sys: &System,
    property: &Property,
    kind: EngineKind,
    opts: &CheckOptions,
) -> Result<CheckReport, McError> {
    let ran = resolve(kind, sys, property);
    let fired_before = fault::fired_count();
    let fired = || fault::fired_count() - fired_before;
    if ran == EngineKind::Portfolio {
        let contenders = portfolio::line_up(property)
            .iter()
            .map(|&e| {
                let contender =
                    move |o: &CheckOptions, st: &mut Stats| run(e, sys, property, o, st);
                (e, Box::new(contender) as Contender<'_>)
            })
            .collect();
        let mut report = portfolio::race(opts, contenders)?;
        report.stats.faults_injected += fired();
        return Ok(report);
    }
    let start = Instant::now();
    let mut stats = Stats::for_engine(ran).with_trace(opts.trace.clone());
    let result = contained(ran, || run(ran, sys, property, opts, &mut stats))?;
    stats.faults_injected += fired();
    Ok(CheckReport {
        winner: ran,
        wall: start.elapsed(),
        outcomes: vec![(ran, result.clone())],
        contender_stats: vec![(ran, stats.clone())],
        stats,
        result,
    })
}

/// The per-engine dispatch: the one place an engine's entry points are
/// named. `kind` is already resolved (see [`resolve`]); parameter sweeps
/// call it directly on each pinned system, containing panics themselves.
pub(crate) fn run(
    kind: EngineKind,
    sys: &System,
    property: &Property,
    opts: &CheckOptions,
    stats: &mut Stats,
) -> Result<CheckResult, McError> {
    use crate::{bdd, bmc, explicit_engine as explicit, smtbmc};
    use EngineKind as E;
    use Property as P;
    match (kind, property) {
        (E::Bmc, P::Invariant(p)) => bmc::run_invariant(sys, p, opts, stats),
        (E::Bmc, P::Ltl(f)) => bmc::run_ltl(sys, f, opts, stats),
        (E::KInduction, P::Invariant(p)) => crate::kind::run_invariant(sys, p, opts, stats),
        (E::Bdd, P::Invariant(p)) => bdd::run_invariant(sys, p, opts, stats),
        (E::Bdd, P::Ltl(f)) => bdd::run_ltl(sys, f, opts, stats),
        (E::Bdd, P::Ctl(f)) => bdd::run_ctl(sys, f, opts, stats),
        (E::Explicit, P::Invariant(p)) => explicit::run_invariant(sys, p, opts, stats),
        (E::Explicit, P::Ltl(f)) => explicit::run_ltl(sys, f, opts, stats),
        (E::Explicit, P::Ctl(f)) => explicit::run_ctl(sys, f, opts, stats),
        (E::SmtBmc, P::Invariant(p)) => smtbmc::run_invariant(sys, p, opts, stats),
        (E::SmtBmc, P::Ltl(f)) => smtbmc::run_ltl(sys, f, opts, stats),
        (E::Bmc | E::SmtBmc, P::Ctl(_)) => Err(McError(
            "CTL requires a complete engine (BDD or explicit)".to_string(),
        )),
        (E::Auto | E::KInduction | E::Portfolio, _) => Err(McError(format!(
            "engine request `{kind}` reached dispatch unresolved"
        ))),
    }
}

/// Runs `f` with panic containment: an engine crash becomes
/// `Unknown(EngineFailure)` instead of unwinding into the caller, and its
/// message goes to stderr.
pub(crate) fn contained(
    engine: EngineKind,
    f: impl FnOnce() -> Result<CheckResult, McError>,
) -> Result<CheckResult, McError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = panic_message(payload.as_ref());
        eprintln!("verdict-mc: {engine} engine panicked: {msg}");
        Ok(CheckResult::Unknown(UnknownReason::EngineFailure))
    })
}

/// The message of a caught panic payload, for diagnostics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// A handle on one engine request, for callers that bring their own
/// [`Stats`] sink. Each method is [`check`] with the report folded into
/// the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Engine(EngineKind);

/// The handle for `kind`: `engine(kind).check_invariant(sys, p, opts, &mut stats)`.
pub fn engine(kind: EngineKind) -> Engine {
    Engine(kind)
}

impl Engine {
    /// Checks the safety property `G p`.
    pub fn check_invariant(
        self,
        sys: &System,
        p: &Expr,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &Property::Invariant(p.clone()), opts, stats)
    }

    /// Checks an LTL property.
    pub fn check_ltl(
        self,
        sys: &System,
        phi: &Ltl,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &Property::Ltl(phi.clone()), opts, stats)
    }

    /// Checks a CTL property (complete engines only).
    pub fn check_ctl(
        self,
        sys: &System,
        phi: &Ctl,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &Property::Ctl(phi.clone()), opts, stats)
    }

    fn check(
        self,
        sys: &System,
        property: &Property,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        let report = check(sys, property, self.0, opts)?;
        stats.engine.get_or_insert(report.winner);
        stats.merge(&report.stats);
        stats.depths.extend(report.stats.depths);
        Ok(report.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [EngineKind; 7] = [
        EngineKind::Auto,
        EngineKind::Bmc,
        EngineKind::KInduction,
        EngineKind::Bdd,
        EngineKind::Explicit,
        EngineKind::SmtBmc,
        EngineKind::Portfolio,
    ];

    #[test]
    fn from_tag_round_trips_and_accepts_aliases() {
        for kind in ALL {
            assert_eq!(EngineKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EngineKind::from_tag("kind"), Some(EngineKind::KInduction));
        assert_eq!(EngineKind::from_tag("smtbmc"), Some(EngineKind::SmtBmc));
        assert_eq!(EngineKind::from_tag("nuxmv"), None);
    }

    #[test]
    fn resolution_table() {
        use EngineKind as E;
        let mut finite = System::new("finite");
        let b = finite.bool_var("b");
        let mut real = System::new("real");
        real.real_var("x");
        let inv = Property::Invariant(Expr::var(b));
        let ltl = Property::Ltl(Ltl::atom(Expr::var(b)).eventually());
        let ctl = Property::Ctl(Ctl::atom(Expr::var(b)).ef());
        for (kind, want) in [
            (E::Auto, [E::KInduction, E::Bdd, E::Bdd]),
            (E::KInduction, [E::KInduction, E::Bdd, E::Bdd]),
            (E::Bmc, [E::Bmc; 3]),
            (E::Bdd, [E::Bdd; 3]),
            (E::Explicit, [E::Explicit; 3]),
            (E::SmtBmc, [E::SmtBmc; 3]),
            (E::Portfolio, [E::Portfolio; 3]),
        ] {
            let got = [&inv, &ltl, &ctl].map(|p| resolve(kind, &finite, p));
            assert_eq!(got, want, "{kind}");
        }
        for kind in [E::Auto, E::Portfolio] {
            assert_eq!(resolve(kind, &real, &inv), E::SmtBmc, "{kind}");
        }
    }

    #[test]
    fn bounded_engines_reject_ctl() {
        let sys = System::new("empty");
        let phi = Property::Ctl(Ctl::atom(Expr::bool(true)));
        for kind in [EngineKind::Bmc, EngineKind::SmtBmc] {
            assert!(check(&sys, &phi, kind, &CheckOptions::default()).is_err());
        }
    }

    #[test]
    fn every_run_is_labelled_with_the_engine_that_ran() {
        let mut sys = System::new("flip");
        let x = sys.bool_var("x");
        sys.add_init(Expr::var(x));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).not()));
        let phi = Ltl::atom(Expr::var(x)).always().eventually();
        let ltl = Property::Ltl(phi.clone());
        let opts = CheckOptions::with_depth(8);
        for kind in ALL {
            let report = check(&sys, &ltl, kind, &opts).unwrap();
            assert!(report.result.violated(), "{kind}");
            assert!(
                !matches!(report.winner, EngineKind::Auto | EngineKind::Portfolio),
                "{kind} reported {}",
                report.winner
            );
            assert_eq!(report.stats.engine, Some(report.winner), "{kind}");
        }
        // k-induction hands LTL to bdd, and says so — in the report and
        // through the adapter.
        let report = check(&sys, &ltl, EngineKind::KInduction, &opts).unwrap();
        assert_eq!(report.winner, EngineKind::Bdd);
        let mut sink = Stats::default();
        engine(EngineKind::Auto)
            .check_ltl(&sys, &phi, &opts, &mut sink)
            .unwrap();
        assert_eq!(sink.engine, Some(EngineKind::Bdd));
        assert!(sink.bdd.nodes_allocated > 0);
    }
}
