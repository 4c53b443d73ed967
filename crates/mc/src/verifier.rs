//! The [`Verifier`] façade — the paper's Fig. 4 workflow as an API.
//!
//! Inputs: a control-component/environment model (a `verdict-ts`
//! [`System`]), a property (invariant, LTL, or CTL), optional parameter
//! constraints. Outputs: verification results, counterexamples, or
//! suggested safe parameters.
//!
//! ```
//! use verdict_mc::{EngineKind, Verifier};
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
//! let verifier = Verifier::new(&sys);
//! let ok = verifier.check_invariant(&Expr::var(n).le(Expr::int(7))).unwrap();
//! assert!(ok.holds());
//! let bad = verifier.check_invariant(&Expr::var(n).lt(Expr::int(7))).unwrap();
//! assert!(bad.violated());
//! ```

use verdict_ts::{Ctl, Expr, Ltl, Property, System, VarId};

use crate::engine::{check, synthesis_engine, EngineKind};
use crate::params::{self, SynthesisResult};
use crate::portfolio::CheckReport;
use crate::result::{CheckOptions, CheckResult, McError};

/// The verification façade: a system, an engine request and options,
/// over [`crate::engine::check`]. Borrowing the system keeps the API
/// cheap to use in parameter sweeps; all state lives in the engines per
/// call.
pub struct Verifier<'s> {
    sys: &'s System,
    engine: EngineKind,
    opts: CheckOptions,
}

impl<'s> Verifier<'s> {
    /// A verifier with default options and automatic engine choice.
    pub fn new(sys: &'s System) -> Verifier<'s> {
        Verifier {
            sys,
            engine: EngineKind::Auto,
            opts: CheckOptions::default(),
        }
    }

    /// Selects a specific engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets resource options.
    pub fn options(mut self, opts: CheckOptions) -> Self {
        self.opts = opts;
        self
    }

    fn report(&self, property: Property) -> Result<CheckReport, McError> {
        check(self.sys, &property, self.engine, &self.opts)
    }

    /// Checks the safety property `G p`.
    pub fn check_invariant(&self, p: &Expr) -> Result<CheckResult, McError> {
        self.check_invariant_report(p).map(|r| r.result)
    }

    /// Like [`Verifier::check_invariant`] but returns the whole
    /// [`CheckReport`]: the engine that ran (a portfolio's winner), its
    /// stats, and wall-clock time.
    pub fn check_invariant_report(&self, p: &Expr) -> Result<CheckReport, McError> {
        self.report(Property::Invariant(p.clone()))
    }

    /// Checks an LTL property.
    pub fn check_ltl(&self, phi: &Ltl) -> Result<CheckResult, McError> {
        self.check_ltl_report(phi).map(|r| r.result)
    }

    /// Like [`Verifier::check_ltl`] but returns the whole [`CheckReport`].
    pub fn check_ltl_report(&self, phi: &Ltl) -> Result<CheckReport, McError> {
        self.report(Property::Ltl(phi.clone()))
    }

    /// Checks a CTL property (finite engines only).
    pub fn check_ctl(&self, phi: &Ctl) -> Result<CheckResult, McError> {
        self.check_ctl_report(phi).map(|r| r.result)
    }

    /// Like [`Verifier::check_ctl`] but returns the whole [`CheckReport`].
    pub fn check_ctl_report(&self, phi: &Ctl) -> Result<CheckReport, McError> {
        self.report(Property::Ctl(phi.clone()))
    }

    /// Synthesizes safe values for the given frozen parameters (paper
    /// case study 1's `p ∈ {1, 2}` workflow), with the complete engine
    /// [`crate::engine::synthesis_engine`] picks for this request.
    pub fn synthesize_params(
        &self,
        params: &[VarId],
        property: &Property,
    ) -> Result<SynthesisResult, McError> {
        let engine = synthesis_engine(self.engine, property);
        params::synthesize(self.sys, params, property, engine, &self.opts)
    }

    /// Finds violating parameter values symbolically (they appear in the
    /// returned counterexample trace).
    pub fn find_violating_params(&self, property: &Property) -> Result<CheckResult, McError> {
        params::find_violating_params(self.sys, property, &self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::Value;

    fn counter() -> (System, VarId) {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 7);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(7)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));
        (sys, n)
    }

    #[test]
    fn auto_engine_proves_and_falsifies() {
        let (sys, n) = counter();
        let v = Verifier::new(&sys);
        assert!(v
            .check_invariant(&Expr::var(n).le(Expr::int(7)))
            .unwrap()
            .holds());
        assert!(v
            .check_invariant(&Expr::var(n).lt(Expr::int(5)))
            .unwrap()
            .violated());
    }

    #[test]
    fn engine_selection_respected() {
        let (sys, n) = counter();
        let bmc = Verifier::new(&sys).engine(EngineKind::Bmc);
        // BMC can only falsify; a holding invariant gives Unknown.
        let r = bmc
            .options(CheckOptions::with_depth(10))
            .check_invariant(&Expr::var(n).le(Expr::int(7)))
            .unwrap();
        assert!(matches!(r, CheckResult::Unknown(_)));
    }

    #[test]
    fn auto_routes_real_systems_to_smt() {
        let mut sys = System::new("real");
        let x = sys.real_var("x");
        sys.add_init(Expr::var(x).eq(Expr::real(verdict_logic::Rational::ZERO)));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).add(Expr::real(verdict_logic::Rational::ONE))));
        let v = Verifier::new(&sys).options(CheckOptions::with_depth(6));
        let r = v
            .check_invariant(&Expr::var(x).lt(Expr::real(verdict_logic::Rational::integer(3))))
            .unwrap();
        assert!(r.violated(), "{r}");
    }

    #[test]
    fn ctl_requires_complete_engine() {
        let (sys, n) = counter();
        let v = Verifier::new(&sys).engine(EngineKind::Bmc);
        assert!(v
            .check_ctl(&Ctl::atom(Expr::var(n).eq(Expr::int(7))).ef())
            .is_err());
        let v = Verifier::new(&sys);
        assert!(v
            .check_ctl(&Ctl::atom(Expr::var(n).eq(Expr::int(7))).ef())
            .unwrap()
            .holds());
    }

    #[test]
    fn reports_carry_the_engine_and_its_counters() {
        let (sys, n) = counter();
        let report = Verifier::new(&sys)
            .check_invariant_report(&Expr::var(n).le(Expr::int(7)))
            .unwrap();
        assert!(report.result.holds());
        assert_eq!(report.winner, EngineKind::KInduction);
        assert_eq!(report.stats.engine, Some(report.winner));
        assert!(!report.stats.counters_are_zero());
        assert!(!report.stats.depths.is_empty());
    }

    #[test]
    fn synthesis_through_facade() {
        let mut sys = System::new("step");
        let n = sys.int_var("n", 0, 10);
        let p = sys.int_param("p", 1, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).le(Expr::int(7)),
            Expr::var(n).add(Expr::var(p)),
            Expr::var(n),
        )));
        let v = Verifier::new(&sys);
        let prop = Property::Invariant(Expr::var(n).ne(Expr::int(5)));
        let r = v.synthesize_params(&[p], &prop).unwrap();
        assert_eq!(r.safe().len(), 2);
        let viol = v.find_violating_params(&prop).unwrap();
        assert_eq!(viol.trace().unwrap().value(0, "p"), Some(&Value::Int(1)));
    }
}
