//! Case study 2: latency-based load balancer + ECMP (paper §3.3 / §4.2).
//!
//! The Fig. 3 scenario: three servers behind four routers, two
//! applications with two replicas each:
//!
//! * `p1` (app a) on `s1`, routed over link `R1–R2`;
//! * `p2` (app a) on `s2`, routed over link `R3–R2`;
//! * `p3` (app b) on `s2`, routed over link `R1–R2` (shares it with `p1`);
//! * `p4` (app b) on `s3`, routed over link `R1–R4` (hit by the one-time
//!   external traffic).
//!
//! ECMP path choices are hard-coded exactly as in the paper ("we
//! hard-code ECMP path selections described in the example"). The load
//! balancer is "smart": on its turn for an app it compares the replicas'
//! response times *as they would be after the candidate weight change*
//! and routes all of the app's traffic (weights are 0/1) to the better
//! replica. Server latency is linear in server load with per-app slope
//! and intercept; link latency is linear in link load with a shared slope
//! and intercept; the paper's symbolic parameters.
//!
//! **Linearity substitution** (documented in DESIGN.md): the paper leaves
//! both traffic volumes and latency coefficients symbolic, making latency
//! terms *products* of unknowns — outside QF_LRA. Here the traffic
//! volumes `t_a`, `t_b`, `e` are concrete rationals from the spec while
//! all six latency coefficients stay symbolic reals, keeping every
//! response time linear and the headline result intact: the checker
//! synthesizes latency-parameter values plus a lasso-shaped execution
//! that oscillates forever after the external-traffic event.

use verdict_logic::Rational;
use verdict_ts::{Expr, Ltl, System, VarId};

/// Concrete traffic volumes (the linearized inputs).
#[derive(Clone, Debug)]
pub struct LbSpec {
    /// App a's input traffic.
    pub t_a: Rational,
    /// App b's input traffic.
    pub t_b: Rational,
    /// The one-time external traffic volume on link R1–R4.
    pub external: Rational,
}

impl Default for LbSpec {
    fn default() -> Self {
        LbSpec {
            t_a: Rational::integer(1),
            t_b: Rational::integer(1),
            external: Rational::integer(2),
        }
    }
}

/// The constructed model with handles to its pieces.
pub struct LbModel {
    /// The transition system (real-valued: use the SMT engines).
    pub system: System,
    /// `wa`: app a served by `p1` (true) or `p2` (false).
    pub wa: VarId,
    /// `wb`: app b served by `p3` (true) or `p4` (false).
    pub wb: VarId,
    /// External traffic active.
    pub ext: VarId,
    /// Weights unchanged since the previous step.
    pub stable: Expr,
    /// The LB would keep the current weights (a true fixed point).
    pub equilibrium: Expr,
    /// `F G stable`.
    pub liveness: Ltl,
    /// `equilibrium → F G stable` (the paper's second, more interesting
    /// check: an initially-stable system must re-stabilize).
    pub conditional_liveness: Ltl,
}

/// `ite(cond, slope·t, 0)` — the linear latency contribution of one
/// traffic source when active.
fn scaled_if(cond: Expr, slope: VarId, t: Rational) -> Expr {
    Expr::ite(cond, Expr::var(slope).scale(t), Expr::real(Rational::ZERO))
}

impl LbModel {
    /// Builds the Fig. 3 model.
    pub fn build(spec: &LbSpec) -> LbModel {
        let mut sys = System::new("lb-ecmp");
        let (t_a, t_b, e) = (spec.t_a, spec.t_b, spec.external);

        // Symbolic latency coefficients (frozen reals, all positive).
        let ma = sys.real_param("m_a"); // app a server-latency slope
        let mb = sys.real_param("m_b"); // app b server-latency slope
        let ml = sys.real_param("m_link"); // link-latency slope (shared)
        let la = sys.real_param("l_a"); // app a server-latency intercept
        let lb = sys.real_param("l_b"); // app b server-latency intercept
        let ll = sys.real_param("l_link"); // link-latency intercept
        for p in [ma, mb, ml, la, lb, ll] {
            sys.add_init(Expr::var(p).gt(Expr::real(Rational::ZERO)));
        }

        // Control state.
        let wa = sys.bool_var("wa_p1"); // app a -> p1?
        let wb = sys.bool_var("wb_p3"); // app b -> p3?
        let prev_wa = sys.bool_var("prev_wa");
        let prev_wb = sys.bool_var("prev_wb");
        let turn_a = sys.bool_var("turn_a"); // whose turn the LB takes
        let ext = sys.bool_var("external_traffic");

        // Response times as functions of hypothetical weights. `wae`/`wbe`
        // are the weight expressions to evaluate under; `exte` the
        // external-traffic indicator.
        let resp_p1 = |wae: Expr, wbe: Expr| -> Expr {
            // server s1 (app a) + link R1–R2
            Expr::sum([
                scaled_if(wae.clone(), ma, t_a),
                Expr::var(la),
                scaled_if(wae, ml, t_a),
                scaled_if(wbe, ml, t_b),
                Expr::var(ll),
            ])
        };
        let resp_p2 = |wae: Expr, wbe: Expr| -> Expr {
            // server s2 (app a view: s2 load = (1-wa)·t_a + wb·t_b) + link R3–R2
            Expr::sum([
                scaled_if(wae.clone().not(), ma, t_a),
                scaled_if(wbe, ma, t_b),
                Expr::var(la),
                scaled_if(wae.not(), ml, t_a),
                Expr::var(ll),
            ])
        };
        let resp_p3 = |wae: Expr, wbe: Expr| -> Expr {
            // server s2 (app b view) + link R1–R2
            Expr::sum([
                scaled_if(wae.clone().not(), mb, t_a),
                scaled_if(wbe.clone(), mb, t_b),
                Expr::var(lb),
                scaled_if(wae, ml, t_a),
                scaled_if(wbe, ml, t_b),
                Expr::var(ll),
            ])
        };
        let resp_p4 = |wbe: Expr, exte: Expr| -> Expr {
            // server s3 (app b) + link R1–R4 (external traffic lands here)
            Expr::sum([
                scaled_if(wbe.clone().not(), mb, t_b),
                Expr::var(lb),
                scaled_if(wbe.not(), ml, t_b),
                scaled_if(exte, ml, e),
                Expr::var(ll),
            ])
        };

        // The LB's "smart" decisions: candidate assignments evaluated with
        // the *other* app's weight held at its current value.
        let decide_a = resp_p1(Expr::tt(), Expr::var(wb)).le(resp_p2(Expr::ff(), Expr::var(wb)));
        let decide_b = resp_p3(Expr::var(wa), Expr::tt()).le(resp_p4(Expr::ff(), Expr::var(ext)));

        // INIT: no external traffic yet; weights free; history matches so
        // step 0 is not spuriously "unstable".
        sys.add_init(Expr::var(ext).not());
        sys.add_init(Expr::var(prev_wa).iff(Expr::var(wa)));
        sys.add_init(Expr::var(prev_wb).iff(Expr::var(wb)));

        // TRANS: alternating turns; the acting app adopts its decision,
        // the other keeps its weights; history shifts; external traffic
        // latches on at a nondeterministic point.
        sys.add_trans(Expr::next(turn_a).eq(Expr::var(turn_a).not()));
        sys.add_trans(Expr::ite(
            Expr::var(turn_a),
            Expr::next(wa)
                .iff(decide_a.clone())
                .and(Expr::next(wb).iff(Expr::var(wb))),
            Expr::next(wb)
                .iff(decide_b.clone())
                .and(Expr::next(wa).iff(Expr::var(wa))),
        ));
        sys.add_trans(Expr::next(prev_wa).iff(Expr::var(wa)));
        sys.add_trans(Expr::next(prev_wb).iff(Expr::var(wb)));
        sys.add_trans(Expr::var(ext).implies(Expr::next(ext)));

        let stable = Expr::var(wa)
            .iff(Expr::var(prev_wa))
            .and(Expr::var(wb).iff(Expr::var(prev_wb)));
        let equilibrium = decide_a.iff(Expr::var(wa)).and(decide_b.iff(Expr::var(wb)));

        let liveness = Ltl::atom(stable.clone()).always().eventually();
        let conditional_liveness =
            Ltl::atom(equilibrium.clone()).implies(Ltl::atom(stable.clone()).always().eventually());

        let model = LbModel {
            system: sys,
            wa,
            wb,
            ext,
            stable,
            equilibrium,
            liveness,
            conditional_liveness,
        };
        model.system.check().expect("lb model type-checks");
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_mc::prelude::*;
    use verdict_mc::Stats;

    /// SMT-BMC LTL check through the `engine` adapter.
    fn smt_ltl(sys: &System, phi: &Ltl, opts: &CheckOptions) -> CheckResult {
        engine(EngineKind::SmtBmc)
            .check_ltl(sys, phi, opts, &mut Stats::default())
            .unwrap()
    }
    use verdict_ts::Value;

    #[test]
    fn builds_and_type_checks() {
        let m = LbModel::build(&LbSpec::default());
        assert!(m.system.has_real_vars());
        assert!(m.system.check().is_ok());
    }

    #[test]
    fn fg_stable_is_violated() {
        // The paper: "the model checker finds a counter-example where the
        // system is unstable even before the sudden external traffic."
        let m = LbModel::build(&LbSpec::default());
        let r = smt_ltl(&m.system, &m.liveness, &CheckOptions::with_depth(10));
        let t = r.trace().expect("F G stable must fail");
        assert!(t.loop_back.is_some(), "lasso expected:\n{t}");
    }

    #[test]
    fn initially_stable_system_can_oscillate_forever() {
        // The paper's refined check: stable → F G stable also fails — an
        // equilibrium exists from which the system starts oscillating
        // (after the external-traffic event) and never re-stabilizes.
        let m = LbModel::build(&LbSpec::default());
        let r = smt_ltl(
            &m.system,
            &m.conditional_liveness,
            &CheckOptions::with_depth(12),
        );
        let t = r.trace().expect("equilibrium → F G stable must fail");
        let l = t.loop_back.expect("lasso");
        // The loop must contain weight flapping: some state in the loop
        // is unstable.
        let unstable_in_loop = (l..t.len()).any(|step| {
            let wa = t.value(step, "wa_p1").unwrap();
            let pwa = t.value(step, "prev_wa").unwrap();
            let wb = t.value(step, "wb_p3").unwrap();
            let pwb = t.value(step, "prev_wb").unwrap();
            wa != pwa || wb != pwb
        });
        assert!(unstable_in_loop, "loop must flap weights:\n{t}");
    }

    #[test]
    fn counterexample_parameters_are_positive() {
        let m = LbModel::build(&LbSpec::default());
        let r = smt_ltl(&m.system, &m.liveness, &CheckOptions::with_depth(10));
        let t = r.trace().unwrap();
        for name in ["m_a", "m_b", "m_link", "l_a", "l_b", "l_link"] {
            let Value::Real(v) = t.value(0, name).unwrap() else {
                panic!("{name} should be real")
            };
            assert!(v.is_positive(), "{name} = {v} must be positive");
        }
    }

    #[test]
    fn turns_alternate_and_history_shifts() {
        let m = LbModel::build(&LbSpec::default());
        let r = smt_ltl(&m.system, &m.liveness, &CheckOptions::with_depth(10));
        let t = r.trace().unwrap();
        for step in 0..t.len() - 1 {
            assert_ne!(
                t.value(step, "turn_a"),
                t.value(step + 1, "turn_a"),
                "turns must alternate"
            );
            assert_eq!(
                t.value(step + 1, "prev_wa"),
                t.value(step, "wa_p1"),
                "history must shift"
            );
        }
    }
}
