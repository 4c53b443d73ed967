//! The parametric transition-system IR at the center of `verdict`.
//!
//! The paper (§4.1) models infrastructure control as a *parametric
//! transition system*: typed state variables for environment and controller
//! state, frozen variables for configuration parameters, and constraints
//! describing initial states, transitions, and invariants. This crate is
//! that modeling layer:
//!
//! * [`Sort`]/[`Value`] — the type universe: booleans, finite enumerations,
//!   bounded integers, and exact reals.
//! * [`Expr`] — a typed expression AST over current- and next-state
//!   variables, with a type checker and an interpreter.
//! * [`System`] — variable declarations (state and frozen/parameter),
//!   `INIT`/`TRANS`/`INVAR` constraint sections, and fairness constraints,
//!   mirroring the paper's NuXMV usage.
//! * [`Ltl`]/[`Ctl`] — temporal property ASTs (`G`, `F`, `X`, `U`, `R` and
//!   the CTL quantified forms), and [`Property`], the invariant / LTL /
//!   CTL sum the engines check.
//! * [`bits`] — bit-blasting circuits written once against the [`BoolAlg`]
//!   abstraction, shared by the SAT unrolling encoder here and the BDD
//!   encoder in `verdict-mc`.
//! * [`unroll`] — the timed SAT encoder: maps `(variable, step)` pairs to
//!   fresh Boolean variables and lowers expressions to `verdict-logic`
//!   formulas, the substrate for bounded model checking and k-induction.
//! * [`explicit`] — an explicit-state interpreter (state enumeration and
//!   successor generation) used as a differential oracle for the symbolic
//!   engines and for tiny models.
//! * [`trace`] — counterexample traces (finite or lasso-shaped) with
//!   human-readable rendering, the artifact the paper's Fig. 5 shows.

pub mod bits;
pub mod explicit;
pub mod expr;
pub mod property;
pub mod replay;
pub mod sorts;
pub mod system;
pub mod trace;
pub mod unroll;

pub use bits::{BoolAlg, FormulaAlg};
pub use expr::{Expr, TypeError};
pub use property::{Ctl, Ltl, Property};
pub use sorts::{EnumSort, Sort, Value};
pub use system::{System, VarId, VarKind};
pub use trace::Trace;
pub use unroll::Unroller;
