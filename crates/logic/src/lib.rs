//! Foundational logic types for the `verdict` workspace.
//!
//! This crate provides the pieces every solver and encoder above it shares:
//!
//! * [`Rational`] — exact rational arithmetic on `i128` numerator/denominator
//!   pairs, normalized and overflow-checked. Simplex (`verdict-smt`) and the
//!   real-valued transition-system sorts are built on it; floating point is
//!   never used for model semantics.
//! * [`Var`] / [`Lit`] — the variable and literal newtypes shared by the CNF
//!   representation, the SAT solver and the SMT solver, using the standard
//!   `2 * var + sign` literal packing.
//! * [`Formula`] — a reference-counted propositional formula AST with
//!   constructors that perform light simplification.
//! * [`Cnf`] — clause database with a [Tseitin] transformation from
//!   [`Formula`], DIMACS export, and truth-assignment evaluation helpers
//!   used heavily in tests.
//! * [`IdMap`] — a hash map with a fast hasher for the encoders' memos,
//!   whose keys the program assigns (node addresses, literal indices).
//!
//! [Tseitin]: https://en.wikipedia.org/wiki/Tseytin_transformation
//!
//! The crate is dependency-free and deterministic: no randomness, no global
//! state, no `unsafe`.

pub mod cnf;
pub mod formula;
pub mod idhash;
pub mod lit;
pub mod rational;

pub use cnf::{Clause, Cnf, Tseitin};
pub use formula::Formula;
pub use idhash::{IdHasher, IdMap};
pub use lit::{Lit, Var};
pub use rational::Rational;
