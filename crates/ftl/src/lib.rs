//! Future Temporal Logic (FTL), the query language of the MOST model.
//!
//! Section 3 of the paper defines FTL: queries are
//! `RETRIEVE <target-list> WHERE <formula>` where formulas combine atomic
//! predicates (spatial methods and comparisons over attribute terms) with
//! `∧`, the assignment quantifier `[x ← term]`, and the temporal operators
//! `Until` and `Nexttime`; `Eventually`, `Always` and the bounded real-time
//! operators of Section 3.4 (`Eventually within c`, `Eventually after c`,
//! `Always for c`, `until_within c`) are derived.
//!
//! This crate provides the full pipeline:
//!
//! * [`lexer`] / [`parser`] — a concrete syntax for FTL (the paper presents
//!   formulas mathematically; the grammar here follows the paper's
//!   typography: `Eventually within 3 (INSIDE(o, P))`);
//! * [`ast`] — formulas, terms and [`ast::Query`];
//! * [`context`] — the [`context::EvalContext`] trait through which the
//!   evaluator sees the database (object domain, trajectories, static
//!   attributes, named regions).  `most-core` implements it for MOST
//!   databases; tests implement tiny in-memory contexts;
//! * [`semantics`] — the *reference evaluator*: a direct transcription of
//!   the Section 3.3 satisfaction relation, state by state.  It is the
//!   correctness oracle for the interval algorithm and the "evaluate the
//!   query at every point in time" baseline that Section 6 attributes to
//!   black-box method evaluation;
//! * [`numeric`] — piecewise-quadratic analysis of attribute terms, turning
//!   comparison atoms into tick-interval sets without enumerating states;
//! * [`relation`] — the appendix's relations `R_g`: instantiations of free
//!   variables paired with normalized interval sets, with the join
//!   machinery (conjunction, until, disjunction/negation extensions);
//! * [`eval`] — the appendix algorithm: bottom-up computation of `R_g` per
//!   subformula, producing an [`answer::Answer`] of
//!   `(instantiation, interval)` tuples that serves instantaneous *and*
//!   continuous queries with a single evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod ast;
pub mod context;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod numeric;
pub mod parser;
pub mod relation;
pub mod semantics;

pub use answer::Answer;
pub use ast::{Formula, Query, Term};
pub use context::EvalContext;
pub use error::{FtlError, FtlResult};
pub use eval::{evaluate_query, evaluate_query_over, explain_query, is_per_object, TraceNode};
