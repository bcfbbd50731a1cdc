//! # iotsan-checker
//!
//! A from-scratch explicit-state model checker, the Spin substitute used by
//! IotSan-rs (the Rust reproduction of *IotSan: Fortifying the Safety of IoT
//! Systems*, CoNEXT 2018, §2.3 and §8).
//!
//! The paper uses Spin in verification mode as a falsifier: explore the bounded state space of the generated IoT-system
//! model, check safety properties, and produce counterexamples.  This crate
//! provides the same capabilities without shelling out to Spin:
//!
//! * [`transition`] — the [`TransitionSystem`] abstraction the model generator
//!   implements (sequential and strict-concurrent designs);
//! * [`store`] — exact visited-state storage (the paper's BITSTATE mode is
//!   deliberately absent: a lossy store can report a wrong "safe");
//! * [`search`] — bounded breadth-first search with shortest per-property
//!   counterexamples, search statistics and fixpoint detection;
//! * [`trace`] — Spin-style violation logs (Figure 7).
//!
//! Like Spin in the paper, one search runs on one core.  Multi-core hosts
//! gain by verifying independent related groups concurrently, one search
//! per thread (`iotsan::VerificationPlanner::execute`); a single search is
//! deterministic, so its counterexamples never depend on the host.
//!
//! The checker is completely independent of IoT semantics, which keeps it
//! reusable and testable in isolation (its unit tests run it over a toy
//! counter model).

#![deny(missing_docs)]

pub mod search;
pub mod store;
pub mod trace;
pub mod transition;

pub use search::{
    replay, CancelToken, Checker, FoundViolation, ReplayError, SearchConfig, SearchReport,
    SearchStats,
};
pub use store::{fnv1a, ExactStore};
pub use trace::{LogLine, Trace, TraceStep};
pub use transition::{StepLog, StepOutcome, TransitionSystem, Violation};

/// The former name of [`Checker`], kept so existing callers still compile.
pub type ParallelChecker = Checker;
