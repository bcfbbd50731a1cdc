//! Static analysis of lowered SmartApp IR (IotSan §5).
//!
//! IotSan front-loads static analysis — extracting what every event handler
//! reads and writes — to cut the model down *before* the checker runs.  This
//! crate is that layer for the Rust reproduction:
//!
//! * [`summary`] — per-handler [`EffectSummary`]: a sound over-approximation
//!   of the read set (device attributes, location mode, event fields,
//!   app-state slots, settings) and write set (commands, attribute changes,
//!   mode changes, fake events, app-state stores, messaging, network,
//!   scheduling);
//! * [`mod@fold`] — constant propagation through guards, powering the
//!   unreachable-branch lints;
//! * [`lint`] — diagnostics over an installed bundle: dead handlers,
//!   unreachable branches, unknown write targets and self-loops, with
//!   app/handler/IR-path provenance;
//! * [`mod@slice`] — property-directed cone-of-influence slicing: starting from
//!   the atoms of the registered property specs, transitively retain the
//!   handlers whose writes can reach what the properties observe and drop
//!   the rest, preserving verdicts exactly (see the [`mod@slice`] module docs
//!   for the soundness argument).
//!
//! Downstream, `iotsan-depgraph` derives its event-flow edges from the
//! summaries, `iotsan-core` folds [`ANALYSIS_VERSION`] and the slice hash
//! into planner fingerprints, and `iotsan-bench`'s `repro slice` experiment
//! measures the state-space reduction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fold;
pub mod lint;
pub mod slice;
pub mod summary;

pub use fold::{fold, fold_guard};
pub use lint::{lint_system, render_report, Diagnostic, LintKind};
pub use slice::{slice_plan, Cone, SlicePlan};
pub use summary::{
    reads_clock, state_channel, summarize_app, summarize_handler, EffectSummary, ReadEffect,
    WriteEffect,
};

/// Version of the analysis algorithms, folded into planner fingerprints
/// alongside the slice hash so cached verdicts are invalidated whenever the
/// summary or slicing semantics change.  Bump on any change that can alter a
/// [`SlicePlan`].
pub const ANALYSIS_VERSION: u32 = 1;
