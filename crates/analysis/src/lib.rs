//! Static analysis of lowered SmartApp IR (IotSan §5).
//!
//! IotSan front-loads static analysis — extracting what every event handler
//! reads and writes — so that its dependency analysis can split a household
//! into related sets before the checker runs.  This crate is that layer for
//! the Rust reproduction: [`summary`] computes the per-handler
//! [`EffectSummary`], a sound over-approximation of the read set (device
//! attributes, location mode, event fields, app-state slots, settings) and
//! write set (commands, attribute changes, mode changes, fake events,
//! app-state stores, messaging, network, scheduling).
//!
//! Downstream, `iotsan-depgraph` derives its event-flow edges from the
//! summaries, `iotsan-core` reads [`reads_clock`] when it builds a model,
//! and the daemon's verdict store writes [`ANALYSIS_VERSION`] into its log
//! header.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod summary;

pub use summary::{
    reads_clock, state_channel, summarize_handler, EffectSummary, ReadEffect, WriteEffect,
};

/// Version of the effect-summary semantics, written into the daemon's
/// verdict-log header: a store discards a log written under a different
/// version.  Bump on any change to the summaries that can change which
/// related groups the planner forms.
pub const ANALYSIS_VERSION: u32 = 1;
