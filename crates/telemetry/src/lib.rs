//! Observability primitives for IotSan-rs: an allocation-free atomic
//! metrics registry, a bounded flight recorder of lifecycle events, and
//! the shared JSON row serializer the daemon and the `repro` harness
//! render through.
//!
//! The paper ran verification as a service across 150 market apps; the
//! daemon grown in PRs 7–9 makes that a long-lived process with degraded
//! modes, retries and quarantine — which is only operable if you can see
//! where states, cache hits and wall-time go.  This crate is that window:
//!
//! - [`metrics`] — a fixed, const-constructed registry of counters, gauges
//!   and fixed-bucket histograms covering checker, planner/cache, verdict
//!   store and daemon.  Hot paths flush local tallies once per
//!   search/job/store operation; snapshots render as the flat JSON row
//!   that the daemon's metrics answers and the BENCH pipeline consume.
//! - [`flight`] — a bounded ring buffer of structured lifecycle events
//!   (job accepted/claimed/retried/quarantined, store
//!   append/compact/recover/degrade/reprobe, search start/cap/cancel),
//!   dumped automatically on degrade or panic and on demand, with a
//!   level-filtered stderr sink replacing ad-hoc `eprintln!` diagnostics.
//! - [`rows`] — the ordered JSON-object writer shared by the daemon's
//!   NDJSON outcomes, `repro`'s `BENCH_*.json` rows and the snapshot
//!   renderer, so the three surfaces cannot drift in escaping or number
//!   formatting.
//!
//! Compiling with `default-features = false` turns the registry and the
//! ring into zero-sized no-ops (consumer crates forward this as their own
//! `telemetry` feature); a runtime kill-switch
//! ([`metrics::set_enabled`]) additionally lets the bench harness A/B the
//! recording overhead inside one process.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod metrics;
pub mod rows;

pub use flight::{Event, EventCode, FlightRing, Level, FLIGHT_CAPACITY};
pub use metrics::{
    snapshot, Counter, Descriptor, FloatGauge, Gauge, Histogram, Kind, Metrics, Sample, Snapshot,
    Value, DESCRIPTORS, METRICS,
};
pub use rows::JsonRow;
