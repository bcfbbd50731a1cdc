//! Verification-as-a-service for IotSan: the `iotsand` daemon and its
//! durable verdict store.
//!
//! The pipeline crates verify one bundle per process invocation; this crate
//! turns them into a long-lived service an app store can feed continuously:
//!
//! - [`store::VerdictStore`] — an append-only, CRC-guarded log of group
//!   verdicts keyed by the planner's content fingerprints
//!   ([`iotsan::Fingerprint`]), with crash-safe replay, versioned headers
//!   (stale analysis never replays) and deterministic compaction.
//! - [`daemon::Daemon`] — a bounded job queue and worker pool over
//!   [`iotsan::VerificationPlanner`], sharing one
//!   [`iotsan::VerificationCache`] backed by the store through
//!   [`daemon::StoreBacking`].
//! - [`job`] — the NDJSON batch-ingest format (`iotsand --jobs jobs.ndjson`
//!   or a unix socket), one JSON object per line.
//! - [`fault`] — the store's I/O seam ([`fault::StoreIo`]) with a
//!   deterministic fault injector, feeding the daemon's self-healing paths
//!   (degraded mode, retry/backoff, poison quarantine) and the seeded
//!   chaos harness in `iotsan-bench`.
//!
//! The operator-facing reference — disk layout, job fields, recovery
//! semantics, troubleshooting — lives in the repository's `OPERATIONS.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod daemon;
pub mod fault;
pub mod job;
pub mod store;

pub use daemon::{
    load_quarantine, quarantine_sidecar_path, Daemon, DaemonConfig, DaemonSummary, JobOutcome,
    JobStatus, PoisonEntry, RetryPolicy, StoreBacking, StoreHealth, REPROBE_LIMIT,
};
pub use fault::{Fault, FaultKind, FaultPlan, FaultyIo, RealIo, StoreIo};
pub use job::{parse_line, resolve_apps, resolve_sources, BundleSpec, JobLine, JobSpec};
pub use store::{
    CompactStats, DiscardReason, Recovery, StoreOptions, VerdictStore, FORMAT_VERSION, MAGIC,
};
