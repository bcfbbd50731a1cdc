//! The verification daemon: a bounded job queue, a worker pool over
//! [`VerificationPlanner`], and a shared [`VerificationCache`] backed by the
//! durable [`VerdictStore`].
//!
//! ```text
//!   NDJSON jobs ──▶ JobQueue (bounded) ──▶ worker pool
//!                                            │ per job: resolve apps
//!                                            │ (corpus apps cloned from
//!                                            │ one translation), plan,
//!                                            │ execute:
//!                                            │ try-claim + lookup (memory
//!                                            │ → disk), verify misses on
//!                                            │ scoped threads, insert,
//!                                            │ release, wait for the busy
//!                                            ▼
//!                          VerificationCache ⇄ VerdictStore (append-only log)
//! ```
//!
//! Jobs run through the same [`VerificationPlanner::execute`] as the
//! in-process pipeline, over the daemon's [`PlanCache`]: the cache behind a
//! mutex plus an in-flight fingerprint set.  The model checker never runs
//! under the lock, so workers verify different groups concurrently while
//! deduplicating through one store.  A job's optional `timeout_ms` bounds
//! each of its group searches, not the job: a search that runs out answers
//! `truncated`, and its verdict is served but never stored.
//!
//! # Self-healing
//!
//! The daemon survives its two production failure classes instead of dying:
//!
//! - **Persistence failures** (full disk, fsync error, torn write): the
//!   daemon enters a *degraded* mode — verdicts keep being computed and
//!   served from the in-memory cache, writes are suspended, and a bounded
//!   re-probe with exponential backoff re-runs store recovery
//!   ([`VerdictStore::reopen`]) until the disk heals.  An acknowledged
//!   durable verdict is never lost and a wrong verdict is never served;
//!   verdicts computed while degraded simply re-verify after a restart.
//! - **Panicking jobs**: every job runs under `catch_unwind`, so a panic
//!   becomes a structured [`JobStatus::Failed`] outcome instead of a dead
//!   worker thread.  Failed jobs retry with capped exponential backoff
//!   ([`RetryPolicy`]); a job class that keeps failing is moved to a
//!   fingerprint-keyed poison quarantine (persisted best-effort in a
//!   sidecar file, surfaced by `--status`), and duplicates of a
//!   quarantined job fail fast instead of re-running the doomed work.

use crate::fault::{FaultPlan, FaultyIo};
use crate::job::{resolve_apps, JobSpec};
use crate::store::{StoreOptions, VerdictStore};
use iotsan::config::{expert_configure, standard_household};
use iotsan::{
    Fingerprint, FleetReport, GroupResult, Pipeline, PlanCache, VerdictPersistence,
    VerificationCache, VerificationPlanner,
};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::rows::JsonRow;
use iotsan_telemetry::METRICS;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many repair probes a degraded [`StoreBacking`] attempts before the
/// store is considered permanently lost for this process (verdicts keep
/// being served from memory; only durability is gone until a restart).
pub const REPROBE_LIMIT: u32 = 8;

/// Capped-exponential-backoff knobs, used for both panicking-job retries
/// and degraded-store repair probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before a failing job class is quarantined (min 1).
    pub max_attempts: u32,
    /// Backoff base: attempt *n* waits `base * 2^(n-1)` ms, capped at 1 s.
    pub base_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_delay_ms: 25 }
    }
}

impl RetryPolicy {
    /// The backoff before the next attempt, after `failures` failures so
    /// far: `base * 2^(failures-1)` milliseconds, capped at one second.
    pub fn delay(&self, failures: u32) -> Duration {
        let factor = 1u64 << failures.saturating_sub(1).min(10);
        Duration::from_millis(self.base_delay_ms.saturating_mul(factor).min(1_000))
    }
}

/// The persistence layer's shared health: `None` reason means healthy,
/// `Some` means degraded (writes suspended, verdicts served from memory)
/// with the probe schedule tracking the next repair attempt.
#[derive(Debug, Default)]
pub struct StoreHealth {
    state: Mutex<HealthState>,
}

#[derive(Debug, Default)]
struct HealthState {
    reason: Option<String>,
    probes: u32,
    next_probe_at: Option<Instant>,
    /// When the current degraded spell began — drives the
    /// `iotsan_daemon_degraded_ms_total` accounting on repair/shutdown.
    degraded_since: Option<Instant>,
}

impl StoreHealth {
    fn lock(&self) -> MutexGuard<'_, HealthState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True while persistence is suspended.
    pub fn is_degraded(&self) -> bool {
        self.lock().reason.is_some()
    }

    /// Why persistence is suspended, when it is.
    pub fn reason(&self) -> Option<String> {
        self.lock().reason.clone()
    }

    /// Repair probes attempted since entering the current degraded spell.
    pub fn probes(&self) -> u32 {
        self.lock().probes
    }
}

/// A [`VerdictPersistence`] adapter over a shared [`VerdictStore`].
///
/// Loads read the verdict's record back from the log and decode it (the
/// cache keeps what it loads, so each verdict is decoded once per
/// process); stores append to the log.  An append failure flips the shared
/// [`StoreHealth`] to degraded: the verdict stays correct in memory
/// (re-verifying after a restart is always sound, and the store's
/// CRC-guarded records mean a partial append is detected and skipped on
/// replay rather than trusted), further writes are suspended, and
/// subsequent store traffic drives a bounded, exponentially backed-off
/// repair probe that re-runs recovery ([`VerdictStore::reopen`]) until the
/// disk heals.
#[derive(Debug, Clone)]
pub struct StoreBacking {
    store: Arc<Mutex<VerdictStore>>,
    health: Arc<StoreHealth>,
    retry: RetryPolicy,
}

impl StoreBacking {
    /// Wraps a shared store handle with fresh health and default retry
    /// knobs.
    pub fn new(store: Arc<Mutex<VerdictStore>>) -> Self {
        Self::with_health(store, Arc::new(StoreHealth::default()), RetryPolicy::default())
    }

    /// Wraps a shared store handle, sharing `health` with whoever needs to
    /// observe degraded mode (the daemon's status surface).
    pub fn with_health(
        store: Arc<Mutex<VerdictStore>>,
        health: Arc<StoreHealth>,
        retry: RetryPolicy,
    ) -> Self {
        StoreBacking { store, health, retry }
    }

    /// The shared health handle.
    pub fn health(&self) -> Arc<StoreHealth> {
        Arc::clone(&self.health)
    }

    /// While degraded: when a probe is due, re-run store recovery.
    /// Returns whether the backing is healthy afterwards.  Lock order is
    /// health → store, here and in `store()`.
    fn ensure_healthy(&self, state: &mut HealthState) -> bool {
        if state.reason.is_none() {
            return true;
        }
        let now = Instant::now();
        let due = state.next_probe_at.is_some_and(|at| now >= at);
        if !due || state.probes >= REPROBE_LIMIT {
            return false;
        }
        state.probes += 1;
        METRICS.daemon_reprobes.inc();
        flight::record(
            Level::Info,
            EventCode::StoreReprobe,
            &format!("repair probe {}/{REPROBE_LIMIT}", state.probes),
        );
        let probed = self.store.lock().unwrap_or_else(|e| e.into_inner()).reopen().cloned();
        match probed {
            Ok(recovery) => {
                flight::record(
                    Level::Warn,
                    EventCode::StoreRepair,
                    &format!(
                        "verdict store repaired after {} probe(s) ({recovery:?}); \
                         persistence resumed",
                        state.probes
                    ),
                );
                if let Some(since) = state.degraded_since.take() {
                    METRICS.daemon_degraded_ms.add(since.elapsed().as_millis() as u64);
                }
                METRICS.daemon_degraded.set(0);
                *state = HealthState::default();
                true
            }
            Err(e) => {
                if state.probes >= REPROBE_LIMIT {
                    flight::record(
                        Level::Error,
                        EventCode::StoreDegrade,
                        &format!(
                            "verdict store still failing after {REPROBE_LIMIT} repair \
                             probes ({e}); persistence disabled until restart"
                        ),
                    );
                    state.next_probe_at = None;
                } else {
                    state.next_probe_at = Some(now + self.retry.delay(state.probes));
                }
                false
            }
        }
    }
}

impl VerdictPersistence for StoreBacking {
    fn load(&mut self, fingerprint: Fingerprint) -> Option<GroupResult> {
        self.store.lock().unwrap_or_else(|e| e.into_inner()).get(fingerprint)
    }

    fn store(&mut self, fingerprint: Fingerprint, result: &GroupResult) -> bool {
        let mut state = self.health.lock();
        if !self.ensure_healthy(&mut state) {
            return false;
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        match store.append(fingerprint, result) {
            Ok(()) => true,
            Err(e) => {
                let reason =
                    format!("verdict store append failed ({}): {e}", store.path().display());
                flight::record(
                    Level::Error,
                    EventCode::StoreDegrade,
                    &format!(
                        "{reason}; entering degraded mode (verdicts served from memory, \
                         writes suspended, repair probes backing off)"
                    ),
                );
                METRICS.daemon_degraded.set(1);
                // The automatic black-box dump: the ring's recent events
                // (including the fault the I/O seam injected, when one did)
                // land on stderr the moment persistence degrades.
                flight::dump_to_stderr(&format!("store degraded: {e}"));
                state.reason = Some(reason);
                state.probes = 0;
                state.next_probe_at = Some(Instant::now() + self.retry.delay(1));
                state.degraded_since = Some(Instant::now());
                false
            }
        }
    }
}

/// How a [`Daemon`] is shaped: where its store lives and how much work it
/// accepts at once.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the append-only verdict log.
    pub store_path: PathBuf,
    /// Eviction/compaction knobs for the store.
    pub store_options: StoreOptions,
    /// Worker threads verifying jobs concurrently (min 1).
    pub workers: usize,
    /// Bounded queue capacity; submission blocks when full (min 1).
    pub queue_capacity: usize,
    /// Retry/backoff knobs for panicking jobs and store repair probes.
    pub retry: RetryPolicy,
    /// Injected I/O fault schedule for the store (chaos testing); `None`
    /// uses the real disk.
    pub fault_plan: Option<FaultPlan>,
    /// Honor jobs' `inject_panic` testing hook; off by default, so a
    /// production daemon cannot be panicked from the job stream.
    pub fault_injection: bool,
}

impl DaemonConfig {
    /// A default-shaped daemon (2 workers, queue of 64, default retry
    /// policy, real disk) over `store_path`.
    pub fn new(store_path: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            store_path: store_path.into(),
            store_options: StoreOptions::default(),
            workers: 2,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            fault_plan: None,
            fault_injection: false,
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran to completion (individual searches may still have been
    /// truncated by the job's own `timeout_ms` — see the rendered
    /// `truncated` field).
    Ok,
    /// The job could not run at all (bad bundle, translation failure).
    Invalid(String),
    /// The job's worker panicked on every attempt (see [`RetryPolicy`]),
    /// or the job class was already quarantined; the daemon itself keeps
    /// running.
    Failed {
        /// The panic payload of the last attempt (or the quarantine
        /// notice, for a duplicate failing fast).
        panic_message: String,
    },
}

/// The result of one submitted job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submission index (0-based, the order jobs were submitted in).
    pub index: usize,
    /// The job's correlation id.
    pub id: String,
    /// How the job ended.
    pub status: JobStatus,
    /// The merged fleet report; `None` when the job never ran.
    pub report: Option<FleetReport>,
    /// How many of this job's cache hits were served from the durable store
    /// (rather than daemon memory).
    pub backing_hits: usize,
    /// True when the persistence layer was degraded while this job ran:
    /// its verdicts are correct but some may not be durable (they
    /// re-verify after a restart).
    pub degraded: bool,
    /// Wall-clock time from dequeue to verdict.
    pub elapsed: Duration,
}

impl JobOutcome {
    /// Renders the outcome as one NDJSON result line, through the shared
    /// [`JsonRow`] serializer (the same writer the `repro`/BENCH rows and
    /// metrics snapshots use, so escaping and number formats cannot drift).
    pub fn render(&self) -> String {
        let mut row = JsonRow::with_capacity(128).str("id", &self.id);
        match &self.status {
            JobStatus::Ok => row = row.str("status", "ok"),
            JobStatus::Invalid(error) => {
                return row.str("status", "invalid").str("error", error).finish();
            }
            JobStatus::Failed { panic_message } => {
                row = row.str("status", "failed").str("panic", panic_message);
            }
        }
        if let Some(report) = &self.report {
            let violated: Vec<String> =
                report.violated_properties().iter().map(|p| p.to_string()).collect();
            let truncated = report.groups.iter().any(|g| g.report.stats.truncated);
            row = row
                .num_u("groups", report.groups.len() as u64)
                .raw("violated_properties", &format!("[{}]", violated.join(",")))
                .num_u("violations", report.violation_count() as u64)
                .num_u("cache_hits", report.cache_hits as u64)
                .num_u("cache_misses", report.cache_misses as u64)
                .num_u("backing_hits", self.backing_hits as u64)
                .flag("truncated", truncated);
        }
        if self.degraded {
            row = row.flag("degraded", true);
        }
        row.fixed("elapsed_ms", self.elapsed.as_secs_f64() * 1000.0, 3).finish()
    }
}

/// Cumulative daemon statistics, reported at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Jobs submitted over the daemon's lifetime.
    pub jobs: usize,
    /// Lifetime cache hits (memory or disk).
    pub cache_hits: usize,
    /// Lifetime cache misses (groups model-checked).
    pub cache_misses: usize,
    /// Lifetime hits served by the durable store.
    pub backing_hits: usize,
    /// Live entries in the verdict store at shutdown.
    pub store_entries: usize,
    /// Total records in the store's log at shutdown (live + superseded).
    pub store_records: usize,
    /// Job classes sitting in the poison quarantine at shutdown.
    pub quarantined: usize,
    /// True when persistence was degraded at shutdown (or the final sync
    /// failed): some verdicts may not be durable and will re-verify.
    pub degraded: bool,
}

#[derive(Debug, Default)]
struct QueueState {
    items: VecDeque<(usize, JobSpec)>,
    /// Set only by [`Daemon::shutdown`], which consumes the daemon, so no
    /// job is ever pushed after it.
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (mutex + condvars).
#[derive(Debug)]
struct JobQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while full.
    fn push(&self, index: usize, spec: JobSpec) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.items.len() >= self.capacity {
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        METRICS.daemon_jobs_accepted.inc();
        flight::record(
            Level::Debug,
            EventCode::JobAccepted,
            &format!("job `{}` (index {index})", spec.id),
        );
        state.items.push_back((index, spec));
        METRICS.daemon_queue_depth.set(state.items.len() as i64);
        self.not_empty.notify_one();
    }

    /// Blocks while empty; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<(usize, JobSpec)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                METRICS.daemon_queue_depth.set(state.items.len() as i64);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
    }
}

/// The set of fingerprints some worker is currently verifying, so two jobs
/// sharing a group never verify it twice.  A job claims without blocking
/// and waits only while it holds no claims (see
/// [`VerificationPlanner::execute`]).
#[derive(Debug, Default)]
struct Inflight {
    set: Mutex<std::collections::BTreeSet<Fingerprint>>,
    done: Condvar,
}

impl Inflight {
    /// `Some(guard)` when this caller now owns `fingerprint`; `None` when
    /// another worker holds it.
    fn try_claim(&self, fingerprint: Fingerprint) -> Option<InflightGuard<'_>> {
        let mut set = self.set.lock().unwrap_or_else(|e| e.into_inner());
        set.insert(fingerprint).then(|| InflightGuard { inflight: self, fingerprint })
    }

    /// Blocks until no worker holds `fingerprint`.
    fn wait(&self, fingerprint: Fingerprint) {
        let mut set = self.set.lock().unwrap_or_else(|e| e.into_inner());
        while set.contains(&fingerprint) {
            set = self.done.wait(set).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Releases the claimed fingerprint on drop (panic-safe: a crashed worker
/// never leaves a fingerprint claimed forever).
#[derive(Debug)]
struct InflightGuard<'a> {
    inflight: &'a Inflight,
    fingerprint: Fingerprint,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.set.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.fingerprint);
        self.inflight.done.notify_all();
    }
}

/// One quarantinable job class's failure history, keyed by
/// [`JobSpec::fingerprint`] so duplicates of a failing job — whatever
/// their correlation ids — share one attempt budget instead of each
/// re-running the doomed work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonEntry {
    /// Panicking attempts recorded for this job class.
    pub attempts: u32,
    /// The panic payload of the most recent attempt.
    pub last_message: String,
    /// True once the attempt budget is exhausted: further duplicates fail
    /// fast.
    pub quarantined: bool,
}

/// The fingerprint-keyed poison set shared by all workers.
#[derive(Debug, Default)]
struct PoisonRegistry {
    entries: Mutex<BTreeMap<u64, PoisonEntry>>,
}

impl PoisonRegistry {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, PoisonEntry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The quarantine entry for `key`, when `key` is quarantined.
    fn quarantined(&self, key: u64) -> Option<PoisonEntry> {
        self.lock().get(&key).filter(|e| e.quarantined).cloned()
    }

    /// Records one panicking attempt, quarantining the class once
    /// `max_attempts` is reached; returns the updated entry.
    fn record_failure(&self, key: u64, message: &str, max_attempts: u32) -> PoisonEntry {
        let mut entries = self.lock();
        let entry = entries.entry(key).or_insert(PoisonEntry {
            attempts: 0,
            last_message: String::new(),
            quarantined: false,
        });
        entry.attempts += 1;
        entry.last_message = message.to_string();
        entry.quarantined = entry.attempts >= max_attempts.max(1);
        entry.clone()
    }

    /// Forgets `key`'s failures after a completed (non-panicking) run.
    fn clear(&self, key: u64) {
        self.lock().remove(&key);
    }

    fn snapshot(&self) -> Vec<(u64, PoisonEntry)> {
        self.lock().iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    fn quarantined_count(&self) -> usize {
        self.lock().values().filter(|e| e.quarantined).count()
    }
}

/// Where a store's quarantine sidecar lives: next to the log, with a
/// `.quarantine` extension (`verdicts.log` → `verdicts.quarantine`).
pub fn quarantine_sidecar_path(store_path: &Path) -> PathBuf {
    store_path.with_extension("quarantine")
}

/// Loads a quarantine sidecar (one JSON object per line:
/// `{"fingerprint":"<hex>","attempts":N,"message":"..."}`).  Best-effort by
/// design — an unreadable or malformed sidecar yields an empty set, never
/// an error, because quarantine is an optimization (a lost entry only
/// means the job class gets a fresh attempt budget).
pub fn load_quarantine(path: &Path) -> Vec<(u64, PoisonEntry)> {
    let Ok(raw) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for line in raw.lines() {
        let Ok(value) = serde_json::from_str::<serde_json::Value>(line) else { continue };
        // The fingerprint travels as a hex string: FNV values use all 64
        // bits, which a JSON number (a double) cannot represent exactly.
        let Some(fingerprint) = value
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let attempts = value.get("attempts").and_then(|v| v.as_f64()).unwrap_or(1.0) as u32;
        let message = value
            .get("message")
            .and_then(|v| v.as_str())
            .unwrap_or("quarantined in a previous run")
            .to_string();
        entries.push((
            fingerprint,
            PoisonEntry { attempts, last_message: message, quarantined: true },
        ));
    }
    entries
}

/// Writes the quarantined subset of `entries` to the sidecar.  Best
/// effort: a failure is reported on stderr but never stops the daemon —
/// the quarantine still protects the current process from memory.
fn save_quarantine(path: &Path, entries: &[(u64, PoisonEntry)]) {
    let mut out = String::new();
    for (fingerprint, entry) in entries.iter().filter(|(_, e)| e.quarantined) {
        let row = JsonRow::with_capacity(96)
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .num_u("attempts", u64::from(entry.attempts))
            .str("message", &entry.last_message)
            .finish();
        out.push_str(&row);
        out.push('\n');
    }
    if let Err(e) = std::fs::write(path, out) {
        flight::record(
            Level::Error,
            EventCode::Diagnostic,
            &format!("cannot persist quarantine sidecar {}: {e}", path.display()),
        );
    }
}

#[derive(Debug)]
struct Inner {
    queue: JobQueue,
    cache: Mutex<VerificationCache>,
    store: Arc<Mutex<VerdictStore>>,
    inflight: Inflight,
    results: Sender<JobOutcome>,
    health: Arc<StoreHealth>,
    poison: PoisonRegistry,
    retry: RetryPolicy,
    fault_injection: bool,
    quarantine_path: PathBuf,
}

/// The verification daemon: owns the store, the shared cache and the worker
/// pool.  See the [module docs](self) for the locking discipline.
#[derive(Debug)]
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    receiver: Receiver<JobOutcome>,
    submitted: usize,
}

impl Daemon {
    /// Opens (or recovers) the verdict store at `config.store_path`
    /// (creating its parent directory when missing) and starts the worker
    /// pool.  Every filesystem failure propagates as an error — the
    /// caller decides the exit code, nothing panics.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        if let Some(parent) = config.store_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let store = Arc::new(Mutex::new(match config.fault_plan {
            Some(plan) => VerdictStore::open_with_io(
                &config.store_path,
                config.store_options,
                Box::new(FaultyIo::new(plan)),
            )?,
            None => VerdictStore::open_with(&config.store_path, config.store_options)?,
        }));
        let health = Arc::new(StoreHealth::default());
        let backing =
            StoreBacking::with_health(Arc::clone(&store), Arc::clone(&health), config.retry);
        let cache = VerificationCache::new().with_backing(Box::new(backing));
        let quarantine_path = quarantine_sidecar_path(&config.store_path);
        let poison = PoisonRegistry::default();
        for (key, entry) in load_quarantine(&quarantine_path) {
            poison.lock().insert(key, entry);
        }
        let (results, receiver) = channel();
        let inner = Arc::new(Inner {
            queue: JobQueue::new(config.queue_capacity),
            cache: Mutex::new(cache),
            store,
            inflight: Inflight::default(),
            results,
            health,
            poison,
            retry: config.retry,
            fault_injection: config.fault_injection,
            quarantine_path,
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Daemon { inner, workers, receiver, submitted: 0 })
    }

    /// The recovery verdict of this daemon's store (what `open_with` found).
    pub fn recovery(&self) -> crate::store::Recovery {
        self.inner.store.lock().unwrap_or_else(|e| e.into_inner()).recovery().clone()
    }

    /// A shared handle on the verdict store (for status and compaction).
    pub fn store(&self) -> Arc<Mutex<VerdictStore>> {
        Arc::clone(&self.inner.store)
    }

    /// Why persistence is currently suspended — `None` while healthy.
    pub fn degraded(&self) -> Option<String> {
        self.inner.health.reason()
    }

    /// The poison set: every job class with recorded failures, keyed by
    /// [`JobSpec::fingerprint`] (quarantined or still within its attempt
    /// budget).
    pub fn poisoned(&self) -> Vec<(u64, PoisonEntry)> {
        self.inner.poison.snapshot()
    }

    /// Submits one job; blocks while the queue is full.  Returns the job's
    /// submission index.
    fn submit(&mut self, spec: JobSpec) -> usize {
        let index = self.submitted;
        self.submitted += 1;
        self.inner.queue.push(index, spec);
        index
    }

    /// Submits a batch and waits for every outcome, returned in submission
    /// order.
    pub fn run_batch(&mut self, specs: Vec<JobSpec>) -> Vec<JobOutcome> {
        let expected = specs.len();
        for spec in specs {
            self.submit(spec);
        }
        let mut outcomes = Vec::with_capacity(expected);
        for _ in 0..expected {
            match self.receiver.recv() {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => break, // every worker died; return what we have
            }
        }
        outcomes.sort_by_key(|o| o.index);
        outcomes
    }

    /// Closes the queue, waits for the workers to drain it, syncs the
    /// store (best effort — a failing disk at shutdown is reported as
    /// [`DaemonSummary::degraded`], not an error, so an injected fault can
    /// never make the daemon die on the way out) and reports lifetime
    /// statistics.
    pub fn shutdown(self) -> io::Result<DaemonSummary> {
        self.inner.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        let (cache_hits, cache_misses, backing_hits) = {
            let cache = self.inner.cache.lock().unwrap_or_else(|e| e.into_inner());
            (cache.hits(), cache.misses(), cache.backing_hits())
        };
        let mut store = self.inner.store.lock().unwrap_or_else(|e| e.into_inner());
        let mut degraded = self.inner.health.is_degraded();
        if !degraded {
            if let Err(e) = store.sync() {
                flight::record(
                    Level::Error,
                    EventCode::StoreDegrade,
                    &format!("final sync failed ({e}); recent verdicts may re-verify"),
                );
                degraded = true;
            }
        }
        // Close out a still-open degraded spell so the time-in-degraded
        // counter covers it (repair normally does this accounting).
        if let Some(since) = self.inner.health.lock().degraded_since.take() {
            METRICS.daemon_degraded_ms.add(since.elapsed().as_millis() as u64);
        }
        Ok(DaemonSummary {
            jobs: self.submitted,
            cache_hits,
            cache_misses,
            backing_hits,
            store_entries: store.len(),
            store_records: store.records(),
            quarantined: self.inner.poison.quarantined_count(),
            degraded,
        })
    }
}

/// Flushes one terminal job status to the telemetry registry and flight
/// recorder — the single point every outcome path funnels through.
fn record_terminal_status(id: &str, status: &JobStatus) {
    let label = match status {
        JobStatus::Ok => {
            METRICS.daemon_jobs_completed.inc();
            "ok"
        }
        JobStatus::Invalid(_) => {
            METRICS.daemon_jobs_invalid.inc();
            "invalid"
        }
        JobStatus::Failed { .. } => {
            METRICS.daemon_jobs_failed.inc();
            "failed"
        }
    };
    flight::record(Level::Debug, EventCode::JobCompleted, &format!("job `{id}` {label}"));
}

fn worker_loop(inner: &Inner) {
    while let Some((index, spec)) = inner.queue.pop() {
        METRICS.daemon_inflight.add(1);
        flight::record(Level::Debug, EventCode::JobClaimed, &format!("job `{}`", spec.id));
        let outcome = run_supervised(inner, index, spec);
        METRICS.daemon_inflight.sub(1);
        record_terminal_status(&outcome.id, &outcome.status);
        if inner.results.send(outcome).is_err() {
            break; // the daemon handle is gone; no one is listening
        }
    }
}

/// Renders a `catch_unwind` payload (the two shapes `panic!` produces,
/// plus a fallback for exotic payloads).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

/// The supervision wrapper around [`execute_job`]: a panic becomes a
/// [`JobStatus::Failed`] outcome instead of a dead worker; panicking job
/// classes retry with capped exponential backoff and are quarantined once
/// the per-fingerprint attempt budget — shared by duplicates, so a doomed
/// job never re-runs once per copy — is exhausted.
fn run_supervised(inner: &Inner, index: usize, spec: JobSpec) -> JobOutcome {
    let started = Instant::now();
    let key = spec.fingerprint();
    loop {
        // A duplicate of an already-failed class observes the quarantine
        // instead of silently re-running the doomed job.
        if let Some(entry) = inner.poison.quarantined(key) {
            return JobOutcome {
                index,
                id: spec.id,
                status: JobStatus::Failed {
                    panic_message: format!(
                        "quarantined after {} failed attempt(s): {}",
                        entry.attempts, entry.last_message
                    ),
                },
                report: None,
                backing_hits: 0,
                degraded: inner.health.is_degraded(),
                elapsed: started.elapsed(),
            };
        }
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(inner, index, spec.clone(), started)
        }));
        match attempt {
            Ok(outcome) => {
                // Any definite completion (ok/invalid) clears the
                // class's failure history: it proved able to terminate.
                inner.poison.clear(key);
                return outcome;
            }
            Err(payload) => {
                let message = panic_message(payload);
                let entry = inner.poison.record_failure(key, &message, inner.retry.max_attempts);
                METRICS.daemon_retries.inc();
                flight::record(
                    Level::Warn,
                    EventCode::JobRetried,
                    &format!(
                        "job `{}` panicked (attempt {}/{}): {message}",
                        spec.id, entry.attempts, inner.retry.max_attempts
                    ),
                );
                if entry.quarantined {
                    METRICS.daemon_quarantines.inc();
                    flight::record(
                        Level::Error,
                        EventCode::JobQuarantined,
                        &format!(
                            "job `{}` quarantined after {} attempt(s): {message}",
                            spec.id, entry.attempts
                        ),
                    );
                    // The automatic black-box dump on a job that panicked
                    // its whole retry budget away.
                    flight::dump_to_stderr(&format!("job `{}` quarantined", spec.id));
                    save_quarantine(&inner.quarantine_path, &inner.poison.snapshot());
                    return JobOutcome {
                        index,
                        id: spec.id,
                        status: JobStatus::Failed { panic_message: message },
                        report: None,
                        backing_hits: 0,
                        degraded: inner.health.is_degraded(),
                        elapsed: started.elapsed(),
                    };
                }
                std::thread::sleep(inner.retry.delay(entry.attempts));
            }
        }
    }
}

fn invalid_outcome(index: usize, id: String, error: String, started: Instant) -> JobOutcome {
    JobOutcome {
        index,
        id,
        status: JobStatus::Invalid(error),
        report: None,
        backing_hits: 0,
        degraded: false,
        elapsed: started.elapsed(),
    }
}

fn execute_job(inner: &Inner, index: usize, spec: JobSpec, started: Instant) -> JobOutcome {
    if spec.inject_panic && !inner.fault_injection {
        return invalid_outcome(
            index,
            spec.id,
            "`inject_panic` requires the daemon to enable fault injection".to_string(),
            started,
        );
    }
    let apps = match resolve_apps(&spec.bundle) {
        Ok(apps) => apps,
        Err(error) => return invalid_outcome(index, spec.id, error, started),
    };
    let config = expert_configure(&apps, &standard_household());

    let mut pipeline = Pipeline::with_events(spec.events);
    if spec.failures {
        pipeline = pipeline.with_failures();
    }
    pipeline.search.time_limit = spec.timeout_ms.map(Duration::from_millis);

    let planner = VerificationPlanner::new(&pipeline);
    let plan = planner.plan(&apps, &config);
    let mut cache = SharedCache { inner, inject_panic: spec.inject_panic, backing_hits: 0 };
    let report = planner.execute(&plan, &mut cache);

    let degraded = report.persist_failures > 0 || inner.health.is_degraded();
    JobOutcome {
        index,
        id: spec.id,
        status: JobStatus::Ok,
        report: Some(report),
        backing_hits: cache.backing_hits,
        degraded,
        elapsed: started.elapsed(),
    }
}

/// The daemon's [`PlanCache`]: the workers' shared cache behind its mutex
/// and the in-flight set.  The model checker never runs under the lock:
/// [`VerificationPlanner::execute`] verifies between the calls.
struct SharedCache<'a> {
    inner: &'a Inner,
    inject_panic: bool,
    /// How many of this job's hits the durable store served.
    backing_hits: usize,
}

impl<'a> PlanCache for SharedCache<'a> {
    type Claim = InflightGuard<'a>;

    fn lookup(&mut self, fingerprint: Fingerprint) -> Option<GroupResult> {
        let mut cache = self.inner.cache.lock().unwrap_or_else(|e| e.into_inner());
        let disk_before = cache.backing_hits();
        let hit = cache.lookup(fingerprint);
        self.backing_hits += cache.backing_hits() - disk_before;
        hit
    }

    fn claim(&mut self, fingerprint: Fingerprint) -> Option<InflightGuard<'a>> {
        self.inner.inflight.try_claim(fingerprint)
    }

    fn wait(&mut self, fingerprint: Fingerprint) {
        self.inner.inflight.wait(fingerprint);
    }

    fn insert(&mut self, fingerprint: Fingerprint, result: GroupResult) -> bool {
        if self.inject_panic {
            // The gated testing hook fires where a model bug in the merge
            // would: after verification, while the job holds every claim of
            // its round, before any verdict of the job is filed.
            panic!("injected panic while filing group [{}]", result.apps.join(", "));
        }
        self.inner.cache.lock().unwrap_or_else(|e| e.into_inner()).insert(fingerprint, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{parse_line, resolve_sources, BundleSpec, JobLine};
    use crate::store::Recovery;
    use std::path::Path;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotsan-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("verdicts.log")
    }

    fn market_job(id: &str, n: usize) -> JobSpec {
        JobSpec {
            id: id.into(),
            bundle: BundleSpec::Market(n),
            events: 2,
            workers: 1,
            failures: false,
            timeout_ms: None,
            inject_panic: false,
        }
    }

    fn start(path: &Path) -> Daemon {
        Daemon::start(DaemonConfig::new(path)).unwrap()
    }

    #[test]
    fn identical_jobs_share_the_cache() {
        let path = temp_store("share");
        let mut daemon = start(&path);
        let outcomes = daemon.run_batch(vec![market_job("a", 4), market_job("b", 4)]);
        assert_eq!(outcomes.len(), 2);
        let total_hits: usize =
            outcomes.iter().map(|o| o.report.as_ref().unwrap().cache_hits).sum();
        let total_misses: usize =
            outcomes.iter().map(|o| o.report.as_ref().unwrap().cache_misses).sum();
        // Two identical jobs over one shared cache: every group is verified
        // at most once, the rest are hits (which job wins each race varies).
        let groups = outcomes[0].report.as_ref().unwrap().groups.len();
        assert_eq!(total_hits + total_misses, 2 * groups);
        assert_eq!(total_misses, groups);
        let a = outcomes[0].report.as_ref().unwrap().outcome();
        let b = outcomes[1].report.as_ref().unwrap().outcome();
        assert_eq!(a, b);
        let summary = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.store_entries, groups);
    }

    #[test]
    fn restart_replays_verdicts_from_disk() {
        let path = temp_store("restart");
        let mut cold = start(&path);
        let cold_outcomes = cold.run_batch(vec![market_job("cold", 4)]);
        let cold_report = cold_outcomes[0].report.as_ref().unwrap().clone();
        assert_eq!(cold_outcomes[0].backing_hits, 0);
        cold.shutdown().unwrap();

        let mut warm = start(&path);
        assert!(matches!(warm.recovery(), Recovery::Clean { .. }));
        let warm_outcomes = warm.run_batch(vec![market_job("warm", 4)]);
        let warm_report = warm_outcomes[0].report.as_ref().unwrap();
        assert_eq!(warm_report.cache_misses, 0);
        assert_eq!(warm_outcomes[0].backing_hits, warm_report.groups.len());
        // Replayed reports are byte-identical, timing included.
        for (c, w) in cold_report.groups.iter().zip(&warm_report.groups) {
            assert_eq!(c.report, w.report);
        }
        warm.shutdown().unwrap();
    }

    #[test]
    fn invalid_jobs_report_errors() {
        let path = temp_store("invalid");
        let mut daemon = start(&path);
        let outcomes = daemon.run_batch(vec![JobSpec {
            id: "bad".into(),
            bundle: BundleSpec::Named(vec!["No Such App".into()]),
            events: 2,
            workers: 1,
            failures: false,
            timeout_ms: None,
            inject_panic: false,
        }]);
        assert!(matches!(&outcomes[0].status, JobStatus::Invalid(e) if e.contains("No Such App")));
        let line = outcomes[0].render();
        assert!(line.contains("\"status\":\"invalid\""), "{line}");
        daemon.shutdown().unwrap();
    }

    fn job_line(line: &str) -> JobSpec {
        let Ok(JobLine::Job(spec)) = parse_line(line, 1) else { panic!("{line} must parse") };
        spec
    }

    /// The job with its corpus bundle replaced by the same apps' sources.
    fn sources_twin(spec: &JobSpec) -> JobSpec {
        let sources = resolve_sources(&spec.bundle).unwrap();
        JobSpec {
            id: format!("{}-sources", spec.id),
            bundle: BundleSpec::Sources(sources),
            ..spec.clone()
        }
    }

    /// Runs `spec` and then its sources twin through one daemon: the twin
    /// must be served entirely from the cache, with the same verdicts.
    fn assert_twin_is_all_hits(name: &str, spec: JobSpec) {
        let path = temp_store(name);
        let mut daemon = start(&path);
        let twin = sources_twin(&spec);
        let corpus = daemon.run_batch(vec![spec]).pop().unwrap();
        let sources = daemon.run_batch(vec![twin]).pop().unwrap();
        let (corpus, sources) = (corpus.report.unwrap(), sources.report.unwrap());
        assert!(corpus.cache_misses > 0);
        assert_eq!(sources.cache_misses, 0);
        assert_eq!(sources.cache_hits, corpus.groups.len());
        assert_eq!(sources.violated_properties(), corpus.violated_properties());
        assert_eq!(sources.violation_count(), corpus.violation_count());
        assert_eq!(sources.outcome(), corpus.outcome());
        daemon.shutdown().unwrap();
    }

    #[test]
    fn a_market_job_and_its_sources_twin_share_every_verdict() {
        assert_twin_is_all_hits("twin-market", job_line(r#"{"id":"m","market":8,"events":1}"#));
    }

    #[test]
    fn a_names_job_keeps_request_order_and_duplicates() {
        let spec = job_line(
            r#"{"id":"n","names":["Unlock Door","Virtual Thermostat","Unlock Door","Big Turn Off"],"events":1}"#,
        );
        assert_twin_is_all_hits("twin-names", spec);
    }

    #[test]
    fn corpus_bundles_reject_with_the_sources_path_text() {
        let path = temp_store("corpus-invalid");
        let mut daemon = start(&path);
        let outcomes = daemon.run_batch(vec![
            job_line(r#"{"id":"big","market":151}"#),
            job_line(r#"{"id":"odd","names":["Unlock Door","No Such App"]}"#),
        ]);
        let rendered: Vec<String> = outcomes.iter().map(JobOutcome::render).collect();
        assert_eq!(
            rendered,
            [
                r#"{"id":"big","status":"invalid","error":"`market` selects 151 apps but the corpus has 150"}"#,
                r#"{"id":"odd","status":"invalid","error":"unknown market app `No Such App`"}"#,
            ]
        );
        daemon.shutdown().unwrap();
    }

    #[test]
    fn timeout_truncates_each_search_and_stores_only_complete_verdicts() {
        let path = temp_store("timeout");
        let mut daemon = start(&path);
        let line = r#"{"id":"t","market":8,"events":6,"failures":true,"timeout_ms":0}"#;
        let Ok(JobLine::Job(spec)) = parse_line(line, 1) else { panic!("{line} must parse") };
        let outcomes = daemon.run_batch(vec![spec]);
        // The budget bounds each group's search, not the job: the job
        // still answers `ok`, flagged `truncated`.
        assert_eq!(outcomes[0].status, JobStatus::Ok);
        let line = outcomes[0].render();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"truncated\":true"), "{line}");
        let report = outcomes[0].report.as_ref().unwrap();
        let complete = report.groups.iter().filter(|g| !g.report.stats.truncated).count();
        assert!(complete < report.groups.len());
        let summary = daemon.shutdown().unwrap();
        assert_eq!(summary.store_entries, complete);
    }

    #[test]
    fn render_produces_one_json_line() {
        let path = temp_store("render");
        let mut daemon = start(&path);
        let outcomes = daemon.run_batch(vec![market_job("r1", 2)]);
        let line = outcomes[0].render();
        assert!(line.starts_with("{\"id\":\"r1\",\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"cache_misses\""), "{line}");
        assert!(!line.contains('\n'));
        // The line is valid JSON by our own vendored parser.
        assert!(serde_json::from_str::<serde_json::Value>(&line).is_ok());
        daemon.shutdown().unwrap();
    }
}
