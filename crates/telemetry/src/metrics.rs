//! The allocation-free atomic metrics registry.
//!
//! A fixed set of counters, gauges and fixed-bucket histograms covering
//! every layer of the pipeline — checker, planner/cache, verdict store and
//! daemon — lives in one const-constructed [`METRICS`] static.  Hot
//! paths never touch it per-state: the instrumented crates accumulate
//! plain local counters and flush once per search / job / store operation,
//! so the per-event cost is a handful of relaxed `fetch_add`s at points
//! that already take locks or do I/O.
//!
//! With the crate's `on` feature disabled every type here is a zero-sized
//! no-op: `inc`/`add`/`observe` compile to nothing and snapshots render
//! all-zero values, so disabling telemetry is a compile-time decision with
//! no residual cost.
//!
//! A runtime kill-switch ([`set_enabled`]) additionally lets the `repro`
//! harness A/B the recording cost inside one process: when disabled,
//! recording operations return immediately (reads still work).
//!
//! Rendering: [`Snapshot::render_json`] produces the flat JSON object row
//! that `{"op":"metrics"}`, `iotsand --metrics-snapshot` and the
//! `repro`/BENCH pipeline consume (via [`crate::rows::JsonRow`]).

use crate::rows::JsonRow;

/// Maximum number of finite histogram bucket bounds (one extra slot counts
/// the overflow, rendered as the `null` bound).
pub const MAX_HISTOGRAM_BOUNDS: usize = 15;

#[cfg(feature = "on")]
const SLOTS: usize = MAX_HISTOGRAM_BOUNDS + 1;

#[cfg(feature = "on")]
mod imp {
    use super::SLOTS;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(true);

    /// A monotonically increasing event count.
    #[derive(Debug, Default)]
    pub struct Counter {
        cell: AtomicU64,
    }

    impl Counter {
        /// A zeroed counter (const-constructible for statics).
        pub const fn new() -> Self {
            Counter { cell: AtomicU64::new(0) }
        }

        /// Adds `n` (no-op while recording is disabled).
        pub fn add(&self, n: u64) {
            if ENABLED.load(Ordering::Relaxed) {
                self.cell.fetch_add(n, Ordering::Relaxed);
            }
        }

        /// Adds one.
        pub fn inc(&self) {
            self.add(1);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.cell.load(Ordering::Relaxed)
        }
    }

    /// A signed instantaneous value (queue depths, in-flight counts).
    #[derive(Debug, Default)]
    pub struct Gauge {
        cell: AtomicI64,
    }

    impl Gauge {
        /// A zeroed gauge (const-constructible for statics).
        pub const fn new() -> Self {
            Gauge { cell: AtomicI64::new(0) }
        }

        /// Sets the value.
        pub fn set(&self, v: i64) {
            if ENABLED.load(Ordering::Relaxed) {
                self.cell.store(v, Ordering::Relaxed);
            }
        }

        /// Adds `n` (may be negative via [`Gauge::sub`]).
        pub fn add(&self, n: i64) {
            if ENABLED.load(Ordering::Relaxed) {
                self.cell.fetch_add(n, Ordering::Relaxed);
            }
        }

        /// Subtracts `n`.
        pub fn sub(&self, n: i64) {
            self.add(-n);
        }

        /// Raises the value to at least `v`.
        pub fn max(&self, v: i64) {
            if ENABLED.load(Ordering::Relaxed) {
                self.cell.fetch_max(v, Ordering::Relaxed);
            }
        }

        /// Current value.
        pub fn get(&self) -> i64 {
            self.cell.load(Ordering::Relaxed)
        }
    }

    /// An `f64` gauge (bit-cast through an atomic `u64`), for rates.
    #[derive(Debug, Default)]
    pub struct FloatGauge {
        bits: AtomicU64,
    }

    impl FloatGauge {
        /// A zeroed gauge (const-constructible for statics).
        pub const fn new() -> Self {
            FloatGauge { bits: AtomicU64::new(0) }
        }

        /// Sets the value; non-finite inputs store `0.0` so `inf`/NaN can
        /// never reach a rendered snapshot.
        pub fn set(&self, v: f64) {
            if ENABLED.load(Ordering::Relaxed) {
                let v = if v.is_finite() { v } else { 0.0 };
                self.bits.store(v.to_bits(), Ordering::Relaxed);
            }
        }

        /// Current value.
        pub fn get(&self) -> f64 {
            f64::from_bits(self.bits.load(Ordering::Relaxed))
        }
    }

    /// A fixed-bucket histogram of `u64` observations.
    ///
    /// Bounds are a static, strictly increasing slice of *inclusive* upper
    /// bounds; observations above the last bound land in the implicit
    /// overflow bucket (the `null` bound of the JSON render).
    #[derive(Debug)]
    pub struct Histogram {
        bounds: &'static [u64],
        counts: [AtomicU64; SLOTS],
        sum: AtomicU64,
    }

    impl Histogram {
        /// A zeroed histogram over `bounds` (const-constructible; panics at
        /// compile time if `bounds` is too long or not strictly
        /// increasing).
        pub const fn new(bounds: &'static [u64]) -> Self {
            assert!(bounds.len() <= super::MAX_HISTOGRAM_BOUNDS, "too many histogram bounds");
            let mut i = 1;
            while i < bounds.len() {
                assert!(bounds[i - 1] < bounds[i], "histogram bounds must strictly increase");
                i += 1;
            }
            #[allow(clippy::declare_interior_mutable_const)]
            const ZERO: AtomicU64 = AtomicU64::new(0);
            Histogram { bounds, counts: [ZERO; SLOTS], sum: AtomicU64::new(0) }
        }

        /// The finite bucket bounds.
        pub fn bounds(&self) -> &'static [u64] {
            self.bounds
        }

        /// Records one observation.
        pub fn observe(&self, v: u64) {
            if !ENABLED.load(Ordering::Relaxed) {
                return;
            }
            let slot = match self.bounds.iter().position(|&b| v <= b) {
                Some(i) => i,
                None => self.bounds.len(),
            };
            self.counts[slot].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }

        /// Per-bucket (non-cumulative) counts: one entry per finite bound
        /// plus the trailing overflow bucket.
        pub fn bucket_counts(&self) -> Vec<u64> {
            (0..=self.bounds.len()).map(|i| self.counts[i].load(Ordering::Relaxed)).collect()
        }

        /// Total observations.
        pub fn count(&self) -> u64 {
            self.bucket_counts().iter().sum()
        }

        /// Sum of all observed values.
        pub fn sum(&self) -> u64 {
            self.sum.load(Ordering::Relaxed)
        }
    }

    /// True while recording is enabled (the runtime kill-switch).
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Flips the runtime kill-switch: while disabled, every recording
    /// operation returns immediately.  Reads and renders still work.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "on"))]
mod imp {
    //! Zero-sized no-op mirrors of the real metric types: same API, no
    //! storage, nothing emitted.

    /// A monotonically increasing event count (no-op build).
    #[derive(Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// A zeroed counter.
        pub const fn new() -> Self {
            Counter
        }

        /// No-op.
        pub fn add(&self, _n: u64) {}

        /// No-op.
        pub fn inc(&self) {}

        /// Always zero.
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// A signed instantaneous value (no-op build).
    #[derive(Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        /// A zeroed gauge.
        pub const fn new() -> Self {
            Gauge
        }

        /// No-op.
        pub fn set(&self, _v: i64) {}

        /// No-op.
        pub fn add(&self, _n: i64) {}

        /// No-op.
        pub fn sub(&self, _n: i64) {}

        /// No-op.
        pub fn max(&self, _v: i64) {}

        /// Always zero.
        pub fn get(&self) -> i64 {
            0
        }
    }

    /// An `f64` gauge (no-op build).
    #[derive(Debug, Default)]
    pub struct FloatGauge;

    impl FloatGauge {
        /// A zeroed gauge.
        pub const fn new() -> Self {
            FloatGauge
        }

        /// No-op.
        pub fn set(&self, _v: f64) {}

        /// Always zero.
        pub fn get(&self) -> f64 {
            0.0
        }
    }

    /// A fixed-bucket histogram (no-op build).
    #[derive(Debug)]
    pub struct Histogram {
        bounds: &'static [u64],
    }

    impl Histogram {
        /// A zeroed histogram over `bounds`.
        pub const fn new(bounds: &'static [u64]) -> Self {
            Histogram { bounds }
        }

        /// The finite bucket bounds.
        pub fn bounds(&self) -> &'static [u64] {
            self.bounds
        }

        /// No-op.
        pub fn observe(&self, _v: u64) {}

        /// All-zero per-bucket counts (one per bound plus overflow).
        pub fn bucket_counts(&self) -> Vec<u64> {
            vec![0; self.bounds.len() + 1]
        }

        /// Always zero.
        pub fn count(&self) -> u64 {
            0
        }

        /// Always zero.
        pub fn sum(&self) -> u64 {
            0
        }
    }

    /// Always false in the no-op build.
    pub fn enabled() -> bool {
        false
    }

    /// No-op.
    pub fn set_enabled(_on: bool) {}
}

pub use imp::{enabled, set_enabled, Counter, FloatGauge, Gauge, Histogram};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic event count.
    Counter,
    /// Signed instantaneous value.
    Gauge,
    /// Floating-point instantaneous value.
    FloatGauge,
    /// Fixed-bucket distribution.
    Histogram,
}

/// Static description of one registered metric: the contract between the
/// registry, the rendered snapshots and the OPERATIONS.md reference table
/// (pinned by `tests/docs_drift.rs`).
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Metric name (Prometheus naming conventions; counters end in `_total`).
    pub name: &'static str,
    /// What the metric measures.
    pub kind: Kind,
    /// Unit of the value (`states`, `bytes`, `ms`, …).
    pub unit: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// One captured metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Float-gauge reading.
    Float(f64),
    /// Histogram reading: finite bounds, per-bucket (non-cumulative)
    /// counts (one per bound plus the overflow bucket), and the value sum.
    Histogram {
        /// The finite bucket bounds.
        bounds: &'static [u64],
        /// Per-bucket counts, `bounds.len() + 1` entries.
        counts: Vec<u64>,
        /// Sum of observed values.
        sum: u64,
    },
}

/// One metric in a [`Snapshot`]: its descriptor plus the captured value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The metric's static description.
    pub descriptor: Descriptor,
    /// The captured value.
    pub value: Value,
}

macro_rules! kind_ty {
    (counter) => {
        Counter
    };
    (gauge) => {
        Gauge
    };
    (fgauge) => {
        FloatGauge
    };
    (hist) => {
        Histogram
    };
}

macro_rules! kind_tag {
    (counter) => {
        Kind::Counter
    };
    (gauge) => {
        Kind::Gauge
    };
    (fgauge) => {
        Kind::FloatGauge
    };
    (hist) => {
        Kind::Histogram
    };
}

macro_rules! kind_new {
    (counter) => {
        Counter::new()
    };
    (gauge) => {
        Gauge::new()
    };
    (fgauge) => {
        FloatGauge::new()
    };
    (hist, $bounds:expr) => {
        Histogram::new($bounds)
    };
}

macro_rules! kind_read {
    (counter, $m:expr) => {
        Value::Counter($m.get())
    };
    (gauge, $m:expr) => {
        Value::Gauge($m.get())
    };
    (fgauge, $m:expr) => {
        Value::Float($m.get())
    };
    (hist, $m:expr) => {
        Value::Histogram { bounds: $m.bounds(), counts: $m.bucket_counts(), sum: $m.sum() }
    };
}

macro_rules! registry {
    ( $( $kind:ident $field:ident : $name:literal, $unit:literal, $help:literal $(, $bounds:expr )? ; )+ ) => {
        /// The full metric registry: one field per metric, const-constructed.
        ///
        /// The process-wide instance is [`METRICS`]; tests construct
        /// private instances to assert recording behaviour without touching
        /// global state.
        #[derive(Debug)]
        pub struct Metrics {
            $( #[doc = $help] pub $field: kind_ty!($kind), )+
        }

        impl Metrics {
            /// A zeroed registry.
            pub const fn new() -> Self {
                Metrics { $( $field: kind_new!($kind $(, $bounds)?), )+ }
            }

            /// Captures every metric into a point-in-time [`Snapshot`].
            pub fn capture(&self) -> Snapshot {
                Snapshot {
                    samples: vec![
                        $( Sample {
                            descriptor: Descriptor {
                                name: $name,
                                kind: kind_tag!($kind),
                                unit: $unit,
                                help: $help,
                            },
                            value: kind_read!($kind, &self.$field),
                        }, )+
                    ],
                }
            }
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics::new()
            }
        }

        /// Static descriptions of every registered metric, in registry
        /// order — the source of truth for the OPERATIONS.md metrics
        /// reference table.
        pub const DESCRIPTORS: &[Descriptor] = &[
            $( Descriptor { name: $name, kind: kind_tag!($kind), unit: $unit, help: $help }, )+
        ];
    };
}

/// Bucket bounds for the planner's verification-group size distribution.
pub const GROUP_SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

registry! {
    // Checker family: flushed once per finished search, never per state.
    counter checker_searches: "iotsan_checker_searches_total", "searches",
        "Finished model-checking searches";
    counter checker_states: "iotsan_checker_states_total", "states",
        "Distinct states admitted to visited-state stores across all searches";
    counter checker_transitions: "iotsan_checker_transitions_total", "transitions",
        "Transitions applied across all searches";
    counter checker_dedup_hits: "iotsan_checker_dedup_hits_total", "lookups",
        "Store insertions rejected as already-visited (dedup hits) across all searches";
    counter checker_truncated: "iotsan_checker_truncated_total", "searches",
        "Searches truncated by a state/transition cap, deadline or cancellation";
    fgauge checker_last_states_per_sec: "iotsan_checker_last_states_per_sec", "states/s",
        "Throughput of the most recently finished search";
    gauge checker_frontier_peak: "iotsan_checker_frontier_peak", "frames",
        "Peak frontier size (queue frames) of the most recent search";
    gauge checker_arena_peak_bytes: "iotsan_checker_arena_peak_bytes", "bytes",
        "Peak trace-arena bookkeeping bytes of the most recent search";

    // Planner/cache family: recorded by the verification cache on every
    // lookup/insert and by the planner per planned group.
    counter cache_hits: "iotsan_cache_hits_total", "lookups",
        "Verification-cache lookups answered from memory or backing";
    counter cache_misses: "iotsan_cache_misses_total", "lookups",
        "Verification-cache lookups that required a fresh verification";
    counter cache_backing_hits: "iotsan_cache_backing_hits_total", "lookups",
        "Cache lookups answered by the durable verdict-store backing";
    counter cache_persist_failures: "iotsan_cache_persist_failures_total", "inserts",
        "Cache inserts the durable backing failed to persist";
    hist planner_group_size: "iotsan_planner_group_size", "devices",
        "Distribution of planned verification-group sizes", GROUP_SIZE_BOUNDS;
    counter planner_served_by_renaming: "iotsan_planner_served_by_renaming_total", "groups",
        "Cache-miss groups served by replaying another member of their renaming class";

    // Verdict-store family: recorded at append/compact/open time (already
    // I/O-bound paths).
    counter store_appends: "iotsan_store_appends_total", "records",
        "Verdict records appended to the durable store";
    counter store_compactions: "iotsan_store_compactions_total", "compactions",
        "Completed verdict-store compactions";
    counter store_recoveries: "iotsan_store_recoveries_total", "opens",
        "Store opens that replayed an existing log (any recovery outcome)";
    counter store_corrupt_tails: "iotsan_store_corrupt_tails_total", "opens",
        "Store opens that truncated a torn tail or discarded the log";
    counter store_io_faults: "iotsan_store_io_faults_total", "faults",
        "Injected I/O faults executed by the fault-injection seam";

    // Daemon family: job lifecycle and health, recorded at queue and
    // supervision boundaries.
    counter daemon_jobs_accepted: "iotsan_daemon_jobs_accepted_total", "jobs",
        "Jobs accepted into the daemon queue";
    counter daemon_jobs_completed: "iotsan_daemon_jobs_completed_total", "jobs",
        "Jobs finished with status ok";
    counter daemon_jobs_failed: "iotsan_daemon_jobs_failed_total", "jobs",
        "Jobs finished with status failed (including panics)";
    counter daemon_jobs_invalid: "iotsan_daemon_jobs_invalid_total", "jobs",
        "Jobs rejected as invalid before execution";
    counter daemon_retries: "iotsan_daemon_retries_total", "attempts",
        "Job execution retries after a worker panic";
    counter daemon_quarantines: "iotsan_daemon_quarantines_total", "jobs",
        "Jobs quarantined after exhausting their retry budget";
    counter daemon_reprobes: "iotsan_daemon_reprobes_total", "probes",
        "Degraded-mode store reprobe attempts";
    counter daemon_degraded_ms: "iotsan_daemon_degraded_ms_total", "ms",
        "Total milliseconds spent in degraded (store-bypassed) mode";
    gauge daemon_queue_depth: "iotsan_daemon_queue_depth", "jobs",
        "Jobs currently waiting in the daemon queue";
    gauge daemon_inflight: "iotsan_daemon_inflight", "jobs",
        "Jobs currently claimed by workers";
    gauge daemon_degraded: "iotsan_daemon_degraded", "bool",
        "1 while the verdict store is bypassed in degraded mode, else 0";
}

/// The process-wide metric registry.
pub static METRICS: Metrics = Metrics::new();

/// Captures the process-wide registry into a point-in-time snapshot.
pub fn snapshot() -> Snapshot {
    METRICS.capture()
}

/// A point-in-time capture of every registered metric, renderable as one
/// flat JSON row.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The captured metrics, in registry order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Looks up a captured value by exposition name.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.samples.iter().find(|s| s.descriptor.name == name).map(|s| &s.value)
    }

    /// Convenience: the value of a counter metric, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Appends every metric as a field of `row` (histograms as nested
    /// objects with `sum`, `count` and per-bound cumulative `buckets`).
    pub fn append_fields(&self, mut row: JsonRow) -> JsonRow {
        use std::fmt::Write as _;
        for sample in &self.samples {
            let name = sample.descriptor.name;
            row = match &sample.value {
                Value::Counter(v) => row.num_u(name, *v),
                Value::Gauge(v) => row.num_i(name, *v),
                Value::Float(v) => row.num_f(name, *v),
                Value::Histogram { bounds, counts, sum } => {
                    let mut buckets = String::from("[");
                    let mut cumulative = 0u64;
                    for (i, bound) in bounds.iter().enumerate() {
                        cumulative += counts.get(i).copied().unwrap_or(0);
                        if i > 0 {
                            buckets.push(',');
                        }
                        let _ = write!(buckets, "[{},{}]", bound, cumulative);
                    }
                    cumulative += counts.get(bounds.len()).copied().unwrap_or(0);
                    if !bounds.is_empty() {
                        buckets.push(',');
                    }
                    let _ = write!(buckets, "[null,{}]]", cumulative);
                    let inner = JsonRow::new()
                        .num_u("sum", *sum)
                        .num_u("count", cumulative)
                        .raw("buckets", &buckets)
                        .finish();
                    row.raw(name, &inner)
                }
            };
        }
        row
    }

    /// Renders the snapshot as one flat JSON object row.
    pub fn render_json(&self) -> String {
        self.append_fields(JsonRow::new()).finish()
    }
}

#[cfg(all(test, feature = "on"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The runtime kill-switch is process-wide, so every test that records
    /// serializes on this lock (the kill-switch test would otherwise race
    /// recording tests running on sibling threads).
    fn recording_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn counters_and_gauges_record() {
        let _serial = recording_lock();
        let m = Metrics::new();
        m.checker_searches.inc();
        m.checker_states.add(41);
        m.checker_states.inc();
        m.daemon_queue_depth.set(3);
        m.daemon_queue_depth.add(2);
        m.daemon_queue_depth.sub(4);
        m.checker_frontier_peak.max(7);
        m.checker_frontier_peak.max(5);
        m.checker_last_states_per_sec.set(1234.5);
        assert_eq!(m.checker_searches.get(), 1);
        assert_eq!(m.checker_states.get(), 42);
        assert_eq!(m.daemon_queue_depth.get(), 1);
        assert_eq!(m.checker_frontier_peak.get(), 7);
        assert_eq!(m.checker_last_states_per_sec.get(), 1234.5);
    }

    #[test]
    fn float_gauge_rejects_non_finite() {
        let _serial = recording_lock();
        let m = Metrics::new();
        m.checker_last_states_per_sec.set(f64::INFINITY);
        assert_eq!(m.checker_last_states_per_sec.get(), 0.0);
        m.checker_last_states_per_sec.set(f64::NAN);
        assert_eq!(m.checker_last_states_per_sec.get(), 0.0);
    }

    #[test]
    fn histogram_buckets_observe_inclusively() {
        let _serial = recording_lock();
        let m = Metrics::new();
        for size in [1, 1, 2, 3, 8, 9, 1000] {
            m.planner_group_size.observe(size);
        }
        // Bounds 1,2,4,8,16,32,64 (inclusive le): 1→b0 ×2, 2→b1, 3→b2,
        // 8→b3, 9→b4, 1000→overflow.
        let counts = m.planner_group_size.bucket_counts();
        assert_eq!(counts, vec![2, 1, 1, 1, 1, 0, 0, 1]);
        assert_eq!(m.planner_group_size.count(), 7);
        assert_eq!(m.planner_group_size.sum(), 1 + 1 + 2 + 3 + 8 + 9 + 1000);
    }

    #[test]
    fn kill_switch_stops_recording() {
        let _serial = recording_lock();
        let m = Metrics::new();
        set_enabled(false);
        m.cache_hits.inc();
        m.daemon_queue_depth.set(9);
        m.planner_group_size.observe(2);
        set_enabled(true);
        assert_eq!(m.cache_hits.get(), 0);
        assert_eq!(m.daemon_queue_depth.get(), 0);
        assert_eq!(m.planner_group_size.count(), 0);
        m.cache_hits.inc();
        assert_eq!(m.cache_hits.get(), 1);
    }

    #[test]
    fn descriptors_cover_all_families_with_unique_names() {
        let names: Vec<&str> = DESCRIPTORS.iter().map(|d| d.name).collect();
        for family in ["iotsan_checker_", "iotsan_cache_", "iotsan_store_", "iotsan_daemon_"] {
            assert!(names.iter().any(|n| n.starts_with(family)), "missing family {family}");
        }
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate metric names");
        // Prometheus conventions: counters end in _total, nothing else does.
        for d in DESCRIPTORS {
            match d.kind {
                Kind::Counter => assert!(d.name.ends_with("_total"), "{}", d.name),
                _ => assert!(!d.name.ends_with("_total"), "{}", d.name),
            }
        }
    }

    #[test]
    fn snapshot_golden_json() {
        let _serial = recording_lock();
        let m = Metrics::new();
        m.checker_searches.inc();
        m.checker_last_states_per_sec.set(1500.5);
        m.planner_group_size.observe(1);
        m.planner_group_size.observe(3);
        m.planner_group_size.observe(99);
        let snap = m.capture();

        // Every registered metric in registry order: counters and gauges as
        // numbers, the histogram as cumulative `[bound, count]` buckets
        // (le=1 →1, le=2 →1, le=4 →2 …) ending in the `null` overflow bound.
        assert_eq!(
            snap.render_json(),
            concat!(
                "{\"iotsan_checker_searches_total\":1,\"iotsan_checker_states_total\":0,",
                "\"iotsan_checker_transitions_total\":0,\"iotsan_checker_dedup_hits_total\":0,",
                "\"iotsan_checker_truncated_total\":0,\"iotsan_checker_last_states_per_sec\":1500.5,",
                "\"iotsan_checker_frontier_peak\":0,\"iotsan_checker_arena_peak_bytes\":0,",
                "\"iotsan_cache_hits_total\":0,\"iotsan_cache_misses_total\":0,",
                "\"iotsan_cache_backing_hits_total\":0,\"iotsan_cache_persist_failures_total\":0,",
                "\"iotsan_planner_group_size\":{\"sum\":103,\"count\":3,\"buckets\":",
                "[[1,1],[2,1],[4,2],[8,2],[16,2],[32,2],[64,2],[null,3]]},",
                "\"iotsan_planner_served_by_renaming_total\":0,\"iotsan_store_appends_total\":0,",
                "\"iotsan_store_compactions_total\":0,\"iotsan_store_recoveries_total\":0,",
                "\"iotsan_store_corrupt_tails_total\":0,\"iotsan_store_io_faults_total\":0,",
                "\"iotsan_daemon_jobs_accepted_total\":0,\"iotsan_daemon_jobs_completed_total\":0,",
                "\"iotsan_daemon_jobs_failed_total\":0,\"iotsan_daemon_jobs_invalid_total\":0,",
                "\"iotsan_daemon_retries_total\":0,\"iotsan_daemon_quarantines_total\":0,",
                "\"iotsan_daemon_reprobes_total\":0,\"iotsan_daemon_degraded_ms_total\":0,",
                "\"iotsan_daemon_queue_depth\":0,\"iotsan_daemon_inflight\":0,",
                "\"iotsan_daemon_degraded\":0}"
            )
        );
        assert_eq!(snap.counter("iotsan_checker_searches_total"), 1);
    }

    #[test]
    fn snapshot_value_lookup() {
        let _serial = recording_lock();
        let m = Metrics::new();
        m.store_appends.add(5);
        let snap = m.capture();
        assert_eq!(snap.value("iotsan_store_appends_total"), Some(&Value::Counter(5)));
        assert_eq!(snap.value("no_such_metric"), None);
        assert_eq!(snap.counter("no_such_metric"), 0);
    }
}
