//! The flight recorder: a bounded ring buffer of structured lifecycle
//! events, plus the level-filtered stderr log sink that replaces the
//! daemon's ad-hoc `eprintln!` diagnostics.
//!
//! Events are rare (job and store lifecycle, not per-state), so recording
//! takes a plain mutex; the ring holds the last [`FLIGHT_CAPACITY`] events
//! and older ones are overwritten in arrival order.  The daemon dumps the
//! ring automatically when the store degrades or a worker panics, and on
//! demand through `iotsand`'s `{"op":"flight"}` request — a black-box
//! recorder for the minutes before an incident.
//!
//! With the crate's `on` feature disabled the ring stores nothing
//! ([`events`] is empty, dumps render empty); the stderr sink keeps
//! working either way, so diagnostics never disappear in a no-op build.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// How many events the ring retains.
pub const FLIGHT_CAPACITY: usize = 256;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained progress (per-job steps).
    Debug = 0,
    /// Normal lifecycle milestones.
    Info = 1,
    /// Degradations the service survived.
    Warn = 2,
    /// Failures that lost or refused work.
    Error = 3,
}

impl Level {
    /// The lowercase name (`debug`/`info`/`warn`/`error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name (as accepted by `iotsand --log-level`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// What happened — the closed vocabulary of lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCode {
    /// A job entered the daemon queue.
    JobAccepted,
    /// A worker claimed a job for execution.
    JobClaimed,
    /// A job finished (any terminal status).
    JobCompleted,
    /// A job execution panicked and will be retried.
    JobRetried,
    /// A job exhausted its retry budget and was quarantined.
    JobQuarantined,
    /// A verdict record was appended to the durable store.
    StoreAppend,
    /// The verdict store compacted its log.
    StoreCompact,
    /// The verdict store replayed an existing log at open.
    StoreRecover,
    /// The store was bypassed after an I/O failure (degraded mode).
    StoreDegrade,
    /// A degraded-mode reprobe attempted to reopen the store.
    StoreReprobe,
    /// A reprobe succeeded and the store was restored.
    StoreRepair,
    /// A stored verdict no longer read back and was served as a miss.
    StoreUnreadable,
    /// A model-checking search started.
    SearchStart,
    /// A search hit a state/transition cap or deadline.
    SearchCap,
    /// A search was cancelled.
    SearchCancel,
    /// The daemon (or a tool embedding it) emitted a free-form diagnostic.
    Diagnostic,
}

impl EventCode {
    /// The stable snake_case name used in dumps and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            EventCode::JobAccepted => "job_accepted",
            EventCode::JobClaimed => "job_claimed",
            EventCode::JobCompleted => "job_completed",
            EventCode::JobRetried => "job_retried",
            EventCode::JobQuarantined => "job_quarantined",
            EventCode::StoreAppend => "store_append",
            EventCode::StoreCompact => "store_compact",
            EventCode::StoreRecover => "store_recover",
            EventCode::StoreDegrade => "store_degrade",
            EventCode::StoreReprobe => "store_reprobe",
            EventCode::StoreRepair => "store_repair",
            EventCode::StoreUnreadable => "store_unreadable",
            EventCode::SearchStart => "search_start",
            EventCode::SearchCap => "search_cap",
            EventCode::SearchCancel => "search_cancel",
            EventCode::Diagnostic => "diagnostic",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based since process start).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// What happened.
    pub code: EventCode,
    /// Free-form detail (job id, error message, counts).
    pub detail: String,
}

impl Event {
    /// Renders the event as one log line (`#seq LEVEL code: detail`).
    pub fn render(&self) -> String {
        format!("#{} {} {}: {}", self.seq, self.level.as_str(), self.code.as_str(), self.detail)
    }
}

/// The ring-buffer core, usable standalone (the process-wide recorder
/// wraps one instance; tests drive private instances deterministically).
#[derive(Debug)]
pub struct FlightRing {
    capacity: usize,
    slots: Vec<Event>,
    next: u64,
}

impl FlightRing {
    /// An empty ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRing { capacity: capacity.max(1), slots: Vec::new(), next: 0 }
    }

    /// Total events ever recorded (≥ the number retained).
    pub fn recorded(&self) -> u64 {
        self.next
    }

    /// Records one event, overwriting the oldest once full.
    pub fn push(&mut self, level: Level, code: EventCode, detail: String) {
        let event = Event { seq: self.next, level, code, detail };
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            let index = (self.next % self.capacity as u64) as usize;
            self.slots[index] = event;
        }
        self.next += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = self.slots.clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Forgets every retained event (the sequence counter keeps running).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

static STDERR_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// The minimum level rendered to stderr by [`record`].
pub fn stderr_level() -> Level {
    Level::from_u8(STDERR_LEVEL.load(Ordering::Relaxed))
}

/// Sets the minimum level rendered to stderr (the `--log-level` flag).
pub fn set_stderr_level(level: Level) {
    STDERR_LEVEL.store(level as u8, Ordering::Relaxed);
}

static FLIGHT: Mutex<Option<FlightRing>> = Mutex::new(None);

fn with_ring<R>(f: impl FnOnce(&mut FlightRing) -> R) -> R {
    let mut guard = match FLIGHT.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(guard.get_or_insert_with(|| FlightRing::new(FLIGHT_CAPACITY)))
}

/// Records one event into the process-wide ring and, when `level` clears
/// the stderr filter, renders it to stderr.
///
/// In a no-op build (`on` feature disabled) the ring stores nothing but
/// the stderr rendering still happens — diagnostics survive either way.
pub fn record(level: Level, code: EventCode, detail: &str) {
    if level >= stderr_level() {
        eprintln!("iotsan: {} {}: {}", level.as_str(), code.as_str(), detail);
    }
    #[cfg(feature = "on")]
    with_ring(|ring| ring.push(level, code, detail.to_string()));
}

/// The retained events of the process-wide ring, oldest first (empty in a
/// no-op build).
pub fn events() -> Vec<Event> {
    with_ring(|ring| ring.events())
}

/// Total events ever recorded by the process-wide ring.
pub fn recorded() -> u64 {
    with_ring(|ring| ring.recorded())
}

/// Forgets the process-wide ring's retained events (tests).
pub fn clear() {
    with_ring(|ring| ring.clear());
}

/// Renders the process-wide ring as a multi-line dump headed by `reason`.
pub fn dump(reason: &str) -> String {
    let events = events();
    let mut out = format!(
        "=== flight recorder dump ({reason}; {} retained of {} recorded) ===\n",
        events.len(),
        recorded()
    );
    for event in &events {
        out.push_str(&event.render());
        out.push('\n');
    }
    out.push_str("=== end flight recorder dump ===\n");
    out
}

/// Writes [`dump`] to stderr — the automatic dump on degrade or panic.
pub fn dump_to_stderr(reason: &str) {
    eprint!("{}", dump(reason));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_everything_until_full() {
        let mut ring = FlightRing::new(4);
        for i in 0..3 {
            ring.push(Level::Info, EventCode::JobAccepted, format!("job-{i}"));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[2].detail, "job-2");
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn wraparound_keeps_the_newest_in_order() {
        let mut ring = FlightRing::new(4);
        for i in 0..10 {
            ring.push(Level::Info, EventCode::JobCompleted, format!("job-{i}"));
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let details: Vec<&str> = events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["job-6", "job-7", "job-8", "job-9"]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn wraparound_is_deterministic() {
        // Two rings fed the same sequence agree exactly, for any feed
        // length around the capacity boundary.
        for total in [FLIGHT_CAPACITY - 1, FLIGHT_CAPACITY, FLIGHT_CAPACITY + 1, 777] {
            let mut a = FlightRing::new(FLIGHT_CAPACITY);
            let mut b = FlightRing::new(FLIGHT_CAPACITY);
            for i in 0..total {
                a.push(Level::Debug, EventCode::StoreAppend, format!("r{i}"));
                b.push(Level::Debug, EventCode::StoreAppend, format!("r{i}"));
            }
            assert_eq!(a.events(), b.events(), "{total} events");
            assert_eq!(a.events().len(), total.min(FLIGHT_CAPACITY));
        }
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn event_renders_with_seq_level_and_code() {
        let event = Event {
            seq: 7,
            level: Level::Warn,
            code: EventCode::StoreDegrade,
            detail: "injected disk full (ENOSPC)".to_string(),
        };
        assert_eq!(event.render(), "#7 warn store_degrade: injected disk full (ENOSPC)");
    }

    #[test]
    fn clear_keeps_the_sequence_counter() {
        let mut ring = FlightRing::new(2);
        ring.push(Level::Info, EventCode::JobAccepted, "a".into());
        ring.clear();
        assert!(ring.events().is_empty());
        ring.push(Level::Info, EventCode::JobAccepted, "b".into());
        assert_eq!(ring.events()[0].seq, 1);
        assert_eq!(ring.recorded(), 2);
    }
}
