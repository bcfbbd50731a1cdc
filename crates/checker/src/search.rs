//! The explicit-state search engine.
//!
//! This is the Spin substitute (see DESIGN.md §4): a bounded, explicit-state
//! safety checker.  The model checker "enumerates all possible permutations of
//! the input physical events up to a maximum number of events per user's
//! configuration to exhaustively verify the system" (Algorithm 1) — here that
//! bound is [`SearchConfig::max_depth`], the maximum number of external events
//! along any path.  Visited states are stored exactly ([`crate::store`]).
//!
//! The search is breadth-first, so a state is first visited at its minimum
//! depth, with the most event budget left: the visited set keys on the
//! encoded state alone.  That holds only while the encoding keeps apart
//! every pair of states whose futures differ other than by the budget (see
//! [`TransitionSystem::encode`]).  Violations are checked on every applied
//! transition before the visited-set lookup, so deduplication never hides
//! one.
//!
//! # Allocation discipline
//!
//! The loop itself allocates per *admitted* state (its visited-set entry,
//! and its frontier and arena slots as those grow), not per transition; the
//! model's `apply` builds each successor state.  What a model allocates
//! inside `apply` is its own budget: the IoT model's is pinned by
//! `tests/hot_loop_allocations.rs` (at most 7.0 allocations per transition
//! on the 150-app market bundle and 2.2 on the `deep-group` bundle, checker
//! included).  Beyond that:
//!
//! * enabled actions are written into one reused buffer per expansion;
//! * counterexample bookkeeping is a parent-pointer `TraceArena` — one
//!   `(parent, action index)` node per expanded state instead of an
//!   O(depth) trace clone per transition (which made path cost quadratic);
//! * effect logs are deferred: the search runs with a disabled
//!   [`StepLog`], so the model never formats or even constructs log events on
//!   the hot path;
//! * a counterexample is a *path*: the index of each action in the model's
//!   own [`TransitionSystem::actions`] enumeration at that state.  Full
//!   [`Trace`]s (action strings plus rendered log lines) exist only for the
//!   ≤1-per-property violations that are actually reported — [`replay`]
//!   renders them by re-running the path from the initial state with
//!   logging enabled, and re-checks the reported violation on the way;
//! * a reported property is *settled* on the search's model scratch
//!   ([`TransitionSystem::settle`]), so the model stops checking it rather
//!   than build violation lists the search would discard.  The clock
//!   and the cancel token are read once per expansion; the count caps are
//!   checked before every transition.

use crate::store::ExactStore;
use crate::trace::Trace;
use crate::transition::{StepLog, TransitionSystem, Violation};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::METRICS;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation handle for an in-flight search.
///
/// A long-running verification job (e.g. one queued in `iotsan-daemon`) can
/// hand the checker a token via [`SearchConfig::cancel`]; calling
/// [`CancelToken::cancel`] from any thread stops the search at its next
/// per-expansion cap check, and the report comes back with
/// [`SearchStats::truncated`] set (no count-cap flag — like a wall-clock
/// budget firing).  Cloning the token clones the *handle*: all clones observe
/// the same flag.
///
/// ```
/// use iotsan_checker::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every search configured with (a clone of) this
    /// token stops at its next cap check.  Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by *identity* (shared flag), not by current state: a config
/// carrying a fresh token is not interchangeable with one carrying another.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Configuration of one verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Maximum number of external events along a path (the paper's
    /// "maximum number of events", Tables 7b and 8 sweep this).
    pub max_depth: usize,
    /// Hard cap on stored states (safety net against state explosion).
    pub max_states: usize,
    /// Hard cap on applied transitions.
    pub max_transitions: usize,
    /// Wall-clock budget; the search stops (reporting partial results) when
    /// exceeded.  The clock is read once per expanded state, so the search
    /// may overrun by one expansion.
    pub time_limit: Option<Duration>,
    /// Cooperative cancellation: when set, the search polls the token at
    /// its per-expansion cap check and stops (reporting
    /// [`SearchStats::truncated`]) once it is cancelled.  `None` (the
    /// default) disables the poll entirely.
    pub cancel: Option<CancelToken>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_depth: 3,
            max_states: 2_000_000,
            max_transitions: 20_000_000,
            time_limit: None,
            cancel: None,
        }
    }
}

impl SearchConfig {
    /// A configuration exploring up to `max_depth` external events.
    pub fn with_depth(max_depth: usize) -> Self {
        SearchConfig { max_depth, ..Default::default() }
    }

    /// Attaches a cancellation token (builder style); see
    /// [`SearchConfig::cancel`].
    pub fn cancellable(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Statistics reported after a search.
///
/// Time accounting is monotonic (a single [`Instant`] anchor is sampled once
/// when the search finishes, including when a cap fires mid-expansion) and
/// all counters saturate instead of wrapping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of distinct states stored.
    pub states_stored: usize,
    /// Number of transitions applied.
    pub transitions: usize,
    /// Deepest path (in external events) reached.
    pub max_depth_reached: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Exploration throughput: distinct states stored per second of
    /// wall-clock search time (the headline number the exploration core is
    /// measured by; `repro throughput --json` and the CI regression guard
    /// consume it).
    pub states_per_sec: f64,
    /// Approximate memory used by the state store.
    pub store_memory_bytes: usize,
    /// High-water mark, in bytes, of counterexample bookkeeping: the
    /// parent-pointer trace arena plus every replayed counterexample trace.
    /// The arena grows by one small node per state admitted below the depth
    /// bound; full traces with strings exist only for reported violations.
    pub peak_trace_bytes: usize,
    /// True when the search stopped because of a resource cap rather than
    /// exhausting the bounded state space.
    pub truncated: bool,
    /// True when [`SearchConfig::max_states`] fired (the state space was not
    /// exhausted; results are a lower bound).
    pub states_capped: bool,
    /// True when [`SearchConfig::max_transitions`] fired.
    pub transitions_capped: bool,
    /// The fixpoint: `Some(d)` when the search ran to completion (no cap)
    /// and every reachable state was expanded — none was admitted at
    /// [`SearchConfig::max_depth`] or at the model's own bound
    /// ([`TransitionSystem::at_bound`]).  `d` is the deepest transition
    /// applied, and the whole report is the same for every event bound
    /// `>= d`, with the search and model bounds equal as `iotsan::Pipeline`
    /// sets them (`ModelOptions::max_events == SearchConfig::max_depth`).
    /// A model that encodes its depth (the IoT models' event count, when a
    /// handler reads the clock) never closes below its bound.
    pub closed_at: Option<usize>,
}

/// The resource cap that ended a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CapHit {
    States,
    Transitions,
    Time,
    Cancelled,
}

impl SearchStats {
    /// Records that `cap` ended the search early.
    fn record_cap(&mut self, cap: CapHit) {
        self.truncated = true;
        match cap {
            CapHit::States => self.states_capped = true,
            CapHit::Transitions => self.transitions_capped = true,
            // Like a wall-clock budget, a cancellation truncates the search
            // without implicating either count cap.
            CapHit::Time | CapHit::Cancelled => {}
        }
    }
}

/// One reported violation with its counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundViolation {
    /// The violated property.
    pub violation: Violation,
    /// A counterexample trace from the initial state, shared by the
    /// co-violations of one step and by every copy of the report (cache
    /// entries, served members, decoded records).
    pub trace: Arc<Trace>,
    /// Number of external events in the counterexample.
    pub depth: usize,
    /// The counterexample as a path: at each step, the index of the action
    /// taken in the model's own [`TransitionSystem::actions`] enumeration at
    /// that state.  It names no app, device or value; [`replay`] turns it
    /// back into [`FoundViolation::trace`] on any model that enumerates its
    /// actions the same way.
    pub path: Vec<u32>,
}

/// The result of a verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// One entry per violated property (first counterexample found).
    pub violations: Vec<FoundViolation>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchReport {
    /// True when at least one property was violated.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The set of violated property identifiers.
    pub fn violated_properties(&self) -> BTreeSet<u32> {
        self.violations.iter().map(|v| v.violation.property).collect()
    }

    /// The violation for a specific property, if found.
    pub fn violation_for(&self, property: u32) -> Option<&FoundViolation> {
        self.violations.iter().find(|v| v.violation.property == property)
    }
}

/// Sentinel parent id of root frames (the initial state, empty path).
const NO_PARENT: u32 = u32::MAX;

/// Parent-pointer counterexample bookkeeping.
///
/// The search records one `(parent, action index)` node per state it will
/// expand — never a full trace per transition.  A counterexample's path is
/// reconstructed by walking parents from the violating frame to the root,
/// which only happens for the ≤1-per-property violations that are reported.
#[derive(Debug, Default)]
struct TraceArena {
    nodes: Vec<(u32, u32)>,
}

impl TraceArena {
    /// Records an admitted state's provenance; returns its node id.
    #[inline]
    fn push(&mut self, parent: u32, action: u32) -> u32 {
        let id = self.nodes.len() as u32;
        assert!(id < NO_PARENT, "trace arena overflow (>2^32 - 1 admitted states)");
        self.nodes.push((parent, action));
        id
    }

    /// Reconstructs the root-to-`node` path into `out` (cleared first).
    fn path(&self, mut node: u32, out: &mut Vec<u32>) {
        out.clear();
        while node != NO_PARENT {
            let (parent, action) = self.nodes[node as usize];
            out.push(action);
            node = parent;
        }
        out.reverse();
    }

    /// Approximate heap footprint of the arena in bytes.
    fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Why a path did not replay into a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// At `step`, the path names action `index`, but the state offers only
    /// `offered` actions.
    ActionOutOfRange {
        /// The zero-based step of the path.
        step: usize,
        /// The action index the path names.
        index: u32,
        /// How many actions the model offers in that state.
        offered: usize,
    },
    /// The path's last step does not violate `property` (an empty path
    /// violates nothing).
    NotViolated {
        /// The property the path was expected to violate.
        property: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::ActionOutOfRange { step, index, offered } => {
                write!(f, "step {step} names action {index}, but the state offers {offered}")
            }
            ReplayError::NotViolated { property } => {
                write!(f, "the path's last step does not violate P{property:02}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays a counterexample path on `model` and renders its [`Trace`]: the
/// only place the checker renders action strings and log lines.
///
/// The replay starts from the initial state with a fresh scratch (so no
/// property is settled) and logging on.  At each step it enumerates the
/// state's actions and applies the one at the path's index.  It fails,
/// without panicking, when an index is out of range or when the last step's
/// violations lack one of `properties`.  `apply` is deterministic, so a path
/// the search reports always replays on the model it searched; the planner
/// also replays one on every model whose enumeration matches.
pub fn replay<T: TransitionSystem>(
    model: &T,
    path: &[u32],
    properties: &[u32],
) -> Result<Trace, ReplayError> {
    replay_with(model, path, properties, &mut Vec::new())
}

/// [`replay`] enumerating actions into `actions`, a buffer the search
/// reuses across its replays.
fn replay_with<T: TransitionSystem>(
    model: &T,
    path: &[u32],
    properties: &[u32],
    actions: &mut Vec<T::Action>,
) -> Result<Trace, ReplayError> {
    let mut trace = Trace::new();
    let mut state = model.initial_state();
    let mut scratch = T::Scratch::default();
    let mut log = StepLog::enabled();
    let mut violations = Vec::new();
    for (step, &index) in path.iter().enumerate() {
        model.actions(&state, actions);
        let Some(action) = actions.get(index as usize) else {
            return Err(ReplayError::ActionOutOfRange { step, index, offered: actions.len() });
        };
        log.clear();
        let outcome = model.apply(&state, action, &mut scratch, &mut log);
        let lines = log.events().iter().map(|e| model.render_event(e)).collect();
        trace.push(model.display_action(action), lines);
        state = outcome.state;
        violations = outcome.violations;
    }
    match properties.iter().find(|&&p| !violations.iter().any(|v| v.property == p)) {
        Some(&property) => Err(ReplayError::NotViolated { property }),
        None => Ok(trace),
    }
}

/// The explicit-state model checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    config: SearchConfig,
}

impl Checker {
    /// Creates a checker with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        Checker { config }
    }

    /// Runs the breadth-first search over `model` and reports violations and
    /// statistics.
    ///
    /// The search is single-threaded and deterministic: the same model and
    /// configuration always yield the same report, counterexample traces
    /// included (only the timing fields vary).  Independent searches run
    /// concurrently on separate threads.  Counterexamples are shortest: each
    /// violated property is reported from the first layer that violates it.
    pub fn verify<T: TransitionSystem>(&self, model: &T) -> SearchReport {
        let max_depth = self.config.max_depth;
        let start = Instant::now();
        let mut store = ExactStore::new();
        let mut report = SearchReport::default();
        let mut seen_properties: BTreeSet<u32> = BTreeSet::new();
        // Per-search telemetry tallies, flushed once in `finish` — the hot
        // loop never touches the global registry.
        let mut dedup_hits: usize = 0;
        let mut frontier_peak: usize = 1;
        flight::record(Level::Debug, EventCode::SearchStart, &format!("depth={max_depth}"));

        // Reused hot-loop buffers: encoded state bytes, enabled actions,
        // model scratch, the (disabled) effect log and the buffers of the
        // rare replays.
        let mut encode_buf = Vec::new();
        let mut actions_buf: Vec<T::Action> = Vec::new();
        let mut scratch = T::Scratch::default();
        let mut log = StepLog::disabled();
        let mut replay_bufs = ReplayBuffers::default();
        let mut arena = TraceArena::default();

        let initial = model.initial_state();
        model.encode(&initial, &mut encode_buf);
        store.insert(&encode_buf);
        // Set once a bound withholds an admitted state's successors.
        let mut bounded = max_depth == 0 || model.at_bound(&initial);

        // The FIFO frontier: (state, depth, arena node).  Only states below
        // `max_depth` enter it: a state admitted at the bound is never
        // expanded, so it goes into the visited set alone.
        let mut frontier: VecDeque<(T::State, usize, u32)> = VecDeque::new();
        if max_depth > 0 {
            frontier.push_back((initial, 0, NO_PARENT));
        }

        'search: while let Some((state, depth, node)) = frontier.pop_front() {
            // The clock and the cancel token are read once per expansion;
            // the count caps stay exact, checked before every transition.
            if let Some(cap) = self.cap_hit(&report.stats, start, store.len()) {
                report.stats.record_cap(cap);
                break;
            }
            model.actions(&state, &mut actions_buf);
            for (index, action) in (0u32..).zip(&actions_buf) {
                if let Some(cap) = self.count_cap_hit(&report.stats, store.len()) {
                    report.stats.record_cap(cap);
                    break 'search;
                }
                let outcome = model.apply(&state, action, &mut scratch, &mut log);
                report.stats.transitions = report.stats.transitions.saturating_add(1);
                let next_depth = depth + 1;
                report.stats.max_depth_reached = report.stats.max_depth_reached.max(next_depth);

                if !outcome.violations.is_empty() {
                    record_violations(
                        model,
                        &outcome.violations,
                        &arena,
                        node,
                        index,
                        next_depth,
                        &mut seen_properties,
                        &mut report,
                        &mut replay_bufs,
                        &mut scratch,
                    );
                }

                encode_buf.clear();
                model.encode(&outcome.state, &mut encode_buf);
                if !store.insert(&encode_buf) {
                    dedup_hits += 1;
                    continue;
                }
                bounded |= next_depth == max_depth || model.at_bound(&outcome.state);
                if next_depth < max_depth {
                    let next_node = arena.push(node, index);
                    frontier.push_back((outcome.state, next_depth, next_node));
                    frontier_peak = frontier_peak.max(frontier.len());
                }
            }
        }

        // A cap leaves the frontier unexplored.
        if !report.stats.truncated && !bounded {
            report.stats.closed_at = Some(report.stats.max_depth_reached);
        }
        self.finish(&mut report, &store, start, arena.memory_bytes());
        flush_search_telemetry(
            &report.stats,
            dedup_hits,
            frontier_peak,
            self.config.cancel.as_ref().is_some_and(|t| t.is_cancelled()),
        );
        report
    }

    /// Every cap: the count caps, the time limit and the cancel token.
    fn cap_hit(&self, stats: &SearchStats, start: Instant, stored: usize) -> Option<CapHit> {
        if let Some(cap) = self.count_cap_hit(stats, stored) {
            return Some(cap);
        }
        if let Some(limit) = self.config.time_limit {
            if start.elapsed() > limit {
                return Some(CapHit::Time);
            }
        }
        if let Some(token) = &self.config.cancel {
            if token.is_cancelled() {
                return Some(CapHit::Cancelled);
            }
        }
        None
    }

    /// The transition and state caps alone: no clock read, no atomic load.
    #[inline]
    fn count_cap_hit(&self, stats: &SearchStats, stored: usize) -> Option<CapHit> {
        if stats.transitions >= self.config.max_transitions {
            return Some(CapHit::Transitions);
        }
        if stored >= self.config.max_states {
            return Some(CapHit::States);
        }
        None
    }

    /// Samples the monotonic clock exactly once and fills in the store-derived
    /// statistics — every exit path (exhaustion, caps firing mid-expansion)
    /// reports time the same way.
    fn finish(
        &self,
        report: &mut SearchReport,
        store: &ExactStore,
        start: Instant,
        arena_bytes: usize,
    ) {
        report.stats.states_stored = store.len();
        report.stats.store_memory_bytes = store.memory_bytes();
        report.stats.elapsed = start.elapsed();
        // Derived from the single elapsed sample above, so the reported
        // throughput always equals states_stored / elapsed exactly.
        report.stats.states_per_sec =
            states_per_sec(report.stats.states_stored, report.stats.elapsed);
        report.stats.peak_trace_bytes =
            arena_bytes + report.violations.iter().map(|v| v.trace.memory_bytes()).sum::<usize>();
    }
}

/// The buffers a search reuses across the replays of its counterexamples.
struct ReplayBuffers<A> {
    path: Vec<u32>,
    properties: Vec<u32>,
    actions: Vec<A>,
}

impl<A> Default for ReplayBuffers<A> {
    fn default() -> Self {
        ReplayBuffers { path: Vec::new(), properties: Vec::new(), actions: Vec::new() }
    }
}

/// Records the not-yet-seen violations of one step, replaying the shared
/// counterexample (arena path + triggering action index, from the initial
/// state) exactly once, and settles each newly reported property on the
/// search's `scratch`: every later violation of it would be discarded here.
#[allow(clippy::too_many_arguments)]
fn record_violations<T: TransitionSystem>(
    model: &T,
    violations: &[Violation],
    arena: &TraceArena,
    parent: u32,
    action: u32,
    depth: usize,
    seen: &mut BTreeSet<u32>,
    report: &mut SearchReport,
    bufs: &mut ReplayBuffers<T::Action>,
    scratch: &mut T::Scratch,
) {
    // A violating transition that re-violates reported properties only
    // (one the model did not settle): return before collecting anything.
    if violations.iter().all(|v| seen.contains(&v.property)) {
        return;
    }
    let fresh: Vec<&Violation> = violations.iter().filter(|v| seen.insert(v.property)).collect();
    for violation in &fresh {
        model.settle(scratch, violation.property);
    }
    let Some((last, rest)) = fresh.split_last() else { return };
    arena.path(parent, &mut bufs.path);
    bufs.path.push(action);
    bufs.properties.clear();
    bufs.properties.extend(fresh.iter().map(|v| v.property));
    let trace = replay_with(model, &bufs.path, &bufs.properties, &mut bufs.actions)
        .unwrap_or_else(|e| panic!("a searched path must replay on its own model: {e}"));
    // Co-violations of one step share the trace.
    let trace = Arc::new(trace);
    for violation in rest {
        report.violations.push(FoundViolation {
            violation: (*violation).clone(),
            trace: trace.clone(),
            depth,
            path: bufs.path.clone(),
        });
    }
    report.violations.push(FoundViolation {
        violation: (*last).clone(),
        trace,
        depth,
        path: bufs.path.clone(),
    });
}

/// Distinct-states-per-second throughput, guarded against zero elapsed time.
///
/// The guard keeps the result finite for every input a search can produce
/// (a zero-duration run divides by `1e-9`, not `0`), so no `inf`/NaN ever
/// reaches [`SearchStats::states_per_sec`], the daemon codec or a rendered
/// BENCH row — see `states_per_sec_is_always_finite`.
fn states_per_sec(states: usize, elapsed: Duration) -> f64 {
    states as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Flushes one finished search's tallies into the global telemetry
/// registry and flight ring — the checker's single per-search telemetry
/// touch point.
fn flush_search_telemetry(
    stats: &SearchStats,
    dedup_hits: usize,
    frontier_peak: usize,
    cancelled: bool,
) {
    METRICS.checker_searches.inc();
    METRICS.checker_states.add(stats.states_stored as u64);
    METRICS.checker_transitions.add(stats.transitions as u64);
    METRICS.checker_dedup_hits.add(dedup_hits as u64);
    METRICS.checker_last_states_per_sec.set(stats.states_per_sec);
    METRICS.checker_frontier_peak.set(frontier_peak as i64);
    METRICS.checker_arena_peak_bytes.set(stats.peak_trace_bytes as i64);
    if stats.truncated {
        METRICS.checker_truncated.inc();
        let code = if cancelled { EventCode::SearchCancel } else { EventCode::SearchCap };
        flight::record(
            Level::Info,
            code,
            &format!(
                "states={} transitions={} states_capped={} transitions_capped={}",
                stats.states_stored,
                stats.transitions,
                stats.states_capped,
                stats.transitions_capped
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::testing::CounterModel;

    fn model() -> CounterModel {
        CounterModel { bad_value: 6, max_value: 32 }
    }

    /// The violated property ids of every action sequence of length
    /// `1..=k`, enumerated without a visited set: an oracle for the
    /// search's deduplication that shares no code with it.
    fn reference_violations<T: TransitionSystem>(model: &T, k: usize) -> BTreeSet<u32> {
        fn walk<T: TransitionSystem>(
            model: &T,
            state: &T::State,
            k: usize,
            out: &mut BTreeSet<u32>,
        ) {
            if k == 0 {
                return;
            }
            let mut actions = Vec::new();
            model.actions(state, &mut actions);
            for action in &actions {
                let outcome = model.apply(
                    state,
                    action,
                    &mut T::Scratch::default(),
                    &mut StepLog::disabled(),
                );
                out.extend(outcome.violations.iter().map(|v| v.property));
                walk(model, &outcome.state, k - 1, out);
            }
        }
        let mut out = BTreeSet::new();
        walk(model, &model.initial_state(), k, &mut out);
        out
    }

    #[test]
    fn search_matches_dedup_free_enumeration() {
        for bad_value in 1..=32 {
            let model = CounterModel { bad_value, max_value: 32 };
            for k in 1..=7 {
                let report = Checker::new(SearchConfig::with_depth(k)).verify(&model);
                assert_eq!(
                    report.violated_properties(),
                    reference_violations(&model, k),
                    "bad value {bad_value}, bound {k}"
                );
            }
        }
    }

    #[test]
    fn closes_once_the_bound_exceeds_the_reachable_depth() {
        // 31 is the deepest counter value (8 steps: 1→2→3→6→7→14→15→30→31);
        // its successors, 32, are already stored, so the ninth layer is empty.
        let at = |depth| Checker::new(SearchConfig::with_depth(depth)).verify(&model());
        let closed = at(9);
        assert_eq!(closed.stats.closed_at, Some(9));
        for depth in 10..=14 {
            let report = at(depth);
            assert_eq!(report.stats.closed_at, Some(9), "bound {depth}");
            assert_eq!(report.violations, closed.violations, "bound {depth}");
            assert_eq!(report.stats.states_stored, closed.stats.states_stored);
            assert_eq!(report.stats.transitions, closed.stats.transitions);
        }
        // A bound that admits 31 at depth 8 withholds its successors.
        for depth in 0..=8 {
            assert_eq!(at(depth).stats.closed_at, None, "bound {depth}");
        }
    }

    #[test]
    fn a_cap_or_an_early_stop_never_closes() {
        let mut capped = SearchConfig::with_depth(12);
        capped.max_states = 10;
        let mut timed = SearchConfig::with_depth(12);
        timed.time_limit = Some(Duration::ZERO);
        for config in [capped, timed] {
            let report = Checker::new(config.clone()).verify(&model());
            assert_eq!(report.stats.closed_at, None, "{config:?}");
        }
    }

    #[test]
    fn finds_the_violation() {
        let checker = Checker::new(SearchConfig::with_depth(5));
        let report = checker.verify(&model());
        assert!(report.has_violations());
        assert_eq!(report.violated_properties().len(), 1);
        let found = report.violation_for(1).unwrap();
        // The counter starts at 1; reaching 6 needs at least 3 steps
        // (1→2→3→6 or 1→2→4→5→6 ...), so the trace is non-trivial.
        assert!(found.depth >= 3);
        assert!(!found.trace.is_empty());
    }

    #[test]
    fn materialized_trace_replays_actions_and_logs() {
        let checker = Checker::new(SearchConfig::with_depth(5));
        let report = checker.verify(&model());
        let found = report.violation_for(1).unwrap();
        // The trace has one step per external event and each step carries the
        // replayed log (the counter model logs its value every step), with
        // the final log line naming the bad value.
        assert_eq!(found.trace.len(), found.depth);
        assert!(found.trace.steps.iter().all(|s| !s.log.is_empty()));
        assert_eq!(found.trace.steps.last().unwrap().log[0].text, "counter = 6");
        // Action strings come from display_action.
        assert!(found.trace.events().iter().all(|e| *e == "inc" || *e == "dbl"));
    }

    #[test]
    fn reported_paths_replay_into_their_traces() {
        let model = model();
        let report = Checker::new(SearchConfig::with_depth(6)).verify(&model);
        let found = report.violation_for(1).unwrap();
        assert_eq!(found.path.len(), found.depth);
        assert_eq!(replay(&model, &found.path, &[1]), Ok((*found.trace).clone()));
        // Increment, increment, double: 1 → 2 → 3 → 6, the first shortest
        // path in enumeration order.
        assert_eq!(found.path, vec![0, 0, 1]);
    }

    #[test]
    fn replay_rejects_an_out_of_range_index() {
        let model = model();
        // The counter model offers two actions below its maximum.
        assert_eq!(
            replay(&model, &[1, 2], &[1]),
            Err(ReplayError::ActionOutOfRange { step: 1, index: 2, offered: 2 })
        );
        assert_eq!(
            replay(&model, &[u32::MAX], &[]),
            Err(ReplayError::ActionOutOfRange { step: 0, index: u32::MAX, offered: 2 })
        );
        // At the maximum nothing is offered, so any further step is out of
        // range: 1 → 2 → 4 → 8 → 16 → 32.
        assert_eq!(
            replay(&model, &[1, 1, 1, 1, 1, 0], &[]),
            Err(ReplayError::ActionOutOfRange { step: 5, index: 0, offered: 0 })
        );
    }

    #[test]
    fn replay_rejects_a_path_that_does_not_violate_the_property() {
        let model = model();
        // 1 → 2 violates nothing; 1 → 2 → 3 → 6 violates property 1 only.
        assert_eq!(replay(&model, &[0], &[1]), Err(ReplayError::NotViolated { property: 1 }));
        assert_eq!(
            replay(&model, &[1, 0, 1], &[1, 2]),
            Err(ReplayError::NotViolated { property: 2 })
        );
        // The empty path takes no step, so it violates nothing.
        assert_eq!(replay(&model, &[], &[1]), Err(ReplayError::NotViolated { property: 1 }));
        assert_eq!(replay(&model, &[], &[]), Ok(Trace::new()));
        // A violation before the last step does not count: 6 → 7.
        assert_eq!(
            replay(&model, &[1, 0, 1, 0], &[1]),
            Err(ReplayError::NotViolated { property: 1 })
        );
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        let report = Checker::new(SearchConfig::with_depth(6)).verify(&model());
        let found = report.violation_for(1).unwrap();
        // Shortest path to 6: 1→2→3→6 (double, increment, double) = 3 steps.
        assert_eq!(found.depth, 3);
    }

    #[test]
    fn depth_bound_limits_reachability() {
        // With a depth bound of 2 the counter can reach at most 4, so the bad
        // value 6 is unreachable.
        let checker = Checker::new(SearchConfig::with_depth(2));
        let report = checker.verify(&model());
        assert!(!report.has_violations());
        assert!(report.stats.max_depth_reached <= 2);
        assert!(report.stats.states_stored > 0);
    }

    #[test]
    fn transition_cap_truncates_search() {
        let mut config = SearchConfig::with_depth(10);
        config.max_transitions = 5;
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.transitions_capped);
        assert!(!report.stats.states_capped);
        assert!(report.stats.transitions <= 6);
    }

    #[test]
    fn state_cap_truncates_search_and_is_flagged() {
        let mut config = SearchConfig::with_depth(10);
        config.max_states = 3;
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.states_capped);
        // The cap is checked between expansions, so the store may exceed it by
        // at most one expansion's successors (branching factor 2 here).
        assert!(report.stats.states_stored >= 3);
        assert!(report.stats.states_stored <= 5);
    }

    #[test]
    fn uncapped_search_reports_no_cap_flags() {
        let report = Checker::new(SearchConfig::with_depth(4)).verify(&model());
        assert!(!report.stats.truncated);
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
    }

    #[test]
    fn time_cap_reports_monotonic_elapsed() {
        let mut config = SearchConfig::with_depth(12);
        config.time_limit = Some(Duration::ZERO);
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        // Neither count cap fired; the elapsed time is recorded and usable.
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
        assert!(report.stats.elapsed > Duration::ZERO);
    }

    #[test]
    fn cancelled_token_truncates_search() {
        let token = CancelToken::new();
        token.cancel();
        let config = SearchConfig::with_depth(12).cancellable(token);
        let report = Checker::new(config).verify(&model());
        // The token was cancelled before the search started: it stops at the
        // very first cap check, reporting truncation but no count cap.
        assert!(report.stats.truncated);
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
        assert_eq!(report.stats.transitions, 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let plain = Checker::new(SearchConfig::with_depth(5)).verify(&model());
        let token = CancelToken::new();
        let tokened =
            Checker::new(SearchConfig::with_depth(5).cancellable(token.clone())).verify(&model());
        assert!(!tokened.stats.truncated);
        assert_eq!(plain.violated_properties(), tokened.violated_properties());
        assert_eq!(plain.stats.states_stored, tokened.stats.states_stored);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
    }

    #[test]
    fn states_per_sec_is_always_finite() {
        // The raw guard: no input a search can produce divides by zero.
        assert!(states_per_sec(0, Duration::ZERO).is_finite());
        assert!(states_per_sec(usize::MAX, Duration::ZERO).is_finite());
        assert!(states_per_sec(1_000_000, Duration::from_nanos(1)).is_finite());
        assert!(states_per_sec(0, Duration::MAX).is_finite());
        assert_eq!(states_per_sec(5, Duration::from_secs(2)), 2.5);
        assert!(!states_per_sec(1, Duration::ZERO).is_nan());
    }

    #[test]
    fn zero_elapsed_search_reports_finite_throughput() {
        // A search that stops at its very first cap check measures ~zero
        // elapsed time; the reported rate must still be finite (it flows
        // into the daemon codec and rendered BENCH rows unchecked).
        let mut config = SearchConfig::with_depth(12);
        config.time_limit = Some(Duration::ZERO);
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.states_per_sec.is_finite());
        assert!(!report.stats.states_per_sec.is_nan());
    }

    #[test]
    fn depths_past_255_keep_their_exploration_budget() {
        use crate::trace::LogLine;
        use crate::transition::StepOutcome;

        /// Two chains from the root (state 0) meet at state S: chain A
        /// (states 1..) after 256 events, chain B (states 1001..) after 300.
        /// A violation lies 20 events past S, so only a visit to S through
        /// A has the budget to reach it.  Breadth-first order stores S from
        /// A first, at its minimum depth.
        struct TwoChains;
        const S: u32 = 5_000;
        impl TransitionSystem for TwoChains {
            type State = u32;
            type Action = bool;
            type Event = ();
            type Scratch = ();

            fn initial_state(&self) -> u32 {
                0
            }

            fn actions(&self, state: &u32, out: &mut Vec<bool>) {
                out.clear();
                out.extend(if *state == 0 { &[false, true][..] } else { &[false][..] });
            }

            fn apply(
                &self,
                state: &u32,
                b: &bool,
                _: &mut (),
                _: &mut StepLog<()>,
            ) -> StepOutcome<u32> {
                let next = match *state {
                    0 => 1 + 1_000 * u32::from(*b),
                    255 | 1_299 => S,
                    other => other + 1,
                };
                let violations = if next == S + 20 {
                    vec![Violation { property: 1, description: "20 past S".into() }]
                } else {
                    Vec::new()
                };
                StepOutcome { state: next, violations }
            }

            fn encode(&self, state: &u32, out: &mut Vec<u8>) {
                out.extend_from_slice(&state.to_le_bytes());
            }

            fn display_action(&self, b: &bool) -> String {
                b.to_string()
            }

            fn render_event(&self, _event: &()) -> LogLine {
                LogLine::new("")
            }
        }

        let report = Checker::new(SearchConfig::with_depth(310)).verify(&TwoChains);
        assert!(!report.stats.truncated);
        let found = report.violation_for(1).expect("the violation past S through chain A");
        assert_eq!(found.depth, 256 + 20);
        assert_eq!(found.trace.events()[0], "false", "the counterexample must start down chain A");
        // The root, both chains, S and its tail up to the bound: each state
        // is stored once.
        assert_eq!(report.stats.states_stored, 1 + 255 + 299 + 1 + (310 - 256));
    }

    #[test]
    fn stats_are_populated() {
        let report = Checker::new(SearchConfig::with_depth(4)).verify(&model());
        assert!(report.stats.transitions > 0);
        assert!(report.stats.states_stored > 0);
        assert!(report.stats.store_memory_bytes > 0);
        assert!(report.stats.max_depth_reached <= 4);
        assert!(report.stats.states_per_sec > 0.0);
        // The arena recorded nodes, and the reported violation carries a
        // materialized trace — both show up in the bookkeeping high-water
        // mark.
        assert!(report.stats.peak_trace_bytes > 0);
    }

    #[test]
    fn arena_paths_round_trip() {
        let mut arena = TraceArena::default();
        let a = arena.push(NO_PARENT, 1);
        let b = arena.push(a, 2);
        let c = arena.push(b, 3);
        let mut path = Vec::new();
        arena.path(c, &mut path);
        assert_eq!(path, vec![1, 2, 3]);
        arena.path(NO_PARENT, &mut path);
        assert!(path.is_empty());
        assert!(arena.memory_bytes() > 0);
    }

    #[test]
    fn counterexamples_are_deterministic_across_runs() {
        // Repeated searches report the same violations, depths and traces:
        // the counterexample a user sees never depends on scheduling.
        let config = SearchConfig::with_depth(6);
        let first = Checker::new(config.clone()).verify(&model());
        assert!(first.has_violations());
        for _ in 0..5 {
            let again = Checker::new(config.clone()).verify(&model());
            assert_eq!(again.violations, first.violations);
            assert_eq!(again.stats.states_stored, first.stats.states_stored);
            assert_eq!(again.stats.transitions, first.stats.transitions);
        }
    }

    #[test]
    fn maximal_time_budget_behaves_like_no_deadline() {
        // `Some(Duration::MAX)` as "effectively unlimited" must neither
        // overflow nor truncate.
        let mut config = SearchConfig::with_depth(6);
        config.time_limit = Some(Duration::MAX);
        let report = Checker::new(config).verify(&model());
        assert!(report.has_violations());
        assert!(!report.stats.truncated);
    }

    #[test]
    fn co_violations_of_one_step_share_one_trace() {
        use crate::trace::LogLine;
        use crate::transition::testing::CounterAction;
        use crate::transition::StepOutcome;

        /// Like `CounterModel`, but reaching the bad value violates two
        /// properties in the same step.
        struct DoubleViolationModel;
        impl TransitionSystem for DoubleViolationModel {
            type State = u32;
            type Action = CounterAction;
            type Event = ();
            type Scratch = ();

            fn initial_state(&self) -> u32 {
                1
            }

            fn actions(&self, state: &u32, out: &mut Vec<CounterAction>) {
                out.clear();
                if *state < 32 {
                    out.push(CounterAction::Increment);
                    out.push(CounterAction::Double);
                }
            }

            fn apply(
                &self,
                state: &u32,
                action: &CounterAction,
                _scratch: &mut (),
                _log: &mut StepLog<()>,
            ) -> StepOutcome<u32> {
                let next = match action {
                    CounterAction::Increment => state + 1,
                    CounterAction::Double => state * 2,
                }
                .min(32);
                let violations = if next == 6 {
                    vec![
                        Violation { property: 1, description: "reached 6".into() },
                        Violation { property: 2, description: "also reached 6".into() },
                    ]
                } else {
                    Vec::new()
                };
                StepOutcome { state: next, violations }
            }

            fn encode(&self, state: &u32, out: &mut Vec<u8>) {
                out.extend_from_slice(&state.to_le_bytes());
            }

            fn display_action(&self, action: &CounterAction) -> String {
                action.to_string()
            }

            fn render_event(&self, _event: &()) -> LogLine {
                LogLine::new("")
            }
        }

        // The first step to reach 6 records both properties it breaks, sharing
        // one counterexample: one replay, one allocation of the trace.
        let report = Checker::new(SearchConfig::with_depth(8)).verify(&DoubleViolationModel);
        assert_eq!(report.violated_properties(), BTreeSet::from([1, 2]));
        assert!(Arc::ptr_eq(&report.violations[0].trace, &report.violations[1].trace));
        assert!(!report.stats.truncated);
    }
}
