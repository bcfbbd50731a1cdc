//! The transition-system abstraction the checker explores.
//!
//! The model generator (in `iotsan-core`) builds concrete transition systems
//! — a sequential-design model and a strict-concurrent model (§8, "Concurrency
//! Model") — and the checker explores them without knowing anything about IoT
//! semantics.  This mirrors how Spin explores a Promela model: the model
//! defines the next-state relation, the checker owns search, state storage and
//! counterexample reconstruction.
//!
//! # Hot-loop contract
//!
//! The trait is shaped so the steady-state exploration loop performs no
//! per-transition heap allocation:
//!
//! * [`TransitionSystem::actions`] writes into a caller-owned, reused buffer;
//! * [`TransitionSystem::apply`] receives a reusable [`TransitionSystem::Scratch`]
//!   (per search worker) for whatever intermediate storage the model needs —
//!   event queues, observations, snapshot buffers;
//! * effect logging goes through a [`StepLog`] that is **disabled** during
//!   search: models push structured [`TransitionSystem::Event`]s through
//!   [`StepLog::push`], whose closure is never even invoked while the log is
//!   off.  Events are only recorded — and only rendered to strings, via
//!   [`TransitionSystem::render_event`] — when a counterexample is
//!   materialized by replaying its action sequence (`apply` must therefore be
//!   deterministic).

use crate::trace::LogLine;
use std::fmt;
use std::sync::Arc;

/// A safety violation reported by the model while applying an action.
///
/// Models report one per violated property on every violating transition —
/// most of which the checker then drops as already reported — so the
/// description is shared, not copied: cloning a `Violation` never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Violation {
    /// Identifier of the violated property (the catalog's `PropertyId.0`).
    pub property: u32,
    /// Human-readable description of the violated property.
    pub description: Arc<str>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:02}: {}", self.property, self.description)
    }
}

/// The result of applying one action to a state.
#[derive(Debug, Clone)]
pub struct StepOutcome<S> {
    /// The successor state.
    pub state: S,
    /// Properties violated while taking this step (step-based properties) or
    /// in the resulting state (physical-state invariants), except that a
    /// property settled on the scratch ([`TransitionSystem::settle`]) may be
    /// left out.  Empty on most transitions, in which case the `Vec` never
    /// allocates.
    pub violations: Vec<Violation>,
}

/// A deferred effect log: a buffer of structured events that is a no-op
/// while disabled.
///
/// The search keeps one `StepLog` with logging *off*, so
/// the interpreter's event construction (and any string formatting it would
/// imply) is skipped entirely on the hot path.  Counterexample
/// materialization re-applies the recorded action sequence with logging *on*
/// and renders the captured events.
#[derive(Debug, Clone)]
pub struct StepLog<E> {
    events: Vec<E>,
    enabled: bool,
}

impl<E> Default for StepLog<E> {
    fn default() -> Self {
        StepLog { events: Vec::new(), enabled: false }
    }
}

impl<E> StepLog<E> {
    /// A disabled log (the search's hot-path configuration).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled log (used while materializing counterexamples).
    pub fn enabled() -> Self {
        StepLog { events: Vec::new(), enabled: true }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event produced by `f` — but only when the log is enabled;
    /// a disabled log never invokes `f`, so event construction costs nothing
    /// on the hot path.
    #[inline]
    pub fn push(&mut self, f: impl FnOnce() -> E) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// Clears recorded events, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The recorded events, in push order.
    pub fn events(&self) -> &[E] {
        &self.events
    }
}

/// A transition system the checker can explore.
pub trait TransitionSystem {
    /// The state type (must be cheap to clone; encoded via [`TransitionSystem::encode`]).
    type State: Clone;
    /// The action (external-event choice) type.  Kept deliberately small and
    /// string-free by the models: actions are cloned into the counterexample
    /// arena for every expanded state.
    type Action: Clone;
    /// The structured effect-log event type ([`StepLog`]); rendered to text
    /// only via [`TransitionSystem::render_event`].
    type Event;
    /// Reusable per-worker scratch space for [`TransitionSystem::apply`].
    type Scratch: Default;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// Writes the actions enabled in `state` into `out` (cleared first).  For
    /// the sequential design this is the set of `(sensor, physical event,
    /// failure mode)` choices; for the concurrent design it also includes
    /// pending internal event dispatches.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Applies `action` to `state`, returning the successor and any
    /// violations.  `scratch` is caller-owned reusable storage; `log`
    /// receives the structured effect events (and is disabled during
    /// search).  Must be deterministic: replaying the same action sequence
    /// from the initial state reproduces the same outcomes and events.
    /// After [`TransitionSystem::settle`]`(scratch, p)`, `apply` with that
    /// scratch may leave `p` out of the violations; the successor state
    /// must not depend on what was settled.
    fn apply(
        &self,
        state: &Self::State,
        action: &Self::Action,
        scratch: &mut Self::Scratch,
        log: &mut StepLog<Self::Event>,
    ) -> StepOutcome<Self::State>;

    /// Tells the model that the checker has recorded `property`'s first
    /// counterexample and discards every later violation of it, so `apply`
    /// with this `scratch` need no longer check it.  Called once per
    /// property, on the search's own scratch; counterexample replay uses a
    /// fresh one.  The default does nothing: the model keeps checking every
    /// property.
    fn settle(&self, _scratch: &mut Self::Scratch, _property: u32) {}

    /// Serializes the parts of the state relevant for equivalence into `out`.
    /// Two states with identical encodings are considered the same by the
    /// state store, which keeps only the first, shallowest visit: equal
    /// encodings must mean equal futures, except that a deeper visit has
    /// less of the depth budget left.  Hidden state that changes what a
    /// state can do (the IoT models' clock, when a handler reads it) must be
    /// encoded.
    fn encode(&self, state: &Self::State, out: &mut Vec<u8>);

    /// True when the model's own bound withholds successors from `state`
    /// (the IoT models' event bound); a larger bound could reach further, so
    /// the checker then reports no fixpoint ([`crate::SearchStats::closed_at`]).
    fn at_bound(&self, _state: &Self::State) -> bool {
        false
    }

    /// Renders an action for counterexample traces and reports (only called
    /// during materialization, never on the hot path).
    fn display_action(&self, action: &Self::Action) -> String;

    /// Renders a structured effect event into a trace log line (only called
    /// during materialization).
    fn render_event(&self, event: &Self::Event) -> LogLine;
}

#[cfg(test)]
pub(crate) mod testing {
    //! A tiny counter model used by the checker's own unit tests: states are
    //! integers, actions increment or double, and a violation fires when the
    //! counter reaches a configurable bad value.

    use super::*;

    /// Toy model over `u32` counters.
    pub struct CounterModel {
        /// Value that triggers a violation.
        pub bad_value: u32,
        /// Upper bound for the counter (keeps the state space finite).
        pub max_value: u32,
    }

    /// The toy model's action.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CounterAction {
        /// Add one.
        Increment,
        /// Multiply by two.
        Double,
    }

    impl fmt::Display for CounterAction {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                CounterAction::Increment => write!(f, "inc"),
                CounterAction::Double => write!(f, "dbl"),
            }
        }
    }

    impl TransitionSystem for CounterModel {
        type State = u32;
        type Action = CounterAction;
        type Event = u32;
        type Scratch = ();

        fn initial_state(&self) -> u32 {
            1
        }

        fn actions(&self, state: &u32, out: &mut Vec<CounterAction>) {
            out.clear();
            if *state < self.max_value {
                out.push(CounterAction::Increment);
                out.push(CounterAction::Double);
            }
        }

        fn apply(
            &self,
            state: &u32,
            action: &CounterAction,
            _scratch: &mut (),
            log: &mut StepLog<u32>,
        ) -> StepOutcome<u32> {
            let next = match action {
                CounterAction::Increment => state + 1,
                CounterAction::Double => state * 2,
            }
            .min(self.max_value);
            let mut violations = Vec::new();
            if next == self.bad_value {
                violations.push(Violation {
                    property: 1,
                    description: format!("counter reached {next}").into(),
                });
            }
            log.push(|| next);
            StepOutcome { state: next, violations }
        }

        fn encode(&self, state: &u32, out: &mut Vec<u8>) {
            out.extend_from_slice(&state.to_le_bytes());
        }

        fn display_action(&self, action: &CounterAction) -> String {
            action.to_string()
        }

        fn render_event(&self, event: &u32) -> LogLine {
            LogLine::new(format!("counter = {event}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{CounterAction, CounterModel};
    use super::*;

    #[test]
    fn violation_display() {
        let v = Violation { property: 3, description: "door unlocked".into() };
        assert_eq!(v.to_string(), "P03: door unlocked");
    }

    #[test]
    fn counter_model_behaves() {
        let m = CounterModel { bad_value: 4, max_value: 8 };
        assert_eq!(m.initial_state(), 1);
        let mut actions = Vec::new();
        m.actions(&1, &mut actions);
        assert_eq!(actions.len(), 2);
        m.actions(&8, &mut actions);
        assert!(actions.is_empty());
        let mut log = StepLog::enabled();
        let out = m.apply(&2, &CounterAction::Double, &mut (), &mut log);
        assert_eq!(out.state, 4);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(log.events(), &[4]);
        assert_eq!(m.render_event(&log.events()[0]).text, "counter = 4");
        let mut buf = Vec::new();
        m.encode(&4, &mut buf);
        assert_eq!(buf, 4u32.to_le_bytes().to_vec());
    }

    #[test]
    fn disabled_log_never_constructs_events() {
        let mut log: StepLog<u32> = StepLog::disabled();
        log.push(|| panic!("event constructed on a disabled log"));
        assert!(log.events().is_empty());
        assert!(!log.is_enabled());
        let mut log = StepLog::enabled();
        assert!(log.is_enabled());
        log.push(|| 7);
        assert_eq!(log.events(), &[7]);
        log.clear();
        assert!(log.events().is_empty());
    }
}
