//! The Model Generator (§8): builds transition systems the checker explores.
//!
//! [`SequentialModel`] implements Algorithm 1's sequential design: each
//! transition is one external physical event (plus an optional injected
//! failure), and the entire cascade of handler executions and internal events
//! it triggers is dispatched atomically within that transition.  This is the
//! "weak concurrency" the paper adopts because it discovered all violations
//! the strict model found at a fraction of the cost (Table 7b).
//!
//! [`ConcurrentModel`] implements the strict-concurrency design used for the
//! comparison: external events only *enqueue* cyber events, and the order in
//! which pending events are dispatched is itself a non-deterministic choice,
//! so the checker explores all interleavings of internal and external events.
//!
//! # Hot-loop discipline
//!
//! Actions are small `Copy` values — device ids, attribute positions and
//! interned [`Sym`]s, never owned strings — because the checker clones one
//! into its counterexample arena for every admitted state.  Device specs are
//! resolved once at installation ([`InstalledSystem::device_spec`]), never
//! looked up by capability name per transition, and so are handler bodies:
//! settings, bindings, `state.*` slots, locals, attribute positions and
//! command identities are indices, and reads borrow the values the
//! installation owns (see [`InstalledSystem`]).  `apply` threads a reusable
//! [`ModelScratch`] (observation buffers, the cascade queue, the
//! interpreter's [`Frame`], the property evaluator's atom buffer) and a
//! deferred [`StepLog`].  What a transition still allocates is its successor
//! state (the state vector and each set `state.*` value), the values that
//! leave a handler (`sendEvent` values, `state.*` reads and writes; a
//! sensor reading, a changed attribute and a mode change borrow theirs), the
//! rare message, network and fake-event records, and a violating step's
//! report.
//! `tests/hot_loop_allocations.rs` pins the budget per explored transition,
//! checker included: at most 7.0 on the 150-app `market-cold` bundle and
//! 2.2 on `deep-group`.  The compiled properties read the
//! successor's device states and mode directly: no snapshot of the physical
//! state is rendered per transition.  A property the checker has reported is
//! settled on the scratch ([`TransitionSystem::settle`]): its program and
//! the atoms only settled programs read are no longer evaluated, so most
//! violating steps report nothing and allocate no report.
//!
//! A device-offline step ignores the value it is listed with and dispatches
//! nothing, so the enumeration offers one per sensor device and state (with
//! the first reading it offers, in device → attribute → value → mode order)
//! rather than one per (attribute, value) pair: the copies had the same
//! successor and violations.
//!
//! The sequential model also merges sensor readings no reader can tell
//! apart (the `classes` module; ARCHITECTURE.md, "Observation classes"): on
//! a sensor attribute no subscription receives, it offers one event per
//! other observation class and one step within the current class, and
//! stores each class's representative.  Such an event runs no handler, so
//! no command can be lost either: its
//! communication-lost copy, which had the successor and violations of the
//! plain event, is not offered.  [`ConcurrentModel`] and
//! [`SequentialModel::full_alphabet`] offer and store every value.
//!
//! Names are resolved when the model is built, not per transition.  The
//! *subscription index* lists, for each interned event attribute, the
//! handlers whose trigger names it (app-then-handler order, with each
//! input's bound devices), so dispatching an event walks only that list and
//! applies the value and device filters: no attribute or input name is
//! compared or hashed.  The state-independent actions (app touches, timers,
//! location events) are listed once.  Each property's [`Violation`] is built
//! once, and a violating transition reports a clone that shares its
//! description.
//! Log lines and action strings are rendered only for materialized
//! counterexamples ([`TransitionSystem::display_action`] /
//! [`TransitionSystem::render_event`]).

use crate::classes::ObservationClasses;
use crate::interp::{run_handler, DispatchedEvent, Frame};
use crate::logevent::LogEvent;
use crate::system::{InstalledSystem, InternalEvent, SystemState};
use iotsan_checker::{LogLine, StepLog, StepOutcome, TransitionSystem, Violation};
use iotsan_devices::{DeviceId, FailureMode, FailurePolicy};
use iotsan_ir::{Sym, Trigger, Value};
use iotsan_properties::{
    CompiledPropertySet, EvalScratch, PropertyId, PropertySet, StepObservation,
};
use std::borrow::Cow;

/// Options controlling model construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOptions {
    /// Maximum number of external events (the verification depth bound).
    pub max_events: usize,
    /// Which device/communication failures to inject.
    pub failure_policy: FailurePolicy,
    /// Upper bound on the number of internal events dispatched per external
    /// event (guards against event cycles between apps).
    pub max_cascade: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions { max_events: 3, failure_policy: FailurePolicy::None, max_cascade: 32 }
    }
}

impl ModelOptions {
    /// A model exploring up to `max_events` external events.
    pub fn with_events(max_events: usize) -> Self {
        ModelOptions { max_events, ..Default::default() }
    }

    /// Enables exhaustive failure injection.
    pub fn with_failures(mut self) -> Self {
        self.failure_policy = FailurePolicy::Exhaustive;
        self
    }
}

/// One external event choice (the checker's action alphabet).
///
/// Deliberately `Copy` and string-free: display names are resolved through
/// the [`InstalledSystem`] only when a counterexample is rendered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExternalAction {
    /// The physical environment changes a sensor attribute.
    SensorEvent {
        /// The sensor device.
        device: DeviceId,
        /// Interned attribute name.
        attribute: Sym,
        /// Position of the attribute in the device spec.
        attr_index: u8,
        /// The index of the new value in the attribute's domain.
        value_index: u8,
        /// The injected failure mode for this step.
        failure: FailureMode,
    },
    /// The user taps an app in the companion app.
    AppTouch {
        /// Index of the app.
        app: u32,
    },
    /// A scheduled timer fires for a specific handler.
    TimerFire {
        /// Index of the app.
        app: u32,
        /// Index of the handler within the app.
        handler: u32,
    },
    /// A location environment event (sunrise / sunset).
    LocationEvent {
        /// Interned event name.
        name: Sym,
    },
}

/// Reusable per-worker scratch for [`SequentialModel::apply`] /
/// [`ConcurrentModel::apply`]: step observation buffers, the cascade queue
/// and the property evaluator's buffers.  All of it is cleared (never
/// reallocated) per transition.
#[derive(Debug, Default)]
pub struct ModelScratch {
    observation: StepObservation,
    queue: Vec<InternalEvent>,
    frame: Frame,
    eval: EvalScratch,
    /// Spec indices of the properties violated by the current transition.
    violated: Vec<usize>,
}

/// Shared model core used by both designs.
#[derive(Debug, Clone)]
struct ModelCore {
    system: InstalledSystem,
    /// One [`Violation`] per spec of the registry, built once: reporting
    /// one clones it, which shares its description instead of copying it.
    violations: Vec<Violation>,
    /// The registry compiled against `system` at model-construction time:
    /// atoms resolved to domain-index masks over the state vector, constant
    /// properties folded away, formulas flattened to programs over a
    /// deduplicated atom table (see `iotsan-properties::compile`).
    compiled: CompiledPropertySet,
    /// The subscription index: `subscriptions[sym]` lists the handlers
    /// whose trigger names the interned event attribute `sym`, in
    /// app-then-handler order (see [`subscription_index`]).
    subscriptions: Vec<Vec<Subscriber>>,
    /// The app-touch, timer and location-event actions, which every state
    /// below the event bound offers (see [`fixed_actions`]).
    fixed_actions: Vec<ExternalAction>,
    /// True when some handler reads the modelled clock
    /// ([`iotsan_analysis::reads_clock`]): the sequential encoding then
    /// keeps the external-event count, which fixes the clock.
    reads_clock: bool,
    /// The sensor readings the model merges; the default (nothing merged)
    /// for the full alphabet.
    classes: ObservationClasses,
    options: ModelOptions,
}

/// The event attribute a handler's trigger names, if events can reach it at
/// all (app touches and timers are dispatched directly, never by attribute).
fn trigger_attribute(trigger: &Trigger) -> Option<&str> {
    match trigger {
        Trigger::Device { attribute, .. } => Some(attribute),
        Trigger::LocationMode { .. } => Some("mode"),
        Trigger::LocationEvent { name } => Some(name),
        Trigger::AppTouch | Trigger::Timer { .. } => None,
    }
}

/// One handler in the subscription index.
#[derive(Debug, Clone)]
struct Subscriber {
    app: u32,
    handler: u32,
    /// For a device trigger, the devices its input is bound to, resolved
    /// here so the device filter looks up no input name per event.
    bound: Box<[DeviceId]>,
}

/// For each interned symbol, the handlers whose trigger names it, in
/// app-then-handler order.  Every dispatched event's attribute is interned
/// at installation, so a trigger naming a symbol the table does not hold can
/// never match and is left out.
fn subscription_index(system: &InstalledSystem) -> Vec<Vec<Subscriber>> {
    let mut index = vec![Vec::new(); system.symbols.len()];
    for (app_index, app) in system.apps.iter().enumerate() {
        for (handler_index, handler) in app.handlers.iter().enumerate() {
            let Some(sym) =
                trigger_attribute(&handler.trigger).and_then(|n| system.symbols.lookup(n))
            else {
                continue;
            };
            let bound = match &handler.trigger {
                Trigger::Device { input, .. } => system.bound_slice(app_index, input).into(),
                _ => Box::default(),
            };
            index[sym.index()].push(Subscriber {
                app: app_index as u32,
                handler: handler_index as u32,
                bound,
            });
        }
    }
    index
}

/// The actions that do not depend on the state, in the order the model
/// offers them after the sensor events: per app, its touch (when a handler
/// subscribes to one), its timers, then each location event not offered yet.
fn fixed_actions(system: &InstalledSystem) -> Vec<ExternalAction> {
    let mut out = Vec::new();
    for (app_index, app) in system.apps.iter().enumerate() {
        if app.handlers.iter().any(|h| matches!(h.trigger, Trigger::AppTouch)) {
            out.push(ExternalAction::AppTouch { app: app_index as u32 });
        }
        for (handler_index, handler) in app.handlers.iter().enumerate() {
            if matches!(handler.trigger, Trigger::Timer { .. }) {
                out.push(ExternalAction::TimerFire {
                    app: app_index as u32,
                    handler: handler_index as u32,
                });
            }
        }
        for handler in &app.handlers {
            if let Trigger::LocationEvent { name } = &handler.trigger {
                let action = ExternalAction::LocationEvent { name: system.sym_of(name) };
                if !out.contains(&action) {
                    out.push(action);
                }
            }
        }
    }
    out
}

impl ModelCore {
    /// The model core; `merge_readings` computes the observation classes,
    /// otherwise every sensor value is offered and stored as given.
    fn new(
        system: InstalledSystem,
        properties: &PropertySet,
        options: ModelOptions,
        merge_readings: bool,
    ) -> Self {
        let compiled = system.compile_properties(properties);
        let violations = properties
            .specs()
            .iter()
            .map(|spec| Violation { property: spec.id, description: spec.name.as_str().into() })
            .collect();
        let subscriptions = subscription_index(&system);
        let fixed_actions = fixed_actions(&system);
        let reads_clock =
            system.apps.iter().flat_map(|app| &app.handlers).any(iotsan_analysis::reads_clock);
        let mut core = ModelCore {
            system,
            violations,
            compiled,
            subscriptions,
            fixed_actions,
            reads_clock,
            classes: ObservationClasses::default(),
            options,
        };
        if merge_readings {
            core.classes = ObservationClasses::new(&core.system, &core.compiled, |d, p, v| {
                core.hears(&DispatchedEvent {
                    device: Some(d),
                    attribute: core.system.device_attr_sym(d, p),
                    value: Cow::Borrowed(v),
                })
            });
        }
        core
    }

    /// The initial state, with one zeroed leads-to monitor slot per compiled
    /// bounded-response property.
    fn initial_state(&self) -> SystemState {
        let mut state = self.system.initial_state();
        state.monitors = vec![0; self.compiled.monitor_count()];
        state
    }
}

impl ModelCore {
    /// True once the event bound withholds every further external event.
    fn at_bound(&self, state: &SystemState) -> bool {
        state.external_events >= self.options.max_events
    }

    /// External actions available when fewer than `max_events` have happened,
    /// written into the caller's reused buffer: per sensor device, each
    /// (attribute, new value, failure mode), with one device-offline step
    /// per device; then the fixed actions.  On an attribute with
    /// observation classes the new values are each other class's
    /// representative and the lowest other member of the current class,
    /// and on one no subscription receives, communication-lost copies are
    /// left out.
    fn external_actions(&self, state: &SystemState, out: &mut Vec<ExternalAction>) {
        out.clear();
        if self.at_bound(state) {
            return;
        }
        for (index, spec) in self.system.device_specs().iter().enumerate() {
            if !spec.is_sensor() {
                continue;
            }
            let device = DeviceId(index as u32);
            let mut offline_listed = false;
            for (attr_index, attr) in spec.attributes.iter().enumerate() {
                if !attr.environment_driven {
                    continue;
                }
                let attribute = self.system.device_attr_sym(device, attr_index);
                let classes = self.classes.of(device, attr_index);
                let current = state.devices[index].raw(attr_index).map_or(usize::MAX, usize::from);
                let current_class = classes.rep.get(current);
                let mut within_listed = false;
                for value_index in 0..attr.domain.len() {
                    // Skip events that would not change the sensor state
                    // (Algorithm 1 only acts when evt != current state).
                    if value_index == current {
                        continue;
                    }
                    if let Some(rep) = classes.rep.get(value_index) {
                        if Some(rep) == current_class {
                            if within_listed {
                                continue;
                            }
                            within_listed = true;
                        } else if usize::from(*rep) != value_index {
                            continue;
                        }
                    }
                    for failure in self.options.failure_policy.modes_for(device) {
                        if *failure == FailureMode::CommunicationLost && classes.unheard {
                            continue;
                        }
                        // An offline step ignores its value and dispatches
                        // nothing, so every variant of one device has the
                        // same successor and violations: only the first in
                        // this order is offered.
                        if *failure == FailureMode::DeviceOffline {
                            if offline_listed {
                                continue;
                            }
                            offline_listed = true;
                        }
                        out.push(ExternalAction::SensorEvent {
                            device,
                            attribute,
                            attr_index: attr_index as u8,
                            value_index: value_index as u8,
                            failure: *failure,
                        });
                    }
                }
            }
        }
        out.extend_from_slice(&self.fixed_actions);
    }

    /// Applies the external action to `state`, appending the initial internal
    /// events to dispatch to `events`, and updating the observation.
    fn apply_external(
        &self,
        state: &mut SystemState,
        action: &ExternalAction,
        observation: &mut StepObservation,
        events: &mut Vec<InternalEvent>,
        log: &mut StepLog<LogEvent>,
        frame: &mut Frame,
    ) {
        state.external_events += 1;
        state.time.tick();
        match *action {
            ExternalAction::SensorEvent { device, attribute, attr_index, value_index, failure } => {
                let spec = self.system.device_spec(device);
                let attr_index = attr_index as usize;
                let value_index = value_index as usize;
                // The state keeps the representative of the reading's class.
                let stored = self.classes.stored(device, attr_index, value_index);
                // The reading as a device read sees it, from the spec's
                // domain values.
                let sensor_value =
                    || Cow::Borrowed(&self.system.attr_values(device, attr_index)[stored]);
                match failure {
                    FailureMode::DeviceOffline => {
                        state.devices[device.0 as usize].set_online(false);
                        log.push(|| LogEvent::SensorOffline {
                            device,
                            attribute,
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                    }
                    FailureMode::CommunicationLost => {
                        // Communication between the hub/cloud and the devices
                        // is down (e.g. jamming): the sensor reading is still
                        // observed, but commands sent to actuators during this
                        // step are lost — see `inject_command_failure` below.
                        let changed =
                            state.devices[device.0 as usize].set_index_at(spec, attr_index, stored);
                        log.push(|| LogEvent::SensorCommDown {
                            device,
                            attribute,
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                        if changed {
                            events.push(InternalEvent {
                                device: Some(device),
                                attribute,
                                value: sensor_value(),
                                physical: true,
                            });
                        }
                    }
                    FailureMode::None => {
                        let changed =
                            state.devices[device.0 as usize].set_index_at(spec, attr_index, stored);
                        log.push(|| LogEvent::GeneratedEvent {
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                        if changed {
                            events.push(InternalEvent {
                                device: Some(device),
                                attribute,
                                value: sensor_value(),
                                physical: true,
                            });
                        }
                    }
                }
            }
            ExternalAction::AppTouch { app } => {
                log.push(|| LogEvent::AppTouch { app });
                let touch = DispatchedEvent {
                    device: None,
                    attribute: self.system.touch_sym(),
                    value: Cow::Owned(Value::Str("touched".into())),
                };
                let app_index = app as usize;
                for (handler_index, handler) in
                    self.system.apps[app_index].handlers.iter().enumerate()
                {
                    if !matches!(handler.trigger, Trigger::AppTouch) {
                        continue;
                    }
                    run_handler(
                        &self.system,
                        app_index,
                        handler_index,
                        &touch,
                        state,
                        observation,
                        false,
                        events,
                        log,
                        frame,
                    );
                }
            }
            ExternalAction::TimerFire { app, handler: handler_index } => {
                let app_index = app as usize;
                let handler_index = handler_index as usize;
                let handler = &self.system.apps[app_index].handlers[handler_index];
                log.push(|| LogEvent::TimerFired { handler: handler.name.clone() });
                let tick = DispatchedEvent {
                    device: None,
                    attribute: self.system.time_sym(),
                    value: Cow::Owned(Value::Int(state.time.seconds() as i64)),
                };
                if matches!(handler.trigger, Trigger::Timer { .. }) {
                    run_handler(
                        &self.system,
                        app_index,
                        handler_index,
                        &tick,
                        state,
                        observation,
                        false,
                        events,
                        log,
                        frame,
                    );
                }
            }
            ExternalAction::LocationEvent { name } => {
                log.push(|| LogEvent::LocationEvent { name });
                events.push(InternalEvent {
                    device: None,
                    attribute: name,
                    value: Cow::Owned(Value::Str(self.system.attr_name(name).to_string())),
                    physical: true,
                });
            }
        }
    }

    /// The `(app, handler)` positions `event` is dispatched to, in
    /// app-then-handler order: the handlers indexed under its attribute whose
    /// value and device filters accept it.  No attribute or input name is
    /// compared or looked up.
    fn subscribers<'s>(
        &'s self,
        event: &'s DispatchedEvent,
    ) -> impl Iterator<Item = (usize, usize)> + 's {
        let indexed =
            self.subscriptions.get(event.attribute.index()).map_or(&[][..], Vec::as_slice);
        let value_matches =
            |expected: &Option<String>| expected.as_ref().map_or(true, |v| event.value.eq_str(v));
        indexed
            .iter()
            .filter(move |s| {
                match &self.system.apps[s.app as usize].handlers[s.handler as usize].trigger {
                    Trigger::Device { value, .. } => {
                        // A device-less event (e.g. a fake `sendEvent`) reaches
                        // any subscriber of that attribute.
                        value_matches(value) && event.device.map_or(true, |d| s.bound.contains(&d))
                    }
                    Trigger::LocationMode { value } => value_matches(value),
                    Trigger::LocationEvent { .. } => true,
                    Trigger::AppTouch | Trigger::Timer { .. } => false,
                }
            })
            .map(|s| (s.app as usize, s.handler as usize))
    }

    /// True when some handler subscribes to `event`.
    fn hears(&self, event: &DispatchedEvent) -> bool {
        self.subscribers(event).next().is_some()
    }

    /// Dispatches one event to every subscribed handler (Algorithm 1's
    /// `dispatch_event`), appending newly generated events to `events`.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_one(
        &self,
        state: &mut SystemState,
        event: InternalEvent,
        observation: &mut StepObservation,
        events: &mut Vec<InternalEvent>,
        log: &mut StepLog<LogEvent>,
        frame: &mut Frame,
        commands_fail: bool,
    ) {
        let event = DispatchedEvent::from(event);
        for (app_index, handler_index) in self.subscribers(&event) {
            run_handler(
                &self.system,
                app_index,
                handler_index,
                &event,
                state,
                observation,
                commands_fail,
                events,
                log,
                frame,
            );
        }
    }

    /// Dispatches a whole cascade to quiescence (sequential design).  `queue`
    /// already holds the initial events; newly generated events are appended
    /// and consumed in FIFO order through a cursor (no per-event shifting or
    /// queue reallocation across transitions).
    fn dispatch_cascade(
        &self,
        state: &mut SystemState,
        queue: &mut Vec<InternalEvent>,
        observation: &mut StepObservation,
        log: &mut StepLog<LogEvent>,
        frame: &mut Frame,
        commands_fail: bool,
    ) {
        let mut cursor = 0usize;
        while cursor < queue.len() {
            if cursor >= self.options.max_cascade {
                log.push(|| LogEvent::CascadeBound);
                break;
            }
            // Take the event out without shifting the queue; the placeholder
            // is never dispatched (the cursor moves past it).
            let event = std::mem::replace(
                &mut queue[cursor],
                InternalEvent {
                    device: None,
                    attribute: Sym(0),
                    value: Cow::Owned(Value::Null),
                    physical: false,
                },
            );
            cursor += 1;
            self.dispatch_one(state, event, observation, queue, log, frame, commands_fail);
        }
    }

    /// True when the action models a hub ↔ actuator communication failure, in
    /// which case every command sent while handling it is lost.
    fn commands_fail(action: &ExternalAction) -> bool {
        matches!(
            action,
            ExternalAction::SensorEvent { failure: FailureMode::CommunicationLost, .. }
        )
    }

    /// Evaluates the compiled properties still open on the scratch after a
    /// step, straight from the state's device vector and mode, updating its
    /// leads-to monitors.
    fn check(&self, state: &mut SystemState, scratch: &mut ModelScratch) -> Vec<Violation> {
        let ModelScratch { observation, eval, violated, .. } = scratch;
        violated.clear();
        self.compiled.check_transition(
            &state.devices,
            state.mode,
            observation,
            &mut state.monitors,
            eval,
            violated,
        );
        self.to_violations(violated)
    }

    /// Evaluates only the step-only compiled properties (the strict
    /// concurrency design's non-quiescent steps).
    fn check_step_only(
        &self,
        state: &mut SystemState,
        scratch: &mut ModelScratch,
    ) -> Vec<Violation> {
        let ModelScratch { observation, eval, violated, .. } = scratch;
        violated.clear();
        self.compiled.check_step_only(observation, &mut state.monitors, eval, violated);
        self.to_violations(violated)
    }

    /// Stops checking a property the checker has reported (see
    /// [`CompiledPropertySet::settle`]).
    fn settle(&self, scratch: &mut ModelScratch, property: u32) {
        self.compiled.settle(&mut scratch.eval, PropertyId(property));
    }

    /// Maps violated spec indices to [`Violation`]s, sorted by property id.
    /// Allocates only the returned `Vec`, and only when there are violations
    /// to report.
    fn to_violations(&self, violated: &[usize]) -> Vec<Violation> {
        let mut violations: Vec<Violation> =
            violated.iter().map(|&index| self.violations[index].clone()).collect();
        violations.sort_unstable_by_key(|v| v.property);
        violations
    }

    /// Prepares the scratch for one transition: clears the step buffers and
    /// re-syncs the configured SMS recipients (without reallocating when they
    /// are unchanged, which is always after the first transition).
    fn reset_scratch(&self, scratch: &mut ModelScratch) {
        scratch.observation.reset();
        scratch.queue.clear();
        if scratch.observation.configured_recipients != self.system.config.phone_numbers {
            scratch.observation.configured_recipients.clone_from(&self.system.config.phone_numbers);
        }
    }

    /// Renders an action for counterexample traces.
    fn display_action(&self, action: &ExternalAction) -> String {
        match *action {
            ExternalAction::SensorEvent { device, attribute, attr_index, value_index, failure } => {
                let dev = self.system.device(device);
                let value = self
                    .system
                    .device_spec(device)
                    .attributes
                    .get(attr_index as usize)
                    .and_then(|a| a.domain.value_at(value_index as usize))
                    .unwrap_or_default();
                format!("{}/{}={value} [{failure}]", dev.label, self.system.attr_name(attribute))
            }
            ExternalAction::AppTouch { app } => {
                format!("app/touch -> {}", self.system.apps[app as usize].name)
            }
            ExternalAction::TimerFire { app, handler } => {
                format!(
                    "timer -> {}",
                    self.system.apps[app as usize].handlers[handler as usize].name
                )
            }
            ExternalAction::LocationEvent { name } => {
                format!("location/{}", self.system.attr_name(name))
            }
        }
    }
}

/// The sequential-design transition system (the paper's preferred model).
#[derive(Debug, Clone)]
pub struct SequentialModel {
    core: ModelCore,
}

impl SequentialModel {
    /// Builds a sequential model, compiling `properties` against the
    /// installed system.
    pub fn new(system: InstalledSystem, properties: PropertySet, options: ModelOptions) -> Self {
        Self::compiling(system, &properties, options)
    }

    /// [`SequentialModel::new`] compiling a borrowed registry, so that the
    /// planner's group models share the pipeline's own property set instead
    /// of cloning every spec per group.
    pub(crate) fn compiling(
        system: InstalledSystem,
        properties: &PropertySet,
        options: ModelOptions,
    ) -> Self {
        SequentialModel { core: ModelCore::new(system, properties, options, true) }
    }

    /// The same model without observation classes: every sensor value is
    /// offered and stored as given, with its communication-lost copy.  The
    /// reference the differential oracle's `alphabet` phase walks; the
    /// checker never needs it.
    pub fn full_alphabet(
        system: InstalledSystem,
        properties: PropertySet,
        options: ModelOptions,
    ) -> Self {
        SequentialModel { core: ModelCore::new(system, &properties, options, false) }
    }

    /// The compiled property set the model evaluates per transition.
    pub fn compiled_properties(&self) -> &CompiledPropertySet {
        &self.core.compiled
    }

    /// The installed system under verification.
    pub fn system(&self) -> &InstalledSystem {
        &self.core.system
    }

    /// The options the model was built with.
    pub fn options(&self) -> &ModelOptions {
        &self.core.options
    }

    /// The `(app, handler)` positions `event` is dispatched to, in dispatch
    /// order (apps, then handlers, as installed).
    pub fn subscribers<'s>(
        &'s self,
        event: &'s DispatchedEvent,
    ) -> impl Iterator<Item = (usize, usize)> + 's {
        self.core.subscribers(event)
    }
}

impl TransitionSystem for SequentialModel {
    type State = SystemState;
    type Action = ExternalAction;
    type Event = LogEvent;
    type Scratch = ModelScratch;

    fn initial_state(&self) -> SystemState {
        self.core.initial_state()
    }

    fn actions(&self, state: &SystemState, out: &mut Vec<ExternalAction>) {
        self.core.external_actions(state, out);
    }

    fn apply(
        &self,
        state: &SystemState,
        action: &ExternalAction,
        scratch: &mut ModelScratch,
        log: &mut StepLog<LogEvent>,
    ) -> StepOutcome<SystemState> {
        let mut next = state.clone();
        self.core.reset_scratch(scratch);
        let commands_fail = ModelCore::commands_fail(action);
        self.core.apply_external(
            &mut next,
            action,
            &mut scratch.observation,
            &mut scratch.queue,
            log,
            &mut scratch.frame,
        );
        self.core.dispatch_cascade(
            &mut next,
            &mut scratch.queue,
            &mut scratch.observation,
            log,
            &mut scratch.frame,
            commands_fail,
        );
        let violations = self.core.check(&mut next, scratch);
        StepOutcome { state: next, violations }
    }

    fn settle(&self, scratch: &mut ModelScratch, property: u32) {
        self.core.settle(scratch, property);
    }

    fn encode(&self, state: &SystemState, out: &mut Vec<u8>) {
        state.encode_into(out);
        // The clock ticks once per external event.  When a handler reads it,
        // one physical state behaves differently at different times, so the
        // count joins the identity; otherwise equal states merge across
        // depths.
        if self.core.reads_clock {
            encode_event_count(state, out);
        }
    }

    fn at_bound(&self, state: &SystemState) -> bool {
        self.core.at_bound(state)
    }

    fn display_action(&self, action: &ExternalAction) -> String {
        self.core.display_action(action)
    }

    fn render_event(&self, event: &LogEvent) -> LogLine {
        event.render(&self.core.system)
    }
}

/// One step of the strict-concurrency design: either generate an external
/// event (which only enqueues its cyber event) or dispatch one pending event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConcurrentAction {
    /// Generate an external event.
    External(ExternalAction),
    /// Dispatch the pending event at the given queue index.
    Dispatch {
        /// Index into the pending-event queue.
        index: u32,
    },
}

/// The strict-concurrency transition system (used for the Table 7b
/// comparison; interleavings of internal and external events are explored).
#[derive(Debug, Clone)]
pub struct ConcurrentModel {
    core: ModelCore,
}

impl ConcurrentModel {
    /// Builds a concurrent model, compiling `properties` against the
    /// installed system.
    pub fn new(system: InstalledSystem, properties: PropertySet, options: ModelOptions) -> Self {
        ConcurrentModel { core: ModelCore::new(system, &properties, options, false) }
    }

    /// A search depth sufficient to drain every cascade the model can create.
    pub fn suggested_depth(&self) -> usize {
        self.core.options.max_events * (self.core.options.max_cascade + 1)
    }
}

impl TransitionSystem for ConcurrentModel {
    type State = SystemState;
    type Action = ConcurrentAction;
    type Event = LogEvent;
    type Scratch = ModelScratch;

    fn initial_state(&self) -> SystemState {
        self.core.initial_state()
    }

    fn actions(&self, state: &SystemState, out: &mut Vec<ConcurrentAction>) {
        out.clear();
        // The concurrent design is the comparison model, not the hot path, so
        // a per-expansion buffer for the external enumeration is acceptable.
        let mut externals = Vec::new();
        self.core.external_actions(state, &mut externals);
        out.extend(externals.into_iter().map(ConcurrentAction::External));
        for index in 0..state.pending.len() {
            out.push(ConcurrentAction::Dispatch { index: index as u32 });
        }
    }

    fn apply(
        &self,
        state: &SystemState,
        action: &ConcurrentAction,
        scratch: &mut ModelScratch,
        log: &mut StepLog<LogEvent>,
    ) -> StepOutcome<SystemState> {
        let mut next = state.clone();
        self.core.reset_scratch(scratch);
        match *action {
            ConcurrentAction::External(external) => {
                self.core.apply_external(
                    &mut next,
                    &external,
                    &mut scratch.observation,
                    &mut scratch.queue,
                    log,
                    &mut scratch.frame,
                );
                next.pending.append(&mut scratch.queue);
            }
            ConcurrentAction::Dispatch { index } => {
                let index = index as usize;
                if index < next.pending.len() {
                    let event = next.pending.remove(index);
                    log.push(|| LogEvent::DispatchPending { event: event.clone() });
                    if next.pending.len() < self.core.options.max_cascade {
                        self.core.dispatch_one(
                            &mut next,
                            event,
                            &mut scratch.observation,
                            &mut scratch.queue,
                            log,
                            &mut scratch.frame,
                            false,
                        );
                        next.pending.append(&mut scratch.queue);
                    }
                }
            }
        }
        // Physical-state invariants are evaluated at quiescent points (no
        // events pending), so the strict-concurrent design checks the same
        // observable states as the sequential one; step-level observations
        // (conflicting commands, leakage) are checked on every action.
        let violations = if next.pending.is_empty() {
            self.core.check(&mut next, scratch)
        } else {
            self.core.check_step_only(&mut next, scratch)
        };
        StepOutcome { state: next, violations }
    }

    fn settle(&self, scratch: &mut ModelScratch, property: u32) {
        self.core.settle(scratch, property);
    }

    fn encode(&self, state: &SystemState, out: &mut Vec<u8>) {
        state.encode_into(out);
        encode_event_count(state, out);
    }

    fn at_bound(&self, state: &SystemState) -> bool {
        self.core.at_bound(state)
    }

    fn display_action(&self, action: &ConcurrentAction) -> String {
        match action {
            ConcurrentAction::External(a) => self.core.display_action(a),
            ConcurrentAction::Dispatch { index } => format!("dispatch pending[{index}]"),
        }
    }

    fn render_event(&self, event: &LogEvent) -> LogLine {
        event.render(&self.core.system)
    }
}

/// Appends the external-event count, fixed width so no two counts alias.
fn encode_event_count(state: &SystemState, out: &mut Vec<u8>) {
    out.extend_from_slice(&(state.external_events as u64).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_checker::{Checker, SearchConfig};
    use iotsan_config::{AppConfig, Binding, DeviceConfig, SystemConfig};
    use iotsan_groovy::SmartApp;
    use iotsan_ir::lower_app;

    /// Auto Mode Change + Unlock Door — the running example of the paper
    /// (Figure 7): leaving home switches the mode to Away, which unlocks the
    /// front door, violating "the main door should be locked when no one is
    /// at home".
    fn unlock_door_system() -> InstalledSystem {
        let auto_mode = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "Change mode on presence")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") {
        setLocationMode("Away")
    } else {
        setLocationMode("Home")
    }
}
"#;
        let unlock_door = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "Unlock on mode change or touch")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;
        let apps = vec![
            lower_app(&SmartApp::parse(auto_mode).unwrap()).unwrap(),
            lower_app(&SmartApp::parse(unlock_door).unwrap()).unwrap(),
        ];
        let config = SystemConfig::new()
            .with_device(DeviceConfig::new("alicePresence", "presenceSensor", ""))
            .with_device(DeviceConfig::new("doorLock", "lock", "main door lock"))
            .with_app(
                AppConfig::new("Auto Mode Change")
                    .with("people", Binding::Devices(vec!["alicePresence".into()])),
            )
            .with_app(
                AppConfig::new("Unlock Door")
                    .with("lock1", Binding::Devices(vec!["doorLock".into()])),
            );
        InstalledSystem::new(apps, config)
    }

    #[test]
    fn sequential_model_finds_unlock_door_violation() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(2),
        );
        let report = Checker::new(SearchConfig::with_depth(2)).verify(&model);
        assert!(report.has_violations());
        // "The main door should be locked when no one is at home" must be
        // among the violated properties, with a counterexample that starts
        // from the presence sensor reporting "not present".
        let found = report
            .violations
            .iter()
            .find(|v| {
                v.violation
                    .description
                    .contains("main door should be locked when no one is at home")
            })
            .expect("expected the unlock-door violation");
        assert!(found.trace.events().iter().any(|e| e.contains("not present")));
        let rendered = found.trace.render(&found.violation);
        assert!(rendered.contains("assertion violated"));
        assert!(rendered.contains("doorLock.unlock"));
        // Handler log lines carry structured provenance for the Output
        // Analyzer.
        assert!(found
            .trace
            .steps
            .iter()
            .flat_map(|s| &s.log)
            .any(|l| l.owner.as_deref() == Some("Unlock Door")));
    }

    #[test]
    fn single_event_suffices_for_the_mode_chain() {
        // The cascade presence → mode change → unlock happens within one
        // external event in the sequential design.
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let report = Checker::new(SearchConfig::with_depth(1)).verify(&model);
        assert!(report.has_violations());
        let violation = &report.violations[0];
        assert_eq!(violation.depth, 1);
    }

    #[test]
    fn concurrent_model_finds_the_same_violation() {
        let system = unlock_door_system();
        let model = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(1));
        let depth = model.suggested_depth();
        let report = Checker::new(SearchConfig::with_depth(depth)).verify(&model);
        assert!(report.has_violations());
        assert!(report
            .violations
            .iter()
            .any(|v| v.violation.description.contains("main door should be locked")));
    }

    #[test]
    fn concurrent_encoding_keeps_external_event_counts_apart() {
        let model = ConcurrentModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let encode = |external_events| {
            let mut state = model.initial_state();
            state.external_events = external_events;
            let mut out = Vec::new();
            model.encode(&state, &mut out);
            out
        };
        assert_ne!(encode(0), encode(256));
        assert_ne!(encode(1), encode(257));
    }

    #[test]
    fn concurrent_model_does_not_close_at_its_event_gate() {
        // The concurrent search bound is far above any path the model takes:
        // the search runs out of states because the model stops offering
        // external events, which is no fixpoint.
        let model = ConcurrentModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let report = Checker::new(SearchConfig::with_depth(model.suggested_depth())).verify(&model);
        assert!(!report.stats.truncated);
        assert!(report.stats.max_depth_reached < model.suggested_depth());
        assert_eq!(report.stats.closed_at, None);
    }

    #[test]
    fn a_model_gate_below_the_search_bound_is_no_fixpoint() {
        // One event allowed, six searched: the search runs out of states
        // because the model stops offering events, not at a fixpoint.
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let report = Checker::new(SearchConfig::with_depth(6)).verify(&model);
        assert!(!report.stats.truncated);
        assert_eq!(report.stats.closed_at, None);
    }

    #[test]
    fn concurrent_model_explores_more_states_than_sequential() {
        let system = unlock_door_system();
        let seq =
            SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(2));
        let seq_report = Checker::new(SearchConfig::with_depth(2)).verify(&seq);
        let conc = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(2));
        let conc_report =
            Checker::new(SearchConfig::with_depth(conc.suggested_depth())).verify(&conc);
        assert!(
            conc_report.stats.states_stored > seq_report.stats.states_stored,
            "concurrent {} <= sequential {}",
            conc_report.stats.states_stored,
            seq_report.stats.states_stored
        );
    }

    #[test]
    fn failure_policy_enumerates_more_actions() {
        let system = unlock_door_system();
        let no_failures =
            SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(1));
        let with_failures = SequentialModel::new(
            system,
            PropertySet::all(),
            ModelOptions::with_events(1).with_failures(),
        );
        let state = no_failures.initial_state();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        no_failures.actions(&state, &mut a);
        with_failures.actions(&state, &mut b);
        assert!(b.len() > a.len());
    }

    #[test]
    fn actions_stop_at_event_bound() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let mut state = model.initial_state();
        state.external_events = 1;
        let mut actions = vec![ExternalAction::AppTouch { app: 0 }];
        model.actions(&state, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn no_op_sensor_events_are_not_offered() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let state = model.initial_state();
        // The presence sensor starts "present"; only "not present" (plus the
        // app-touch action) should be offered, never a redundant "present".
        let mut actions = Vec::new();
        model.actions(&state, &mut actions);
        assert!(actions.iter().all(|a| match a {
            ExternalAction::SensorEvent { .. } => !model.display_action(a).contains("=present "),
            _ => true,
        }));
    }

    /// Every state a breadth-first search of `model` reaches within
    /// `events` external events, the initial state first.
    fn reachable_states(model: &SequentialModel, events: usize) -> Vec<SystemState> {
        let mut seen = std::collections::HashSet::new();
        let mut encoded = Vec::new();
        model.encode(&model.initial_state(), &mut encoded);
        seen.insert(encoded);
        let mut states = vec![model.initial_state()];
        let mut layer = 0..1;
        let mut actions = Vec::new();
        for _ in 0..events {
            for index in layer.clone() {
                model.actions(&states[index], &mut actions);
                for action in &actions {
                    let outcome = model.apply(
                        &states[index],
                        action,
                        &mut ModelScratch::default(),
                        &mut StepLog::disabled(),
                    );
                    let mut encoded = Vec::new();
                    model.encode(&outcome.state, &mut encoded);
                    if seen.insert(encoded) {
                        states.push(outcome.state);
                    }
                }
            }
            layer = layer.end..states.len();
        }
        states
    }

    #[test]
    fn one_device_offline_step_per_device_stands_for_every_variant() {
        // A smoke detector (3 values) and a temperature sensor (7) beside
        // the presence sensor: each has several (attribute, value) pairs
        // an offline step could be listed with.
        let InstalledSystem { apps, config, .. } = unlock_door_system();
        let config = config
            .with_device(DeviceConfig::new("smoke", "smokeDetector", ""))
            .with_device(DeviceConfig::new("thermo", "temperatureMeasurement", ""));
        let model = SequentialModel::new(
            InstalledSystem::new(apps, config),
            PropertySet::all(),
            ModelOptions::with_events(2).with_failures(),
        );
        let run = |state: &SystemState, action: &ExternalAction| {
            let outcome =
                model.apply(state, action, &mut ModelScratch::default(), &mut StepLog::disabled());
            let mut encoded = Vec::new();
            model.encode(&outcome.state, &mut encoded);
            (encoded, outcome.violations)
        };
        let states = reachable_states(&model, 2);
        assert!(states.len() > 10, "{} states", states.len());
        let mut dropped = 0;
        let mut actions = Vec::new();
        for state in states.iter().filter(|s| !model.at_bound(s)) {
            model.actions(state, &mut actions);
            for (index, spec) in model.system().device_specs().iter().enumerate() {
                let device = DeviceId(index as u32);
                let listed: Vec<&ExternalAction> = actions
                    .iter()
                    .filter(|a| {
                        matches!(a, ExternalAction::SensorEvent {
                            device: d, failure: FailureMode::DeviceOffline, ..
                        } if *d == device)
                    })
                    .collect();
                assert!(listed.len() <= 1, "device {index}: {} offline steps", listed.len());
                // Every variant the enumeration would list without the
                // de-duplication, built by hand.
                let mut variants = Vec::new();
                for (attr_index, attr) in spec.attributes.iter().enumerate() {
                    if !spec.is_sensor() || !attr.environment_driven {
                        continue;
                    }
                    for value_index in 0..attr.domain.len() {
                        if state.devices[index].raw(attr_index) != Some(value_index as u8) {
                            variants.push(ExternalAction::SensorEvent {
                                device,
                                attribute: model.system().device_attr_sym(device, attr_index),
                                attr_index: attr_index as u8,
                                value_index: value_index as u8,
                                failure: FailureMode::DeviceOffline,
                            });
                        }
                    }
                }
                let Some(kept) = listed.first() else {
                    assert!(variants.is_empty(), "device {index} lost its offline step");
                    continue;
                };
                // The kept step names the device's first offered reading
                // (observation classes may skip readings a variant names).
                let first_offered = actions.iter().find(
                    |a| matches!(a, ExternalAction::SensorEvent { device: d, .. } if *d == device),
                );
                let reading = |a: &ExternalAction| match *a {
                    ExternalAction::SensorEvent { attr_index, value_index, .. } => {
                        (attr_index, value_index)
                    }
                    _ => unreachable!("a sensor event"),
                };
                assert_eq!(first_offered.map(reading), Some(reading(kept)), "the first is kept");
                assert!(variants.contains(kept), "{}", model.display_action(kept));
                let expected = run(state, kept);
                for variant in variants.iter().filter(|v| v != kept) {
                    assert_eq!(run(state, variant), expected, "{}", model.display_action(variant));
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 0, "no duplicate offline step to compare");
    }

    #[test]
    fn no_communication_lost_copy_where_no_handler_hears_the_event() {
        // An illuminance sensor and a smoke detector no app subscribes to,
        // beside the subscribed presence sensor.
        let InstalledSystem { apps, config, .. } = unlock_door_system();
        let config = config
            .with_device(DeviceConfig::new("hallLux", "illuminanceMeasurement", ""))
            .with_device(DeviceConfig::new("smoke", "smokeDetector", ""));
        let model = SequentialModel::new(
            InstalledSystem::new(apps, config),
            PropertySet::all(),
            ModelOptions::with_events(2).with_failures(),
        );
        let run = |state: &SystemState, action: &ExternalAction| {
            let outcome =
                model.apply(state, action, &mut ModelScratch::default(), &mut StepLog::disabled());
            let mut encoded = Vec::new();
            model.encode(&outcome.state, &mut encoded);
            (encoded, outcome.violations)
        };
        let (mut dropped, mut kept) = (0, 0);
        let mut actions = Vec::new();
        for state in reachable_states(&model, 2).iter().filter(|s| !model.at_bound(s)) {
            model.actions(state, &mut actions);
            for action in &actions {
                let ExternalAction::SensorEvent { device, failure, .. } = *action else {
                    continue;
                };
                let heard = model.system().device(device).label == "alicePresence";
                match failure {
                    FailureMode::CommunicationLost => {
                        assert!(heard, "{}", model.display_action(action));
                        kept += 1;
                    }
                    FailureMode::None if !heard => {
                        // The copy the enumeration leaves out, built by hand.
                        let ExternalAction::SensorEvent {
                            device,
                            attribute,
                            attr_index,
                            value_index,
                            ..
                        } = *action
                        else {
                            unreachable!()
                        };
                        let lost = ExternalAction::SensorEvent {
                            device,
                            attribute,
                            attr_index,
                            value_index,
                            failure: FailureMode::CommunicationLost,
                        };
                        assert_eq!(
                            run(state, &lost),
                            run(state, action),
                            "{}",
                            model.display_action(action)
                        );
                        dropped += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(dropped > 0 && kept > 0, "{dropped} dropped, {kept} kept");
    }

    #[test]
    fn action_display_matches_the_old_format() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let state = model.initial_state();
        let mut actions = Vec::new();
        model.actions(&state, &mut actions);
        let displays: Vec<String> = actions.iter().map(|a| model.display_action(a)).collect();
        assert!(
            displays.iter().any(|d| d == "alicePresence/presence=not present [ok]"),
            "displays: {displays:?}"
        );
        assert!(displays.iter().any(|d| d == "app/touch -> Unlock Door"));
    }
}
