//! The IR interpreter — Algorithm 1's `app_event_handler`.
//!
//! When the model checker dispatches an event to a subscribed handler, this
//! interpreter executes the handler's IR body against the current
//! [`SystemState`]: it evaluates guards over device attributes, settings and
//! the event payload, sends commands to the actuators bound by the
//! configuration, records messages/network calls/fake events for the
//! step-based properties, and emits the internal events that cascade to other
//! apps (actuator state changes and location-mode changes).
//!
//! The interpreter is hot-loop code: generated events go into a caller-owned
//! buffer, and log output is *deferred* — structured [`LogEvent`]s pushed
//! through a [`StepLog`] that is disabled during search, so no log string (or
//! even event) is ever built unless a counterexample is being materialized.
//! Sending a command builds no string either: its [`CommandRecord`] borrows
//! the command name from the device spec, the device reports the positions
//! of the attributes it changed, and the resulting events are keyed by
//! [`InstalledSystem::device_attr_sym`].

use crate::logevent::LogEvent;
use crate::system::{InstalledSystem, InternalEvent, SystemState};
use iotsan_checker::StepLog;
use iotsan_devices::{CommandOutcome, DeviceId, LocationMode};
use iotsan_ir::{EventField, IrBinOp, IrExpr, IrHandler, IrStmt, Quantifier, Sym, Value};
use iotsan_properties::{
    CommandRecord, FakeEventRecord, MessageChannel, MessageRecord, NetworkRecord, StepObservation,
};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Upper bound on `while` loop iterations (keeps handler execution finite).
const MAX_LOOP_ITERATIONS: usize = 16;

/// The event being dispatched to a handler.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchedEvent {
    /// Source device, if any.
    pub device: Option<DeviceId>,
    /// Interned attribute name.
    pub attribute: Sym,
    /// Event value.
    pub value: Value,
}

impl From<InternalEvent> for DispatchedEvent {
    fn from(event: InternalEvent) -> Self {
        DispatchedEvent { device: event.device, attribute: event.attribute, value: event.value }
    }
}

/// Executes `handler` of `app_index` against `state`, recording observations
/// into `observation`, appending generated cyber events to `events_out` and
/// deferred log events to `log`.
///
/// `inject_command_failure` models an actuator/communication failure for every
/// command sent during this execution (§8's actuator-offline enumeration).
#[allow(clippy::too_many_arguments)]
pub fn run_handler(
    system: &InstalledSystem,
    app_index: usize,
    handler: &IrHandler,
    event: &DispatchedEvent,
    state: &mut SystemState,
    observation: &mut StepObservation,
    inject_command_failure: bool,
    events_out: &mut Vec<InternalEvent>,
    log: &mut StepLog<LogEvent>,
) {
    let mut interp = Interpreter {
        system,
        app_index,
        event,
        state,
        observation,
        inject_command_failure,
        locals: BTreeMap::new(),
        iteration_overrides: Vec::new(),
        events_out,
        log,
    };
    interp.log.push(|| LogEvent::HandlerStart {
        app: app_index as u32,
        handler: handler.name.clone(),
        attribute: event.attribute,
        value: event.value.clone(),
    });
    interp.exec_block(&handler.body);
}

/// Control flow result of executing a statement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Return,
}

struct Interpreter<'a> {
    system: &'a InstalledSystem,
    app_index: usize,
    event: &'a DispatchedEvent,
    state: &'a mut SystemState,
    observation: &'a mut StepObservation,
    inject_command_failure: bool,
    locals: BTreeMap<String, Value>,
    /// While executing `devices.each { ... }`, `(input, device)` pairs that
    /// narrow the binding of `input` to the current iteration device.
    iteration_overrides: Vec<(String, DeviceId)>,
    events_out: &'a mut Vec<InternalEvent>,
    log: &'a mut StepLog<LogEvent>,
}

/// The devices an input resolves to: a borrow of the installation-time
/// binding, or the single device of an active `devices.each` iteration —
/// either way, no allocation.
enum Bound<'a> {
    Slice(&'a [DeviceId]),
    One([DeviceId; 1]),
}

impl Bound<'_> {
    fn as_slice(&self) -> &[DeviceId] {
        match self {
            Bound::Slice(s) => s,
            Bound::One(one) => one,
        }
    }
}

/// Inline capacity of a [`DeviceBuf`] (largest realistic multi-device
/// binding; the standard household has ~20 devices total).
const INLINE_DEVICES: usize = 16;

/// A by-value snapshot of a resolved device binding, so statement loops can
/// release the `&self` borrow of [`Interpreter::bound_devices`] and call
/// `&mut self` methods per device — resolved once per statement, without
/// heap allocation for realistic binding sizes.
enum DeviceBuf {
    Inline([DeviceId; INLINE_DEVICES], usize),
    Heap(Vec<DeviceId>),
}

impl DeviceBuf {
    fn from_slice(devices: &[DeviceId]) -> Self {
        if devices.len() <= INLINE_DEVICES {
            let mut inline = [DeviceId(0); INLINE_DEVICES];
            inline[..devices.len()].copy_from_slice(devices);
            DeviceBuf::Inline(inline, devices.len())
        } else {
            DeviceBuf::Heap(devices.to_vec())
        }
    }

    fn as_slice(&self) -> &[DeviceId] {
        match self {
            DeviceBuf::Inline(inline, len) => &inline[..*len],
            DeviceBuf::Heap(devices) => devices,
        }
    }
}

impl<'a> Interpreter<'a> {
    fn app_name(&self) -> &str {
        &self.system.apps[self.app_index].name
    }

    fn bound_devices(&self, input: &str) -> Bound<'_> {
        if let Some((_, device)) = self.iteration_overrides.iter().rev().find(|(i, _)| i == input) {
            return Bound::One([*device]);
        }
        Bound::Slice(self.system.bound_slice(self.app_index, input))
    }

    // ---- execution -------------------------------------------------------

    fn exec_block(&mut self, stmts: &[IrStmt]) -> Flow {
        for stmt in stmts {
            if self.exec_stmt(stmt) == Flow::Return {
                return Flow::Return;
            }
        }
        Flow::Continue
    }

    fn exec_stmt(&mut self, stmt: &IrStmt) -> Flow {
        match stmt {
            IrStmt::DeviceCommand { input, command, args } => {
                let args: Vec<Value> = args.iter().map(|a| self.eval(a)).collect();
                // Resolve once per statement; `send_command` needs `&mut self`.
                let devices = DeviceBuf::from_slice(self.bound_devices(input).as_slice());
                for device in devices.as_slice() {
                    self.send_command(*device, command, &args);
                }
                Flow::Continue
            }
            IrStmt::SetLocationMode(expr) => {
                let value = self.eval(expr);
                let mode = LocationMode::parse(&value.as_string()).unwrap_or(self.state.mode);
                if mode != self.state.mode {
                    self.state.mode = mode;
                    self.log.push(|| LogEvent::ModeChange { mode });
                    self.events_out.push(InternalEvent {
                        device: None,
                        attribute: self.system.mode_sym(),
                        value: Value::Str(mode.name().to_string()),
                        physical: false,
                    });
                }
                Flow::Continue
            }
            IrStmt::SendSms { recipient, message } => {
                let recipient = self.eval(recipient).as_string();
                let body = self.eval(message).as_string();
                self.log.push(|| LogEvent::SendSms { recipient: recipient.clone() });
                self.observation.messages.push(MessageRecord {
                    app: self.app_name().to_string(),
                    channel: MessageChannel::Sms,
                    recipient,
                    body,
                });
                Flow::Continue
            }
            IrStmt::SendPush { message } => {
                let body = self.eval(message).as_string();
                self.log.push(|| LogEvent::SendPush);
                self.observation.messages.push(MessageRecord {
                    app: self.app_name().to_string(),
                    channel: MessageChannel::Push,
                    recipient: String::new(),
                    body,
                });
                Flow::Continue
            }
            IrStmt::HttpRequest { url, .. } => {
                let url = self.eval(url).as_string();
                let allowed =
                    self.system.config.network_allowed_apps.iter().any(|a| a == self.app_name());
                self.log.push(|| LogEvent::HttpPost { url: url.clone() });
                self.observation.network.push(NetworkRecord {
                    app: self.app_name().to_string(),
                    url,
                    allowed,
                });
                Flow::Continue
            }
            IrStmt::SendEvent { attribute, value } => {
                let value = self.eval(value);
                let attribute_sym = self.system.sym_of(attribute);
                self.log.push(|| LogEvent::SendEvent {
                    attribute: attribute_sym,
                    value: value.clone(),
                });
                self.observation.fake_events.push(FakeEventRecord {
                    app: self.app_name().to_string(),
                    attribute: attribute.clone(),
                    value: value.as_string(),
                });
                self.events_out.push(InternalEvent {
                    device: None,
                    attribute: attribute_sym,
                    value,
                    physical: false,
                });
                Flow::Continue
            }
            IrStmt::Unsubscribe => {
                self.log.push(|| LogEvent::Unsubscribe);
                self.observation.unsubscribes.push(self.app_name().to_string());
                Flow::Continue
            }
            IrStmt::Unschedule => Flow::Continue,
            IrStmt::Schedule { handler, .. } => {
                self.log.push(|| LogEvent::Schedule { handler: handler.clone() });
                Flow::Continue
            }
            IrStmt::AssignState { name, value } => {
                let value = self.eval(value);
                self.system.set_app_var_indexed(self.state, self.app_index, name, &value);
                Flow::Continue
            }
            IrStmt::AssignLocal { name, value } => {
                let value = self.eval(value);
                self.locals.insert(name.clone(), value);
                Flow::Continue
            }
            IrStmt::If { cond, then, els } => {
                if self.eval(cond).truthy() {
                    self.exec_block(then)
                } else {
                    self.exec_block(els)
                }
            }
            IrStmt::While { cond, body } => {
                let mut iterations = 0;
                while self.eval(cond).truthy() && iterations < MAX_LOOP_ITERATIONS {
                    if self.exec_block(body) == Flow::Return {
                        return Flow::Return;
                    }
                    iterations += 1;
                }
                Flow::Continue
            }
            IrStmt::ForEachDevice { input, body } => {
                let devices = DeviceBuf::from_slice(self.bound_devices(input).as_slice());
                for device in devices.as_slice() {
                    let device = *device;
                    self.iteration_overrides.push((input.clone(), device));
                    let flow = self.exec_block(body);
                    self.iteration_overrides.pop();
                    if flow == Flow::Return {
                        return Flow::Return;
                    }
                }
                Flow::Continue
            }
            IrStmt::Return(_) => Flow::Return,
            IrStmt::Log(expr) => {
                // Only evaluate the message when the log is recording — a
                // handler's `log.debug` must cost nothing during search.
                if self.log.is_enabled() {
                    let message = self.eval(expr).as_string();
                    self.log.push(|| LogEvent::LogMessage { message });
                }
                Flow::Continue
            }
            IrStmt::OpaqueCall { .. } => Flow::Continue,
        }
    }

    fn send_command(&mut self, device_id: DeviceId, command: &str, args: &[Value]) {
        let spec = self.system.device_spec(device_id);
        // Resolved once: the record borrows the spec's `'static` name, and
        // only a command the spec does not define is copied.
        let resolved = spec.command(command);
        let name =
            resolved.map_or_else(|| Cow::Owned(command.to_string()), |c| Cow::Borrowed(c.name));
        let lost = self.inject_command_failure;
        let outcome = if lost {
            CommandOutcome::Offline
        } else {
            self.state.devices[device_id.0 as usize].run_command(spec, resolved, args)
        };
        let (delivered, changed_state) = match outcome {
            CommandOutcome::Changed(_) => (true, true),
            CommandOutcome::NoChange | CommandOutcome::Unsupported => (true, false),
            CommandOutcome::Offline => (false, false),
        };
        if !delivered {
            self.observation.command_failures += 1;
        }
        self.observation.commands.push(CommandRecord {
            device: device_id,
            command: name,
            delivered,
            changed_state,
        });
        self.log.push(|| LogEvent::Command {
            device: device_id,
            command: command.to_string(),
            lost,
        });
        let CommandOutcome::Changed(changed) = outcome else { return };
        for &attr_index in changed.positions() {
            let attr_index = attr_index as usize;
            let attribute = self.system.device_attr_sym(device_id, attr_index);
            let value = self.state.devices[device_id.0 as usize].value_at(spec, attr_index);
            self.log.push(|| LogEvent::AttrChange {
                device: device_id,
                attribute,
                value: value.clone(),
            });
            self.events_out.push(InternalEvent {
                device: Some(device_id),
                attribute,
                value,
                physical: false,
            });
        }
    }

    // ---- evaluation ------------------------------------------------------

    fn eval(&mut self, expr: &IrExpr) -> Value {
        match expr {
            IrExpr::Const(v) => v.clone(),
            IrExpr::Setting(name) => {
                let devices = self.bound_devices(name);
                let devices = devices.as_slice();
                if !devices.is_empty() {
                    Value::List(
                        devices
                            .iter()
                            .map(|d| Value::Str(self.system.device(*d).label.clone()))
                            .collect(),
                    )
                } else {
                    self.system.setting_value(self.app_name(), name)
                }
            }
            IrExpr::DeviceAttr { input, attribute } => {
                let devices = self.bound_devices(input);
                match devices.as_slice().first() {
                    Some(id) => self.state.devices[id.0 as usize]
                        .get(self.system.device_spec(*id), attribute),
                    None => Value::Null,
                }
            }
            IrExpr::DeviceQuery { input, attribute, value, quantifier } => {
                let expected = self.eval(value);
                let devices = self.bound_devices(input);
                let devices = devices.as_slice();
                let matches = devices
                    .iter()
                    .filter(|id| {
                        self.state.devices[id.0 as usize]
                            .get(self.system.device_spec(**id), attribute)
                            .loosely_equals(&expected)
                    })
                    .count();
                match quantifier {
                    Quantifier::Any => Value::Bool(matches > 0),
                    Quantifier::All => Value::Bool(!devices.is_empty() && matches == devices.len()),
                    Quantifier::Count => Value::Int(matches as i64),
                }
            }
            IrExpr::EventField(field) => match field {
                EventField::Value => self.event.value.clone(),
                EventField::NumericValue => {
                    self.event.value.as_number().map(Value::Decimal).unwrap_or(Value::Null)
                }
                EventField::Name => {
                    Value::Str(self.system.attr_name(self.event.attribute).to_string())
                }
                EventField::DeviceId => self
                    .event
                    .device
                    .map(|d| Value::Str(self.system.device(d).label.clone()))
                    .unwrap_or(Value::Null),
                EventField::DisplayName => self
                    .event
                    .device
                    .map(|d| Value::Str(self.system.device(d).label.clone()))
                    .unwrap_or(Value::Null),
                EventField::IsPhysical => Value::Bool(true),
                EventField::Date => Value::Int(self.state.time.seconds() as i64),
            },
            IrExpr::LocationMode => Value::Str(self.state.mode.name().to_string()),
            IrExpr::Time => Value::Int(self.state.time.seconds() as i64),
            IrExpr::StateVar(name) => self.system.app_var_indexed(self.state, self.app_index, name),
            IrExpr::Local(name) => self.locals.get(name).cloned().unwrap_or(Value::Null),
            IrExpr::Not(inner) => Value::Bool(!self.eval(inner).truthy()),
            IrExpr::Neg(inner) => match self.eval(inner).as_number() {
                Some(n) => Value::Decimal(-n),
                None => Value::Null,
            },
            IrExpr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            IrExpr::Ternary { cond, then, els } => {
                if self.eval(cond).truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            IrExpr::ListOf(items) => Value::List(items.iter().map(|e| self.eval(e)).collect()),
            IrExpr::Concat(parts) => Value::Str(
                parts.iter().map(|p| self.eval(p).as_string()).collect::<Vec<_>>().join(""),
            ),
            IrExpr::Opaque { .. } => Value::Null,
        }
    }

    fn eval_binary(&mut self, op: IrBinOp, lhs: &IrExpr, rhs: &IrExpr) -> Value {
        // Short-circuit logical operators.
        match op {
            IrBinOp::And => {
                let l = self.eval(lhs);
                return if !l.truthy() {
                    Value::Bool(false)
                } else {
                    Value::Bool(self.eval(rhs).truthy())
                };
            }
            IrBinOp::Or => {
                let l = self.eval(lhs);
                return if l.truthy() {
                    Value::Bool(true)
                } else {
                    Value::Bool(self.eval(rhs).truthy())
                };
            }
            _ => {}
        }
        let l = self.eval(lhs);
        let r = self.eval(rhs);
        match op {
            IrBinOp::Eq => Value::Bool(l.loosely_equals(&r)),
            IrBinOp::NotEq => Value::Bool(!l.loosely_equals(&r)),
            IrBinOp::Lt | IrBinOp::Le | IrBinOp::Gt | IrBinOp::Ge => {
                use std::cmp::Ordering::*;
                let Some(ordering) = l.compare(&r) else { return Value::Bool(false) };
                Value::Bool(match op {
                    IrBinOp::Lt => ordering == Less,
                    IrBinOp::Le => ordering != Greater,
                    IrBinOp::Gt => ordering == Greater,
                    IrBinOp::Ge => ordering != Less,
                    _ => unreachable!(),
                })
            }
            IrBinOp::In => match r {
                Value::List(items) => Value::Bool(items.iter().any(|i| i.loosely_equals(&l))),
                Value::Str(s) => Value::Bool(s.contains(&l.as_string())),
                _ => Value::Bool(false),
            },
            IrBinOp::Add => match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) => number(a + b),
                _ => Value::Str(format!("{}{}", l.as_string(), r.as_string())),
            },
            IrBinOp::Sub => numeric_op(&l, &r, |a, b| a - b),
            IrBinOp::Mul => numeric_op(&l, &r, |a, b| a * b),
            IrBinOp::Div => match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) if b != 0.0 => number(a / b),
                _ => Value::Null,
            },
            IrBinOp::Mod => match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) if b != 0.0 => number(a % b),
                _ => Value::Null,
            },
            IrBinOp::And | IrBinOp::Or => unreachable!("handled above"),
        }
    }
}

fn numeric_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Value {
    match (l.as_number(), r.as_number()) {
        (Some(a), Some(b)) => number(f(a, b)),
        _ => Value::Null,
    }
}

fn number(n: f64) -> Value {
    if n.fract() == 0.0 {
        Value::Int(n as i64)
    } else {
        Value::Decimal(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_config::{AppConfig, Binding, DeviceConfig, SystemConfig};
    use iotsan_ir::{AppInput, SettingKind, Trigger};

    fn build_system(handler_body: Vec<IrStmt>) -> (InstalledSystem, IrHandler) {
        let handler = IrHandler {
            app: "Test App".into(),
            name: "handler".into(),
            trigger: Trigger::Device {
                input: "sensor".into(),
                attribute: "temperature".into(),
                value: None,
            },
            body: handler_body,
        };
        let app = iotsan_ir::IrApp {
            name: "Test App".into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("sensor", "temperatureMeasurement"),
                AppInput {
                    name: "outlets".into(),
                    kind: SettingKind::Device { capability: "switch".into(), multiple: true },
                    title: String::new(),
                    required: true,
                },
                AppInput {
                    name: "setpoint".into(),
                    kind: SettingKind::Decimal,
                    title: String::new(),
                    required: true,
                },
                AppInput {
                    name: "phone".into(),
                    kind: SettingKind::Phone,
                    title: String::new(),
                    required: false,
                },
            ],
            handlers: vec![handler.clone()],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let config = SystemConfig::new()
            .with_device(DeviceConfig::new("tempSensor", "temperatureMeasurement", ""))
            .with_device(DeviceConfig::new("heaterOutlet", "switch", "heater"))
            .with_device(DeviceConfig::new("acOutlet", "switch", "AC"))
            .with_app(
                AppConfig::new("Test App")
                    .with("sensor", Binding::Devices(vec!["tempSensor".into()]))
                    .with(
                        "outlets",
                        Binding::Devices(vec!["heaterOutlet".into(), "acOutlet".into()]),
                    )
                    .with("setpoint", Binding::Number(75.0))
                    .with("phone", Binding::Text("5551234567".into())),
            );
        (InstalledSystem::new(vec![app], config), handler)
    }

    fn temp_event(system: &InstalledSystem, value: i64) -> DispatchedEvent {
        DispatchedEvent {
            device: Some(DeviceId(0)),
            attribute: system.sym_of("temperature"),
            value: Value::Int(value),
        }
    }

    /// Runs the handler with an enabled log, returning the generated events
    /// and rendered log lines (the shape the old `HandlerEffects` exposed).
    fn run(
        system: &InstalledSystem,
        handler: &IrHandler,
        event: &DispatchedEvent,
        state: &mut SystemState,
        obs: &mut StepObservation,
        fail: bool,
    ) -> (Vec<InternalEvent>, Vec<String>) {
        let mut events = Vec::new();
        let mut log = StepLog::enabled();
        run_handler(system, 0, handler, event, state, obs, fail, &mut events, &mut log);
        let lines = log.events().iter().map(|e| e.render(system).text).collect();
        (events, lines)
    }

    #[test]
    fn guarded_command_fires_when_condition_holds() {
        let body = vec![IrStmt::If {
            cond: IrExpr::binary(
                IrBinOp::Gt,
                IrExpr::EventField(EventField::NumericValue),
                IrExpr::Setting("setpoint".into()),
            ),
            then: vec![IrStmt::DeviceCommand {
                input: "outlets".into(),
                command: "on".into(),
                args: vec![],
            }],
            els: vec![IrStmt::DeviceCommand {
                input: "outlets".into(),
                command: "off".into(),
                args: vec![],
            }],
        }];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();

        // 85 > 75 → both outlets turned on, two state-change events generated.
        let event = temp_event(&system, 85);
        let (events, _) = run(&system, &handler, &event, &mut state, &mut obs, false);
        assert_eq!(obs.commands.len(), 2);
        assert!(obs.commands.iter().all(|c| c.command == "on" && c.delivered));
        assert_eq!(events.len(), 2);
        let snap = system.snapshot(&state);
        assert!(snap.role_attr_is(iotsan_properties::DeviceRole::Heater, "switch", "on"));
        assert!(snap.role_attr_is(iotsan_properties::DeviceRole::AirConditioner, "switch", "on"));
    }

    #[test]
    fn else_branch_and_no_change_commands() {
        let body = vec![IrStmt::If {
            cond: IrExpr::binary(
                IrBinOp::Gt,
                IrExpr::EventField(EventField::NumericValue),
                IrExpr::Setting("setpoint".into()),
            ),
            then: vec![IrStmt::DeviceCommand {
                input: "outlets".into(),
                command: "on".into(),
                args: vec![],
            }],
            els: vec![IrStmt::DeviceCommand {
                input: "outlets".into(),
                command: "off".into(),
                args: vec![],
            }],
        }];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        // 60 < 75 → off commands; devices already off so no state change events.
        let event = temp_event(&system, 60);
        let (events, _) = run(&system, &handler, &event, &mut state, &mut obs, false);
        assert_eq!(obs.commands.len(), 2);
        assert!(obs.commands.iter().all(|c| !c.changed_state));
        assert!(events.is_empty());
    }

    #[test]
    fn messaging_network_and_fake_events_are_observed() {
        let body = vec![
            IrStmt::SendSms {
                recipient: IrExpr::Setting("phone".into()),
                message: IrExpr::str("alert"),
            },
            IrStmt::SendPush { message: IrExpr::str("alert") },
            IrStmt::HttpRequest {
                method: iotsan_ir::HttpMethod::Post,
                url: IrExpr::str("http://collector.example.com"),
                payload: None,
            },
            IrStmt::SendEvent { attribute: "smoke".into(), value: IrExpr::str("detected") },
            IrStmt::Unsubscribe,
        ];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        let (events, lines) = run(&system, &handler, &event, &mut state, &mut obs, false);
        assert_eq!(obs.messages.len(), 2);
        assert_eq!(obs.messages[0].recipient, "5551234567");
        assert_eq!(obs.network.len(), 1);
        assert!(!obs.network[0].allowed);
        assert_eq!(obs.fake_events.len(), 1);
        assert_eq!(obs.unsubscribes, vec!["Test App".to_string()]);
        // The fake smoke event is also queued for dispatch.
        assert!(events.iter().any(|e| system.attr_name(e.attribute) == "smoke"));
        assert!(lines.iter().any(|l| l == "sendSms(5551234567)"));
        assert!(lines.iter().any(|l| l == "sendEvent(smoke=detected)"));
    }

    #[test]
    fn command_failure_injection_marks_undelivered() {
        let body = vec![IrStmt::DeviceCommand {
            input: "outlets".into(),
            command: "on".into(),
            args: vec![],
        }];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 90);
        let (_, lines) = run(&system, &handler, &event, &mut state, &mut obs, true);
        assert_eq!(obs.command_failures, 2);
        assert!(obs.commands.iter().all(|c| !c.delivered));
        assert!(lines.iter().any(|l| l.ends_with("LOST (failure)")));
        // Device state unchanged.
        let snap = system.snapshot(&state);
        assert!(!snap.role_attr_is(iotsan_properties::DeviceRole::Heater, "switch", "on"));
    }

    #[test]
    fn state_vars_for_each_and_queries() {
        let body = vec![
            IrStmt::AssignState { name: "count".into(), value: IrExpr::int(1) },
            IrStmt::ForEachDevice {
                input: "outlets".into(),
                body: vec![IrStmt::DeviceCommand {
                    input: "outlets".into(),
                    command: "on".into(),
                    args: vec![],
                }],
            },
            IrStmt::If {
                cond: IrExpr::DeviceQuery {
                    input: "outlets".into(),
                    attribute: "switch".into(),
                    value: Box::new(IrExpr::str("on")),
                    quantifier: Quantifier::All,
                },
                then: vec![IrStmt::SendPush { message: IrExpr::str("all on") }],
                els: vec![],
            },
        ];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        run(&system, &handler, &event, &mut state, &mut obs, false);
        assert_eq!(system.app_var(&state, "Test App", "count"), Value::Str("1".into()));
        // ForEachDevice issued one command per outlet, and the All-query then
        // saw both outlets on.
        assert_eq!(obs.commands.len(), 2);
        assert_eq!(obs.messages.len(), 1);
    }

    #[test]
    fn while_loops_terminate() {
        let body = vec![
            IrStmt::AssignLocal { name: "i".into(), value: IrExpr::int(0) },
            IrStmt::While {
                cond: IrExpr::bool(true),
                body: vec![IrStmt::AssignLocal {
                    name: "i".into(),
                    value: IrExpr::binary(IrBinOp::Add, IrExpr::Local("i".into()), IrExpr::int(1)),
                }],
            },
            IrStmt::SendPush { message: IrExpr::str("done") },
        ];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        let (_, lines) = run(&system, &handler, &event, &mut state, &mut obs, false);
        // The loop is bounded and execution continues past it.
        assert_eq!(obs.messages.len(), 1);
        assert!(!lines.is_empty());
    }

    #[test]
    fn disabled_log_records_nothing_but_behaviour_is_identical() {
        let body = vec![IrStmt::DeviceCommand {
            input: "outlets".into(),
            command: "on".into(),
            args: vec![],
        }];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let mut events = Vec::new();
        let mut log = StepLog::disabled();
        let event = temp_event(&system, 70);
        run_handler(
            &system,
            0,
            &handler,
            &event,
            &mut state,
            &mut obs,
            false,
            &mut events,
            &mut log,
        );
        assert!(log.events().is_empty());
        assert_eq!(obs.commands.len(), 2);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn arithmetic_and_concat_evaluation() {
        let body = vec![
            IrStmt::AssignLocal {
                name: "x".into(),
                value: IrExpr::binary(IrBinOp::Mul, IrExpr::int(6), IrExpr::int(7)),
            },
            IrStmt::AssignState {
                name: "msg".into(),
                value: IrExpr::Concat(vec![IrExpr::str("x="), IrExpr::Local("x".into())]),
            },
        ];
        let (system, handler) = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        run(&system, &handler, &event, &mut state, &mut obs, false);
        assert_eq!(system.app_var(&state, "Test App", "msg"), Value::Str("x=42".into()));
    }
}
