//! The IR interpreter — Algorithm 1's `app_event_handler`.
//!
//! When the model checker dispatches an event to a subscribed handler, this
//! interpreter executes the handler's body — in the form installation
//! resolved it to (the `resolve` module), with no name left to look up —
//! against the current [`SystemState`]: it evaluates guards over device attributes, settings and
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
use crate::resolve::{AppCode, ConstTest, Expr, Read, Stmt};
use crate::system::{InstalledSystem, InternalEvent, SystemState, NULL};
use iotsan_checker::StepLog;
use iotsan_devices::{CommandOutcome, CommandSpec, DeviceId, LocationMode};
use iotsan_ir::{EventField, IrBinOp, Quantifier, Sym, Value};
use iotsan_properties::{
    CommandCode, CommandRecord, FakeEventRecord, MessageChannel, MessageRecord, NetworkRecord,
    StepObservation,
};
use std::borrow::Cow;
use std::ops::Range;

/// Upper bound on `while` loop iterations (keeps handler execution finite).
const MAX_LOOP_ITERATIONS: usize = 16;

/// The event being dispatched to a handler.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchedEvent {
    /// Source device, if any.
    pub device: Option<DeviceId>,
    /// Interned attribute name.
    pub attribute: Sym,
    /// Event value, borrowed when the installation owns it (see
    /// [`InternalEvent`]).
    pub value: Cow<'static, Value>,
}

impl From<InternalEvent> for DispatchedEvent {
    fn from(event: InternalEvent) -> Self {
        DispatchedEvent { device: event.device, attribute: event.attribute, value: event.value }
    }
}

/// A handler execution's reusable buffers: its locals, by the positions
/// resolution assigned, and the active `devices.each` iterations.  One per
/// search worker, cleared (never reallocated) per handler run.
#[derive(Debug, Default)]
pub struct Frame {
    locals: Vec<Value>,
    /// `(input, k)`: inside `devices.each` over `input`, the input is
    /// narrowed to its `k`-th bound device.
    iterations: Vec<(u32, u32)>,
}

/// Executes handler `handler_index` of `app_index` against `state`,
/// recording observations into `observation`, appending generated cyber
/// events to `events_out` and deferred log events to `log`.
///
/// `inject_command_failure` models an actuator/communication failure for every
/// command sent during this execution (§8's actuator-offline enumeration).
#[allow(clippy::too_many_arguments)]
pub fn run_handler(
    system: &InstalledSystem,
    app_index: usize,
    handler_index: usize,
    event: &DispatchedEvent,
    state: &mut SystemState,
    observation: &mut StepObservation,
    inject_command_failure: bool,
    events_out: &mut Vec<InternalEvent>,
    log: &mut StepLog<LogEvent>,
    frame: &mut Frame,
) {
    let app = system.code(app_index);
    let handler = &app.handlers[handler_index];
    frame.locals.clear();
    frame.locals.resize(handler.locals, Value::Null);
    frame.iterations.clear();
    let mut interp = Interpreter {
        system,
        app,
        app_index,
        event,
        state,
        observation,
        inject_command_failure,
        frame,
        events_out,
        log,
    };
    interp.log.push(|| LogEvent::HandlerStart {
        app: app_index as u32,
        handler: system.apps[app_index].handlers[handler_index].name.clone(),
        attribute: event.attribute,
        value: event.value.clone().into_owned(),
    });
    interp.exec_block(&handler.body);
}

/// Control flow result of executing a statement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Return,
}

struct Interpreter<'a, 'f> {
    system: &'a InstalledSystem,
    app: &'a AppCode,
    app_index: usize,
    event: &'a DispatchedEvent,
    state: &'f mut SystemState,
    observation: &'f mut StepObservation,
    inject_command_failure: bool,
    frame: &'f mut Frame,
    events_out: &'f mut Vec<InternalEvent>,
    log: &'f mut StepLog<LogEvent>,
}

impl<'a, 'f> Interpreter<'a, 'f> {
    fn app_name(&self) -> &'a str {
        &self.system.apps[self.app_index].name
    }

    /// The devices `input` is bound to, as the positions of
    /// [`crate::resolve::Input::devices`] in scope: all of them, or the one
    /// an active `devices.each` iteration narrows it to.
    fn bound(&self, input: u32) -> Range<usize> {
        match self.frame.iterations.iter().rev().find(|(i, _)| *i == input) {
            Some(&(_, k)) => k as usize..k as usize + 1,
            None => 0..self.app.inputs[input as usize].devices.len(),
        }
    }

    fn devices(&self, input: u32) -> &'a [DeviceId] {
        &self.app.inputs[input as usize].devices
    }

    /// Whether the `k`-th device bound to `read`'s input passes `test`.
    fn accepts(&self, read: &Read, test: &ConstTest, k: usize) -> bool {
        let raw = match read.positions[k] {
            Some(position) => {
                let device = self.devices(read.input)[k];
                self.state.devices[device.0 as usize].raw(position as usize).unwrap_or(u8::MAX)
            }
            None => 0,
        };
        test.masks[k].checked_shr(u32::from(raw)).map_or(test.null, |m| m & 1 != 0)
    }

    // ---- execution -------------------------------------------------------

    fn exec_block(&mut self, stmts: &'a [Stmt]) -> Flow {
        for stmt in stmts {
            if self.exec_stmt(stmt) == Flow::Return {
                return Flow::Return;
            }
        }
        Flow::Continue
    }

    fn exec_stmt(&mut self, stmt: &'a Stmt) -> Flow {
        match stmt {
            Stmt::Command { input, name, code, arg, commands } => {
                let arg = arg.as_ref().map(|a| self.eval(a).into_owned());
                let devices = self.devices(*input);
                for k in self.bound(*input) {
                    self.send_command(devices[k], commands[k], name, *code, arg.as_slice());
                }
                Flow::Continue
            }
            Stmt::SetLocationMode(expr) => {
                let mode = match &*self.eval(expr) {
                    Value::Str(name) => LocationMode::parse(name),
                    // No other value renders as a mode name.
                    _ => None,
                }
                .unwrap_or(self.state.mode);
                if mode != self.state.mode {
                    self.state.mode = mode;
                    self.log.push(|| LogEvent::ModeChange { mode });
                    self.events_out.push(InternalEvent {
                        device: None,
                        attribute: self.system.mode_sym(),
                        value: Cow::Borrowed(self.system.mode_value(mode)),
                        physical: false,
                    });
                }
                Flow::Continue
            }
            Stmt::SendSms { recipient, message } => {
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
            Stmt::SendPush { message } => {
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
            Stmt::HttpRequest { url } => {
                let url = self.eval(url).as_string();
                self.log.push(|| LogEvent::HttpPost { url: url.clone() });
                self.observation.network.push(NetworkRecord {
                    app: self.app_name().to_string(),
                    url,
                    allowed: self.app.network_allowed,
                });
                Flow::Continue
            }
            Stmt::SendEvent { attribute, name, value } => {
                let value = self.eval(value).into_owned();
                self.log
                    .push(|| LogEvent::SendEvent { attribute: *attribute, value: value.clone() });
                self.observation.fake_events.push(FakeEventRecord {
                    app: self.app_name().to_string(),
                    attribute: name.clone(),
                    value: value.as_string(),
                });
                self.events_out.push(InternalEvent {
                    device: None,
                    attribute: *attribute,
                    value: Cow::Owned(value),
                    physical: false,
                });
                Flow::Continue
            }
            Stmt::Unsubscribe => {
                self.log.push(|| LogEvent::Unsubscribe);
                self.observation.unsubscribes.push(self.app_name().to_string());
                Flow::Continue
            }
            Stmt::Schedule { handler } => {
                self.log.push(|| LogEvent::Schedule { handler: handler.clone() });
                Flow::Continue
            }
            Stmt::AssignState { slot, value } => {
                if let Some(slot) = slot {
                    let text = self.eval(value).as_string();
                    self.state.app_state[*slot as usize] = Some(text);
                }
                Flow::Continue
            }
            Stmt::AssignLocal { slot, value } => {
                let value = self.eval(value).into_owned();
                self.frame.locals[*slot as usize] = value;
                Flow::Continue
            }
            Stmt::If { cond, then, els } => {
                if self.eval(cond).truthy() {
                    self.exec_block(then)
                } else {
                    self.exec_block(els)
                }
            }
            Stmt::While { cond, body } => {
                let mut iterations = 0;
                while self.eval(cond).truthy() && iterations < MAX_LOOP_ITERATIONS {
                    if self.exec_block(body) == Flow::Return {
                        return Flow::Return;
                    }
                    iterations += 1;
                }
                Flow::Continue
            }
            Stmt::ForEachDevice { input, body } => {
                for k in self.bound(*input) {
                    self.frame.iterations.push((*input, k as u32));
                    let flow = self.exec_block(body);
                    self.frame.iterations.pop();
                    if flow == Flow::Return {
                        return Flow::Return;
                    }
                }
                Flow::Continue
            }
            Stmt::Return => Flow::Return,
            Stmt::Log(expr) => {
                // Only evaluate the message when the log is recording — a
                // handler's `log.debug` must cost nothing during search.
                if self.log.is_enabled() {
                    let message = self.eval(expr).as_string();
                    self.log.push(|| LogEvent::LogMessage { message });
                }
                Flow::Continue
            }
            Stmt::Nop => Flow::Continue,
        }
    }

    fn send_command(
        &mut self,
        device_id: DeviceId,
        resolved: Option<&'static CommandSpec>,
        command: &str,
        code: CommandCode,
        args: &[Value],
    ) {
        let spec = self.system.device_spec(device_id);
        // The record borrows the spec's `'static` name; only a command the
        // spec does not define is copied.
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
            code,
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
            let attribute = self.system.device_attr_sym(device_id, attr_index as usize);
            let value = self.system.attr_value(self.state, device_id, Some(attr_index));
            self.log.push(|| LogEvent::AttrChange {
                device: device_id,
                attribute,
                value: value.clone(),
            });
            self.events_out.push(InternalEvent {
                device: Some(device_id),
                attribute,
                value: Cow::Borrowed(value),
                physical: false,
            });
        }
    }

    // ---- evaluation ------------------------------------------------------

    /// Evaluates `expr`, borrowing every value the installation, the event,
    /// the state or the frame already holds.
    fn eval(&self, expr: &'a Expr) -> Cow<'_, Value> {
        match expr {
            Expr::Const(v) => Cow::Borrowed(v),
            Expr::Setting(input) => {
                let devices = self.devices(*input);
                let range = self.bound(*input);
                if range.len() == devices.len() {
                    Cow::Borrowed(&self.app.inputs[*input as usize].setting)
                } else {
                    // Inside `devices.each`: the one device iterated.
                    let label = self.system.label_value(devices[range.start]).clone();
                    Cow::Owned(Value::List(vec![label]))
                }
            }
            Expr::Attr(read) => {
                let range = self.bound(read.input);
                Cow::Borrowed(if range.is_empty() {
                    &NULL
                } else {
                    let k = range.start;
                    let device = self.devices(read.input)[k];
                    self.system.attr_value(self.state, device, read.positions[k])
                })
            }
            Expr::AttrTest { read, test } => {
                let range = self.bound(read.input);
                Cow::Owned(Value::Bool(if range.is_empty() {
                    test.null
                } else {
                    self.accepts(read, test, range.start)
                }))
            }
            Expr::Query { read, value, quantifier, test } => {
                let range = self.bound(read.input);
                let bound = range.len();
                let matches = match test {
                    Some(test) => range.filter(|&k| self.accepts(read, test, k)).count(),
                    None => {
                        let expected = self.eval(value);
                        let devices = self.devices(read.input);
                        range
                            .filter(|&k| {
                                self.system
                                    .attr_value(self.state, devices[k], read.positions[k])
                                    .loosely_equals(&expected)
                            })
                            .count()
                    }
                };
                Cow::Owned(match quantifier {
                    Quantifier::Any => Value::Bool(matches > 0),
                    Quantifier::All => Value::Bool(bound > 0 && matches == bound),
                    Quantifier::Count => Value::Int(matches as i64),
                })
            }
            Expr::Event(field) => match field {
                EventField::Value => Cow::Borrowed(&*self.event.value),
                EventField::NumericValue => Cow::Owned(
                    self.event.value.as_number().map(Value::Decimal).unwrap_or(Value::Null),
                ),
                EventField::Name => {
                    Cow::Owned(Value::Str(self.system.attr_name(self.event.attribute).to_string()))
                }
                EventField::DeviceId | EventField::DisplayName => {
                    Cow::Borrowed(self.event.device.map_or(&NULL, |d| self.system.label_value(d)))
                }
                EventField::IsPhysical => Cow::Owned(Value::Bool(true)),
                EventField::Date => Cow::Owned(Value::Int(self.state.time.seconds() as i64)),
            },
            Expr::LocationMode => Cow::Borrowed(self.system.mode_value(self.state.mode)),
            Expr::Time => Cow::Owned(Value::Int(self.state.time.seconds() as i64)),
            Expr::State(slot) => {
                match slot.and_then(|slot| self.state.app_state[slot as usize].as_ref()) {
                    Some(text) => Cow::Owned(Value::Str(text.clone())),
                    None => Cow::Borrowed(&NULL),
                }
            }
            Expr::Local(slot) => Cow::Borrowed(&self.frame.locals[*slot as usize]),
            Expr::Not(inner) => Cow::Owned(Value::Bool(!self.eval(inner).truthy())),
            Expr::Neg(inner) => Cow::Owned(match self.eval(inner).as_number() {
                Some(n) => Value::Decimal(-n),
                None => Value::Null,
            }),
            Expr::Binary { op, lhs, rhs } => Cow::Owned(self.eval_binary(*op, lhs, rhs)),
            Expr::Ternary { cond, then, els } => {
                if self.eval(cond).truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::ListOf(items) => {
                Cow::Owned(Value::List(items.iter().map(|e| self.eval(e).into_owned()).collect()))
            }
            Expr::Concat(parts) => {
                let mut text = String::new();
                for part in parts {
                    match &*self.eval(part) {
                        Value::Str(s) => text.push_str(s),
                        other => text.push_str(&other.as_string()),
                    }
                }
                Cow::Owned(Value::Str(text))
            }
            Expr::Null => Cow::Borrowed(&NULL),
        }
    }

    fn eval_binary(&self, op: IrBinOp, lhs: &'a Expr, rhs: &'a Expr) -> Value {
        // Short-circuit logical operators.
        match op {
            IrBinOp::And => {
                return Value::Bool(self.eval(lhs).truthy() && self.eval(rhs).truthy());
            }
            IrBinOp::Or => {
                return Value::Bool(self.eval(lhs).truthy() || self.eval(rhs).truthy());
            }
            _ => {}
        }
        let l = self.eval(lhs);
        let r = self.eval(rhs);
        match op {
            IrBinOp::Eq
            | IrBinOp::NotEq
            | IrBinOp::Lt
            | IrBinOp::Le
            | IrBinOp::Gt
            | IrBinOp::Ge => Value::Bool(compare(op, &l, &r)),
            IrBinOp::In => match &*r {
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

/// The answer of comparison `op` (`==`, `!=`, `<`, `<=`, `>` or `>=`) on
/// two values.  Installation builds the domain masks of a device read
/// compared with a constant from this same function (see
/// [`crate::resolve`]), so a mask never disagrees with the evaluation.
pub(crate) fn compare(op: IrBinOp, l: &Value, r: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        IrBinOp::Eq => l.loosely_equals(r),
        IrBinOp::NotEq => !l.loosely_equals(r),
        _ => {
            let Some(ordering) = l.compare(r) else { return false };
            match op {
                IrBinOp::Lt => ordering == Less,
                IrBinOp::Le => ordering != Greater,
                IrBinOp::Gt => ordering == Greater,
                IrBinOp::Ge => ordering != Less,
                _ => unreachable!("{op:?} is no comparison"),
            }
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
    use iotsan_ir::{AppInput, IrExpr, IrHandler, IrStmt, SettingKind, Trigger};

    fn build_system(handler_body: Vec<IrStmt>) -> InstalledSystem {
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
            handlers: vec![handler],
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
        InstalledSystem::new(vec![app], config)
    }

    fn temp_event(system: &InstalledSystem, value: i64) -> DispatchedEvent {
        DispatchedEvent {
            device: Some(DeviceId(0)),
            attribute: system.sym_of("temperature"),
            value: Cow::Owned(Value::Int(value)),
        }
    }

    /// Runs the handler with an enabled log, returning the generated events
    /// and rendered log lines (the shape the old `HandlerEffects` exposed).
    fn run(
        system: &InstalledSystem,
        event: &DispatchedEvent,
        state: &mut SystemState,
        obs: &mut StepObservation,
        fail: bool,
    ) -> (Vec<InternalEvent>, Vec<String>) {
        let mut events = Vec::new();
        let mut log = StepLog::enabled();
        let mut frame = Frame::default();
        run_handler(system, 0, 0, event, state, obs, fail, &mut events, &mut log, &mut frame);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();

        // 85 > 75 → both outlets turned on, two state-change events generated.
        let event = temp_event(&system, 85);
        let (events, _) = run(&system, &event, &mut state, &mut obs, false);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        // 60 < 75 → off commands; devices already off so no state change events.
        let event = temp_event(&system, 60);
        let (events, _) = run(&system, &event, &mut state, &mut obs, false);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        let (events, lines) = run(&system, &event, &mut state, &mut obs, false);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 90);
        let (_, lines) = run(&system, &event, &mut state, &mut obs, true);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        run(&system, &event, &mut state, &mut obs, false);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        let (_, lines) = run(&system, &event, &mut state, &mut obs, false);
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let mut events = Vec::new();
        let mut log = StepLog::disabled();
        let event = temp_event(&system, 70);
        run_handler(
            &system,
            0,
            0,
            &event,
            &mut state,
            &mut obs,
            false,
            &mut events,
            &mut log,
            &mut Frame::default(),
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
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        let event = temp_event(&system, 70);
        run(&system, &event, &mut state, &mut obs, false);
        assert_eq!(system.app_var(&state, "Test App", "msg"), Value::Str("x=42".into()));
    }

    #[test]
    fn resolved_reads_keep_the_name_based_semantics() {
        // Each read lands in a state variable, rendered; the expected
        // renderings are what the name-based reads yielded.
        let store = |name: &str, value: IrExpr| IrStmt::AssignState { name: name.into(), value };
        let temperature =
            || IrExpr::DeviceAttr { input: "sensor".into(), attribute: "temperature".into() };
        let query = |value: IrExpr, quantifier| IrExpr::DeviceQuery {
            input: "outlets".into(),
            attribute: "switch".into(),
            value: Box::new(value),
            quantifier,
        };
        let body = vec![
            IrStmt::DeviceCommand { input: "outlets".into(), command: "on".into(), args: vec![] },
            IrStmt::AssignLocal { name: "want".into(), value: IrExpr::str("on") },
            // A constant comparison, in either operand order, and its negation.
            store("eq", IrExpr::attr_eq("outlets", "switch", "on")),
            store(
                "eqFlipped",
                IrExpr::binary(
                    IrBinOp::Eq,
                    IrExpr::str("off"),
                    IrExpr::DeviceAttr { input: "outlets".into(), attribute: "switch".into() },
                ),
            ),
            store(
                "ne",
                IrExpr::binary(
                    IrBinOp::NotEq,
                    IrExpr::DeviceAttr { input: "outlets".into(), attribute: "switch".into() },
                    IrExpr::str("on"),
                ),
            ),
            // An attribute the spec lacks reads `Null`, equal only to `Null`.
            store(
                "missing",
                IrExpr::binary(
                    IrBinOp::Eq,
                    IrExpr::DeviceAttr { input: "outlets".into(), attribute: "level".into() },
                    IrExpr::Const(Value::Null),
                ),
            ),
            // An unbound input has no first device: its read is `Null` too.
            store(
                "unbound",
                IrExpr::binary(
                    IrBinOp::Eq,
                    IrExpr::DeviceAttr { input: "nothing".into(), attribute: "switch".into() },
                    IrExpr::str("on"),
                ),
            ),
            // Orderings against a non-device setting and a constant, in
            // either operand order; a missing attribute reads `Null`.
            store(
                "ltSetting",
                IrExpr::binary(IrBinOp::Lt, temperature(), IrExpr::Setting("setpoint".into())),
            ),
            store("gtFlipped", IrExpr::binary(IrBinOp::Gt, IrExpr::int(70), temperature())),
            store("geConst", IrExpr::binary(IrBinOp::Ge, temperature(), IrExpr::int(75))),
            store(
                "leMissing",
                IrExpr::binary(
                    IrBinOp::Le,
                    IrExpr::DeviceAttr { input: "outlets".into(), attribute: "level".into() },
                    IrExpr::int(5),
                ),
            ),
            // Quantified reads against a constant and against a local.
            store("countConst", query(IrExpr::str("on"), Quantifier::Count)),
            store("countLocal", query(IrExpr::Local("want".into()), Quantifier::Count)),
            store("allLocal", query(IrExpr::Local("want".into()), Quantifier::All)),
            // Settings: configured values, bound devices' labels, unset.
            store("setpoint", IrExpr::Setting("setpoint".into())),
            store("devices", IrExpr::Setting("outlets".into())),
            store("unset", IrExpr::Setting("nothing".into())),
            IrStmt::ForEachDevice {
                input: "outlets".into(),
                body: vec![
                    store("each", IrExpr::Setting("outlets".into())),
                    store("eachCount", query(IrExpr::str("on"), Quantifier::Count)),
                ],
            },
            store("mode", IrExpr::LocationMode),
            store("device", IrExpr::EventField(EventField::DeviceId)),
        ];
        let system = build_system(body);
        let mut state = system.initial_state();
        let mut obs = StepObservation::default();
        run(&system, &temp_event(&system, 70), &mut state, &mut obs, false);
        let var = |name: &str| system.app_var(&state, "Test App", name).as_string();
        for (name, expected) in [
            ("eq", "true"),
            ("eqFlipped", "false"),
            ("ne", "false"),
            ("missing", "true"),
            ("unbound", "false"),
            ("ltSetting", "true"),
            ("gtFlipped", "true"),
            ("geConst", "false"),
            ("leMissing", "false"),
            ("countConst", "2"),
            ("countLocal", "2"),
            ("allLocal", "true"),
            ("setpoint", "75"),
            ("devices", "[heaterOutlet, acOutlet]"),
            ("unset", "null"),
            ("each", "[acOutlet]"),
            ("eachCount", "1"),
            ("mode", "Home"),
            ("device", "tempSensor"),
        ] {
            assert_eq!(var(name), expected, "{name}");
        }
    }
}
