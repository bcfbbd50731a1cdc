//! Per-handler effect summaries (§5, "Extracting input/output events",
//! generalized to all model-visible state).
//!
//! An [`EffectSummary`] is a *sound over-approximation* of everything one
//! event handler can read or write when the model checker interprets it:
//! device attributes, the location mode, app persistent state, timers, user
//! messaging and network interfaces.  Soundness here means containment — the
//! interpreter can never perform a read or write the summary does not list —
//! and is the property the dependency graph's edges lean on.  The
//! over-approximation is purely syntactic: effects in branches whose guard
//! can never hold are *kept*, so the summary of a handler never depends on
//! how clever the analysis is.

use iotsan_devices::{registry, CommandEffect};
use iotsan_ir::{EventField, IrApp, IrExpr, IrHandler, IrStmt, Trigger};
use std::collections::BTreeSet;
use std::fmt;

/// A single read a handler may perform.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadEffect {
    /// Reads `attribute` of a device bound to `input`
    /// (`luminance1.currentIlluminance`, quantified `every { ... }` queries).
    DeviceAttr {
        /// The `preferences` input the device is bound to.
        input: String,
        /// The attribute read.
        attribute: String,
    },
    /// Reads the location mode (`location.mode`).
    Mode,
    /// Reads a field of the event being handled (`evt.value`, ...).
    EventField,
    /// Reads the modelled clock (`now()` and friends).
    Time,
    /// Reads an app persistent state slot (`state.name`).
    StateVar {
        /// The state variable name.
        name: String,
    },
    /// Reads a non-device setting (`setpoint`, `phone`) — constant per
    /// configuration, listed for completeness.
    Setting {
        /// The setting name.
        name: String,
    },
}

/// A single write a handler may perform.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteEffect {
    /// Sends `command` to the device(s) bound to `input` — the raw actuator
    /// command, observable by the step properties (conflicts, repeats,
    /// failures) independent of the attribute it drives.
    Command {
        /// The `preferences` input naming the actuator(s).
        input: String,
        /// Command name (`on`, `unlock`, `setLevel`, ...).
        command: String,
    },
    /// Drives a device attribute to `value` (`None` when data-dependent),
    /// resolved from the command through the capability registry.
    DeviceAttr {
        /// The attribute changed.
        attribute: String,
        /// The concrete value, when the command pins one.
        value: Option<String>,
    },
    /// Changes the location mode (`setLocationMode`).
    Mode {
        /// The target mode when it is a literal, `None` otherwise.
        value: Option<String>,
    },
    /// Raises a synthetic device event (`sendEvent`) claiming `attribute`.
    FakeEvent {
        /// The claimed attribute.
        attribute: String,
        /// The claimed value when literal.
        value: Option<String>,
    },
    /// Writes an app persistent state slot (`state.name = ...`).
    StateVar {
        /// The state variable name.
        name: String,
    },
    /// Sends an SMS.
    Sms,
    /// Sends a push notification.
    Push,
    /// Issues an HTTP request (a network interface).
    Network,
    /// Removes the app's subscriptions (`unsubscribe()`).
    Unsubscribe,
    /// Cancels scheduled callbacks (`unschedule()`).
    Unschedule,
    /// Schedules `handler` to run later (`runIn`, `schedule`).
    Schedule {
        /// The scheduled handler method name.
        handler: String,
    },
}

/// The sound read/write over-approximation of one handler.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectSummary {
    /// Name of the app the handler belongs to.
    pub app: String,
    /// Handler method name.
    pub handler: String,
    /// What triggers the handler.
    pub trigger: Trigger,
    /// Everything the handler may read.
    pub reads: BTreeSet<ReadEffect>,
    /// Everything the handler may write.
    pub writes: BTreeSet<WriteEffect>,
}

/// The channel name the dependency graph uses for an app state
/// slot: state is private to an app, so the channel is app-qualified.
pub fn state_channel(app: &str, var: &str) -> String {
    format!("state:{app}:{var}")
}

impl EffectSummary {
    /// Every state channel the handler may write: device attributes (from
    /// commands and fake events), `mode`, and app-qualified state slots.
    pub fn written_channels(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for w in &self.writes {
            match w {
                WriteEffect::DeviceAttr { attribute, .. }
                | WriteEffect::FakeEvent { attribute, .. } => {
                    out.insert(attribute.clone());
                }
                WriteEffect::Mode { .. } => {
                    out.insert("mode".to_string());
                }
                WriteEffect::StateVar { name } => {
                    out.insert(state_channel(&self.app, name));
                }
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for EffectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}::{} reads:{} writes:{}",
            self.app,
            self.handler,
            self.reads.len(),
            self.writes.len()
        )
    }
}

/// Computes the effect summary of one handler by walking its body.
///
/// Reads are collected from *every* expression position (guards, command
/// arguments, message bodies, assignments); writes from every statement,
/// with device commands resolved to the attribute changes they cause through
/// the capability registry — the same resolution the interpreter applies, so
/// the write set is conservative by construction.
pub fn summarize_handler(app: &IrApp, handler: &IrHandler) -> EffectSummary {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for stmt in &handler.body {
        stmt.walk(&mut |s| {
            collect_stmt_writes(app, s, &mut writes);
            for_each_expr(s, &mut |e| collect_expr_reads(e, &mut reads));
        });
    }
    EffectSummary {
        app: app.name.clone(),
        handler: handler.name.clone(),
        trigger: handler.trigger.clone(),
        reads,
        writes,
    }
}

/// True when `handler` can observe the modelled clock: through `now()`,
/// `evt.date`, or — in a timer handler, whose event value is the time — any
/// event field.  A model whose handlers read the clock must keep it in the
/// state identity, since the same physical state then behaves differently
/// at different times.
pub fn reads_clock(handler: &IrHandler) -> bool {
    let timer = matches!(handler.trigger, Trigger::Timer { .. });
    let mut found = false;
    for stmt in &handler.body {
        stmt.walk(&mut |s| {
            for_each_expr(s, &mut |e| {
                e.walk(&mut |e| {
                    found |= match e {
                        IrExpr::Time | IrExpr::EventField(EventField::Date) => true,
                        IrExpr::EventField(_) => timer,
                        _ => false,
                    };
                })
            });
        });
    }
    found
}

fn collect_expr_reads(expr: &IrExpr, reads: &mut BTreeSet<ReadEffect>) {
    expr.walk(&mut |e| match e {
        IrExpr::DeviceAttr { input, attribute } | IrExpr::DeviceQuery { input, attribute, .. } => {
            reads.insert(ReadEffect::DeviceAttr {
                input: input.clone(),
                attribute: attribute.clone(),
            });
        }
        IrExpr::LocationMode => {
            reads.insert(ReadEffect::Mode);
        }
        IrExpr::EventField(_) => {
            reads.insert(ReadEffect::EventField);
        }
        IrExpr::Time => {
            reads.insert(ReadEffect::Time);
        }
        IrExpr::StateVar(name) => {
            reads.insert(ReadEffect::StateVar { name: name.clone() });
        }
        IrExpr::Setting(name) => {
            reads.insert(ReadEffect::Setting { name: name.clone() });
        }
        _ => {}
    });
}

fn collect_stmt_writes(app: &IrApp, stmt: &IrStmt, writes: &mut BTreeSet<WriteEffect>) {
    match stmt {
        IrStmt::DeviceCommand { input, command, .. } => {
            writes.insert(WriteEffect::Command { input: input.clone(), command: command.clone() });
            let capability = app
                .input(input)
                .and_then(|i| i.kind.capability().map(str::to_string))
                .unwrap_or_else(|| "switch".to_string());
            let spec = registry().spec_or_switch(&capability);
            if let Some(cmd) = spec.command(command) {
                for effect in &cmd.effects {
                    match effect {
                        CommandEffect::Set { attribute, value } => {
                            writes.insert(WriteEffect::DeviceAttr {
                                attribute: (*attribute).to_string(),
                                value: Some((*value).to_string()),
                            });
                        }
                        CommandEffect::SetFromArg { attribute } => {
                            writes.insert(WriteEffect::DeviceAttr {
                                attribute: (*attribute).to_string(),
                                value: None,
                            });
                        }
                    }
                }
            } else {
                // Unknown command: assume it changes the primary attribute.
                writes.insert(WriteEffect::DeviceAttr {
                    attribute: spec.primary_attribute().name.to_string(),
                    value: None,
                });
            }
        }
        IrStmt::SetLocationMode(value) => {
            writes.insert(WriteEffect::Mode { value: literal(value) });
        }
        IrStmt::SendEvent { attribute, value } => {
            writes.insert(WriteEffect::FakeEvent {
                attribute: attribute.clone(),
                value: literal(value),
            });
        }
        IrStmt::AssignState { name, .. } => {
            writes.insert(WriteEffect::StateVar { name: name.clone() });
        }
        IrStmt::SendSms { .. } => {
            writes.insert(WriteEffect::Sms);
        }
        IrStmt::SendPush { .. } => {
            writes.insert(WriteEffect::Push);
        }
        IrStmt::HttpRequest { .. } => {
            writes.insert(WriteEffect::Network);
        }
        IrStmt::Unsubscribe => {
            writes.insert(WriteEffect::Unsubscribe);
        }
        IrStmt::Unschedule => {
            writes.insert(WriteEffect::Unschedule);
        }
        IrStmt::Schedule { handler, .. } => {
            writes.insert(WriteEffect::Schedule { handler: handler.clone() });
        }
        _ => {}
    }
}

/// The literal string value of an expression, when it is a constant.  The
/// extraction is deliberately shallow: any other expression yields `None`
/// ("any value"), which keeps the summary sound without evaluating anything.
fn literal(expr: &IrExpr) -> Option<String> {
    match expr {
        IrExpr::Const(v) => Some(v.as_string()),
        _ => None,
    }
}

/// Visits every expression embedded directly in `stmt` (not in nested
/// statements — pair with [`IrStmt::walk`] for those).
fn for_each_expr(stmt: &IrStmt, f: &mut impl FnMut(&IrExpr)) {
    match stmt {
        IrStmt::DeviceCommand { args, .. } | IrStmt::OpaqueCall { args, .. } => {
            args.iter().for_each(&mut *f)
        }
        IrStmt::SetLocationMode(e) | IrStmt::Log(e) | IrStmt::Return(Some(e)) => f(e),
        IrStmt::SendSms { recipient, message } => {
            f(recipient);
            f(message);
        }
        IrStmt::SendPush { message } => f(message),
        IrStmt::HttpRequest { url, payload, .. } => {
            f(url);
            if let Some(p) = payload {
                f(p);
            }
        }
        IrStmt::SendEvent { value, .. } => f(value),
        IrStmt::AssignState { value, .. } | IrStmt::AssignLocal { value, .. } => f(value),
        IrStmt::If { cond, .. } | IrStmt::While { cond, .. } => f(cond),
        IrStmt::Schedule { delay_seconds: Some(d), .. } => f(d),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_ir::AppInput;

    fn app_with(handler: IrHandler) -> IrApp {
        IrApp {
            name: "Test".into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("contact1", "contactSensor"),
                AppInput::device("switches", "switch"),
                AppInput::device("lock1", "lock"),
            ],
            handlers: vec![handler],
            state_vars: vec!["armed".into()],
            dynamic_discovery: false,
        }
    }

    fn device_handler(body: Vec<IrStmt>) -> IrHandler {
        IrHandler {
            app: "Test".into(),
            name: "h".into(),
            trigger: Trigger::Device {
                input: "contact1".into(),
                attribute: "contact".into(),
                value: Some("open".into()),
            },
            body,
        }
    }

    #[test]
    fn commands_resolve_to_attribute_writes() {
        let h = device_handler(vec![
            IrStmt::DeviceCommand { input: "switches".into(), command: "on".into(), args: vec![] },
            IrStmt::DeviceCommand { input: "lock1".into(), command: "unlock".into(), args: vec![] },
        ]);
        let app = app_with(h.clone());
        let s = summarize_handler(&app, &h);
        assert!(s
            .writes
            .contains(&WriteEffect::Command { input: "switches".into(), command: "on".into() }));
        assert!(s.writes.contains(&WriteEffect::DeviceAttr {
            attribute: "switch".into(),
            value: Some("on".into())
        }));
        assert!(s.writes.contains(&WriteEffect::DeviceAttr {
            attribute: "lock".into(),
            value: Some("unlocked".into())
        }));
    }

    #[test]
    fn reads_cover_guards_and_state() {
        let h = device_handler(vec![IrStmt::If {
            cond: IrExpr::binary(
                iotsan_ir::IrBinOp::And,
                IrExpr::attr_eq("lock1", "lock", "locked"),
                IrExpr::binary(iotsan_ir::IrBinOp::Eq, IrExpr::LocationMode, IrExpr::str("Away")),
            ),
            then: vec![IrStmt::AssignState { name: "armed".into(), value: IrExpr::bool(true) }],
            els: vec![],
        }]);
        let app = app_with(h.clone());
        let s = summarize_handler(&app, &h);
        assert!(s
            .reads
            .contains(&ReadEffect::DeviceAttr { input: "lock1".into(), attribute: "lock".into() }));
        assert!(s.reads.contains(&ReadEffect::Mode));
        assert!(s.writes.contains(&WriteEffect::StateVar { name: "armed".into() }));
        assert!(s.written_channels().contains("state:Test:armed"));
    }

    #[test]
    fn unreachable_branch_effects_are_kept() {
        // `if (false) { switches.on() }` — the branch can never run, but
        // the summary keeps the write: it is an over-approximation by
        // construction, never a function of analysis precision.
        let h = device_handler(vec![IrStmt::If {
            cond: IrExpr::bool(false),
            then: vec![IrStmt::DeviceCommand {
                input: "switches".into(),
                command: "on".into(),
                args: vec![],
            }],
            els: vec![],
        }]);
        let app = app_with(h.clone());
        let s = summarize_handler(&app, &h);
        assert!(s.written_channels().contains("switch"));
    }

    #[test]
    fn messaging_network_and_timer_writes() {
        let h = IrHandler {
            app: "Test".into(),
            name: "t".into(),
            trigger: Trigger::Timer { delay_seconds: Some(60) },
            body: vec![
                IrStmt::SendSms {
                    recipient: IrExpr::Setting("phone".into()),
                    message: IrExpr::str("hi"),
                },
                IrStmt::SendPush { message: IrExpr::str("hi") },
                IrStmt::HttpRequest {
                    method: iotsan_ir::HttpMethod::Post,
                    url: IrExpr::str("http://x"),
                    payload: None,
                },
                IrStmt::Schedule { handler: "t".into(), delay_seconds: None },
                IrStmt::SendEvent { attribute: "smoke".into(), value: IrExpr::str("detected") },
            ],
        };
        let app = app_with(h.clone());
        let s = summarize_handler(&app, &h);
        for w in [
            WriteEffect::Sms,
            WriteEffect::Push,
            WriteEffect::Network,
            WriteEffect::Schedule { handler: "t".into() },
            WriteEffect::FakeEvent { attribute: "smoke".into(), value: Some("detected".into()) },
        ] {
            assert!(s.writes.contains(&w), "missing {w:?}");
        }
        assert!(s.reads.contains(&ReadEffect::Setting { name: "phone".into() }));
        assert!(s.written_channels().contains("smoke"));
    }

    #[test]
    fn clock_reads_are_now_the_event_date_and_a_timer_event() {
        let guarded = |cond: IrExpr| {
            vec![IrStmt::If { cond, then: vec![IrStmt::Log(IrExpr::str("late"))], els: vec![] }]
        };
        let late = |e: IrExpr| IrExpr::binary(iotsan_ir::IrBinOp::Ge, e, IrExpr::int(1800));
        let value = || IrExpr::EventField(EventField::Value);
        assert!(reads_clock(&device_handler(guarded(late(IrExpr::Time)))));
        assert!(reads_clock(&device_handler(guarded(late(IrExpr::EventField(EventField::Date))))));
        assert!(!reads_clock(&device_handler(guarded(late(value())))));
        let timer = IrHandler {
            trigger: Trigger::Timer { delay_seconds: Some(600) },
            ..device_handler(guarded(late(value())))
        };
        assert!(reads_clock(&timer));
        assert!(!reads_clock(&IrHandler { body: vec![], ..timer }));
    }
}
