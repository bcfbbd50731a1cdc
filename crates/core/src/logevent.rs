//! Structured, deferred effect-log events.
//!
//! The interpreter used to `format!` every log line eagerly — handler
//! banners, command echoes, state updates — on *every* explored transition,
//! only for the strings to be cloned into per-frame traces and then thrown
//! away unless a violation fired.  Now the models push [`LogEvent`]s through
//! the checker's [`iotsan_checker::StepLog`], which is **disabled** during
//! search (the event is never even constructed) and enabled only while a
//! counterexample is being materialized by replay.  [`LogEvent::render`]
//! turns an event into the exact line the old formatter produced, stamped
//! with structured provenance (the owning app) that the Output Analyzer
//! consumes directly instead of re-parsing `App.handler:` prefixes.
//!
//! Name-like fields use interned [`Sym`]s where the runtime objects already
//! carry them (event attributes); fields that only exist at render time
//! (runtime-computed message bodies, URLs, command names) are owned strings —
//! constructing them costs nothing on the hot path because a disabled
//! [`iotsan_checker::StepLog`] short-circuits before the constructor runs.

use crate::system::{InstalledSystem, InternalEvent};
use iotsan_checker::LogLine;
use iotsan_devices::{DeviceId, LocationMode};
use iotsan_ir::{Sym, Value};
use std::sync::Arc;

/// One structured effect of applying an action (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// A handler started executing for a dispatched event.
    HandlerStart {
        /// Index of the app in [`InstalledSystem::apps`].
        app: u32,
        /// Handler name.
        handler: String,
        /// Interned attribute of the dispatched event.
        attribute: Sym,
        /// Event value.
        value: Value,
    },
    /// `setLocationMode` changed the location mode.
    ModeChange {
        /// The new mode.
        mode: LocationMode,
    },
    /// An SMS was sent.
    SendSms {
        /// Recipient phone number.
        recipient: String,
    },
    /// A push notification was sent.
    SendPush,
    /// An HTTP request was made.
    HttpPost {
        /// Destination URL.
        url: String,
    },
    /// A synthetic `sendEvent` was raised.
    SendEvent {
        /// Interned claimed attribute.
        attribute: Sym,
        /// Claimed value.
        value: Value,
    },
    /// The app unsubscribed from everything.
    Unsubscribe,
    /// A handler was scheduled.
    Schedule {
        /// Scheduled handler name.
        handler: String,
    },
    /// A `log.*` call.
    LogMessage {
        /// Rendered message.
        message: String,
    },
    /// An actuator command was issued.
    Command {
        /// Target device.
        device: DeviceId,
        /// Command name.
        command: String,
        /// True when the command was lost to failure injection.
        lost: bool,
    },
    /// A device attribute changed as the result of a command.
    AttrChange {
        /// The device.
        device: DeviceId,
        /// Interned attribute name.
        attribute: Sym,
        /// New value.
        value: Value,
    },
    /// A sensor was offline when its physical event fired.
    SensorOffline {
        /// The sensor.
        device: DeviceId,
        /// Interned attribute.
        attribute: Sym,
        /// The missed value (rendered).
        value: String,
    },
    /// A sensor event fired while actuator communication was down.
    SensorCommDown {
        /// The sensor.
        device: DeviceId,
        /// Interned attribute.
        attribute: Sym,
        /// The observed value (rendered).
        value: String,
    },
    /// A plain physical sensor event was generated.
    GeneratedEvent {
        /// The rendered event value.
        value: String,
    },
    /// The user tapped an app.
    AppTouch {
        /// Index of the app in [`InstalledSystem::apps`].
        app: u32,
    },
    /// A scheduled timer fired.
    TimerFired {
        /// Handler name.
        handler: String,
    },
    /// A location environment event (sunrise/sunset).
    LocationEvent {
        /// Interned event name.
        name: Sym,
    },
    /// The cascade bound cut dispatching short.
    CascadeBound,
    /// The concurrent design dispatched a pending event.
    DispatchPending {
        /// The dispatched event.
        event: InternalEvent,
    },
}

impl LogEvent {
    /// Renders the event into the counterexample log line the old eager
    /// formatter produced, with structured provenance: lines produced by a
    /// handler banner carry the owning app.
    pub fn render(&self, system: &InstalledSystem) -> LogLine {
        let label = |id: &DeviceId| system.device(*id).label.as_str();
        match self {
            LogEvent::HandlerStart { app, handler, attribute, value } => {
                let app_name = system.app_name(*app as usize);
                LogLine::owned(
                    Arc::clone(app_name),
                    format!(
                        "{app_name}.{handler}: handling {}={value}",
                        system.attr_name(*attribute)
                    ),
                )
            }
            LogEvent::ModeChange { mode } => {
                LogLine::new(format!("location.mode = {}", mode.name()))
            }
            LogEvent::SendSms { recipient } => LogLine::new(format!("sendSms({recipient})")),
            LogEvent::SendPush => LogLine::new("sendPush"),
            LogEvent::HttpPost { url } => LogLine::new(format!("httpPost({url})")),
            LogEvent::SendEvent { attribute, value } => {
                LogLine::new(format!("sendEvent({}={value})", system.attr_name(*attribute)))
            }
            LogEvent::Unsubscribe => LogLine::new("unsubscribe()"),
            LogEvent::Schedule { handler } => LogLine::new(format!("schedule({handler})")),
            LogEvent::LogMessage { message } => LogLine::new(format!("log: {message}")),
            LogEvent::Command { device, command, lost } => {
                if *lost {
                    LogLine::new(format!("{}.{command}() LOST (failure)", label(device)))
                } else {
                    LogLine::new(format!("{}.{command}()", label(device)))
                }
            }
            LogEvent::AttrChange { device, attribute, value } => LogLine::new(format!(
                "{}.{} = {value}",
                label(device),
                system.attr_name(*attribute)
            )),
            LogEvent::SensorOffline { device, attribute, value } => LogLine::new(format!(
                "{} is OFFLINE; event {}={value} missed",
                label(device),
                system.attr_name(*attribute)
            )),
            LogEvent::SensorCommDown { device, attribute, value } => LogLine::new(format!(
                "{}.{} = {value} (actuator communication DOWN)",
                label(device),
                system.attr_name(*attribute)
            )),
            LogEvent::GeneratedEvent { value } => {
                LogLine::new(format!("generatedEvent.evtType = {}", value.replace(' ', "")))
            }
            LogEvent::AppTouch { app } => {
                LogLine::new(format!("app touch: {}", system.apps[*app as usize].name))
            }
            LogEvent::TimerFired { handler } => LogLine::new(format!("timer fired: {handler}")),
            LogEvent::LocationEvent { name } => {
                LogLine::new(format!("location event: {}", system.attr_name(*name)))
            }
            LogEvent::CascadeBound => {
                LogLine::new("cascade bound reached; remaining events dropped")
            }
            LogEvent::DispatchPending { event } => {
                LogLine::new(format!("dispatch {}", system.render_internal_event(event)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_config::{DeviceConfig, SystemConfig};
    use iotsan_ir::IrApp;

    fn system() -> InstalledSystem {
        let app = IrApp {
            name: "Test App".into(),
            description: String::new(),
            inputs: vec![],
            handlers: vec![],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let config =
            SystemConfig::new().with_device(DeviceConfig::new("doorLock", "lock", "main door"));
        InstalledSystem::new(vec![app], config)
    }

    #[test]
    fn handler_start_carries_owner() {
        let sys = system();
        let line = LogEvent::HandlerStart {
            app: 0,
            handler: "onEvent".into(),
            attribute: sys.sym_of("lock"),
            value: Value::Str("unlocked".into()),
        }
        .render(&sys);
        assert_eq!(line.owner.as_deref(), Some("Test App"));
        assert_eq!(line.text, "Test App.onEvent: handling lock=unlocked");
    }

    #[test]
    fn device_lines_render_like_the_old_formatter() {
        let sys = system();
        let cmd = LogEvent::Command { device: DeviceId(0), command: "unlock".into(), lost: false }
            .render(&sys);
        assert_eq!(cmd.text, "doorLock.unlock()");
        assert_eq!(cmd.owner, None);
        let lost = LogEvent::Command { device: DeviceId(0), command: "unlock".into(), lost: true }
            .render(&sys);
        assert_eq!(lost.text, "doorLock.unlock() LOST (failure)");
        let change = LogEvent::AttrChange {
            device: DeviceId(0),
            attribute: sys.sym_of("lock"),
            value: Value::Str("unlocked".into()),
        }
        .render(&sys);
        assert_eq!(change.text, "doorLock.lock = unlocked");
        let mode = LogEvent::ModeChange { mode: LocationMode::Away }.render(&sys);
        assert_eq!(mode.text, "location.mode = Away");
        let generated = LogEvent::GeneratedEvent { value: "not present".into() }.render(&sys);
        assert_eq!(generated.text, "generatedEvent.evtType = notpresent");
    }
}
