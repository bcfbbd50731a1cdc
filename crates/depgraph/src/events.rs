//! Input/output event extraction (§5, "Extracting input/output events").
//!
//! Each event handler takes one or more *input events* and can induce zero or
//! more *output events*.  [`effect_profile`] reads both off the handler's
//! [`iotsan_analysis`] effect summary, the one place that says what a handler
//! reads and writes.  Inputs are its subscription trigger and the device
//! attributes, location mode and app state it reads; outputs are the
//! attribute changes its actuator commands cause, location-mode changes,
//! synthetic `sendEvent` events, app-state writes and scheduled handlers.
//! Events are described in the paper's `attribute/value` format, where an
//! empty value means "any".

use iotsan_ir::{IrApp, IrHandler, Trigger};
use std::collections::BTreeSet;
use std::fmt;

/// An event description in the paper's `attribute/value` format.
///
/// `value == None` means "any value of this attribute" and overlaps every
/// concrete value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventDesc {
    /// Attribute (e.g. `contact`, `switch`, `mode`, `touch`).
    pub attribute: String,
    /// Specific value (e.g. `open`, `on`, `Away`), or `None` for any.
    pub value: Option<String>,
}

impl EventDesc {
    /// Creates an event description with a concrete value.
    pub fn new(attribute: impl Into<String>, value: impl Into<String>) -> Self {
        EventDesc { attribute: attribute.into(), value: Some(value.into()) }
    }

    /// Creates an "any value" event description.
    pub fn any(attribute: impl Into<String>) -> Self {
        EventDesc { attribute: attribute.into(), value: None }
    }

    /// True when two descriptions can describe the same concrete event.
    pub fn overlaps(&self, other: &EventDesc) -> bool {
        if self.attribute != other.attribute {
            return false;
        }
        match (&self.value, &other.value) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }

    /// True when two descriptions target the same attribute but *different*
    /// concrete values — the "conflicting outputs" condition that forces two
    /// related sets to be merged (§5).
    pub fn conflicts_with(&self, other: &EventDesc) -> bool {
        self.attribute == other.attribute
            && matches!((&self.value, &other.value), (Some(a), Some(b)) if a != b)
    }
}

impl fmt::Display for EventDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{}/{}", self.attribute, v),
            None => write!(f, "{}/\"...\"", self.attribute),
        }
    }
}

/// The extracted event profile of one handler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventProfile {
    /// Events that can trigger or are read by the handler.
    pub inputs: BTreeSet<EventDesc>,
    /// Events the handler can produce.
    pub outputs: BTreeSet<EventDesc>,
}

/// The event channel representing one app-state slot in effect profiles.
fn state_desc(app: &IrApp, var: &str) -> EventDesc {
    EventDesc::any(iotsan_analysis::state_channel(&app.name, var))
}

/// The event channel representing one app's scheduled handler.
fn sched_desc(app: &IrApp, handler: &str) -> EventDesc {
    EventDesc::any(format!("sched:{}:{}", app.name, handler))
}

/// Extracts a handler's event profile from its [`iotsan_analysis`] effect
/// summary — the edge source of the dependency graph.
///
/// Beside the trigger and the device attributes a handler reads and changes,
/// the profile carries location-mode *reads* (a mode-writing handler feeds
/// every mode-guarded one), app-state slots (`state:{app}:{var}` channels
/// connecting a handler that stores a slot to the handlers reading it), and
/// schedule edges (`sched:{app}:{handler}` channels connecting `runIn`-style
/// calls to the timer handler they arm).  State and schedule channels are
/// app-qualified, so they never connect handlers across apps.
pub fn effect_profile(app: &IrApp, handler: &IrHandler) -> EventProfile {
    use iotsan_analysis::{ReadEffect, WriteEffect};
    let summary = iotsan_analysis::summarize_handler(app, handler);
    let mut profile = EventProfile::default();
    match &summary.trigger {
        Trigger::Device { attribute, value, .. } => {
            profile.inputs.insert(EventDesc { attribute: attribute.clone(), value: value.clone() });
        }
        Trigger::LocationMode { value } => {
            profile.inputs.insert(EventDesc { attribute: "mode".into(), value: value.clone() });
        }
        Trigger::LocationEvent { name } => {
            profile.inputs.insert(EventDesc::any(name.clone()));
        }
        Trigger::AppTouch => {
            profile.inputs.insert(EventDesc::any("touch"));
        }
        Trigger::Timer { .. } => {
            profile.inputs.insert(EventDesc::any("time"));
            profile.inputs.insert(sched_desc(app, &handler.name));
        }
    }
    for read in &summary.reads {
        match read {
            ReadEffect::DeviceAttr { attribute, .. } => {
                profile.inputs.insert(EventDesc::any(attribute.clone()));
            }
            ReadEffect::Mode => {
                profile.inputs.insert(EventDesc::any("mode"));
            }
            ReadEffect::StateVar { name } => {
                profile.inputs.insert(state_desc(app, name));
            }
            ReadEffect::EventField | ReadEffect::Time | ReadEffect::Setting { .. } => {}
        }
    }
    for write in &summary.writes {
        match write {
            WriteEffect::DeviceAttr { attribute, value } => {
                profile
                    .outputs
                    .insert(EventDesc { attribute: attribute.clone(), value: value.clone() });
            }
            WriteEffect::Mode { value } => {
                profile
                    .outputs
                    .insert(EventDesc { attribute: "mode".into(), value: value.clone() });
            }
            WriteEffect::FakeEvent { attribute, value } => {
                profile
                    .outputs
                    .insert(EventDesc { attribute: attribute.clone(), value: value.clone() });
            }
            WriteEffect::StateVar { name } => {
                profile.outputs.insert(state_desc(app, name));
            }
            WriteEffect::Schedule { handler } => {
                profile.outputs.insert(sched_desc(app, handler));
            }
            WriteEffect::Command { .. }
            | WriteEffect::Sms
            | WriteEffect::Push
            | WriteEffect::Network
            | WriteEffect::Unsubscribe
            | WriteEffect::Unschedule => {}
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_ir::{AppInput, IrExpr, IrStmt, Value};

    fn switch_app(name: &str, handler: IrHandler) -> IrApp {
        IrApp {
            name: name.into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("contact1", "contactSensor"),
                AppInput::device("switches", "switch"),
                AppInput::device("lock1", "lock"),
            ],
            handlers: vec![handler],
            state_vars: vec![],
            dynamic_discovery: false,
        }
    }

    fn handler(trigger: Trigger, body: Vec<IrStmt>) -> IrHandler {
        IrHandler { app: "A".into(), name: "h".into(), trigger, body }
    }

    #[test]
    fn overlap_semantics() {
        let open = EventDesc::new("contact", "open");
        let any_contact = EventDesc::any("contact");
        let closed = EventDesc::new("contact", "closed");
        let on = EventDesc::new("switch", "on");
        assert!(open.overlaps(&any_contact));
        assert!(any_contact.overlaps(&closed));
        assert!(!open.overlaps(&closed));
        assert!(!open.overlaps(&on));
    }

    #[test]
    fn conflict_semantics() {
        let on = EventDesc::new("switch", "on");
        let off = EventDesc::new("switch", "off");
        let any = EventDesc::any("switch");
        assert!(on.conflicts_with(&off));
        assert!(!on.conflicts_with(&on));
        assert!(!on.conflicts_with(&any));
        assert!(!on.conflicts_with(&EventDesc::new("lock", "locked")));
    }

    #[test]
    fn display_format_matches_paper() {
        assert_eq!(EventDesc::new("contact", "open").to_string(), "contact/open");
        assert_eq!(EventDesc::any("contact").to_string(), "contact/\"...\"");
    }

    #[test]
    fn inputs_from_trigger_and_reads() {
        let h = handler(
            Trigger::Device {
                input: "contact1".into(),
                attribute: "contact".into(),
                value: Some("open".into()),
            },
            vec![IrStmt::If {
                cond: IrExpr::attr_eq("lock1", "lock", "locked"),
                then: vec![],
                els: vec![],
            }],
        );
        let app = switch_app("A", h.clone());
        let inputs = effect_profile(&app, &h).inputs;
        assert!(inputs.contains(&EventDesc::new("contact", "open")));
        assert!(inputs.contains(&EventDesc::any("lock")));
    }

    #[test]
    fn outputs_map_commands_to_attribute_events() {
        let h = handler(
            Trigger::AppTouch,
            vec![
                IrStmt::DeviceCommand {
                    input: "switches".into(),
                    command: "on".into(),
                    args: vec![],
                },
                IrStmt::DeviceCommand {
                    input: "lock1".into(),
                    command: "unlock".into(),
                    args: vec![],
                },
                IrStmt::SetLocationMode(IrExpr::Const(Value::Str("Away".into()))),
            ],
        );
        let app = switch_app("A", h.clone());
        let outputs = effect_profile(&app, &h).outputs;
        assert!(outputs.contains(&EventDesc::new("switch", "on")));
        assert!(outputs.contains(&EventDesc::new("lock", "unlocked")));
        assert!(outputs.contains(&EventDesc::new("mode", "Away")));
    }

    #[test]
    fn fake_events_count_as_outputs() {
        let h = handler(
            Trigger::AppTouch,
            vec![IrStmt::SendEvent { attribute: "smoke".into(), value: IrExpr::str("detected") }],
        );
        let app = switch_app("A", h.clone());
        let outputs = effect_profile(&app, &h).outputs;
        assert!(outputs.contains(&EventDesc::new("smoke", "detected")));
    }

    #[test]
    fn profile_combines_both() {
        let h = handler(
            Trigger::Device { input: "contact1".into(), attribute: "contact".into(), value: None },
            vec![IrStmt::DeviceCommand {
                input: "switches".into(),
                command: "off".into(),
                args: vec![],
            }],
        );
        let app = switch_app("A", h.clone());
        let profile = effect_profile(&app, &h);
        assert_eq!(profile.inputs.len(), 1);
        assert_eq!(profile.outputs.len(), 1);
    }
}
