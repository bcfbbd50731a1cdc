//! Translated apps and event handlers.
//!
//! An [`IrApp`] is the unit the rest of IotSan works with: the app's declared
//! inputs, its event handlers lowered to IR, and flags for behaviours the
//! paper calls out (dynamic device discovery, which IotSan cannot verify).

use crate::stmt::IrStmt;
use std::fmt;

/// What kind of value an app input holds once configured.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SettingKind {
    /// One or more devices exposing the given capability.
    Device {
        /// Capability name (SmartThings style, e.g. `motionSensor`, `switch`).
        capability: String,
        /// True when the user may bind several devices.
        multiple: bool,
    },
    /// Integer number.
    Number,
    /// Decimal number.
    Decimal,
    /// Boolean.
    Bool,
    /// Free text.
    Text,
    /// One of a fixed set of options.
    Enum(Vec<String>),
    /// A time of day.
    Time,
    /// A phone number (SMS recipient).
    Phone,
    /// Contact-book recipients.
    Contact,
    /// A location mode name.
    Mode,
    /// Anything else.
    Other(String),
}

impl SettingKind {
    /// The capability name when this is a device input.
    pub fn capability(&self) -> Option<&str> {
        match self {
            SettingKind::Device { capability, .. } => Some(capability),
            _ => None,
        }
    }
}

/// A configurable input of an app (from the `preferences` block).
#[derive(Debug, Clone, PartialEq)]
pub struct AppInput {
    /// Settings variable name.
    pub name: String,
    /// What the input holds.
    pub kind: SettingKind,
    /// Title shown to the user.
    pub title: String,
    /// Whether the user must configure it.
    pub required: bool,
}

impl AppInput {
    /// Creates a required single-device input.
    pub fn device(name: impl Into<String>, capability: impl Into<String>) -> Self {
        AppInput {
            name: name.into(),
            kind: SettingKind::Device { capability: capability.into(), multiple: false },
            title: String::new(),
            required: true,
        }
    }
}

/// What causes a handler to run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// An event from the device(s) bound to `input`.
    Device {
        /// Input name the subscription was made on.
        input: String,
        /// Attribute of interest (`motion`, `contact`, `temperature`, ...).
        attribute: String,
        /// Specific value (`active`, `open`), or `None` for any value.
        value: Option<String>,
    },
    /// A location-mode change event.
    LocationMode {
        /// Specific mode, or `None` for any mode change.
        value: Option<String>,
    },
    /// A location position event such as sunrise or sunset.
    LocationEvent {
        /// Event name (`sunrise`, `sunset`).
        name: String,
    },
    /// The user tapped the app in the companion app (`subscribe(app, "touch", ...)`).
    AppTouch,
    /// A scheduled timer (`schedule`, `runIn`, `runEveryNMinutes`).
    Timer {
        /// Delay in seconds when known.
        delay_seconds: Option<i64>,
    },
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Device { input, attribute, value } => match value {
                Some(v) => write!(f, "{input}:{attribute}.{v}"),
                None => write!(f, "{input}:{attribute}"),
            },
            Trigger::LocationMode { value } => match value {
                Some(v) => write!(f, "location/mode.{v}"),
                None => write!(f, "location/mode"),
            },
            Trigger::LocationEvent { name } => write!(f, "location/{name}"),
            Trigger::AppTouch => write!(f, "app/touch"),
            Trigger::Timer { delay_seconds } => match delay_seconds {
                Some(d) => write!(f, "timer/{d}s"),
                None => write!(f, "timer"),
            },
        }
    }
}

/// A single translated event handler.
#[derive(Debug, Clone, PartialEq)]
pub struct IrHandler {
    /// Name of the app this handler belongs to.
    pub app: String,
    /// The handler method's name (e.g. `motionActiveHandler`).
    pub name: String,
    /// What triggers it.
    pub trigger: Trigger,
    /// Lowered body.
    pub body: Vec<IrStmt>,
}

/// A fully translated smart app.
#[derive(Debug, Clone, PartialEq)]
pub struct IrApp {
    /// App display name.
    pub name: String,
    /// App description (from `definition`).
    pub description: String,
    /// Declared inputs.
    pub inputs: Vec<AppInput>,
    /// Translated event handlers.
    pub handlers: Vec<IrHandler>,
    /// Names of persistent `state.*` variables the app writes.
    pub state_vars: Vec<String>,
    /// True when the app discovers devices dynamically (e.g. via
    /// `getChildDevices()` or `location.devices`); the paper excludes such
    /// apps (§10.1) because they can control any device without permission.
    pub dynamic_discovery: bool,
}

impl IrApp {
    /// Finds an input by name.
    pub fn input(&self, name: &str) -> Option<&AppInput> {
        self.inputs.iter().find(|i| i.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handler_with(body: Vec<IrStmt>) -> IrHandler {
        IrHandler {
            app: "Test".into(),
            name: "h".into(),
            trigger: Trigger::Device {
                input: "motion".into(),
                attribute: "motion".into(),
                value: Some("active".into()),
            },
            body,
        }
    }

    #[test]
    fn trigger_attribute_and_display() {
        assert_eq!(Trigger::AppTouch.to_string(), "app/touch");
        assert_eq!(Trigger::LocationMode { value: None }.to_string(), "location/mode");
        assert_eq!(
            Trigger::Device {
                input: "d".into(),
                attribute: "contact".into(),
                value: Some("open".into())
            }
            .to_string(),
            "d:contact.open"
        );
        assert_eq!(Trigger::Timer { delay_seconds: Some(60) }.to_string(), "timer/60s");
    }

    #[test]
    fn app_accessors() {
        let app = IrApp {
            name: "A".into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("motion", "motionSensor"),
                AppInput {
                    name: "minutes".into(),
                    kind: SettingKind::Number,
                    title: String::new(),
                    required: false,
                },
            ],
            handlers: vec![handler_with(vec![])],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        assert_eq!(app.input("motion").and_then(|i| i.kind.capability()), Some("motionSensor"));
        assert!(app.input("minutes").is_some_and(|i| i.kind == SettingKind::Number));
        assert!(app.input("missing").is_none());
    }
}
