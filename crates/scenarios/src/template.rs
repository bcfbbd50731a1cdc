//! Parameterized app templates: groovy/IFTTT-style automations composed from
//! subscribe / guard / command / schedule / app-state / fake-event fragments.
//!
//! A [`ScenarioApp`] is a structured description of one generated smart app
//! — which device input triggers it, an optional guard, and a list of action
//! fragments — that renders to SmartThings Groovy source
//! ([`ScenarioApp::to_groovy`]).  Rendering to *source* rather than straight
//! to IR is deliberate: every generated household exercises the real
//! groovy→IR frontend, the sources double as daemon NDJSON bundles, and a
//! household serializes to a committable JSON fixture with no bespoke IR
//! codec.  The fragment shapes mirror the market-corpus idioms
//! (`iotsan_apps::market`), so generated apps stay inside the translated
//! Groovy subset by construction.

use crate::rng::SplitMix64;

/// The location modes generated guards and mode actions draw from.
pub const MODES: &[&str] = &["Home", "Away", "Night"];

/// A sensor capability the trigger fragment can subscribe to:
/// `(capability, attribute, discrete values)`.  Numeric attributes list no
/// values — subscriptions on them are value-less, guards use thresholds.
pub const SENSOR_POOL: &[(&str, &str, &[&str])] = &[
    ("motionSensor", "motion", &["active", "inactive"]),
    ("contactSensor", "contact", &["open", "closed"]),
    ("presenceSensor", "presence", &[]),
    ("smokeDetector", "smoke", &["detected", "clear"]),
    ("waterSensor", "water", &["wet", "dry"]),
    ("button", "button", &["pushed", "held"]),
    ("temperatureMeasurement", "temperature", &[]),
    ("illuminanceMeasurement", "illuminance", &[]),
];

/// An actuator capability the command fragments can target:
/// `(capability, commands, primary attribute, "active" value)`.
pub const ACTUATOR_POOL: &[(&str, &[&str], &str, &str)] = &[
    ("switch", &["on", "off"], "switch", "on"),
    ("lock", &["lock", "unlock"], "lock", "unlocked"),
    ("valve", &["open", "close"], "valve", "open"),
    ("alarm", &["siren", "off"], "alarm", "siren"),
    ("sprinkler", &["on", "off"], "sprinkler", "on"),
    ("fanControl", &["on", "off"], "switch", "on"),
    ("garageDoorControl", &["open", "close"], "door", "open"),
    ("windowShade", &["open", "close"], "windowShade", "open"),
];

/// What fires the generated app's handler (the subscribe fragment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerFragment {
    /// `subscribe(trigger, "attr.value", handler)` — or value-less
    /// `subscribe(trigger, "attr", handler)` when `value` is `None`.
    Device {
        /// Bound device label.
        label: String,
        /// Trigger capability.
        capability: String,
        /// Subscribed attribute.
        attribute: String,
        /// Specific value, or `None` for any-value subscription.
        value: Option<String>,
    },
    /// `subscribe(app, "touch", handler)` — used for households with no
    /// sensors at all, so even device-free homes get runnable apps.
    AppTouch,
}

/// An optional guard wrapped around the handler body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardFragment {
    /// No guard.
    None,
    /// `if (location.mode == "mode") { ... }`
    ModeIs(String),
    /// `if (trigger.currentAttr == "value") { ... }`
    TriggerAttrIs {
        /// Guarded attribute (capitalized into the `currentX` getter).
        attribute: String,
        /// Expected value.
        value: String,
    },
    /// `if (trigger.currentAttr < threshold) { ... }`
    TriggerAttrBelow {
        /// Guarded numeric attribute.
        attribute: String,
        /// Threshold.
        threshold: i64,
    },
}

/// One action the handler performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionFragment {
    /// `actuator.cmd()` — the command fragment.
    Command {
        /// Command name.
        command: String,
    },
    /// `runIn(delay, scenarioTick)` plus a `scenarioTick` method issuing the
    /// command — the schedule fragment.
    ScheduleCommand {
        /// Delay in seconds.
        delay: usize,
        /// Command the scheduled callback issues.
        command: String,
    },
    /// `setLocationMode("mode")`.
    SetMode(String),
    /// `sendPush("...")` — a notification sink (exercises communication
    /// observations).
    Push,
    /// `state.fired = 1` — the app-state fragment (exercises persistent
    /// state interning).
    AppState,
    /// `sendEvent(name: "attr", value: "value")` — the fake-event fragment
    /// (exercises the security properties' sensitive-command observation).
    FakeEvent {
        /// Spoofed attribute.
        attribute: String,
        /// Spoofed value.
        value: String,
    },
}

/// A fully instantiated app template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioApp {
    /// Unique display name (also the `AppConfig` key).
    pub name: String,
    /// The subscribe fragment.
    pub trigger: TriggerFragment,
    /// Optional guard around the body.
    pub guard: GuardFragment,
    /// Action fragments, in order.
    pub actions: Vec<ActionFragment>,
    /// Labels of the actuator devices bound to the `actuator` input (empty
    /// when no action needs a device).
    pub actuator_labels: Vec<String>,
    /// Capability of the `actuator` input when bound.
    pub actuator_capability: Option<String>,
}

/// Capitalizes the first ASCII letter — `motion` → `Motion`, for the
/// `currentMotion` attribute getter.
fn capitalize(attribute: &str) -> String {
    let mut chars = attribute.chars();
    match chars.next() {
        Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

impl ScenarioApp {
    /// Renders the app as SmartThings Groovy source.
    pub fn to_groovy(&self) -> String {
        let mut prefs = String::new();
        if let TriggerFragment::Device { capability, .. } = &self.trigger {
            prefs.push_str(&format!(
                "    section(\"Trigger\") {{ input \"trigger\", \"capability.{capability}\" }}\n"
            ));
        }
        if let Some(capability) = &self.actuator_capability {
            let multiple = if self.actuator_labels.len() > 1 { ", multiple: true" } else { "" };
            prefs.push_str(&format!(
                "    section(\"Act on\") {{ input \"actuator\", \"capability.{capability}\"{multiple} }}\n"
            ));
        }

        let subscribe = match &self.trigger {
            TriggerFragment::Device { attribute, value: Some(value), .. } => {
                format!("subscribe(trigger, \"{attribute}.{value}\", scenarioHandler)")
            }
            TriggerFragment::Device { attribute, value: None, .. } => {
                format!("subscribe(trigger, \"{attribute}\", scenarioHandler)")
            }
            TriggerFragment::AppTouch => "subscribe(app, \"touch\", scenarioHandler)".to_string(),
        };

        let mut body = String::new();
        let mut tick = String::new();
        for action in &self.actions {
            match action {
                ActionFragment::Command { command } => {
                    body.push_str(&format!("    actuator.{command}()\n"));
                }
                ActionFragment::ScheduleCommand { delay, command } => {
                    body.push_str(&format!("    runIn({delay}, scenarioTick)\n"));
                    tick = format!("def scenarioTick() {{\n    actuator.{command}()\n}}\n");
                }
                ActionFragment::SetMode(mode) => {
                    body.push_str(&format!("    setLocationMode(\"{mode}\")\n"));
                }
                ActionFragment::Push => {
                    body.push_str("    sendPush(\"scenario alert\")\n");
                }
                ActionFragment::AppState => {
                    body.push_str("    state.fired = 1\n");
                }
                ActionFragment::FakeEvent { attribute, value } => {
                    body.push_str(&format!(
                        "    sendEvent(name: \"{attribute}\", value: \"{value}\")\n"
                    ));
                }
            }
        }

        let guarded = match &self.guard {
            GuardFragment::None => body,
            GuardFragment::ModeIs(mode) => {
                format!("    if (location.mode == \"{mode}\") {{\n    {}    }}\n", indent(&body))
            }
            GuardFragment::TriggerAttrIs { attribute, value } => format!(
                "    if (trigger.current{} == \"{value}\") {{\n    {}    }}\n",
                capitalize(attribute),
                indent(&body)
            ),
            GuardFragment::TriggerAttrBelow { attribute, threshold } => format!(
                "    if (trigger.current{} < {threshold}) {{\n    {}    }}\n",
                capitalize(attribute),
                indent(&body)
            ),
        };

        format!(
            "definition(name: \"{name}\", namespace: \"scenario\", author: \"factory\", \
             description: \"Generated scenario automation.\")\n\
             preferences {{\n{prefs}}}\n\
             def installed() {{\n    {subscribe}\n}}\n\
             def scenarioHandler(evt) {{\n{guarded}}}\n{tick}",
            name = self.name,
        )
    }
}

/// Re-indents every line of an already-rendered body by one level.
fn indent(body: &str) -> String {
    body.lines().map(|l| format!("{l}\n    ")).collect::<String>()
}

/// Draws the guard for an app whose trigger is `trigger`, using only
/// attributes the trigger device actually has.
pub fn draw_guard(rng: &mut SplitMix64, trigger: &TriggerFragment) -> GuardFragment {
    match rng.below(4) {
        0 => GuardFragment::None,
        1 => GuardFragment::ModeIs((*rng.pick(MODES)).to_string()),
        _ => match trigger {
            TriggerFragment::Device { attribute, .. } => {
                match SENSOR_POOL.iter().find(|(_, attr, _)| attr == attribute) {
                    Some((_, attr, values)) if !values.is_empty() => GuardFragment::TriggerAttrIs {
                        attribute: (*attr).to_string(),
                        value: (*rng.pick(values)).to_string(),
                    },
                    Some((_, attr, _)) => GuardFragment::TriggerAttrBelow {
                        attribute: (*attr).to_string(),
                        threshold: [30, 50, 68][rng.below(3)],
                    },
                    None => GuardFragment::None,
                }
            }
            TriggerFragment::AppTouch => GuardFragment::ModeIs((*rng.pick(MODES)).to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan::analysis::{summarize_handler, WriteEffect};

    fn sample_app() -> ScenarioApp {
        ScenarioApp {
            name: "Scn 0 motion".into(),
            trigger: TriggerFragment::Device {
                label: "d0MotionSensor".into(),
                capability: "motionSensor".into(),
                attribute: "motion".into(),
                value: Some("active".into()),
            },
            guard: GuardFragment::ModeIs("Away".into()),
            actions: vec![
                ActionFragment::Command { command: "on".into() },
                ActionFragment::AppState,
            ],
            actuator_labels: vec!["d1Switch".into()],
            actuator_capability: Some("switch".into()),
        }
    }

    #[test]
    fn rendered_groovy_contains_every_fragment() {
        let text = sample_app().to_groovy();
        assert!(text.contains("subscribe(trigger, \"motion.active\", scenarioHandler)"), "{text}");
        assert!(text.contains("if (location.mode == \"Away\")"), "{text}");
        assert!(text.contains("actuator.on()"), "{text}");
        assert!(text.contains("state.fired = 1"), "{text}");
        assert!(text.contains("input \"trigger\", \"capability.motionSensor\""), "{text}");
    }

    #[test]
    fn rendered_groovy_translates_through_the_real_frontend() {
        let source = sample_app().to_groovy();
        let apps = iotsan::translate_sources(&[&source]).expect("generated groovy translates");
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].handlers.len(), 1);
        let summary = summarize_handler(&apps[0], &apps[0].handlers[0]);
        let commands: Vec<_> = summary
            .writes
            .iter()
            .filter_map(|w| match w {
                WriteEffect::Command { input, command } => Some((input.as_str(), command.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(commands, [("actuator", "on")]);
    }

    #[test]
    fn schedule_fragment_emits_the_tick_method() {
        let mut app = sample_app();
        app.actions = vec![ActionFragment::ScheduleCommand { delay: 60, command: "off".into() }];
        let text = app.to_groovy();
        assert!(text.contains("runIn(60, scenarioTick)"), "{text}");
        assert!(text.contains("def scenarioTick()"), "{text}");
        let apps = iotsan::translate_sources(&[&text]).expect("schedule template translates");
        assert!(!apps[0].handlers.is_empty());
    }
}
