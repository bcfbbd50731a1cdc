//! The IFTTT frontend (§11, "Application to other IoT Platforms").
//!
//! An IFTTT applet has a *trigger service* (This) and an *action service*
//! (That).  The paper fetches published applets as JSON, maps 8 popular IoT
//! services onto sensor/actuator device models and translates each rule into
//! an app with a single event handler.  This module does the same: a JSON
//! applet corpus (the 10 rules of Table 9), a serde model, and a translation
//! into [`IrApp`]s that the rest of the pipeline consumes unchanged.

use iotsan_ir::{AppInput, IrApp, IrHandler, IrStmt, SettingKind, Trigger};
use serde::{Deserialize, Serialize};

/// One IFTTT applet (rule).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IftttApplet {
    /// Rule identifier (e.g. `rule #1`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The trigger service (This).
    pub trigger: IftttTrigger,
    /// The action service (That).
    pub action: IftttAction,
}

/// The trigger half of a rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IftttTrigger {
    /// Service name (e.g. `SmartThings`, `Amazon Alexa`, `Ring`).
    pub service: String,
    /// Device capability the trigger maps onto (e.g. `motionSensor`).
    pub capability: String,
    /// Attribute of interest.
    pub attribute: String,
    /// Triggering value, or empty for any value.
    #[serde(default)]
    pub value: String,
}

/// The action half of a rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IftttAction {
    /// Service name (e.g. `SmartThings`, `Nest Thermostat`, `Phone Call`).
    pub service: String,
    /// Device capability the action maps onto (e.g. `alarm`, `lock`);
    /// message-style actions use the pseudo-capability `notification`.
    pub capability: String,
    /// Command to execute (e.g. `siren`, `unlock`, `call`).
    pub command: String,
}

/// The embedded corpus of the 10 rules used in Table 9.
pub const IFTTT_RULES_JSON: &str = r#"[
  {"id": "rule #1", "title": "If motion is detected, turn the porch light on",
   "trigger": {"service": "SmartThings", "capability": "motionSensor", "attribute": "motion", "value": "active"},
   "action": {"service": "SmartThings", "capability": "switch", "command": "on"}},
  {"id": "rule #2", "title": "If the front door opens, sound the siren",
   "trigger": {"service": "SmartThings", "capability": "contactSensor", "attribute": "contact", "value": "open"},
   "action": {"service": "SmartThings", "capability": "alarm", "command": "both"}},
  {"id": "rule #3", "title": "If motion is detected, start recording on the camera",
   "trigger": {"service": "Ring", "capability": "motionSensor", "attribute": "motion", "value": "active"},
   "action": {"service": "Ring", "capability": "imageCapture", "command": "take"}},
  {"id": "rule #4", "title": "If I tell Alexa good night, turn the siren off",
   "trigger": {"service": "Amazon Alexa", "capability": "button", "attribute": "button", "value": "pushed"},
   "action": {"service": "SmartThings", "capability": "alarm", "command": "off"}},
  {"id": "rule #5", "title": "If my phone connects to home WiFi, unlock the front door",
   "trigger": {"service": "Android Device", "capability": "presenceSensor", "attribute": "presence", "value": "present"},
   "action": {"service": "SmartThings", "capability": "lock", "command": "unlock"}},
  {"id": "rule #6", "title": "If I tell Google Assistant to open up, unlock the door",
   "trigger": {"service": "Google Assistant", "capability": "button", "attribute": "button", "value": "pushed"},
   "action": {"service": "SmartThings", "capability": "lock", "command": "unlock"}},
  {"id": "rule #7", "title": "If the smoke alarm triggers, call my phone",
   "trigger": {"service": "Nest Protect", "capability": "smokeDetector", "attribute": "smoke", "value": "detected"},
   "action": {"service": "Phone Call", "capability": "notification", "command": "call"}},
  {"id": "rule #8", "title": "If water is detected, call my phone",
   "trigger": {"service": "SmartThings", "capability": "waterSensor", "attribute": "water", "value": "wet"},
   "action": {"service": "Phone Call", "capability": "notification", "command": "call"}},
  {"id": "rule #9", "title": "If the temperature rises above the setpoint, set the thermostat to cool",
   "trigger": {"service": "SmartThings", "capability": "temperatureMeasurement", "attribute": "temperature", "value": "85"},
   "action": {"service": "Nest Thermostat", "capability": "thermostat", "command": "cool"}},
  {"id": "rule #10", "title": "If the alarm sounds, flash the living room lights",
   "trigger": {"service": "SmartThings", "capability": "alarm", "attribute": "alarm", "value": "both"},
   "action": {"service": "SmartThings", "capability": "switch", "command": "on"}}
]"#;

/// Parses an applet corpus from JSON.
pub fn parse_applets(json: &str) -> Result<Vec<IftttApplet>, serde_json::Error> {
    serde_json::from_str(json)
}

/// The built-in 10-rule corpus.
pub fn ifttt_rules() -> Vec<IftttApplet> {
    parse_applets(IFTTT_RULES_JSON).expect("embedded IFTTT corpus is valid JSON")
}

/// Translates one applet into an [`IrApp`] with a single event handler, as
/// described in §11: the subscribed device and the controlled device become
/// inputs, and the handler body is the single expected command.
pub fn translate_applet(applet: &IftttApplet) -> IrApp {
    let trigger_input = "triggerDevice".to_string();
    let action_input = "actionDevice".to_string();
    let mut inputs = vec![AppInput {
        name: trigger_input.clone(),
        kind: SettingKind::Device {
            capability: applet.trigger.capability.clone(),
            multiple: false,
        },
        title: applet.trigger.service.clone(),
        required: true,
    }];
    let body = if applet.action.capability == "notification" {
        vec![IrStmt::SendPush { message: iotsan_ir::IrExpr::str(applet.title.clone()) }]
    } else {
        inputs.push(AppInput {
            name: action_input.clone(),
            kind: SettingKind::Device {
                capability: applet.action.capability.clone(),
                multiple: false,
            },
            title: applet.action.service.clone(),
            required: true,
        });
        vec![IrStmt::DeviceCommand {
            input: action_input,
            command: applet.action.command.clone(),
            args: vec![],
        }]
    };
    IrApp {
        name: format!("IFTTT {}", applet.id),
        description: applet.title.clone(),
        inputs,
        handlers: vec![IrHandler {
            app: format!("IFTTT {}", applet.id),
            name: "rule".into(),
            trigger: Trigger::Device {
                input: trigger_input,
                attribute: applet.trigger.attribute.clone(),
                value: if applet.trigger.value.is_empty() {
                    None
                } else {
                    Some(applet.trigger.value.clone())
                },
            },
            body,
        }],
        state_vars: vec![],
        dynamic_discovery: false,
    }
}

/// Translates the whole corpus.
pub fn translate_rules(applets: &[IftttApplet]) -> Vec<IrApp> {
    applets.iter().map(translate_applet).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_with_ten_rules() {
        let rules = ifttt_rules();
        assert_eq!(rules.len(), 10);
        assert_eq!(rules[0].id, "rule #1");
        // Round trip through serde.
        let json = serde_json::to_string(&rules).unwrap();
        assert_eq!(parse_applets(&json).unwrap(), rules);
    }

    #[test]
    fn services_cover_eight_distinct_names() {
        let rules = ifttt_rules();
        let services: std::collections::BTreeSet<&str> = rules
            .iter()
            .flat_map(|r| [r.trigger.service.as_str(), r.action.service.as_str()])
            .collect();
        assert!(services.len() >= 8, "only {} services modelled", services.len());
    }

    #[test]
    fn translation_produces_single_handler_apps() {
        let commands = |app: &IrApp| {
            let mut out = Vec::new();
            for stmt in &app.handlers[0].body {
                stmt.walk(&mut |s| {
                    if let IrStmt::DeviceCommand { input, command, .. } = s {
                        out.push((input.clone(), command.clone()));
                    }
                });
            }
            out
        };
        let apps = translate_rules(&ifttt_rules());
        assert_eq!(apps.len(), 10);
        for app in &apps {
            assert_eq!(app.handlers.len(), 1);
            assert!(!app.inputs.is_empty());
        }
        // Rule #5 unlocks a lock on presence.
        let rule5 = apps.iter().find(|a| a.name == "IFTTT rule #5").unwrap();
        assert_eq!(commands(rule5), [("actionDevice".to_string(), "unlock".to_string())]);
        // Rule #7 is a notification action with no actuator input.
        let rule7 = apps.iter().find(|a| a.name == "IFTTT rule #7").unwrap();
        assert_eq!(rule7.inputs.len(), 1);
        assert!(commands(rule7).is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_applets("{not json").is_err());
    }
}
