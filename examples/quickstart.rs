//! Quickstart: analyse a two-app smart home for safety violations.
//!
//! This is the paper's running example (§8, Figure 7): `Auto Mode Change`
//! switches the location mode to `Away` when everyone leaves, and
//! `Unlock Door` — whose description claims it only reacts to user input —
//! also unlocks the front door on every mode change.  Together they leave the
//! house unlocked while nobody is home.
//!
//! Run with: `cargo run --example quickstart`

use iotsan::config::{AppConfig, Binding, DeviceConfig, SystemConfig};
use iotsan::{translate_sources, Pipeline};

const AUTO_MODE_CHANGE: &str = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "demo",
    description: "Change the location mode when people arrive or leave.")
preferences {
    section("Presence sensors") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") {
        setLocationMode("Away")
    } else {
        setLocationMode("Home")
    }
}
"#;

const UNLOCK_DOOR: &str = r#"
definition(name: "Unlock Door", namespace: "st", author: "demo",
    description: "Unlock the door when you tap the app.")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;

fn main() {
    // 1. Translate the Groovy sources (lexer → parser → SmartThings DSL → IR).
    let apps = translate_sources(&[AUTO_MODE_CHANGE, UNLOCK_DOOR]).expect("apps translate");

    // 2. Describe Alice's home: one presence sensor, one smart lock on the
    //    main door, and the app-input bindings (this is what the paper's
    //    Configuration Extractor scrapes from the management app).
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("alicePresence", "presenceSensor", ""))
        .with_device(DeviceConfig::new("frontDoorLock", "lock", "main door lock"))
        .with_app(
            AppConfig::new("Auto Mode Change")
                .with("people", Binding::Devices(vec!["alicePresence".into()])),
        )
        .with_app(
            AppConfig::new("Unlock Door")
                .with("lock1", Binding::Devices(vec!["frontDoorLock".into()])),
        );

    // 3. Verify: up to 2 external physical events, all 45 safety properties.
    let pipeline = Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);

    println!("apps under verification : {}", apps.len());
    println!("related groups          : {}", result.groups.len());
    println!("violations found        : {}", result.violation_count());

    for group in &result.groups {
        for found in &group.report.violations {
            println!("\nviolated property: {}", found.violation);
            println!("apps involved    : {}", group.apps.join(", "));
            println!("counterexample   :");
            print!("{}", found.trace);
        }
    }
}
