//! Authoring custom safety properties with the open `PropertySpec` API.
//!
//! IotSan's paper treats properties as user-supplied inputs (§8): plain
//! English sentences become verifiable properties.  This example writes two
//! user-defined properties — one with the Rust builder, one loaded from the
//! JSON a non-Rust front end (or a config file) would ship — registers them
//! next to the 45 built-ins, verifies a two-app bundle, and prints the
//! counterexample trace for the custom violation.
//!
//! Run with: `cargo run --example custom_property`

use iotsan::config::{AppConfig, Binding, DeviceConfig, SystemConfig};
use iotsan::properties::{DeviceSelect, Expr, PropertyClass, PropertySet, PropertySpec};
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

/// The JSON shape a management front end would upload (the same value type
/// the Rust builder produces — `PropertySpec::from_json` is the inverse of
/// `to_json`).
const SPEC_JSON: &str = r#"{
    "id": 47,
    "name": "The mode never changes to Away while the front door is unlocked",
    "category": "Custom",
    "class": {"type": "Custom", "value": "House rules"},
    "modality": {"type": "Never", "value": {"type": "All", "value": [
        {"type": "Atom", "value": {"type": "ModeIs", "value": "Away"}},
        {"type": "Atom", "value": {"type": "AnyAttr", "value": {
            "select": {"label": "frontDoor"},
            "attribute": "lock",
            "value": "unlocked"
        }}}
    ]}}
}"#;

fn main() {
    let apps = translate_sources(&[AUTO_MODE_CHANGE, UNLOCK_DOOR]).expect("apps translate");
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("alicePresence", "presenceSensor", ""))
        .with_device(DeviceConfig::new("frontDoor", "lock", "main door lock"))
        .with_app(
            AppConfig::new("Auto Mode Change")
                .with("people", Binding::Devices(vec!["alicePresence".into()])),
        )
        .with_app(
            AppConfig::new("Unlock Door").with("lock1", Binding::Devices(vec!["frontDoor".into()])),
        );

    // A property written with the builder: "no unlock command may reach any
    // lock while nobody is home".  Ids 1..=45 belong to the paper corpus.
    let no_unlock_when_empty = PropertySpec::builder(46, "No unlock command while nobody is home")
        .category("Custom")
        .class(PropertyClass::Custom("House rules".into()))
        .never(Expr::and([
            Expr::not(Expr::anyone_home()),
            Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        ]));

    // A property loaded from JSON (e.g. shipped inside the system config).
    let no_away_while_unlocked = PropertySpec::from_json(SPEC_JSON).expect("spec parses");

    let properties = PropertySet::all().with(no_unlock_when_empty).with(no_away_while_unlocked);
    println!("property registry: {} specs ({} custom)", properties.len(), properties.len() - 45);

    let pipeline = Pipeline::with_events(2).with_properties(properties);
    let result = pipeline.verify(&apps, &config);

    println!("\nviolations by class:");
    for (class, count) in result.violations_by_class(&pipeline.properties) {
        println!("  {class:<28} {count}");
    }

    // Print the counterexample for the builder-made custom property.
    for group in &result.groups {
        for violation in &group.report.violations {
            if violation.violation.property == 46 {
                println!("\ncounterexample for P46 ({}):", violation.violation.description);
                println!("{}", violation.trace.render(&violation.violation));
            }
        }
    }
}
