//! Workspace smoke test: the public API surface every downstream consumer
//! (examples, the `repro` harness, the end-to-end benchmark) relies on must
//! stay reachable through the `iotsan` facade crate alone.

use iotsan::checker::{Checker, SearchConfig};
use iotsan::config::{expert_configure, standard_household, SystemConfig};
use iotsan::properties::PropertySet;
use iotsan::{translate_sources, Pipeline};

const BRIGHTEN_MY_PATH: &str = r#"
definition(name: "Brighten My Path", namespace: "st", author: "x", description: "d")
preferences {
    section("s") { input "motionSensor", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motionSensor, "motion.active", onMotion) }
def onMotion(evt) { lights.on() }
"#;

/// `translate_sources`, `Pipeline`, `PropertySet` and `Checker` — the four
/// entry points named in the quickstart — are all reachable and composable
/// through the facade.
#[test]
fn facade_exposes_the_pipeline_entry_points() {
    let apps = translate_sources(&[BRIGHTEN_MY_PATH]).expect("corpus app translates");
    assert_eq!(apps.len(), 1);
    assert_eq!(apps[0].name, "Brighten My Path");

    let properties = PropertySet::all();
    assert_eq!(properties.len(), 45);

    let config = expert_configure(&apps, &standard_household());
    let result = Pipeline::with_events(1).verify(&apps, &config);
    assert!(!result.has_violations());

    // The checker is independently reachable for custom models.
    let _ = Checker::new(SearchConfig::with_depth(1));
}

/// The re-exported sibling crates stay addressable by their facade paths
/// (`iotsan::checker`, `iotsan::config`, ...), which the integration tests
/// and the `repro` binary import.
#[test]
fn facade_reexports_every_subsystem() {
    let _ = iotsan::groovy::SmartApp::parse(BRIGHTEN_MY_PATH);
    let _ = iotsan::ir::Value::Int(1);
    let _ = iotsan::devices::registry();
    let _ = iotsan::depgraph::analyze(&[]);
    let _ = iotsan::properties::PropertySet::all();
    let _ = iotsan::attribution::AttributionThresholds::default();
    let _ = SystemConfig::new();
}

/// Configurations serialize through the vendored serde stack and round-trip.
#[test]
fn system_config_json_round_trips_through_facade() {
    let apps = translate_sources(&[BRIGHTEN_MY_PATH]).expect("corpus app translates");
    let config = expert_configure(&apps, &standard_household());
    let reparsed = SystemConfig::from_json(&config.to_json()).expect("round-trips");
    assert_eq!(config, reparsed);
}
