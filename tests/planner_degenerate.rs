//! Degenerate-household edges of the fleet planner: zero apps, zero
//! devices, one device, unbound/empty bindings.  All of these must plan and
//! verify to a well-formed (possibly empty) [`iotsan::FleetReport`]; none
//! may panic on an empty related set.
//!
//! These households are exactly the small end of what the scenario factory
//! (`iotsan-scenarios`) generates, so keeping them green keeps the fuzzing
//! floor safe.

use iotsan::{Pipeline, VerificationCache};
use iotsan_config::{expert_configure, AppConfig, Binding, DeviceConfig, SystemConfig};
use iotsan_ir::IrApp;

const LIGHT: &str = r#"
definition(name: "L", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "motionSensor", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motionSensor, "motion.active", h) }
def h(evt) { lights.on() }
"#;

fn verify(pipeline: &Pipeline, apps: &[IrApp], config: &SystemConfig) -> iotsan::FleetReport {
    pipeline.verify_fleet(apps, config, &mut VerificationCache::new())
}

#[test]
fn zero_devices_with_handler_app_yields_a_wellformed_report() {
    // Household with NO devices at all: required inputs bound to empty lists.
    let apps = iotsan::translate_sources(&[LIGHT]).unwrap();
    let config = expert_configure(&apps, &[]);
    let report = verify(&Pipeline::with_events(2), &apps, &config);
    assert!(report.cache_hits == 0);
    assert_eq!(report.outcome().len(), report.groups.len());
}

#[test]
fn one_device_household_verifies() {
    let apps = iotsan::translate_sources(&[LIGHT]).unwrap();
    let devices = vec![DeviceConfig::new("m0", "motionSensor", "")];
    let config = expert_configure(&apps, &devices);
    let report = verify(&Pipeline::with_events(2), &apps, &config);
    assert_eq!(report.groups.len(), 1, "one app forms one group");
}

#[test]
fn zero_apps_yields_the_empty_fleet_report() {
    let config = SystemConfig::new().with_device(DeviceConfig::new("d0", "switch", ""));
    let report = verify(&Pipeline::with_events(2), &[], &config);
    assert!(report.groups.is_empty(), "no apps, no groups");
    assert!(report.violated_properties().is_empty());
    assert_eq!(report.original_handlers, 0);
}

#[test]
fn verify_group_accepts_empty_members() {
    let config = SystemConfig::new();
    let pipeline = Pipeline::with_events(2);
    let result = pipeline.verify_group(&[] as &[IrApp], &config);
    assert!(result.report.violated_properties().is_empty());
}

#[test]
fn unbound_required_input_still_plans() {
    // App installed but its config binds nothing at all (invalid per
    // SystemConfig::validate, but verify_fleet must degrade, not panic).
    let apps = iotsan::translate_sources(&[LIGHT]).unwrap();
    let config = SystemConfig::new().with_app(AppConfig::new("L"));
    let report = verify(&Pipeline::with_events(2), &apps, &config);
    assert_eq!(report.outcome().len(), report.groups.len());
}

#[test]
fn empty_binding_lists_still_plan() {
    let apps = iotsan::translate_sources(&[LIGHT]).unwrap();
    let config = SystemConfig::new().with_app(
        AppConfig::new("L")
            .with("motionSensor", Binding::Devices(vec![]))
            .with("lights", Binding::Devices(vec![])),
    );
    let report = verify(&Pipeline::with_events(2), &apps, &config);
    assert_eq!(report.outcome().len(), report.groups.len());
}
