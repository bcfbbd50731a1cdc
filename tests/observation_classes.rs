//! Observation classes change no verdict and no counterexample depth.
//!
//! The sequential model offers one sensor reading per observation class of
//! an attribute no subscription receives, plus one step within the current
//! class, and stores each class's representative (`iotsan::classes` docs,
//! ARCHITECTURE.md "Observation classes").  Each test here verifies a
//! system with the checker and compares, per property, whether it is
//! violated and at which depth with `full_alphabet_depths`: a dedup-free
//! walk of every path of the full alphabet, built by hand, on a model that
//! stores every value as given.
//!
//! The systems: every planned group of the first 8 market apps at 3 events
//! with failures, and hand-written homes with an unsubscribed illuminance
//! sensor that a handler reads with `<`, with `==` and opaquely (a message
//! carrying the reading, which keeps all six values), one whose custom
//! `AnyBelow` property splits a handler's class, one with no reader and a
//! leads-to property with `within = 1`, and one whose handler reads the
//! clock.

use iotsan::checker::{Checker, SearchConfig, TransitionSystem};
use iotsan::config::{
    expert_configure, standard_household, AppConfig, Binding, DeviceConfig, SystemConfig,
};
use iotsan::devices::FailureMode;
use iotsan::model::{ExternalAction, ModelOptions, SequentialModel};
use iotsan::properties::{DeviceSelect, Expr, PropertySet, PropertySpec};
use iotsan::{translate_sources, InstalledSystem, Pipeline};
use iotsan_apps::market;
use iotsan_scenarios::full_alphabet_depths;
use std::collections::BTreeMap;

/// Verifies `system` with the checker and asserts every property's
/// first-violation depth equals the full alphabet's.  Returns the states the
/// checker stored, and how many a full-alphabet model stores.
fn assert_matches_full_alphabet(
    system: InstalledSystem,
    properties: PropertySet,
    options: ModelOptions,
    label: &str,
) -> (BTreeMap<u32, usize>, usize, usize) {
    let search = SearchConfig::with_depth(options.max_events);
    let model = SequentialModel::new(system.clone(), properties.clone(), options.clone());
    let report = Checker::new(search.clone()).verify(&model);
    assert!(!report.stats.truncated, "{label}: truncated");
    let checker: BTreeMap<u32, usize> =
        report.violations.iter().map(|v| (v.violation.property, v.depth)).collect();
    let reference =
        full_alphabet_depths(system.clone(), properties.clone(), options.clone(), search.max_depth);
    assert_eq!(checker, reference, "{label}: (property, depth) checker vs full alphabet");
    let full = SequentialModel::full_alphabet(system, properties, options);
    let full_states = Checker::new(search).verify(&full).stats.states_stored;
    (checker, report.stats.states_stored, full_states)
}

#[test]
fn market_groups_match_the_full_alphabet() {
    let corpus = market::market_apps();
    let sources: Vec<&str> = corpus.iter().take(8).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(3).with_failures();
    let plan = pipeline.planner().plan(&apps, &config);
    let (mut states, mut full_states, mut violated) = (0, 0, 0);
    for (index, job) in plan.jobs.iter().enumerate() {
        let (depths, reduced, full) = assert_matches_full_alphabet(
            InstalledSystem::new(job.members.clone(), job.config.clone()),
            pipeline.properties_for(&job.config),
            pipeline.model_options.clone(),
            &format!("group {index} {:?}", job.apps),
        );
        states += reduced;
        full_states += full;
        violated += depths.len();
    }
    assert!(violated >= 10, "{violated} violations");
    assert!(states < full_states, "{states} states, {full_states} on the full alphabet");
}

/// A home with an illuminance sensor (`hallLux`, default 100 lux), a motion
/// sensor and a light; `handler` is the body of the motion handler of one
/// app that binds all three and subscribes to motion only.
fn lux_home(handler: &str) -> InstalledSystem {
    let source = format!(
        r#"
definition(name: "Dark Lights", namespace: "t", author: "t", description: "d")
preferences {{ section("s") {{
    input "lux", "capability.illuminanceMeasurement"
    input "motion", "capability.motionSensor"
    input "light", "capability.switch"
    input "phone", "phone"
}} }}
def installed() {{ subscribe(motion, "motion.active", motionHandler) }}
def motionHandler(evt) {{
{handler}
}}
"#
    );
    let apps = translate_sources(&[source.as_str()]).expect("home app translates");
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("hallLux", "illuminanceMeasurement", ""))
        .with_device(DeviceConfig::new("hallMotion", "motionSensor", ""))
        .with_device(DeviceConfig::new("hallLight", "switch", "light"))
        .with_app(
            AppConfig::new("Dark Lights")
                .with("lux", Binding::Devices(vec!["hallLux".into()]))
                .with("motion", Binding::Devices(vec!["hallMotion".into()]))
                .with("light", Binding::Devices(vec!["hallLight".into()]))
                .with("phone", Binding::Text("5551234567".into())),
        );
    InstalledSystem::new(apps, config)
}

/// The illuminance values the model offers from the initial state (plain
/// events), and whether any communication-lost copy of one is offered.
fn offered_lux(system: &InstalledSystem, properties: &PropertySet) -> (Vec<String>, bool) {
    let model = SequentialModel::new(
        system.clone(),
        properties.clone(),
        ModelOptions::with_events(1).with_failures(),
    );
    let mut actions = Vec::new();
    model.actions(&model.initial_state(), &mut actions);
    let lux: Vec<&ExternalAction> = actions
        .iter()
        .filter(|a| matches!(a, ExternalAction::SensorEvent { device, .. } if device.0 == 0))
        .collect();
    let values = lux
        .iter()
        .filter(|a| matches!(a, ExternalAction::SensorEvent { failure: FailureMode::None, .. }))
        .map(|a| model.display_action(a))
        .collect();
    let lost = lux.iter().any(|a| {
        matches!(a, ExternalAction::SensorEvent { failure: FailureMode::CommunicationLost, .. })
    });
    (values, lost)
}

fn lux_events(values: &[u32]) -> Vec<String> {
    values.iter().map(|v| format!("hallLux/illuminance={v} [ok]")).collect()
}

/// The custom specs the hand-written homes add to the built-ins.
fn light_on_while_bright() -> PropertySpec {
    PropertySpec::builder(60, "The light is off in bright daylight").never(Expr::and([
        Expr::capability_attr("switch", "switch", "on"),
        Expr::any_above(DeviceSelect::capability("illuminanceMeasurement"), "illuminance", 200.0),
    ]))
}

fn never_glaring() -> PropertySpec {
    PropertySpec::builder(61, "The hall never reads glaring").always(Expr::any_below(
        DeviceSelect::capability("illuminanceMeasurement"),
        "illuminance",
        200.0,
    ))
}

#[test]
fn a_less_than_reader_merges_its_classes_and_keeps_the_verdict() {
    let system = lux_home("if (lux.currentIlluminance < 30) { light.on() } else { light.off() }");
    // `< 30` alone: {0, 10} and {30, 100, 500, 1000}; from 100, the events
    // are 0 (the other class) and 30 (within the current class).
    let builtins = PropertySet::all();
    let options = ModelOptions::with_events(3).with_failures();
    let (_, states, full) =
        assert_matches_full_alphabet(system.clone(), builtins.clone(), options.clone(), "< 30");
    assert!(states < full, "{states} vs {full} states");
    assert_eq!(offered_lux(&system, &builtins), (lux_events(&[0, 30]), false));

    // A property reading `> 200` splits the default's class: 500 joins the
    // events, and a light left on once it is bright is found.
    let properties = PropertySet::all().with(light_on_while_bright());
    let (depths, _, _) =
        assert_matches_full_alphabet(system.clone(), properties.clone(), options, "< 30, > 200");
    assert!(depths.contains_key(&60), "{depths:?}");
    assert_eq!(offered_lux(&system, &properties), (lux_events(&[0, 30, 500]), false));
}

#[test]
fn an_any_below_property_that_splits_a_class_keeps_its_violation() {
    // The handler alone merges 30..1000; `always below 200` is violated only
    // at 500 and 1000, neither of them the class's representative.
    let system = lux_home("if (lux.currentIlluminance < 30) { light.on() }");
    let properties = PropertySet::from_specs(vec![never_glaring()]);
    let (depths, _, _) = assert_matches_full_alphabet(
        system.clone(),
        properties.clone(),
        ModelOptions::with_events(2).with_failures(),
        "any below 200",
    );
    assert_eq!(depths.get(&61), Some(&1));
    assert_eq!(offered_lux(&system, &properties), (lux_events(&[0, 30, 500]), false));
}

#[test]
fn an_equality_reader_merges_every_other_value() {
    let system = lux_home("if (lux.currentIlluminance == 10) { light.on() }");
    assert_matches_full_alphabet(
        system.clone(),
        PropertySet::all().with(light_on_while_bright()),
        ModelOptions::with_events(3).with_failures(),
        "== 10",
    );
    // {10} and the rest; from 100 the rest's lowest other member is 0.
    assert_eq!(offered_lux(&system, &PropertySet::all()), (lux_events(&[0, 10]), false));
}

#[test]
fn an_opaque_reader_keeps_every_value() {
    let system = lux_home(
        r#"def reading = lux.currentIlluminance
    sendSms(phone, "hall reads ${reading}")"#,
    );
    // The message carries the reading itself: no two values are alike.  The
    // sensor is still unsubscribed, so no communication-lost copy.
    assert_eq!(
        offered_lux(&system, &PropertySet::all()),
        (lux_events(&[0, 10, 30, 500, 1000]), false)
    );
    let (_, states, full) = assert_matches_full_alphabet(
        system,
        PropertySet::all(),
        ModelOptions::with_events(2).with_failures(),
        "opaque",
    );
    assert_eq!(states, full);
}

#[test]
fn a_subscribed_sensor_keeps_every_value_and_its_lost_copies() {
    let source = r#"
definition(name: "Lux Watch", namespace: "t", author: "t", description: "d")
preferences { section("s") {
    input "lux", "capability.illuminanceMeasurement"
    input "light", "capability.switch"
} }
def installed() { subscribe(lux, "illuminance", luxHandler) }
def luxHandler(evt) { if (evt.numericValue < 30) { light.on() } }
"#;
    let apps = translate_sources(&[source]).expect("app translates");
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("hallLux", "illuminanceMeasurement", ""))
        .with_device(DeviceConfig::new("hallLight", "switch", "light"))
        .with_app(
            AppConfig::new("Lux Watch")
                .with("lux", Binding::Devices(vec!["hallLux".into()]))
                .with("light", Binding::Devices(vec!["hallLight".into()])),
        );
    let system = InstalledSystem::new(apps, config);
    assert_eq!(
        offered_lux(&system, &PropertySet::all()),
        (lux_events(&[0, 10, 30, 500, 1000]), true)
    );
    assert_matches_full_alphabet(
        system,
        PropertySet::all(),
        ModelOptions::with_events(2).with_failures(),
        "subscribed",
    );
}

#[test]
fn a_leads_to_countdown_sees_the_steps_within_a_class() {
    // No app reads the sensor, so its six values are one class and the only
    // events are steps within it.  "Home leads to Away within one step"
    // opens on the first and expires on the second.
    let config =
        SystemConfig::new().with_device(DeviceConfig::new("hallLux", "illuminanceMeasurement", ""));
    let properties = PropertySet::from_specs(vec![PropertySpec::builder(62, "Leave within one")
        .leads_to(Expr::mode_is("Home"), Expr::mode_is("Away"), 1)]);
    let system = InstalledSystem::new(Vec::<iotsan::ir::IrApp>::new(), config);
    let (depths, states, _) = assert_matches_full_alphabet(
        system.clone(),
        properties.clone(),
        ModelOptions::with_events(3).with_failures(),
        "leads-to",
    );
    assert_eq!(depths.get(&62), Some(&2));
    assert_eq!(offered_lux(&system, &properties), (lux_events(&[0]), false));
    // Initial, one countdown open, and offline.
    assert!(states <= 4, "{states} states");
}

#[test]
fn a_clock_reader_keeps_every_depth() {
    // The light goes on at a touch once 30 minutes have passed and it is
    // bright; every event, a step within a class included, moves the clock.
    let source = r#"
definition(name: "Late Light", namespace: "t", author: "t", description: "d")
preferences { section("s") {
    input "lux", "capability.illuminanceMeasurement"
    input "light", "capability.switch"
} }
def installed() { subscribe(app, "touch", touched) }
def touched(evt) {
    if (now() > 1500 && lux.currentIlluminance > 200) { light.on() }
}
"#;
    let apps = translate_sources(&[source]).expect("app translates");
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("hallLux", "illuminanceMeasurement", ""))
        .with_device(DeviceConfig::new("hallLight", "switch", "light"))
        .with_app(
            AppConfig::new("Late Light")
                .with("lux", Binding::Devices(vec!["hallLux".into()]))
                .with("light", Binding::Devices(vec!["hallLight".into()])),
        );
    let system = InstalledSystem::new(apps, config);
    let properties = PropertySet::from_specs(vec![PropertySpec::builder(63, "Light stays off")
        .never(Expr::capability_attr("switch", "switch", "on"))]);
    let (depths, _, _) = assert_matches_full_alphabet(
        system.clone(),
        properties.clone(),
        ModelOptions::with_events(4).with_failures(),
        "clock",
    );
    assert_eq!(depths.get(&63), Some(&3));
    assert_eq!(offered_lux(&system, &properties), (lux_events(&[0, 500]), false));
}
