//! The model's subscription index against the full scan it replaced.
//!
//! The model dispatches an event only to the handlers indexed under its
//! interned attribute, filtered by value and device. The reference here is
//! the old dispatch: walk every handler of every app and keep those whose
//! trigger names the event's attribute (compared as strings) and whose
//! filters accept it. Both must list the same handlers in the same
//! app-then-handler order, for every market group the planner builds and for
//! a seeded batch of generated households.

use iotsan::config::{expert_configure, standard_household, Binding, DeviceConfig, SystemConfig};
use iotsan::devices::{DeviceId, LocationMode};
use iotsan::ir::{AppInput, IrApp, IrExpr, IrHandler, IrStmt, SettingKind, Sym, Trigger, Value};
use iotsan::model::{ModelOptions, SequentialModel};
use iotsan::properties::PropertySet;
use iotsan::{translate_sources, DispatchedEvent, InstalledSystem, Pipeline};
use iotsan_scenarios::{Household, SizeProfile};
use std::borrow::Cow;

/// The pre-index dispatch test: does `handler` of `app_index` subscribe to
/// `event`, comparing attribute names as strings?
fn scan_subscribes(
    system: &InstalledSystem,
    app_index: usize,
    handler: &IrHandler,
    event: &DispatchedEvent,
) -> bool {
    let event_attribute = system.attr_name(event.attribute);
    match &handler.trigger {
        Trigger::Device { input, attribute, value } => {
            attribute == event_attribute
                && value.as_ref().map_or(true, |v| event.value.eq_str(v))
                && event.device.map_or(true, |d| system.bound_slice(app_index, input).contains(&d))
        }
        Trigger::LocationMode { value } => {
            event_attribute == "mode" && value.as_ref().map_or(true, |v| event.value.eq_str(v))
        }
        Trigger::LocationEvent { name } => event_attribute == name,
        Trigger::AppTouch | Trigger::Timer { .. } => false,
    }
}

/// The full scan over every installed handler, in app-then-handler order.
fn scan(system: &InstalledSystem, event: &DispatchedEvent) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (app_index, app) in system.apps.iter().enumerate() {
        for (handler_index, handler) in app.handlers.iter().enumerate() {
            if scan_subscribes(system, app_index, handler, event) {
                out.push((app_index, handler_index));
            }
        }
    }
    out
}

/// Events to probe: every value of every device attribute from its device,
/// and, for every interned symbol (`Sym(0)` included), device-less and
/// foreign-device events carrying each value some trigger filters on, every
/// mode name, and a value no trigger names.
fn probe_events(system: &InstalledSystem) -> Vec<DispatchedEvent> {
    let mut events = Vec::new();
    for (index, spec) in system.device_specs().iter().enumerate() {
        let device = DeviceId(index as u32);
        for (attr_index, attr) in spec.attributes.iter().enumerate() {
            for value_index in 0..attr.domain.len() {
                events.push(DispatchedEvent {
                    device: Some(device),
                    attribute: system.device_attr_sym(device, attr_index),
                    value: Cow::Owned(attr.domain.value(value_index)),
                });
            }
        }
    }
    let mut values: Vec<Value> = vec![Value::Null, Value::Str("no trigger names this".into())];
    values.extend(LocationMode::ALL.iter().map(|m| Value::Str(m.name().to_string())));
    for app in &system.apps {
        for handler in &app.handlers {
            if let Trigger::Device { value: Some(v), .. }
            | Trigger::LocationMode { value: Some(v) } = &handler.trigger
            {
                values.push(Value::Str(v.clone()));
            }
        }
    }
    let devices: Vec<Option<DeviceId>> =
        if system.devices.is_empty() { vec![None] } else { vec![None, Some(DeviceId(0))] };
    for sym in 0..system.symbols.len() {
        for device in &devices {
            for value in &values {
                events.push(DispatchedEvent {
                    device: *device,
                    attribute: Sym(sym as u32),
                    value: Cow::Owned(value.clone()),
                });
            }
        }
    }
    events
}

/// Asserts index and scan agree on every probe; returns how many
/// `(event, handler)` deliveries the probes produced.
fn assert_index_matches_scan(label: &str, system: InstalledSystem) -> usize {
    let probes = probe_events(&system);
    let model = SequentialModel::new(system, PropertySet::all(), ModelOptions::default());
    let mut delivered = 0;
    for event in &probes {
        let indexed: Vec<(usize, usize)> = model.subscribers(event).collect();
        let scanned = scan(model.system(), event);
        assert_eq!(
            indexed,
            scanned,
            "{label}: event {}={:?} from {:?}",
            model.system().attr_name(event.attribute),
            event.value,
            event.device
        );
        delivered += indexed.len();
    }
    delivered
}

#[test]
fn index_matches_the_full_scan_on_every_market_group() {
    let corpus = iotsan_apps::market::market_apps();
    let sources: Vec<&str> = corpus.iter().map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(3);
    let plan = pipeline.planner().plan(&apps, &config);
    assert!(plan.jobs.len() > 100, "the market plan has {} groups", plan.jobs.len());
    let mut delivered = 0;
    for job in &plan.jobs {
        let system = InstalledSystem::new(job.members.clone(), job.config.clone());
        delivered += assert_index_matches_scan(&job.apps.join(","), system);
    }
    assert!(delivered > 0, "no probe reached any handler");
}

/// The market corpus's one handler no device can reach: each "Sleep Mode"
/// copy subscribes `sleepHandler` to its `sleepers` input, and the expert
/// configuration of the standard household binds no device to it (none of
/// its devices has a `sleeping` attribute).  With the whole corpus
/// installed, no event from any device may be dispatched there, while device
/// events do reach other handlers.
#[test]
fn no_device_event_reaches_an_unbound_sleep_handler() {
    let corpus = iotsan_apps::market::market_apps();
    let sources: Vec<&str> = corpus.iter().map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    let system = InstalledSystem::new(apps, config);
    let sleep_handlers: Vec<(usize, usize)> = system
        .apps
        .iter()
        .enumerate()
        .filter(|(_, app)| app.name.starts_with("Sleep Mode #"))
        .map(|(index, app)| {
            assert!(system.bound_slice(index, "sleepers").is_empty(), "{} is bound", app.name);
            let handler = app.handlers.iter().position(|h| h.name == "sleepHandler");
            (index, handler.expect("Sleep Mode has a sleepHandler"))
        })
        .collect();
    assert_eq!(sleep_handlers.len(), 12, "the corpus has twelve Sleep Mode copies");
    let probes = probe_events(&system);
    let model = SequentialModel::new(system, PropertySet::all(), ModelOptions::default());
    let mut delivered = 0;
    for event in probes.iter().filter(|e| e.device.is_some()) {
        for target in model.subscribers(event) {
            delivered += 1;
            assert!(
                !sleep_handlers.contains(&target),
                "{}={:?} from {:?} reached {}::sleepHandler",
                model.system().attr_name(event.attribute),
                event.value,
                event.device,
                model.system().apps[target.0].name
            );
        }
    }
    assert!(delivered > 0, "no device event reached any handler");
}

#[test]
fn index_matches_the_full_scan_on_generated_households() {
    let profile = SizeProfile { max_devices: 8, max_apps: 6 };
    let mut delivered = 0;
    for seed in 0..60 {
        let household = Household::generate(seed, &profile);
        let refs: Vec<&str> = household.sources.iter().map(String::as_str).collect();
        let apps = translate_sources(&refs).expect("generated households translate");
        let system = InstalledSystem::new(apps, household.config.clone());
        delivered += assert_index_matches_scan(&format!("household {seed}"), system);
    }
    assert!(delivered > 0, "no probe reached any handler");
}

/// Triggers at the edges of the index: an empty attribute name (the reserved
/// `Sym(0)`), a name no device has but a `sendEvent` raises, a name nothing
/// interns, location events and mode filters, and the directly dispatched
/// touch and timer triggers, which the index must never list.
#[test]
fn index_matches_the_full_scan_on_edge_triggers() {
    let device_trigger = |name: &str, attribute: &str, value: Option<&str>| IrHandler {
        app: "Edges".into(),
        name: name.into(),
        trigger: Trigger::Device {
            input: "sensor".into(),
            attribute: attribute.into(),
            value: value.map(str::to_string),
        },
        body: vec![],
    };
    let other = |name: &str, trigger: Trigger| IrHandler {
        app: "Edges".into(),
        name: name.into(),
        trigger,
        body: vec![],
    };
    let mut raise = other("raise", Trigger::AppTouch);
    raise.body = vec![IrStmt::SendEvent {
        attribute: "fakeAttr".into(),
        value: IrExpr::Const(Value::Str("x".into())),
    }];
    let app = IrApp {
        name: "Edges".into(),
        description: String::new(),
        inputs: vec![AppInput {
            name: "sensor".into(),
            kind: SettingKind::Device { capability: "motionSensor".into(), multiple: true },
            title: String::new(),
            required: true,
        }],
        handlers: vec![
            device_trigger("empty", "", None),
            device_trigger("fake", "fakeAttr", Some("x")),
            device_trigger("unknown", "neverInterned", None),
            device_trigger("active", "motion", Some("active")),
            device_trigger("anyMotion", "motion", None),
            other("sunrise", Trigger::LocationEvent { name: "sunrise".into() }),
            other("modeAway", Trigger::LocationMode { value: Some("Away".into()) }),
            other("anyMode", Trigger::LocationMode { value: None }),
            other("modeNamed", Trigger::LocationEvent { name: "mode".into() }),
            other("tick", Trigger::Timer { delay_seconds: Some(60) }),
            raise,
        ],
        state_vars: vec![],
        dynamic_discovery: false,
    };
    let second = IrApp { name: "Second".into(), ..app.clone() };
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("hallMotion", "motionSensor", ""))
        .with_device(DeviceConfig::new("porchMotion", "motionSensor", ""))
        .with_app(
            iotsan::config::AppConfig::new("Edges")
                .with("sensor", Binding::Devices(vec!["hallMotion".into()])),
        )
        .with_app(
            iotsan::config::AppConfig::new("Second")
                .with("sensor", Binding::Devices(vec!["porchMotion".into()])),
        );
    let system = InstalledSystem::new(vec![app, second], config);
    assert_eq!(system.symbols.lookup(""), Some(Sym(0)));
    let delivered = assert_index_matches_scan("edges", system);
    assert!(delivered > 0);
}
