//! Seeded synthetic households: device mix × generated apps × failure
//! toggles × generated custom properties.
//!
//! [`Household::generate`] is a pure function of `(seed, SizeProfile)`: every
//! choice flows through one splitmix64 stream in a fixed order, so identical
//! seeds produce byte-identical households ([`Household::to_json`]) on every
//! platform and every run.  A household carries everything a verification
//! needs — generated Groovy sources, the [`SystemConfig`] binding them to the
//! generated device mix, the event bound, the failure-injection toggle and
//! generated [`PropertySpec`]s whose atoms reference only capabilities
//! actually present in the household.

use crate::rng::SplitMix64;
use crate::template::{
    draw_guard, ActionFragment, ScenarioApp, TriggerFragment, ACTUATOR_POOL, MODES, SENSOR_POOL,
};
use iotsan_config::{AppConfig, Binding, DeviceConfig, SystemConfig};
use iotsan_properties::{DeviceSelect, Expr, PropertyClass, PropertySpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Size knobs for [`Household::generate`].  The defaults keep every search
/// small enough that all four runs finish exhaustively — the differential
/// oracle's equivalence guarantee only covers complete searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeProfile {
    /// Maximum number of devices (inclusive; households may draw fewer,
    /// including zero).
    pub max_devices: usize,
    /// Maximum number of apps (inclusive; zero-app households are legal and
    /// deliberately generated — they exercise the planner's empty-plan path).
    pub max_apps: usize,
}

impl Default for SizeProfile {
    fn default() -> Self {
        SizeProfile { max_devices: 6, max_apps: 4 }
    }
}

/// One generated household: the unit the differential oracle checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Household {
    /// The seed this household was generated from (0 for hand-built ones).
    pub seed: u64,
    /// External-event bound for verification.
    pub events: usize,
    /// Exhaustive device/communication failure injection.
    pub failures: bool,
    /// Generated Groovy sources, aligned index-for-index with
    /// `config.apps`.
    pub sources: Vec<String>,
    /// Devices, bindings, initial mode and generated custom properties.
    pub config: SystemConfig,
}

/// First property id the generator assigns — far above the 45 built-ins and
/// the 46+ range ARCHITECTURE reserves for hand-written customs.
pub const GENERATED_PROPERTY_BASE: u32 = 100;

impl Household {
    /// Generates the household for `seed` under `profile`.  Deterministic:
    /// identical arguments produce byte-identical [`Household::to_json`]
    /// output.
    pub fn generate(seed: u64, profile: &SizeProfile) -> Household {
        let mut rng = SplitMix64::new(seed);
        let mut config = SystemConfig::new();
        config.initial_mode = (*rng.pick(MODES)).to_string();

        // --- Device mix -------------------------------------------------
        let n_devices = rng.below(profile.max_devices + 1);
        for i in 0..n_devices {
            // Draw from the combined pool, sensors slightly favoured so most
            // households have something to subscribe to.
            let (capability, role) = if rng.chance(55) {
                let (cap, _, _) = rng.pick(SENSOR_POOL);
                ((*cap).to_string(), String::new())
            } else {
                let (cap, _, _, _) = rng.pick(ACTUATOR_POOL);
                let role = match *cap {
                    // Roles tickle the role-addressed built-ins (e.g. the
                    // "main door lock stays locked when away" family).
                    "lock" if rng.chance(40) => "main door lock",
                    "switch" if rng.chance(30) => "heater",
                    _ => "",
                };
                ((*cap).to_string(), role.to_string())
            };
            let label = format!("d{i}{}", camel(&capability));
            config.devices.push(DeviceConfig::new(label, capability, role));
        }

        // --- Apps -------------------------------------------------------
        let sensors: Vec<&DeviceConfig> = config
            .devices
            .iter()
            .filter(|d| SENSOR_POOL.iter().any(|(cap, _, _)| *cap == d.capability))
            .collect();
        let actuators: Vec<&DeviceConfig> = config
            .devices
            .iter()
            .filter(|d| ACTUATOR_POOL.iter().any(|(cap, _, _, _)| *cap == d.capability))
            .collect();

        let n_apps = rng.below(profile.max_apps + 1);
        let mut sources = Vec::new();
        let mut app_configs = Vec::new();
        for i in 0..n_apps {
            let trigger = if sensors.is_empty() || rng.chance(10) {
                TriggerFragment::AppTouch
            } else {
                let device = *rng.pick(&sensors);
                let (_, attribute, values) = SENSOR_POOL
                    .iter()
                    .find(|(cap, _, _)| *cap == device.capability)
                    .expect("sensor device came from the pool");
                let value = if values.is_empty() || rng.chance(30) {
                    None
                } else {
                    Some((*rng.pick(values)).to_string())
                };
                TriggerFragment::Device {
                    label: device.label.clone(),
                    capability: device.capability.clone(),
                    attribute: (*attribute).to_string(),
                    value,
                }
            };
            let guard = draw_guard(&mut rng, &trigger);

            // Pick the actuator binding first so command fragments know
            // their command vocabulary.
            let (actuator_labels, actuator_capability, commands) = if actuators.is_empty() {
                (Vec::new(), None, &[][..])
            } else {
                let device = *rng.pick(&actuators);
                let (_, commands, _, _) = ACTUATOR_POOL
                    .iter()
                    .find(|(cap, _, _, _)| *cap == device.capability)
                    .expect("actuator device came from the pool");
                // Sometimes bind every same-capability device (multiple).
                let labels: Vec<String> = if rng.chance(25) {
                    actuators
                        .iter()
                        .filter(|d| d.capability == device.capability)
                        .map(|d| d.label.clone())
                        .collect()
                } else {
                    vec![device.label.clone()]
                };
                (labels, Some(device.capability.clone()), *commands)
            };

            let n_actions = rng.range(1, 2);
            let mut actions = Vec::new();
            for _ in 0..n_actions {
                let action = match rng.below(6) {
                    0 | 1 if !commands.is_empty() => {
                        ActionFragment::Command { command: (*rng.pick(commands)).to_string() }
                    }
                    2 if !commands.is_empty() => ActionFragment::ScheduleCommand {
                        delay: [30, 60, 600][rng.below(3)],
                        command: (*rng.pick(commands)).to_string(),
                    },
                    3 => ActionFragment::SetMode((*rng.pick(MODES)).to_string()),
                    4 => ActionFragment::AppState,
                    5 if rng.chance(40) => match &trigger {
                        TriggerFragment::Device { attribute, .. } => {
                            let values = SENSOR_POOL
                                .iter()
                                .find(|(_, attr, _)| attr == attribute)
                                .map(|(_, _, values)| *values)
                                .unwrap_or(&[]);
                            if values.is_empty() {
                                ActionFragment::Push
                            } else {
                                ActionFragment::FakeEvent {
                                    attribute: attribute.clone(),
                                    value: (*rng.pick(values)).to_string(),
                                }
                            }
                        }
                        TriggerFragment::AppTouch => ActionFragment::Push,
                    },
                    _ => ActionFragment::Push,
                };
                actions.push(action);
            }
            // An app whose every action needs an actuator but that bound
            // none still renders fine (push-only body would be nicer, but
            // the dedup below guarantees at least one action survived).
            let uses_actuator = actions.iter().any(|a| {
                matches!(a, ActionFragment::Command { .. } | ActionFragment::ScheduleCommand { .. })
            });

            let app = ScenarioApp {
                name: format!("Scn {seed}-{i}"),
                trigger,
                guard,
                actions,
                actuator_labels: if uses_actuator { actuator_labels } else { Vec::new() },
                actuator_capability: if uses_actuator { actuator_capability } else { None },
            };

            let mut app_config = AppConfig::new(app.name.clone());
            if let TriggerFragment::Device { label, .. } = &app.trigger {
                app_config = app_config.with("trigger", Binding::Devices(vec![label.clone()]));
            }
            if !app.actuator_labels.is_empty() {
                app_config =
                    app_config.with("actuator", Binding::Devices(app.actuator_labels.clone()));
            }
            sources.push(app.to_groovy());
            app_configs.push(app_config);
        }
        config.apps = app_configs;

        // --- Generated custom properties --------------------------------
        let present_actuators: Vec<&(&str, &[&str], &str, &str)> = ACTUATOR_POOL
            .iter()
            .filter(|(cap, _, _, _)| config.devices.iter().any(|d| d.capability == *cap))
            .collect();
        let has_numeric = |cap: &str| config.devices.iter().any(|d| d.capability == cap);
        let n_props = rng.below(3);
        for k in 0..n_props {
            let id = GENERATED_PROPERTY_BASE + k as u32;
            let spec = match rng.below(3) {
                0 if !present_actuators.is_empty() => {
                    let (cap, _, attr, active) = *rng.pick(&present_actuators);
                    let mode = *rng.pick(MODES);
                    Some(
                        PropertySpec::builder(id, format!("No {cap} {active} while {mode}"))
                            .category("Generated")
                            .class(PropertyClass::Custom("Generated".into()))
                            .never(Expr::and([
                                Expr::mode_is(mode),
                                Expr::capability_attr(*cap, *attr, *active),
                            ])),
                    )
                }
                1 if !present_actuators.is_empty() => {
                    let (cap, commands, _, _) = *rng.pick(&present_actuators);
                    let command = *rng.pick(commands);
                    Some(
                        PropertySpec::builder(id, format!("{cap} never commanded {command}"))
                            .category("Generated")
                            .class(PropertyClass::Custom("Generated".into()))
                            .never(Expr::command_issued(DeviceSelect::capability(*cap), command)),
                    )
                }
                _ if has_numeric("temperatureMeasurement") => Some(
                    PropertySpec::builder(id, "Temperature never below freezing-risk floor")
                        .category("Generated")
                        .class(PropertyClass::Custom("Generated".into()))
                        .never(Expr::any_below(
                            DeviceSelect::capability("temperatureMeasurement"),
                            "temperature",
                            50.0,
                        )),
                ),
                _ => None,
            };
            if let Some(spec) = spec {
                debug_assert!(spec.validate().is_ok(), "generated spec is valid");
                config.custom_properties.push(spec);
            }
        }

        let events = rng.range(1, 2);
        let failures = rng.chance(15);
        Household { seed, events, failures, sources, config }
    }

    /// Serializes the household to pretty JSON — the byte-identical artifact
    /// the determinism test compares and the fixture format stores.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("household serializes")
    }

    /// Parses a household back from [`Household::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The capabilities present in the household's device mix.
    pub fn capabilities(&self) -> BTreeSet<String> {
        self.config.devices.iter().map(|d| d.capability.clone()).collect()
    }

    // --- Shrinking surgery (used by `crate::shrink`) --------------------

    /// The household without app `index` (drops the source and its
    /// bindings together — the two vectors stay aligned).
    pub fn without_app(&self, index: usize) -> Household {
        let mut out = self.clone();
        out.sources.remove(index);
        out.config.apps.remove(index);
        out
    }

    /// The household with every device no binding references removed, and
    /// every custom property that referenced a now-absent capability or
    /// label dropped with it.
    pub fn without_unused_devices(&self) -> Household {
        let mut out = self.clone();
        let referenced: BTreeSet<&String> = out
            .config
            .apps
            .iter()
            .flat_map(|a| a.bindings.iter())
            .flat_map(|(_, b)| b.device_labels().iter())
            .collect();
        let keep: Vec<DeviceConfig> =
            out.config.devices.iter().filter(|d| referenced.contains(&d.label)).cloned().collect();
        out.config.devices = keep;
        let caps = out.capabilities();
        let labels: BTreeSet<String> = out.config.devices.iter().map(|d| d.label.clone()).collect();
        out.config.custom_properties.retain(|spec| property_fits(spec, &caps, &labels));
        out
    }

    /// The household without custom property `index`.
    pub fn without_property(&self, index: usize) -> Household {
        let mut out = self.clone();
        out.config.custom_properties.remove(index);
        out
    }

    /// The household with the event bound lowered to `events`.
    pub fn with_events(&self, events: usize) -> Household {
        let mut out = self.clone();
        out.events = events;
        out
    }

    /// The household with failure injection disabled.
    pub fn without_failures(&self) -> Household {
        let mut out = self.clone();
        out.failures = false;
        out
    }
}

/// True when every device selector `spec` mentions still resolves against
/// the given capability and label sets (selector-less atoms always fit).
fn property_fits(spec: &PropertySpec, caps: &BTreeSet<String>, labels: &BTreeSet<String>) -> bool {
    let mut fits = true;
    for expr in spec.modality.exprs() {
        expr.visit_atoms(&mut |atom| {
            if let Some(select) = atom_select(atom) {
                if let Some(cap) = &select.capability {
                    fits &= caps.contains(cap);
                }
                if let Some(label) = &select.label {
                    fits &= labels.contains(label);
                }
            }
        });
    }
    fits
}

/// The device selector of an atom, when it has one.
fn atom_select(atom: &iotsan_properties::Atom) -> Option<&DeviceSelect> {
    use iotsan_properties::Atom;
    match atom {
        Atom::AnyAttr(t) | Atom::AllAttr(t) => Some(&t.select),
        Atom::AnyBelow(t) | Atom::AnyAbove(t) => Some(&t.select),
        Atom::HasDevice(select) | Atom::AnyOffline(select) => Some(select),
        Atom::CommandIssued(t) => Some(&t.select),
        _ => None,
    }
}

/// CamelCases a capability name for device labels (`motionSensor` →
/// `MotionSensor`).
fn camel(capability: &str) -> String {
    let mut chars = capability.chars();
    match chars.next() {
        Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let profile = SizeProfile::default();
        let a = Household::generate(12, &profile);
        let b = Household::generate(12, &profile);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // Some nearby seed must differ (overwhelmingly likely for any pair;
        // pinned here so a constant-output bug cannot hide).
        let different = (13..20).any(|s| Household::generate(s, &profile) != a);
        assert!(different, "seeds 13..20 all generated the identical household");
    }

    #[test]
    fn json_round_trips() {
        let h = Household::generate(99, &SizeProfile::default());
        let parsed = Household::from_json(&h.to_json()).expect("round-trip parses");
        assert_eq!(parsed, h);
    }

    #[test]
    fn every_generated_source_translates() {
        let profile = SizeProfile::default();
        for seed in 0..40 {
            let h = Household::generate(seed, &profile);
            let refs: Vec<&str> = h.sources.iter().map(String::as_str).collect();
            let apps = iotsan::translate_sources(&refs)
                .unwrap_or_else(|e| panic!("seed {seed}: generated groovy must translate: {e}"));
            assert_eq!(apps.len(), h.sources.len());
            assert_eq!(apps.len(), h.config.apps.len(), "sources and bindings stay aligned");
            // Bindings reference installed devices with the right capability.
            let problems = h.config.validate(&apps);
            assert!(problems.is_empty(), "seed {seed}: invalid config: {problems:?}");
        }
    }

    #[test]
    fn generated_properties_reference_only_present_capabilities() {
        let profile = SizeProfile::default();
        for seed in 0..60 {
            let h = Household::generate(seed, &profile);
            let caps = h.capabilities();
            let labels: BTreeSet<String> =
                h.config.devices.iter().map(|d| d.label.clone()).collect();
            for spec in &h.config.custom_properties {
                assert!(spec.validate().is_ok());
                assert!(
                    property_fits(spec, &caps, &labels),
                    "seed {seed}: property {} references an absent device",
                    spec.property_id()
                );
            }
        }
    }

    #[test]
    fn shrinking_surgery_keeps_the_household_consistent() {
        let profile = SizeProfile::default();
        let h = (0..100)
            .map(|s| Household::generate(s, &profile))
            .find(|h| h.sources.len() >= 2 && !h.config.devices.is_empty())
            .expect("a multi-app household in the first 100 seeds");
        let fewer = h.without_app(0);
        assert_eq!(fewer.sources.len(), h.sources.len() - 1);
        assert_eq!(fewer.config.apps.len(), h.config.apps.len() - 1);
        let pruned = fewer.without_unused_devices();
        let refs: Vec<&str> = pruned.sources.iter().map(String::as_str).collect();
        let apps = iotsan::translate_sources(&refs).expect("pruned household translates");
        assert!(pruned.config.validate(&apps).is_empty());
    }
}
