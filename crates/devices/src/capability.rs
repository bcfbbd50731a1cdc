//! Device capability specifications.
//!
//! The paper's Model Generator (§8) models IoT devices "as per their
//! specifications" and currently supports 30 different device types.  A
//! [`DeviceSpec`] describes one such type: the attributes it exposes (with
//! finite, discretized value domains so the model checker's state space stays
//! bounded), the commands actuators accept and their effects on attributes,
//! and which attribute changes can be generated spontaneously by the physical
//! environment (sensor events).

use iotsan_ir::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The value domain of a device attribute.
///
/// Numeric attributes are discretized into a small set of representative
/// values; the paper's Spin models do the same implicitly by letting the
/// checker enumerate event permutations over a finite value universe.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrDomain {
    /// A finite set of named states (`"on"`/`"off"`, `"locked"`/`"unlocked"`).
    Enum(Vec<&'static str>),
    /// A finite set of representative numeric levels.
    Numeric(Vec<i64>),
}

impl AttrDomain {
    /// Number of distinct values in the domain.
    pub fn len(&self) -> usize {
        match self {
            AttrDomain::Enum(v) => v.len(),
            AttrDomain::Numeric(v) => v.len(),
        }
    }

    /// True when the domain is empty (never the case for built-in specs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index of `value` in this domain, if present.
    pub fn index_of(&self, value: &str) -> Option<usize> {
        match self {
            AttrDomain::Enum(names) => names.iter().position(|n| *n == value),
            AttrDomain::Numeric(values) => {
                let needle: f64 = value.trim().parse().ok()?;
                values.iter().position(|v| (*v as f64 - needle).abs() < 1e-9)
            }
        }
    }

    /// The index a command's fixed textual value selects: the enum entry
    /// with that name, or the numeric level nearest to the parsed number.
    pub(crate) fn index_for_text(&self, value: &str) -> Option<usize> {
        match self {
            AttrDomain::Enum(_) => self.index_of(value),
            AttrDomain::Numeric(levels) => {
                value.trim().parse::<f64>().ok().map(|n| nearest_index(levels, n))
            }
        }
    }

    /// The index a runtime value selects: a string names an enum entry (any
    /// other value by its rendering), a number snaps to the nearest level.
    pub(crate) fn index_for_value(&self, value: &Value) -> Option<usize> {
        match (self, value) {
            (AttrDomain::Enum(_), Value::Str(text)) => self.index_of(text),
            (AttrDomain::Enum(_), _) => self.index_of(&value.as_string()),
            (AttrDomain::Numeric(levels), _) => value.as_number().map(|n| nearest_index(levels, n)),
        }
    }

    /// The value at `index`, rendered as a string.
    pub fn value_at(&self, index: usize) -> Option<String> {
        match self {
            AttrDomain::Enum(names) => names.get(index).map(|s| s.to_string()),
            AttrDomain::Numeric(values) => values.get(index).map(|v| v.to_string()),
        }
    }

    /// The value at `index` as the interpreter sees it: enum names become
    /// strings, numeric levels integers, and an out-of-domain index `Null`.
    pub fn value(&self, index: usize) -> Value {
        match self {
            AttrDomain::Enum(names) => {
                names.get(index).map(|s| Value::Str(s.to_string())).unwrap_or(Value::Null)
            }
            AttrDomain::Numeric(values) => {
                values.get(index).map(|v| Value::Int(*v)).unwrap_or(Value::Null)
            }
        }
    }
}

/// The index of the domain level nearest to `value`.
fn nearest_index(levels: &[i64], value: f64) -> usize {
    let mut best = 0;
    let mut best_dist = f64::INFINITY;
    for (i, level) in levels.iter().enumerate() {
        let dist = (*level as f64 - value).abs();
        if dist < best_dist {
            best = i;
            best_dist = dist;
        }
    }
    best
}

/// A single attribute of a device type.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    /// Attribute name (SmartThings style, e.g. `switch`, `temperature`).
    pub name: &'static str,
    /// Value domain.
    pub domain: AttrDomain,
    /// Index (into the domain) of the initial value.
    pub default_index: usize,
    /// True when the physical environment can change this attribute
    /// spontaneously (i.e. the device acts as a sensor for it).
    pub environment_driven: bool,
    /// `domain.value(i)` for every index, built with the spec.
    values: Vec<Value>,
}

impl AttributeSpec {
    /// The domain's values as the interpreter reads them, in domain order:
    /// built once with the registry, so a model borrows them instead of
    /// building a [`Value`] per read.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// The effect of an actuator command on device attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandEffect {
    /// Set an attribute to a fixed enum value (`on()` → `switch = "on"`).
    Set {
        /// Attribute name.
        attribute: &'static str,
        /// New value (must be in the attribute's domain).
        value: &'static str,
    },
    /// Set a numeric attribute from the command's first argument
    /// (`setLevel(50)`, `setHeatingSetpoint(70)`), clamped to the nearest
    /// value in the discretized domain.
    SetFromArg {
        /// Attribute name.
        attribute: &'static str,
    },
}

/// A [`CommandEffect`] resolved against its spec: attribute positions and
/// domain indices instead of names, so running a command compares no name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ResolvedEffect {
    /// Store domain index `index` (`None`: the value is not in the domain,
    /// so the effect changes nothing) at attribute `position`.
    Set { position: u8, index: Option<u8> },
    /// Store the first argument, snapped to the domain, at `position`.
    SetFromArg { position: u8 },
    /// The spec has no such attribute: the effect changes nothing.
    Missing,
}

/// A command an actuator accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandSpec {
    /// Command name as called from Groovy (`on`, `off`, `lock`, `setLevel`).
    pub name: &'static str,
    /// What the command does to the device state.
    pub effects: Vec<CommandEffect>,
    /// `effects`, resolved once when the spec is built
    /// ([`builtin_specs`]).
    pub(crate) resolved: Vec<ResolvedEffect>,
}

/// Whether a device type is primarily a sensor, an actuator, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Produces events only (motion sensor, contact sensor).
    Sensor,
    /// Accepts commands; its state changes also generate events (lock, outlet).
    Actuator,
    /// Both senses and actuates (thermostat).
    Hybrid,
}

/// A device type specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// The SmartThings capability used in `preferences` (`capability.<this>`).
    pub capability: &'static str,
    /// Human-readable name.
    pub display: &'static str,
    /// Sensor / actuator / hybrid.
    pub kind: DeviceKind,
    /// Attributes in declaration order (the order defines the state-vector
    /// layout used by the model checker).
    pub attributes: Vec<AttributeSpec>,
    /// Commands (empty for pure sensors).
    pub commands: Vec<CommandSpec>,
}

impl DeviceSpec {
    /// Finds an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&AttributeSpec> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Index of an attribute in the state vector.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// True when devices of this type generate physical events.
    pub fn is_sensor(&self) -> bool {
        matches!(self.kind, DeviceKind::Sensor | DeviceKind::Hybrid)
    }

    /// True when devices of this type accept commands.
    pub fn is_actuator(&self) -> bool {
        matches!(self.kind, DeviceKind::Actuator | DeviceKind::Hybrid)
    }

    /// Finds a command by name.
    pub fn command(&self, name: &str) -> Option<&CommandSpec> {
        self.commands.iter().find(|c| c.name == name)
    }

    /// The primary attribute: the first one, which by convention carries the
    /// device's headline state (`switch`, `lock`, `motion`, ...).
    pub fn primary_attribute(&self) -> &AttributeSpec {
        &self.attributes[0]
    }
}

fn attr(
    name: &'static str,
    domain: AttrDomain,
    default_index: usize,
    environment_driven: bool,
) -> AttributeSpec {
    let values = (0..domain.len()).map(|i| domain.value(i)).collect();
    AttributeSpec { name, domain, default_index, environment_driven, values }
}

fn set(attribute: &'static str, value: &'static str) -> CommandEffect {
    CommandEffect::Set { attribute, value }
}

fn cmd(name: &'static str, effects: Vec<CommandEffect>) -> CommandSpec {
    CommandSpec { name, effects, resolved: Vec::new() }
}

impl DeviceSpec {
    /// Resolves every command's effects against this spec's attributes.
    fn resolve_commands(&mut self) {
        let attributes = &self.attributes;
        let position = |name: &str| attributes.iter().position(|a| a.name == name);
        for command in &mut self.commands {
            command.resolved = command
                .effects
                .iter()
                .map(|effect| match *effect {
                    CommandEffect::Set { attribute, value } => match position(attribute) {
                        Some(p) => ResolvedEffect::Set {
                            position: p as u8,
                            index: attributes[p].domain.index_for_text(value).map(|i| i as u8),
                        },
                        None => ResolvedEffect::Missing,
                    },
                    CommandEffect::SetFromArg { attribute } => match position(attribute) {
                        Some(p) => ResolvedEffect::SetFromArg { position: p as u8 },
                        None => ResolvedEffect::Missing,
                    },
                })
                .collect();
        }
    }
}

/// Builds the registry of built-in device specifications (30+ types,
/// mirroring the paper's "currently, we support 30 different IoT devices"),
/// with every command's effects resolved.
pub fn builtin_specs() -> Vec<DeviceSpec> {
    let mut specs = builtin_spec_table();
    specs.iter_mut().for_each(DeviceSpec::resolve_commands);
    specs
}

fn builtin_spec_table() -> Vec<DeviceSpec> {
    use AttrDomain::{Enum, Numeric};
    use DeviceKind::{Actuator, Hybrid, Sensor};

    let onoff = || Enum(vec!["off", "on"]);
    let temp_domain = || Numeric(vec![30, 50, 60, 68, 75, 85, 95]);

    vec![
        // 1. Smart power outlet / switch.
        DeviceSpec {
            capability: "switch",
            display: "Smart Switch / Outlet",
            kind: Actuator,
            attributes: vec![attr("switch", onoff(), 0, false)],
            commands: vec![
                cmd("on", vec![set("switch", "on")]),
                cmd("off", vec![set("switch", "off")]),
            ],
        },
        // 2. Dimmable light.
        DeviceSpec {
            capability: "switchLevel",
            display: "Dimmer",
            kind: Actuator,
            attributes: vec![
                attr("switch", onoff(), 0, false),
                attr("level", Numeric(vec![0, 10, 30, 50, 70, 100]), 0, false),
            ],
            commands: vec![
                cmd("on", vec![set("switch", "on")]),
                cmd("off", vec![set("switch", "off")]),
                cmd(
                    "setLevel",
                    vec![CommandEffect::SetFromArg { attribute: "level" }, set("switch", "on")],
                ),
            ],
        },
        // 3. Door lock.
        DeviceSpec {
            capability: "lock",
            display: "Door Lock",
            kind: Actuator,
            attributes: vec![attr("lock", Enum(vec!["locked", "unlocked"]), 0, false)],
            commands: vec![
                cmd("lock", vec![set("lock", "locked")]),
                cmd("unlock", vec![set("lock", "unlocked")]),
            ],
        },
        // 4. Door control (garage door opener).
        DeviceSpec {
            capability: "doorControl",
            display: "Door Control",
            kind: Actuator,
            attributes: vec![attr("door", Enum(vec!["closed", "open"]), 0, false)],
            commands: vec![
                cmd("open", vec![set("door", "open")]),
                cmd("close", vec![set("door", "closed")]),
            ],
        },
        // 5. Garage door control (alias capability used by some apps).
        DeviceSpec {
            capability: "garageDoorControl",
            display: "Garage Door",
            kind: Actuator,
            attributes: vec![attr("door", Enum(vec!["closed", "open"]), 0, false)],
            commands: vec![
                cmd("open", vec![set("door", "open")]),
                cmd("close", vec![set("door", "closed")]),
            ],
        },
        // 6. Contact sensor.
        DeviceSpec {
            capability: "contactSensor",
            display: "Contact Sensor",
            kind: Sensor,
            attributes: vec![attr("contact", Enum(vec!["closed", "open"]), 0, true)],
            commands: vec![],
        },
        // 7. Motion sensor.
        DeviceSpec {
            capability: "motionSensor",
            display: "Motion Sensor",
            kind: Sensor,
            attributes: vec![attr("motion", Enum(vec!["inactive", "active"]), 0, true)],
            commands: vec![],
        },
        // 8. Presence sensor.
        DeviceSpec {
            capability: "presenceSensor",
            display: "Presence Sensor",
            kind: Sensor,
            attributes: vec![attr("presence", Enum(vec!["present", "not present"]), 0, true)],
            commands: vec![],
        },
        // 9. Temperature measurement.
        DeviceSpec {
            capability: "temperatureMeasurement",
            display: "Temperature Sensor",
            kind: Sensor,
            attributes: vec![attr("temperature", temp_domain(), 3, true)],
            commands: vec![],
        },
        // 10. Thermostat.
        DeviceSpec {
            capability: "thermostat",
            display: "Thermostat",
            kind: Hybrid,
            attributes: vec![
                attr("temperature", temp_domain(), 3, true),
                attr("thermostatMode", Enum(vec!["off", "heat", "cool", "auto"]), 0, false),
                attr("heatingSetpoint", Numeric(vec![50, 60, 68, 72, 78]), 2, false),
                attr("coolingSetpoint", Numeric(vec![60, 68, 72, 78, 85]), 3, false),
            ],
            commands: vec![
                cmd(
                    "setHeatingSetpoint",
                    vec![CommandEffect::SetFromArg { attribute: "heatingSetpoint" }],
                ),
                cmd(
                    "setCoolingSetpoint",
                    vec![CommandEffect::SetFromArg { attribute: "coolingSetpoint" }],
                ),
                cmd("heat", vec![set("thermostatMode", "heat")]),
                cmd("cool", vec![set("thermostatMode", "cool")]),
                cmd("auto", vec![set("thermostatMode", "auto")]),
                cmd("off", vec![set("thermostatMode", "off")]),
            ],
        },
        // 11. Smoke detector.
        DeviceSpec {
            capability: "smokeDetector",
            display: "Smoke Detector",
            kind: Sensor,
            attributes: vec![attr("smoke", Enum(vec!["clear", "detected", "tested"]), 0, true)],
            commands: vec![],
        },
        // 12. Carbon monoxide detector.
        DeviceSpec {
            capability: "carbonMonoxideDetector",
            display: "CO Detector",
            kind: Sensor,
            attributes: vec![attr(
                "carbonMonoxide",
                Enum(vec!["clear", "detected", "tested"]),
                0,
                true,
            )],
            commands: vec![],
        },
        // 13. Water / leak sensor.
        DeviceSpec {
            capability: "waterSensor",
            display: "Water Leak Sensor",
            kind: Sensor,
            attributes: vec![attr("water", Enum(vec!["dry", "wet"]), 0, true)],
            commands: vec![],
        },
        // 14. Valve (water main shutoff).
        DeviceSpec {
            capability: "valve",
            display: "Water Valve",
            kind: Actuator,
            attributes: vec![attr("valve", Enum(vec!["open", "closed"]), 0, false)],
            commands: vec![
                cmd("open", vec![set("valve", "open")]),
                cmd("close", vec![set("valve", "closed")]),
            ],
        },
        // 15. Alarm (siren / strobe).
        DeviceSpec {
            capability: "alarm",
            display: "Alarm",
            kind: Actuator,
            attributes: vec![attr("alarm", Enum(vec!["off", "siren", "strobe", "both"]), 0, false)],
            commands: vec![
                cmd("siren", vec![set("alarm", "siren")]),
                cmd("strobe", vec![set("alarm", "strobe")]),
                cmd("both", vec![set("alarm", "both")]),
                cmd("off", vec![set("alarm", "off")]),
            ],
        },
        // 16. Illuminance measurement.
        DeviceSpec {
            capability: "illuminanceMeasurement",
            display: "Illuminance Sensor",
            kind: Sensor,
            attributes: vec![attr(
                "illuminance",
                Numeric(vec![0, 10, 30, 100, 500, 1000]),
                3,
                true,
            )],
            commands: vec![],
        },
        // 17. Relative humidity measurement.
        DeviceSpec {
            capability: "relativeHumidityMeasurement",
            display: "Humidity Sensor",
            kind: Sensor,
            attributes: vec![attr("humidity", Numeric(vec![10, 30, 50, 70, 90]), 2, true)],
            commands: vec![],
        },
        // 18. Acceleration sensor.
        DeviceSpec {
            capability: "accelerationSensor",
            display: "Acceleration Sensor",
            kind: Sensor,
            attributes: vec![attr("acceleration", Enum(vec!["inactive", "active"]), 0, true)],
            commands: vec![],
        },
        // 19. Button.
        DeviceSpec {
            capability: "button",
            display: "Button",
            kind: Sensor,
            attributes: vec![attr("button", Enum(vec!["released", "pushed", "held"]), 0, true)],
            commands: vec![],
        },
        // 20. Sleep sensor.
        DeviceSpec {
            capability: "sleepSensor",
            display: "Sleep Sensor",
            kind: Sensor,
            attributes: vec![attr("sleeping", Enum(vec!["not sleeping", "sleeping"]), 0, true)],
            commands: vec![],
        },
        // 21. Battery.
        DeviceSpec {
            capability: "battery",
            display: "Battery",
            kind: Sensor,
            attributes: vec![attr("battery", Numeric(vec![0, 5, 20, 50, 100]), 4, true)],
            commands: vec![],
        },
        // 22. Power meter.
        DeviceSpec {
            capability: "powerMeter",
            display: "Power Meter",
            kind: Sensor,
            attributes: vec![attr("power", Numeric(vec![0, 10, 100, 500, 1500]), 0, true)],
            commands: vec![],
        },
        // 23. Energy meter.
        DeviceSpec {
            capability: "energyMeter",
            display: "Energy Meter",
            kind: Sensor,
            attributes: vec![attr("energy", Numeric(vec![0, 1, 5, 10, 50]), 0, true)],
            commands: vec![],
        },
        // 24. Water / soil moisture sensor (sprinkler systems).
        DeviceSpec {
            capability: "soilMoisture",
            display: "Soil Moisture Sensor",
            kind: Sensor,
            attributes: vec![attr("moisture", Numeric(vec![0, 20, 40, 60, 80]), 2, true)],
            commands: vec![],
        },
        // 25. Sprinkler / irrigation controller.
        DeviceSpec {
            capability: "sprinkler",
            display: "Sprinkler",
            kind: Actuator,
            attributes: vec![attr("sprinkler", onoff(), 0, false)],
            commands: vec![
                cmd("on", vec![set("sprinkler", "on")]),
                cmd("off", vec![set("sprinkler", "off")]),
            ],
        },
        // 26. Window shade.
        DeviceSpec {
            capability: "windowShade",
            display: "Window Shade",
            kind: Actuator,
            attributes: vec![attr(
                "windowShade",
                Enum(vec!["closed", "open", "partially open"]),
                0,
                false,
            )],
            commands: vec![
                cmd("open", vec![set("windowShade", "open")]),
                cmd("close", vec![set("windowShade", "closed")]),
                cmd("presetPosition", vec![set("windowShade", "partially open")]),
            ],
        },
        // 27. Fan (ceiling fan speed control, modelled as on/off + level).
        DeviceSpec {
            capability: "fanControl",
            display: "Fan",
            kind: Actuator,
            attributes: vec![
                attr("switch", onoff(), 0, false),
                attr("fanSpeed", Numeric(vec![0, 1, 2, 3]), 0, false),
            ],
            commands: vec![
                cmd("on", vec![set("switch", "on")]),
                cmd("off", vec![set("switch", "off")]),
                cmd(
                    "setFanSpeed",
                    vec![CommandEffect::SetFromArg { attribute: "fanSpeed" }, set("switch", "on")],
                ),
            ],
        },
        // 28. Camera (image capture).
        DeviceSpec {
            capability: "imageCapture",
            display: "Camera",
            kind: Actuator,
            attributes: vec![attr("image", Enum(vec!["idle", "captured"]), 0, false)],
            commands: vec![cmd("take", vec![set("image", "captured")])],
        },
        // 29. Music player / speaker (used for alarms and notifications).
        DeviceSpec {
            capability: "musicPlayer",
            display: "Speaker",
            kind: Actuator,
            attributes: vec![
                attr("status", Enum(vec!["stopped", "playing", "paused"]), 0, false),
                attr("mute", Enum(vec!["unmuted", "muted"]), 0, false),
            ],
            commands: vec![
                cmd("play", vec![set("status", "playing")]),
                cmd("stop", vec![set("status", "stopped")]),
                cmd("pause", vec![set("status", "paused")]),
                cmd("mute", vec![set("mute", "muted")]),
                cmd("unmute", vec![set("mute", "unmuted")]),
                cmd("playText", vec![set("status", "playing")]),
                cmd("playTrack", vec![set("status", "playing")]),
            ],
        },
        // 30. Switch with colour control (smart bulb).
        DeviceSpec {
            capability: "colorControl",
            display: "Color Bulb",
            kind: Actuator,
            attributes: vec![
                attr("switch", onoff(), 0, false),
                attr("hue", Numeric(vec![0, 25, 50, 75, 100]), 0, false),
            ],
            commands: vec![
                cmd("on", vec![set("switch", "on")]),
                cmd("off", vec![set("switch", "off")]),
                cmd("setHue", vec![CommandEffect::SetFromArg { attribute: "hue" }]),
                cmd("setColor", vec![set("switch", "on")]),
            ],
        },
        // 31. Momentary push (virtual buttons used by several market apps).
        DeviceSpec {
            capability: "momentary",
            display: "Momentary Switch",
            kind: Actuator,
            attributes: vec![attr("switch", onoff(), 0, false)],
            commands: vec![
                cmd("push", vec![set("switch", "on")]),
                cmd("off", vec![set("switch", "off")]),
            ],
        },
        // 32. Lock-only keypad (reports codes; modelled as a sensor).
        DeviceSpec {
            capability: "lockCodes",
            display: "Keypad",
            kind: Sensor,
            attributes: vec![attr("codeEntered", Enum(vec!["none", "valid", "invalid"]), 0, true)],
            commands: vec![],
        },
    ]
}

/// The global capability registry (built once, never mutated).
pub fn registry() -> &'static CapabilityRegistry {
    static REGISTRY: OnceLock<CapabilityRegistry> = OnceLock::new();
    REGISTRY.get_or_init(CapabilityRegistry::with_builtins)
}

/// A lookup table from capability name to [`DeviceSpec`].
#[derive(Debug, Clone)]
pub struct CapabilityRegistry {
    specs: Vec<DeviceSpec>,
    by_capability: BTreeMap<&'static str, usize>,
}

impl CapabilityRegistry {
    /// Creates a registry containing the built-in specifications.
    pub fn with_builtins() -> Self {
        let specs = builtin_specs();
        let by_capability = specs.iter().enumerate().map(|(i, s)| (s.capability, i)).collect();
        CapabilityRegistry { specs, by_capability }
    }

    /// Number of device types known.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the registry is empty (never for the built-in registry).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All specifications.
    pub fn specs(&self) -> &[DeviceSpec] {
        &self.specs
    }

    /// Looks up the spec for a capability name (as written in `preferences`,
    /// without the `capability.` prefix).  Unknown capabilities fall back to a
    /// plain switch model so translation never blocks on an exotic device.
    pub fn spec(&self, capability: &str) -> Option<&DeviceSpec> {
        self.by_capability.get(capability).map(|i| &self.specs[*i])
    }

    /// Like [`CapabilityRegistry::spec`] but falls back to the `switch` spec.
    pub fn spec_or_switch(&self, capability: &str) -> &DeviceSpec {
        self.spec(capability)
            .unwrap_or_else(|| self.spec("switch").expect("switch spec is built in"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_thirty_device_types() {
        assert!(registry().len() >= 30, "paper supports 30 device types, got {}", registry().len());
    }

    #[test]
    fn capabilities_are_unique() {
        let specs = builtin_specs();
        let mut names: Vec<&str> = specs.iter().map(|s| s.capability).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn every_command_effect_targets_a_real_attribute_value() {
        for spec in registry().specs() {
            for command in &spec.commands {
                for effect in &command.effects {
                    match effect {
                        CommandEffect::Set { attribute, value } => {
                            let attr = spec.attribute(attribute).unwrap_or_else(|| {
                                panic!(
                                    "{}.{} targets unknown attribute",
                                    spec.capability, command.name
                                )
                            });
                            assert!(
                                attr.domain.index_of(value).is_some(),
                                "{}.{}: value {value} not in domain of {attribute}",
                                spec.capability,
                                command.name
                            );
                        }
                        CommandEffect::SetFromArg { attribute } => {
                            assert!(spec.attribute(attribute).is_some());
                        }
                    }
                }
            }
        }
    }

    /// `CommandOutcome::Changed` lists positions and the interpreter reads
    /// the new values from the state afterwards, which is only the value each
    /// change made when no command sets one attribute twice.
    #[test]
    fn no_command_sets_an_attribute_twice() {
        for spec in registry().specs() {
            for command in &spec.commands {
                let mut targets: Vec<&str> = command
                    .effects
                    .iter()
                    .map(|effect| match effect {
                        CommandEffect::Set { attribute, .. }
                        | CommandEffect::SetFromArg { attribute } => *attribute,
                    })
                    .collect();
                let count = targets.len();
                targets.sort_unstable();
                targets.dedup();
                assert_eq!(targets.len(), count, "{}.{}", spec.capability, command.name);
            }
        }
    }

    #[test]
    fn defaults_are_in_domain() {
        for spec in registry().specs() {
            for attr in &spec.attributes {
                assert!(
                    attr.default_index < attr.domain.len(),
                    "{}.{}",
                    spec.capability,
                    attr.name
                );
            }
        }
    }

    #[test]
    fn sensors_have_environment_events_and_actuators_have_commands() {
        // A sensor's physical-event alphabet is every value of its
        // environment-driven attributes, so it needs one such attribute.
        let has_events = |spec: &DeviceSpec| {
            spec.attributes.iter().any(|a| a.environment_driven && !a.domain.is_empty())
        };
        for spec in registry().specs() {
            match spec.kind {
                DeviceKind::Sensor => {
                    assert!(has_events(spec), "{} has no events", spec.capability)
                }
                DeviceKind::Actuator => {
                    assert!(!spec.commands.is_empty(), "{} has no commands", spec.capability)
                }
                DeviceKind::Hybrid => {
                    assert!(!spec.commands.is_empty());
                    assert!(has_events(spec));
                }
            }
        }
    }

    #[test]
    fn lookup_and_fallback() {
        let reg = registry();
        assert_eq!(reg.spec("lock").unwrap().display, "Door Lock");
        assert!(reg.spec("nonexistentCapability").is_none());
        assert_eq!(reg.spec_or_switch("nonexistentCapability").capability, "switch");
    }

    #[test]
    fn domain_index_round_trip() {
        let spec = registry().spec("temperatureMeasurement").unwrap();
        let temp = spec.attribute("temperature").unwrap();
        let idx = temp.domain.index_of("75").unwrap();
        assert_eq!(temp.domain.value_at(idx).unwrap(), "75");
        assert_eq!(temp.domain.value(idx), Value::Int(75));

        let lock = registry().spec("lock").unwrap().attribute("lock").unwrap();
        assert_eq!(lock.domain.index_of("locked"), Some(0));
        assert_eq!(lock.domain.value(0), Value::Str("locked".into()));
    }

    #[test]
    fn primary_attribute_is_first() {
        assert_eq!(registry().spec("alarm").unwrap().primary_attribute().name, "alarm");
    }
}
