//! The configuration model: installed devices, installed apps and per-app
//! input bindings.
//!
//! The paper's Configuration Extractor (§7) crawls the SmartThings management
//! web app to obtain (i) installed devices, (ii) installed smart apps and
//! (iii) configurations of apps, plus the *device association* info supplied
//! by the user (e.g. "this outlet controls the AC").  IotSan-rs represents the
//! same information as a serde-serializable [`SystemConfig`], loaded from a
//! JSON file or generated synthetically (see [`crate::portal`]).

use iotsan_devices::{registry, Device, DeviceId};
use iotsan_ir::{IrApp, SettingKind, Value};
use iotsan_properties::{DeviceRole, PropertySet, PropertySpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A configured (installed) device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// User-facing label (e.g. `myHeaterOutlet`).
    pub label: String,
    /// Capability name (e.g. `switch`, `motionSensor`).
    pub capability: String,
    /// Device association (what the device actually controls), as a free-form
    /// string parsed by [`DeviceRole::parse`].
    #[serde(default)]
    pub role: String,
}

impl DeviceConfig {
    /// Creates a device configuration.
    pub fn new(
        label: impl Into<String>,
        capability: impl Into<String>,
        role: impl Into<String>,
    ) -> Self {
        DeviceConfig { label: label.into(), capability: capability.into(), role: role.into() }
    }

    /// The parsed device role.
    pub fn parsed_role(&self) -> DeviceRole {
        DeviceRole::parse(&self.role)
    }
}

/// The value bound to an app input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", content = "value")]
pub enum Binding {
    /// One or more device labels (for `capability.*` inputs).
    Devices(Vec<String>),
    /// A number (for `number`/`decimal` inputs).
    Number(f64),
    /// A string (for `enum`/`text`/`phone`/`time`/`mode` inputs).
    Text(String),
    /// A boolean.
    Bool(bool),
    /// Explicitly left unconfigured (only valid for optional inputs).
    Unset,
}

impl Binding {
    /// Converts the binding into the IR value the interpreter reads when the
    /// app accesses the setting.
    pub fn to_value(&self) -> Value {
        match self {
            Binding::Devices(labels) => {
                Value::List(labels.iter().map(|l| Value::Str(l.clone())).collect())
            }
            Binding::Number(n) => {
                if n.fract() == 0.0 {
                    Value::Int(*n as i64)
                } else {
                    Value::Decimal(*n)
                }
            }
            Binding::Text(s) => Value::Str(s.clone()),
            Binding::Bool(b) => Value::Bool(*b),
            Binding::Unset => Value::Null,
        }
    }

    /// The device labels, when this is a device binding.
    pub fn device_labels(&self) -> &[String] {
        match self {
            Binding::Devices(labels) => labels,
            _ => &[],
        }
    }
}

/// The configuration of one installed app: which devices and values are bound
/// to each `preferences` input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AppConfig {
    /// The app's display name (matches `IrApp::name`).
    pub app: String,
    /// Input name → binding.
    pub bindings: BTreeMap<String, Binding>,
}

impl AppConfig {
    /// Creates an empty configuration for `app`.
    pub fn new(app: impl Into<String>) -> Self {
        AppConfig { app: app.into(), bindings: BTreeMap::new() }
    }

    /// Adds a binding (builder style).
    pub fn with(mut self, input: impl Into<String>, binding: Binding) -> Self {
        self.bindings.insert(input.into(), binding);
        self
    }

    /// The binding for an input, if configured.
    pub fn binding(&self, input: &str) -> Option<&Binding> {
        self.bindings.get(input)
    }

    /// The device labels bound to an input (empty when not a device binding).
    pub fn devices_for(&self, input: &str) -> Vec<String> {
        self.binding(input).map(|b| b.device_labels().to_vec()).unwrap_or_default()
    }
}

/// A complete IoT-system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SystemConfig {
    /// Installed devices.
    pub devices: Vec<DeviceConfig>,
    /// Installed apps and their bindings.
    pub apps: Vec<AppConfig>,
    /// Phone numbers the user configured as legitimate SMS recipients.
    #[serde(default)]
    pub phone_numbers: Vec<String>,
    /// Apps the user explicitly allowed to use network interfaces (§3: users
    /// dictate whether to allow httpPost-style calls).
    #[serde(default)]
    pub network_allowed_apps: Vec<String>,
    /// The initial location mode.
    #[serde(default = "default_mode")]
    pub initial_mode: String,
    /// User-defined safety properties shipped with the configuration
    /// ([`iotsan_properties::PropertySpec`], the same JSON shape
    /// `PropertySpec::from_json` reads).  The pipeline's verification entry
    /// points register and check these automatically (see
    /// `Pipeline::properties_for`, which also returns the merged registry
    /// for display/lookup helpers).
    #[serde(default)]
    pub custom_properties: Vec<PropertySpec>,
}

fn default_mode() -> String {
    "Home".to_string()
}

impl SystemConfig {
    /// Creates an empty configuration (mode `Home`).
    pub fn new() -> Self {
        SystemConfig { initial_mode: default_mode(), ..Default::default() }
    }

    /// Adds a device (builder style).
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.devices.push(device);
        self
    }

    /// Adds an app configuration (builder style).
    pub fn with_app(mut self, app: AppConfig) -> Self {
        self.apps.push(app);
        self
    }

    /// Adds a user-defined safety property (builder style).
    pub fn with_custom_property(mut self, spec: PropertySpec) -> Self {
        self.custom_properties.push(spec);
        self
    }

    /// Looks up a device by label.
    pub fn device(&self, label: &str) -> Option<&DeviceConfig> {
        self.devices.iter().find(|d| d.label == label)
    }

    /// Looks up an app configuration by app name.
    pub fn app(&self, name: &str) -> Option<&AppConfig> {
        self.apps.iter().find(|a| a.app == name)
    }

    /// Builds the installed-device table (stable ids assigned by position).
    pub fn device_table(&self) -> Vec<Device> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| Device::new(DeviceId(i as u32), d.label.clone(), d.capability.clone()))
            .collect()
    }

    /// The [`DeviceId`] of a device label.
    pub fn device_id(&self, label: &str) -> Option<DeviceId> {
        self.devices.iter().position(|d| d.label == label).map(|i| DeviceId(i as u32))
    }

    /// The parsed role of a device label.
    pub fn role_of(&self, label: &str) -> DeviceRole {
        self.device(label).map(|d| d.parsed_role()).unwrap_or_default()
    }

    /// Serializes the configuration to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SystemConfig serializes")
    }

    /// Parses a configuration from JSON, rejecting shipped custom
    /// properties that fail [`PropertySpec::validate`] (they would panic at
    /// compilation) or whose id is already bound to a different spec — a
    /// built-in (1..=45) or an earlier shipped property.  An identical
    /// re-registration is accepted.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let config: SystemConfig = serde_json::from_str(json)?;
        let mut registered = PropertySet::all();
        for spec in &config.custom_properties {
            spec.validate().map_err(serde_json::Error::custom)?;
            if registered.get(spec.property_id()) != Some(spec) {
                registered.register(spec.clone()).map_err(|clash| {
                    serde_json::Error::custom(format!(
                        "custom property `{}`: {clash} with a different spec",
                        spec.name
                    ))
                })?;
            }
        }
        Ok(config)
    }

    /// Validates the configuration against the apps it references: every
    /// required input must be bound, device bindings must reference installed
    /// devices, and the bound devices must expose the required capability.
    /// Returns a list of human-readable problems (empty when valid).
    pub fn validate(&self, apps: &[IrApp]) -> Vec<String> {
        let mut problems = Vec::new();
        for app_cfg in &self.apps {
            let Some(app) = apps.iter().find(|a| a.name == app_cfg.app) else {
                problems.push(format!("configuration references unknown app '{}'", app_cfg.app));
                continue;
            };
            for input in &app.inputs {
                let binding = app_cfg.binding(&input.name);
                match (&input.kind, binding) {
                    (
                        SettingKind::Device { capability, multiple },
                        Some(Binding::Devices(labels)),
                    ) => {
                        if labels.is_empty() && input.required {
                            problems.push(format!(
                                "{}: required device input '{}' is empty",
                                app.name, input.name
                            ));
                        }
                        if !*multiple && labels.len() > 1 {
                            problems.push(format!(
                                "{}: input '{}' accepts a single device but {} are bound",
                                app.name,
                                input.name,
                                labels.len()
                            ));
                        }
                        for label in labels {
                            match self.device(label) {
                                None => problems.push(format!(
                                    "{}: input '{}' references unknown device '{}'",
                                    app.name, input.name, label
                                )),
                                Some(device) => {
                                    // Capabilities are compared through the device registry:
                                    // unknown switch-like capabilities (outlets, plugs, ...)
                                    // resolve to the `switch` spec, so an outlet may stand in
                                    // for any of them; otherwise specs must match.
                                    let wanted = registry().spec_or_switch(capability).capability;
                                    let actual =
                                        registry().spec_or_switch(&device.capability).capability;
                                    if wanted != actual {
                                        problems.push(format!(
                                            "{}: input '{}' wants capability '{}' but '{}' is a '{}'",
                                            app.name, input.name, capability, label, device.capability
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    (SettingKind::Device { .. }, None) if input.required => {
                        problems.push(format!(
                            "{}: required device input '{}' is unbound",
                            app.name, input.name
                        ));
                    }
                    (_, None) if input.required => {
                        problems.push(format!(
                            "{}: required input '{}' is unbound",
                            app.name, input.name
                        ));
                    }
                    _ => {}
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_ir::AppInput;

    fn sample_config() -> SystemConfig {
        SystemConfig::new()
            .with_device(DeviceConfig::new("myTempMeas", "temperatureMeasurement", ""))
            .with_device(DeviceConfig::new("myHeaterOutlet", "switch", "heater"))
            .with_device(DeviceConfig::new("myACOutlet", "switch", "AC"))
            .with_app(
                AppConfig::new("Virtual Thermostat")
                    .with("sensor", Binding::Devices(vec!["myTempMeas".into()]))
                    .with("outlets", Binding::Devices(vec!["myACOutlet".into()]))
                    .with("setpoint", Binding::Number(75.0))
                    .with("mode", Binding::Text("cool".into())),
            )
    }

    fn thermostat_app() -> IrApp {
        IrApp {
            name: "Virtual Thermostat".into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("sensor", "temperatureMeasurement"),
                AppInput {
                    name: "outlets".into(),
                    kind: SettingKind::Device { capability: "switch".into(), multiple: true },
                    title: String::new(),
                    required: true,
                },
                AppInput {
                    name: "setpoint".into(),
                    kind: SettingKind::Decimal,
                    title: String::new(),
                    required: true,
                },
                AppInput {
                    name: "mode".into(),
                    kind: SettingKind::Enum(vec!["heat".into(), "cool".into()]),
                    title: String::new(),
                    required: true,
                },
            ],
            handlers: vec![],
            state_vars: vec![],
            dynamic_discovery: false,
        }
    }

    #[test]
    fn binding_value_conversion() {
        assert_eq!(Binding::Number(75.0).to_value(), Value::Int(75));
        assert_eq!(Binding::Number(75.5).to_value(), Value::Decimal(75.5));
        assert_eq!(Binding::Text("cool".into()).to_value(), Value::Str("cool".into()));
        assert_eq!(Binding::Bool(true).to_value(), Value::Bool(true));
        assert_eq!(Binding::Unset.to_value(), Value::Null);
        assert_eq!(
            Binding::Devices(vec!["a".into()]).to_value(),
            Value::List(vec![Value::Str("a".into())])
        );
    }

    #[test]
    fn lookups_and_device_table() {
        let cfg = sample_config();
        assert_eq!(cfg.devices.len(), 3);
        assert_eq!(cfg.device("myACOutlet").unwrap().capability, "switch");
        assert_eq!(cfg.role_of("myHeaterOutlet"), DeviceRole::Heater);
        assert_eq!(cfg.role_of("myTempMeas"), DeviceRole::Generic);
        let table = cfg.device_table();
        assert_eq!(table.len(), 3);
        assert_eq!(cfg.device_id("myACOutlet"), Some(DeviceId(2)));
        assert_eq!(cfg.device_id("nope"), None);
        assert_eq!(
            cfg.app("Virtual Thermostat").unwrap().devices_for("outlets"),
            vec!["myACOutlet".to_string()]
        );
    }

    #[test]
    fn json_round_trip() {
        let cfg = sample_config();
        let json = cfg.to_json();
        let parsed = SystemConfig::from_json(&json).unwrap();
        assert_eq!(cfg, parsed);
        assert!(json.contains("myHeaterOutlet"));
    }

    #[test]
    fn custom_properties_ride_along_in_config_json() {
        use iotsan_properties::{Expr, PropertySpec};
        let cfg = sample_config().with_custom_property(
            PropertySpec::builder(46, "Heater outlet stays off at night").category("Custom").never(
                Expr::and([Expr::mode_is("Night"), Expr::role_attr("heater", "switch", "on")]),
            ),
        );
        let parsed = SystemConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, parsed);
        assert_eq!(parsed.custom_properties.len(), 1);
        assert_eq!(parsed.custom_properties[0].id, 46);
        // Absent field defaults to empty (older configs keep loading).
        let legacy = SystemConfig::from_json(&sample_config().to_json()).unwrap();
        assert!(legacy.custom_properties.is_empty());
    }

    #[test]
    fn shipped_custom_properties_are_validated() {
        use iotsan_properties::{Expr, Modality, PropertySpec, MAX_FORMULA_DEPTH};
        let mut spec = PropertySpec::builder(46, "deep").never(Expr::mode_is("Night"));
        spec.modality = Modality::Never(
            (0..MAX_FORMULA_DEPTH)
                .fold(Expr::mode_is("Night"), |e, _| Expr::or([Expr::mode_is("Home"), e])),
        );
        let json = sample_config().with_custom_property(spec).to_json();
        let err = SystemConfig::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("evaluation stack"), "{err}");
    }

    #[test]
    fn a_custom_property_at_the_formula_depth_bound_round_trips() {
        // The JSON reader's nesting budget must admit every formula the
        // evaluation stack admits.
        use iotsan_properties::{Expr, Modality, PropertySpec, MAX_FORMULA_DEPTH};
        let mut spec = PropertySpec::builder(46, "deepest").never(Expr::mode_is("Night"));
        spec.modality = Modality::Never(
            (1..MAX_FORMULA_DEPTH)
                .fold(Expr::mode_is("Night"), |e, _| Expr::or([Expr::mode_is("Home"), e])),
        );
        assert_eq!(spec.stack_depth(), MAX_FORMULA_DEPTH);
        let cfg = sample_config().with_custom_property(spec);
        assert_eq!(SystemConfig::from_json(&cfg.to_json()).unwrap(), cfg);
    }

    #[test]
    fn shipped_custom_properties_cannot_rebind_an_id() {
        use iotsan_properties::{paper_properties, Expr, PropertySpec};
        let load = |specs: Vec<PropertySpec>| {
            let config = specs.into_iter().fold(sample_config(), |c, s| c.with_custom_property(s));
            SystemConfig::from_json(&config.to_json())
        };
        let custom =
            |id: u32, name: &str| PropertySpec::builder(id, name).never(Expr::mode_is("Night"));

        let err = load(vec![custom(1, "clashes with a built-in")]).unwrap_err();
        assert!(err.to_string().contains("property id P01 is already registered"), "{err}");
        let err = load(vec![custom(46, "first"), custom(46, "second")]).unwrap_err();
        assert!(err.to_string().contains("`second`"), "{err}");

        // Identical re-registrations are accepted.
        let builtin = paper_properties().remove(0);
        assert!(load(vec![builtin, custom(46, "twice"), custom(46, "twice")]).is_ok());
    }

    #[test]
    fn validation_accepts_good_config() {
        let cfg = sample_config();
        let problems = cfg.validate(&[thermostat_app()]);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn validation_flags_missing_and_wrong_bindings() {
        let app = thermostat_app();
        // Missing required input.
        let cfg = SystemConfig::new()
            .with_device(DeviceConfig::new("myTempMeas", "temperatureMeasurement", ""))
            .with_app(
                AppConfig::new("Virtual Thermostat")
                    .with("sensor", Binding::Devices(vec!["myTempMeas".into()])),
            );
        let problems = cfg.validate(std::slice::from_ref(&app));
        assert!(problems.iter().any(|p| p.contains("outlets")));

        // Wrong capability.
        let cfg = sample_config().with_app(
            AppConfig::new("Virtual Thermostat")
                .with("sensor", Binding::Devices(vec!["myHeaterOutlet".into()]))
                .with("outlets", Binding::Devices(vec!["myACOutlet".into()]))
                .with("setpoint", Binding::Number(75.0))
                .with("mode", Binding::Text("cool".into())),
        );
        let problems = cfg.validate(std::slice::from_ref(&app));
        assert!(problems.iter().any(|p| p.contains("wants capability")));

        // Unknown device.
        let cfg = sample_config().with_app(
            AppConfig::new("Virtual Thermostat")
                .with("sensor", Binding::Devices(vec!["ghost".into()]))
                .with("outlets", Binding::Devices(vec!["myACOutlet".into()]))
                .with("setpoint", Binding::Number(75.0))
                .with("mode", Binding::Text("cool".into())),
        );
        assert!(cfg.validate(&[app]).iter().any(|p| p.contains("unknown device")));
    }

    #[test]
    fn switch_device_stands_in_for_switch_like_capabilities() {
        // "outlet" is not a registered capability; it resolves to the switch
        // spec, so a switch device satisfies it (and vice versa).
        let app = IrApp {
            name: "Outlet App".into(),
            description: String::new(),
            inputs: vec![AppInput::device("outlet1", "outlet")],
            handlers: vec![],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let cfg =
            SystemConfig::new().with_device(DeviceConfig::new("myOutlet", "switch", "")).with_app(
                AppConfig::new("Outlet App")
                    .with("outlet1", Binding::Devices(vec!["myOutlet".into()])),
            );
        let problems = cfg.validate(std::slice::from_ref(&app));
        assert!(problems.is_empty(), "{problems:?}");

        // A genuinely different capability is still rejected.
        let cfg =
            SystemConfig::new().with_device(DeviceConfig::new("myLock", "lock", "")).with_app(
                AppConfig::new("Outlet App")
                    .with("outlet1", Binding::Devices(vec!["myLock".into()])),
            );
        let problems = cfg.validate(std::slice::from_ref(&app));
        assert!(problems.iter().any(|p| p.contains("wants capability")), "{problems:?}");
    }

    #[test]
    fn validation_flags_unknown_app() {
        let cfg = SystemConfig::new().with_app(AppConfig::new("Ghost App"));
        let problems = cfg.validate(&[]);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unknown app"));
    }

    #[test]
    fn single_device_input_rejects_multiple_bindings() {
        let app = IrApp {
            name: "Single".into(),
            description: String::new(),
            inputs: vec![AppInput::device("lock1", "lock")],
            handlers: vec![],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let cfg = SystemConfig::new()
            .with_device(DeviceConfig::new("a", "lock", ""))
            .with_device(DeviceConfig::new("b", "lock", ""))
            .with_app(
                AppConfig::new("Single")
                    .with("lock1", Binding::Devices(vec!["a".into(), "b".into()])),
            );
        let problems = cfg.validate(&[app]);
        assert!(problems.iter().any(|p| p.contains("single device")));
    }
}
