//! The installed system and its runtime state.
//!
//! An [`InstalledSystem`] binds translated apps ([`IrApp`]) to a concrete
//! [`SystemConfig`]: which devices exist, which devices each app input refers
//! to, which phone numbers are legitimate SMS recipients.  A [`SystemState`]
//! is the model checker's state vector: every device's attribute valuation,
//! the location mode, the modelled time, each app's persistent `state.*`
//! variables and (for the concurrent design) the queue of pending events.
//!
//! # Interned names and the flat state vector
//!
//! Installation freezes a [`Symbols`] table: app names, device labels,
//! attribute names, handler names, `sendEvent` attributes and location-event
//! names are interned exactly once, in deterministic first-intern order.  At
//! verification time runtime structures carry 4-byte [`Sym`] handles —
//! [`InternalEvent`] keys its attribute by `Sym`, and app state variables
//! live in a *slot table* fixed at installation (one slot per `(app, state
//! variable)` pair discovered in the IR), so [`SystemState::app_state`] is a
//! flat `Vec` indexed by slot instead of a `BTreeMap<String, String>`.
//! [`SystemState::encode_into`] is consequently a fixed-layout write — no
//! key bytes, no map iteration — into a caller-owned reusable buffer.
//!
//! # Installation-time resolution
//!
//! Installation also resolves every handler body against the configuration
//! (the `resolve` module): inputs to their bound devices and setting values,
//! device reads to attribute positions, commands to spec entries and
//! [`CommandCode`](iotsan_properties::CommandCode)s, `state.*` variables to
//! slots.  Device reads borrow each attribute's domain values from the
//! spec ([`iotsan_devices::AttributeSpec::values`]), and the installation
//! keeps one [`Value`] per device label and location mode, so the
//! interpreter borrows what the installation owns instead of building values
//! per transition.

use crate::resolve::AppCode;
use iotsan_config::SystemConfig;
use iotsan_devices::{Device, DeviceId, DeviceSpec, DeviceState, LocationMode, SystemTime};
use iotsan_ir::{IrApp, IrStmt, Sym, Symbols, Value};
use iotsan_properties::{
    CompileTarget, CompiledPropertySet, DeviceRole, DeviceSnapshot, PropertySet, Snapshot,
    TargetDevice,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A cyber event flowing through the system during verification.
///
/// The attribute is an interned [`Sym`] (resolve it with
/// [`InstalledSystem::attr_name`]); events are created and cloned on every
/// handler dispatch, so they must not carry owned strings for names that are
/// fixed at installation.  For the same reason a sensor reading, a changed
/// attribute and a mode change borrow their value from the device spec's
/// domain values or the static mode names; only values a handler computes
/// (`sendEvent`) are owned.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalEvent {
    /// The device that generated the event, if any (`None` for location-mode
    /// changes and app-generated fake events with no device).
    pub device: Option<DeviceId>,
    /// Interned attribute name (`motion`, `contact`, `mode`, ...).
    pub attribute: Sym,
    /// New value.
    pub value: Cow<'static, Value>,
    /// True when the event came from the physical environment.
    pub physical: bool,
}

/// The apps and configuration under verification, with binding resolution.
#[derive(Debug, Clone)]
pub struct InstalledSystem {
    /// Translated apps (only those selected for this verification group),
    /// shared with the plan that selected them: installing a group copies
    /// no IR.
    pub apps: Vec<Arc<IrApp>>,
    /// Each app's name, allocated once per installation: every line a
    /// handler of the app owns in a rendered trace shares it.
    app_names: Vec<Arc<str>>,
    /// The system configuration.
    pub config: SystemConfig,
    /// Installed devices (ids are positions in this table).
    pub devices: Vec<Device>,
    /// Per-device capability specs, resolved once here: a registry lookup
    /// per [`Device::spec`] call is too slow for the model generator's hot
    /// loop.
    specs: Vec<&'static DeviceSpec>,
    /// The frozen name table (see the module docs).
    pub symbols: Symbols,
    /// Per-device, per-spec-attribute-index interned attribute names.
    attr_syms: Vec<Vec<Sym>>,
    /// The interned `"mode"` attribute (location-mode change events).
    sym_mode: Sym,
    /// The interned `"touch"` attribute (app-touch events).
    sym_touch: Sym,
    /// The interned `"time"` attribute (timer events).
    sym_time: Sym,
    /// `slot_lookup[app name][state var] -> slot` into
    /// [`SystemState::app_state`].
    slot_lookup: HashMap<String, HashMap<String, u32>>,
    /// Total number of app state slots.
    slot_count: usize,
    /// Per-app-index resolved device bindings: `input name -> device ids`.
    /// Binding resolution runs on every subscription check and device
    /// expression, so it must be a borrow, not a fresh `Vec`.
    input_bindings: Vec<HashMap<String, Vec<DeviceId>>>,
    /// Per-device configured roles, parsed once at installation.
    device_roles: Vec<DeviceRole>,
    /// Each device's label as a string value (`evt.deviceId`, settings).
    label_values: Vec<Value>,
    /// Each app's handlers resolved against this installation (see
    /// [`crate::resolve`]), aligned with `apps`.
    code: Vec<AppCode>,
}

/// The value of every read that resolves to nothing.
pub(crate) static NULL: Value = Value::Null;

/// Collects every `state.*` variable name an app can write (declared
/// `state_vars` plus a scan of all `AssignState` statements, so lowering
/// changes can never leave a write without a slot).
fn collect_state_vars(app: &IrApp, out: &mut Vec<String>) {
    for var in &app.state_vars {
        if !out.iter().any(|n| n == var) {
            out.push(var.clone());
        }
    }
    // `IrStmt::walk` owns the statement-nesting knowledge, so a new nested
    // variant can never be silently missed by a hand-rolled copy here.
    for handler in &app.handlers {
        for stmt in &handler.body {
            stmt.walk(&mut |s| {
                if let IrStmt::AssignState { name, .. } = s {
                    if !out.iter().any(|n| n == name) {
                        out.push(name.clone());
                    }
                }
            });
        }
    }
}

impl InstalledSystem {
    /// Builds an installed system from apps and a configuration, freezing the
    /// symbol table and the app-state slot layout.  The apps may be owned
    /// IR or [`Arc`]s shared with other installations; owned IR is moved
    /// into an `Arc`, never cloned.
    pub fn new<A: Into<Arc<IrApp>>>(
        apps: impl IntoIterator<Item = A>,
        config: SystemConfig,
    ) -> Self {
        let apps: Vec<Arc<IrApp>> = apps.into_iter().map(Into::into).collect();
        let app_names = apps.iter().map(|app| Arc::from(app.name.as_str())).collect();
        let devices = config.device_table();
        let specs: Vec<&'static DeviceSpec> = devices.iter().map(Device::spec).collect();
        let mut symbols = Symbols::new();
        // Sym(0) is reserved for the empty string: `sym_of` falls back to it
        // for names that escaped installation-time interning.
        symbols.intern("");
        let sym_mode = symbols.intern("mode");
        let sym_touch = symbols.intern("touch");
        let sym_time = symbols.intern("time");

        let attr_syms: Vec<Vec<Sym>> = devices
            .iter()
            .zip(&specs)
            .map(|(device, spec)| {
                symbols.intern(&device.label);
                spec.attributes.iter().map(|attr| symbols.intern(attr.name)).collect()
            })
            .collect();

        let mut slot_lookup: HashMap<String, HashMap<String, u32>> = HashMap::new();
        let mut slot_count = 0usize;
        let mut vars = Vec::new();
        for app in &apps {
            symbols.intern(&app.name);
            for handler in &app.handlers {
                symbols.intern(&handler.name);
                if let iotsan_ir::Trigger::LocationEvent { name } = &handler.trigger {
                    symbols.intern(name);
                }
            }
            for handler in &app.handlers {
                for stmt in &handler.body {
                    stmt.walk(&mut |s| {
                        if let IrStmt::SendEvent { attribute, .. } = s {
                            symbols.intern(attribute);
                        }
                    });
                }
            }

            vars.clear();
            collect_state_vars(app, &mut vars);
            let entry = slot_lookup.entry(app.name.clone()).or_default();
            for var in &vars {
                symbols.intern(var);
                entry.entry(var.clone()).or_insert_with(|| {
                    let slot = slot_count as u32;
                    slot_count += 1;
                    slot
                });
            }
        }

        let input_bindings = apps
            .iter()
            .map(|app| {
                let mut map: HashMap<String, Vec<DeviceId>> = HashMap::new();
                if let Some(cfg) = config.app(&app.name) {
                    for (input, binding) in &cfg.bindings {
                        let ids: Vec<DeviceId> = binding
                            .device_labels()
                            .iter()
                            .filter_map(|label| config.device_id(label))
                            .collect();
                        map.insert(input.clone(), ids);
                    }
                }
                map
            })
            .collect();

        let device_roles = devices.iter().map(|d| config.role_of(&d.label)).collect();
        let label_values = devices.iter().map(|d| Value::Str(d.label.clone())).collect();

        let mut system = InstalledSystem {
            apps,
            app_names,
            config,
            devices,
            specs,
            symbols,
            attr_syms,
            sym_mode,
            sym_touch,
            sym_time,
            slot_lookup,
            slot_count,
            input_bindings,
            device_roles,
            label_values,
            code: Vec::new(),
        };
        system.code = (0..system.apps.len()).map(|i| AppCode::resolve(&system, i)).collect();
        system
    }

    /// The name of the app at `app_index`, shared by every log line its
    /// handlers own.
    #[inline]
    pub(crate) fn app_name(&self, app_index: usize) -> &Arc<str> {
        &self.app_names[app_index]
    }

    /// The resolved handlers of the app at `app_index`.
    #[inline]
    pub(crate) fn code(&self, app_index: usize) -> &AppCode {
        &self.code[app_index]
    }

    /// The domain values of `device`'s attribute at `position`, in domain
    /// order.
    #[inline]
    pub(crate) fn attr_values(&self, device: DeviceId, position: usize) -> &'static [Value] {
        self.specs[device.0 as usize].attributes[position].values()
    }

    /// The current value of `device`'s attribute at `position` (`None`: an
    /// attribute its spec lacks) in `state`, borrowed from the installation.
    #[inline]
    pub(crate) fn attr_value(
        &self,
        state: &SystemState,
        device: DeviceId,
        position: Option<u8>,
    ) -> &'static Value {
        let Some(position) = position else { return &NULL };
        let values = self.attr_values(device, position as usize);
        state.devices[device.0 as usize]
            .raw(position as usize)
            .and_then(|index| values.get(index as usize))
            .unwrap_or(&NULL)
    }

    /// `device`'s label as a string value.
    #[inline]
    pub(crate) fn label_value(&self, device: DeviceId) -> &Value {
        &self.label_values[device.0 as usize]
    }

    /// `mode`'s name as a string value, built once per process.
    #[inline]
    pub(crate) fn mode_value(&self, mode: LocationMode) -> &'static Value {
        static MODE_VALUES: OnceLock<[Value; 3]> = OnceLock::new();
        let values = MODE_VALUES
            .get_or_init(|| LocationMode::ALL.map(|mode| Value::Str(mode.name().to_string())));
        &values[mode.index() as usize]
    }

    /// The interned symbol for `name`, falling back to the reserved empty
    /// symbol when `name` was never interned (which installation-time
    /// scanning should prevent).
    pub fn sym_of(&self, name: &str) -> Sym {
        match self.symbols.lookup(name) {
            Some(sym) => sym,
            None => {
                debug_assert!(false, "name {name:?} escaped installation-time interning");
                Sym(0)
            }
        }
    }

    /// Resolves an interned attribute (or any other) name.
    #[inline]
    pub fn attr_name(&self, sym: Sym) -> &str {
        self.symbols.resolve(sym)
    }

    /// The interned `"mode"` attribute.
    #[inline]
    pub fn mode_sym(&self) -> Sym {
        self.sym_mode
    }

    /// The interned `"touch"` attribute.
    #[inline]
    pub fn touch_sym(&self) -> Sym {
        self.sym_touch
    }

    /// The interned `"time"` attribute.
    #[inline]
    pub fn time_sym(&self) -> Sym {
        self.sym_time
    }

    /// The interned name of `device`'s spec attribute at `attr_index`.
    #[inline]
    pub fn device_attr_sym(&self, device: DeviceId, attr_index: usize) -> Sym {
        self.attr_syms[device.0 as usize][attr_index]
    }

    /// The devices bound to `input` of the app at `app_index`, as a borrow
    /// of the installation-time resolution (the hot-loop form).
    #[inline]
    pub fn bound_slice(&self, app_index: usize, input: &str) -> &[DeviceId] {
        self.input_bindings[app_index].get(input).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The device table entry for `id`.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// The capability spec of device `id` (what [`Device::spec`] resolves,
    /// without the registry lookup).
    #[inline]
    pub fn device_spec(&self, id: DeviceId) -> &'static DeviceSpec {
        self.specs[id.0 as usize]
    }

    /// Every device's capability spec, in [`DeviceId`] order.
    pub fn device_specs(&self) -> &[&'static DeviceSpec] {
        &self.specs
    }

    /// The app-state slot for `app`'s variable `var`, if the pair exists in
    /// the installation's slot table.
    pub fn state_slot(&self, app: &str, var: &str) -> Option<u32> {
        self.slot_lookup.get(app)?.get(var).copied()
    }

    /// Number of app-state slots in the state vector.
    pub fn state_slot_count(&self) -> usize {
        self.slot_count
    }

    /// Reads `app`'s state variable `var` from `state`.
    pub fn app_var(&self, state: &SystemState, app: &str, var: &str) -> Value {
        match self.state_slot(app, var).and_then(|slot| state.app_state[slot as usize].as_ref()) {
            Some(text) => Value::Str(text.clone()),
            None => Value::Null,
        }
    }

    /// Writes `app`'s state variable `var` into `state` (rendered form, so
    /// the state stays hashable).  Writes to unknown `(app, var)` pairs are
    /// ignored — installation scans the IR, so every reachable `state.*`
    /// assignment has a slot.
    pub fn set_app_var(&self, state: &mut SystemState, app: &str, var: &str, value: &Value) {
        if let Some(slot) = self.state_slot(app, var) {
            state.app_state[slot as usize] = Some(value.as_string());
        } else {
            debug_assert!(false, "state variable {app}::{var} has no slot");
        }
    }

    /// The initial state of the whole system.
    pub fn initial_state(&self) -> SystemState {
        SystemState {
            devices: self.specs.iter().map(|spec| DeviceState::initial(spec)).collect(),
            mode: LocationMode::parse(&self.config.initial_mode).unwrap_or_default(),
            time: SystemTime::zero(),
            app_state: vec![None; self.slot_count],
            pending: Vec::new(),
            external_events: 0,
            monitors: Vec::new(),
        }
    }

    /// The layout the property compiler resolves specs against: one
    /// [`TargetDevice`] per installed device, in [`DeviceId`] order, so
    /// compiled atoms index [`SystemState::devices`] directly.
    pub fn compile_target(&self) -> CompileTarget {
        CompileTarget::new(
            self.devices
                .iter()
                .zip(&self.device_roles)
                .zip(&self.specs)
                .map(|((device, role), spec)| TargetDevice {
                    id: device.id.0,
                    label: device.label.clone(),
                    role: *role,
                    spec,
                })
                .collect(),
        )
    }

    /// Compiles a property set against this installation (see
    /// [`CompiledPropertySet::compile`]).
    pub fn compile_properties(&self, properties: &PropertySet) -> CompiledPropertySet {
        CompiledPropertySet::compile(properties, &self.compile_target())
    }

    /// Renders `state` as the physical-state [`Snapshot`] the interpreted
    /// reference evaluator ([`PropertySet::check_point`]) reads: a fresh
    /// build with every attribute value rendered.  The model checker never
    /// builds one; its compiled properties read the state vector itself.
    pub fn snapshot(&self, state: &SystemState) -> Snapshot {
        let devices = self
            .devices
            .iter()
            .zip(&self.device_roles)
            .zip(&self.specs)
            .zip(&state.devices)
            .map(|(((device, role), spec), dstate)| DeviceSnapshot {
                id: device.id,
                label: device.label.clone(),
                capability: spec.capability.to_string(),
                role: *role,
                attributes: spec
                    .attributes
                    .iter()
                    .map(|attr| (attr.name.to_string(), dstate.get(spec, attr.name)))
                    .collect(),
                online: dstate.is_online(),
            })
            .collect();
        Snapshot {
            mode: state.mode.name().to_string(),
            devices,
            time_seconds: state.time.seconds(),
        }
    }

    /// Renders an [`InternalEvent`] (for the concurrent design's dispatch
    /// log lines): `dev0/motion=active` or `mode=Away`.
    pub fn render_internal_event(&self, event: &InternalEvent) -> String {
        let attribute = self.attr_name(event.attribute);
        match event.device {
            Some(id) => format!("{id}/{attribute}={}", event.value),
            None => format!("{attribute}={}", event.value),
        }
    }
}

/// The model checker's state vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    /// Per-device attribute valuations (indexed by [`DeviceId`]).
    pub devices: Vec<DeviceState>,
    /// Current location mode.
    pub mode: LocationMode,
    /// Modelled system time: one tick per external event, so the sequential
    /// model keys on it (through the event count) only when a handler reads
    /// the clock.
    pub time: SystemTime,
    /// Persistent app state variables in rendered form, indexed by the
    /// installation's slot table ([`InstalledSystem::state_slot`]); `None`
    /// means never written.
    pub app_state: Vec<Option<String>>,
    /// Pending (not yet dispatched) events; only the concurrent design keeps
    /// events pending across transitions.
    pub pending: Vec<InternalEvent>,
    /// Number of external events generated so far.
    pub external_events: usize,
    /// Leads-to obligation countdowns, one slot per compiled property with
    /// `within > 0` (see [`iotsan_properties::CompiledPropertySet`]).  Empty
    /// — and absent from the encoding — for property sets without bounded
    /// response distances, so the paper corpus keeps byte-identical state
    /// encodings.
    pub monitors: Vec<u8>,
}

/// Slot markers inside the encoded state.  All are in `0xfc..=0xff` — the
/// four byte values that can never occur anywhere in well-formed UTF-8 (lead
/// bytes stop at 0xf4), so marker-delimited rendered values stay unambiguous
/// without length prefixes.  Do not add markers below 0xfc: `0xf0..=0xf4`
/// are valid UTF-8 lead bytes.
const ENC_SLOT_EMPTY: u8 = 0xfe;
const ENC_SLOT_SET: u8 = 0xfd;
const ENC_SLOT_END: u8 = 0xff;
const ENC_NO_DEVICE: u8 = 0xfc;

impl SystemState {
    /// Serializes the state-identity-relevant parts into `out` (device states,
    /// mode, app variables and the pending-event queue; modelled time and the
    /// external-event count are excluded so equivalent physical states merge;
    /// the models append the count where it matters).
    ///
    /// The layout is flat and fixed by the installation: device attribute
    /// indices, the mode byte, one marker-delimited value per app-state slot
    /// (no key bytes — the slot position *is* the key) and the pending
    /// events keyed by their interned attribute ids.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for device in &self.devices {
            device.encode_into(out);
        }
        out.push(self.mode.index());
        for slot in &self.app_state {
            match slot {
                None => out.push(ENC_SLOT_EMPTY),
                Some(value) => {
                    out.push(ENC_SLOT_SET);
                    out.extend_from_slice(value.as_bytes());
                    out.push(ENC_SLOT_END);
                }
            }
        }
        for event in &self.pending {
            out.extend_from_slice(&event.attribute.0.to_le_bytes());
            encode_value_into(&event.value, out);
            out.push(match event.device {
                Some(id) => id.0 as u8,
                None => ENC_NO_DEVICE,
            });
        }
        // Pending leads-to obligations distinguish states: a home that still
        // owes a response is not the same state as one that does not.
        out.extend_from_slice(&self.monitors);
    }
}

/// Encodes a [`Value`] without rendering it to a string (the old path built
/// `as_string()` per pending event per probe).
fn encode_value_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(s.as_bytes());
            out.push(ENC_SLOT_END);
        }
        Value::List(items) => {
            out.push(5);
            out.push(items.len().min(u8::MAX as usize) as u8);
            for item in items {
                encode_value_into(item, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_config::{AppConfig, Binding, DeviceConfig};
    use iotsan_ir::{AppInput, IrExpr};

    fn system() -> InstalledSystem {
        let app = IrApp {
            name: "Unlock Door".into(),
            description: String::new(),
            inputs: vec![AppInput::device("lock1", "lock")],
            handlers: vec![],
            state_vars: vec!["count".into(), "x".into()],
            dynamic_discovery: false,
        };
        let config = SystemConfig::new()
            .with_device(DeviceConfig::new("doorLock", "lock", "main door lock"))
            .with_device(DeviceConfig::new("alicePresence", "presenceSensor", ""))
            .with_app(
                AppConfig::new("Unlock Door")
                    .with("lock1", Binding::Devices(vec!["doorLock".into()]))
                    .with("minutes", Binding::Number(10.0)),
            );
        InstalledSystem::new(vec![app], config)
    }

    #[test]
    fn binding_resolution() {
        let sys = system();
        assert_eq!(sys.bound_slice(0, "lock1"), [DeviceId(0)]);
        assert!(sys.bound_slice(0, "missing").is_empty());
    }

    #[test]
    fn initial_state_and_snapshot() {
        let sys = system();
        let state = sys.initial_state();
        assert_eq!(state.devices.len(), 2);
        assert_eq!(state.mode, LocationMode::Home);
        let snap = sys.snapshot(&state);
        assert_eq!(snap.devices.len(), 2);
        assert_eq!(snap.mode, "Home");
        let lock = snap.devices.iter().find(|d| d.capability == "lock").unwrap();
        assert!(lock.attr_is("lock", "locked"));
        assert_eq!(lock.role, iotsan_properties::DeviceRole::MainDoorLock);
    }

    #[test]
    fn snapshot_tracks_state() {
        let sys = system();
        let mut state = sys.initial_state();
        let spec = sys.device_spec(DeviceId(0));
        assert!(std::ptr::eq(spec, sys.device(DeviceId(0)).spec()));
        state.devices[0].set(spec, "lock", &Value::Str("unlocked".into()));
        state.devices[1].set_online(false);
        state.mode = LocationMode::Away;
        let snap = sys.snapshot(&state);
        assert_eq!(snap.mode, "Away");
        let lock = snap.devices.iter().find(|d| d.capability == "lock").unwrap();
        assert!(lock.attr_is("lock", "unlocked"));
        assert!(!snap.devices[1].online);
    }

    #[test]
    fn symbols_cover_installation_names() {
        let sys = system();
        assert_eq!(sys.symbols.lookup(""), Some(Sym(0)));
        assert!(sys.symbols.lookup("Unlock Door").is_some());
        assert!(sys.symbols.lookup("doorLock").is_some());
        assert!(sys.symbols.lookup("lock").is_some());
        assert!(sys.symbols.lookup("presence").is_some());
        assert_eq!(sys.attr_name(sys.mode_sym()), "mode");
        assert_eq!(sys.attr_name(sys.touch_sym()), "touch");
        assert_eq!(sys.attr_name(sys.time_sym()), "time");
        // Device attribute syms resolve to the spec's attribute names.
        let lock_spec = sys.device_spec(DeviceId(0));
        for (i, attr) in lock_spec.attributes.iter().enumerate() {
            assert_eq!(sys.attr_name(sys.device_attr_sym(DeviceId(0), i)), attr.name);
        }
    }

    #[test]
    fn app_vars_round_trip_through_slots() {
        let sys = system();
        let mut state = sys.initial_state();
        assert_eq!(sys.state_slot_count(), 2);
        assert_eq!(sys.app_var(&state, "Unlock Door", "count"), Value::Null);
        sys.set_app_var(&mut state, "Unlock Door", "count", &Value::Int(3));
        assert_eq!(sys.app_var(&state, "Unlock Door", "count"), Value::Str("3".into()));
        assert_eq!(sys.state_slot("Unlock Door", "count"), Some(0));
        assert_eq!(sys.state_slot("Unlock Door", "missing"), None);
        assert_eq!(sys.state_slot("Ghost", "count"), None);
    }

    #[test]
    fn state_vars_are_discovered_from_handler_bodies() {
        let app = IrApp {
            name: "Writer".into(),
            description: String::new(),
            inputs: vec![],
            handlers: vec![iotsan_ir::IrHandler {
                app: "Writer".into(),
                name: "h".into(),
                trigger: iotsan_ir::Trigger::AppTouch,
                body: vec![IrStmt::If {
                    cond: IrExpr::bool(true),
                    then: vec![IrStmt::AssignState {
                        name: "nested".into(),
                        value: IrExpr::int(1),
                    }],
                    els: vec![],
                }],
            }],
            state_vars: vec![],
            dynamic_discovery: false,
        };
        let sys = InstalledSystem::new(vec![app], SystemConfig::new());
        assert_eq!(sys.state_slot("Writer", "nested"), Some(0));
    }

    #[test]
    fn encoding_changes_with_state() {
        let sys = system();
        let mut a = sys.initial_state();
        let mut buf_a = Vec::new();
        a.encode_into(&mut buf_a);

        // Changing the mode changes the encoding; changing the time does not.
        let mut b = a.clone();
        b.mode = LocationMode::Away;
        let mut buf_b = Vec::new();
        b.encode_into(&mut buf_b);
        assert_ne!(buf_a, buf_b);

        a.time.tick();
        let mut buf_t = Vec::new();
        a.encode_into(&mut buf_t);
        assert_eq!(buf_a, buf_t);

        // App variables and pending events contribute.
        let mut c = sys.initial_state();
        sys.set_app_var(&mut c, "Unlock Door", "x", &Value::Int(1));
        let mut buf_c = Vec::new();
        c.encode_into(&mut buf_c);
        assert_ne!(buf_a, buf_c);

        let mut d = sys.initial_state();
        d.pending.push(InternalEvent {
            device: Some(DeviceId(1)),
            attribute: sys.sym_of("presence"),
            value: Cow::Owned(Value::Str("not present".into())),
            physical: true,
        });
        let mut buf_d = Vec::new();
        d.encode_into(&mut buf_d);
        assert_ne!(buf_a, buf_d);
    }

    #[test]
    fn distinct_slot_values_encode_distinctly() {
        let sys = system();
        let mut a = sys.initial_state();
        let mut b = sys.initial_state();
        // (empty, "1") vs ("1", empty) must not alias even without key bytes.
        sys.set_app_var(&mut a, "Unlock Door", "count", &Value::Int(1));
        sys.set_app_var(&mut b, "Unlock Door", "x", &Value::Int(1));
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        a.encode_into(&mut buf_a);
        b.encode_into(&mut buf_b);
        assert_ne!(buf_a, buf_b);
        // And None vs Some("") differ.
        let mut c = sys.initial_state();
        sys.set_app_var(&mut c, "Unlock Door", "count", &Value::Str(String::new()));
        let mut buf_c = Vec::new();
        c.encode_into(&mut buf_c);
        let mut buf_none = Vec::new();
        sys.initial_state().encode_into(&mut buf_none);
        assert_ne!(buf_c, buf_none);
    }

    #[test]
    fn internal_event_rendering() {
        let sys = system();
        let e = InternalEvent {
            device: Some(DeviceId(1)),
            attribute: sys.sym_of("presence"),
            value: Cow::Owned(Value::Str("not present".into())),
            physical: true,
        };
        assert_eq!(sys.render_internal_event(&e), "dev1/presence=not present");
        let e = InternalEvent {
            device: None,
            attribute: sys.mode_sym(),
            value: Cow::Owned(Value::Str("Away".into())),
            physical: false,
        };
        assert_eq!(sys.render_internal_event(&e), "mode=Away");
    }
}
