//! Device instances and their runtime state.
//!
//! A [`Device`] is one concrete, installed device (e.g. "the motion sensor in
//! the living room") of a given capability; a [`DeviceState`] is its current
//! attribute valuation, stored compactly as domain indices so the model
//! checker can hash entire system states cheaply.

use crate::capability::{registry, CommandSpec, DeviceSpec, ResolvedEffect};
use iotsan_ir::Value;
use std::fmt;

/// Identifier of an installed device (index into the system's device table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// An installed device: a label chosen by the user plus its capability.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// System-wide identifier.
    pub id: DeviceId,
    /// User-facing label, e.g. `livRoomMotion`, `myHeaterOutlet`.
    pub label: String,
    /// Capability name; resolves to a [`DeviceSpec`] through the registry.
    pub capability: String,
}

impl Device {
    /// Creates a device.
    pub fn new(id: DeviceId, label: impl Into<String>, capability: impl Into<String>) -> Self {
        Device { id, label: label.into(), capability: capability.into() }
    }

    /// The specification for this device's capability (falls back to `switch`
    /// for unknown capabilities so that translation never wedges).
    pub fn spec(&self) -> &'static DeviceSpec {
        registry().spec_or_switch(&self.capability)
    }

    /// True when the device can generate physical events.
    pub fn is_sensor(&self) -> bool {
        self.spec().is_sensor()
    }

    /// True when the device accepts commands.
    pub fn is_actuator(&self) -> bool {
        self.spec().is_actuator()
    }

    /// The initial state for this device.
    pub fn initial_state(&self) -> DeviceState {
        DeviceState::initial(self.spec())
    }
}

/// The result of applying a command to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandOutcome {
    /// The command changed at least one attribute; the positions of the
    /// changed attributes are listed (read the new values from the state).
    Changed(ChangedAttrs),
    /// The command was valid but left the state unchanged (e.g. `on()` when
    /// already on) — relevant for the *repeated commands* property.
    NoChange,
    /// The device's capability does not support this command.
    Unsupported,
    /// The device is offline (failure injection); the command was lost.
    Offline,
}

/// Upper bound on attributes per device spec (the registry's richest device,
/// the thermostat, has 4; the inline array leaves headroom).
pub const MAX_DEVICE_ATTRS: usize = 8;

/// The attribute positions one command changed, in effect order.
///
/// Inline and `Copy`: a command sets each attribute of its spec at most once,
/// so it changes at most [`MAX_DEVICE_ATTRS`] of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangedAttrs {
    positions: [u8; MAX_DEVICE_ATTRS],
    len: u8,
}

impl ChangedAttrs {
    const NONE: ChangedAttrs = ChangedAttrs { positions: [0; MAX_DEVICE_ATTRS], len: 0 };

    fn push(&mut self, attr_index: usize) {
        self.positions[self.len as usize] = attr_index as u8;
        self.len += 1;
    }

    /// The changed attribute positions (into [`DeviceSpec::attributes`]).
    pub fn positions(&self) -> &[u8] {
        &self.positions[..self.len as usize]
    }
}

/// Current attribute valuation of one device.
///
/// Values are stored as indices into each attribute's finite domain, plus an
/// `online` flag used for device/communication failure injection (§8).  The
/// indices live in a fixed inline array (specs are bounded by
/// [`MAX_DEVICE_ATTRS`]), so `DeviceState` is `Copy`: cloning a whole
/// [`Vec<DeviceState>`] system state is one memcpy instead of one heap
/// allocation per device — the model checker clones a state per transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceState {
    values: [u8; MAX_DEVICE_ATTRS],
    len: u8,
    online: bool,
}

impl DeviceState {
    /// The initial state per the specification defaults.
    pub fn initial(spec: &DeviceSpec) -> Self {
        assert!(
            spec.attributes.len() <= MAX_DEVICE_ATTRS,
            "device spec {} exceeds MAX_DEVICE_ATTRS",
            spec.capability
        );
        let mut values = [0u8; MAX_DEVICE_ATTRS];
        for (i, a) in spec.attributes.iter().enumerate() {
            values[i] = a.default_index as u8;
        }
        DeviceState { values, len: spec.attributes.len() as u8, online: true }
    }

    /// Whether the device is currently online.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Marks the device online or offline.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Raw domain index of an attribute (by position).
    pub fn raw(&self, index: usize) -> Option<u8> {
        self.values[..self.len as usize].get(index).copied()
    }

    /// The current value of `attribute` as an [`Value`].
    pub fn get(&self, spec: &DeviceSpec, attribute: &str) -> Value {
        let Some(idx) = spec.attribute_index(attribute) else { return Value::Null };
        spec.attributes[idx].domain.value(self.values[idx] as usize)
    }

    /// Sets the attribute at position `attr_index` to the domain value at
    /// `value_index`; returns `true` when the state actually changed.  The
    /// model generator's actions carry the position, so the hot loop skips
    /// a name lookup.
    pub fn set_index_at(
        &mut self,
        spec: &DeviceSpec,
        attr_index: usize,
        value_index: usize,
    ) -> bool {
        if attr_index >= spec.attributes.len()
            || value_index >= spec.attributes[attr_index].domain.len()
        {
            return false;
        }
        let changed = self.values[attr_index] != value_index as u8;
        self.values[attr_index] = value_index as u8;
        changed
    }

    /// Sets `attribute` to the given value (string or numeric), snapping
    /// numeric values to the nearest domain level.  Returns `true` when the
    /// state changed, `false` when it was already equal or the value/attribute
    /// is unknown.
    pub fn set(&mut self, spec: &DeviceSpec, attribute: &str, value: &Value) -> bool {
        let Some(idx) = spec.attribute_index(attribute) else { return false };
        self.set_value_at(spec, idx, value).is_some()
    }

    /// [`DeviceState::set`] addressed by attribute position, returning the
    /// position when the state changed.
    fn set_value_at(
        &mut self,
        spec: &DeviceSpec,
        attr_index: usize,
        value: &Value,
    ) -> Option<usize> {
        let target = spec.attributes[attr_index].domain.index_for_value(value);
        self.assign(attr_index, target)
    }

    /// Stores `target` (if any) at `attr_index`; the position when the state
    /// changed.
    fn assign(&mut self, attr_index: usize, target: Option<usize>) -> Option<usize> {
        let value_index = target? as u8;
        let changed = self.values[attr_index] != value_index;
        self.values[attr_index] = value_index;
        changed.then_some(attr_index)
    }

    /// Applies an actuator command (with already-evaluated arguments).
    pub fn apply_command(
        &mut self,
        spec: &DeviceSpec,
        command: &str,
        args: &[Value],
    ) -> CommandOutcome {
        self.run_command(spec, spec.command(command), args)
    }

    /// [`DeviceState::apply_command`] for a command already looked up in
    /// `spec` (`None`: the spec does not define it), so a caller that also
    /// needs the command's `'static` name looks it up once.
    pub fn run_command(
        &mut self,
        spec: &DeviceSpec,
        cmd: Option<&CommandSpec>,
        args: &[Value],
    ) -> CommandOutcome {
        if !self.online {
            return CommandOutcome::Offline;
        }
        let Some(cmd) = cmd else { return CommandOutcome::Unsupported };
        debug_assert_eq!(cmd.resolved.len(), cmd.effects.len(), "unresolved command {}", cmd.name);
        let mut changed = ChangedAttrs::NONE;
        for effect in &cmd.resolved {
            let position = match *effect {
                ResolvedEffect::Set { position, index } => {
                    self.assign(position as usize, index.map(usize::from))
                }
                ResolvedEffect::SetFromArg { position } => {
                    args.first().and_then(|arg| self.set_value_at(spec, position as usize, arg))
                }
                ResolvedEffect::Missing => None,
            };
            if let Some(position) = position {
                changed.push(position);
            }
        }
        if changed.len == 0 {
            CommandOutcome::NoChange
        } else {
            CommandOutcome::Changed(changed)
        }
    }

    /// Serializes the state into bytes for hashing by the model checker: the
    /// attribute indices followed by the online flag.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.values[..self.len as usize]);
        out.push(self.online as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_device() -> Device {
        Device::new(DeviceId(0), "frontDoorLock", "lock")
    }

    #[test]
    fn device_classification() {
        let lock = lock_device();
        assert!(lock.is_actuator());
        assert!(!lock.is_sensor());
        let motion = Device::new(DeviceId(1), "hallMotion", "motionSensor");
        assert!(motion.is_sensor());
        assert!(!motion.is_actuator());
        let thermostat = Device::new(DeviceId(2), "nest", "thermostat");
        assert!(thermostat.is_sensor() && thermostat.is_actuator());
    }

    #[test]
    fn initial_state_uses_defaults() {
        let lock = lock_device();
        let state = lock.initial_state();
        assert_eq!(state.get(lock.spec(), "lock"), Value::Str("locked".into()));
        assert!(state.is_online());
    }

    #[test]
    fn apply_command_changes_state_once() {
        let lock = lock_device();
        let spec = lock.spec();
        let mut state = lock.initial_state();
        let outcome = state.apply_command(spec, "unlock", &[]);
        assert!(
            matches!(outcome, CommandOutcome::Changed(c) if c.positions() == [spec.attribute_index("lock").unwrap() as u8])
        );
        assert_eq!(state.get(spec, "lock"), Value::Str("unlocked".into()));
        // Re-issuing the same command is a no-op (repeated command).
        assert_eq!(state.apply_command(spec, "unlock", &[]), CommandOutcome::NoChange);
    }

    #[test]
    fn unsupported_and_offline_commands() {
        let lock = lock_device();
        let spec = lock.spec();
        let mut state = lock.initial_state();
        assert_eq!(state.apply_command(spec, "explode", &[]), CommandOutcome::Unsupported);
        state.set_online(false);
        assert_eq!(state.apply_command(spec, "unlock", &[]), CommandOutcome::Offline);
        // State unchanged while offline.
        assert_eq!(state.get(spec, "lock"), Value::Str("locked".into()));
    }

    #[test]
    fn numeric_set_snaps_to_domain() {
        let dimmer = Device::new(DeviceId(3), "bedroom", "switchLevel");
        let spec = dimmer.spec();
        let mut state = dimmer.initial_state();
        let outcome = state.apply_command(spec, "setLevel", &[Value::Int(47)]);
        assert!(matches!(outcome, CommandOutcome::Changed(_)));
        // 47 snaps to the nearest discretized level, 50.
        assert_eq!(state.get(spec, "level"), Value::Int(50));
        // setLevel also turns the switch on.
        assert_eq!(state.get(spec, "switch"), Value::Str("on".into()));
    }

    #[test]
    fn set_rejects_unknown_values() {
        let lock = lock_device();
        let spec = lock.spec();
        let mut state = lock.initial_state();
        assert!(!state.set(spec, "lock", &Value::Str("ajar".into())));
        assert!(!state.set(spec, "nonexistent", &Value::Str("x".into())));
    }

    #[test]
    fn encode_includes_online_flag() {
        let lock = lock_device();
        let mut state = lock.initial_state();
        let mut a = Vec::new();
        state.encode_into(&mut a);
        state.set_online(false);
        let mut b = Vec::new();
        state.encode_into(&mut b);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn unknown_capability_falls_back_to_switch() {
        let exotic = Device::new(DeviceId(9), "weird", "quantumFluxCapacitor");
        assert_eq!(exotic.spec().capability, "switch");
    }
}
