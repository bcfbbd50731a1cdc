//! Snapshots of the physical system state and per-step observations.
//!
//! Safety properties are evaluated against two views produced by the model
//! generator after each external event is fully dispatched (Algorithm 1):
//!
//! * a [`Snapshot`] of the *physical* state — every device's attributes, the
//!   location mode and the modelled time — used by the 38 safe-physical-state
//!   invariants (Table 4);
//! * a [`StepObservation`] of what *happened* during the step — the commands
//!   each actuator received, messages sent, network calls, fake events and
//!   `unsubscribe` calls, plus failure bookkeeping — used by the conflicting/
//!   repeated-command, information-leakage and robustness properties.

use iotsan_devices::{registry, DeviceId};
use iotsan_ir::Value;
use std::borrow::Cow;
use std::sync::OnceLock;

/// The user-supplied *device association* (§7): what a generic device such as
/// a smart outlet actually controls in the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceRole {
    /// No special association.
    #[default]
    Generic,
    /// The outlet/switch powers a space heater.
    Heater,
    /// The outlet/switch powers an air conditioner.
    AirConditioner,
    /// A light fixture.
    Light,
    /// The lock on the main entrance door.
    MainDoorLock,
    /// A garage or entrance door controller.
    EntranceDoor,
    /// A siren/strobe alarm.
    Alarm,
    /// The main water shut-off valve.
    WaterValve,
    /// Lawn/garden sprinkler.
    Sprinkler,
    /// A coffee maker, oven or other heat-producing appliance.
    Appliance,
    /// A security camera.
    Camera,
}

impl DeviceRole {
    /// Parses the role names used in configuration files.
    pub fn parse(name: &str) -> DeviceRole {
        match name.trim().to_ascii_lowercase().as_str() {
            "heater" => DeviceRole::Heater,
            "ac" | "airconditioner" | "air_conditioner" | "air conditioner" => {
                DeviceRole::AirConditioner
            }
            "light" | "bulb" | "lamp" => DeviceRole::Light,
            "maindoorlock" | "main_door_lock" | "main door lock" | "frontdoorlock" => {
                DeviceRole::MainDoorLock
            }
            "entrancedoor" | "entrance_door" | "entrance door" | "garagedoor" => {
                DeviceRole::EntranceDoor
            }
            "alarm" | "siren" => DeviceRole::Alarm,
            "watervalve" | "water_valve" | "water valve" => DeviceRole::WaterValve,
            "sprinkler" => DeviceRole::Sprinkler,
            "appliance" | "coffeemaker" | "oven" => DeviceRole::Appliance,
            "camera" => DeviceRole::Camera,
            _ => DeviceRole::Generic,
        }
    }
}

/// The state of one device inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// System identifier.
    pub id: DeviceId,
    /// User label (e.g. `myHeaterOutlet`).
    pub label: String,
    /// Capability name (e.g. `switch`, `lock`, `smokeDetector`).
    pub capability: String,
    /// User-supplied association.
    pub role: DeviceRole,
    /// Attribute values.
    pub attributes: Vec<(String, Value)>,
    /// Whether the device is online.
    pub online: bool,
}

impl DeviceSnapshot {
    /// The value of an attribute, if present.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// True when `attribute == value` (loose comparison, allocation-free).
    pub fn attr_is(&self, attribute: &str, value: &str) -> bool {
        self.attr(attribute).map(|v| v.eq_str(value)).unwrap_or(false)
    }

    /// Numeric value of an attribute, if it has one.
    pub fn attr_number(&self, attribute: &str) -> Option<f64> {
        self.attr(attribute).and_then(|v| v.as_number())
    }
}

/// A complete physical-state snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Current location mode (`Home`, `Away`, `Night`).
    pub mode: String,
    /// Every installed device.
    pub devices: Vec<DeviceSnapshot>,
    /// Modelled time in seconds.
    pub time_seconds: u64,
}

impl Snapshot {
    /// Devices with the given capability.
    pub fn by_capability<'a>(
        &'a self,
        capability: &'a str,
    ) -> impl Iterator<Item = &'a DeviceSnapshot> {
        self.devices.iter().filter(move |d| d.capability == capability)
    }

    /// Devices with the given role.
    pub fn by_role(&self, role: DeviceRole) -> impl Iterator<Item = &DeviceSnapshot> {
        self.devices.iter().filter(move |d| d.role == role)
    }

    /// True when any presence sensor reports `present`.  When the system has
    /// no presence sensor, the location mode is used as a proxy (the paper's
    /// properties treat mode `Away` as "no one at home").
    pub fn anyone_home(&self) -> bool {
        let mut has_sensor = false;
        for sensor in self.by_capability("presenceSensor") {
            has_sensor = true;
            if sensor.attr_is("presence", "present") {
                return true;
            }
        }
        if has_sensor {
            false
        } else {
            !self.mode.eq_ignore_ascii_case("away")
        }
    }

    /// True when the home is in sleeping mode.
    pub fn sleeping(&self) -> bool {
        self.mode.eq_ignore_ascii_case("night")
    }

    /// True when any device playing the given role has `attribute == value`.
    pub fn role_attr_is(&self, role: DeviceRole, attribute: &str, value: &str) -> bool {
        self.by_role(role).any(|d| d.attr_is(attribute, value))
    }
}

/// A command name resolved to a small integer, so the step detectors compare
/// integers instead of names.
///
/// Every name a built-in device spec defines or a conflicting pair names has
/// its own code, fixed for the process; any other name is
/// [`CommandCode::OTHER`], and records carrying it are told apart by name.
/// Resolve a code once, where the command is installed, never per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommandCode(u8);

/// The coded names and the conflict relation over their codes.
struct CommandTable {
    names: Vec<&'static str>,
    /// Bit `j` of `conflicts[i]` set when codes `i` and `j` conflict.
    conflicts: Vec<u64>,
}

fn command_table() -> &'static CommandTable {
    static TABLE: OnceLock<CommandTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut names: Vec<&'static str> = Vec::new();
        let pair_names = CONFLICTING_PAIRS.iter().flat_map(|(a, b)| [*a, *b]);
        let spec_names =
            registry().specs().iter().flat_map(|spec| spec.commands.iter().map(|c| c.name));
        for name in pair_names.chain(spec_names) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        assert!(names.len() <= 64, "command codes are limited to 64 names");
        let code = |name: &str| names.iter().position(|n| *n == name).expect("coded name");
        let mut conflicts = vec![0u64; names.len()];
        for (a, b) in CONFLICTING_PAIRS {
            let (a, b) = (code(a), code(b));
            conflicts[a] |= 1 << b;
            conflicts[b] |= 1 << a;
        }
        CommandTable { names, conflicts }
    })
}

impl CommandCode {
    /// The code of every name outside the table.
    pub const OTHER: CommandCode = CommandCode(u8::MAX);

    /// The code of a command name (a scan of the table: call it when the
    /// command is installed, not per step).
    pub fn of(name: &str) -> CommandCode {
        command_table()
            .names
            .iter()
            .position(|n| *n == name)
            .map_or(CommandCode::OTHER, |i| CommandCode(i as u8))
    }

    /// True when the two commands cancel each other on one actuator.
    #[inline]
    pub fn conflicts_with(self, other: CommandCode) -> bool {
        command_table()
            .conflicts
            .get(self.0 as usize)
            .is_some_and(|mask| mask.checked_shr(u32::from(other.0)).is_some_and(|m| m & 1 != 0))
    }
}

/// One actuator command observed during a step.
///
/// Recorded for every command the model checker's interpreter sends, so it
/// carries no owned strings on that path: the command name borrows the
/// device spec's `'static` name, and only a command the target's spec does
/// not define is owned.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    /// Target device.
    pub device: DeviceId,
    /// Command name (`on`, `off`, `lock`, ...).
    pub command: Cow<'static, str>,
    /// `CommandCode::of(&command)`, resolved where the command was installed.
    pub code: CommandCode,
    /// Whether the command was actually delivered (false under failure).
    pub delivered: bool,
    /// Whether the command changed the device state (false = repeated/no-op).
    pub changed_state: bool,
}

impl CommandRecord {
    /// A record of `command`, resolving its code.
    pub fn new(
        device: DeviceId,
        command: impl Into<Cow<'static, str>>,
        delivered: bool,
        changed_state: bool,
    ) -> Self {
        let command = command.into();
        let code = CommandCode::of(&command);
        CommandRecord { device, command, code, delivered, changed_state }
    }

    /// True when both records name the same command: equal codes, and for
    /// names outside the code table, equal names.
    #[inline]
    pub(crate) fn same_command(&self, other: &CommandRecord) -> bool {
        self.code == other.code
            && (self.code != CommandCode::OTHER || self.command == other.command)
    }
}

/// A user-facing message sent during a step.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRecord {
    /// The app that sent it.
    pub app: String,
    /// `sms` or `push`.
    pub channel: MessageChannel,
    /// SMS recipient (empty for push messages).
    pub recipient: String,
    /// Message body.
    pub body: String,
}

/// Message channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageChannel {
    /// `sendSms` / `sendSmsMessage`.
    Sms,
    /// `sendPush` / notifications.
    Push,
}

/// A network request observed during a step (information can leak here).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRecord {
    /// The app that made the call.
    pub app: String,
    /// Destination URL.
    pub url: String,
    /// Whether the user allowed this app to use network interfaces.
    pub allowed: bool,
}

/// A synthetic event raised by an app via `sendEvent`.
#[derive(Debug, Clone, PartialEq)]
pub struct FakeEventRecord {
    /// The app that raised it.
    pub app: String,
    /// The claimed attribute (e.g. `smoke`).
    pub attribute: String,
    /// The claimed value (e.g. `detected`).
    pub value: String,
}

/// Everything observed while dispatching one external event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepObservation {
    /// Actuator commands issued by handlers during the step.
    pub commands: Vec<CommandRecord>,
    /// Messages sent to the user.
    pub messages: Vec<MessageRecord>,
    /// Network requests.
    pub network: Vec<NetworkRecord>,
    /// Synthetic events raised by apps.
    pub fake_events: Vec<FakeEventRecord>,
    /// Apps that called `unsubscribe` during the step.
    pub unsubscribes: Vec<String>,
    /// The phone number(s) the user configured as legitimate SMS recipients.
    pub configured_recipients: Vec<String>,
    /// Whether any command in this step was lost to a device/communication
    /// failure.
    pub command_failures: usize,
}

impl StepObservation {
    /// Clears every per-step record while keeping buffer capacities and the
    /// configured recipients (which belong to the system, not the step).
    /// The model generator reuses one observation per search worker, so the
    /// hot loop allocates nothing here after warm-up.
    pub fn reset(&mut self) {
        self.commands.clear();
        self.messages.clear();
        self.network.clear();
        self.fake_events.clear();
        self.unsubscribes.clear();
        self.command_failures = 0;
    }

    /// True when the step sent an SMS to a recipient that is not one of the
    /// configured phone numbers (potential leakage, §3).
    pub fn sms_recipient_mismatch(&self) -> bool {
        self.messages.iter().any(|m| {
            m.channel == MessageChannel::Sms
                && !m.recipient.is_empty()
                && !self.configured_recipients.iter().any(|r| r == &m.recipient)
        })
    }
}

/// Commands that cancel each other when sent to the same actuator.
const CONFLICTING_PAIRS: &[(&str, &str)] = &[
    ("on", "off"),
    ("lock", "unlock"),
    ("open", "close"),
    ("siren", "off"),
    ("strobe", "off"),
    ("both", "off"),
    ("heat", "cool"),
    ("play", "stop"),
    ("mute", "unmute"),
];

/// True when one actuator received two conflicting commands in the step.
pub fn has_conflicting_commands(step: &StepObservation) -> bool {
    // Direct pair scan (same device, i < j): equivalent to grouping by
    // device first, but allocation-free — this runs on every explored
    // transition and step command counts are tiny.
    let cmds = &step.commands;
    for i in 0..cmds.len() {
        for j in (i + 1)..cmds.len() {
            if cmds[i].device == cmds[j].device && cmds[i].code.conflicts_with(cmds[j].code) {
                return true;
            }
        }
    }
    false
}

/// True when one actuator received the same command more than once in the step.
pub fn has_repeated_commands(step: &StepObservation) -> bool {
    let cmds = &step.commands;
    for i in 0..cmds.len() {
        for j in (i + 1)..cmds.len() {
            if cmds[i].device == cmds[j].device && cmds[i].same_command(&cmds[j]) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(
        id: u32,
        label: &str,
        capability: &str,
        role: DeviceRole,
        attrs: &[(&str, &str)],
    ) -> DeviceSnapshot {
        DeviceSnapshot {
            id: DeviceId(id),
            label: label.into(),
            capability: capability.into(),
            role,
            attributes: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Str(v.to_string())))
                .collect(),
            online: true,
        }
    }

    #[test]
    fn role_parsing() {
        assert_eq!(DeviceRole::parse("AC"), DeviceRole::AirConditioner);
        assert_eq!(DeviceRole::parse("main door lock"), DeviceRole::MainDoorLock);
        assert_eq!(DeviceRole::parse("whatever"), DeviceRole::Generic);
    }

    #[test]
    fn anyone_home_uses_presence_then_mode() {
        let mut snap = Snapshot {
            mode: "Away".into(),
            devices: vec![dev(
                0,
                "alice",
                "presenceSensor",
                DeviceRole::Generic,
                &[("presence", "present")],
            )],
            time_seconds: 0,
        };
        assert!(snap.anyone_home());
        snap.devices[0].attributes[0].1 = Value::Str("not present".into());
        assert!(!snap.anyone_home());
        // Without presence sensors, the mode decides.
        snap.devices.clear();
        assert!(!snap.anyone_home());
        snap.mode = "Home".into();
        assert!(snap.anyone_home());
    }

    #[test]
    fn role_attr_lookup() {
        let snap = Snapshot {
            mode: "Home".into(),
            devices: vec![
                dev(0, "heaterOutlet", "switch", DeviceRole::Heater, &[("switch", "on")]),
                dev(1, "acOutlet", "switch", DeviceRole::AirConditioner, &[("switch", "off")]),
            ],
            time_seconds: 0,
        };
        assert!(snap.role_attr_is(DeviceRole::Heater, "switch", "on"));
        assert!(!snap.role_attr_is(DeviceRole::AirConditioner, "switch", "on"));
    }

    #[test]
    fn observation_reset_clears_step_records_but_keeps_recipients() {
        let mut obs = StepObservation {
            commands: vec![CommandRecord::new(DeviceId(0), "on", true, true)],
            unsubscribes: vec!["A".into()],
            configured_recipients: vec!["5551234".into()],
            command_failures: 2,
            ..Default::default()
        };
        obs.reset();
        assert!(obs.commands.is_empty());
        assert!(obs.unsubscribes.is_empty());
        assert_eq!(obs.command_failures, 0);
        // Recipients belong to the system, not the step.
        assert_eq!(obs.configured_recipients, vec!["5551234".to_string()]);
    }

    #[test]
    fn conflicting_and_repeated_commands_detected() {
        let cmd = |device: u32, command: &'static str| {
            CommandRecord::new(DeviceId(device), command, true, true)
        };
        let step =
            StepObservation { commands: vec![cmd(0, "on"), cmd(0, "off")], ..Default::default() };
        assert!(has_conflicting_commands(&step));
        // Different devices do not conflict.
        let step =
            StepObservation { commands: vec![cmd(0, "on"), cmd(1, "off")], ..Default::default() };
        assert!(!has_conflicting_commands(&step));
        // Same direction commands do not conflict (they repeat).
        let step =
            StepObservation { commands: vec![cmd(0, "on"), cmd(0, "on")], ..Default::default() };
        assert!(!has_conflicting_commands(&step));
        assert!(has_repeated_commands(&step));
        // Pairs are symmetric.
        let step = StepObservation {
            commands: vec![cmd(3, "unlock"), cmd(3, "lock")],
            ..Default::default()
        };
        assert!(has_conflicting_commands(&step));
    }

    #[test]
    fn command_codes_match_the_named_relation() {
        // The coded relation is the name-pair relation, symmetric, on every
        // pair of coded names and a name outside the table.
        let mut names: Vec<&str> = command_table().names.clone();
        names.push("notASpecCommand");
        for a in &names {
            for b in &names {
                let named =
                    CONFLICTING_PAIRS.iter().any(|(x, y)| (a == x && b == y) || (a == y && b == x));
                assert_eq!(CommandCode::of(a).conflicts_with(CommandCode::of(b)), named, "{a} {b}");
            }
        }
        assert_eq!(CommandCode::of("notASpecCommand"), CommandCode::OTHER);
        // Names outside the table repeat only when the names are equal.
        let cmd = |command: &str| CommandRecord::new(DeviceId(0), command.to_string(), true, false);
        assert!(cmd("fooBar").same_command(&cmd("fooBar")));
        assert!(!cmd("fooBar").same_command(&cmd("bazQux")));
        assert!(cmd("on").same_command(&cmd("on")));
        assert!(!cmd("on").same_command(&cmd("off")));
    }

    #[test]
    fn sms_recipient_mismatch_detection() {
        let mut obs = StepObservation {
            messages: vec![MessageRecord {
                app: "A".into(),
                channel: MessageChannel::Sms,
                recipient: "5551234".into(),
                body: "hello".into(),
            }],
            configured_recipients: vec!["5551234".into()],
            ..Default::default()
        };
        assert!(!obs.sms_recipient_mismatch());
        obs.messages[0].recipient = "6669999".into();
        assert!(obs.sms_recipient_mismatch());
    }
}
