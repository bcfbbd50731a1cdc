//! Device and communication failure injection.
//!
//! §8 of the paper: "To model natural or induced (e.g., using jamming)
//! device/communication failures, when generating a sensor event we enumerate
//! two scenarios: (i) the sensor is available/online and (ii) the sensor is
//! unavailable/offline. Similarly, whenever receiving a command from a smart
//! app, an actuator may be either online or offline. If a device is offline,
//! it will not change its state and hence not broadcast a state change event
//! to its subscribers. If a device is online, the communication between the
//! device and the hub/cloud may either succeed or fail."
//!
//! [`FailureMode`] enumerates those choices for one step; [`FailurePolicy`]
//! controls which choices the model checker explores.

use crate::device::DeviceId;
use std::fmt;

/// The failure choice attached to a single event-generation or
/// command-delivery step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureMode {
    /// Everything works: the device is online and the message is delivered.
    #[default]
    None,
    /// The device is offline (battery depleted, hardware fault); it neither
    /// changes state nor notifies subscribers.
    DeviceOffline,
    /// The device is online but the message between device and hub/cloud was
    /// lost (e.g. jamming); the state change or command never arrives.
    CommunicationLost,
}

impl FailureMode {
    /// All failure modes, in the order the checker enumerates them.
    pub const ALL: [FailureMode; 3] =
        [FailureMode::None, FailureMode::DeviceOffline, FailureMode::CommunicationLost];
}

impl fmt::Display for FailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureMode::None => write!(f, "ok"),
            FailureMode::DeviceOffline => write!(f, "device-offline"),
            FailureMode::CommunicationLost => write!(f, "comm-lost"),
        }
    }
}

/// Which failure scenarios the model checker explores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// No failures are injected (the first experiment set in §10.2).
    #[default]
    None,
    /// Enumerate every failure mode at every sensor-event and actuator-command
    /// step (the "with device/communication failures" experiments).
    Exhaustive,
    /// Only the listed devices may fail; all other steps proceed normally.
    /// Used to reproduce targeted scenarios such as Figure 8b (a single failed
    /// motion sensor).
    OnlyDevices(Vec<DeviceId>),
}

impl FailurePolicy {
    /// The failure modes to explore for a step involving `device`.  Returns
    /// a borrowed slice — the action enumerator calls this once per sensor
    /// event per expansion, and the choice sets are static.
    pub fn modes_for(&self, device: DeviceId) -> &'static [FailureMode] {
        const NO_FAILURE: [FailureMode; 1] = [FailureMode::None];
        match self {
            FailurePolicy::None => &NO_FAILURE,
            FailurePolicy::Exhaustive => &FailureMode::ALL,
            FailurePolicy::OnlyDevices(devices) => {
                if devices.contains(&device) {
                    &FailureMode::ALL
                } else {
                    &NO_FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_ok() {
        assert_eq!(FailureMode::default(), FailureMode::None);
    }

    #[test]
    fn policy_none_never_fails() {
        let p = FailurePolicy::None;
        assert_eq!(p.modes_for(DeviceId(0)), vec![FailureMode::None]);
    }

    #[test]
    fn policy_exhaustive_enumerates_all_modes() {
        let p = FailurePolicy::Exhaustive;
        assert_eq!(p.modes_for(DeviceId(7)).len(), 3);
    }

    #[test]
    fn policy_only_devices_is_targeted() {
        let p = FailurePolicy::OnlyDevices(vec![DeviceId(2)]);
        assert_eq!(p.modes_for(DeviceId(2)).len(), 3);
        assert_eq!(p.modes_for(DeviceId(3)), vec![FailureMode::None]);
    }

    #[test]
    fn display_labels() {
        assert_eq!(FailureMode::None.to_string(), "ok");
        assert_eq!(FailureMode::DeviceOffline.to_string(), "device-offline");
        assert_eq!(FailureMode::CommunicationLost.to_string(), "comm-lost");
    }
}
