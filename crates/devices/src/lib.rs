//! # iotsan-devices
//!
//! IoT device models for IotSan-rs (the Rust reproduction of *IotSan:
//! Fortifying the Safety of IoT Systems*, CoNEXT 2018, §8).
//!
//! The paper's Model Generator models every IoT device "as per their
//! specifications" with an event queue and a set of notifiers; it supports 30
//! device types and injects device/communication failures.  This crate is
//! the device half of that substrate; the pending-event queue is the
//! model's own (`iotsan::system::InternalEvent`):
//!
//! * [`capability`] — 30+ device-type specifications: attributes with finite
//!   (discretized) value domains, actuator commands and their effects, and
//!   the physical-event alphabet of each sensor;
//! * [`device`] — installed devices and their compact, hashable runtime state;
//! * [`failure`] — device-offline and communication-loss injection policies;
//! * [`environment`] — location modes and modelled system time.
//!
//! ```
//! use iotsan_devices::{Device, DeviceId, CommandOutcome};
//! use iotsan_ir::Value;
//!
//! let lock = Device::new(DeviceId(0), "frontDoor", "lock");
//! let mut state = lock.initial_state();
//! assert_eq!(state.get(lock.spec(), "lock"), Value::Str("locked".into()));
//! let outcome = state.apply_command(lock.spec(), "unlock", &[]);
//! assert!(matches!(outcome, CommandOutcome::Changed(_)));
//! ```

#![warn(missing_docs)]

pub mod capability;
pub mod device;
pub mod environment;
pub mod failure;

pub use capability::{
    registry, AttrDomain, AttributeSpec, CapabilityRegistry, CommandEffect, CommandSpec,
    DeviceKind, DeviceSpec,
};
pub use device::{ChangedAttrs, CommandOutcome, Device, DeviceId, DeviceState};
pub use environment::{LocationMode, SystemTime};
pub use failure::{FailureMode, FailurePolicy};
