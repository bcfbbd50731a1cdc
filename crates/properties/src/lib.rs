//! # iotsan-properties
//!
//! The open safety-property subsystem of IotSan-rs (the Rust reproduction of
//! *IotSan: Fortifying the Safety of IoT Systems*, CoNEXT 2018, §8 and
//! Table 4).
//!
//! IotSan treats properties as user-supplied inputs; this crate provides the
//! declarative specification language they are written in and the compiler
//! that turns them into the checker's zero-allocation evaluators:
//!
//! * [`spec`] — the [`PropertySpec`] language: boolean formulas ([`Expr`])
//!   over device/mode/step predicates ([`Atom`]) under temporal modalities
//!   ([`Modality`]: always / never / leads-to-within-k), serde-loadable from
//!   JSON and buildable with [`PropertySpec::builder`];
//! * [`builtins`] — the paper's 45-property corpus (1 conflicting-commands,
//!   1 repeated-commands, 38 physical-state invariants, 4 security,
//!   1 robustness), expressed as plain specs;
//! * [`registry`] — the [`PropertySet`] of specs selected for one run, with
//!   content hashing for the verification cache;
//! * [`compile`] — install-time compilation into [`CompiledPropertySet`]
//!   programs over the checker's state vector (atoms become domain-index
//!   masks, constants fold away whole properties, programs run on a bit
//!   stack; leads-to obligations live in checker-state monitor counters);
//! * [`snapshot`] — the physical [`Snapshot`] the interpreted reference
//!   reads and the per-step [`StepObservation`] both evaluators read.
//!
//! ```
//! use iotsan_properties::{PropertySet, Snapshot, StepObservation};
//!
//! let set = PropertySet::all();
//! assert_eq!(set.len(), 45);
//! // An empty home violates nothing.
//! assert!(set.check_point(&Snapshot::default(), &StepObservation::default()).is_empty());
//! ```
//!
//! Defining a custom property takes a handful of lines:
//!
//! ```
//! use iotsan_properties::{DeviceSelect, Expr, PropertySet, PropertySpec};
//!
//! let spec = PropertySpec::builder(46, "No unlock command while sleeping")
//!     .category("Custom")
//!     .never(Expr::and([
//!         Expr::mode_is("Night"),
//!         Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
//!     ]));
//! let set = PropertySet::all().with(spec);
//! assert_eq!(set.len(), 46);
//! ```

#![warn(missing_docs)]

pub mod builtins;
pub mod compile;
pub mod registry;
pub mod snapshot;
pub mod spec;

pub use builtins::paper_properties;
pub use compile::{
    CompileTarget, CompiledProperty, CompiledPropertySet, EvalScratch, TargetDevice,
};
pub use registry::{DuplicatePropertyId, PropertySet};
pub use snapshot::{
    has_conflicting_commands, has_repeated_commands, CommandCode, CommandRecord, DeviceRole,
    DeviceSnapshot, FakeEventRecord, MessageChannel, MessageRecord, NetworkRecord, Snapshot,
    StepObservation,
};
pub use spec::{
    Atom, AttrTest, CommandTest, ContentHasher, DeviceSelect, Expr, LeadsTo, Modality, NumericTest,
    PropertyClass, PropertyId, PropertySpec, PropertySpecBuilder, MAX_FORMULA_DEPTH,
};
