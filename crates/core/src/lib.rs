//! # iotsan
//!
//! IotSan-rs: a from-scratch Rust reproduction of *IotSan: Fortifying the
//! Safety of IoT Systems* (Nguyen et al., CoNEXT 2018).
//!
//! IotSan takes a holistic view of an event-driven IoT system — the installed
//! smart apps, the sensors and actuators they are configured with, and the
//! way events chain between them — and uses explicit-state model checking to
//! find event sequences that drive the system into unsafe physical states,
//! leak information, or break under device/communication failures.  Detected
//! violations are attributed to malicious apps, bad apps, or
//! misconfigurations.
//!
//! This crate is the pipeline tying the substrates together:
//!
//! * [`pipeline::translate_sources`] — SmartThings Groovy → IR
//!   (via `iotsan-groovy` and `iotsan-ir`);
//! * [`depgraph::analyze`] — related-set computation (`iotsan-depgraph`);
//! * [`model::SequentialModel`] / [`model::ConcurrentModel`] — the Model
//!   Generator (§8, Algorithm 1) over `iotsan-devices`, checked by
//!   `iotsan-checker` against the 45 properties of `iotsan-properties`;
//! * [`pipeline::Pipeline::attribute_new_app`] — the Output Analyzer (§9) via
//!   `iotsan-attribution` and configuration enumeration from `iotsan-config`;
//! * [`pipeline::Pipeline::verify`] / [`pipeline::Pipeline::verify_fleet`]
//!   via [`planner::VerificationPlanner`] — group-wise fleet checking with a
//!   content-addressed result cache and trace-driven suspect ranking, both
//!   returning one [`planner::FleetReport`] (`verify` with a fresh cache);
//! * [`features`] — the Table 1 feature matrix.
//!
//! ```
//! use iotsan::{translate_sources, Pipeline};
//! use iotsan_config::{expert_configure, standard_household};
//!
//! let sources = [r#"
//! definition(name: "Brighten My Path", namespace: "st", author: "x", description: "d")
//! preferences {
//!     section("s") { input "motionSensor", "capability.motionSensor" }
//!     section("s") { input "lights", "capability.switch", multiple: true }
//! }
//! def installed() { subscribe(motionSensor, "motion.active", onMotion) }
//! def onMotion(evt) { lights.on() }
//! "#];
//! let apps = translate_sources(&sources).unwrap();
//! let config = expert_configure(&apps, &standard_household());
//! let result = Pipeline::with_events(2).verify(&apps, &config);
//! assert!(!result.has_violations());
//! ```

#![deny(missing_docs)]

mod classes;
pub mod features;
pub mod interp;
pub mod logevent;
pub mod model;
pub mod pipeline;
pub mod planner;
mod resolve;
pub mod system;

pub use features::{comparison_matrix, render_table1, SystemFeatures, FEATURES};
pub use interp::{run_handler, DispatchedEvent, Frame};
pub use logevent::LogEvent;
pub use model::{
    ConcurrentAction, ConcurrentModel, ExternalAction, ModelOptions, ModelScratch, SequentialModel,
};
pub use pipeline::{translate_sources, GroupResult, Pipeline, TranslateError};
pub use planner::{
    Fingerprint, FleetGroupReport, FleetPlan, FleetReport, GroupJob, GroupOutcome, PlanCache,
    VerdictPersistence, VerificationCache, VerificationPlanner,
};
pub use system::{InstalledSystem, InternalEvent, SystemState};

// Re-export the sibling crates so downstream users (examples, the
// reproduction harness) need only depend on `iotsan`.
pub use iotsan_analysis as analysis;
pub use iotsan_attribution as attribution;
pub use iotsan_checker as checker;
pub use iotsan_config as config;
pub use iotsan_depgraph as depgraph;
pub use iotsan_devices as devices;
pub use iotsan_groovy as groovy;
pub use iotsan_ir as ir;
pub use iotsan_properties as properties;
