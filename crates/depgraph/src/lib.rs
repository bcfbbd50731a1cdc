//! # iotsan-depgraph
//!
//! The App Dependency Analyzer of IotSan-rs (the Rust reproduction of
//! *IotSan: Fortifying the Safety of IoT Systems*, CoNEXT 2018, §5).
//!
//! The model checker should not have to check interactions between event
//! handlers that do not interact.  This crate extracts each handler's input
//! and output events, builds the dependency graph, merges strongly connected
//! components, computes the *related sets* that must be verified jointly
//! (ancestor closures of leaf vertices, merged across conflicting outputs,
//! with redundant subsets removed) and reports the scale ratio that Table 7a
//! of the paper quantifies (mean ≈ 3.4× problem-size reduction).
//!
//! ```
//! use iotsan_depgraph::analyze;
//! # use iotsan_ir::{AppInput, IrApp, IrHandler, IrStmt, Trigger};
//! # let app = IrApp {
//! #     name: "Brighten My Path".into(),
//! #     description: String::new(),
//! #     inputs: vec![AppInput::device("motion", "motionSensor"), AppInput::device("lights", "switch")],
//! #     handlers: vec![IrHandler {
//! #         app: "Brighten My Path".into(),
//! #         name: "onMotion".into(),
//! #         trigger: Trigger::Device { input: "motion".into(), attribute: "motion".into(), value: Some("active".into()) },
//! #         body: vec![IrStmt::DeviceCommand { input: "lights".into(), command: "on".into(), args: vec![] }],
//! #     }],
//! #     state_vars: vec![],
//! #     dynamic_discovery: false,
//! # };
//! let (graph, sets) = analyze(&[app]);
//! assert_eq!(graph.len(), 1);
//! assert_eq!(sets.len(), 1);
//! ```

#![deny(missing_docs)]

pub mod events;
pub mod graph;

pub use events::{effect_profile, EventDesc, EventProfile};
pub use graph::{analyze, render_summary, DependencyGraph, RelatedSets, Vertex, VertexId};
