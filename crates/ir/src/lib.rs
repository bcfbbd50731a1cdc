//! # iotsan-ir
//!
//! The intermediate representation at the heart of IotSan-rs
//! (the Rust reproduction of *IotSan: Fortifying the Safety of IoT Systems*,
//! CoNEXT 2018).
//!
//! The paper's Translator (§6) converts SmartThings Groovy into Java ASTs for
//! Bandera and finally Promela for Spin.  Here the Groovy AST produced by
//! [`iotsan_groovy`] is lowered directly into a compact IR, which the model
//! generator interprets and the explicit-state checker explores in place of
//! the Promela model:
//!
//! * [`types`] — the dynamic [`Value`] domain handlers are interpreted over;
//! * [`expr`] / [`stmt`] — side-effect-free expressions and handler actions
//!   (device commands, messaging, scheduling, control flow);
//! * [`handler`] — translated apps ([`IrApp`]) and handlers ([`IrHandler`])
//!   with their [`Trigger`]s;
//! * [`intern`] — the [`Symbols`] string interner ([`Sym`] handles) the model
//!   generator uses to keep names out of the exploration hot loop;
//! * [`lower`] — the Groovy → IR translation, including desugaring of
//!   Groovy's collection utilities and inlining of helper methods.
//!
//! ```
//! use iotsan_groovy::SmartApp;
//! use iotsan_ir::{lower_app, Trigger};
//!
//! let src = r#"
//! definition(name: "Let There Be Dark!", namespace: "st", author: "x", description: "d")
//! preferences {
//!     section("contact") { input "contact1", "capability.contactSensor" }
//!     section("switches") { input "switches", "capability.switch", multiple: true }
//! }
//! def installed() { subscribe(contact1, "contact", contactHandler) }
//! def contactHandler(evt) {
//!     if (evt.value == "open") { switches.on() } else { switches.off() }
//! }
//! "#;
//! let app = lower_app(&SmartApp::parse(src).unwrap()).unwrap();
//! assert_eq!(app.handlers.len(), 1);
//! assert!(matches!(app.handlers[0].trigger, Trigger::Device { .. }));
//! ```

#![deny(missing_docs)]

pub mod expr;
pub mod handler;
pub mod intern;
pub mod lower;
pub mod stmt;
pub mod types;

pub use expr::{EventField, IrBinOp, IrExpr, Quantifier};
pub use handler::{AppInput, IrApp, IrHandler, SettingKind, Trigger};
pub use intern::{Sym, Symbols};
pub use lower::{lower_app, LowerError};
pub use stmt::{HttpMethod, IrStmt};
pub use types::Value;
