//! # iotsan-groovy
//!
//! A from-scratch frontend for the Groovy subset used by Samsung SmartThings
//! smart apps, built for the IotSan-rs safety analyzer (Nguyen et al.,
//! *IotSan: Fortifying the Safety of IoT Systems*, CoNEXT 2018, §6).
//!
//! The crate provides:
//!
//! * a [`lexer`] producing a newline-aware token stream,
//! * a [`parser`] building a Groovy [`ast`] (closures, GStrings, list/map
//!   literals, command calls, trailing closures),
//! * a [`smartapp`] extraction layer that recovers the SmartThings DSL
//!   structure — `definition` metadata, `preferences` inputs, `subscribe`
//!   registrations and `schedule`/`runIn` timers — which downstream crates
//!   (the translator, the dependency analyzer and the model generator)
//!   consume.
//!
//! ```
//! use iotsan_groovy::SmartApp;
//!
//! let src = r#"
//! definition(name: "Brighten My Path", namespace: "st", author: "x", description: "turn on a light")
//! preferences {
//!     section("When motion...") { input "motionSensor", "capability.motionSensor" }
//!     section("Turn on...") { input "lights", "capability.switch", multiple: true }
//! }
//! def installed() {
//!     subscribe(motionSensor, "motion.active", motionActiveHandler)
//! }
//! def motionActiveHandler(evt) {
//!     lights.on()
//! }
//! "#;
//! let app = SmartApp::parse(src).expect("valid smart app");
//! assert_eq!(app.name(), "Brighten My Path");
//! assert_eq!(app.subscriptions.len(), 1);
//! assert_eq!(app.inputs.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod smartapp;
pub mod span;
pub mod token;

pub use ast::{Block, Expr, Item, MethodDecl, Script, Stmt};
pub use error::{ParseError, ParseErrorKind, Result};
pub use parser::{parse, parse_expression, EXPRESSION_COST, MAX_NESTING, STATEMENT_COST};
pub use smartapp::{
    AppMetadata, InputDecl, InputKind, ScheduleDecl, SmartApp, Subscription, SubscriptionSource,
};
pub use span::Span;
pub use token::{Token, TokenKind};
