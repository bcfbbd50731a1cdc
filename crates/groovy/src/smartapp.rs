//! SmartThings DSL extraction.
//!
//! SmartThings extends Groovy with app-level declarations that are not part of
//! the base language: `definition(...)` metadata, `preferences { section {
//! input ... } }` configuration blocks, `subscribe`/`schedule`/`runIn`
//! registration calls and implicit objects (`location`, `state`, `settings`,
//! `app`).  This module walks the parsed AST and recovers that structure, which
//! is what the Translator (§6 of the paper) calls the *SmartThings Handler*.

use crate::ast::{walk_stmt_exprs, Arg, Expr, Item, Script, Stmt};
use crate::error::{ParseError, Result};
use crate::parser::parse;
use crate::span::Span;

/// Metadata from the `definition(...)` call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppMetadata {
    /// App name, e.g. `"Virtual Thermostat"`.
    pub name: String,
    /// Namespace (vendor).
    pub namespace: String,
    /// Author string.
    pub author: String,
    /// Free-form description shown to the user at install time.
    pub description: String,
    /// Category string, if present.
    pub category: String,
}

/// The declared kind of a `preferences` input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// A device selection bound to a capability, e.g.
    /// `capability.temperatureMeasurement`.
    Capability(String),
    /// `"number"` — integer value.
    Number,
    /// `"decimal"` — decimal value.
    Decimal,
    /// `"bool"` — boolean toggle.
    Bool,
    /// `"text"` — free text.
    Text,
    /// `"enum"` — one of a fixed set of options.
    Enum(Vec<String>),
    /// `"time"` — time of day.
    Time,
    /// `"phone"` — phone number for SMS.
    Phone,
    /// `"contact"` — contact-book recipients.
    Contact,
    /// `"mode"` — a location mode selection.
    Mode,
    /// `"hub"` or other device-less kinds we do not interpret further.
    Other(String),
}

impl InputKind {
    /// Parses the second positional argument of an `input` declaration.
    pub fn from_decl(kind: &str, options: Option<Vec<String>>) -> InputKind {
        if let Some(cap) = kind.strip_prefix("capability.") {
            return InputKind::Capability(cap.to_string());
        }
        match kind {
            "number" => InputKind::Number,
            "decimal" => InputKind::Decimal,
            "bool" | "boolean" => InputKind::Bool,
            "text" | "string" => InputKind::Text,
            "enum" => InputKind::Enum(options.unwrap_or_default()),
            "time" => InputKind::Time,
            "phone" => InputKind::Phone,
            "contact" => InputKind::Contact,
            "mode" => InputKind::Mode,
            other => InputKind::Other(other.to_string()),
        }
    }
}

/// A single `input` declaration from the `preferences` block (Figure 1 of the
/// paper shows seven of these for Virtual Thermostat).
#[derive(Debug, Clone, PartialEq)]
pub struct InputDecl {
    /// The settings variable name this input defines (a global of the app).
    pub name: String,
    /// What kind of value the user supplies.
    pub kind: InputKind,
    /// The title shown in the companion app.
    pub title: String,
    /// Whether multiple devices may be selected.
    pub multiple: bool,
    /// Whether the input must be configured (defaults to true).
    pub required: bool,
    /// Source span of the declaration.
    pub span: Span,
}

/// The source of events for a subscription.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubscriptionSource {
    /// A device input variable declared in `preferences`.
    DeviceInput(String),
    /// The implicit `location` object (mode changes, sunrise/sunset).
    Location,
    /// The implicit `app` object (app touch events).
    App,
}

/// A `subscribe(source, "attribute.value", handler)` registration.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Where events come from.
    pub source: SubscriptionSource,
    /// The attribute of interest, e.g. `motion`, `contact`, `mode`, `touch`.
    pub attribute: String,
    /// A specific event value (e.g. `open`), or `None` for any value.
    pub value: Option<String>,
    /// The name of the handler method invoked when the event fires.
    pub handler: String,
    /// Source span of the `subscribe` call.
    pub span: Span,
}

/// A scheduled callback: `schedule(cron, handler)`, `runIn(seconds, handler)`
/// or one of the `runEveryNMinutes(handler)` helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDecl {
    /// The handler method name.
    pub handler: String,
    /// Delay in seconds for `runIn`, or `None` for cron-style schedules.
    pub delay_seconds: Option<i64>,
    /// The raw cron expression for `schedule`, if any.
    pub cron: Option<String>,
    /// Source span.
    pub span: Span,
}

/// A fully-extracted SmartThings smart app: parsed AST plus the DSL-level
/// structure needed by the dependency analyzer and the translator.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartApp {
    /// App metadata from `definition(...)`.
    pub metadata: AppMetadata,
    /// Inputs declared in `preferences`.
    pub inputs: Vec<InputDecl>,
    /// Event subscriptions registered in lifecycle methods.
    pub subscriptions: Vec<Subscription>,
    /// Scheduled callbacks.
    pub schedules: Vec<ScheduleDecl>,
    /// The underlying parsed script.
    pub script: Script,
}

impl SmartApp {
    /// Parses `source` and extracts the SmartThings structure.
    pub fn parse(source: &str) -> Result<SmartApp> {
        let script = parse(source)?;
        extract(script)
    }

    /// The app's display name (falls back to `"<unnamed app>"`).
    pub fn name(&self) -> &str {
        if self.metadata.name.is_empty() {
            "<unnamed app>"
        } else {
            &self.metadata.name
        }
    }
}

/// Extracts SmartThings DSL structure from a parsed script.
pub fn extract(script: Script) -> Result<SmartApp> {
    let mut metadata = AppMetadata::default();
    let mut inputs = Vec::new();

    for item in &script.items {
        let Item::Stmt(Stmt::Expr(expr)) = item else { continue };
        if let Expr::MethodCall { name, args, closure, .. } = expr {
            match name.as_str() {
                "definition" => metadata = extract_definition(args),
                "preferences" => {
                    if let Some(body) = closure.as_deref() {
                        collect_inputs(body, &mut inputs)?;
                    }
                }
                _ => {}
            }
        }
    }

    // Subscriptions and schedules can be registered anywhere, but by
    // convention live in installed()/updated()/initialize().  We scan every
    // method so that apps which subscribe from helpers are still covered.
    let mut subscriptions = Vec::new();
    let mut schedules = Vec::new();
    for method in script.methods() {
        for stmt in &method.body.stmts {
            collect_registrations(stmt, &mut subscriptions, &mut schedules);
        }
    }

    Ok(SmartApp { metadata, inputs, subscriptions, schedules, script })
}

fn extract_definition(args: &[Arg]) -> AppMetadata {
    let mut md = AppMetadata::default();
    for arg in args {
        if let Arg::Named(key, value) = arg {
            let text = value.as_str().unwrap_or("").to_string();
            match key.as_str() {
                "name" => md.name = text,
                "namespace" => md.namespace = text,
                "author" => md.author = text,
                "description" => md.description = text,
                "category" => md.category = text,
                _ => {}
            }
        }
    }
    md
}

/// Recursively collects `input` declarations from a `preferences` closure,
/// descending through `section(...) { ... }` and `page(...) { ... }` nesting.
fn collect_inputs(expr: &Expr, out: &mut Vec<InputDecl>) -> Result<()> {
    let Expr::Closure { body, .. } = expr else { return Ok(()) };
    for stmt in &body.stmts {
        let Stmt::Expr(Expr::MethodCall { name, args, closure, span, .. }) = stmt else {
            continue;
        };
        match name.as_str() {
            "input" => out.push(parse_input_decl(args, *span)?),
            "section" | "page" | "dynamicPage" => {
                if let Some(inner) = closure.as_deref() {
                    collect_inputs(inner, out)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn parse_input_decl(args: &[Arg], span: Span) -> Result<InputDecl> {
    let positional: Vec<&Expr> = args
        .iter()
        .filter_map(|a| match a {
            Arg::Positional(e) => Some(e),
            Arg::Named(_, _) => None,
        })
        .collect();
    let name = positional
        .first()
        .and_then(|e| e.as_str())
        .ok_or_else(|| ParseError::new("input declaration missing a name", span))?
        .to_string();
    let kind_str = positional
        .get(1)
        .and_then(|e| e.as_str())
        .ok_or_else(|| ParseError::new("input declaration missing a kind", span))?;

    let mut title = String::new();
    let mut multiple = false;
    let mut required = true;
    let mut options: Option<Vec<String>> = None;
    for arg in args {
        if let Arg::Named(key, value) = arg {
            match key.as_str() {
                "title" => title = value.as_str().unwrap_or("").to_string(),
                "multiple" => multiple = matches!(value, Expr::Bool(true, _)),
                "required" => required = !matches!(value, Expr::Bool(false, _)),
                "options" => {
                    if let Expr::ListLit(items, _) = value {
                        options = Some(
                            items.iter().filter_map(|e| e.as_str().map(str::to_string)).collect(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    Ok(InputDecl {
        name,
        kind: InputKind::from_decl(kind_str, options),
        title,
        multiple,
        required,
        span,
    })
}

/// Collects `subscribe`/`schedule`/`runIn`/`runEvery*` calls reachable from a
/// statement, including calls nested in conditionals and closures.
fn collect_registrations(
    stmt: &Stmt,
    subs: &mut Vec<Subscription>,
    scheds: &mut Vec<ScheduleDecl>,
) {
    walk_stmt_exprs(stmt, &mut |expr| {
        let Expr::MethodCall { object, name, args, span, .. } = expr else { return };
        if object.is_some() {
            return;
        }
        match name.as_str() {
            "subscribe" => {
                if let Some(sub) = parse_subscribe(args, *span) {
                    subs.push(sub);
                }
            }
            "schedule" => {
                let cron = args.first().and_then(|a| a.expr().as_str()).map(str::to_string);
                if let Some(handler) = handler_name(args.get(1)) {
                    scheds.push(ScheduleDecl { handler, delay_seconds: None, cron, span: *span });
                }
            }
            "runIn" => {
                let delay = match args.first().map(|a| a.expr()) {
                    Some(Expr::Int(v, _)) => Some(*v),
                    _ => None,
                };
                if let Some(handler) = handler_name(args.get(1)) {
                    scheds.push(ScheduleDecl {
                        handler,
                        delay_seconds: delay,
                        cron: None,
                        span: *span,
                    });
                }
            }
            "runOnce" => {
                if let Some(handler) = handler_name(args.get(1)) {
                    scheds.push(ScheduleDecl {
                        handler,
                        delay_seconds: None,
                        cron: None,
                        span: *span,
                    });
                }
            }
            n if n.starts_with("runEvery") => {
                if let Some(handler) = handler_name(args.first()) {
                    let minutes = n
                        .trim_start_matches("runEvery")
                        .trim_end_matches("Minutes")
                        .trim_end_matches("Minute")
                        .trim_end_matches("Hours")
                        .trim_end_matches("Hour")
                        .parse::<i64>()
                        .unwrap_or(5);
                    scheds.push(ScheduleDecl {
                        handler,
                        delay_seconds: Some(minutes * 60),
                        cron: None,
                        span: *span,
                    });
                }
            }
            _ => {}
        }
    });
}

fn parse_subscribe(args: &[Arg], span: Span) -> Option<Subscription> {
    let source_expr = args.first()?.expr();
    let source = match source_expr {
        Expr::Var(name, _) if name == "location" => SubscriptionSource::Location,
        Expr::Var(name, _) if name == "app" => SubscriptionSource::App,
        Expr::Var(name, _) => SubscriptionSource::DeviceInput(name.clone()),
        Expr::Property { object, name, .. } => {
            // `settings.motionSensor` style references.
            if object.as_var() == Some("settings") {
                SubscriptionSource::DeviceInput(name.clone())
            } else if name == "mode" && object.as_var() == Some("location") {
                SubscriptionSource::Location
            } else {
                return None;
            }
        }
        _ => return None,
    };
    let event_spec = args.get(1)?.expr().as_str()?.to_string();
    let (attribute, value) = match event_spec.split_once('.') {
        Some((attr, val)) => (attr.to_string(), Some(val.to_string())),
        None => (event_spec, None),
    };
    let handler = handler_name(args.get(2))?;
    Some(Subscription { source, attribute, value, handler, span })
}

/// A handler reference may be a bare identifier, a string literal, or a
/// GString-free method pointer; anything else is rejected.
fn handler_name(arg: Option<&Arg>) -> Option<String> {
    match arg?.expr() {
        Expr::Var(name, _) => Some(name.clone()),
        Expr::Str(name, _) => Some(name.clone()),
        Expr::Property { name, .. } => Some(name.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
definition(
    name: "Virtual Thermostat",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Control a space heater or window air conditioner in conjunction with any temperature sensor, like a SmartSense Multi."
)

preferences {
    section("Choose a temperature sensor ... ") {
        input "sensor", "capability.temperatureMeasurement", title: "Sensor"
    }
    section("Select the heater or air conditioner outlet(s)... ") {
        input "outlets", "capability.switch", title: "Outlets", multiple: true
    }
    section("Set the desired temperature ...") {
        input "setpoint", "decimal", title: "Set Temp"
    }
    section("When there's been movement from (optional)") {
        input "motion", "capability.motionSensor", title: "Motion", required: false
    }
    section("Within this number of minutes ...") {
        input "minutes", "number", title: "Minutes", required: false
    }
    section("Select 'heat' for a heater and 'cool' for an air conditioner ...") {
        input "mode", "enum", title: "Heating or cooling?", options: ["heat", "cool"]
    }
}

def installed() {
    initialize()
}

def updated() {
    unsubscribe()
    initialize()
}

def initialize() {
    subscribe(sensor, "temperature", temperatureHandler)
    subscribe(motion, "motion", motionHandler)
    runIn(600, checkMotion)
}

def temperatureHandler(evt) {
    if (evt.doubleValue > setpoint) {
        outlets.on()
    } else {
        outlets.off()
    }
}

def motionHandler(evt) {
    if (evt.value == "active") {
        outlets.on()
    }
}

def checkMotion() {
    outlets.off()
}
"#;

    #[test]
    fn extracts_metadata() {
        let app = SmartApp::parse(SAMPLE).unwrap();
        assert_eq!(app.metadata.name, "Virtual Thermostat");
        assert_eq!(app.metadata.namespace, "smartthings");
        assert_eq!(app.name(), "Virtual Thermostat");
    }

    #[test]
    fn extracts_inputs_with_kinds() {
        let app = SmartApp::parse(SAMPLE).unwrap();
        assert_eq!(app.inputs.len(), 6);
        let input = |name: &str| app.inputs.iter().find(|i| i.name == name).unwrap();
        let sensor = input("sensor");
        assert_eq!(sensor.kind, InputKind::Capability("temperatureMeasurement".into()));
        assert!(sensor.required);
        assert!(!sensor.multiple);

        let outlets = input("outlets");
        assert!(outlets.multiple);

        let motion = input("motion");
        assert!(!motion.required);

        let mode = input("mode");
        assert_eq!(mode.kind, InputKind::Enum(vec!["heat".into(), "cool".into()]));

        let devices = app.inputs.iter().filter(|i| matches!(i.kind, InputKind::Capability(_)));
        assert_eq!(devices.count(), 3);
    }

    #[test]
    fn extracts_subscriptions() {
        let app = SmartApp::parse(SAMPLE).unwrap();
        assert_eq!(app.subscriptions.len(), 2);
        let temp = &app.subscriptions[0];
        assert_eq!(temp.source, SubscriptionSource::DeviceInput("sensor".into()));
        assert_eq!(temp.attribute, "temperature");
        assert_eq!(temp.value, None);
        assert_eq!(temp.handler, "temperatureHandler");
    }

    #[test]
    fn extracts_schedules() {
        let app = SmartApp::parse(SAMPLE).unwrap();
        assert_eq!(app.schedules.len(), 1);
        assert_eq!(app.schedules[0].handler, "checkMotion");
        assert_eq!(app.schedules[0].delay_seconds, Some(600));
    }

    #[test]
    fn handler_names_cover_subscriptions_and_schedules() {
        let app = SmartApp::parse(SAMPLE).unwrap();
        let subscribed: Vec<&str> = app.subscriptions.iter().map(|s| s.handler.as_str()).collect();
        assert!(subscribed.contains(&"temperatureHandler"));
        assert!(subscribed.contains(&"motionHandler"));
        assert_eq!(app.schedules[0].handler, "checkMotion");
        let mut handlers =
            subscribed.into_iter().chain(app.schedules.iter().map(|s| s.handler.as_str()));
        assert!(handlers.all(|h| app.script.methods().any(|m| m.name == h)));
    }

    #[test]
    fn subscription_with_value_filter() {
        let src = r#"
definition(name: "Brighten My Path", namespace: "st", author: "a", description: "d")
preferences {
    section("When motion...") { input "motionSensor", "capability.motionSensor" }
    section("Turn on...") { input "lights", "capability.switch", multiple: true }
}
def installed() {
    subscribe(motionSensor, "motion.active", motionActiveHandler)
}
def motionActiveHandler(evt) {
    lights.on()
}
"#;
        let app = SmartApp::parse(src).unwrap();
        let sub = &app.subscriptions[0];
        assert_eq!(sub.attribute, "motion");
        assert_eq!(sub.value.as_deref(), Some("active"));
    }

    #[test]
    fn location_and_app_subscriptions() {
        let src = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "d")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() {
    subscribe(location, "mode", changedLocationMode)
    subscribe(app, "touch", appTouch)
}
def changedLocationMode(evt) { lock1.unlock() }
def appTouch(evt) { lock1.unlock() }
"#;
        let app = SmartApp::parse(src).unwrap();
        assert_eq!(app.subscriptions[0].source, SubscriptionSource::Location);
        assert_eq!(app.subscriptions[1].source, SubscriptionSource::App);
        assert_eq!(app.subscriptions[1].attribute, "touch");
    }

    #[test]
    fn schedule_cron_extracted() {
        let src = r#"
definition(name: "Nightly", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lights", "capability.switch" } }
def installed() {
    schedule("0 0 22 * * ?", turnOff)
    runEvery15Minutes(poll)
}
def turnOff() { lights.off() }
def poll() { }
"#;
        let app = SmartApp::parse(src).unwrap();
        assert_eq!(app.schedules.len(), 2);
        assert_eq!(app.schedules[0].cron.as_deref(), Some("0 0 22 * * ?"));
        assert_eq!(app.schedules[1].delay_seconds, Some(900));
    }

    #[test]
    fn input_missing_name_is_error() {
        let src = r#"
preferences {
    section("bad") { input }
}
"#;
        // `input` with no arguments parses as a bare variable reference, so it
        // is simply not collected as an input declaration.
        let app = SmartApp::parse(src).unwrap();
        assert!(app.inputs.is_empty());
    }

    #[test]
    fn settings_prefixed_subscription_source() {
        let src = r#"
def initialize() {
    subscribe(settings.door, "contact.open", doorHandler)
}
def doorHandler(evt) { }
"#;
        let app = SmartApp::parse(src).unwrap();
        assert_eq!(app.subscriptions[0].source, SubscriptionSource::DeviceInput("door".into()));
    }
}
