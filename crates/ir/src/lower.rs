//! Lowering of parsed SmartThings apps into the IotSan IR.
//!
//! This is the Rust counterpart of the paper's Translator (§6): where the
//! original pipeline produced Java ASTs for Bandera and then Promela, we lower
//! the Groovy AST directly into [`IrApp`]/[`IrHandler`] structures that the
//! model generator interprets.
//!
//! Groovy's built-in collection utilities (`each`, `find`, `findAll`, `any`,
//! `every`, `collect`, `+` on lists) are desugared here, and helper methods are
//! inlined (depth-bounded) so that every handler is a self-contained statement
//! list.

use crate::expr::{EventField, IrBinOp, IrExpr, Quantifier};
use crate::handler::{AppInput, IrApp, IrHandler, SettingKind, Trigger};
use crate::stmt::{HttpMethod, IrStmt};
use crate::types::Value;
use iotsan_groovy::ast::{Arg, AssignOp, BinOp, Block, Expr, GStringPart, Stmt, UnOp};
use iotsan_groovy::smartapp::{InputKind, SmartApp, SubscriptionSource};
use iotsan_groovy::MethodDecl;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Maximum depth for inlining helper-method calls (prevents runaway recursion
/// for (indirectly) recursive helpers, which are rejected as opaque).
const MAX_INLINE_DEPTH: usize = 6;

/// An error produced during lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a parsed [`SmartApp`] into an [`IrApp`].
pub fn lower_app(app: &SmartApp) -> Result<IrApp, LowerError> {
    let mut ctx = Lowerer::new(app);
    let mut handlers = Vec::new();

    for sub in &app.subscriptions {
        let Some(method) = app.script.method(&sub.handler) else {
            // A subscription to a missing handler is a developer error that the
            // SmartThings IDE would reject; skip it but keep translating.
            continue;
        };
        let trigger = match &sub.source {
            SubscriptionSource::DeviceInput(input) => Trigger::Device {
                input: input.clone(),
                attribute: sub.attribute.clone(),
                value: sub.value.clone(),
            },
            SubscriptionSource::Location => match sub.attribute.as_str() {
                "mode" => Trigger::LocationMode { value: sub.value.clone() },
                other => Trigger::LocationEvent { name: other.to_string() },
            },
            SubscriptionSource::App => Trigger::AppTouch,
        };
        handlers.push(IrHandler {
            app: app.name().to_string(),
            name: sub.handler.clone(),
            trigger,
            body: ctx.lower_method_body(method, 0),
        });
    }

    for sched in &app.schedules {
        let Some(method) = app.script.method(&sched.handler) else { continue };
        handlers.push(IrHandler {
            app: app.name().to_string(),
            name: sched.handler.clone(),
            trigger: Trigger::Timer { delay_seconds: sched.delay_seconds },
            body: ctx.lower_method_body(method, 0),
        });
    }

    let inputs = app
        .inputs
        .iter()
        .map(|i| AppInput {
            name: i.name.clone(),
            kind: convert_kind(&i.kind, i.multiple),
            title: i.title.clone(),
            required: i.required,
        })
        .collect();

    Ok(IrApp {
        name: app.name().to_string(),
        description: app.metadata.description.clone(),
        inputs,
        handlers,
        state_vars: ctx.state_vars.into_iter().collect(),
        dynamic_discovery: ctx.dynamic_discovery,
    })
}

fn convert_kind(kind: &InputKind, multiple: bool) -> SettingKind {
    match kind {
        InputKind::Capability(cap) => SettingKind::Device { capability: cap.clone(), multiple },
        InputKind::Number => SettingKind::Number,
        InputKind::Decimal => SettingKind::Decimal,
        InputKind::Bool => SettingKind::Bool,
        InputKind::Text => SettingKind::Text,
        InputKind::Enum(options) => SettingKind::Enum(options.clone()),
        InputKind::Time => SettingKind::Time,
        InputKind::Phone => SettingKind::Phone,
        InputKind::Contact => SettingKind::Contact,
        InputKind::Mode => SettingKind::Mode,
        InputKind::Other(o) => SettingKind::Other(o.clone()),
    }
}

/// Methods that indicate dynamic device discovery (§10.1 of the paper).
const DISCOVERY_APIS: &[&str] =
    &["getChildDevices", "getAllChildDevices", "addChildDevice", "findAllDevices"];

struct Lowerer<'a> {
    app: &'a SmartApp,
    /// Input name → capability name (for device inputs).
    device_inputs: BTreeMap<String, String>,
    /// Non-device setting names.
    setting_inputs: BTreeSet<String>,
    /// `state.*` variables written anywhere in the app.
    state_vars: BTreeSet<String>,
    dynamic_discovery: bool,
    /// When lowering the body of `devices.each { ... }`, the input the
    /// implicit `it` (or a named closure parameter) refers to.
    iteration_bindings: Vec<(String, String)>,
}

impl<'a> Lowerer<'a> {
    fn new(app: &'a SmartApp) -> Self {
        let mut device_inputs = BTreeMap::new();
        let mut setting_inputs = BTreeSet::new();
        for input in &app.inputs {
            match &input.kind {
                InputKind::Capability(cap) => {
                    device_inputs.insert(input.name.clone(), cap.clone());
                }
                _ => {
                    setting_inputs.insert(input.name.clone());
                }
            }
        }
        Lowerer {
            app,
            device_inputs,
            setting_inputs,
            state_vars: BTreeSet::new(),
            dynamic_discovery: false,
            iteration_bindings: Vec::new(),
        }
    }

    fn is_device_input(&self, name: &str) -> bool {
        self.device_inputs.contains_key(name)
    }

    /// Resolves a closure-iteration variable (`it` or a named parameter) to the
    /// device input it ranges over, if any.
    fn iteration_input(&self, var: &str) -> Option<&str> {
        self.iteration_bindings
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|(_, input)| input.as_str())
    }

    fn lower_method_body(&mut self, method: &MethodDecl, depth: usize) -> Vec<IrStmt> {
        self.lower_block(&method.body, depth)
    }

    fn lower_block(&mut self, block: &Block, depth: usize) -> Vec<IrStmt> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            out.extend(self.lower_stmt(stmt, depth));
        }
        out
    }

    fn lower_stmt(&mut self, stmt: &Stmt, depth: usize) -> Vec<IrStmt> {
        match stmt {
            Stmt::Expr(expr) => self.lower_expr_stmt(expr, depth),
            Stmt::VarDecl { name, init, .. } => {
                let value =
                    init.as_ref().map(|e| self.lower_expr(e)).unwrap_or(IrExpr::Const(Value::Null));
                vec![IrStmt::AssignLocal { name: name.clone(), value }]
            }
            Stmt::Assign { target, op, value, .. } => self.lower_assign(target, *op, value),
            Stmt::If { cond, then_block, else_block, .. } => {
                let cond = self.lower_expr(cond);
                let then = self.lower_block(then_block, depth);
                let els =
                    else_block.as_ref().map(|b| self.lower_block(b, depth)).unwrap_or_default();
                vec![IrStmt::If { cond, then, els }]
            }
            Stmt::While { cond, body, .. } => {
                let cond = self.lower_expr(cond);
                let body = self.lower_block(body, depth);
                vec![IrStmt::While { cond, body }]
            }
            Stmt::ForIn { var, iterable, body, .. } => {
                // Iterating over a device input becomes a device loop; other
                // iterables are approximated by a single pass with the loop
                // variable bound to the iterable's value.
                if let Some(input) =
                    iterable.as_var().filter(|v| self.is_device_input(v)).map(str::to_string)
                {
                    self.iteration_bindings.push((var.clone(), input.clone()));
                    let body = self.lower_block(body, depth);
                    self.iteration_bindings.pop();
                    vec![IrStmt::ForEachDevice { input, body }]
                } else {
                    let mut out = vec![IrStmt::AssignLocal {
                        name: var.clone(),
                        value: self.lower_expr(iterable),
                    }];
                    out.extend(self.lower_block(body, depth));
                    out
                }
            }
            Stmt::Switch { subject, cases, default, .. } => {
                let subject_ir = self.lower_expr(subject);
                let mut chain: Vec<IrStmt> =
                    default.as_ref().map(|b| self.lower_block(b, depth)).unwrap_or_default();
                for case in cases.iter().rev() {
                    let cond = IrExpr::binary(
                        IrBinOp::Eq,
                        subject_ir.clone(),
                        self.lower_expr(&case.value),
                    );
                    let then = self.lower_block(&case.body, depth);
                    chain = vec![IrStmt::If { cond, then, els: chain }];
                }
                chain
            }
            Stmt::TryCatch { body, .. } => self.lower_block(body, depth),
            Stmt::Return(value, _) => {
                vec![IrStmt::Return(value.as_ref().map(|e| self.lower_expr(e)))]
            }
            Stmt::Break(_) => vec![IrStmt::OpaqueCall { name: "break".into(), args: vec![] }],
            Stmt::Continue(_) => vec![IrStmt::OpaqueCall { name: "continue".into(), args: vec![] }],
        }
    }

    fn lower_assign(&mut self, target: &Expr, op: AssignOp, value: &Expr) -> Vec<IrStmt> {
        let rhs = self.lower_expr(value);
        // `x += e` and friends desugar to `x = x op e`.
        let combined = |current: IrExpr| match op {
            AssignOp::Assign => rhs.clone(),
            AssignOp::AddAssign => IrExpr::binary(IrBinOp::Add, current, rhs.clone()),
            AssignOp::SubAssign => IrExpr::binary(IrBinOp::Sub, current, rhs.clone()),
            AssignOp::MulAssign => IrExpr::binary(IrBinOp::Mul, current, rhs.clone()),
            AssignOp::DivAssign => IrExpr::binary(IrBinOp::Div, current, rhs.clone()),
        };
        match target {
            Expr::Property { object, name, .. } if object.as_var() == Some("state") => {
                self.state_vars.insert(name.clone());
                vec![IrStmt::AssignState {
                    name: name.clone(),
                    value: combined(IrExpr::StateVar(name.clone())),
                }]
            }
            Expr::Property { object, name, .. }
                if object.as_var() == Some("location") && name == "mode" =>
            {
                vec![IrStmt::SetLocationMode(rhs)]
            }
            Expr::Var(name, _) => {
                vec![IrStmt::AssignLocal {
                    name: name.clone(),
                    value: combined(IrExpr::Local(name.clone())),
                }]
            }
            // Anything else (indexed writes, settings writes) is preserved as
            // an opaque call so diagnostics can surface it.
            other => vec![IrStmt::OpaqueCall {
                name: "assign".into(),
                args: vec![self.lower_expr(other), rhs],
            }],
        }
    }

    fn lower_expr_stmt(&mut self, expr: &Expr, depth: usize) -> Vec<IrStmt> {
        match expr {
            Expr::MethodCall { object, name, args, closure, .. } => {
                self.lower_call(object.as_deref(), name, args, closure.as_deref(), depth)
            }
            // A bare expression statement with no side effects is dropped.
            _ => Vec::new(),
        }
    }

    fn lower_call(
        &mut self,
        object: Option<&Expr>,
        name: &str,
        args: &[Arg],
        closure: Option<&Expr>,
        depth: usize,
    ) -> Vec<IrStmt> {
        if DISCOVERY_APIS.contains(&name) {
            self.dynamic_discovery = true;
            return vec![IrStmt::OpaqueCall {
                name: name.to_string(),
                args: self.lower_args(args),
            }];
        }

        // Calls with an explicit receiver.
        if let Some(obj) = object {
            // log.debug / log.info / log.warn / log.error
            if obj.as_var() == Some("log") {
                let msg =
                    args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                return vec![IrStmt::Log(msg)];
            }
            // location.setMode("Away")
            if obj.as_var() == Some("location") && (name == "setMode" || name == "mode") {
                let mode =
                    args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                return vec![IrStmt::SetLocationMode(mode)];
            }
            // Device receiver: `lights.on()`, `outlets.each { ... }`, `lock1.lock()`.
            if let Some(receiver) = obj.as_var() {
                let bound_input = self
                    .iteration_input(receiver)
                    .map(str::to_string)
                    .or_else(|| self.is_device_input(receiver).then(|| receiver.to_string()));
                if let Some(input) = bound_input {
                    return self.lower_device_call(&input, name, args, closure, depth);
                }
            }
            // `settings.lights.on()` style receivers.
            if let Expr::Property { object: inner, name: prop, .. } = obj {
                if inner.as_var() == Some("settings") && self.is_device_input(prop) {
                    let input = prop.clone();
                    return self.lower_device_call(&input, name, args, closure, depth);
                }
            }
            // Unknown receiver — keep it opaque.
            return vec![IrStmt::OpaqueCall {
                name: format!("{}.{name}", describe(obj)),
                args: self.lower_args(args),
            }];
        }

        // Implicit-this calls: SmartThings APIs and app helper methods.
        match name {
            "sendSms" | "sendSmsMessage" => {
                let recipient =
                    args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                let message =
                    args.get(1).map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                vec![IrStmt::SendSms { recipient, message }]
            }
            "sendPush"
            | "sendPushMessage"
            | "sendNotification"
            | "sendNotificationToContacts"
            | "sendNotificationEvent" => {
                let message =
                    args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                vec![IrStmt::SendPush { message }]
            }
            "httpPost" | "httpPostJson" | "httpPutJson" | "httpPut" | "asynchttp_v1" => {
                let url = self.http_url(args);
                let payload = args.get(1).map(|a| self.lower_expr(a.expr()));
                vec![IrStmt::HttpRequest { method: HttpMethod::Post, url, payload }]
            }
            "httpGet" | "httpGetJson" => {
                let url = self.http_url(args);
                vec![IrStmt::HttpRequest { method: HttpMethod::Get, url, payload: None }]
            }
            "sendEvent" | "createEvent" => {
                let (attribute, value) = self.event_payload(args);
                vec![IrStmt::SendEvent { attribute, value }]
            }
            "setLocationMode" => {
                let mode =
                    args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""));
                vec![IrStmt::SetLocationMode(mode)]
            }
            "unsubscribe" => vec![IrStmt::Unsubscribe],
            "unschedule" => vec![IrStmt::Unschedule],
            "runIn" | "runOnce" => {
                let delay = args.first().map(|a| self.lower_expr(a.expr()));
                let handler = args
                    .get(1)
                    .and_then(|a| match a.expr() {
                        Expr::Var(h, _) => Some(h.clone()),
                        Expr::Str(h, _) => Some(h.clone()),
                        _ => None,
                    })
                    .unwrap_or_default();
                vec![IrStmt::Schedule { handler, delay_seconds: delay }]
            }
            "schedule" => {
                let handler = args
                    .get(1)
                    .and_then(|a| match a.expr() {
                        Expr::Var(h, _) => Some(h.clone()),
                        Expr::Str(h, _) => Some(h.clone()),
                        _ => None,
                    })
                    .unwrap_or_default();
                vec![IrStmt::Schedule { handler, delay_seconds: None }]
            }
            n if n.starts_with("runEvery") => {
                let handler = args
                    .first()
                    .and_then(|a| a.expr().as_var().map(str::to_string))
                    .unwrap_or_default();
                vec![IrStmt::Schedule { handler, delay_seconds: None }]
            }
            // `subscribe` calls in lifecycle methods were already extracted;
            // when they appear inside handlers they do not affect the physical
            // state and are dropped.
            "subscribe" | "initialize" if name == "subscribe" => Vec::new(),
            _ => {
                // Helper method defined by the app: inline it.
                if let Some(method) = self.app.script.method(name) {
                    if depth < MAX_INLINE_DEPTH {
                        return self.lower_method_body(&method.clone(), depth + 1);
                    }
                }
                vec![IrStmt::OpaqueCall { name: name.to_string(), args: self.lower_args(args) }]
            }
        }
    }

    /// Lowers a call whose receiver is (or iterates over) a device input.
    fn lower_device_call(
        &mut self,
        input: &str,
        name: &str,
        args: &[Arg],
        closure: Option<&Expr>,
        depth: usize,
    ) -> Vec<IrStmt> {
        match name {
            "each" | "eachWithIndex" => {
                if let Some(Expr::Closure { params, body, .. }) = closure {
                    let var =
                        params.first().map(|p| p.name.clone()).unwrap_or_else(|| "it".to_string());
                    self.iteration_bindings.push((var, input.to_string()));
                    let lowered = self.lower_block(body, depth);
                    self.iteration_bindings.pop();
                    return vec![IrStmt::ForEachDevice { input: input.to_string(), body: lowered }];
                }
                Vec::new()
            }
            "findAll" | "find" | "collect" => {
                // In statement position these are only useful for their side
                // effects, which smart apps do not rely on; drop them.
                Vec::new()
            }
            _ => vec![IrStmt::DeviceCommand {
                input: input.to_string(),
                command: name.to_string(),
                args: self.lower_args(args),
            }],
        }
    }

    fn lower_args(&mut self, args: &[Arg]) -> Vec<IrExpr> {
        args.iter().map(|a| self.lower_expr(a.expr())).collect()
    }

    fn http_url(&mut self, args: &[Arg]) -> IrExpr {
        // `httpPost(uri, body)` or `httpPost(uri: "...", body: ...)`.
        for arg in args {
            match arg {
                Arg::Named(key, value) if key == "uri" || key == "url" => {
                    return self.lower_expr(value)
                }
                Arg::Positional(Expr::MapLit(entries, _)) => {
                    for (k, v) in entries {
                        if k == "uri" || k == "url" {
                            return self.lower_expr(v);
                        }
                    }
                }
                _ => {}
            }
        }
        args.first().map(|a| self.lower_expr(a.expr())).unwrap_or(IrExpr::str(""))
    }

    fn event_payload(&mut self, args: &[Arg]) -> (String, IrExpr) {
        let mut attribute = String::new();
        let mut value = IrExpr::Const(Value::Null);
        for arg in args {
            match arg {
                Arg::Named(key, expr) => match key.as_str() {
                    "name" => attribute = expr.as_str().unwrap_or("").to_string(),
                    "value" => value = self.lower_expr(expr),
                    _ => {}
                },
                Arg::Positional(Expr::MapLit(entries, _)) => {
                    for (k, v) in entries {
                        match k.as_str() {
                            "name" => attribute = v.as_str().unwrap_or("").to_string(),
                            "value" => value = self.lower_expr(v),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        (attribute, value)
    }

    fn lower_expr(&mut self, expr: &Expr) -> IrExpr {
        match expr {
            Expr::Int(v, _) => IrExpr::Const(Value::Int(*v)),
            Expr::Decimal(v, _) => IrExpr::Const(Value::Decimal(*v)),
            Expr::Str(s, _) => IrExpr::Const(Value::Str(s.clone())),
            Expr::Bool(b, _) => IrExpr::Const(Value::Bool(*b)),
            Expr::Null(_) => IrExpr::Const(Value::Null),
            Expr::GString(parts, _) => IrExpr::Concat(
                parts
                    .iter()
                    .map(|p| match p {
                        GStringPart::Text(t) => IrExpr::str(t.clone()),
                        GStringPart::Interp(e) => self.lower_expr(e),
                    })
                    .collect(),
            ),
            Expr::Var(name, _) => self.lower_var(name),
            Expr::Property { object, name, .. } => self.lower_property(object, name),
            Expr::Index { object, .. } => {
                // Indexing a device list reads from the first device; the model
                // treats all devices bound to an input uniformly.
                self.lower_expr(object)
            }
            Expr::MethodCall { object, name, args, closure, .. } => {
                self.lower_call_expr(object.as_deref(), name, args, closure.as_deref())
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.lower_expr(lhs);
                let r = self.lower_expr(rhs);
                match bin_op(*op) {
                    Some(op) => IrExpr::binary(op, l, r),
                    None => IrExpr::Opaque { name: format!("op{op}"), args: vec![l, r] },
                }
            }
            Expr::Unary { op, operand, .. } => {
                let inner = self.lower_expr(operand);
                match op {
                    UnOp::Not => IrExpr::Not(Box::new(inner)),
                    UnOp::Neg => IrExpr::Neg(Box::new(inner)),
                }
            }
            Expr::Ternary { cond, then, els, .. } => IrExpr::Ternary {
                cond: Box::new(self.lower_expr(cond)),
                then: Box::new(self.lower_expr(then)),
                els: Box::new(self.lower_expr(els)),
            },
            Expr::Elvis { value, fallback, .. } => {
                let v = self.lower_expr(value);
                IrExpr::Ternary {
                    cond: Box::new(v.clone()),
                    then: Box::new(v),
                    els: Box::new(self.lower_expr(fallback)),
                }
            }
            Expr::ListLit(items, _) => {
                IrExpr::ListOf(items.iter().map(|e| self.lower_expr(e)).collect())
            }
            Expr::MapLit(entries, _) => {
                IrExpr::ListOf(entries.iter().map(|(_, e)| self.lower_expr(e)).collect())
            }
            Expr::Range { from, to, .. } => {
                IrExpr::ListOf(vec![self.lower_expr(from), self.lower_expr(to)])
            }
            Expr::Closure { .. } => IrExpr::Opaque { name: "closure".into(), args: vec![] },
            Expr::Cast { expr, .. } => self.lower_expr(expr),
            Expr::New { ty, args, .. } => IrExpr::Opaque {
                name: format!("new {}", ty.name),
                args: args.iter().map(|a| self.lower_expr(a.expr())).collect(),
            },
        }
    }

    fn lower_var(&mut self, name: &str) -> IrExpr {
        if name == "evt" || name == "event" {
            return IrExpr::EventField(EventField::Value);
        }
        if let Some(input) = self.iteration_input(name) {
            // A bare iteration variable in boolean position asks "is there a
            // device"; reading its primary attribute is the closest match and
            // is refined by `.currentX` property access where it matters.
            return IrExpr::Setting(input.to_string());
        }
        if self.is_device_input(name) || self.setting_inputs.contains(name) {
            return IrExpr::Setting(name.to_string());
        }
        match name {
            "now" => IrExpr::Time,
            _ => IrExpr::Local(name.to_string()),
        }
    }

    fn lower_property(&mut self, object: &Expr, name: &str) -> IrExpr {
        // evt.<field>
        if object.as_var() == Some("evt") || object.as_var() == Some("event") {
            return IrExpr::EventField(event_field(name));
        }
        // location.mode / location.currentMode
        if object.as_var() == Some("location") && (name == "mode" || name == "currentMode") {
            return IrExpr::LocationMode;
        }
        // state.<var>
        if object.as_var() == Some("state") || object.as_var() == Some("atomicState") {
            return IrExpr::StateVar(name.to_string());
        }
        // settings.<input>
        if object.as_var() == Some("settings") {
            if self.is_device_input(name) || self.setting_inputs.contains(name) {
                return IrExpr::Setting(name.to_string());
            }
            return IrExpr::Setting(name.to_string());
        }
        // <deviceInput>.currentXyz or <iterationVar>.currentXyz
        if let Some(receiver) = object.as_var() {
            let input = self
                .iteration_input(receiver)
                .map(str::to_string)
                .or_else(|| self.is_device_input(receiver).then(|| receiver.to_string()));
            if let Some(input) = input {
                if let Some(attr) = name.strip_prefix("current") {
                    return IrExpr::DeviceAttr { input, attribute: lower_first(attr) };
                }
                if let Some(attr) = name.strip_prefix("latest") {
                    return IrExpr::DeviceAttr { input, attribute: lower_first(attr) };
                }
                // `device.displayName`, `device.id`, `device.label`.
                if matches!(name, "displayName" | "label" | "id" | "name") {
                    return IrExpr::Const(Value::Str(input));
                }
                // `device.temperatureState` style reads fall back to the
                // attribute of the same name.
                return IrExpr::DeviceAttr { input, attribute: name.to_string() };
            }
        }
        // evt.device.<something> — approximate with the event's device id.
        if let Expr::Property { object: inner, name: prop, .. } = object {
            if inner.as_var() == Some("evt") && prop == "device" {
                return IrExpr::EventField(EventField::DeviceId);
            }
        }
        IrExpr::Opaque { name: format!("{}.{name}", describe(object)), args: vec![] }
    }

    fn lower_call_expr(
        &mut self,
        object: Option<&Expr>,
        name: &str,
        args: &[Arg],
        closure: Option<&Expr>,
    ) -> IrExpr {
        if DISCOVERY_APIS.contains(&name) {
            self.dynamic_discovery = true;
            return IrExpr::Opaque { name: name.to_string(), args: self.lower_args(args) };
        }
        if let Some(obj) = object {
            let receiver_input = obj.as_var().and_then(|v| {
                self.iteration_input(v)
                    .map(str::to_string)
                    .or_else(|| self.is_device_input(v).then(|| v.to_string()))
            });
            if let Some(input) = receiver_input {
                match name {
                    "currentValue" | "latestValue" | "currentState" | "latestState" => {
                        let attribute = args
                            .first()
                            .and_then(|a| a.expr().as_str())
                            .unwrap_or("value")
                            .to_string();
                        return IrExpr::DeviceAttr { input, attribute };
                    }
                    "any" | "every" | "count" | "find" | "findAll" => {
                        if let Some(q) = self.quantified_query(&input, name, closure) {
                            return q;
                        }
                    }
                    _ => {}
                }
                return IrExpr::Opaque {
                    name: format!("{input}.{name}"),
                    args: self.lower_args(args),
                };
            }
            // evt.isPhysical(), evt.integerValue(), value coercions.
            if obj.as_var() == Some("evt") {
                return IrExpr::EventField(event_field(name));
            }
            // String/number coercions are identity in the IR value domain.
            if matches!(
                name,
                "toInteger"
                    | "toDouble"
                    | "toFloat"
                    | "toString"
                    | "toBigDecimal"
                    | "trim"
                    | "toLowerCase"
                    | "toUpperCase"
            ) {
                return self.lower_expr(obj);
            }
            // `list.contains(x)` becomes `x in list`.
            if name == "contains" {
                let needle = args
                    .first()
                    .map(|a| self.lower_expr(a.expr()))
                    .unwrap_or(IrExpr::Const(Value::Null));
                return IrExpr::binary(IrBinOp::In, needle, self.lower_expr(obj));
            }
            return IrExpr::Opaque {
                name: format!("{}.{name}", describe(obj)),
                args: self.lower_args(args),
            };
        }
        match name {
            "now" => IrExpr::Time,
            _ => {
                // Expression-position helper call: inline trivially when the
                // helper is a single `return expr` with no parameters.
                if let Some(method) = self.app.script.method(name) {
                    if method.params.is_empty() && method.body.stmts.len() == 1 {
                        if let Stmt::Return(Some(e), _) = &method.body.stmts[0] {
                            return self.lower_expr(&e.clone());
                        }
                        if let Stmt::Expr(e) = &method.body.stmts[0] {
                            return self.lower_expr(&e.clone());
                        }
                    }
                }
                IrExpr::Opaque { name: name.to_string(), args: self.lower_args(args) }
            }
        }
    }

    /// Lowers `devices.any { it.currentX == v }` and friends into a
    /// [`IrExpr::DeviceQuery`].
    fn quantified_query(
        &mut self,
        input: &str,
        name: &str,
        closure: Option<&Expr>,
    ) -> Option<IrExpr> {
        let Expr::Closure { params, body, .. } = closure? else { return None };
        let var = params.first().map(|p| p.name.clone()).unwrap_or_else(|| "it".to_string());
        // The closure must be a single comparison of `it.currentX` to a value.
        let stmt = body.stmts.first()?;
        let cmp = match stmt {
            Stmt::Expr(e) => e,
            Stmt::Return(Some(e), _) => e,
            _ => return None,
        };
        let Expr::Binary { op, lhs, rhs, .. } = cmp else { return None };
        let (attr_side, value_side) = match (&**lhs, &**rhs) {
            (Expr::Property { object, name: attr, .. }, other)
                if object.as_var() == Some(var.as_str()) =>
            {
                (attr.clone(), other)
            }
            (other, Expr::Property { object, name: attr, .. })
                if object.as_var() == Some(var.as_str()) =>
            {
                (attr.clone(), other)
            }
            _ => return None,
        };
        let attribute =
            attr_side.strip_prefix("current").map(lower_first).unwrap_or(attr_side.clone());
        let value = Box::new(self.lower_expr(value_side));
        let quantifier = match name {
            "any" | "find" | "findAll" => Quantifier::Any,
            "every" => Quantifier::All,
            "count" => Quantifier::Count,
            _ => return None,
        };
        let query = IrExpr::DeviceQuery { input: input.to_string(), attribute, value, quantifier };
        // A negated comparison (`!=`) wraps the query.
        match op {
            BinOp::Eq => Some(query),
            BinOp::NotEq => Some(IrExpr::Not(Box::new(query))),
            _ => None,
        }
    }
}

fn bin_op(op: BinOp) -> Option<IrBinOp> {
    Some(match op {
        BinOp::Add => IrBinOp::Add,
        BinOp::Sub => IrBinOp::Sub,
        BinOp::Mul => IrBinOp::Mul,
        BinOp::Div => IrBinOp::Div,
        BinOp::Mod => IrBinOp::Mod,
        BinOp::Eq => IrBinOp::Eq,
        BinOp::NotEq => IrBinOp::NotEq,
        BinOp::Lt => IrBinOp::Lt,
        BinOp::Le => IrBinOp::Le,
        BinOp::Gt => IrBinOp::Gt,
        BinOp::Ge => IrBinOp::Ge,
        BinOp::And => IrBinOp::And,
        BinOp::Or => IrBinOp::Or,
        BinOp::In => IrBinOp::In,
        BinOp::Compare => return None,
    })
}

fn event_field(name: &str) -> EventField {
    match name {
        "value" | "stringValue" => EventField::Value,
        "doubleValue" | "floatValue" | "integerValue" | "longValue" | "numberValue"
        | "numericValue" => EventField::NumericValue,
        "name" => EventField::Name,
        "deviceId" | "device" => EventField::DeviceId,
        "displayName" => EventField::DisplayName,
        "isPhysical" | "physical" => EventField::IsPhysical,
        "date" | "isoDate" | "dateValue" => EventField::Date,
        _ => EventField::Value,
    }
}

fn lower_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

fn describe(expr: &Expr) -> String {
    match expr {
        Expr::Var(name, _) => name.clone(),
        Expr::Property { object, name, .. } => format!("{}.{name}", describe(object)),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_groovy::SmartApp;

    fn lower(src: &str) -> IrApp {
        let app = SmartApp::parse(src).unwrap();
        lower_app(&app).unwrap()
    }

    /// Every statement of `h`, nested ones included (preorder).
    fn stmts(h: &IrHandler) -> Vec<&IrStmt> {
        let mut out = Vec::new();
        for s in &h.body {
            s.walk(&mut |s| out.push(s));
        }
        out
    }

    /// Every `(input, command)` pair `h` may send.
    fn commands(h: &IrHandler) -> Vec<(&str, &str)> {
        stmts(h)
            .into_iter()
            .filter_map(|s| match s {
                IrStmt::DeviceCommand { input, command, .. } => {
                    Some((input.as_str(), command.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    const BRIGHTEN: &str = r#"
definition(name: "Brighten Dark Places", namespace: "st", author: "a", description: "d")
preferences {
    section("When the door opens...") { input "contact1", "capability.contactSensor", title: "Where?" }
    section("Light level") { input "lightSensor", "capability.illuminanceMeasurement", title: "Lux?" }
    section("Turn on...") { input "switches", "capability.switch", multiple: true }
}
def installed() {
    subscribe(contact1, "contact.open", contactOpenHandler)
}
def contactOpenHandler(evt) {
    if (lightSensor.currentIlluminance < 30) {
        switches.on()
    }
}
"#;

    #[test]
    fn lowers_device_trigger_and_command() {
        let app = lower(BRIGHTEN);
        assert_eq!(app.name, "Brighten Dark Places");
        assert_eq!(app.handlers.len(), 1);
        let h = &app.handlers[0];
        assert_eq!(
            h.trigger,
            Trigger::Device {
                input: "contact1".into(),
                attribute: "contact".into(),
                value: Some("open".into())
            }
        );
        assert_eq!(commands(h), [("switches", "on")]);
        let IrStmt::If { cond: IrExpr::Binary { lhs, .. }, .. } = &h.body[0] else {
            panic!("expected a comparison guard")
        };
        assert_eq!(
            **lhs,
            IrExpr::DeviceAttr { input: "lightSensor".into(), attribute: "illuminance".into() }
        );
    }

    #[test]
    fn lowers_if_else_into_branches() {
        let src = r#"
definition(name: "Let There Be Dark!", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "contact1", "capability.contactSensor" }
    section("s") { input "switches", "capability.switch", multiple: true }
}
def installed() { subscribe(contact1, "contact", contactHandler) }
def contactHandler(evt) {
    if (evt.value == "open") {
        switches.on()
    } else {
        switches.off()
    }
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        let IrStmt::If { cond, then, els } = &h.body[0] else { panic!("expected if") };
        let IrExpr::Binary { lhs, .. } = cond else { panic!("expected a comparison") };
        assert_eq!(**lhs, IrExpr::EventField(EventField::Value));
        assert!(matches!(then[0], IrStmt::DeviceCommand { ref command, .. } if command == "on"));
        assert!(matches!(els[0], IrStmt::DeviceCommand { ref command, .. } if command == "off"));
    }

    #[test]
    fn lowers_each_closure_to_foreach() {
        let src = r#"
definition(name: "Big Turn Off", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "switches", "capability.switch", multiple: true } }
def installed() { subscribe(app, "touch", appTouch) }
def appTouch(evt) {
    switches.each { it.off() }
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        assert_eq!(h.trigger, Trigger::AppTouch);
        let IrStmt::ForEachDevice { input, body } = &h.body[0] else { panic!() };
        assert_eq!(input, "switches");
        assert!(matches!(body[0], IrStmt::DeviceCommand { ref command, .. } if command == "off"));
    }

    #[test]
    fn lowers_location_mode_subscription_and_set() {
        let src = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") {
        setLocationMode("Away")
    } else {
        setLocationMode("Home")
    }
}
"#;
        let app = lower(src);
        let modes: Vec<&IrExpr> = stmts(&app.handlers[0])
            .into_iter()
            .filter_map(|s| match s {
                IrStmt::SetLocationMode(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(modes, [&IrExpr::str("Away"), &IrExpr::str("Home")]);
    }

    #[test]
    fn lowers_messaging_and_network() {
        let src = r#"
definition(name: "Notifier", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "door", "capability.contactSensor" }
    section("s") { input "phone", "phone" }
}
def installed() { subscribe(door, "contact.open", openHandler) }
def openHandler(evt) {
    sendSms(phone, "The door is open")
    sendPush("The door is open")
    httpPost("http://collector.example.com/data", evt.value)
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        assert!(matches!(h.body[0], IrStmt::SendSms { .. }));
        assert!(matches!(h.body[1], IrStmt::SendPush { .. }));
        assert!(matches!(h.body[2], IrStmt::HttpRequest { method: HttpMethod::Post, .. }));
    }

    #[test]
    fn lowers_fake_event_and_unsubscribe() {
        let src = r#"
definition(name: "Sneaky", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "smoke", "capability.smokeDetector" } }
def installed() { subscribe(smoke, "smoke", smokeHandler) }
def smokeHandler(evt) {
    sendEvent(name: "smoke", value: "detected")
    unsubscribe()
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        assert!(
            matches!(h.body[0], IrStmt::SendEvent { ref attribute, .. } if attribute == "smoke")
        );
        assert!(matches!(h.body[1], IrStmt::Unsubscribe));
    }

    #[test]
    fn inlines_helper_methods() {
        let src = r#"
definition(name: "Helper", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "switches", "capability.switch", multiple: true } }
def installed() { subscribe(app, "touch", appTouch) }
def appTouch(evt) {
    turnAllOn()
}
def turnAllOn() {
    switches.on()
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        assert_eq!(commands(h), [("switches", "on")]);
    }

    #[test]
    fn recursion_becomes_opaque_not_infinite() {
        let src = r#"
definition(name: "Loopy", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "switches", "capability.switch" } }
def installed() { subscribe(app, "touch", appTouch) }
def appTouch(evt) { ping() }
def ping() { pong() }
def pong() { ping() }
"#;
        let app = lower(src);
        let mut opaque = 0;
        for s in &app.handlers[0].body {
            s.walk(&mut |s| {
                if matches!(s, IrStmt::OpaqueCall { .. }) {
                    opaque += 1;
                }
            });
        }
        assert!(opaque >= 1, "recursive helper should end in an opaque call");
    }

    #[test]
    fn detects_dynamic_discovery() {
        let src = r#"
definition(name: "Spy Camera", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "trigger", "capability.motionSensor" } }
def installed() { subscribe(trigger, "motion.active", handler) }
def handler(evt) {
    def devices = getChildDevices()
    devices.each { it.off() }
}
"#;
        let app = lower(src);
        assert!(app.dynamic_discovery);
    }

    #[test]
    fn lowers_state_variables() {
        let src = r#"
definition(name: "Stateful", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "door", "capability.contactSensor" } }
def installed() { subscribe(door, "contact", handler) }
def handler(evt) {
    state.count = state.count + 1
    state.lastValue = evt.value
}
"#;
        let app = lower(src);
        assert!(app.state_vars.contains(&"count".to_string()));
        assert!(app.state_vars.contains(&"lastValue".to_string()));
        assert!(matches!(app.handlers[0].body[0], IrStmt::AssignState { .. }));
    }

    #[test]
    fn lowers_quantified_queries() {
        let src = r#"
definition(name: "All Off Check", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "switches", "capability.switch", multiple: true } }
def installed() { subscribe(switches, "switch", handler) }
def handler(evt) {
    if (switches.any { it.currentSwitch == "on" }) {
        sendPush("something is on")
    }
}
"#;
        let app = lower(src);
        let IrStmt::If { cond, .. } = &app.handlers[0].body[0] else { panic!() };
        let mut found = false;
        cond.walk(&mut |e| {
            if matches!(e, IrExpr::DeviceQuery { quantifier: Quantifier::Any, .. }) {
                found = true;
            }
        });
        assert!(found, "expected a DeviceQuery, got {cond}");
    }

    #[test]
    fn lowers_switch_statement_to_if_chain() {
        let src = r#"
definition(name: "Mode Actions", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() { subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    switch (evt.value) {
        case "Away":
            lock1.lock()
            break
        case "Home":
            lock1.unlock()
            break
        default:
            log.debug "no action"
    }
}
"#;
        let app = lower(src);
        let h = &app.handlers[0];
        assert_eq!(h.trigger, Trigger::LocationMode { value: None });
        let cmds = commands(h);
        assert!(cmds.contains(&("lock1", "lock")));
        assert!(cmds.contains(&("lock1", "unlock")));
    }

    #[test]
    fn lowers_timer_handlers() {
        let src = r#"
definition(name: "Timed", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "heater", "capability.switch" } }
def installed() {
    subscribe(heater, "switch", handler)
    runIn(600, turnOff)
}
def handler(evt) { }
def turnOff() { heater.off() }
"#;
        let app = lower(src);
        assert_eq!(app.handlers.len(), 2);
        let timer = app.handlers.iter().find(|h| h.name == "turnOff").unwrap();
        assert_eq!(timer.trigger, Trigger::Timer { delay_seconds: Some(600) });
    }

    #[test]
    fn elvis_and_ternary_lowered() {
        let src = r#"
definition(name: "Elvis", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "door", "capability.contactSensor" }
    section("s") { input "minutes", "number", required: false }
}
def installed() { subscribe(door, "contact", handler) }
def handler(evt) {
    def delay = (minutes ?: 10) * 60
    runIn(delay, later)
}
def later() { }
"#;
        let app = lower(src);
        let IrStmt::AssignLocal { value, .. } = &app.handlers[0].body[0] else { panic!() };
        let mut has_ternary = false;
        value.walk(&mut |e| {
            if matches!(e, IrExpr::Ternary { .. }) {
                has_ternary = true;
            }
        });
        assert!(has_ternary);
    }
}
