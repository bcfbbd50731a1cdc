//! Handler bodies resolved against one installation.
//!
//! IoTSan's Model Generator specializes every app to the user's
//! configuration before checking, so bindings and settings are constants of
//! the model.  [`AppCode::resolve`] does the same once per
//! [`InstalledSystem`]: it lowers each handler's [`IrStmt`]/[`IrExpr`] tree
//! into a [`Stmt`]/[`Expr`] tree in which no name is left to look up.
//!
//! * An input becomes an index into the app's [`Input`] table, which holds
//!   its bound devices and the value a `Setting` read yields.
//! * A device read becomes the input index plus the attribute's position in
//!   each bound device's spec.  When it is compared (`==`, `!=`, `<`, `<=`,
//!   `>`, `>=`) with a constant or a non-device setting, it also carries one
//!   mask per bound device over the attribute's domain indices, built by
//!   running the interpreter's own comparison on each domain value, so the
//!   comparison is a bit test on the state vector.  These masks are also
//!   what the model's observation classes are made of
//!   ([`AppCode::for_each_read`]).
//! * A command becomes each bound device's [`CommandSpec`] and the command's
//!   [`CommandCode`].
//! * `state.*` variables become state-vector slots, and handler locals become
//!   positions in a reused [`Frame`](crate::interp::Frame).
//! * `sendEvent` attributes become interned symbols.
//!
//! The interpreter ([`crate::interp`]) runs only this form.

use crate::interp::compare;
use crate::system::InstalledSystem;
use iotsan_devices::{CommandSpec, DeviceId};
use iotsan_ir::{EventField, IrBinOp, IrExpr, IrStmt, Quantifier, Sym, Value};
use iotsan_properties::CommandCode;

/// One input an app's handlers name.
#[derive(Debug, Clone)]
pub(crate) struct Input {
    /// The devices bound to it (empty for a non-device setting).
    pub devices: Box<[DeviceId]>,
    /// What a `Setting` read of it yields outside a `devices.each` iteration:
    /// the bound devices' labels, or the configured value, or `Null`.
    pub setting: Value,
}

/// A device attribute read through an input.
#[derive(Debug, Clone)]
pub(crate) struct Read {
    /// Index into [`AppCode::inputs`].
    pub input: u32,
    /// The attribute's position in each bound device's spec (aligned with
    /// [`Input::devices`]); `None` where the spec lacks it (the read is then
    /// `Null`).
    pub positions: Box<[Option<u8>]>,
}

/// A read tested against a constant, resolved to domain-index masks.
#[derive(Debug, Clone)]
pub(crate) struct ConstTest {
    /// Per bound device, bit `i` set when the attribute's `i`-th domain value
    /// passes the test.  A device whose spec lacks the attribute reads
    /// `Null`, so its mask is all ones or all zeros as [`Self::null`].
    pub masks: Box<[u64]>,
    /// Whether `Null` passes the test.
    pub null: bool,
}

impl ConstTest {
    /// Resolves `test` on `read` for every bound device.
    fn new(
        system: &InstalledSystem,
        devices: &[DeviceId],
        read: &Read,
        test: impl Fn(&Value) -> bool,
    ) -> Self {
        let null = test(&Value::Null);
        let masks = devices
            .iter()
            .zip(read.positions.iter())
            .map(|(&device, position)| match position {
                None => u64::MAX * u64::from(null),
                Some(position) => {
                    let values = system.attr_values(device, *position as usize);
                    assert!(values.len() <= 64, "attribute domains are limited to 64 values");
                    let mut mask = values
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| test(v))
                        .fold(0u64, |mask, (i, _)| mask | 1 << i);
                    // An index past the domain reads `Null`.
                    if null {
                        mask |= u64::MAX.checked_shl(values.len() as u32).unwrap_or(0);
                    }
                    mask
                }
            })
            .collect();
        ConstTest { masks, null }
    }
}

/// A resolved expression (see [`IrExpr`] for the meaning of each form).
#[derive(Debug, Clone)]
pub(crate) enum Expr {
    Const(Value),
    /// A `Setting` read of the input at this index.
    Setting(u32),
    /// The first bound device's attribute.
    Attr(Read),
    /// `Attr` compared with a constant: whether its value passes `test`.
    AttrTest {
        read: Read,
        test: ConstTest,
    },
    /// A quantified read; `test` is set when `value` is a constant.
    Query {
        read: Read,
        value: Box<Expr>,
        quantifier: Quantifier,
        test: Option<ConstTest>,
    },
    Event(EventField),
    LocationMode,
    Time,
    /// A `state.*` slot (`None`: a variable no handler writes, always `Null`).
    State(Option<u32>),
    /// A handler-local position.
    Local(u32),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    Binary {
        op: IrBinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    ListOf(Vec<Expr>),
    Concat(Vec<Expr>),
    /// An uninterpreted call.
    Null,
}

/// A resolved statement (see [`IrStmt`] for the meaning of each form).
#[derive(Debug, Clone)]
pub(crate) enum Stmt {
    Command {
        input: u32,
        /// The command as written (log lines, and the record of a command
        /// a device's spec does not define).
        name: String,
        code: CommandCode,
        /// The first argument: the only one a command effect reads.
        arg: Option<Expr>,
        /// Each bound device's spec command (aligned with [`Input::devices`]).
        commands: Box<[Option<&'static CommandSpec>]>,
    },
    SetLocationMode(Expr),
    SendSms {
        recipient: Expr,
        message: Expr,
    },
    SendPush {
        message: Expr,
    },
    HttpRequest {
        url: Expr,
    },
    SendEvent {
        attribute: Sym,
        name: String,
        value: Expr,
    },
    Unsubscribe,
    Schedule {
        handler: String,
    },
    AssignState {
        slot: Option<u32>,
        value: Expr,
    },
    AssignLocal {
        slot: u32,
        value: Expr,
    },
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    ForEachDevice {
        input: u32,
        body: Vec<Stmt>,
    },
    Return,
    Log(Expr),
    /// `unschedule()` and uninterpreted calls.
    Nop,
}

/// One resolved handler.
#[derive(Debug, Clone)]
pub(crate) struct HandlerCode {
    pub body: Vec<Stmt>,
    /// How many distinct locals the body names.
    pub locals: usize,
}

/// One app's handlers, resolved against its installation.
#[derive(Debug, Clone)]
pub(crate) struct AppCode {
    /// Every input the handlers name, in first-reference order.
    pub inputs: Vec<Input>,
    /// Aligned with the IR app's handlers.
    pub handlers: Vec<HandlerCode>,
    /// Whether the user allowed this app to use network interfaces.
    pub network_allowed: bool,
}

impl AppCode {
    /// Resolves the handlers of `system.apps[app_index]`.  Reads only the
    /// installation's name tables, bindings and specs, never its code.
    pub fn resolve(system: &InstalledSystem, app_index: usize) -> AppCode {
        let app = &system.apps[app_index];
        let mut resolver = Resolver {
            system,
            app_index,
            input_names: Vec::new(),
            inputs: Vec::new(),
            locals: Vec::new(),
        };
        let handlers = app
            .handlers
            .iter()
            .map(|handler| {
                resolver.locals.clear();
                let body = resolver.block(&handler.body);
                HandlerCode { body, locals: resolver.locals.len() }
            })
            .collect();
        AppCode {
            inputs: resolver.inputs,
            handlers,
            network_allowed: system.config.network_allowed_apps.contains(&app.name),
        }
    }
}

impl AppCode {
    /// Calls `f(device, position, mask)` for every device-attribute read in
    /// every handler, once per bound device the read can reach: `mask` is
    /// the domain-index mask the read is tested against, or `None` when the
    /// handler takes the value itself (the model then keeps every value of
    /// that attribute apart).
    pub fn for_each_read(&self, f: &mut impl FnMut(DeviceId, usize, Option<u64>)) {
        for handler in &self.handlers {
            self.block_reads(&handler.body, f);
        }
    }

    fn block_reads(&self, stmts: &[Stmt], f: &mut impl FnMut(DeviceId, usize, Option<u64>)) {
        for stmt in stmts {
            match stmt {
                Stmt::Command { arg: Some(e), .. }
                | Stmt::SetLocationMode(e)
                | Stmt::SendPush { message: e }
                | Stmt::HttpRequest { url: e }
                | Stmt::SendEvent { value: e, .. }
                | Stmt::AssignState { value: e, .. }
                | Stmt::AssignLocal { value: e, .. }
                | Stmt::Log(e) => self.expr_reads(e, f),
                Stmt::SendSms { recipient, message } => {
                    self.expr_reads(recipient, f);
                    self.expr_reads(message, f);
                }
                Stmt::If { cond, then, els } => {
                    self.expr_reads(cond, f);
                    self.block_reads(then, f);
                    self.block_reads(els, f);
                }
                Stmt::While { cond, body } => {
                    self.expr_reads(cond, f);
                    self.block_reads(body, f);
                }
                Stmt::ForEachDevice { body, .. } => self.block_reads(body, f),
                Stmt::Command { arg: None, .. }
                | Stmt::Unsubscribe
                | Stmt::Schedule { .. }
                | Stmt::Return
                | Stmt::Nop => {}
            }
        }
    }

    fn expr_reads(&self, expr: &Expr, f: &mut impl FnMut(DeviceId, usize, Option<u64>)) {
        let mut read = |read: &Read, test: Option<&ConstTest>| {
            let devices = self.inputs[read.input as usize].devices.iter();
            for (k, (&device, position)) in devices.zip(read.positions.iter()).enumerate() {
                if let Some(position) = position {
                    f(device, *position as usize, test.map(|t| t.masks[k]));
                }
            }
        };
        match expr {
            Expr::Attr(r) => read(r, None),
            Expr::AttrTest { read: r, test } => read(r, Some(test)),
            Expr::Query { read: r, value, test, .. } => {
                read(r, test.as_ref());
                self.expr_reads(value, f);
            }
            Expr::Not(e) | Expr::Neg(e) => self.expr_reads(e, f),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr_reads(lhs, f);
                self.expr_reads(rhs, f);
            }
            Expr::Ternary { cond, then, els } => {
                self.expr_reads(cond, f);
                self.expr_reads(then, f);
                self.expr_reads(els, f);
            }
            Expr::ListOf(items) | Expr::Concat(items) => {
                items.iter().for_each(|e| self.expr_reads(e, f));
            }
            Expr::Const(_)
            | Expr::Setting(_)
            | Expr::Event(_)
            | Expr::LocationMode
            | Expr::Time
            | Expr::State(_)
            | Expr::Local(_)
            | Expr::Null => {}
        }
    }
}

struct Resolver<'s> {
    system: &'s InstalledSystem,
    app_index: usize,
    input_names: Vec<&'s str>,
    inputs: Vec<Input>,
    /// The current handler's locals, in first-reference order.
    locals: Vec<&'s str>,
}

impl<'s> Resolver<'s> {
    fn app_name(&self) -> &'s str {
        &self.system.apps[self.app_index].name
    }

    fn input(&mut self, name: &'s str) -> u32 {
        if let Some(index) = self.input_names.iter().position(|n| *n == name) {
            return index as u32;
        }
        let devices: Box<[DeviceId]> = self.system.bound_slice(self.app_index, name).into();
        let setting = if devices.is_empty() {
            self.system
                .config
                .app(self.app_name())
                .and_then(|cfg| cfg.binding(name))
                .map_or(Value::Null, |binding| binding.to_value())
        } else {
            Value::List(devices.iter().map(|&d| self.system.label_value(d).clone()).collect())
        };
        self.input_names.push(name);
        self.inputs.push(Input { devices, setting });
        (self.inputs.len() - 1) as u32
    }

    fn local(&mut self, name: &'s str) -> u32 {
        match self.locals.iter().position(|n| *n == name) {
            Some(index) => index as u32,
            None => {
                self.locals.push(name);
                (self.locals.len() - 1) as u32
            }
        }
    }

    fn read(&mut self, input: &'s str, attribute: &str) -> Read {
        let input = self.input(input);
        let positions = self.inputs[input as usize]
            .devices
            .iter()
            .map(|&d| self.system.device_spec(d).attribute_index(attribute).map(|p| p as u8))
            .collect();
        Read { input, positions }
    }

    fn test(&self, read: &Read, test: impl Fn(&Value) -> bool) -> ConstTest {
        ConstTest::new(self.system, &self.inputs[read.input as usize].devices, read, test)
    }

    /// The value `expr` always evaluates to in this installation: a
    /// constant, or a setting bound to no device.
    fn constant(&mut self, expr: &'s IrExpr) -> Option<Value> {
        match expr {
            IrExpr::Const(value) => Some(value.clone()),
            IrExpr::Setting(name) => {
                let index = self.input(name) as usize;
                let input = &self.inputs[index];
                input.devices.is_empty().then(|| input.setting.clone())
            }
            _ => None,
        }
    }

    /// `lhs op rhs` as a mask test when one side is a device read and the
    /// other a [`Self::constant`]; the masks keep the written operand order.
    fn attr_test(&mut self, op: IrBinOp, lhs: &'s IrExpr, rhs: &'s IrExpr) -> Option<Expr> {
        let (read, test) = match (lhs, rhs) {
            (IrExpr::DeviceAttr { input, attribute }, other) => {
                let constant = self.constant(other)?;
                let read = self.read(input, attribute);
                let test = self.test(&read, |v| compare(op, v, &constant));
                (read, test)
            }
            (other, IrExpr::DeviceAttr { input, attribute }) => {
                let constant = self.constant(other)?;
                let read = self.read(input, attribute);
                let test = self.test(&read, |v| compare(op, &constant, v));
                (read, test)
            }
            _ => return None,
        };
        Some(Expr::AttrTest { read, test })
    }

    fn block(&mut self, stmts: &'s [IrStmt]) -> Vec<Stmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'s IrStmt) -> Stmt {
        match stmt {
            IrStmt::DeviceCommand { input, command, args } => {
                let input = self.input(input);
                let commands = self.inputs[input as usize]
                    .devices
                    .iter()
                    .map(|&d| self.system.device_spec(d).command(command))
                    .collect();
                Stmt::Command {
                    input,
                    name: command.clone(),
                    code: CommandCode::of(command),
                    arg: args.first().map(|a| self.expr(a)),
                    commands,
                }
            }
            IrStmt::SetLocationMode(expr) => Stmt::SetLocationMode(self.expr(expr)),
            IrStmt::SendSms { recipient, message } => {
                Stmt::SendSms { recipient: self.expr(recipient), message: self.expr(message) }
            }
            IrStmt::SendPush { message } => Stmt::SendPush { message: self.expr(message) },
            IrStmt::HttpRequest { url, .. } => Stmt::HttpRequest { url: self.expr(url) },
            IrStmt::SendEvent { attribute, value } => Stmt::SendEvent {
                attribute: self.system.sym_of(attribute),
                name: attribute.clone(),
                value: self.expr(value),
            },
            IrStmt::Unsubscribe => Stmt::Unsubscribe,
            IrStmt::Unschedule | IrStmt::OpaqueCall { .. } => Stmt::Nop,
            IrStmt::Schedule { handler, .. } => Stmt::Schedule { handler: handler.clone() },
            IrStmt::AssignState { name, value } => {
                let slot = self.system.state_slot(self.app_name(), name);
                debug_assert!(slot.is_some(), "state variable {name} has no slot");
                Stmt::AssignState { slot, value: self.expr(value) }
            }
            IrStmt::AssignLocal { name, value } => {
                // The value is resolved first: it may read the local itself.
                let value = self.expr(value);
                Stmt::AssignLocal { slot: self.local(name), value }
            }
            IrStmt::If { cond, then, els } => {
                Stmt::If { cond: self.expr(cond), then: self.block(then), els: self.block(els) }
            }
            IrStmt::While { cond, body } => {
                Stmt::While { cond: self.expr(cond), body: self.block(body) }
            }
            IrStmt::ForEachDevice { input, body } => {
                Stmt::ForEachDevice { input: self.input(input), body: self.block(body) }
            }
            IrStmt::Return(_) => Stmt::Return,
            IrStmt::Log(expr) => Stmt::Log(self.expr(expr)),
        }
    }

    fn expr(&mut self, expr: &'s IrExpr) -> Expr {
        let boxed = |r: &mut Self, e: &'s IrExpr| Box::new(r.expr(e));
        match expr {
            IrExpr::Const(v) => Expr::Const(v.clone()),
            IrExpr::Setting(name) => Expr::Setting(self.input(name)),
            IrExpr::DeviceAttr { input, attribute } => Expr::Attr(self.read(input, attribute)),
            IrExpr::DeviceQuery { input, attribute, value, quantifier } => {
                let read = self.read(input, attribute);
                let test = match &**value {
                    IrExpr::Const(constant) => {
                        Some(self.test(&read, |v| v.loosely_equals(constant)))
                    }
                    _ => None,
                };
                Expr::Query { read, value: boxed(self, value), quantifier: *quantifier, test }
            }
            IrExpr::EventField(field) => Expr::Event(*field),
            IrExpr::LocationMode => Expr::LocationMode,
            IrExpr::Time => Expr::Time,
            IrExpr::StateVar(name) => Expr::State(self.system.state_slot(self.app_name(), name)),
            IrExpr::Local(name) => Expr::Local(self.local(name)),
            IrExpr::Not(inner) => Expr::Not(boxed(self, inner)),
            IrExpr::Neg(inner) => Expr::Neg(boxed(self, inner)),
            IrExpr::Binary { op, lhs, rhs } => {
                let comparison = matches!(
                    op,
                    IrBinOp::Eq
                        | IrBinOp::NotEq
                        | IrBinOp::Lt
                        | IrBinOp::Le
                        | IrBinOp::Gt
                        | IrBinOp::Ge
                );
                comparison.then(|| self.attr_test(*op, lhs, rhs)).flatten().unwrap_or_else(|| {
                    Expr::Binary { op: *op, lhs: boxed(self, lhs), rhs: boxed(self, rhs) }
                })
            }
            IrExpr::Ternary { cond, then, els } => Expr::Ternary {
                cond: boxed(self, cond),
                then: boxed(self, then),
                els: boxed(self, els),
            },
            IrExpr::ListOf(items) => Expr::ListOf(items.iter().map(|e| self.expr(e)).collect()),
            IrExpr::Concat(parts) => Expr::Concat(parts.iter().map(|e| self.expr(e)).collect()),
            IrExpr::Opaque { .. } => Expr::Null,
        }
    }
}
