//! IR expressions.
//!
//! An [`IrExpr`] is a side-effect-free expression evaluated against the model
//! checker's system state: device attributes, app settings, the event being
//! dispatched, the location mode, the app's persistent `state` map and handler
//! locals.

use crate::types::Value;
use std::fmt;

/// Fields of the event object (`evt`) passed to an event handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventField {
    /// `evt.value` — the string value of the event (`"on"`, `"active"`, ...).
    Value,
    /// `evt.doubleValue` / `evt.integerValue` / `evt.numericValue`.
    NumericValue,
    /// `evt.name` — the attribute name (`"motion"`, `"contact"`, ...).
    Name,
    /// `evt.deviceId` — identifier of the device that produced the event.
    DeviceId,
    /// `evt.displayName` — human-readable device name.
    DisplayName,
    /// `evt.isPhysical()` — whether the event came from the physical world.
    IsPhysical,
    /// `evt.date` / `evt.isoDate` — timestamp of the event.
    Date,
}

impl fmt::Display for EventField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventField::Value => "value",
            EventField::NumericValue => "doubleValue",
            EventField::Name => "name",
            EventField::DeviceId => "deviceId",
            EventField::DisplayName => "displayName",
            EventField::IsPhysical => "isPhysical",
            EventField::Date => "date",
        };
        write!(f, "{s}")
    }
}

/// Binary operators in the IR (a subset of Groovy's, after desugaring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrBinOp {
    /// Addition (numeric) / concatenation (strings, lists).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Mod,
    /// Loose equality.
    Eq,
    /// Loose inequality.
    NotEq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and (short-circuiting).
    And,
    /// Logical or (short-circuiting).
    Or,
    /// Membership test (`x in [..]`).
    In,
}

impl fmt::Display for IrBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IrBinOp::Add => "+",
            IrBinOp::Sub => "-",
            IrBinOp::Mul => "*",
            IrBinOp::Div => "/",
            IrBinOp::Mod => "%",
            IrBinOp::Eq => "==",
            IrBinOp::NotEq => "!=",
            IrBinOp::Lt => "<",
            IrBinOp::Le => "<=",
            IrBinOp::Gt => ">",
            IrBinOp::Ge => ">=",
            IrBinOp::And => "&&",
            IrBinOp::Or => "||",
            IrBinOp::In => "in",
        };
        write!(f, "{s}")
    }
}

/// Aggregation mode for quantified device-attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `devices.any { it.currentX == v }` — at least one device matches.
    Any,
    /// `devices.every { it.currentX == v }` — all devices match.
    All,
    /// `devices.count { it.currentX == v }` — number of matching devices.
    Count,
}

/// A side-effect-free IR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// A constant.
    Const(Value),
    /// The value of a non-device setting (`setpoint`, `minutes`, `phone`).
    Setting(String),
    /// The current value of `attribute` on the device(s) bound to `input`.
    /// For multi-device inputs this reads the first bound device; quantified
    /// reads use [`IrExpr::DeviceQuery`].
    DeviceAttr {
        /// The `preferences` input the device is bound to.
        input: String,
        /// The attribute read, e.g. `switch`, `temperature`, `lock`.
        attribute: String,
    },
    /// A quantified predicate/aggregate over all devices bound to `input`.
    DeviceQuery {
        /// The `preferences` input the devices are bound to.
        input: String,
        /// The attribute inspected.
        attribute: String,
        /// The value compared against (for `Any`/`All`), or the value counted.
        value: Box<IrExpr>,
        /// Aggregation mode.
        quantifier: Quantifier,
    },
    /// A field of the event currently being handled.
    EventField(EventField),
    /// The current location mode (`Home`, `Away`, `Night`).
    LocationMode,
    /// The modelled system time (monotonically increasing, in seconds).
    Time,
    /// A persistent app state variable (`state.lastOpened`).
    StateVar(String),
    /// A handler-local variable.
    Local(String),
    /// Unary logical negation.
    Not(Box<IrExpr>),
    /// Unary arithmetic negation.
    Neg(Box<IrExpr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: IrBinOp,
        /// Left operand.
        lhs: Box<IrExpr>,
        /// Right operand.
        rhs: Box<IrExpr>,
    },
    /// Conditional expression.
    Ternary {
        /// Condition.
        cond: Box<IrExpr>,
        /// Result when true.
        then: Box<IrExpr>,
        /// Result when false.
        els: Box<IrExpr>,
    },
    /// List construction.
    ListOf(Vec<IrExpr>),
    /// String concatenation of the rendered parts (lowered GStrings).
    Concat(Vec<IrExpr>),
    /// A call the translator could not interpret; evaluates to [`Value::Null`]
    /// but is preserved so diagnostics can report it.
    Opaque {
        /// The original call name, e.g. `getSunriseAndSunset`.
        name: String,
        /// Lowered arguments.
        args: Vec<IrExpr>,
    },
}

impl IrExpr {
    /// Constant string helper.
    pub fn str(s: impl Into<String>) -> IrExpr {
        IrExpr::Const(Value::Str(s.into()))
    }

    /// Constant integer helper.
    pub fn int(v: i64) -> IrExpr {
        IrExpr::Const(Value::Int(v))
    }

    /// Constant boolean helper.
    pub fn bool(v: bool) -> IrExpr {
        IrExpr::Const(Value::Bool(v))
    }

    /// Builds `lhs op rhs`.
    pub fn binary(op: IrBinOp, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Builds an equality test between a device attribute and a string value,
    /// the most common guard in smart apps.
    pub fn attr_eq(
        input: impl Into<String>,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> IrExpr {
        IrExpr::binary(
            IrBinOp::Eq,
            IrExpr::DeviceAttr { input: input.into(), attribute: attribute.into() },
            IrExpr::str(value),
        )
    }

    /// Visits this expression and all sub-expressions (preorder).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a IrExpr)) {
        f(self);
        match self {
            IrExpr::DeviceQuery { value, .. } => value.walk(f),
            IrExpr::Not(e) | IrExpr::Neg(e) => e.walk(f),
            IrExpr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            IrExpr::Ternary { cond, then, els } => {
                cond.walk(f);
                then.walk(f);
                els.walk(f);
            }
            IrExpr::ListOf(items) | IrExpr::Concat(items) => {
                for e in items {
                    e.walk(f);
                }
            }
            IrExpr::Opaque { args, .. } => {
                for e in args {
                    e.walk(f);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for IrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrExpr::Const(v) => match v {
                Value::Str(s) => write!(f, "\"{s}\""),
                other => write!(f, "{other}"),
            },
            IrExpr::Setting(name) => write!(f, "settings.{name}"),
            IrExpr::DeviceAttr { input, attribute } => {
                write!(f, "{input}.current{}", upper_first(attribute))
            }
            IrExpr::DeviceQuery { input, attribute, value, quantifier } => {
                let q = match quantifier {
                    Quantifier::Any => "any",
                    Quantifier::All => "every",
                    Quantifier::Count => "count",
                };
                write!(f, "{input}.{q} {{ it.current{} == {value} }}", upper_first(attribute))
            }
            IrExpr::EventField(field) => write!(f, "evt.{field}"),
            IrExpr::LocationMode => write!(f, "location.mode"),
            IrExpr::Time => write!(f, "now()"),
            IrExpr::StateVar(name) => write!(f, "state.{name}"),
            IrExpr::Local(name) => write!(f, "{name}"),
            IrExpr::Not(e) => write!(f, "!({e})"),
            IrExpr::Neg(e) => write!(f, "-({e})"),
            IrExpr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            IrExpr::Ternary { cond, then, els } => write!(f, "({cond} ? {then} : {els})"),
            IrExpr::ListOf(items) => {
                write!(f, "[")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            IrExpr::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            IrExpr::Opaque { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn upper_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_construct_expected_shapes() {
        let e = IrExpr::attr_eq("lock1", "lock", "locked");
        let IrExpr::Binary { op: IrBinOp::Eq, lhs, rhs } = &e else { panic!() };
        assert!(matches!(**lhs, IrExpr::DeviceAttr { .. }));
        assert!(matches!(**rhs, IrExpr::Const(Value::Str(_))));
    }

    #[test]
    fn display_round_trips_common_shapes() {
        assert_eq!(
            IrExpr::attr_eq("lock1", "lock", "locked").to_string(),
            "(lock1.currentLock == \"locked\")"
        );
        assert_eq!(IrExpr::EventField(EventField::NumericValue).to_string(), "evt.doubleValue");
        assert_eq!(IrExpr::LocationMode.to_string(), "location.mode");
        assert_eq!(
            IrExpr::Ternary {
                cond: Box::new(IrExpr::bool(true)),
                then: Box::new(IrExpr::int(1)),
                els: Box::new(IrExpr::int(0)),
            }
            .to_string(),
            "(true ? 1 : 0)"
        );
    }
}
