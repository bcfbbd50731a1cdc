//! Constant propagation over guard expressions.
//!
//! The lowered IR keeps every guard a handler was written with; most are
//! data-dependent (`evt.value == "open"`), but translated apps also contain
//! guards that fold to a constant — `if (true)` from debugging leftovers,
//! comparisons between two literals, negations of constants.  [`fold`]
//! evaluates the closed fragment of [`IrExpr`] and returns `None` for
//! anything touching runtime state, so a `Some` result is trustworthy in
//! *every* reachable state.
//!
//! Folding powers the unreachable-branch lints only.  Effect summaries
//! deliberately ignore it (see [`crate::summary`]): keeping effects from
//! branches a human can prove dead keeps the summary a purely syntactic
//! over-approximation, which is what the depgraph superset guarantee leans
//! on.

use iotsan_ir::{IrBinOp, IrExpr, Value};

/// Evaluates `expr` to a [`Value`] when it depends on no runtime state.
///
/// Only constants and operators over folded constants reduce; settings,
/// device reads, event fields, app state, locals and opaque calls all yield
/// `None`.  Short-circuit operators reduce when one side is absorbing
/// (`false && _`, `true || _`) because IR expressions are side-effect-free.
pub fn fold(expr: &IrExpr) -> Option<Value> {
    match expr {
        IrExpr::Const(v) => Some(v.clone()),
        IrExpr::Not(e) => fold(e).map(|v| Value::Bool(!v.truthy())),
        IrExpr::Neg(e) => match fold(e)? {
            Value::Int(v) => Some(Value::Int(-v)),
            Value::Decimal(v) => Some(Value::Decimal(-v)),
            other => other.as_number().map(|n| Value::Decimal(-n)),
        },
        IrExpr::Ternary { cond, then, els } => {
            if fold(cond)?.truthy() {
                fold(then)
            } else {
                fold(els)
            }
        }
        IrExpr::Binary { op, lhs, rhs } => fold_binary(*op, lhs, rhs),
        _ => None,
    }
}

/// [`fold`] projected to Groovy truthiness — the form guard lints consume.
pub fn fold_guard(expr: &IrExpr) -> Option<bool> {
    fold(expr).map(|v| v.truthy())
}

fn fold_binary(op: IrBinOp, lhs: &IrExpr, rhs: &IrExpr) -> Option<Value> {
    let l = fold(lhs);
    let r = fold(rhs);
    // Absorbing short-circuit cases: one constant side decides the result.
    match op {
        IrBinOp::And => {
            if let Some(v) = &l {
                if !v.truthy() {
                    return Some(Value::Bool(false));
                }
            }
            if let Some(v) = &r {
                if !v.truthy() {
                    return Some(Value::Bool(false));
                }
            }
            return Some(Value::Bool(l?.truthy() && r?.truthy()));
        }
        IrBinOp::Or => {
            if let Some(v) = &l {
                if v.truthy() {
                    return Some(Value::Bool(true));
                }
            }
            if let Some(v) = &r {
                if v.truthy() {
                    return Some(Value::Bool(true));
                }
            }
            return Some(Value::Bool(l?.truthy() || r?.truthy()));
        }
        _ => {}
    }
    let (l, r) = (l?, r?);
    match op {
        IrBinOp::Eq => Some(Value::Bool(l.loosely_equals(&r))),
        IrBinOp::NotEq => Some(Value::Bool(!l.loosely_equals(&r))),
        IrBinOp::Lt => Some(Value::Bool(l.compare(&r)? == std::cmp::Ordering::Less)),
        IrBinOp::Le => Some(Value::Bool(l.compare(&r)? != std::cmp::Ordering::Greater)),
        IrBinOp::Gt => Some(Value::Bool(l.compare(&r)? == std::cmp::Ordering::Greater)),
        IrBinOp::Ge => Some(Value::Bool(l.compare(&r)? != std::cmp::Ordering::Less)),
        IrBinOp::Add => match (&l, &r) {
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                Some(Value::Str(format!("{}{}", l.as_string(), r.as_string())))
            }
            _ => arith(&l, &r, |a, b| a + b),
        },
        IrBinOp::Sub => arith(&l, &r, |a, b| a - b),
        IrBinOp::Mul => arith(&l, &r, |a, b| a * b),
        IrBinOp::Div => {
            if r.as_number() == Some(0.0) {
                return None;
            }
            arith(&l, &r, |a, b| a / b)
        }
        IrBinOp::Mod => {
            if r.as_number() == Some(0.0) {
                return None;
            }
            arith(&l, &r, |a, b| a % b)
        }
        IrBinOp::In => match r {
            Value::List(items) => Some(Value::Bool(items.iter().any(|i| i.loosely_equals(&l)))),
            _ => None,
        },
        IrBinOp::And | IrBinOp::Or => unreachable!("handled above"),
    }
}

/// Numeric arithmetic preserving integer-ness when both sides are integers
/// and the result is whole.
fn arith(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Option<Value> {
    let result = f(l.as_number()?, r.as_number()?);
    match (l, r) {
        (Value::Int(_), Value::Int(_)) if result.fract() == 0.0 => Some(Value::Int(result as i64)),
        _ => Some(Value::Decimal(result)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: impl Into<Value>) -> IrExpr {
        IrExpr::Const(v.into())
    }

    #[test]
    fn constants_and_negations_fold() {
        assert_eq!(fold_guard(&IrExpr::bool(true)), Some(true));
        assert_eq!(fold_guard(&IrExpr::Not(Box::new(IrExpr::bool(true)))), Some(false));
        assert_eq!(fold(&IrExpr::Neg(Box::new(c(7)))), Some(Value::Int(-7)));
    }

    #[test]
    fn literal_comparisons_fold_with_loose_equality() {
        let eq = IrExpr::binary(IrBinOp::Eq, c("75"), c(75));
        assert_eq!(fold_guard(&eq), Some(true));
        let lt = IrExpr::binary(IrBinOp::Lt, c(3), c(2));
        assert_eq!(fold_guard(&lt), Some(false));
    }

    #[test]
    fn short_circuit_folds_around_unknowns() {
        let unknown = IrExpr::Setting("phone".into());
        let and = IrExpr::binary(IrBinOp::And, c(false), unknown.clone());
        assert_eq!(fold_guard(&and), Some(false));
        let or = IrExpr::binary(IrBinOp::Or, unknown.clone(), c(true));
        assert_eq!(fold_guard(&or), Some(true));
        // No absorbing side: the unknown wins.
        assert_eq!(fold_guard(&IrExpr::binary(IrBinOp::And, c(true), unknown)), None);
    }

    #[test]
    fn runtime_state_never_folds() {
        assert_eq!(fold(&IrExpr::LocationMode), None);
        assert_eq!(fold(&IrExpr::StateVar("x".into())), None);
        assert_eq!(
            fold(&IrExpr::DeviceAttr { input: "d".into(), attribute: "switch".into() }),
            None
        );
    }

    #[test]
    fn arithmetic_and_membership_fold() {
        let sum = IrExpr::binary(IrBinOp::Add, c(2), c(3));
        assert_eq!(fold(&sum), Some(Value::Int(5)));
        let div0 = IrExpr::binary(IrBinOp::Div, c(1), c(0));
        assert_eq!(fold(&div0), None);
        let member = IrExpr::binary(
            IrBinOp::In,
            c("Away"),
            IrExpr::Const(Value::List(vec![Value::Str("Home".into()), Value::Str("Away".into())])),
        );
        assert_eq!(fold_guard(&member), Some(true));
        let concat = IrExpr::binary(IrBinOp::Add, c("a"), c(1));
        assert_eq!(fold(&concat), Some(Value::Str("a1".into())));
    }

    #[test]
    fn ternary_folds_through_its_guard() {
        let t = IrExpr::Ternary {
            cond: Box::new(c(true)),
            then: Box::new(c("x")),
            els: Box::new(IrExpr::LocationMode),
        };
        assert_eq!(fold(&t), Some(Value::Str("x".into())));
    }
}
