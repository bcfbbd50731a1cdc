//! Runtime values for the IotSan intermediate representation.
//!
//! Groovy is dynamically typed, and so is the IR: the paper's translator
//! (§6) infers static types because it emits Java for Bandera, but here the
//! model generator interprets handlers directly over the dynamic [`Value`]
//! domain, so no static type is ever needed.

use std::fmt;

/// A dynamic value manipulated by an event handler at verification time.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Decimal value (temperatures, setpoints).
    Decimal(f64),
    /// String value (attribute states such as `"on"`, `"open"`, `"away"`).
    Str(String),
    /// Boolean value.
    Bool(bool),
    /// Null / unset.
    Null,
    /// A list of values (e.g. a multi-device setting).
    List(Vec<Value>),
}

impl Value {
    /// Interprets the value as a boolean using Groovy truthiness rules:
    /// `null`, `false`, `0`, `""` and `[]` are false, everything else is true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Decimal(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(items) => !items.is_empty(),
        }
    }

    /// Numeric view of the value, if it has one (`"75"` parses as 75.0).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Decimal(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// String view of the value (numbers render like Groovy's `toString`).
    pub fn as_string(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(v) => v.to_string(),
            Value::Decimal(v) => format!("{v}"),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(|v| v.as_string()).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }

    /// Groovy `==` semantics: numeric comparison when both sides are numeric,
    /// otherwise string comparison, with `null` equal only to `null`.
    pub fn loosely_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.loosely_equals(y))
            }
            // Allocation-free fast path for the overwhelmingly common
            // string/string case (attribute states, modes): numeric when both
            // parse, byte comparison otherwise — exactly the general rule
            // below, minus the `as_string` clones.
            (Value::Str(a), Value::Str(b)) => {
                match (a.trim().parse::<f64>().ok(), b.trim().parse::<f64>().ok()) {
                    (Some(x), Some(y)) => (x - y).abs() < f64::EPSILON,
                    _ => a == b,
                }
            }
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => (a - b).abs() < f64::EPSILON,
                _ => self.as_string() == other.as_string(),
            },
        }
    }

    /// [`Value::loosely_equals`] against a plain string, without wrapping it
    /// in a [`Value`] (and therefore without allocating): the property
    /// checker compares attribute values against literals on every explored
    /// transition.
    pub fn eq_str(&self, other: &str) -> bool {
        match (self.as_number(), other.trim().parse::<f64>().ok()) {
            (Some(a), Some(b)) => (a - b).abs() < f64::EPSILON,
            _ => match self {
                Value::Str(s) => s == other,
                Value::Null => false,
                other_value => other_value.as_string() == other,
            },
        }
    }

    /// Numeric ordering used by `<`, `<=`, `>`, `>=`; strings fall back to
    /// lexicographic comparison.
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self.as_number(), other.as_number()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => Some(self.as_string().cmp(&other.as_string())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_string())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Decimal(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn truthiness_follows_groovy() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::Str("on".into()).truthy());
        assert!(Value::Int(3).truthy());
    }

    #[test]
    fn loose_equality_compares_numbers_and_strings() {
        assert!(Value::Int(75).loosely_equals(&Value::Decimal(75.0)));
        assert!(Value::Str("75".into()).loosely_equals(&Value::Int(75)));
        assert!(Value::Str("on".into()).loosely_equals(&Value::Str("on".into())));
        assert!(!Value::Str("on".into()).loosely_equals(&Value::Str("off".into())));
        assert!(Value::Null.loosely_equals(&Value::Null));
        assert!(!Value::Null.loosely_equals(&Value::Int(0)));
    }

    #[test]
    fn comparison_is_numeric_when_possible() {
        assert_eq!(Value::Int(70).compare(&Value::Decimal(75.5)), Some(Ordering::Less));
        assert_eq!(Value::Str("80".into()).compare(&Value::Int(75)), Some(Ordering::Greater));
        assert_eq!(
            Value::Str("away".into()).compare(&Value::Str("home".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn value_display_and_from() {
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(Value::from("open").to_string(), "open");
        assert_eq!(Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(), "[1, a]");
    }
}
