//! IR statements.
//!
//! An [`IrStmt`] is an action performed by an event handler: commanding an
//! actuator, messaging the user, touching app state, or control flow.  The
//! model checker interprets these directly (Algorithm 1,
//! `app_event_handler`).

use crate::expr::IrExpr;
use std::fmt;

/// HTTP request kinds used by smart apps (network interfaces; relevant for
/// the information-leakage properties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpMethod {
    /// `httpGet` and friends.
    Get,
    /// `httpPost`, `httpPostJson`, `httpPutJson`, ...
    Post,
}

impl fmt::Display for HttpMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpMethod::Get => write!(f, "httpGet"),
            HttpMethod::Post => write!(f, "httpPost"),
        }
    }
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// Send `command` to every device bound to `input`
    /// (e.g. `outlets.on()`, `lock1.unlock()`, `thermostat.setHeatingSetpoint(70)`).
    DeviceCommand {
        /// The `preferences` input naming the actuator(s).
        input: String,
        /// Command name, e.g. `on`, `off`, `lock`, `unlock`, `setLevel`.
        command: String,
        /// Command arguments.
        args: Vec<IrExpr>,
    },
    /// Change the location mode (`setLocationMode("Away")`, `location.mode = x`).
    SetLocationMode(IrExpr),
    /// Send an SMS to `recipient` (`sendSms`, `sendSmsMessage`).
    SendSms {
        /// Recipient phone number expression (usually a `phone` setting).
        recipient: IrExpr,
        /// Message body.
        message: IrExpr,
    },
    /// Send a push notification through the companion app.
    SendPush {
        /// Message body.
        message: IrExpr,
    },
    /// Issue an HTTP request to an external service (a *network interface* in
    /// the paper's terminology — information can leak through here).
    HttpRequest {
        /// GET or POST.
        method: HttpMethod,
        /// Target URL.
        url: IrExpr,
        /// Optional request body.
        payload: Option<IrExpr>,
    },
    /// Raise a synthetic device event (`sendEvent(name: "smoke", value: "detected")`).
    /// Malicious apps use this to fake sensor readings.
    SendEvent {
        /// The attribute the fake event claims to be for.
        attribute: String,
        /// The claimed value.
        value: IrExpr,
    },
    /// Remove all of the app's subscriptions (`unsubscribe()`), a
    /// security-sensitive command.
    Unsubscribe,
    /// Cancel scheduled callbacks (`unschedule()`).
    Unschedule,
    /// Schedule `handler` to run after `delay_seconds` (or per cron).
    Schedule {
        /// Handler method name.
        handler: String,
        /// Delay in seconds, when known statically.
        delay_seconds: Option<IrExpr>,
    },
    /// Write an app persistent state variable (`state.x = e`).
    AssignState {
        /// Variable name.
        name: String,
        /// New value.
        value: IrExpr,
    },
    /// Write a handler-local variable.
    AssignLocal {
        /// Variable name.
        name: String,
        /// New value.
        value: IrExpr,
    },
    /// Conditional execution.
    If {
        /// Guard.
        cond: IrExpr,
        /// Statements when the guard holds.
        then: Vec<IrStmt>,
        /// Statements when it does not.
        els: Vec<IrStmt>,
    },
    /// Bounded loop over an integer range or list; the interpreter caps the
    /// iteration count to keep the state space finite.
    While {
        /// Loop guard.
        cond: IrExpr,
        /// Loop body.
        body: Vec<IrStmt>,
    },
    /// Iterate over the devices bound to `input`, applying `command` is not
    /// enough for bodies that also read state, so the body is kept verbatim;
    /// inside the body, [`IrExpr::DeviceAttr`]/[`IrStmt::DeviceCommand`] with
    /// the same `input` refer to the *current* device of the iteration.
    ForEachDevice {
        /// The device-list input iterated over.
        input: String,
        /// Loop body.
        body: Vec<IrStmt>,
    },
    /// Early return from the handler.
    Return(Option<IrExpr>),
    /// Log output (`log.debug`, `log.info`, ...) — kept for traceability.
    Log(IrExpr),
    /// A call to an app method that could not be inlined (recursion or
    /// dynamic dispatch); interpreted as a no-op but recorded for diagnostics.
    OpaqueCall {
        /// Called method name.
        name: String,
        /// Lowered arguments.
        args: Vec<IrExpr>,
    },
}

impl IrStmt {
    /// Visits this statement and every nested statement (preorder).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a IrStmt)) {
        f(self);
        match self {
            IrStmt::If { then, els, .. } => {
                for s in then {
                    s.walk(f);
                }
                for s in els {
                    s.walk(f);
                }
            }
            IrStmt::While { body, .. } | IrStmt::ForEachDevice { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IrExpr;

    fn on_cmd(input: &str) -> IrStmt {
        IrStmt::DeviceCommand { input: input.into(), command: "on".into(), args: vec![] }
    }

    #[test]
    fn device_commands_found_in_nested_branches() {
        let stmt = IrStmt::If {
            cond: IrExpr::bool(true),
            then: vec![on_cmd("lights")],
            els: vec![IrStmt::ForEachDevice {
                input: "outlets".into(),
                body: vec![IrStmt::DeviceCommand {
                    input: "outlets".into(),
                    command: "off".into(),
                    args: vec![],
                }],
            }],
        };
        let mut cmds = Vec::new();
        stmt.walk(&mut |s| {
            if let IrStmt::DeviceCommand { input, command, .. } = s {
                cmds.push((input.as_str(), command.as_str()));
            }
        });
        assert_eq!(cmds.len(), 2);
        assert!(cmds.contains(&("lights", "on")));
        assert!(cmds.contains(&("outlets", "off")));
    }
}
