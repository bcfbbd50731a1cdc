//! Counterexample traces.
//!
//! When the checker finds a violation it reconstructs the sequence of external
//! events (and the handler activity each of them triggered) from the initial
//! state to the unsafe state — the counter-example that §2.3 lists as one of
//! the main reasons for adopting model checking.  [`Trace::render`] prints the
//! trace in a format modelled on Spin's violation logs (Figure 7).
//!
//! Traces are *materialized* structures: the search never builds them
//! on the hot path.  Exploration records only parent-pointer `(parent,
//! action)` arena nodes (see [`crate::search`]); when a violation is kept,
//! the action sequence is replayed with logging enabled and each structured
//! event is rendered into a [`LogLine`] — text plus the owning app, so the
//! Output Analyzer ranks suspects from structured provenance instead of
//! re-parsing formatted strings.

use crate::transition::Violation;
use std::fmt;
use std::sync::Arc;

/// One rendered log line of a counterexample step, with structured
/// provenance: the app whose handler produced the line, when one did.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// The display name of the app whose handler activity produced this line
    /// (`None` for environment/device/system lines).  A model renders one
    /// shared name per installed app, so the owned lines of all its traces
    /// point at the same few strings.
    pub owner: Option<Arc<str>>,
    /// The rendered text (what Spin-style logs print).
    pub text: String,
}

impl LogLine {
    /// A line with no owning app.
    pub fn new(text: impl Into<String>) -> Self {
        LogLine { owner: None, text: text.into() }
    }

    /// A line owned by `app`'s handler activity.
    pub fn owned(app: impl Into<Arc<str>>, text: impl Into<String>) -> Self {
        LogLine { owner: Some(app.into()), text: text.into() }
    }
}

impl fmt::Display for LogLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// One step of a counterexample: the external action taken plus the log of
/// everything the model did while dispatching it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Rendered action (e.g. `alicePresence/presence=not present [ok]`).
    pub action: String,
    /// Model log lines for this step (handler invocations, commands, state
    /// updates), in execution order.
    pub log: Vec<LogLine>,
}

/// A full counterexample from the initial state to the violation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Steps in execution order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn push(&mut self, action: String, log: Vec<LogLine>) {
        self.steps.push(TraceStep { action, log });
    }

    /// Number of external events in the trace.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The external events only (one line per step).
    pub fn events(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.action.as_str()).collect()
    }

    /// Approximate heap footprint of this trace in bytes (step strings plus
    /// log lines); materialized traces are the only place the checker still
    /// pays for strings, and [`crate::search::SearchStats::peak_trace_bytes`]
    /// reports the bookkeeping high-water mark.
    pub fn memory_bytes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| {
                std::mem::size_of::<TraceStep>()
                    + s.action.len()
                    + s.log
                        .iter()
                        .map(|l| {
                            std::mem::size_of::<LogLine>()
                                + l.text.len()
                                + l.owner.as_ref().map_or(0, |owner| owner.len())
                        })
                        .sum::<usize>()
            })
            .sum()
    }

    /// Renders the trace in a Spin-like violation-log format: every model log
    /// line is prefixed with a pseudo file name, line number and state number,
    /// mirroring Figure 7 of the paper, and the final line states the failed
    /// assertion.
    pub fn render(&self, violation: &Violation) -> String {
        let mut out = String::new();
        let mut state_number = 1usize;
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "SmartThings0.prom:{line} (state {state}) [generatedEvent = {action}]\n",
                line = 2600 + i,
                state = state_number,
                action = step.action
            ));
            state_number += 1;
            for entry in &step.log {
                out.push_str(&format!(
                    "SmartThings0.prom:{line} (state {state}) [{entry}]\n",
                    line = 2600 + i,
                    state = state_number,
                    entry = entry
                ));
                state_number += 1;
            }
        }
        out.push_str("spin: _spin_nvr.tmp:3, Error: assertion violated\n");
        out.push_str(&format!(
            "spin: text of failed assertion: assert(!({}))\n",
            violation.description
        ));
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "{:>3}. {}", i + 1, step.action)?;
            for line in &step.log {
                writeln!(f, "       {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(
            "alicePresence/presence=not present [ok]".into(),
            vec![
                LogLine::owned(
                    "Auto Mode Change",
                    "Auto Mode Change.presenceHandler: setLocationMode(\"Away\")",
                ),
                LogLine::new("location.mode = Away"),
            ],
        );
        t.push(
            "location/mode=Away".into(),
            vec![
                LogLine::owned("Unlock Door", "Unlock Door.changedLocationMode: doorLock.unlock()"),
                LogLine::new("doorLock.lock = unlocked"),
            ],
        );
        t
    }

    #[test]
    fn push_and_events() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.events()[0], "alicePresence/presence=not present [ok]");
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn log_lines_carry_provenance() {
        let t = sample();
        assert_eq!(t.steps[0].log[0].owner.as_deref(), Some("Auto Mode Change"));
        assert_eq!(t.steps[0].log[1].owner, None);
        assert_eq!(LogLine::new("x").to_string(), "x");
    }

    #[test]
    fn render_is_spin_like() {
        let t = sample();
        let v =
            Violation { property: 6, description: "!anyone_home && main_door == unlocked".into() };
        let log = t.render(&v);
        assert!(log.contains("SmartThings0.prom:"));
        assert!(log.contains("(state 1)"));
        assert!(log.contains("assertion violated"));
        assert!(log.contains("assert(!(!anyone_home && main_door == unlocked))"));
        // Every step and log line appears.
        assert!(log.contains("generatedEvent = alicePresence/presence=not present [ok]"));
        assert!(log.contains("doorLock.lock = unlocked"));
    }

    #[test]
    fn display_numbers_steps() {
        let rendered = sample().to_string();
        assert!(rendered.contains("  1. alicePresence"));
        assert!(rendered.contains("  2. location/mode=Away"));
    }
}
