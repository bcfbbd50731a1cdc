//! The declarative property-specification language.
//!
//! IotSan treats safety properties as *user-supplied inputs* (§8: plain
//! English sentences are translated into verifiable properties), so the
//! property subsystem must be open: a [`PropertySpec`] is a plain value —
//! serde-loadable from JSON, or built in Rust with [`PropertySpec::builder`]
//! — expressing a predicate over device attributes, the location mode and
//! per-step observations (commands, messages, network calls), under one of
//! three temporal modalities:
//!
//! * [`Modality::Never`] — the unsafe condition must never hold (`[] !p`);
//! * [`Modality::Always`] — the safe condition must always hold (`[] p`);
//! * [`Modality::LeadsTo`] — whenever a trigger holds, a response must hold
//!   within `within` further evaluation steps (`[] (t -> <> r)`).
//!
//! Specs are *interpreted* here (the reference semantics, used by
//! [`crate::PropertySet::check_point`] and as the oracle in the equivalence
//! proptests) and *compiled* by [`crate::compile::CompiledPropertySet`] into
//! programs over the checker's state vector for its zero-allocation hot
//! path.
//!
//! ```
//! use iotsan_properties::{Expr, PropertyClass, PropertySpec};
//!
//! let spec = PropertySpec::builder(46, "Sprinklers stay off at night")
//!     .category("Custom")
//!     .class(PropertyClass::Custom("Irrigation".into()))
//!     .never(Expr::and([
//!         Expr::mode_is("Night"),
//!         Expr::capability_attr("sprinkler", "sprinkler", "on"),
//!     ]));
//! let json = spec.to_json();
//! assert_eq!(PropertySpec::from_json(&json).unwrap(), spec);
//! ```

use crate::snapshot::{
    has_conflicting_commands, has_repeated_commands, DeviceRole, DeviceSnapshot, Snapshot,
    StepObservation,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The deepest evaluation stack a spec may need ([`PropertySpec::stack_depth`]):
/// compiled programs run on one `u64` bit stack.  [`PropertySpec::validate`]
/// and the JSON loaders reject deeper specs, the builder and compilation
/// panic on them.
pub const MAX_FORMULA_DEPTH: usize = 64;

/// Stable identifier of a property within a [`crate::PropertySet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyId(pub u32);

impl fmt::Display for PropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:02}", self.0)
    }
}

/// The property classes of §8, plus user-defined classes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PropertyClass {
    /// When a single external event happens, an actuator should not receive
    /// two conflicting commands.
    ConflictingCommands,
    /// When a single event happens, an actuator should not receive multiple
    /// repeated commands of the same type.
    RepeatedCommands,
    /// A safe-physical-state invariant (Table 4).
    PhysicalState,
    /// Security: information leakage and security-sensitive commands.
    Security,
    /// Robustness to device/communication failure.
    Robustness,
    /// A user-defined class; the payload is the label rendered in evaluation
    /// tables.
    Custom(String),
}

impl PropertyClass {
    /// Human-readable label used in evaluation tables (the row structure of
    /// Tables 5/6).
    pub fn label(&self) -> &str {
        match self {
            PropertyClass::ConflictingCommands => "Conflicting commands",
            PropertyClass::RepeatedCommands => "Repeated commands",
            PropertyClass::PhysicalState => "Unsafe physical states",
            PropertyClass::Security => "Security",
            PropertyClass::Robustness => "Robustness",
            PropertyClass::Custom(label) => label,
        }
    }
}

fn default_class() -> PropertyClass {
    PropertyClass::Custom("Custom".to_string())
}

/// Selects the devices an atom ranges over.  All present fields must match
/// (conjunctive); an empty selector matches every installed device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceSelect {
    /// Match the device capability (e.g. `lock`, `smokeDetector`).
    #[serde(default)]
    pub capability: Option<String>,
    /// Match the user-assigned device role, parsed with
    /// [`DeviceRole::parse`] (e.g. `heater`, `main door lock`).
    #[serde(default)]
    pub role: Option<String>,
    /// Match the exact device label (e.g. `frontDoorLock`).
    #[serde(default)]
    pub label: Option<String>,
}

impl DeviceSelect {
    /// Matches every installed device.
    pub fn any() -> Self {
        DeviceSelect::default()
    }

    /// Matches devices with the given capability.
    pub fn capability(capability: impl Into<String>) -> Self {
        DeviceSelect { capability: Some(capability.into()), ..Default::default() }
    }

    /// Matches devices with the given user-assigned role.
    pub fn role(role: impl Into<String>) -> Self {
        DeviceSelect { role: Some(role.into()), ..Default::default() }
    }

    /// Matches the device with the given label.
    pub fn label(label: impl Into<String>) -> Self {
        DeviceSelect { label: Some(label.into()), ..Default::default() }
    }

    /// True when no field restricts the selection.
    pub fn is_any(&self) -> bool {
        self.capability.is_none() && self.role.is_none() && self.label.is_none()
    }

    /// True when a device with the given identity matches this selector.
    pub fn matches(&self, label: &str, capability: &str, role: DeviceRole) -> bool {
        if let Some(want) = &self.capability {
            if want != capability {
                return false;
            }
        }
        if let Some(want) = &self.role {
            if DeviceRole::parse(want) != role {
                return false;
            }
        }
        if let Some(want) = &self.label {
            if want != label {
                return false;
            }
        }
        true
    }

    /// [`DeviceSelect::matches`] against a snapshot device.
    pub fn matches_snapshot(&self, device: &DeviceSnapshot) -> bool {
        self.matches(&device.label, &device.capability, device.role)
    }

    /// A short rendering used when deriving LTL propositions.
    fn describe(&self) -> String {
        if let Some(label) = &self.label {
            label.clone()
        } else if let Some(capability) = &self.capability {
            capability.clone()
        } else if let Some(role) = &self.role {
            role.clone()
        } else {
            "any".to_string()
        }
    }
}

/// An equality test over a device attribute, quantified by the enclosing
/// [`Atom`] (`AnyAttr` / `AllAttr`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrTest {
    /// Which devices to test.
    #[serde(default)]
    pub select: DeviceSelect,
    /// Attribute name (e.g. `switch`, `lock`).
    pub attribute: String,
    /// Expected value, compared with the interpreter's loose equality
    /// (`"75"` equals `75`).
    pub value: String,
}

/// A numeric threshold test over a device attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericTest {
    /// Which devices to read.
    #[serde(default)]
    pub select: DeviceSelect,
    /// Attribute name (e.g. `temperature`, `moisture`).
    pub attribute: String,
    /// The threshold compared against each reading.
    pub threshold: f64,
}

/// A test over the actuator commands issued during a step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandTest {
    /// Which target devices count (resolved against the installed system at
    /// compile time; the interpreter resolves through the snapshot).
    #[serde(default)]
    pub select: DeviceSelect,
    /// The command name (`on`, `unlock`, ...).
    pub command: String,
}

/// The atomic predicates of the specification language.
///
/// *State* atoms read the physical [`Snapshot`]; *step* atoms read the
/// [`StepObservation`] of one external-event step.  [`Atom::reads_state`]
/// distinguishes them — properties containing state atoms are evaluated at
/// quiescent points only (matching the strict-concurrency design's checking
/// discipline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Atom {
    // ---- state atoms ------------------------------------------------------
    /// The location mode equals the given name (case-insensitive).
    ModeIs(String),
    /// Someone is at home: any presence sensor reports `present`, or — when
    /// the system has no presence sensor — the location mode is not `Away`
    /// (the paper's proxy).
    AnyoneHome,
    /// Some selected device has `attribute == value`.
    AnyAttr(AttrTest),
    /// Every selected device has `attribute == value` (vacuously true when
    /// none match).
    AllAttr(AttrTest),
    /// At least one device matches the selector.  This is a constant of the
    /// installation, folded at compile time.
    HasDevice(DeviceSelect),
    /// Some selected device is offline.
    AnyOffline(DeviceSelect),
    /// Some selected device reads `attribute` below the threshold
    /// (equivalently: the minimum reading is below it; false without
    /// readings).
    AnyBelow(NumericTest),
    /// Some selected device reads `attribute` above the threshold.
    AnyAbove(NumericTest),

    // ---- step atoms -------------------------------------------------------
    /// One actuator received two conflicting commands during the step.
    ConflictingCommands,
    /// One actuator received the same command twice during the step.
    RepeatedCommands,
    /// A network request not allowed by the user was made.
    DisallowedNetwork,
    /// An SMS was sent to a recipient that is not a configured phone number.
    SmsRecipientMismatch,
    /// An app called the security-sensitive `unsubscribe`.
    UnsubscribeCalled,
    /// An app raised a fake (synthetic) device event.
    FakeEventRaised,
    /// A command was lost to a device/communication failure.
    CommandFailed,
    /// The user was notified (any SMS or push message was sent).
    UserNotified,
    /// A selected device received the given command.
    CommandIssued(CommandTest),
}

impl Atom {
    /// True when the atom reads the physical snapshot (as opposed to the
    /// per-step observation).
    pub fn reads_state(&self) -> bool {
        matches!(
            self,
            Atom::ModeIs(_)
                | Atom::AnyoneHome
                | Atom::AnyAttr(_)
                | Atom::AllAttr(_)
                | Atom::HasDevice(_)
                | Atom::AnyOffline(_)
                | Atom::AnyBelow(_)
                | Atom::AnyAbove(_)
        )
    }

    /// The reference (interpreted) semantics over one evaluation point.
    pub fn eval(&self, snapshot: &Snapshot, step: &StepObservation) -> bool {
        fn selected<'a>(
            snapshot: &'a Snapshot,
            select: &'a DeviceSelect,
        ) -> impl Iterator<Item = &'a DeviceSnapshot> {
            snapshot.devices.iter().filter(move |d| select.matches_snapshot(d))
        }
        match self {
            Atom::ModeIs(mode) => snapshot.mode.eq_ignore_ascii_case(mode),
            Atom::AnyoneHome => snapshot.anyone_home(),
            Atom::AnyAttr(t) => {
                selected(snapshot, &t.select).any(|d| d.attr_is(&t.attribute, &t.value))
            }
            Atom::AllAttr(t) => {
                selected(snapshot, &t.select).all(|d| d.attr_is(&t.attribute, &t.value))
            }
            Atom::HasDevice(select) => selected(snapshot, select).next().is_some(),
            Atom::AnyOffline(select) => selected(snapshot, select).any(|d| !d.online),
            Atom::AnyBelow(t) => selected(snapshot, &t.select)
                .filter_map(|d| d.attr_number(&t.attribute))
                .any(|v| v < t.threshold),
            Atom::AnyAbove(t) => selected(snapshot, &t.select)
                .filter_map(|d| d.attr_number(&t.attribute))
                .any(|v| v > t.threshold),
            Atom::ConflictingCommands => has_conflicting_commands(step),
            Atom::RepeatedCommands => has_repeated_commands(step),
            Atom::DisallowedNetwork => step.network.iter().any(|n| !n.allowed),
            Atom::SmsRecipientMismatch => step.sms_recipient_mismatch(),
            Atom::UnsubscribeCalled => !step.unsubscribes.is_empty(),
            Atom::FakeEventRaised => !step.fake_events.is_empty(),
            Atom::CommandFailed => step.command_failures > 0,
            Atom::UserNotified => !step.messages.is_empty(),
            Atom::CommandIssued(t) => step.commands.iter().any(|c| {
                c.command == t.command
                    && (t.select.is_any()
                        || snapshot
                            .devices
                            .iter()
                            .find(|d| d.id == c.device)
                            .map(|d| t.select.matches_snapshot(d))
                            .unwrap_or(false))
            }),
        }
    }

    /// The derived LTL proposition for this atom (builtins override the whole
    /// LTL string instead — see [`PropertySpec::ltl`]).
    pub fn render(&self) -> String {
        match self {
            Atom::ModeIs(mode) => format!("mode == {mode}"),
            Atom::AnyoneHome => "anyone_home".to_string(),
            Atom::AnyAttr(t) => format!("{}.{} == {}", t.select.describe(), t.attribute, t.value),
            Atom::AllAttr(t) => {
                format!("all({}.{} == {})", t.select.describe(), t.attribute, t.value)
            }
            Atom::HasDevice(select) => format!("exists({})", select.describe()),
            Atom::AnyOffline(select) => format!("offline({})", select.describe()),
            Atom::AnyBelow(t) => {
                format!("{}.{} < {}", t.select.describe(), t.attribute, t.threshold)
            }
            Atom::AnyAbove(t) => {
                format!("{}.{} > {}", t.select.describe(), t.attribute, t.threshold)
            }
            Atom::ConflictingCommands => "conflicting_commands".to_string(),
            Atom::RepeatedCommands => "repeated_commands".to_string(),
            Atom::DisallowedNetwork => "disallowed_network".to_string(),
            Atom::SmsRecipientMismatch => "sms_recipient_mismatch".to_string(),
            Atom::UnsubscribeCalled => "unsubscribe_executed".to_string(),
            Atom::FakeEventRaised => "fake_event_raised".to_string(),
            Atom::CommandFailed => "command_failed".to_string(),
            Atom::UserNotified => "user_notified".to_string(),
            Atom::CommandIssued(t) => {
                format!("command({}.{})", t.select.describe(), t.command)
            }
        }
    }
}

/// A boolean formula over [`Atom`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// An atomic predicate.
    Atom(Atom),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction (true when empty).
    All(Vec<Expr>),
    /// Disjunction (false when empty).
    AnyOf(Vec<Expr>),
}

impl Expr {
    /// Wraps an atom.
    pub fn atom(atom: Atom) -> Expr {
        Expr::Atom(atom)
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(expr: Expr) -> Expr {
        Expr::Not(Box::new(expr))
    }

    /// Conjunction of the given formulas.
    pub fn and(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::All(exprs.into_iter().collect())
    }

    /// Disjunction of the given formulas.
    pub fn or(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::AnyOf(exprs.into_iter().collect())
    }

    /// The location mode equals `mode` (case-insensitive).
    pub fn mode_is(mode: impl Into<String>) -> Expr {
        Expr::Atom(Atom::ModeIs(mode.into()))
    }

    /// Someone is at home (see [`Atom::AnyoneHome`]).
    pub fn anyone_home() -> Expr {
        Expr::Atom(Atom::AnyoneHome)
    }

    /// Some selected device has `attribute == value`.
    pub fn any_attr(
        select: DeviceSelect,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> Expr {
        Expr::Atom(Atom::AnyAttr(AttrTest {
            select,
            attribute: attribute.into(),
            value: value.into(),
        }))
    }

    /// Every selected device has `attribute == value`.
    pub fn all_attr(
        select: DeviceSelect,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> Expr {
        Expr::Atom(Atom::AllAttr(AttrTest {
            select,
            attribute: attribute.into(),
            value: value.into(),
        }))
    }

    /// Shorthand: any device with the given capability has
    /// `attribute == value`.
    pub fn capability_attr(
        capability: impl Into<String>,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> Expr {
        Expr::any_attr(DeviceSelect::capability(capability), attribute, value)
    }

    /// Shorthand: any device with the given role has `attribute == value`.
    pub fn role_attr(
        role: impl Into<String>,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> Expr {
        Expr::any_attr(DeviceSelect::role(role), attribute, value)
    }

    /// At least one device matches the selector.
    pub fn has_device(select: DeviceSelect) -> Expr {
        Expr::Atom(Atom::HasDevice(select))
    }

    /// Some selected device is offline.
    pub fn any_offline(select: DeviceSelect) -> Expr {
        Expr::Atom(Atom::AnyOffline(select))
    }

    /// Some selected reading of `attribute` is below `threshold`.
    pub fn any_below(select: DeviceSelect, attribute: impl Into<String>, threshold: f64) -> Expr {
        Expr::Atom(Atom::AnyBelow(NumericTest { select, attribute: attribute.into(), threshold }))
    }

    /// Some selected reading of `attribute` is above `threshold`.
    pub fn any_above(select: DeviceSelect, attribute: impl Into<String>, threshold: f64) -> Expr {
        Expr::Atom(Atom::AnyAbove(NumericTest { select, attribute: attribute.into(), threshold }))
    }

    /// A selected device received the given command during the step.
    pub fn command_issued(select: DeviceSelect, command: impl Into<String>) -> Expr {
        Expr::Atom(Atom::CommandIssued(CommandTest { select, command: command.into() }))
    }

    /// True when any atom in the formula reads the physical snapshot.
    pub fn reads_state(&self) -> bool {
        let mut found = false;
        self.visit_atoms(&mut |a| found |= a.reads_state());
        found
    }

    /// True when any atom in the formula reads the step observation.
    pub fn reads_step(&self) -> bool {
        let mut found = false;
        self.visit_atoms(&mut |a| found |= !a.reads_state());
        found
    }

    /// Calls `f` on every atom in the formula.
    pub fn visit_atoms(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Expr::Atom(a) => f(a),
            Expr::Not(e) => e.visit_atoms(f),
            Expr::All(es) | Expr::AnyOf(es) => {
                for e in es {
                    e.visit_atoms(f);
                }
            }
        }
    }

    /// The depth of the evaluation stack the formula's compiled postfix
    /// program needs: an atom pushes one value, and every operand of an
    /// `All`/`AnyOf` after the first is evaluated on top of the running
    /// result.  Must stay within [`MAX_FORMULA_DEPTH`].
    pub fn stack_depth(&self) -> usize {
        match self {
            Expr::Atom(_) => 1,
            Expr::Not(e) => e.stack_depth(),
            Expr::All(es) | Expr::AnyOf(es) => es
                .iter()
                .enumerate()
                .map(|(i, e)| e.stack_depth() + usize::from(i > 0))
                .max()
                .unwrap_or(1),
        }
    }

    /// The reference (interpreted) semantics over one evaluation point.
    pub fn eval(&self, snapshot: &Snapshot, step: &StepObservation) -> bool {
        match self {
            Expr::Atom(a) => a.eval(snapshot, step),
            Expr::Not(e) => !e.eval(snapshot, step),
            Expr::All(es) => es.iter().all(|e| e.eval(snapshot, step)),
            Expr::AnyOf(es) => es.iter().any(|e| e.eval(snapshot, step)),
        }
    }

    /// Renders the formula as an LTL proposition (used when a spec carries no
    /// explicit [`PropertySpec::ltl`] override).
    pub fn render(&self) -> String {
        match self {
            Expr::Atom(a) => a.render(),
            Expr::Not(e) => match e.as_ref() {
                Expr::Atom(a) => format!("!{}", a.render()),
                inner => format!("!({})", inner.render()),
            },
            Expr::All(es) if es.is_empty() => "true".to_string(),
            Expr::AnyOf(es) if es.is_empty() => "false".to_string(),
            Expr::All(es) => {
                let parts: Vec<String> = es
                    .iter()
                    .map(|e| match e {
                        Expr::AnyOf(inner) if inner.len() > 1 => format!("({})", e.render()),
                        _ => e.render(),
                    })
                    .collect();
                parts.join(" && ")
            }
            Expr::AnyOf(es) => {
                let parts: Vec<String> = es.iter().map(Expr::render).collect();
                parts.join(" || ")
            }
        }
    }
}

/// The bounded-response modality: whenever `trigger` holds at an evaluation
/// point where `response` does not, `response` must hold within `within`
/// further evaluated steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeadsTo {
    /// The obligation-opening condition.
    pub trigger: Expr,
    /// The discharging condition.
    pub response: Expr,
    /// How many further evaluated steps the response may take; `0` means it
    /// must hold in the same step as the trigger.  Must be at most 255 (the
    /// monitor counters are single bytes; bounded search depths are far
    /// smaller): [`PropertySpec::validate`] and the JSON loaders reject
    /// larger values, compilation panics on them.
    #[serde(default)]
    pub within: u32,
}

/// The temporal modality of a [`PropertySpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Modality {
    /// The condition must never hold (violated whenever it evaluates true).
    Never(Expr),
    /// The condition must always hold (violated whenever it evaluates false).
    Always(Expr),
    /// Whenever the trigger holds, the response must hold within a bounded
    /// number of further steps.
    LeadsTo(LeadsTo),
}

impl Modality {
    /// Every formula of the modality, for classification and hashing.
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Modality::Never(e) | Modality::Always(e) => vec![e],
            Modality::LeadsTo(l) => vec![&l.trigger, &l.response],
        }
    }
}

/// One declarative safety property: metadata plus a temporal modality over a
/// formula.  See the [module docs](self) for the data flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// Stable identifier within the property set.
    pub id: u32,
    /// Human-readable name of the *safe* property.
    pub name: String,
    /// Table 4 category (for physical-state properties) or a free label.
    #[serde(default)]
    pub category: String,
    /// Property class (defaults to `Custom("Custom")` when absent in JSON).
    #[serde(default = "default_class")]
    pub class: PropertyClass,
    /// The temporal modality over the spec's formula(s).
    pub modality: Modality,
    /// Optional override for the full LTL rendering — the built-in corpus
    /// pins the paper's exact proposition names here; custom specs usually
    /// leave it empty and get a rendering derived from the formula AST.
    #[serde(default)]
    pub ltl: Option<String>,
}

impl PropertySpec {
    /// Starts building a spec (finish with [`PropertySpecBuilder::never`],
    /// [`PropertySpecBuilder::always`] or [`PropertySpecBuilder::leads_to`]).
    pub fn builder(id: u32, name: impl Into<String>) -> PropertySpecBuilder {
        PropertySpecBuilder {
            id,
            name: name.into(),
            category: String::new(),
            class: default_class(),
            ltl: None,
        }
    }

    /// The typed property id.
    pub fn property_id(&self) -> PropertyId {
        PropertyId(self.id)
    }

    /// True when any formula of the spec reads the physical snapshot, in
    /// which case it is evaluated at quiescent points only.
    pub fn reads_state(&self) -> bool {
        self.modality.exprs().iter().any(|e| e.reads_state())
    }

    /// True when any formula of the spec reads the step observation.
    pub fn reads_step(&self) -> bool {
        self.modality.exprs().iter().any(|e| e.reads_step())
    }

    /// True when the spec reads only the step observation (evaluated on
    /// every step, including non-quiescent ones in the strict-concurrency
    /// design).
    pub fn step_only(&self) -> bool {
        !self.reads_state()
    }

    /// The LTL rendering: the explicit [`PropertySpec::ltl`] override when
    /// present, otherwise derived from the modality and formula AST.
    pub fn to_ltl(&self) -> String {
        if let Some(ltl) = &self.ltl {
            return ltl.clone();
        }
        match &self.modality {
            Modality::Never(e) => format!("[] !( {} )", e.render()),
            Modality::Always(e) => format!("[] ( {} )", e.render()),
            Modality::LeadsTo(l) => {
                format!("[] ( {} -> <> {} )", l.trigger.render(), l.response.render())
            }
        }
    }

    /// The reference point semantics: whether the spec is violated at one
    /// evaluation point, treating leads-to as same-step response
    /// (`within` distances are tracked by the compiled evaluators' monitors,
    /// not by this stateless view).
    pub fn violated_at(&self, snapshot: &Snapshot, step: &StepObservation) -> bool {
        match &self.modality {
            Modality::Never(e) => e.eval(snapshot, step),
            Modality::Always(e) => !e.eval(snapshot, step),
            Modality::LeadsTo(l) if l.within == 0 => {
                l.trigger.eval(snapshot, step) && !l.response.eval(snapshot, step)
            }
            // A pending obligation with slack cannot be decided from one
            // point; the stateless view reports "not (yet) violated".
            Modality::LeadsTo(_) => false,
        }
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PropertySpec serializes")
    }

    /// Loads a spec from JSON (validated — see [`PropertySpec::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let spec: PropertySpec = serde_json::from_str(json)?;
        spec.validate().map_err(serde_json::Error::custom)?;
        Ok(spec)
    }

    /// The evaluation stack depth the spec's compiled programs need: the
    /// deepest formula, where a same-step leads-to compiles to the single
    /// program `trigger && !response`.
    pub fn stack_depth(&self) -> usize {
        match &self.modality {
            Modality::Never(e) | Modality::Always(e) => e.stack_depth(),
            Modality::LeadsTo(l) if l.within == 0 => {
                l.trigger.stack_depth().max(1 + l.response.stack_depth())
            }
            Modality::LeadsTo(l) => l.trigger.stack_depth().max(l.response.stack_depth()),
        }
    }

    /// Checks the spec's value constraints: a leads-to `within` must fit the
    /// one-byte monitor counters (at most 255), and the formulas must fit
    /// the evaluation stack ([`MAX_FORMULA_DEPTH`]).
    pub fn validate(&self) -> Result<(), String> {
        if let Modality::LeadsTo(l) = &self.modality {
            if l.within > u32::from(u8::MAX) {
                return Err(format!(
                    "property {} ({}): leads-to `within` is {} but the monitor bound is 255",
                    self.property_id(),
                    self.name,
                    l.within
                ));
            }
        }
        let depth = self.stack_depth();
        if depth > MAX_FORMULA_DEPTH {
            return Err(format!(
                "property {} ({}): formula nesting needs an evaluation stack of depth {depth} \
                 but the bound is {MAX_FORMULA_DEPTH}",
                self.property_id(),
                self.name
            ));
        }
        Ok(())
    }

    /// A stable 64-bit content hash over everything that can change a
    /// verdict (id, metadata, modality, formulas).  The planner folds this
    /// into its group [`fingerprints`](crate::PropertySet::content_hash), so
    /// editing or adding a spec invalidates exactly the cached verdicts that
    /// depended on it.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        self.hash_into(&mut h);
        h.finish()
    }

    pub(crate) fn hash_into(&self, h: &mut ContentHasher) {
        h.write_u64(u64::from(self.id));
        h.write_str(&self.name);
        h.write_str(&self.category);
        h.write_str(self.class.label());
        h.write_str(self.ltl.as_deref().unwrap_or(""));
        match &self.modality {
            Modality::Never(e) => {
                h.write_str("never");
                hash_expr(e, h);
            }
            Modality::Always(e) => {
                h.write_str("always");
                hash_expr(e, h);
            }
            Modality::LeadsTo(l) => {
                h.write_str("leads-to");
                h.write_u64(u64::from(l.within));
                hash_expr(&l.trigger, h);
                hash_expr(&l.response, h);
            }
        }
    }
}

fn hash_select(s: &DeviceSelect, h: &mut ContentHasher) {
    // Presence-discriminated: `None` (no restriction) must hash differently
    // from `Some("")` (matches nothing), or editing one into the other would
    // replay stale cached verdicts.
    for field in [&s.capability, &s.role, &s.label] {
        match field {
            None => h.write_u64(0),
            Some(value) => {
                h.write_u64(1);
                h.write_str(value);
            }
        }
    }
}

fn hash_expr(expr: &Expr, h: &mut ContentHasher) {
    match expr {
        Expr::Atom(a) => {
            h.write_str("atom");
            match a {
                Atom::ModeIs(m) => {
                    h.write_str("mode-is");
                    h.write_str(m);
                }
                Atom::AnyoneHome => h.write_str("anyone-home"),
                Atom::AnyAttr(t) | Atom::AllAttr(t) => {
                    h.write_str(if matches!(a, Atom::AnyAttr(_)) {
                        "any-attr"
                    } else {
                        "all-attr"
                    });
                    hash_select(&t.select, h);
                    h.write_str(&t.attribute);
                    h.write_str(&t.value);
                }
                Atom::HasDevice(s) => {
                    h.write_str("has-device");
                    hash_select(s, h);
                }
                Atom::AnyOffline(s) => {
                    h.write_str("any-offline");
                    hash_select(s, h);
                }
                Atom::AnyBelow(t) | Atom::AnyAbove(t) => {
                    h.write_str(if matches!(a, Atom::AnyBelow(_)) { "below" } else { "above" });
                    hash_select(&t.select, h);
                    h.write_str(&t.attribute);
                    h.write_u64(t.threshold.to_bits());
                }
                Atom::CommandIssued(t) => {
                    h.write_str("command-issued");
                    hash_select(&t.select, h);
                    h.write_str(&t.command);
                }
                step_atom => h.write_str(&step_atom.render()),
            }
        }
        Expr::Not(e) => {
            h.write_str("not");
            hash_expr(e, h);
        }
        Expr::All(es) => {
            h.write_str("all");
            h.write_u64(es.len() as u64);
            for e in es {
                hash_expr(e, h);
            }
        }
        Expr::AnyOf(es) => {
            h.write_str("any-of");
            h.write_u64(es.len() as u64);
            for e in es {
                hash_expr(e, h);
            }
        }
    }
}

/// 64-bit FNV-1a, the hash behind every content key: spec and set hashes,
/// the planner's group fingerprints and the daemon's job fingerprints.
/// Unlike `std`'s randomized hashers it is the same in every process, so
/// its keys can be stored.  [`ContentHasher::write_str`] prefixes a string
/// with its length, which keeps concatenated fields from aliasing across
/// boundaries.
#[derive(Debug)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        ContentHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes, with no length prefix.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds `s` after its length (a little-endian `u64`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds `v` as eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Builder for [`PropertySpec`] (returned by [`PropertySpec::builder`]).
#[derive(Debug, Clone)]
pub struct PropertySpecBuilder {
    id: u32,
    name: String,
    category: String,
    class: PropertyClass,
    ltl: Option<String>,
}

impl PropertySpecBuilder {
    /// Sets the Table 4 category (or any free label).
    pub fn category(mut self, category: impl Into<String>) -> Self {
        self.category = category.into();
        self
    }

    /// Sets the property class.
    pub fn class(mut self, class: PropertyClass) -> Self {
        self.class = class;
        self
    }

    /// Overrides the derived LTL rendering with an explicit string.
    pub fn ltl(mut self, ltl: impl Into<String>) -> Self {
        self.ltl = Some(ltl.into());
        self
    }

    fn finish(self, modality: Modality) -> PropertySpec {
        let spec = PropertySpec {
            id: self.id,
            name: self.name,
            category: self.category,
            class: self.class,
            modality,
            ltl: self.ltl,
        };
        assert!(
            spec.stack_depth() <= MAX_FORMULA_DEPTH,
            "formula nesting exceeds the evaluation stack bound of {MAX_FORMULA_DEPTH}"
        );
        spec
    }

    /// Finishes with a [`Modality::Never`] over the unsafe condition.
    ///
    /// # Panics
    ///
    /// Panics when the formula exceeds [`MAX_FORMULA_DEPTH`].
    pub fn never(self, unsafe_when: Expr) -> PropertySpec {
        self.finish(Modality::Never(unsafe_when))
    }

    /// Finishes with a [`Modality::Always`] over the safe condition.
    ///
    /// # Panics
    ///
    /// Panics when the formula exceeds [`MAX_FORMULA_DEPTH`].
    pub fn always(self, holds: Expr) -> PropertySpec {
        self.finish(Modality::Always(holds))
    }

    /// Finishes with a [`Modality::LeadsTo`]: whenever `trigger` holds,
    /// `response` must hold within `within` further evaluated steps.
    ///
    /// # Panics
    ///
    /// Panics when `within` exceeds 255 (the monitor-counter bound) or the
    /// formulas exceed [`MAX_FORMULA_DEPTH`].
    pub fn leads_to(self, trigger: Expr, response: Expr, within: u32) -> PropertySpec {
        assert!(within <= u32::from(u8::MAX), "leads-to `within` must be at most 255");
        self.finish(Modality::LeadsTo(LeadsTo { trigger, response, within }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CommandRecord, MessageChannel, MessageRecord};
    use iotsan_devices::DeviceId;
    use iotsan_ir::Value;

    fn dev(id: u32, cap: &str, role: DeviceRole, attrs: &[(&str, &str)]) -> DeviceSnapshot {
        DeviceSnapshot {
            id: DeviceId(id),
            label: format!("d{id}"),
            capability: cap.into(),
            role,
            attributes: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Str(v.to_string())))
                .collect(),
            online: true,
        }
    }

    #[test]
    fn builder_produces_a_roundtrippable_spec() {
        let spec = PropertySpec::builder(50, "No unlock at night")
            .category("Custom")
            .class(PropertyClass::Custom("Night security".into()))
            .never(Expr::and([
                Expr::mode_is("Night"),
                Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
            ]));
        assert_eq!(spec.property_id(), PropertyId(50));
        assert_eq!(spec.class.label(), "Night security");
        let json = spec.to_json();
        let back = PropertySpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.content_hash(), spec.content_hash());
    }

    #[test]
    fn json_defaults_fill_optional_fields() {
        let json = r#"{
            "id": 70,
            "name": "Valve open means wet risk",
            "modality": {"type": "Never", "value": {"type": "Atom", "value": {
                "type": "AnyAttr", "value": {"attribute": "valve", "value": "open",
                    "select": {"capability": "valve"}}}}}
        }"#;
        let spec = PropertySpec::from_json(json).unwrap();
        assert_eq!(spec.class, PropertyClass::Custom("Custom".into()));
        assert_eq!(spec.category, "");
        assert!(spec.ltl.is_none());
        assert!(spec.reads_state());
    }

    #[test]
    fn interpreted_eval_matches_vocabulary() {
        let snapshot = Snapshot {
            mode: "Night".into(),
            devices: vec![
                dev(0, "lock", DeviceRole::MainDoorLock, &[("lock", "unlocked")]),
                dev(1, "presenceSensor", DeviceRole::Generic, &[("presence", "not present")]),
            ],
            time_seconds: 0,
        };
        let step = StepObservation::default();
        assert!(Expr::mode_is("night").eval(&snapshot, &step));
        assert!(!Expr::anyone_home().eval(&snapshot, &step));
        assert!(Expr::capability_attr("lock", "lock", "unlocked").eval(&snapshot, &step));
        assert!(Expr::role_attr("main door lock", "lock", "unlocked").eval(&snapshot, &step));
        assert!(Expr::has_device(DeviceSelect::label("d1")).eval(&snapshot, &step));
        assert!(!Expr::any_offline(DeviceSelect::any()).eval(&snapshot, &step));
        // All-quantifier is vacuously true over an empty selection.
        assert!(Expr::all_attr(DeviceSelect::capability("sprinkler"), "sprinkler", "on")
            .eval(&snapshot, &step));
    }

    #[test]
    fn numeric_atoms_read_thresholds() {
        let snapshot = Snapshot {
            mode: "Home".into(),
            devices: vec![DeviceSnapshot {
                id: DeviceId(0),
                label: "t".into(),
                capability: "temperatureMeasurement".into(),
                role: DeviceRole::Generic,
                attributes: vec![("temperature".into(), Value::Int(42))],
                online: true,
            }],
            time_seconds: 0,
        };
        let step = StepObservation::default();
        assert!(Expr::any_below(DeviceSelect::any(), "temperature", 50.0).eval(&snapshot, &step));
        assert!(!Expr::any_above(DeviceSelect::any(), "temperature", 50.0).eval(&snapshot, &step));
        // No readings → both false.
        let empty = Snapshot::default();
        assert!(!Expr::any_below(DeviceSelect::any(), "temperature", 50.0).eval(&empty, &step));
    }

    #[test]
    fn step_atoms_read_the_observation() {
        let snapshot = Snapshot::default();
        let step = StepObservation {
            commands: vec![CommandRecord::new(DeviceId(0), "unlock", true, true)],
            messages: vec![MessageRecord {
                app: "A".into(),
                channel: MessageChannel::Push,
                recipient: String::new(),
                body: "b".into(),
            }],
            command_failures: 1,
            ..Default::default()
        };
        assert!(Expr::command_issued(DeviceSelect::any(), "unlock").eval(&snapshot, &step));
        assert!(!Expr::command_issued(DeviceSelect::any(), "lock").eval(&snapshot, &step));
        assert!(Expr::atom(Atom::CommandFailed).eval(&snapshot, &step));
        assert!(Expr::atom(Atom::UserNotified).eval(&snapshot, &step));
        // Capability-selected command tests resolve the device through the
        // snapshot; without the device there, they do not match.
        assert!(!Expr::command_issued(DeviceSelect::capability("lock"), "unlock")
            .eval(&snapshot, &step));
    }

    #[test]
    fn leads_to_point_semantics() {
        let spec = PropertySpec::builder(60, "Failures must notify").leads_to(
            Expr::atom(Atom::CommandFailed),
            Expr::atom(Atom::UserNotified),
            0,
        );
        let snapshot = Snapshot::default();
        let mut step = StepObservation { command_failures: 1, ..Default::default() };
        assert!(spec.violated_at(&snapshot, &step));
        step.messages.push(MessageRecord {
            app: "A".into(),
            channel: MessageChannel::Push,
            recipient: String::new(),
            body: "offline".into(),
        });
        assert!(!spec.violated_at(&snapshot, &step));
        // With slack the point view cannot decide.
        let slack = PropertySpec::builder(61, "Eventually notify").leads_to(
            Expr::atom(Atom::CommandFailed),
            Expr::atom(Atom::UserNotified),
            2,
        );
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        assert!(!slack.violated_at(&snapshot, &failing));
    }

    #[test]
    fn derived_ltl_rendering_and_override() {
        let spec = PropertySpec::builder(46, "No sprinkler at night").never(Expr::and([
            Expr::mode_is("Night"),
            Expr::capability_attr("sprinkler", "sprinkler", "on"),
        ]));
        assert_eq!(spec.to_ltl(), "[] !( mode == Night && sprinkler.sprinkler == on )");
        let pinned = PropertySpec::builder(46, "No sprinkler at night")
            .ltl("[] !( custom_prop )")
            .never(Expr::mode_is("Night"));
        assert_eq!(pinned.to_ltl(), "[] !( custom_prop )");
        // Nested disjunctions parenthesize inside conjunctions.
        let nested = Expr::and([
            Expr::anyone_home(),
            Expr::or([Expr::mode_is("Home"), Expr::mode_is("Night")]),
        ]);
        assert_eq!(nested.render(), "anyone_home && (mode == Home || mode == Night)");
        assert_eq!(Expr::not(Expr::anyone_home()).render(), "!anyone_home");
    }

    #[test]
    fn content_hash_tracks_meaningful_edits() {
        let base = PropertySpec::builder(46, "p").never(Expr::mode_is("Night"));
        let mut renamed = base.clone();
        renamed.name = "q".into();
        assert_ne!(base.content_hash(), renamed.content_hash());
        let other_mode = PropertySpec::builder(46, "p").never(Expr::mode_is("Away"));
        assert_ne!(base.content_hash(), other_mode.content_hash());
        let same = PropertySpec::builder(46, "p").never(Expr::mode_is("Night"));
        assert_eq!(base.content_hash(), same.content_hash());
    }

    /// `depth` nested conjunctions, each nesting in the second operand so
    /// every level adds one stack slot: `stack_depth() == depth`.
    fn nested(depth: usize) -> Expr {
        (1..depth)
            .fold(Expr::mode_is("Night"), |inner, _| Expr::and([Expr::mode_is("Home"), inner]))
    }

    #[test]
    fn stack_depth_counts_operands_after_the_first() {
        assert_eq!(Expr::mode_is("Night").stack_depth(), 1);
        assert_eq!(Expr::and([]).stack_depth(), 1);
        assert_eq!(Expr::not(nested(5)).stack_depth(), 5);
        // The deep operand first costs nothing extra.
        assert_eq!(Expr::or([nested(5), Expr::mode_is("Away")]).stack_depth(), 5);
        assert_eq!(Expr::or([Expr::mode_is("Away"), nested(5)]).stack_depth(), 6);
        let same_step =
            PropertySpec::builder(1, "p").leads_to(Expr::atom(Atom::CommandFailed), nested(3), 0);
        assert_eq!(same_step.stack_depth(), 4);
    }

    #[test]
    fn formulas_deeper_than_the_stack_bound_are_rejected() {
        let ok = PropertySpec::builder(1, "deep").never(nested(MAX_FORMULA_DEPTH));
        assert!(ok.validate().is_ok());
        let mut deep = ok.clone();
        deep.modality = Modality::Never(nested(MAX_FORMULA_DEPTH + 1));
        let err = deep.validate().unwrap_err();
        assert!(err.contains("evaluation stack"), "{err}");
        let err = PropertySpec::from_json(&deep.to_json()).unwrap_err();
        assert!(err.to_string().contains("evaluation stack"), "{err}");
        let caught = std::panic::catch_unwind(|| {
            PropertySpec::builder(1, "deep").always(nested(MAX_FORMULA_DEPTH + 1))
        });
        assert!(caught.is_err(), "the builder must refuse an over-deep formula");
    }

    #[test]
    fn state_step_classification() {
        let state = PropertySpec::builder(1, "s").never(Expr::mode_is("Away"));
        assert!(state.reads_state() && !state.step_only());
        let step = PropertySpec::builder(2, "t").never(Expr::atom(Atom::ConflictingCommands));
        assert!(step.step_only());
        let mixed = PropertySpec::builder(3, "m").never(Expr::and([
            Expr::mode_is("Night"),
            Expr::command_issued(DeviceSelect::any(), "unlock"),
        ]));
        assert!(mixed.reads_state() && mixed.reads_step());
    }
}
