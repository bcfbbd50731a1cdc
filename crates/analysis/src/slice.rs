//! Property-directed cone-of-influence slicing.
//!
//! Given the registered [`iotsan_properties::PropertySpec`]s, only a subset of the state space
//! is *observable*: the device attributes, location mode and per-step flags
//! their atoms read.  A handler whose writes can never reach that cone —
//! directly or through any chain of internal events — cannot change any
//! verdict, so exploration may skip it entirely.
//!
//! # Soundness
//!
//! The slicer preserves verdicts *exactly* (byte-identical violated sets, not
//! just "no missed violations") by construction:
//!
//! 1. **The external-action alphabet is untouched.**  The model enumerates
//!    sensor events from installed *devices* (which the slice never removes),
//!    and `TimerFire`/`AppTouch`/`LocationEvent` actions per *handler* of
//!    those triggers — so every handler with an external trigger is
//!    unconditionally retained, and sliced and unsliced exploration see the
//!    same action menu at every state.  Only cascade-dispatched handlers
//!    (device- and mode-triggered) are candidates for dropping.
//! 2. **The cone is closed under observation.**  Retaining a handler adds
//!    its read channels *and its own trigger channel* to the cone, then the
//!    closure re-runs: any handler that can write a channel some retained
//!    handler reads or wakes on is itself retained.  A dropped handler
//!    therefore writes only channels that no property atom and no retained
//!    handler can ever observe.
//! 3. **Summaries over-approximate** (see [`crate::summary`]): effects in
//!    statically-unreachable branches are kept, so "writes" above means
//!    "could possibly write".
//!
//! Known caveat: dropped handlers also stop consuming the dispatcher's
//! cascade budget (`max_cascade`), so a run that *truncates* a cascade at the
//! bound could in principle truncate differently sliced vs unsliced.  The
//! bound exists as an anti-livelock backstop and is not reached by the market
//! corpus; ARCHITECTURE.md documents the caveat.

use crate::summary::{summarize_handler, EffectSummary, WriteEffect};
use iotsan_ir::IrApp;
use iotsan_properties::{Atom, PropertySet};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

/// The observable footprint of a property set: the event channels and
/// step-observation flags its atoms read, grown to a fixpoint by the slicer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cone {
    /// Observable event channels: device attribute names, `mode`, location
    /// event names and app-state channels (`state:{app}:{var}`).
    pub channels: BTreeSet<String>,
    /// Any actuator command is observable (conflicting/repeated/issued/failed
    /// command atoms).
    pub commands: bool,
    /// SMS sends are observable.
    pub sms: bool,
    /// Push messages are observable.
    pub push: bool,
    /// Network requests are observable.
    pub network: bool,
    /// `unsubscribe` calls are observable.
    pub unsubscribe: bool,
    /// Fake (`sendEvent`) events are observable.
    pub fake_events: bool,
}

impl Cone {
    /// Seeds the cone from every atom of every registered property.
    pub fn seed(properties: &PropertySet) -> Cone {
        let mut cone = Cone::default();
        for spec in properties.specs() {
            for expr in spec.modality.exprs() {
                expr.visit_atoms(&mut |atom| cone.add_atom(atom));
            }
        }
        cone
    }

    fn add_atom(&mut self, atom: &Atom) {
        match atom {
            Atom::ModeIs(_) => {
                self.channels.insert("mode".into());
            }
            // `anyone_home` reads presence sensors when installed and falls
            // back to the mode proxy otherwise — seed both.
            Atom::AnyoneHome => {
                self.channels.insert("presence".into());
                self.channels.insert("mode".into());
            }
            Atom::AnyAttr(t) | Atom::AllAttr(t) => {
                self.channels.insert(t.attribute.clone());
            }
            Atom::AnyBelow(t) | Atom::AnyAbove(t) => {
                self.channels.insert(t.attribute.clone());
            }
            // Constants of the installation / failure injection — no handler
            // writes can change them.
            Atom::HasDevice(_) | Atom::AnyOffline(_) => {}
            Atom::ConflictingCommands
            | Atom::RepeatedCommands
            | Atom::CommandFailed
            | Atom::CommandIssued(_) => self.commands = true,
            Atom::UserNotified => {
                self.sms = true;
                self.push = true;
            }
            Atom::SmsRecipientMismatch => self.sms = true,
            Atom::DisallowedNetwork => self.network = true,
            Atom::UnsubscribeCalled => self.unsubscribe = true,
            Atom::FakeEventRaised => self.fake_events = true,
        }
    }

    /// True when any of the handler's write effects lands inside the cone.
    pub fn observes(&self, summary: &EffectSummary) -> bool {
        summary.writes.iter().any(|w| match w {
            WriteEffect::Command { .. } if self.commands => true,
            WriteEffect::Sms => self.sms,
            WriteEffect::Push => self.push,
            WriteEffect::Network => self.network,
            WriteEffect::Unsubscribe => self.unsubscribe,
            WriteEffect::FakeEvent { .. } if self.fake_events => true,
            _ => false,
        }) || summary.written_channels().iter().any(|c| self.channels.contains(c))
    }

    /// Adds everything a retained handler can observe: its read channels and
    /// the channel its own trigger wakes on.
    fn absorb(&mut self, summary: &EffectSummary) -> bool {
        let mut grew = false;
        for c in summary.read_channels() {
            grew |= self.channels.insert(c);
        }
        if let Some(c) = summary.trigger_channel() {
            grew |= self.channels.insert(c);
        }
        grew
    }
}

/// The result of slicing one bundle against one property set.
#[derive(Debug, Clone)]
pub struct SlicePlan {
    /// `(app, handler)` names retained for exploration, sorted.
    pub retained: BTreeSet<(String, String)>,
    /// `(app, handler)` names proven irrelevant and dropped, sorted.
    pub dropped: BTreeSet<(String, String)>,
    /// The closed cone the plan was computed against.
    pub cone: Cone,
}

impl SlicePlan {
    /// Number of handlers the plan removes.
    pub fn dropped_count(&self) -> usize {
        self.dropped.len()
    }

    /// True when the plan removes nothing (sliced exploration would be
    /// identical to unsliced).
    pub fn is_identity(&self) -> bool {
        self.dropped.is_empty()
    }

    /// Applies the plan: the same apps (every app survives, even with all
    /// handlers dropped, so input bindings, state-var layout and the device
    /// table are untouched) minus the dropped handlers.
    pub fn apply(&self, apps: &[impl Borrow<IrApp>]) -> Vec<IrApp> {
        apps.iter()
            .map(|app| {
                let app = app.borrow();
                let mut sliced = app.clone();
                sliced
                    .handlers
                    .retain(|h| self.retained.contains(&(app.name.clone(), h.name.clone())));
                sliced
            })
            .collect()
    }

    /// Content hash of the plan (FNV-1a over the retained/dropped partition
    /// and the closed cone) — folded into planner fingerprints so cached
    /// verdicts never cross between different slices.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut write = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (app, handler) in &self.retained {
            write(b"keep");
            write(app.as_bytes());
            write(handler.as_bytes());
        }
        for (app, handler) in &self.dropped {
            write(b"drop");
            write(app.as_bytes());
            write(handler.as_bytes());
        }
        for c in &self.cone.channels {
            write(c.as_bytes());
        }
        let flags = [
            self.cone.commands,
            self.cone.sms,
            self.cone.push,
            self.cone.network,
            self.cone.unsubscribe,
            self.cone.fake_events,
        ];
        write(&flags.map(u8::from));
        h
    }
}

impl fmt::Display for SlicePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slice: {} handler(s) retained, {} dropped",
            self.retained.len(),
            self.dropped.len()
        )
    }
}

/// Computes the property-directed slice of `apps` against `properties`.
///
/// Handlers with external triggers (timer, app-touch, location events) are
/// always retained — they *are* the external-action alphabet.  Cascade
/// handlers are retained exactly when the closed cone observes their writes.
pub fn slice_plan(apps: &[impl Borrow<IrApp>], properties: &PropertySet) -> SlicePlan {
    let summaries: Vec<EffectSummary> = apps
        .iter()
        .map(Borrow::borrow)
        .flat_map(|app| app.handlers.iter().map(move |h| summarize_handler(app, h)))
        .collect();

    let mut cone = Cone::seed(properties);
    let mut retained: Vec<bool> = summaries.iter().map(|s| s.external_source()).collect();
    // External sources are in from the start, so their reads are observable
    // before the first relevance pass.
    for (i, s) in summaries.iter().enumerate() {
        if retained[i] {
            cone.absorb(s);
        }
    }

    loop {
        let mut changed = false;
        for (i, s) in summaries.iter().enumerate() {
            if !retained[i] && cone.observes(s) {
                retained[i] = true;
                changed = true;
                cone.absorb(s);
            }
        }
        if !changed {
            break;
        }
    }

    let mut plan = SlicePlan { retained: BTreeSet::new(), dropped: BTreeSet::new(), cone };
    for (i, s) in summaries.iter().enumerate() {
        let key = (s.app.clone(), s.handler.clone());
        if retained[i] {
            plan.retained.insert(key);
        } else {
            plan.dropped.insert(key);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_ir::{AppInput, IrHandler, IrStmt, Trigger};
    use iotsan_properties::{DeviceSelect, Expr, PropertySet, PropertySpec};

    fn command(input: &str, command: &str) -> IrStmt {
        IrStmt::DeviceCommand { input: input.into(), command: command.into(), args: vec![] }
    }

    fn device_handler(name: &str, input: &str, attribute: &str, body: Vec<IrStmt>) -> IrHandler {
        IrHandler {
            app: "A".into(),
            name: name.into(),
            trigger: Trigger::Device {
                input: input.into(),
                attribute: attribute.into(),
                value: None,
            },
            body,
        }
    }

    fn bundle() -> Vec<IrApp> {
        // lights: contact -> switch on (writes `switch`)
        // locker: contact -> lock (writes `lock`)
        // chain: switch -> lock (reads the channel `lights` writes)
        vec![IrApp {
            name: "A".into(),
            description: String::new(),
            inputs: vec![
                AppInput::device("contact1", "contactSensor"),
                AppInput::device("switches", "switch"),
                AppInput::device("locks", "lock"),
            ],
            handlers: vec![
                device_handler("lights", "contact1", "contact", vec![command("switches", "on")]),
                device_handler("locker", "contact1", "contact", vec![command("locks", "lock")]),
                device_handler("chain", "switches", "switch", vec![command("locks", "lock")]),
            ],
            state_vars: vec![],
            dynamic_discovery: false,
        }]
    }

    fn lock_property() -> PropertySet {
        let spec = PropertySpec::builder(90, "lock watched")
            .never(Expr::capability_attr("lock", "lock", "unlocked"));
        PropertySet::from_specs(vec![spec])
    }

    #[test]
    fn cone_pulls_in_transitive_writers() {
        let apps = bundle();
        let plan = slice_plan(&apps, &lock_property());
        // `locker` and `chain` write `lock`; `lights` writes `switch`, which
        // `chain` wakes on — all three are in the cone's closure.
        assert!(plan.is_identity(), "{plan}");
    }

    #[test]
    fn unobserved_writers_are_dropped() {
        let mut apps = bundle();
        // Remove the chain handler: now nothing observable reads `switch`.
        apps[0].handlers.retain(|h| h.name != "chain");
        let plan = slice_plan(&apps, &lock_property());
        assert_eq!(plan.dropped_count(), 1);
        assert!(plan.dropped.contains(&("A".to_string(), "lights".to_string())));
        let sliced = plan.apply(&apps);
        assert_eq!(sliced.len(), 1, "apps are never removed");
        assert_eq!(sliced[0].handlers.len(), 1);
        assert_eq!(sliced[0].handlers[0].name, "locker");
        assert_eq!(sliced[0].inputs.len(), apps[0].inputs.len(), "inputs untouched");
    }

    #[test]
    fn external_trigger_handlers_are_always_retained() {
        let mut apps = bundle();
        apps[0].handlers.push(IrHandler {
            app: "A".into(),
            name: "nightly".into(),
            trigger: Trigger::Timer { delay_seconds: Some(60) },
            body: vec![],
        });
        apps[0].handlers.retain(|h| h.name != "chain");
        let plan = slice_plan(&apps, &lock_property());
        assert!(plan.retained.contains(&("A".to_string(), "nightly".to_string())));
    }

    #[test]
    fn command_atoms_retain_every_command_issuer() {
        let mut apps = bundle();
        apps[0].handlers.retain(|h| h.name != "chain");
        let spec = PropertySpec::builder(91, "no conflicts")
            .never(Expr::atom(iotsan_properties::Atom::ConflictingCommands));
        let set = PropertySet::from_specs(vec![spec]);
        let plan = slice_plan(&apps, &set);
        assert!(plan.is_identity(), "every handler issues commands: {plan}");
    }

    #[test]
    fn distinct_plans_hash_differently() {
        let apps = bundle();
        let full = slice_plan(&apps, &lock_property());
        let mut pruned_apps = apps.clone();
        pruned_apps[0].handlers.retain(|h| h.name != "chain");
        let pruned = slice_plan(&pruned_apps, &lock_property());
        assert_ne!(full.content_hash(), pruned.content_hash());
        // Hash is deterministic.
        assert_eq!(full.content_hash(), slice_plan(&apps, &lock_property()).content_hash());
    }

    #[test]
    fn command_issued_select_is_conservative() {
        // CommandIssued selects a *specific* device, but the cone treats any
        // command as observable — selector narrowing is future work and the
        // conservative choice is sound.
        let apps = bundle();
        let spec = PropertySpec::builder(92, "lock commanded")
            .never(Expr::command_issued(DeviceSelect::capability("lock"), "lock"));
        let set = PropertySet::from_specs(vec![spec]);
        let plan = slice_plan(&apps, &set);
        assert!(plan.cone.commands);
        assert!(plan.is_identity());
    }
}
