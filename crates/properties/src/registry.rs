//! The property registry: the set of [`PropertySpec`]s selected for one
//! verification run.
//!
//! §8: "we provide users with an interface to select the list of safety
//! properties they want to verify" — and, in this reproduction, to *extend*
//! it: the registry is an open collection of specs (built-ins and
//! user-defined alike), serde-loadable, content-hashable for the planner's
//! verification cache, and compilable into slot-indexed evaluators with
//! [`crate::compile::CompiledPropertySet::compile`].

use crate::builtins::paper_properties;
use crate::snapshot::{Snapshot, StepObservation};
use crate::spec::{ContentHasher, PropertyClass, PropertyId, PropertySpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The error returned when registering a spec whose id is already taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicatePropertyId(pub PropertyId);

impl fmt::Display for DuplicatePropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "property id {} is already registered", self.0)
    }
}

impl std::error::Error for DuplicatePropertyId {}

/// A set of properties selected for verification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PropertySet {
    specs: Vec<PropertySpec>,
}

impl PropertySet {
    /// The full paper corpus (all 45 built-in properties).
    pub fn all() -> Self {
        PropertySet { specs: paper_properties() }
    }

    /// An empty set (register custom specs with [`PropertySet::register`]).
    pub fn empty() -> Self {
        PropertySet { specs: Vec::new() }
    }

    /// The built-in properties with the listed ids.
    pub fn selection(ids: &[PropertyId]) -> Self {
        let specs =
            paper_properties().into_iter().filter(|p| ids.contains(&p.property_id())).collect();
        PropertySet { specs }
    }

    /// Builds a set from explicit specs.
    ///
    /// Ids must be unique — violations are attributed by id, so a duplicate
    /// would report under the wrong spec's name.  Debug builds assert this;
    /// use [`PropertySet::register`] / [`PropertySet::with`] for checked
    /// insertion, [`PropertySet::from_json`] for validated loading.
    pub fn from_specs(specs: Vec<PropertySpec>) -> Self {
        debug_assert!(
            Self::duplicate_id(&specs).is_none(),
            "duplicate property id {:?}",
            Self::duplicate_id(&specs)
        );
        PropertySet { specs }
    }

    /// The first id appearing more than once in `specs`, if any.
    fn duplicate_id(specs: &[PropertySpec]) -> Option<PropertyId> {
        let mut seen = std::collections::BTreeSet::new();
        specs.iter().find(|p| !seen.insert(p.id)).map(|p| p.property_id())
    }

    /// Registers an additional spec; ids must be unique within the set.
    pub fn register(&mut self, spec: PropertySpec) -> Result<(), DuplicatePropertyId> {
        if self.get(spec.property_id()).is_some() {
            return Err(DuplicatePropertyId(spec.property_id()));
        }
        self.specs.push(spec);
        Ok(())
    }

    /// Builder-style [`PropertySet::register`], panicking on duplicate ids.
    pub fn with(mut self, spec: PropertySpec) -> Self {
        self.register(spec).expect("property ids must be unique");
        self
    }

    /// The specs in the set.
    pub fn specs(&self) -> &[PropertySpec] {
        &self.specs
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Looks up a property by id.
    pub fn get(&self, id: PropertyId) -> Option<&PropertySpec> {
        self.specs.iter().find(|p| p.property_id() == id)
    }

    /// The class label of a property, for evaluation tables; `None` for ids
    /// not in the set.
    pub fn class_label(&self, id: PropertyId) -> Option<&str> {
        self.get(id).map(|p| p.class.label())
    }

    /// Properties of the given class.
    pub fn by_class<'a>(
        &'a self,
        class: &'a PropertyClass,
    ) -> impl Iterator<Item = &'a PropertySpec> {
        self.specs.iter().filter(move |p| &p.class == class)
    }

    /// Evaluates *every* property at one point where both views are visible,
    /// returning the ids of violated properties (leads-to properties use
    /// same-step response semantics here; bounded `within` distances are the
    /// compiled evaluators' monitors).
    ///
    /// This is the interpreted reference path; the model checker uses the
    /// compiled evaluators instead.
    pub fn check_point(&self, snapshot: &Snapshot, step: &StepObservation) -> Vec<PropertyId> {
        self.specs
            .iter()
            .filter(|p| p.violated_at(snapshot, step))
            .map(|p| p.property_id())
            .collect()
    }

    /// A stable 64-bit hash of every spec's content (ids, metadata, formula
    /// ASTs).  The planner folds this into its group fingerprints, so adding
    /// or editing a property invalidates exactly the cached verdicts that
    /// were computed under a different property set.
    pub fn content_hash(&self) -> u64 {
        let mut sorted: Vec<&PropertySpec> = self.specs.iter().collect();
        sorted.sort_by_key(|p| p.id);
        let mut h = ContentHasher::new();
        h.write_u64(sorted.len() as u64);
        for spec in sorted {
            spec.hash_into(&mut h);
        }
        h.finish()
    }

    /// Serializes the whole set to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PropertySet serializes")
    }

    /// Loads a set from JSON, rejecting duplicate property ids (violations
    /// are attributed by id, so a duplicate would misreport under the first
    /// spec's name).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let set: PropertySet = serde_json::from_str(json)?;
        if let Some(id) = Self::duplicate_id(&set.specs) {
            return Err(serde_json::Error::custom(format!(
                "duplicate property id {id} in property set"
            )));
        }
        for spec in &set.specs {
            spec.validate().map_err(serde_json::Error::custom)?;
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{
        CommandRecord, DeviceRole, DeviceSnapshot, FakeEventRecord, MessageChannel, MessageRecord,
        NetworkRecord,
    };
    use crate::spec::Expr;
    use iotsan_devices::DeviceId;
    use iotsan_ir::Value;

    fn cmd(device: u32, command: &'static str) -> CommandRecord {
        CommandRecord::new(DeviceId(device), command, true, true)
    }

    #[test]
    fn the_default_set_is_the_paper_corpus() {
        let set = PropertySet::all();
        assert_eq!(set.len(), 45);
        assert!(!set.is_empty());
        assert!(set.get(PropertyId(45)).is_some());
        assert_eq!(set.class_label(PropertyId(3)), Some("Unsafe physical states"));
        assert_eq!(set.class_label(PropertyId(99)), None);
    }

    #[test]
    fn selection_filters_by_id() {
        let set = PropertySet::selection(&[PropertyId(1), PropertyId(2)]);
        assert_eq!(set.len(), 2);
        assert!(set.get(PropertyId(1)).is_some());
        assert!(set.get(PropertyId(10)).is_none());
    }

    #[test]
    fn registration_rejects_duplicate_ids() {
        let mut set = PropertySet::all();
        let clash = PropertySpec::builder(45, "clash").never(Expr::mode_is("Away"));
        assert_eq!(set.register(clash), Err(DuplicatePropertyId(PropertyId(45))));
        let custom = PropertySpec::builder(46, "custom").never(Expr::mode_is("Away"));
        assert!(set.register(custom).is_ok());
        assert_eq!(set.len(), 46);
    }

    #[test]
    fn property_set_checks_step_properties() {
        let set = PropertySet::all();
        let step = StepObservation {
            commands: vec![cmd(0, "on"), cmd(0, "off"), cmd(1, "lock"), cmd(1, "lock")],
            network: vec![NetworkRecord {
                app: "A".into(),
                url: "http://evil".into(),
                allowed: false,
            }],
            fake_events: vec![FakeEventRecord {
                app: "A".into(),
                attribute: "smoke".into(),
                value: "detected".into(),
            }],
            unsubscribes: vec!["A".into()],
            messages: vec![MessageRecord {
                app: "A".into(),
                channel: MessageChannel::Sms,
                recipient: "999".into(),
                body: "b".into(),
            }],
            configured_recipients: vec!["555".into()],
            command_failures: 0,
        };
        let violated = set.check_point(&Snapshot::default(), &step);
        // Conflicting, repeated, network leakage, sms mismatch, unsubscribe,
        // fake event.
        assert_eq!(violated.len(), 6);
    }

    #[test]
    fn robustness_violation_requires_failure_without_notification() {
        let set = PropertySet::all();
        let step = StepObservation { command_failures: 1, ..Default::default() };
        let violated = set.check_point(&Snapshot::default(), &step);
        assert_eq!(violated, vec![PropertyId(45)]);
        let step = StepObservation {
            command_failures: 1,
            messages: vec![MessageRecord {
                app: "A".into(),
                channel: MessageChannel::Push,
                recipient: String::new(),
                body: "device offline".into(),
            }],
            ..Default::default()
        };
        assert!(set.check_point(&Snapshot::default(), &step).is_empty());
    }

    #[test]
    fn snapshot_checking_reports_physical_ids() {
        let set = PropertySet::all();
        let snap = Snapshot {
            mode: "Away".into(),
            devices: vec![DeviceSnapshot {
                id: DeviceId(0),
                label: "frontDoor".into(),
                capability: "lock".into(),
                role: DeviceRole::MainDoorLock,
                attributes: vec![("lock".into(), Value::Str("unlocked".into()))],
                online: true,
            }],
            time_seconds: 0,
        };
        let violated = set.check_point(&snap, &StepObservation::default());
        assert!(!violated.is_empty());
        for id in &violated {
            assert_eq!(set.get(*id).unwrap().class, PropertyClass::PhysicalState);
        }
        // An empty home violates nothing.
        assert!(set.check_point(&Snapshot::default(), &StepObservation::default()).is_empty());
    }

    #[test]
    fn check_point_unions_both_views() {
        let set = PropertySet::all();
        let snap = Snapshot {
            mode: "Away".into(),
            devices: vec![DeviceSnapshot {
                id: DeviceId(0),
                label: "frontDoor".into(),
                capability: "lock".into(),
                role: DeviceRole::MainDoorLock,
                attributes: vec![("lock".into(), Value::Str("unlocked".into()))],
                online: true,
            }],
            time_seconds: 0,
        };
        let step = StepObservation { unsubscribes: vec!["A".into()], ..Default::default() };
        let both = set.check_point(&snap, &step);
        assert!(both.contains(&PropertyId(43)));
        assert!(both.iter().any(|id| set.get(*id).unwrap().class == PropertyClass::PhysicalState));
    }

    #[test]
    fn content_hash_is_order_insensitive_but_content_sensitive() {
        let a = PropertySet::all();
        let mut reversed_specs = paper_properties();
        reversed_specs.reverse();
        let b = PropertySet::from_specs(reversed_specs);
        assert_eq!(a.content_hash(), b.content_hash());
        let extended = a.clone().with(PropertySpec::builder(46, "x").never(Expr::mode_is("Night")));
        assert_ne!(a.content_hash(), extended.content_hash());
    }

    #[test]
    fn set_roundtrips_through_json() {
        let set = PropertySet::selection(&[PropertyId(1), PropertyId(45)])
            .with(PropertySpec::builder(46, "custom").never(Expr::mode_is("Night")));
        let back = PropertySet::from_json(&set.to_json()).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.content_hash(), set.content_hash());
    }

    #[test]
    fn property_id_display_and_class_labels() {
        assert_eq!(PropertyId(7).to_string(), "P07");
        assert_eq!(PropertyClass::PhysicalState.label(), "Unsafe physical states");
        assert_eq!(PropertyClass::Custom("Irrigation".into()).label(), "Irrigation");
        assert_eq!(
            DuplicatePropertyId(PropertyId(3)).to_string(),
            "property id P03 is already registered"
        );
    }
}
