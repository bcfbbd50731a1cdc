//! The breadth-first search against a dedup-free reference: on seeded
//! generated households, the properties the checker reports equal those of
//! every action sequence up to the event bound, enumerated by plain
//! recursion over `apply` with no visited set.  This checks, with code
//! independent of the search, that keying the visited set on the encoded
//! state alone (no depth) never hides a violation.  Step-level properties
//! fire on transitions into already-visited states, so a search that
//! checked violations only on newly stored states fails here; the order
//! half of the argument is pinned on the checker's own counter model.
//!
//! The clock is the one thing the plain state encoding leaves out that a
//! handler can read, so hand-written households that read it (`now()`,
//! `evt.date`, a timer's event value) are checked the same way.

use iotsan::checker::{Checker, StepLog, TransitionSystem};
use iotsan::config::{expert_configure, standard_household};
use iotsan::model::SequentialModel;
use iotsan::properties::{DeviceSelect, Expr, PropertySet, PropertySpec};
use iotsan::{InstalledSystem, Pipeline};
use iotsan_scenarios::{Household, SizeProfile};
use std::collections::BTreeSet;

const EVENTS: usize = 2;
const HOUSEHOLDS: u64 = 100;

/// The violated property ids of every action sequence of length `1..=k`.
fn reference_violations<T: TransitionSystem>(model: &T, k: usize) -> BTreeSet<u32> {
    fn walk<T: TransitionSystem>(model: &T, state: &T::State, k: usize, out: &mut BTreeSet<u32>) {
        if k == 0 {
            return;
        }
        let mut actions = Vec::new();
        model.actions(state, &mut actions);
        for action in &actions {
            let outcome =
                model.apply(state, action, &mut T::Scratch::default(), &mut StepLog::disabled());
            out.extend(outcome.violations.iter().map(|v| v.property));
            walk(model, &outcome.state, k - 1, out);
        }
    }
    let mut out = BTreeSet::new();
    walk(model, &model.initial_state(), k, &mut out);
    out
}

#[test]
fn search_matches_dedup_free_enumeration_on_generated_households() {
    let pipeline = Pipeline::with_events(EVENTS).with_failures();
    let mut violating = 0;
    for seed in 0..HOUSEHOLDS {
        let household = Household::generate(seed, &SizeProfile::default());
        let sources: Vec<&str> = household.sources.iter().map(String::as_str).collect();
        let apps = iotsan::translate_sources(&sources).expect("generated sources translate");
        let config = pipeline.restrict_config(&apps, &household.config);
        let properties = pipeline.properties_for(&config);
        let system = InstalledSystem::new(apps, config);
        let model = SequentialModel::new(system, properties, pipeline.model_options.clone());
        let report = Checker::new(pipeline.search.clone()).verify(&model);
        assert!(!report.stats.truncated, "seed {seed} truncated");
        let expected = reference_violations(&model, EVENTS);
        assert_eq!(report.violated_properties(), expected, "seed {seed}");
        violating += usize::from(!expected.is_empty());
    }
    // The comparison is only meaningful if some households violate.
    assert!(violating >= HOUSEHOLDS as usize / 5, "{violating}/{HOUSEHOLDS} households violate");
}

/// Unlocks the door on motion, but only from the third event's time on
/// (the clock ticks 600 s per event).  Reaching that time takes a detour
/// through states the search has already stored: active, inactive, active.
const UNLOCK_BY_NOW: &str = r#"
definition(name: "Late Unlock", namespace: "st", author: "a", description: "d")
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "lock1", "capability.lock"
} }
def installed() { subscribe(motion1, "motion.active", motionHandler) }
def motionHandler(evt) { if (now() >= 1800) { lock1.unlock() } }
"#;

/// The same, reading the event's timestamp.
const UNLOCK_BY_DATE: &str = r#"
definition(name: "Late Unlock", namespace: "st", author: "a", description: "d")
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "lock1", "capability.lock"
} }
def installed() { subscribe(motion1, "motion.active", motionHandler) }
def motionHandler(evt) { if (evt.date >= 1800) { lock1.unlock() } }
"#;

/// A timer whose event value is the time: each firing before 1800 s leaves
/// the state as it was.
const UNLOCK_BY_TIMER: &str = r#"
definition(name: "Late Unlock", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() { runIn(600, tick) }
def tick(evt) { if (evt.value >= 1800) { lock1.unlock() } }
"#;

#[test]
fn search_matches_dedup_free_enumeration_when_handlers_read_the_clock() {
    const EVENTS: usize = 3;
    let unlock = PropertySpec::builder(46, "No unlock command")
        .category("Custom")
        .never(Expr::command_issued(DeviceSelect::capability("lock"), "unlock"));
    let mut pipeline = Pipeline::with_events(EVENTS);
    pipeline.properties = PropertySet::all().with(unlock);
    for source in [UNLOCK_BY_NOW, UNLOCK_BY_DATE, UNLOCK_BY_TIMER] {
        let apps = iotsan::translate_sources(&[source]).expect("clock app translates");
        let config = expert_configure(&apps, &standard_household());
        let config = pipeline.restrict_config(&apps, &config);
        let properties = pipeline.properties_for(&config);
        let system = InstalledSystem::new(apps, config);
        let model = SequentialModel::new(system, properties, pipeline.model_options.clone());
        let report = Checker::new(pipeline.search.clone()).verify(&model);
        let expected = reference_violations(&model, EVENTS);
        assert!(expected.contains(&46), "the late unlock is reachable: {expected:?}");
        assert_eq!(report.violated_properties(), expected, "{source}");
        // Every layer holds new states (the clock differs), so no bound is
        // a fixpoint.
        assert_eq!(report.stats.closed_at, None, "{source}");
    }
}
