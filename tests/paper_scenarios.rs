//! Scenario tests tied to specific claims, tables and figures of the paper.

use iotsan::checker::{Checker, SearchConfig};
use iotsan::config::{expert_configure, misconfigure, standard_household};
use iotsan::depgraph::analyze;
use iotsan::model::{ConcurrentModel, ModelOptions, SequentialModel};
use iotsan::properties::{PropertyClass, PropertySet};
use iotsan::system::InstalledSystem;
use iotsan::{translate_sources, Pipeline};
use iotsan_apps::{market, samples};

fn translate(group: &[market::MarketApp]) -> Vec<iotsan::ir::IrApp> {
    let sources: Vec<&str> = group.iter().map(|a| a.source.as_str()).collect();
    translate_sources(&sources).expect("corpus apps translate")
}

/// §2.2: the Virtual Thermostat misconfiguration — binding both the heater
/// outlet and the AC outlet to `outlets` — violates "an AC and a heater are
/// both turned on"; the expert configuration does not.
#[test]
fn virtual_thermostat_misconfiguration_turns_on_heater_and_ac() {
    let group: Vec<market::MarketApp> =
        market::named_apps().into_iter().filter(|a| a.name == "Virtual Thermostat").collect();
    let apps = translate(&group);
    let household = standard_household();

    // Volunteer-style misconfiguration: every switch outlet bound.
    let bad = misconfigure(&apps, &household, 42);
    let pipeline = Pipeline::with_events(2);
    let bad_result = pipeline.verify(&apps, &bad);
    let bad_names: Vec<String> = bad_result
        .violated_properties()
        .iter()
        .filter_map(|p| {
            pipeline.properties.get(iotsan::properties::PropertyId(*p)).map(|p| p.name.clone())
        })
        .collect();
    assert!(
        bad_names.iter().any(|n| n.contains("AC and a heater")),
        "misconfiguration did not produce the AC+heater violation: {bad_names:?}"
    );

    // Expert configuration (a single outlet) does not violate that property.
    let good = expert_configure(&apps, &household);
    let good_result = pipeline.verify(&apps, &good);
    let good_names: Vec<String> = good_result
        .violated_properties()
        .iter()
        .filter_map(|p| {
            pipeline.properties.get(iotsan::properties::PropertyId(*p)).map(|p| p.name.clone())
        })
        .collect();
    assert!(
        !good_names.iter().any(|n| n.contains("AC and a heater")),
        "expert configuration unexpectedly violates the AC+heater property"
    );
}

/// Figure 4 / Table 3: the example dependency graph produces exactly the five
/// final related sets of the paper, and the scale ratio is > 2.
#[test]
fn figure4_related_sets_match_the_paper() {
    let apps = translate(&samples::figure4_group());
    let (graph, sets) = analyze(&apps);
    let mut sizes: Vec<usize> = sets.sets.iter().map(|s| s.len()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 2, 2, 2, 3], "related set sizes diverge from Table 3c");
    assert!(sets.scale_ratio(&graph) > 2.0);
}

/// Table 7b's headline: the sequential design explores far fewer states than
/// the strict-concurrent design on the good group, while finding the same
/// violations (none, for the good group).
#[test]
fn sequential_design_is_cheaper_and_equally_effective() {
    let apps = translate(&samples::good_group());
    let pipeline = Pipeline::with_events(2);
    let config = pipeline.restrict_config(&apps, &expert_configure(&apps, &standard_household()));
    let system = InstalledSystem::new(apps.clone(), config);

    let sequential =
        SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(2));
    let seq_report = Checker::new(SearchConfig::with_depth(2)).verify(&sequential);

    let concurrent = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(2));
    let conc_report =
        Checker::new(SearchConfig::with_depth(concurrent.suggested_depth())).verify(&concurrent);

    assert_eq!(
        seq_report.violated_properties(),
        conc_report.violated_properties(),
        "the two designs disagree on violations"
    );
    assert!(
        conc_report.stats.states_stored > seq_report.stats.states_stored,
        "concurrent ({}) should explore more states than sequential ({})",
        conc_report.stats.states_stored,
        seq_report.stats.states_stored
    );
}

/// Table 8's group below its fixpoint: verification cost grows with the
/// number of external events, each added event adding at least as many
/// transitions as the one before.  The growth stops at the fixpoint (see
/// `table8_group_closes_below_the_papers_event_bounds`), whereas the
/// paper's Table 8 times grow exponentially up to 11 events.
#[test]
fn verification_cost_grows_with_event_bound() {
    let apps = translate(&samples::table8_group());
    let pipeline = Pipeline::with_events(1);
    let config = pipeline.restrict_config(&apps, &expert_configure(&apps, &standard_household()));
    let mut transitions = Vec::new();
    for events in 1..=3usize {
        let system = InstalledSystem::new(apps.clone(), config.clone());
        let model =
            SequentialModel::new(system, PropertySet::all(), ModelOptions::with_events(events));
        let report = Checker::new(SearchConfig::with_depth(events)).verify(&model);
        transitions.push(report.stats.transitions);
    }
    assert!(transitions[1] > transitions[0]);
    assert!(transitions[2] > transitions[1]);
    assert!(
        (transitions[2] - transitions[1]) >= (transitions[1] - transitions[0]),
        "growth is slowing before the fixpoint: {transitions:?}"
    );
}

/// Table 8 swept to the paper's 11 events: the breadth-first search reaches
/// a fixpoint long before, so the verdict (and the whole report) holds for
/// every larger bound.  The paper's runs took 6.61 s at 6 events and 23.39 h
/// at 11.
#[test]
fn table8_group_closes_below_the_papers_event_bounds() {
    let apps = translate(&samples::table8_group());
    let config = Pipeline::with_events(1)
        .restrict_config(&apps, &expert_configure(&apps, &standard_household()));
    // (failures, fixpoint, states, transitions) at every bound from the
    // fixpoint up to 11 events.  With failures, 448 transitions: the group
    // has a sensor no handler subscribes to, whose communication-lost
    // copies (512 transitions with them) had the plain events' successors.
    for (failures, closed, states, transitions) in [(false, 4, 10, 40), (true, 6, 64, 448)] {
        let verify = |events| {
            let mut options = ModelOptions::with_events(events);
            if failures {
                options = options.with_failures();
            }
            let system = InstalledSystem::new(apps.clone(), config.clone());
            let model = SequentialModel::new(system, PropertySet::all(), options);
            Checker::new(SearchConfig::with_depth(events)).verify(&model)
        };
        for events in 1..closed {
            assert_eq!(
                verify(events).stats.closed_at,
                None,
                "failures {failures}, {events} events"
            );
        }
        let fixpoint = verify(closed);
        for events in closed..=11 {
            let report = verify(events);
            let label = format!("failures {failures}, {events} events");
            assert_eq!(report.stats.closed_at, Some(closed), "{label}");
            assert_eq!(report.stats.states_stored, states, "{label}");
            assert_eq!(report.stats.transitions, transitions, "{label}");
            assert_eq!(report.violated_properties(), fixpoint.violated_properties(), "{label}");
        }
    }
}

/// §8's claim that none of the analyzed apps check whether their commands
/// were carried out: with failures injected, the robustness property is
/// violated for a representative market group.
#[test]
fn robustness_property_fires_under_failures() {
    let apps = translate(&samples::bad_group_mode_unlock());
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(2).with_failures();
    let result = pipeline.verify(&apps, &config);
    let classes = result.violations_by_class(&pipeline.properties);
    assert!(
        classes.get("Robustness").copied().unwrap_or(0) >= 1,
        "robustness violation not reported: {classes:?}"
    );
}

/// The 38 default physical invariants are all exercised by the property set
/// used throughout the evaluation (sanity check that nothing was dropped).
#[test]
fn default_property_set_covers_all_invariants() {
    let set = PropertySet::all();
    assert_eq!(set.len(), 45);
    let invariant_count =
        set.specs().iter().filter(|p| p.class == PropertyClass::PhysicalState).count();
    assert_eq!(invariant_count, 38);
    // Every physical invariant reads the snapshot and none needs a monitor
    // slot, so the state vector stays flat.
    assert!(set
        .specs()
        .iter()
        .filter(|p| p.class == PropertyClass::PhysicalState)
        .all(|p| p.reads_state()));
}

/// Counterexamples render in the Figure 7 style, mentioning the triggering
/// presence event, the mode change and the unlock command.
#[test]
fn figure7_counterexample_contains_the_full_chain() {
    let apps = translate(&samples::bad_group_mode_unlock());
    let pipeline = Pipeline::with_events(2);
    let config = pipeline.restrict_config(&apps, &expert_configure(&apps, &standard_household()));
    let system = InstalledSystem::new(apps, config);
    let model = SequentialModel::new(system, PropertySet::all(), ModelOptions::with_events(2));
    let report = Checker::new(SearchConfig::with_depth(2)).verify(&model);
    let found = report
        .violations
        .iter()
        .find(|v| {
            v.violation.description.contains("main door should be locked when no one is at home")
        })
        .expect("unlock-door violation");
    let rendered = found.trace.render(&found.violation);
    assert!(rendered.contains("not present"), "missing presence event:\n{rendered}");
    assert!(rendered.contains("location.mode = Away"), "missing mode change:\n{rendered}");
    assert!(rendered.contains("unlock"), "missing unlock command:\n{rendered}");
    assert!(rendered.contains("assertion violated"));
}
