//! Settling a reported property changes no report.
//!
//! The search reports each property once, with its first counterexample in
//! breadth-first order, and then calls `TransitionSystem::settle` so the
//! model stops checking it.  Every later violation of a settled property
//! would have been discarded, so the report must be exactly what a model
//! that never settles gives: the same violations with the same traces and
//! depths, the same states, transitions, deepest path and fixpoint.
//! `Unsettled` wraps a model and forwards everything but `settle`, which
//! keeps the trait's do-nothing default.
//!
//! The comparison runs on every planned group of the `market-cold` bundle
//! (150 market apps, 3 events) and the `deep-group` bundle (8 market apps,
//! 4 events, failures on), on 100 generated households with failures on,
//! on the concurrent design, and on a household whose custom leads-to
//! property with slack is violated early: its countdown lives in the state,
//! so it must keep running after the property is reported.

use iotsan::checker::{
    Checker, LogLine, SearchConfig, SearchReport, StepLog, StepOutcome, TransitionSystem,
};
use iotsan::config::{expert_configure, standard_household};
use iotsan::model::{ConcurrentModel, SequentialModel};
use iotsan::properties::{DeviceSelect, Expr, PropertySet, PropertySpec};
use iotsan::{translate_sources, InstalledSystem, Pipeline};
use iotsan_apps::{market, samples};
use iotsan_scenarios::{Household, SizeProfile};

/// `M` with `settle` left at the trait's default: every property is
/// checked on every transition.
struct Unsettled<'m, M>(&'m M);

impl<M: TransitionSystem> TransitionSystem for Unsettled<'_, M> {
    type State = M::State;
    type Action = M::Action;
    type Event = M::Event;
    type Scratch = M::Scratch;

    fn initial_state(&self) -> M::State {
        self.0.initial_state()
    }

    fn actions(&self, state: &M::State, out: &mut Vec<M::Action>) {
        self.0.actions(state, out);
    }

    fn apply(
        &self,
        state: &M::State,
        action: &M::Action,
        scratch: &mut M::Scratch,
        log: &mut StepLog<M::Event>,
    ) -> StepOutcome<M::State> {
        self.0.apply(state, action, scratch, log)
    }

    fn encode(&self, state: &M::State, out: &mut Vec<u8>) {
        self.0.encode(state, out);
    }

    fn at_bound(&self, state: &M::State) -> bool {
        self.0.at_bound(state)
    }

    fn display_action(&self, action: &M::Action) -> String {
        self.0.display_action(action)
    }

    fn render_event(&self, event: &M::Event) -> LogLine {
        self.0.render_event(event)
    }
}

/// Verifies `model` with and without settling and asserts the two reports
/// are equal in everything but timing; returns the settled one.
fn assert_settling_changes_nothing<M: TransitionSystem>(
    model: &M,
    search: &SearchConfig,
    label: &str,
) -> SearchReport {
    let settled = Checker::new(search.clone()).verify(model);
    let unsettled = Checker::new(search.clone()).verify(&Unsettled(model));
    assert_eq!(settled.violations, unsettled.violations, "{label}: violations");
    let counts = |r: &SearchReport| {
        let s = &r.stats;
        (s.states_stored, s.transitions, s.max_depth_reached, s.closed_at, s.truncated)
    };
    assert_eq!(counts(&settled), counts(&unsettled), "{label}: counts");
    settled
}

/// Plans the first `apps` market apps under the standard household and
/// compares every group's search; returns the summed violation count.
fn compare_market_bundle(apps: usize, events: usize, failures: bool) -> usize {
    let corpus = market::market_apps();
    let sources: Vec<&str> = corpus.iter().take(apps).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    let mut pipeline = Pipeline::with_events(events);
    if failures {
        pipeline = pipeline.with_failures();
    }
    let plan = pipeline.planner().plan(&apps, &config);
    let mut violations = 0;
    for (index, job) in plan.jobs.iter().enumerate() {
        let properties = pipeline.properties_for(&job.config);
        let system = InstalledSystem::new(job.members.clone(), job.config.clone());
        let model = SequentialModel::new(system, properties, pipeline.model_options.clone());
        let report =
            assert_settling_changes_nothing(&model, &pipeline.search, &format!("group {index}"));
        violations += report.violations.len();
    }
    violations
}

#[test]
fn settling_changes_no_market_cold_report() {
    // 496 reported violations over 112 groups (EXPERIMENTS.md, Table 5).
    assert_eq!(compare_market_bundle(150, 3, false), 496);
}

#[test]
fn settling_changes_no_deep_group_report() {
    assert!(compare_market_bundle(8, 4, true) >= 10);
}

#[test]
fn settling_changes_no_generated_household_report() {
    let pipeline = Pipeline::with_events(2).with_failures();
    let mut violating = 0;
    for seed in 0..100 {
        let household = Household::generate(seed, &SizeProfile::default());
        let sources: Vec<&str> = household.sources.iter().map(String::as_str).collect();
        let apps = translate_sources(&sources).expect("generated sources translate");
        let config = pipeline.restrict_config(&apps, &household.config);
        let properties = pipeline.properties_for(&config);
        let system = InstalledSystem::new(apps, config);
        let model = SequentialModel::new(system, properties, pipeline.model_options.clone());
        let report =
            assert_settling_changes_nothing(&model, &pipeline.search, &format!("seed {seed}"));
        violating += usize::from(report.has_violations());
    }
    assert!(violating >= 20, "{violating}/100 households violate");
}

#[test]
fn settling_changes_no_concurrent_report() {
    let apps = translate_sources(
        &samples::bad_group_mode_unlock().iter().map(|a| a.source.as_str()).collect::<Vec<_>>(),
    )
    .expect("sample apps translate");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(2).with_failures();
    let config = pipeline.restrict_config(&apps, &config);
    let properties = pipeline.properties_for(&config);
    let model = ConcurrentModel::new(
        InstalledSystem::new(apps, config),
        properties,
        pipeline.model_options.clone(),
    );
    let search = SearchConfig::with_depth(model.suggested_depth());
    let report = assert_settling_changes_nothing(&model, &search, "concurrent");
    assert!(report.has_violations());
}

/// "An unlock command leads to someone at home within one step": Auto Mode
/// Change + Unlock Door unlocks the door as everyone leaves, so the
/// deadline expires at the second event.  Later unlocks keep opening
/// obligations, and the countdown that tracks them is part of the state, so
/// a model that stopped updating it once the property was reported would
/// store different states.
#[test]
fn leads_to_monitors_keep_running_after_their_property_is_reported() {
    let apps = translate_sources(
        &samples::bad_group_mode_unlock().iter().map(|a| a.source.as_str()).collect::<Vec<_>>(),
    )
    .expect("sample apps translate");
    let config = expert_configure(&apps, &standard_household());
    let custom = PropertySpec::builder(47, "Unlock implies arrival within one step").leads_to(
        Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        Expr::anyone_home(),
        1,
    );
    let mut pipeline = Pipeline::with_events(4).with_failures();
    pipeline.properties = PropertySet::all().with(custom);
    let config = pipeline.restrict_config(&apps, &config);
    let properties = pipeline.properties_for(&config);
    let model = SequentialModel::new(
        InstalledSystem::new(apps, config),
        properties,
        pipeline.model_options.clone(),
    );
    assert_eq!(model.compiled_properties().monitor_count(), 1);
    let report = assert_settling_changes_nothing(&model, &pipeline.search, "leads-to");
    let found = report.violation_for(47).expect("the deadline expires");
    assert!(found.depth < 4, "reported at depth {}, before the last layer", found.depth);
}
