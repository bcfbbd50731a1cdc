//! # iotsan-bench
//!
//! Shared helpers for the reproduction harness (`repro` binary).  Each table
//! and figure of the paper's evaluation has a corresponding experiment here;
//! see `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison.

#![deny(missing_docs)]

use iotsan::checker::{Checker, SearchConfig, SearchReport};
use iotsan::config::{expert_configure, misconfigure, standard_household, SystemConfig};
use iotsan::ir::IrApp;
use iotsan::model::{ConcurrentModel, ModelOptions};
use iotsan::planner::{FleetReport, VerificationCache};
use iotsan::properties::PropertySet;
use iotsan::system::InstalledSystem;
use iotsan::{translate_sources, Pipeline};
use iotsan_apps::market::MarketApp;
use std::time::{Duration, Instant};

/// Translates a group of market apps into IR (panicking on corpus bugs, which
/// the corpus tests rule out).
pub fn translate_group(group: &[MarketApp]) -> Vec<IrApp> {
    let sources: Vec<&str> = group.iter().map(|a| a.source.as_str()).collect();
    translate_sources(&sources).expect("corpus apps translate")
}

/// The expert configuration of a group over the standard household.
pub fn expert_config(apps: &[IrApp]) -> SystemConfig {
    expert_configure(apps, &standard_household())
}

/// A volunteer-style (misconfigured) configuration of a group.
pub fn volunteer_config(apps: &[IrApp], seed: u64) -> SystemConfig {
    misconfigure(apps, &standard_household(), seed)
}

/// True when the crate was built with the `bench` feature, which restores the
/// paper-scale experiment budgets (hours of model checking at the largest
/// event bounds) instead of the laptop-quick defaults.
pub const PAPER_SCALE: bool = cfg!(feature = "bench");

/// The per-run wall-clock budget for a `repro` experiment: `quick` seconds by
/// default, `full` seconds under `--features bench`.
pub fn experiment_budget(quick: u64, full: u64) -> Duration {
    Duration::from_secs(if PAPER_SCALE { full } else { quick })
}

/// The largest external-event bound a `repro` experiment sweeps to: `quick`
/// by default, `full` under `--features bench`.
pub fn experiment_events(quick: usize, full: usize) -> usize {
    if PAPER_SCALE {
        full
    } else {
        quick
    }
}

/// Result of timing a single verification run.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// The checker report.
    pub report: SearchReport,
    /// True when the run hit a resource cap instead of finishing.
    pub truncated: bool,
}

/// Fully-parameterized verification run over the sequential design:
/// `failures` enables exhaustive device/communication failure injection
/// (which multiplies the enabled actions per state and is what makes the
/// scaling workload heavy).
pub fn run_search(
    apps: &[IrApp],
    config: &SystemConfig,
    events: usize,
    failures: bool,
    budget: Duration,
) -> TimedRun {
    run_search_with_properties(apps, config, events, failures, budget, PropertySet::all())
}

/// [`run_search`] against an explicit property registry — the `repro
/// properties` experiment verifies the same workload under the built-ins and
/// under built-ins + custom [`iotsan::properties::PropertySpec`]s to show
/// the open property API adds no throughput cliff.
pub fn run_search_with_properties(
    apps: &[IrApp],
    config: &SystemConfig,
    events: usize,
    failures: bool,
    budget: Duration,
    properties: PropertySet,
) -> TimedRun {
    let mut pipeline = Pipeline::with_events(events).with_properties(properties);
    if failures {
        pipeline = pipeline.with_failures();
    }
    pipeline.search.time_limit = Some(budget);
    let start = Instant::now();
    let report = pipeline.verify_group(apps, config).report;
    TimedRun { elapsed: start.elapsed(), truncated: report.stats.truncated, report }
}

/// The 45 built-ins plus [`sample_custom_properties`] — the extended
/// registry every custom-property experiment row uses.
pub fn extended_property_set() -> PropertySet {
    let mut set = PropertySet::all();
    for spec in sample_custom_properties() {
        set.register(spec).expect("sample ids are free");
    }
    set
}

/// A handful of user-defined specs over the standard household — the custom
/// workload of the `repro properties` experiment and its `property_eval`
/// rows.  Only same-step modalities, so the state space (and
/// therefore states/transitions) is identical to a built-ins-only run.
pub fn sample_custom_properties() -> Vec<iotsan::properties::PropertySpec> {
    use iotsan::properties::{Atom, DeviceSelect, Expr, PropertyClass, PropertySpec};
    vec![
        PropertySpec::builder(46, "No unlock command while nobody is home")
            .category("Custom")
            .class(PropertyClass::Custom("House rules".into()))
            .never(Expr::and([
                Expr::not(Expr::anyone_home()),
                Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
            ])),
        PropertySpec::builder(47, "Heater and lights off together when away")
            .category("Custom")
            .class(PropertyClass::Custom("House rules".into()))
            .never(Expr::and([
                Expr::mode_is("Away"),
                Expr::or([
                    Expr::role_attr("heater", "switch", "on"),
                    Expr::role_attr("light", "switch", "on"),
                ]),
            ])),
        PropertySpec::builder(48, "Garage stays shut when a leak is detected")
            .category("Custom")
            .class(PropertyClass::Custom("House rules".into()))
            .never(Expr::and([
                Expr::capability_attr("waterSensor", "water", "wet"),
                Expr::capability_attr("garageDoorControl", "door", "open"),
            ])),
        PropertySpec::builder(49, "Temperature stays above freezing-risk levels")
            .category("Custom")
            .class(PropertyClass::Custom("House rules".into()))
            .never(Expr::any_below(DeviceSelect::any(), "temperature", 40.0)),
        PropertySpec::builder(50, "A failed command never coincides with a fake event")
            .category("Custom")
            .class(PropertyClass::Custom("House rules".into()))
            .never(Expr::and([Expr::atom(Atom::CommandFailed), Expr::atom(Atom::FakeEventRaised)])),
    ]
}

/// The bench-profile workload for the throughput measurement: the first 8
/// market apps under their expert configuration, verified *with* failure
/// injection.  At 3 events this explores a few thousand states / ~15k
/// transitions in one search, CI-quick at one run.
pub fn scaling_workload() -> (Vec<IrApp>, SystemConfig) {
    fleet_workload(8)
}

/// The fleet workload at a chosen corpus size: the first `n` market apps
/// under their expert configuration.  Larger corpora yield more related
/// groups, which is the axis the `repro fleet` experiment sweeps.
pub fn fleet_workload(n: usize) -> (Vec<IrApp>, SystemConfig) {
    let corpus = iotsan_apps::market::market_apps();
    let group: Vec<MarketApp> = corpus.into_iter().take(n).collect();
    let apps = translate_group(&group);
    let config = expert_config(&apps);
    (apps, config)
}

/// Result of timing one fleet verification (planner + cache) run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Wall-clock duration of the whole fleet pass.
    pub elapsed: Duration,
    /// The merged fleet report.
    pub report: FleetReport,
}

impl FleetRun {
    /// Total states stored across all groups (cached groups replay the
    /// stored statistics).
    pub fn states(&self) -> usize {
        self.report.groups.iter().map(|g| g.report.stats.states_stored).sum()
    }

    /// Total transitions applied across all groups.
    pub fn transitions(&self) -> usize {
        self.report.groups.iter().map(|g| g.report.stats.transitions).sum()
    }

    /// True when any group's search hit a resource cap.
    pub fn truncated(&self) -> bool {
        self.report.groups.iter().any(|g| g.report.stats.truncated)
    }
}

/// One group-wise fleet verification pass through [`Pipeline::verify_fleet`]:
/// depgraph partitioning, per-group fingerprint lookup in `cache`, bounded
/// model checking of the misses (one search per group, independent groups
/// concurrently), trace-driven attribution, deterministic merge.
pub fn run_fleet(
    apps: &[IrApp],
    config: &SystemConfig,
    events: usize,
    failures: bool,
    budget: Duration,
    cache: &mut VerificationCache,
) -> FleetRun {
    let mut pipeline = Pipeline::with_events(events);
    if failures {
        pipeline = pipeline.with_failures();
    }
    pipeline.search.time_limit = Some(budget);
    let start = Instant::now();
    let report = pipeline.verify_fleet(apps, config, cache);
    FleetRun { elapsed: start.elapsed(), report }
}

/// Verifies a group with the strict-concurrency design.
pub fn run_concurrent(
    apps: &[IrApp],
    config: &SystemConfig,
    events: usize,
    budget: Duration,
) -> TimedRun {
    let p = Pipeline::with_events(events);
    let restricted = p.restrict_config(apps, config);
    let system = InstalledSystem::new(apps.to_vec(), restricted);
    let model = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(events));
    let depth = model.suggested_depth();
    let mut search = SearchConfig::with_depth(depth);
    search.time_limit = Some(budget);
    let start = Instant::now();
    let report = Checker::new(search).verify(&model);
    TimedRun { elapsed: start.elapsed(), truncated: report.stats.truncated, report }
}

/// Formats a duration the way the paper's tables do (seconds / minutes /
/// hours, or "forever" when the run was truncated by its budget).
pub fn format_duration(elapsed: Duration, truncated: bool) -> String {
    if truncated {
        return "forever (budget exceeded)".to_string();
    }
    let secs = elapsed.as_secs_f64();
    if secs < 60.0 {
        format!("{secs:.2}s")
    } else if secs < 3600.0 {
        format!("{:.1}m", secs / 60.0)
    } else {
        format!("{:.2}h", secs / 3600.0)
    }
}

/// [`format_duration`] for a [`TimedRun`].
pub fn format_runtime(run: &TimedRun) -> String {
    format_duration(run.elapsed, run.truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_apps::samples;

    #[test]
    fn helpers_round_trip_a_small_group() {
        let apps = translate_group(&samples::bad_group_mode_unlock());
        let config = expert_config(&apps);
        let run = run_search(&apps, &config, 1, false, Duration::from_secs(10));
        assert!(run.report.has_violations());
        assert!(!format_runtime(&run).is_empty());
    }

    #[test]
    fn run_fleet_caches_between_runs() {
        let apps = translate_group(&samples::bad_group_mode_unlock());
        let config = expert_config(&apps);
        let mut cache = VerificationCache::new();
        let budget = Duration::from_secs(30);
        let cold = run_fleet(&apps, &config, 2, false, budget, &mut cache);
        let warm = run_fleet(&apps, &config, 2, false, budget, &mut cache);
        assert_eq!(warm.report.cache_hits, warm.report.groups.len());
        assert_eq!(warm.report.outcome(), cold.report.outcome());
        assert!(cold.states() > 0 && cold.transitions() > 0);
    }

    #[test]
    fn volunteer_config_differs_from_expert() {
        let apps = translate_group(&samples::good_group());
        let expert = expert_config(&apps);
        let volunteer = volunteer_config(&apps, 3);
        assert_ne!(expert, volunteer);
    }
}
