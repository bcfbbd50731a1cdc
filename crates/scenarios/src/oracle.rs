//! The differential oracle: four runs and a full-alphabet walk, one verdict.
//!
//! For each generated [`Household`] the oracle runs the full pipeline four
//! ways — a serial reference, the concurrent fleet executor, the household
//! with every app renamed, and a warm-cache rerun — and asserts they agree,
//! and with a dedup-free walk of the full action alphabet
//! ([`full_alphabet_depths`]).  It also checks the compiled
//! property evaluator the search relies on against the interpreted reference
//! semantics, group by group.  The sequential reference is a
//! serial loop of [`VerificationPlanner::verify_job`] over the plan, kept
//! independent of the concurrent group executor behind
//! [`Pipeline::verify_fleet`].  The equivalence each engine advertises is
//! checked exactly:
//!
//! * **fleet == serial plan execution**: identical [`GroupOutcome`]s — the
//!   concurrent executor verifies the same groups and merges them in plan
//!   order.
//! * **compiled == interpreted properties**: on seeded random state vectors
//!   and steps of every planned group, the compiled evaluator (domain masks,
//!   folding, bit-stack programs) reports exactly the properties
//!   [`PropertySet::check_point`](iotsan_properties::PropertySet::check_point)
//!   does on the rendered snapshot, for the
//!   built-ins and the household's generated custom specs alike.
//! * **warm == sequential**: identical outcomes, and the cold fleet run's
//!   suspect rankings, with every group served from the cache
//!   ([`FleetReport::cache_hits`] equals the group count).
//! * **renamed == original**: the household with every app renamed to a
//!   fresh name in the same sort order reports the same groups, violations,
//!   counterexample paths, statistics and suspect rankings once the names
//!   are mapped back (the trace bytes aside, which count the names).  This
//!   checks that no model step reads an app name except to render it, the
//!   argument the planner's renaming classes rest on.
//! * **checker == full alphabet**: per planned group, the fleet run's
//!   violated set and each property's counterexample depth equal what a
//!   dedup-free walk of every path of the *full* alphabet finds
//!   ([`full_alphabet_depths`]).  The walk builds its actions by hand, so
//!   it shares nothing with the model's action enumeration: the offline
//!   de-duplication, the dropped communication-lost copies and the
//!   observation classes ([`SequentialModel::new`]) are all checked here.

use crate::household::Household;
use crate::rng::SplitMix64;
use iotsan::checker::{StepLog, TransitionSystem};
use iotsan::ir::{IrApp, Trigger};
use iotsan::model::{ExternalAction, ModelOptions, ModelScratch, SequentialModel};
use iotsan::{
    FleetReport, GroupOutcome, InstalledSystem, Pipeline, SystemState, VerificationCache,
    VerificationPlanner,
};
use iotsan_config::SystemConfig;
use iotsan_devices::{DeviceId, LocationMode};
use iotsan_properties::{
    CommandRecord, EvalScratch, MessageChannel, MessageRecord, PropertySet, StepObservation,
};
use iotsan_telemetry::flight::{self, EventCode, Level};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The oracle phase in which two engines disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The generated Groovy failed to translate (a generator/frontend bug).
    Translate,
    /// The concurrent fleet executor differed from serial plan execution.
    Execute,
    /// The compiled property evaluator differed from the interpreted
    /// reference on a random state vector.
    Properties,
    /// Warm-cache rerun differed, or some group missed the cache.
    WarmCache,
    /// A group's violated set or a counterexample depth differed from a
    /// dedup-free walk of the full action alphabet.
    Alphabet,
    /// Renaming every app changed the report beyond the names.
    Renaming,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::Translate => "translate",
            Phase::Execute => "execute",
            Phase::Properties => "properties",
            Phase::WarmCache => "warm-cache",
            Phase::Alphabet => "alphabet",
            Phase::Renaming => "renaming",
        };
        f.write_str(name)
    }
}

/// A reproducible disagreement between two engine configurations.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed of the household that exposed it.
    pub seed: u64,
    /// Which comparison failed.
    pub phase: Phase,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {} diverged in phase {}: {}", self.seed, self.phase, self.detail)
    }
}

/// Aggregate statistics of one agreeing household check (for bench rows).
#[derive(Debug, Clone, Default)]
pub struct HouseholdReport {
    /// Number of related-set groups the planner formed.
    pub groups: usize,
    /// Union of violated property ids across groups (sequential run).
    pub violated: BTreeSet<u32>,
    /// States stored by the sequential run.
    pub states: usize,
    /// Transitions applied by the sequential run.
    pub transitions: usize,
    /// True when the reference run truncated (a state cap fired, so its
    /// counts are only a lower bound).
    pub truncated: bool,
}

fn pipeline_for(household: &Household) -> Pipeline {
    let mut pipeline = Pipeline::with_events(household.events);
    if household.failures {
        pipeline = pipeline.with_failures();
    }
    pipeline
}

fn outcome_detail(label: &str, a: &[GroupOutcome], b: &[GroupOutcome]) -> String {
    format!("{label}: sequential {a:?} vs {b:?}")
}

/// Runs the differential check on one household.
///
/// Returns the aggregate report when every engine agreed, or the first
/// [`Divergence`] found.  Deterministic: same household, same result.
pub fn check_household(household: &Household) -> Result<HouseholdReport, Divergence> {
    let seed = household.seed;
    let diverge = |phase: Phase, detail: String| {
        // A divergence is the harness's most valuable event: land it in the
        // flight recorder so a later dump (e.g. a daemon degrade in the same
        // process) carries the differential context too.
        flight::record(
            Level::Error,
            EventCode::Diagnostic,
            &format!("differential divergence at seed {seed} ({phase}): {detail}"),
        );
        Divergence { seed, phase, detail }
    };

    let refs: Vec<&str> = household.sources.iter().map(String::as_str).collect();
    let apps =
        iotsan::translate_sources(&refs).map_err(|e| diverge(Phase::Translate, e.to_string()))?;
    let config = &household.config;

    // --- Sequential reference: the plan's jobs, one after another ----------
    let seq_pipeline = pipeline_for(household);
    let (seq_outcome, truncated) = serial_reference(&seq_pipeline, &apps, config);

    // --- The concurrent fleet executor must reproduce it exactly -----------
    let mut fleet_cache = VerificationCache::new();
    let fleet = seq_pipeline.verify_fleet(&apps, config, &mut fleet_cache);
    if fleet.outcome() != seq_outcome {
        return Err(diverge(
            Phase::Execute,
            outcome_detail("fleet outcome mismatch", &seq_outcome, &fleet.outcome()),
        ));
    }

    // --- Renaming every app must change nothing but the names -------------
    check_renaming(&seq_pipeline, &apps, config, &fleet)
        .map_err(|detail| diverge(Phase::Renaming, detail))?;

    // --- Violated sets and depths must match the full alphabet -----------
    check_alphabet(&seq_pipeline, &apps, config, &fleet)
        .map_err(|detail| diverge(Phase::Alphabet, detail))?;

    // --- Compiled properties must match the interpreted reference ---------
    check_properties(&seq_pipeline, &apps, config, seed)
        .map_err(|detail| diverge(Phase::Properties, detail))?;

    // --- Warm cache: byte-identical verdicts, zero re-checking -------------
    let warm = seq_pipeline.verify_fleet(&apps, config, &mut fleet_cache);
    if warm.outcome() != seq_outcome {
        return Err(diverge(
            Phase::WarmCache,
            outcome_detail("warm outcome mismatch", &seq_outcome, &warm.outcome()),
        ));
    }
    for (cold, hit) in fleet.groups.iter().zip(&warm.groups) {
        if hit.attributions != cold.attributions {
            return Err(diverge(
                Phase::WarmCache,
                format!(
                    "warm attributions of {:?} differ: cold {:?} vs {:?}",
                    cold.apps, cold.attributions, hit.attributions
                ),
            ));
        }
    }
    if warm.cache_hits != warm.groups.len() || warm.cache_misses != 0 {
        return Err(diverge(
            Phase::WarmCache,
            format!(
                "expected {} cache hits, got {} hits / {} misses",
                warm.groups.len(),
                warm.cache_hits,
                warm.cache_misses
            ),
        ));
    }

    Ok(HouseholdReport {
        groups: fleet.groups.len(),
        violated: fleet.violated_properties(),
        states: states_of(&seq_outcome),
        transitions: seq_outcome.iter().map(|g| g.transitions).sum(),
        truncated,
    })
}

/// Verifies every planned group with [`VerificationPlanner::verify_job`], one
/// after another, and returns the outcomes sorted by app names (the order a
/// [`FleetReport`] merges into) plus whether any search truncated.
fn serial_reference(
    pipeline: &Pipeline,
    apps: &[iotsan::ir::IrApp],
    config: &SystemConfig,
) -> (Vec<GroupOutcome>, bool) {
    let planner = VerificationPlanner::new(pipeline);
    let plan = planner.plan(apps, config);
    let mut truncated = false;
    let mut outcome: Vec<GroupOutcome> = plan
        .jobs
        .iter()
        .map(|job| {
            let result = planner.verify_job(job);
            let stats = &result.report.stats;
            truncated |= stats.truncated || stats.states_capped;
            GroupOutcome {
                violated_properties: result.violated_properties(),
                states_stored: stats.states_stored,
                transitions: stats.transitions,
                apps: result.apps,
            }
        })
        .collect();
    outcome.sort_by(|a, b| a.apps.cmp(&b.apps));
    (outcome, truncated)
}

/// Verifies the household again with every app renamed to a fresh name in
/// the same sort order (so members are installed and dispatched in the same
/// order) and compares the report with `fleet` once the names are mapped
/// back: the same groups, violations with their depths and paths, the same
/// trace shapes, statistics and suspect rankings.  Timing fields and the
/// trace bytes, which count the names, are left out.
fn check_renaming(
    pipeline: &Pipeline,
    apps: &[IrApp],
    config: &SystemConfig,
    fleet: &FleetReport,
) -> Result<(), String> {
    let mut names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let fresh: BTreeMap<&str, String> = names
        .iter()
        .enumerate()
        .map(|(rank, name)| (*name, format!("Renamed {rank:06}")))
        .collect();
    let rename = |name: &mut String| {
        if let Some(new) = fresh.get(name.as_str()) {
            *name = new.clone();
        }
    };
    let mut renamed_apps = apps.to_vec();
    for app in &mut renamed_apps {
        rename(&mut app.name);
        for handler in &mut app.handlers {
            rename(&mut handler.app);
        }
    }
    let mut renamed_config = config.clone();
    renamed_config.apps.iter_mut().for_each(|row| rename(&mut row.app));
    renamed_config.network_allowed_apps.iter_mut().for_each(rename);
    let renamed =
        pipeline.verify_fleet(&renamed_apps, &renamed_config, &mut VerificationCache::new());

    let original: BTreeMap<&str, &str> =
        fresh.iter().map(|(name, new)| (new.as_str(), *name)).collect();
    let back = |name: &str| original.get(name).copied().unwrap_or(name).to_string();
    let excluded: Vec<String> = renamed.excluded_apps.iter().map(|a| back(a)).collect();
    if renamed.groups.len() != fleet.groups.len() || excluded != fleet.excluded_apps {
        return Err(format!(
            "{} groups excluding {:?}, renamed {} excluding {excluded:?}",
            fleet.groups.len(),
            fleet.excluded_apps,
            renamed.groups.len()
        ));
    }
    for (group, renamed) in fleet.groups.iter().zip(&renamed.groups) {
        let apps: Vec<String> = renamed.apps.iter().map(|a| back(a)).collect();
        let differs = |what: &str| format!("group {:?}: renamed {what} differs", group.apps);
        if apps != group.apps {
            return Err(format!("group {:?}: renamed group {apps:?}", group.apps));
        }
        let (a, b) = (&group.report.stats, &renamed.report.stats);
        let counts = |s: &iotsan::checker::SearchStats| {
            (
                s.states_stored,
                s.transitions,
                s.max_depth_reached,
                s.store_memory_bytes,
                s.truncated,
                s.states_capped,
                s.transitions_capped,
                s.closed_at,
            )
        };
        if counts(a) != counts(b) {
            return Err(format!("{}: {:?} vs {:?}", differs("statistics"), counts(a), counts(b)));
        }
        let shape = |report: &iotsan::checker::SearchReport| -> Vec<_> {
            report
                .violations
                .iter()
                .map(|v| {
                    let lines: Vec<usize> = v.trace.steps.iter().map(|s| s.log.len()).collect();
                    (v.violation.clone(), v.depth, v.path.clone(), lines)
                })
                .collect()
        };
        if shape(&group.report) != shape(&renamed.report) {
            return Err(differs("violations"));
        }
        let ranking = |attributions: &[iotsan::attribution::TraceAttribution], map: bool| {
            let app = |name: &str| if map { back(name) } else { name.to_string() };
            attributions
                .iter()
                .map(|a| {
                    let suspects: Vec<_> = a
                        .suspects
                        .iter()
                        .map(|s| (app(&s.app), s.mentions, s.in_final_step, s.score.to_bits()))
                        .collect();
                    (a.property, suspects)
                })
                .collect::<Vec<_>>()
        };
        if ranking(&group.attributions, false) != ranking(&renamed.attributions, true) {
            return Err(differs("suspect rankings"));
        }
    }
    Ok(())
}

/// Compares every complete group of `fleet` with [`full_alphabet_depths`]
/// on the same planned job: the same properties violated, each first at the
/// same depth.
fn check_alphabet(
    pipeline: &Pipeline,
    apps: &[iotsan::ir::IrApp],
    config: &SystemConfig,
    fleet: &FleetReport,
) -> Result<(), String> {
    for job in VerificationPlanner::new(pipeline).plan(apps, config).jobs {
        let Some(group) = fleet.groups.iter().find(|g| g.fingerprint == job.fingerprint) else {
            return Err(format!("group {:?} missing from the fleet report", job.apps));
        };
        if group.report.stats.truncated {
            continue;
        }
        let checker: BTreeMap<u32, usize> =
            group.report.violations.iter().map(|v| (v.violation.property, v.depth)).collect();
        let reference = full_alphabet_depths(
            InstalledSystem::new(job.members, job.config.clone()),
            pipeline.properties_for(&job.config),
            pipeline.model_options.clone(),
            pipeline.search.max_depth,
        );
        if checker != reference {
            return Err(format!(
                "group {:?}: checker (property, depth) {checker:?} vs full alphabet {reference:?}",
                job.apps
            ));
        }
    }
    Ok(())
}

/// Each violated property's first-violation depth over every path of at
/// most `max_depth` external events, in the sequential design without any
/// reduction: every action of the full alphabet ([`full_alphabet`]) applied
/// on [`SequentialModel::full_alphabet`], which stores every value as given,
/// and no visited set.  The reference the `alphabet` phase and
/// `tests/observation_classes.rs` compare the checker against; its cost is
/// the alphabet size to the power `max_depth`.
pub fn full_alphabet_depths(
    system: InstalledSystem,
    properties: PropertySet,
    options: ModelOptions,
    max_depth: usize,
) -> BTreeMap<u32, usize> {
    fn walk(
        model: &SequentialModel,
        state: &SystemState,
        depth: usize,
        max_depth: usize,
        scratch: &mut ModelScratch,
        out: &mut BTreeMap<u32, usize>,
    ) {
        if depth == max_depth {
            return;
        }
        let mut actions = Vec::new();
        full_alphabet(model, state, &mut actions);
        for action in &actions {
            let outcome = model.apply(state, action, scratch, &mut StepLog::disabled());
            for violation in &outcome.violations {
                let first = out.entry(violation.property).or_insert(depth + 1);
                *first = (*first).min(depth + 1);
            }
            walk(model, &outcome.state, depth + 1, max_depth, scratch, out);
        }
    }
    let model = SequentialModel::full_alphabet(system, properties, options);
    let mut out = BTreeMap::new();
    walk(&model, &model.initial_state(), 0, max_depth, &mut ModelScratch::default(), &mut out);
    out
}

/// Every external action the sequential design defines in `state`, built
/// from the installation alone: each sensor attribute's every other value
/// under every failure mode the policy allows, then per app its touch, its
/// timers and its location events not listed yet.  Nothing once the event
/// bound is reached.
pub fn full_alphabet(model: &SequentialModel, state: &SystemState, out: &mut Vec<ExternalAction>) {
    out.clear();
    if model.at_bound(state) {
        return;
    }
    let system = model.system();
    for (index, spec) in system.device_specs().iter().enumerate() {
        let device = DeviceId(index as u32);
        for (attr_index, attr) in spec.attributes.iter().enumerate() {
            if !spec.is_sensor() || !attr.environment_driven {
                continue;
            }
            for value_index in 0..attr.domain.len() {
                if state.devices[index].raw(attr_index) == Some(value_index as u8) {
                    continue;
                }
                for &failure in model.options().failure_policy.modes_for(device) {
                    out.push(ExternalAction::SensorEvent {
                        device,
                        attribute: system.device_attr_sym(device, attr_index),
                        attr_index: attr_index as u8,
                        value_index: value_index as u8,
                        failure,
                    });
                }
            }
        }
    }
    for (index, ir) in system.apps.iter().enumerate() {
        let (app, handlers) = (index as u32, &ir.handlers);
        if handlers.iter().any(|h| matches!(h.trigger, Trigger::AppTouch)) {
            out.push(ExternalAction::AppTouch { app });
        }
        for (handler, h) in handlers.iter().enumerate() {
            if matches!(h.trigger, Trigger::Timer { .. }) {
                out.push(ExternalAction::TimerFire { app, handler: handler as u32 });
            }
        }
        for h in handlers {
            if let Trigger::LocationEvent { name } = &h.trigger {
                let action = ExternalAction::LocationEvent { name: system.sym_of(name) };
                if !out.contains(&action) {
                    out.push(action);
                }
            }
        }
    }
}

/// Random state vectors checked per planned group.
const PROPERTY_POINTS: usize = 16;

/// Compares the compiled property evaluator with the interpreted reference
/// on [`PROPERTY_POINTS`] seeded random state vectors and steps of every
/// group the planner makes, each under the group's full property set.
fn check_properties(
    pipeline: &Pipeline,
    apps: &[iotsan::ir::IrApp],
    config: &SystemConfig,
    seed: u64,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let mut scratch = EvalScratch::default();
    let mut out = Vec::new();
    for job in VerificationPlanner::new(pipeline).plan(apps, config).jobs {
        let properties = pipeline.properties_for(&job.config);
        let system = InstalledSystem::new(job.members, job.config);
        let compiled = system.compile_properties(&properties);
        for _ in 0..PROPERTY_POINTS {
            let state = random_state(&mut rng, &system);
            let step = random_step(&mut rng, &system);
            let mut monitors = vec![0u8; compiled.monitor_count()];
            out.clear();
            compiled.check_transition(
                &state.devices,
                state.mode,
                &step,
                &mut monitors,
                &mut scratch,
                &mut out,
            );
            let got: BTreeSet<u32> = out.iter().map(|&i| properties.specs()[i].id).collect();
            let snapshot = system.snapshot(&state);
            let want: BTreeSet<u32> =
                properties.check_point(&snapshot, &step).into_iter().map(|id| id.0).collect();
            if got != want {
                return Err(format!(
                    "group {:?}: compiled {got:?} vs interpreted {want:?} at {snapshot:?}, {step:?}",
                    job.apps
                ));
            }
        }
    }
    Ok(())
}

/// A random state vector of `system`: every attribute at a random domain
/// index, some devices offline, a random location mode.
fn random_state(rng: &mut SplitMix64, system: &InstalledSystem) -> SystemState {
    let mut state = system.initial_state();
    for (device, spec) in state.devices.iter_mut().zip(system.device_specs()) {
        for (index, attr) in spec.attributes.iter().enumerate() {
            device.set_index_at(spec, index, rng.below(attr.domain.len()));
        }
        device.set_online(!rng.chance(20));
    }
    state.mode = *rng.pick(&LocationMode::ALL);
    state
}

/// A random step: commands from the installed devices' own command sets,
/// and random failures, unsubscribes and notifications.
fn random_step(rng: &mut SplitMix64, system: &InstalledSystem) -> StepObservation {
    let mut step = StepObservation {
        configured_recipients: system.config.phone_numbers.clone(),
        ..Default::default()
    };
    if !system.devices.is_empty() {
        for _ in 0..rng.below(3) {
            let device = DeviceId(rng.below(system.devices.len()) as u32);
            let commands = &system.device_spec(device).commands;
            if commands.is_empty() {
                continue;
            }
            step.commands.push(CommandRecord::new(device, rng.pick(commands).name, true, true));
        }
    }
    if rng.chance(30) {
        step.command_failures = 1;
    }
    if rng.chance(10) {
        step.unsubscribes.push("oracle".into());
    }
    if rng.chance(30) {
        step.messages.push(MessageRecord {
            app: "oracle".into(),
            channel: MessageChannel::Push,
            recipient: String::new(),
            body: "notice".into(),
        });
    }
    step
}

fn states_of(outcome: &[GroupOutcome]) -> usize {
    outcome.iter().map(|g| g.states_stored).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::household::SizeProfile;

    #[test]
    fn a_sweep_of_seeds_agrees_across_engines() {
        for seed in 0..15 {
            let household = Household::generate(seed, &SizeProfile::default());
            check_household(&household).unwrap_or_else(|d| panic!("{d}"));
        }
    }

    #[test]
    fn the_empty_household_checks_cleanly() {
        let household = Household {
            seed: 0,
            events: 1,
            failures: false,
            sources: Vec::new(),
            config: SystemConfig::new(),
        };
        let report = check_household(&household).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.groups, 0);
        assert!(report.violated.is_empty());
    }

    #[test]
    fn a_mangled_source_reports_a_translate_divergence() {
        let mut household = Household::generate(3, &SizeProfile::default());
        household.sources.push("definition( ".to_string());
        let err = check_household(&household).expect_err("must fail to translate");
        assert_eq!(err.phase, Phase::Translate);
        assert_eq!(err.seed, 3);
    }
}
