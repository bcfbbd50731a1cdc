//! Fleet-verification acceptance suite for the group-wise planner.
//!
//! Five guarantees are enforced here on the market corpus (the first three
//! on its first 8 apps, the last two on all 150):
//!
//! 1. **Decomposition**: the planner partitions the corpus into at least two
//!    independent groups (the whole point of the dependency analyzer).
//! 2. **Soundness of the decomposition**: the merged violated-property set of
//!    the group-wise fleet check equals a monolithic whole-fleet check of the
//!    same corpus — splitting must not hide or invent violations.
//! 3. **Cache correctness** (property-based): re-verifying a fleet after
//!    mutating one app re-checks exactly the groups containing it, and the
//!    merged `FleetReport` is outcome-identical to a cold full run on the
//!    mutated bundle.
//! 4. **Concurrent execution is invisible**: `execute`, which verifies cache
//!    misses on several threads, reports the same outcomes, attributions and
//!    cache statistics as a serial loop over the plan, and writes through to
//!    a durable backing in exact plan order.
//! 5. **One planning path**: every planned job's fingerprint and restricted
//!    configuration equal the one-shot `fingerprint_group` and
//!    `restrict_config` over its members, in seeded bundle orders, and an
//!    app installed twice keeps both copies.

use iotsan::attribution::{attribute_traces, TraceAttribution};
use iotsan::checker::SearchReport;
use iotsan::config::{expert_configure, standard_household, SystemConfig};
use iotsan::ir::IrApp;
use iotsan::planner::fingerprint_group;
use iotsan::{
    translate_sources, Fingerprint, GroupOutcome, GroupResult, Pipeline, VerdictPersistence,
    VerificationCache,
};
use iotsan_apps::market;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The first `n` market apps under the expert household configuration.
fn market(n: usize) -> (Vec<IrApp>, SystemConfig) {
    let corpus: Vec<market::MarketApp> = market::market_apps().into_iter().take(n).collect();
    let sources: Vec<&str> = corpus.iter().map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("corpus apps translate");
    let config = expert_configure(&apps, &standard_household());
    (apps, config)
}

/// The first 8 market apps under the expert household configuration.
fn market8() -> (Vec<IrApp>, SystemConfig) {
    market(8)
}

#[test]
fn fleet_partitions_market_corpus_into_independent_groups() {
    let (apps, config) = market8();
    let mut cache = VerificationCache::new();
    let report = Pipeline::with_events(2).verify_fleet(&apps, &config, &mut cache);
    assert!(
        report.groups.len() >= 2,
        "expected >= 2 independent groups, got {:?}",
        report.groups.iter().map(|g| g.apps.clone()).collect::<Vec<_>>()
    );
    // Every non-excluded app is verified in at least one group.
    for app in &apps {
        if !app.dynamic_discovery {
            assert!(
                !report.groups_containing(&app.name).is_empty(),
                "{} not covered by any group",
                app.name
            );
        }
    }
    assert_eq!(report.cache_misses, report.groups.len());
}

#[test]
fn fleet_violations_match_monolithic_whole_fleet_check() {
    let (apps, config) = market8();
    let pipeline = Pipeline::with_events(2);
    let mut cache = VerificationCache::new();
    let fleet = pipeline.verify_fleet(&apps, &config, &mut cache);
    // The monolithic baseline verifies every app in one group, skipping
    // dependency analysis entirely.
    let verifiable: Vec<IrApp> = apps.iter().filter(|a| !a.dynamic_discovery).cloned().collect();
    let monolithic = pipeline.verify_group(&verifiable, &config);
    assert_eq!(
        fleet.violated_properties(),
        monolithic.violated_properties(),
        "group-wise fleet check and monolithic check disagree"
    );
}

#[test]
fn warm_rerun_is_pure_cache_replay() {
    let (apps, config) = market8();
    let pipeline = Pipeline::with_events(2);
    let mut cache = VerificationCache::new();
    let cold = pipeline.verify_fleet(&apps, &config, &mut cache);
    let warm = pipeline.verify_fleet(&apps, &config, &mut cache);
    assert_eq!(warm.cache_hits, warm.groups.len());
    assert_eq!(warm.cache_misses, 0);
    assert!(warm.groups.iter().all(|g| g.from_cache));
    assert_eq!(warm.outcome(), cold.outcome());
    for (hit, fresh) in warm.groups.iter().zip(&cold.groups) {
        assert_eq!(hit.attributions, fresh.attributions, "{:?}", hit.apps);
    }
}

/// One `store()` call: the fingerprint and the stored group's apps.
type StoreCall = (Fingerprint, Vec<String>);

/// A durable backing that loads nothing and records every `store()` call in
/// call order.
#[derive(Debug, Clone, Default)]
struct RecordingBacking(Arc<Mutex<Vec<StoreCall>>>);

impl RecordingBacking {
    fn stored(&self) -> Vec<StoreCall> {
        self.0.lock().expect("recording lock").clone()
    }
}

impl VerdictPersistence for RecordingBacking {
    fn load(&mut self, _fingerprint: Fingerprint) -> Option<GroupResult> {
        None
    }

    fn store(&mut self, fingerprint: Fingerprint, result: &GroupResult) -> bool {
        self.0.lock().expect("recording lock").push((fingerprint, result.apps.clone()));
        true
    }
}

#[test]
fn concurrent_execute_matches_serial_plan_execution() {
    let (apps, config) = market(150);
    let pipeline = Pipeline::with_events(2);
    let planner = pipeline.planner();
    let plan = planner.plan(&apps, &config);
    assert!(plan.jobs.len() >= 2, "the full corpus must plan several groups");

    // The serial reference: every job in plan order, one after another.
    let mut expected: Vec<(GroupOutcome, Vec<TraceAttribution>)> = Vec::new();
    let mut expected_stores: Vec<StoreCall> = Vec::new();
    for job in &plan.jobs {
        let result = planner.verify_job(job);
        if !result.report.stats.truncated {
            expected_stores.push((job.fingerprint, job.apps.clone()));
        }
        let outcome = GroupOutcome {
            apps: result.apps.clone(),
            violated_properties: result.violated_properties(),
            states_stored: result.report.stats.states_stored,
            transitions: result.report.stats.transitions,
        };
        expected.push((outcome, attribute_traces(&result.apps, &result.report.violations)));
    }
    expected.sort_by(|a, b| a.0.apps.cmp(&b.0.apps));

    let backing = RecordingBacking::default();
    let mut cache = VerificationCache::new().with_backing(Box::new(backing.clone()));
    let cold = planner.execute(&plan, &mut cache);
    let actual: Vec<(GroupOutcome, Vec<TraceAttribution>)> =
        cold.groups.iter().map(|g| (g.outcome(), g.attributions.clone())).collect();
    assert_eq!(actual, expected, "concurrent execute disagrees with serial plan execution");
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, plan.jobs.len()));
    assert_eq!((cache.hits(), cache.misses()), (0, plan.jobs.len()));
    assert_eq!(
        backing.stored(),
        expected_stores,
        "store() calls out of plan order or under the wrong fingerprint"
    );

    // A warm rerun is pure replay and writes nothing more.
    let warm = planner.execute(&plan, &mut cache);
    assert_eq!((warm.cache_hits, warm.cache_misses), (plan.jobs.len(), 0));
    assert_eq!(warm.outcome(), cold.outcome());
    assert_eq!(backing.stored(), expected_stores);
}

/// A seeded Fisher–Yates shuffle over splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// The planner computes each app's digest, the property hash and the config
/// index once per plan; the result must be exactly what the one-shot
/// `fingerprint_group` and `restrict_config` give for the job on its own.
#[test]
fn planned_jobs_match_one_shot_fingerprints_and_restricted_configs() {
    let (apps, _) = market(150);
    let pipeline = Pipeline::with_events(3);
    for seed in [0, 1001, 1002, 1003] {
        let mut order = apps.clone();
        if seed != 0 {
            shuffle(&mut order, seed);
        }
        let config = expert_configure(&order, &standard_household());
        let plan = pipeline.planner().plan(&order, &config);
        assert!(plan.jobs.len() > 100, "seed {seed}: {} jobs", plan.jobs.len());
        for job in &plan.jobs {
            assert_eq!(
                job.fingerprint,
                fingerprint_group(&pipeline, &job.members, &job.config),
                "seed {seed}, job {:?}",
                job.apps
            );
            assert_eq!(
                job.config,
                pipeline.restrict_config(&job.members, &config),
                "seed {seed}, job {:?}",
                job.apps
            );
        }
    }
}

/// A bundle that installs one app twice verifies both copies together, the
/// same as `verify_group` over the same apps.
#[test]
fn an_app_installed_twice_keeps_both_copies() {
    let (apps, config) = market8();
    let twice = apps[1].clone();
    let mut bundle = apps.clone();
    bundle.push(twice.clone());
    let pipeline = Pipeline::with_events(2);
    let plan = pipeline.planner().plan(&bundle, &config);
    let job = plan.jobs_for(&twice.name)[0];
    let copies = job.members.iter().filter(|m| ***m == twice).count();
    assert_eq!(copies, 2, "members {:?}", job.apps);

    let fleet = pipeline.verify_fleet(&bundle, &config, &mut VerificationCache::new());
    let group = fleet.groups.iter().find(|g| g.apps == job.apps).expect("the job's group");
    let direct = pipeline.verify_group(&job.members, &config);
    let verdict = |report: &SearchReport| {
        (report.violations.clone(), report.stats.states_stored, report.stats.transitions)
    };
    assert_eq!(verdict(&group.report), verdict(&direct.report));
    // The second copy is visible in the verdict: one copy alone differs.
    let mut once = job.members.clone();
    once.retain(|m| **m != twice);
    once.push(twice.into());
    assert_ne!(verdict(&pipeline.verify_group(&once, &config).report), verdict(&direct.report));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mutating one app (its IR content, not its event profile) and
    /// re-verifying with a warm cache re-checks exactly the groups containing
    /// that app, and the merged report equals a cold full run on the mutated
    /// bundle.
    #[test]
    fn mutating_one_app_rechecks_exactly_its_groups(index in 0usize..8) {
        let (apps, config) = market8();
        let pipeline = Pipeline::with_events(2);
        let mut cache = VerificationCache::new();
        pipeline.verify_fleet(&apps, &config, &mut cache);

        let mut mutated = apps.clone();
        let slot = index % mutated.len();
        let target = mutated[slot].name.clone();
        mutated[slot].description.push_str(" (v2)");
        // Skip indices whose app is excluded from verification.
        if mutated[slot].dynamic_discovery {
            return Ok(());
        }

        let warm = pipeline.verify_fleet(&mutated, &config, &mut cache);
        for group in &warm.groups {
            let contains_target = group.apps.contains(&target);
            prop_assert_eq!(group.from_cache, !contains_target);
        }
        prop_assert!(warm.cache_misses >= 1);

        let mut cold_cache = VerificationCache::new();
        let cold = pipeline.verify_fleet(&mutated, &config, &mut cold_cache);
        prop_assert_eq!(warm.outcome(), cold.outcome());
    }
}
