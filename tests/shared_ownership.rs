//! One copy of each app and each counterexample in a fleet pass.
//!
//! `plan` copies each bundle app once, into an `Arc` that every group
//! containing the app shares.  A search renders each counterexample once:
//! the co-violations of one step share its `Arc<Trace>`, a member served
//! from its renaming class's search shares each replayed trace the same
//! way, and the cache hands back the traces it was given.  A model renders
//! one `Arc<str>` per installed app, which every line that app owns shares.
//! Each check here compares pointers, so a deep copy anywhere on the way
//! fails it even when the copy is equal.

use iotsan::checker::{FoundViolation, Trace};
use iotsan::config::{expert_configure, standard_household, SystemConfig};
use iotsan::ir::IrApp;
use iotsan::{translate_sources, FleetReport, Pipeline, VerificationCache};
use iotsan_apps::market;
use std::collections::BTreeMap;
use std::sync::Arc;

fn market_bundle() -> (Vec<IrApp>, SystemConfig) {
    let sources: Vec<String> = market::market_apps().into_iter().map(|a| a.source).collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let apps = translate_sources(&refs).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    (apps, config)
}

#[test]
fn every_group_member_is_the_one_arc_of_its_bundle_app() {
    let (apps, config) = market_bundle();
    let pipeline = Pipeline::with_events(3);
    let plan = pipeline.planner().plan(&apps, &config);
    assert_eq!(plan.jobs.len(), 112);
    let mut copies: BTreeMap<&str, &Arc<IrApp>> = BTreeMap::new();
    let mut memberships = 0;
    for member in plan.jobs.iter().flat_map(|job| &job.members) {
        let first = copies.entry(&member.name).or_insert(member);
        assert!(Arc::ptr_eq(first, member), "{} is copied", member.name);
        memberships += 1;
    }
    let verifiable = apps.iter().filter(|app| !app.dynamic_discovery).count();
    assert_eq!(copies.len(), verifiable);
    assert!(memberships > 10 * verifiable, "{memberships} memberships");
}

/// Violations with one path hold one trace.
fn assert_one_trace_per_path(violations: &[FoundViolation], what: &str) {
    let mut traces: BTreeMap<&[u32], &Arc<Trace>> = BTreeMap::new();
    for found in violations {
        let first = traces.entry(&found.path).or_insert(&found.trace);
        assert!(Arc::ptr_eq(first, &found.trace), "{what}: path {:?} rendered twice", found.path);
    }
}

/// The owned lines of one group's traces hold one name per app; returns
/// how many lines were owned.
fn assert_one_owner_per_app(violations: &[FoundViolation], what: &str) -> usize {
    let mut names: BTreeMap<&str, &Arc<str>> = BTreeMap::new();
    let owners = violations
        .iter()
        .flat_map(|found| &found.trace.steps)
        .flat_map(|step| &step.log)
        .filter_map(|line| line.owner.as_ref());
    let mut owned = 0;
    for owner in owners {
        let first = names.entry(owner).or_insert(owner);
        assert!(Arc::ptr_eq(first, owner), "{what}: owner {owner} allocated twice");
        owned += 1;
    }
    owned
}

fn violations_of(report: &FleetReport) -> impl Iterator<Item = (&[String], &[FoundViolation])> {
    report.groups.iter().map(|g| (&g.apps[..], &g.report.violations[..]))
}

#[test]
fn searched_served_and_cached_groups_share_their_traces_and_owners() {
    let (apps, config) = market_bundle();
    let pipeline = Pipeline::with_events(3);
    let mut cache = VerificationCache::new();
    let cold = pipeline.verify_fleet(&apps, &config, &mut cache);
    let shared_paths = |violations: &[FoundViolation]| {
        violations.windows(2).filter(|pair| pair[0].path == pair[1].path).count()
    };
    // Co-violations occur in searched and in served groups alike.
    assert!(violations_of(&cold).map(|(_, v)| shared_paths(v)).sum::<usize>() > 100);
    let mut owned = 0;
    for (apps, violations) in violations_of(&cold) {
        let what = format!("{apps:?}");
        assert_one_trace_per_path(violations, &what);
        owned += assert_one_owner_per_app(violations, &what);
    }
    assert!(owned > 1000, "{owned} owned lines");

    let warm = pipeline.verify_fleet(&apps, &config, &mut cache);
    assert!(warm.groups.iter().all(|g| g.from_cache));
    for (hit, fresh) in warm.groups.iter().zip(&cold.groups) {
        assert_eq!(hit.apps, fresh.apps);
        assert_eq!(hit.report.violations.len(), fresh.report.violations.len());
        for (a, b) in hit.report.violations.iter().zip(&fresh.report.violations) {
            assert!(Arc::ptr_eq(&a.trace, &b.trace), "{:?}: the cache copied a trace", hit.apps);
        }
    }
}
