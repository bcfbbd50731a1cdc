//! Serving renamed copies of a group against verifying each copy directly.
//!
//! `VerificationPlanner::execute` searches one cache miss per renaming class
//! (groups that are one system under different app names) and serves the
//! other members by replaying the searched member's counterexample paths on
//! their own models.  Here every group of every run is also verified
//! directly with `verify_job`, and the two reports must agree on every
//! non-timing field: violations with their traces, depths and paths,
//! states, transitions, `closed_at` and the trace bytes.  The attributions
//! must agree too.
//!
//! The number of groups served is checked against a reference partition
//! computed the direct way: each group's member IRs and restricted
//! configuration rendered with member names replaced by member positions
//! (app rows in member order, the network allow-list as positions), and
//! groups with equal renderings put in one class.  A key that merges groups
//! the reference keeps apart, or splits groups it merges, serves a
//! different number of groups.  The runs cover market prefixes, seeded
//! orders of the whole corpus (configuration rows follow bundle order, while
//! members are sorted by name), a corpus with one copy rebound to another
//! device, and failures on and off, at 3 events.  A hand-written group whose
//! verdict depends on member order is installed under two sets of names as
//! well: a model that ordered its members by anything but their sorted
//! names would tell the two apart.

use iotsan::attribution::attribute_traces;
use iotsan::checker::SearchReport;
use iotsan::config::{
    expert_configure, standard_household, AppConfig, Binding, DeviceConfig, SystemConfig,
};
use iotsan::ir::IrApp;
use iotsan::properties::{DeviceSelect, Expr, PropertySet, PropertySpec};
use iotsan::{translate_sources, GroupJob, Pipeline, VerificationCache};
use iotsan_apps::market;
use iotsan_telemetry::METRICS;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

/// Held around every `execute`, so that the served-groups counter read
/// around one call counts that call alone.
static EXECUTE: Mutex<()> = Mutex::new(());

fn corpus() -> Vec<IrApp> {
    let sources: Vec<String> = market::market_apps().into_iter().map(|a| a.source).collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    translate_sources(&refs).expect("corpus apps translate")
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

/// The report without its timing fields.
fn timing_free(report: &SearchReport) -> SearchReport {
    let mut report = report.clone();
    report.stats.elapsed = Duration::ZERO;
    report.stats.states_per_sec = 0.0;
    report
}

/// The reference class of `job`: its members and restricted configuration
/// rendered with every member name replaced by the member's position.
fn reference_class(job: &GroupJob) -> String {
    let position = |p: usize| format!("member #{p}");
    let mut members: Vec<IrApp> = job.members.iter().map(|member| (**member).clone()).collect();
    for (p, member) in members.iter_mut().enumerate() {
        member.name = position(p);
        for handler in &mut member.handlers {
            handler.app = position(p);
        }
    }
    let mut config = job.config.clone();
    config.apps = Vec::new();
    for (p, name) in job.apps.iter().enumerate() {
        for row in job.config.apps.iter().filter(|row| row.app == *name) {
            let mut row = row.clone();
            row.app = position(p);
            config.apps.push(row);
        }
    }
    config.network_allowed_apps = (0..job.apps.len())
        .filter(|&p| job.config.network_allowed_apps.contains(&job.apps[p]))
        .map(position)
        .collect();
    format!("{members:?} {config:?}")
}

/// Runs `execute` over `apps` with a fresh cache, compares every group with
/// `verify_job`, checks the served count against the reference partition,
/// and returns the number of groups searched.
fn assert_served_equals_direct(
    pipeline: &Pipeline,
    apps: &[IrApp],
    config: &SystemConfig,
    what: &str,
) -> usize {
    let planner = pipeline.planner();
    let plan = planner.plan(apps, config);
    let (report, served) = {
        let _serial = EXECUTE.lock().unwrap_or_else(|poison| poison.into_inner());
        let before = METRICS.planner_served_by_renaming.get();
        let report = planner.execute(&plan, &mut VerificationCache::new());
        (report, (METRICS.planner_served_by_renaming.get() - before) as usize)
    };
    assert_eq!(report.cache_misses, plan.jobs.len(), "{what}: served groups are misses");
    for job in &plan.jobs {
        let group = report
            .groups
            .iter()
            .find(|g| g.fingerprint == job.fingerprint)
            .unwrap_or_else(|| panic!("{what}: group {:?} missing", job.apps));
        let direct = planner.verify_job(job);
        assert!(!direct.report.stats.truncated, "{what}: {:?} truncated", job.apps);
        assert_eq!(group.apps, direct.apps, "{what}");
        assert_eq!(
            timing_free(&group.report),
            timing_free(&direct.report),
            "{what}: group {:?}",
            job.apps
        );
        assert_eq!(
            group.attributions,
            attribute_traces(&direct.apps, &direct.report.violations),
            "{what}: group {:?}",
            job.apps
        );
    }
    let classes: BTreeSet<String> = plan.jobs.iter().map(reference_class).collect();
    assert_eq!(served, plan.jobs.len() - classes.len(), "{what}: groups served");
    classes.len()
}

fn pipelines() -> [(Pipeline, &'static str); 2] {
    [(Pipeline::with_events(3), "failures off"), (Pipeline::with_events(3).with_failures(), "on")]
}

#[test]
fn market_prefixes_serve_what_direct_verification_reports() {
    let apps = corpus();
    for n in [25, 50, 100, 150] {
        let config = expert_configure(&apps[..n], &standard_household());
        for (pipeline, failures) in pipelines() {
            let searched = assert_served_equals_direct(
                &pipeline,
                &apps[..n],
                &config,
                &format!("first {n} market apps, {failures}"),
            );
            if n == 150 {
                // 112 groups, 19 of them distinct once names are taken out.
                assert_eq!(searched, 19, "{failures}");
            }
        }
    }
}

#[test]
fn seeded_corpus_orders_serve_what_direct_verification_reports() {
    let apps = corpus();
    for seed in 1001..=1005 {
        let mut order = apps.clone();
        shuffle(&mut order, seed);
        let config = expert_configure(&order, &standard_household());
        for (pipeline, failures) in pipelines() {
            let what = format!("market corpus, seed {seed}, {failures}");
            let searched = assert_served_equals_direct(&pipeline, &order, &config, &what);
            assert_eq!(searched, 19, "{what}");
        }
    }
}

#[test]
fn a_copy_bound_to_other_devices_is_its_own_class() {
    let apps = corpus();
    let mut config = expert_configure(&apps, &standard_household());
    // Auto Lock #3 watches another presence sensor than its copies, so the
    // groups it belongs to differ from their renamed copies in their
    // configuration.
    let row = config.apps.iter_mut().find(|row| row.app == "Auto Lock #3").expect("installed");
    let people = row.devices_for("people");
    let other = standard_household()
        .into_iter()
        .find(|d| d.capability == "presenceSensor" && !people.contains(&d.label))
        .expect("a second presence sensor");
    row.bindings.insert("people".into(), Binding::Devices(vec![other.label]));
    for (pipeline, failures) in pipelines() {
        let what = format!("Auto Lock #3 rebound, {failures}");
        let searched = assert_served_equals_direct(&pipeline, &apps, &config, &what);
        // The rebound copy's groups leave the classes of its copies.
        assert!(searched > 19, "{what}: {searched} classes");
    }
}

/// Switches the hall light on when motion starts.
const LIGHT_ON: &str = r#"
definition(name: "NAME", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "motion", "capability.motionSensor" }
    section("s") { input "light", "capability.switch" }
}
def installed() { subscribe(motion, "motion.active", onMotion) }
def onMotion(evt) { light.on() }
"#;

/// Switches the hall light off when motion starts.
const LIGHT_OFF: &str = r#"
definition(name: "NAME", namespace: "st", author: "a", description: "d")
preferences {
    section("s") { input "motion", "capability.motionSensor" }
    section("s") { input "light", "capability.switch" }
}
def installed() { subscribe(motion, "motion.active", onMotion) }
def onMotion(evt) { light.off() }
"#;

/// Watches the hall light, which puts both switching apps in its group.
const LIGHT_WATCH: &str = r#"
definition(name: "NAME", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "light", "capability.switch" } }
def installed() { subscribe(light, "switch", onSwitch) }
def onSwitch(evt) { log.debug "light switched" }
"#;

/// The on, off and watching apps installed under `names`, on one motion
/// sensor and one light.
fn light_bundle(names: [&str; 3]) -> (Vec<IrApp>, SystemConfig) {
    let sources: Vec<String> = [LIGHT_ON, LIGHT_OFF, LIGHT_WATCH]
        .iter()
        .zip(names)
        .map(|(source, name)| source.replace("NAME", name))
        .collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let apps = translate_sources(&refs).expect("light apps translate");
    let bound = |name: &str, inputs: &[&str]| {
        inputs.iter().fold(AppConfig::new(name), |app, input| {
            let label = if *input == "motion" { "hallMotion" } else { "hallLight" };
            app.with(*input, Binding::Devices(vec![label.into()]))
        })
    };
    let config = SystemConfig::new()
        .with_device(DeviceConfig::new("hallMotion", "motionSensor", ""))
        .with_device(DeviceConfig::new("hallLight", "switch", "light"))
        .with_app(bound(names[0], &["motion", "light"]))
        .with_app(bound(names[1], &["motion", "light"]))
        .with_app(bound(names[2], &["light"]));
    (apps, config)
}

/// The on and off apps answer one motion event with conflicting commands,
/// so whichever runs last decides the light and whether "the hall light is
/// never on" fails.  Members run in the order of their sorted names, so
/// installing the apps under other names that sort the same way must give
/// the same verdict, counterexample and state counts.  The first names sort
/// in the order of their lengths and the second do not: a model that
/// ordered its members by name length (or bundle position, or anything but
/// the sorted names) reports different verdicts for the two.
#[test]
fn member_order_follows_sorted_names_whatever_their_lengths() {
    let never_on = PropertySpec::builder(100, "The hall light is never on").never(Expr::any_attr(
        DeviceSelect::label("hallLight"),
        "switch",
        "on",
    ));
    let pipeline = Pipeline::with_events(2).with_properties(PropertySet::all().with(never_on));
    // Names of the on, off and watching apps: the off app sorts first.
    let lengths_agree = ["B Light On Again", "A Off", "C Watcher Of The Hall"];
    let lengths_differ = ["B On", "A Switch The Light Off Please", "C Watch"];
    let mut reports = Vec::new();
    for names in [lengths_agree, lengths_differ] {
        let (apps, config) = light_bundle(names);
        let what = format!("light apps named {names:?}");
        assert_served_equals_direct(&pipeline, &apps, &config, &what);
        let report = pipeline.verify_fleet(&apps, &config, &mut VerificationCache::new());
        let group = report.groups_containing(names[2]);
        assert_eq!(group.len(), 1, "{what}: one group holds all three apps");
        assert_eq!(group[0].apps.len(), 3, "{what}");
        reports.push((names, timing_free(&group[0].report)));
    }
    let [(first_names, first), (second_names, second)] = &reports[..] else { unreachable!() };
    // The off app runs first and the on app last: the light ends on.
    assert!(first.violated_properties().contains(&100), "{first:?}");
    let renamed = |text: &str| {
        first_names
            .iter()
            .zip(second_names)
            .fold(text.to_string(), |text, (from, to)| text.replace(from, to))
    };
    // Names of other lengths render traces of other sizes.
    let sizes_apart = |report: &SearchReport| {
        let mut stats = report.stats.clone();
        stats.peak_trace_bytes = 0;
        stats
    };
    assert_eq!(sizes_apart(second), sizes_apart(first));
    assert_eq!(second.violations.len(), first.violations.len());
    for (a, b) in second.violations.iter().zip(&first.violations) {
        assert_eq!((&a.violation, a.depth, &a.path), (&b.violation, b.depth, &b.path));
        assert_eq!(a.trace.to_string(), renamed(&b.trace.to_string()));
    }
}
