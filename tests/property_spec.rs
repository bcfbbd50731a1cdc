//! Golden and property-based tests for the PropertySpec redesign.
//!
//! The open `PropertySpec` API replaced the closed enum catalog
//! (`PhysicalInvariant`/`PropertyKind`); these tests pin the pre-redesign
//! behavior as literals captured from the old catalog:
//!
//! * the exact LTL rendering of all 45 built-ins,
//! * the violated-property sets, state and transition counts of the `repro
//!   throughput` / `repro fleet` workloads,
//!
//! plus proptest evidence that JSON roundtripping and compilation preserve
//! verdicts against the interpreted reference semantics, on state vectors
//! drawn the way the model checker holds them (domain indices, online flags,
//! modes), and that constant folding only drops properties that can never
//! fire.

use iotsan::config::{DeviceConfig, SystemConfig};
use iotsan::devices::{DeviceId, LocationMode};
use iotsan::properties::{
    CommandRecord, CompiledPropertySet, DeviceSelect, EvalScratch, Expr, MessageChannel,
    MessageRecord, NetworkRecord, PropertyClass, PropertyId, PropertySet, PropertySpec,
    StepObservation,
};
use iotsan::{InstalledSystem, SystemState};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// The exact `id|class|category|name|ltl` lines of the pre-redesign catalog
/// (captured from `Property::to_ltl()` before the spec migration).
const GOLDEN_LTL: &str = "\
1|Conflicting commands|An actuator should not receive conflicting commands from a single event|[] !(conflicting_commands)
2|Repeated commands|An actuator should not receive repeated commands from a single event|[] !(repeated_commands)
3|Thermostat, AC, and Heater|Temperature should be within [50, 90] when people are at home|[] !( anyone_home && (temperature < 50 || temperature > 90) )
4|Thermostat, AC, and Heater|A heater should not be off when temperature is below 50|[] !( anyone_home && temperature < 50 && heater == off )
5|Thermostat, AC, and Heater|A heater should not be on when temperature is above 85|[] !( temperature > 85 && heater == on )
6|Thermostat, AC, and Heater|An AC and a heater should not both be turned on|[] !( heater == on && ac == on )
7|Thermostat, AC, and Heater|An AC should not be on when temperature is below 50|[] !( temperature < 50 && ac == on )
8|Lock and door control|The main door should be locked when no one is at home|[] !( !anyone_home && main_door == unlocked )
9|Lock and door control|The main door should be locked when people are sleeping at night|[] !( mode == Night && main_door == unlocked )
10|Lock and door control|Entrance doors should be closed when no one is at home|[] !( !anyone_home && entrance_door == open )
11|Lock and door control|Entrance doors should be closed when people are sleeping|[] !( mode == Night && entrance_door == open )
12|Lock and door control|No lock should be unlocked in Away mode|[] !( mode == Away && any_lock == unlocked )
13|Lock and door control|The garage door should be closed at night|[] !( mode == Night && garage_door == open )
14|Lock and door control|All locks should be locked when no one is at home|[] !( !anyone_home && any_lock == unlocked )
15|Lock and door control|The main door should not be unlocked when motion is detected and no one is home|[] !( !anyone_home && motion == active && main_door == unlocked )
16|Location mode|Location mode should be changed to Away when no one is at home|[] !( all_not_present && mode != Away )
17|Location mode|Location mode should not be Away when someone is at home|[] !( any_present && mode == Away )
18|Location mode|Location mode should not be Night when no one is at home|[] !( all_not_present && mode == Night )
19|Security and alarming|An alarm should strobe/siren when detecting smoke|[] !( smoke == detected && alarm == off )
20|Security and alarming|An alarm should strobe/siren when detecting carbon monoxide|[] !( co == detected && alarm == off )
21|Security and alarming|An alarm should sound when an intruder is detected|[] !( !anyone_home && motion == active && alarm == off )
22|Security and alarming|The alarm should not sound when there is no danger|[] !( alarm != off && !danger )
23|Security and alarming|The alarm should be silent at night unless there is danger|[] !( mode == Night && alarm != off && !danger )
24|Security and alarming|The main door should be unlocked during a fire when people are home|[] !( smoke == detected && anyone_home && main_door == locked )
25|Security and alarming|Doors should be openable when carbon monoxide is detected|[] !( co == detected && anyone_home && main_door == locked )
26|Security and alarming|The water valve should not be closed when smoke is detected|[] !( smoke == detected && valve == closed )
27|Security and alarming|Lights should turn on during a fire at night|[] !( smoke == detected && mode == Night && lights == off )
28|Security and alarming|Smoke and CO detectors should be online|[] !( smoke_detector_offline || co_detector_offline )
29|Security and alarming|A camera should capture when an intruder is detected|[] !( !anyone_home && motion == active && camera == idle )
30|Security and alarming|Appliances should be off when smoke is detected|[] !( smoke == detected && appliance == on )
31|Security and alarming|Fans should be off when smoke is detected|[] !( smoke == detected && fan == on )
32|Security and alarming|Heaters should be off when smoke is detected|[] !( smoke == detected && heater == on )
33|Water and sprinkler|Soil moisture should be within [20, 80]|[] !( moisture < 20 || moisture > 80 )
34|Water and sprinkler|The sprinkler should be off when rain/moisture is detected|[] !( water == wet && sprinkler == on )
35|Water and sprinkler|The water valve should be closed when a leak is detected|[] !( water == wet && valve == open )
36|Others|Lights should not be on when no one is at home|[] !( !anyone_home && lights == on )
37|Others|Appliances should not be on when no one is at home|[] !( !anyone_home && appliance == on )
38|Others|Appliances should not be on while people are sleeping|[] !( mode == Night && appliance == on )
39|Others|Lights should be off while people are sleeping|[] !( mode == Night && lights == on )
40|Others|Speakers should not be playing while people are sleeping|[] !( mode == Night && speaker == playing )
41|Security|Private information is sent out only via message interfaces, not network interfaces|[] !(http_request && !user_allowed)
42|Security|SMS recipients match the configured phone numbers|[] (send_sms -> recipient == configured_phone)
43|Security|No app executes the security-sensitive unsubscribe command|[] !(unsubscribe_executed)
44|Security|No app creates fake device events|[] !(fake_event_raised)
45|Robustness|Apps check command delivery and notify the user upon device/communication failure|[] (command_failed -> <> user_notified)";

#[test]
fn golden_ltl_renderings_match_the_pre_redesign_catalog() {
    let set = PropertySet::all();
    let rendered: Vec<String> = set
        .specs()
        .iter()
        .map(|p| format!("{}|{}|{}|{}", p.id, p.category, p.name, p.to_ltl()))
        .collect();
    let expected: Vec<&str> = GOLDEN_LTL.lines().collect();
    assert_eq!(rendered.len(), expected.len());
    for (got, want) in rendered.iter().zip(&expected) {
        assert_eq!(got, want);
    }
}

/// `repro throughput`'s quick-profile workload (8 market apps, failure
/// injection, 3 events): the violated-property set must be byte-identical to
/// the pre-redesign enum catalog.  The state/transition counts were
/// re-recorded for the depth-free breadth-first search (2345 → 2008 states),
/// and the transitions again when the model began offering one
/// device-offline step per sensor device (13905 → 11124), and both again
/// when it began offering one reading per observation class of an
/// unsubscribed sensor attribute and no communication-lost copy of an event
/// no handler receives (2008 → 1206 states, 11124 → 6160 transitions).  The
/// same search under the built-ins plus the sample custom specs keeps
/// the built-in violated set and the counts: same-step specs cannot change
/// the state space.
#[test]
fn golden_parallel_workload_verdict_is_unchanged() {
    let (apps, config) = iotsan_bench::scaling_workload();
    let budget = Duration::from_secs(300);
    let builtins = iotsan_bench::run_search(&apps, &config, 3, true, budget);
    let extended = iotsan_bench::run_search_with_properties(
        &apps,
        &config,
        3,
        true,
        budget,
        iotsan_bench::extended_property_set(),
    );
    let expected: BTreeSet<u32> =
        [1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 18, 36, 39, 45].into_iter().collect();
    for run in [&builtins, &extended] {
        assert!(!run.truncated);
        let violated: BTreeSet<u32> =
            run.report.violated_properties().into_iter().filter(|p| *p <= 45).collect();
        assert_eq!(violated, expected);
        assert_eq!(run.report.stats.states_stored, 1206);
        assert_eq!(run.report.stats.transitions, 6160);
    }
}

/// `repro fleet`'s quick-profile workloads (market corpus, 2 events, failure
/// injection, group-wise planner): violated sets, states and transitions per
/// corpus size pinned against the pre-redesign catalog.  The state,
/// transition and group pins track the effect-derived dependency graph:
/// effect summaries surface flows the subscription walk missed (mode writes
/// read elsewhere, app-state channels), which merges related groups — the
/// violated-property sets are invariant across both partitions.  The state
/// and transition pins were re-recorded when the search became breadth-first
/// over a depth-free visited set (each state stored once, not once per
/// depth), and the transition pins again when the model began offering one
/// device-offline step per sensor device (1672 → 1307, 1217 → 974,
/// 2375 → 1898), and the state and transition pins when it began offering
/// one reading per observation class of an unsubscribed sensor attribute
/// and no communication-lost copy of an event no handler receives (states
/// 325 → 244, 311 → 222, 608 → 434; transitions 1307 → 951, 974 → 646,
/// 1898 → 1254); the violated sets and group counts did not move.
#[test]
fn golden_fleet_workload_verdicts_are_unchanged() {
    let cases: [(usize, &[u32], usize, usize, usize); 3] = [
        (4, &[1, 3, 4, 5, 45], 244, 951, 5),
        (8, &[1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 18, 36, 39, 45], 222, 646, 2),
        (12, &[1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 17, 18, 21, 36, 45], 434, 1254, 3),
    ];
    for (corpus, expected, states, transitions, groups) in cases {
        let (apps, config) = iotsan_bench::fleet_workload(corpus);
        let mut cache = iotsan::planner::VerificationCache::new();
        let run =
            iotsan_bench::run_fleet(&apps, &config, 2, true, Duration::from_secs(300), &mut cache);
        assert!(!run.truncated(), "corpus {corpus} truncated");
        let violated: BTreeSet<u32> = run.report.violated_properties();
        assert_eq!(violated, expected.iter().copied().collect(), "corpus {corpus}");
        assert_eq!(run.states(), states, "corpus {corpus} states");
        assert_eq!(run.transitions(), transitions, "corpus {corpus} transitions");
        assert_eq!(run.report.groups.len(), groups, "corpus {corpus} groups");
    }
}

// ---------------------------------------------------------------------------
// Proptest: spec → JSON → compile preserves verdicts
// ---------------------------------------------------------------------------
//
// The vendored proptest stub binds simple scalar strategies; richer values
// (snapshots, steps, spec ASTs) are derived in-body from a seed through a
// small deterministic splitmix generator, so every failing case is
// reproducible from its printed case number.

/// Deterministic splitmix64 stream used to derive structured test values
/// from one proptest-bound seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() % 2 == 0
    }
}

/// The device population random households draw from: every capability and
/// role the built-in corpus selects, plus devices it never reads.
const POPULATION: &[(&str, &str, &str)] = &[
    ("alicePresence", "presenceSensor", ""),
    ("bobPresence", "presenceSensor", ""),
    ("frontDoor", "lock", "main door lock"),
    ("backDoor", "lock", ""),
    ("garage", "garageDoorControl", "entrance door"),
    ("gate", "doorControl", ""),
    ("smoke", "smokeDetector", ""),
    ("co", "carbonMonoxideDetector", ""),
    ("heaterOutlet", "switch", "heater"),
    ("acOutlet", "switch", "ac"),
    ("hallLight", "switch", "light"),
    ("coffeeMaker", "switch", "appliance"),
    ("motion", "motionSensor", ""),
    ("siren", "alarm", "alarm"),
    ("mainValve", "valve", "water valve"),
    ("leak", "waterSensor", ""),
    ("soil", "soilMoisture", ""),
    ("sprinkler", "sprinkler", "sprinkler"),
    ("thermo", "temperatureMeasurement", ""),
    ("nest", "thermostat", ""),
    ("fan", "fanControl", ""),
    ("camera", "imageCapture", "camera"),
    ("speaker", "musicPlayer", ""),
    ("shade", "windowShade", ""),
];

/// A random household: a random subset of the population, installed with no
/// apps, so each case compiles (and folds) against a different layout.
fn gen_system(g: &mut Gen) -> InstalledSystem {
    let mut config = SystemConfig::new();
    for (label, capability, role) in POPULATION {
        if g.pick(3) != 0 {
            config = config.with_device(DeviceConfig::new(*label, *capability, *role));
        }
    }
    InstalledSystem::new(Vec::<iotsan::ir::IrApp>::new(), config)
}

/// A random state vector of `system`, drawn the way the model checker holds
/// one: every attribute at a random domain index, a quarter of the devices
/// offline, a random location mode.
fn gen_state(g: &mut Gen, system: &InstalledSystem) -> SystemState {
    let mut state = system.initial_state();
    for (device, spec) in state.devices.iter_mut().zip(system.device_specs()) {
        for (index, attr) in spec.attributes.iter().enumerate() {
            device.set_index_at(spec, index, g.pick(attr.domain.len()));
        }
        device.set_online(g.pick(4) != 0);
    }
    state.mode = LocationMode::ALL[g.pick(LocationMode::ALL.len())];
    state
}

/// A random step observation over `devices` installed devices (commands may
/// also name a device that is not installed).
fn gen_step(g: &mut Gen, devices: usize) -> StepObservation {
    let mut step =
        StepObservation { configured_recipients: vec!["5551234".into()], ..Default::default() };
    if g.flag() {
        step.unsubscribes.push("A".into());
    }
    if g.flag() {
        step.command_failures = 1;
    }
    for _ in 0..g.pick(3) {
        let device = g.pick(devices + 1);
        step.commands.push(CommandRecord::new(
            DeviceId(device as u32),
            ["unlock", "lock", "on", "off"][g.pick(4)],
            true,
            true,
        ));
    }
    if g.flag() {
        let sms = g.flag();
        step.messages.push(MessageRecord {
            app: "A".into(),
            channel: if sms { MessageChannel::Sms } else { MessageChannel::Push },
            recipient: if sms { ["5551234", "6669999"][g.pick(2)].into() } else { String::new() },
            body: "b".into(),
        });
    }
    if g.pick(4) == 0 {
        step.network.push(NetworkRecord {
            app: "A".into(),
            url: "http://example.invalid".into(),
            allowed: g.flag(),
        });
    }
    step
}

/// The compiled verdict at one point (sorted property ids, fresh monitors)
/// and the interpreted reference's verdict on the same state, rendered with
/// [`InstalledSystem::snapshot`].
fn verdicts(
    system: &InstalledSystem,
    set: &PropertySet,
    compiled: &CompiledPropertySet,
    state: &SystemState,
    step: &StepObservation,
) -> (Vec<u32>, Vec<u32>) {
    let mut monitors = vec![0u8; compiled.monitor_count()];
    let mut out = Vec::new();
    compiled.check_transition(
        &state.devices,
        state.mode,
        step,
        &mut monitors,
        &mut EvalScratch::default(),
        &mut out,
    );
    let mut got: Vec<u32> = out.iter().map(|&i| set.specs()[i].id).collect();
    got.sort_unstable();
    let mut want: Vec<u32> =
        set.check_point(&system.snapshot(state), step).into_iter().map(|id| id.0).collect();
    want.sort_unstable();
    (got, want)
}

/// A random formula over the household vocabulary, depth-bounded.
fn gen_expr(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.pick(3) == 0 {
        let atoms: [Expr; 22] = [
            Expr::anyone_home(),
            Expr::mode_is("Night"),
            Expr::mode_is("Away"),
            Expr::capability_attr("lock", "lock", "unlocked"),
            Expr::role_attr("heater", "switch", "on"),
            Expr::capability_attr("smokeDetector", "smoke", "detected"),
            Expr::any_offline(DeviceSelect::capability("smokeDetector")),
            Expr::any_below(DeviceSelect::any(), "temperature", 50.0),
            Expr::any_above(DeviceSelect::any(), "temperature", 90.0),
            Expr::all_attr(DeviceSelect::capability("presenceSensor"), "presence", "not present"),
            // Broad-selector all-quantifier: most selected devices lack the
            // attribute, which must fail the test in both evaluators.
            Expr::all_attr(DeviceSelect::any(), "presence", "not present"),
            Expr::has_device(DeviceSelect::role("sprinkler")),
            Expr::mode_is("home"),
            Expr::any_attr(DeviceSelect::any(), "temperature", "68"),
            Expr::any_above(DeviceSelect::capability("soilMoisture"), "moisture", 60.0),
            Expr::all_attr(DeviceSelect::capability("lock"), "lock", "locked"),
            Expr::any_offline(DeviceSelect::any()),
            Expr::command_issued(DeviceSelect::any(), "on"),
            Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
            Expr::atom(iotsan::properties::Atom::ConflictingCommands),
            Expr::atom(iotsan::properties::Atom::CommandFailed),
            Expr::atom(iotsan::properties::Atom::UserNotified),
        ];
        return atoms[g.pick(atoms.len())].clone();
    }
    match g.pick(3) {
        0 => Expr::not(gen_expr(g, depth - 1)),
        1 => Expr::and((0..1 + g.pick(2)).map(|_| gen_expr(g, depth - 1)).collect::<Vec<_>>()),
        _ => Expr::or((0..1 + g.pick(2)).map(|_| gen_expr(g, depth - 1)).collect::<Vec<_>>()),
    }
}

/// A random custom spec (never/always over a random formula).
fn gen_spec(g: &mut Gen) -> PropertySpec {
    let expr = gen_expr(g, 3);
    let builder = PropertySpec::builder(99, "generated").category("Generated");
    if g.flag() {
        builder.never(expr)
    } else {
        builder.always(expr)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// PropertySpec → JSON → PropertySpec is the identity, and the compiled
    /// evaluator agrees with the interpreted reference on random points.
    #[test]
    fn spec_json_compile_roundtrip_preserves_verdicts(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let spec = gen_spec(&mut g);
        let system = gen_system(&mut g);
        let state = gen_state(&mut g, &system);
        let step = gen_step(&mut g, system.devices.len());

        // JSON roundtrip.
        let json = spec.to_json();
        let parsed = PropertySpec::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.content_hash(), spec.content_hash());

        // Compiled verdict == interpreted verdict.
        let set = PropertySet::from_specs(vec![parsed]);
        let compiled = system.compile_properties(&set);
        let (got, want) = verdicts(&system, &set, &compiled, &state, &step);
        prop_assert_eq!(got, want);
    }

    /// The whole built-in corpus agrees between the compiled and interpreted
    /// paths on random households, state vectors and steps.
    #[test]
    fn builtin_corpus_compiled_matches_interpreted(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let system = gen_system(&mut g);
        let state = gen_state(&mut g, &system);
        let step = gen_step(&mut g, system.devices.len());
        let set = PropertySet::all();
        let compiled = system.compile_properties(&set);
        let (got, want) = verdicts(&system, &set, &compiled, &state, &step);
        prop_assert_eq!(got, want);
    }
}

/// Folding is sound on the real corpus: for every group the planner makes
/// from the 150 market apps, no property the compiler dropped is violated
/// under the interpreted reference at any of 64 seeded random state vectors,
/// and the live ones agree with it exactly.
#[test]
fn folded_away_properties_never_fire_on_market_groups() {
    let (apps, config) = iotsan_bench::fleet_workload(150);
    let pipeline = iotsan::Pipeline::with_events(3);
    let plan = iotsan::VerificationPlanner::new(&pipeline).plan(&apps, &config);
    assert!(plan.jobs.len() > 100, "{} groups", plan.jobs.len());
    let mut g = Gen(0x0010_75a4);
    let mut dropped_somewhere = false;
    for job in &plan.jobs {
        let system = InstalledSystem::new(job.members.clone(), job.config.clone());
        let set = pipeline.properties_for(&job.config);
        let compiled = system.compile_properties(&set);
        let live: BTreeSet<u32> = compiled.properties().iter().map(|p| p.id().0).collect();
        dropped_somewhere |= live.len() < set.len();
        for _ in 0..64 {
            let state = gen_state(&mut g, &system);
            let step = gen_step(&mut g, system.devices.len());
            let (got, want) = verdicts(&system, &set, &compiled, &state, &step);
            assert!(
                want.iter().all(|id| live.contains(id)),
                "group {:?}: a dropped property fired: {want:?}, live {live:?}",
                job.apps
            );
            assert_eq!(got, want, "group {:?}", job.apps);
        }
    }
    assert!(dropped_somewhere, "folding dropped nothing on the market corpus");
}

// ---------------------------------------------------------------------------
// Custom properties end-to-end
// ---------------------------------------------------------------------------

const UNLOCK_DOOR: &str = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;

const AUTO_MODE: &str = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") { setLocationMode("Away") } else { setLocationMode("Home") }
}
"#;

/// A user-defined property is compiled, checked, violated, rendered as LTL
/// derived from its spec, and bucketed under its custom class label.
#[test]
fn custom_property_flows_through_the_whole_pipeline() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    let custom = PropertySpec::builder(46, "No unlock command while anyone is away")
        .category("Custom")
        .class(PropertyClass::Custom("Night security".into()))
        .never(Expr::and([
            Expr::not(Expr::anyone_home()),
            Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        ]));
    let mut pipeline = iotsan::Pipeline::with_events(2);
    pipeline.properties = PropertySet::all().with(custom);
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&46), "custom property not violated: {violated:?}");

    let by_class = result.violations_by_class(&pipeline.properties);
    assert!(by_class.get("Night security").copied().unwrap_or(0) >= 1, "{by_class:?}");

    let ltl = pipeline.properties.get(PropertyId(46)).unwrap().to_ltl();
    assert!(
        ltl.contains("!anyone_home && command(lock.unlock)"),
        "derived proposition missing: {ltl}"
    );
}

/// Custom properties shipped inside the system configuration
/// (`SystemConfig::custom_properties`) are registered and verified.
#[test]
fn config_shipped_custom_properties_are_verified() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household())
        .with_custom_property(
            PropertySpec::builder(46, "No unlock command while nobody is home")
                .category("Custom")
                .class(PropertyClass::Custom("House rules".into()))
                .never(Expr::and([
                    Expr::not(Expr::anyone_home()),
                    Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
                ])),
        );
    // The config round-trips through JSON with the spec aboard.
    let config = iotsan::config::SystemConfig::from_json(&config.to_json()).unwrap();
    // No explicit property registration: the verify path itself merges
    // config-shipped specs (`Pipeline::properties_for`).
    let pipeline = iotsan::Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&46), "config-shipped property not verified: {violated:?}");
    // The same merge serves display lookups, and tolerates the identical
    // re-registration.
    let properties = pipeline.properties_for(&config);
    assert_eq!(properties.len(), 46);
    let merged_twice = iotsan::Pipeline::with_events(2).with_properties(properties.clone());
    assert_eq!(merged_twice.properties_for(&config), properties);
    let by_class = result.violations_by_class(&properties);
    assert!(by_class.get("House rules").copied().unwrap_or(0) >= 1, "{by_class:?}");
}

/// Duplicate ids in an uploaded property-set JSON are rejected (violations
/// are attributed by id; a duplicate would misreport under the wrong spec).
#[test]
fn property_set_json_with_duplicate_ids_is_rejected() {
    let set = PropertySet::from_specs(vec![
        PropertySpec::builder(46, "first").never(Expr::mode_is("Night")),
        PropertySpec::builder(47, "second").never(Expr::mode_is("Away")),
    ]);
    assert!(PropertySet::from_json(&set.to_json()).is_ok());
    let clashing = set.to_json().replace("\"id\": 47", "\"id\": 46");
    let err = PropertySet::from_json(&clashing).unwrap_err();
    assert!(err.to_string().contains("duplicate property id P46"), "{err}");
}

/// Unknown property ids surface in the class table instead of disappearing.
#[test]
fn unknown_property_ids_are_reported_not_dropped() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    let pipeline = iotsan::Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    assert!(result.has_violations());
    // Bucket the violations against a property set that does not contain the
    // violated ids: every one must land in an explicit "unknown" bucket.
    let empty = PropertySet::empty();
    let by_class = result.violations_by_class(&empty);
    let total: usize = by_class.values().sum();
    assert_eq!(total, result.violation_count());
    assert!(by_class.keys().all(|k| k.starts_with("unknown property P")), "{by_class:?}");
}

/// A leads-to property with slack (`within > 0`) adds monitor slots to the
/// state vector and fires only when the deadline truly expires.
#[test]
fn leads_to_with_slack_verifies_through_the_model() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    // "An unlock command leads to someone coming home within 1 step" — the
    // bundle never satisfies this, so at depth 3 the deadline expires.
    let custom = PropertySpec::builder(47, "Unlock implies arrival within one step").leads_to(
        Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        Expr::anyone_home(),
        1,
    );
    let mut pipeline = iotsan::Pipeline::with_events(3);
    pipeline.properties = PropertySet::all().with(custom);
    pipeline.search.max_depth = 3;
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&47), "deadline violation not found: {violated:?}");
}
