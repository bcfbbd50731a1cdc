//! The paper's 45-property corpus (§8, Table 4), expressed through the open
//! [`PropertySpec`] API.
//!
//! Every built-in is plain spec data — the same language user-defined
//! properties use — so the whole corpus roundtrips through JSON, compiles to
//! slot-indexed evaluators, and renders its LTL formula from the spec
//! itself.  Each spec pins the paper's exact LTL proposition via
//! [`PropertySpec::ltl`]; the golden tests in `tests/property_spec.rs` assert
//! the renderings and the violated sets on the repro workloads are identical
//! to the pre-redesign enum catalog.

use crate::spec::{Atom, DeviceSelect, Expr, PropertyClass, PropertySpec};

// ---------------------------------------------------------------------------
// Shared sub-formulas (the old `SnapshotFacts` fields, now plain exprs)
// ---------------------------------------------------------------------------

fn not_home() -> Expr {
    Expr::not(Expr::anyone_home())
}

fn sleeping() -> Expr {
    Expr::mode_is("Night")
}

fn away() -> Expr {
    Expr::mode_is("Away")
}

fn smoke() -> Expr {
    Expr::capability_attr("smokeDetector", "smoke", "detected")
}

fn co() -> Expr {
    Expr::capability_attr("carbonMonoxideDetector", "carbonMonoxide", "detected")
}

fn leak() -> Expr {
    Expr::capability_attr("waterSensor", "water", "wet")
}

fn motion() -> Expr {
    Expr::capability_attr("motionSensor", "motion", "active")
}

fn intruder() -> Expr {
    Expr::and([not_home(), motion()])
}

fn danger() -> Expr {
    Expr::or([smoke(), co(), intruder(), leak()])
}

fn heater_on() -> Expr {
    Expr::role_attr("heater", "switch", "on")
}

fn ac_on() -> Expr {
    Expr::role_attr("ac", "switch", "on")
}

fn light_on() -> Expr {
    Expr::role_attr("light", "switch", "on")
}

fn appliance_on() -> Expr {
    Expr::role_attr("appliance", "switch", "on")
}

fn alarm_active() -> Expr {
    Expr::or([
        Expr::capability_attr("alarm", "alarm", "siren"),
        Expr::capability_attr("alarm", "alarm", "strobe"),
        Expr::capability_attr("alarm", "alarm", "both"),
    ])
}

fn main_lock_unlocked() -> Expr {
    Expr::role_attr("main door lock", "lock", "unlocked")
}

fn any_lock_unlocked() -> Expr {
    Expr::capability_attr("lock", "lock", "unlocked")
}

fn entrance_open() -> Expr {
    Expr::or([
        Expr::capability_attr("doorControl", "door", "open"),
        Expr::capability_attr("garageDoorControl", "door", "open"),
    ])
}

fn garage_open() -> Expr {
    Expr::capability_attr("garageDoorControl", "door", "open")
}

fn any_present() -> Expr {
    Expr::capability_attr("presenceSensor", "presence", "present")
}

fn all_not_present() -> Expr {
    Expr::all_attr(DeviceSelect::capability("presenceSensor"), "presence", "not present")
}

fn has(select: DeviceSelect) -> Expr {
    Expr::has_device(select)
}

fn temp_below(threshold: f64) -> Expr {
    Expr::any_below(DeviceSelect::any(), "temperature", threshold)
}

fn temp_above(threshold: f64) -> Expr {
    Expr::any_above(DeviceSelect::any(), "temperature", threshold)
}

fn spec(
    id: u32,
    name: &str,
    category: &str,
    class: PropertyClass,
    ltl: &str,
    unsafe_when: Expr,
) -> PropertySpec {
    PropertySpec::builder(id, name).category(category).class(class).ltl(ltl).never(unsafe_when)
}

fn physical(
    id: u32,
    name: &str,
    category: &str,
    proposition: &str,
    unsafe_when: Expr,
) -> PropertySpec {
    spec(
        id,
        name,
        category,
        PropertyClass::PhysicalState,
        &format!("[] !( {proposition} )"),
        unsafe_when,
    )
}

/// The full paper corpus: 1 conflicting-commands + 1 repeated-commands +
/// 38 physical-state invariants + 4 security + 1 robustness property, with
/// the same ids (1..=45), names, categories and LTL renderings as the
/// original closed catalog.
pub fn paper_properties() -> Vec<PropertySpec> {
    const THERMO: &str = "Thermostat, AC, and Heater";
    const LOCK: &str = "Lock and door control";
    const MODE: &str = "Location mode";
    const ALARM: &str = "Security and alarming";
    const WATER: &str = "Water and sprinkler";
    const OTHERS: &str = "Others";

    vec![
        spec(
            1,
            "An actuator should not receive conflicting commands from a single event",
            "Conflicting commands",
            PropertyClass::ConflictingCommands,
            "[] !(conflicting_commands)",
            Expr::atom(Atom::ConflictingCommands),
        ),
        spec(
            2,
            "An actuator should not receive repeated commands from a single event",
            "Repeated commands",
            PropertyClass::RepeatedCommands,
            "[] !(repeated_commands)",
            Expr::atom(Atom::RepeatedCommands),
        ),
        // -- Thermostat, AC and heater (5) -----------------------------------
        physical(
            3,
            "Temperature should be within [50, 90] when people are at home",
            THERMO,
            "anyone_home && (temperature < 50 || temperature > 90)",
            Expr::and([Expr::anyone_home(), Expr::or([temp_below(50.0), temp_above(90.0)])]),
        ),
        physical(
            4,
            "A heater should not be off when temperature is below 50",
            THERMO,
            "anyone_home && temperature < 50 && heater == off",
            Expr::and([
                Expr::anyone_home(),
                has(DeviceSelect::role("heater")),
                temp_below(50.0),
                Expr::not(heater_on()),
            ]),
        ),
        physical(
            5,
            "A heater should not be on when temperature is above 85",
            THERMO,
            "temperature > 85 && heater == on",
            Expr::and([heater_on(), temp_above(85.0)]),
        ),
        physical(
            6,
            "An AC and a heater should not both be turned on",
            THERMO,
            "heater == on && ac == on",
            Expr::and([heater_on(), ac_on()]),
        ),
        physical(
            7,
            "An AC should not be on when temperature is below 50",
            THERMO,
            "temperature < 50 && ac == on",
            Expr::and([ac_on(), temp_below(50.0)]),
        ),
        // -- Lock and door control (8) ----------------------------------------
        physical(
            8,
            "The main door should be locked when no one is at home",
            LOCK,
            "!anyone_home && main_door == unlocked",
            Expr::and([not_home(), main_lock_unlocked()]),
        ),
        physical(
            9,
            "The main door should be locked when people are sleeping at night",
            LOCK,
            "mode == Night && main_door == unlocked",
            Expr::and([sleeping(), main_lock_unlocked()]),
        ),
        physical(
            10,
            "Entrance doors should be closed when no one is at home",
            LOCK,
            "!anyone_home && entrance_door == open",
            Expr::and([not_home(), entrance_open()]),
        ),
        physical(
            11,
            "Entrance doors should be closed when people are sleeping",
            LOCK,
            "mode == Night && entrance_door == open",
            Expr::and([sleeping(), entrance_open()]),
        ),
        physical(
            12,
            "No lock should be unlocked in Away mode",
            LOCK,
            "mode == Away && any_lock == unlocked",
            Expr::and([away(), any_lock_unlocked()]),
        ),
        physical(
            13,
            "The garage door should be closed at night",
            LOCK,
            "mode == Night && garage_door == open",
            Expr::and([sleeping(), garage_open()]),
        ),
        physical(
            14,
            "All locks should be locked when no one is at home",
            LOCK,
            "!anyone_home && any_lock == unlocked",
            Expr::and([not_home(), any_lock_unlocked()]),
        ),
        physical(
            15,
            "The main door should not be unlocked when motion is detected and no one is home",
            LOCK,
            "!anyone_home && motion == active && main_door == unlocked",
            Expr::and([intruder(), main_lock_unlocked()]),
        ),
        // -- Location mode (3) -------------------------------------------------
        physical(
            16,
            "Location mode should be changed to Away when no one is at home",
            MODE,
            "all_not_present && mode != Away",
            Expr::and([
                has(DeviceSelect::capability("presenceSensor")),
                all_not_present(),
                Expr::not(away()),
            ]),
        ),
        physical(
            17,
            "Location mode should not be Away when someone is at home",
            MODE,
            "any_present && mode == Away",
            Expr::and([any_present(), away()]),
        ),
        physical(
            18,
            "Location mode should not be Night when no one is at home",
            MODE,
            "all_not_present && mode == Night",
            Expr::and([
                has(DeviceSelect::capability("presenceSensor")),
                all_not_present(),
                sleeping(),
            ]),
        ),
        // -- Security and alarming (14) ----------------------------------------
        physical(
            19,
            "An alarm should strobe/siren when detecting smoke",
            ALARM,
            "smoke == detected && alarm == off",
            Expr::and([smoke(), has(DeviceSelect::capability("alarm")), Expr::not(alarm_active())]),
        ),
        physical(
            20,
            "An alarm should strobe/siren when detecting carbon monoxide",
            ALARM,
            "co == detected && alarm == off",
            Expr::and([co(), has(DeviceSelect::capability("alarm")), Expr::not(alarm_active())]),
        ),
        physical(
            21,
            "An alarm should sound when an intruder is detected",
            ALARM,
            "!anyone_home && motion == active && alarm == off",
            Expr::and([
                intruder(),
                has(DeviceSelect::capability("alarm")),
                Expr::not(alarm_active()),
            ]),
        ),
        physical(
            22,
            "The alarm should not sound when there is no danger",
            ALARM,
            "alarm != off && !danger",
            Expr::and([alarm_active(), Expr::not(danger())]),
        ),
        physical(
            23,
            "The alarm should be silent at night unless there is danger",
            ALARM,
            "mode == Night && alarm != off && !danger",
            Expr::and([sleeping(), alarm_active(), Expr::not(danger())]),
        ),
        physical(
            24,
            "The main door should be unlocked during a fire when people are home",
            ALARM,
            "smoke == detected && anyone_home && main_door == locked",
            Expr::and([
                smoke(),
                Expr::anyone_home(),
                has(DeviceSelect::role("main door lock")),
                Expr::not(main_lock_unlocked()),
            ]),
        ),
        physical(
            25,
            "Doors should be openable when carbon monoxide is detected",
            ALARM,
            "co == detected && anyone_home && main_door == locked",
            Expr::and([
                co(),
                Expr::anyone_home(),
                has(DeviceSelect::role("main door lock")),
                Expr::not(main_lock_unlocked()),
            ]),
        ),
        physical(
            26,
            "The water valve should not be closed when smoke is detected",
            ALARM,
            "smoke == detected && valve == closed",
            Expr::and([smoke(), Expr::capability_attr("valve", "valve", "closed")]),
        ),
        physical(
            27,
            "Lights should turn on during a fire at night",
            ALARM,
            "smoke == detected && mode == Night && lights == off",
            Expr::and([
                smoke(),
                sleeping(),
                has(DeviceSelect::role("light")),
                Expr::not(light_on()),
            ]),
        ),
        physical(
            28,
            "Smoke and CO detectors should be online",
            ALARM,
            "smoke_detector_offline || co_detector_offline",
            Expr::or([
                Expr::any_offline(DeviceSelect::capability("smokeDetector")),
                Expr::any_offline(DeviceSelect::capability("carbonMonoxideDetector")),
            ]),
        ),
        physical(
            29,
            "A camera should capture when an intruder is detected",
            ALARM,
            "!anyone_home && motion == active && camera == idle",
            Expr::and([
                intruder(),
                has(DeviceSelect::capability("imageCapture")),
                Expr::not(Expr::capability_attr("imageCapture", "image", "captured")),
            ]),
        ),
        physical(
            30,
            "Appliances should be off when smoke is detected",
            ALARM,
            "smoke == detected && appliance == on",
            Expr::and([smoke(), appliance_on()]),
        ),
        physical(
            31,
            "Fans should be off when smoke is detected",
            ALARM,
            "smoke == detected && fan == on",
            Expr::and([smoke(), Expr::capability_attr("fanControl", "switch", "on")]),
        ),
        physical(
            32,
            "Heaters should be off when smoke is detected",
            ALARM,
            "smoke == detected && heater == on",
            Expr::and([smoke(), heater_on()]),
        ),
        // -- Water and sprinkler (3) -------------------------------------------
        physical(
            33,
            "Soil moisture should be within [20, 80]",
            WATER,
            "moisture < 20 || moisture > 80",
            Expr::or([
                Expr::any_below(DeviceSelect::capability("soilMoisture"), "moisture", 20.0),
                Expr::any_above(DeviceSelect::capability("soilMoisture"), "moisture", 80.0),
            ]),
        ),
        physical(
            34,
            "The sprinkler should be off when rain/moisture is detected",
            WATER,
            "water == wet && sprinkler == on",
            Expr::and([leak(), Expr::capability_attr("sprinkler", "sprinkler", "on")]),
        ),
        physical(
            35,
            "The water valve should be closed when a leak is detected",
            WATER,
            "water == wet && valve == open",
            Expr::and([leak(), Expr::capability_attr("valve", "valve", "open")]),
        ),
        // -- Others (5) ---------------------------------------------------------
        physical(
            36,
            "Lights should not be on when no one is at home",
            OTHERS,
            "!anyone_home && lights == on",
            Expr::and([not_home(), light_on()]),
        ),
        physical(
            37,
            "Appliances should not be on when no one is at home",
            OTHERS,
            "!anyone_home && appliance == on",
            Expr::and([not_home(), appliance_on()]),
        ),
        physical(
            38,
            "Appliances should not be on while people are sleeping",
            OTHERS,
            "mode == Night && appliance == on",
            Expr::and([sleeping(), appliance_on()]),
        ),
        physical(
            39,
            "Lights should be off while people are sleeping",
            OTHERS,
            "mode == Night && lights == on",
            Expr::and([sleeping(), light_on()]),
        ),
        physical(
            40,
            "Speakers should not be playing while people are sleeping",
            OTHERS,
            "mode == Night && speaker == playing",
            Expr::and([sleeping(), Expr::capability_attr("musicPlayer", "status", "playing")]),
        ),
        // -- Security (4) -------------------------------------------------------
        spec(
            41,
            "Private information is sent out only via message interfaces, not network interfaces",
            "Security",
            PropertyClass::Security,
            "[] !(http_request && !user_allowed)",
            Expr::atom(Atom::DisallowedNetwork),
        ),
        spec(
            42,
            "SMS recipients match the configured phone numbers",
            "Security",
            PropertyClass::Security,
            "[] (send_sms -> recipient == configured_phone)",
            Expr::atom(Atom::SmsRecipientMismatch),
        ),
        spec(
            43,
            "No app executes the security-sensitive unsubscribe command",
            "Security",
            PropertyClass::Security,
            "[] !(unsubscribe_executed)",
            Expr::atom(Atom::UnsubscribeCalled),
        ),
        spec(
            44,
            "No app creates fake device events",
            "Security",
            PropertyClass::Security,
            "[] !(fake_event_raised)",
            Expr::atom(Atom::FakeEventRaised),
        ),
        // -- Robustness (1) -----------------------------------------------------
        PropertySpec::builder(
            45,
            "Apps check command delivery and notify the user upon device/communication failure",
        )
        .category("Robustness")
        .class(PropertyClass::Robustness)
        .ltl("[] (command_failed -> <> user_notified)")
        .leads_to(Expr::atom(Atom::CommandFailed), Expr::atom(Atom::UserNotified), 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_forty_five_properties_with_paper_class_counts() {
        let props = paper_properties();
        assert_eq!(props.len(), 45);
        let count = |class: &PropertyClass| props.iter().filter(|p| &p.class == class).count();
        assert_eq!(count(&PropertyClass::ConflictingCommands), 1);
        assert_eq!(count(&PropertyClass::RepeatedCommands), 1);
        assert_eq!(count(&PropertyClass::PhysicalState), 38);
        assert_eq!(count(&PropertyClass::Security), 4);
        assert_eq!(count(&PropertyClass::Robustness), 1);
    }

    #[test]
    fn ids_are_one_through_forty_five_in_order() {
        let ids: Vec<u32> = paper_properties().iter().map(|p| p.id).collect();
        assert_eq!(ids, (1..=45).collect::<Vec<u32>>());
    }

    #[test]
    fn table4_category_counts_match_paper() {
        let mut counts = std::collections::BTreeMap::new();
        for p in paper_properties() {
            if p.class == PropertyClass::PhysicalState {
                *counts.entry(p.category.clone()).or_insert(0usize) += 1;
            }
        }
        assert_eq!(counts["Thermostat, AC, and Heater"], 5);
        assert_eq!(counts["Lock and door control"], 8);
        assert_eq!(counts["Location mode"], 3);
        assert_eq!(counts["Security and alarming"], 14);
        assert_eq!(counts["Water and sprinkler"], 3);
        assert_eq!(counts["Others"], 5);
    }

    #[test]
    fn every_builtin_pins_its_ltl_and_roundtrips_through_json() {
        for p in paper_properties() {
            assert!(p.ltl.is_some(), "{} has no pinned LTL", p.name);
            assert!(p.to_ltl().contains("[]"), "{}: {}", p.name, p.to_ltl());
            let back = PropertySpec::from_json(&p.to_json()).unwrap();
            assert_eq!(back, p, "{} does not roundtrip", p.name);
        }
    }

    #[test]
    fn physical_invariants_read_state_and_command_properties_do_not() {
        for p in paper_properties() {
            match p.class {
                PropertyClass::PhysicalState => assert!(p.reads_state(), "{}", p.name),
                _ => assert!(p.step_only(), "{}", p.name),
            }
        }
    }
}
