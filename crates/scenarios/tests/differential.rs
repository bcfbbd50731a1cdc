//! Integration tests of the scenario factory: a differential sweep, the
//! byte-identical determinism pin, and a seeded end-to-end shrink.

use iotsan_scenarios::{check_household, shrink, Household, SizeProfile};

/// Debug-build sweep size; CI's `smoke` job runs 200 households in
/// release through `repro scenarios`.
const SWEEP: u64 = 40;

#[test]
fn differential_sweep_finds_no_divergence() {
    let profile = SizeProfile::default();
    let mut truncated = 0usize;
    for seed in 0..SWEEP {
        let household = Household::generate(seed, &profile);
        let report = check_household(&household).unwrap_or_else(|d| panic!("{d}"));
        truncated += report.truncated as usize;
    }
    // The default size profile must keep (almost) every search exhaustive,
    // or the differential guarantee degenerates to verdict-only checking.
    assert!(truncated <= SWEEP as usize / 4, "{truncated}/{SWEEP} households truncated");
}

#[test]
fn generator_output_is_byte_identical_for_identical_seeds() {
    let profile = SizeProfile::default();
    for seed in [0, 1, 17, 42, 1_000_003] {
        let a = Household::generate(seed, &profile).to_json();
        let b = Household::generate(seed, &profile).to_json();
        assert_eq!(a, b, "seed {seed} generated different bytes across calls");
    }
}

#[test]
fn bigger_profiles_still_generate_valid_households() {
    let profile = SizeProfile { max_devices: 12, max_apps: 8 };
    for seed in 0..10 {
        let household = Household::generate(seed, &profile);
        let refs: Vec<&str> = household.sources.iter().map(String::as_str).collect();
        let apps = iotsan::translate_sources(&refs)
            .unwrap_or_else(|e| panic!("seed {seed} failed to translate: {e}"));
        let problems = household.config.validate(&apps);
        assert!(problems.is_empty(), "seed {seed}: {problems:?}");
    }
}

/// End-to-end seeded shrink: find a household that violates some property,
/// shrink it under "still violates that property", and check the minimal
/// reproduction is genuinely minimal (no app can be removed).
#[test]
fn a_violating_seed_shrinks_to_a_minimal_reproduction() {
    let profile = SizeProfile::default();
    let (household, target) = (0..400)
        .map(|s| Household::generate(s, &profile))
        .find_map(|h| {
            let report = check_household(&h).ok()?;
            let target = report.violated.iter().next().copied()?;
            (h.sources.len() >= 2).then_some((h, target))
        })
        .expect("a multi-app violating household in the first 400 seeds");

    let still_violates =
        |h: &Household| check_household(h).map(|r| r.violated.contains(&target)).unwrap_or(false);
    let minimal = shrink(&household, still_violates);

    assert!(still_violates(&minimal), "shrinking lost the violation");
    assert!(minimal.sources.len() <= household.sources.len());
    for i in 0..minimal.sources.len() {
        assert!(
            !still_violates(&minimal.without_app(i)),
            "app {i} is removable — the reproduction is not minimal"
        );
    }
    assert!(minimal.events <= household.events, "shrinking must never raise the event bound");
}
