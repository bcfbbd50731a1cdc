//! Cross-layer telemetry flush exactness: concurrent searches on separate
//! threads must land their per-search tallies in the global registry without losing or
//! double-counting anything.  The checker flushes once per search, so the
//! registry deltas across N simultaneous searches of the same model must be
//! exactly N times one search's statistics.

use iotsan::checker::{Checker, SearchConfig};
use iotsan::config::{expert_configure, standard_household};
use iotsan::model::{ModelOptions, SequentialModel};
use iotsan::properties::PropertySet;
use iotsan::system::InstalledSystem;
use iotsan::translate_sources;
use iotsan_apps::market;
use iotsan_telemetry::snapshot;
use std::sync::Barrier;

const DEPTH: usize = 2;
const SEARCHES: u64 = 4;

fn model() -> SequentialModel {
    let named = market::named_apps();
    let sources: Vec<&str> = named.iter().take(2).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market apps translate");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = iotsan::Pipeline::with_events(DEPTH);
    let config = pipeline.restrict_config(&apps, &config);
    let system = InstalledSystem::new(apps, config);
    SequentialModel::new(system, PropertySet::all(), ModelOptions::with_events(DEPTH))
}

#[test]
fn concurrent_searches_flush_exact_deltas() {
    // Reference run outside the measured window: one search's ground truth.
    let reference = Checker::new(SearchConfig::with_depth(DEPTH)).verify(&model());
    let states = reference.stats.states_stored as u64;
    let transitions = reference.stats.transitions as u64;
    assert!(states > 0, "the reference workload explores something");

    let before = snapshot();
    // Every thread builds its model first, then all searches start together
    // so their flushes overlap.
    let start = Barrier::new(SEARCHES as usize);
    std::thread::scope(|s| {
        for _ in 0..SEARCHES {
            s.spawn(|| {
                let model = model();
                start.wait();
                let report = Checker::new(SearchConfig::with_depth(DEPTH)).verify(&model);
                assert_eq!(report.stats.states_stored as u64, states);
                assert_eq!(report.stats.transitions as u64, transitions);
            });
        }
    });
    let after = snapshot();

    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("iotsan_checker_searches_total"), SEARCHES);
    assert_eq!(delta("iotsan_checker_states_total"), SEARCHES * states);
    assert_eq!(delta("iotsan_checker_transitions_total"), SEARCHES * transitions);
}
