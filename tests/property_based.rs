//! Property-based tests (proptest) over the core data structures and
//! invariants of IotSan-rs.

use iotsan::checker::{Checker, ExactStore, SearchConfig};
use iotsan::config::{expert_configure, standard_household};
use iotsan::devices::{registry, Device, DeviceId};
use iotsan::ir::Value;
use iotsan::model::{ConcurrentModel, ModelOptions, SequentialModel};
use iotsan::properties::PropertySet;
use iotsan::system::InstalledSystem;
use iotsan::translate_sources;
use iotsan_apps::market;
use proptest::prelude::*;

proptest! {
    /// The lexer and parser never panic on arbitrary input: they either parse
    /// or return a structured error.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = iotsan::groovy::parse(&input);
    }

    /// Groovy-like token soup (identifiers, punctuation, strings) also never
    /// panics the parser.
    #[test]
    fn parser_never_panics_on_token_soup(tokens in proptest::collection::vec(
        prop_oneof![
            Just("def".to_string()),
            Just("if".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just("==".to_string()),
            Just("\"str\"".to_string()),
            Just("x".to_string()),
            Just("1.5".to_string()),
            Just(",".to_string()),
            Just("\n".to_string()),
        ], 0..60)) {
        let source = tokens.join(" ");
        let _ = iotsan::groovy::parse(&source);
    }

    /// Loose equality over values is reflexive and symmetric.
    #[test]
    fn value_equality_reflexive_symmetric(a in -1000i64..1000, b in -1000i64..1000) {
        let va = Value::Int(a);
        let vb = Value::Int(b);
        prop_assert!(va.loosely_equals(&va));
        prop_assert_eq!(va.loosely_equals(&vb), vb.loosely_equals(&va));
        // Numeric strings compare like numbers.
        let sa = Value::Str(a.to_string());
        prop_assert!(sa.loosely_equals(&va));
    }

    /// Device command application is idempotent for simple set-commands: the
    /// second application never changes the state again.
    #[test]
    fn device_commands_are_idempotent(cmd_choice in 0usize..4) {
        let device = Device::new(DeviceId(0), "lock", "lock");
        let spec = device.spec();
        let mut state = device.initial_state();
        let commands = ["lock", "unlock", "lock", "unlock"];
        let command = commands[cmd_choice];
        state.apply_command(spec, command, &[]);
        let before = state;
        let outcome = state.apply_command(spec, command, &[]);
        prop_assert_eq!(before, state);
        prop_assert_eq!(outcome, iotsan::devices::CommandOutcome::NoChange);
    }

    /// Every attribute index round-trips through the registry domains.
    #[test]
    fn attribute_domains_round_trip(spec_idx in 0usize..30, attr_pick in 0usize..4, value_pick in 0usize..8) {
        let specs = registry().specs();
        let spec = &specs[spec_idx % specs.len()];
        let attr = &spec.attributes[attr_pick % spec.attributes.len()];
        let idx = value_pick % attr.domain.len();
        let rendered = attr.domain.value_at(idx).unwrap();
        prop_assert_eq!(attr.domain.index_of(&rendered), Some(idx));
    }

    /// The exact store admits each distinct state exactly once and never
    /// reports a previously inserted state as new.
    #[test]
    fn state_stores_agree_on_duplicates(states in proptest::collection::vec(
        proptest::collection::vec(0u8..8, 1..12), 1..200)) {
        let mut exact = ExactStore::new();
        let mut exact_new = 0usize;
        for state in &states {
            if exact.insert(state) { exact_new += 1; }
        }
        let distinct: std::collections::BTreeSet<&Vec<u8>> = states.iter().collect();
        prop_assert_eq!(exact_new, distinct.len());
        prop_assert_eq!(exact.len(), distinct.len());
        // Re-inserting everything yields zero new states.
        for state in &states {
            prop_assert!(!exact.insert(state));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For randomly chosen pairs of corpus apps, the sequential design finds
    /// every violation the strict-concurrent design finds (the paper's
    /// justification for adopting the sequential model), and system-state
    /// encoding is deterministic.
    #[test]
    fn sequential_covers_concurrent_violations(a in 0usize..12, b in 0usize..12) {
        let named = market::named_apps();
        let pair = [named[a % named.len()].clone(), named[b % named.len()].clone()];
        let sources: Vec<&str> = pair.iter().map(|x| x.source.as_str()).collect();
        let Ok(mut apps) = translate_sources(&sources) else { return Ok(()); };
        apps.dedup_by(|x, y| x.name == y.name);
        let config = expert_configure(&apps, &standard_household());
        let pipeline = iotsan::Pipeline::with_events(1);
        let config = pipeline.restrict_config(&apps, &config);
        let system = InstalledSystem::new(apps, config);

        // Deterministic encoding.
        let state = system.initial_state();
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        state.encode_into(&mut e1);
        state.encode_into(&mut e2);
        prop_assert_eq!(e1, e2);

        let sequential = SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(1));
        let seq = Checker::new(SearchConfig::with_depth(1)).verify(&sequential);
        let concurrent = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(1));
        let conc = Checker::new(SearchConfig::with_depth(concurrent.suggested_depth())).verify(&concurrent);
        let seq_props = seq.violated_properties();
        for p in conc.violated_properties() {
            prop_assert!(seq_props.contains(&p), "property P{p:02} found only by the concurrent design");
        }
    }

    /// Related sets cover every leaf vertex and contain no redundant subsets.
    #[test]
    fn related_sets_cover_leaves_and_are_subset_free(indices in proptest::collection::vec(0usize..20, 2..6)) {
        let named = market::named_apps();
        let group: Vec<market::MarketApp> =
            indices.iter().map(|i| named[i % named.len()].clone()).collect();
        let sources: Vec<&str> = group.iter().map(|a| a.source.as_str()).collect();
        let Ok(mut apps) = translate_sources(&sources) else { return Ok(()); };
        apps.dedup_by(|x, y| x.name == y.name);
        let (graph, sets) = iotsan::depgraph::analyze(&apps);
        // Every leaf appears in at least one related set.
        for leaf in graph.leaves() {
            prop_assert!(sets.sets.iter().any(|s| s.contains(&leaf)), "leaf {leaf} uncovered");
        }
        // No set is a subset of another.
        for (i, s1) in sets.sets.iter().enumerate() {
            for (j, s2) in sets.sets.iter().enumerate() {
                if i != j {
                    prop_assert!(!(s1.is_subset(s2)), "set {i} is a redundant subset of set {j}");
                }
            }
        }
        // The reduction never loses handlers: the union of all sets covers
        // every vertex that has any connection or conflict.
        prop_assert!(sets.largest_handler_count(&graph) <= graph.handler_count());
    }
}
