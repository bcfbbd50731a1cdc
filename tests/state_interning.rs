//! Interner and state-representation guarantees.
//!
//! The string-free exploration core rests on two properties:
//!
//! 1. **The interner is a bijection over its inputs** — `intern → resolve`
//!    is the identity and duplicate strings never mint new symbols
//!    (proptests below);
//! 2. **Interned ordering is deterministic** — two [`InstalledSystem`]s built
//!    from the same apps and configuration assign identical symbol ids and
//!    state-variable slots, so their state encodings are byte-identical
//!    across builds and runs (the visited-set and fleet-cache fingerprints
//!    depend on it).

use iotsan::ir::Symbols;
use iotsan::system::InstalledSystem;
use iotsan::translate_sources;
use iotsan_config::{expert_configure, standard_household};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `intern` followed by `resolve` returns the original string, for every
    /// string in the batch, interleaved with duplicates.
    #[test]
    fn intern_resolve_round_trips(names in proptest::collection::vec("[a-zA-Z0-9 _.:-]{0,24}", 1..40)) {
        let mut symbols = Symbols::new();
        let syms: Vec<_> = names.iter().map(|n| symbols.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            prop_assert_eq!(symbols.resolve(*sym), name.as_str());
            prop_assert_eq!(symbols.lookup(name), Some(*sym));
        }
    }

    /// Deduplication holds: the table size equals the number of *distinct*
    /// inputs, and re-interning any input returns its original symbol.
    #[test]
    fn interning_deduplicates(names in proptest::collection::vec("[a-z]{0,6}", 1..60)) {
        let mut symbols = Symbols::new();
        let first_pass: Vec<_> = names.iter().map(|n| symbols.intern(n)).collect();
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        prop_assert_eq!(symbols.len(), distinct.len());
        // A second pass mints nothing new and reproduces every symbol.
        for (name, sym) in names.iter().zip(&first_pass) {
            prop_assert_eq!(symbols.intern(name), *sym);
        }
        prop_assert_eq!(symbols.len(), distinct.len());
    }
}

const APP_A: &str = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    state.lastSeen = evt.value
    if (evt.value == "not present") { setLocationMode("Away") } else { setLocationMode("Home") }
}
"#;

const APP_B: &str = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() { subscribe(location, "mode", changedLocationMode) }
def changedLocationMode(evt) { state.count = 1
    lock1.unlock() }
"#;

/// Builds the installed system fresh from sources (separate translations, so
/// nothing is accidentally shared between the two builds under comparison).
fn build_system() -> InstalledSystem {
    let apps = translate_sources(&[APP_A, APP_B]).expect("apps translate");
    let config = expert_configure(&apps, &standard_household());
    InstalledSystem::new(apps, config)
}

/// Two systems built from the same apps must produce byte-identical
/// encodings for equal states — including after identical mutations that
/// exercise app-state slots and pending events — proving the interned
/// ordering (symbol ids, slot layout) is a deterministic function of the
/// input and not of hash-map iteration or allocation order.
#[test]
fn same_apps_encode_byte_identically_across_builds() {
    let sys_a = build_system();
    let sys_b = build_system();

    // The frozen symbol tables agree entry by entry.
    assert_eq!(sys_a.symbols.len(), sys_b.symbols.len());
    for (sym, text) in sys_a.symbols.iter() {
        assert_eq!(sys_b.symbols.resolve(sym), text);
    }

    let encode = |sys: &InstalledSystem| {
        let mut state = sys.initial_state();
        sys.set_app_var(
            &mut state,
            "Auto Mode Change",
            "lastSeen",
            &iotsan::ir::Value::Str("not present".into()),
        );
        sys.set_app_var(&mut state, "Unlock Door", "count", &iotsan::ir::Value::Int(1));
        state.pending.push(iotsan::system::InternalEvent {
            device: None,
            attribute: sys.sym_of("mode"),
            value: std::borrow::Cow::Owned(iotsan::ir::Value::Str("Away".into())),
            physical: false,
        });
        let mut buf = Vec::new();
        state.encode_into(&mut buf);
        buf
    };
    assert_eq!(encode(&sys_a), encode(&sys_b));
}

/// Repeated encodings of the same state through a reused buffer are
/// identical (the caller-owned buffer contract of `encode_into`).
#[test]
fn reused_buffer_encodings_are_stable() {
    let sys = build_system();
    let state = sys.initial_state();
    let mut buf = Vec::new();
    state.encode_into(&mut buf);
    let first = buf.clone();
    for _ in 0..3 {
        buf.clear();
        state.encode_into(&mut buf);
        assert_eq!(buf, first);
    }
}
