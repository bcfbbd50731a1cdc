//! Scenario factory: seeded synthetic households and a differential oracle.
//!
//! The paper evaluates IotSan on one hand-assembled 150-app configuration;
//! this crate generates *arbitrarily many* synthetic configurations and uses
//! them to cross-check the reproduction's own engines against each other.
//! Three layers:
//!
//! 1. **Generation** ([`Household::generate`]): a splitmix64-seeded, fully
//!    deterministic generator that emits a device mix, Groovy smart apps
//!    composed from IFTTT-style fragments (subscribe / guard / command /
//!    schedule / app-state / fake-event), failure-injection toggles and
//!    custom [`PropertySpec`]s whose atoms reference only devices actually
//!    present.  Identical seeds produce byte-identical households.
//! 2. **Differential oracle** ([`check_household`]): serial, concurrent-fleet,
//!    renamed and warm-cache runs of the full pipeline and a full-alphabet
//!    walk must agree on every household.
//! 3. **Shrinking** ([`fn@shrink`]): failing seeds reduce deterministically to
//!    minimal reproductions, serializable as committable JSON fixtures.
//!
//! The same seeded-generate/shrink discipline extends to the daemon's
//! self-healing harness: [`chaos::ChaosPlan`] generates deterministic I/O
//! fault schedules the `repro chaos` experiment maps onto the daemon's
//! fault seam.
//!
//! The `repro scenarios` experiment (crate `iotsan-bench`) drives all three
//! from the command line and in CI.
//!
//! [`PropertySpec`]: iotsan_properties::PropertySpec

pub mod chaos;
pub mod fixture;
pub mod household;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod template;

pub use chaos::{ChaosFault, ChaosFaultKind, ChaosPlan};
pub use fixture::Fixture;
pub use household::{Household, SizeProfile, GENERATED_PROPERTY_BASE};
pub use oracle::{
    check_household, full_alphabet, full_alphabet_depths, Divergence, HouseholdReport, Phase,
};
pub use rng::SplitMix64;
pub use shrink::shrink;
pub use template::{ActionFragment, GuardFragment, ScenarioApp, TriggerFragment};
