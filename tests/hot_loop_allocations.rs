//! The search's heap-allocation budget per explored transition.
//!
//! A transition clones its successor state, runs the handler cascade and
//! checks the compiled properties.  Handler bodies are resolved once per
//! installed system, so what is left to allocate is the successor state, the
//! visited-set entry, the values that leave the step (event values, state
//! variables) and the rare message, network and fake-event records.  This
//! test pins that budget on two bundles with a counting allocator that
//! counts only the measuring thread:
//!
//! - the `market-cold` bundle (all 150 market apps, 3 events): at most 6.0
//!   allocations per transition (5.73).  It was 14.94 before handler bodies
//!   were resolved at installation, 7.01 before the search stopped checking
//!   properties it had already reported, and 6.36 while every owned log
//!   line of a counterexample replay copied its app's name, so the bound
//!   fails there;
//! - the `deep-group` bundle (the first 8 market apps, 4 events, failures
//!   on): at most 1.5 (1.35).  It was 4.27, then 2.26 before the same
//!   change, then 1.36 with the name copies.
//!
//! A third budget pins `plan` itself on the 150-app corpus, which runs on
//! the measuring thread alone: at most 40,000 allocations (33,625).  It
//! made 62,855 when every group deep-cloned its members' IR, one clone per
//! membership (1,774 of them), so the bound fails there.
//!
//! Each planned group's `SequentialModel` is verified with `Checker::verify`,
//! one group after another, exactly as the fleet planner builds it.  State
//! and transition counts are pinned beside the bound, so a change that
//! explores a different graph cannot pass by accident.

use iotsan::checker::Checker;
use iotsan::config::{expert_configure, standard_household, SystemConfig};
use iotsan::ir::IrApp;
use iotsan::model::SequentialModel;
use iotsan::system::InstalledSystem;
use iotsan::{translate_sources, Pipeline};
use iotsan_apps::market;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations made by the
/// current thread.
struct CountingAllocator;

thread_local! {
    // The `thread_local!` const initializer (Rust 1.59), not an inline
    // const block.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations made while a thread is being torn down are
    // not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// only addition is a thread-local counter update, which does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What verifying every planned group of a bundle cost.
struct Measured {
    states: usize,
    transitions: usize,
    allocations: u64,
}

impl Measured {
    fn per_transition(&self) -> f64 {
        self.allocations as f64 / self.transitions as f64
    }
}

/// The first `apps` market apps under the standard household.
fn market_bundle(apps: usize) -> (Vec<IrApp>, SystemConfig) {
    let corpus = market::market_apps();
    let sources: Vec<&str> = corpus.iter().take(apps).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    (apps, config)
}

/// Plans the first `apps` market apps under the standard household and
/// verifies each group's model in turn, counting only the searches'
/// allocations.
fn measure(apps: usize, events: usize, failures: bool) -> Measured {
    let (apps, config) = market_bundle(apps);
    let mut pipeline = Pipeline::with_events(events);
    if failures {
        pipeline = pipeline.with_failures();
    }
    let plan = pipeline.planner().plan(&apps, &config);
    let mut measured = Measured { states: 0, transitions: 0, allocations: 0 };
    for job in &plan.jobs {
        let properties = pipeline.properties_for(&job.config);
        let system = InstalledSystem::new(job.members.clone(), job.config.clone());
        let model = SequentialModel::new(system, properties, pipeline.model_options.clone());
        let checker = Checker::new(pipeline.search.clone());
        let before = allocations();
        let report = checker.verify(&model);
        measured.allocations += allocations() - before;
        measured.states += report.stats.states_stored;
        measured.transitions += report.stats.transitions;
    }
    measured
}

/// 7,045 states and 28,263 transitions: one sensor reading per observation
/// class of an unsubscribed attribute (12,433 and 50,794 with every reading).
#[test]
fn market_cold_stays_within_its_allocation_budget() {
    let measured = measure(150, 3, false);
    assert_eq!((measured.states, measured.transitions), (7_045, 28_263));
    let per = measured.per_transition();
    assert!(per <= 6.0, "market-cold: {per:.2} allocations per transition (bound 6.0)");
}

/// 4,275 states and 33,770 transitions: one sensor reading per observation
/// class of an unsubscribed attribute and no communication-lost copy of an
/// event no handler receives (8,314 and 72,290 with every reading and copy),
/// and one device-offline step per sensor device and state (90,362
/// transitions when every (attribute, value) pair had its own copy).
#[test]
fn deep_group_stays_within_its_allocation_budget() {
    let measured = measure(8, 4, true);
    assert_eq!((measured.states, measured.transitions), (4_275, 33_770));
    let per = measured.per_transition();
    assert!(per <= 1.5, "deep-group: {per:.2} allocations per transition (bound 1.5)");
}

/// 112 groups over 150 apps, each app copied once into the `Arc` its groups
/// share.
#[test]
fn planning_the_market_corpus_stays_within_its_allocation_budget() {
    let (apps, config) = market_bundle(150);
    let pipeline = Pipeline::with_events(3);
    let planner = pipeline.planner();
    let before = allocations();
    let plan = planner.plan(&apps, &config);
    let made = allocations() - before;
    assert_eq!(plan.jobs.len(), 112);
    assert!(made <= 40_000, "plan: {made} allocations (bound 40,000)");
}
