//! A warm corpus job clones its apps instead of translating them.
//!
//! The daemon translates the 150-app market corpus once per process, on
//! the first `market` or `names` bundle it resolves, and later bundles
//! clone their apps from it.  Timing cannot pin that on a shared host, so
//! this test counts heap allocations on the measuring thread instead:
//!
//! - resolving a warm `market:25` bundle: at most 1,500 allocations (603,
//!   the clones of the 25 apps);
//! - translating the same 25 sources with `translate_sources`, as every
//!   job did before the corpus was kept: 7,800.
//!
//! A resolve that translates per job again makes at least the second count
//! every time, so the bound fails there.

use iotsan::translate_sources;
use iotsan_daemon::{resolve_apps, resolve_sources, BundleSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations made by the
/// current thread.
struct CountingAllocator;

thread_local! {
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

/// The bound on resolving a warm `market:25` bundle.
const WARM_BOUND: u64 = 1_500;

#[test]
fn a_warm_market_bundle_is_cloned_not_translated() {
    let bundle = BundleSpec::Market(25);
    // The first corpus bundle of the process translates the whole corpus.
    resolve_apps(&bundle).expect("the market corpus translates");

    let before = allocations();
    let warm = resolve_apps(&bundle).expect("the market corpus translates");
    let warm_allocations = allocations() - before;

    let sources = resolve_sources(&bundle).unwrap();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let before = allocations();
    let translated = translate_sources(&refs).expect("the market corpus translates");
    let translate_allocations = allocations() - before;

    assert_eq!(warm, translated);
    assert!(
        warm_allocations <= WARM_BOUND,
        "a warm market:25 resolve made {warm_allocations} allocations (bound {WARM_BOUND}; \
         translating the same apps makes {translate_allocations})"
    );
    // The bound stays well below what it guards against.
    assert!(translate_allocations > 4 * WARM_BOUND, "{translate_allocations}");
}
