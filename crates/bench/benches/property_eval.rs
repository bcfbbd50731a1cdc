//! Criterion micro-benchmark for the compiled property evaluators in
//! isolation: one `CompiledPropertySet::check_transition` pass over a state
//! vector — every live atom evaluated once, then every live property's
//! postfix program — exactly what the checker pays per explored transition
//! on top of `apply` + `encode`.  (Before the evaluator read the state
//! vector, this bench timed the pass on a prebuilt snapshot and so missed
//! the per-transition snapshot refresh.)
//!
//! Five rows: the 45 built-ins and built-ins + 5 custom specs (the
//! open-API overhead), each on a never-settled scratch, which evaluates every
//! property (`check_transition`, the upper bound), and on a scratch settled
//! with every property the workload's 3-event search reports
//! (`check_transition_settled`, what the search pays once it has found
//! them); and spec→program compilation itself (the install-time cost).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan::properties::{EvalScratch, PropertyId, PropertySet, StepObservation};
use iotsan::system::InstalledSystem;
use iotsan::Pipeline;
use iotsan_bench::{extended_property_set, fleet_workload, run_search_with_properties};
use std::time::Duration;

fn bench_property_eval(c: &mut Criterion) {
    let (apps, config) = fleet_workload(8);
    let events = 3;
    let restricted = Pipeline::with_events(events).restrict_config(&apps, &config);
    let system = InstalledSystem::new(apps.clone(), restricted);
    let state = system.initial_state();
    let observation = StepObservation::default();

    let builtins = PropertySet::all();
    let extended = extended_property_set();

    let mut group = c.benchmark_group("property_eval");
    group.sample_size(20);

    for (label, set) in [("builtins45", &builtins), ("builtins45_plus5", &extended)] {
        let compiled = system.compile_properties(set);
        let search = run_search_with_properties(
            &apps,
            &config,
            events,
            true,
            Duration::from_secs(60),
            set.clone(),
        );
        let mut settled = EvalScratch::default();
        for id in search.report.violated_properties() {
            compiled.settle(&mut settled, PropertyId(id));
        }
        for (name, mut scratch) in
            [("check_transition", EvalScratch::default()), ("check_transition_settled", settled)]
        {
            let mut monitors = vec![0u8; compiled.monitor_count()];
            let mut out = Vec::new();
            group.bench_with_input(BenchmarkId::new(name, label), &(), |b, ()| {
                b.iter(|| {
                    out.clear();
                    compiled.check_transition(
                        black_box(&state.devices),
                        black_box(state.mode),
                        black_box(&observation),
                        &mut monitors,
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.len())
                })
            });
        }
    }

    // Install-time compilation (selectors → masks, folding, programs).
    group.bench_with_input(BenchmarkId::new("compile", "builtins45_plus5"), &(), |b, ()| {
        b.iter(|| black_box(system.compile_properties(&extended).atom_count()))
    });

    group.finish();
}

criterion_group!(benches, bench_property_eval);
criterion_main!(benches);
