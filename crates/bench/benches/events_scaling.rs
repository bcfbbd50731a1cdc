//! Criterion benchmark behind Table 8: sequential verification time as the
//! number of external events grows (5 related apps, 10 devices).
//!
//! The paper reports 6.61 s at 6 events growing to 23.39 h at 11 events.  The
//! reproduction's breadth-first search reaches a fixpoint at 4 events, so
//! its cost stops growing there; the sweep includes the paper's 6 and 11.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan_apps::samples;
use iotsan_bench::{expert_config, run_search, translate_group};
use std::time::Duration;

fn bench_event_scaling(c: &mut Criterion) {
    let apps = translate_group(&samples::table8_group());
    let config = expert_config(&apps);
    let budget = Duration::from_secs(30);

    let mut group = c.benchmark_group("table8_events_scaling");
    group.sample_size(10);
    for events in [1usize, 2, 3, 4, 6, 11] {
        group.bench_with_input(BenchmarkId::from_parameter(events), &events, |b, &events| {
            b.iter(|| run_search(&apps, &config, events, false, budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_scaling);
criterion_main!(benches);
