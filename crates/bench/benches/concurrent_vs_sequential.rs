//! Criterion benchmark behind Table 7b: concurrent vs sequential design.
//!
//! The paper verifies a good group of apps (Good Night, It's Too Cold over
//! 3 switches, 3 motion sensors and a temperature sensor) with both designs
//! and shows the concurrent model becoming unusable beyond 3 events while the
//! sequential model stays in seconds.  The benchmark measures both designs at
//! small event counts so the relative gap (the *shape*) is visible in the
//! Criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan_apps::samples;
use iotsan_bench::{expert_config, run_concurrent, run_search, translate_group};
use std::time::Duration;

fn bench_designs(c: &mut Criterion) {
    let apps = translate_group(&samples::good_group());
    let config = expert_config(&apps);
    let budget = Duration::from_secs(20);

    let mut group = c.benchmark_group("table7b_concurrent_vs_sequential");
    group.sample_size(10);
    for events in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("sequential", events), &events, |b, &events| {
            b.iter(|| run_search(&apps, &config, events, false, budget))
        });
        group.bench_with_input(BenchmarkId::new("concurrent", events), &events, |b, &events| {
            b.iter(|| run_concurrent(&apps, &config, events, budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_designs);
criterion_main!(benches);
