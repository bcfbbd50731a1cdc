//! Criterion benchmark behind Table 7a: cost of the App Dependency Analyzer
//! on the six 25-app market groups and on the whole 150-app corpus, and of
//! `VerificationPlanner::plan` (analysis, per-group restriction and
//! fingerprints) over the first 25, 50, 100 and 150 market apps.
//!
//! Table 7a is primarily about the scale ratio (problem-size reduction, mean
//! ≈ 3.4×), which the `repro table7a` command prints.  The paper notes the
//! conflicting-output check "is very fast" despite its O(E²) worst case.
//! Measured on a 2-vCPU Xeon (the stub's means, two runs): the analysis takes
//! 0.07–0.22 ms per 25-app group and 1.3–1.4 ms over the 150-app corpus, and
//! `plan` takes 0.7–0.8, 1.7–2.4, 4.1–5.9 and 7.5–9.6 ms at 25, 50, 100 and
//! 150 apps (EXPERIMENTS.md, "Where a plan's time goes").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan::depgraph::analyze;
use iotsan::Pipeline;
use iotsan_apps::market;
use iotsan_bench::{expert_config, translate_group};

fn bench_dependency_analysis(c: &mut Criterion) {
    let groups: Vec<_> = market::six_groups().iter().map(|g| translate_group(g)).collect();
    let corpus = translate_group(&market::market_apps());

    let mut bench_group = c.benchmark_group("table7a_dependency_analysis");
    for (i, apps) in groups.iter().enumerate() {
        bench_group.bench_with_input(BenchmarkId::from_parameter(i + 1), apps, |b, apps| {
            b.iter(|| analyze(apps))
        });
    }
    bench_group.bench_with_input(BenchmarkId::from_parameter("market150"), &corpus, |b, apps| {
        b.iter(|| analyze(apps))
    });
    bench_group.finish();
}

fn bench_plan(c: &mut Criterion) {
    let corpus = translate_group(&market::market_apps());
    let pipeline = Pipeline::with_events(3);
    let planner = pipeline.planner();

    let mut bench_group = c.benchmark_group("plan_market_prefix");
    for n in [25, 50, 100, 150] {
        let apps = &corpus[..n];
        let config = expert_config(apps);
        bench_group.bench_with_input(BenchmarkId::from_parameter(n), apps, |b, apps| {
            b.iter(|| planner.plan(apps, &config))
        });
    }
    bench_group.finish();
}

criterion_group!(benches, bench_dependency_analysis, bench_plan);
criterion_main!(benches);
