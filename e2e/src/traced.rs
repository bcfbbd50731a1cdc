//! The traced run: each workload's unit rebuilt from the public calls the
//! program makes, in the order `VerificationPlanner::execute` (and the
//! daemon's job path) makes them, with a span around every call.
//!
//! Spans stay in memory and are written out when the run ends.  A span
//! records its layer, start, end, parent span and unit; a layer's self time
//! is its spans' durations minus the parts their child spans cover.

use crate::stats::{sorted, tail_percentile, verdict_digest};
use crate::workload::{Input, Sizes, Unit, Workload, INGEST_SEGMENT};
use iotsan::attribution::attribute_traces;
use iotsan::checker::{CancelToken, ParallelChecker};
use iotsan::config::{expert_configure, standard_household};
use iotsan::depgraph::analyze;
use iotsan::groovy::SmartApp;
use iotsan::ir::{lower_app, IrApp};
use iotsan::model::SequentialModel;
use iotsan::system::InstalledSystem;
use iotsan::{
    FleetGroupReport, FleetPlan, FleetReport, GroupResult, Pipeline, VerificationCache,
    VerificationPlanner,
};
use iotsan_daemon::codec::{decode_group_result, encode_group_result};
use iotsan_daemon::{
    parse_line, resolve_sources, JobLine, JobOutcome, JobStatus, StoreBacking, VerdictStore,
};
use iotsan_telemetry::rows::JsonRow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The root span of one unit; every layer span of the unit is its child.
const UNIT: &str = "unit";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (crate-named, e.g. `checker.search`) or [`UNIT`].
    pub layer: &'static str,
    /// The unit the span belongs to (`None` for run-level spans).
    pub unit: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offset from the tracer's epoch.
    pub start: Duration,
    /// Offset from the tracer's epoch.
    pub end: Duration,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: Option<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), unit: None }
    }

    fn begin(&mut self, layer: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            layer,
            unit: self.unit,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span of `layer`.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer);
        let out = f();
        self.end(id);
        out
    }

    fn duration(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    /// Each span's self time: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                times[parent] -= self.duration(i);
            }
        }
        times
    }

    /// The spans as NDJSON, one object per line.
    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut row = JsonRow::new().num_u("span", i as u64).str("layer", span.layer);
            if let Some(unit) = span.unit {
                row = row.num_u("unit", unit as u64);
            }
            if let Some(parent) = span.parent {
                row = row.num_u("parent", parent as u64);
            }
            out.push_str(
                &row.num_u("start_ns", span.start.as_nanos() as u64)
                    .num_u("end_ns", span.end.as_nanos() as u64)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }
}

/// Work counts gathered at the same boundaries as the spans.
#[derive(Debug, Default)]
struct Counts {
    source_bytes: usize,
    handlers: usize,
    largest_set: usize,
    groups: usize,
    cache_hits: usize,
    cache_misses: usize,
    backing_hits: usize,
    states: usize,
    transitions: usize,
    store_bytes: usize,
    trace_bytes: usize,
    violations: usize,
    verdict_bytes: usize,
}

/// What the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The recorded spans.
    pub tracer: Tracer,
    /// Per-unit verdict digests (`None` for a failed unit), in unit order.
    pub digests: Vec<Option<u64>>,
    /// Summed unit latency, seconds.
    pub unit_seconds: f64,
    /// Errors found while tracing (a codec round trip that changed a
    /// verdict).
    pub errors: Vec<String>,
    counts: Counts,
    /// The size of each store file the run opened, when it was closed.
    store_files: Vec<u64>,
}

/// One metric of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Crate-named metric (`checker.states`).
    pub name: &'static str,
    /// The value; `None` when the run has too few samples for it.
    pub value: Option<f64>,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Runs the traced rebuild of `units` (the same units, in the same order,
/// as the untraced run).  The daemon workloads run over a verdict store at
/// `store`: the prefilled one for `daemon-warm`, a fresh one every
/// [`INGEST_SEGMENT`] jobs for `daemon-ingest`.
pub fn run(
    workload: Workload,
    sizes: &Sizes,
    units: &[Unit],
    store: &Path,
) -> Result<Traced, String> {
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut digests = Vec::with_capacity(units.len());
    let mut errors = Vec::new();
    let mut store_files = Vec::new();
    let file_len = || std::fs::metadata(store).map_or(0, |m| m.len());
    let mut cache = None;
    // In process the pipeline is set-up work, built once like the untraced
    // run's; the daemon builds one per job, inside the unit.
    let pipeline =
        if workload == Workload::MarketCold { sizes.market } else { sizes.deep }.pipeline();
    let mut unit_seconds = 0.0;
    for (index, unit) in units.iter().enumerate() {
        // The store opens the way the untraced run's daemon does: once over
        // the prefilled log, or fresh at every ingest segment.
        let fresh = workload == Workload::DaemonIngest && index % INGEST_SEGMENT == 0;
        if workload.is_daemon() && (cache.is_none() || fresh) {
            if cache.take().is_some() {
                store_files.push(file_len());
            }
            if fresh {
                let _ = std::fs::remove_file(store);
            }
            let opened = tracer.time("store.open", || VerdictStore::open(store));
            let opened = opened.map_err(|e| format!("store open {}: {e}", store.display()))?;
            cache = Some(
                VerificationCache::new()
                    .with_backing(Box::new(StoreBacking::new(Arc::new(Mutex::new(opened))))),
            );
        }
        tracer.unit = Some(index);
        let root = tracer.begin(UNIT);
        let done = match (&unit.input, cache.as_mut()) {
            (Input::Bundle(sources), None) => {
                bundle_unit(&mut tracer, &mut counts, &pipeline, sources)
            }
            (Input::Job(line), Some(cache)) => {
                job_unit(&mut tracer, &mut counts, cache, index, line)
            }
            _ => unreachable!("units always match their workload"),
        };
        tracer.end(root);
        unit_seconds += tracer.duration(root);
        let Some((report, apps)) = done else {
            digests.push(None);
            continue;
        };
        digests.push(Some(verdict_digest(&report)));
        probes(&mut tracer, &mut counts, &mut errors, &report, &apps, &unit.key);
    }
    tracer.unit = None;
    if cache.take().is_some() {
        store_files.push(file_len());
    }
    Ok(Traced { tracer, digests, unit_seconds, errors, counts, store_files })
}

/// Off-path probes after a unit: dependency analysis alone (the part of
/// `plan` it dominates), and a codec round trip of every group verdict.
fn probes(
    tracer: &mut Tracer,
    counts: &mut Counts,
    errors: &mut Vec<String>,
    report: &FleetReport,
    apps: &[IrApp],
    key: &str,
) {
    let verifiable: Vec<IrApp> = apps.iter().filter(|a| !a.dynamic_discovery).cloned().collect();
    std::hint::black_box(tracer.time("depgraph.analyze", || analyze(&verifiable)));
    let mut buf = Vec::new();
    for group in &report.groups {
        let result = GroupResult { apps: group.apps.clone(), report: group.report.clone() };
        buf.clear();
        tracer.time("codec.encode", || encode_group_result(&result, &mut buf));
        counts.verdict_bytes += buf.len();
        let decoded = tracer.time("codec.decode", || decode_group_result(&buf));
        if decoded.as_ref() != Ok(&result) {
            errors.push(format!(
                "codec round trip changed a verdict of unit {key}, group [{}]",
                group.apps.join(", ")
            ));
        }
    }
}

/// Groovy sources → `SmartApp::parse` → `lower_app` → `expert_configure`.
fn translate(
    tracer: &mut Tracer,
    counts: &mut Counts,
    sources: &[String],
) -> Option<(Vec<IrApp>, iotsan::config::SystemConfig)> {
    counts.source_bytes += sources.iter().map(String::len).sum::<usize>();
    let parsed: Option<Vec<SmartApp>> =
        tracer.time("groovy.parse", || sources.iter().map(|s| SmartApp::parse(s).ok()).collect());
    let apps: Option<Vec<IrApp>> =
        tracer.time("ir.lower", || parsed?.iter().map(|app| lower_app(app).ok()).collect());
    let apps = apps?;
    counts.handlers += apps.iter().map(|a| a.handlers.len()).sum::<usize>();
    let config = tracer.time("config.configure", || expert_configure(&apps, &standard_household()));
    Some((apps, config))
}

fn bundle_unit(
    tracer: &mut Tracer,
    counts: &mut Counts,
    pipeline: &Pipeline,
    sources: &[String],
) -> Option<(FleetReport, Vec<IrApp>)> {
    let (apps, config) = translate(tracer, counts, sources)?;
    let planner = VerificationPlanner::new(pipeline);
    let plan = tracer.time("planner.plan", || planner.plan(&apps, &config));
    let report = execute(tracer, counts, pipeline, &plan, &mut VerificationCache::new())?;
    Some((report, apps))
}

/// The daemon's job path on the client thread: NDJSON decode, translate,
/// plan, execute against the store-backed cache, render the outcome.
fn job_unit(
    tracer: &mut Tracer,
    counts: &mut Counts,
    cache: &mut VerificationCache,
    index: usize,
    line: &str,
) -> Option<(FleetReport, Vec<IrApp>)> {
    let started = Instant::now();
    let (spec, sources) = tracer.time("daemon.ndjson", || {
        let Ok(JobLine::Job(spec)) = parse_line(line, 1) else { return None };
        let sources = resolve_sources(&spec.bundle).ok()?;
        Some((spec, sources))
    })?;
    let (apps, config) = translate(tracer, counts, &sources)?;
    let pipeline = tracer.time("properties.compile", || {
        let mut pipeline = Pipeline::with_events(spec.events);
        if spec.failures {
            pipeline = pipeline.with_failures();
        }
        if spec.workers > 1 {
            pipeline = pipeline.with_workers(spec.workers);
        }
        pipeline.search.time_limit = spec.timeout_ms.map(Duration::from_millis);
        pipeline.search = pipeline.search.clone().cancellable(CancelToken::new());
        pipeline
    });
    let planner = VerificationPlanner::new(&pipeline);
    let plan = tracer.time("planner.plan", || planner.plan(&apps, &config));
    let backing_before = cache.backing_hits();
    let report = execute(tracer, counts, &pipeline, &plan, cache)?;
    let backing_hits = cache.backing_hits() - backing_before;
    counts.backing_hits += backing_hits;
    let outcome = JobOutcome {
        index,
        id: spec.id,
        status: JobStatus::Ok,
        report: Some(report),
        backing_hits,
        degraded: false,
        elapsed: started.elapsed(),
    };
    std::hint::black_box(tracer.time("daemon.ndjson", || outcome.render()));
    Some((outcome.report.expect("set above"), apps))
}

/// `VerificationPlanner::execute`, call by call.  `None` when a search was
/// truncated (the unit failed).
fn execute(
    tracer: &mut Tracer,
    counts: &mut Counts,
    pipeline: &Pipeline,
    plan: &FleetPlan,
    cache: &mut VerificationCache,
) -> Option<FleetReport> {
    counts.largest_set += plan.reduced_handlers;
    counts.groups += plan.jobs.len();
    let insert_layer = if cache.has_backing() { "store.append" } else { "cache.insert" };
    let mut groups = Vec::with_capacity(plan.jobs.len());
    let (mut cache_hits, mut cache_misses) = (0, 0);
    for job in &plan.jobs {
        let (result, from_cache) =
            match tracer.time("cache.lookup", || cache.lookup(job.fingerprint)) {
                Some(cached) => {
                    cache_hits += 1;
                    (cached, true)
                }
                None => {
                    cache_misses += 1;
                    let properties =
                        tracer.time("properties.compile", || pipeline.properties_for(&job.config));
                    let system = tracer.time("core.install", || {
                        InstalledSystem::new(job.members.clone(), job.config.clone())
                    });
                    let model = tracer.time("properties.compile", || {
                        SequentialModel::new(system, properties, pipeline.model_options.clone())
                    });
                    let report = tracer.time("checker.search", || {
                        ParallelChecker::new(pipeline.search.clone()).verify(&model)
                    });
                    let stats = &report.stats;
                    counts.states += stats.states_stored;
                    counts.transitions += stats.transitions;
                    counts.store_bytes = counts.store_bytes.max(stats.store_memory_bytes);
                    counts.trace_bytes = counts.trace_bytes.max(stats.peak_trace_bytes);
                    if stats.truncated {
                        return None;
                    }
                    let fresh = GroupResult {
                        apps: job.members.iter().map(|a| a.name.clone()).collect(),
                        report,
                    };
                    tracer.time(insert_layer, || cache.insert(job.fingerprint, fresh.clone()));
                    (fresh, false)
                }
            };
        counts.violations += result.report.violations.len();
        let attributions = tracer
            .time("attribution.rank", || attribute_traces(&result.apps, &result.report.violations));
        groups.push(FleetGroupReport {
            apps: result.apps,
            fingerprint: job.fingerprint,
            from_cache,
            report: result.report,
            attributions,
        });
    }
    counts.cache_hits += cache_hits;
    counts.cache_misses += cache_misses;
    groups.sort_by(|a, b| a.apps.cmp(&b.apps));
    Some(FleetReport {
        groups,
        excluded_apps: plan.excluded_apps.clone(),
        original_handlers: plan.original_handlers,
        reduced_handlers: plan.reduced_handlers,
        cache_hits,
        cache_misses,
        persist_failures: 0,
    })
}

/// Every layer the traced run spans, in pipeline order, with its metric
/// name.  Layers a workload bypasses read 0.
const LAYER_TIMES: &[(&str, &str)] = &[
    ("daemon.ndjson", "daemon.ndjson_s"),
    ("groovy.parse", "groovy.parse_s"),
    ("ir.lower", "ir.lower_s"),
    ("config.configure", "config.configure_s"),
    ("planner.plan", "planner.plan_s"),
    ("depgraph.analyze", "depgraph.analyze_s"),
    ("cache.lookup", "cache.lookup_s"),
    ("cache.insert", "cache.insert_s"),
    ("properties.compile", "properties.compile_s"),
    ("core.install", "core.install_s"),
    ("checker.search", "checker.search_s"),
    ("attribution.rank", "attribution.rank_s"),
    ("codec.encode", "codec.encode_s"),
    ("codec.decode", "codec.decode_s"),
    ("store.append", "store.append_s"),
];

impl Traced {
    /// Summed self time per layer.
    fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut sums = BTreeMap::new();
        for (span, time) in self.tracer.spans.iter().zip(self.tracer.self_times()) {
            *sums.entry(span.layer).or_insert(0.0) += time;
        }
        sums
    }

    /// Summed layer self time inside units over summed unit latency.
    pub fn coverage(&self) -> f64 {
        let unit_self = self.layer_seconds().get(UNIT).copied().unwrap_or(0.0);
        if self.unit_seconds > 0.0 {
            1.0 - unit_self / self.unit_seconds
        } else {
            0.0
        }
    }

    /// Every per-layer metric.  Times are mean busy seconds per unit, except
    /// `store.open_s` (one open) and `checker.group_p99_s` (one search);
    /// `store.file_bytes` is the mean size of a store file when closed.
    pub fn metrics(&self, untraced_seconds: f64, handoff_per_unit: f64) -> Vec<LayerMetric> {
        let units = self.digests.len().max(1) as f64;
        let sums = self.layer_seconds();
        let c = &self.counts;
        let per_unit = |n: usize| n as f64 / units;
        let files = self.store_files.len().max(1) as f64;
        let search = sums.get("checker.search").copied().unwrap_or(0.0);
        let search_times: Vec<f64> = self
            .tracer
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == "checker.search")
            .map(|(i, _)| self.tracer.duration(i))
            .collect();
        let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let metric = |name, value, unit| LayerMetric { name, value: Some(value), unit };

        let mut out: Vec<LayerMetric> = LAYER_TIMES
            .iter()
            .map(|(layer, name)| metric(name, sums.get(layer).copied().unwrap_or(0.0) / units, "s"))
            .collect();
        out.extend([
            metric("store.open_s", sums.get("store.open").copied().unwrap_or(0.0) / files, "s"),
            metric("daemon.handoff_s", handoff_per_unit, "s"),
            LayerMetric {
                name: "checker.group_p99_s",
                value: tail_percentile(&sorted(&search_times), 99),
                unit: "s",
            },
            metric("groovy.source_bytes", per_unit(c.source_bytes), "bytes"),
            metric("ir.handlers", per_unit(c.handlers), "count"),
            metric("depgraph.largest_set_handlers", per_unit(c.largest_set), "count"),
            metric("planner.groups", per_unit(c.groups), "count"),
            metric("cache.hit_ratio", ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio"),
            metric("cache.backing_hits", per_unit(c.backing_hits), "count"),
            metric("checker.states", per_unit(c.states), "count"),
            metric("checker.transitions", per_unit(c.transitions), "count"),
            metric(
                "checker.states_per_s",
                if search > 0.0 { c.states as f64 / search } else { 0.0 },
                "1/s",
            ),
            metric("checker.new_state_ratio", ratio(c.states, c.transitions), "ratio"),
            metric("checker.store_bytes", c.store_bytes as f64, "bytes"),
            metric("checker.trace_bytes", c.trace_bytes as f64, "bytes"),
            metric("attribution.violations", per_unit(c.violations), "count"),
            metric("codec.verdict_bytes", per_unit(c.verdict_bytes), "bytes"),
            metric(
                "store.file_bytes",
                self.store_files.iter().sum::<u64>() as f64 / files,
                "bytes",
            ),
            metric("trace.coverage", self.coverage(), "ratio"),
            metric(
                "trace.overhead_ratio",
                if untraced_seconds > 0.0 { self.unit_seconds / untraced_seconds } else { 0.0 },
                "ratio",
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let root = tracer.begin(UNIT);
        tracer.time("groovy.parse", || std::thread::sleep(Duration::from_millis(2)));
        tracer.end(root);
        let times = tracer.self_times();
        assert!(times[1] >= 0.002);
        assert!((times[0] + times[1] - tracer.duration(root)).abs() < 1e-9);
        assert_eq!(tracer.spans[1].parent, Some(root));
        assert_eq!(tracer.ndjson().lines().count(), 2);
    }
}
