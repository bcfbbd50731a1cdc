//! `repro` — regenerates every table and figure of the IotSan paper's
//! evaluation (§10–§11) on the IotSan-rs reproduction, plus the
//! reproduction's own timing, differential and chaos experiments.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p iotsan-bench --bin repro            # everything
//! cargo run --release -p iotsan-bench --bin repro table5     # one experiment
//! cargo run --release -p iotsan-bench --bin repro -- --json BENCH_pr.json throughput
//! ```
//!
//! The experiments, in the order a bare `repro` prints them, are the entries
//! of [`EXPERIMENTS`]; an unknown name exits 2 and lists them.  CI's `smoke`
//! job runs all of them in one pass:
//!
//! ```text
//! repro -- --json BENCH_pr.json --baseline BENCH_baseline.json --seed 1 --size 200 --faults 200
//! ```
//!
//! `--json <path>` writes the rows of the timing experiments (`throughput`,
//! `fleet`, `market`, `properties`, `daemon`, `telemetry`, `scenarios`,
//! `chaos`) as one machine-readable document.  `--baseline <path>` fails
//! the run when `throughput`'s states/sec falls more than 20% below the
//! committed baseline.  The timing floors live in the experiments:
//! `telemetry` keeps ≥95% of the kill-switched throughput, `properties`
//! keeps ≥0.5× with custom specs, `daemon`'s warm restart is ≥10× faster
//! than cold.  Verdict consistency is left to the test suite.
//!
//! `scenarios` runs the differential fuzzer (`iotsan-scenarios`) over
//! `--size N` households (default 200) from `--seed S` (default 1); a
//! divergence shrinks to `scenario_repro.json` and exits non-zero.  `chaos`
//! sweeps `--faults N` (default 50) seeded I/O-fault schedules from the same
//! seed through the daemon and checks that no acknowledged verdict is lost,
//! no wrong verdict is served and every job ends; a violation shrinks to
//! `chaos_repro.json` and exits non-zero.
//!
//! Absolute numbers differ from the paper (different corpus snapshot, a
//! simulator substrate instead of Spin on the authors' laptop); the *shape* of
//! each result is what is being reproduced — see EXPERIMENTS.md.

use iotsan::attribution::AttributionThresholds;
use iotsan::config::standard_household;
use iotsan::depgraph::{analyze, render_summary};
use iotsan::devices::{DeviceId, FailurePolicy};
use iotsan::model::ModelOptions;
use iotsan::properties::{PropertyClass, PropertySet};
use iotsan::{render_table1, Pipeline};
use iotsan_apps::{ifttt, malicious, market, samples};
use iotsan_bench::{
    expert_config, format_duration, format_runtime, run_concurrent, run_search, translate_group,
    volunteer_config, TimedRun,
};
use iotsan_telemetry::rows::JsonRow;
use iotsan_telemetry::{Snapshot, Value};
use std::collections::BTreeMap;

/// What the experiments share: the `--json` document, the sweep flags and
/// the throughput figure `--baseline` checks.
struct Run {
    json: BenchJson,
    seed: u64,
    size: usize,
    faults: usize,
    throughput: Option<f64>,
}

/// One experiment: the names that select it and the function that runs it.
type Experiment = (&'static [&'static str], fn(&mut Run));

/// Every experiment, in presentation order.  An entry runs once however many
/// of its names are asked for.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], |_| table1()),
    (&["table2", "table3", "fig4"], |_| table2_and_3_and_fig4()),
    (&["table4"], |_| table4()),
    (&["table5"], |_| table5()),
    (&["table6"], |_| table6()),
    (&["table7a"], |_| table7a()),
    (&["table7b"], |_| table7b()),
    (&["table8"], |_| table8()),
    (&["table9"], |_| table9()),
    (&["attribution"], |_| attribution()),
    (&["fig7"], |_| fig7()),
    (&["fig8a"], |_| fig8a()),
    (&["fig8b"], |_| fig8b()),
    (&["throughput"], |run| run.throughput = Some(throughput(&mut run.json))),
    (&["fleet"], |run| fleet(&mut run.json)),
    (&["market"], |run| market_experiment(&mut run.json)),
    (&["properties"], |run| properties_experiment(&mut run.json)),
    (&["daemon"], |run| daemon_experiment(&mut run.json)),
    (&["telemetry"], |run| telemetry_experiment(&mut run.json)),
    (&["scenarios"], |run| scenarios_experiment(&mut run.json, run.seed, run.size)),
    (&["chaos"], |run| chaos_experiment(&mut run.json, run.seed, run.faults)),
];

/// The entries `names` asks for, in table order; no names or `all` selects
/// every entry.  `Err` carries the first name no entry answers to.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    let known = |name: &str| EXPERIMENTS.iter().any(|(names, _)| names.contains(&name));
    if let Some(unknown) = names.iter().find(|n| *n != "all" && !known(n)) {
        return Err(unknown);
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|(own, _)| all || names.iter().any(|n| own.contains(&n.as_str())))
        .collect())
}

/// Removes `flag <value>` from `args` and parses the value; a missing or
/// unparsable value exits 2.
fn take_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    let Ok(parsed) = value.parse() else {
        eprintln!("error: {flag} got an invalid value `{value}`");
        std::process::exit(2);
    };
    Some(parsed)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path: Option<String> = take_flag(&mut args, "--json");
    let baseline_path: Option<String> = take_flag(&mut args, "--baseline");
    let mut run = Run {
        json: BenchJson::new(),
        seed: take_flag(&mut args, "--seed").unwrap_or(1),
        size: take_flag(&mut args, "--size").unwrap_or(200),
        faults: take_flag(&mut args, "--faults").unwrap_or(50),
        throughput: None,
    };
    let chosen = select(&args).unwrap_or_else(|unknown| {
        let names: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
        eprintln!("error: unknown experiment `{unknown}`");
        eprintln!("available: all {}", names.join(" "));
        std::process::exit(2);
    });
    for (_, experiment) in chosen {
        experiment(&mut run);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, run.json.render())
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("\nwrote machine-readable timings to {path}");
    }
    if let Some(path) = baseline_path {
        let Some(measured) = run.throughput else {
            eprintln!("error: --baseline requires the `throughput` experiment to run");
            std::process::exit(2);
        };
        check_throughput_baseline(&path, measured);
    }
}

/// The open-property-API experiment: the same scaling workload verified
/// under the 45 built-ins and under built-ins + 5 custom `PropertySpec`s
/// (see `iotsan_bench::sample_custom_properties`).  Asserts the open API
/// causes no throughput cliff, then times one compiled property pass in
/// isolation (the `property_eval` rows).  That custom specs keep the
/// built-in verdict and the state space is `tests/property_spec.rs`'s job.
fn properties_experiment(json: &mut BenchJson) {
    use iotsan::system::InstalledSystem;
    use std::time::Instant;

    heading("Open property API: built-ins vs built-ins + custom specs");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);

    let builtin_run = iotsan_bench::run_search(&apps, &config, events, true, budget);
    let extended_set = iotsan_bench::extended_property_set();
    let custom_count = extended_set.len() - 45;
    let custom_run = iotsan_bench::run_search_with_properties(
        &apps,
        &config,
        events,
        true,
        budget,
        extended_set,
    );

    let ratio =
        custom_run.report.stats.states_per_sec / builtin_run.report.stats.states_per_sec.max(1e-9);
    println!(
        "{:<22} {:>14} {:>10} {:>12} {:>12}",
        "Property set", "Time", "States", "States/sec", "Violations"
    );
    for (label, run) in [("45 built-ins", &builtin_run), ("+5 custom specs", &custom_run)] {
        println!(
            "{label:<22} {:>14} {:>10} {:>12.0} {:>12}",
            format_runtime(run),
            run.report.stats.states_stored,
            run.report.stats.states_per_sec,
            run.report.violated_properties().len()
        );
    }
    println!("custom/builtin throughput ratio: {ratio:.3}");
    // The cliff guard: a structural regression (e.g. per-transition
    // allocation or string matching sneaking back into the compiled path)
    // costs integer factors, far below this noise-tolerant floor.
    assert!(
        ratio >= 0.5,
        "throughput cliff: custom specs dropped states/sec to {ratio:.3}x of built-ins"
    );

    let property_row = |phase: &str, properties: usize, run: &TimedRun, ratio: f64| {
        JsonRow::with_capacity(256)
            .str("phase", phase)
            .num_u("properties", properties as u64)
            .fixed("seconds", run.elapsed.as_secs_f64(), 6)
            .num_u("states", run.report.stats.states_stored as u64)
            .num_u("transitions", run.report.stats.transitions as u64)
            .fixed("states_per_sec", run.report.stats.states_per_sec, 1)
            .num_u("violated_properties", run.report.violated_properties().len() as u64)
            .flag("truncated", run.truncated)
            .fixed("throughput_ratio", ratio, 3)
            .finish()
    };
    let rows = vec![
        property_row("builtins", 45, &builtin_run, 1.0),
        property_row("customs", 45 + custom_count, &custom_run, ratio),
    ];
    json.push_experiment("properties", "market8+failures", events, &rows);

    // ---- property_eval micro-benchmark: one compiled pass in isolation ----
    // The pass reads the state vector directly, so this is the checker's
    // whole per-transition property cost.  Rows before the state-vector
    // evaluator timed `check_transition` on a prebuilt snapshot and never
    // saw the per-transition snapshot refresh (about a fifth of a search's
    // samples), so their ns_per_eval is not comparable to these.  A search
    // settles each property it reports, so a never-settled scratch (every
    // property evaluated) is the upper bound, and the pass on a scratch
    // settled with every property the workload's search reports is what
    // the search pays once it has found them.  Rows before the settled pass
    // existed carry no `scratch` field and are the upper bound.
    let pipeline = Pipeline::with_events(events);
    let restricted = pipeline.restrict_config(&apps, &config);
    let system = InstalledSystem::new(apps.clone(), restricted);
    let state = system.initial_state();
    let observation = iotsan::properties::StepObservation::default();
    let mut eval_rows = Vec::new();
    println!("\nproperty_eval micro-benchmark (one compiled pass per transition):");
    for (label, set, run) in [
        ("builtins", PropertySet::all(), &builtin_run),
        ("builtins+customs", iotsan_bench::extended_property_set(), &custom_run),
    ] {
        let compiled = system.compile_properties(&set);
        let reported = run.report.violated_properties();
        let mut settled = iotsan::properties::EvalScratch::default();
        for &id in &reported {
            compiled.settle(&mut settled, iotsan::properties::PropertyId(id));
        }
        let live = compiled.properties().len();
        println!(
            "  {label:<18} {:>3} specs, {live:>3} live, {:>3} atoms, {:>3} reported by the search:",
            set.len(),
            compiled.atom_count(),
            reported.len()
        );
        for (scratch_label, mut scratch) in
            [("never_settled", iotsan::properties::EvalScratch::default()), ("settled", settled)]
        {
            let mut monitors = vec![0u8; compiled.monitor_count()];
            let mut out = Vec::new();
            let iters = 200_000u32;
            let start = Instant::now();
            for _ in 0..iters {
                out.clear();
                compiled.check_transition(
                    &state.devices,
                    state.mode,
                    &observation,
                    &mut monitors,
                    &mut scratch,
                    &mut out,
                );
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
            let meaning = match scratch_label {
                "settled" => "settled on what it reports",
                _ => "never settled (upper bound)",
            };
            println!("    {meaning:<30} {ns:>8.1} ns/pass");
            eval_rows.push(
                JsonRow::new()
                    .str("set", label)
                    .str("scratch", scratch_label)
                    .num_u("properties", set.len() as u64)
                    .num_u("live_properties", live as u64)
                    .num_u("settled_properties", reported.len() as u64)
                    .num_u("atoms", compiled.atom_count() as u64)
                    .fixed("ns_per_eval", ns, 1)
                    .finish(),
            );
        }
    }
    json.push_experiment("property_eval", "market8", events, &eval_rows);

    // Fold statistics: how many built-ins stay live per planned group.
    for corpus in [8, 150] {
        let (apps, config) = iotsan_bench::fleet_workload(corpus);
        let plan = pipeline.planner().plan(&apps, &config);
        let mut live: Vec<usize> = plan
            .jobs
            .iter()
            .map(|job| {
                let system = InstalledSystem::new(job.members.clone(), job.config.clone());
                system.compile_properties(&pipeline.properties_for(&job.config)).properties().len()
            })
            .collect();
        live.sort_unstable();
        println!(
            "  market{corpus:<3} {:>3} groups: {}-{} of 45 properties live after folding (median {})",
            live.len(),
            live.first().copied().unwrap_or(0),
            live.last().copied().unwrap_or(0),
            live.get(live.len() / 2).copied().unwrap_or(0)
        );
    }
}

/// Maximum tolerated drop of the sequential checker's states/sec relative to
/// the committed baseline before `--baseline` fails the run.
const THROUGHPUT_REGRESSION_TOLERANCE: f64 = 0.20;

/// Extracts the `"engine":"sequential"` row's `states_per_sec` value from a
/// machine-readable timings document (the committed `BENCH_baseline.json`).
/// Hand-rolled scan, tolerating optional whitespace after the colon.
fn baseline_states_per_sec(text: &str) -> Option<f64> {
    let row = text.lines().find(|l| l.contains("\"engine\":") && l.contains("\"sequential\""))?;
    let start = row.find("\"states_per_sec\":")? + "\"states_per_sec\":".len();
    let rest = row[start..].trim_start();
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The `--baseline` regression guard: fails the run when the measured
/// sequential throughput has regressed more than
/// [`THROUGHPUT_REGRESSION_TOLERANCE`] below the committed baseline.
/// (Cross-machine noise caveat: the baseline is refreshed whenever the
/// benchmark machine class changes — see EXPERIMENTS.md.)
fn check_throughput_baseline(path: &str, measured: f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("failed to read baseline {path}: {e}"));
    let Some(baseline) = baseline_states_per_sec(&text) else {
        eprintln!("error: no sequential states_per_sec row in baseline {path}");
        std::process::exit(2);
    };
    let floor = baseline * (1.0 - THROUGHPUT_REGRESSION_TOLERANCE);
    println!(
        "\nthroughput guard: sequential {measured:.0} states/sec vs baseline {baseline:.0} (floor {floor:.0})"
    );
    if measured < floor {
        eprintln!(
            "error: sequential throughput regressed more than {:.0}% below the committed baseline \
             ({measured:.0} < {floor:.0} states/sec); investigate or refresh BENCH_baseline.json",
            THROUGHPUT_REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}

/// Collector for the machine-readable timing document written by `--json`.
/// The document frame (experiment list, pretty-printed nesting) is rendered
/// here; the rows themselves are [`JsonRow`] objects from
/// `iotsan-telemetry`, the same serializer behind the daemon's NDJSON
/// outcomes and the metrics snapshot, so the surfaces cannot drift in
/// escaping or number formatting.
struct BenchJson {
    experiments: Vec<String>,
}

impl BenchJson {
    fn new() -> Self {
        BenchJson { experiments: Vec::new() }
    }

    fn push_experiment(&mut self, name: &str, group: &str, events: usize, rows: &[String]) {
        let body: Vec<String> = rows.iter().map(|row| format!("        {row}")).collect();
        self.experiments.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"group\": \"{group}\",\n      \"events\": {events},\n      \"rows\": [\n{}\n      ]\n    }}",
            body.join(",\n")
        ));
    }

    fn render(&self) -> String {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        format!(
            "{{\n  \"schema\": 1,\n  \"profile\": \"{}\",\n  \"host_cpus\": {cpus},\n  \"experiments\": [\n{}\n  ]\n}}\n",
            if iotsan_bench::PAPER_SCALE { "bench" } else { "quick" },
            self.experiments.join(",\n")
        )
    }
}

/// Throughput measurement: one search over the bench-profile throughput
/// workload — 8 market apps with failure injection, verified as one model
/// (the paper has no throughput numbers — this tracks the reproduction's
/// own search speed; see EXPERIMENTS.md).  Returns the
/// measured states/sec (the throughput-guard metric).
fn throughput(json: &mut BenchJson) -> f64 {
    heading("Checker throughput (8 market apps, failures on)");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(3, 4);
    let budget = iotsan_bench::experiment_budget(30, 120);
    let run = iotsan_bench::run_search(&apps, &config, events, true, budget);
    let stats = &run.report.stats;
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>14}",
        "Time", "States", "Transitions", "Violations", "States/sec"
    );
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>14.0}",
        format_runtime(&run),
        stats.states_stored,
        stats.transitions,
        run.report.violated_properties().len(),
        stats.states_per_sec
    );
    // `engine` and `states_per_sec` are the fields the `--baseline` guard
    // scans for (see `baseline_states_per_sec`).
    let row = JsonRow::with_capacity(256)
        .str("engine", "sequential")
        .fixed("seconds", run.elapsed.as_secs_f64(), 6)
        .num_u("states", stats.states_stored as u64)
        .num_u("transitions", stats.transitions as u64)
        .fixed("states_per_sec", stats.states_per_sec, 1)
        .num_u("peak_trace_bytes", stats.peak_trace_bytes as u64)
        .num_u("violated_properties", run.report.violated_properties().len() as u64)
        .flag("truncated", run.truncated)
        .finish();
    json.push_experiment("throughput", "market8+failures", events, &[row]);
    stats.states_per_sec
}

fn fleet_row(
    corpus: usize,
    phase: &str,
    run: &iotsan_bench::FleetRun,
    cold: &iotsan_bench::FleetRun,
) -> String {
    JsonRow::with_capacity(256)
        .num_u("corpus", corpus as u64)
        .str("phase", phase)
        .fixed("seconds", run.elapsed.as_secs_f64(), 6)
        .num_u("groups", run.report.groups.len() as u64)
        .num_u("cache_hits", run.report.cache_hits as u64)
        .num_u("cache_misses", run.report.cache_misses as u64)
        .fixed("hit_rate", run.report.cache_hit_rate(), 3)
        .num_u("violated_properties", run.report.violated_properties().len() as u64)
        .num_u("states", run.states() as u64)
        .num_u("transitions", run.transitions() as u64)
        .flag("truncated", run.truncated())
        .fixed(
            "speedup_vs_cold",
            cold.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9),
            3,
        )
        .finish()
}

/// Fleet planner sweep: group counts (via corpus size) × cache phases
/// (cold, warm replay, warm after mutating one app) over the market corpus
/// with failure injection.  The paper has no fleet-cache numbers — this
/// tracks the reproduction's own analyze→check→attribute subsystem; see
/// EXPERIMENTS.md.
fn fleet(json: &mut BenchJson) {
    heading("Fleet planner: cached group-wise verification (market corpus, failures on)");
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);
    let corpus_sizes: &[usize] = if iotsan_bench::PAPER_SCALE { &[8, 16, 24] } else { &[4, 8, 12] };
    let mut rows = Vec::new();
    println!(
        "{:<8} {:<10} {:>12} {:>8} {:>6} {:>8} {:>9} {:>12}",
        "Corpus", "Phase", "Time", "Groups", "Hits", "Misses", "HitRate", "Violations"
    );
    for &corpus in corpus_sizes {
        let (apps, config) = iotsan_bench::fleet_workload(corpus);
        let mut cache = iotsan::VerificationCache::new();
        let cold = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut cache);
        let warm = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut cache);

        // Mutate one verified app's IR (not its event profile): only the
        // groups containing it are re-checked (`tests/fleet_cache.rs`).
        let mut mutated = apps.clone();
        let target = mutated
            .iter_mut()
            .find(|a| !a.dynamic_discovery)
            .expect("a verifiable app in the corpus");
        target.description.push_str(" (fleet mutation)");
        let after = iotsan_bench::run_fleet(&mutated, &config, events, true, budget, &mut cache);

        for (phase, run) in [("cold", &cold), ("warm", &warm), ("mutated", &after)] {
            println!(
                "{corpus:<8} {phase:<10} {:>12} {:>8} {:>6} {:>8} {:>8.0}% {:>12}",
                format_duration(run.elapsed, run.truncated()),
                run.report.groups.len(),
                run.report.cache_hits,
                run.report.cache_misses,
                run.report.cache_hit_rate() * 100.0,
                run.report.violated_properties().len(),
            );
            rows.push(fleet_row(corpus, phase, run, &cold));
        }
    }
    json.push_experiment("fleet", "market+failures", events, &rows);
}

/// The scaling target: the whole 150-app market corpus under the standard
/// household with failure injection, verified group-wise with a fresh cache
/// and a 60 s per-group time limit, at 3 events (6 under `--features
/// bench`).  Reports the pass's wall time, its states per second, how many
/// groups reached a fixpoint (`closed_at`), and beside the reported totals
/// what the pass searched: the groups searched and the groups served by
/// replaying another member of their renaming class, read from the
/// telemetry counters (0 in a build without telemetry), and the bytes the
/// verdict log would store for the pass (each group's
/// `encode_group_result`, summed); see EXPERIMENTS.md.
fn market_experiment(json: &mut BenchJson) {
    use iotsan_telemetry::METRICS;

    heading("Failures-on market pass (150 market apps, failures on)");
    let events = iotsan_bench::experiment_events(3, 6);
    let (apps, config) = iotsan_bench::fleet_workload(150);
    let budget = std::time::Duration::from_secs(60);
    let mut cache = iotsan::VerificationCache::new();
    let counters = || {
        let served = METRICS.planner_served_by_renaming.get();
        (METRICS.checker_searches.get(), served, METRICS.checker_states.get())
    };
    let before = counters();
    let run = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut cache);
    let after = counters();
    let (searched, served, searched_states) =
        (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    let closed = run.report.groups.iter().filter(|g| g.report.stats.closed_at.is_some()).count();
    let states_per_sec = run.states() as f64 / run.elapsed.as_secs_f64().max(1e-9);
    let violated = run.report.violated_properties().len();
    let mut record = Vec::new();
    let verdict_bytes: usize = run
        .report
        .groups
        .iter()
        .map(|group| {
            let result =
                iotsan::GroupResult { apps: group.apps.clone(), report: group.report.clone() };
            record.clear();
            iotsan_daemon::codec::encode_group_result(&result, &mut record);
            record.len()
        })
        .sum();
    println!(
        "{:<7} {:>12} {:>10} {:>12} {:>12} {:>7} {:>7} {:>9} {:>9} {:>7} {:>15} {:>13}",
        "Events",
        "Time",
        "States",
        "Transitions",
        "States/sec",
        "Groups",
        "Closed",
        "Violated",
        "Searched",
        "Served",
        "Searched states",
        "Verdict bytes"
    );
    println!(
        "{events:<7} {:>12} {:>10} {:>12} {states_per_sec:>12.0} {:>7} {closed:>7} {violated:>9} \
         {searched:>9} {served:>7} {searched_states:>15} {verdict_bytes:>13}",
        format_duration(run.elapsed, run.truncated()),
        run.states(),
        run.transitions(),
        run.report.groups.len(),
    );
    let row = JsonRow::with_capacity(256)
        .fixed("seconds", run.elapsed.as_secs_f64(), 6)
        .num_u("states", run.states() as u64)
        .num_u("transitions", run.transitions() as u64)
        .fixed("states_per_sec", states_per_sec, 1)
        .num_u("groups", run.report.groups.len() as u64)
        .num_u("closed_groups", closed as u64)
        .num_u("violated_properties", violated as u64)
        .num_u("searched_groups", searched)
        .num_u("served_groups", served)
        .num_u("searched_states", searched_states)
        .num_u("verdict_bytes", verdict_bytes as u64)
        .flag("truncated", run.truncated())
        .finish();
    json.push_experiment("market", "market150+failures", events, &[row]);
}

/// Warm-restart experiment over `iotsan-daemon`'s durable verdict store:
/// verify the 8-app market fleet cold (writing every group verdict through
/// to the append-only log), tear the log's tail the way a crash mid-append
/// would, then verify again in a fresh "process" over the same file.  The
/// restart must come in at least 10x faster.  Each phase also reports its
/// store open (for the restart, the best of its three), the time to then
/// serve every live verdict once, and the log's size.
/// Torn-tail recovery and the warm verdicts served from disk are pinned by
/// the daemon crate's `store_recovery` and `iotsand_smoke` tests.
fn daemon_experiment(json: &mut BenchJson) {
    use iotsan::VerificationCache;
    use iotsan_daemon::{Recovery, StoreBacking, VerdictStore};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    heading("Daemon: durable verdict store across a crashed restart (8 market apps, failures on)");
    // A fixed 3-event bound in both profiles: deep enough that cold
    // verification dwarfs the disk replay, cheap enough for the quick one.
    let events = 3;
    let budget = iotsan_bench::experiment_budget(60, 180);
    let (apps, config) = iotsan_bench::fleet_workload(8);

    let dir = std::env::temp_dir().join(format!("iotsan-repro-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let path = dir.join("verdicts.log");

    // A timed store open (read, CRC check and index), the time to then
    // read back and decode every live verdict once (the decode the open
    // leaves to each verdict's first lookup), the log's size once open, and
    // a fresh cache backed by the store.
    let open_cache = |path: &std::path::Path| {
        let started = Instant::now();
        let store = VerdictStore::open(path).expect("open the verdict store");
        let elapsed = started.elapsed();
        let started = Instant::now();
        let served = store.fingerprints().filter(|&f| store.get(f).is_some()).count();
        assert_eq!(served, store.len(), "every live verdict reads back");
        let first_load = started.elapsed();
        let open = Open { elapsed, first_load, log_bytes: store.file_bytes().unwrap_or(0) };
        let recovery = store.recovery().clone();
        let backing = StoreBacking::new(Arc::new(Mutex::new(store)));
        (VerificationCache::new().with_backing(Box::new(backing)), recovery, open)
    };
    #[derive(Clone, Copy)]
    struct Open {
        elapsed: Duration,
        first_load: Duration,
        log_bytes: u64,
    }

    // Phase 1: cold run, writing every verdict through to the log.
    let (mut cache, recovery, cold_open) = open_cache(&path);
    assert_eq!(recovery, Recovery::Fresh, "the experiment starts from a fresh store");
    let cold = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut cache);
    drop(cache); // "process exit": nothing in memory survives past here

    // Kill the process mid-append: a torn half-record at the log's tail.
    {
        use std::io::Write as _;
        let mut file =
            std::fs::OpenOptions::new().append(true).open(&path).expect("reopen the log");
        file.write_all(&[0x01, 0xde, 0xad, 0xbe]).expect("append a torn record");
    }

    // Phase 2: restart.  Replay a few times (fresh cache each time, so every
    // lookup goes to disk) and keep the fastest, like any microbenchmark.
    let (mut cache, recovery, mut warm_open) = open_cache(&path);
    let mut warm = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut cache);
    let mut warm_backing_hits = cache.backing_hits();
    for _ in 0..2 {
        let (mut again, _, open) = open_cache(&path);
        if open.elapsed < warm_open.elapsed {
            warm_open = open;
        }
        let run = iotsan_bench::run_fleet(&apps, &config, events, true, budget, &mut again);
        if run.elapsed < warm.elapsed {
            warm = run;
            warm_backing_hits = again.backing_hits();
        }
    }

    let speedup = cold.elapsed.as_secs_f64() / warm.elapsed.as_secs_f64().max(1e-9);
    assert!(
        cold.truncated() || speedup >= 10.0,
        "warm restart must be at least 10x faster than the cold run, got {speedup:.1}x"
    );

    println!(
        "{:<14} {:>12} {:>8} {:>6} {:>8} {:>13} {:>10}",
        "Phase", "Time", "Groups", "Hits", "Misses", "BackingHits", "Speedup"
    );
    let mut rows = Vec::new();
    for (phase, run, backing, open) in
        [("cold", &cold, 0usize, cold_open), ("warm-restart", &warm, warm_backing_hits, warm_open)]
    {
        let vs_cold = cold.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9);
        println!(
            "{phase:<14} {:>12} {:>8} {:>6} {:>8} {backing:>13} {vs_cold:>9.1}x",
            format_duration(run.elapsed, run.truncated()),
            run.report.groups.len(),
            run.report.cache_hits,
            run.report.cache_misses,
        );
        rows.push(
            JsonRow::with_capacity(256)
                .str("phase", phase)
                .fixed("seconds", run.elapsed.as_secs_f64(), 6)
                .num_u("groups", run.report.groups.len() as u64)
                .num_u("cache_hits", run.report.cache_hits as u64)
                .num_u("cache_misses", run.report.cache_misses as u64)
                .num_u("backing_hits", backing as u64)
                .num_u("violated_properties", run.report.violated_properties().len() as u64)
                .flag("truncated", run.truncated())
                .fixed("speedup_vs_cold", vs_cold, 3)
                .fixed("open_seconds", open.elapsed.as_secs_f64(), 6)
                .fixed("first_load_seconds", open.first_load.as_secs_f64(), 6)
                .num_u("log_bytes", open.log_bytes)
                .finish(),
        );
    }
    json.push_experiment("daemon", "market8+failures", events, &rows);
    let open_secs = warm_open.elapsed.as_secs_f64();
    println!(
        "restart open: best of 3 {:.2} ms over {} byte(s), {:.0} MB/s; \
         then every live verdict served once in {:.2} ms",
        open_secs * 1e3,
        warm_open.log_bytes,
        warm_open.log_bytes as f64 / 1e6 / open_secs.max(1e-9),
        warm_open.first_load.as_secs_f64() * 1e3
    );
    println!("(recovery: {recovery:?})");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimum fraction of the recording-disabled throughput the
/// recording-enabled run must retain: the telemetry subsystem's "<5%
/// overhead" budget.
const TELEMETRY_OVERHEAD_FLOOR: f64 = 0.95;

/// Rounds of the telemetry A/B, each one search per arm (odd, so one round
/// is the median).  One search of the workload takes about a millisecond,
/// so a single round's ratio is at the mercy of scheduler noise.  Over 100
/// runs on a 2-vCPU Xeon the median ratio's standard deviation was 0.034
/// with 9 rounds and 0.007 with 51, which take about 0.15 s in all.
const TELEMETRY_ROUNDS: usize = 51;

/// The telemetry overhead guard: the same sequential scaling workload
/// verified with metric recording switched off (the runtime kill-switch)
/// and on, in [`TELEMETRY_ROUNDS`] rounds inside one process.  Each round
/// runs both arms back to back (alternating which goes first) and yields
/// one enabled/disabled throughput ratio, so machine noise and thermal
/// drift hit both sides of a ratio equally.  Asserts the median ratio is
/// at least [`TELEMETRY_OVERHEAD_FLOOR`] and that recording changes no
/// verification result, then emits what this experiment moved in the
/// registry (see [`registry_since`]), so the BENCH artifact records which
/// counters the workload drives whatever experiments ran before it.
fn telemetry_experiment(json: &mut BenchJson) {
    heading("Telemetry: recording overhead A/B (metrics off vs on, one process)");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);
    let before = iotsan_telemetry::snapshot();

    // Warm-up run: fault in code paths and allocator state before timing.
    let warmup = iotsan_bench::run_search(&apps, &config, events, true, budget);

    let run_arm = |recording: bool| {
        iotsan_telemetry::metrics::set_enabled(recording);
        let run = iotsan_bench::run_search(&apps, &config, events, true, budget);
        iotsan_telemetry::metrics::set_enabled(true);
        run
    };
    let ratio_of = |(disabled, enabled): &(TimedRun, TimedRun)| {
        enabled.report.stats.states_per_sec / disabled.report.stats.states_per_sec.max(1e-9)
    };
    let mut rounds: Vec<(TimedRun, TimedRun)> = (0..TELEMETRY_ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let disabled = run_arm(false);
                (disabled, run_arm(true))
            } else {
                let enabled = run_arm(true);
                (run_arm(false), enabled)
            }
        })
        .collect();

    // Recording is observation only: every run of both arms (and the
    // warm-up) must agree on every verification result.
    for (disabled, enabled) in &rounds {
        for (label, run) in [("disabled", disabled), ("enabled", enabled)] {
            assert_eq!(
                run.report.violated_properties(),
                warmup.report.violated_properties(),
                "telemetry {label} arm changed the violated-property set"
            );
            assert_eq!(
                run.report.stats.states_stored, warmup.report.stats.states_stored,
                "telemetry {label} arm changed the explored state count"
            );
        }
    }

    // The median round (the round count is odd) stands for the A/B.
    rounds.sort_by(|a, b| ratio_of(a).total_cmp(&ratio_of(b)));
    let median = rounds.swap_remove(TELEMETRY_ROUNDS / 2);
    let ratio = ratio_of(&median);
    let (disabled, enabled) = median;

    println!(
        "{:<22} {:>14} {:>10} {:>12} {:>12}",
        "Recording", "Time", "States", "States/sec", "Violations"
    );
    for (label, run) in [("off (kill-switch)", &disabled), ("on (default)", &enabled)] {
        println!(
            "{label:<22} {:>14} {:>10} {:>12.0} {:>12}",
            format_runtime(run),
            run.report.stats.states_stored,
            run.report.stats.states_per_sec,
            run.report.violated_properties().len()
        );
    }
    println!(
        "median enabled/disabled throughput ratio over {TELEMETRY_ROUNDS} rounds: {ratio:.3} \
         (floor {TELEMETRY_OVERHEAD_FLOOR})"
    );
    assert!(
        ratio >= TELEMETRY_OVERHEAD_FLOOR,
        "telemetry recording costs more than its overhead budget: \
         median enabled run at {ratio:.3}x of its disabled run (floor {TELEMETRY_OVERHEAD_FLOOR})"
    );

    // The wiring check: a workload this size must have moved the checker
    // counters through the registry's global flush path.
    let snap = registry_since(&before, iotsan_telemetry::snapshot());
    assert!(
        snap.counter("iotsan_checker_searches_total") > 0
            && snap.counter("iotsan_checker_states_total") > 0,
        "the checker flushed no telemetry despite recording being enabled"
    );

    let overhead_row = |phase: &str, run: &TimedRun, ratio: f64| {
        JsonRow::with_capacity(256)
            .str("phase", phase)
            .fixed("seconds", run.elapsed.as_secs_f64(), 6)
            .num_u("states", run.report.stats.states_stored as u64)
            .num_u("transitions", run.report.stats.transitions as u64)
            .fixed("states_per_sec", run.report.stats.states_per_sec, 1)
            .flag("truncated", run.truncated)
            .fixed("throughput_ratio", ratio, 3)
            .finish()
    };
    json.push_experiment(
        "telemetry_overhead",
        "market8+failures",
        events,
        &[overhead_row("disabled", &disabled, 1.0), overhead_row("enabled", &enabled, ratio)],
    );
    json.push_experiment("telemetry_snapshot", "registry", events, &[snap.render_json()]);
}

/// `after` with every counter and histogram reduced by its reading in
/// `before`, a capture of the same registry; gauges keep their `after`
/// reading.
fn registry_since(before: &Snapshot, mut after: Snapshot) -> Snapshot {
    for (sample, earlier) in after.samples.iter_mut().zip(&before.samples) {
        assert_eq!(sample.descriptor.name, earlier.descriptor.name, "registry order changed");
        let since = |now: &mut u64, then: u64| {
            *now = now.checked_sub(then).expect("counters and histograms only grow");
        };
        match (&mut sample.value, &earlier.value) {
            (Value::Counter(now), Value::Counter(then)) => since(now, *then),
            (
                Value::Histogram { counts, sum, .. },
                Value::Histogram { counts: then_counts, sum: then_sum, .. },
            ) => {
                for (now, then) in counts.iter_mut().zip(then_counts) {
                    since(now, *then);
                }
                since(sum, *then_sum);
            }
            _ => {}
        }
    }
    after
}

/// The scenario-factory differential fuzzer: `size` generated households
/// starting at `seed_start`, each verified serially, through the concurrent
/// fleet executor, renamed and warm-cache, with all runs and a
/// full-alphabet walk required to agree.  Emits one `scenario_fuzz` summary row.
/// On any divergence: shrinks the household to a minimal reproduction under
/// the *same* divergence phase, writes it to `scenario_repro.json` and exits
/// non-zero so CI fails loudly and uploads the artifact.
fn scenarios_experiment(json: &mut BenchJson, seed_start: u64, size: usize) {
    use iotsan_scenarios::{check_household, shrink, Household, HouseholdReport, SizeProfile};
    use std::time::Instant;

    heading(&format!(
        "Scenario factory: differential fuzzing over {size} households (seeds {seed_start}..{})",
        seed_start + size as u64
    ));
    let profile = SizeProfile::default();
    let mut totals = HouseholdReport::default();
    let mut households = 0usize;
    let mut apps = 0usize;
    let mut truncated = 0usize;
    let mut violating = 0usize;
    let start = Instant::now();

    for seed in seed_start..seed_start + size as u64 {
        let household = Household::generate(seed, &profile);
        match check_household(&household) {
            Ok(report) => {
                households += 1;
                apps += household.sources.len();
                totals.groups += report.groups;
                totals.states += report.states;
                totals.transitions += report.transitions;
                truncated += report.truncated as usize;
                violating += usize::from(!report.violated.is_empty());
            }
            Err(divergence) => {
                eprintln!("DIVERGENCE: {divergence}");
                let phase = divergence.phase;
                let minimal = shrink(
                    &household,
                    |h| matches!(check_household(h), Err(d) if d.phase == phase),
                );
                let path = "scenario_repro.json";
                std::fs::write(path, minimal.to_json() + "\n")
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                eprintln!(
                    "shrunk reproduction ({} apps, {} devices) written to {path}",
                    minimal.sources.len(),
                    minimal.config.devices.len()
                );
                std::process::exit(1);
            }
        }
    }

    let seconds = start.elapsed().as_secs_f64();
    let states_per_sec = totals.states as f64 / seconds.max(1e-9);
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "Households", "Apps", "Groups", "States", "Transitions", "Violating", "Truncated"
    );
    println!(
        "{households:<12} {apps:>8} {:>8} {:>10} {:>12} {violating:>10} {truncated:>10}",
        totals.groups, totals.states, totals.transitions
    );
    println!(
        "all four runs and the full-alphabet walk agreed on every household; \
         {seconds:.2}s, {states_per_sec:.0} states/sec"
    );
    json.push_experiment(
        "scenario_fuzz",
        "generated-households",
        0,
        &[JsonRow::with_capacity(256)
            .num_u("households", households as u64)
            .num_u("seed_start", seed_start)
            .num_u("divergences", 0)
            .num_u("apps", apps as u64)
            .num_u("groups", totals.groups as u64)
            .num_u("states", totals.states as u64)
            .num_u("transitions", totals.transitions as u64)
            .num_u("violating_households", violating as u64)
            .num_u("truncated_households", truncated as u64)
            .fixed("seconds", seconds, 6)
            .fixed("states_per_sec", states_per_sec, 1)
            .finish()],
    );
}

/// The timing-free digest of one verified group, used to detect a wrong
/// verdict: the apps and how many properties they violate are deterministic
/// for this workload, the timing statistics are not.
type ChaosReference = BTreeMap<u64, (Vec<String>, usize)>;

/// What one surviving chaos schedule contributes to the sweep summary.
#[derive(Default)]
struct ChaosScheduleStats {
    degraded: bool,
    lost_persists: usize,
    quarantined: usize,
}

/// True when the verdict stored under `fingerprint` matches the fault-free
/// reference's.
fn agrees(
    reference: &ChaosReference,
    fingerprint: u64,
    apps: &[String],
    violations: usize,
) -> bool {
    reference.get(&fingerprint).is_some_and(|(a, v)| a == apps && *v == violations)
}

fn chaos_config(
    store_path: &std::path::Path,
    plan: Option<&iotsan_scenarios::ChaosPlan>,
) -> iotsan_daemon::DaemonConfig {
    use iotsan_daemon::{DaemonConfig, Fault, FaultKind, FaultPlan};
    use iotsan_scenarios::ChaosFaultKind;
    // The one-line mapping from the scenario crate's plain plan vocabulary
    // onto the daemon's fault seam (the crates deliberately do not depend
    // on each other in this direction).
    let fault_plan = plan.map(|p| FaultPlan {
        faults: p
            .faults
            .iter()
            .map(|f| Fault {
                at: f.at,
                kind: match f.kind {
                    ChaosFaultKind::ShortWrite => FaultKind::ShortWrite,
                    ChaosFaultKind::NoSpace => FaultKind::NoSpace,
                    ChaosFaultKind::FsyncFail => FaultKind::FsyncFail,
                    ChaosFaultKind::RenameFail => FaultKind::RenameFail,
                },
            })
            .collect(),
    });
    DaemonConfig {
        store_path: store_path.to_path_buf(),
        store_options: iotsan_daemon::StoreOptions::default(),
        workers: 1,
        queue_capacity: 16,
        // Tight backoff: the sweep cares about ordering, not wall-clock realism.
        retry: iotsan_daemon::RetryPolicy { max_attempts: 2, base_delay_ms: 1 },
        fault_injection: fault_plan.is_some(),
        fault_plan,
    }
}

/// The fixed chaos workload: two distinct market jobs, a duplicate of the
/// first (exercising the shared in-flight/cache path), and — when the plan
/// says so — a panicking job plus its duplicate (exercising supervision,
/// the shared attempt budget and the quarantine fail-fast).
fn chaos_jobs(plan: &iotsan_scenarios::ChaosPlan) -> Vec<iotsan_daemon::JobSpec> {
    use iotsan_daemon::{BundleSpec, JobSpec};
    let job = |id: &str, n: usize, inject_panic: bool| JobSpec {
        id: id.into(),
        bundle: BundleSpec::Market(n),
        events: 2,
        workers: 1,
        failures: false,
        timeout_ms: None,
        inject_panic,
    };
    // The panic jobs go first: the injected panic fires on a cache miss,
    // so they must reach their groups before a healthy job verifies them.
    // The healthy duplicate of the same bundle then proves a quarantined
    // class does not poison its fingerprints for later jobs.
    let mut jobs = Vec::new();
    if plan.panic_job {
        jobs.push(job("chaos-panic", 2, true));
        jobs.push(job("chaos-panic-dup", 2, true));
    }
    jobs.extend([job("chaos-a", 2, false), job("chaos-b", 3, false), job("chaos-a-dup", 2, false)]);
    jobs
}

/// Runs the fault-free workload once and digests every group verdict — the
/// ground truth all fault-injected runs are compared against.
fn chaos_reference(dir: &std::path::Path) -> ChaosReference {
    use iotsan_daemon::{Daemon, JobStatus};
    let store_path = dir.join("reference").join("verdicts.log");
    let mut daemon = Daemon::start(chaos_config(&store_path, None)).expect("reference daemon");
    let plan = iotsan_scenarios::ChaosPlan { seed: 0, faults: Vec::new(), panic_job: false };
    let outcomes = daemon.run_batch(chaos_jobs(&plan));
    let mut reference = ChaosReference::new();
    for outcome in &outcomes {
        assert!(matches!(outcome.status, JobStatus::Ok), "reference run must be clean");
        for group in &outcome.report.as_ref().expect("reference report").groups {
            reference
                .insert(group.fingerprint.0, (group.apps.clone(), group.report.violations.len()));
        }
    }
    daemon.shutdown().expect("reference shutdown");
    reference
}

/// Drives one chaos schedule through cold run → restart → warm run and
/// checks the three invariants.  `Err` carries a human-readable violation.
fn run_chaos_schedule(
    plan: &iotsan_scenarios::ChaosPlan,
    reference: &ChaosReference,
    dir: &std::path::Path,
    run_id: usize,
) -> Result<ChaosScheduleStats, String> {
    use iotsan_daemon::{Daemon, JobStatus, VerdictStore};

    let run_dir = dir.join(format!("run-{run_id}"));
    let _ = std::fs::remove_dir_all(&run_dir);
    let store_path = run_dir.join("verdicts.log");
    let mut stats = ChaosScheduleStats::default();

    // Cold run under the injected faults.
    let mut daemon = Daemon::start(chaos_config(&store_path, Some(plan)))
        .map_err(|e| format!("cold daemon failed to start: {e}"))?;
    let jobs = chaos_jobs(plan);
    let outcomes = daemon.run_batch(jobs.clone());
    // Invariant 3: every submitted job reaches a definite outcome (the
    // batch returning at all also proves no worker died or hung).
    if outcomes.len() != jobs.len() {
        return Err(format!("{} jobs submitted, {} outcomes returned", jobs.len(), outcomes.len()));
    }
    let mut acked = 0usize;
    for outcome in &outcomes {
        let spec = jobs.iter().find(|j| j.id == outcome.id).expect("outcome matches a job");
        match &outcome.status {
            JobStatus::Ok => {
                let report = outcome
                    .report
                    .as_ref()
                    .ok_or_else(|| format!("job {} is Ok without a report", outcome.id))?;
                // Invariant 2 (cold): every served verdict matches the
                // fault-free reference.
                if let Some(group) = report.groups.iter().find(|g| {
                    !agrees(reference, g.fingerprint.0, &g.apps, g.report.violations.len())
                }) {
                    return Err(format!(
                        "job {} served a wrong verdict for {:?}",
                        outcome.id, group.apps
                    ));
                }
                // Verdicts acknowledged as durable: fresh verifications
                // whose append the store accepted.
                acked += report.cache_misses - report.persist_failures;
                stats.lost_persists += report.persist_failures;
                stats.degraded |= outcome.degraded;
            }
            JobStatus::Failed { .. } if spec.inject_panic => {} // supervised as designed
            other => {
                return Err(format!("job {} ended {:?} instead of completing", outcome.id, other))
            }
        }
    }
    let summary = daemon.shutdown().map_err(|e| format!("cold daemon shutdown failed: {e}"))?;
    stats.quarantined = summary.quarantined;

    // Restart on whatever survived, with real I/O.  Invariant 1: the disk
    // holds exactly the acknowledged verdicts, and (invariant 2) each one
    // replays to the reference verdict.
    let store =
        VerdictStore::open(&store_path).map_err(|e| format!("post-fault reopen failed: {e}"))?;
    let disk: Vec<u64> = store.fingerprints().map(|f| f.0).collect();
    if disk.len() != acked {
        return Err(format!(
            "store lost or invented verdicts: {} acknowledged, {} on disk",
            acked,
            disk.len()
        ));
    }
    for fingerprint in &disk {
        let result = store.get(iotsan::Fingerprint(*fingerprint)).ok_or_else(|| {
            format!("verdict {fingerprint:016x} is listed but does not read back")
        })?;
        if !agrees(reference, *fingerprint, &result.apps, result.report.violations.len()) {
            return Err(format!("recovered verdict for {:?} is wrong", result.apps));
        }
    }
    drop(store);

    // Warm run, no faults: every durable verdict must be served from the
    // store (not re-verified), and every outcome must match the reference.
    let mut daemon = Daemon::start(chaos_config(&store_path, None))
        .map_err(|e| format!("warm daemon failed to start: {e}"))?;
    let no_panic = iotsan_scenarios::ChaosPlan { seed: 0, faults: Vec::new(), panic_job: false };
    let outcomes = daemon.run_batch(chaos_jobs(&no_panic));
    let mut backing_hits = 0usize;
    for outcome in &outcomes {
        if !matches!(outcome.status, JobStatus::Ok) {
            return Err(format!("warm job {} ended {:?}", outcome.id, outcome.status));
        }
        let report = outcome.report.as_ref().expect("warm report");
        if let Some(group) = report
            .groups
            .iter()
            .find(|g| !agrees(reference, g.fingerprint.0, &g.apps, g.report.violations.len()))
        {
            return Err(format!(
                "warm job {} served a wrong verdict for {:?}",
                outcome.id, group.apps
            ));
        }
        backing_hits += outcome.backing_hits;
    }
    if backing_hits != disk.len() {
        return Err(format!(
            "warm restart re-verified durable verdicts: {} on disk, {} served from it",
            disk.len(),
            backing_hits
        ));
    }
    daemon.shutdown().map_err(|e| format!("warm daemon shutdown failed: {e}"))?;

    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(stats)
}

/// The seeded chaos sweep over the daemon's self-healing machinery.
fn chaos_experiment(json: &mut BenchJson, seed_start: u64, schedules: usize) {
    use iotsan_scenarios::ChaosPlan;
    use std::time::Instant;

    heading(&format!(
        "Chaos: {schedules} seeded fault schedules through the daemon (seeds {seed_start}..{})",
        seed_start + schedules as u64
    ));
    let dir = std::env::temp_dir().join(format!("iotsan-repro-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Injected panics are expected; their backtraces would swamp the output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let start = Instant::now();
    let reference = chaos_reference(&dir);
    let mut run_id = 0usize;
    let mut faults_scheduled = 0usize;
    let mut panic_schedules = 0usize;
    let mut degraded_runs = 0usize;
    let mut lost_persists = 0usize;
    let mut quarantined_jobs = 0usize;

    for seed in seed_start..seed_start + schedules as u64 {
        let plan = ChaosPlan::generate(seed);
        faults_scheduled += plan.faults.len();
        panic_schedules += usize::from(plan.panic_job);
        run_id += 1;
        match run_chaos_schedule(&plan, &reference, &dir, run_id) {
            Ok(stats) => {
                degraded_runs += usize::from(stats.degraded);
                lost_persists += stats.lost_persists;
                quarantined_jobs += stats.quarantined;
            }
            Err(violation) => {
                std::panic::set_hook(hook);
                eprintln!("CHAOS VIOLATION at seed {seed}: {violation}");
                let shrink_id = std::cell::Cell::new(run_id);
                let minimal = plan.shrink(|p| {
                    shrink_id.set(shrink_id.get() + 1);
                    run_chaos_schedule(p, &reference, &dir, shrink_id.get()).is_err()
                });
                let path = "chaos_repro.json";
                std::fs::write(path, minimal.to_json())
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                eprintln!(
                    "shrunk reproduction ({} faults, panic_job={}) written to {path}",
                    minimal.faults.len(),
                    minimal.panic_job
                );
                std::process::exit(1);
            }
        }
    }
    std::panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);

    let seconds = start.elapsed().as_secs_f64();
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>14} {:>12}",
        "Schedules", "Faults", "Panics", "Degraded", "LostPersists", "Quarantined"
    );
    println!(
        "{schedules:<12} {faults_scheduled:>8} {panic_schedules:>10} {degraded_runs:>10} \
         {lost_persists:>14} {quarantined_jobs:>12}"
    );
    println!(
        "all {schedules} schedules upheld the invariants (no lost acknowledged verdict, \
         no wrong verdict, every job definite); {seconds:.2}s"
    );
    json.push_experiment(
        "chaos",
        "daemon-fault-schedules",
        2,
        &[JsonRow::with_capacity(256)
            .num_u("schedules", schedules as u64)
            .num_u("seed_start", seed_start)
            .num_u("violations", 0)
            .num_u("faults_scheduled", faults_scheduled as u64)
            .num_u("panic_schedules", panic_schedules as u64)
            .num_u("degraded_runs", degraded_runs as u64)
            .num_u("lost_persists", lost_persists as u64)
            .num_u("quarantined_jobs", quarantined_jobs as u64)
            .fixed("seconds", seconds, 6)
            .finish()],
    );
}

fn heading(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Table 1: feature comparison of IotSan and related work.
fn table1() {
    heading("Table 1: Comparison of IotSan and related work");
    print!("{}", render_table1());
}

/// Table 2 / Table 3 / Figure 4: the dependency-graph example.
fn table2_and_3_and_fig4() {
    heading("Table 2 / Table 3 / Figure 4: dependency graph and related sets");
    let apps = translate_group(&samples::figure4_group());
    let (graph, sets) = analyze(&apps);
    print!("{}", render_summary(&graph, &sets));
    println!(
        "original handlers: {}, largest related set: {}, scale ratio: {:.1}x",
        graph.handler_count(),
        sets.largest_handler_count(&graph),
        sets.scale_ratio(&graph)
    );
}

/// Table 4: the safety-property catalog by category.
fn table4() {
    heading("Table 4: sample safe physical states (property catalog)");
    let set = PropertySet::all();
    let mut by_category: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in set.specs() {
        by_category.entry(p.category.clone()).or_default().push(p.name.clone());
    }
    println!("{:<38} {:>10}   sample property", "Category", "#props");
    for (category, names) in &by_category {
        println!("{category:<38} {:>10}   {}", names.len(), names[0]);
    }
    println!("total properties: {}", set.len());
}

/// Table 5: market apps with expert configurations (with and without
/// device/communication failures).
fn table5() {
    heading("Table 5: verification results with market apps (expert configurations)");
    let groups = market::six_groups();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut totals_failures: BTreeMap<String, usize> = BTreeMap::new();
    let mut violated_props = std::collections::BTreeSet::new();
    let mut violated_props_failures = std::collections::BTreeSet::new();

    for (i, group) in groups.iter().enumerate() {
        let apps = translate_group(group);
        let config = expert_config(&apps);

        let pipeline = Pipeline::with_events(2);
        let result = pipeline.verify(&apps, &config);
        for (class, count) in result.violations_by_class(&pipeline.properties) {
            *totals.entry(class).or_insert(0) += count;
        }
        violated_props.extend(result.violated_properties());

        let pipeline_f = Pipeline::with_events(2).with_failures();
        let result_f = pipeline_f.verify(&apps, &config);
        for (class, count) in result_f.violations_by_class(&pipeline_f.properties) {
            *totals_failures.entry(class).or_insert(0) += count;
        }
        violated_props_failures.extend(result_f.violated_properties());
        println!(
            "  group {}: {} apps, {} violations (no failures), {} violations (with failures)",
            i + 1,
            group.len(),
            result.violation_count(),
            result_f.violation_count()
        );
    }

    println!("\nWithout device/communication failures:");
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props.len());

    println!("\nWith device/communication failures (additional coverage):");
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals_failures {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props_failures.len());
    println!(
        "paper reports: 38 violations of 11 properties without failures; failures add 9 more violated properties"
    );
}

/// Table 6: market apps with volunteer (non-expert) configurations.
fn table6() {
    heading("Table 6: verification results with volunteer configurations");
    // 10 groups of ~5 related apps, 7 volunteer configurations each.
    let corpus = market::market_apps();
    let groups: Vec<Vec<market::MarketApp>> =
        corpus.chunks(5).take(10).map(|c| c.to_vec()).collect();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut violated_props = std::collections::BTreeSet::new();
    let mut configurations = 0usize;

    for group in &groups {
        let apps = translate_group(group);
        for seed in 0..7u64 {
            configurations += 1;
            let config = volunteer_config(&apps, seed);
            let pipeline = Pipeline::with_events(2);
            let result = pipeline.verify(&apps, &config);
            for (class, count) in result.violations_by_class(&pipeline.properties) {
                *totals.entry(class).or_insert(0) += count;
            }
            violated_props.extend(result.violated_properties());
        }
    }
    println!(
        "{} groups x 7 volunteer configurations = {configurations} configurations",
        groups.len()
    );
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props.len());
    println!("paper reports: 97 violations of 10 properties (19 conflicting, 12 repeated, 66 unsafe states)");
}

/// Table 7a: dependency-graph scalability over the six market groups.
fn table7a() {
    heading("Table 7a: scalability with dependency graphs");
    println!("{:<8} {:>14} {:>10} {:>12}", "Group", "Original Size", "New Size", "Scale Ratio");
    let mut ratios = Vec::new();
    for (i, group) in market::six_groups().iter().enumerate() {
        let apps = translate_group(group);
        let (graph, sets) = analyze(&apps);
        let original = graph.handler_count();
        let reduced = sets.largest_handler_count(&graph);
        let ratio = sets.scale_ratio(&graph);
        ratios.push(ratio);
        println!("{:<8} {original:>14} {reduced:>10} {ratio:>12.1}", i + 1);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("{:<8} {:>14} {:>10} {mean:>12.1}", "mean", "", "");
    println!("paper reports a mean scale ratio of 3.4x");
}

/// Table 7b: concurrent vs sequential runtimes on the good group.
fn table7b() {
    heading("Table 7b: runtimes with concurrent and sequential design (good group)");
    let apps = translate_group(&samples::good_group());
    let config = expert_config(&apps);
    let budget = iotsan_bench::experiment_budget(10, 30);
    println!("{:<8} {:>22} {:>22}", "Events", "Concurrent", "Sequential");
    for events in 1..=iotsan_bench::experiment_events(5, 7) {
        let sequential = run_search(&apps, &config, events, false, budget);
        let concurrent = if events <= 4 {
            format_runtime(&run_concurrent(&apps, &config, events, budget))
        } else {
            "-".to_string()
        };
        println!("{events:<8} {concurrent:>22} {:>22}", format_runtime(&sequential));
    }
    println!("paper: concurrent exceeds 139 minutes at 3 events and never finishes at 4; sequential stays in seconds");
}

/// Table 8: sequential verification cost vs number of events on the larger
/// 5-app group, swept to the paper's 11 events without and with failure
/// injection.  `Closed` is the search's fixpoint (`SearchStats::closed_at`):
/// from that bound on, every bound gives the same report.
fn table8() {
    heading("Table 8: verification time vs number of events (5 related apps)");
    let apps = translate_group(&samples::table8_group());
    let config = expert_config(&apps);
    let budget = iotsan_bench::experiment_budget(20, 120);
    for failures in [false, true] {
        println!("failures {}", if failures { "on" } else { "off" });
        println!(
            "{:<8} {:>16} {:>10} {:>12} {:>8} {:>10}",
            "Events", "Time", "States", "Transitions", "Closed", "Violated"
        );
        for events in 1..=11 {
            let run = run_search(&apps, &config, events, failures, budget);
            let stats = &run.report.stats;
            let closed = stats.closed_at.map_or("-".to_string(), |d| d.to_string());
            println!(
                "{events:<8} {:>16} {:>10} {:>12} {closed:>8} {:>10}",
                format_runtime(&run),
                stats.states_stored,
                stats.transitions,
                run.report.violated_properties().len()
            );
        }
    }
    println!("paper: time grows from 6.61s at 6 events to 23.39h at 11 events (exponential in the event bound)");
}

/// Table 9: verification results with IFTTT rules.
fn table9() {
    heading("Table 9: verification results with IFTTT rules");
    let rules = ifttt::ifttt_rules();
    let apps = ifttt::translate_rules(&rules);
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for group in &result.groups {
        for property in group.violated_properties() {
            if let Some(p) = pipeline.properties.get(iotsan::properties::PropertyId(property)) {
                if p.class == PropertyClass::PhysicalState {
                    rows.entry(p.name.clone()).or_default().push(group.apps.join(", "));
                }
            }
        }
    }
    println!("{:<70} related rules", "Violated property");
    for (property, groups) in &rows {
        println!("{property:<70} {}", groups.join(" | "));
    }
    println!("total violations: {}", result.violation_count());
    println!("paper reports 7 violations of 4 unsafe physical states across the 10 rules");
}

/// §10.3: violation attribution of the 9 malicious apps plus benign controls.
fn attribution() {
    heading("Attribution (Section 10.3): malicious apps and market apps");
    let devices = standard_household();
    let pipeline = Pipeline::with_events(3);
    let thresholds = AttributionThresholds::default();

    // The malicious apps are evaluated installed alongside benign apps, as in
    // §10.1; these two provide mode changes and lock commands.
    let installed_sources = [market::AUTO_MODE_CHANGE, market::LOCK_IT_WHEN_I_LEAVE];
    let installed =
        iotsan::translate_sources(&installed_sources).expect("installed apps translate");

    println!("-- ContexIoT-style malicious apps --");
    let mut flagged = 0usize;
    let malicious = malicious::malicious_apps();
    for entry in &malicious {
        let apps = translate_group(std::slice::from_ref(&entry.app));
        let report = pipeline.attribute_new_app(&apps[0], &installed, &devices, &thresholds);
        if report.verdict.flags_app() {
            flagged += 1;
        }
        println!(
            "  {:<24} -> {} (standalone ratio {:.0}%)",
            entry.app.name,
            report.verdict,
            report.standalone_ratio * 100.0
        );
    }
    println!(
        "flagged {flagged}/{} malicious apps (paper: 9/9 at 100% violation ratio)",
        malicious.len()
    );

    println!("\n-- benign market apps (controls) --");
    for app in market::named_apps().iter().take(5) {
        let apps = translate_group(std::slice::from_ref(app));
        if apps[0].handlers.is_empty() {
            continue;
        }
        let report = pipeline.attribute_new_app(&apps[0], &installed, &devices, &thresholds);
        println!("  {:<24} -> {}", app.name, report.verdict);
    }
}

/// Figure 7: the Spin-style counterexample log for Auto Mode Change + Unlock Door.
fn fig7() {
    heading("Figure 7: example violation log (Auto Mode Change + Unlock Door)");
    let apps = translate_group(&samples::bad_group_mode_unlock());
    let config = expert_config(&apps);
    let run = run_search(&apps, &config, 2, false, iotsan_bench::experiment_budget(10, 30));
    let Some(found) = run.report.violations.iter().find(|v| {
        v.violation.description.contains("main door should be locked when no one is at home")
    }) else {
        println!("no violation found (unexpected)");
        return;
    };
    print!("{}", found.trace.render(&found.violation));
}

/// Figure 8a: the four-app interaction chain that unlocks the door at night.
fn fig8a() {
    heading("Figure 8a: violation due to bad app interactions (4 apps)");
    let apps = translate_group(&samples::figure8a_group());
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(3);
    let result = pipeline.verify(&apps, &config);
    for group in &result.groups {
        for found in &group.report.violations {
            if found.violation.description.contains("sleeping")
                || found.violation.description.contains("main door")
            {
                println!("violated: {}", found.violation);
                println!("apps involved: {}", group.apps.join(", "));
                println!("counterexample ({} events):", found.trace.len());
                print!("{}", found.trace);
                return;
            }
        }
    }
    println!("violations found: {:?}", result.violated_properties());
}

/// Figure 8b: a failed motion sensor prevents Make It So from arming the house.
fn fig8b() {
    heading("Figure 8b: violation due to a device failure (failed motion sensor)");
    let apps = translate_group(&samples::figure8b_group());
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(3);
    let restricted = pipeline.restrict_config(&apps, &config);
    // Fail only the motion sensor, as in the paper's scenario.
    let motion = restricted
        .devices
        .iter()
        .position(|d| d.capability == "motionSensor")
        .map(|i| DeviceId(i as u32))
        .into_iter()
        .collect::<Vec<_>>();
    let mut options = ModelOptions::with_events(3);
    options.failure_policy = FailurePolicy::OnlyDevices(motion);
    let system = iotsan::system::InstalledSystem::new(apps.clone(), restricted);
    let model = iotsan::model::SequentialModel::new(system, PropertySet::all(), options);
    let report =
        iotsan::checker::Checker::new(iotsan::checker::SearchConfig::with_depth(3)).verify(&model);
    for found in &report.violations {
        println!("violated: {}", found.violation);
        println!("counterexample ({} events):", found.trace.len());
        print!("{}", found.trace);
        println!();
    }
    if report.violations.is_empty() {
        println!("no violations found (unexpected)");
    }
    println!(
        "paper: the failed motion sensor leaves the door unlocked and no notification is sent"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn every_experiment_name_is_unique() {
        let all: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "{all:?}");
        assert!(!unique.contains("all"));
    }

    #[test]
    fn names_select_entries_once_in_table_order() {
        let chosen = select(&names(&["table2", "fig4"])).unwrap();
        assert_eq!(chosen.len(), 1);
        assert_eq!(chosen[0].0, ["table2", "table3", "fig4"]);
        let chosen = select(&names(&["chaos", "table1"])).unwrap();
        assert_eq!(
            chosen.iter().map(|(names, _)| names[0]).collect::<Vec<_>>(),
            ["table1", "chaos"]
        );
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(select(&names(&["fleet", "all"])).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(select(&names(&["table1", "bogus"])).err(), Some("bogus"));
    }
}
