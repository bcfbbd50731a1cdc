//! `e2e`: the repository's end-to-end benchmark.
//!
//! Four workloads take Groovy sources (or NDJSON jobs) to verdicts through
//! the public entry points, on one client thread in a closed loop.  A run
//! sets the program up several times (the median is `setup_s`), then runs
//! whole rounds of units until `--seconds` have passed, checks every
//! verdict against the committed goldens, and prints each metric with its
//! unit and sample count.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 1` the same units run a second time, rebuilt call by call
//! with a span around each layer (see `traced.rs`), and the per-layer
//! metrics replace the end-to-end ones on that last line.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload market-cold --seed 1 --seconds 20 --trace 0 [--json out.json] [--write-golden]
//! ```

mod gate;
mod stats;
mod traced;
mod workload;

use gate::Golden;
use iotsan::config::{expert_configure, standard_household};
use iotsan::{translate_sources, VerificationCache};
use iotsan_telemetry::rows::JsonRow;
use stats::{percentile, sorted, tail_percentile, verdict_digest};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use workload::{Input, Inputs, Sizes, Unit, Workload};

/// The end-to-end metrics `BENCHMARK.json` lists: the last line of an
/// untraced run carries exactly these.  The listed latency is the 10th
/// percentile: on a shared host the whole machine runs up to twice as slow
/// for stretches of seconds to minutes, and a low percentile keeps the
/// units that ran in the fast stretches, so it repeats from run to run
/// better than the median, mean or tails.  Those are printed beside it.
const END_TO_END: &[&str] = &["setup_s", "latency_p10_s", "peak_rss_mb"];

/// The per-layer metrics `BENCHMARK.json` lists: the last line of a traced
/// run carries exactly these.  Layer times and rates that a workload can
/// bypass entirely (search, install, store, daemon handoff) would read
/// exactly 0 on every run of that workload, so they are printed but not
/// listed; the counts below carry those layers instead, and `deep-group`'s
/// end-to-end latency is the search's time.
const PER_LAYER: &[&str] = &[
    "groovy.parse_s",
    "groovy.source_bytes",
    "ir.lower_s",
    "ir.handlers",
    "config.configure_s",
    "depgraph.analyze_s",
    "depgraph.largest_set_handlers",
    "planner.plan_s",
    "planner.groups",
    "cache.lookup_s",
    "cache.hit_ratio",
    "cache.backing_hits",
    "properties.compile_s",
    "checker.states",
    "checker.transitions",
    "checker.new_state_ratio",
    "checker.store_bytes",
    "checker.trace_bytes",
    "attribution.rank_s",
    "attribution.violations",
    "codec.encode_s",
    "codec.decode_s",
    "codec.verdict_bytes",
    "store.file_bytes",
    "trace.coverage",
    "trace.overhead_ratio",
];

/// The traced run's layer spans should cover at least this share of unit
/// time; below it, the per-layer numbers miss too much to explain a change.
const MIN_COVERAGE: f64 = 0.90;

/// `daemon-ingest` at seed 1 has a golden for this many jobs; later jobs,
/// and every other seed, are gated by the in-process cross-check.
const INGEST_GOLDEN_UNITS: usize = 2000;

/// Every `CROSS_CHECK_EVERY`-th `daemon-ingest` job is re-verified in
/// process, untimed.
const CROSS_CHECK_EVERY: usize = 20;

/// In process, the set-up repeats between rounds of the measured phase
/// whenever this many seconds have passed since the last one.
const SETUP_INTERVAL_S: f64 = 0.5;

const USAGE: &str = "usage: e2e --workload <market-cold|deep-group|daemon-warm|daemon-ingest> \
[--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--write-golden]";

/// How a run treats the goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateMode {
    /// Check every verdict against the committed golden.
    Committed,
    /// Record the verdicts and write them as the new golden.
    Write,
    /// No golden applies (toy sizes); the other checks still run.
    #[cfg(test)]
    Off,
}

/// One benchmark run.
#[derive(Debug, Clone)]
struct Run {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    gate: GateMode,
    /// Scratch directory for the verdict stores; emptied before and after.
    work: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    /// `None` when the run cannot report it (too few samples, no `/proc`).
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
}

/// What a run produced.
#[derive(Debug, Default)]
struct Report {
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Each untraced unit's key and latency, in run order.
    units: Vec<(String, f64)>,
    golden: Vec<(String, u64)>,
    trace_ndjson: Option<String>,
}

/// Resets the peak-RSS watermark (`VmHWM`) to the current RSS.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MiB; `None` without `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The untimed in-process re-verification of one ingest job.
fn cross_check(sizes: &Sizes, unit: &Unit) -> Option<u64> {
    let Input::Job(line) = &unit.input else { return None };
    let Ok(iotsan_daemon::JobLine::Job(spec)) = iotsan_daemon::parse_line(line, 1) else {
        return None;
    };
    let sources = iotsan_daemon::resolve_sources(&spec.bundle).ok()?;
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let apps = translate_sources(&refs).ok()?;
    let config = expert_configure(&apps, &standard_household());
    let pipeline = iotsan::Pipeline::with_events(sizes.ingest_events).with_failures();
    Some(verdict_digest(&pipeline.verify_fleet(&apps, &config, &mut VerificationCache::new())))
}

/// Runs one workload: prefill (warm only), set-up, the measured phase, the
/// verdict gate and, with `trace`, the traced replay.
fn bench(run: &Run) -> Result<Report, String> {
    let w = run.workload;
    let name = w.name();
    let _ = std::fs::remove_dir_all(&run.work);
    std::fs::create_dir_all(&run.work)
        .map_err(|e| format!("creating {}: {e}", run.work.display()))?;
    let store = workload::store_path(&run.work);
    let mut report = Report::default();
    let golden = match run.gate {
        GateMode::Committed if !(w == Workload::DaemonIngest && run.seed != 1) => {
            Some(Golden::parse(gate::committed(name))?)
        }
        _ => None,
    };
    let check = |report: &mut Report, key: &str, digest: u64| {
        if let Some(golden) = &golden {
            match golden.check(name, key, digest) {
                Ok(true) => {}
                Ok(false) if w == Workload::DaemonIngest => {}
                Ok(false) => {
                    report.errors.push(format!("workload {name}, unit {key}: no golden entry"))
                }
                Err(e) => report.errors.push(e),
            }
        }
    };

    if w == Workload::DaemonWarm {
        for (job, outcome) in run.sizes.warm.iter().zip(workload::prefill(&run.sizes, &store)?) {
            match outcome.digest {
                Some(digest) => check(&mut report, &job.key, digest),
                None => {
                    report.errors.push(format!("workload {name}, prefill of {} failed", job.key))
                }
            }
        }
    }

    reset_peak_rss();
    let (mut setup, mut engine) = workload::setup(w, &run.sizes, &run.work)?;
    let mut inputs = Inputs::new(w, &run.sizes, run.seed);
    // Only what each unit measured is kept.  The units are a pure function
    // of the seed and are regenerated for the gate below, so the run's
    // memory does not grow with the inputs it has sent.
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    let start = Instant::now();
    let mut last_setup = Instant::now();
    loop {
        for unit in inputs.round() {
            outcomes.push(engine.run(&unit.input));
        }
        rounds += 1;
        if start.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
        if w == Workload::DaemonIngest && outcomes.len() % workload::INGEST_SEGMENT == 0 {
            engine.finish()?;
            let (times, next) = workload::setup(w, &run.sizes, &run.work)?;
            setup.extend(times);
            engine = next;
        } else if !w.is_daemon() && last_setup.elapsed().as_secs_f64() >= SETUP_INTERVAL_S {
            // A spare set-up, built beside the measured engine and dropped:
            // replacing the engine instead would time each set-up right
            // after freeing the last one, which splits its times in two.
            let (times, spare) = workload::setup(w, &run.sizes, &run.work)?;
            setup.extend(times);
            spare.finish()?;
            last_setup = Instant::now();
        }
    }
    let peak_rss = peak_rss_mb();
    engine.finish()?;
    drop(inputs);

    let mut replay = Inputs::new(w, &run.sizes, run.seed);
    let units: Vec<Unit> = (0..rounds).flat_map(|_| replay.round()).collect();
    for (index, (outcome, unit)) in outcomes.iter().zip(&units).enumerate() {
        let Some(digest) = outcome.digest else {
            report.failed += 1;
            continue;
        };
        check(&mut report, &unit.key, digest);
        if w == Workload::DaemonWarm && outcome.cache_misses != 0 {
            report.errors.push(format!(
                "workload {name}, unit {}: {} cache misses over a prefilled store",
                unit.key, outcome.cache_misses
            ));
        }
        if w == Workload::DaemonIngest
            && index % CROSS_CHECK_EVERY == 0
            && cross_check(&run.sizes, unit) != Some(digest)
        {
            report.errors.push(format!(
                "workload {name}, unit {}: daemon verdict differs from in-process verify_fleet",
                unit.key
            ));
        }
        if run.gate == GateMode::Write
            && (w != Workload::DaemonIngest || report.golden.len() < INGEST_GOLDEN_UNITS)
        {
            report.golden.push((unit.key.clone(), digest));
        }
    }
    report.attempted = outcomes.len();
    report.units = units.iter().zip(&outcomes).map(|(u, o)| (u.key.clone(), o.latency)).collect();

    let latencies: Vec<f64> = outcomes
        .iter()
        .map(|o| if o.digest.is_some() { o.latency } else { f64::INFINITY })
        .collect();
    let busy: f64 = outcomes.iter().map(|o| o.latency).sum();
    let n = outcomes.len();
    if run.trace {
        let traced_store =
            if w == Workload::DaemonIngest { run.work.join("traced.log") } else { store };
        let traced = traced::run(w, &run.sizes, &units, &traced_store)?;
        report.errors.extend(traced.errors.iter().cloned());
        for ((outcome, digest), unit) in outcomes.iter().zip(&traced.digests).zip(&units) {
            if outcome.digest != *digest {
                report.errors.push(format!(
                    "workload {name}, unit {}: traced verdict differs from untraced",
                    unit.key
                ));
            }
        }
        let handoff = if w.is_daemon() {
            outcomes.iter().map(|o| o.handoff).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let coverage = traced.coverage();
        if coverage < MIN_COVERAGE {
            eprintln!(
                "e2e: warning: workload {name}: trace.coverage {coverage:.3} is below {MIN_COVERAGE}"
            );
        }
        for m in traced.metrics(busy, handoff) {
            report.metrics.push(Metric { name: m.name, value: m.value, unit: m.unit, samples: n });
        }
        report.trace_ndjson = Some(traced.tracer.ndjson());
    } else {
        let sorted_latency = sorted(&latencies);
        let ok = n - report.failed;
        report.metrics = vec![
            Metric {
                name: "setup_s",
                value: percentile(&sorted(&setup), 50),
                unit: "s",
                samples: setup.len(),
            },
            Metric {
                name: "latency_p10_s",
                value: percentile(&sorted_latency, 10),
                unit: "s",
                samples: n,
            },
            Metric {
                name: "latency_p25_s",
                value: percentile(&sorted_latency, 25),
                unit: "s",
                samples: n,
            },
            Metric {
                name: "latency_p50_s",
                value: percentile(&sorted_latency, 50),
                unit: "s",
                samples: n,
            },
            Metric {
                name: "latency_p90_s",
                value: tail_percentile(&sorted_latency, 90),
                unit: "s",
                samples: n,
            },
            Metric {
                name: "latency_p99_s",
                value: tail_percentile(&sorted_latency, 99),
                unit: "s",
                samples: n,
            },
            Metric { name: "units_per_s", value: Some(ok as f64 / busy), unit: "1/s", samples: n },
            Metric {
                name: "fail_ratio",
                value: Some(report.failed as f64 / n as f64),
                unit: "ratio",
                samples: n,
            },
            Metric { name: "peak_rss_mb", value: peak_rss, unit: "MB", samples: 1 },
        ];
    }
    let _ = std::fs::remove_dir_all(&run.work);
    Ok(report)
}

/// The machine and build a result came from.
fn host(seed: u64) -> Vec<(&'static str, String)> {
    fn first_line(program: &str, args: &[&str], cwd_only: bool) -> Option<String> {
        let mut command = Command::new(program);
        command.args(args);
        if cwd_only {
            // Look for a repository in the current directory only, never
            // in whatever directory happens to enclose it.
            if let Some(parent) = std::env::current_dir().ok()?.parent() {
                command.env("GIT_CEILING_DIRECTORIES", parent);
            }
        }
        let output = command.output().ok().filter(|o| o.status.success())?;
        String::from_utf8(output.stdout).ok()?.lines().next().map(str::to_string)
    }
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines().find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
        })
    });
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        ("cpu", cpu.unwrap_or_else(unknown)),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        ),
        ("rustc", first_line("rustc", &["-V"], false).unwrap_or_else(unknown)),
        ("commit", first_line("git", &["rev-parse", "HEAD"], true).unwrap_or_else(unknown)),
        ("seed", seed.to_string()),
    ]
}

fn metrics_object(metrics: &[&Metric], with_samples: bool) -> String {
    let mut row = JsonRow::new();
    for m in metrics {
        let mut inner = match m.value {
            Some(v) => JsonRow::new().num_f("value", v),
            None => JsonRow::new().str("value", "unavailable"),
        };
        inner = inner.str("unit", m.unit);
        if with_samples {
            inner = inner.num_u("samples", m.samples as u64);
        }
        row = row.raw(m.name, &inner.finish());
    }
    row.finish()
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    write_golden: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::MarketCold,
        seed: 1,
        seconds: 20.0,
        trace: false,
        json: None,
        write_golden: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            "--write-golden" => parsed.write_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = args.workload.name();
    if args.write_golden && args.workload == Workload::DaemonIngest && args.seed != 1 {
        eprintln!("e2e: the daemon-ingest golden is for seed 1");
        std::process::exit(2);
    }
    let work_root = PathBuf::from(".e2e_work");
    let run = Run {
        workload: args.workload,
        sizes: Sizes::full(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        gate: if args.write_golden { GateMode::Write } else { GateMode::Committed },
        work: work_root.join(name),
    };
    let host = host(args.seed);
    println!(
        "e2e {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host {}",
        host.iter().map(|(k, v)| format!("{k}={v:?}")).collect::<Vec<_>>().join(" ")
    );

    let mut report = match bench(&run) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2e: {name}: {e}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        let value = m.value.map_or_else(|| "unavailable".to_string(), |v| format!("{v:.6}"));
        println!("{:<32} {value:>16} {:<6} (n={})", m.name, m.unit, m.samples);
    }
    if run.gate == GateMode::Write && report.errors.is_empty() {
        let header = format!("{name}: per-unit digests of sorted (group apps, violated property ids); e2e --write-golden");
        let path = gate::path(name);
        match gate::render(&header, &report.golden) {
            Ok(text) => match std::fs::write(&path, &text) {
                Ok(()) => println!("wrote {} ({} units)", path.display(), text.lines().count() - 1),
                Err(e) => report.errors.push(format!("writing {}: {e}", path.display())),
            },
            Err(e) => report.errors.push(format!("workload {name}: {e}")),
        }
    }
    println!(
        "units {} failed {} verdict errors {}",
        report.attempted,
        report.failed,
        report.errors.len()
    );
    for error in &report.errors {
        eprintln!("e2e: {error}");
    }
    if let Some(ndjson) = &report.trace_ndjson {
        let path = work_root.join(format!("trace-{name}.ndjson"));
        if let Err(e) = std::fs::write(&path, ndjson) {
            eprintln!("e2e: writing {}: {e}", path.display());
        }
    }

    let correct = report.errors.is_empty();
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let listed_metrics: Vec<&Metric> =
        report.metrics.iter().filter(|m| listed.contains(&m.name)).collect();
    if let Some(path) = &args.json {
        let all: Vec<&Metric> = report.metrics.iter().collect();
        let host_row = host.iter().fold(JsonRow::new(), |row, (k, v)| row.str(k, v)).finish();
        let doc = JsonRow::new()
            .str("workload", name)
            .num_f("seconds", args.seconds)
            .flag("trace", args.trace)
            .raw("host", &host_row)
            .flag("correct", correct)
            .num_u("attempted", report.attempted as u64)
            .num_u("failed", report.failed as u64)
            .strs("errors", &report.errors)
            .raw("metrics", &metrics_object(&all, true))
            .strs("unit_keys", report.units.iter().map(|(k, _)| k))
            .raw(
                "unit_latency_s",
                &format!(
                    "[{}]",
                    report.units.iter().map(|(_, l)| l.to_string()).collect::<Vec<_>>().join(",")
                ),
            )
            .finish();
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("e2e: writing {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        JsonRow::new()
            .flag("correct", correct)
            .num_u("attempted", report.attempted as u64)
            .num_u("failed", report.failed as u64)
            .raw("metrics", &metrics_object(&listed_metrics, false))
            .finish()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn toy(workload: Workload, trace: bool) -> Report {
        let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.e2e_work").join(format!(
            "test-{}-{}",
            workload.name(),
            u8::from(trace)
        ));
        let run = Run {
            workload,
            sizes: Sizes::toy(),
            seed: 5,
            // Long enough for a repeated set-up and several ingest
            // cross-checks.
            seconds: 0.6,
            trace,
            gate: GateMode::Off,
            work,
        };
        bench(&run).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// Every workload, untraced and traced, at toy size: no failed unit, no
    /// verdict error (traced equals untraced, ingest cross-checks hold, the
    /// warm store serves every group), every listed metric present, and
    /// every metric name plain.
    #[test]
    fn every_workload_runs_end_to_end_at_toy_size() {
        let plain = |s: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for workload in Workload::ALL {
            assert!(plain(workload.name()));
            for (trace, listed) in [(false, END_TO_END), (true, PER_LAYER)] {
                let report = toy(workload, trace);
                assert!(report.errors.is_empty(), "{}: {:?}", workload.name(), report.errors);
                assert_eq!(report.failed, 0, "{}", workload.name());
                assert!(report.attempted >= 1);
                for name in listed {
                    assert!(
                        report.metrics.iter().any(|m| m.name == *name),
                        "{}: no {name}",
                        workload.name()
                    );
                }
                for metric in &report.metrics {
                    assert!(plain(metric.name), "{metric:?}");
                    assert!(metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
                }
                assert_eq!(report.trace_ndjson.is_some_and(|t| t.lines().count() > 0), trace);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark");
        for name in END_TO_END.iter().chain(PER_LAYER) {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "BENCHMARK.json lacks {name}");
        }
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "BENCHMARK.json lacks {}",
                w.name()
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload deep-group --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::DeepGroup, 3, 10.0, true));
        assert!(args("--seed 3").unwrap_err().contains("--workload"));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload deep-group --trace yes").is_err());
        assert!(args("--workload deep-group --seconds -1").is_err());
    }
}
