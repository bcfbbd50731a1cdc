//! The four workloads: their inputs (a pure function of the seed), their
//! set-up, and the untraced run of one unit through the public entry points
//! (`Pipeline::verify_fleet` in process, `Daemon::run_batch` for the daemon).

use iotsan::config::{expert_configure, standard_household};
use iotsan::{translate_sources, FleetReport, Pipeline, VerificationCache};
use iotsan_daemon::{parse_line, Daemon, DaemonConfig, JobLine, JobStatus};
use iotsan_scenarios::{Household, SizeProfile, SplitMix64};
use iotsan_telemetry::rows::JsonRow;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every daemon job carries this budget; a job it truncates counts as failed.
pub const JOB_TIMEOUT_MS: u64 = 60_000;

/// `daemon-warm` times its set-up this many times (the median is reported).
const WARM_SETUP_REPS: usize = 5;

/// `daemon-ingest` restarts its daemon on a fresh store after this many
/// jobs.  The store keeps every verdict in memory, so without restarts the
/// run's peak memory would grow with how many jobs fit in `--seconds`; each
/// restart is also one more `setup_s` sample.
pub const INGEST_SEGMENT: usize = 500;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One pass over the market corpus, cold, in process.
    MarketCold,
    /// One large related group searched deep, in process.
    DeepGroup,
    /// Repeated jobs through the daemon over a prefilled verdict store.
    DaemonWarm,
    /// One new generated household per job through the daemon, fresh store.
    DaemonIngest,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] =
        [Workload::MarketCold, Workload::DeepGroup, Workload::DaemonWarm, Workload::DaemonIngest];

    /// The workload's command-line and golden name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MarketCold => "market-cold",
            Workload::DeepGroup => "deep-group",
            Workload::DaemonWarm => "daemon-warm",
            Workload::DaemonIngest => "daemon-ingest",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads that run through the daemon.
    pub fn is_daemon(self) -> bool {
        matches!(self, Workload::DaemonWarm | Workload::DaemonIngest)
    }
}

/// An in-process bundle: the first `apps` market apps at an event bound.
#[derive(Debug, Clone, Copy)]
pub struct Bundle {
    /// How many market apps (from the start of the corpus).
    pub apps: usize,
    /// External-event bound.
    pub events: usize,
    /// Device/communication failure injection.
    pub failures: bool,
}

impl Bundle {
    /// The production pipeline for this bundle (default search settings).
    pub fn pipeline(self) -> Pipeline {
        let pipeline = Pipeline::with_events(self.events);
        if self.failures {
            pipeline.with_failures()
        } else {
            pipeline
        }
    }
}

/// One distinct `daemon-warm` job.
#[derive(Debug, Clone)]
pub struct WarmJob {
    /// Golden key.
    pub key: String,
    /// `Ok(n)`: the first `n` market apps; `Err(names)`: corpus apps by name.
    pub apps: Result<usize, Vec<&'static str>>,
    /// External-event bound.
    pub events: usize,
    /// Device/communication failure injection.
    pub failures: bool,
}

impl WarmJob {
    fn market(n: usize, events: usize, failures: bool) -> WarmJob {
        let suffix = if failures { "-failures" } else { "" };
        WarmJob { key: format!("market{n}-e{events}{suffix}"), apps: Ok(n), events, failures }
    }

    fn names(key: &str, names: &[&'static str], events: usize, failures: bool) -> WarmJob {
        WarmJob { key: key.to_string(), apps: Err(names.to_vec()), events, failures }
    }

    /// The job as one NDJSON line.
    pub fn line(&self, id: &str) -> String {
        let row = JsonRow::new().str("id", id);
        let row = match &self.apps {
            Ok(n) => row.num_u("market", *n as u64),
            Err(names) => row.strs("names", names),
        };
        row.num_u("events", self.events as u64)
            .flag("failures", self.failures)
            .num_u("timeout_ms", JOB_TIMEOUT_MS)
            .finish()
    }
}

/// The sizes of every workload: [`Sizes::full`] is the benchmark,
/// [`Sizes::toy`] the debug-build test.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `market-cold`'s bundle.
    pub market: Bundle,
    /// `deep-group`'s bundle.
    pub deep: Bundle,
    /// `daemon-warm`'s distinct jobs.
    pub warm: Vec<WarmJob>,
    /// `daemon-ingest`'s household generator profile.
    pub ingest: SizeProfile,
    /// `daemon-ingest`'s event bound (failures are always on).
    pub ingest_events: usize,
}

const TABLE8: &[&str] =
    &["Auto Mode Change", "Unlock Door", "Big Turn On", "Good Night", "Energy Saver"];
const MODE_UNLOCK: &[&str] = &["Auto Mode Change", "Unlock Door"];

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        let mut warm = Vec::new();
        for n in [25, 50, 75, 100, 125, 150] {
            for (events, failures) in [(2, false), (2, true), (3, false)] {
                warm.push(WarmJob::market(n, events, failures));
            }
        }
        warm.push(WarmJob::names("table8-e3-failures", TABLE8, 3, true));
        warm.push(WarmJob::names("mode-unlock-e3-failures", MODE_UNLOCK, 3, true));
        // In-process units last about half a second (market-cold) and a
        // quarter second (deep-group).  On a shared host, memory-bound code
        // runs up to twice as slow for stretches of a few seconds; short
        // units let every run catch some of them at full speed, which keeps
        // a run's low latency quantiles steady.  Multi-second units are
        // slowed whole instead.
        Sizes {
            market: Bundle { apps: 150, events: 3, failures: false },
            deep: Bundle { apps: 8, events: 4, failures: true },
            warm,
            ingest: SizeProfile { max_devices: 8, max_apps: 6 },
            ingest_events: 3,
        }
    }

    /// Sizes small enough for an unoptimized build.
    #[cfg(test)]
    pub fn toy() -> Sizes {
        Sizes {
            market: Bundle { apps: 12, events: 1, failures: true },
            deep: Bundle { apps: 3, events: 2, failures: true },
            warm: vec![
                WarmJob::market(3, 1, false),
                WarmJob::market(6, 1, true),
                WarmJob::names("mode-unlock-e1-failures", MODE_UNLOCK, 1, true),
            ],
            ingest: SizeProfile { max_devices: 4, max_apps: 2 },
            ingest_events: 1,
        }
    }
}

/// What one unit feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Groovy sources for the in-process pipeline.
    Bundle(Vec<String>),
    /// One NDJSON job line for the daemon.
    Job(String),
}

/// One unit of work: a golden key and its input.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The unit's key in the workload's golden.
    pub key: String,
    /// The unit's input.
    pub input: Input,
}

/// The seeded input stream of a workload.  A *round* is the smallest batch
/// a run stops after: a whole permutation of the 20 warm jobs, so every run
/// weighs each job equally; one unit otherwise.
#[derive(Debug)]
pub struct Inputs {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    rng: SplitMix64,
    corpus: Vec<String>,
    units: usize,
    households: u64,
}

fn market_sources(n: usize) -> Vec<String> {
    iotsan_apps::market::market_apps().into_iter().take(n).map(|a| a.source).collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

impl Inputs {
    /// The input stream of `workload` at `seed`.
    pub fn new(workload: Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let corpus = match workload {
            Workload::MarketCold => market_sources(sizes.market.apps),
            Workload::DeepGroup => market_sources(sizes.deep.apps),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            sizes: sizes.clone(),
            seed,
            rng: SplitMix64::new(seed),
            corpus,
            units: 0,
            households: 0,
        }
    }

    /// The next round of units.
    pub fn round(&mut self) -> Vec<Unit> {
        let round = match self.workload {
            // The same bundle in a seeded submission order: verdicts must
            // not depend on it, and the golden checks that they do not.
            Workload::MarketCold | Workload::DeepGroup => {
                let mut sources = self.corpus.clone();
                shuffle(&mut sources, &mut self.rng);
                let key = if self.workload == Workload::MarketCold { "pass" } else { "bundle" };
                vec![Unit { key: key.into(), input: Input::Bundle(sources) }]
            }
            Workload::DaemonWarm => {
                let mut jobs = self.sizes.warm.clone();
                shuffle(&mut jobs, &mut self.rng);
                jobs.iter()
                    .enumerate()
                    .map(|(i, job)| Unit {
                        key: job.key.clone(),
                        input: Input::Job(job.line(&format!("w{}", self.units + i))),
                    })
                    .collect()
            }
            Workload::DaemonIngest => {
                // Households are numbered from the seed's own range, so two
                // seeds never share one; empty households make no job.
                let household = loop {
                    let seed = self.seed.wrapping_mul(1 << 32).wrapping_add(self.households);
                    self.households += 1;
                    let household = Household::generate(seed, &self.sizes.ingest);
                    if !household.sources.is_empty() {
                        break household;
                    }
                };
                let line = JsonRow::new()
                    .str("id", &format!("h{}", self.units))
                    .strs("sources", &household.sources)
                    .num_u("events", self.sizes.ingest_events as u64)
                    .flag("failures", true)
                    .num_u("timeout_ms", JOB_TIMEOUT_MS)
                    .finish();
                vec![Unit { key: self.units.to_string(), input: Input::Job(line) }]
            }
        };
        self.units += round.len();
        round
    }
}

/// What one untraced unit produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Seconds from submission to verdict.
    pub latency: f64,
    /// The verdict digest; `None` when the unit failed.
    pub digest: Option<u64>,
    /// Groups the unit had to model-check.
    pub cache_misses: usize,
    /// Submit→outcome minus the daemon's own `JobOutcome::elapsed`: the
    /// queue handoff (daemon workloads only).
    pub handoff: f64,
}

/// The program under test, set up and ready for units.
#[derive(Debug)]
pub enum Engine {
    /// The in-process pipeline.
    InProcess(Pipeline),
    /// A running daemon.
    Daemon(Daemon),
}

/// Starts a default-shaped daemon over `store`.
fn start_daemon(store: &Path) -> Result<Daemon, String> {
    Daemon::start(DaemonConfig::new(store))
        .map_err(|e| format!("daemon start {}: {e}", store.display()))
}

fn remove_store(store: &Path) -> io::Result<()> {
    for path in [store.to_path_buf(), iotsan_daemon::quarantine_sidecar_path(store)] {
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// The verdict store the daemon workloads run over.
pub fn store_path(work: &Path) -> PathBuf {
    work.join("verdicts.log")
}

/// `daemon-warm`'s untimed prefill: every distinct job once, cold, into a
/// fresh store at `store`; one outcome per job of `sizes.warm`.
pub fn prefill(sizes: &Sizes, store: &Path) -> Result<Vec<Outcome>, String> {
    remove_store(store).map_err(|e| format!("clearing {}: {e}", store.display()))?;
    let mut engine = Engine::Daemon(start_daemon(store)?);
    let outcomes =
        sizes.warm.iter().map(|job| engine.run(&Input::Job(job.line(&job.key)))).collect();
    engine.finish()?;
    Ok(outcomes)
}

/// Sets the workload up once over `store`, timed.  In process that is
/// corpus load plus `Pipeline` construction; for the daemon, `Daemon::start`
/// — on an empty path for `daemon-ingest`, on the prefilled log (replaying
/// it) for `daemon-warm`.
fn setup_once(workload: Workload, sizes: &Sizes, store: &Path) -> Result<(f64, Engine), String> {
    if workload == Workload::DaemonIngest {
        remove_store(store).map_err(|e| format!("clearing {}: {e}", store.display()))?;
    }
    let start = Instant::now();
    let engine = match workload {
        Workload::MarketCold | Workload::DeepGroup => {
            let bundle = if workload == Workload::MarketCold { sizes.market } else { sizes.deep };
            black_box(market_sources(bundle.apps));
            Engine::InProcess(bundle.pipeline())
        }
        Workload::DaemonWarm | Workload::DaemonIngest => Engine::Daemon(start_daemon(store)?),
    };
    Ok((start.elapsed().as_secs_f64(), engine))
}

/// The engine for the measured phase, with the set-up times taken so far.
/// The warm daemon's start replays a multi-megabyte log, so it is timed
/// [`WARM_SETUP_REPS`] times here and never again; every other set-up is
/// cheap and is repeated through the run instead.  Spreading the repetitions over the run makes their median sample the
/// machine over the run rather than over one millisecond of it: on a shared
/// host a sub-millisecond set-up runs up to twice as slow for stretches of
/// time.
pub fn setup(workload: Workload, sizes: &Sizes, work: &Path) -> Result<(Vec<f64>, Engine), String> {
    let store = store_path(work);
    let reps = if workload == Workload::DaemonWarm { WARM_SETUP_REPS } else { 1 };
    let mut times = Vec::with_capacity(reps);
    let mut engine: Option<Engine> = None;
    for _ in 0..reps {
        if let Some(previous) = engine.take() {
            previous.finish()?;
        }
        let (seconds, next) = setup_once(workload, sizes, &store)?;
        times.push(seconds);
        engine = Some(next);
    }
    Ok((times, engine.expect("at least one set-up repetition")))
}

fn truncated(report: &FleetReport) -> bool {
    report.groups.iter().any(|g| g.report.stats.truncated)
}

impl Engine {
    /// Runs one unit untraced, timing it from submission to verdict.
    pub fn run(&mut self, input: &Input) -> Outcome {
        let mut outcome = Outcome { latency: 0.0, digest: None, cache_misses: 0, handoff: 0.0 };
        let start = Instant::now();
        match (self, input) {
            (Engine::InProcess(pipeline), Input::Bundle(sources)) => {
                let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
                let report = translate_sources(&refs).ok().map(|apps| {
                    let config = expert_configure(&apps, &standard_household());
                    pipeline.verify_fleet(&apps, &config, &mut VerificationCache::new())
                });
                outcome.latency = start.elapsed().as_secs_f64();
                if let Some(report) = report.filter(|r| !truncated(r)) {
                    outcome.digest = Some(crate::stats::verdict_digest(&report));
                    outcome.cache_misses = report.cache_misses;
                }
            }
            (Engine::Daemon(daemon), Input::Job(line)) => {
                let Ok(JobLine::Job(spec)) = parse_line(line, 1) else {
                    outcome.latency = start.elapsed().as_secs_f64();
                    return outcome;
                };
                let submitted = Instant::now();
                let job = daemon.run_batch(vec![spec]).pop();
                let round_trip = submitted.elapsed().as_secs_f64();
                if let Some(job) = &job {
                    black_box(job.render());
                }
                outcome.latency = start.elapsed().as_secs_f64();
                let Some(job) = job else { return outcome };
                outcome.handoff = round_trip - job.elapsed.as_secs_f64();
                if let (JobStatus::Ok, Some(report), false) =
                    (&job.status, &job.report, job.degraded)
                {
                    if !truncated(report) {
                        outcome.digest = Some(crate::stats::verdict_digest(report));
                        outcome.cache_misses = report.cache_misses;
                    }
                }
            }
            _ => unreachable!("units always match their workload's engine"),
        }
        outcome
    }

    /// Stops the engine; a daemon drains, joins its workers and syncs.
    pub fn finish(self) -> Result<(), String> {
        match self {
            Engine::InProcess(_) => Ok(()),
            Engine::Daemon(daemon) => {
                daemon.shutdown().map(drop).map_err(|e| format!("daemon shutdown: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, rounds: usize) -> String {
        let mut inputs = Inputs::new(workload, &Sizes::full(), seed);
        let mut out = String::new();
        for _ in 0..rounds {
            for unit in inputs.round() {
                match unit.input {
                    Input::Job(line) => out.push_str(&line),
                    Input::Bundle(sources) => {
                        out.push_str(&JsonRow::new().strs("sources", sources).finish())
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn one_seed_produces_a_byte_identical_ndjson_stream() {
        for workload in [Workload::DaemonWarm, Workload::DaemonIngest] {
            let a = stream(workload, 7, 3);
            assert_eq!(a, stream(workload, 7, 3), "{}", workload.name());
            assert_ne!(a, stream(workload, 8, 3), "{}: the seed must matter", workload.name());
            for line in a.lines() {
                assert!(matches!(parse_line(line, 1), Ok(JobLine::Job(_))), "{line}");
            }
        }
    }

    #[test]
    fn a_warm_round_is_a_permutation_of_every_job() {
        let sizes = Sizes::full();
        assert_eq!(sizes.warm.len(), 20);
        let mut keys: Vec<String> = Inputs::new(Workload::DaemonWarm, &sizes, 3)
            .round()
            .into_iter()
            .map(|u| u.key)
            .collect();
        keys.sort();
        let mut want: Vec<String> = sizes.warm.iter().map(|j| j.key.clone()).collect();
        want.sort();
        assert_eq!(keys, want);
    }
}
