//! `iotsand` — the IotSan verification daemon.
//!
//! Ingests newline-delimited JSON verification jobs (from a file, stdin or a
//! unix socket), verifies them over a durable verdict store, and emits one
//! NDJSON result line per job on stdout.  See `OPERATIONS.md` for the
//! operator's handbook.
//!
//! Exit codes distinguish the failure surface for supervisors:
//! `0` success, `1` runtime failure (I/O mid-run, compaction error),
//! `2` usage error (bad flags), `3` the verdict store could not be opened.

use iotsan_daemon::{
    load_quarantine, parse_line, quarantine_sidecar_path, Daemon, DaemonConfig, JobLine,
    JobOutcome, JobStatus, Recovery, RetryPolicy, StoreOptions, VerdictStore,
};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::rows::JsonRow;
use iotsan_telemetry::DESCRIPTORS;
use std::io::{BufRead, Write};
use std::num::{IntErrorKind, ParseIntError};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

const HELP: &str = "\
iotsand — IotSan verification daemon

USAGE:
    iotsand --store PATH (--jobs FILE | --listen SOCKET | --compact | --status) [OPTIONS]

MODES (exactly one):
    --jobs FILE          Batch mode: read NDJSON jobs from FILE ('-' = stdin),
                         print one NDJSON result line per job to stdout, exit.
    --listen SOCKET      Serve jobs over a unix domain socket, one NDJSON job
                         per line, results echoed back on the same connection.
                         A {\"op\":\"shutdown\"} line stops the daemon.
                         A line over 1 MiB is answered as invalid unread.
    --compact            Rewrite the verdict store, dropping superseded and
                         evicted records, then exit.
    --status             Print the store's recovery verdict, record counts and
                         quarantined job classes, then exit.

OPTIONS:
    --store PATH         Path of the append-only verdict log (required).
    --workers N          Worker threads verifying jobs concurrently [default: 2].
    --queue N            Bounded job-queue capacity [default: 64].
    --max-entries N      Evict oldest verdicts beyond N live entries.
    --compact-after N    Auto-compact once N dead records accumulate.
    --retry-attempts N   Attempts before a panicking job class is quarantined
                         [default: 3].
    --retry-base-ms N    Base delay for retry backoff, doubling per failure
                         [default: 25].
    --log-level LEVEL    Minimum severity rendered to stderr: debug, info,
                         warn or error [default: warn].
    --metrics-snapshot PATH
                         On exit, write the final telemetry snapshot (one
                         JSON row of every metric) to PATH.
    --enable-fault-injection
                         Honor the `inject_panic` job field (testing only;
                         otherwise such jobs are rejected as invalid).
    -h, --help           Print this help.

EXIT CODES:
    0  success
    1  runtime failure (I/O error mid-run, failed compaction, ...)
    2  usage error (unknown or malformed arguments)
    3  the verdict store could not be opened

JOB FORMAT (one JSON object per line):
    {\"id\":\"batch-1\",\"market\":8,\"events\":3,\"failures\":true}
    {\"id\":\"batch-2\",\"names\":[\"Unlock Door\"],\"timeout_ms\":60000}
    {\"op\":\"shutdown\"}

Exactly one of `market` (first n corpus apps), `names` (corpus apps by name)
or `sources` (inline Groovy) selects the bundle.  Optional: `events` (event
bound, default 2), `failures` (failure injection, default false),
`timeout_ms` (wall-clock budget for each group's search), `inject_panic`
(panic before filing a verdict; needs --enable-fault-injection).  `workers`
is accepted and ignored.

CONTROL OPS (one JSON object per line):
    {\"op\":\"shutdown\"}   Stop accepting work and exit.
    {\"op\":\"metrics\"}    Answer with one JSON row of every telemetry metric
                        (in --jobs mode: after the batch completes).
    {\"op\":\"flight\"}     Answer with the flight recorder's retained events.
";

/// A failure with the exit code it maps to.
enum Failure {
    /// Bad command line (exit 2).
    Usage(String),
    /// The verdict store could not be opened (exit 3).
    Store(String),
    /// Anything that went wrong after startup (exit 1).
    Runtime(String),
}

impl Failure {
    fn code(&self) -> ExitCode {
        match self {
            Failure::Runtime(_) => ExitCode::from(1),
            Failure::Usage(_) => ExitCode::from(2),
            Failure::Store(_) => ExitCode::from(3),
        }
    }

    fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Store(m) | Failure::Runtime(m) => m,
        }
    }
}

fn runtime(e: impl std::fmt::Display) -> Failure {
    Failure::Runtime(e.to_string())
}

/// Writes a report to a locked stdout.  A reader that has gone away (a
/// closed pipe, `| head`) is not a failure: the report had nowhere to go.
fn print_report(
    write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>,
) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(runtime),
    }
}

#[derive(Debug, Default)]
struct Args {
    store: Option<PathBuf>,
    jobs: Option<String>,
    listen: Option<PathBuf>,
    compact: bool,
    status: bool,
    workers: usize,
    queue: usize,
    max_entries: Option<usize>,
    compact_after: Option<usize>,
    retry_attempts: u32,
    retry_base_ms: u64,
    log_level: Option<Level>,
    metrics_snapshot: Option<PathBuf>,
    fault_injection: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let defaults = RetryPolicy::default();
    let mut args = Args {
        workers: 2,
        queue: 64,
        retry_attempts: defaults.max_attempts,
        retry_base_ms: defaults.base_delay_ms,
        ..Args::default()
    };
    let mut iter = argv.iter();
    let value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
        iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--store" => args.store = Some(PathBuf::from(value(&mut iter, "--store")?)),
            "--jobs" => args.jobs = Some(value(&mut iter, "--jobs")?),
            "--listen" => args.listen = Some(PathBuf::from(value(&mut iter, "--listen")?)),
            "--compact" => args.compact = true,
            "--status" => args.status = true,
            "--workers" => {
                args.workers = parse_count(&value(&mut iter, "--workers")?, "--workers")?
            }
            "--queue" => args.queue = parse_count(&value(&mut iter, "--queue")?, "--queue")?,
            "--max-entries" => {
                args.max_entries =
                    Some(parse_count(&value(&mut iter, "--max-entries")?, "--max-entries")?)
            }
            "--compact-after" => {
                args.compact_after =
                    Some(parse_count(&value(&mut iter, "--compact-after")?, "--compact-after")?)
            }
            "--retry-attempts" => {
                args.retry_attempts =
                    parse_count(&value(&mut iter, "--retry-attempts")?, "--retry-attempts")?
            }
            "--retry-base-ms" => {
                args.retry_base_ms =
                    parse_count(&value(&mut iter, "--retry-base-ms")?, "--retry-base-ms")?
            }
            "--log-level" => {
                let raw = value(&mut iter, "--log-level")?;
                args.log_level = Some(Level::parse(&raw).ok_or_else(|| {
                    format!("--log-level must be debug, info, warn or error, got `{raw}`")
                })?);
            }
            "--metrics-snapshot" => {
                args.metrics_snapshot = Some(PathBuf::from(value(&mut iter, "--metrics-snapshot")?))
            }
            "--enable-fault-injection" => args.fault_injection = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let modes = [args.jobs.is_some(), args.listen.is_some(), args.compact, args.status];
    match modes.iter().filter(|m| **m).count() {
        0 => return Err("pick a mode: --jobs, --listen, --compact or --status".into()),
        1 => {}
        _ => return Err("--jobs, --listen, --compact and --status are mutually exclusive".into()),
    }
    if args.store.is_none() {
        return Err("--store PATH is required".into());
    }
    Ok(Some(args))
}

/// Parses a flag's count into the type it is stored as, so a value that
/// does not fit is a usage error rather than a silent wrap.
fn parse_count<T: FromStr<Err = ParseIntError>>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse::<T>().map_err(|e| match e.kind() {
        IntErrorKind::PosOverflow => format!("{flag} is out of range, got `{raw}`"),
        _ => format!("{flag} needs a non-negative integer, got `{raw}`"),
    })
}

fn store_options(args: &Args) -> StoreOptions {
    StoreOptions { max_entries: args.max_entries, compact_after_dead: args.compact_after }
}

fn daemon_config(args: &Args) -> DaemonConfig {
    DaemonConfig {
        store_path: args.store.clone().expect("checked by parse_args"),
        store_options: store_options(args),
        workers: args.workers,
        queue_capacity: args.queue,
        retry: RetryPolicy { max_attempts: args.retry_attempts, base_delay_ms: args.retry_base_ms },
        fault_plan: None,
        fault_injection: args.fault_injection,
    }
}

fn describe_recovery(recovery: &Recovery) -> String {
    match recovery {
        Recovery::Fresh => "fresh store (no previous log)".into(),
        Recovery::Clean { records } => format!("clean recovery: {records} records replayed"),
        Recovery::CorruptTail { records, dropped_bytes } => format!(
            "corrupt tail: {records} records replayed, {dropped_bytes} trailing bytes dropped"
        ),
        Recovery::Discarded { reason } => format!("store discarded and restarted: {reason:?}"),
    }
}

/// The one-line JSON response to `{"op":"metrics"}`: the current snapshot
/// of every registered metric.
fn metrics_line() -> String {
    iotsan_telemetry::snapshot().render_json()
}

/// The one-line JSON response to `{"op":"flight"}`: the flight recorder's
/// retained events, oldest first.
fn flight_line() -> String {
    let rendered: Vec<String> = flight::events().iter().map(|e| e.render()).collect();
    JsonRow::new()
        .num_u("recorded", flight::recorded())
        .num_u("retained", rendered.len() as u64)
        .strs("events", &rendered)
        .finish()
}

/// Records a binary-level diagnostic (startup, shutdown summary) through
/// the flight recorder; `--log-level info` makes them visible on stderr.
fn diagnostic(level: Level, detail: &str) {
    flight::record(level, EventCode::Diagnostic, detail);
}

/// The outcome for a job line that does not parse: both modes answer it
/// through [`JobOutcome::render`], like every other outcome.
fn invalid_line(line_number: usize, error: String) -> JobOutcome {
    JobOutcome {
        index: usize::MAX,
        id: format!("line-{line_number}"),
        status: JobStatus::Invalid(error),
        report: None,
        backing_hits: 0,
        degraded: false,
        elapsed: std::time::Duration::ZERO,
    }
}

fn run_batch_mode(args: &Args) -> Result<(), Failure> {
    let mut daemon = Daemon::start(daemon_config(args))
        .map_err(|e| Failure::Store(format!("cannot open verdict store: {e}")))?;
    diagnostic(Level::Info, &describe_recovery(&daemon.recovery()));

    let jobs_arg = args.jobs.as_deref().expect("batch mode");
    let source = if jobs_arg == "-" { "stdin" } else { jobs_arg };
    let cannot_read = |e: std::io::Error| runtime(format!("cannot read {source}: {e}"));
    let mut reader: Box<dyn BufRead> = if jobs_arg == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(std::io::BufReader::new(std::fs::File::open(jobs_arg).map_err(cannot_read)?))
    };

    let mut specs = Vec::new();
    let mut invalid: Vec<JobOutcome> = Vec::new();
    let mut want_metrics = false;
    let mut want_flight = false;
    let mut number = 0;
    while let Some(line) = read_client_line(&mut reader).map_err(cannot_read)? {
        number += 1;
        let line = match line.into_text() {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => line,
            Err(error) => {
                invalid.push(invalid_line(number, error));
                continue;
            }
        };
        match parse_line(&line, number) {
            Ok(JobLine::Job(spec)) => specs.push(spec),
            Ok(JobLine::Shutdown) => break, // stop ingesting; run what we have
            // In batch mode the telemetry ops answer after the batch, when
            // the counters actually reflect the submitted work.
            Ok(JobLine::Metrics) => want_metrics = true,
            Ok(JobLine::Flight) => want_flight = true,
            Err(error) => invalid.push(invalid_line(number, error)),
        }
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for outcome in &invalid {
        writeln!(out, "{}", outcome.render()).map_err(runtime)?;
    }
    let outcomes = daemon.run_batch(specs);
    for outcome in &outcomes {
        writeln!(out, "{}", outcome.render()).map_err(runtime)?;
    }
    if want_metrics {
        writeln!(out, "{}", metrics_line()).map_err(runtime)?;
    }
    if want_flight {
        writeln!(out, "{}", flight_line()).map_err(runtime)?;
    }
    out.flush().map_err(runtime)?;

    let summary = daemon.shutdown().map_err(|e| runtime(format!("shutdown failed: {e}")))?;
    diagnostic(
        Level::Info,
        &format!(
            "{} jobs done ({} rejected, {} quarantined{}); cache {} hits / {} misses, \
             {} from disk; store holds {} verdicts in {} records",
            outcomes.len(),
            invalid.len(),
            summary.quarantined,
            if summary.degraded { ", store DEGRADED" } else { "" },
            summary.cache_hits,
            summary.cache_misses,
            summary.backing_hits,
            summary.store_entries,
            summary.store_records,
        ),
    );
    Ok(())
}

/// The longest job line either mode reads, in bytes, newline excluded
/// (OPERATIONS.md, "Job limits").  A longer line is skipped through its
/// newline without being kept and answered as invalid.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One job line as read from a `--jobs` input or a `--listen` client.
enum ClientLine {
    /// A line of at most [`MAX_LINE_BYTES`], without its line ending.
    Fits(Vec<u8>),
    /// A line over [`MAX_LINE_BYTES`], already skipped.
    TooLong,
}

impl ClientLine {
    /// The line as text, or why it is invalid: over the limit or not UTF-8.
    fn into_text(self) -> Result<String, String> {
        match self {
            ClientLine::Fits(bytes) => {
                String::from_utf8(bytes).map_err(|_| "line is not UTF-8".into())
            }
            ClientLine::TooLong => Err(format!("line exceeds the {MAX_LINE_BYTES}-byte limit")),
        }
    }
}

/// Reads the next `\n`-terminated line (the last one may end at end of
/// stream instead), holding at most [`MAX_LINE_BYTES`] of it in memory.
/// `None` at end of stream.
fn read_client_line(reader: &mut impl BufRead) -> std::io::Result<Option<ClientLine>> {
    let mut line = Vec::new();
    let mut fits = true;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&byte| byte == b'\n');
        let take = newline.unwrap_or(chunk.len());
        fits = fits && line.len() + take <= MAX_LINE_BYTES;
        if fits {
            line.extend_from_slice(&chunk[..take]);
        } else {
            line = Vec::new();
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(read_any.then_some(if fits { ClientLine::Fits(line) } else { ClientLine::TooLong }))
}

#[cfg(unix)]
fn run_listen_mode(args: &Args) -> Result<(), Failure> {
    use std::os::unix::net::UnixListener;

    let socket = args.listen.clone().expect("listen mode");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket)
        .map_err(|e| runtime(format!("cannot bind {}: {e}", socket.display())))?;

    let mut daemon = Daemon::start(daemon_config(args))
        .map_err(|e| Failure::Store(format!("cannot open verdict store: {e}")))?;
    diagnostic(Level::Info, &describe_recovery(&daemon.recovery()));
    diagnostic(Level::Info, &format!("listening on {}", socket.display()));

    'serve: for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                diagnostic(Level::Warn, &format!("accept failed: {e}"));
                continue;
            }
        };
        let mut reader = std::io::BufReader::new(
            stream.try_clone().map_err(|e| runtime(format!("cannot clone socket stream: {e}")))?,
        );
        let mut writer = stream;
        let mut number = 0;
        // Every line ends in one answer, a blank one in none; only a
        // client that hangs up ends the connection.
        while let Ok(Some(line)) = read_client_line(&mut reader) {
            number += 1;
            let response = match line.into_text() {
                Err(error) => invalid_line(number, error).render(),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match parse_line(&line, number) {
                    Ok(JobLine::Shutdown) => {
                        let _ = writeln!(writer, "{{\"status\":\"shutting-down\"}}");
                        break 'serve;
                    }
                    Ok(JobLine::Metrics) => metrics_line(),
                    Ok(JobLine::Flight) => flight_line(),
                    Ok(JobLine::Job(spec)) => {
                        let outcomes = daemon.run_batch(vec![spec]);
                        outcomes.first().map(JobOutcome::render).unwrap_or_default()
                    }
                    Err(error) => invalid_line(number, error).render(),
                },
            };
            if writeln!(writer, "{response}").is_err() {
                break; // client hung up; keep serving others
            }
        }
    }

    let summary = daemon.shutdown().map_err(|e| runtime(format!("shutdown failed: {e}")))?;
    let _ = std::fs::remove_file(&socket);
    diagnostic(
        Level::Info,
        &format!(
            "shut down after {} jobs ({} quarantined{}); cache {} hits / {} misses, \
             {} from disk",
            summary.jobs,
            summary.quarantined,
            if summary.degraded { ", store DEGRADED" } else { "" },
            summary.cache_hits,
            summary.cache_misses,
            summary.backing_hits,
        ),
    );
    Ok(())
}

#[cfg(not(unix))]
fn run_listen_mode(_args: &Args) -> Result<(), Failure> {
    Err(Failure::Usage("--listen requires unix domain sockets; use --jobs on this platform".into()))
}

fn run_compact_mode(args: &Args) -> Result<(), Failure> {
    let path = args.store.as_ref().expect("checked by parse_args");
    let mut store = VerdictStore::open_with(path, store_options(args))
        .map_err(|e| Failure::Store(format!("cannot open verdict store: {e}")))?;
    diagnostic(Level::Info, &describe_recovery(store.recovery()));
    let stats = store.compact().map_err(|e| runtime(format!("compaction failed: {e}")))?;
    print_report(|out| {
        writeln!(
            out,
            "compacted {}: {} -> {} records, {} -> {} bytes",
            path.display(),
            stats.records_before,
            stats.records_after,
            stats.bytes_before,
            stats.bytes_after,
        )
    })
}

fn run_status_mode(args: &Args) -> Result<(), Failure> {
    let path = args.store.as_ref().expect("checked by parse_args");
    let store = VerdictStore::open_with(path, store_options(args))
        .map_err(|e| Failure::Store(format!("cannot open verdict store: {e}")))?;
    let file_bytes = store.file_bytes().map_err(runtime)?;
    let quarantined = load_quarantine(&quarantine_sidecar_path(path));
    // The telemetry surface: what this process's registry recorded while
    // opening the store (recoveries, corrupt tails), plus its shape.
    let snap = iotsan_telemetry::snapshot();
    print_report(|out| {
        writeln!(out, "store:        {}", path.display())?;
        writeln!(out, "recovery:     {}", describe_recovery(store.recovery()))?;
        writeln!(out, "live entries: {}", store.len())?;
        writeln!(out, "log records:  {} ({} dead)", store.records(), store.dead_records())?;
        writeln!(out, "log bytes:    {file_bytes}")?;
        writeln!(out, "quarantined:  {} job class(es)", quarantined.len())?;
        for (fingerprint, entry) in &quarantined {
            writeln!(
                out,
                "  {fingerprint:016x}: {} attempt(s), last panic: {}",
                entry.attempts, entry.last_message
            )?;
        }
        writeln!(
            out,
            "telemetry:    {} metric(s) registered, {} flight event(s) retained",
            DESCRIPTORS.len(),
            flight::events().len()
        )?;
        writeln!(
            out,
            "  store opens replayed: {}, corrupt/discarded logs: {}",
            snap.counter("iotsan_store_recoveries_total"),
            snap.counter("iotsan_store_corrupt_tails_total"),
        )
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => print_report(|out| out.write_all(HELP.as_bytes())),
        Err(error) => Err(Failure::Usage(error)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("iotsand: {}", failure.message());
            failure.code()
        }
    }
}

/// Runs the mode `args` selects, then writes the metrics snapshot if asked.
fn run(args: &Args) -> Result<(), Failure> {
    if let Some(level) = args.log_level {
        flight::set_stderr_level(level);
    }
    let result = if args.jobs.is_some() {
        run_batch_mode(args)
    } else if args.listen.is_some() {
        run_listen_mode(args)
    } else if args.compact {
        run_compact_mode(args)
    } else {
        run_status_mode(args)
    };
    // The dump-on-shutdown snapshot, whatever mode ran and however it went.
    if let Some(path) = &args.metrics_snapshot {
        if let Err(e) = std::fs::write(path, metrics_line() + "\n") {
            eprintln!("iotsand: cannot write metrics snapshot {}: {e}", path.display());
        }
    }
    result
}
