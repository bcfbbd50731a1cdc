//! End-to-end smoke test of the `iotsand` binary: batch-ingest a job file
//! twice across a process restart and check the second run is served from
//! the durable verdict store with identical verdicts.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotsand-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn iotsand() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iotsand"))
}

/// A job line whose `x` field nests 100,000 arrays deep (about 200 KB).
fn deeply_nested_job_line() -> String {
    let n = 100_000;
    format!("{{\"id\":\"deep\",\"x\":{}{}}}", "[".repeat(n), "]".repeat(n))
}

/// Pulls the integer value of `"key":N` out of a rendered NDJSON line.
fn field(line: &str, key: &str) -> u64 {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker).unwrap_or_else(|| panic!("no {key} in {line}")) + marker.len();
    line[start..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

#[test]
fn help_prints_usage_and_exits_cleanly() {
    let output = iotsand().arg("--help").output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("USAGE"), "{text}");
    assert!(text.contains("--store"), "{text}");
    assert!(text.contains("JOB FORMAT"), "{text}");
}

/// `--help` and `--status` whose stdout reader has already gone away (a
/// closed pipe, as in `iotsand --status | true`) exit cleanly instead of
/// panicking on the failed write.
#[cfg(unix)]
#[test]
fn reports_to_a_closed_stdout_exit_cleanly() {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let dir = temp_dir("closed-stdout");
    let store = dir.join("verdicts.log");
    for args in [vec!["--help"], vec!["--store", store.to_str().unwrap(), "--status"]] {
        let (stdout, reader) = UnixStream::pair().unwrap();
        drop(reader);
        let output =
            iotsand().args(&args).stdout(Stdio::from(OwnedFd::from(stdout))).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_ne!(output.status.code(), Some(101), "{args:?} panicked: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(output.status.success(), "{args:?}: {stderr}");
    }
}

#[test]
fn rejects_unknown_flags_and_missing_modes() {
    let output = iotsand().arg("--bogus").output().unwrap();
    assert!(!output.status.success());
    let output = iotsand().args(["--store", "/tmp/x"]).output().unwrap();
    assert!(!output.status.success());
}

/// A count that does not fit the flag's type is a usage error naming the
/// flag, not a value wrapped into range (4294967296 would wrap to 0).
#[test]
fn rejects_an_out_of_range_retry_attempts() {
    let dir = temp_dir("retry-range");
    let store = dir.join("verdicts.log");
    for count in ["4294967296", "-1"] {
        let output = iotsand()
            .args(["--store", store.to_str().unwrap(), "--status", "--retry-attempts", count])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{count}: {stderr}");
        assert!(stderr.contains("--retry-attempts"), "{count}: {stderr}");
    }
    assert!(!store.exists(), "a usage error must not open the store");
}

#[test]
fn batch_restart_serves_warm_verdicts_from_disk() {
    let dir = temp_dir("warm");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(
        &jobs,
        "{\"id\":\"market\",\"market\":4}\n\
         \n\
         {\"id\":\"named\",\"names\":[\"Unlock Door\"]}\n\
         {\"id\":\"broken\",\"events\":2}\n",
    )
    .unwrap();

    let run = |label: &str| {
        let output = iotsand()
            .args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{label} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };

    let cold = run("cold run");
    let cold_lines: Vec<&str> = cold.lines().collect();
    assert_eq!(cold_lines.len(), 3, "{cold}");
    // The malformed line is rejected up front, the two jobs verify cold.
    assert!(cold_lines[0].contains("\"status\":\"invalid\""), "{cold}");
    assert!(cold_lines[0].contains("exactly one"), "{cold}");
    for line in &cold_lines[1..] {
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert_eq!(field(line, "backing_hits"), 0, "{line}");
        assert!(field(line, "cache_misses") > 0, "{line}");
    }

    // Same jobs, new process: every group replays from the on-disk store.
    let warm = run("warm run");
    let warm_lines: Vec<&str> = warm.lines().collect();
    assert_eq!(warm_lines.len(), 3, "{warm}");
    for (cold_line, warm_line) in cold_lines[1..].iter().zip(&warm_lines[1..]) {
        assert!(warm_line.contains("\"status\":\"ok\""), "{warm_line}");
        assert_eq!(field(warm_line, "cache_misses"), 0, "{warm_line}");
        assert_eq!(field(warm_line, "backing_hits"), field(warm_line, "groups"), "{warm_line}");
        // The verdicts themselves are identical to the cold run's.
        for key in ["groups", "violations", "violated_properties"] {
            let marker = format!("\"{key}\":");
            let extract = |line: &str| {
                let start = line.find(&marker).unwrap() + marker.len();
                line[start..].split(',').next().unwrap().to_string()
            };
            assert_eq!(extract(cold_line), extract(warm_line), "{key} drifted");
        }
    }
}

#[test]
fn batch_mode_answers_metrics_and_flight_after_the_batch() {
    let dir = temp_dir("metrics");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(
        &jobs,
        "{\"id\":\"m\",\"market\":2}\n{\"op\":\"metrics\"}\n{\"op\":\"flight\"}\n",
    )
    .unwrap();
    let snapshot_path = dir.join("final.json");
    let output = iotsand()
        .args([
            "--store",
            store.to_str().unwrap(),
            "--jobs",
            jobs.to_str().unwrap(),
            "--metrics-snapshot",
            snapshot_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"status\":\"ok\""), "{text}");

    // The metrics row answers after the batch, so the job's work is visible
    // across every instrumented family.
    let metrics = lines[1];
    assert_eq!(field(metrics, "iotsan_daemon_jobs_accepted_total"), 1, "{metrics}");
    assert_eq!(field(metrics, "iotsan_daemon_jobs_completed_total"), 1, "{metrics}");
    assert!(field(metrics, "iotsan_checker_searches_total") >= 1, "{metrics}");
    assert!(field(metrics, "iotsan_checker_states_total") >= 1, "{metrics}");
    assert!(field(metrics, "iotsan_cache_misses_total") >= 1, "{metrics}");
    assert!(field(metrics, "iotsan_store_appends_total") >= 1, "{metrics}");

    // The flight row reports ring occupancy alongside the rendered events.
    assert!(field(lines[2], "recorded") >= 1, "{}", lines[2]);
    assert!(lines[2].contains("\"events\":"), "{}", lines[2]);

    // --metrics-snapshot dumped the same schema on shutdown.
    let snap = std::fs::read_to_string(&snapshot_path).unwrap();
    assert_eq!(field(&snap, "iotsan_daemon_jobs_completed_total"), 1, "{snap}");
}

#[test]
fn log_level_gates_lifecycle_diagnostics_on_stderr() {
    let dir = temp_dir("loglevel");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(&jobs, "{\"id\":\"quiet\",\"market\":2}\n").unwrap();

    let run = |store: &str, extra: &[&str]| {
        let store = dir.join(store);
        let mut cmd = iotsand();
        cmd.args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()]);
        cmd.args(extra);
        let output = cmd.output().unwrap();
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8(output.stderr).unwrap()
    };

    // Default (warn): lifecycle chatter stays off stderr.
    let quiet = run("quiet.log", &[]);
    assert!(!quiet.contains("iotsan: debug"), "{quiet}");
    assert!(!quiet.contains("iotsan: info"), "{quiet}");

    // Debug: job and store lifecycle events render as structured lines.
    let verbose = run("verbose.log", &["--log-level", "debug"]);
    assert!(verbose.contains("iotsan: debug job_accepted"), "{verbose}");
    assert!(verbose.contains("iotsan: debug store_append"), "{verbose}");
    assert!(verbose.contains("iotsan: info"), "{verbose}");

    // An unknown level is a usage error.
    let store = dir.join("bad.log");
    let bad = iotsand()
        .args([
            "--store",
            store.to_str().unwrap(),
            "--jobs",
            jobs.to_str().unwrap(),
            "--log-level",
            "loud",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn status_and_compact_modes_report_the_store() {
    let dir = temp_dir("status");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(&jobs, "{\"id\":\"a\",\"market\":2}\n{\"id\":\"b\",\"market\":2}\n").unwrap();
    let output = iotsand()
        .args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());

    let status = iotsand().args(["--store", store.to_str().unwrap(), "--status"]).output().unwrap();
    assert!(status.status.success());
    let text = String::from_utf8(status.stdout).unwrap();
    assert!(text.contains("live entries:"), "{text}");
    assert!(text.contains("clean recovery"), "{text}");

    let compact =
        iotsand().args(["--store", store.to_str().unwrap(), "--compact"]).output().unwrap();
    assert!(compact.status.success());
    let text = String::from_utf8(compact.stdout).unwrap();
    assert!(text.contains("compacted"), "{text}");
}

/// An `iotsand --listen` process over a fresh store with one client
/// connection, killed on drop if an assertion fails before its shutdown.
#[cfg(unix)]
struct Listening {
    child: std::process::Child,
    reader: std::io::BufReader<std::os::unix::net::UnixStream>,
    writer: std::os::unix::net::UnixStream,
    socket: PathBuf,
}

#[cfg(unix)]
impl Listening {
    fn start(name: &str) -> Self {
        use std::os::unix::net::UnixStream;
        use std::time::{Duration, Instant};

        let dir = temp_dir(name);
        let store = dir.join("verdicts.log");
        let socket = dir.join("iotsand.sock");
        let child = iotsand()
            .args(["--store", store.to_str().unwrap(), "--listen", socket.to_str().unwrap()])
            .spawn()
            .unwrap();
        // Wait for the socket to appear.
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        };
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        Listening { child, reader, writer: stream, socket }
    }

    /// Sends one request line; every response is exactly one line of JSON.
    fn respond(&mut self, request: &str) -> (String, serde_json::Value) {
        self.respond_bytes(request.as_bytes())
    }

    /// [`Listening::respond`] for a line that need not be UTF-8.
    fn respond_bytes(&mut self, request: &[u8]) -> (String, serde_json::Value) {
        use std::io::{BufRead, Write};

        self.writer.write_all(request).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let value = serde_json::from_str(&line).unwrap_or_else(|e| {
            let shown = String::from_utf8_lossy(&request[..request.len().min(80)]);
            panic!("response to {shown} is not one JSON line ({e}): {line}")
        });
        (line, value)
    }

    /// Asks the daemon to shut down and checks that it exits cleanly and
    /// removes its socket.
    fn shutdown(&mut self) {
        let (ack, _) = self.respond(r#"{"op":"shutdown"}"#);
        assert!(ack.contains("shutting-down"), "{ack}");
        let status = self.child.wait().unwrap();
        assert!(status.success());
        assert!(!self.socket.exists(), "socket file should be removed on shutdown");
    }
}

#[cfg(unix)]
impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(unix)]
#[test]
fn listen_mode_serves_jobs_over_a_unix_socket() {
    let mut daemon = Listening::start("listen");
    let mut respond = |request: &str| daemon.respond(request);

    let (response, _) = respond(r#"{"id":"sock","market":2}"#);
    assert!(response.contains("\"status\":\"ok\""), "{response}");

    // An unparseable line whose error message carries a newline (from the
    // escaped key) is answered like in batch mode, as one JSON outcome.
    let (response, invalid) = respond(r#"{"a\nb":1}"#);
    let text = |key: &str| invalid.get(key).and_then(|v| v.as_str()).map(str::to_owned);
    assert_eq!(text("status").as_deref(), Some("invalid"), "{response}");
    assert_eq!(text("id").as_deref(), Some("line-2"), "{response}");

    // A line nested past the JSON reader's budget is answered with one
    // invalid outcome instead of overflowing its stack, and the next job runs.
    let (response, deep) = respond(&deeply_nested_job_line());
    let text = |key: &str| deep.get(key).and_then(|v| v.as_str()).map(str::to_owned);
    assert_eq!(text("status").as_deref(), Some("invalid"), "{response}");
    assert_eq!(text("id").as_deref(), Some("line-3"), "{response}");
    assert!(response.contains("nesting exceeds"), "{response}");
    let (response, _) = respond(r#"{"id":"after-deep","market":2}"#);
    assert!(response.contains("\"status\":\"ok\""), "{response}");

    // The live observability surface: one snapshot row, one flight row.
    let (metrics, _) = respond(r#"{"op":"metrics"}"#);
    assert_eq!(field(&metrics, "iotsan_daemon_jobs_completed_total"), 2, "{metrics}");
    assert!(field(&metrics, "iotsan_checker_searches_total") >= 1, "{metrics}");

    let (flight, _) = respond(r#"{"op":"flight"}"#);
    assert!(flight.contains("\"events\":"), "{flight}");

    daemon.shutdown();
}

/// A client line over the 1 MiB limit is skipped without being held and
/// answered with one invalid outcome; a line of exactly the limit is read
/// and parsed; a line that is not UTF-8 is answered as invalid too; and the
/// connection's next job is still served.
#[cfg(unix)]
#[test]
fn listen_mode_answers_an_over_long_line_and_serves_the_next() {
    const LIMIT: usize = 1 << 20;
    let padded = |id: &str, len: usize| {
        let frame = format!("{{\"id\":\"{id}\",\"x\":\"\"}}");
        format!("{{\"id\":\"{id}\",\"x\":\"{}\"}}", "a".repeat(len - frame.len()))
    };
    let mut daemon = Listening::start("long-line");

    let (response, long) = daemon.respond(&padded("long", LIMIT + 1));
    let text = |key: &str| long.get(key).and_then(|v| v.as_str()).map(str::to_owned);
    assert_eq!(text("status").as_deref(), Some("invalid"), "{response}");
    assert_eq!(text("id").as_deref(), Some("line-1"), "{response}");
    assert!(response.contains("line exceeds the 1048576-byte limit"), "{response}");

    let (response, _) = daemon.respond(&padded("exact", LIMIT));
    assert!(response.contains("\"status\":\"invalid\""), "{response}");
    assert!(!response.contains("byte limit"), "a line of exactly the limit is parsed: {response}");

    let (response, _) = daemon.respond_bytes(b"{\"id\":\"\xff\"}");
    assert!(response.contains("\"id\":\"line-3\""), "{response}");
    assert!(response.contains("line is not UTF-8"), "{response}");

    let (response, _) = daemon.respond(r#"{"id":"after-long","market":2}"#);
    assert!(response.contains("\"id\":\"after-long\""), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    daemon.shutdown();
}

/// Batch mode reads its input through the same capped line reader as
/// `--listen`: a line over the 1 MiB limit and a line that is not UTF-8 are
/// each answered with one invalid outcome, and the job after them still runs.
#[test]
fn batch_mode_answers_an_over_long_line_and_runs_the_next() {
    let dir = temp_dir("batch-long-line");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    let mut input = format!("{{\"id\":\"long\",\"x\":\"{}\"}}\n", "a".repeat(1 << 20)).into_bytes();
    input.extend_from_slice(b"{\"id\":\"\xff\"}\n{\"id\":\"after\",\"market\":2}\n");
    std::fs::write(&jobs, input).unwrap();
    let output = iotsand()
        .args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"id\":\"line-1\""), "{text}");
    assert!(lines[0].contains("\"status\":\"invalid\""), "{text}");
    assert!(lines[0].contains("line exceeds the 1048576-byte limit"), "{text}");
    assert!(lines[1].contains("\"id\":\"line-2\""), "{text}");
    assert!(lines[1].contains("line is not UTF-8"), "{text}");
    assert!(lines[2].contains("\"id\":\"after\""), "{text}");
    assert!(lines[2].contains("\"status\":\"ok\""), "{text}");
}

/// A `sources` job nested 100,000 parentheses deep used to overflow a
/// worker's stack and abort the daemon with every in-flight job.  It is now
/// rejected with a structured `invalid` outcome, and the next job still runs.
#[test]
fn deeply_nested_sources_are_rejected_not_aborted() {
    let dir = temp_dir("deep");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    let n = 100_000;
    let source = format!(
        "definition(name: \\\"Deep\\\", namespace: \\\"st\\\", author: \\\"a\\\", description: \
         \\\"d\\\")\\ndef handler(evt) {{\\n    return {}1{}\\n}}\\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    std::fs::write(
        &jobs,
        format!(
            "{{\"id\":\"deep\",\"sources\":[\"{source}\"]}}\n{{\"id\":\"after\",\"market\":2}}\n"
        ),
    )
    .unwrap();
    let output = iotsand()
        .args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("\"id\":\"deep\""), "{text}");
    assert!(lines[0].contains("\"status\":\"invalid\""), "{text}");
    assert!(lines[0].contains("nesting exceeds the budget"), "{text}");
    assert!(lines[1].contains("\"status\":\"ok\""), "{text}");
}

/// A job line nested 100,000 arrays deep used to overflow the reader's stack
/// and abort the daemon.  The JSON reader's nesting budget now rejects it
/// with one structured `invalid` outcome, and the next job still runs.
#[test]
fn deeply_nested_job_lines_are_rejected_not_aborted() {
    let dir = temp_dir("deep-json");
    let store = dir.join("verdicts.log");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(
        &jobs,
        format!("{}\n{{\"id\":\"after\",\"market\":2}}\n", deeply_nested_job_line()),
    )
    .unwrap();
    let output = iotsand()
        .args(["--store", store.to_str().unwrap(), "--jobs", jobs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in &lines {
        assert!(serde_json::from_str::<serde_json::Value>(line).is_ok(), "not JSON: {line}");
    }
    assert!(lines[0].contains("\"status\":\"invalid\""), "{text}");
    assert!(lines[0].contains("nesting exceeds"), "{text}");
    assert!(lines[1].contains("\"id\":\"after\""), "{text}");
    assert!(lines[1].contains("\"status\":\"ok\""), "{text}");
}
