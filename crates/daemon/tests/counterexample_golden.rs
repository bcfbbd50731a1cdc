//! The daemon reports the same counterexamples as the in-process fleet
//! checker: the two bundles of the root `tests/counterexamples.rs` are sent
//! as `iotsand` jobs on a fresh store, digested with the same line format,
//! and compared byte for byte against `tests/golden/counterexamples.txt`.
//! That golden is recorded by the in-process test; this one never rewrites
//! it.

use iotsan::FleetReport;
use iotsan_daemon::{BundleSpec, Daemon, DaemonConfig, JobSpec, JobStatus};
use std::fmt::Write as _;
use std::path::Path;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line, in the format of `tests/counterexamples.rs`.
fn digest_line(name: &str, report: &FleetReport) -> String {
    let mut text = String::new();
    let mut count = 0usize;
    for group in &report.groups {
        assert!(!group.report.stats.truncated, "{name}: group {:?} truncated", group.apps);
        writeln!(text, "group {}", group.apps.join(",")).unwrap();
        for found in &group.report.violations {
            count += 1;
            let v = &found.violation;
            writeln!(text, "violation {} {} depth {}", v.property, v.description, found.depth)
                .unwrap();
            for step in &found.trace.steps {
                writeln!(text, "action {}", step.action).unwrap();
                for line in &step.log {
                    writeln!(text, "log {}|{}", line.owner.as_deref().unwrap_or("-"), line.text)
                        .unwrap();
                }
            }
        }
    }
    format!("{name} counterexamples={count} digest={:016x}\n", fnv1a(text.as_bytes()))
}

#[test]
fn daemon_jobs_reproduce_the_counterexample_golden() {
    let dir = std::env::temp_dir().join(format!("iotsan-daemon-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("verdicts.log"))).unwrap();
    let job = |id: &str, apps, events, failures| JobSpec {
        id: id.into(),
        bundle: BundleSpec::Market(apps),
        events,
        workers: 1,
        failures,
        timeout_ms: None,
        inject_panic: false,
    };
    let outcomes = daemon.run_batch(vec![
        job("market8-e4-failures", 8, 4, true),
        job("market150-e3", 150, 3, false),
    ]);
    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut actual = String::new();
    for outcome in &outcomes {
        assert_eq!(outcome.status, JobStatus::Ok, "{}", outcome.id);
        let report = outcome.report.as_ref().expect("an ok job has a report");
        assert_eq!(report.cache_hits, 0, "{}: the store starts empty", outcome.id);
        actual.push_str(&digest_line(&outcome.id, report));
    }
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/counterexamples.txt");
    let expected = std::fs::read_to_string(golden).expect("tests/golden/counterexamples.txt");
    assert_eq!(actual, expected, "the daemon's counterexamples drifted from the golden");
}
