//! Concurrent jobs whose plans share some related groups but not all.
//! Each job claims several fingerprints at once, so these tests pin the
//! executor's multi-claim discipline: every distinct group is model-checked
//! exactly once, no job deadlocks on another's claims, and a job that
//! panics while holding several claims releases all of them.

use iotsan_daemon::{
    BundleSpec, Daemon, DaemonConfig, JobOutcome, JobSpec, JobStatus, RetryPolicy,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Far above the few seconds these batches take; a deadlock fails the test
/// here instead of hanging it.
const BOUND: Duration = Duration::from_secs(120);

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotsan-overlap-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("verdicts.log")
}

fn job(id: &str, bundle: BundleSpec, inject_panic: bool) -> JobSpec {
    JobSpec {
        id: id.into(),
        bundle,
        events: 2,
        workers: 1,
        failures: false,
        timeout_ms: None,
        inject_panic,
    }
}

/// Runs `jobs` on another thread and fails the test when the batch does
/// not finish within [`BOUND`].
fn run_bounded(mut daemon: Daemon, jobs: Vec<JobSpec>) -> (Daemon, Vec<JobOutcome>) {
    let (done, finished) = channel();
    std::thread::spawn(move || {
        let outcomes = daemon.run_batch(jobs);
        let _ = done.send((daemon, outcomes));
    });
    match finished.recv_timeout(BOUND) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => panic!("batch still running after {BOUND:?}: deadlock"),
        Err(RecvTimeoutError::Disconnected) => panic!("the batch thread panicked"),
    }
}

#[test]
fn overlapping_jobs_verify_each_group_once() {
    let store = temp_store("once");
    let daemon = Daemon::start(DaemonConfig { workers: 2, ..DaemonConfig::new(&store) }).unwrap();
    let table8 = ["Auto Mode Change", "Unlock Door", "Big Turn On", "Good Night", "Energy Saver"];
    let named = |names: &[&str]| BundleSpec::Named(names.iter().map(|n| n.to_string()).collect());
    let jobs = vec![
        job("table8", named(&table8), false),
        job("table8-head", named(&table8[..3]), false),
        job("table8-tail", named(&table8[2..]), false),
        job("market-6", BundleSpec::Market(6), false),
        job("market-10", BundleSpec::Market(10), false),
        job("market-8", BundleSpec::Market(8), false),
    ];
    let (daemon, outcomes) = run_bounded(daemon, jobs);
    let mut plans: Vec<BTreeSet<u64>> = Vec::new();
    let mut misses = 0;
    for outcome in &outcomes {
        assert_eq!(outcome.status, JobStatus::Ok, "{}", outcome.id);
        assert!(outcome.elapsed < BOUND, "{} took {:?}", outcome.id, outcome.elapsed);
        let report = outcome.report.as_ref().unwrap();
        plans.push(report.groups.iter().map(|group| group.fingerprint.0).collect());
        misses += report.cache_misses;
    }

    // The plans overlap without coinciding, and some plan holds several
    // groups at once: the case this test is about.
    let distinct: BTreeSet<u64> = plans.iter().flatten().copied().collect();
    assert!(distinct.iter().any(|f| plans.iter().filter(|p| p.contains(f)).count() > 1));
    assert!(distinct.len() > plans.iter().map(BTreeSet::len).max().unwrap());
    assert!(plans.iter().any(|plan| plan.len() > 2), "{plans:?}");

    let summary = daemon.shutdown().unwrap();
    assert_eq!(misses, distinct.len(), "a shared group was model-checked twice");
    assert_eq!(summary.store_entries, distinct.len());
}

#[test]
fn a_panicking_job_releases_every_claim() {
    let store = temp_store("panic");
    let config = DaemonConfig {
        workers: 2,
        retry: RetryPolicy { max_attempts: 1, base_delay_ms: 1 },
        fault_injection: true,
        ..DaemonConfig::new(&store)
    };
    let daemon = Daemon::start(config).unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (daemon, doomed) = run_bounded(daemon, vec![job("doomed", BundleSpec::Market(8), true)]);
    std::panic::set_hook(hook);
    assert!(matches!(doomed[0].status, JobStatus::Failed { .. }), "{:?}", doomed[0].status);

    // The doomed job claimed every group of the plan before it panicked; a
    // leaked claim would leave this job waiting forever.
    let (daemon, after) = run_bounded(daemon, vec![job("after", BundleSpec::Market(8), false)]);
    assert_eq!(after[0].status, JobStatus::Ok);
    let report = after[0].report.as_ref().unwrap();
    assert!(report.groups.len() > 1, "the plan must hold several claims");
    assert_eq!(report.cache_misses, report.groups.len(), "the panicking job filed no verdict");
    daemon.shutdown().unwrap();
}
