//! The content keys, pinned by value.
//!
//! Two keys outlive a process: `JobSpec::fingerprint` keys the retry counts
//! and the quarantine sidecar, and each group's `Fingerprint` keys its
//! record in the verdict log.  A change to either scheme is silent — the
//! sidecar resets, every stored verdict misses — so these literals must only
//! change together with a deliberate key-scheme change.

use iotsan::config::{expert_configure, standard_household};
use iotsan::{Pipeline, VerificationPlanner};
use iotsan_daemon::{parse_line, resolve_apps, JobLine, JobSpec};

fn job(line: &str) -> JobSpec {
    match parse_line(line, 1).expect("valid job line") {
        JobLine::Job(spec) => spec,
        other => panic!("not a job: {other:?}"),
    }
}

#[test]
fn job_fingerprints_are_pinned() {
    let keys = [
        job(r#"{"id":"m","market":8,"events":3,"failures":true}"#),
        job(r#"{"id":"n","names":["Auto Mode Change","Unlock Door"],"events":2}"#),
        job(r#"{"id":"s","sources":["definition(name: 'Probe')"],"timeout_ms":60000}"#),
    ]
    .map(|spec| format!("{:016x}", spec.fingerprint()));
    assert_eq!(keys, ["a613ed8d2b0014ae", "b9575a6e679e4260", "2a7fa481f98d3d1d"]);
}

#[test]
fn market_group_fingerprints_are_pinned() {
    let spec = job(r#"{"id":"m","market":8,"events":2}"#);
    let apps = resolve_apps(&spec.bundle).expect("market bundle resolves");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(spec.events);
    let plan = VerificationPlanner::new(&pipeline).plan(&apps, &config);
    let keys: Vec<String> = plan.jobs.iter().map(|j| j.fingerprint.to_string()).collect();
    assert_eq!(keys, ["deae248dbc272348", "697ad8cf85cf2194"]);
}
