//! Golden counterexample digests: every counterexample the fleet checker
//! reports — its property, depth, action strings and rendered log lines with
//! their owning apps — is hashed per bundle and pinned to
//! `tests/golden/counterexamples.txt`.
//!
//! Verdict digests leave traces out, so a change that reorders handler
//! dispatch or renders a log line differently can keep every verdict while
//! changing what a user is shown. This test catches that.
//!
//! Regenerate the baseline (and review why it moved) with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p iotsan --test counterexamples
//! ```

use iotsan::config::{expert_configure, standard_household};
use iotsan::planner::{FleetReport, VerificationCache};
use iotsan::{translate_sources, Pipeline};
use iotsan_apps::market;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the goldens live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/counterexamples.txt")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Verifies the first `apps` market apps (corpus order) as one fleet.
fn fleet(apps: usize, events: usize, failures: bool) -> FleetReport {
    let corpus = market::market_apps();
    let sources: Vec<&str> = corpus.iter().take(apps).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(events);
    let pipeline = if failures { pipeline.with_failures() } else { pipeline };
    pipeline.verify_fleet(&apps, &config, &mut VerificationCache::new())
}

/// One golden line: the bundle, how many counterexamples it reported, and a
/// digest over all of them in report order (groups are sorted by app list).
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
fn counterexamples_match_golden() {
    let mut actual = digest_line("market8-e4-failures", &fleet(8, 4, true));
    actual.push_str(&digest_line("market150-e3", &fleet(150, 3, false)));
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .expect("tests/golden/counterexamples.txt exists (run with UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        actual, expected,
        "reported counterexamples drifted from the golden baseline; \
         rerun with UPDATE_GOLDEN=1 and review why"
    );
}
