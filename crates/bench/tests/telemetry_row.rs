//! `repro`'s `telemetry_snapshot` row reports what the telemetry experiment
//! itself moved in the metrics registry, so the experiments that run before
//! it in the same process leave its counters unchanged.

use std::path::PathBuf;
use std::process::Command;

/// Runs `repro --json <path> <experiments>` and returns the JSON text.
fn repro_json(label: &str, experiments: &[&str]) -> String {
    let path: PathBuf =
        std::env::temp_dir().join(format!("telemetry_row_{}_{label}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--json")
        .arg(&path)
        .args(experiments)
        .output()
        .expect("repro runs");
    assert!(output.status.success(), "repro {experiments:?} failed: {output:?}");
    let json = std::fs::read_to_string(&path).expect("repro wrote its --json document");
    let _ = std::fs::remove_file(&path);
    json
}

/// The integer value of `key` in the `telemetry_snapshot` experiment row.
fn snapshot_counter(json: &str, key: &str) -> u64 {
    let row = &json[json.find("\"name\": \"telemetry_snapshot\"").expect("snapshot row")..];
    let field = format!("\"{key}\":");
    let value = &row[row.find(&field).expect("counter in the row") + field.len()..];
    let digits: String = value.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("an integer counter")
}

#[test]
fn earlier_experiments_do_not_move_the_snapshot_row() {
    let alone = repro_json("alone", &["telemetry"]);
    // `throughput` runs a search of its own before `telemetry` does.
    let after_search = repro_json("after_search", &["throughput", "telemetry"]);
    for key in ["iotsan_checker_searches_total", "iotsan_checker_states_total"] {
        let value = snapshot_counter(&alone, key);
        assert!(value > 0, "{key} is zero");
        assert_eq!(snapshot_counter(&after_search, key), value, "{key}");
    }
}
