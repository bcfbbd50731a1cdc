//! Docs-drift guard: `ARCHITECTURE.md`'s crate map must list exactly the
//! workspace's `crates/*` members, and every `vendor/*` stub must be
//! mentioned.  CI runs this in the docs job so the handbook cannot silently
//! rot when crates are added, renamed or removed.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the repository root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// The package names of every crate under `dir` (read from each Cargo.toml).
fn package_names(dir: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let text = fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let name = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = ").map(|v| v.trim_matches('"').to_string()))
            .unwrap_or_else(|| panic!("no package name in {}", manifest.display()));
        names.insert(name);
    }
    names
}

/// The crate names listed in ARCHITECTURE.md's crate-map table (the first
/// backticked cell of every `| `name` | ... |` row).
fn architecture_crate_map(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| `") else { continue };
        let Some(end) = rest.find('`') else { continue };
        names.insert(rest[..end].to_string());
    }
    names
}

#[test]
fn architecture_crate_map_matches_workspace_members() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md exists at the repository root");

    let documented = architecture_crate_map(&text);
    let actual = package_names(&root.join("crates"));
    assert!(!actual.is_empty(), "no crates found under crates/");
    assert_eq!(
        documented,
        actual,
        "ARCHITECTURE.md's crate map is out of sync with crates/*: \
         documented-but-missing {:?}, present-but-undocumented {:?}",
        documented.difference(&actual).collect::<Vec<_>>(),
        actual.difference(&documented).collect::<Vec<_>>(),
    );

    // The workspace Cargo.toml must also know every crate (crates/* is a
    // glob member, but the dependency table is written out by hand).
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    for name in &actual {
        assert!(
            workspace.contains(&format!("{name} = ")),
            "{name} missing from [workspace.dependencies] in the root Cargo.toml"
        );
    }
}

#[test]
fn architecture_mentions_every_vendored_stub() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md exists");
    for name in package_names(&root.join("vendor")) {
        assert!(text.contains(&format!("`{name}`")), "vendored stub `{name}` not documented");
    }
}

#[test]
fn architecture_documents_the_static_analysis_subsystem() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md exists");
    assert!(
        text.contains("## Static analysis subsystem"),
        "ARCHITECTURE.md must keep the static analysis subsystem section"
    );
    assert!(
        text.contains("Effect summaries"),
        "static analysis section must cover: Effect summaries"
    );
}

#[test]
fn readme_links_the_architecture_handbook() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    assert!(readme.contains("ARCHITECTURE.md"), "README.md must link the architecture handbook");
}

#[test]
fn architecture_documents_the_daemon_subsystem() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md exists");
    assert!(
        text.contains("## Daemon & durable verdict store"),
        "ARCHITECTURE.md must keep the daemon subsystem section"
    );
    for topic in
        ["Fingerprint-keyed records", "Crash safety", "Concurrency discipline", "I/O fault seam"]
    {
        assert!(text.contains(topic), "daemon section must cover: {topic}");
    }
}

#[test]
fn architecture_documents_the_scenario_factory() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md exists");
    assert!(
        text.contains("## Scenario factory"),
        "ARCHITECTURE.md must keep the scenario factory section"
    );
    for topic in ["Determinism contract", "Differential oracle", "Shrinking contract"] {
        assert!(text.contains(topic), "scenario factory section must cover: {topic}");
    }
    assert!(
        text.contains("scenario_repro.json"),
        "scenario factory section must name the CI failure artifact"
    );
}

#[test]
fn readme_quickstarts_the_differential_fuzzer() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    assert!(
        readme.contains("repro scenarios"),
        "README.md must keep the `repro scenarios` quickstart"
    );
    assert!(
        readme.contains("--seed 1 --size 200 scenarios"),
        "README.md must show the 200-household sweep invocation"
    );
}

#[test]
fn readme_links_the_operations_handbook() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    assert!(
        readme.contains("OPERATIONS.md"),
        "README.md must link the iotsand operator's handbook"
    );
}

#[test]
fn architecture_documents_the_telemetry_subsystem() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md exists");
    assert!(
        text.contains("## Telemetry subsystem"),
        "ARCHITECTURE.md must keep the telemetry subsystem section"
    );
    for topic in [
        "Metrics registry",
        "Flight recorder",
        "Shared row serializer",
        "Instrumentation discipline",
    ] {
        assert!(text.contains(topic), "telemetry section must cover: {topic}");
    }
    assert!(
        text.contains("--no-default-features"),
        "telemetry section must explain the no-op build"
    );
}

/// The metric names documented in OPERATIONS.md's reference table (the
/// backticked first cell of every `| `iotsan_...` | ... |` row).
fn operations_metric_table(text: &str) -> BTreeSet<String> {
    architecture_crate_map(text).into_iter().filter(|n| n.starts_with("iotsan_")).collect()
}

#[test]
fn operations_metrics_reference_matches_the_registry() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("OPERATIONS.md")).expect("OPERATIONS.md exists");
    assert!(
        text.contains("## Metrics reference"),
        "OPERATIONS.md must keep the metrics reference section"
    );
    let documented = operations_metric_table(&text);
    let actual: BTreeSet<String> =
        iotsan_telemetry::DESCRIPTORS.iter().map(|d| d.name.to_string()).collect();
    assert!(!actual.is_empty(), "the telemetry registry declares no metrics");
    assert_eq!(
        documented,
        actual,
        "OPERATIONS.md's metrics reference is out of sync with the registry: \
         documented-but-unregistered {:?}, registered-but-undocumented {:?}",
        documented.difference(&actual).collect::<Vec<_>>(),
        actual.difference(&documented).collect::<Vec<_>>(),
    );
}

#[test]
fn operations_handbook_covers_the_operator_surface() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("OPERATIONS.md"))
        .expect("OPERATIONS.md exists at the repository root");
    // The sections an operator actually reaches for; renaming one here must
    // be a deliberate decision, not drift.
    for section in [
        "## Starting the daemon",
        "## Job file format",
        "## Verdict-store disk layout",
        "## Compaction and eviction knobs",
        "## Crash-recovery semantics",
        "## Failure modes & degraded operation",
        "## Troubleshooting",
    ] {
        assert!(text.contains(section), "OPERATIONS.md must keep the section: {section}");
    }
    for flag in [
        "--store",
        "--jobs",
        "--listen",
        "--compact",
        "--status",
        "--retry-attempts",
        "--retry-base-ms",
        "--enable-fault-injection",
        "--log-level",
        "--metrics-snapshot",
    ] {
        assert!(text.contains(flag), "OPERATIONS.md must document the {flag} flag");
    }
    // The self-healing invariants and their artifacts must stay named.
    for anchor in ["chaos_repro.json", ".quarantine", "repro -- --seed 1 --faults 200 chaos"] {
        assert!(text.contains(anchor), "OPERATIONS.md must keep the reference to {anchor}");
    }
}
