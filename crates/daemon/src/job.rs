//! The batch-ingest job format: newline-delimited JSON.
//!
//! An app store submits verification work as NDJSON — one self-contained
//! JSON object per line, the shape every log shipper and queue speaks.  Each
//! line names a *(bundle, household configuration)* job:
//!
//! ```text
//! {"id":"batch-1","market":8,"events":3,"failures":true}
//! {"id":"batch-2","names":["Auto Mode Change","Unlock Door"],"events":2}
//! {"sources":["definition(name: \"My App\", ...) ..."],"timeout_ms":60000}
//! {"op":"shutdown"}
//! ```
//!
//! Exactly one of `market` (the first *n* corpus apps), `names` (corpus apps
//! by name) or `sources` (inline Groovy) selects the bundle; the household
//! device configuration is the standard expert configuration over the
//! selected bundle, matching the paper's Table 5 setup.  Unknown keys are
//! rejected, not ignored — a typo'd `event` must not silently verify with
//! the default bound.  Control lines carry an `op` instead of a bundle:
//! `shutdown` stops the daemon, `metrics` answers with a telemetry
//! snapshot row, `flight` with the flight recorder's retained events.
//! See `OPERATIONS.md` for the operator-facing reference of every field.

use iotsan::ir::IrApp;
use iotsan::properties::ContentHasher;
use iotsan::translate_sources;
use serde_json::Value;
use std::sync::OnceLock;

/// Which apps a job verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleSpec {
    /// The first `n` apps of the built-in market corpus
    /// ([`iotsan_apps::market::market_apps`]).
    Market(usize),
    /// Market-corpus apps selected by display name
    /// ([`iotsan_apps::market::named_apps`]).
    Named(Vec<String>),
    /// Inline SmartThings Groovy sources.
    Sources(Vec<String>),
}

/// One parsed verification job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen correlation id (defaults to `job-<line number>`).
    pub id: String,
    /// The apps to verify.
    pub bundle: BundleSpec,
    /// External-event bound (`SearchConfig::max_depth`); default 2.
    pub events: usize,
    /// Accepted and range-checked so existing clients' lines still parse,
    /// but ignored: every search runs on one thread.  Default 1.
    pub workers: usize,
    /// Exhaustive device/communication failure injection; default off.
    pub failures: bool,
    /// Wall-clock budget in milliseconds for each group's search, not for
    /// the whole job; default none.  A search that runs out answers
    /// `truncated`, and its verdict is served but never stored.
    pub timeout_ms: Option<u64>,
    /// Testing hook: panic after verifying, before the job's first verdict
    /// is filed (only honored when the daemon was started with fault
    /// injection enabled); default off.
    pub inject_panic: bool,
}

impl JobSpec {
    /// A stable content fingerprint of *what* the job verifies — every
    /// field except the caller-chosen `id` and the ignored `workers` — used
    /// to key retry counts and the poison quarantine so duplicates of a
    /// failing job are recognized across submissions (and across restarts,
    /// via the quarantine sidecar).  A [`ContentHasher`] over a canonical
    /// rendering: deterministic across processes, unlike `std`'s randomized
    /// hashers.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = ContentHasher::new();
        let mut eat = |bytes: &[u8]| {
            hash.write_bytes(bytes);
            hash.write_bytes(&[0xff]); // field separator, so ["ab","c"] != ["a","bc"]
        };
        match &self.bundle {
            BundleSpec::Market(n) => {
                eat(b"market");
                eat(&(*n as u64).to_le_bytes());
            }
            BundleSpec::Named(names) => {
                eat(b"named");
                for name in names {
                    eat(name.as_bytes());
                }
            }
            BundleSpec::Sources(sources) => {
                eat(b"sources");
                for source in sources {
                    eat(source.as_bytes());
                }
            }
        }
        eat(&(self.events as u64).to_le_bytes());
        eat(&[u8::from(self.failures), u8::from(self.inject_panic)]);
        eat(&self.timeout_ms.unwrap_or(u64::MAX).to_le_bytes());
        hash.finish()
    }
}

/// One parsed NDJSON line: a job, or a control operation.
#[derive(Debug, Clone, PartialEq)]
pub enum JobLine {
    /// A verification job.
    Job(JobSpec),
    /// `{"op":"shutdown"}` — stop accepting work and exit.
    Shutdown,
    /// `{"op":"metrics"}` — respond with a metrics snapshot (one JSON row
    /// of every registered counter, gauge and histogram).
    Metrics,
    /// `{"op":"flight"}` — respond with the flight recorder's retained
    /// events.
    Flight,
}

const KNOWN_KEYS: &[&str] = &[
    "id",
    "market",
    "names",
    "sources",
    "events",
    "workers",
    "failures",
    "timeout_ms",
    "inject_panic",
    "op",
];

fn non_negative_integer(value: &Value, key: &str) -> Result<usize, String> {
    let n = value.as_f64().ok_or_else(|| format!("`{key}` must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return Err(format!("`{key}` must be a non-negative integer, got {n}"));
    }
    Ok(n as usize)
}

fn string_array(value: &Value, key: &str) -> Result<Vec<String>, String> {
    let items = value.as_array().ok_or_else(|| format!("`{key}` must be an array of strings"))?;
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must contain only strings"))
        })
        .collect()
}

/// Parses one NDJSON line (1-based `line_number` is used for the default job
/// id and error messages).  Blank lines are the caller's to skip.
pub fn parse_line(line: &str, line_number: usize) -> Result<JobLine, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("line {line_number}: {e}"))?;
    let entries = value
        .as_object()
        .ok_or_else(|| format!("line {line_number}: a job must be a JSON object"))?;

    for (key, _) in entries {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "line {line_number}: unknown key `{key}` (known: {})",
                KNOWN_KEYS.join(", ")
            ));
        }
    }

    if let Some(op) = value.get("op") {
        let op = op.as_str().ok_or_else(|| format!("line {line_number}: `op` must be a string"))?;
        return match op {
            "shutdown" => Ok(JobLine::Shutdown),
            "metrics" => Ok(JobLine::Metrics),
            "flight" => Ok(JobLine::Flight),
            other => Err(format!("line {line_number}: unknown op `{other}`")),
        };
    }

    let id = match value.get("id") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("line {line_number}: `id` must be a string"))?
            .to_string(),
        None => format!("job-{line_number}"),
    };

    let mut bundles = Vec::new();
    if let Some(v) = value.get("market") {
        let n =
            non_negative_integer(v, "market").map_err(|e| format!("line {line_number}: {e}"))?;
        if n == 0 {
            return Err(format!("line {line_number}: `market` must select at least one app"));
        }
        bundles.push(BundleSpec::Market(n));
    }
    if let Some(v) = value.get("names") {
        let names = string_array(v, "names").map_err(|e| format!("line {line_number}: {e}"))?;
        if names.is_empty() {
            return Err(format!("line {line_number}: `names` must not be empty"));
        }
        bundles.push(BundleSpec::Named(names));
    }
    if let Some(v) = value.get("sources") {
        let sources = string_array(v, "sources").map_err(|e| format!("line {line_number}: {e}"))?;
        if sources.is_empty() {
            return Err(format!("line {line_number}: `sources` must not be empty"));
        }
        bundles.push(BundleSpec::Sources(sources));
    }
    let bundle = match bundles.len() {
        1 => bundles.pop().expect("one bundle"),
        0 => {
            return Err(format!(
                "line {line_number}: a job needs exactly one of `market`, `names` or `sources`"
            ))
        }
        _ => {
            return Err(format!(
                "line {line_number}: `market`, `names` and `sources` are mutually exclusive"
            ))
        }
    };

    let events = match value.get("events") {
        Some(v) => {
            let n = non_negative_integer(v, "events")
                .map_err(|e| format!("line {line_number}: {e}"))?;
            if n == 0 {
                return Err(format!("line {line_number}: `events` must be at least 1"));
            }
            n
        }
        None => 2,
    };
    let workers = match value.get("workers") {
        Some(v) => non_negative_integer(v, "workers")
            .map_err(|e| format!("line {line_number}: {e}"))?
            .max(1),
        None => 1,
    };
    let failures = match value.get("failures") {
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("line {line_number}: `failures` must be a boolean"))?,
        None => false,
    };
    let timeout_ms = match value.get("timeout_ms") {
        Some(v) => Some(
            non_negative_integer(v, "timeout_ms").map_err(|e| format!("line {line_number}: {e}"))?
                as u64,
        ),
        None => None,
    };
    let inject_panic = match value.get("inject_panic") {
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("line {line_number}: `inject_panic` must be a boolean"))?,
        None => false,
    };

    Ok(JobLine::Job(JobSpec { id, bundle, events, workers, failures, timeout_ms, inject_panic }))
}

/// Resolves a bundle spec to concrete Groovy sources (market lookups may
/// fail on out-of-range sizes or unknown names).
pub fn resolve_sources(bundle: &BundleSpec) -> Result<Vec<String>, String> {
    match bundle {
        BundleSpec::Market(n) => {
            let corpus = iotsan_apps::market::market_apps();
            if *n > corpus.len() {
                return Err(format!(
                    "`market` selects {n} apps but the corpus has {}",
                    corpus.len()
                ));
            }
            Ok(corpus.into_iter().take(*n).map(|a| a.source).collect())
        }
        BundleSpec::Named(names) => {
            let corpus = iotsan_apps::market::named_apps();
            names
                .iter()
                .map(|name| {
                    corpus
                        .iter()
                        .find(|a| a.name == *name)
                        .map(|a| a.source.clone())
                        .ok_or_else(|| format!("unknown market app `{name}`"))
                })
                .collect()
        }
        BundleSpec::Sources(sources) => Ok(sources.clone()),
    }
}

/// The built-in market corpus, translated once per process.
#[derive(Debug)]
struct Corpus {
    /// The display names `names` selects by: those of
    /// [`iotsan_apps::market::named_apps`], which are the first apps of
    /// `apps`.
    names: Vec<String>,
    /// Every app of [`iotsan_apps::market::market_apps`], in corpus order.
    apps: Vec<IrApp>,
}

/// The translated corpus, built by the first `market` or `names` bundle
/// this process resolves.  A failed translation is kept too, so every such
/// job answers it as `invalid`.
fn corpus() -> Result<&'static Corpus, String> {
    static CORPUS: OnceLock<Result<Corpus, String>> = OnceLock::new();
    let corpus = CORPUS.get_or_init(|| {
        let market = iotsan_apps::market::market_apps();
        let sources: Vec<&str> = market.iter().map(|a| a.source.as_str()).collect();
        let apps = translate_sources(&sources).map_err(|e| e.to_string())?;
        let names = iotsan_apps::market::named_apps().into_iter().map(|a| a.name).collect();
        Ok(Corpus { names, apps })
    });
    corpus.as_ref().map_err(String::clone)
}

/// Resolves a bundle spec to translated apps, with the same outcomes as
/// [`translate_sources`] over [`resolve_sources`].  `market` and `names`
/// bundles clone their apps from the corpus this process translated once;
/// `sources` bundles are parsed and lowered on every call.
pub fn resolve_apps(bundle: &BundleSpec) -> Result<Vec<IrApp>, String> {
    match bundle {
        BundleSpec::Market(n) => {
            let corpus = corpus()?;
            if *n > corpus.apps.len() {
                return Err(format!(
                    "`market` selects {n} apps but the corpus has {}",
                    corpus.apps.len()
                ));
            }
            Ok(corpus.apps[..*n].to_vec())
        }
        BundleSpec::Named(names) => {
            let corpus = corpus()?;
            names
                .iter()
                .map(|name| {
                    corpus
                        .names
                        .iter()
                        .position(|known| known == name)
                        .map(|index| corpus.apps[index].clone())
                        .ok_or_else(|| format!("unknown market app `{name}`"))
                })
                .collect()
        }
        BundleSpec::Sources(sources) => {
            let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
            translate_sources(&refs).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_market_job_with_defaults() {
        let line = r#"{"market": 8}"#;
        let JobLine::Job(spec) = parse_line(line, 3).unwrap() else { panic!("job expected") };
        assert_eq!(spec.id, "job-3");
        assert_eq!(spec.bundle, BundleSpec::Market(8));
        assert_eq!(
            (spec.events, spec.workers, spec.failures, spec.timeout_ms),
            (2, 1, false, None)
        );
    }

    #[test]
    fn parses_every_field() {
        let line = r#"{"id":"x","names":["Unlock Door"],"events":3,"workers":4,"failures":true,"timeout_ms":500}"#;
        let JobLine::Job(spec) = parse_line(line, 1).unwrap() else { panic!("job expected") };
        assert_eq!(spec.id, "x");
        assert_eq!(spec.bundle, BundleSpec::Named(vec!["Unlock Door".into()]));
        assert_eq!(
            (spec.events, spec.workers, spec.failures, spec.timeout_ms),
            (3, 4, true, Some(500))
        );
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(parse_line(r#"{"op":"shutdown"}"#, 9).unwrap(), JobLine::Shutdown);
        assert_eq!(parse_line(r#"{"op":"metrics"}"#, 1).unwrap(), JobLine::Metrics);
        assert_eq!(parse_line(r#"{"op":"flight"}"#, 2).unwrap(), JobLine::Flight);
    }

    #[test]
    fn rejects_unknown_keys_and_malformed_lines() {
        assert!(parse_line(r#"{"market":8,"event":3}"#, 1).unwrap_err().contains("unknown key"));
        assert!(parse_line("not json", 2).is_err());
        assert!(parse_line(r#"[1,2]"#, 3).unwrap_err().contains("JSON object"));
        assert!(parse_line(r#"{"op":"reboot"}"#, 4).unwrap_err().contains("unknown op"));
    }

    #[test]
    fn rejects_ambiguous_or_missing_bundles() {
        assert!(parse_line(r#"{"events":2}"#, 1).unwrap_err().contains("exactly one"));
        assert!(parse_line(r#"{"market":4,"names":["x"]}"#, 1)
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse_line(r#"{"market":0}"#, 1).unwrap_err().contains("at least one app"));
        assert!(parse_line(r#"{"market":2.5}"#, 1).unwrap_err().contains("integer"));
    }

    #[test]
    fn resolves_market_and_named_bundles() {
        let sources = resolve_sources(&BundleSpec::Market(4)).unwrap();
        assert_eq!(sources.len(), 4);
        assert!(resolve_sources(&BundleSpec::Market(10_000)).is_err());
        assert!(resolve_sources(&BundleSpec::Named(vec!["Unlock Door".into()])).is_ok());
        assert!(resolve_sources(&BundleSpec::Named(vec!["No Such App".into()]))
            .unwrap_err()
            .contains("No Such App"));
    }

    #[test]
    fn the_stored_corpus_is_a_fresh_translation_of_the_market_sources() {
        let sources = resolve_sources(&BundleSpec::Market(150)).unwrap();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let corpus = corpus().unwrap();
        assert_eq!(corpus.apps, translate_sources(&refs).unwrap());
        // `names` indexes `apps` by position: the named apps lead the corpus.
        let market = iotsan_apps::market::market_apps();
        assert!(corpus.names.iter().zip(&market).all(|(name, app)| *name == app.name));
        assert_eq!(corpus.names.len(), iotsan_apps::market::named_apps().len());
    }

    #[test]
    fn parses_and_defaults_inject_panic() {
        let JobLine::Job(spec) = parse_line(r#"{"market":2}"#, 1).unwrap() else { panic!("job") };
        assert!(!spec.inject_panic);
        let JobLine::Job(spec) = parse_line(r#"{"market":2,"inject_panic":true}"#, 1).unwrap()
        else {
            panic!("job")
        };
        assert!(spec.inject_panic);
        assert!(parse_line(r#"{"market":2,"inject_panic":1}"#, 1).unwrap_err().contains("boolean"));
    }

    #[test]
    fn fingerprint_ignores_id_but_nothing_else() {
        let base = |line: &str| match parse_line(line, 1).unwrap() {
            JobLine::Job(spec) => spec.fingerprint(),
            other => panic!("job expected, got {other:?}"),
        };
        // Same work, different correlation ids: same fingerprint.
        assert_eq!(base(r#"{"id":"a","market":4}"#), base(r#"{"id":"b","market":4}"#));
        // Any change to what is verified changes the fingerprint.
        let reference = base(r#"{"market":4}"#);
        for other in [
            r#"{"market":5}"#,
            r#"{"market":4,"events":3}"#,
            r#"{"market":4,"failures":true}"#,
            r#"{"market":4,"timeout_ms":10}"#,
            r#"{"market":4,"inject_panic":true}"#,
            r#"{"names":["x"]}"#,
        ] {
            assert_ne!(reference, base(other), "{other}");
        }
        // Field boundaries matter: two names vs one concatenated name.
        assert_ne!(base(r#"{"names":["ab","c"]}"#), base(r#"{"names":["a","bc"]}"#));
    }

    #[test]
    fn workers_is_accepted_but_ignored() {
        let spec = |line: &str| match parse_line(line, 1).unwrap() {
            JobLine::Job(spec) => spec,
            other => panic!("job expected, got {other:?}"),
        };
        let with = spec(r#"{"market":4,"events":3,"workers":4}"#);
        let without = spec(r#"{"market":4,"events":3}"#);
        assert_eq!(with.workers, 4);
        assert_eq!(with.fingerprint(), without.fingerprint());
        // Still range-checked, so a malformed line is rejected as before.
        for bad in [r#"{"market":4,"workers":-1}"#, r#"{"market":4,"workers":1.5}"#] {
            assert!(parse_line(bad, 1).unwrap_err().contains("workers"), "{bad}");
        }
        assert!(parse_line(r#"{"market":4,"workers":"2"}"#, 1).is_err());
    }
}
