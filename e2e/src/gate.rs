//! The verdict gate: per-unit verdict digests checked against committed
//! goldens (`golden/<workload>.txt`, one `<unit> <digest>` line each).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The committed goldens, compiled in so a run never depends on where the
/// binary was started from.
pub fn committed(workload: &str) -> &'static str {
    match workload {
        "market-cold" => include_str!("../golden/market-cold.txt"),
        "deep-group" => include_str!("../golden/deep-group.txt"),
        "daemon-warm" => include_str!("../golden/daemon-warm.txt"),
        "daemon-ingest" => include_str!("../golden/daemon-ingest.txt"),
        other => panic!("no golden for workload `{other}`"),
    }
}

/// Where `--write-golden` writes a workload's golden.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{workload}.txt"))
}

/// A parsed golden: unit key → digest.
#[derive(Debug, Default)]
pub struct Golden {
    entries: BTreeMap<String, u64>,
}

impl Golden {
    /// Parses `<unit> <hex digest>` lines; blank lines and `#` comments are
    /// skipped, and a malformed line is an error naming it.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line
                .rsplit_once(' ')
                .and_then(|(key, hex)| Some((key, u64::from_str_radix(hex, 16).ok()?)));
            let Some((key, digest)) = parsed else {
                return Err(format!(
                    "golden line {}: `{line}` is not `<unit> <hex digest>`",
                    n + 1
                ));
            };
            entries.insert(key.to_string(), digest);
        }
        Ok(Golden { entries })
    }

    /// Checks one unit's digest.  `Ok(false)` means the golden has no entry
    /// for the unit; a differing entry is an error naming workload and unit.
    pub fn check(&self, workload: &str, unit: &str, digest: u64) -> Result<bool, String> {
        match self.entries.get(unit) {
            None => Ok(false),
            Some(&want) if want == digest => Ok(true),
            Some(&want) => Err(format!(
                "verdict mismatch: workload {workload}, unit {unit}: digest {digest:016x}, golden {want:016x}"
            )),
        }
    }
}

/// Renders a golden file from `(unit, digest)` pairs in the order given,
/// one line per unit.  A unit seen twice must have produced the same
/// verdict both times (a pass in another submission order, a repeated warm
/// job); otherwise there is no golden to write.
pub fn render(header: &str, entries: &[(String, u64)]) -> Result<String, String> {
    let mut seen = BTreeMap::new();
    let mut out = format!("# {header}\n");
    for (unit, digest) in entries {
        match seen.insert(unit.as_str(), *digest) {
            None => out.push_str(&format!("{unit} {digest:016x}\n")),
            Some(first) if first != *digest => {
                return Err(format!(
                    "unit {unit} produced two verdicts: {first:016x} and {digest:016x}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_golden_entry_fails_the_gate() {
        let text = render(
            "test",
            &[("pass".into(), 0xfeed), ("other".into(), 7), ("pass".into(), 0xfeed)],
        )
        .unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(render("test", &[("pass".into(), 1), ("pass".into(), 2)])
            .unwrap_err()
            .contains("two verdicts"));
        let golden = Golden::parse(&text).unwrap();
        assert_eq!(golden.check("market-cold", "pass", 0xfeed), Ok(true));
        assert_eq!(golden.check("market-cold", "absent", 1), Ok(false));

        let corrupted =
            Golden::parse(&text.replace("000000000000feed", "000000000000beef")).unwrap();
        let err = corrupted.check("market-cold", "pass", 0xfeed).unwrap_err();
        assert!(err.contains("market-cold") && err.contains("unit pass"), "{err}");

        assert!(Golden::parse("pass not-hex\n").unwrap_err().contains("line 1"));
    }

    #[test]
    fn committed_goldens_parse() {
        for workload in ["market-cold", "deep-group", "daemon-warm", "daemon-ingest"] {
            let golden = Golden::parse(committed(workload)).unwrap();
            assert!(!golden.entries.is_empty(), "{workload} golden is empty");
        }
    }
}
