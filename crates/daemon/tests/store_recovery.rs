//! Crash-safety properties of the verdict store (ISSUE PR 7): any byte-level
//! truncation or tail corruption of the log yields either full recovery of a
//! record prefix or an explicit `CorruptTail` skip — never a wrong verdict —
//! and compaction is idempotent.

use iotsan::checker::{SearchReport, SearchStats};
use iotsan::{Fingerprint, GroupResult};
use iotsan_daemon::fault::{Fault, FaultKind, FaultPlan, FaultyIo};
use iotsan_daemon::store::{DiscardReason, Recovery, StoreOptions, VerdictStore};
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

const HEADER_LEN: usize = 16;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotsan-recovery-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("verdicts.log")
}

/// A distinctive verdict per index, so a decoding mix-up can't masquerade as
/// the right answer.
fn sample(i: usize) -> GroupResult {
    let stats = SearchStats {
        states_stored: 3 * i + 1,
        transitions: 7 * i + 2,
        max_depth_reached: i,
        elapsed: Duration::from_micros(i as u64 * 131 + 17),
        states_per_sec: i as f64 * 0.75 + 0.125,
        store_memory_bytes: 64 * i,
        peak_trace_bytes: 8 * i + 3,
        ..SearchStats::default()
    };
    GroupResult {
        apps: vec![format!("App {i}"), format!("Companion {}", i * i)],
        report: SearchReport { violations: Vec::new(), stats },
    }
}

fn build_log(path: &PathBuf, entries: usize) -> Vec<(Fingerprint, GroupResult)> {
    let _ = std::fs::remove_file(path);
    let originals: Vec<(Fingerprint, GroupResult)> =
        (0..entries).map(|i| (Fingerprint(0x1000 + i as u64), sample(i))).collect();
    let mut store = VerdictStore::open(path).unwrap();
    for (fingerprint, result) in &originals {
        store.append(*fingerprint, result).unwrap();
    }
    originals
}

/// Each record's byte range in a log, read straight off its framing.
fn record_spans(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap()) as usize;
        spans.push(pos..pos + 13 + len + 4);
        pos += 13 + len + 4;
    }
    spans
}

/// Whatever survived must be an exact prefix of what was written, value for
/// value — a recovered verdict is always one that was actually stored.
fn assert_prefix(store: &VerdictStore, originals: &[(Fingerprint, GroupResult)]) {
    let survived: Vec<Fingerprint> = store.fingerprints().collect();
    assert!(survived.len() <= originals.len());
    for (i, fingerprint) in survived.iter().enumerate() {
        assert_eq!(*fingerprint, originals[i].0, "survivors must be the written prefix");
        assert_eq!(
            store.get(*fingerprint),
            Some(originals[i].1.clone()),
            "verdict must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_truncation_recovers_a_prefix_or_skips(
        entries in 1usize..6,
        cut_frac in 0u32..10_000,
    ) {
        let path = temp_path("truncate");
        let originals = build_log(&path, entries);
        let bytes = std::fs::read(&path).unwrap();
        let cut = (u64::from(cut_frac) * bytes.len() as u64 / 10_000) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut store = VerdictStore::open(&path).unwrap();
        match store.recovery() {
            Recovery::Fresh => prop_assert_eq!(cut, 0),
            Recovery::Discarded { reason } => {
                // Only a cut inside the 16-byte header discards the log.
                prop_assert!(cut < HEADER_LEN);
                prop_assert_eq!(reason, &DiscardReason::BadHeader);
            }
            Recovery::Clean { records } => {
                // The cut landed exactly on a record boundary.
                prop_assert!(*records <= entries);
                prop_assert_eq!(*records, store.len());
            }
            Recovery::CorruptTail { records, dropped_bytes } => {
                prop_assert!(*records < entries);
                prop_assert!(*dropped_bytes > 0);
            }
        }
        assert_prefix(&store, &originals);

        // The broken tail was truncated off, so the log is append-sound
        // again: a new verdict written now survives the next restart.
        let extra = sample(99);
        store.append(Fingerprint(0xeeee), &extra).unwrap();
        drop(store);
        let reopened = VerdictStore::open(&path).unwrap();
        prop_assert!(matches!(reopened.recovery(), Recovery::Clean { .. }));
        prop_assert_eq!(reopened.get(Fingerprint(0xeeee)), Some(extra.clone()));
    }

    #[test]
    fn any_tail_bitflip_is_skipped_never_trusted(
        entries in 1usize..5,
        pos_frac in 0u32..10_000,
        bit in 0u32..8,
    ) {
        let path = temp_path("bitflip");
        let originals = build_log(&path, entries);
        let mut bytes = std::fs::read(&path).unwrap();
        let body = bytes.len() - HEADER_LEN;
        let pos = HEADER_LEN + (u64::from(pos_frac) * body as u64 / 10_000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let store = VerdictStore::open(&path).unwrap();
        // CRC-32 detects every single-bit error, so replay must stop at the
        // record containing the flip: an explicit skip, never a wrong verdict.
        prop_assert!(
            matches!(store.recovery(), Recovery::CorruptTail { records, .. } if *records < entries),
            "unexpected recovery {:?}",
            store.recovery()
        );
        assert_prefix(&store, &originals);
    }
}

fn fault_kind(which: u8) -> FaultKind {
    match which % 4 {
        0 => FaultKind::ShortWrite,
        1 => FaultKind::NoSpace,
        2 => FaultKind::FsyncFail,
        _ => FaultKind::RenameFail,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any injected append faults, what a fresh process recovers is
    /// exactly the appends the store *acknowledged* (returned `Ok`), in
    /// order — a failed append never half-lands, and the repair after a
    /// torn write keeps later acknowledged appends sound.
    #[test]
    fn fault_injected_appends_recover_exact_acknowledged_prefix(
        entries in 1usize..8,
        fault_codes in proptest::collection::vec(0u64..40, 0..4),
    ) {
        let path = temp_path("fault-append");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan {
            // Each code packs an op index (0..10) and a kind (0..4).
            faults: fault_codes
                .iter()
                .map(|code| Fault { at: code / 4, kind: fault_kind((code % 4) as u8) })
                .collect(),
        };
        let mut store =
            VerdictStore::open_with_io(&path, StoreOptions::default(), Box::new(FaultyIo::new(plan)))
                .unwrap();

        let mut acknowledged: Vec<(Fingerprint, GroupResult)> = Vec::new();
        for i in 0..entries {
            let fingerprint = Fingerprint(0x2000 + i as u64);
            let result = sample(i);
            if store.append(fingerprint, &result).is_ok() {
                acknowledged.push((fingerprint, result));
            }
        }
        drop(store);

        // A fresh process (real I/O) must see exactly the acknowledged set.
        let reopened = VerdictStore::open(&path).unwrap();
        prop_assert!(
            matches!(reopened.recovery(), Recovery::Fresh | Recovery::Clean { .. }),
            "acknowledged-only log must recover cleanly, got {:?}",
            reopened.recovery()
        );
        let survived: Vec<Fingerprint> = reopened.fingerprints().collect();
        let expected: Vec<Fingerprint> = acknowledged.iter().map(|(f, _)| *f).collect();
        prop_assert!(survived == expected, "recovered {survived:?} != acknowledged {expected:?}");
        for (fingerprint, result) in &acknowledged {
            prop_assert_eq!(reopened.get(*fingerprint), Some(result.clone()));
        }
    }

    /// Compaction under any injected fault is all-or-nothing: on failure the
    /// live log's bytes are untouched, the temp file is cleaned up, and the
    /// store still serves every verdict; a later fault-free compaction then
    /// succeeds normally.
    #[test]
    fn fault_injected_compaction_fully_applies_or_fully_rolls_back(
        fault_offset in 0u64..4,
        which in 0u8..4,
    ) {
        let path = temp_path("fault-compact");
        let _ = std::fs::remove_file(&path);
        // 4 appends (ops 0..4), two of them superseding, then a compaction
        // whose three ops (write temp, fsync, rename) start at op 4.
        let plan = FaultPlan {
            faults: vec![Fault { at: 4 + fault_offset, kind: fault_kind(which) }],
        };
        let mut store =
            VerdictStore::open_with_io(&path, StoreOptions::default(), Box::new(FaultyIo::new(plan)))
                .unwrap();
        for (i, fp) in [1u64, 2, 1, 2].iter().enumerate() {
            store.append(Fingerprint(*fp), &sample(i)).unwrap();
        }
        let before = std::fs::read(&path).unwrap();

        let outcome = store.compact();
        let tmp = path.with_extension("compact");
        if outcome.is_err() {
            prop_assert!(std::fs::read(&path).unwrap() == before, "failed compaction must not touch the log");
            prop_assert!(!tmp.exists(), "failed compaction must remove its temp file");
        }
        // Either way the store still serves the latest verdicts...
        prop_assert_eq!(store.get(Fingerprint(1)), Some(sample(2)));
        prop_assert_eq!(store.get(Fingerprint(2)), Some(sample(3)));
        // ...and a later fault-free compaction (indices exhausted) succeeds.
        if outcome.is_err() {
            let stats = store.compact().unwrap();
            prop_assert_eq!(stats.records_after, 2);
            prop_assert_eq!(store.get(Fingerprint(1)), Some(sample(2)));
            prop_assert_eq!(store.get(Fingerprint(2)), Some(sample(3)));
        }
        drop(store);
        let reopened = VerdictStore::open(&path).unwrap();
        prop_assert_eq!(reopened.recovery(), &Recovery::Clean { records: 2 });
        prop_assert_eq!(reopened.get(Fingerprint(1)), Some(sample(2)));
        prop_assert_eq!(reopened.get(Fingerprint(2)), Some(sample(3)));
    }
}

#[test]
fn compaction_is_idempotent() {
    let path = temp_path("idempotent");
    let _ = std::fs::remove_file(&path);
    let mut store = VerdictStore::open(&path).unwrap();
    store.append(Fingerprint(1), &sample(0)).unwrap();
    store.append(Fingerprint(2), &sample(1)).unwrap();
    store.append(Fingerprint(1), &sample(2)).unwrap(); // supersedes
    store.evict(Fingerprint(2)).unwrap(); // tombstone
    store.append(Fingerprint(3), &sample(3)).unwrap();
    assert_eq!((store.records(), store.len(), store.dead_records()), (5, 2, 3));

    let first = store.compact().unwrap();
    assert_eq!((first.records_before, first.records_after), (5, 2));
    assert!(first.bytes_after < first.bytes_before);
    let after_first = std::fs::read(&path).unwrap();

    // Compacting an already-compact log rewrites the identical bytes.
    let second = store.compact().unwrap();
    assert_eq!((second.records_before, second.records_after), (2, 2));
    assert_eq!((second.bytes_before, second.bytes_after), (first.bytes_after, first.bytes_after));
    assert_eq!(std::fs::read(&path).unwrap(), after_first);

    // Last write won, the tombstoned entry is gone, and a reopen is clean.
    assert_eq!(store.get(Fingerprint(1)), Some(sample(2)));
    assert!(!store.contains(Fingerprint(2)));
    drop(store);
    let reopened = VerdictStore::open(&path).unwrap();
    assert_eq!(*reopened.recovery(), Recovery::Clean { records: 2 });
    assert_eq!(reopened.get(Fingerprint(1)), Some(sample(2)));
    assert_eq!(reopened.get(Fingerprint(3)), Some(sample(3)));
}

#[test]
fn a_log_in_an_older_format_is_discarded_whole() {
    // Format 1 verdicts carried a search worker count that format 2 no
    // longer encodes; such a log must be recreated, never decoded.
    let path = temp_path("old-format");
    build_log(&path, 3);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(
        *store.recovery(),
        Recovery::Discarded { reason: DiscardReason::StoreFormat { found: 1 } }
    );
    assert!(store.is_empty());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
}

#[test]
fn capacity_and_auto_compaction_knobs() {
    let path = temp_path("knobs");
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions { max_entries: Some(2), compact_after_dead: None };
    let mut store = VerdictStore::open_with(&path, options).unwrap();
    for i in 0..4 {
        store.append(Fingerprint(i), &sample(i as usize)).unwrap();
    }
    // FIFO eviction kept the two newest verdicts.
    assert_eq!(store.len(), 2);
    assert!(!store.contains(Fingerprint(0)) && !store.contains(Fingerprint(1)));
    assert!(store.contains(Fingerprint(2)) && store.contains(Fingerprint(3)));
    drop(store);

    // Auto-compaction reclaims the dead records as soon as the threshold is
    // crossed: the log never holds more than threshold-1 dead records after
    // a mutation.
    let auto = StoreOptions { max_entries: Some(2), compact_after_dead: Some(3) };
    let mut store = VerdictStore::open_with(&path, auto).unwrap();
    for i in 10..20 {
        store.append(Fingerprint(i), &sample(i as usize)).unwrap();
        assert!(store.dead_records() < 3, "dead records at {i}: {}", store.dead_records());
    }
    assert_eq!(store.len(), 2);
}

/// A seeded sequence of puts, re-puts of live keys and evicts under a
/// `max_entries` cap, checked op by op against a `VecDeque` + `retain`
/// reference model of the FIFO queue: the same live order and set, the
/// same dead-record count, the same order after a reopen (whose
/// flight-recorder event gives its bytes and time), and a compaction
/// byte-identical to a fresh log written in that order.
#[test]
fn capped_fifo_order_matches_a_reference_queue() {
    use std::collections::{BTreeMap, VecDeque};

    const MAX: usize = 12;
    for seed in [1u64, 0x9e37_79b9, 0xdead_beef] {
        let path = temp_path(&format!("fifo-model-{seed:x}"));
        let _ = std::fs::remove_file(&path);
        let options = StoreOptions { max_entries: Some(MAX), compact_after_dead: None };
        let mut store = VerdictStore::open_with(&path, options).unwrap();

        let mut queue: VecDeque<Fingerprint> = VecDeque::new();
        let mut model: BTreeMap<Fingerprint, GroupResult> = BTreeMap::new();
        let mut records = 0usize;
        let mut state = seed;
        let mut next_key = 0u64;
        for step in 0..1500usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pick = (state >> 32) as usize;
            let live_key = (!queue.is_empty()).then(|| queue[pick % queue.len()]);
            match (state % 10, live_key) {
                // Re-put a live key: it moves to the back of the queue.
                (0..=2, Some(key)) => {
                    store.append(key, &sample(step)).unwrap();
                    queue.retain(|f| *f != key);
                    queue.push_back(key);
                    model.insert(key, sample(step));
                    records += 1;
                }
                // Evict a live key with a tombstone.
                (3 | 4, Some(key)) => {
                    assert!(store.evict(key).unwrap());
                    queue.retain(|f| *f != key);
                    model.remove(&key);
                    records += 1;
                }
                // Put a new key, evicting the oldest beyond the cap.
                _ => {
                    let key = Fingerprint(next_key);
                    next_key += 1;
                    store.append(key, &sample(step)).unwrap();
                    queue.push_back(key);
                    model.insert(key, sample(step));
                    records += 1;
                    while queue.len() > MAX {
                        let oldest = queue.pop_front().unwrap();
                        model.remove(&oldest);
                        records += 1;
                    }
                }
            }
            assert!(store.fingerprints().eq(queue.iter().copied()), "seed {seed:x}, step {step}");
            assert_eq!((store.records(), store.len()), (records, model.len()));
        }
        assert!(!store.evict(Fingerprint(u64::MAX)).unwrap(), "a dead key writes no tombstone");
        for (fingerprint, result) in &model {
            assert_eq!(store.get(*fingerprint), Some(result.clone()));
        }
        drop(store);

        let mut reopened = VerdictStore::open_with(&path, options).unwrap();
        assert_eq!(*reopened.recovery(), Recovery::Clean { records });
        // The replay event gives the bytes replayed and the time taken.
        let replayed = format!(
            "clean replay of {records} record(s), {} byte(s) in ",
            reopened.file_bytes().unwrap()
        );
        assert!(
            iotsan_telemetry::flight::events()
                .iter()
                .any(|event| event.detail.starts_with(&replayed) && event.detail.ends_with(" ms")),
            "no flight event starting `{replayed}`"
        );
        assert!(reopened.fingerprints().eq(queue.iter().copied()));
        assert_eq!(reopened.dead_records(), records - model.len());
        reopened.compact().unwrap();
        for (fingerprint, result) in &model {
            assert_eq!(reopened.get(*fingerprint), Some(result.clone()));
        }

        // Compaction writes exactly what appending the live queue in order
        // to a fresh log writes.
        let fresh = temp_path(&format!("fifo-model-fresh-{seed:x}"));
        let _ = std::fs::remove_file(&fresh);
        let mut reference = VerdictStore::open(&fresh).unwrap();
        for fingerprint in &queue {
            reference.append(*fingerprint, &model[fingerprint]).unwrap();
        }
        drop(reference);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&fresh).unwrap());
    }
}

/// Damages the log of five verdicts under an open store with `damage`
/// (given the path and each record's byte range; it returns the indices of
/// the records it broke), then checks that every damaged record reads
/// as a miss with a warning, every other verdict reads back exact, and a
/// compaction keeps exactly the verdicts that still read back.
fn damaged_after_open_reads_as_a_miss(
    name: &str,
    damage: impl FnOnce(&Path, &[Range<usize>]) -> Range<usize>,
) {
    let path = temp_path(name);
    let originals = build_log(&path, 5);
    let mut store = VerdictStore::open(&path).unwrap();
    let spans = record_spans(&std::fs::read(&path).unwrap());
    let broken = damage(&path, &spans);

    let lost = |i: usize| broken.contains(&i);
    for (i, (fingerprint, result)) in originals.iter().enumerate() {
        let expected = (!lost(i)).then(|| result.clone());
        assert_eq!(store.get(*fingerprint), expected, "{name}: verdict {i}");
    }
    let warning = format!(
        "verdict {} at byte {} no longer reads back",
        originals[broken.start].0, spans[broken.start].start
    );
    assert!(
        iotsan_telemetry::flight::events().iter().any(|event| event.detail.starts_with(&warning)),
        "{name}: no flight event starting `{warning}`"
    );

    // Compaction copies only records that still read back, so the new log
    // replays cleanly with every surviving verdict.
    let kept = (0..originals.len()).filter(|&i| !lost(i)).count();
    assert_eq!(store.compact().unwrap().records_after, kept);
    drop(store);
    let reopened = VerdictStore::open(&path).unwrap();
    assert_eq!(*reopened.recovery(), Recovery::Clean { records: kept });
    for (i, (fingerprint, result)) in originals.iter().enumerate() {
        let expected = (!lost(i)).then(|| result.clone());
        assert_eq!(reopened.get(*fingerprint), expected, "{name}: verdict {i} after compaction");
    }
}

#[test]
fn a_payload_bit_flipped_after_open_reads_as_a_miss() {
    damaged_after_open_reads_as_a_miss("damaged-bitflip", |path, spans| {
        let mut bytes = std::fs::read(path).unwrap();
        let middle = (spans[2].start + spans[2].end) / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(path, &bytes).unwrap();
        2..3
    });
}

#[test]
fn a_log_truncated_below_a_live_record_after_open_reads_as_a_miss() {
    damaged_after_open_reads_as_a_miss("damaged-truncate", |path, spans| {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(spans[3].start as u64 + 5).unwrap();
        3..5
    });
}

/// FNV-1a 64 over a verdict's `Debug` text: a compact stand-in for
/// comparing whole verdicts against ones another build decoded.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `tests/data/verdicts-format8.log` was written by `iotsand` when the
/// store still decoded every record on open: a batch of three market and
/// named-app jobs, then one job under `--max-entries 5`, so it holds seven
/// records: five live verdicts (with counterexamples and shared traces),
/// one evicted put and its tombstone.  The `.digests` file lists, in live
/// order, each fingerprint with the `fnv1a` of the `Debug` text that
/// build's `get` returned.  Lazy decoding must serve the same verdicts.  A change of
/// `FORMAT_VERSION` or `ANALYSIS_VERSION` discards this log on open; such a
/// change must write the fixture again from the build before it.
#[test]
fn a_log_written_by_the_eager_decoder_reads_back_verdict_for_verdict() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let path = temp_path("format8-fixture");
    std::fs::copy(data.join("verdicts-format8.log"), &path).unwrap();
    let digests = std::fs::read_to_string(data.join("verdicts-format8.digests")).unwrap();
    let expected: Vec<(Fingerprint, u64)> = digests
        .lines()
        .map(|line| {
            let (fingerprint, digest) = line.split_once(' ').unwrap();
            let hex = |text: &str| u64::from_str_radix(text, 16).unwrap();
            (Fingerprint(hex(fingerprint)), hex(digest))
        })
        .collect();

    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(*store.recovery(), Recovery::Clean { records: 7 });
    assert!(store.fingerprints().eq(expected.iter().map(|(fingerprint, _)| *fingerprint)));
    for (fingerprint, digest) in &expected {
        let result = store.get(*fingerprint).expect("every live verdict reads back");
        assert_eq!(fnv1a(&format!("{result:?}")), *digest, "verdict {fingerprint}");
    }
}
