//! The durable, fingerprint-keyed verdict store.
//!
//! An append-only log on disk holding complete group verdicts keyed by the
//! planner's content [`Fingerprint`]s — the persistence layer behind
//! `iotsand`'s warm restarts.  Layout:
//!
//! ```text
//! ┌────────────────────────── header (16 bytes) ──────────────────────────┐
//! │ magic "IOTSANVS" │ store format u32 LE │ ANALYSIS_VERSION u32 LE      │
//! ├──────────────────────────── records ──────────────────────────────────┤
//! │ tag u8 │ fingerprint u64 LE │ len u32 LE │ payload (len) │ CRC-32 LE  │
//! │  1=put │                    │            │ encoded       │ over tag…  │
//! │  2=evict (len = 0)          │            │ GroupResult   │ …payload   │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Replay on [`VerdictStore::open`] checks every record's framing and CRC
//! and applies them in order (last write wins, tombstones delete) to an
//! index of where each live verdict's record sits; it decodes none of them.
//! A truncated or corrupted *tail* — the half record a crash mid-append
//! leaves behind — fails its CRC or bounds check and is explicitly
//! **skipped and truncated away** ([`Recovery::CorruptTail`]), never
//! trusted.  [`VerdictStore::get`] reads its record back with a positioned
//! read, checks the CRC again and decodes it; a record that no longer reads
//! back is a miss, so the caller re-verifies.  The header folds
//! [`iotsan::analysis::ANALYSIS_VERSION`]: a log written under different
//! effect-summary semantics is discarded wholesale on open
//! ([`Recovery::Discarded`]), so stale analysis never replays.
//! [`VerdictStore::compact`] rewrites the log without superseded or evicted
//! records by copying the live records' bytes, atomically (write-temp +
//! rename) and idempotently.

use crate::codec::{crc32, decode_group_result, encode_group_result};
use crate::fault::{RealIo, StoreIo};
use iotsan::{Fingerprint, GroupResult};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::METRICS;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The 8-byte magic prefix of a verdict log.
pub const MAGIC: [u8; 8] = *b"IOTSANVS";

/// The on-disk format version this build reads and writes.  Version 2
/// dropped the per-verdict search worker count; version 3 marks the change
/// of every group fingerprint when the state-store kind left the key (the
/// records would otherwise sit orphaned under keys nothing looks up);
/// version 4 added the search's fixpoint depth to each verdict, and every
/// fingerprint changed again when the search order left the key; version 5
/// marks that every fingerprint changed when app digests began to be
/// computed once per plan; version 6 marks that a fresh search stores fewer
/// states than the verdicts under the same keys record, once the sequential
/// model merged sensor readings no reader can tell apart; version 7 adds
/// each counterexample's action path to its verdict, and every fingerprint
/// changed when a group's key became its renaming class plus its names;
/// version 8 writes a co-violation's shared trace as a back-reference and
/// each log owner as a position in the record's app list.
pub const FORMAT_VERSION: u32 = 8;

const HEADER_LEN: usize = 16;
const RECORD_HEAD_LEN: usize = 1 + 8 + 4; // tag + fingerprint + payload length
pub(crate) const TAG_PUT: u8 = 1;
const TAG_EVICT: u8 = 2;

/// What [`VerdictStore::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// No log existed (or it was empty); a fresh one was created.
    Fresh,
    /// Every record replayed cleanly.
    Clean {
        /// Number of records replayed.
        records: usize,
    },
    /// The log's tail was truncated or corrupted — the surviving prefix
    /// replayed cleanly and the broken tail was *skipped* (and truncated
    /// off so future appends start from a sound offset), never decoded.
    CorruptTail {
        /// Number of records that replayed cleanly before the broken tail.
        records: usize,
        /// Bytes of broken tail dropped.
        dropped_bytes: u64,
    },
    /// The whole log was discarded (and recreated fresh) because its header
    /// did not match this build.
    Discarded {
        /// Why the log could not be trusted.
        reason: DiscardReason,
    },
}

/// Why an existing log was discarded on open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscardReason {
    /// Too short, or the magic bytes did not match.
    BadHeader,
    /// Written by a different on-disk format version.
    StoreFormat {
        /// The version found in the header.
        found: u32,
    },
    /// Written under a different [`iotsan::analysis::ANALYSIS_VERSION`]:
    /// verdicts of groups formed by older effect-summary semantics must
    /// never replay as current ones.
    AnalysisVersion {
        /// The analysis version found in the header.
        found: u32,
    },
}

/// Tuning knobs for a [`VerdictStore`]; the defaults keep everything and
/// never compact on their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOptions {
    /// Capacity cap: when set, appending beyond `max_entries` live verdicts
    /// evicts the oldest (least recently written) entries with tombstones.
    /// `None` (default) keeps everything.
    pub max_entries: Option<usize>,
    /// Auto-compaction threshold: when set, any append or evict that leaves
    /// at least this many dead records (superseded puts + tombstones and
    /// their targets) in the log triggers [`VerdictStore::compact`]
    /// automatically.  `None` (default) compacts only on explicit request.
    pub compact_after_dead: Option<usize>,
}

/// What a [`VerdictStore::compact`] pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records in the log before compaction.
    pub records_before: usize,
    /// Records after (one per live verdict).
    pub records_after: usize,
    /// Log size in bytes before compaction.
    pub bytes_before: u64,
    /// Log size in bytes after.
    pub bytes_after: u64,
}

/// A durable, fingerprint-keyed store of group verdicts over an append-only
/// CRC-guarded log (see the module docs for the record format).
///
/// The store keeps an *index plus journal*, not a paging database: in
/// memory it holds only where each live verdict's record sits in the log,
/// so `get` is a map lookup plus one positioned read and decode, and every
/// mutation is one appended record.
#[derive(Debug)]
pub struct VerdictStore {
    path: PathBuf,
    /// The log, opened for reading (`get`'s positioned reads) and appending.
    file: File,
    live: Live,
    /// Records currently in the log file (live + dead).
    records: usize,
    recovery: Recovery,
    options: StoreOptions,
    /// The disk seam every steady-state mutation goes through (see
    /// [`StoreIo`]); [`RealIo`] in production, a fault injector in tests
    /// and the chaos harness.
    io: Box<dyn StoreIo>,
    /// Byte offset of the last fully acknowledged record: everything below
    /// it replays.  A failed append truncates back to it so torn bytes
    /// never sit between acknowledged records.
    sound_len: u64,
    /// Set when a failed append could not be truncated away: the log's
    /// tail is untrusted, so further appends fail fast rather than land
    /// after a tear.  [`VerdictStore::reopen`] or a successful
    /// [`VerdictStore::compact`] clears it.
    broken: bool,
}

/// Where one record sits in the log: its first byte and its whole length
/// (head, payload and CRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    offset: u64,
    len: usize,
}

/// The live verdicts' records and their (re)insertion order — the FIFO
/// eviction queue and the deterministic record order compaction writes.
/// Each entry carries the sequence number of its latest put and `order`
/// maps those numbers back to keys, so superseding, deleting and evicting
/// the oldest entry are each O(log n) however many entries are live.
#[derive(Debug, Default)]
struct Live {
    entries: BTreeMap<Fingerprint, (u64, Extent)>,
    order: BTreeMap<u64, Fingerprint>,
    next_seq: u64,
}

impl Live {
    /// Inserts or replaces `fingerprint`'s record as the newest entry.
    fn put(&mut self, fingerprint: Fingerprint, extent: Extent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some((superseded, _)) = self.entries.insert(fingerprint, (seq, extent)) {
            self.order.remove(&superseded);
        }
        self.order.insert(seq, fingerprint);
    }

    fn remove(&mut self, fingerprint: Fingerprint) {
        if let Some((seq, _)) = self.entries.remove(&fingerprint) {
            self.order.remove(&seq);
        }
    }

    /// Live keys, oldest first.
    fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.order.values().copied()
    }
}

/// What recovery loads from disk — shared by open and [`VerdictStore::reopen`].
struct Loaded {
    file: File,
    live: Live,
    records: usize,
    recovery: Recovery,
    sound_len: u64,
    /// Wall time of the read and replay.
    elapsed: Duration,
}

fn header_bytes() -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&iotsan::analysis::ANALYSIS_VERSION.to_le_bytes());
    header
}

/// Flushes one recovery outcome to the telemetry registry and flight
/// recorder (shared by open and [`VerdictStore::reopen`]).  A fresh store
/// replayed nothing, so it records nothing; a replay says how many bytes
/// it read back and how long the read and replay took.
fn record_recovery(loaded: &Loaded) {
    let replayed_bytes = loaded.sound_len;
    let ms = loaded.elapsed.as_secs_f64() * 1e3;
    match &loaded.recovery {
        Recovery::Fresh => {}
        Recovery::Clean { records } => {
            METRICS.store_recoveries.inc();
            flight::record(
                Level::Info,
                EventCode::StoreRecover,
                &format!(
                    "clean replay of {records} record(s), {replayed_bytes} byte(s) in {ms:.1} ms"
                ),
            );
        }
        Recovery::CorruptTail { records, dropped_bytes } => {
            METRICS.store_recoveries.inc();
            METRICS.store_corrupt_tails.inc();
            flight::record(
                Level::Warn,
                EventCode::StoreRecover,
                &format!(
                    "corrupt tail: {records} record(s) replayed, {replayed_bytes} byte(s) in \
                     {ms:.1} ms, {dropped_bytes} trailing byte(s) truncated"
                ),
            );
        }
        Recovery::Discarded { reason } => {
            METRICS.store_recoveries.inc();
            METRICS.store_corrupt_tails.inc();
            flight::record(
                Level::Warn,
                EventCode::StoreRecover,
                &format!("log discarded and restarted: {reason:?}"),
            );
        }
    }
}

/// A record whose framing and CRC check out.
struct Frame {
    tag: u8,
    fingerprint: Fingerprint,
    /// Bytes the whole record takes.
    len: usize,
}

/// Frames the record starting at `bytes[0]` without decoding its payload;
/// any shortfall, bad tag or CRC mismatch is `None` (an untrusted tail).
fn frame(bytes: &[u8]) -> Option<Frame> {
    if bytes.len() < RECORD_HEAD_LEN {
        return None;
    }
    let tag = bytes[0];
    if tag != TAG_PUT && tag != TAG_EVICT {
        return None;
    }
    let fingerprint = Fingerprint(u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes")));
    let len = u32::from_le_bytes(bytes[9..13].try_into().expect("4 bytes")) as usize;
    if tag == TAG_EVICT && len != 0 {
        return None;
    }
    let body_end = RECORD_HEAD_LEN.checked_add(len)?;
    let total = body_end.checked_add(4)?;
    if bytes.len() < total {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes[body_end..total].try_into().expect("4 bytes"));
    if crc32(&bytes[..body_end]) != stored_crc {
        return None;
    }
    Some(Frame { tag, fingerprint, len: total })
}

/// Opens a log for `get`'s positioned reads and for appends.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new().read(true).append(true).open(path)
}

pub(crate) fn record_bytes(tag: u8, fingerprint: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEAD_LEN + payload.len() + 4);
    out.push(tag);
    out.extend_from_slice(&fingerprint.0.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

impl VerdictStore {
    /// Opens (or creates) the verdict log at `path` with default
    /// [`StoreOptions`], replaying every trustworthy record.
    ///
    /// ```
    /// use iotsan_daemon::store::{Recovery, VerdictStore};
    ///
    /// let dir = std::env::temp_dir().join("iotsan-store-doc-open");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("verdicts.log");
    /// # let _ = std::fs::remove_file(&path);
    ///
    /// // First open creates a fresh log...
    /// let store = VerdictStore::open(&path).unwrap();
    /// assert_eq!(*store.recovery(), Recovery::Fresh);
    /// assert!(store.is_empty());
    /// drop(store);
    ///
    /// // ...and a reopen replays it (cleanly, when nothing was torn).
    /// let reopened = VerdictStore::open(&path).unwrap();
    /// assert_eq!(*reopened.recovery(), Recovery::Clean { records: 0 });
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, StoreOptions::default())
    }

    /// [`VerdictStore::open`] with explicit capacity/compaction knobs.
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> io::Result<Self> {
        Self::open_with_io(path, options, Box::new(RealIo))
    }

    /// [`VerdictStore::open_with`] over an explicit [`StoreIo`] seam —
    /// how tests and the chaos harness substitute a
    /// [`crate::fault::FaultyIo`] for the real disk.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        options: StoreOptions,
        io: Box<dyn StoreIo>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut io = io;
        let loaded = Self::load(&path, io.as_mut())?;
        record_recovery(&loaded);
        Ok(VerdictStore {
            path,
            file: loaded.file,
            live: loaded.live,
            records: loaded.records,
            recovery: loaded.recovery,
            options,
            io,
            sound_len: loaded.sound_len,
            broken: false,
        })
    }

    /// Replays the log at `path`.  Recovery's own repairs (header rewrite,
    /// tail truncation) go straight to the filesystem — the faultable
    /// surface is steady-state mutation, not crash repair (see [`StoreIo`]).
    fn load(path: &Path, io: &mut dyn StoreIo) -> io::Result<Loaded> {
        let started = Instant::now();
        let bytes = match io.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let mut live = Live::default();
        let mut records = 0usize;
        let mut sound_len = HEADER_LEN as u64;

        let recovery = if bytes.is_empty() {
            fs::write(path, header_bytes())?;
            Recovery::Fresh
        } else if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
            fs::write(path, header_bytes())?;
            Recovery::Discarded { reason: DiscardReason::BadHeader }
        } else {
            let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
            let analysis = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
            if format != FORMAT_VERSION {
                fs::write(path, header_bytes())?;
                Recovery::Discarded { reason: DiscardReason::StoreFormat { found: format } }
            } else if analysis != iotsan::analysis::ANALYSIS_VERSION {
                fs::write(path, header_bytes())?;
                Recovery::Discarded { reason: DiscardReason::AnalysisVersion { found: analysis } }
            } else {
                // Replay until the log ends or a record stops being
                // trustworthy; everything after the first broken byte is an
                // untrusted tail.
                let mut pos = HEADER_LEN;
                loop {
                    if pos == bytes.len() {
                        sound_len = pos as u64;
                        break Recovery::Clean { records };
                    }
                    match frame(&bytes[pos..]) {
                        Some(Frame { tag, fingerprint, len }) => {
                            if tag == TAG_PUT {
                                live.put(fingerprint, Extent { offset: pos as u64, len });
                            } else {
                                live.remove(fingerprint);
                            }
                            records += 1;
                            pos += len;
                        }
                        None => {
                            let dropped_bytes = (bytes.len() - pos) as u64;
                            let keep = OpenOptions::new().write(true).open(path)?;
                            keep.set_len(pos as u64)?;
                            keep.sync_all()?;
                            sound_len = pos as u64;
                            break Recovery::CorruptTail { records, dropped_bytes };
                        }
                    }
                }
            }
        };

        let file = open_log(path)?;
        Ok(Loaded { file, live, records, recovery, sound_len, elapsed: started.elapsed() })
    }

    /// Re-runs recovery over the same path, options and [`StoreIo`] —
    /// the degraded daemon's repair probe.  On success the in-memory index
    /// is rebuilt from what actually survived on disk (so the store and
    /// the log can never disagree after a failed append) and the broken
    /// flag clears; on failure the store is left exactly as it was.
    pub fn reopen(&mut self) -> io::Result<&Recovery> {
        let loaded = Self::load(&self.path, self.io.as_mut())?;
        record_recovery(&loaded);
        self.file = loaded.file;
        self.live = loaded.live;
        self.records = loaded.records;
        self.recovery = loaded.recovery;
        self.sound_len = loaded.sound_len;
        self.broken = false;
        Ok(&self.recovery)
    }

    /// Appends (or replaces) the verdict for `fingerprint`, applying the
    /// [`StoreOptions`] capacity and auto-compaction knobs afterwards.
    ///
    /// The record hits the OS immediately (`write_all`); call
    /// [`VerdictStore::sync`] to force it to physical storage at batch
    /// boundaries.
    ///
    /// ```
    /// use iotsan::{Fingerprint, GroupResult};
    /// use iotsan_daemon::store::VerdictStore;
    ///
    /// let dir = std::env::temp_dir().join("iotsan-store-doc-append");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("verdicts.log");
    /// # let _ = std::fs::remove_file(&path);
    ///
    /// let verdict = GroupResult { apps: vec!["Unlock Door".into()], report: Default::default() };
    /// let mut store = VerdictStore::open(&path).unwrap();
    /// store.append(Fingerprint(0xfeed), &verdict).unwrap();
    /// drop(store);
    ///
    /// // The verdict survives a restart, byte-identically.
    /// let reopened = VerdictStore::open(&path).unwrap();
    /// assert_eq!(reopened.get(Fingerprint(0xfeed)), Some(verdict));
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn append(&mut self, fingerprint: Fingerprint, result: &GroupResult) -> io::Result<()> {
        let mut payload = Vec::new();
        encode_group_result(result, &mut payload);
        let record = record_bytes(TAG_PUT, fingerprint, &payload);
        let offset = self.sound_len;
        self.write_record(&record)?;
        self.live.put(fingerprint, Extent { offset, len: record.len() });

        if let Some(max) = self.options.max_entries {
            while self.len() > max {
                let oldest = self.live.fingerprints().next().expect("entries is non-empty");
                self.write_evict(oldest)?;
            }
        }
        self.maybe_auto_compact()
    }

    /// Appends one encoded record, keeping the log sound whatever happens:
    /// on success the acknowledged offset advances; on failure any torn
    /// bytes are truncated back off, and if even that repair fails the
    /// store marks itself broken so no later append can land after an
    /// untrusted tail: appends then fail fast until
    /// [`VerdictStore::reopen`] or [`VerdictStore::compact`] restores a
    /// sound tail.
    fn write_record(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(
                "verdict log has an unrepaired torn tail; reopen or compact to recover",
            ));
        }
        match self.io.append(&mut self.file, bytes) {
            Ok(()) => {
                self.sound_len += bytes.len() as u64;
                self.records += 1;
                METRICS.store_appends.inc();
                flight::record(
                    Level::Debug,
                    EventCode::StoreAppend,
                    &format!("{} byte(s), log now {} record(s)", bytes.len(), self.records),
                );
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.sound_len).is_err() {
                    self.broken = true;
                }
                Err(e)
            }
        }
    }

    /// Writes a tombstone for `fingerprint` (when live), dropping it from
    /// the store; returns whether anything was evicted.
    pub fn evict(&mut self, fingerprint: Fingerprint) -> io::Result<bool> {
        if !self.contains(fingerprint) {
            return Ok(false);
        }
        self.write_evict(fingerprint)?;
        self.maybe_auto_compact()?;
        Ok(true)
    }

    fn write_evict(&mut self, fingerprint: Fingerprint) -> io::Result<()> {
        self.write_record(&record_bytes(TAG_EVICT, fingerprint, &[]))?;
        self.live.remove(fingerprint);
        Ok(())
    }

    fn maybe_auto_compact(&mut self) -> io::Result<()> {
        if let Some(threshold) = self.options.compact_after_dead {
            if self.dead_records() >= threshold.max(1) {
                self.compact()?;
            }
        }
        Ok(())
    }

    /// Rewrites the log with exactly one record per live verdict (in
    /// insertion order), dropping superseded puts and tombstones.  Atomic
    /// (temp file + rename) and idempotent: compacting an already-compact
    /// log rewrites the identical bytes.
    ///
    /// ```
    /// use iotsan::{Fingerprint, GroupResult};
    /// use iotsan_daemon::store::VerdictStore;
    ///
    /// let dir = std::env::temp_dir().join("iotsan-store-doc-compact");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("verdicts.log");
    /// # let _ = std::fs::remove_file(&path);
    ///
    /// let old = GroupResult { apps: vec!["v1".into()], report: Default::default() };
    /// let new = GroupResult { apps: vec!["v2".into()], report: Default::default() };
    /// let mut store = VerdictStore::open(&path).unwrap();
    /// store.append(Fingerprint(7), &old).unwrap();
    /// store.append(Fingerprint(7), &new).unwrap(); // supersedes: 1 dead record
    /// assert_eq!((store.records(), store.dead_records()), (2, 1));
    ///
    /// let stats = store.compact().unwrap();
    /// assert_eq!((stats.records_before, stats.records_after), (2, 1));
    /// assert_eq!(store.get(Fingerprint(7)), Some(new)); // last write won
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let bytes_before = fs::metadata(&self.path)?.len();
        let records_before = self.records;

        // Copy each live record's bytes in insertion order, checked again
        // on the way: a record that no longer reads back is a miss already,
        // and copying it would plant a broken record mid-log.
        let mut out = Vec::with_capacity(self.sound_len as usize);
        out.extend_from_slice(&header_bytes());
        let mut moved = Vec::with_capacity(self.len());
        let mut lost = Vec::new();
        for (&seq, &fingerprint) in &self.live.order {
            let (_, extent) = self.live.entries[&fingerprint];
            let offset = out.len();
            out.resize(offset + extent.len, 0);
            match self.read_record(fingerprint, extent, &mut out[offset..]) {
                Ok(()) => {
                    moved.push((fingerprint, seq, Extent { offset: offset as u64, ..extent }))
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    out.truncate(offset);
                    lost.push(fingerprint);
                    self.warn_unreadable(fingerprint, extent, &e);
                }
                Err(e) => return Err(e),
            }
        }

        // All-or-nothing: a failure at any step leaves the live log and the
        // index untouched (the temp file is removed, never half-renamed),
        // so a failed compaction degrades nothing.  The new log's handle is
        // opened before the rename, so it follows the file into place.
        let tmp = self.path.with_extension("compact-tmp");
        let staged = self.io.write(&tmp, &out).and_then(|()| open_log(&tmp)).and_then(|file| {
            self.io.fsync(&file)?;
            self.io.rename(&tmp, &self.path)?;
            Ok(file)
        });
        match staged {
            Ok(file) => self.file = file,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        }
        for fingerprint in lost {
            self.live.remove(fingerprint);
        }
        for (fingerprint, seq, extent) in moved {
            self.live.entries.insert(fingerprint, (seq, extent));
        }
        self.records = self.len();
        self.sound_len = out.len() as u64;
        // The rewrite holds only records that read back, so any previously
        // unrepaired tail is gone with the old file.
        self.broken = false;

        METRICS.store_compactions.inc();
        flight::record(
            Level::Info,
            EventCode::StoreCompact,
            &format!(
                "{} -> {} record(s), {} -> {} byte(s)",
                records_before,
                self.records,
                bytes_before,
                out.len()
            ),
        );

        Ok(CompactStats {
            records_before,
            records_after: self.records,
            bytes_before,
            bytes_after: out.len() as u64,
        })
    }

    /// Forces every appended record to physical storage (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.io.fsync(&self.file)
    }

    /// The verdict stored for `fingerprint`, if any, read back from the log
    /// and decoded.
    ///
    /// A record that no longer reads back — an I/O error, a CRC mismatch
    /// or a payload that does not decode — is a miss, recorded as a
    /// flight-recorder warning: re-verifying is always sound, while
    /// trusting the bytes would not be.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<GroupResult> {
        let &(_, extent) = self.live.entries.get(&fingerprint)?;
        let mut bytes = vec![0; extent.len];
        let decoded = self.read_record(fingerprint, extent, &mut bytes).and_then(|()| {
            decode_group_result(&bytes[RECORD_HEAD_LEN..extent.len - 4])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        });
        match decoded {
            Ok(result) => Some(result),
            Err(e) => {
                self.warn_unreadable(fingerprint, extent, &e);
                None
            }
        }
    }

    /// Reads `fingerprint`'s put record at `extent` into `buf` (exactly
    /// `extent.len` bytes) and checks that it is still that record, CRC
    /// and all.  A record that is no longer there — the log ends inside it,
    /// or its framing or CRC does not match — is
    /// [`io::ErrorKind::InvalidData`]; any other read error passes through.
    fn read_record(
        &self,
        fingerprint: Fingerprint,
        extent: Extent,
        buf: &mut [u8],
    ) -> io::Result<()> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        self.file.read_exact_at(buf, extent.offset).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => invalid("the log ends inside the record"),
            _ => e,
        })?;
        frame(buf)
            .filter(|found| {
                found.tag == TAG_PUT && found.fingerprint == fingerprint && found.len == extent.len
            })
            .map(|_| ())
            .ok_or_else(|| invalid("framing or CRC mismatch"))
    }

    fn warn_unreadable(&self, fingerprint: Fingerprint, extent: Extent, error: &io::Error) {
        flight::record(
            Level::Warn,
            EventCode::StoreUnreadable,
            &format!(
                "verdict {fingerprint} at byte {} no longer reads back ({error}); served as a miss",
                extent.offset
            ),
        );
    }

    /// True when a verdict is stored for `fingerprint`.
    pub fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.live.entries.contains_key(&fingerprint)
    }

    /// Number of live verdicts.
    pub fn len(&self) -> usize {
        self.live.entries.len()
    }

    /// True when no verdicts are stored.
    pub fn is_empty(&self) -> bool {
        self.live.entries.is_empty()
    }

    /// Records currently in the log file, live and dead.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Dead records in the log (superseded puts plus tombstones and their
    /// targets) — what [`VerdictStore::compact`] reclaims.
    pub fn dead_records(&self) -> usize {
        self.records - self.len()
    }

    /// What [`VerdictStore::open`] found on disk.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current size of the log file in bytes.
    pub fn file_bytes(&self) -> io::Result<u64> {
        Ok(fs::metadata(&self.path)?.len())
    }

    /// The live fingerprints in insertion order (oldest first).
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.live.fingerprints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open frames records without decoding them, so a record whose CRC
    /// checks out but whose payload is not a verdict replays cleanly and its
    /// lookup is a miss.  Compaction copies it without decoding, so it stays
    /// a miss until a fresh verdict supersedes it.
    #[test]
    fn a_crc_valid_record_that_does_not_decode_is_a_miss() {
        let dir =
            std::env::temp_dir().join(format!("iotsan-store-undecodable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.log");
        let good = GroupResult { apps: vec!["Unlock Door".into()], report: Default::default() };
        let mut payload = Vec::new();
        encode_group_result(&good, &mut payload);
        let mut log = header_bytes().to_vec();
        log.extend(record_bytes(TAG_PUT, Fingerprint(1), &[0xff; 9]));
        log.extend(record_bytes(TAG_PUT, Fingerprint(2), &payload));
        fs::write(&path, &log).unwrap();

        let mut store = VerdictStore::open(&path).unwrap();
        assert_eq!(*store.recovery(), Recovery::Clean { records: 2 });
        assert_eq!(store.get(Fingerprint(1)), None);
        assert_eq!(store.get(Fingerprint(2)), Some(good.clone()));

        assert_eq!(store.compact().unwrap().records_after, 2);
        assert_eq!(store.get(Fingerprint(1)), None);
        store.append(Fingerprint(1), &good).unwrap();
        assert_eq!(store.get(Fingerprint(1)), Some(good.clone()));
        assert_eq!(store.get(Fingerprint(2)), Some(good));
        fs::remove_file(&path).unwrap();
    }

    /// `get` checks that the bytes at an entry's offset are that entry's
    /// own record: an index pointing at another key's record is a miss,
    /// never the other key's verdict.
    #[test]
    fn a_record_under_another_key_is_a_miss() {
        let dir =
            std::env::temp_dir().join(format!("iotsan-store-misindexed-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.log");
        let _ = fs::remove_file(&path);
        let verdict =
            |name: &str| GroupResult { apps: vec![name.into()], report: Default::default() };
        let mut store = VerdictStore::open(&path).unwrap();
        store.append(Fingerprint(1), &verdict("one")).unwrap();
        store.append(Fingerprint(2), &verdict("two")).unwrap();

        let first = store.live.entries[&Fingerprint(1)].1;
        store.live.entries.get_mut(&Fingerprint(2)).unwrap().1 = first;
        assert_eq!(store.get(Fingerprint(2)), None);
        assert_eq!(store.get(Fingerprint(1)), Some(verdict("one")));
        fs::remove_file(&path).unwrap();
    }
}
