//! Exact binary serialization of group verdicts.
//!
//! The verdict store persists [`GroupResult`]s — the planner's cached unit of
//! work — and the daemon's warm-restart guarantee is *byte identity*: a
//! verdict replayed from disk must equal the cold run's in-memory result
//! exactly, including the floating-point throughput and `Duration` fields of
//! its [`iotsan::checker::SearchStats`].  JSON would round-trip floats
//! through decimal; this codec instead writes fixed-width little-endian
//! integers, length-prefixed UTF-8 strings, `f64::to_bits` for floats,
//! `(secs, subsec_nanos)` for durations and minimal LEB128 varints for
//! counterexample paths, so `decode(encode(r)) == r` holds
//! structurally *and* `encode(decode(b)) == b` holds byte-for-byte — the
//! property compaction idempotence rests on.
//!
//! A record stores each counterexample once.  A violation whose trace is
//! the previous violation's (co-violations of one step share one
//! [`Arc`]) writes a one-byte back-reference, and decoding shares one
//! trace again.  An owned log line names its owner by its position in the
//! record's app list, and decoding hands every such line the record's one
//! [`Arc<str>`] of that name.  Every choice the encoder makes is the only
//! one the decoder accepts (the first position of a name, a literal name
//! only when the list lacks it), which keeps the byte identity above.
//!
//! Decoding is defensive: every length is bounds-checked against the
//! remaining input before any allocation, and all failures are explicit
//! [`CodecError`]s — a corrupt record can be *skipped* but never
//! misinterpreted as a different verdict (the CRC layer in
//! [`crate::store`] makes silent corruption astronomically unlikely;
//! the bounds checks make even a CRC collision safe).

use iotsan::checker::{FoundViolation, LogLine, SearchReport, SearchStats, Trace, TraceStep};
use iotsan::GroupResult;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A decoding failure: the input is not a well-formed encoded verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was being decoded when the input ran out or made no sense.
    pub context: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed verdict record ({})", self.context)
    }
}

impl std::error::Error for CodecError {}

fn err(context: &'static str) -> CodecError {
    CodecError { context }
}

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xedb8_8320;

/// Slice-by-8 lookup tables: `CRC32_TABLES[0][b]` is the CRC of byte `b`
/// alone, and `CRC32_TABLES[k][b]` advances it over `k` further zero bytes,
/// so one step folds eight input bytes with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes` — the per-record
/// integrity guard of the verdict log, paid on every record at open and
/// reopen, on every append and on every record compaction rewrites.
///
/// Slice-by-8 over compile-time tables, because the check is not hidden
/// behind I/O: on a 2-vCPU Xeon the bitwise loop took 33–35 ms of a
/// 44 ms open of a 5.8 MB log (reading the file took 1.1 ms), and
/// slice-by-8 takes 4.0–4.3 ms of a 13.5 ms open.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// Unsigned LEB128, in the fewest bytes (the decoder rejects any other
/// encoding, so the bytes of a value are unique).
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A violation's trace tag: the trace's steps follow.
const TRACE_INLINE: u8 = 0;
/// A violation's trace tag: the trace is the previous violation's.
const TRACE_PREVIOUS: u8 = 1;
/// A log line's owner tag: no owner.
const OWNER_NONE: u8 = 0;
/// A log line's owner tag: the record's app at the varint position that
/// follows (the first position of that name).
const OWNER_MEMBER: u8 = 1;
/// A log line's owner tag: a name the record's app list lacks follows.
const OWNER_NAME: u8 = 2;

/// The first position of `name` in a record's app list: an owner is
/// written as that position, and only that position is read back.
fn first_position(apps: &[String], name: &str) -> Option<u32> {
    apps.iter().position(|app| app == name).map(|p| p as u32)
}

/// Encodes a [`GroupResult`] into `out` (appended; `out` is not cleared).
pub fn encode_group_result(result: &GroupResult, out: &mut Vec<u8>) {
    put_u32(out, result.apps.len() as u32);
    for app in &result.apps {
        put_str(out, app);
    }
    let mut owners = Owners { apps: &result.apps, found: HashMap::new() };
    let report = &result.report;
    put_u32(out, report.violations.len() as u32);
    let mut previous: Option<&Arc<Trace>> = None;
    for found in &report.violations {
        put_u32(out, found.violation.property);
        put_str(out, &found.violation.description);
        if previous.is_some_and(|trace| Arc::ptr_eq(trace, &found.trace)) {
            out.push(TRACE_PREVIOUS);
        } else {
            out.push(TRACE_INLINE);
            put_trace(out, &found.trace, &mut owners);
        }
        previous = Some(&found.trace);
        put_usize(out, found.depth);
        put_varint(out, found.path.len() as u32);
        for &index in &found.path {
            put_varint(out, index);
        }
    }
    let stats = &report.stats;
    put_usize(out, stats.states_stored);
    put_usize(out, stats.transitions);
    put_usize(out, stats.max_depth_reached);
    put_u64(out, stats.elapsed.as_secs());
    put_u32(out, stats.elapsed.subsec_nanos());
    put_u64(out, stats.states_per_sec.to_bits());
    put_usize(out, stats.store_memory_bytes);
    put_usize(out, stats.peak_trace_bytes);
    put_bool(out, stats.truncated);
    put_bool(out, stats.states_capped);
    put_bool(out, stats.transitions_capped);
    // `None` as 0 and `Some(d)` as `d + 1`: one fixed-width field.
    put_usize(out, stats.closed_at.map_or(0, |d| d + 1));
}

/// One record's app list as an encoder looks owners up in it, by the
/// owner's address: a model's owned lines share one name per app, so each
/// name is searched for once per record.
struct Owners<'a> {
    apps: &'a [String],
    found: HashMap<usize, Option<u32>>,
}

impl Owners<'_> {
    /// The first position of `owner` in the app list.  Every owner looked
    /// up is borrowed for the whole encode, so an address seen before still
    /// holds the same name.
    fn position(&mut self, owner: &Arc<str>) -> Option<u32> {
        let apps = self.apps;
        *self.found.entry(owner.as_ptr() as usize).or_insert_with(|| first_position(apps, owner))
    }
}

/// Writes `trace`'s steps, each owner as its first position in the app
/// list when the list holds it.
fn put_trace(out: &mut Vec<u8>, trace: &Trace, owners: &mut Owners<'_>) {
    put_u32(out, trace.steps.len() as u32);
    for step in &trace.steps {
        put_str(out, &step.action);
        put_u32(out, step.log.len() as u32);
        for line in &step.log {
            match &line.owner {
                None => out.push(OWNER_NONE),
                Some(owner) => match owners.position(owner) {
                    Some(position) => {
                        out.push(OWNER_MEMBER);
                        put_varint(out, position);
                    }
                    None => {
                        out.push(OWNER_NAME);
                        put_str(out, owner);
                    }
                },
            }
            put_str(out, &line.text);
        }
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err(context))?;
        if end > self.bytes.len() {
            return Err(err(context));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        self.u64(context)?.try_into().map_err(|_| err(context))
    }

    fn string(&mut self, context: &'static str) -> Result<String, CodecError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err(context))
    }

    /// A minimal unsigned LEB128 `u32`: at most five bytes, no bits past
    /// 32, and no redundant trailing zero group.
    fn varint(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let mut value: u32 = 0;
        for shift in (0..35).step_by(7) {
            let byte = self.u8(context)?;
            let bits = u32::from(byte & 0x7f);
            if (shift == 28 && bits > 0x0f) || (shift > 0 && byte == 0) {
                return Err(err(context));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(err(context))
    }

    /// A trace's steps, each owned line's owner shared from `names`.
    fn trace(&mut self, names: &mut Names<'_>) -> Result<Trace, CodecError> {
        let step_count = self.u32("trace step count")? as usize;
        let mut steps = Vec::with_capacity(step_count.min(1024));
        for _ in 0..step_count {
            let action = self.string("trace action")?;
            let log_count = self.u32("log line count")? as usize;
            let mut log = Vec::with_capacity(log_count.min(1024));
            for _ in 0..log_count {
                let owner = match self.u8("log owner tag")? {
                    OWNER_NONE => None,
                    OWNER_MEMBER => Some(names.member(self.varint("log owner position")?)?),
                    OWNER_NAME => Some(names.literal(self.string("log owner name")?)?),
                    _ => return Err(err("log owner tag")),
                };
                let text = self.string("log text")?;
                log.push(LogLine { owner, text });
            }
            steps.push(TraceStep { action, log });
        }
        Ok(Trace { steps })
    }

    fn boolean(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(err(context)),
        }
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// The owner names of one record being decoded: one [`Arc<str>`] per
/// distinct app name, made when a line first names it.
struct Names<'a> {
    apps: &'a [String],
    /// The shared name of each position, once a line has named it.
    shared: Vec<Option<Arc<str>>>,
}

impl<'a> Names<'a> {
    fn new(apps: &'a [String]) -> Self {
        Names { apps, shared: vec![None; apps.len()] }
    }

    /// The owner at `position`, which must be its name's first position
    /// (the one the encoder writes).
    fn member(&mut self, position: u32) -> Result<Arc<str>, CodecError> {
        let index = position as usize;
        if let Some(Some(shared)) = self.shared.get(index) {
            return Ok(Arc::clone(shared));
        }
        let name = self.apps.get(index).ok_or_else(|| err("log owner position"))?;
        if first_position(self.apps, name) != Some(position) {
            return Err(err("log owner position"));
        }
        Ok(Arc::clone(self.shared[index].insert(Arc::from(name.as_str()))))
    }

    /// A literal owner, which the app list must lack (the encoder writes a
    /// listed name as its position).
    fn literal(&self, name: String) -> Result<Arc<str>, CodecError> {
        if first_position(self.apps, &name).is_some() {
            return Err(err("log owner name"));
        }
        Ok(Arc::from(name))
    }
}

/// Decodes a [`GroupResult`] from exactly `bytes` (trailing garbage is an
/// error — a record's payload length is authoritative).
pub fn decode_group_result(bytes: &[u8]) -> Result<GroupResult, CodecError> {
    let mut r = Reader::new(bytes);
    let app_count = r.u32("app count")? as usize;
    let mut apps = Vec::with_capacity(app_count.min(1024));
    for _ in 0..app_count {
        apps.push(r.string("app name")?);
    }
    let violation_count = r.u32("violation count")? as usize;
    let mut violations: Vec<FoundViolation> = Vec::with_capacity(violation_count.min(1024));
    let mut names = Names::new(&apps);
    for _ in 0..violation_count {
        let property = r.u32("property id")?;
        let description = r.string("property description")?;
        let trace = match r.u8("trace tag")? {
            TRACE_INLINE => Arc::new(r.trace(&mut names)?),
            TRACE_PREVIOUS => match violations.last() {
                Some(previous) => Arc::clone(&previous.trace),
                None => return Err(err("trace back-reference")),
            },
            _ => return Err(err("trace tag")),
        };
        let depth = r.usize("violation depth")?;
        // Every index takes at least one byte, which bounds the allocation.
        let path_len = r.varint("path length")? as usize;
        if path_len != depth || path_len > r.bytes.len() - r.pos {
            return Err(err("path length"));
        }
        let path = (0..path_len).map(|_| r.varint("path index")).collect::<Result<_, _>>()?;
        violations.push(FoundViolation {
            violation: iotsan::checker::Violation { property, description: description.into() },
            trace,
            depth,
            path,
        });
    }
    let stats = SearchStats {
        states_stored: r.usize("states stored")?,
        transitions: r.usize("transitions")?,
        max_depth_reached: r.usize("max depth")?,
        elapsed: Duration::new(r.u64("elapsed secs")?, r.u32("elapsed nanos")?),
        states_per_sec: f64::from_bits(r.u64("states/sec bits")?),
        store_memory_bytes: r.usize("store memory")?,
        peak_trace_bytes: r.usize("peak trace bytes")?,
        truncated: r.boolean("truncated flag")?,
        states_capped: r.boolean("states-capped flag")?,
        transitions_capped: r.boolean("transitions-capped flag")?,
        closed_at: r.usize("closed-at depth")?.checked_sub(1),
    };
    if !r.finished() {
        return Err(err("trailing bytes"));
    }
    Ok(GroupResult { apps, report: SearchReport { violations, stats } })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_result() -> GroupResult {
        let mut trace = Trace::new();
        trace.push(
            "alicePresence/presence=not present [ok]".into(),
            vec![
                LogLine::owned("Auto Mode Change", "setLocationMode(\"Away\")"),
                LogLine::new("location.mode = Away"),
            ],
        );
        GroupResult {
            apps: vec!["Auto Mode Change".into(), "Unlock Door".into()],
            report: SearchReport {
                violations: vec![FoundViolation {
                    violation: iotsan::checker::Violation {
                        property: 6,
                        description: "!anyone_home && main_door == unlocked".into(),
                    },
                    trace: Arc::new(trace),
                    depth: 2,
                    path: vec![3, 200],
                }],
                stats: SearchStats {
                    states_stored: 123,
                    transitions: 456,
                    max_depth_reached: 3,
                    elapsed: Duration::new(1, 234_567_891),
                    states_per_sec: 12345.6789,
                    store_memory_bytes: 4096,
                    peak_trace_bytes: 512,
                    truncated: false,
                    states_capped: false,
                    transitions_capped: false,
                    closed_at: Some(3),
                },
            },
        }
    }

    #[test]
    fn round_trips_structurally_and_byte_for_byte() {
        for closed_at in [Some(3), None] {
            let mut original = sample_result();
            original.report.stats.closed_at = closed_at;
            let mut bytes = Vec::new();
            encode_group_result(&original, &mut bytes);
            let decoded = decode_group_result(&bytes).unwrap();
            assert_eq!(decoded, original);
            // Byte identity: re-encoding the decoded value reproduces the
            // input exactly (this is what makes compaction idempotent).
            let mut again = Vec::new();
            encode_group_result(&decoded, &mut again);
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn floats_and_durations_are_exact() {
        let mut original = sample_result();
        original.report.stats.states_per_sec = f64::from_bits(0x7ff8_0000_0000_0001); // a NaN payload
        original.report.stats.elapsed = Duration::new(u64::MAX, 999_999_999);
        let mut bytes = Vec::new();
        encode_group_result(&original, &mut bytes);
        let decoded = decode_group_result(&bytes).unwrap();
        assert_eq!(
            decoded.report.stats.states_per_sec.to_bits(),
            original.report.stats.states_per_sec.to_bits()
        );
        assert_eq!(decoded.report.stats.elapsed, original.report.stats.elapsed);
    }

    #[test]
    fn every_truncation_is_an_explicit_error() {
        let original = sample_result();
        let mut bytes = Vec::new();
        encode_group_result(&original, &mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                decode_group_result(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte record must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Vec::new();
        encode_group_result(&sample_result(), &mut bytes);
        bytes.push(0);
        assert_eq!(decode_group_result(&bytes).unwrap_err().context, "trailing bytes");
    }

    #[test]
    fn oversized_length_prefix_fails_without_allocating() {
        // A string length claiming 4 GiB against a 12-byte input must fail
        // the bounds check, not attempt the allocation.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1); // one app
        put_u32(&mut bytes, u32::MAX); // ...whose name is "4 GiB" long
        bytes.extend_from_slice(b"oops");
        assert!(decode_group_result(&bytes).is_err());
    }

    #[test]
    fn varints_round_trip_in_the_fewest_bytes() {
        for (value, len) in [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX, 5)] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            assert_eq!(bytes.len(), len, "{value}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint("v"), Ok(value));
            assert!(r.finished());
        }
    }

    #[test]
    fn truncated_or_over_long_path_varints_are_rejected() {
        let mut prefix = Vec::new();
        encode_group_result(&sample_result(), &mut prefix);
        // The sample's path is the varints 2 (length), 3 and 200 (two
        // bytes), followed by the 8 + 8 + 8 + 12 + 8 + 8 + 8 + 3 + 8 stats bytes.
        let stats_len = 8 * 3 + 12 + 8 * 3 + 3 + 8;
        let path_at = prefix.len() - stats_len - 4;
        assert_eq!(&prefix[path_at..path_at + 4], &[2, 3, 0xc8, 0x01]);
        let stats = prefix.split_off(path_at + 4);
        prefix.truncate(path_at);
        let with_path = |path: &[u8]| {
            let mut bytes = prefix.clone();
            bytes.extend_from_slice(path);
            bytes.extend_from_slice(&stats);
            decode_group_result(&bytes)
        };
        assert!(with_path(&[2, 3, 0xc8, 0x01]).is_ok());
        let rejected = [
            &[2, 3, 0xc8][..],                           // truncated index
            &[2, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01], // more than five bytes
            &[2, 3, 0xff, 0xff, 0xff, 0xff, 0x1f],       // past 32 bits
            &[2, 3, 0x80, 0x00],                         // redundant zero group
            &[2, 0x83, 0x00, 0xc8, 0x01],                // non-minimal index 3
            &[3, 3, 0xc8, 0x01, 0],                      // length disagrees with depth
            &[0xff, 0xff, 0xff, 0xff, 0x0f],             // length past the input
            &[0x82],                                     // truncated length
        ];
        for path in rejected {
            let decoded = with_path(path);
            assert!(decoded.is_err(), "{path:?} decoded as {decoded:?}");
        }
    }

    /// A hand-written record over `apps` with `count` violations, written
    /// by `violations`, and the sample's statistics.
    fn handmade(apps: &[&str], count: u32, violations: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut empty = sample_result();
        empty.apps.clear();
        empty.report.violations.clear();
        let mut stats = Vec::new();
        encode_group_result(&empty, &mut stats);
        let mut out = Vec::new();
        put_u32(&mut out, apps.len() as u32);
        for app in apps {
            put_str(&mut out, app);
        }
        put_u32(&mut out, count);
        violations(&mut out);
        // Past the empty record's app and violation counts.
        out.extend_from_slice(&stats[8..]);
        out
    }

    /// One violation of property `property` at depth 1 (path `[0]`) with
    /// the trace field `trace`.
    fn violation(out: &mut Vec<u8>, property: u32, trace: &[u8]) {
        put_u32(out, property);
        put_str(out, "p");
        out.extend_from_slice(trace);
        put_usize(out, 1);
        put_varint(out, 1);
        put_varint(out, 0);
    }

    /// An inline trace of one step with one log line whose owner field is
    /// `owner`.
    fn one_line_trace(owner: &[u8]) -> Vec<u8> {
        let mut trace = vec![TRACE_INLINE];
        put_u32(&mut trace, 1);
        put_str(&mut trace, "a");
        put_u32(&mut trace, 1);
        trace.extend_from_slice(owner);
        put_str(&mut trace, "line");
        trace
    }

    #[test]
    fn co_violations_and_owners_are_written_once_and_shared_when_read() {
        let mut original = sample_result();
        let first = original.report.violations[0].clone();
        let mut co_violation = first.clone();
        co_violation.violation.property = 7;
        let mut stranger = (*first.trace).clone();
        stranger.steps[0].log.push(LogLine::owned("Stranger", "not a member"));
        let mut later = first.clone();
        later.violation.property = 8;
        later.trace = Arc::new(stranger);
        original.report.violations = vec![first, co_violation, later];

        let mut bytes = Vec::new();
        encode_group_result(&original, &mut bytes);
        let decoded = decode_group_result(&bytes).unwrap();
        assert_eq!(decoded, original);
        let mut again = Vec::new();
        encode_group_result(&decoded, &mut again);
        assert_eq!(again, bytes);

        let [first, co_violation, later] = &decoded.report.violations[..] else {
            panic!("three violations")
        };
        assert!(Arc::ptr_eq(&first.trace, &co_violation.trace));
        assert!(!Arc::ptr_eq(&first.trace, &later.trace));
        let owner = |found: &FoundViolation, line: usize| {
            found.trace.steps[0].log[line].owner.clone().expect("an owned line")
        };
        assert!(Arc::ptr_eq(&owner(first, 0), &owner(later, 0)));
        assert_eq!(&*owner(later, 2), "Stranger");

        // The shared trace is written once: a co-violation costs its
        // property, description, one back-reference byte, depth and path.
        let mut single = Vec::new();
        encode_group_result(&sample_result(), &mut single);
        let mut pair = decoded.clone();
        pair.report.violations.pop();
        let mut pair_bytes = Vec::new();
        encode_group_result(&pair, &mut pair_bytes);
        let head = 4 + 4 + first.violation.description.len();
        let tail = 8 + 1 + 3; // depth, then the varints 2, 3 and 200
        assert_eq!(pair_bytes.len(), single.len() + head + 1 + tail);
        for cut in 0..bytes.len() {
            assert!(decode_group_result(&bytes[..cut]).is_err(), "a {cut}-byte prefix decoded");
        }
    }

    #[test]
    fn a_back_reference_and_an_owner_position_decode_to_shared_values() {
        // An app list in no order is searched in full.
        let bytes = handmade(&["B", "A"], 2, |out| {
            violation(out, 1, &one_line_trace(&[OWNER_MEMBER, 1]));
            violation(out, 2, &[TRACE_PREVIOUS]);
        });
        let decoded = decode_group_result(&bytes).unwrap();
        let [first, second] = &decoded.report.violations[..] else { panic!("two violations") };
        assert!(Arc::ptr_eq(&first.trace, &second.trace));
        assert_eq!(first.trace.steps[0].log[0].owner.as_deref(), Some("A"));
        let mut again = Vec::new();
        encode_group_result(&decoded, &mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn malformed_back_references_owners_and_tags_are_typed_errors() {
        let cases: [(&str, Vec<u8>); 8] = [
            (
                "trace back-reference",
                handmade(&["A"], 1, |out| violation(out, 1, &[TRACE_PREVIOUS])),
            ),
            (
                "log owner position",
                handmade(&["A", "B"], 1, |out| {
                    violation(out, 1, &one_line_trace(&[OWNER_MEMBER, 2]))
                }),
            ),
            (
                "log owner position",
                handmade(&[], 1, |out| violation(out, 1, &one_line_trace(&[OWNER_MEMBER, 0]))),
            ),
            // A second copy of a name is written as the first's position.
            (
                "log owner position",
                handmade(&["A", "A"], 1, |out| {
                    violation(out, 1, &one_line_trace(&[OWNER_MEMBER, 1]))
                }),
            ),
            (
                "log owner position",
                handmade(&["A", "B", "A"], 1, |out| {
                    violation(out, 1, &one_line_trace(&[OWNER_MEMBER, 2]))
                }),
            ),
            // A listed name is written as its position, never literally.
            (
                "log owner name",
                handmade(&["A"], 1, |out| {
                    let mut owner = vec![OWNER_NAME];
                    put_str(&mut owner, "A");
                    violation(out, 1, &one_line_trace(&owner))
                }),
            ),
            ("trace tag", handmade(&["A"], 1, |out| violation(out, 1, &[2]))),
            ("log owner tag", handmade(&["A"], 1, |out| violation(out, 1, &one_line_trace(&[3])))),
        ];
        for (context, bytes) in cases {
            assert_eq!(decode_group_result(&bytes), Err(err(context)), "{context}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition the tables must reproduce: one polynomial step per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for byte in bytes {
            crc ^= u32::from(*byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// `len` bytes from a fixed xorshift stream, so failures reproduce.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        // Every tail length of the 8-byte stride, at every alignment.
        let buffer = seeded_bytes(0x5eed, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "start {start}, len {len}");
            }
        }

        let large = seeded_bytes(0xc0ffee, 1 << 20);
        assert_eq!(crc32(&large), crc32_bitwise(&large));

        // A whole verdict record, checksum included, as the store writes it.
        let mut payload = Vec::new();
        encode_group_result(&sample_result(), &mut payload);
        let record = crate::store::record_bytes(
            crate::store::TAG_PUT,
            iotsan::Fingerprint(0xfeed),
            &payload,
        );
        let (body, stored) = record.split_at(record.len() - 4);
        assert_eq!(u32::from_le_bytes(stored.try_into().unwrap()), crc32_bitwise(body));
        assert_eq!(crc32(body), crc32_bitwise(body));
    }
}
