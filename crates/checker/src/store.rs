//! Visited-state storage.
//!
//! Spin offers two main storage strategies: exhaustive (every state vector is
//! stored) and BITSTATE hashing, an approximate scheme that stores only a few
//! hash bits per state in a large bit array (§2.3 of the paper uses Spin's
//! verification mode with BITSTATE hashing because an IoT system "may be
//! composed of a large number of apps and smart devices").
//!
//! [`StateStore`] abstracts over three strategies:
//!
//! * [`ExactStore`] — stores the full encoded state vector (no false sharing,
//!   highest memory use);
//! * [`HashCompactStore`] — stores a 64-bit hash per state (Spin's hash-compact
//!   mode); collisions are astronomically unlikely for our state counts;
//! * [`BitstateStore`] — a Bloom-filter bit array with `k` probe positions
//!   (Spin's `-DBITSTATE`); may report a new state as already visited (losing
//!   coverage) but never the reverse.
//!
//! # One hash per probe
//!
//! Every store operation runs **one** pass of [`fnv1a`] over the encoded
//! state and derives everything else from that 64-bit value: [`ExactStore`]
//! and [`HashCompactStore`] key their tables by the full value through an
//! identity hasher (no re-hashing of the state bytes, no SipHash over them),
//! and [`BitstateStore`] expands the value into `k` Bloom probes with a
//! [`splitmix64`] double-hashing scheme.  Earlier revisions hashed each state
//! more than once per probe (the inner `HashSet<Vec<u8>>` re-hashed the
//! bytes); on long states that was a measurable fraction of the exploration
//! hot loop.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit hash (the checker avoids external hashing crates).  This is
/// the *single* per-state hash; all storage strategies derive their keys
/// and probe positions from its output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 finalizer: diffuses a 64-bit value over all bits.  Used to
/// derive the second Bloom hash (Kirsch–Mitzenmacher double hashing) from the
/// single per-state [`fnv1a`] value.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pass-through [`Hasher`] for keys that *are* already hashes (the
/// precomputed per-state [`fnv1a`] value).  Using it as the `HashMap`/
/// `HashSet` build hasher means the table never runs SipHash over the state
/// again.
#[derive(Debug, Default, Clone)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a non-u64 key sneaks in; fold bytes so behaviour
        // stays correct (if slower) rather than silently colliding.
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Build-hasher alias for [`IdentityHasher`]-keyed tables.
pub type IdentityState = BuildHasherDefault<IdentityHasher>;

/// How visited states are remembered during the search.
///
/// The `*_hashed` methods take the precomputed [`fnv1a`] value of `encoded`
/// so probing and exact comparison share one hash pass; the hash-free
/// convenience methods compute it on the spot.
pub trait StateStore {
    /// Inserts the encoded state, returning `true` when it was *not* seen
    /// before (i.e. the state is new and should be explored).
    fn insert(&mut self, encoded: &[u8]) -> bool {
        self.insert_hashed(fnv1a(encoded), encoded)
    }

    /// [`StateStore::insert`] with the state's [`fnv1a`] hash already
    /// computed.
    fn insert_hashed(&mut self, hash: u64, encoded: &[u8]) -> bool;

    /// True when the encoded state has already been recorded.  For bitstate
    /// storage this may report false positives (like [`StateStore::insert`]),
    /// never false negatives.
    fn contains(&self, encoded: &[u8]) -> bool {
        self.contains_hashed(fnv1a(encoded), encoded)
    }

    /// [`StateStore::contains`] with the state's [`fnv1a`] hash already
    /// computed.
    fn contains_hashed(&self, hash: u64, encoded: &[u8]) -> bool;

    /// Number of states recorded (for bitstate this is the number of
    /// successful inserts, not the array population).
    fn len(&self) -> usize;

    /// True when no state has been recorded yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory used by the store, in bytes: table capacity
    /// (buckets and control bytes), per-entry overhead and stored payload —
    /// not just payload length.
    fn memory_bytes(&self) -> usize;
}

/// Exhaustive storage of full state vectors, bucketed by the precomputed
/// per-state hash (an identity-hashed table: the state bytes are hashed
/// exactly once, by the caller's [`fnv1a`] pass).
#[derive(Debug, Default)]
pub struct ExactStore {
    buckets: HashMap<u64, Vec<Box<[u8]>>, IdentityState>,
    len: usize,
    payload_bytes: usize,
}

impl ExactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateStore for ExactStore {
    fn insert_hashed(&mut self, hash: u64, encoded: &[u8]) -> bool {
        // Re-diffuse before keying: hashbrown takes its control byte from
        // the top bits and its bucket index from the low bits, so both must
        // be well mixed for probes to stay short.
        let bucket = self.buckets.entry(splitmix64(hash)).or_default();
        if bucket.iter().any(|s| s.as_ref() == encoded) {
            return false;
        }
        bucket.push(encoded.to_vec().into_boxed_slice());
        self.len += 1;
        self.payload_bytes += encoded.len();
        true
    }

    fn contains_hashed(&self, hash: u64, encoded: &[u8]) -> bool {
        self.buckets.get(&splitmix64(hash)).is_some_and(|b| b.iter().any(|s| s.as_ref() == encoded))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        // Table: one (key, bucket) slot plus one control byte per slot of
        // capacity; buckets: pointer-sized handles per capacity slot; payload:
        // the boxed state bytes themselves.  Earlier revisions reported only
        // the payload length, undercounting by the entire table (the
        // `repro table8` memory columns looked several times smaller than
        // what the process actually held).
        let slot = std::mem::size_of::<(u64, Vec<Box<[u8]>>)>() + 1;
        let handles: usize =
            self.buckets.values().map(|b| b.capacity() * std::mem::size_of::<Box<[u8]>>()).sum();
        self.buckets.capacity() * slot + handles + self.payload_bytes
    }
}

/// Hash-compact storage: one 64-bit hash per state (the caller's single
/// [`fnv1a`] pass), kept in an identity-hashed set.
#[derive(Debug, Default)]
pub struct HashCompactStore {
    hashes: HashSet<u64, IdentityState>,
}

impl HashCompactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateStore for HashCompactStore {
    fn insert_hashed(&mut self, hash: u64, _encoded: &[u8]) -> bool {
        // Same re-diffusion rationale as `ExactStore::insert_hashed`.
        self.hashes.insert(splitmix64(hash))
    }

    fn contains_hashed(&self, hash: u64, _encoded: &[u8]) -> bool {
        self.hashes.contains(&splitmix64(hash))
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn memory_bytes(&self) -> usize {
        // Capacity slots (8-byte key + control byte), not just occupied ones.
        self.hashes.capacity() * (std::mem::size_of::<u64>() + 1)
    }
}

/// Approximate BITSTATE (Bloom filter) storage.
///
/// The `k` probe positions are derived from the single per-state hash with
/// Kirsch–Mitzenmacher double hashing: `probe_i = h1 + i·h2` where `h1` is
/// the [`fnv1a`] value and `h2` its [`splitmix64`] mix (forced odd so probes
/// never degenerate).
#[derive(Debug)]
pub struct BitstateStore {
    bits: Vec<u64>,
    mask: u64,
    hash_functions: usize,
    inserted: usize,
}

impl BitstateStore {
    /// Creates a bitstate store with `2^log2_bits` bits and `hash_functions`
    /// probes per state (Spin's default uses 2–3 hash functions).
    pub fn new(log2_bits: u32, hash_functions: usize) -> Self {
        let bits = 1usize << log2_bits;
        BitstateStore {
            bits: vec![0; bits / 64],
            mask: (bits as u64) - 1,
            hash_functions: hash_functions.max(1),
            inserted: 0,
        }
    }

    /// The default configuration: 2^24 bits (2 MiB) and 3 hash functions.
    pub fn with_defaults() -> Self {
        Self::new(24, 3)
    }

    #[inline]
    fn probe(&self, bit: u64) -> (usize, u64) {
        let idx = (bit & self.mask) as usize;
        (idx / 64, 1u64 << (idx % 64))
    }

    /// The second double-hashing base, derived once per state (not per
    /// probe): `probe_i = h1 + i·h2`.
    #[inline]
    fn second_hash(hash: u64) -> u64 {
        splitmix64(hash) | 1
    }

    /// The `k`-th probe position derived from the per-state hash (tests).
    #[cfg(test)]
    fn probe_at(&self, hash: u64, k: usize) -> (usize, u64) {
        self.probe(hash.wrapping_add(Self::second_hash(hash).wrapping_mul(k as u64)))
    }
}

impl StateStore for BitstateStore {
    fn insert_hashed(&mut self, hash: u64, _encoded: &[u8]) -> bool {
        // Single pass: test and set together.  Setting the bits of a state
        // that turns out fully present is harmless (they were all set), so no
        // second probe-derivation loop is needed.
        let h2 = Self::second_hash(hash);
        let mut all_set = true;
        let mut position = hash;
        for _ in 0..self.hash_functions {
            let (word, bit) = self.probe(position);
            if self.bits[word] & bit == 0 {
                all_set = false;
                self.bits[word] |= bit;
            }
            position = position.wrapping_add(h2);
        }
        if all_set {
            // Considered already visited (possibly a false positive).
            return false;
        }
        self.inserted += 1;
        true
    }

    fn contains_hashed(&self, hash: u64, _encoded: &[u8]) -> bool {
        let h2 = Self::second_hash(hash);
        let mut position = hash;
        for _ in 0..self.hash_functions {
            let (word, bit) = self.probe(position);
            if self.bits[word] & bit == 0 {
                return false;
            }
            position = position.wrapping_add(h2);
        }
        true
    }

    fn len(&self) -> usize {
        self.inserted
    }

    fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The storage strategy requested by the search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Full state vectors ([`ExactStore`]).
    #[default]
    Exact,
    /// 64-bit hashes ([`HashCompactStore`]).
    HashCompact,
    /// Bloom-filter bitstate with the given log2 size and probe count
    /// ([`BitstateStore`]).
    Bitstate {
        /// log2 of the number of bits in the array.
        log2_bits: u32,
        /// Number of hash probes per state.
        hash_functions: usize,
    },
}

impl StoreKind {
    /// Instantiates the store.
    pub fn build(&self) -> Box<dyn StateStore + Send> {
        match self {
            StoreKind::Exact => Box::new(ExactStore::new()),
            StoreKind::HashCompact => Box::new(HashCompactStore::new()),
            StoreKind::Bitstate { log2_bits, hash_functions } => {
                Box::new(BitstateStore::new(*log2_bits, *hash_functions))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn exact_store_deduplicates() {
        let mut store = ExactStore::new();
        assert!(store.insert(b"state-a"));
        assert!(!store.insert(b"state-a"));
        assert!(store.insert(b"state-b"));
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn exact_store_memory_accounts_for_table_overhead() {
        let mut store = ExactStore::new();
        let all = states(1_000);
        for s in &all {
            store.insert(s);
        }
        let payload: usize = all.iter().map(Vec::len).sum();
        let reported = store.memory_bytes();
        // The table slots (33 bytes each at minimum) and per-entry handles
        // dominate the 8-byte payloads: the honest number must be well above
        // payload alone — the old accounting reported exactly `payload`.
        assert!(reported > payload * 3, "reported {reported} for payload {payload}");
        // And it must still include the payload itself.
        assert!(reported >= payload);
    }

    #[test]
    fn exact_store_separates_hash_colliding_states() {
        // Two different states rammed through insert_hashed with the same
        // hash must both be admitted (bucket chaining), never conflated.
        let mut store = ExactStore::new();
        assert!(store.insert_hashed(42, b"alpha"));
        assert!(store.insert_hashed(42, b"beta"));
        assert!(!store.insert_hashed(42, b"alpha"));
        assert!(store.contains_hashed(42, b"beta"));
        assert!(!store.contains_hashed(42, b"gamma"));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn hash_compact_store_deduplicates() {
        let mut store = HashCompactStore::new();
        for s in states(100) {
            assert!(store.insert(&s));
        }
        for s in states(100) {
            assert!(!store.insert(&s));
        }
        assert_eq!(store.len(), 100);
        assert!(store.memory_bytes() >= 100 * 9);
    }

    #[test]
    fn bitstate_never_forgets_an_inserted_state() {
        let mut store = BitstateStore::with_defaults();
        let all = states(5_000);
        for s in &all {
            store.insert(s);
        }
        // A state that was inserted must never be reported as new again
        // (bitstate errs only on the side of false "already visited").
        for s in &all {
            assert!(!store.insert(s));
        }
    }

    #[test]
    fn bitstate_false_positive_rate_is_small_when_sized_well() {
        let mut store = BitstateStore::new(20, 3); // 1M bits for 10k states
        let mut fresh = 0usize;
        for s in states(10_000) {
            if store.insert(&s) {
                fresh += 1;
            }
        }
        // Allow a handful of false positives but not a meaningful loss.
        assert!(fresh >= 9_950, "only {fresh} of 10000 states were admitted");
        assert_eq!(store.len(), fresh);
    }

    #[test]
    fn bitstate_memory_is_fixed() {
        let store = BitstateStore::new(24, 3);
        assert_eq!(store.memory_bytes(), (1 << 24) / 8);
    }

    #[test]
    fn hashes_and_probes_are_well_distributed() {
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Double-hashed Bloom probes must differ across k for the same state.
        let store = BitstateStore::new(20, 3);
        let h = fnv1a(b"hello");
        let probes: Vec<_> = (0..3).map(|k| store.probe_at(h, k)).collect();
        assert_ne!(probes[0], probes[1]);
        assert_ne!(probes[1], probes[2]);
    }

    #[test]
    fn store_kind_builds_all_variants() {
        for kind in [
            StoreKind::Exact,
            StoreKind::HashCompact,
            StoreKind::Bitstate { log2_bits: 16, hash_functions: 2 },
        ] {
            let mut store = kind.build();
            assert!(store.insert(b"x"));
            assert!(!store.insert(b"x"));
        }
        assert_eq!(StoreKind::default(), StoreKind::Exact);
    }

    #[test]
    fn contains_matches_insert_semantics() {
        for kind in [
            StoreKind::Exact,
            StoreKind::HashCompact,
            StoreKind::Bitstate { log2_bits: 16, hash_functions: 2 },
        ] {
            let mut store = kind.build();
            assert!(!store.contains(b"state-a"));
            store.insert(b"state-a");
            assert!(store.contains(b"state-a"), "{kind:?} lost an inserted state");
        }
    }
}
