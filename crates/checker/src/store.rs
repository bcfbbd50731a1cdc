//! Visited-state storage.
//!
//! Spin offers exhaustive storage (every state vector is stored) and
//! BITSTATE hashing, an approximate scheme that stores only a few hash bits
//! per state; the paper turned BITSTATE on because Spin ran out of memory
//! (§2.3).  A lossy store can mistake a new state for a visited one and
//! skip the subtree that holds a violation, turning it into a wrong "safe".
//! This checker therefore keeps one store, [`ExactStore`], which stores the
//! full encoded state vector.
//!
//! # One hash per probe
//!
//! Every store operation runs **one** pass of [`fnv1a`] over the encoded
//! state and keys the table by that 64-bit value through an identity hasher
//! (no re-hashing of the state bytes, no SipHash over them).  Earlier
//! revisions hashed each state more than once per probe (the inner
//! `HashSet<Vec<u8>>` re-hashed the bytes); on long states that was a
//! measurable fraction of the exploration hot loop.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit hash (the checker avoids external hashing crates).  This is
/// the *single* per-state hash; the store derives its keys from its
/// output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 finalizer: diffuses a 64-bit value over all bits.  Used to
/// re-diffuse the per-state [`fnv1a`] value before it keys the table.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pass-through [`Hasher`] for keys that *are* already hashes (the
/// precomputed per-state [`fnv1a`] value).  Using it as the `HashMap`
/// build hasher means the table never runs SipHash over the state again.
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

/// Exhaustive storage of full state vectors, bucketed by their [`fnv1a`]
/// hash (an identity-hashed table: the state bytes are hashed exactly once
/// per insert).
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

    /// Inserts the encoded state, returning `true` when it was *not* seen
    /// before (i.e. the state is new and should be explored).
    pub fn insert(&mut self, encoded: &[u8]) -> bool {
        self.insert_hashed(fnv1a(encoded), encoded)
    }

    /// [`ExactStore::insert`] with the state's [`fnv1a`] hash already
    /// computed.
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

    /// Number of states recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no state has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate memory used by the store, in bytes: table capacity
    /// (buckets and control bytes), per-entry overhead and stored payload —
    /// not just payload length.
    pub fn memory_bytes(&self) -> usize {
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
        assert!(!store.insert_hashed(42, b"beta"));
        assert!(store.insert_hashed(42, b"gamma"));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn hashes_and_probes_are_well_distributed() {
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
