//! Session secrets, derived key material, and the server-side session
//! cache: the concurrent [`SharedSessionCache`] every server (the
//! monolithic baseline and each shard of a sharded front-end) consults,
//! and the [`SessionStore`] trait behind which both it and remote cache
//! rings (`wedge-cachenet`) plug into a server.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use wedge_crypto::kdf;
use wedge_crypto::KeyMaterial;

/// A session identifier assigned by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId([u8; 16]);

impl SessionId {
    /// Build a session id from exactly 16 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<SessionId> {
        if bytes.len() == 16 {
            let mut id = [0u8; 16];
            id.copy_from_slice(bytes);
            Some(SessionId(id))
        } else {
            None
        }
    }

    /// The raw bytes of the id.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// A 64-bit Fibonacci-hash mix of the id, used to pick a cache bucket
    /// (and usable as a shard-affinity key). The *high* bits of the product
    /// are the well-mixed ones — consumers reducing this to a small range
    /// should shift before taking a modulo, not use the low bits directly.
    pub fn bucket_key(&self) -> u64 {
        let word = u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"));
        word.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess-{}", wedge_crypto::sha256::to_hex(&self.0[..4]))
    }
}

/// Everything derived from a completed handshake: the master secret and the
/// per-direction encryption and MAC keys. In the paper's partitioning this
/// is exactly the data that must be confined to the `session key` tagged
/// memory region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKeys {
    /// The 48-byte master secret.
    pub master_secret: Vec<u8>,
    /// The derived per-direction keys.
    pub material: KeyMaterial,
}

impl SessionKeys {
    /// Derive all session keys from the premaster secret and the two
    /// handshake randoms (the hash over "three inputs that traverse the
    /// network" of §5.1.1).
    pub fn derive(premaster: &[u8], client_random: &[u8], server_random: &[u8]) -> SessionKeys {
        SessionKeys {
            master_secret: kdf::derive_master_secret(premaster, client_random, server_random),
            material: kdf::derive_key_block(premaster, client_random, server_random),
        }
    }

    /// A compact fingerprint of the derived keys (for comparing both sides
    /// in tests without exposing the keys).
    pub fn fingerprint(&self) -> [u8; 32] {
        self.material.fingerprint()
    }
}

/// The session-lookup service a TLS server consults during
/// `begin_handshake`: session id → premaster secret.
///
/// Two implementations exist today. [`SharedSessionCache`] is the
/// *in-process* store — one logical table shared by every shard of one
/// front-end ("machine"). `wedge_cachenet::CacheRing` is the *remote*
/// store — a client for the distributed cache protocol, so a session
/// established through one machine can resume through another. Servers
/// hold an `Arc<dyn SessionStore>` and cannot tell the difference; the
/// store is reached only through this narrow insert/lookup surface, never
/// through tagged memory, so a compromised compartment can at most replay
/// lookups.
///
/// Implementations must be infallible at this boundary: a remote store
/// that cannot reach its backend degrades to a miss (and its own local
/// tier), it does not surface transport errors into the handshake.
pub trait SessionStore: Send + Sync {
    /// Store the premaster secret for a session id.
    fn insert(&self, id: SessionId, premaster: Vec<u8>);

    /// Look up a session's premaster secret, refreshing its recency.
    fn lookup(&self, id: &SessionId) -> Option<Vec<u8>>;

    /// Drop a session outright (compromise response, epoch invalidation).
    fn remove(&self, id: &SessionId);

    /// `(hits, misses)` across every lookup this store has served.
    fn stats(&self) -> (u64, u64);

    /// Sessions currently resident in this store's directly-owned tier
    /// (a remote ring reports its *local* tier — the distributed total is
    /// a per-node property).
    fn len(&self) -> usize;

    /// Sessions the directly-owned tier evicted to stay within capacity
    /// (0 for a store that never evicts).
    fn evictions(&self) -> u64 {
        0
    }

    /// Is the directly-owned tier empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups that hit; `None` before the first lookup (see
    /// [`SharedSessionCache::hit_rate`] for the exact semantics every
    /// implementation must match).
    fn hit_rate(&self) -> Option<f64> {
        let (hits, misses) = self.stats();
        let lookups = hits + misses;
        if lookups == 0 {
            None
        } else {
            Some(hits as f64 / lookups as f64)
        }
    }
}

/// Default bound on cached sessions. Before the bound existed an attacker
/// could flood the server with throwaway handshakes and grow the cache
/// without limit — a memory DoS through the resumption path.
pub const DEFAULT_SESSION_CACHE_CAPACITY: usize = 1024;

/// The LRU map behind each [`SharedSessionCache`] bucket: session id →
/// premaster secret, with a logical clock for recency. Lookups refresh
/// recency; inserts beyond capacity evict the least-recently-used entry.
/// A `last_used → id` index keeps eviction and recency updates
/// `O(log n)` — crucial because the eviction path runs on exactly the
/// resumption-flood workload the bound defends against (a full-map
/// minimum scan would make every flooded insert `O(capacity)`).
#[derive(Debug, Default)]
struct LruEntries {
    entries: HashMap<SessionId, LruEntry>,
    /// Recency index: logical timestamp → session id. Timestamps are
    /// unique (the clock is strictly monotonic), so the first entry is
    /// always the LRU victim.
    by_age: std::collections::BTreeMap<u64, SessionId>,
    clock: u64,
}

#[derive(Debug)]
struct LruEntry {
    premaster: Vec<u8>,
    last_used: u64,
}

impl LruEntries {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Insert, evicting the LRU entry first when `capacity` is reached.
    /// Returns how many entries were evicted (0 or 1).
    fn insert(&mut self, id: SessionId, premaster: Vec<u8>, capacity: usize) -> u64 {
        let now = self.tick();
        if let Some(entry) = self.entries.get_mut(&id) {
            self.by_age.remove(&entry.last_used);
            entry.premaster = premaster;
            entry.last_used = now;
            self.by_age.insert(now, id);
            return 0;
        }
        let mut evicted = 0;
        if self.entries.len() >= capacity.max(1) {
            if let Some((_, oldest)) = self.by_age.pop_first() {
                self.entries.remove(&oldest);
                evicted = 1;
            }
        }
        self.entries.insert(
            id,
            LruEntry {
                premaster,
                last_used: now,
            },
        );
        self.by_age.insert(now, id);
        evicted
    }

    fn lookup(&mut self, id: &SessionId) -> Option<Vec<u8>> {
        let now = self.tick();
        let entry = self.entries.get_mut(id)?;
        self.by_age.remove(&entry.last_used);
        entry.last_used = now;
        self.by_age.insert(now, *id);
        Some(entry.premaster.clone())
    }

    /// Remove an entry outright. Returns whether it existed. Not a lookup:
    /// neither hit/miss counters nor recency are touched.
    fn remove(&mut self, id: &SessionId) -> bool {
        match self.entries.remove(id) {
            Some(entry) => {
                self.by_age.remove(&entry.last_used);
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Number of independent buckets in a [`SharedSessionCache`]. Sixteen
/// matches the kernel's segment-table shard count: enough to keep
/// concurrent shard front-ends off each other's locks, few enough that a
/// small capacity still gives every bucket room.
pub const SESSION_CACHE_BUCKETS: usize = 16;

/// A concurrent, shareable session cache for sharded front-ends.
///
/// The Wedge paper's servers keep the session cache inside one process;
/// once connections are distributed over independent shard kernels, a
/// client that resumes on a different shard misses a per-shard cache every
/// time. `SharedSessionCache` is the DiCuPIT-style shared lookup service
/// that fixes this: one logical table, sharded into [`SESSION_CACHE_BUCKETS`]
/// `RwLock` buckets (the same decomposition as the kernel's segment-table
/// shards) so shards contend only when they hash to the same bucket.
///
/// It is deliberately a *confined* service in the Wedge spirit: shards
/// reach it only through the narrow `insert`/`lookup` API — no tagged
/// memory is shared across shard kernels, so a compromised shard can
/// replay lookups but never walk another shard's address space.
///
/// Hit/miss/eviction counters are interior-mutable atomics, so the cache
/// can be consulted through a plain `&self` from any number of shards.
pub struct SharedSessionCache {
    buckets: Vec<RwLock<LruEntries>>,
    bucket_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SharedSessionCache {
    fn default() -> Self {
        SharedSessionCache::with_capacity(DEFAULT_SESSION_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for SharedSessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSessionCache")
            .field("sessions", &self.len())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedSessionCache {
    /// A shared cache with the default total capacity.
    pub fn new() -> SharedSessionCache {
        SharedSessionCache::default()
    }

    /// A shared cache bounded to roughly `capacity` sessions in total
    /// (rounded up to a multiple of the bucket count; each bucket enforces
    /// its share independently).
    pub fn with_capacity(capacity: usize) -> SharedSessionCache {
        SharedSessionCache {
            buckets: (0..SESSION_CACHE_BUCKETS)
                .map(|_| RwLock::new(LruEntries::default()))
                .collect(),
            bucket_capacity: capacity.div_ceil(SESSION_CACHE_BUCKETS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn bucket(&self, id: &SessionId) -> &RwLock<LruEntries> {
        // High bits of the Fibonacci product: the low bits survive a plain
        // modulo almost unmixed (ids sharing a low byte would all collide).
        &self.buckets[((id.bucket_key() >> 32) % self.buckets.len() as u64) as usize]
    }

    /// Total capacity across all buckets.
    pub fn capacity(&self) -> usize {
        self.bucket_capacity * self.buckets.len()
    }

    /// Store the premaster secret for a session id; any shard may call this
    /// and any shard will subsequently hit on a lookup.
    pub fn insert(&self, id: SessionId, premaster: Vec<u8>) {
        let evicted = self
            .bucket(&id)
            .write()
            .insert(id, premaster, self.bucket_capacity);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Look up a session; counts hits and misses and refreshes recency.
    pub fn lookup(&self, id: &SessionId) -> Option<Vec<u8>> {
        match self.bucket(id).write().lookup(id) {
            Some(premaster) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(premaster)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remove a session outright (compromise response, or a cache node
    /// invalidating a stale pre-restart entry). Returns whether the
    /// session was present. **Not a lookup**: hit/miss counters — and
    /// therefore [`Self::hit_rate`] — are unaffected.
    pub fn remove(&self, id: &SessionId) -> bool {
        self.bucket(id).write().remove(id)
    }

    /// Number of cached sessions across all buckets.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.read().len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far, across every consulting shard.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Fraction of lookups that hit, across every consulting shard —
    /// the resumption health signal operators watch when placement (e.g.
    /// a dead shard's affinity keys falling over to a sibling) changes
    /// which shard consults the cache.
    ///
    /// The exact semantics (pinned by tests, and the spec every other
    /// [`SessionStore`]'s aggregated hit-rate reporting must match):
    ///
    /// * **No lookups yet ⇒ `None`**, never `Some(0.0)` — a front-end
    ///   that has served only fresh handshakes has an *unknown* hit rate,
    ///   not a zero one, and dashboards must be able to tell the two
    ///   apart. Inserts, [`Self::remove`] calls and evictions alone never
    ///   move it off `None`.
    /// * **Evicted (or removed) sessions count as ordinary misses** when
    ///   next looked up: eviction does not retroactively adjust the
    ///   counters for the hits the entry served while resident, and the
    ///   post-eviction lookup is indistinguishable from a
    ///   never-inserted one.
    /// * The rate is cumulative over the cache's lifetime (no windowing);
    ///   `Some(hits as f64 / (hits + misses) as f64)` exactly.
    pub fn hit_rate(&self) -> Option<f64> {
        let (hits, misses) = self.stats();
        let lookups = hits + misses;
        if lookups == 0 {
            None
        } else {
            Some(hits as f64 / lookups as f64)
        }
    }

    /// Sessions evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Register `store` on `telemetry`: its hits, misses, evictions and
/// resident sessions are pulled into `tls.session_cache.*` at snapshot
/// time — the one collector every session store reports through, standalone
/// or registered with a `ShardedFrontEnd` (whose `instrument` calls this;
/// do not also call it for that store, or the totals double). The
/// collector holds the store weakly.
pub fn instrument_store(store: &Arc<dyn SessionStore>, telemetry: &wedge_telemetry::Telemetry) {
    let store = Arc::downgrade(store);
    telemetry.register_collector(move |sample| {
        let Some(store) = store.upgrade() else {
            return;
        };
        let (hits, misses) = store.stats();
        sample.counter("tls.session_cache.hits", hits);
        sample.counter("tls.session_cache.misses", misses);
        sample.counter("tls.session_cache.evictions", store.evictions());
        sample.gauge("tls.session_cache.resident", store.len() as u64);
    });
}

impl SessionStore for SharedSessionCache {
    fn insert(&self, id: SessionId, premaster: Vec<u8>) {
        SharedSessionCache::insert(self, id, premaster);
    }

    fn lookup(&self, id: &SessionId) -> Option<Vec<u8>> {
        SharedSessionCache::lookup(self, id)
    }

    fn remove(&self, id: &SessionId) {
        SharedSessionCache::remove(self, id);
    }

    fn stats(&self) -> (u64, u64) {
        SharedSessionCache::stats(self)
    }

    fn len(&self) -> usize {
        SharedSessionCache::len(self)
    }

    fn evictions(&self) -> u64 {
        SharedSessionCache::evictions(self)
    }

    fn hit_rate(&self) -> Option<f64> {
        SharedSessionCache::hit_rate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(byte: u8) -> SessionId {
        SessionId::from_bytes(&[byte; 16]).unwrap()
    }

    #[test]
    fn session_id_requires_16_bytes() {
        assert!(SessionId::from_bytes(&[0u8; 16]).is_some());
        assert!(SessionId::from_bytes(&[0u8; 15]).is_none());
        assert!(SessionId::from_bytes(&[]).is_none());
    }

    #[test]
    fn derive_is_deterministic_and_sensitive_to_all_inputs() {
        let a = SessionKeys::derive(b"premaster", b"cr", b"sr");
        let b = SessionKeys::derive(b"premaster", b"cr", b"sr");
        assert_eq!(a, b);
        assert_ne!(
            a.fingerprint(),
            SessionKeys::derive(b"premaster", b"cr", b"sr2").fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            SessionKeys::derive(b"other", b"cr", b"sr").fingerprint()
        );
        assert_eq!(a.master_secret.len(), 48);
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let mut lru = LruEntries::default();
        assert_eq!(lru.insert(id(1), b"one".to_vec(), 2), 0);
        assert_eq!(lru.insert(id(2), b"two".to_vec(), 2), 0);
        // Touch 1 so 2 becomes the LRU entry.
        assert!(lru.lookup(&id(1)).is_some());
        assert_eq!(lru.insert(id(3), b"three".to_vec(), 2), 1);
        assert_eq!(lru.len(), 2);
        assert!(lru.lookup(&id(2)).is_none(), "LRU entry must be evicted");
        assert!(lru.lookup(&id(1)).is_some(), "recently used entry stays");
        assert!(lru.lookup(&id(3)).is_some(), "new entry stays");
        // A resumption flood cannot grow the map past its bound.
        let evicted: u64 = (10..200u8)
            .map(|byte| lru.insert(id(byte), vec![byte], 2))
            .sum();
        assert_eq!(lru.len(), 2);
        assert_eq!(evicted, 190);
    }

    #[test]
    fn reinserting_an_existing_id_does_not_evict() {
        let mut lru = LruEntries::default();
        lru.insert(id(1), b"one".to_vec(), 2);
        lru.insert(id(2), b"two".to_vec(), 2);
        assert_eq!(lru.insert(id(2), b"two-updated".to_vec(), 2), 0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.lookup(&id(2)).unwrap(), b"two-updated");
    }

    #[test]
    fn shared_cache_is_visible_across_handles() {
        let cache = SharedSessionCache::with_capacity(64);
        // "Shard A" inserts...
        cache.insert(id(7), b"premaster".to_vec());
        // ..."shard B" (any other caller of the same service) hits.
        assert_eq!(cache.lookup(&id(7)).unwrap(), b"premaster");
        assert!(cache.lookup(&id(8)).is_none());
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_cache_bounds_every_bucket() {
        let cache = SharedSessionCache::with_capacity(SESSION_CACHE_BUCKETS);
        // Far more distinct sessions than total capacity.
        for byte in 0..255u8 {
            cache.insert(id(byte), vec![byte]);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn shared_cache_supports_concurrent_mixed_traffic() {
        use std::sync::Arc;
        let cache = Arc::new(SharedSessionCache::with_capacity(256));
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for round in 0..50u8 {
                        let sid = id(t.wrapping_mul(50).wrapping_add(round));
                        cache.insert(sid, vec![t, round]);
                        assert_eq!(cache.lookup(&sid).unwrap(), vec![t, round]);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("cache thread");
        }
        let (hits, _misses) = cache.stats();
        assert_eq!(hits, 200);
    }

    #[test]
    fn hit_rate_is_none_until_the_first_lookup() {
        let cache = SharedSessionCache::with_capacity(16);
        assert_eq!(cache.hit_rate(), None, "fresh cache: unknown, not 0%");
        // Inserts and removes alone never move it off `None` — only
        // lookups are rate events.
        cache.insert(id(1), b"one".to_vec());
        cache.insert(id(2), b"two".to_vec());
        cache.remove(&id(2));
        assert_eq!(cache.hit_rate(), None, "writes are not lookups");
        assert!(cache.lookup(&id(1)).is_some());
        assert_eq!(cache.hit_rate(), Some(1.0));
        assert!(cache.lookup(&id(9)).is_none());
        assert_eq!(cache.hit_rate(), Some(0.5));
    }

    #[test]
    fn hit_rate_counts_post_eviction_lookups_as_plain_misses() {
        // Total capacity == bucket count ⇒ every bucket holds exactly one
        // entry, so two ids in the same bucket evict deterministically.
        // The bucket choice is the high half of the public `bucket_key`.
        let bucket_of = |byte: u8| (id(byte).bucket_key() >> 32) % SESSION_CACHE_BUCKETS as u64;
        let victim = 0u8;
        let evictor = (1..=255u8)
            .find(|b| bucket_of(*b) == bucket_of(victim))
            .expect("a colliding id must exist within 256 candidates");

        let cache = SharedSessionCache::with_capacity(SESSION_CACHE_BUCKETS);
        cache.insert(id(victim), b"victim".to_vec());
        assert!(cache.lookup(&id(victim)).is_some(), "resident: hit");
        assert_eq!(cache.hit_rate(), Some(1.0));
        cache.insert(id(evictor), b"evictor".to_vec());
        assert_eq!(cache.evictions(), 1, "bucket capacity 1: victim evicted");
        // The hit the victim served while resident is kept; the
        // post-eviction lookup is an ordinary miss, indistinguishable
        // from a never-inserted id's.
        assert!(cache.lookup(&id(victim)).is_none());
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.hit_rate(), Some(0.5));
        let never_inserted = (1..=255u8)
            .find(|b| *b != evictor && bucket_of(*b) != bucket_of(victim))
            .expect("some id in another bucket");
        assert!(cache.lookup(&id(never_inserted)).is_none());
        assert_eq!(cache.stats(), (1, 2), "same accounting as the eviction");
    }

    #[test]
    fn remove_deletes_without_touching_the_rate() {
        let cache = SharedSessionCache::with_capacity(16);
        cache.insert(id(3), b"three".to_vec());
        assert!(cache.remove(&id(3)), "present entry removed");
        assert!(!cache.remove(&id(3)), "second remove is a no-op");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hit_rate(), None, "remove is not a lookup");
        assert!(cache.lookup(&id(3)).is_none());
        assert_eq!(cache.stats(), (0, 1));
    }

    #[test]
    fn session_store_trait_object_matches_the_inherent_api() {
        use std::sync::Arc;
        let cache = Arc::new(SharedSessionCache::with_capacity(32));
        let store: Arc<dyn SessionStore> = cache.clone();
        store.insert(id(4), b"four".to_vec());
        assert_eq!(store.lookup(&id(4)).unwrap(), b"four");
        assert_eq!(store.stats(), cache.stats());
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.hit_rate(), Some(1.0));
        store.remove(&id(4));
        assert!(store.is_empty());
    }

    #[test]
    fn display_is_stable() {
        let id = SessionId::from_bytes(&[0xAB; 16]).unwrap();
        assert_eq!(id.to_string(), "sess-abababab");
    }
}
