//! Cross-session keyed cache of prepared solver state (the serve layer's
//! amortization store).
//!
//! The paper's economics are amortization: ordering, symbolic factorization
//! and block-cut resolution dominate a single set-up, and reusing them is
//! what makes GPU Schur assembly pay off. Within one batch the assembly
//! drivers memoize cut resolution across equal-shape subdomains,
//! and `sc_feti`'s factorization loop analyzes each class of subdomains with
//! one pattern of `K` once (an `Arc`-shared `sc_factor::Analysis`);
//! a persistent service amortizes across *problems*: any client submitting a
//! job with the same content key (mesh/pattern hash + assembly config +
//! precision) reuses the prepared state of whoever computed it first.
//!
//! [`SessionCache`] is that store: a thread-safe, byte-budgeted LRU keyed by
//! a 64-bit content hash ([`ContentHasher`]). Values are `Arc`-shared, so an
//! eviction never invalidates state a running job already holds — eviction
//! only drops the cache's own reference (the property the serve crate's
//! eviction-correctness proptests pin).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// FNV-1a-style streaming hasher producing the 64-bit content keys of
/// [`SessionCache`]. Deterministic across runs and platforms (unlike
/// `std::collections::hash_map::DefaultHasher`, which is randomly seeded per
/// process), so keys are stable identifiers a client could even precompute.
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> Self {
        ContentHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorb a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorb a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Absorb an `f64` by bit pattern (`NaN`s with different payloads hash
    /// differently — content identity, not numeric equality).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorb a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// produce different keys.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Counter snapshot of a [`SessionCache`] (the serve `stats` request reports
/// these per service).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Entries dropped to make room under the byte budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently accounted against the budget.
    pub bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
}

impl SessionCacheStats {
    /// `hits / (hits + misses)`, `0.0` when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64 // sc-analyze: allow(precision-discipline)
        }
    }
}

struct CacheEntry<T> {
    value: Arc<T>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner<T> {
    map: HashMap<u64, CacheEntry<T>>,
    /// Monotonic logical clock stamping `last_used` (no wall clock: LRU
    /// order must be deterministic for the eviction proptests).
    clock: u64,
    bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// Thread-safe byte-budgeted LRU keyed by a [`ContentHasher`] digest.
///
/// `insert` evicts least-recently-used entries until the newcomer fits; a
/// value whose own size exceeds the whole budget is not cached at all (the
/// job still runs, it just doesn't amortize). All values are `Arc`-shared:
/// eviction drops the cache's reference only, never state in use.
pub struct SessionCache<T> {
    inner: Mutex<CacheInner<T>>,
    budget_bytes: usize,
}

impl<T> SessionCache<T> {
    /// Empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        SessionCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget_bytes,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.last_used = clock;
                let v = Arc::clone(&e.value);
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key`, charging `bytes` against the budget and
    /// evicting LRU entries until it fits. Returns `false` (and caches
    /// nothing) when `bytes` alone exceeds the budget. Re-inserting an
    /// existing key replaces the entry and its byte charge.
    pub fn insert(&self, key: u64, value: Arc<T>, bytes: usize) -> bool {
        if bytes > self.budget_bytes {
            return false;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + bytes > self.budget_bytes {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty map whenever resident bytes exceed the remaining budget");
            let evicted = inner.map.remove(&lru).expect("key from live iteration");
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
        }
        inner.map.insert(
            key,
            CacheEntry {
                value,
                bytes,
                last_used: clock,
            },
        );
        inner.bytes += bytes;
        true
    }

    /// Drop every entry (counters survive; the budget is unchanged).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionCacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        SessionCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hasher_is_deterministic_and_order_sensitive() {
        let mut a = ContentHasher::new();
        a.write_str("mesh").write_usize(64).write_f64(1.5);
        let mut b = ContentHasher::new();
        b.write_str("mesh").write_usize(64).write_f64(1.5);
        assert_eq!(a.finish(), b.finish());
        let mut c = ContentHasher::new();
        c.write_usize(64).write_str("mesh").write_f64(1.5);
        assert_ne!(a.finish(), c.finish(), "field order must matter");
        // length prefixing: ("ab","c") != ("a","bc")
        let mut d = ContentHasher::new();
        d.write_str("ab").write_str("c");
        let mut e = ContentHasher::new();
        e.write_str("a").write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = SessionCache::<Vec<u8>>::new(1024);
        assert!(cache.get(7).is_none());
        assert!(cache.insert(7, Arc::new(vec![1, 2, 3]), 100));
        let v = cache.get(7).expect("hit after insert");
        assert_eq!(*v, vec![1, 2, 3]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!((s.entries, s.bytes), (1, 100));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = SessionCache::<&'static str>::new(300);
        cache.insert(1, Arc::new("a"), 100);
        cache.insert(2, Arc::new("b"), 100);
        cache.insert(3, Arc::new("c"), 100);
        // touch 1 so 2 becomes the LRU
        cache.get(1);
        assert!(cache.insert(4, Arc::new("d"), 100));
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_value_is_not_cached_and_evicts_nothing() {
        let cache = SessionCache::<u32>::new(100);
        cache.insert(1, Arc::new(10), 60);
        assert!(!cache.insert(2, Arc::new(20), 101));
        assert!(cache.get(1).is_some(), "resident entry untouched");
        assert!(cache.get(2).is_none());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_replaces_byte_charge() {
        let cache = SessionCache::<u32>::new(100);
        cache.insert(1, Arc::new(10), 80);
        cache.insert(1, Arc::new(11), 40);
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (1, 40));
        assert_eq!(*cache.get(1).unwrap(), 11);
    }

    #[test]
    fn evicted_arc_survives_while_held() {
        let cache = SessionCache::<Vec<u64>>::new(100);
        cache.insert(1, Arc::new(vec![42; 4]), 100);
        let held = cache.get(1).unwrap();
        cache.insert(2, Arc::new(vec![7; 4]), 100); // evicts key 1
        assert!(cache.get(1).is_none());
        assert_eq!(held[0], 42, "in-use state outlives its eviction");
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = SessionCache::<u32>::new(100);
        cache.insert(1, Arc::new(1), 10);
        cache.get(1);
        cache.clear();
        assert!(cache.get(1).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.hits, 1);
    }
}
