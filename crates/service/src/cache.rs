//! The cross-request outcome cache.
//!
//! Maps a [`ContentDigest`] cache key (application content combined with
//! the engine/request knob digests — see [`crate::Service`]) to the
//! *outcome* of computing it: for the service, the synthesis report or
//! the error a cold run produced. Synthesis is a deterministic function
//! of that key, so a hit clones the stored outcome and runs nothing.
//!
//! The cache is **single-flight**: each entry is an
//! `Arc<OnceLock<V>>` slot, inserted empty under the lock and filled
//! outside it by [`ArtifactCache::get_or_init`]. Concurrent lookups of a
//! key that is still being computed wait on the one computation instead
//! of each running their own, so a key is computed once per residency
//! however many requests race for it. A computation that panics leaves
//! its slot empty (the panic propagates to the caller); the next lookup
//! of that key computes again and counts as a miss.
//!
//! Eviction is least-recently-used over a capacity bound. The map is
//! small (hundreds of entries, a few KB each), so LRU is tracked with a
//! monotonic use-stamp per entry and eviction scans for the minimum —
//! O(capacity), which at these sizes is cheaper and simpler than an
//! intrusive list, and never wrong. Evicting a slot that is still being
//! filled is harmless: the computing caller holds its own `Arc` of the
//! slot and still gets its value.

use ftqs_core::ContentDigest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Counters and occupancy of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a stored outcome, without computing.
    pub hits: u64,
    /// Lookups that ran the computation (each one computed the value,
    /// including computations that panicked).
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Live entries at snapshot time (including slots still being
    /// filled).
    pub entries: usize,
    /// The capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Debug)]
struct Entry<V> {
    slot: Arc<OnceLock<V>>,
    last_used: u64,
}

#[derive(Debug)]
struct Inner<V> {
    map: HashMap<ContentDigest, Entry<V>>,
    tick: u64,
    evictions: u64,
}

/// Bounded, thread-safe, single-flight LRU cache of computed values.
#[derive(Debug)]
pub struct ArtifactCache<V> {
    inner: Mutex<Inner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl<V: Clone> ArtifactCache<V> {
    /// An empty cache bounded to `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                evictions: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Locks the cache state, recovering from poisoning: nothing panics
    /// while the map is half-mutated (computations run outside the lock),
    /// so the state behind a poisoned lock is still coherent — a
    /// panicking worker thread must never wedge the rest of the fleet out
    /// of the cache.
    fn lock_inner(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot of `key`, refreshing its recency, or a fresh empty slot
    /// (evicting the least-recently-used entry when the bound is hit).
    fn slot(&self, key: ContentDigest) -> Arc<OnceLock<V>> {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.slot);
        }
        if inner.map.len() >= self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("capacity > 0 means a non-empty full map");
            inner.map.remove(&lru);
            inner.evictions += 1;
        }
        let slot = Arc::new(OnceLock::new());
        inner.map.insert(
            key,
            Entry {
                slot: Arc::clone(&slot),
                last_used: tick,
            },
        );
        slot
    }

    /// The value stored under `key`, computing it with `init` when there
    /// is none; `true` alongside means it came from the cache. A caller
    /// that finds the key being computed by another waits for that
    /// computation. If `init` panics, the panic propagates and the key
    /// stays uncomputed.
    pub fn get_or_init(&self, key: ContentDigest, init: impl FnOnce() -> V) -> (V, bool) {
        let slot = self.slot(key);
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                self.misses.fetch_add(1, Ordering::Relaxed);
                init()
            })
            .clone();
        if !computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (value, !computed)
    }

    /// A snapshot of the counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::digest::Hasher;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    fn key(n: u64) -> ContentDigest {
        let mut h = Hasher::new();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache = ArtifactCache::new(2);
        assert_eq!(cache.get_or_init(key(1), || 10), (10, false));
        assert_eq!(cache.get_or_init(key(1), || unreachable!()), (10, true));
        assert_eq!(cache.get_or_init(key(2), || 20), (20, false));
        // k1 was last touched before k2's insertion, so the third insert
        // displaces k1.
        assert_eq!(cache.get_or_init(key(3), || 30), (30, false));
        assert_eq!(cache.get_or_init(key(1), || 11), (11, false), "LRU evicted");
        assert_eq!(cache.get_or_init(key(3), || unreachable!()), (30, true));

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recency_is_refreshed_by_a_hit() {
        let cache = ArtifactCache::new(2);
        cache.get_or_init(key(1), || 1);
        cache.get_or_init(key(2), || 2);
        assert!(cache.get_or_init(key(1), || 0).1); // refresh k1: k2 is LRU
        cache.get_or_init(key(3), || 3);
        assert!(cache.get_or_init(key(1), || 0).1);
        assert!(!cache.get_or_init(key(2), || 2).1, "k2 was the LRU entry");
    }

    #[test]
    fn a_panicking_computation_leaves_the_key_recomputable() {
        let cache = ArtifactCache::new(4);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_init(key(7), || -> u32 { panic!("computation failed") })
        }));
        assert!(unwound.is_err(), "the panic reaches the caller");
        assert_eq!(cache.get_or_init(key(7), || 70), (70, false));
        assert_eq!(cache.get_or_init(key(7), || unreachable!()), (70, true));
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "the panicked run and the recomputation");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn concurrent_lookups_of_one_key_compute_once() {
        let cache = ArtifactCache::new(4);
        let runs = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    // The sleep only widens the overlap, so that a cache
                    // without single-flight would compute more than once;
                    // the assertions hold under any interleaving.
                    let (v, _) = cache.get_or_init(key(1), || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42u32
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 7));
    }
}
