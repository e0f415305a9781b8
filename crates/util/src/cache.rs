//! Bounded, byte-accounted caching: a sharded segmented-LRU.
//!
//! Every memo table that makes this workspace fast (the engine's
//! block-annotation cache, the external result cache) is a pure
//! memoization: evicting an entry can never
//! change a result, only the time it takes to recompute it. That makes
//! a bounded cache the natural containment tool for the adversarial
//! regime a long-running server faces — an endless stream of *distinct*
//! blocks that would otherwise grow every table without limit.
//!
//! The building blocks:
//!
//! * [`HeapSize`] — how many bytes of owned heap storage a key or value
//!   drags along, so caches are bounded in *bytes* (the unit operators
//!   budget in), not entry counts.
//! * [`SlruCache`] — a sharded **segmented LRU**: new entries enter a
//!   *probation* segment; an entry touched again while on probation is
//!   promoted to a *protected* segment, so one streaming scan of
//!   never-reused keys cannot flush the hot working set. Hits only set
//!   a referenced bit (clock-style), so the warm path stays O(1) with
//!   no list splicing; the referenced bits are consumed lazily by the
//!   eviction scan. Shards are guarded by [`PoisonlessMutex`] so one
//!   contained panic cannot wedge the cache.
//!
//! Each cache's capacity is its whole bound: every insert evicts its
//! shard back under `capacity / 16` before the lock is released, so a
//! process that splits one memory budget into per-cache capacities
//! (as `facile serve --cache-budget-mb` does) is bounded by their sum
//! with no shared ledger to consult. Byte and eviction counts live in
//! the shards and are summed on read, so the insert path writes no
//! cache-wide counter.

use crate::fxhash::FxBuildHasher;
use crate::sync::PoisonlessMutex;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes of owned heap storage reachable from a value (excluding the
/// value's own inline `size_of` footprint, which the container that
/// stores it accounts for separately).
///
/// Implementations are *accounting policy*, not forensic truth: shared
/// (`Arc`ed) substructure should be counted by exactly one owner and
/// treated as pointer-sized by everyone else, so the byte counts of
/// several caches sharing it sum without double counting.
pub trait HeapSize {
    /// Owned heap bytes reachable from `self`.
    fn heap_bytes(&self) -> usize;
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for Arc<str> {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<T: Copy + Default + HeapSize, const N: usize> HeapSize for crate::SmallVec<T, N> {
    fn heap_bytes(&self) -> usize {
        self.spill_bytes()
    }
}

/// Number of independent lock shards (a power of two; selection is a
/// mask of the key hash). Matches the sharding the pre-bounded memo
/// tables used.
const SHARDS: usize = 16;

/// Accounted fixed cost per resident entry: the hash-map node, the
/// queue node (which carries a clone of the key), and the segment
/// bookkeeping. An estimate — the point of accounting is a stable,
/// deterministic proxy for memory, not allocator forensics.
const ENTRY_OVERHEAD: usize = 64;

/// Fraction (numerator / 10) of a shard's capacity the protected
/// segment may occupy before promotions start demoting its LRU tail
/// back to probation. 8/10 is the classic SLRU split.
const PROTECTED_TENTHS: usize = 8;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Accounted bytes of this entry (overhead + key + value heap).
    bytes: usize,
    /// Matches the live queue node for this entry; a queue node whose
    /// stamp disagrees is stale and is skipped by the eviction scan.
    stamp: u64,
    /// Clock bit: set on every hit, consumed by the eviction scan.
    referenced: bool,
    /// Which segment the entry lives in.
    protected: bool,
}

#[derive(Debug)]
struct Shard<K, V> {
    /// Keys are caller-controlled bytes (instruction and block
    /// encodings), so the map uses the standard, randomly keyed hasher:
    /// FxHash's low bits depend only on the key's low bits, and keys
    /// differing only in their high bytes would share one bucket.
    map: HashMap<K, Entry<V>>,
    /// Insertion-ordered queue of probation entries (newest at back).
    probation: VecDeque<(K, u64)>,
    /// Clock queue of protected entries.
    protected: VecDeque<(K, u64)>,
    /// Accounted bytes resident in this shard.
    bytes: usize,
    /// Accounted bytes of the protected segment.
    protected_bytes: usize,
    /// Entries this shard has evicted since the last clear.
    evictions: u64,
    /// Monotonic stamp source for queue/entry pairing.
    next_stamp: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            bytes: 0,
            protected_bytes: 0,
            evictions: 0,
            next_stamp: 0,
        }
    }
}

impl<K: Hash + Eq + Clone + HeapSize, V: HeapSize> Shard<K, V> {
    fn entry_bytes(key: &K, value: &V) -> usize {
        // The queue node clones the key, so key heap counts twice.
        ENTRY_OVERHEAD
            + std::mem::size_of::<K>()
            + 2 * key.heap_bytes()
            + std::mem::size_of::<V>()
            + value.heap_bytes()
    }

    /// Apply `with` to the resident value for `key` in place and
    /// re-account its bytes (the key is unchanged, so only the value's
    /// heap contribution can move); an absent key hands `with` back.
    fn update<Q, R, F>(&mut self, key: &Q, with: F) -> Result<R, F>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        F: FnOnce(&mut V) -> R,
    {
        let Some(e) = self.map.get_mut(key) else {
            return Err(with);
        };
        let before = e.value.heap_bytes();
        let result = with(&mut e.value);
        let after = e.value.heap_bytes();
        e.referenced = true;
        e.bytes = e.bytes + after - before;
        if e.protected {
            self.protected_bytes = self.protected_bytes + after - before;
        }
        self.bytes = self.bytes + after - before;
        Ok(result)
    }

    /// Insert a vacant `key` on probation with `value` after applying
    /// `with` to it.
    fn insert_new<R>(&mut self, key: K, mut value: V, with: impl FnOnce(&mut V) -> R) -> R {
        let result = with(&mut value);
        let bytes = Self::entry_bytes(&key, &value);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.probation.push_back((key.clone(), stamp));
        self.map.insert(
            key,
            Entry {
                value,
                bytes,
                stamp,
                referenced: false,
                protected: false,
            },
        );
        self.bytes += bytes;
        result
    }

    /// Evict exactly one entry (probation first, then a clock scan of
    /// the protected segment). Returns `false` when the shard is empty.
    fn evict_one(&mut self, shard_cap: usize) -> bool {
        // Probation scan: referenced entries are promoted (their second
        // touch proved reuse), unreferenced ones are evicted.
        while let Some((key, stamp)) = self.probation.pop_front() {
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || e.protected {
                continue; // stale queue node
            }
            if e.referenced {
                e.referenced = false;
                e.protected = true;
                self.protected_bytes += e.bytes;
                self.protected.push_back((key, stamp));
                self.rebalance_protected(shard_cap);
                continue;
            }
            let bytes = e.bytes;
            self.map.remove(&key);
            self.bytes -= bytes;
            return true;
        }
        // Protected clock scan: first pass clears referenced bits, so
        // the loop terminates after at most one full revolution.
        while let Some((key, stamp)) = self.protected.pop_front() {
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || !e.protected {
                continue;
            }
            if e.referenced {
                e.referenced = false;
                self.protected.push_back((key, stamp));
                continue;
            }
            let bytes = e.bytes;
            self.map.remove(&key);
            self.bytes -= bytes;
            self.protected_bytes -= bytes;
            return true;
        }
        false
    }

    /// Demote the protected segment's LRU tail back to probation while
    /// the segment exceeds its share of the shard capacity.
    fn rebalance_protected(&mut self, shard_cap: usize) {
        let protected_cap = shard_cap / 10 * PROTECTED_TENTHS;
        while self.protected_bytes > protected_cap {
            let Some((key, stamp)) = self.protected.pop_front() else {
                return;
            };
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || !e.protected {
                continue;
            }
            e.protected = false;
            self.protected_bytes -= e.bytes;
            self.probation.push_back((key, stamp));
        }
    }

    /// Evict until the shard holds at most `target` accounted bytes.
    fn evict_to(&mut self, target: usize, shard_cap: usize) {
        while self.bytes > target && self.evict_one(shard_cap) {
            self.evictions += 1;
        }
    }
}

/// A thread-safe, sharded, byte-bounded segmented-LRU cache.
///
/// Values are mutated and read in place under the shard lock via
/// closures (the workspace's caches store `Arc`-heavy entries whose
/// relevant parts are cheap to clone *inside* the closure). Byte
/// accounting is recomputed whenever a value is created or mutated;
/// plain reads only set the entry's clock bit.
///
/// Capacity is enforced per shard at `capacity / 16`, so a pathological
/// key distribution cannot let one shard starve the others.
#[derive(Debug)]
pub struct SlruCache<K, V> {
    shards: [PoisonlessMutex<Shard<K, V>>; SHARDS],
    hasher: FxBuildHasher,
    capacity: AtomicUsize,
}

impl<K: Hash + Eq + Clone + HeapSize, V: HeapSize> SlruCache<K, V> {
    /// An empty cache holding at most `capacity` accounted bytes
    /// (`usize::MAX` for effectively unbounded-but-accounted).
    #[must_use]
    pub fn new(capacity: usize) -> SlruCache<K, V> {
        SlruCache {
            shards: std::array::from_fn(|_| PoisonlessMutex::new(Shard::default())),
            hasher: FxBuildHasher::default(),
            capacity: AtomicUsize::new(capacity),
        }
    }

    fn shard_index<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        // High bits: the low bits of an Fx hash are the weakest. FxHash
        // has no per-process seed, so shard choice, and with it
        // eviction, is the same on every run.
        (self.hasher.hash_one(key) as usize >> 48) & (SHARDS - 1)
    }

    fn shard_cap(&self) -> usize {
        self.capacity.load(Ordering::Relaxed) / SHARDS
    }

    /// Read a resident value through `f`, marking the entry as
    /// recently used. Returns `None` on a miss.
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shards[self.shard_index(key)].lock();
        let e = shard.map.get_mut(key)?;
        // A hot entry's bit is already set: leave its line clean.
        if !e.referenced {
            e.referenced = true;
        }
        Some(f(&e.value))
    }

    /// Get-or-create the entry for `key` and apply `with` to its value
    /// in place. On a vacant slot `make_key`/`make` build the owned key
    /// and initial value; the value's accounted bytes are recomputed
    /// after `with` runs (it may grow the value), and the shard is then
    /// evicted back under its capacity share.
    ///
    /// Run heavy computation *before* calling this and let `with` only
    /// publish the result — the closures execute under the shard lock.
    pub fn get_or_insert_with<Q, R>(
        &self,
        key: &Q,
        make_key: impl FnOnce() -> K,
        make: impl FnOnce() -> V,
        with: impl FnOnce(&mut V) -> R,
    ) -> R
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard_cap = self.shard_cap();
        let mut guard = self.shards[self.shard_index(key)].lock();
        let shard = &mut *guard;
        let result = match shard.update(key, with) {
            Ok(result) => result,
            Err(with) => shard.insert_new(make_key(), make(), with),
        };
        shard.evict_to(shard_cap, shard_cap);
        result
    }

    /// Apply `with` to the resident value for `key` in place, as
    /// [`SlruCache::get_or_insert_with`] does, but leave an absent key
    /// absent. Returns `None` on a miss.
    pub fn update<Q, R>(&self, key: &Q, with: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard_cap = self.shard_cap();
        let mut shard = self.shards[self.shard_index(key)].lock();
        let result = shard.update(key, with).ok()?;
        shard.evict_to(shard_cap, shard_cap);
        Some(result)
    }

    /// Insert `value` for `key` if the key is absent. First writer wins
    /// (matching every memo table in this workspace: a racing duplicate
    /// computed the same value). An existing entry is marked as used.
    pub fn insert(&self, key: K, value: V) {
        let probe = key.clone();
        self.get_or_insert_with(&probe, move || key, move || value, |_| ());
    }

    /// Visit every resident `(key, value)` pair. Shards are visited in
    /// index order while holding one shard lock at a time, entries
    /// within a shard in no fixed order; entries are not marked as used.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            let shard = s.lock();
            for (k, e) in &shard.map {
                f(k, &e.value);
            }
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes currently resident.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// The configured capacity in accounted bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Lifetime eviction count (reset by [`SlruCache::clear`]).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().evictions).sum()
    }

    /// Change the capacity, evicting down to it if the cache is over.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.shrink_to(capacity);
    }

    /// Evict until at most `target` accounted bytes remain (each shard
    /// is brought under its proportional share).
    pub fn shrink_to(&self, target: usize) {
        let shard_cap = self.shard_cap();
        for s in &self.shards {
            s.lock().evict_to(target / SHARDS, shard_cap);
        }
    }

    /// Drop every entry and reset the byte/eviction counters;
    /// outstanding `Arc`s held by callers stay valid.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            shard.map.clear();
            shard.probation.clear();
            shard.protected.clear();
            shard.bytes = 0;
            shard.protected_bytes = 0;
            shard.evictions = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> SlruCache<Box<[u8]>, Vec<u8>> {
        SlruCache::new(cap)
    }

    fn key(i: u32) -> Box<[u8]> {
        i.to_le_bytes().to_vec().into_boxed_slice()
    }

    #[test]
    fn read_hits_and_misses() {
        let c = cache(usize::MAX);
        assert!(c.read(&key(1)[..], |_| ()).is_none());
        c.insert(key(1), vec![7; 10]);
        assert_eq!(c.read(&key(1)[..], |v| v.len()), Some(10));
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 10);
    }

    #[test]
    fn byte_accounting_is_exact_and_clears() {
        let c = cache(usize::MAX);
        for i in 0..100 {
            c.insert(key(i), vec![0; i as usize]);
        }
        let expected: usize = (0..100u32)
            .map(|i| {
                ENTRY_OVERHEAD
                    + std::mem::size_of::<Box<[u8]>>()
                    + 2 * 4
                    + std::mem::size_of::<Vec<u8>>()
                    + i as usize
            })
            .sum();
        assert_eq!(c.bytes(), expected);
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let c = cache(16 * 1024);
        for i in 0..10_000 {
            c.insert(key(i), vec![0; 64]);
        }
        assert!(c.bytes() <= 16 * 1024, "bytes {} over cap", c.bytes());
        assert!(c.evictions() > 0);
        assert!(c.len() < 10_000);
    }

    #[test]
    fn reused_entries_survive_a_streaming_scan() {
        // Touch a small hot set twice so it is promoted to protected,
        // then stream thousands of cold keys through; the hot set must
        // survive.
        let c = cache(SHARDS * 2048);
        for i in 0..8 {
            c.insert(key(i), vec![0; 16]);
        }
        for i in 0..8 {
            assert!(c.read(&key(i)[..], |_| ()).is_some());
        }
        // Force eviction scans so the referenced hot set is promoted.
        for i in 1000..9000 {
            c.insert(key(i), vec![0; 16]);
        }
        let survivors = (0..8).filter(|&i| contains(&c, &key(i))).count();
        assert!(
            survivors >= 6,
            "only {survivors}/8 hot entries survived the scan"
        );
    }

    /// Presence check without touching the clock bit.
    fn contains(c: &SlruCache<Box<[u8]>, Vec<u8>>, k: &[u8]) -> bool {
        let mut found = false;
        c.for_each(|key, _| {
            if &key[..] == k {
                found = true;
            }
        });
        found
    }

    #[test]
    fn update_in_place_reaccounts() {
        let c = cache(usize::MAX);
        c.insert(key(1), Vec::new());
        let before = c.bytes();
        c.get_or_insert_with(
            &key(1)[..],
            || key(1),
            Vec::new,
            |v| {
                *v = vec![0; 100];
            },
        );
        assert_eq!(c.bytes(), before + 100);
        assert_eq!(c.len(), 1);
        c.get_or_insert_with(
            &key(1)[..],
            || key(1),
            Vec::new,
            |v| {
                *v = vec![0; 10];
            },
        );
        assert_eq!(c.bytes(), before + 10);
    }

    #[test]
    fn update_leaves_an_absent_key_absent() {
        let c = cache(usize::MAX);
        assert_eq!(c.update(&key(1)[..], |v| v.push(1)), None);
        assert!(c.is_empty());
        c.insert(key(1), Vec::new());
        let before = c.bytes();
        assert_eq!(c.update(&key(1)[..], |v| v.extend([0; 40])), Some(()));
        assert_eq!(
            c.bytes(),
            before + c.read(&key(1)[..], Vec::capacity).unwrap()
        );
        // A bounded cache evicts back under its capacity after an update.
        let c = cache(SHARDS * 256);
        for i in 0..64 {
            c.insert(key(i), Vec::new());
        }
        for i in 0..64 {
            c.update(&key(i)[..], |v| v.extend([0; 200]));
        }
        assert!(c.bytes() <= SHARDS * 256, "bytes {} over cap", c.bytes());
        assert!(c.evictions() > 0);
    }

    #[test]
    fn shrink_to_and_set_capacity() {
        let c = cache(usize::MAX);
        for i in 0..1000 {
            c.insert(key(i), vec![0; 64]);
        }
        let full = c.bytes();
        c.shrink_to(full / 2);
        assert!(c.bytes() <= full / 2 + full / 8);
        c.set_capacity(4096);
        assert!(c.bytes() <= 4096);
        assert_eq!(c.capacity(), 4096);
    }

    #[test]
    fn heap_size_impls() {
        assert_eq!(1u64.heap_bytes(), 0);
        assert_eq!(vec![1u8, 2, 3].heap_bytes(), vec![1u8, 2, 3].capacity());
        let b: Box<[u8]> = vec![1, 2, 3, 4].into();
        assert_eq!(b.heap_bytes(), 4);
        assert_eq!(String::with_capacity(32).heap_bytes(), 32);
        assert_eq!((vec![0u8; 7], 1u32).heap_bytes(), 7);
        assert_eq!(Some(vec![0u8; 5]).heap_bytes(), 5);
        assert_eq!(None::<Vec<u8>>.heap_bytes(), 0);
        let mut sv: crate::SmallVec<u8, 4> = crate::SmallVec::new();
        sv.extend([1, 2, 3]);
        assert_eq!(sv.heap_bytes(), 0);
        sv.extend([4, 5, 6]);
        assert!(sv.heap_bytes() >= 6);
    }
}
