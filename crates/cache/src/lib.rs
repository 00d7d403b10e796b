#![warn(missing_docs)]

//! Hotspot-aware per-node read cache for GRED.
//!
//! The paper's retrieval service fetches the replica nearest the access
//! point in virtual space; this crate closes the remaining locality gap
//! by letting an access node answer repeated reads of a hot key without
//! any peer traffic at all. [`ReadCache`] is:
//!
//! - **sharded** — power-of-two lock shards selected by the key's hash,
//!   exactly the `gred_runtime::shard` idiom (`try_lock` first, count a
//!   contention hint, recover poisoned shards), so cache probes on the
//!   reactor's inline fast path never serialize against each other;
//! - **bounded** — a global byte budget split evenly across shards, each
//!   shard evicting with the CLOCK second-chance sweep (a ring of keys,
//!   a hand, one referenced bit per entry). Ring slots whose entry was
//!   invalidated out from under them are reclaimed lazily by the sweep;
//! - **epoch-stamped** — every shard carries an invalidation epoch that
//!   [`ReadCache::invalidate`] and [`ReadCache::flush`] bump. A read
//!   that wants to populate the cache takes a [`Token`] *before* its
//!   peer RPC and inserts through [`ReadCache::insert_if_fresh`], which
//!   refuses when the epoch moved: a write that invalidated the id while
//!   the read was in flight can never be shadowed by the stale payload
//!   arriving late. A token also tells whether its shard is still
//!   [pristine](Token::is_pristine): untouched by any write's
//!   invalidation ([`ReadCache::take_invalidation`]);
//! - **two-tier** — an entry admitted as *shared* may also answer other
//!   switches' requests ([`ReadCache::get_shared`]); a plain one only
//!   this node's own.
//!
//! The cache stores whole replica ids (`DataId::replica(k)` values are
//! distinct keys), so coherence is per replica copy — the same unit the
//! store and the invalidation protocol use.

use bytes::Bytes;
use gred_hash::DataId;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default shard count — matches `gred_runtime::shard::DEFAULT_SHARDS`,
/// enough that reactor threads and pool workers rarely collide.
pub const DEFAULT_SHARDS: usize = 16;

/// Fixed per-entry accounting overhead (key, map slot, ring slot) added
/// to the payload length when charging the byte budget.
const ENTRY_OVERHEAD: usize = 64;

/// One cached payload.
struct Entry {
    payload: Bytes,
    /// Admitted with [`ReadCache::insert_shared_if_fresh`].
    shared: bool,
    /// CLOCK second-chance bit, set by hits, cleared by the sweep.
    referenced: bool,
}

fn cost(payload: &Bytes) -> usize {
    payload.len() + ENTRY_OVERHEAD
}

/// One lock shard: the entries, the CLOCK ring over their keys, and the
/// shard's invalidation epoch.
#[derive(Default)]
struct Shard {
    map: HashMap<DataId, Entry>,
    /// CLOCK ring. May contain stale keys (invalidated entries); the
    /// sweep reclaims those slots with `swap_remove` as it meets them.
    ring: Vec<DataId>,
    hand: usize,
    bytes: usize,
    /// Bumped by every invalidation or flush touching this shard.
    epoch: u64,
    /// A write has invalidated an id in this shard.
    touched: bool,
}

/// Snapshot of a token taken by [`ReadCache::begin_read`]: which shard
/// the id hashes to and the shard's epoch at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    shard: usize,
    epoch: u64,
    touched: bool,
}

impl Token {
    /// Whether no write had invalidated anything in the token's shard
    /// when the token was taken.
    pub fn is_pristine(&self) -> bool {
        !self.touched
    }
}

/// Monotonic cache counters, all relaxed atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads answered from the cache.
    pub hits: u64,
    /// Reads that consulted the cache and missed.
    pub misses: u64,
    /// Entries evicted by the CLOCK sweep to stay under budget.
    pub evictions: u64,
    /// Entries dropped by an explicit invalidation (not flushes).
    pub invalidations: u64,
}

/// A sharded, bounded, epoch-stamped read cache. See the crate docs.
pub struct ReadCache {
    shards: Box<[Mutex<Shard>]>,
    hasher: RandomState,
    /// Per-shard byte budget; zero disables the cache entirely.
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    contended: AtomicU64,
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCache")
            .field("shards", &self.shards.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .field("entries", &self.len())
            .finish_non_exhaustive()
    }
}

impl ReadCache {
    /// A cache bounded by `byte_budget` across [`DEFAULT_SHARDS`]
    /// shards. A zero budget disables the cache: every probe misses
    /// silently and nothing is ever admitted.
    pub fn new(byte_budget: usize) -> ReadCache {
        ReadCache::with_shards(byte_budget, DEFAULT_SHARDS)
    }

    /// A cache with at least `shards` shards (rounded up to a power of
    /// two so selection is a mask) splitting `byte_budget` evenly.
    pub fn with_shards(byte_budget: usize, shards: usize) -> ReadCache {
        let n = shards.max(1).next_power_of_two();
        ReadCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            hasher: RandomState::new(),
            per_shard_budget: byte_budget / n,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard_budget > 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Monotonic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Times any shard lock was observed contended.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| self.lock(s).map.is_empty())
    }

    fn shard_index(&self, id: &DataId) -> usize {
        let h = self.hasher.hash_one(id) as usize;
        h & (self.shards.len() - 1)
    }

    /// The shard-lock idiom shared with `gred_runtime::shard`: try
    /// first, count contention when waiting, recover poisoned shards
    /// (all mutations are single map/ring calls, never torn).
    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Looks `id` up, counting a hit or miss and feeding the CLOCK
    /// referenced bit. A disabled cache returns `None` without
    /// counting.
    pub fn get(&self, id: &DataId) -> Option<Bytes> {
        self.probe(id, false)
    }

    /// Like [`get`](ReadCache::get), but only a shared entry is a hit.
    pub fn get_shared(&self, id: &DataId) -> Option<Bytes> {
        self.probe(id, true)
    }

    fn probe(&self, id: &DataId, shared_only: bool) -> Option<Bytes> {
        if !self.is_enabled() {
            return None;
        }
        let mut shard = self.lock(&self.shards[self.shard_index(id)]);
        match shard.map.get_mut(id).filter(|e| e.shared || !shared_only) {
            Some(entry) => {
                entry.referenced = true;
                let payload = entry.payload.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Snapshots the invalidation epoch of `id`'s shard. Take the token
    /// *before* issuing the read RPC whose response may populate the
    /// cache; [`ReadCache::insert_if_fresh`] then refuses the insert if
    /// any invalidation touched the shard in between.
    pub fn begin_read(&self, id: &DataId) -> Token {
        let shard = self.shard_index(id);
        let guard = self.lock(&self.shards[shard]);
        Token {
            shard,
            epoch: guard.epoch,
            touched: guard.touched,
        }
    }

    /// Admits `payload` under `id` unless the shard's epoch moved past
    /// `token` (an invalidation raced the read) or the entry cannot fit
    /// the per-shard budget. Returns whether the entry was admitted.
    pub fn insert_if_fresh(&self, token: Token, id: DataId, payload: Bytes) -> bool {
        self.admit(token, id, payload, false)
    }

    /// Like [`insert_if_fresh`](ReadCache::insert_if_fresh), admitting a
    /// shared entry.
    pub fn insert_shared_if_fresh(&self, token: Token, id: DataId, payload: Bytes) -> bool {
        self.admit(token, id, payload, true)
    }

    fn admit(&self, token: Token, id: DataId, payload: Bytes, shared: bool) -> bool {
        let need = cost(&payload);
        if need > self.per_shard_budget {
            return false;
        }
        debug_assert_eq!(token.shard, self.shard_index(&id), "token from another id");
        let mut shard = self.lock(&self.shards[token.shard]);
        if shard.epoch != token.epoch {
            return false;
        }
        self.evict_for(&mut shard, need);
        match shard.map.insert(
            id.clone(),
            Entry {
                payload,
                shared,
                referenced: false,
            },
        ) {
            Some(old) => shard.bytes -= cost(&old.payload),
            None => shard.ring.push(id),
        }
        shard.bytes += need;
        true
    }

    /// CLOCK sweep: advance the hand, clearing referenced bits and
    /// reclaiming stale ring slots, until `need` bytes fit. Terminates
    /// because each pass either shrinks the ring or clears a bit.
    fn evict_for(&self, shard: &mut Shard, need: usize) {
        while shard.bytes + need > self.per_shard_budget && !shard.ring.is_empty() {
            if shard.hand >= shard.ring.len() {
                shard.hand = 0;
            }
            let key = &shard.ring[shard.hand];
            match shard.map.get_mut(key) {
                // Stale slot: the entry was invalidated after admission.
                None => {
                    shard.ring.swap_remove(shard.hand);
                }
                Some(entry) if entry.referenced => {
                    entry.referenced = false;
                    shard.hand += 1;
                }
                Some(_) => {
                    let key = shard.ring.swap_remove(shard.hand);
                    let evicted = shard.map.remove(&key).expect("entry just probed");
                    shard.bytes -= cost(&evicted.payload);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Drops `id` if cached and bumps the shard's epoch either way, so
    /// an in-flight read of `id` can no longer populate the cache with
    /// the superseded payload. Returns whether an entry was dropped.
    pub fn invalidate(&self, id: &DataId) -> bool {
        self.drop_id(id, false)
    }

    /// Like [`invalidate`](ReadCache::invalidate), for a write's
    /// invalidation: the shard is no longer pristine.
    pub fn take_invalidation(&self, id: &DataId) -> bool {
        self.drop_id(id, true)
    }

    fn drop_id(&self, id: &DataId, by_write: bool) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut shard = self.lock(&self.shards[self.shard_index(id)]);
        shard.epoch += 1;
        shard.touched |= by_write;
        match shard.map.remove(id) {
            Some(entry) => {
                shard.bytes -= cost(&entry.payload);
                // The ring slot goes stale; the sweep reclaims it.
                drop(shard);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Drops everything and bumps every shard's epoch — the crash,
    /// restart, membership-change, and migration hook.
    pub fn flush(&self) {
        if !self.is_enabled() {
            return;
        }
        for slot in self.shards.iter() {
            let mut shard = self.lock(slot);
            shard.epoch += 1;
            shard.map.clear();
            shard.ring.clear();
            shard.hand = 0;
            shard.bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: usize) -> ReadCache {
        // One shard so eviction order is fully deterministic.
        ReadCache::with_shards(budget, 1)
    }

    fn admit(c: &ReadCache, key: &str, payload: &[u8]) -> bool {
        let id = DataId::new(key);
        let token = c.begin_read(&id);
        c.insert_if_fresh(token, id, Bytes::copy_from_slice(payload))
    }

    /// Whether `key` is cached, without a counter or CLOCK side effect.
    fn holds(c: &ReadCache, key: &str) -> bool {
        let id = DataId::new(key);
        c.lock(&c.shards[c.shard_index(&id)]).map.contains_key(&id)
    }

    #[test]
    fn round_trip_and_counters() {
        let c = cache(1 << 16);
        let id = DataId::new("k");
        assert_eq!(c.get(&id), None);
        assert!(admit(&c, "k", b"v"));
        assert_eq!(c.get(&id).as_deref(), Some(b"v".as_ref()));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(c.len(), 1);
        assert!(holds(&c, "k"));
    }

    #[test]
    fn invalidate_drops_and_bumps_the_epoch() {
        let c = cache(1 << 16);
        let id = DataId::new("k");
        assert!(admit(&c, "k", b"v1"));
        assert!(c.invalidate(&id));
        assert_eq!(c.get(&id), None);
        assert_eq!(c.stats().invalidations, 1);
        // Invalidating an absent id still bumps the epoch (returns false).
        assert!(!c.invalidate(&id));
    }

    #[test]
    fn late_insert_after_invalidation_is_refused() {
        // The write-race: reader snapshots the epoch, a write
        // invalidates the id, then the reader's response arrives.
        let c = cache(1 << 16);
        let id = DataId::new("k");
        let token = c.begin_read(&id);
        c.invalidate(&id);
        assert!(!c.insert_if_fresh(token, id.clone(), Bytes::from_static(b"stale")));
        assert!(!holds(&c, "k"), "the stale payload must not be admitted");
        // A token taken after the invalidation admits fine.
        let fresh = c.begin_read(&id);
        assert!(c.insert_if_fresh(fresh, id.clone(), Bytes::from_static(b"new")));
        assert_eq!(c.get(&id).as_deref(), Some(b"new".as_ref()));
    }

    #[test]
    fn only_shared_entries_answer_get_shared() {
        let c = cache(1 << 16);
        let (plain, shared) = (DataId::new("plain"), DataId::new("shared"));
        assert!(admit(&c, "plain", b"p"));
        let token = c.begin_read(&shared);
        assert!(token.is_pristine());
        assert!(c.insert_shared_if_fresh(token, shared.clone(), Bytes::from_static(b"s")));
        assert_eq!(c.get_shared(&plain), None);
        assert_eq!(c.get_shared(&shared).as_deref(), Some(b"s".as_ref()));
        assert_eq!(c.get(&plain).as_deref(), Some(b"p".as_ref()));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        c.invalidate(&DataId::new("elsewhere"));
        assert!(
            c.begin_read(&plain).is_pristine(),
            "a drop that is no write"
        );
        c.take_invalidation(&DataId::new("elsewhere"));
        assert!(!c.begin_read(&plain).is_pristine(), "one shard: touched");
    }

    #[test]
    fn clock_eviction_respects_the_byte_budget_and_second_chances() {
        // Budget fits exactly two small entries.
        let budget = 2 * (ENTRY_OVERHEAD + 4);
        let c = cache(budget);
        assert!(admit(&c, "a", b"aaaa"));
        assert!(admit(&c, "b", b"bbbb"));
        // Touch "a" so its referenced bit protects it from the sweep.
        assert!(c.get(&DataId::new("a")).is_some());
        assert!(admit(&c, "c", b"cccc"));
        assert_eq!(c.len(), 2, "budget holds two entries");
        assert!(
            holds(&c, "a"),
            "the referenced entry survives the first sweep"
        );
        assert!(!holds(&c, "b"), "the cold entry is evicted");
        assert!(holds(&c, "c"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn stale_ring_slots_are_reclaimed_lazily() {
        let budget = 2 * (ENTRY_OVERHEAD + 4);
        let c = cache(budget);
        assert!(admit(&c, "a", b"aaaa"));
        assert!(admit(&c, "b", b"bbbb"));
        c.invalidate(&DataId::new("a"));
        // The ring still holds "a"'s stale slot; admitting two more
        // entries forces the sweep across it.
        assert!(admit(&c, "c", b"cccc"));
        assert!(admit(&c, "d", b"dddd"));
        assert_eq!(c.len(), 2);
        assert!(holds(&c, "d"));
    }

    #[test]
    fn oversized_payloads_are_never_admitted() {
        let c = cache(ENTRY_OVERHEAD + 8);
        assert!(!admit(&c, "big", &[0u8; 64]));
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let c = ReadCache::new(0);
        assert!(!c.is_enabled());
        assert!(!admit(&c, "k", b"v"));
        assert_eq!(c.get(&DataId::new("k")), None);
        assert!(c.is_empty());
        // Disabled probes are silent: no counters move.
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn flush_clears_everything_and_blocks_stale_inserts() {
        let c = ReadCache::new(1 << 16);
        for i in 0..32 {
            assert!(admit(&c, &format!("k/{i}"), b"v"));
        }
        let id = DataId::new("k/0");
        let token = c.begin_read(&id);
        c.flush();
        assert!(c.is_empty());
        assert!(
            !c.insert_if_fresh(token, id, Bytes::from_static(b"stale")),
            "a flush must fence out in-flight populations"
        );
    }

    #[test]
    fn shard_count_rounds_to_a_power_of_two() {
        assert_eq!(ReadCache::with_shards(1 << 12, 5).shard_count(), 8);
        assert_eq!(ReadCache::with_shards(1 << 12, 16).shard_count(), 16);
    }

    #[test]
    fn concurrent_probes_and_invalidations_smoke() {
        let c = std::sync::Arc::new(ReadCache::new(1 << 18));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let id = DataId::new(format!("k/{}", (t * 500 + i) % 64));
                        let token = c.begin_read(&id);
                        c.insert_if_fresh(token, id.clone(), Bytes::from_static(b"v"));
                        let _ = c.get(&id);
                        if i % 7 == 0 {
                            c.invalidate(&id);
                        }
                    }
                });
            }
        });
        // Every surviving entry is readable and coherent.
        for i in 0..64u32 {
            let id = DataId::new(format!("k/{i}"));
            if let Some(v) = c.get(&id) {
                assert_eq!(v.as_ref(), b"v");
            }
        }
    }
}
