#![warn(missing_docs)]

//! Hotspot-aware per-node read cache for GRED.
//!
//! The paper's retrieval service fetches the replica nearest the access
//! point in virtual space; this crate closes the remaining locality gap
//! by letting an access node answer repeated reads of a hot key without
//! any peer traffic at all. [`ReadCache`] is:
//!
//! - **owned** — one map, one CLOCK ring and one byte budget behind a
//!   single `RefCell`. A node's reactor thread is the cache's only user,
//!   so nothing is locked or counted atomically; the cache is `Send`
//!   (it moves into the reactor) but not `Sync`;
//! - **bounded** — admission evicts with the CLOCK second-chance sweep
//!   (a ring of keys, a hand, one referenced bit per entry) until the
//!   new entry fits the budget, whichever ids the cold entries hold.
//!   Ring slots whose entry was invalidated out from under them are
//!   reclaimed lazily by the sweep;
//! - **epoch-stamped** — ids hash into sixteen buckets, each with an
//!   invalidation epoch that [`ReadCache::invalidate`] and
//!   [`ReadCache::flush`] bump. A read that wants to populate the cache
//!   takes a [`Token`] *before* its peer RPC and inserts through
//!   [`ReadCache::insert_if_fresh`], which refuses when the epoch moved:
//!   a write that invalidated the id while the read was in flight can
//!   never be shadowed by the stale payload arriving late. A token also
//!   tells whether its bucket is still [pristine](Token::is_pristine):
//!   untouched by any write's invalidation
//!   ([`ReadCache::take_invalidation`]). The buckets are the fence's
//!   granularity, not the eviction's: a write fences out in-flight fills
//!   of one id in sixteen, not of every id;
//! - **two-tier** — an entry admitted as *shared* may also answer other
//!   switches' requests ([`ReadCache::get_shared`]); a plain one only
//!   this node's own.
//!
//! The cache stores whole replica ids (`DataId::replica(k)` values are
//! distinct keys), so coherence is per replica copy — the same unit the
//! store and the invalidation protocol use.

use bytes::Bytes;
use gred_hash::DataId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Invalidation-epoch buckets. An invalidation fences in-flight fills,
/// and clears pristineness, only for the ids of its own bucket.
const BUCKETS: usize = 16;

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

/// One bucket's coherence state.
#[derive(Clone, Copy, Default)]
struct Bucket {
    /// Bumped by every invalidation or flush touching this bucket.
    epoch: u64,
    /// A write has invalidated an id in this bucket.
    touched: bool,
}

/// Everything the cache holds: the entries, the CLOCK ring over their
/// keys, the bytes they charge, the buckets and the counters.
#[derive(Default)]
struct Inner {
    map: HashMap<DataId, Entry>,
    /// CLOCK ring. May contain stale keys (invalidated entries); the
    /// sweep reclaims those slots with `swap_remove` as it meets them.
    ring: Vec<DataId>,
    hand: usize,
    bytes: usize,
    buckets: [Bucket; BUCKETS],
    stats: CacheStats,
}

impl Inner {
    fn bucket(&self, id: &DataId) -> usize {
        self.map.hasher().hash_one(id) as usize % BUCKETS
    }
}

/// Snapshot of a token taken by [`ReadCache::begin_read`]: which bucket
/// the id hashes to and the bucket's epoch at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    bucket: usize,
    epoch: u64,
    touched: bool,
}

impl Token {
    /// Whether no write had invalidated anything in the token's bucket
    /// when the token was taken.
    pub fn is_pristine(&self) -> bool {
        !self.touched
    }
}

/// Monotonic cache counters.
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

/// A bounded, epoch-stamped read cache owned by one thread. See the
/// crate docs.
pub struct ReadCache {
    inner: RefCell<Inner>,
    /// Byte budget; zero disables the cache entirely.
    budget: usize,
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCache")
            .field("budget", &self.budget)
            .field("entries", &self.len())
            .finish_non_exhaustive()
    }
}

impl ReadCache {
    /// A cache bounded by `byte_budget`. A zero budget disables the
    /// cache: every probe misses silently and nothing is ever admitted.
    pub fn new(byte_budget: usize) -> ReadCache {
        ReadCache {
            inner: RefCell::default(),
            budget: byte_budget,
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Monotonic counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.borrow().stats
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.inner.borrow().map.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().map.is_empty()
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
        let inner = &mut *self.inner.borrow_mut();
        match inner.map.get_mut(id).filter(|e| e.shared || !shared_only) {
            Some(entry) => {
                entry.referenced = true;
                inner.stats.hits += 1;
                Some(entry.payload.clone())
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Snapshots the invalidation epoch of `id`'s bucket. Take the token
    /// *before* issuing the read RPC whose response may populate the
    /// cache; [`ReadCache::insert_if_fresh`] then refuses the insert if
    /// any invalidation touched the bucket in between.
    pub fn begin_read(&self, id: &DataId) -> Token {
        let inner = self.inner.borrow();
        let bucket = inner.bucket(id);
        let Bucket { epoch, touched } = inner.buckets[bucket];
        Token {
            bucket,
            epoch,
            touched,
        }
    }

    /// Admits `payload` under `id` unless the bucket's epoch moved past
    /// `token` (an invalidation raced the read) or the entry cannot fit
    /// the budget. Returns whether the entry was admitted.
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
        if need > self.budget {
            return false;
        }
        let inner = &mut *self.inner.borrow_mut();
        debug_assert_eq!(token.bucket, inner.bucket(&id), "token from another id");
        if inner.buckets[token.bucket].epoch != token.epoch {
            return false;
        }
        self.evict_for(inner, need);
        let entry = Entry {
            payload,
            shared,
            referenced: false,
        };
        match inner.map.insert(id.clone(), entry) {
            Some(old) => inner.bytes -= cost(&old.payload),
            None => inner.ring.push(id),
        }
        inner.bytes += need;
        true
    }

    /// CLOCK sweep: advance the hand, clearing referenced bits and
    /// reclaiming stale ring slots, until `need` bytes fit. Terminates
    /// because each pass either shrinks the ring or clears a bit.
    fn evict_for(&self, inner: &mut Inner, need: usize) {
        while inner.bytes + need > self.budget && !inner.ring.is_empty() {
            if inner.hand >= inner.ring.len() {
                inner.hand = 0;
            }
            match inner.map.get_mut(&inner.ring[inner.hand]) {
                // Stale slot: the entry was invalidated after admission.
                None => {
                    inner.ring.swap_remove(inner.hand);
                }
                Some(entry) if entry.referenced => {
                    entry.referenced = false;
                    inner.hand += 1;
                }
                Some(_) => {
                    let key = inner.ring.swap_remove(inner.hand);
                    let evicted = inner.map.remove(&key).expect("entry just probed");
                    inner.bytes -= cost(&evicted.payload);
                    inner.stats.evictions += 1;
                }
            }
        }
    }

    /// Drops `id` if cached and bumps its bucket's epoch either way, so
    /// an in-flight read of `id` can no longer populate the cache with
    /// the superseded payload. Returns whether an entry was dropped.
    pub fn invalidate(&self, id: &DataId) -> bool {
        self.drop_id(id, false)
    }

    /// Like [`invalidate`](ReadCache::invalidate), for a write's
    /// invalidation: the bucket is no longer pristine.
    pub fn take_invalidation(&self, id: &DataId) -> bool {
        self.drop_id(id, true)
    }

    fn drop_id(&self, id: &DataId, by_write: bool) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let inner = &mut *self.inner.borrow_mut();
        let bucket = inner.bucket(id);
        inner.buckets[bucket].epoch += 1;
        inner.buckets[bucket].touched |= by_write;
        // The ring slot goes stale; the sweep reclaims it.
        let Some(entry) = inner.map.remove(id) else {
            return false;
        };
        inner.bytes -= cost(&entry.payload);
        inner.stats.invalidations += 1;
        true
    }

    /// Drops everything and bumps every bucket's epoch — the crash,
    /// restart, membership-change, and migration hook.
    pub fn flush(&self) {
        if !self.is_enabled() {
            return;
        }
        let inner = &mut *self.inner.borrow_mut();
        for bucket in &mut inner.buckets {
            bucket.epoch += 1;
        }
        inner.map.clear();
        inner.ring.clear();
        inner.hand = 0;
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(c: &ReadCache, key: &str, payload: &[u8]) -> bool {
        let id = DataId::new(key);
        let token = c.begin_read(&id);
        c.insert_if_fresh(token, id, Bytes::copy_from_slice(payload))
    }

    /// Whether `key` is cached, without a counter or CLOCK side effect.
    fn holds(c: &ReadCache, key: &str) -> bool {
        c.inner.borrow().map.contains_key(&DataId::new(key))
    }

    /// `n` keys that hash into `n` distinct epoch buckets of `c`.
    fn keys_in_distinct_buckets(c: &ReadCache, n: usize) -> Vec<String> {
        let mut seen = [false; BUCKETS];
        (0..)
            .map(|i| format!("k/{i}"))
            .filter(|key| {
                let bucket = c.inner.borrow().bucket(&DataId::new(key.as_str()));
                !std::mem::replace(&mut seen[bucket], true)
            })
            .take(n)
            .collect()
    }

    #[test]
    fn round_trip_and_counters() {
        let c = ReadCache::new(1 << 16);
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
        let c = ReadCache::new(1 << 16);
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
        let c = ReadCache::new(1 << 16);
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
        let c = ReadCache::new(1 << 16);
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
        c.invalidate(&plain);
        assert!(
            c.begin_read(&plain).is_pristine(),
            "a drop that is no write"
        );
        c.take_invalidation(&plain);
        assert!(!c.begin_read(&plain).is_pristine(), "a write's drop");
    }

    #[test]
    fn one_clock_evicts_the_coldest_entry_of_any_bucket() {
        // Budget fits exactly two small entries.
        let c = ReadCache::new(2 * (ENTRY_OVERHEAD + 4));
        let keys = keys_in_distinct_buckets(&c, 3);
        let (cold, hot, new) = (&keys[0], &keys[1], &keys[2]);
        assert!(admit(&c, cold, b"cccc"));
        assert!(admit(&c, hot, b"hhhh"));
        assert!(c.get(&DataId::new(hot.as_str())).is_some());
        // The new entry's bucket holds nothing, yet it displaces the
        // cold entry of another bucket: there is one budget, one ring.
        assert!(admit(&c, new, b"nnnn"));
        assert!(!holds(&c, cold), "the cold entry is evicted");
        assert!(holds(&c, hot) && holds(&c, new));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn an_invalidation_fences_only_its_own_bucket() {
        let c = ReadCache::new(1 << 16);
        let keys = keys_in_distinct_buckets(&c, 2);
        let (a, b) = (DataId::new(keys[0].as_str()), DataId::new(keys[1].as_str()));
        let (token_a, token_b) = (c.begin_read(&a), c.begin_read(&b));
        c.take_invalidation(&a);
        assert!(!c.insert_if_fresh(token_a, a.clone(), Bytes::from_static(b"stale")));
        assert!(!c.begin_read(&a).is_pristine());
        // Bucket B saw no invalidation: its token is still fresh and
        // pristine.
        assert!(c.begin_read(&b).is_pristine());
        assert!(token_b.is_pristine());
        assert!(c.insert_if_fresh(token_b, b.clone(), Bytes::from_static(b"v")));
        assert_eq!(c.get(&b).as_deref(), Some(b"v".as_ref()));
    }

    #[test]
    fn clock_eviction_respects_the_byte_budget_and_second_chances() {
        // Budget fits exactly two small entries.
        let budget = 2 * (ENTRY_OVERHEAD + 4);
        let c = ReadCache::new(budget);
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
        let c = ReadCache::new(budget);
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
        let c = ReadCache::new(ENTRY_OVERHEAD + 8);
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
}
