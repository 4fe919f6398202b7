//! The batching + caching core: one sharded map from a request's key
//! to either its finished reply payload or the computation in progress
//! that concurrent identical requests coalesce onto.
//!
//! Keys are stable `u64` fingerprints (see [`hammer_dist::fingerprint`])
//! of a compute request's opcode and raw payload bytes, taken before
//! anything is decoded. The wire form is canonical (sorted keys, no
//! zero counts, only the algorithmic config knobs), so equal bytes mean
//! an equal request. A finished entry is the encoded
//! [`put_distribution`](crate::codec::put_distribution) payload of the
//! reply, shared as an `Arc<[u8]>`: a hit writes a frame header plus
//! those bytes, and nothing is decoded, cloned or re-encoded. One
//! [`lookup`](DistCache::lookup), under one shard lock, decides what a
//! request does:
//!
//! * [`Lookup::Hit`] — the key has finished: write its payload at once;
//! * [`Lookup::Follow`] — another request is computing it: wait on its
//!   [`Slot`] and receive the published result without computing
//!   (`serve.coalesced` counts each join);
//! * [`Lookup::Lead`] — a pending entry was just inserted and this
//!   request computes it. Its [`Lease`] publishes the result, which
//!   swaps the pending entry for the finished one and wakes the
//!   followers.
//!
//! Finished entries are evicted per shard, least recently used first,
//! under a byte budget that counts each entry's payload length. A
//! pending entry is never evicted
//! and counts toward neither the budget nor
//! [`entries`](DistCache::entries) and [`resident`](DistCache::resident).
//! The counters (`serve.cache.{hits,misses,evictions}`,
//! `serve.coalesced`) live on the server's metric registry; the
//! request/busy tallies are kept by the server runtime.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use hammer_obs::{Counter, Registry};

/// Shard count: fingerprints are well-mixed, so a modest fixed fan-out
/// removes lock contention without a tuning knob.
const SHARDS: usize = 16;

/// An entry evicted under memory pressure, handed back to the caller
/// so the serving runtime can demote it to the persistent spill tier
/// instead of discarding it: `(key, payload)`.
pub type Evicted = (u64, Arc<[u8]>);

/// What a shard holds under one key.
enum Cached {
    /// A finished reply payload with its last-touch tick.
    Ready { value: Arc<[u8]>, touched: u64 },
    /// A computation in progress; its followers wait on the slot.
    Pending(Arc<Slot>),
}

/// One shard: the entry map plus a recency index of its finished
/// entries, keyed by a monotone per-shard tick.
#[derive(Default)]
struct Shard {
    map: HashMap<u64, Cached>,
    /// last-touch tick → key of every finished entry, coldest first
    /// (unique: ticks only move forward).
    recency: BTreeMap<u64, u64>,
    tick: u64,
    /// Payload bytes of the finished entries.
    bytes: usize,
}

impl Shard {
    /// Swaps `key`'s pending entry for its finished value, then evicts
    /// least-recently-used entries until the shard fits `budget` — but
    /// never the entry just finished, the newest in the recency index
    /// (a budget smaller than one entry would otherwise thrash
    /// forever). Evicted entries are returned, not dropped: the caller
    /// demotes them to the spill tier.
    fn finish(&mut self, key: u64, value: Arc<[u8]>, budget: usize) -> Vec<Evicted> {
        self.tick += 1;
        self.bytes += value.len();
        self.map.insert(
            key,
            Cached::Ready {
                value,
                touched: self.tick,
            },
        );
        self.recency.insert(self.tick, key);
        let mut evicted = Vec::new();
        while self.bytes > budget && self.recency.len() > 1 {
            let (_, lru_key) = self.recency.pop_first().expect("non-empty recency");
            let Some(Cached::Ready { value, .. }) = self.map.remove(&lru_key) else {
                unreachable!("the recency index lists finished entries only");
            };
            self.bytes -= value.len();
            evicted.push((lru_key, value));
        }
        evicted
    }
}

/// What [`DistCache::lookup`] decided for one request.
pub enum Lookup<'a> {
    /// The finished reply payload.
    Hit(Arc<[u8]>),
    /// Another request is computing this key; wait on its slot.
    Follow(Arc<Slot>),
    /// This request computes the key and publishes through the lease.
    Lead(Lease<'a>),
}

/// The sharded single-flight cache. Its counters live on the registry
/// it is built with, as `serve.cache.{hits,misses,evictions}` and
/// `serve.coalesced`.
pub struct DistCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    coalesced: Counter,
}

impl DistCache {
    /// A cache bounded by `capacity_bytes` of payload (split evenly
    /// across shards; at least one entry per shard always fits), counting
    /// on `registry`.
    #[must_use]
    pub fn new(capacity_bytes: usize, registry: &Registry) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: capacity_bytes / SHARDS,
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            evictions: registry.counter("serve.cache.evictions"),
            coalesced: registry.counter("serve.coalesced"),
        }
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        self.shards[fold(key) % SHARDS]
            .lock()
            .expect("shard unpoisoned")
    }

    /// Decides, under one shard lock, whether a request for `key` hits
    /// (refreshing recency and counting a hit), follows a computation
    /// in progress (counting `coalesced`), or leads one: a vacant key
    /// gets a pending entry and the caller its [`Lease`].
    ///
    /// Misses are **not** counted here: a leader may be refused a
    /// compute slot, shed, or answered from the spill store, so the
    /// server calls [`note_miss`](DistCache::note_miss) when a
    /// computation actually starts, and `misses == computations` holds
    /// exactly.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Lookup<'_> {
        let mut guard = self.shard(key);
        let shard = &mut *guard;
        match shard.map.entry(key) {
            Entry::Occupied(mut found) => match found.get_mut() {
                Cached::Ready { value, touched, .. } => {
                    shard.tick += 1;
                    shard.recency.remove(touched);
                    shard.recency.insert(shard.tick, key);
                    *touched = shard.tick;
                    self.hits.inc();
                    Lookup::Hit(Arc::clone(value))
                }
                Cached::Pending(slot) => {
                    self.coalesced.inc();
                    Lookup::Follow(Arc::clone(slot))
                }
            },
            Entry::Vacant(vacant) => {
                let slot = Arc::new(Slot::default());
                vacant.insert(Cached::Pending(Arc::clone(&slot)));
                Lookup::Lead(Lease {
                    cache: self,
                    key,
                    slot,
                    published: false,
                })
            }
        }
    }

    /// Records one cache miss (= one underlying computation started).
    pub fn note_miss(&self) {
        self.misses.inc();
    }

    /// A snapshot of every finished entry, coldest first within each
    /// shard — the flush order for a graceful shutdown that wants the
    /// whole hot set (not just past evictions) in the spill tier, with
    /// the hottest entries written last so they supersede on replay.
    #[must_use]
    pub fn entries(&self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock().expect("shard unpoisoned");
            for &key in s.recency.values() {
                if let Some(Cached::Ready { value, .. }) = s.map.get(&key) {
                    out.push((key, Arc::clone(value)));
                }
            }
        }
        out
    }

    /// `(entries, payload bytes)` of the finished entries resident
    /// right now, for the `serve.cache.{entries,bytes}` gauges.
    #[must_use]
    pub fn resident(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(entries, bytes), shard| {
            let s = shard.lock().expect("shard unpoisoned");
            (entries + s.recency.len() as u64, bytes + s.bytes as u64)
        })
    }
}

/// XOR-folds a fingerprint down to a small shard selector.
///
/// Every bit of the fingerprint reaches the selector, so the
/// near-uniform spread the per-shard byte budget assumes does not rest
/// on any one bit range of the hash; the balance test below pins it.
#[inline]
fn fold(key: u64) -> usize {
    let mut x = key;
    x ^= x >> 32;
    x ^= x >> 16;
    x ^= x >> 8;
    x ^= x >> 4;
    x as usize
}

/// Why a leader failed to produce a distribution.
///
/// The distinction matters to followers: a [`Failed`](Self::Failed)
/// request is deterministically bad (same inputs would fail again), but
/// [`Cancelled`](Self::Cancelled) and [`Panicked`](Self::Panicked) are
/// leader-specific misfortunes — the *leader's* deadline fired, the
/// leader was refused a compute slot, or its computation panicked — so
/// a follower with time left looks the key up again and may compute
/// for itself instead of inheriting the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeError {
    /// The request itself is bad; retrying cannot help.
    Failed(String),
    /// The leader gave its claim up without computing to the end: its
    /// deadline fired, or the admission gate refused or shed it.
    Cancelled,
    /// The leader panicked (or dropped its lease before publishing).
    Panicked(String),
}

impl ComputeError {
    /// Whether a follower should look the key up again rather than
    /// inherit this failure.
    #[must_use]
    pub fn is_leader_specific(&self) -> bool {
        matches!(self, Self::Cancelled | Self::Panicked(_))
    }
}

/// The value published through a slot: the computed distribution's
/// encoded reply payload, or the leader's failure (relayed to every
/// coalesced follower).
pub type ComputeResult = Result<Arc<[u8]>, ComputeError>;

/// One pending computation: followers block on the condvar until the
/// leader's lease publishes.
#[derive(Default)]
pub struct Slot {
    done: Mutex<Option<ComputeResult>>,
    ready: Condvar,
}

impl Slot {
    /// Blocks until the leader publishes or `deadline` passes, whichever
    /// is first; with no deadline, until the leader publishes. `None`
    /// means the follower's own time budget ran out (the leader keeps
    /// computing — its result still lands in the cache for everyone
    /// else).
    #[must_use]
    pub fn wait_until(&self, deadline: Option<Instant>) -> Option<ComputeResult> {
        let mut done = self.done.lock().expect("slot unpoisoned");
        loop {
            if let Some(result) = &*done {
                return Some(result.clone());
            }
            done = match deadline {
                None => self.ready.wait(done).expect("slot unpoisoned"),
                Some(deadline) => {
                    let budget = deadline.checked_duration_since(Instant::now())?;
                    self.ready
                        .wait_timeout(done, budget)
                        .expect("slot unpoisoned")
                        .0
                }
            };
        }
    }
}

/// A leader's claim on a pending key, handed out by
/// [`DistCache::lookup`].
///
/// The liveness invariant of coalescing is "a leader always publishes":
/// a pending entry left behind would park every follower forever. So
/// dropping a lease without [`publish`](Lease::publish) — a panic, an
/// early return — removes the pending entry and publishes
/// [`ComputeError::Panicked`] on the leader's behalf; the followers wake
/// and one of them leads again.
pub struct Lease<'a> {
    cache: &'a DistCache,
    key: u64,
    slot: Arc<Slot>,
    published: bool,
}

impl Lease<'_> {
    /// Publishes the leader's result and wakes every follower. A
    /// payload replaces the pending entry (LRU entries past the
    /// shard budget are evicted and returned for the spill tier); a
    /// failure removes it, so the next lookup leads afresh.
    pub fn publish(mut self, result: ComputeResult) -> Vec<Evicted> {
        self.published = true;
        self.settle(result)
    }

    fn settle(&self, result: ComputeResult) -> Vec<Evicted> {
        let evicted = {
            let mut shard = self.cache.shard(self.key);
            match &result {
                Ok(value) => shard.finish(self.key, Arc::clone(value), self.cache.shard_budget),
                Err(_) => {
                    shard.map.remove(&self.key);
                    Vec::new()
                }
            }
        };
        self.cache.evictions.add(evicted.len() as u64);
        *self.slot.done.lock().expect("slot unpoisoned") = Some(result);
        self.slot.ready.notify_all();
        evicted
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.settle(Err(ComputeError::Panicked(
                "leader died before publishing".into(),
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::{BitString, Distribution};
    use std::time::Duration;

    /// The encoded reply payload of a two-outcome distribution.
    fn dist(tag: u64) -> Arc<[u8]> {
        let d = Distribution::from_probs(
            8,
            [
                (BitString::new(tag % 251, 8), 0.5),
                (BitString::new((tag + 1) % 251, 8), 0.5),
            ],
        )
        .unwrap();
        let mut payload = Vec::new();
        crate::codec::put_distribution(&mut payload, &d);
        payload.into()
    }

    /// A cache counting on a fresh registry, returned alongside it.
    fn cache(capacity_bytes: usize) -> (DistCache, Registry) {
        let registry = Registry::new();
        (DistCache::new(capacity_bytes, &registry), registry)
    }

    /// `(hits, misses, evictions)` as the registry snapshot reports them.
    fn counts(registry: &Registry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        (
            get("serve.cache.hits"),
            get("serve.cache.misses"),
            get("serve.cache.evictions"),
        )
    }

    /// Leads a vacant `key` and publishes `value` under it.
    fn put(cache: &DistCache, key: u64, value: Arc<[u8]>) -> Vec<Evicted> {
        let Lookup::Lead(lease) = cache.lookup(key) else {
            panic!("key {key} is not vacant");
        };
        lease.publish(Ok(value))
    }

    /// The finished value under `key`, if any. A vacant key's lease is
    /// dropped again, which leaves it vacant.
    fn hit(cache: &DistCache, key: u64) -> Option<Arc<[u8]>> {
        match cache.lookup(key) {
            Lookup::Hit(value) => Some(value),
            Lookup::Lead(_) => None,
            Lookup::Follow(_) => panic!("key {key} has no leader in this test"),
        }
    }

    /// `n` keys that all land in the same shard as key 0, so the LRU
    /// order is observable.
    fn same_shard(n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| fold(k) % SHARDS == fold(0) % SHARDS)
            .take(n)
            .collect()
    }

    /// Spawns a thread that follows `key` and returns what it receives.
    fn follower(
        cache: &Arc<DistCache>,
        key: u64,
    ) -> std::thread::JoinHandle<Option<ComputeResult>> {
        let cache = Arc::clone(cache);
        std::thread::spawn(move || match cache.lookup(key) {
            Lookup::Follow(slot) => slot.wait_until(None),
            _ => panic!("key {key} is pending"),
        })
    }

    /// Spins until `n` followers have joined.
    fn await_followers(cache: &DistCache, n: u64) {
        while cache.coalesced.get() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn lookup_leads_then_hits() {
        let (cache, registry) = cache(1 << 20);
        assert!(hit(&cache, 42).is_none());
        cache.note_miss();
        put(&cache, 42, dist(0));
        let found = hit(&cache, 42).expect("present");
        assert_eq!(*found, *dist(0));
        assert_eq!(counts(&registry), (1, 1, 0));
        // An entry costs its payload: the 6 B header plus 16 B per
        // narrow outcome.
        let (entries, bytes) = cache.resident();
        assert_eq!(entries, 1);
        assert_eq!(bytes, 6 + 2 * 16);
    }

    #[test]
    fn lru_evicts_the_coldest_key_under_pressure() {
        // Budget fits ~2 entries per shard.
        let per_entry = dist(0).len();
        let (cache, registry) = cache(per_entry * 2 * SHARDS + SHARDS);
        let keys = same_shard(3);
        put(&cache, keys[0], dist(1));
        put(&cache, keys[1], dist(2));
        // Touch the first so the second becomes the LRU.
        assert!(hit(&cache, keys[0]).is_some());
        put(&cache, keys[2], dist(3));
        assert!(hit(&cache, keys[1]).is_none(), "LRU key evicted");
        assert!(hit(&cache, keys[0]).is_some(), "recently-touched key kept");
        assert!(hit(&cache, keys[2]).is_some(), "new key kept");
        assert_eq!(counts(&registry).2, 1);
        assert_eq!(cache.resident().0, 2);
    }

    #[test]
    fn eviction_hands_back_the_entry_for_the_spill_tier() {
        let per_entry = dist(0).len();
        let (cache, _) = cache(per_entry * 2 * SHARDS + SHARDS);
        let keys = same_shard(3);
        assert!(put(&cache, keys[0], dist(1)).is_empty());
        assert!(put(&cache, keys[1], dist(2)).is_empty());
        let evicted = put(&cache, keys[2], dist(3));
        // The coldest entry comes back with its key and value intact —
        // exactly what a spill to disk needs.
        assert_eq!(evicted.len(), 1);
        let (key, value) = &evicted[0];
        assert_eq!(*key, keys[0]);
        assert_eq!(**value, *dist(1));
        // entries() snapshots the survivors, coldest first.
        let resident = cache.entries();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident[0].0, keys[1]);
        assert_eq!(resident[1].0, keys[2]);
    }

    #[test]
    fn shard_selection_spreads_real_fingerprints_evenly() {
        use hammer_dist::fingerprint::Fingerprinter;
        // 16K distinct request-shaped fingerprints (the exact hasher
        // every request key goes through). A balanced selector keeps
        // every shard within ±25% of the uniform share.
        const N: usize = 16_384;
        let mut counts = [0usize; SHARDS];
        for i in 0..N {
            let mut h = Fingerprinter::new();
            h.write_u8(1); // opcode tag, as real request keys do
            h.write_usize(i);
            h.write_u64(0xC0DE ^ i as u64);
            h.write_f64(i as f64 * 0.125);
            counts[fold(h.finish()) % SHARDS] += 1;
        }
        let share = N / SHARDS;
        let (lo, hi) = (share * 3 / 4, share * 5 / 4);
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (lo..=hi).contains(&c),
                "shard {s} holds {c} of {N} keys (uniform share {share}): {counts:?}"
            );
        }
    }

    #[test]
    fn tiny_budget_never_evicts_the_entry_just_inserted() {
        let (cache, _) = cache(1); // less than one entry
        put(&cache, 7, dist(7));
        assert!(hit(&cache, 7).is_some(), "sole entry survives");
        put(&cache, 9, dist(9));
        assert!(hit(&cache, 9).is_some(), "newest entry survives");
    }

    #[test]
    fn pending_entries_are_never_evicted_listed_or_counted() {
        let (cache, _) = cache(1); // every finish evicts down to one entry
        let keys = same_shard(3);
        let Lookup::Lead(lease) = cache.lookup(keys[0]) else {
            panic!("first lookup leads");
        };
        assert!(cache.entries().is_empty());
        assert_eq!(cache.resident(), (0, 0));
        assert!(put(&cache, keys[1], dist(1)).is_empty());
        let evicted = put(&cache, keys[2], dist(2));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, keys[1], "the finished LRU entry goes");
        // The pending key survived the eviction and is still pending.
        assert!(matches!(cache.lookup(keys[0]), Lookup::Follow(_)));
        let listed: Vec<u64> = cache.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(listed, [keys[2]]);
        assert_eq!(cache.resident(), (1, dist(2).len() as u64));
        lease.publish(Ok(dist(0)));
        assert!(hit(&cache, keys[0]).is_some());
    }

    #[test]
    fn followers_receive_the_leaders_result() {
        let cache = Arc::new(cache(1 << 20).0);
        let Lookup::Lead(lease) = cache.lookup(11) else {
            panic!("first lookup leads");
        };
        let followers: Vec<_> = (0..4).map(|_| follower(&cache, 11)).collect();
        await_followers(&cache, 4);
        assert!(lease.publish(Ok(dist(11))).is_empty());
        for f in followers {
            let result = f.join().unwrap().expect("no deadline");
            assert_eq!(*result.expect("leader succeeded"), *dist(11));
        }
        assert_eq!(cache.coalesced.get(), 4);
        // The result is cached: the next lookup hits.
        assert!(hit(&cache, 11).is_some());
    }

    #[test]
    fn leader_errors_propagate_to_followers() {
        let cache = Arc::new(cache(1 << 20).0);
        let Lookup::Lead(lease) = cache.lookup(3) else {
            panic!("first lookup leads");
        };
        let f = follower(&cache, 3);
        await_followers(&cache, 1);
        lease.publish(Err(ComputeError::Failed("boom".into())));
        assert_eq!(
            f.join().unwrap(),
            Some(Err(ComputeError::Failed("boom".into())))
        );
        // A failure is not cached: the next lookup leads afresh.
        assert!(hit(&cache, 3).is_none());
    }

    #[test]
    fn a_dropped_lease_wakes_followers_with_panicked() {
        let cache = Arc::new(cache(1 << 20).0);
        let Lookup::Lead(lease) = cache.lookup(17) else {
            panic!("first lookup leads");
        };
        let f = follower(&cache, 17);
        await_followers(&cache, 1);
        // The leader "dies": its lease drops without publishing.
        drop(lease);
        let got = f.join().unwrap();
        assert!(
            matches!(got, Some(Err(ComputeError::Panicked(_)))),
            "follower saw {got:?}"
        );
        // No entry is left behind, so the follower could now lead.
        assert!(cache.shard(17).map.is_empty());
        assert!(matches!(cache.lookup(17), Lookup::Lead(_)));
    }

    #[test]
    fn wait_until_times_out_while_the_leader_is_still_computing() {
        let (cache, _) = cache(1 << 20);
        let Lookup::Lead(lease) = cache.lookup(23) else {
            panic!("first lookup leads");
        };
        let Lookup::Follow(slot) = cache.lookup(23) else {
            panic!("second lookup follows");
        };
        let start = Instant::now();
        let got = slot.wait_until(Some(Instant::now() + Duration::from_millis(30)));
        assert!(got.is_none(), "timed-out wait yields None");
        assert!(start.elapsed() >= Duration::from_millis(25));
        lease.publish(Err(ComputeError::Failed("cleanup".into())));
    }
}
