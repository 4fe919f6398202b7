//! The batching + caching core: a sharded LRU cache of completed
//! [`Distribution`]s plus an in-flight map that coalesces concurrent
//! identical requests onto one computation.
//!
//! Both structures key on the stable `u64` fingerprints of the request
//! content (see [`hammer_dist::fingerprint`]): `Reconstruct` keys on
//! `(counts, config)`, `SampleAndReconstruct` on
//! `(circuit, device, trials, seed, config)`. The flow per request:
//!
//! 1. probe the cache — a hit returns immediately;
//! 2. claim the key in the in-flight map — the **leader** (first
//!    claimant) computes, inserts into the cache, and publishes the
//!    result; **followers** block on the leader's slot and receive the
//!    published value without computing (`coalesced` counter);
//! 3. eviction is per-shard LRU under an approximate byte budget.
//!
//! The cache counters (`serve.cache.{hits,misses,evictions}`,
//! `serve.coalesced`) live here on the server's metric registry; the
//! request/busy tallies are kept by the server runtime.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use hammer_dist::Distribution;
use hammer_obs::{Counter, Registry};

/// Shard count: fingerprints are well-mixed, so a modest fixed fan-out
/// removes lock contention without a tuning knob.
const SHARDS: usize = 16;

/// Approximate heap footprint of a cached distribution: the AoS entries
/// (16 B) plus the three SoA mirror arrays (8 B each) per element, plus
/// a fixed struct overhead.
fn approx_bytes(d: &Distribution) -> usize {
    96 + d.len() * (16 + 8 + 8 + 8)
}

/// An entry evicted under memory pressure, handed back to the caller
/// so the serving runtime can demote it to the persistent spill tier
/// instead of discarding it: `(key, value)`.
pub type Evicted = (u64, Arc<Distribution>);

/// One LRU shard: the value map plus a recency index keyed by a
/// monotone per-shard tick.
#[derive(Default)]
struct Shard {
    /// key → (value, last-touch tick, approximate bytes).
    map: HashMap<u64, (Arc<Distribution>, u64, usize)>,
    /// last-touch tick → key (unique: ticks only move forward).
    recency: std::collections::BTreeMap<u64, u64>,
    tick: u64,
    bytes: usize,
}

impl Shard {
    fn touch(&mut self, key: u64) -> Option<Arc<Distribution>> {
        let next_tick = self.tick + 1;
        let (value, tick, _) = self.map.get_mut(&key)?;
        let old = std::mem::replace(tick, next_tick);
        self.tick = next_tick;
        self.recency.remove(&old);
        self.recency.insert(next_tick, key);
        Some(Arc::clone(value))
    }

    fn insert(&mut self, key: u64, value: Arc<Distribution>, budget: usize) -> Vec<Evicted> {
        let bytes = approx_bytes(&value);
        self.tick += 1;
        if let Some((_, old_tick, old_bytes)) = self.map.insert(key, (value, self.tick, bytes)) {
            self.recency.remove(&old_tick);
            self.bytes -= old_bytes;
        }
        self.recency.insert(self.tick, key);
        self.bytes += bytes;
        // Evict least-recently-used entries until we fit, but never the
        // entry just inserted (a budget smaller than one entry would
        // otherwise thrash forever). Evicted entries are returned, not
        // dropped: the caller demotes them to the spill tier.
        let mut evicted = Vec::new();
        while self.bytes > budget && self.map.len() > 1 {
            let (&lru_tick, &lru_key) = self.recency.iter().next().expect("non-empty recency");
            if lru_key == key {
                break;
            }
            self.recency.remove(&lru_tick);
            let (value, _, freed) = self.map.remove(&lru_key).expect("recency maps into map");
            self.bytes -= freed;
            evicted.push((lru_key, value));
        }
        evicted
    }
}

/// The sharded LRU cache. Its hit/miss/eviction counters live on the
/// registry it is built with, as `serve.cache.{hits,misses,evictions}`.
pub struct DistCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl DistCache {
    /// A cache bounded by `capacity_bytes` (approximate, split evenly
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
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[fold(key) % SHARDS]
    }

    /// Looks a key up, counting a hit and refreshing recency.
    ///
    /// Probe misses are **not** counted here: with request coalescing,
    /// several concurrent requests can probe-miss the same key while
    /// only one computes. The miss counter tracks *computations*, which
    /// only the in-flight leader knows — it calls
    /// [`note_miss`](DistCache::note_miss) when it actually starts one,
    /// so `misses == underlying computations` holds exactly.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<Distribution>> {
        let found = self.shard(key).lock().expect("shard unpoisoned").touch(key);
        if found.is_some() {
            self.hits.inc();
        }
        found
    }

    /// Records one cache miss (= one underlying computation started).
    pub fn note_miss(&self) {
        self.misses.inc();
    }

    /// Inserts a completed distribution, evicting LRU entries past the
    /// shard budget. Evicted entries are returned (outside any shard
    /// lock concern — the caller holds only Arcs) so the serving
    /// runtime can demote them to the persistent spill tier.
    pub fn insert(&self, key: u64, value: Arc<Distribution>) -> Vec<Evicted> {
        let evicted =
            self.shard(key)
                .lock()
                .expect("shard unpoisoned")
                .insert(key, value, self.shard_budget);
        if !evicted.is_empty() {
            self.evictions.add(evicted.len() as u64);
        }
        evicted
    }

    /// A snapshot of every resident entry, coldest first within each
    /// shard — the flush order for a graceful shutdown that wants the
    /// whole hot set (not just past evictions) in the spill tier, with
    /// the hottest entries written last so they supersede on replay.
    #[must_use]
    pub fn entries(&self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock().expect("shard unpoisoned");
            // The recency index iterates coldest-to-hottest already.
            for &key in s.recency.values() {
                if let Some((value, _, _)) = s.map.get(&key) {
                    out.push((key, Arc::clone(value)));
                }
            }
        }
        out
    }

    /// `(entries, approximate bytes)` resident right now, for the
    /// `serve.cache.{entries,bytes}` gauges.
    #[must_use]
    pub fn resident(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(entries, bytes), shard| {
            let s = shard.lock().expect("shard unpoisoned");
            (entries + s.map.len() as u64, bytes + s.bytes as u64)
        })
    }
}

/// XOR-folds a fingerprint down to a small shard selector.
///
/// Selecting on `key >> 60` alone looked safe ("FNV's high bits are
/// stable") but FNV-1a's *avalanche is weakest in the high bits* — its
/// multiply only carries entropy upward, and over real request streams
/// the top nibble is measurably skewed, concentrating entries (and lock
/// contention, and LRU pressure) on a few shards. Folding every bit of
/// the fingerprint into the selector restores the near-uniform spread
/// the per-shard byte budget assumes; the balance test below pins it.
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
/// leader-specific misfortunes — the *leader's* deadline fired, or the
/// *leader's* worker died — so a follower with time left re-claims the
/// key and computes for itself instead of inheriting the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeError {
    /// The request itself is bad; retrying cannot help.
    Failed(String),
    /// The leader's cancel token (deadline) fired mid-compute.
    Cancelled,
    /// The leader panicked (or died before publishing).
    Panicked(String),
}

impl ComputeError {
    /// Whether a follower should re-claim and compute for itself
    /// rather than inherit this failure.
    #[must_use]
    pub fn is_leader_specific(&self) -> bool {
        matches!(self, Self::Cancelled | Self::Panicked(_))
    }
}

/// The value published through an in-flight slot: the computed
/// distribution, or the leader's failure (relayed to every coalesced
/// follower).
pub type ComputeResult = Result<Arc<Distribution>, ComputeError>;

/// One in-flight computation: followers block on the condvar until the
/// leader publishes.
pub struct Slot {
    done: Mutex<Option<ComputeResult>>,
    ready: Condvar,
}

/// What [`InFlight::claim`] hands back.
pub enum Claim {
    /// This caller computes; it **must** call [`InFlight::publish`]
    /// exactly once (even on failure) or followers hang.
    Leader,
    /// Another caller is already computing the same key; wait on it.
    Follower(Arc<Slot>),
}

/// The in-flight request-coalescing map. Followers that join a leader
/// count on `serve.coalesced`.
pub struct InFlight {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    coalesced: Counter,
}

impl InFlight {
    /// An empty map counting on `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            coalesced: registry.counter("serve.coalesced"),
        }
    }

    /// Claims a key: the first claimant becomes the leader, everyone
    /// else a follower of its slot.
    #[must_use]
    pub fn claim(&self, key: u64) -> Claim {
        let mut slots = self.slots.lock().expect("in-flight map unpoisoned");
        if let Some(slot) = slots.get(&key) {
            self.coalesced.inc();
            return Claim::Follower(Arc::clone(slot));
        }
        slots.insert(
            key,
            Arc::new(Slot {
                done: Mutex::new(None),
                ready: Condvar::new(),
            }),
        );
        Claim::Leader
    }

    /// Publishes the leader's result: wakes every follower and retires
    /// the slot (later requests probe the cache or start fresh).
    pub fn publish(&self, key: u64, result: ComputeResult) {
        let slot = self
            .slots
            .lock()
            .expect("in-flight map unpoisoned")
            .remove(&key)
            .expect("publish pairs with a leader claim");
        *slot.done.lock().expect("slot unpoisoned") = Some(result);
        slot.ready.notify_all();
    }

    /// Arms a publish-on-drop guard for a freshly claimed leadership.
    ///
    /// The central liveness invariant of coalescing is "a leader always
    /// publishes": any exit path that skips [`publish`](Self::publish)
    /// — a panic between claim and publish, an early return — leaves
    /// every follower parked on the condvar forever. The guard makes
    /// that impossible: if it drops without an explicit
    /// [`PublishGuard::publish`], it publishes
    /// [`ComputeError::Panicked`] on the leader's behalf, so followers
    /// always wake (and then typically re-lead).
    #[must_use]
    pub fn publish_guard(&self, key: u64) -> PublishGuard<'_> {
        PublishGuard {
            inflight: self,
            key,
            published: false,
        }
    }
}

/// The leader's publish-exactly-once obligation as an RAII object; see
/// [`InFlight::publish_guard`].
pub struct PublishGuard<'a> {
    inflight: &'a InFlight,
    key: u64,
    published: bool,
}

impl PublishGuard<'_> {
    /// Publishes the leader's result (consuming the guard, so the drop
    /// fallback cannot double-publish).
    pub fn publish(mut self, result: ComputeResult) {
        self.published = true;
        self.inflight.publish(self.key, result);
    }
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.inflight.publish(
                self.key,
                Err(ComputeError::Panicked(
                    "leader died before publishing".into(),
                )),
            );
        }
    }
}

impl Claim {
    /// Follower side: blocks until the leader publishes.
    ///
    /// # Panics
    ///
    /// Panics if called on a [`Claim::Leader`].
    pub fn wait(self) -> ComputeResult {
        let Claim::Follower(slot) = self else {
            panic!("wait() is the follower path; leaders compute and publish");
        };
        let mut done = slot.done.lock().expect("slot unpoisoned");
        loop {
            if let Some(result) = done.clone() {
                return result;
            }
            done = slot
                .ready
                .wait(done)
                .expect("slot unpoisoned while waiting");
        }
    }

    /// Follower side with a deadline: blocks until the leader publishes
    /// or `deadline` passes, whichever is first. `None` means the
    /// follower's own time budget ran out (the leader keeps computing —
    /// its result still lands in the cache for everyone else).
    ///
    /// With no deadline this is exactly [`wait`](Claim::wait).
    ///
    /// # Panics
    ///
    /// Panics if called on a [`Claim::Leader`].
    #[must_use]
    pub fn wait_until(self, deadline: Option<std::time::Instant>) -> Option<ComputeResult> {
        let Some(deadline) = deadline else {
            return Some(self.wait());
        };
        let Claim::Follower(slot) = self else {
            panic!("wait_until() is the follower path; leaders compute and publish");
        };
        let mut done = slot.done.lock().expect("slot unpoisoned");
        loop {
            if let Some(result) = done.clone() {
                return Some(result);
            }
            let budget = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, timeout) = slot
                .ready
                .wait_timeout(done, budget)
                .expect("slot unpoisoned while waiting");
            done = guard;
            if timeout.timed_out() && done.is_none() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::BitString;

    fn dist(tag: u64) -> Arc<Distribution> {
        Arc::new(
            Distribution::from_probs(
                8,
                [
                    (BitString::new(tag % 251, 8), 0.5),
                    (BitString::new((tag + 1) % 251, 8), 0.5),
                ],
            )
            .unwrap(),
        )
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

    #[test]
    fn get_miss_then_hit() {
        let (cache, registry) = cache(1 << 20);
        assert!(cache.get(42).is_none());
        cache.note_miss();
        cache.insert(42, dist(0));
        let hit = cache.get(42).expect("present");
        assert_eq!(*hit, *dist(0));
        assert_eq!(counts(&registry), (1, 1, 0));
        let (entries, bytes) = cache.resident();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
    }

    #[test]
    fn lru_evicts_the_coldest_key_under_pressure() {
        // Budget fits ~2 entries per shard; keys chosen to land in ONE
        // shard so the LRU order is observable.
        let per_entry = approx_bytes(&dist(0));
        let (cache, registry) = cache(per_entry * 2 * SHARDS + SHARDS);
        let same_shard: Vec<u64> = (0u64..)
            .filter(|&k| fold(k) % SHARDS == fold(0) % SHARDS)
            .take(4)
            .collect();
        let key = |i: u64| same_shard[i as usize];
        cache.insert(key(1), dist(1));
        cache.insert(key(2), dist(2));
        // Touch 1 so 2 becomes the LRU.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), dist(3));
        assert!(cache.get(key(2)).is_none(), "LRU key evicted");
        assert!(cache.get(key(1)).is_some(), "recently-touched key kept");
        assert!(cache.get(key(3)).is_some(), "new key kept");
        assert_eq!(counts(&registry).2, 1);
        assert_eq!(cache.resident().0, 2);
    }

    #[test]
    fn eviction_hands_back_the_entry_for_the_spill_tier() {
        let per_entry = approx_bytes(&dist(0));
        let (cache, _) = cache(per_entry * 2 * SHARDS + SHARDS);
        let same_shard: Vec<u64> = (0u64..)
            .filter(|&k| fold(k) % SHARDS == fold(0) % SHARDS)
            .take(3)
            .collect();
        assert!(cache.insert(same_shard[0], dist(1)).is_empty());
        assert!(cache.insert(same_shard[1], dist(2)).is_empty());
        let evicted = cache.insert(same_shard[2], dist(3));
        // The coldest entry comes back with its key and value intact —
        // exactly what a spill to disk needs.
        assert_eq!(evicted.len(), 1);
        let (key, value) = &evicted[0];
        assert_eq!(*key, same_shard[0]);
        assert_eq!(**value, *dist(1));
        // entries() snapshots the survivors, coldest first.
        let resident = cache.entries();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident[0].0, same_shard[1]);
        assert_eq!(resident[1].0, same_shard[2]);
    }

    #[test]
    fn shard_selection_spreads_real_fingerprints_evenly() {
        use hammer_dist::fingerprint::Fnv1a;
        // 16K distinct request-shaped FNV-1a fingerprints (the exact
        // hasher every request key goes through). A balanced selector
        // keeps every shard within ±25% of the uniform share; the old
        // top-nibble selector concentrated the same stream onto a few
        // shards.
        const N: usize = 16_384;
        let mut counts = [0usize; SHARDS];
        for i in 0..N {
            let mut h = Fnv1a::new();
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
        cache.insert(7, dist(7));
        assert!(cache.get(7).is_some(), "sole entry survives");
        cache.insert(9, dist(9));
        assert!(cache.get(9).is_some(), "newest entry survives");
    }

    #[test]
    fn reinserting_a_key_replaces_without_leaking_bytes() {
        let (cache, _) = cache(1 << 20);
        cache.insert(5, dist(1));
        let (_, bytes_once) = cache.resident();
        cache.insert(5, dist(2));
        let (entries, bytes_twice) = cache.resident();
        assert_eq!(entries, 1);
        assert_eq!(bytes_once, bytes_twice);
    }

    #[test]
    fn followers_receive_the_leaders_result() {
        let inflight = Arc::new(InFlight::new(&Registry::new()));
        let Claim::Leader = inflight.claim(11) else {
            panic!("first claim leads");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let inflight = Arc::clone(&inflight);
                std::thread::spawn(move || match inflight.claim(11) {
                    Claim::Leader => panic!("key already claimed"),
                    follower @ Claim::Follower(_) => follower.wait(),
                })
            })
            .collect();
        // Give followers time to park, then publish.
        while inflight.coalesced.get() < 4 {
            std::thread::yield_now();
        }
        inflight.publish(11, Ok(dist(11)));
        for f in followers {
            let result = f.join().unwrap().expect("leader succeeded");
            assert_eq!(*result, *dist(11));
        }
        assert_eq!(inflight.coalesced.get(), 4);
        // The slot retired: the next claim leads again.
        assert!(matches!(inflight.claim(11), Claim::Leader));
        inflight.publish(11, Err(ComputeError::Failed("cleanup".into())));
    }

    #[test]
    fn leader_errors_propagate_to_followers() {
        let inflight = Arc::new(InFlight::new(&Registry::new()));
        assert!(matches!(inflight.claim(3), Claim::Leader));
        let follower = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || match inflight.claim(3) {
                Claim::Leader => panic!("key already claimed"),
                follower @ Claim::Follower(_) => follower.wait(),
            })
        };
        while inflight.coalesced.get() < 1 {
            std::thread::yield_now();
        }
        inflight.publish(3, Err(ComputeError::Failed("boom".into())));
        assert_eq!(
            follower.join().unwrap(),
            Err(ComputeError::Failed("boom".into()))
        );
    }

    #[test]
    fn a_dropped_publish_guard_wakes_followers_with_panicked() {
        let inflight = Arc::new(InFlight::new(&Registry::new()));
        assert!(matches!(inflight.claim(17), Claim::Leader));
        let follower = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || match inflight.claim(17) {
                Claim::Leader => panic!("key already claimed"),
                follower @ Claim::Follower(_) => follower.wait(),
            })
        };
        while inflight.coalesced.get() < 1 {
            std::thread::yield_now();
        }
        // The leader "dies": its guard drops without publishing.
        drop(inflight.publish_guard(17));
        let got = follower.join().unwrap();
        assert!(
            matches!(got, Err(ComputeError::Panicked(_))),
            "follower saw {got:?}"
        );
        // The slot retired, so the follower could now re-lead.
        assert!(matches!(inflight.claim(17), Claim::Leader));
        inflight.publish(17, Err(ComputeError::Failed("cleanup".into())));
    }

    #[test]
    fn wait_until_times_out_while_the_leader_is_still_computing() {
        use std::time::{Duration, Instant};
        let inflight = Arc::new(InFlight::new(&Registry::new()));
        assert!(matches!(inflight.claim(23), Claim::Leader));
        let follower @ Claim::Follower(_) = inflight.claim(23) else {
            panic!("second claim follows");
        };
        let start = Instant::now();
        let got = follower.wait_until(Some(Instant::now() + Duration::from_millis(30)));
        assert!(got.is_none(), "timed-out wait yields None");
        assert!(start.elapsed() >= Duration::from_millis(25));
        inflight.publish(23, Err(ComputeError::Failed("cleanup".into())));
    }
}
