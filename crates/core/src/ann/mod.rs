//! Approximate nearest neighbors in Hamming space: a bit-sampling LSH
//! forest over a [`Distribution`]'s SoA key limbs.
//!
//! The exact scoring kernel sweeps all `N²` pairs even though the
//! neighborhood cutoff zero-weights every pair at `d ≥ max_d`. When the
//! neighborhood is *local* (`max_d` small against the register width),
//! almost all of that sweep is wasted work — the classic bit-sampling
//! LSH scheme for Hamming distance turns it into per-outcome range
//! queries:
//!
//! * each **tree** of the forest samples `k` random bit positions of the
//!   register and hashes every outcome to the `k`-bit value gathered at
//!   those positions (a coordinate projection — the canonical LSH family
//!   for Hamming space). Outcomes at distance `d` collide with
//!   probability `≈ (1 − d/n)^k`, so near pairs share buckets far more
//!   often than far pairs;
//! * a **query** gathers the same bits of `x` and unions the bucket of
//!   `x` across every tree — plus, with *multi-probing*, the buckets
//!   whose hash differs in up to [`AnnTuning::probe_radius`] sampled
//!   bits, which rescues neighbors that differ exactly at a sampled
//!   position;
//! * the deduplicated union is the **candidate set**: the approximate
//!   scoring pass ([`scores_with_index`]) visits only those pairs, and
//!   [`AnnIndex::range_query`] post-filters them by exact distance.
//!
//! Trees are independent, so construction runs one tile per tree on
//! the work-stealing executor ([`hammer_pool::run_tiles`]). Each tree's
//! bit sample is drawn from its own seeded SplitMix64 stream, so the
//! forest (and everything downstream of it) is a pure function of
//! `(support, params)` — never of thread count. The tests pin this.
//!
//! The recall/speed trade is governed by [`AnnTuning`]
//! (tree count, bits per hash, oversampling, probe radius) and measured
//! against the exact blocked kernel by the `ann_oracle` tests and the
//! benchmark's `ann-local` workload; the crossover policy that decides
//! *when* this path replaces the exact kernel lives on
//! [`crate::Hammer`].

use hammer_dist::Distribution;

use crate::config::AnnTuning;
use crate::kernel::{hamming, uncancelled};

mod score;

pub(crate) use score::{chs, scores};
pub use score::{global_chs_with_index, scores_with_index};

/// Default seed for the forest's bit-sampling streams. Fixed so that a
/// given `(support, params)` always yields the same forest — the
/// serving cache and the reproducibility story both rely on it.
pub const DEFAULT_SEED: u64 = 0x4841_4D4D_4552_4C53; // "HAMMERLS"

/// Hard ceiling on `bits_per_hash`: 2^20 buckets ≈ 4 MiB of offsets per
/// tree, and past that the bucket-count bookkeeping dwarfs the ids.
pub const MAX_BITS_PER_HASH: usize = 20;

/// Resolved build parameters of one forest — [`AnnTuning`] with the
/// automatic knobs filled in for a concrete support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnParams {
    /// Number of hash tables.
    pub trees: usize,
    /// Bits sampled per hash (resolved; never 0).
    pub bits_per_hash: usize,
    /// Multi-probe radius in hash space (0..=2).
    pub probe_radius: usize,
    /// Seed of the per-tree bit-sampling streams.
    pub seed: u64,
}

impl AnnParams {
    /// Resolves tuning knobs against a concrete support: picks
    /// `bits_per_hash = log2(N / oversample)` (clamped to
    /// `4..=`[`MAX_BITS_PER_HASH`], and to the register width) when the
    /// tuning leaves it automatic, and clamps the probe radius to 2.
    ///
    /// When the hash is auto-sized, the tree count scales with it:
    /// widening the hash by one bit multiplies the per-tree collision
    /// odds of a fixed-distance pair by roughly `(1 − d/n)` (≈ 0.75 on
    /// the benchmark's error-halo workload), so a forest that recalls
    /// 0.96 at `k = 12` decays to 0.79 at `k = 14` and 0.52 at `k = 16`
    /// if the tree count stays put (measured before the tree count
    /// scaled).
    /// Doubling the trees for every two extra hash bits restores the
    /// union's catch probability, so recall stays flat as the support —
    /// and with it the auto-sized hash — grows. An explicit
    /// `bits_per_hash` leaves `trees` exactly as tuned.
    #[must_use]
    pub fn resolve(tuning: &AnnTuning, n_unique: usize, n_bits: usize) -> Self {
        let (k, auto) = if tuning.bits_per_hash > 0 {
            (tuning.bits_per_hash, false)
        } else {
            let target = tuning.oversample.max(1);
            let buckets = (n_unique / target).max(1);
            ((usize::BITS - 1 - buckets.leading_zeros()) as usize, true)
        };
        let bits_per_hash = k.clamp(4, MAX_BITS_PER_HASH).min(n_bits).max(1);
        let mut trees = tuning.trees.max(1);
        if auto && bits_per_hash > RECALL_BASELINE_BITS {
            let shift = (bits_per_hash - RECALL_BASELINE_BITS).div_ceil(2);
            trees = trees.saturating_mul(1 << shift.min(MAX_RECALL_SHIFT));
        }
        Self {
            trees,
            bits_per_hash,
            probe_radius: tuning.probe_radius.min(2),
            seed: DEFAULT_SEED,
        }
    }
}

/// Hash width at which the default forest's measured recall sits at
/// ≈ 0.96 on the benchmark workload; auto-sizing compensates beyond it.
const RECALL_BASELINE_BITS: usize = 12;

/// Cap on the recall compensation: at most ×16 trees (hash 8 bits past
/// the baseline), past which build cost dominates any recall left.
const MAX_RECALL_SHIFT: usize = 4;

/// One tree: `k` sampled bit positions and a counting-sorted bucket
/// directory (`starts` offsets into `ids`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Table {
    /// The sampled bit positions (distinct, `< n_bits`); hash bit `j`
    /// is register bit `bits[j]`.
    bits: Vec<u8>,
    /// `2^k + 1` bucket offsets into `ids`.
    starts: Vec<u32>,
    /// Support indices grouped by bucket, ascending within a bucket.
    ids: Vec<u32>,
}

impl Table {
    /// Gathers this tree's sampled bits of a two-limb key.
    #[inline]
    fn hash(&self, key_lo: u64, key_hi: u64) -> u32 {
        let mut h = 0u32;
        for (j, &b) in self.bits.iter().enumerate() {
            let bit = if b < 64 {
                (key_lo >> b) & 1
            } else {
                (key_hi >> (b - 64)) & 1
            };
            h |= (bit as u32) << j;
        }
        h
    }

    /// Appends one bucket's ids to `out`.
    #[inline]
    fn bucket_into(&self, h: u32, out: &mut Vec<u32>) {
        let lo = self.starts[h as usize] as usize;
        let hi = self.starts[h as usize + 1] as usize;
        out.extend_from_slice(&self.ids[lo..hi]);
    }
}

/// The bit-sampling LSH forest over one support.
///
/// Owns a copy of the support's key limbs (so queries need no borrowed
/// context), plus one bucket table per tree.
///
/// # Example
///
/// ```
/// use hammer_core::ann::{AnnIndex, AnnParams};
/// use hammer_core::AnnTuning;
/// use hammer_dist::{BitString, Distribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = BitString::parse("10110100")?;
/// let dist = Distribution::from_probs(8, [
///     (base, 0.5),
///     (base.flip_bit(2), 0.3),
///     (BitString::parse("01001011")?, 0.2),
/// ])?;
/// let params = AnnParams::resolve(&AnnTuning::default(), dist.len(), 8);
/// let index = AnnIndex::build(&dist, &params, 2);
/// let [lo, hi] = base.limbs();
/// let near = index.range_query(lo, hi, 2);
/// assert!(near.iter().any(|&(id, d)| dist.key(id as usize) == base.flip_bit(2).as_u128() && d == 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnnIndex {
    n_bits: usize,
    probe_radius: usize,
    keys: Vec<u64>,
    keys_hi: Vec<u64>,
    tables: Vec<Table>,
}

impl AnnIndex {
    /// Builds the forest, one tile per tree across `threads`
    /// work-stealing workers. The result is independent of `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or the support exceeds `u32::MAX`
    /// entries.
    #[must_use]
    pub fn build(dist: &Distribution, params: &AnnParams, threads: usize) -> Self {
        let _t = crate::obs_hooks::ann_build_hist().start();
        assert!(
            u32::try_from(dist.len()).is_ok(),
            "ANN index ids are u32: support of {} entries is too large",
            dist.len()
        );
        let (keys, keys_hi, n_bits) = (dist.keys(), dist.keys_hi(), dist.n_bits());
        let tables = uncancelled(hammer_pool::run_tiles(params.trees, threads, None, |t| {
            build_table(keys, keys_hi, n_bits, params, t)
        }));
        Self {
            n_bits,
            probe_radius: params.probe_radius,
            keys: keys.to_vec(),
            keys_hi: keys_hi.to_vec(),
            tables,
        }
    }

    /// Number of trees.
    #[must_use]
    pub fn trees(&self) -> usize {
        self.tables.len()
    }

    /// Bits sampled per hash.
    #[must_use]
    pub fn bits_per_hash(&self) -> usize {
        self.tables.first().map_or(0, |t| t.bits.len())
    }

    /// Number of indexed outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the indexed support is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Register width of the indexed support.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// The indexed low key limbs (ascending key order, as in
    /// [`Distribution::keys`]).
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The indexed high key limbs.
    #[must_use]
    pub fn keys_hi(&self) -> &[u64] {
        &self.keys_hi
    }

    /// Collects the deduplicated, ascending candidate ids for a query
    /// key into `out` (cleared first): the union over all trees of the
    /// query's bucket and, within the probe radius, every bucket whose
    /// hash differs in at most that many sampled bits. If the query key
    /// is in the support, its own id is always among the candidates
    /// (its exact bucket is probed in every tree).
    pub fn candidates_into(&self, key_lo: u64, key_hi: u64, out: &mut Vec<u32>) {
        out.clear();
        for table in &self.tables {
            let h = table.hash(key_lo, key_hi);
            let k = table.bits.len() as u32;
            table.bucket_into(h, out);
            if self.probe_radius >= 1 {
                for j in 0..k {
                    table.bucket_into(h ^ (1 << j), out);
                }
            }
            if self.probe_radius >= 2 {
                for j in 0..k {
                    for l in (j + 1)..k {
                        table.bucket_into(h ^ (1 << j) ^ (1 << l), out);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Candidate ids of the `i`-th indexed outcome (see
    /// [`candidates_into`](AnnIndex::candidates_into)).
    pub(crate) fn candidates_of_into(&self, i: usize, out: &mut Vec<u32>) {
        self.candidates_into(self.keys[i], self.keys_hi[i], out);
    }

    /// The multi-probe range query: candidate ids whose exact Hamming
    /// distance to the query key is `≤ max_d`, as `(id, distance)`
    /// pairs in ascending id order. Approximate in the LSH sense — a
    /// true `≤ max_d` neighbor missed by every probed bucket is absent
    /// — with recall governed by the build knobs and measured by the
    /// `ann_oracle` tests.
    #[must_use]
    pub fn range_query(&self, key_lo: u64, key_hi: u64, max_d: usize) -> Vec<(u32, u32)> {
        let mut scratch = Vec::new();
        self.candidates_into(key_lo, key_hi, &mut scratch);
        scratch
            .into_iter()
            .filter_map(|id| {
                let i = id as usize;
                let d = hamming(&[key_lo, key_hi], &[self.keys[i], self.keys_hi[i]]);
                (d <= max_d).then_some((id, d as u32))
            })
            .collect()
    }
}

/// Builds tree `t`: samples `k` distinct bit positions from the tree's
/// own SplitMix64 stream, hashes every key, and counting-sorts ids into
/// the bucket directory (ids stay ascending within a bucket — queries
/// then yield sorted candidate unions cheaply, and scoring accumulates
/// in a deterministic id order).
fn build_table(
    keys: &[u64],
    keys_hi: &[u64],
    n_bits: usize,
    params: &AnnParams,
    t: usize,
) -> Table {
    let mut rng = SplitMix64::new(
        params
            .seed
            .wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let bits = sample_bits(&mut rng, n_bits, params.bits_per_hash);
    let k = bits.len();
    let m = 1usize << k;
    let n = keys.len();
    let mut hashes = vec![0u32; n];
    for (i, h) in hashes.iter_mut().enumerate() {
        let mut acc = 0u32;
        for (j, &b) in bits.iter().enumerate() {
            let bit = if b < 64 {
                (keys[i] >> b) & 1
            } else {
                (keys_hi[i] >> (b - 64)) & 1
            };
            acc |= (bit as u32) << j;
        }
        *h = acc;
    }
    let mut starts = vec![0u32; m + 1];
    for &h in &hashes {
        starts[h as usize + 1] += 1;
    }
    for b in 0..m {
        starts[b + 1] += starts[b];
    }
    let mut cursor: Vec<u32> = starts[..m].to_vec();
    let mut ids = vec![0u32; n];
    for (i, &h) in hashes.iter().enumerate() {
        let slot = &mut cursor[h as usize];
        ids[*slot as usize] = i as u32;
        *slot += 1;
    }
    Table { bits, starts, ids }
}

/// Samples `k` distinct bit positions from `0..n_bits` by partial
/// Fisher–Yates.
fn sample_bits(rng: &mut SplitMix64, n_bits: usize, k: usize) -> Vec<u8> {
    debug_assert!(n_bits <= 128 && k <= n_bits);
    let mut positions: Vec<u8> = (0..n_bits as u8).collect();
    for j in 0..k {
        let r = j + (rng.next() as usize) % (n_bits - j);
        positions.swap(j, r);
    }
    positions.truncate(k);
    positions
}

/// SplitMix64 — the tiny, dependency-free seed-expansion PRNG (the same
/// stream xoshiro uses for seeding). Good enough for sampling bit
/// subsets; never used for statistical work.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::BitString;

    /// A clustered support: `clusters` random centers, each with an
    /// error halo of up-to-`halo_d`-flip neighbors.
    fn clustered(n_bits: usize, clusters: usize, halo: usize, seed: u64) -> Distribution {
        let mut rng = SplitMix64::new(seed);
        let mask = |v: u128| {
            if n_bits == 128 {
                v
            } else {
                v & ((1u128 << n_bits) - 1)
            }
        };
        let mut pairs = Vec::new();
        for c in 0..clusters {
            let center = mask(u128::from(rng.next()) | (u128::from(rng.next()) << 64));
            pairs.push((BitString::from_u128(center, n_bits), 1.0 + c as f64));
            for _ in 0..halo {
                let flips = 1 + (rng.next() as usize) % 3;
                let mut member = center;
                for _ in 0..flips {
                    member ^= 1u128 << ((rng.next() as usize) % n_bits);
                }
                pairs.push((BitString::from_u128(member, n_bits), 1.0));
            }
        }
        Distribution::from_probs(n_bits, pairs).expect("positive weights")
    }

    fn params(trees: usize, k: usize, r: usize) -> AnnParams {
        AnnParams {
            trees,
            bits_per_hash: k,
            probe_radius: r,
            seed: DEFAULT_SEED,
        }
    }

    #[test]
    fn resolve_auto_sizes_the_hash() {
        let tuning = AnnTuning::default();
        // 65536 / 16 = 4096 buckets → 12 bits.
        assert_eq!(AnnParams::resolve(&tuning, 65_536, 64).bits_per_hash, 12);
        // 1M / 16 = 65536 buckets → 16 bits.
        assert_eq!(AnnParams::resolve(&tuning, 1 << 20, 64).bits_per_hash, 16);
        // Small supports clamp to the floor of 4 — and never exceed the
        // register width.
        assert_eq!(AnnParams::resolve(&tuning, 64, 64).bits_per_hash, 4);
        assert_eq!(AnnParams::resolve(&tuning, 64, 3).bits_per_hash, 3);
        // Oversampling widens buckets by shrinking the hash.
        let wide = AnnTuning {
            oversample: 64,
            ..AnnTuning::default()
        };
        assert_eq!(AnnParams::resolve(&wide, 65_536, 64).bits_per_hash, 10);
        // Huge supports cap at MAX_BITS_PER_HASH.
        assert_eq!(
            AnnParams::resolve(&tuning, usize::MAX >> 8, 128).bits_per_hash,
            MAX_BITS_PER_HASH
        );
    }

    #[test]
    fn resolve_scales_trees_with_the_auto_sized_hash() {
        let tuning = AnnTuning::default();
        // At the 12-bit baseline and below, trees stay as tuned.
        assert_eq!(AnnParams::resolve(&tuning, 65_536, 64).trees, 8);
        assert_eq!(AnnParams::resolve(&tuning, 64, 64).trees, 8);
        // 14 bits (262K support) → ×2; 16 bits (1M) → ×4.
        assert_eq!(AnnParams::resolve(&tuning, 1 << 18, 64).trees, 16);
        assert_eq!(AnnParams::resolve(&tuning, 1 << 20, 64).trees, 32);
        // The compensation caps at ×16 even for a 20-bit hash.
        assert_eq!(AnnParams::resolve(&tuning, usize::MAX >> 8, 128).trees, 128);
        // An explicit hash width is a manual override: trees untouched.
        let manual = AnnTuning {
            bits_per_hash: 16,
            ..AnnTuning::default()
        };
        assert_eq!(AnnParams::resolve(&manual, 1 << 20, 64).trees, 8);
    }

    #[test]
    fn every_outcome_is_its_own_candidate() {
        let d = clustered(64, 12, 6, 7);
        let index = AnnIndex::build(&d, &params(4, 6, 1), 2);
        let mut cands = Vec::new();
        for i in 0..d.len() {
            index.candidates_of_into(i, &mut cands);
            assert!(cands.binary_search(&(i as u32)).is_ok(), "id {i} missing");
            // Sorted and deduplicated.
            assert!(cands.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn full_probe_forest_is_exhaustive() {
        // k = 1 with probe radius 1 probes both buckets of the single
        // sampled bit: the candidate set must be the whole support.
        let d = clustered(64, 8, 4, 11);
        let index = AnnIndex::build(&d, &params(1, 1, 1), 1);
        let mut cands = Vec::new();
        index.candidates_of_into(0, &mut cands);
        assert_eq!(cands.len(), d.len());
        // And the range query at full width finds every pair exactly.
        let hits = index.range_query(d.keys()[0], d.keys_hi()[0], 64);
        assert_eq!(hits.len(), d.len());
        for (id, dd) in hits {
            let x = BitString::from_u128(d.key(0), 64);
            let y = BitString::from_u128(d.key(id as usize), 64);
            assert_eq!(x.hamming_distance(y), dd);
        }
    }

    #[test]
    fn range_query_reports_exact_distances_and_high_recall() {
        let d = clustered(64, 40, 10, 3);
        let p = AnnParams::resolve(&AnnTuning::default(), d.len(), 64);
        let index = AnnIndex::build(&d, &p, 2);
        let max_d = 8;
        let (mut found, mut truth) = (0usize, 0usize);
        for i in 0..d.len() {
            let xi = d.key(i);
            let hits = index.range_query(d.keys()[i], d.keys_hi()[i], max_d);
            for &(id, dd) in &hits {
                let y = d.key(id as usize);
                assert_eq!((xi ^ y).count_ones(), dd, "reported distance is exact");
                assert!(dd as usize <= max_d);
            }
            found += hits.len();
            truth += (0..d.len())
                .filter(|&j| (xi ^ d.key(j)).count_ones() as usize <= max_d)
                .count();
        }
        let recall = found as f64 / truth as f64;
        assert!(
            recall >= 0.95,
            "pair recall {recall} below 0.95 at default knobs"
        );
    }

    #[test]
    fn forest_is_deterministic_across_threads() {
        let d = clustered(100, 10, 8, 5); // wide: both limbs live
        let p = params(6, 7, 1);
        let serial = AnnIndex::build(&d, &p, 1);
        for threads in [2, 4, 16] {
            let threaded = AnnIndex::build(&d, &p, threads);
            assert_eq!(serial.tables, threaded.tables, "threads={threads}");
        }
        // Distinct trees sample distinct bit subsets (else the forest
        // would be T copies of one tree).
        assert!(serial.tables.windows(2).any(|w| w[0].bits != w[1].bits));
    }

    #[test]
    fn wide_queries_gather_high_limb_bits() {
        // Two keys differing only above bit 64: a forest over 128 bits
        // must separate them in at least one tree.
        let a = BitString::from_u128(1u128 << 100, 128);
        let b = BitString::from_u128(1u128 << 99, 128);
        let d = Distribution::from_probs(128, [(a, 0.6), (b, 0.4)]).unwrap();
        let index = AnnIndex::build(&d, &params(8, 20, 0), 2);
        // Keys sort ascending, so b (bit 99) is id 0 and a (bit 100) is
        // id 1: a radius-0 query for a must hit exactly itself.
        assert_eq!(d.key(1), a.as_u128());
        let hits = index.range_query(a.limbs()[0], a.limbs()[1], 0);
        assert_eq!(hits, vec![(1, 0)]);
    }

    #[test]
    fn sampled_bits_are_distinct_and_in_range() {
        let mut rng = SplitMix64::new(9);
        for n in [4usize, 64, 65, 128] {
            for k in [1usize, 3, n.min(20)] {
                let bits = sample_bits(&mut rng, n, k);
                assert_eq!(bits.len(), k);
                let mut sorted = bits.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "duplicate bit in {bits:?}");
                assert!(bits.iter().all(|&b| (b as usize) < n));
            }
        }
    }
}
