//! Property-based and corpus tests for the persistent distribution
//! store: record encode/decode round-trips across the full 1–128-bit
//! outcome range, plus damage corpora (single-bit flips, truncation at
//! arbitrary byte boundaries) that the store must survive by dropping
//! records — never by panicking, refusing to start, or serving a wrong
//! distribution.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hammer_dist::{BitString, Distribution};
use hammer_obs::Registry;
use hammer_serve::store::{self, DistStore};
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per case — proptest cases reuse the
/// process, so a counter disambiguates alongside the pid.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hammer-store-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a store counting on a fresh registry, returned alongside it.
fn open(dir: &Path) -> (DistStore, Registry) {
    let registry = Registry::new();
    let store = DistStore::open(dir, 1 << 30, &registry).expect("a store always opens");
    (store, registry)
}

/// A `serve.store.*` counter as the registry snapshot reports it.
fn count(registry: &Registry, name: &str) -> u64 {
    let series = format!("serve.store.{name}");
    registry.snapshot().counter(&series).unwrap_or(0)
}

/// Strategy: a sparse distribution over `1..=128`-bit outcomes. Keys
/// are spread into the high limb (for widths past 64) so both limbs of
/// the SoA payload carry real data.
fn any_width_distribution() -> impl Strategy<Value = Distribution> {
    (1usize..=128)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::btree_map(0u64..=u64::MAX, 1u64..1000, 1..24),
            )
        })
        .prop_map(|(n, map)| {
            let mask = if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            let mut dedup = std::collections::BTreeMap::new();
            for (k, w) in map {
                let spread = (u128::from(k)
                    | (u128::from(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) << 64))
                    & mask;
                *dedup.entry(spread).or_insert(0u64) += w;
            }
            let pairs = dedup
                .into_iter()
                .map(|(k, w)| (BitString::from_u128(k, n), w as f64));
            Distribution::from_probs(n, pairs).expect("positive weights")
        })
}

/// Spills three small deterministic distributions into a fresh store
/// and closes it, returning the directory and the expected contents.
fn populated_store() -> (PathBuf, Vec<(u64, Distribution)>) {
    let dir = scratch_dir();
    let entries: Vec<(u64, Distribution)> = (0..3u64)
        .map(|i| {
            let pairs = (0..8u64).map(|k| (BitString::new(k, 4), (1 + i + k) as f64));
            (
                0x1000 + i,
                Distribution::from_probs(4, pairs).expect("positive weights"),
            )
        })
        .collect();
    let (store, _) = open(&dir);
    for (key, d) in &entries {
        store.spill(*key, d).expect("spill");
    }
    drop(store);
    (dir, entries)
}

/// The single segment file a freshly populated store writes.
fn segment_file(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "populated store has one segment");
    segments.remove(0)
}

/// Reopens a (possibly damaged) store and checks the safety invariants
/// every corpus test shares: the open never fails, every served load
/// is byte-for-byte the original distribution, and the counters agree
/// with what was served.
fn assert_never_wrong(dir: &Path, entries: &[(u64, Distribution)]) -> Result<(), String> {
    let (store, registry) = open(dir);
    let recovered = count(&registry, "recovered");
    prop_assert!(
        recovered <= entries.len() as u64,
        "recovered {recovered} records from {} spills",
        entries.len()
    );
    let mut served = 0u64;
    for (key, d) in entries {
        if let Some(got) = store.load(*key) {
            prop_assert_eq!(&got, d, "a served distribution must be the original");
            served += 1;
        }
    }
    // Loads may demote directory entries (read-time verification), but
    // never invent them.
    prop_assert!(served <= recovered);
    prop_assert_eq!(count(&registry, "loads"), served);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_round_trip_at_any_width(d in any_width_distribution(), key in 0u64..=u64::MAX) {
        let record = store::encode_record(key, &d);
        let (got_key, got) = store::decode_record(&record).expect("freshly encoded record decodes");
        prop_assert_eq!(got_key, key);
        prop_assert_eq!(got, d);
    }

    #[test]
    fn any_single_byte_corruption_is_skipped_never_served(byte_sel in 0u32..=u32::MAX, bit in 0u8..8) {
        let (dir, entries) = populated_store();
        let seg = segment_file(&dir);
        let mut bytes = std::fs::read(&seg).expect("read segment");
        let idx = byte_sel as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&seg, &bytes).expect("rewrite segment");

        assert_never_wrong(&dir, &entries)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_any_boundary_recovers_the_committed_prefix(cut_sel in 0u32..=u32::MAX) {
        let (dir, entries) = populated_store();
        let seg = segment_file(&dir);
        let bytes = std::fs::read(&seg).expect("read segment");
        let cut = cut_sel as usize % bytes.len();
        std::fs::write(&seg, &bytes[..cut]).expect("truncate segment");

        assert_never_wrong(&dir, &entries)?;

        // Recovery is idempotent: the first open truncated the torn
        // tail, so a second open over the same directory sees a clean
        // log — nothing further to drop, same directory size.
        let (_reopened, registry) = open(&dir);
        let record_bytes = store::encode_record(entries[0].0, &entries[0].1).len();
        let whole_records = cut / record_bytes; // identical record sizes
        prop_assert_eq!(count(&registry, "recovered"), whole_records as u64);
        prop_assert_eq!(count(&registry, "corrupt_dropped"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_missing_segment_degrades_to_cold_not_refused() {
    let (dir, entries) = populated_store();
    std::fs::remove_file(segment_file(&dir)).expect("delete segment");
    let (store, registry) = open(&dir);
    assert_eq!(count(&registry, "recovered"), 0);
    for (key, _) in &entries {
        assert_eq!(store.load(*key), None);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_directory_can_be_a_plain_garbage_file_graveyard() {
    // Foreign files in the directory are ignored, not scanned.
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("create dir");
    std::fs::write(dir.join("notes.txt"), b"not a segment").expect("write stray file");
    let (store, _) = open(&dir);
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
