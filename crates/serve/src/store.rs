//! A crash-safe, append-only segment store for reconstructed
//! [`Distribution`]s — the spill tier under the sharded LRU cache.
//!
//! Reconstruction is the expensive step this whole stack exists to
//! serve; a process restart that wipes the in-RAM cache silently
//! converts cheap hits back into that compute bill for every hot
//! fingerprint. The store makes eviction a demotion instead of a loss:
//! the cache spills evicted entries here, misses probe here before
//! computing, and a restart over the same directory serves warm.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files (`seg-NNNNNNNN.log`),
//! each a sequence of self-delimiting records:
//!
//! ```text
//! u32 magic "HSR1" | u32 body_len | u32 crc32(body) | body
//! body = u64 key | u8 reserved (always 0) | distribution payload
//! ```
//!
//! The distribution payload is exactly the wire codec's SoA layout
//! ([`crate::codec::put_distribution`]): `u16 n_bits, u32 len,
//! keys[len], (keys_hi[len] if wide), probs[len]` — probabilities as
//! IEEE-754 bit patterns, so a round trip is byte-identical. Records
//! are appended to the active (highest-numbered) segment and fsync'd
//! before [`spill`](DistStore::spill) returns: a record whose spill
//! completed is *committed* and survives any crash.
//!
//! # Recovery
//!
//! [`DistStore::open`] scans every segment in id order: a record with a
//! good magic, plausible length and matching CRC is indexed (later
//! records supersede earlier ones for the same key); a record whose CRC
//! mismatches is skipped (counted, never fatal); a torn tail — EOF or
//! garbage mid-record, the signature of a crash mid-append — truncates
//! the segment at the last good record. Decoding is deferred to load
//! time and goes through [`Distribution::from_raw_parts`], which
//! re-validates every invariant, so even a CRC collision on hostile
//! bytes can produce a dropped record, never a panic or a wrong
//! distribution. A damaged or missing store degrades to cold-cache
//! operation; it never refuses a start.
//!
//! # Budget
//!
//! The store is bounded by a byte budget. The active segment rotates at
//! a fraction of the budget; when the total on-disk footprint exceeds
//! the budget, the oldest closed segment is retired — its live records
//! (still pointed at by the key directory) are rewritten verbatim into
//! the active segment when they are the minority, or dropped outright
//! (a disk-tier eviction) when rewriting would not reclaim much.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hammer_dist::Distribution;

use crate::codec;

/// Per-record magic: "HSR1".
const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"HSR1");

/// Fixed bytes before the body: magic + body_len + crc.
const RECORD_HEADER: usize = 12;

/// Upper bound on a record body — matches the wire protocol's payload
/// cap, plus the key/reserved-byte prefix. A length field beyond this is
/// corruption, not a huge record.
const MAX_BODY: usize = 64 * 1024 * 1024 + 16;

/// The store's counters, read in process; on the wire they are the
/// `serve.store.*` series of a `MetricsSnapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended (cache evictions demoted to disk).
    pub spills: u64,
    /// Misses served from the store instead of recomputing.
    pub loads: u64,
    /// Records recovered into the directory at the last open.
    pub recovered: u64,
    /// Records dropped as corrupt — bad CRC, torn tail, undecodable
    /// payload — across recovery and loads.
    pub corrupt_dropped: u64,
}

/// Where one committed record lives.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    segment: u64,
    offset: u64,
    /// Total record length on disk (header + body).
    len: u32,
}

/// Per-segment accounting.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentMeta {
    /// File size in bytes (after any recovery truncation).
    bytes: u64,
    /// Bytes of records the directory still points at.
    live: u64,
}

struct StoreInner {
    dir: PathBuf,
    budget: u64,
    segment_target: u64,
    active_id: u64,
    active: File,
    segments: BTreeMap<u64, SegmentMeta>,
    index: HashMap<u64, IndexEntry>,
}

/// The crash-safe persistent distribution store. All methods take
/// `&self`; internal state is behind one mutex (spills and loads are
/// the cache's *miss* path — contention is not a concern there).
pub struct DistStore {
    inner: Mutex<StoreInner>,
    spills: hammer_obs::Counter,
    loads: hammer_obs::Counter,
    recovered: hammer_obs::Counter,
    corrupt_dropped: hammer_obs::Counter,
}

impl DistStore {
    /// Opens (creating if needed) a store bounded by `budget_bytes`,
    /// running recovery over whatever the directory holds: torn tails
    /// are truncated, corrupt records skipped and counted, and the key
    /// directory rebuilt from the surviving records. Counters are
    /// detached; see [`DistStore::open_registered`] for the
    /// metrics-visible variant.
    ///
    /// # Errors
    ///
    /// Only hard environment failures (the directory cannot be created
    /// or a segment cannot be opened for append) — data damage is
    /// *recovered from*, never an error. Callers treat an error as
    /// "run without a store".
    pub fn open(dir: &Path, budget_bytes: u64) -> std::io::Result<Self> {
        Self::open_with_counters(dir, budget_bytes, None)
    }

    /// [`DistStore::open`], with the counters registered on `registry`
    /// as `serve.store.{spills,loads,recovered,corrupt_dropped}`.
    /// Registration happens before recovery runs so recovery tallies
    /// are never lost.
    ///
    /// # Errors
    ///
    /// See [`DistStore::open`].
    pub fn open_registered(
        dir: &Path,
        budget_bytes: u64,
        registry: &hammer_obs::Registry,
    ) -> std::io::Result<Self> {
        Self::open_with_counters(dir, budget_bytes, Some(registry))
    }

    fn open_with_counters(
        dir: &Path,
        budget_bytes: u64,
        registry: Option<&hammer_obs::Registry>,
    ) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let budget = budget_bytes.max(1);
        let counter =
            |name: &str| registry.map_or_else(hammer_obs::Counter::detached, |r| r.counter(name));
        let store = Self {
            inner: Mutex::new(StoreInner {
                dir: dir.to_path_buf(),
                budget,
                segment_target: (budget / 4).max(4096),
                active_id: 0,
                active: File::create(dir.join("seg-tmp-bootstrap"))?,
                segments: BTreeMap::new(),
                index: HashMap::new(),
            }),
            spills: counter("serve.store.spills"),
            loads: counter("serve.store.loads"),
            recovered: counter("serve.store.recovered"),
            corrupt_dropped: counter("serve.store.corrupt_dropped"),
        };
        let _ = fs::remove_file(dir.join("seg-tmp-bootstrap"));
        store.recover()?;
        Ok(store)
    }

    /// A counters snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            spills: self.spills.get(),
            loads: self.loads.get(),
            recovered: self.recovered.get(),
            corrupt_dropped: self.corrupt_dropped.get(),
        }
    }

    /// Appends one committed record: serialized, CRC'd, written and
    /// fsync'd before returning. On success the record is durable
    /// against any crash.
    ///
    /// # Errors
    ///
    /// I/O failures of the underlying filesystem. The caller (the
    /// serving runtime) treats them as "this entry was not demoted" —
    /// the in-RAM result is unaffected.
    pub fn spill(&self, key: u64, d: &Distribution) -> std::io::Result<()> {
        let record = encode_record(key, d);
        let mut inner = self.inner.lock().expect("store mutex unpoisoned");
        let inner = &mut *inner;
        if inner.segment_bytes(inner.active_id) >= inner.segment_target {
            inner.rotate()?;
        }
        let offset = inner.active.seek(SeekFrom::End(0))?;
        // Two-phase write with a fault point in between: the chaos
        // drills abort here to manufacture a torn tail exactly where a
        // real crash mid-append would leave one.
        inner.active.write_all(&record[..RECORD_HEADER])?;
        #[cfg(feature = "fault-points")]
        crate::fault::on_store_append();
        inner.active.write_all(&record[RECORD_HEADER..])?;
        #[cfg(feature = "fault-points")]
        crate::fault::on_store_fsync();
        inner.active.sync_data()?;
        let len = record.len() as u64;
        let entry = IndexEntry {
            segment: inner.active_id,
            offset,
            len: record.len() as u32,
        };
        let meta = inner.segments.entry(inner.active_id).or_default();
        meta.bytes = offset + len;
        meta.live += len;
        if let Some(old) = inner.index.insert(key, entry) {
            inner.retire(old);
        }
        self.spills.inc();
        inner.enforce_budget();
        Ok(())
    }

    /// Loads a committed record, re-verifying the CRC and re-validating
    /// the distribution through [`Distribution::from_raw_parts`]. A
    /// record that fails any check, or holds another key, is treated
    /// as corruption and dropped, never served.
    #[must_use]
    pub fn load(&self, key: u64) -> Option<Distribution> {
        let mut inner = self.inner.lock().expect("store mutex unpoisoned");
        let entry = *inner.index.get(&key)?;
        match inner.read_record(entry) {
            Some((stored_key, d)) if stored_key == key => {
                self.loads.inc();
                Some(d)
            }
            _ => {
                // Bad bytes under a directory entry: drop the entry so
                // the caller recomputes (and the record dies at the
                // next compaction).
                inner.drop_entry(key);
                self.corrupt_dropped.inc();
                None
            }
        }
    }

    /// Entries currently committed and indexed (tests + diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("store mutex unpoisoned")
            .index
            .len()
    }

    /// Whether the directory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scans every segment, truncating torn tails and rebuilding the
    /// key directory; then opens the active segment for append.
    fn recover(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("store mutex unpoisoned");
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&inner.dir)? {
            let Ok(entry) = entry else { continue };
            if let Some(id) = segment_id(&entry.file_name().to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut corrupt = 0u64;
        for &id in &ids {
            let path = segment_path(&inner.dir, id);
            let Ok(bytes) = fs::read(&path) else {
                // An unreadable segment is damage, not a refused start.
                corrupt += 1;
                continue;
            };
            let scan = scan_segment(&bytes);
            corrupt += scan.corrupt;
            if (scan.valid_bytes as usize) < bytes.len() {
                // Torn or garbage tail: truncate to the last good
                // record so the next append starts at a clean offset.
                if let Ok(f) = OpenOptions::new().write(true).open(&path) {
                    if f.set_len(scan.valid_bytes).is_ok() {
                        let _ = f.sync_data();
                    }
                }
                #[cfg(feature = "fault-points")]
                crate::fault::on_recovery_truncate();
            }
            // Meta goes in before the record walk so that supersedes —
            // including intra-segment ones — can retire the old record
            // against an existing entry.
            inner.segments.insert(
                id,
                SegmentMeta {
                    bytes: scan.valid_bytes,
                    live: 0,
                },
            );
            for (key, offset, len) in scan.records {
                let entry = IndexEntry {
                    segment: id,
                    offset,
                    len,
                };
                if let Some(meta) = inner.segments.get_mut(&id) {
                    meta.live += u64::from(len);
                }
                if let Some(old) = inner.index.insert(key, entry) {
                    inner.retire(old);
                }
            }
        }
        let active_id = ids.last().copied().unwrap_or(0).max(1);
        inner.active_id = active_id;
        let path = segment_path(&inner.dir, active_id);
        inner.active = OpenOptions::new().create(true).append(true).open(path)?;
        inner.segments.entry(active_id).or_default();
        self.recovered.add(inner.index.len() as u64);
        self.corrupt_dropped.add(corrupt);
        inner.enforce_budget();
        Ok(())
    }
}

impl StoreInner {
    fn segment_bytes(&self, id: u64) -> u64 {
        self.segments.get(&id).map_or(0, |m| m.bytes)
    }

    /// Closes the active segment and starts the next one.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.active.sync_data()?;
        self.active_id += 1;
        let path = segment_path(&self.dir, self.active_id);
        self.active = OpenOptions::new().create(true).append(true).open(path)?;
        self.segments.entry(self.active_id).or_default();
        Ok(())
    }

    /// Subtracts a superseded or dropped record from its segment's
    /// live accounting.
    fn retire(&mut self, entry: IndexEntry) {
        if let Some(meta) = self.segments.get_mut(&entry.segment) {
            meta.live = meta.live.saturating_sub(u64::from(entry.len));
        }
    }

    fn drop_entry(&mut self, key: u64) {
        if let Some(entry) = self.index.remove(&key) {
            self.retire(entry);
        }
    }

    fn total_bytes(&self) -> u64 {
        self.segments.values().map(|m| m.bytes).sum()
    }

    /// Reads and fully re-verifies one record.
    fn read_record(&mut self, entry: IndexEntry) -> Option<(u64, Distribution)> {
        let path = segment_path(&self.dir, entry.segment);
        let mut f = File::open(path).ok()?;
        f.seek(SeekFrom::Start(entry.offset)).ok()?;
        let mut buf = vec![0u8; entry.len as usize];
        f.read_exact(&mut buf).ok()?;
        decode_record(&buf)
    }

    /// Retires the oldest closed segments until the footprint fits the
    /// budget. Minority-live segments have their live records rewritten
    /// (verbatim bytes, CRC intact) into the active segment; majority-
    /// live ones are dropped whole — a disk-tier eviction of the
    /// coldest data.
    fn enforce_budget(&mut self) {
        while self.total_bytes() > self.budget {
            let Some((&oldest, &meta)) = self.segments.iter().find(|(&id, _)| id != self.active_id)
            else {
                return; // only the active segment left; let it be
            };
            let path = segment_path(&self.dir, oldest);
            if meta.live * 2 <= meta.bytes {
                // Mostly dead: rewriting the live minority reclaims the
                // dead majority.
                if self.rewrite_live(oldest, &path).is_err() {
                    // Could not preserve the live records; dropping the
                    // segment anyway would lose them, so leave it and
                    // stop compacting this round.
                    return;
                }
            } else {
                // Mostly live: rewriting reclaims little, so evict.
                self.index.retain(|_, e| e.segment != oldest);
            }
            self.segments.remove(&oldest);
            let _ = fs::remove_file(&path);
        }
    }

    /// Re-appends the live records of segment `id` to the active
    /// segment (verbatim — the CRC'd bytes move unchanged) and
    /// re-points their index entries.
    fn rewrite_live(&mut self, id: u64, path: &Path) -> std::io::Result<()> {
        let bytes = fs::read(path)?;
        let live: Vec<(u64, IndexEntry)> = self
            .index
            .iter()
            .filter(|(_, e)| e.segment == id)
            .map(|(&k, &e)| (k, e))
            .collect();
        for (key, entry) in live {
            let start = entry.offset as usize;
            let end = start + entry.len as usize;
            let Some(record) = bytes.get(start..end) else {
                continue; // stale entry; drop it below by retain
            };
            let offset = self.active.seek(SeekFrom::End(0))?;
            self.active.write_all(record)?;
            let meta = self.segments.entry(self.active_id).or_default();
            meta.bytes = offset + entry.len as u64;
            meta.live += u64::from(entry.len);
            self.index.insert(
                key,
                IndexEntry {
                    segment: self.active_id,
                    offset,
                    ..entry
                },
            );
        }
        // The moved records must be durable before the source file can
        // be deleted.
        self.active.sync_data()?;
        self.index.retain(|_, e| e.segment != id);
        Ok(())
    }
}

/// `seg-NNNNNNNN.log` for segment `id`.
fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

/// Parses a segment file name back to its id.
fn segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Serializes one record: header (magic, body length, CRC) + body
/// (key, reserved byte 0, distribution payload in the wire codec's SoA
/// layout).
#[must_use]
pub fn encode_record(key: u64, d: &Distribution) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + d.len() * 24);
    body.extend_from_slice(&key.to_le_bytes());
    body.push(0);
    codec::put_distribution(&mut body, d);
    let mut out = Vec::with_capacity(RECORD_HEADER + body.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes and fully validates one record's bytes: magic, length, CRC,
/// a zero reserved byte, and the distribution itself (via
/// [`Distribution::from_raw_parts`]). `None` on any violation — hostile
/// bytes can never panic or produce an invalid distribution.
#[must_use]
pub fn decode_record(buf: &[u8]) -> Option<(u64, Distribution)> {
    let (key, body_len) = record_header(buf)?;
    if RECORD_HEADER + body_len != buf.len() {
        return None;
    }
    let payload = &buf[RECORD_HEADER + 9..];
    let d = codec::read_distribution(payload).ok()?;
    Some((key, d))
}

/// Validates a record prefix (magic, plausible length, CRC over the
/// body, zero reserved byte) without decoding the distribution.
/// Returns `(key, body_len)`.
fn record_header(buf: &[u8]) -> Option<(u64, usize)> {
    let magic = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?);
    if magic != RECORD_MAGIC {
        return None;
    }
    let body_len = u32::from_le_bytes(buf.get(4..8)?.try_into().ok()?) as usize;
    if !(9..=MAX_BODY).contains(&body_len) {
        return None;
    }
    let crc = u32::from_le_bytes(buf.get(8..12)?.try_into().ok()?);
    let body = buf.get(RECORD_HEADER..RECORD_HEADER + body_len)?;
    if crc32(body) != crc {
        return None;
    }
    let key = u64::from_le_bytes(body[0..8].try_into().ok()?);
    // Older formats set this byte for approximate results; no current
    // writer does, so any nonzero value is corruption.
    if body[8] != 0 {
        return None;
    }
    Some((key, body_len))
}

/// What scanning one segment found.
struct SegmentScan {
    /// `(key, offset, record_len)` of every valid record, in file
    /// order.
    records: Vec<(u64, u64, u32)>,
    /// Offset of the first byte past the last structurally-sound
    /// record; everything after is a torn or garbage tail.
    valid_bytes: u64,
    /// Records (or tails) dropped as corrupt.
    corrupt: u64,
}

/// Walks a segment's bytes record by record. A bad CRC under a sound
/// frame skips just that record; a bad magic or impossible length means
/// the walk has lost sync (or hit a torn tail) — everything from there
/// on is dropped.
fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut corrupt = 0u64;
    let mut pos = 0usize;
    let mut valid = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER {
            corrupt += 1; // torn mid-header
            break;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let body_len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        if magic != RECORD_MAGIC || !(9..=MAX_BODY).contains(&body_len) {
            corrupt += 1; // lost sync: garbage or a torn length field
            break;
        }
        if rest.len() < RECORD_HEADER + body_len {
            corrupt += 1; // torn mid-body (crash between write and fsync)
            break;
        }
        let record = &rest[..RECORD_HEADER + body_len];
        match record_header(record) {
            Some((key, _)) => records.push((key, pos as u64, record.len() as u32)),
            None => corrupt += 1, // bad CRC or reserved byte: skip, stay in sync
        }
        pos += RECORD_HEADER + body_len;
        valid = pos;
    }
    SegmentScan {
        records,
        valid_bytes: valid as u64,
        corrupt,
    }
}

/// CRC-32 (IEEE 802.3, reflected), table-driven; the workspace vendors
/// no checksum crate, and 20 lines beat a dependency.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: [u32; 256] = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::BitString;

    fn dist(tag: u64, n: usize) -> Distribution {
        let pairs: Vec<(BitString, f64)> = (0..n as u64)
            .map(|i| (BitString::new((tag.wrapping_mul(31) + i) % 256, 8), 1.0))
            .collect();
        Distribution::from_probs(8, pairs).expect("positive weights")
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hammer-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trips() {
        let d = dist(7, 5);
        let record = encode_record(42, &d);
        let (key, back) = decode_record(&record).expect("round trip");
        assert_eq!(key, 42);
        assert_eq!(back, d);
        // Re-encoding reproduces the bytes exactly.
        assert_eq!(encode_record(key, &back), record);
    }

    #[test]
    fn spill_load_and_warm_restart() {
        let dir = tmp_dir("warm");
        let store = DistStore::open(&dir, 1 << 20).expect("open");
        for i in 0..10u64 {
            store.spill(i, &dist(i, 4)).expect("spill");
        }
        assert_eq!(store.load(3).expect("hit"), dist(3, 4));
        assert!(store.load(99).is_none());
        drop(store);
        // Restart over the same directory: everything committed is back.
        let warm = DistStore::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(warm.stats().recovered, 10);
        for i in 0..10u64 {
            assert_eq!(warm.load(i).expect("recovered"), dist(i, 4));
        }
        assert_eq!(warm.stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sets the reserved body byte of the record starting at
    /// `record[0]` and recomputes its CRC, so only that byte is wrong.
    fn set_reserved_byte(record: &mut [u8]) {
        let body_len = u32::from_le_bytes(record[4..8].try_into().expect("4 bytes")) as usize;
        record[RECORD_HEADER + 8] = 1;
        let crc = crc32(&record[RECORD_HEADER..RECORD_HEADER + body_len]);
        record[8..12].copy_from_slice(&crc.to_le_bytes());
    }

    /// [`set_reserved_byte`] on the record at `offset` of segment 1.
    fn set_reserved_byte_on_disk(dir: &Path, offset: usize) {
        let path = segment_path(dir, 1);
        let mut bytes = fs::read(&path).expect("read");
        set_reserved_byte(&mut bytes[offset..]);
        fs::write(&path, &bytes).expect("write");
    }

    #[test]
    fn nonzero_reserved_byte_is_dropped_not_served() {
        // Older formats flagged approximate results in the reserved
        // byte; such a record must never be served.
        let mut record = encode_record(5, &dist(5, 4));
        set_reserved_byte(&mut record);
        assert!(decode_record(&record).is_none());

        // Recovery skips it and keeps its neighbor.
        let dir = tmp_dir("reserved");
        let store = DistStore::open(&dir, 1 << 20).expect("open");
        store.spill(1, &dist(1, 4)).expect("spill");
        store.spill(2, &dist(2, 4)).expect("spill");
        drop(store);
        set_reserved_byte_on_disk(&dir, encode_record(1, &dist(1, 4)).len());
        let warm = DistStore::open(&dir, 1 << 20).expect("recover");
        assert_eq!(warm.stats().recovered, 1);
        assert_eq!(warm.stats().corrupt_dropped, 1);
        assert!(warm.load(2).is_none());
        assert_eq!(warm.load(1).expect("neighbor survives"), dist(1, 4));

        // A record changed after it was indexed is dropped at load.
        set_reserved_byte_on_disk(&dir, 0);
        assert!(warm.load(1).is_none());
        assert_eq!(warm.stats().corrupt_dropped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn supersede_keeps_the_latest_record() {
        let dir = tmp_dir("supersede");
        let store = DistStore::open(&dir, 1 << 20).expect("open");
        store.spill(1, &dist(1, 4)).expect("spill");
        store.spill(1, &dist(2, 4)).expect("spill");
        assert_eq!(store.load(1).expect("hit"), dist(2, 4));
        drop(store);
        let warm = DistStore::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(warm.stats().recovered, 1);
        assert_eq!(warm.load(1).expect("recovered"), dist(2, 4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_rotation_and_compaction_bound_the_footprint() {
        let dir = tmp_dir("budget");
        let budget = 64 * 1024u64;
        let store = DistStore::open(&dir, budget).expect("open");
        // Far more data than the budget: ~200 records × ~1.3 KB.
        for i in 0..200u64 {
            store.spill(i, &dist(i, 50)).expect("spill");
        }
        let on_disk: u64 = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        // The active segment may overshoot transiently, but the total
        // stays within budget + one segment target.
        assert!(
            on_disk <= budget + budget / 4 + 4096,
            "footprint {on_disk} vs budget {budget}"
        );
        // The newest records survive; the oldest were evicted.
        assert_eq!(store.load(199).expect("newest"), dist(199, 50));
        assert!(store.load(0).is_none(), "oldest evicted from disk");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_records_and_keeps_live_ones() {
        let dir = tmp_dir("compact");
        let budget = 48 * 1024u64;
        let store = DistStore::open(&dir, budget).expect("open");
        // Overwrite one hot key many times (dead records pile up) while
        // a few cold keys stay live.
        for i in 0..8u64 {
            store.spill(1000 + i, &dist(i, 40)).expect("spill");
        }
        for round in 0..120u64 {
            store.spill(7, &dist(round, 40)).expect("spill");
        }
        assert_eq!(store.load(7).expect("hot key live"), dist(119, 40));
        // A store dominated by one key must keep its footprint near one
        // record, not 120.
        drop(store);
        let warm = DistStore::open(&dir, budget).expect("reopen");
        assert_eq!(warm.load(7).expect("hot key recovered"), dist(119, 40));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = tmp_dir("torn");
        let store = DistStore::open(&dir, 1 << 20).expect("open");
        for i in 0..5u64 {
            store.spill(i, &dist(i, 4)).expect("spill");
        }
        drop(store);
        // Simulate a crash mid-append: a half-written record at the
        // tail of the active segment.
        let path = segment_path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        let torn = encode_record(99, &dist(99, 4));
        f.write_all(&torn[..torn.len() / 2]).expect("half write");
        drop(f);
        let len_with_tear = fs::metadata(&path).expect("meta").len();
        let warm = DistStore::open(&dir, 1 << 20).expect("recover");
        assert_eq!(warm.stats().recovered, 5);
        assert_eq!(warm.stats().corrupt_dropped, 1);
        for i in 0..5u64 {
            assert_eq!(warm.load(i).expect("survivor"), dist(i, 4));
        }
        assert!(warm.load(99).is_none());
        assert!(
            fs::metadata(&path).expect("meta").len() < len_with_tear,
            "tail truncated"
        );
        // Recovery is idempotent: a second open finds a clean store.
        drop(warm);
        let again = DistStore::open(&dir, 1 << 20).expect("recover twice");
        assert_eq!(again.stats().recovered, 5);
        assert_eq!(again.stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_skips_one_record_and_keeps_sync() {
        let dir = tmp_dir("bitflip");
        let store = DistStore::open(&dir, 1 << 20).expect("open");
        for i in 0..3u64 {
            store.spill(i, &dist(i, 4)).expect("spill");
        }
        drop(store);
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).expect("read");
        // Flip one byte inside the SECOND record's body (past its
        // header) so the frame stays sound but the CRC fails.
        let rec_len = encode_record(0, &dist(0, 4)).len();
        bytes[rec_len + RECORD_HEADER + 12] ^= 0x40;
        fs::write(&path, &bytes).expect("write corrupted");
        let warm = DistStore::open(&dir, 1 << 20).expect("recover");
        assert_eq!(warm.stats().recovered, 2, "records 0 and 2 survive");
        assert_eq!(warm.stats().corrupt_dropped, 1);
        assert_eq!(warm.load(0).expect("first"), dist(0, 4));
        assert!(warm.load(1).is_none(), "corrupted record dropped");
        assert_eq!(warm.load(2).expect("third"), dist(2, 4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_missing_directories_open_cold() {
        let dir = tmp_dir("cold");
        let store = DistStore::open(&dir, 1 << 20).expect("open missing dir");
        assert!(store.is_empty());
        assert_eq!(store.stats().recovered, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
