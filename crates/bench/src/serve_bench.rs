//! The `repro bench-serve` measurement harness: what the persistent
//! spill store buys across a restart, emitted as the `BENCH_serve.json`
//! artifact (latency, wall clock and store counters, all measured, never
//! extrapolated).
//!
//! `restart-warm` replays a populated key set against a server
//! warm-started over the same store directory (served by decode, not
//! recompute), while `restart-cold` replays it against an empty store
//! and pays the full reconstruction per key. The serving tier under
//! mixed concurrent load is measured by the repository benchmark's
//! `serve-mixed` workload (`perfbench/`), not here.

use std::time::Instant;

use hammer_core::HammerConfig;
use hammer_dist::{BitString, Counts};
use hammer_serve::{serve, ServeClient, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Artifact, Cell, Row};

/// A synthetic 16-bit histogram with `unique` distinct outcomes,
/// deterministic in `salt`. `bench-obs` reconstructs the same shape.
pub(crate) fn large_counts(unique: usize, salt: u64) -> Counts {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut counts = Counts::new(16).expect("valid width");
    for _ in 0..unique {
        let key = rng.gen::<u64>() & 0xFFFF;
        counts.record_n(BitString::new(key, 16), 1 + rng.gen::<u64>() % 100);
    }
    // The salt perturbs one deterministic outcome so each salt gets its
    // own fingerprint without changing the support size.
    counts.record_n(BitString::new(salt & 0xFFFF, 16), 1 + salt);
    counts
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64
}

/// One artifact row: one client's latencies (sorted, one per request)
/// and wall clock, plus the server-side counters of `snap` (cache hit
/// rate, coalesced, store loads/spills).
fn restart_row(
    scenario: &'static str,
    sorted_us: &[u64],
    secs: f64,
    snap: &hammer_obs::MetricsSnapshot,
) -> Row {
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let (hits, coalesced) = (count("serve.cache.hits"), count("serve.coalesced"));
    // Hit rate over cacheable requests: hits / (hits + misses + coalesced).
    let cacheable = hits + count("serve.cache.misses") + coalesced;
    let hit_rate = if cacheable > 0 {
        hits as f64 / cacheable as f64
    } else {
        0.0
    };
    vec![
        ("scenario", scenario.into()),
        ("clients", 1usize.into()),
        ("requests", sorted_us.len().into()),
        ("secs", Cell::Fixed(secs, 6)),
        ("req_per_sec", Cell::Fixed(sorted_us.len() as f64 / secs, 1)),
        ("p50_us", Cell::Fixed(percentile(sorted_us, 0.50), 1)),
        ("p99_us", Cell::Fixed(percentile(sorted_us, 0.99), 1)),
        ("cache_hit_rate", Cell::Fixed(hit_rate, 4)),
        ("coalesced", coalesced.into()),
        // The one client waits on each reply, so the queue never
        // answers Busy.
        ("busy_retries", 0usize.into()),
        // Cache misses served from the persistent store instead of
        // recomputed, and cache evictions spilled to it.
        ("store_loads", count("serve.store.loads").into()),
        ("store_spills", count("serve.store.spills").into()),
    ]
}

/// Measures what the persistent spill store buys across a restart:
/// populate a store-backed server with distinct heavyweight histograms
/// and shut it down gracefully (flushing the resident hot set), then
/// replay the same keys against (a) a server warm-started over the same
/// store directory and (b) a server over a fresh, empty one. Warm
/// restarts answer from the store (decode and reply); cold restarts pay
/// the full O(N²) reconstruction per key. Quick mode (the CI smoke)
/// replays fewer keys.
#[must_use]
pub fn run(quick: bool) -> Artifact {
    let workers = ServeConfig::default().workers;
    let keys: u64 = if quick { 6 } else { 24 };
    let mut artifact = Artifact::new(
        "BENCH_serve",
        "hammer_serve's persistent spill store across a restart: one client replays a \
         populated key set of 4096-outcome histograms against an in-process TCP server \
         warm-started over the same store directory, then against one over an empty store. \
         Every cell is measured wall clock (not extrapolated).",
    );
    artifact.field("workers", workers).field("quick", quick);

    let root =
        std::env::temp_dir().join(format!("hammer-bench-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let boot = |dir: std::path::PathBuf| {
        serve(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_limit: 4096,
            // A deliberately tiny cache: entries spill on eviction, so
            // the store — not the LRU — carries the set across restarts.
            cache_mb: 1,
            store_dir: Some(dir),
            store_mb: 256,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port")
    };

    let warm_dir = root.join("warm");
    let server = boot(warm_dir.clone());
    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");
    for salt in 0..keys {
        client
            .reconstruct(&large_counts(4096, salt), &HammerConfig::paper())
            .expect("populate request");
    }
    drop(client);
    server.shutdown();
    let _ = server.wait();

    for (scenario, dir) in [
        ("restart-warm", warm_dir),
        ("restart-cold", root.join("cold")),
    ] {
        let server = boot(dir);
        let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");
        let start = Instant::now();
        let mut latencies = Vec::with_capacity(keys as usize);
        for salt in 0..keys {
            let t = Instant::now();
            client
                .reconstruct(&large_counts(4096, salt), &HammerConfig::paper())
                .expect("restart request");
            latencies.push(t.elapsed().as_micros() as u64);
        }
        let secs = start.elapsed().as_secs_f64();
        drop(client);
        latencies.sort_unstable();
        artifact.row(restart_row(
            scenario,
            &latencies,
            secs,
            &server.obs_snapshot(),
        ));
        server.shutdown();
        let _ = server.wait();
    }
    let _ = std::fs::remove_dir_all(&root);
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sane_elements() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!((percentile(&sorted, 0.5) - 51.0).abs() < 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn hot_and_cold_counts_have_stable_distinct_fingerprints() {
        assert_eq!(
            large_counts(512, 0).fingerprint(),
            large_counts(512, 0).fingerprint()
        );
        assert_ne!(
            large_counts(512, 0).fingerprint(),
            large_counts(512, 9).fingerprint()
        );
    }

    #[test]
    fn quick_sweep_runs_end_to_end() {
        let artifact = run(true);
        assert_eq!(artifact.row_count(), 2);
        let num = |row, key| {
            artifact
                .cell(row, key)
                .and_then(Cell::as_f64)
                .expect("numeric cell")
        };
        for row in 0..2 {
            assert!(num(row, "requests") > 0.0);
            assert!(num(row, "secs") > 0.0);
        }
        assert_eq!(
            artifact.cell(0, "scenario"),
            Some(&Cell::Str("restart-warm"))
        );
        assert_eq!(
            num(0, "store_loads"),
            num(0, "requests"),
            "every warm-restart key must be served from the store"
        );
        assert_eq!(
            artifact.cell(1, "scenario"),
            Some(&Cell::Str("restart-cold"))
        );
        assert_eq!(num(1, "store_loads"), 0.0, "an empty store cannot serve");
        let json = artifact.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_serve\""));
        assert!(json.contains("\"store_loads\""));
        crate::report::assert_same_schema(&json, include_str!("../../../BENCH_serve.json"));
        assert!(artifact.render().contains("req_per_sec"));
    }
}
