//! The `repro bench-serve` measurement harness: an in-process
//! `hammer_serve` server driven by N concurrent client threads through
//! mixed hot/cold workloads, emitting the `BENCH_serve.json` artifact
//! (throughput, p50/p99 latency, cache hit rate — all measured wall
//! clock, never extrapolated).
//!
//! Three scenarios ladder the compute-per-request up:
//!
//! * `reconstruct-small` — the §4.5 halo histogram (11 unique
//!   outcomes): latency is dominated by the RPC itself, so this row
//!   measures protocol + runtime overhead;
//! * `reconstruct-large` — a synthetic 4096-unique 16-bit histogram:
//!   the `O(N²)` kernel dominates, so the cache hit/miss split shows;
//! * `sample-reconstruct` — a noisy 16-qubit GHZ sampled for 20K trials
//!   then reconstructed: the full pipeline behind one opcode.
//!
//! "Hot" requests repeat one fingerprint (cache hits after the first);
//! "cold" requests salt the payload so every one computes. The hot
//! fraction is 80%.
//!
//! Two further rows measure the persistent spill store across a
//! restart: `restart-warm` replays a populated key set against a
//! server warm-started over the same store directory (served by
//! decode, not recompute), while `restart-cold` replays it against an
//! empty store and pays the full reconstruction per key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hammer_core::HammerConfig;
use hammer_dist::{BitString, Counts};
use hammer_serve::{serve, DeviceSpec, SampleJob, ServeClient, ServeConfig, WireError};
use hammer_sim::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Artifact, Cell, Row};

/// Client threads driving the server.
const CLIENTS: usize = 4;
/// Fraction of requests that share the hot fingerprint (per mille to
/// keep the schedule integer-deterministic).
const HOT_PER_10: u64 = 8;

/// The §4.5 halo histogram, salted for cold requests.
fn halo_counts(salt: u64) -> Counts {
    let mut counts = Counts::new(5).expect("valid width");
    let bs = |s: &str| BitString::parse(s).expect("valid literal");
    counts.record_n(bs("11111"), 150);
    counts.record_n(bs("00100"), 250 + salt);
    for s in ["11110", "11101", "11011", "10111", "01111"] {
        counts.record_n(bs(s), 80);
    }
    for s in ["11100", "11010", "00111", "01011"] {
        counts.record_n(bs(s), 50);
    }
    counts
}

/// A synthetic 16-bit histogram with `unique` distinct outcomes,
/// deterministic in `salt`.
fn large_counts(unique: usize, salt: u64) -> Counts {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut counts = Counts::new(16).expect("valid width");
    for _ in 0..unique {
        let key = rng.gen::<u64>() & 0xFFFF;
        counts.record_n(BitString::new(key, 16), 1 + rng.gen::<u64>() % 100);
    }
    // The salt perturbs one deterministic outcome so cold requests get
    // fresh fingerprints without changing the support size.
    counts.record_n(BitString::new(salt & 0xFFFF, 16), 1 + salt);
    counts
}

fn ghz_job(n: usize, trials: u64, seed: u64) -> SampleJob {
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    SampleJob {
        circuit,
        device: DeviceSpec::IbmParis(n.min(27)),
        trials,
        seed,
        config: HammerConfig::paper(),
    }
}

/// What one client thread sends for request `i` of a scenario.
enum Work {
    Reconstruct(Counts),
    Sample(SampleJob),
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64
}

/// One artifact row: the client-side latencies (sorted, one per
/// completed request) and wall clock, plus the server-side counters of
/// `snap` (cache hit rate, coalesced, store loads/spills).
fn scenario_row(
    scenario: &'static str,
    clients: usize,
    sorted_us: &[u64],
    secs: f64,
    busy_retries: u64,
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
        ("clients", clients.into()),
        ("requests", sorted_us.len().into()),
        ("secs", Cell::Fixed(secs, 6)),
        ("req_per_sec", Cell::Fixed(sorted_us.len() as f64 / secs, 1)),
        ("p50_us", Cell::Fixed(percentile(sorted_us, 0.50), 1)),
        ("p99_us", Cell::Fixed(percentile(sorted_us, 0.99), 1)),
        ("cache_hit_rate", Cell::Fixed(hit_rate, 4)),
        ("coalesced", coalesced.into()),
        ("busy_retries", busy_retries.into()),
        // Cache misses served from the persistent store instead of
        // recomputed (zero when no store is attached), and cache
        // evictions spilled to it.
        ("store_loads", count("serve.store.loads").into()),
        ("store_spills", count("serve.store.spills").into()),
    ]
}

/// Runs one scenario against a fresh server and measures it.
fn run_scenario<F>(scenario: &'static str, workers: usize, per_client: u64, make_work: F) -> Row
where
    F: Fn(u64, u64) -> Work + Send + Sync + 'static,
{
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_limit: 4096,
        cache_mb: 128,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();

    let make_work = Arc::new(make_work);
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let busy = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..CLIENTS as u64)
        .map(|client_id| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let busy = Arc::clone(&busy);
            let make_work = Arc::clone(&make_work);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(per_client as usize);
                barrier.wait();
                for i in 0..per_client {
                    let work = make_work(client_id, i);
                    let start = Instant::now();
                    loop {
                        let result = match &work {
                            Work::Reconstruct(counts) => client
                                .reconstruct(counts, &HammerConfig::paper())
                                .map(|_| ()),
                            Work::Sample(job) => client.sample_and_reconstruct(job).map(|_| ()),
                        };
                        match result {
                            Ok(()) => break,
                            Err(WireError::Busy) => {
                                busy.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                            Err(e) => panic!("bench request failed: {e}"),
                        }
                    }
                    latencies.push(start.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    for t in threads {
        latencies.extend(t.join().expect("client thread"));
    }
    let secs = start.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let row = scenario_row(
        scenario,
        CLIENTS,
        &latencies,
        secs,
        busy.load(Ordering::Relaxed),
        &server.obs_snapshot(),
    );
    server.shutdown();
    let _ = server.wait();
    row
}

/// Measures what the persistent spill store buys across a restart:
/// populate a store-backed server with `keys` distinct heavyweight
/// histograms and shut it down gracefully (flushing the resident hot
/// set), then replay the same keys against (a) a server warm-started
/// over the same store directory and (b) a server over a fresh, empty
/// one. Warm restarts answer from the store (decode and reply); cold
/// restarts pay the full O(N²) reconstruction per key.
fn run_restart_rows(workers: usize, keys: u64) -> Vec<Row> {
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

    let mut rows = Vec::new();
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
        let row = scenario_row(scenario, 1, &latencies, secs, 0, &server.obs_snapshot());
        server.shutdown();
        let _ = server.wait();
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&root);
    rows
}

/// Runs the sweep. Quick mode shrinks the request budgets (CI smoke).
#[must_use]
pub fn run(quick: bool) -> Artifact {
    let workers = ServeConfig::default().workers;
    let (small_n, large_n, sample_n, restart_n) = if quick {
        (50, 8, 6, 6)
    } else {
        (2000, 150, 100, 24)
    };
    let mut artifact = Artifact::new(
        "BENCH_serve",
        format!(
            "hammer_serve under concurrent load: an in-process TCP server \
             (binary wire protocol, bounded worker-pool queue, request coalescing, sharded LRU \
             distribution cache) driven by {CLIENTS} client threads through mixed 80/20 hot/cold \
             workloads, plus warm-vs-cold restart replays over the persistent spill \
             store. Every cell is measured wall clock (not extrapolated)."
        ),
    );
    artifact.field("workers", workers).field("quick", quick);

    // Hot requests share salt 0; cold requests get a unique salt per
    // (client, index) pair, offset to never collide with the hot key.
    let salt = |client: u64, i: u64| {
        if i % 10 < HOT_PER_10 {
            0
        } else {
            1 + client * 1_000_000 + i
        }
    };
    artifact.row(run_scenario(
        "reconstruct-small",
        workers,
        small_n,
        move |c, i| Work::Reconstruct(halo_counts(salt(c, i))),
    ));
    artifact.row(run_scenario(
        "reconstruct-large",
        workers,
        large_n,
        move |c, i| Work::Reconstruct(large_counts(4096, salt(c, i))),
    ));
    artifact.row(run_scenario(
        "sample-reconstruct",
        workers,
        sample_n,
        move |c, i| Work::Sample(ghz_job(16, 20_000, salt(c, i))),
    ));
    for row in run_restart_rows(workers, restart_n) {
        artifact.row(row);
    }
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
        assert_eq!(halo_counts(0).fingerprint(), halo_counts(0).fingerprint());
        assert_ne!(halo_counts(0).fingerprint(), halo_counts(1).fingerprint());
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
        assert_eq!(artifact.row_count(), 5);
        let num = |row, key| {
            artifact
                .cell(row, key)
                .and_then(Cell::as_f64)
                .expect("numeric cell")
        };
        for row in 0..5 {
            assert!(num(row, "requests") > 0.0);
            assert!(num(row, "secs") > 0.0);
        }
        for row in 0..3 {
            assert!(
                num(row, "cache_hit_rate") > 0.0,
                "hot requests must hit: {:?}",
                artifact.cell(row, "scenario")
            );
        }
        assert_eq!(
            artifact.cell(3, "scenario"),
            Some(&Cell::Str("restart-warm"))
        );
        assert_eq!(
            num(3, "store_loads"),
            num(3, "requests"),
            "every warm-restart key must be served from the store"
        );
        assert_eq!(
            artifact.cell(4, "scenario"),
            Some(&Cell::Str("restart-cold"))
        );
        assert_eq!(num(4, "store_loads"), 0.0, "an empty store cannot serve");
        let json = artifact.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_serve\""));
        assert!(json.contains("\"store_loads\""));
        crate::report::assert_same_schema(&json, include_str!("../../../BENCH_serve.json"));
        assert!(artifact.render().contains("req_per_sec"));
    }
}
