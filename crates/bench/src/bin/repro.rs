//! Regenerates the paper's tables and figures.
//!
//! Usage (as `--help` prints it):
//!
//! ```text
//! repro <experiment-id>... | all [--quick] [--jobs N]
//! repro bench-kernel [--quick] [--out PATH]
//! repro bench-sim [--quick] [--out PATH]
//! repro bench-stab [--quick] [--out PATH]
//! repro bench-serve [--quick] [--out PATH]
//! repro bench-obs [--quick] [--out PATH]
//! repro serve [--addr A] [--workers N] [--cache-mb MB]
//!             [--store-dir D] [--store-mb MB] [--store-fault SPEC]
//!             [--metrics-addr A] [--rollup-ms N] [--slo SPEC]...
//! repro top [--addr A] [--once] [--interval-ms N] [--frames N]
//! repro serve-smoke [--addr A] [--shutdown]
//! repro chaos-smoke [--quick]
//! repro persist-smoke [--quick]
//! repro --list
//! ```
//!
//! Each `bench-*` subcommand prints a table and writes its JSON
//! artifact to `PATH`, by default `BENCH_<name>.json`.
//!
//! `serve` and `top` refuse any `--flag` outside their own list, so a
//! typo fails loudly instead of running with a default. `repro top` is
//! the live view of a running server's counters.
//!
//! `repro all` runs independent experiment instances concurrently:
//! `--jobs N` sets the worker count, by default 1. Reports are printed
//! in experiment order regardless of completion order.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hammer_bench::report::Artifact;
use hammer_bench::{experiments, kernel_bench, obs_bench, serve_bench, sim_bench, stab_bench};

/// A bench subcommand's measurement: `--quick` in, artifact out.
type BenchRun = fn(bool) -> Artifact;

/// The JSON-artifact bench subcommands, each `repro NAME [--quick]
/// [--out PATH]`.
const BENCHES: [(&str, BenchRun); 5] = [
    ("bench-kernel", kernel_bench::run),
    ("bench-sim", sim_bench::run),
    ("bench-stab", stab_bench::run),
    ("bench-serve", serve_bench::run),
    ("bench-obs", obs_bench::run),
];

/// Runs one bench subcommand, prints its table and writes its artifact
/// to `out_path`, by default `<artifact name>.json`.
fn run_bench_artifact(run: BenchRun, quick: bool, out_path: Option<&str>) -> ExitCode {
    let artifact = run(quick);
    println!("{}", artifact.render());
    let out_path = out_path.map_or_else(|| format!("{}.json", artifact.name()), String::from);
    if let Err(e) = std::fs::write(&out_path, artifact.to_json()) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[{} wrote {out_path}]", artifact.name());
    ExitCode::SUCCESS
}

/// A serving counter from a metric snapshot; series that were never
/// registered (the `serve.store.*` set without a store) read as 0.
fn count(snap: &hammer_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// The serving counters `repro serve` prints when it shuts down.
fn shutdown_line(snap: &hammer_obs::MetricsSnapshot) -> String {
    format!(
        "{} requests ({} hits, {} misses, {} coalesced, {} busy, {} spills, {} loads)",
        count(snap, "serve.requests"),
        count(snap, "serve.cache.hits"),
        count(snap, "serve.cache.misses"),
        count(snap, "serve.coalesced"),
        count(snap, "serve.busy_rejections"),
        count(snap, "serve.store.spills"),
        count(snap, "serve.store.loads"),
    )
}

/// `repro serve`'s usage line.
const SERVE_USAGE: &str = "repro serve [--addr A] [--workers N] [--cache-mb MB] \
[--store-dir D] [--store-mb MB] [--store-fault SPEC] \
[--metrics-addr A] [--rollup-ms N] [--slo SPEC]...";
/// The flags `repro serve` takes.
const SERVE_FLAGS: [&str; 9] = [
    "--addr",
    "--workers",
    "--cache-mb",
    "--store-dir",
    "--store-mb",
    "--store-fault",
    "--metrics-addr",
    "--rollup-ms",
    "--slo",
];
/// `repro top`'s usage line.
const TOP_USAGE: &str = "repro top [--addr A] [--once] [--interval-ms N] [--frames N]";
/// The flags `repro top` takes.
const TOP_FLAGS: [&str; 4] = ["--addr", "--once", "--interval-ms", "--frames"];

/// Rejects the first `--flag` in `args` that is not in `known`, with a
/// message that ends in the subcommand's usage line.
fn check_flags(args: &[String], known: &[&str], usage: &str) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        None => Ok(()),
        Some(flag) => Err(format!("unknown flag {flag}\nusage: {usage}")),
    }
}

/// `repro serve [--addr A] [--workers N] [--cache-mb MB]
/// [--store-dir D] [--store-mb MB] [--store-fault KIND:N]
/// [--metrics-addr A] [--rollup-ms N] [--slo SPEC]...`: run the
/// serving subsystem in the foreground until a client sends
/// `Shutdown`, then print the serving counters.
///
/// `--metrics-addr` binds the HTTP exposition listener (`/metrics`,
/// `/series`, `/events`, `/slo`, `/healthz`) on a second port;
/// `--rollup-ms` sets the rollup window the roller ticks at (default
/// 1000); `--slo` declares an objective
/// (`latency:NAME:SERIES:THRESH:PCT:WINDOW` or
/// `avail:NAME:BAD:TOTAL:PCT:WINDOW`) and may repeat.
///
/// `--store-fault` arms a crash-injection point for the persist-smoke
/// drill: `append:N` aborts mid-way through the Nth store append
/// (leaving a torn record), `fsync:N` aborts after the Nth record is
/// written but before its fsync commit point, and `recovery:N` aborts
/// during the Nth torn-tail truncation of startup recovery.
fn run_serve(args: &[String]) -> ExitCode {
    /// `--flag N` as a usize, with a readable failure.
    fn usize_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
        match flag_value(args, flag)? {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("{flag} requires a non-negative integer, got {v}")),
        }
    }
    if let Err(e) = check_flags(args, &SERVE_FLAGS, SERVE_USAGE) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let mut config = hammer_serve::ServeConfig::default();
    let parsed = usize_flag(args, "--workers")
        .map(|v| {
            if let Some(n) = v {
                config.workers = n;
            }
        })
        .and_then(|()| usize_flag(args, "--cache-mb"))
        .map(|v| {
            if let Some(n) = v {
                config.cache_mb = n;
            }
        })
        .and_then(|()| usize_flag(args, "--store-mb"))
        .map(|v| {
            if let Some(n) = v {
                config.store_mb = n;
            }
        })
        .and_then(|()| flag_value(args, "--store-dir"))
        .map(|v| {
            if let Some(dir) = v {
                config.store_dir = Some(std::path::PathBuf::from(dir));
            }
        })
        .and_then(|()| flag_value(args, "--metrics-addr"))
        .map(|v| {
            if let Some(addr) = v {
                config.metrics_addr = Some(addr.to_owned());
            }
        })
        .and_then(|()| usize_flag(args, "--rollup-ms"))
        .map(|v| {
            if let Some(ms) = v {
                config.rollup_window_ms = ms as u64;
            }
        })
        .and_then(|()| flag_value(args, "--addr").map(|v| v.map(String::from)));
    match parsed {
        Ok(Some(addr)) => config.addr = addr,
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    // `--slo SPEC` is repeatable: collect every occurrence.
    for (i, arg) in args.iter().enumerate() {
        if arg == "--slo" {
            let Some(spec) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
                eprintln!("--slo requires a value argument");
                return ExitCode::FAILURE;
            };
            match hammer_obs::SloSpec::parse(spec) {
                Ok(slo) => config.slos.push(slo),
                Err(e) => {
                    eprintln!("--slo {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    // Fault points must be armed before `serve` opens the store: the
    // recovery fault fires during that open.
    match flag_value(args, "--store-fault") {
        Ok(None) => {}
        Ok(Some(spec)) => {
            let parsed = spec
                .split_once(':')
                .and_then(|(kind, n)| n.parse::<u64>().ok().map(|n| (kind, n)));
            match parsed {
                Some(("append", n)) => hammer_serve::fault::arm_abort_on_nth_store_append(n),
                Some(("fsync", n)) => hammer_serve::fault::arm_abort_on_nth_store_fsync(n),
                Some(("recovery", n)) => {
                    hammer_serve::fault::arm_abort_on_nth_recovery_truncate(n);
                }
                _ => {
                    eprintln!("--store-fault requires append:N, fsync:N or recovery:N, got {spec}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match hammer_serve::serve(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[serve] listening on {} ({} workers, {} MiB cache{}); send Shutdown to stop",
        server.local_addr(),
        config.workers,
        config.cache_mb,
        config
            .store_dir
            .as_ref()
            .map(|d| format!(", store {} @ {} MiB", d.display(), config.store_mb))
            .unwrap_or_default(),
    );
    if let Some(addr) = server.metrics_addr() {
        eprintln!(
            "[serve] metrics exposition on http://{addr} (/metrics /series /events /slo /healthz)"
        );
    }
    let snap = server.wait();
    eprintln!("[serve] shut down after {}", shutdown_line(&snap));
    ExitCode::SUCCESS
}

/// `repro top [--addr A] [--once] [--interval-ms N] [--frames N]`:
/// live terminal dashboard over a running server's serving port
/// (`--addr`), polling `MetricsSnapshot` over the binary protocol and
/// keeping the rollup history on the client. `--once` prints a single
/// lifetime frame and exits.
fn run_top(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(args, &TOP_FLAGS, TOP_USAGE) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let mut config = hammer_bench::top::TopConfig {
        once: args.iter().any(|a| a == "--once"),
        ..hammer_bench::top::TopConfig::default()
    };
    let parsed = flag_value(args, "--addr")
        .map(|v| {
            if let Some(addr) = v {
                config.addr = addr.to_owned();
            }
        })
        .and_then(|()| flag_value(args, "--interval-ms"))
        .and_then(|v| match v {
            None => Ok(()),
            Some(v) => v
                .parse::<u64>()
                .map(|ms| config.interval_ms = ms)
                .map_err(|_| format!("--interval-ms requires an integer, got {v}")),
        })
        .and_then(|()| flag_value(args, "--frames"))
        .and_then(|v| match v {
            None => Ok(()),
            Some(v) => v
                .parse::<u64>()
                .map(|n| config.max_frames = Some(n))
                .map_err(|_| format!("--frames requires an integer, got {v}")),
        });
    if let Err(e) = parsed {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let mut stdout = std::io::stdout();
    match hammer_bench::top::run(&config, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("top: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro serve-smoke [--addr A] [--shutdown]`: one client round trip —
/// Ping, a small Reconstruct (checked against the direct library
/// call), a MetricsSnapshot that must have counted it, and optionally
/// Shutdown. The CI workflow runs this against a backgrounded
/// `repro serve`.
fn run_serve_smoke(args: &[String]) -> ExitCode {
    use hammer_dist::BitString;
    let addr = match flag_value(args, "--addr") {
        Ok(addr) => addr.unwrap_or("127.0.0.1:7878").to_string(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match hammer_serve::ServeClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("serve-smoke: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fail = |what: &str, e: hammer_serve::WireError| {
        eprintln!("serve-smoke: {what} failed: {e}");
        ExitCode::FAILURE
    };
    if let Err(e) = client.ping() {
        return fail("ping", e);
    }
    let mut counts = hammer_dist::Counts::new(5).expect("valid width");
    let bs = |s: &str| BitString::parse(s).expect("valid literal");
    counts.record_n(bs("11111"), 150);
    counts.record_n(bs("00100"), 250);
    for s in ["11110", "11101", "11011", "10111", "01111"] {
        counts.record_n(bs(s), 80);
    }
    let config = hammer_core::HammerConfig::paper();
    let served = match client.reconstruct(&counts, &config) {
        Ok(d) => d,
        Err(e) => return fail("reconstruct", e),
    };
    let direct = hammer_core::Hammer::with_config(config).reconstruct_counts(&counts);
    if served != direct {
        eprintln!("serve-smoke: served reconstruction differs from the direct library call");
        return ExitCode::FAILURE;
    }
    let snap = match client.metrics_snapshot() {
        Ok(snap) => snap,
        Err(e) => return fail("metrics snapshot", e),
    };
    let (requests, hits, misses) = (
        count(&snap, "serve.requests"),
        count(&snap, "serve.cache.hits"),
        count(&snap, "serve.cache.misses"),
    );
    if requests == 0 || hits + misses == 0 {
        eprintln!("serve-smoke: the snapshot did not count the reconstruct");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[serve-smoke] ok: ping + reconstruct round-tripped; server counters: {requests} \
         requests, {hits} hits, {misses} misses",
    );
    if args.iter().any(|a| a == "--shutdown") {
        if let Err(e) = client.shutdown() {
            return fail("shutdown", e);
        }
        eprintln!("[serve-smoke] shutdown acknowledged");
    }
    ExitCode::SUCCESS
}

/// `repro chaos-smoke [--quick]`: an in-process robustness drill. Boots
/// a server on an ephemeral port, drives reconstructions through a
/// [`hammer_serve::chaos::ChaosProxy`] under each fault class, checks
/// that every completed reply is byte-identical to the direct library
/// call, exercises the deadline path against an artificially slowed
/// compute, and verifies shutdown stays bounded. `--quick` runs one
/// pass over the fault matrix instead of three.
fn run_chaos_smoke(args: &[String]) -> ExitCode {
    use hammer_serve::chaos::{ChaosProxy, Fault};
    use hammer_serve::WireError;
    use std::time::{Duration, Instant};

    let quick = args.iter().any(|a| a == "--quick");
    let rounds = if quick { 1 } else { 3 };

    let server = match hammer_serve::serve(&hammer_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_mb: 16,
        io_timeout: Some(Duration::from_millis(400)),
        ..hammer_serve::ServeConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("chaos-smoke: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut counts = hammer_dist::Counts::new(6).expect("valid width");
    let bs = |s: &str| hammer_dist::BitString::parse(s).expect("valid literal");
    counts.record_n(bs("111111"), 400);
    counts.record_n(bs("001000"), 220);
    for s in ["111110", "111101", "111011", "110111", "101111", "011111"] {
        counts.record_n(bs(s), 70);
    }
    let config = hammer_core::HammerConfig::paper();
    let direct = hammer_core::Hammer::with_config(config).reconstruct_counts(&counts);

    // Fault matrix: completed replies must be byte-identical; failures
    // must be typed errors, promptly. Never a hang, never a wrong answer.
    let faults = [
        Fault::None,
        Fault::DelayMs(5),
        Fault::CorruptRequestByte(2),
        Fault::DropRequestAfter(8),
        Fault::TruncateReplyAfter(10),
        Fault::HalfCloseRequestAfter(6),
    ];
    let (mut completed, mut refused) = (0usize, 0usize);
    for round in 0..rounds {
        for fault in faults {
            let proxy = match ChaosProxy::spawn(server.local_addr(), vec![fault]) {
                Ok(proxy) => proxy,
                Err(e) => {
                    eprintln!("chaos-smoke: proxy spawn failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let started = Instant::now();
            let result = hammer_serve::ServeClient::connect(proxy.local_addr().to_string())
                .map(|c| {
                    c.with_io_timeout(Some(Duration::from_millis(700)))
                        .with_busy_retries(0, Duration::ZERO)
                })
                .ok()
                .map(|mut client| client.reconstruct(&counts, &config));
            match result {
                Some(Ok(got)) if got == direct => completed += 1,
                Some(Ok(_)) => {
                    eprintln!("chaos-smoke: CORRUPTED reply under {fault:?} (round {round})");
                    return ExitCode::FAILURE;
                }
                Some(Err(_)) | None => refused += 1,
            }
            if started.elapsed() > Duration::from_secs(5) {
                eprintln!(
                    "chaos-smoke: fault {fault:?} stalled for {:?}",
                    started.elapsed()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "[chaos-smoke] fault matrix: {completed} byte-identical completions, \
         {refused} typed refusals, 0 corruptions, 0 hangs"
    );

    // Deadline drill: a 120 ms budget against a compute slowed to 1.2 s
    // must come back DeadlineExceeded fast. Fresh counts — the fault
    // matrix already cached `counts`, and cache hits skip the compute.
    let mut fresh = counts.clone();
    fresh.record_n(bs("010101"), 33);
    hammer_serve::fault::set_slow_compute_ms(1200);
    let deadline_ok = (|| {
        let mut client = hammer_serve::ServeClient::connect(server.local_addr().to_string())
            .ok()?
            .with_deadline(Some(Duration::from_millis(120)));
        let started = Instant::now();
        let outcome = client.reconstruct(&fresh, &config);
        let elapsed = started.elapsed();
        matches!(outcome, Err(WireError::DeadlineExceeded))
            .then_some(elapsed < Duration::from_millis(800))?
            .then_some(())
    })();
    hammer_serve::fault::reset();
    if deadline_ok.is_none() {
        eprintln!("chaos-smoke: deadline drill failed (no prompt DeadlineExceeded)");
        return ExitCode::FAILURE;
    }
    eprintln!("[chaos-smoke] deadline drill: slow compute cut short with DeadlineExceeded");

    // Bounded shutdown: the drain must finish within a watchdog budget.
    server.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.wait());
    });
    match done_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(snap) => {
            eprintln!(
                "[chaos-smoke] ok: bounded shutdown after {} requests ({} busy rejections)",
                count(&snap, "serve.requests"),
                count(&snap, "serve.busy_rejections"),
            );
            ExitCode::SUCCESS
        }
        Err(_) => {
            eprintln!("chaos-smoke: shutdown exceeded the 10 s watchdog");
            ExitCode::FAILURE
        }
    }
}

/// `repro persist-smoke [--quick]`: the crash drill for the persistent
/// distribution store, run against real `repro serve` subprocesses over
/// a shared store directory:
///
/// 1. **kill -9**: populate a store-backed server past its cache
///    budget (every eviction spills, fsync'd), SIGKILL it, restart over
///    the same directory, and assert every reply is byte-identical to
///    the pre-crash reply, with the spilled majority served from the
///    store (not recomputed).
/// 2. **torn write**: a fault point aborts the process between a
///    record's header and body; the restart must truncate the torn
///    tail (visible as `serve.store.corrupt_dropped`), keep every
///    committed record, and serve byte-identical replies.
/// 3. **pre-fsync crash**: abort after a record's write but before its
///    fsync commit point; the restart must come up clean either way —
///    fsync is a durability floor, not a ceiling.
/// 4. **double crash**: abort *during recovery* (right after the
///    torn-tail truncation); a further restart must converge to a
///    healthy store.
///
/// `--quick` shrinks the kill -9 hot set.
fn run_persist_smoke(args: &[String]) -> ExitCode {
    /// Deterministic, sizable request content: 1750 distinct 16-bit
    /// outcomes reconstruct to a ~70 KB cache entry — larger than the
    /// 1 MiB cache's 64 KiB shard budget, so every same-shard collision
    /// evicts (and therefore spills) deterministically. The salt varies
    /// the counts, giving each key a distinct fingerprint and a
    /// distinct distribution.
    fn smoke_counts(salt: u64) -> hammer_dist::Counts {
        let mut counts = hammer_dist::Counts::new(16).expect("valid width");
        for i in 0..1750u64 {
            counts.record_n(
                hammer_dist::BitString::new(i, 16),
                1 + (salt + 1) * (i % 97 + 1),
            );
        }
        counts
    }

    /// Boots a `repro serve` child over `dir` (1 MiB cache, store
    /// attached, optional crash fault armed) and parses its bound
    /// address off stderr. `None` address = the child died before
    /// listening, the expected outcome for a recovery-fault child.
    fn spawn_store_server(
        dir: &std::path::Path,
        fault: Option<&str>,
    ) -> Result<(std::process::Child, Option<String>), String> {
        use std::io::BufRead;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache-mb",
            "1",
            "--store-mb",
            "64",
            "--store-dir",
        ])
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
        if let Some(spec) = fault {
            cmd.args(["--store-fault", spec]);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn serve child: {e}"))?;
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = std::io::BufReader::new(stderr);
        let mut addr = None;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        addr = rest.split_whitespace().next().map(str::to_string);
                        break;
                    }
                }
            }
        }
        // Keep draining in the background so the child can never block
        // on a full stderr pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok((child, addr))
    }

    /// Issues one Reconstruct per salt and returns the canonical wire
    /// encoding of each reply — the byte-identity currency of the
    /// drill. `None` entries mark requests after the child died (the
    /// expected end of a crash-fault phase).
    fn drive(addr: &str, salts: &[u64]) -> Vec<Option<Vec<u8>>> {
        let config = hammer_core::HammerConfig::paper();
        let Ok(mut client) = hammer_serve::ServeClient::connect(addr) else {
            return salts.iter().map(|_| None).collect();
        };
        let mut out = Vec::new();
        for &salt in salts {
            if out.last().is_some_and(Option::is_none) {
                out.push(None); // child already dead; stop hammering
                continue;
            }
            match client.reconstruct(&smoke_counts(salt), &config) {
                Ok(d) => {
                    let mut bytes = Vec::new();
                    hammer_serve::codec::put_distribution(&mut bytes, &d);
                    out.push(Some(bytes));
                }
                Err(_) => out.push(None),
            }
        }
        out
    }

    /// Waits (bounded) for a child to exit.
    fn wait_exit(child: &mut std::process::Child, what: &str) -> Result<(), String> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Ok(None) => {
                    let _ = child.kill();
                    return Err(format!("{what}: child did not exit within 30 s"));
                }
                Err(e) => return Err(format!("{what}: {e}")),
            }
        }
    }

    /// Asks a running child for a `MetricsSnapshot`, then shuts it
    /// down gracefully.
    fn snapshot_and_shutdown(
        addr: &str,
        child: &mut std::process::Child,
        what: &str,
    ) -> Result<hammer_obs::MetricsSnapshot, String> {
        let mut client = hammer_serve::ServeClient::connect(addr)
            .map_err(|e| format!("{what}: snapshot connect: {e}"))?;
        let snap = client
            .metrics_snapshot()
            .map_err(|e| format!("{what}: snapshot: {e}"))?;
        client
            .shutdown()
            .map_err(|e| format!("{what}: shutdown: {e}"))?;
        wait_exit(child, what)?;
        Ok(snap)
    }

    let quick = args.iter().any(|a| a == "--quick");
    let hot_set: u64 = if quick { 24 } else { 40 };
    let root = std::env::temp_dir().join(format!("hammer-persist-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let outcome = (|| -> Result<(), String> {
        // ---- Drill 1: kill -9, restart, byte-identical warm serve ----
        let dir = root.join("kill9");
        let salts: Vec<u64> = (0..hot_set).collect();
        let (mut child, addr) = spawn_store_server(&dir, None)?;
        let addr = addr.ok_or("kill -9 drill: server did not come up")?;
        let before = drive(&addr, &salts);
        if before.iter().any(Option::is_none) {
            return Err("kill -9 drill: a populate request failed".into());
        }
        child.kill().map_err(|e| format!("kill: {e}"))?;
        let _ = child.wait();

        let (mut child, addr) = spawn_store_server(&dir, None)?;
        let addr = addr.ok_or("kill -9 drill: restart did not come up")?;
        let after = drive(&addr, &salts);
        for (salt, (a, b)) in salts.iter().zip(before.iter().zip(&after)) {
            if b.is_none() || a != b {
                return Err(format!(
                    "kill -9 drill: reply for salt {salt} not byte-identical after restart"
                ));
            }
        }
        let snap = snapshot_and_shutdown(&addr, &mut child, "kill -9 drill")?;
        let recovered = count(&snap, "serve.store.recovered");
        let loads = count(&snap, "serve.store.loads");
        let misses = count(&snap, "serve.cache.misses");
        // At most one entry per 16 shards was resident (and lost) at
        // the kill; everything else had been spilled and fsync'd.
        let floor = hot_set - 16;
        if recovered < floor {
            return Err(format!(
                "kill -9 drill: recovered {recovered} records, expected >= {floor}"
            ));
        }
        if loads < floor {
            return Err(format!(
                "kill -9 drill: only {loads} store loads, expected >= {floor}"
            ));
        }
        if misses > 16 {
            return Err(format!(
                "kill -9 drill: {misses} recomputes after restart, expected <= 16"
            ));
        }
        eprintln!(
            "[persist-smoke] kill -9: {hot_set} replies byte-identical after restart \
             ({recovered} recovered, {loads} store loads, {misses} recomputes)"
        );

        // ---- Drills 2 + 3: abort mid-append / before fsync ----
        for (spec, expect_torn) in [("append:2", true), ("fsync:2", false)] {
            let dir = root.join(spec.replace(':', "-"));
            let salts: Vec<u64> = (100..148).collect();
            let (mut child, addr) = spawn_store_server(&dir, Some(spec))?;
            let addr = addr.ok_or(format!("{spec} drill: server did not come up"))?;
            let before = drive(&addr, &salts);
            if before.iter().all(Option::is_some) {
                return Err(format!("{spec} drill: fault never fired in 48 requests"));
            }
            wait_exit(&mut child, spec)?;

            let (mut child, addr) = spawn_store_server(&dir, None)?;
            let addr = addr.ok_or(format!("{spec} drill: restart did not come up"))?;
            let survivors: Vec<u64> = salts
                .iter()
                .zip(&before)
                .filter(|(_, r)| r.is_some())
                .map(|(&s, _)| s)
                .collect();
            let after = drive(&addr, &survivors);
            let matched = survivors
                .iter()
                .zip(&after)
                .all(|(&s, b)| b.as_deref() == before[(s - 100) as usize].as_deref());
            if !matched {
                return Err(format!("{spec} drill: a reply changed across the crash"));
            }
            let snap = snapshot_and_shutdown(&addr, &mut child, spec)?;
            let recovered = count(&snap, "serve.store.recovered");
            let corrupt_dropped = count(&snap, "serve.store.corrupt_dropped");
            if expect_torn && corrupt_dropped == 0 {
                return Err(format!(
                    "{spec} drill: expected a torn tail in serve.store.corrupt_dropped"
                ));
            }
            eprintln!(
                "[persist-smoke] {spec}: {} pre-crash replies stable across restart \
                 ({recovered} recovered, {corrupt_dropped} corrupt dropped)",
                survivors.len(),
            );
        }

        // ---- Drill 4: crash during recovery, then converge ----
        let dir = root.join("double-crash");
        let salts: Vec<u64> = (200..248).collect();
        let (mut child, addr) = spawn_store_server(&dir, Some("append:2"))?;
        let addr = addr.ok_or("double-crash drill: server did not come up")?;
        let before = drive(&addr, &salts);
        if before.iter().all(Option::is_some) {
            return Err("double-crash drill: fault never fired in 48 requests".into());
        }
        wait_exit(&mut child, "double-crash drill (first crash)")?;
        // Second crash: abort during recovery's torn-tail truncation.
        let (mut child, addr) = spawn_store_server(&dir, Some("recovery:1"))?;
        if addr.is_some() {
            let _ = child.kill();
            return Err("double-crash drill: recovery fault never fired".into());
        }
        wait_exit(&mut child, "double-crash drill (crash during recovery)")?;
        // Third start: must converge to a healthy store.
        let (mut child, addr) = spawn_store_server(&dir, None)?;
        let addr = addr.ok_or("double-crash drill: store did not converge")?;
        let survivors: Vec<u64> = salts
            .iter()
            .zip(&before)
            .filter(|(_, r)| r.is_some())
            .map(|(&s, _)| s)
            .collect();
        let after = drive(&addr, &survivors);
        let matched = survivors
            .iter()
            .zip(&after)
            .all(|(&s, b)| b.as_deref() == before[(s - 200) as usize].as_deref());
        if !matched {
            return Err("double-crash drill: a reply changed across the crashes".into());
        }
        let snap = snapshot_and_shutdown(&addr, &mut child, "double-crash drill")?;
        let recovered = count(&snap, "serve.store.recovered");
        eprintln!(
            "[persist-smoke] double crash: converged after crash-during-recovery \
             ({recovered} recovered, {} replies stable)",
            survivors.len()
        );
        Ok(())
    })();

    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(()) => {
            eprintln!("[persist-smoke] ok: committed records survive kill -9, torn tails drop, recovery converges");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("persist-smoke: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the value following a `--flag` argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.as_str())),
            _ => Err(format!("{flag} requires a value argument")),
        },
    }
}

/// Runs `ids` across `jobs` workers (work-stealing over an atomic
/// cursor), printing each report in id order as soon as it and all its
/// predecessors are done.
fn run_experiments(ids: &[&str], quick: bool, jobs: usize) -> bool {
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Option<String>>>> =
        ids.iter().map(|_| Mutex::new(None)).collect();
    let jobs = jobs.clamp(1, ids.len().max(1));
    let any_failed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&id) = ids.get(i) else { break };
                let start = std::time::Instant::now();
                // Catch per-experiment panics: an unfilled result slot
                // would leave the ordered printer below waiting
                // forever, hanging the whole run instead of failing it.
                let report = match std::panic::catch_unwind(|| experiments::run(id, quick)) {
                    Ok(Some(text)) => {
                        eprintln!("[{id} finished in {:.1}s]", start.elapsed().as_secs_f64());
                        Some(text)
                    }
                    Ok(None) => {
                        eprintln!("unknown experiment id: {id} (try --list)");
                        any_failed.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    Err(_) => {
                        eprintln!("[{id} panicked]");
                        any_failed.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                };
                *results[i].lock().expect("no poisoned result slot") = Some(report);
            });
        }
        // The main thread is the ordered printer: emit report i as soon
        // as every report before it has been emitted.
        for slot in &results {
            loop {
                if let Some(report) = slot.lock().expect("no poisoned result slot").take() {
                    if let Some(text) = report {
                        println!("{text}");
                    }
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    });
    any_failed.load(Ordering::Relaxed) > 0
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro <experiment-id>... | all [--quick] [--jobs N]");
        for (name, _) in BENCHES {
            eprintln!("       repro {name} [--quick] [--out PATH]");
        }
        eprintln!("       {SERVE_USAGE}");
        eprintln!("       {TOP_USAGE}");
        eprintln!("       repro serve-smoke [--addr A] [--shutdown]");
        eprintln!("       repro chaos-smoke [--quick]");
        eprintln!("       repro persist-smoke [--quick]");
        eprintln!("       repro --list");
        return ExitCode::FAILURE;
    }
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("top") {
        return run_top(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve-smoke") {
        return run_serve_smoke(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos-smoke") {
        return run_chaos_smoke(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("persist-smoke") {
        return run_persist_smoke(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        for id in experiments::ALL_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(&(bench, run)) = BENCHES
        .iter()
        .find(|(name, _)| args.iter().any(|a| a == name))
    {
        let out_value = match flag_value(&args, "--out") {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        // Refuse to silently drop experiment ids passed alongside the
        // subcommand (the out path itself is not an id).
        let stray: Vec<&str> = args
            .iter()
            .filter(|a| {
                !a.starts_with("--") && a.as_str() != bench && Some(a.as_str()) != out_value
            })
            .map(String::as_str)
            .collect();
        if !stray.is_empty() {
            eprintln!(
                "{bench} cannot be combined with experiment ids (got: {})",
                stray.join(", ")
            );
            return ExitCode::FAILURE;
        }
        return run_bench_artifact(run, quick, out_value);
    }
    let jobs = match flag_value(&args, "--jobs") {
        // Each experiment's engines already split their trial budget
        // across every core, so experiments run one at a time.
        Ok(None) => 1,
        Ok(Some(v)) => match v.parse::<usize>() {
            Ok(j) if j >= 1 => j,
            _ => {
                eprintln!("--jobs requires a positive integer, got {v}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs_value = flag_value(&args, "--jobs").expect("validated above");
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::ALL_IDS.to_vec()
    } else {
        args.iter()
            .filter(|a| !a.starts_with("--") && Some(a.as_str()) != jobs_value)
            .map(String::as_str)
            .collect()
    };
    if run_experiments(&ids, quick, jobs) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|&x| x.to_owned()).collect()
    }

    #[test]
    fn known_flags_and_their_values_pass() {
        let serve = args(&[
            "--addr",
            "127.0.0.1:0",
            "--store-fault",
            "append:3",
            "--slo",
            "latency:p99:serve.request_ns:50ms:99%:60s",
            "--slo",
            "avail:a:serve.replies.failed:serve.replies.total:99%:60s",
        ]);
        assert_eq!(check_flags(&serve, &SERVE_FLAGS, SERVE_USAGE), Ok(()));
        let top = args(&["--once", "--addr", "127.0.0.1:7878", "--frames", "2"]);
        assert_eq!(check_flags(&top, &TOP_FLAGS, TOP_USAGE), Ok(()));
        assert_eq!(check_flags(&[], &TOP_FLAGS, TOP_USAGE), Ok(()));
    }

    #[test]
    fn unknown_flags_are_refused_with_the_usage_line() {
        for (bad, known, usage) in [
            ("--worker", &SERVE_FLAGS[..], SERVE_USAGE),
            ("--once", &SERVE_FLAGS[..], SERVE_USAGE),
            ("--interval", &TOP_FLAGS[..], TOP_USAGE),
            ("--workers", &TOP_FLAGS[..], TOP_USAGE),
        ] {
            let err = check_flags(&args(&["--addr", "x", bad, "4"]), known, usage)
                .expect_err("an unknown flag is refused");
            assert_eq!(err, format!("unknown flag {bad}\nusage: {usage}"));
        }
    }
}
