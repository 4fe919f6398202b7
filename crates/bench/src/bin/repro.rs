//! Regenerates the paper's tables and figures.
//!
//! Usage (as `--help` prints it from the command table):
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
//!             [--metrics-addr A] [--rollup-ms N] [--slo SPEC]
//! repro top [--addr A] [--once] [--interval-ms N] [--frames N]
//! repro serve-smoke [--addr A] [--shutdown]
//! repro persist-smoke [--quick]
//! repro --list
//! ```
//!
//! Every subcommand refuses a `--flag` outside its own list, and every
//! one but the experiment ids refuses an operand, with exit 1 and its
//! usage line: a typo fails loudly instead of running with a default.
//!
//! Each `bench-*` subcommand prints a table and writes its JSON
//! artifact to `PATH`, by default `BENCH_<name>.json`. `repro top` is
//! the live view of a running server's counters.
//!
//! `repro all` runs independent experiment instances concurrently:
//! `--jobs N` sets the worker count, by default 1. Reports are printed
//! in experiment order regardless of completion order.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hammer_bench::report::Artifact;
use hammer_bench::{experiments, kernel_bench, obs_bench, serve_bench, sim_bench, stab_bench};

/// One `repro` subcommand.
struct Command {
    /// The first argument, which selects the command. The experiment
    /// ids have no name of their own: they take every argument list
    /// whose first word names no other command.
    name: &'static str,
    /// The flags it takes, each `--flag` or `--flag VALUE`, in usage
    /// order.
    flags: &'static [&'static str],
    /// Whether it takes operands (only the experiment ids do).
    operands: bool,
    /// Runs the command on its checked arguments.
    run: fn(&Args) -> ExitCode,
}

/// The flags every `bench-*` subcommand takes.
const BENCH_FLAGS: &[&str] = &["--quick", "--out PATH"];

/// Every `repro` subcommand; the first entry is the experiment ids.
const COMMANDS: [Command; 11] = [
    Command {
        name: "<experiment-id>... | all",
        flags: &["--quick", "--jobs N"],
        operands: true,
        run: run_ids,
    },
    command("bench-kernel", BENCH_FLAGS, |a| {
        run_bench(kernel_bench::run, a)
    }),
    command("bench-sim", BENCH_FLAGS, |a| run_bench(sim_bench::run, a)),
    command("bench-stab", BENCH_FLAGS, |a| run_bench(stab_bench::run, a)),
    command("bench-serve", BENCH_FLAGS, |a| {
        run_bench(serve_bench::run, a)
    }),
    command("bench-obs", BENCH_FLAGS, |a| run_bench(obs_bench::run, a)),
    command(
        "serve",
        &[
            "--addr A",
            "--workers N",
            "--cache-mb MB",
            "--store-dir D",
            "--store-mb MB",
            "--store-fault SPEC",
            "--metrics-addr A",
            "--rollup-ms N",
            "--slo SPEC",
        ],
        run_serve,
    ),
    command(
        "top",
        &["--addr A", "--once", "--interval-ms N", "--frames N"],
        run_top,
    ),
    command("serve-smoke", &["--addr A", "--shutdown"], run_serve_smoke),
    command("persist-smoke", &["--quick"], run_persist_smoke),
    command("--list", &[], run_list),
];

/// A command that takes no operands.
const fn command(
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> ExitCode,
) -> Command {
    Command {
        name,
        flags,
        operands: false,
        run,
    }
}

impl Command {
    /// `repro NAME [FLAG]...`, as `--help` and every refusal print it.
    fn usage(&self) -> String {
        let flags: String = self.flags.iter().map(|f| format!(" [{f}]")).collect();
        format!("repro {}{flags}", self.name)
    }

    /// Checks `args` (the words after the name) against the command's
    /// flags: an unknown flag, a flag missing its value, or an operand
    /// the command does not take is an error ending in the usage line.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Args<'a>, String> {
        let refuse = |what: String| Err(format!("{what}\nusage: {}", self.usage()));
        let mut parsed = Args::default();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if !self.operands {
                    return refuse(format!("unexpected argument {word}"));
                }
                parsed.operands.push(word);
                continue;
            }
            let Some(spec) = self
                .flags
                .iter()
                .find(|f| f.split(' ').next() == Some(word))
            else {
                return refuse(format!("unknown flag {word}"));
            };
            let value = if spec.contains(' ') {
                match words.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return refuse(format!("{word} requires a value argument")),
                }
            } else {
                None
            };
            parsed.flags.push((word, value));
        }
        Ok(parsed)
    }
}

/// A command's arguments once [`Command::parse`] has checked them.
#[derive(Debug, Default)]
struct Args<'a> {
    /// Each flag given, in order, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// The words that are not flags or flag values.
    operands: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == flag)
    }

    /// Every value given to `flag`, in order (`--slo` repeats).
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |&&(f, _)| f == flag)
            .filter_map(|&(_, v)| v)
    }

    /// The first value given to `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// The first value given to `flag`, parsed, with a readable failure
    /// naming `what` the flag requires.
    fn parsed<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} requires {what}, got {v}"))
            })
            .transpose()
    }
}

/// The `what` of every count-valued flag.
const COUNT: &str = "a non-negative integer";

/// Runs one bench measurement, prints its table and writes its artifact
/// to `--out`, by default `<artifact name>.json`.
fn run_bench(run: fn(bool) -> Artifact, args: &Args) -> ExitCode {
    let artifact = run(args.has("--quick"));
    println!("{}", artifact.render());
    let out_path = args
        .value("--out")
        .map_or_else(|| format!("{}.json", artifact.name()), String::from);
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

/// The [`hammer_serve::ServeConfig`] `repro serve`'s flags describe.
fn serve_config(args: &Args) -> Result<hammer_serve::ServeConfig, String> {
    let mut config = hammer_serve::ServeConfig::default();
    if let Some(addr) = args.value("--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(n) = args.parsed("--workers", COUNT)? {
        config.workers = n;
    }
    if let Some(n) = args.parsed("--cache-mb", COUNT)? {
        config.cache_mb = n;
    }
    if let Some(n) = args.parsed("--store-mb", COUNT)? {
        config.store_mb = n;
    }
    if let Some(ms) = args.parsed("--rollup-ms", COUNT)? {
        config.rollup_window_ms = ms;
    }
    config.store_dir = args.value("--store-dir").map(std::path::PathBuf::from);
    config.metrics_addr = args.value("--metrics-addr").map(String::from);
    for spec in args.values("--slo") {
        let slo = hammer_obs::SloSpec::parse(spec).map_err(|e| format!("--slo {spec}: {e}"))?;
        config.slos.push(slo);
    }
    Ok(config)
}

/// Arms the crash-injection point a `--store-fault KIND:N` spec names.
fn arm_store_fault(spec: &str) -> Result<(), String> {
    let parsed = spec
        .split_once(':')
        .and_then(|(kind, n)| n.parse::<u64>().ok().map(|n| (kind, n)));
    match parsed {
        Some(("append", n)) => hammer_serve::fault::arm_abort_on_nth_store_append(n),
        Some(("fsync", n)) => hammer_serve::fault::arm_abort_on_nth_store_fsync(n),
        Some(("recovery", n)) => hammer_serve::fault::arm_abort_on_nth_recovery_truncate(n),
        _ => {
            return Err(format!(
                "--store-fault requires append:N, fsync:N or recovery:N, got {spec}"
            ))
        }
    }
    Ok(())
}

/// `repro serve`: run the serving subsystem in the foreground until a
/// client sends `Shutdown`, then print the serving counters.
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
fn run_serve(args: &Args) -> ExitCode {
    // Fault points must be armed before `serve` opens the store: the
    // recovery fault fires during that open.
    let armed = args.value("--store-fault").map_or(Ok(()), arm_store_fault);
    let config = match armed.and_then(|()| serve_config(args)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match hammer_serve::serve(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[serve] listening on {} ({} compute slots, {} MiB cache{}); send Shutdown to stop",
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

/// `repro top`: live terminal dashboard over a running server's serving
/// port (`--addr`), polling `MetricsSnapshot` over the binary protocol
/// and keeping the rollup history on the client. `--once` prints a
/// single lifetime frame and exits.
fn run_top(args: &Args) -> ExitCode {
    let top = || -> Result<(), String> {
        let mut config = hammer_bench::top::TopConfig {
            once: args.has("--once"),
            ..hammer_bench::top::TopConfig::default()
        };
        if let Some(addr) = args.value("--addr") {
            config.addr = addr.to_owned();
        }
        if let Some(ms) = args.parsed("--interval-ms", COUNT)? {
            config.interval_ms = ms;
        }
        config.max_frames = args.parsed("--frames", COUNT)?;
        hammer_bench::top::run(&config, &mut std::io::stdout()).map_err(|e| format!("top: {e}"))
    };
    match top() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro serve-smoke`: one client round trip — Ping, a small
/// Reconstruct (checked against the direct library call), a
/// MetricsSnapshot that must have counted it, and with `--shutdown`
/// Shutdown. The CI workflow runs this against a backgrounded
/// `repro serve`.
fn run_serve_smoke(args: &Args) -> ExitCode {
    use hammer_dist::BitString;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let mut client = match hammer_serve::ServeClient::connect(addr) {
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
    if args.has("--shutdown") {
        if let Err(e) = client.shutdown() {
            return fail("shutdown", e);
        }
        eprintln!("[serve-smoke] shutdown acknowledged");
    }
    ExitCode::SUCCESS
}

/// `repro persist-smoke`: the crash drill for the persistent
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
fn run_persist_smoke(args: &Args) -> ExitCode {
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

    let quick = args.has("--quick");
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

/// `repro <experiment-id>... | all`: runs the named experiments (every
/// one for `all`) and prints their reports in order.
fn run_ids(args: &Args) -> ExitCode {
    // Each experiment's engines already split their trial budget
    // across every core, so experiments run one at a time by default.
    let jobs = match args.parsed::<NonZeroUsize>("--jobs", "a positive integer") {
        Ok(jobs) => jobs.map_or(1, NonZeroUsize::get),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let ids: Vec<&str> = if args.operands.contains(&"all") {
        experiments::ALL_IDS.to_vec()
    } else {
        args.operands.clone()
    };
    if ids.is_empty() {
        eprintln!("no experiment id given\nusage: {}", COMMANDS[0].usage());
        return ExitCode::FAILURE;
    }
    if run_experiments(&ids, args.has("--quick"), jobs) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro --list`: prints every experiment id.
fn run_list(_: &Args) -> ExitCode {
    for id in experiments::ALL_IDS {
        println!("{id}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        for (i, command) in COMMANDS.iter().enumerate() {
            let lead = if i == 0 { "usage:" } else { "      " };
            eprintln!("{lead} {}", command.usage());
        }
        return ExitCode::FAILURE;
    }
    let (command, rest) = match COMMANDS.iter().find(|c| c.name == args[0]) {
        Some(command) => (command, &args[1..]),
        None => (&COMMANDS[0], &args[..]),
    };
    match command.parse(rest) {
        Ok(parsed) => (command.run)(&parsed),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|&x| x.to_owned()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("a table entry")
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
        let parsed = command("serve").parse(&serve).expect("serve flags pass");
        assert_eq!(parsed.value("--addr"), Some("127.0.0.1:0"));
        assert_eq!(parsed.values("--slo").count(), 2);
        let config = serve_config(&parsed).expect("a valid config");
        assert_eq!(config.slos.len(), 2);
        let top = args(&["--once", "--addr", "127.0.0.1:7878", "--frames", "2"]);
        let parsed = command("top").parse(&top).expect("top flags pass");
        assert!(parsed.has("--once"));
        assert_eq!(parsed.parsed::<u64>("--frames", COUNT), Ok(Some(2)));
        assert!(command("top").parse(&[]).is_ok());
        let ids = args(&["fig3a", "--jobs", "2", "fig6", "--quick"]);
        let parsed = COMMANDS[0].parse(&ids).expect("experiment flags pass");
        assert_eq!(parsed.operands, ["fig3a", "fig6"]);
        assert_eq!(
            parsed.parsed::<NonZeroUsize>("--jobs", "a positive integer"),
            Ok(NonZeroUsize::new(2))
        );
    }

    #[test]
    fn unknown_flags_are_refused_with_the_usage_line() {
        for command in &COMMANDS {
            let usage = command.usage();
            let err = command
                .parse(&args(&["--quik"]))
                .expect_err("an unknown flag is refused");
            assert_eq!(err, format!("unknown flag --quik\nusage: {usage}"));
            if let Some(flag) = command.flags.iter().find(|f| f.contains(' ')) {
                let flag = flag.split(' ').next().expect("a flag name");
                let err = command
                    .parse(&args(&[flag]))
                    .expect_err("a missing value is refused");
                assert_eq!(
                    err,
                    format!("{flag} requires a value argument\nusage: {usage}")
                );
            }
            if !command.operands {
                let err = command
                    .parse(&args(&["fig3a"]))
                    .expect_err("a stray operand is refused");
                assert_eq!(err, format!("unexpected argument fig3a\nusage: {usage}"));
            }
        }
    }

    #[test]
    fn the_module_doc_lists_every_usage_line() {
        let source = include_str!("repro.rs");
        let block: Vec<&str> = source
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .flat_map(|l| l.trim_start_matches("//!").split_whitespace())
            .collect();
        let block = block.join(" ");
        for command in &COMMANDS {
            let usage = command.usage();
            assert!(block.contains(&usage), "the module doc lacks `{usage}`");
        }
    }
}
