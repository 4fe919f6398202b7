//! The `serve-mixed` workload: a live in-process server, two closed-loop
//! client connections, and a mix of hot cached reconstructions, cold
//! salted reconstructions around the kernel's parallel threshold, and
//! cold simulate-then-reconstruct jobs.

use std::time::{Duration, Instant};

use hammer_circuits::{ghz, ghz_correct_outcomes, BernsteinVazirani};
use hammer_core::{kernel, Hammer, HammerConfig};
use hammer_dist::{BitString, Counts, Distribution};
use hammer_obs::{MetricsSnapshot, Registry};
use hammer_serve::{
    serve, DeviceSpec, Reply, Request, SampleJob, ServeClient, ServeConfig, TraceDumpEntry,
};
use hammer_sim::{AutoEngine, Circuit};
use rand::SeedableRng;

use crate::gen::{halo, HaloSpec, Planted, SplitMix, BACKGROUND};
use crate::report::Run;
use crate::stats::{counter_delta, fidelity_gains, hist_delta, median, percentile, rpc_succeeded};
use crate::trace::Tracer;

/// Closed-loop client connections, one thread each.
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct hot inputs; after warm-up every hot request is a cache hit.
const HOT_SET: usize = 16;
/// Cold bases; each cold request salts one with a unique extra trial.
const COLD_BASES: usize = 8;
const GHZ_QUBITS: usize = 16;
const GHZ_TRIALS: u64 = 1000;
const BV_KEY_BITS: usize = 64;
const BV_TRIALS: u64 = 2000;
/// A cache small enough that cold inserts evict within one run (the
/// 64 MiB default would hold every cold result of a run).
const CACHE_MB: usize = 8;
/// Sample jobs per class and connection whose replies are checked byte
/// for byte against direct library calls, besides the first request
/// for every hot input and cold base.
const CHECKED_SAMPLE_JOBS: usize = 2;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hot,
    Cold,
    Ghz,
    Bv,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hot, Class::Cold, Class::Ghz, Class::Bv];

    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Ghz => "ghz16-dense",
            Class::Bv => "bv65-stabilizer",
        }
    }
}

/// Everything the clients send, generated from the seed.
pub struct Inputs {
    hot: Vec<Planted>,
    cold: Vec<Planted>,
    ghz: Circuit,
    bv: BernsteinVazirani,
    seed: u64,
}

impl Inputs {
    /// Hot set: 11–512 outcomes over 16–32 bits. Cold bases: 1K–4K
    /// outcomes over 32 bits, straddling the kernel's 2048-outcome
    /// parallel threshold. Sizes and widths step evenly through their
    /// ranges; the seed changes only the content.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let root = SplitMix::new(seed);
        let hot = (0..HOT_SET)
            .map(|i| {
                let mut rng = root.fork(i as u64);
                let step = i as f64 / (HOT_SET - 1) as f64;
                let spec = HaloSpec {
                    n_bits: 16 + (16.0 * step).round() as usize,
                    n_unique: (11.0 * (512.0f64 / 11.0).powf(step)).round() as usize,
                    answers: 1,
                    background: BACKGROUND,
                    spurious: i % 2 == 0,
                };
                halo(&mut rng, &spec)
            })
            .collect();
        let cold = (0..COLD_BASES)
            .map(|i| {
                let mut rng = root.fork(100 + i as u64);
                let spec = HaloSpec {
                    n_bits: 32,
                    n_unique: 1024 + i * 3072 / (COLD_BASES - 1),
                    answers: 1,
                    background: BACKGROUND,
                    spurious: i % 2 == 0,
                };
                halo(&mut rng, &spec)
            })
            .collect();
        // A T on the last qubit after the CX chain changes no outcome
        // probability but makes the circuit non-Clifford, so it runs on
        // the dense trajectory engine.
        let mut ghz16 = ghz(GHZ_QUBITS);
        ghz16.t(GHZ_QUBITS - 1);
        let key = root.fork(200).key(BV_KEY_BITS) | 1;
        Self {
            hot,
            cold,
            ghz: ghz16,
            bv: BernsteinVazirani::new(BitString::from_u128(key, BV_KEY_BITS)),
            seed,
        }
    }

    /// Request `index` of class `class` on connection `client`, with the
    /// correct outcomes of its input and the index of the hot input or
    /// cold base it was built from.
    fn request(
        &self,
        class: Class,
        rng: &mut SplitMix,
        client: usize,
        index: u64,
    ) -> (Request, Vec<BitString>, usize) {
        let config = HammerConfig::paper();
        let job_seed = self.seed ^ ((client as u64) << 48) ^ index.wrapping_mul(0x9E37_79B9);
        match class {
            Class::Hot => {
                let i = rng.below(HOT_SET as u64) as usize;
                let p = &self.hot[i];
                let counts = p.counts.clone();
                (
                    Request::Reconstruct { config, counts },
                    p.answers.clone(),
                    i,
                )
            }
            Class::Cold => {
                let i = rng.below(COLD_BASES as u64) as usize;
                let p = &self.cold[i];
                let mut counts = p.counts.clone();
                counts.record(BitString::from_u128(rng.key(32), 32));
                (
                    Request::Reconstruct { config, counts },
                    p.answers.clone(),
                    i,
                )
            }
            Class::Ghz => (
                Request::SampleAndReconstruct(SampleJob {
                    circuit: self.ghz.clone(),
                    device: DeviceSpec::IbmParis(GHZ_QUBITS),
                    trials: GHZ_TRIALS,
                    seed: job_seed,
                    config,
                }),
                ghz_correct_outcomes(GHZ_QUBITS).to_vec(),
                0,
            ),
            Class::Bv => (
                Request::SampleAndReconstruct(SampleJob {
                    circuit: self.bv.circuit(),
                    device: DeviceSpec::GoogleSycamore(BV_KEY_BITS + 1),
                    trials: BV_TRIALS,
                    seed: job_seed,
                    config,
                }),
                vec![self.bv.expected_full_outcome()],
                0,
            ),
        }
    }
}

/// One RPC as a client saw it.
struct Call {
    class: Class,
    start: Instant,
    end: Instant,
    ok: bool,
    request: u64,
    trace_id: u64,
}

/// A reply kept for the byte-identity check.
struct Kept {
    class: Class,
    request: Request,
    reply: Option<Reply>,
    answers: Vec<BitString>,
}

/// Closed loop on one connection until `deadline`: pick a class (70%
/// hot, 20% cold, 10% sample jobs alternating GHZ and BV), send, wait.
fn client_loop(
    inputs: &Inputs,
    client: &mut ServeClient,
    id: usize,
    phase: u64,
    deadline: Instant,
) -> (Vec<Call>, Vec<Kept>) {
    let mut rng = SplitMix::new(inputs.seed).fork(1000 + phase * 16 + id as u64);
    let (mut calls, mut kept) = (Vec::new(), Vec::new());
    let mut checked = std::collections::HashSet::new();
    let mut sample_jobs = 0u64;
    let mut index = 0u64;
    while Instant::now() < deadline {
        let u = rng.unit();
        let class = if u < 0.7 {
            Class::Hot
        } else if u < 0.9 {
            Class::Cold
        } else {
            sample_jobs += 1;
            if sample_jobs % 2 == 1 {
                Class::Ghz
            } else {
                Class::Bv
            }
        };
        let (request, answers, base) = inputs.request(class, &mut rng, id, (phase << 40) | index);
        let start = Instant::now();
        let outcome = client.call(&request);
        let end = Instant::now();
        let ok = rpc_succeeded(&outcome);
        let request_id = ((phase * CLIENTS as u64 + id as u64) << 40) | index;
        let trace_id = client.last_trace_id();
        calls.push(Call {
            class,
            start,
            end,
            ok,
            request: request_id,
            trace_id,
        });
        // Sample jobs alternate, so job k of a kind is its (k+1)/2-th.
        let (slot, wanted) = match class {
            Class::Hot | Class::Cold => (base, true),
            Class::Ghz | Class::Bv => {
                let nth = (sample_jobs as usize).div_ceil(2);
                (nth, nth <= CHECKED_SAMPLE_JOBS)
            }
        };
        if phase == 0 && wanted && checked.insert((class, slot)) {
            kept.push(Kept {
                class,
                request,
                reply: outcome.ok(),
                answers,
            });
        }
        index += 1;
    }
    (calls, kept)
}

/// Runs the workload for `seconds` and checks a seeded sample of
/// replies against direct library calls.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Run {
    let mut run = Run::default();
    let mut setup_s = Vec::new();
    let mut live = None;
    let mut warm_ok = true;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let inputs = Inputs::new(seed);
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_mb: CACHE_MB,
            ..ServeConfig::default()
        };
        if trace {
            // Capture every request's server span tree.
            config.slow_trace_ms = 0;
        }
        let server = serve(&config).expect("an ephemeral localhost port");
        let addr = server.local_addr().to_string();
        let mut clients: Vec<ServeClient> = (0..CLIENTS)
            .map(|_| {
                ServeClient::connect(addr.clone())
                    .expect("the server just bound this address")
                    .with_busy_retries(0, Duration::ZERO)
            })
            .collect();
        // Warm-up: fill the cache with the hot set and run one request
        // of every cold class once.
        let mut rng = SplitMix::new(seed).fork(999);
        for (i, p) in inputs.hot.iter().enumerate() {
            let request = Request::Reconstruct {
                config: HammerConfig::paper(),
                counts: p.counts.clone(),
            };
            warm_ok &= rpc_succeeded(&clients[i % CLIENTS].call(&request));
        }
        for class in [Class::Cold, Class::Ghz, Class::Bv] {
            let (request, _, _) = inputs.request(class, &mut rng, CLIENTS, 0);
            warm_ok &= rpc_succeeded(&clients[0].call(&request));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old_server, old_clients, _)) = live.replace((server, clients, inputs)) {
            drop(old_clients);
            shut_down(old_server);
        }
    }
    let (server, mut clients, inputs) = live.expect("at least one set-up");
    run.set("setup_s", median(&setup_s));
    run.check("warm-up replies served", warm_ok);
    run.notes
        .push(format!("setup_s: median of {SETUPS} set-ups"));

    // Untraced runs measure one phase; traced runs measure a phase
    // without client spans and one with them, half the length each, so
    // the trace overhead is their latency ratio. The server captures
    // span trees in both phases of a traced run.
    let phases: &[(u64, bool)] = if trace {
        &[(0, false), (1, true)]
    } else {
        &[(0, false)]
    };
    let phase_len = Duration::from_secs(seconds).div_f64(phases.len() as f64);
    let server_before = server.obs_snapshot();
    let global_before = Registry::global().snapshot();
    let mut calls: Vec<(Call, bool)> = Vec::new();
    let mut kept = Vec::new();
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for &(phase, traced) in phases {
        let deadline = Instant::now() + phase_len;
        let per_client: Vec<(Vec<Call>, Vec<Kept>)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(id, client)| {
                    let inputs = &inputs;
                    s.spawn(move || client_loop(inputs, client, id, phase, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (c, k) in per_client {
            calls.extend(c.into_iter().map(|c| (c, traced)));
            kept.extend(k);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let server_after = server.obs_snapshot();
    let global_after = Registry::global().snapshot();
    // The ring holds the span trees of the last requests served.
    let dump = if trace {
        clients[0].trace_dump().unwrap_or_default()
    } else {
        Vec::new()
    };
    drop(clients);
    shut_down(server);

    run.attempted += calls.len() as u64;
    run.failed += calls.iter().filter(|(c, _)| !c.ok).count() as u64;
    run.check(
        "every request answered with a distribution",
        calls.iter().all(|(c, _)| c.ok),
    );

    // Byte-identity of the kept replies against direct library calls,
    // timing each layer's public call on the way (traced runs report
    // these timings).
    let mut layer = LayerTimes::default();
    let mut identical = true;
    let mut cases = Vec::new();
    for k in &kept {
        let (expected, input) = direct(&k.request, &mut layer);
        let want = Reply::Distribution(expected);
        let same = k
            .reply
            .as_ref()
            .is_some_and(|r| r.opcode() == want.opcode() && r.encode() == want.encode());
        if !same {
            run.failed += 1;
            identical = false;
            run.notes
                .push(format!("reply mismatch on a {} request", k.class.name()));
        }
        if let Some(reply @ Reply::Distribution(got)) = &k.reply {
            time_codec(&k.request, reply, &mut layer);
            // The fidelity gains read the cold classes only: the hot
            // inputs are too small (11–512 outcomes) for figures that
            // hold still from one seed to the next.
            if k.class != Class::Hot {
                cases.push((input, got.clone(), k.answers.clone()));
            }
        }
    }
    run.check(
        format!(
            "{} sampled replies byte-identical to direct library calls",
            kept.len()
        ),
        identical,
    );
    let refs: Vec<_> = cases.iter().map(|(i, o, a)| (i, o, a.as_slice())).collect();
    let (pst_gain, ist_gain) = fidelity_gains(&refs);

    let latencies = |filter: &dyn Fn(&Call, bool) -> bool| -> Vec<f64> {
        calls
            .iter()
            .filter(|(c, t)| filter(c, *t))
            .map(|(c, _)| (c.end - c.start).as_secs_f64() * 1e6)
            .collect()
    };
    let all = latencies(&|_, _| true);
    let p50 = percentile(&all, 0.5).expect("at least one request");
    let p99 = percentile(&all, 0.99).expect("at least one request");
    for class in Class::ALL {
        let l = latencies(&|c, _| c.class == class);
        if let Some(m) = percentile(&l, 0.5) {
            run.notes.push(format!(
                "{}: {} requests, median {:.1} us",
                class.name(),
                m.samples,
                m.value
            ));
        }
    }
    run.notes.push(format!(
        "rpc_p50_us: q{:.3} of {} replies; rpc_p99_us: q{:.4} of {} replies; {:.2} s window",
        p50.q, p50.samples, p99.q, p99.samples, elapsed
    ));

    if trace {
        let traced_calls: Vec<&Call> = calls.iter().filter(|(_, t)| *t).map(|(c, _)| c).collect();
        server_spans(&mut run, &mut tracer, &traced_calls, &dump);
        run.spans_json = Some(tracer.to_json("serve-mixed"));
        let untraced = latencies(&|_, t| !t);
        let traced = latencies(&|_, t| t);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        run.set("trace_overhead_frac", mean(&traced) / mean(&untraced) - 1.0);
        server_layers(&mut run, &server_after, &server_before);
        let wait = hist_delta(&global_after, &global_before, "pool.queue_wait_ns");
        run.set("pool.queue_wait_ns.p50", wait.quantile(0.5) as f64);
        run.set("pool.queue_wait_ns.p99", wait.quantile(0.99) as f64);
        let all_path = hist_delta(&global_after, &global_before, "core.reconstruct_ns").count();
        let ann_path = hist_delta(&global_after, &global_before, "core.ann.build_ns").count();
        run.set("core.path.exact", (all_path - ann_path) as f64);
        run.set("core.path.ann", ann_path as f64);
        layer.report(&mut run);
    } else {
        run.set("rpc_per_s", calls.len() as f64 / elapsed);
        run.set(
            "reconstruct_per_s",
            calls.iter().filter(|(c, _)| c.ok).count() as f64 / elapsed,
        );
        run.set("rpc_p50_us", p50.value);
        run.set("rpc_p99_us", p99.value);
        run.set("pst_gain", pst_gain);
        run.set("ist_gain", ist_gain);
        run.set(
            "ops_ok_frac",
            1.0 - run.failed as f64 / run.attempted.max(1) as f64,
        );
    }
    run
}

fn shut_down(server: hammer_serve::ServerHandle) {
    server.shutdown();
    let _ = server.wait();
}

/// The reply a direct library call gives for `request`, and the
/// distribution it reconstructed from.
fn direct(request: &Request, layer: &mut LayerTimes) -> (Distribution, Distribution) {
    match request {
        Request::Reconstruct { config, counts } => {
            let t = Instant::now();
            std::hint::black_box(counts.fingerprint());
            layer.add("dist.fingerprint_ns", t.elapsed());
            let input = counts.to_distribution();
            let hammer = Hammer::with_config(*config);
            if input.len() >= 1024 {
                let weights = hammer.weights(&input);
                let t = Instant::now();
                std::hint::black_box(kernel::scores_parallel(
                    input.keys(),
                    input.probs(),
                    &weights,
                    config.filter,
                    hammer.threads(),
                    &config.kernel,
                ));
                layer.add("core.score_ns.mid", t.elapsed());
            }
            (hammer.reconstruct(&input), input)
        }
        Request::SampleAndReconstruct(job) => {
            let device = job
                .device
                .to_device()
                .expect("the workload's devices are valid");
            let engine = AutoEngine::new(&device);
            let mut rng = rand::rngs::StdRng::seed_from_u64(job.seed);
            let t = Instant::now();
            let counts: Counts = engine
                .sample(&job.circuit, job.trials, &mut rng)
                .expect("the workload's circuits simulate");
            let dt = t.elapsed();
            let (ns, rate) = match engine.route(&job.circuit) {
                "stabilizer" => ("sim.sample_ns.stabilizer", "sim.trials_per_s.stabilizer"),
                _ => ("sim.sample_ns.dense", "sim.trials_per_s.dense"),
            };
            layer.add(ns, dt);
            layer.rate(rate, job.trials as f64, dt);
            let input = counts.to_distribution();
            (Hammer::with_config(job.config).reconstruct(&input), input)
        }
        _ => unreachable!("the mix sends only compute requests"),
    }
}

/// Encode/decode timings of the workload's own payloads.
fn time_codec(request: &Request, reply: &Reply, layer: &mut LayerTimes) {
    let t = Instant::now();
    let bytes = std::hint::black_box(request.encode());
    layer.add("serve.codec.request_encode_ns", t.elapsed());
    let t = Instant::now();
    std::hint::black_box(Request::decode(request.opcode(), &bytes).expect("round trip"));
    layer.add("serve.codec.request_decode_ns", t.elapsed());
    let t = Instant::now();
    let bytes = std::hint::black_box(reply.encode());
    layer.add("serve.codec.reply_encode_ns", t.elapsed());
    let t = Instant::now();
    std::hint::black_box(Reply::decode(reply.opcode(), &bytes).expect("round trip"));
    layer.add("serve.codec.reply_decode_ns", t.elapsed());
}

/// Client `rpc` spans with the server's stage spans as children, for
/// every traced call; the requests the server's trace ring still holds
/// also give `serve.client_overhead_ns` and `unexplained_frac`. The
/// server clock is not the client's: its spans are placed assuming the
/// wire time splits evenly before and after the server's part.
fn server_spans(run: &mut Run, tracer: &mut Tracer, calls: &[&Call], dump: &[TraceDumpEntry]) {
    let mut by_trace = std::collections::HashMap::new();
    for c in calls {
        let (start, end) = (tracer.offset_ns(c.start), tracer.offset_ns(c.end));
        let id = tracer.record("rpc", start, end, None, c.request);
        by_trace.insert(c.trace_id, (id, start, end, c.request));
    }
    let (mut client_ns, mut stage_ns, mut overheads) = (0u64, 0u64, Vec::new());
    for entry in dump {
        let Some(&(id, start, end, request)) = by_trace.get(&entry.trace_id) else {
            continue;
        };
        let total = end - start;
        let server_start = start + total.saturating_sub(entry.total_ns) / 2;
        for span in &entry.spans {
            let s = server_start + span.start_ns;
            tracer.record(
                stage_span_name(&span.stage),
                s,
                s + span.dur_ns,
                Some(id),
                request,
            );
            stage_ns += span.dur_ns;
        }
        client_ns += total;
        overheads.push(total as f64 - entry.total_ns as f64);
    }
    run.set("serve.client_overhead_ns", median(&overheads));
    run.set(
        "unexplained_frac",
        1.0 - stage_ns as f64 / client_ns.max(1) as f64,
    );
    run.notes.push(format!(
        "{} of {} traced requests matched to server span trees",
        overheads.len(),
        calls.len()
    ));
}

fn stage_span_name(stage: &str) -> &'static str {
    match stage {
        "decode" => "serve.decode",
        "queue" => "serve.queue",
        "cache_probe" => "serve.cache_probe",
        "coalesce_wait" => "serve.coalesce_wait",
        "store_load" => "serve.store_load",
        "compute" => "serve.compute",
        "encode" => "serve.encode",
        "write" => "serve.write",
        _ => "serve.other",
    }
}

/// Server-side stage quantiles and cache counters over the window.
fn server_layers(run: &mut Run, after: &MetricsSnapshot, before: &MetricsSnapshot) {
    let stages: [(&str, &'static str, &'static str); 8] = [
        (
            "serve.stage.decode_ns",
            "serve.stage.decode_ns.p50",
            "serve.stage.decode_ns.p99",
        ),
        (
            "serve.stage.cache_probe_ns",
            "serve.stage.cache_probe_ns.p50",
            "serve.stage.cache_probe_ns.p99",
        ),
        (
            "serve.stage.encode_ns",
            "serve.stage.encode_ns.p50",
            "serve.stage.encode_ns.p99",
        ),
        (
            "serve.stage.write_ns",
            "serve.stage.write_ns.p50",
            "serve.stage.write_ns.p99",
        ),
        (
            "serve.stage.queue_ns",
            "serve.stage.queue_ns.p50",
            "serve.stage.queue_ns.p99",
        ),
        (
            "serve.stage.coalesce_wait_ns",
            "serve.stage.coalesce_wait_ns.p50",
            "serve.stage.coalesce_wait_ns.p99",
        ),
        (
            "serve.stage.compute_ns",
            "serve.stage.compute_ns.p50",
            "serve.stage.compute_ns.p99",
        ),
        (
            "serve.request_ns",
            "serve.request_ns.p50",
            "serve.request_ns.p99",
        ),
    ];
    for (series, p50, p99) in stages {
        let h = hist_delta(after, before, series);
        run.set(p50, h.quantile(0.5) as f64);
        run.set(p99, h.quantile(0.99) as f64);
    }
    let hits = counter_delta(after, before, "serve.cache.hits") as f64;
    let misses = counter_delta(after, before, "serve.cache.misses") as f64;
    run.set("serve.cache.hit_rate", hits / (hits + misses).max(1.0));
    run.set(
        "serve.cache.evictions",
        counter_delta(after, before, "serve.cache.evictions") as f64,
    );
    run.set(
        "serve.coalesced",
        counter_delta(after, before, "serve.coalesced") as f64,
    );
    run.set(
        "serve.busy_rejections",
        counter_delta(after, before, "serve.busy_rejections") as f64,
    );
}

/// Summed timings of the direct calls, reported as means.
#[derive(Default)]
struct LayerTimes {
    sums: std::collections::BTreeMap<&'static str, (f64, f64)>,
}

impl LayerTimes {
    fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.sums.entry(name).or_default();
        e.0 += d.as_nanos() as f64;
        e.1 += 1.0;
    }

    /// Accumulates `work / time` as a rate per second.
    fn rate(&mut self, name: &'static str, work: f64, d: Duration) {
        let e = self.sums.entry(name).or_default();
        e.0 += work;
        e.1 += d.as_secs_f64();
    }

    fn report(&self, run: &mut Run) {
        for (&name, &(total, count)) in &self.sums {
            run.set(name, if count > 0.0 { total / count } else { 0.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_land_in_their_ranges() {
        let a = Inputs::new(21);
        let b = Inputs::new(21);
        let c = Inputs::new(22);
        let fp = |i: &Inputs| -> Vec<u64> {
            i.hot
                .iter()
                .chain(&i.cold)
                .map(|p| p.counts.fingerprint())
                .collect()
        };
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
        for p in &a.hot {
            assert!((16..=32).contains(&p.counts.n_bits()));
            assert!((11..=512).contains(&p.counts.len()), "{}", p.counts.len());
        }
        for p in &a.cold {
            assert_eq!(p.counts.n_bits(), 32);
            assert!((1024..=4096).contains(&p.counts.len()));
        }
        assert!(
            !a.ghz.is_clifford(),
            "the GHZ job must take the dense engine"
        );
        assert_eq!(a.bv.circuit().num_qubits(), BV_KEY_BITS + 1);
    }

    #[test]
    fn cold_requests_are_salted_apart() {
        let inputs = Inputs::new(3);
        let mut rng = SplitMix::new(1);
        let key = |r: Request| match r {
            Request::Reconstruct { counts, .. } => counts.fingerprint(),
            _ => unreachable!(),
        };
        let a = key(inputs.request(Class::Cold, &mut rng, 0, 0).0);
        let b = key(inputs.request(Class::Cold, &mut rng, 0, 1).0);
        assert_ne!(a, b);
    }
}
