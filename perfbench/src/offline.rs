//! The two in-process workloads: `exact-large` (paper configuration,
//! exact narrow and wide kernels) and `ann-local` (a local
//! neighbourhood above the ANN crossover, so the LSH-forest path runs).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hammer_core::{ann, kernel, AnnIndex, AnnParams, Hammer, HammerConfig, NeighborhoodLimit};
use hammer_dist::{BitString, Counts, Distribution};
use hammer_obs::Registry;

use crate::gen::{halo, HaloSpec, Planted, SplitMix, BACKGROUND};
use crate::report::Run;
use crate::stats::{fidelity_gains, hist_delta, median, percentile};
use crate::trace::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Batch passes an untraced run makes at least, so every class has a
/// median of two or more calls even when a pass outlasts the window.
const MIN_PASSES: usize = 2;

/// Lowest in-range pair-mass recall `ann-local` accepts (also stated in
/// the workload's line of `BENCHMARK.json`).
pub const RECALL_FLOOR: f64 = 0.85;

/// `ann-local`'s neighbourhood: local enough (`4 · 16 ≤ 64`) for the
/// forest to engage.
const ANN_MAX_D: usize = 16;

/// Query outcomes the recall and candidate counts are measured over.
const RECALL_QUERIES: usize = 512;

/// Largest reference-kernel disagreement accepted on the 8K class.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// Paper configuration over 8K/32K narrow and 16K wide halos.
    ExactLarge,
    /// `Fixed(16)` neighbourhood over 48K clustered 64-bit halos.
    AnnLocal,
}

/// One input of the batch.
pub struct Input {
    /// Size class, e.g. `narrow-8k`.
    pub class: &'static str,
    /// The histogram and what was planted in it.
    pub planted: Planted,
}

impl Offline {
    fn config(self) -> HammerConfig {
        match self {
            Self::ExactLarge => HammerConfig::paper(),
            Self::AnnLocal => HammerConfig {
                neighborhood: NeighborhoodLimit::Fixed(ANN_MAX_D),
                ..HammerConfig::paper()
            },
        }
    }

    /// The batch, in the order it is run. `exact-large` holds a
    /// majority of 8K inputs so the median call is an 8K call, and the
    /// first, third, … input of each class carries an isolated spurious
    /// outcome; the seed changes the inputs' content, never this shape.
    #[must_use]
    pub fn batch(self, seed: u64) -> Vec<Input> {
        let classes: &[(&'static str, usize, usize, usize, f64, usize)] = match self {
            // (class, bits, unique, answers, background, copies)
            Self::ExactLarge => &[
                ("narrow-8k", 64, 8192, 1, BACKGROUND, 5),
                ("narrow-32k", 64, 32_768, 1, BACKGROUND, 1),
                ("wide-16k", 100, 16_384, 1, BACKGROUND, 2),
            ],
            // Two answer halos over a heavy uniform background: the
            // background keeps the forest's buckets sparse, and every
            // input carries the isolated spurious outcome so IST reads
            // the answers against one planted rival, not the noisiest
            // of thousands of light outcomes.
            Self::AnnLocal => &[("ann-48k", 64, 49_152, 2, 0.7, 2)],
        };
        let root = SplitMix::new(seed);
        let mut out = Vec::new();
        for &(class, n_bits, n_unique, answers, background, copies) in classes {
            for copy in 0..copies {
                let tag = (out.len() as u64) << 8 | copy as u64;
                let spec = HaloSpec {
                    n_bits,
                    n_unique,
                    answers,
                    background,
                    spurious: copy % 2 == 0 || self == Self::AnnLocal,
                };
                out.push(Input {
                    class,
                    planted: halo(&mut root.fork(tag), &spec),
                });
            }
        }
        out
    }
}

/// Runs one workload for `seconds` and checks its outputs.
pub fn run(kind: Offline, seed: u64, seconds: u64, trace: bool) -> Run {
    let mut run = Run::default();
    let hammer = Hammer::with_config(kind.config());

    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = kind.batch(seed);
        warm_up(kind, &hammer, &inputs[0].planted.counts);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    run.set("setup_s", median(&setup_s));
    run.notes
        .push(format!("setup_s: median of {SETUPS} set-ups"));
    for input in &inputs {
        run.notes.push(format!(
            "input {}: {} unique outcomes, {} trials, spurious {}",
            input.class,
            input.planted.counts.len(),
            input.planted.counts.total(),
            input.planted.spurious.is_some()
        ));
    }

    let window = Duration::from_secs(seconds);
    let before = Registry::global().snapshot();
    let mut outputs: Vec<Option<Distribution>> = vec![None; inputs.len()];
    let mut stable = vec![true; inputs.len()];
    let mut calls: Vec<(usize, f64)> = Vec::new();
    let mut passes = 0;
    let mut tracer = Tracer::new();
    // Traced runs: (untraced ns, traced root ns, children ns) per call.
    let mut traced: Vec<(u64, u64, u64)> = Vec::new();
    let mut replay_identical = true;
    let mut recall = Vec::new();
    let start = Instant::now();
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let out = hammer.reconstruct_counts(&input.planted.counts);
            let dt = t.elapsed();
            calls.push((i, dt.as_secs_f64()));
            if trace {
                let request = calls.len() as u64 - 1;
                let (replayed, root_ns, children_ns, index) =
                    replay(kind, &hammer, &input.planted.counts, &mut tracer, request);
                replay_identical &= replayed == out;
                traced.push((dt.as_nanos() as u64, root_ns, children_ns));
                if let Some(index) = index {
                    let d = input.planted.counts.to_distribution();
                    recall.push(measure_recall(&index, &d));
                }
            }
            match &outputs[i] {
                None => outputs[i] = Some(out),
                Some(first) => stable[i] &= *first == out,
            }
        }
        passes += 1;
        if start.elapsed() >= window && (trace || passes >= MIN_PASSES) {
            break;
        }
    }
    let after = Registry::global().snapshot();
    let path_all = hist_delta(&after, &before, "core.reconstruct_ns").count();
    // A traced ANN replay builds one more index per call, outside `Hammer`.
    let replay_builds = if trace && kind == Offline::AnnLocal {
        calls.len() as u64
    } else {
        0
    };
    let path_ann = hist_delta(&after, &before, "core.ann.build_ns").count() - replay_builds;
    let path_exact = path_all - path_ann;

    // Output checks: every call's output, then run-level facts.
    run.attempted += calls.len() as u64;
    let mut input_ok = vec![true; inputs.len()];
    for (i, input) in inputs.iter().enumerate() {
        let out = outputs[i].as_ref().expect("every input ran at least once");
        let d = input.planted.counts.to_distribution();
        let mut ok = stable[i] && normalised_subset(out, &d);
        if kind == Offline::ExactLarge && input.class == "narrow-8k" {
            let reference = Hammer::new().with_threads(1).reconstruct(&d);
            ok &= max_abs_diff(&reference, out) <= REFERENCE_TOLERANCE;
        }
        input_ok[i] = ok;
    }
    run.failed += calls.iter().filter(|(i, _)| !input_ok[*i]).count() as u64;
    run.check(
        "outputs normalised, supported by their input, repeatable, and (8K) within 1e-9 of the reference",
        input_ok.iter().all(|&ok| ok),
    );
    match kind {
        Offline::ExactLarge => {
            run.check("core.path.ann is 0", path_ann == 0);
            run.check(
                "core.path.exact counts every call",
                path_exact == calls.len() as u64,
            );
        }
        Offline::AnnLocal => {
            run.check(
                "core.path.ann counts every call",
                path_ann == calls.len() as u64,
            );
            if recall.is_empty() {
                for input in &inputs {
                    let d = input.planted.counts.to_distribution();
                    recall.push(measure_recall(&ann_index(&hammer, &d), &d));
                }
            }
            let worst = recall.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
            run.notes
                .push(format!("lowest recall {worst:.4} (floor {RECALL_FLOOR})"));
            run.check(
                format!("recall at or above {RECALL_FLOOR}"),
                worst >= RECALL_FLOOR,
            );
        }
    }
    if trace {
        run.check(
            "traced replay bit-identical to Hammer::reconstruct",
            replay_identical,
        );
    }

    if trace {
        layer_metrics(&mut run, &inputs, &calls, &tracer, &traced, &recall);
        run.set("core.path.exact", path_exact as f64);
        run.set("core.path.ann", path_ann as f64);
        run.spans_json = Some(tracer.to_json(match kind {
            Offline::ExactLarge => "exact-large",
            Offline::AnnLocal => "ann-local",
        }));
    } else {
        end_to_end(&mut run, &inputs, &calls, passes);
        let cases: Vec<(Distribution, &Distribution, &[BitString])> = inputs
            .iter()
            .zip(&outputs)
            .map(|(input, out)| {
                (
                    input.planted.counts.to_distribution(),
                    out.as_ref().expect("every input ran at least once"),
                    input.planted.answers.as_slice(),
                )
            })
            .collect();
        let refs: Vec<_> = cases.iter().map(|(i, o, a)| (i, *o, *a)).collect();
        let (pst_gain, ist_gain) = fidelity_gains(&refs);
        run.set("pst_gain", pst_gain);
        run.set("ist_gain", ist_gain);
    }
    run.notes.push(format!(
        "{} calls in {} batch passes over {:.2} s; path exact {path_exact}, ann {path_ann}",
        calls.len(),
        passes,
        start.elapsed().as_secs_f64()
    ));
    run
}

fn warm_up(kind: Offline, hammer: &Hammer, counts: &Counts) {
    let d = counts.to_distribution();
    match kind {
        Offline::ExactLarge => {
            std::hint::black_box(hammer.reconstruct(&d));
        }
        Offline::AnnLocal => {
            std::hint::black_box(ann_index(hammer, &d));
        }
    }
}

/// The forest `hammer` would build for `d`.
fn ann_index(hammer: &Hammer, d: &Distribution) -> AnnIndex {
    let params = AnnParams::resolve(&hammer.config().kernel.ann, d.len(), d.n_bits());
    AnnIndex::build(d, &params, hammer.threads())
}

/// Throughput and call latency. `reconstruct_per_s` and `rpc_per_s`
/// are both the batch size over a batch pass rebuilt from each class's
/// median call time, so one disturbed call moves neither; `rpc_p50_us`
/// is the median call; `rpc_p99_us` is the tail of the slowest class,
/// since call time is set by input class.
fn end_to_end(run: &mut Run, inputs: &[Input], calls: &[(usize, f64)], passes: usize) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(i, s) in calls {
        by_class.entry(inputs[i].class).or_default().push(s * 1e6);
    }
    let pass_us: f64 = inputs
        .iter()
        .map(|input| median(&by_class[input.class]))
        .sum();
    let per_s = inputs.len() as f64 / pass_us * 1e6;
    run.set("reconstruct_per_s", per_s);
    run.set("rpc_per_s", per_s);
    let all: Vec<f64> = calls.iter().map(|&(_, s)| s * 1e6).collect();
    let p50 = percentile(&all, 0.5).expect("at least one call");
    run.set("rpc_p50_us", p50.value);
    let (slowest, samples) = by_class
        .iter()
        .max_by(|a, b| median(a.1).total_cmp(&median(b.1)))
        .expect("at least one class");
    let p99 = percentile(samples, 0.99).expect("non-empty class");
    run.set("rpc_p99_us", p99.value);
    run.set(
        "ops_ok_frac",
        1.0 - run.failed as f64 / run.attempted.max(1) as f64,
    );
    run.notes.push(format!(
        "rpc_p50_us: q{:.3} of {} calls; rpc_p99_us: q{:.3} of {} {slowest} calls; {} batch passes",
        p50.q, p50.samples, p99.q, p99.samples, passes
    ));
}

/// The same computation as `Hammer::reconstruct_counts`, one public
/// call per layer, each inside a span under one root span per request.
/// Returns the output, the root and summed child durations, and the
/// ANN index when one was built.
fn replay(
    kind: Offline,
    hammer: &Hammer,
    counts: &Counts,
    tr: &mut Tracer,
    request: u64,
) -> (Distribution, u64, u64, Option<AnnIndex>) {
    let config = hammer.config();
    let threads = hammer.threads();
    let root = tr.begin("request", None, request);
    let r = Some(root);
    let d = tr.span("dist.to_distribution", r, request, || {
        counts.to_distribution()
    });
    let n = d.n_bits();
    let (scores, index) = match kind {
        Offline::ExactLarge => {
            let weights = tr.span("core.chs", r, request, || hammer.weights(&d));
            let scores = tr.span("core.score", r, request, || {
                if n > 64 {
                    kernel::wide::scores_parallel(
                        d.keys(),
                        d.keys_hi(),
                        d.probs(),
                        &weights,
                        config.filter,
                        threads,
                        &config.kernel,
                    )
                } else {
                    kernel::scores_parallel(
                        d.keys(),
                        d.probs(),
                        &weights,
                        config.filter,
                        threads,
                        &config.kernel,
                    )
                }
            });
            (scores, None)
        }
        Offline::AnnLocal => {
            let max_d = config.neighborhood.max_distance(n);
            let tile = config.kernel.tile_size;
            let params = tr.span("core.ann.resolve", r, request, || {
                AnnParams::resolve(&config.kernel.ann, d.len(), n)
            });
            let index = tr.span("core.ann.build", r, request, || {
                AnnIndex::build(&d, &params, threads)
            });
            let weights = tr.span("core.ann.chs", r, request, || {
                let chs = ann::global_chs_with_index(&index, d.probs(), max_d, threads, tile);
                // The paper's inverse-average-CHS weights.
                let n_unique = d.len() as f64;
                chs.iter()
                    .map(|&t| if t > 0.0 { n_unique / t } else { 0.0 })
                    .collect::<Vec<f64>>()
            });
            let scores = tr.span("core.ann.score", r, request, || {
                ann::scores_with_index(&index, d.probs(), &weights, config.filter, threads, tile)
            });
            (scores, Some(index))
        }
    };
    let out = tr.span("core.normalize", r, request, || {
        let pairs = d
            .as_slice()
            .iter()
            .zip(&scores)
            .map(|(&(k, p), &s)| (BitString::from_u128(k, n), p * s));
        Distribution::from_probs(n, pairs).expect("every score is at least P(x) > 0")
    });
    let root_ns = tr.end(root);
    let children_ns = tr
        .spans()
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(crate::trace::Span::ns)
        .sum();
    (out, root_ns, children_ns, index)
}

/// Per-layer figures from the spans of a traced run.
fn layer_metrics(
    run: &mut Run,
    inputs: &[Input],
    calls: &[(usize, f64)],
    tr: &Tracer,
    traced: &[(u64, u64, u64)],
    recall: &[(f64, f64)],
) {
    // (layer, width) → (total ns, count); request id = call index.
    let mut sums: BTreeMap<(&str, &str), (f64, f64)> = BTreeMap::new();
    let mut pairs: BTreeMap<&str, f64> = BTreeMap::new();
    for span in tr.spans() {
        let input = &inputs[calls[span.request as usize].0];
        let width = if input.planted.counts.n_bits() > 64 {
            "wide"
        } else {
            "narrow"
        };
        let e = sums.entry((span.name, width)).or_default();
        e.0 += span.ns() as f64;
        e.1 += 1.0;
        if span.name == "core.score" {
            let n = input.planted.counts.len() as f64;
            *pairs.entry(width).or_default() += 2.0 * n * n;
        }
    }
    let mean = |name: &str, width: Option<&str>| {
        let (t, c) = sums
            .iter()
            .filter(|((n, w), _)| *n == name && width.is_none_or(|x| x == *w))
            .fold((0.0, 0.0), |acc, (_, v)| (acc.0 + v.0, acc.1 + v.1));
        if c > 0.0 {
            t / c
        } else {
            0.0
        }
    };
    run.set(
        "dist.to_distribution_ns",
        mean("dist.to_distribution", None),
    );
    for width in ["narrow", "wide"] {
        let chs = mean("core.chs", Some(width));
        let score = mean("core.score", Some(width));
        let (key_chs, key_score, key_norm, key_rate) = match width {
            "narrow" => (
                "core.chs_ns.narrow",
                "core.score_ns.narrow",
                "core.normalize_ns.narrow",
                "core.mpairs_per_s.narrow",
            ),
            _ => (
                "core.chs_ns.wide",
                "core.score_ns.wide",
                "core.normalize_ns.wide",
                "core.mpairs_per_s.wide",
            ),
        };
        run.set(key_chs, chs);
        run.set(key_score, score);
        run.set(key_norm, mean("core.normalize", Some(width)));
        let busy: f64 = ["core.chs", "core.score"]
            .iter()
            .map(|n| sums.get(&(*n, width)).map_or(0.0, |v| v.0))
            .sum();
        let visits = pairs.get(width).copied().unwrap_or(0.0);
        run.set(key_rate, if busy > 0.0 { visits / busy * 1e3 } else { 0.0 });
    }
    run.set("core.ann.build_ns", mean("core.ann.build", None));
    run.set("core.ann.chs_ns", mean("core.ann.chs", None));
    run.set("core.ann.score_ns", mean("core.ann.score", None));
    if !recall.is_empty() {
        let k = recall.len() as f64;
        run.set(
            "core.ann.recall",
            recall.iter().map(|r| r.0).sum::<f64>() / k,
        );
        run.set(
            "core.ann.candidates_per_query",
            recall.iter().map(|r| r.1).sum::<f64>() / k,
        );
    }
    let untraced: f64 = traced.iter().map(|t| t.0 as f64).sum();
    let root: f64 = traced.iter().map(|t| t.1 as f64).sum();
    let children: f64 = traced.iter().map(|t| t.2 as f64).sum();
    run.set("unexplained_frac", 1.0 - children / untraced);
    run.set("trace_overhead_frac", root / untraced - 1.0);
    run.notes.push(format!("{} traced requests", traced.len()));
}

/// In-range pair-mass recall of the forest and its mean candidate count
/// over a fixed stride sample of query outcomes: of the probability
/// mass within [`ANN_MAX_D`] of each query, the share `range_query`
/// surfaced.
fn measure_recall(index: &AnnIndex, d: &Distribution) -> (f64, f64) {
    let max_d = ANN_MAX_D;
    let (keys, keys_hi, probs) = (d.keys(), d.keys_hi(), d.probs());
    let step = (d.len() / RECALL_QUERIES).max(1);
    let (mut found, mut truth, mut candidates, mut queries) = (0.0, 0.0, 0usize, 0usize);
    let mut scratch = Vec::new();
    for i in (0..d.len()).step_by(step).take(RECALL_QUERIES) {
        index.candidates_into(keys[i], keys_hi[i], &mut scratch);
        candidates += scratch.len();
        queries += 1;
        for (id, _) in index.range_query(keys[i], keys_hi[i], max_d) {
            found += probs[id as usize];
        }
        for j in 0..d.len() {
            let dist = (keys[i] ^ keys[j]).count_ones() + (keys_hi[i] ^ keys_hi[j]).count_ones();
            if dist as usize <= max_d {
                truth += probs[j];
            }
        }
    }
    let recall = if truth > 0.0 { found / truth } else { 1.0 };
    (recall, candidates as f64 / queries.max(1) as f64)
}

/// Unit mass, positive entries, and every outcome present in the input.
fn normalised_subset(out: &Distribution, input: &Distribution) -> bool {
    (out.total_mass() - 1.0).abs() < 1e-9 && out.iter().all(|(x, p)| p > 0.0 && input.prob(x) > 0.0)
}

fn max_abs_diff(a: &Distribution, b: &Distribution) -> f64 {
    let one_way = |x: &Distribution, y: &Distribution| {
        x.iter()
            .map(|(k, p)| (p - y.prob(k)).abs())
            .fold(0.0, f64::max)
    };
    one_way(a, b).max(one_way(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_large_batch_plants_spurious_modes_at_stated_sizes() {
        let batch = Offline::ExactLarge.batch(4);
        let spurious_modes = batch
            .iter()
            .filter(|i| {
                i.planted.spurious.is_some()
                    && i.planted.counts.to_distribution().mode().map(|m| m.0) == i.planted.spurious
            })
            .count();
        assert!(spurious_modes >= 3, "{spurious_modes} spurious modes");
        for input in &batch {
            let want = match input.class {
                "narrow-8k" => 8192,
                "narrow-32k" => 32_768,
                _ => 16_384,
            };
            let got = input.planted.counts.len();
            assert!(got.abs_diff(want) * 100 <= want, "{}: {got}", input.class);
        }
        let eights = batch.iter().filter(|i| i.class == "narrow-8k").count();
        assert!(
            eights * 2 > batch.len(),
            "the median call must be an 8K call"
        );
    }

    #[test]
    fn batches_repeat_per_seed() {
        let fp = |seed| -> Vec<u64> {
            Offline::AnnLocal
                .batch(seed)
                .iter()
                .map(|i| i.planted.counts.fingerprint())
                .collect()
        };
        assert_eq!(fp(9), fp(9));
        assert_ne!(fp(9), fp(10));
    }
}
