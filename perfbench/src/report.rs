//! The metric catalogue and the run's output: a readable report, a
//! result file under `perfbench/out/`, and the one-line JSON summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reconstruct_per_s", "1/s"),
    ("pst_gain", "ratio"),
    ("ist_gain", "ratio"),
    ("rpc_per_s", "1/s"),
    ("rpc_p50_us", "us"),
    ("rpc_p99_us", "us"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics (traced runs): `(name, unit)`. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dist.to_distribution_ns", "ns"),
    ("dist.fingerprint_ns", "ns"),
    ("core.chs_ns.narrow", "ns"),
    ("core.chs_ns.wide", "ns"),
    ("core.score_ns.narrow", "ns"),
    ("core.score_ns.wide", "ns"),
    ("core.normalize_ns.narrow", "ns"),
    ("core.normalize_ns.wide", "ns"),
    ("core.mpairs_per_s.narrow", "Mpairs/s"),
    ("core.mpairs_per_s.wide", "Mpairs/s"),
    ("core.score_ns.mid", "ns"),
    ("core.path.exact", "count"),
    ("core.path.ann", "count"),
    ("core.ann.build_ns", "ns"),
    ("core.ann.chs_ns", "ns"),
    ("core.ann.score_ns", "ns"),
    ("core.ann.candidates_per_query", "count"),
    ("core.ann.recall", "ratio"),
    ("sim.sample_ns.dense", "ns"),
    ("sim.sample_ns.stabilizer", "ns"),
    ("sim.trials_per_s.dense", "1/s"),
    ("sim.trials_per_s.stabilizer", "1/s"),
    ("pool.queue_wait_ns.p50", "ns"),
    ("pool.queue_wait_ns.p99", "ns"),
    ("serve.codec.request_encode_ns", "ns"),
    ("serve.codec.request_decode_ns", "ns"),
    ("serve.codec.reply_encode_ns", "ns"),
    ("serve.codec.reply_decode_ns", "ns"),
    ("serve.stage.decode_ns.p50", "ns"),
    ("serve.stage.decode_ns.p99", "ns"),
    ("serve.stage.cache_probe_ns.p50", "ns"),
    ("serve.stage.cache_probe_ns.p99", "ns"),
    ("serve.stage.encode_ns.p50", "ns"),
    ("serve.stage.encode_ns.p99", "ns"),
    ("serve.stage.write_ns.p50", "ns"),
    ("serve.stage.write_ns.p99", "ns"),
    ("serve.stage.queue_ns.p50", "ns"),
    ("serve.stage.queue_ns.p99", "ns"),
    ("serve.stage.coalesce_wait_ns.p50", "ns"),
    ("serve.stage.coalesce_wait_ns.p99", "ns"),
    ("serve.stage.compute_ns.p50", "ns"),
    ("serve.stage.compute_ns.p99", "ns"),
    ("serve.request_ns.p50", "ns"),
    ("serve.request_ns.p99", "ns"),
    ("serve.client_overhead_ns", "ns"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy_rejections", "count"),
    ("unexplained_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (calls or RPCs, plus run-level checks).
    pub attempted: u64,
    /// Operations failed or refused, or whose output failed a check.
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Readable notes: sample counts, percentiles actually read.
    pub notes: Vec<String>,
    /// Span dump of a traced run (a JSON array).
    pub spans_json: Option<String>,
}

impl Run {
    /// Records a run-level check, counting it as one operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.into(), ok));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Identifies the run in its outputs.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Prints the report and the summary line, writes the result file, and
/// returns whether every check passed.
pub fn emit(id: &RunId<'_>, mut run: Run, host: &[(&'static str, String)]) -> bool {
    let catalogue = if id.trace { PER_LAYER } else { END_TO_END };
    let finite = catalogue
        .iter()
        .all(|(name, _)| run.metrics.get(name).is_none_or(|v| v.is_finite()));
    run.check("metrics are finite", finite);
    let correct = run.failed == 0;

    for (k, v) in host {
        println!("host {k}: {v}");
    }
    for (name, ok) in &run.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for note in &run.notes {
        println!("note {note}");
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = run
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("metric {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted.max(1),
        run.failed
    );

    let mut file = format!(
        "{{\n\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"host\": {{",
        id.workload, id.seed, id.seconds, id.trace
    );
    for (i, (k, v)) in host.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(file, "{sep}\"{k}\": \"{}\"", escape(v));
    }
    file.push_str("},\n\"checks\": {");
    for (i, (name, ok)) in run.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(file, "{sep}\"{}\": {ok}", escape(name));
    }
    file.push_str("},\n\"notes\": [");
    for (i, note) in run.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(file, "{sep}\"{}\"", escape(note));
    }
    let _ = write!(
        file,
        "],\n\"summary\": {summary},\n\"spans\": {}\n}}\n",
        run.spans_json.as_deref().unwrap_or("[]")
    );
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        id.workload,
        id.seed,
        u8::from(id.trace)
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file)) {
        Ok(()) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{summary}");
    correct
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric named in `BENCHMARK.json` is one this benchmark
    /// prints, with the same unit, and the other way round.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn ann_local_states_its_recall_floor() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let line = text
            .lines()
            .find(|l| l.contains("\"name\": \"ann-local\""))
            .expect("an ann-local workload");
        let floor = format!("recall floor {}", crate::offline::RECALL_FLOOR);
        assert!(line.contains(&floor), "{line}");
    }

    #[test]
    fn numbers_stay_json_numbers() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.125), "0.125");
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
