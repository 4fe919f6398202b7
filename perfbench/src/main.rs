//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact-large|ann-local|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record, the output checks, one line per metric and,
//! last, a one-line JSON summary. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the same inputs through each layer's
//! public call and reports the per-layer metrics. See `README.md`.

mod gen;
mod host;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use offline::Offline;
use report::RunId;

const USAGE: &str =
    "usage: perfbench --workload <exact-large|ann-local|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::record();
    let run = match workload.as_str() {
        "exact-large" => offline::run(Offline::ExactLarge, seed, seconds, trace),
        "ann-local" => offline::run(Offline::AnnLocal, seed, seconds, trace),
        "serve-mixed" => serve::run(seed, seconds, trace),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let id = RunId {
        workload: &workload,
        seed,
        seconds,
        trace,
    };
    if report::emit(&id, run, &host) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}
