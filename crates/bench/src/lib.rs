//! The reproduction harness: synthetic datasets mirroring the paper's
//! Tables 1–2, shared execution pipelines, per-figure experiments and
//! text reporting.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p hammer-bench --bin repro -- all
//! cargo run --release -p hammer-bench --bin repro -- fig8b fig9a --quick
//! ```
//!
//! Criterion benches (`cargo bench`) cover the Table 3 runtime scaling,
//! simulator throughput and the Hamming kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angles;
pub mod datasets;
pub mod experiments;
pub mod json;
pub mod kernel_bench;
pub mod obs_bench;
pub mod pipeline;
pub mod report;
pub mod serve_bench;
pub mod sim_bench;
pub mod stab_bench;
pub mod top;
