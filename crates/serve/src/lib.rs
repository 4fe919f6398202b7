//! `hammer_serve` — the production-style serving subsystem of the
//! HAMMER reproduction.
//!
//! HAMMER is a pure post-processing step: noisy counts in,
//! reconstructed distribution out. That is exactly the shape of a
//! stateless RPC with cacheable inputs, and this crate turns the
//! library into one:
//!
//! * [`protocol`] — length-prefixed binary framing (`b"HAMR"` magic,
//!   version 3 only, opcode, request id, trace id, deadline, payload)
//!   with opcodes for `Ping`, `Reconstruct`, `SampleAndReconstruct`,
//!   `TraceDump`, `MetricsSnapshot` and `Shutdown`. The two compute
//!   requests share one cache, coalescing and deadline discipline and
//!   are both answered with a distribution; scoring that distribution
//!   (PST, IST, EHD) is the caller's job, via [`hammer_dist::metrics`];
//! * [`codec`] — std-only payload codecs that stream
//!   [`hammer_dist::Counts`] / [`hammer_dist::Distribution`] directly
//!   from their structure-of-arrays limb views and re-validate every
//!   invariant on decode
//!   ([`Distribution::from_raw_parts`](hammer_dist::Distribution::from_raw_parts)),
//!   so hostile bytes surface as [`WireError`]s, never panics;
//! * [`serve`] / [`ServerHandle`] — a `std::net` TCP runtime: acceptor,
//!   one thread per connection that answers its frames in order and
//!   computes its own cache misses, an admission gate
//!   ([`hammer_pool::Admission`]) that bounds how many misses compute
//!   at once behind a **bounded** earliest-deadline-first queue
//!   (503-style [`Reply::Busy`] backpressure when full), and graceful
//!   shutdown that drains in-flight work. Each request's computation
//!   fans out on scoped threads through [`hammer_pool::run_tiles`];
//!   the server keeps no pool of its own;
//! * the **batching + caching core** — one sharded map keyed by a
//!   stable `u64` fingerprint of each compute request's opcode and raw
//!   payload bytes holds the key's encoded reply payload or its
//!   computation in progress; one lookup, before anything is decoded,
//!   decides whether a request hits (the cached bytes are written back
//!   as they are), follows (concurrent identical requests coalesce onto
//!   one computation, and followers take no compute slot) or leads.
//!   Finished entries are LRU-evicted under a byte budget, with
//!   hit/miss/eviction/coalesce counters;
//! * [`store`] / [`DistStore`] — a crash-safe, append-only segment
//!   store the LRU spills evictions into and reloads misses from:
//!   CRC'd, fsync'd records; recovery that truncates torn tails and
//!   skips corrupt records (counted, never fatal); warm restarts over
//!   the same `--store-dir`;
//! * [`ServeClient`] — the synchronous, reconnecting client;
//! * **observability** (`hammer_obs`) — every server owns a metric
//!   registry (counters, gauges, per-stage latency histograms) that the
//!   cache and the store register their counters on. Its
//!   snapshot is the one metrics surface: the `MetricsSnapshot` opcode,
//!   [`ServerHandle::obs_snapshot`], `/metrics` and `repro top` all read
//!   it. Compute requests carry a 64-bit trace id in the frame
//!   header from client to reply, and slow or
//!   deadline-exceeded requests park their per-stage span tree in a
//!   ring drained by the `TraceDump` opcode. A roller thread folds a
//!   snapshot per window into rollup rings (`TimeSeries`), evaluates
//!   declared SLO burn rates, and — with `metrics_addr` set — a
//!   dedicated HTTP/1.1 thread exposes `GET /metrics` (Prometheus
//!   text), `/series` (JSON rollup history), `/events` (structured
//!   log tail), `/slo` and `/healthz`, protocol-blind to the binary
//!   tier.
//!
//! Related mitigators (Q-BEEP and friends) share HAMMER's
//! counts-to-distribution contract, so the wire format is deliberately
//! mitigator-agnostic: only the config payload names HAMMER's knobs.
//!
//! # Example: in-process round trip
//!
//! ```
//! use hammer_core::HammerConfig;
//! use hammer_dist::{BitString, Counts};
//! use hammer_serve::{serve, ServeClient, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = serve(&ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })?;
//!
//! let mut client = ServeClient::connect(server.local_addr().to_string())?;
//! client.ping()?;
//!
//! let mut counts = Counts::new(5)?;
//! counts.record_n(BitString::parse("11111")?, 300);
//! counts.record_n(BitString::parse("11110")?, 120);
//! counts.record_n(BitString::parse("00100")?, 250);
//! let reconstructed = client.reconstruct(&counts, &HammerConfig::paper())?;
//! assert!((reconstructed.total_mass() - 1.0).abs() < 1e-9);
//!
//! client.shutdown()?;
//! server.wait();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod chaos;
mod client;
pub mod codec;
#[cfg(feature = "fault-points")]
pub mod fault;
mod http;
pub mod protocol;
mod server;
pub mod store;

pub use client::ServeClient;
pub use codec::{DeviceSpec, Reply, Request, SampleJob, TraceDumpEntry, TraceSpan};
pub use protocol::WireError;
pub use server::{serve, ServeConfig, ServerHandle};
pub use store::DistStore;
