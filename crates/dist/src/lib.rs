//! The data layer of the HAMMER reproduction: bitstrings, trial-count
//! histograms, probability distributions, Hamming spectra and the
//! paper's figures of merit.
//!
//! Everything downstream — the simulator, the benchmark circuits and
//! Hamming Reconstruction itself — composes over these types:
//!
//! * [`BitString`] — an `n ≤ 128`-bit measurement outcome packed into
//!   two `u64` limbs, giving per-limb XOR+POPCNT Hamming distances;
//! * [`Counts`] — the raw trial histogram a (simulated) quantum job
//!   returns;
//! * [`Distribution`] — a normalized sparse distribution whose sorted
//!   structure-of-arrays views ([`keys`](Distribution::keys) /
//!   [`probs`](Distribution::probs), with
//!   [`as_slice`](Distribution::as_slice) as the AoS twin) feed HAMMER's
//!   `O(N²)` kernel;
//! * [`HammingSpectrum`] / [`spectrum::chs`] — the §3.2 bucketing of
//!   outcomes by distance to the correct answers, and the §4.1
//!   Cumulative Hamming Strength;
//! * [`metrics`] — PST, IST, EHD, TVD, Hellinger fidelity, Cost Ratio;
//! * [`stats`] — means and Spearman correlations for the experiment
//!   harness;
//! * [`fingerprint`] — stable (process-independent) word-at-a-time
//!   hashing, the cache-key discipline of the serving layer.
//!
//! # Example
//!
//! ```
//! use hammer_dist::{metrics, BitString, Counts, HammingSpectrum};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Tally a (mock) noisy job whose correct answer is 111.
//! let correct = BitString::parse("111")?;
//! let mut counts = Counts::new(3)?;
//! counts.record_n(correct, 700);
//! counts.record_n(BitString::parse("110")?, 150); // 1 flip
//! counts.record_n(BitString::parse("011")?, 100); // 1 flip
//! counts.record_n(BitString::parse("000")?, 50);  // 3 flips
//!
//! let dist = counts.to_distribution();
//! assert!((dist.total_mass() - 1.0).abs() < 1e-12);
//!
//! // Errors cluster near the correct answer: EHD far below n/2.
//! let ehd = metrics::ehd(&dist, &[correct]);
//! assert!(ehd < metrics::uniform_ehd(3));
//!
//! // The spectrum partitions all the mass across Hamming bins.
//! let spectrum = HammingSpectrum::new(&dist, &[correct]);
//! assert!((spectrum.total_strength() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitstring;
mod counts;
mod distribution;
mod error;
pub mod fingerprint;
pub mod metrics;
pub mod spectrum;
pub mod stats;

pub use bitstring::{BitString, NeighborsAt, MAX_BITS};
pub use counts::Counts;
pub use distribution::Distribution;
pub use error::DistError;
pub use spectrum::{HammingSpectrum, SpectrumBin};
