//! **Hamming Reconstruction (HAMMER)** — the primary contribution of the
//! reproduced paper.
//!
//! NISQ machines run a program for thousands of trials; device errors
//! scatter the measured histogram so badly that the correct answer is
//! often not even the most frequent outcome. The paper's observation is
//! that the *erroneous* outcomes are not arbitrary: the dominant ones
//! cluster within a short Hamming distance of the correct answer, while
//! spurious outcomes sit in sparse neighborhoods. HAMMER turns this into
//! a post-processing pass (Algorithm 1):
//!
//! 1. **Hamming spectrum** — compute the distribution-wide Cumulative
//!    Hamming Strength `CHS[d]` for distances `d < n/2`;
//! 2. **per-distance weights** — invert the *average* CHS
//!    (`W[d] = N / CHS_total[d]`, §4.3), discounting
//!    distances that are rich for every string;
//! 3. **likelihood update** — every outcome's probability is multiplied
//!    by a neighborhood score seeded with its own probability and fed by
//!    strictly-less-probable neighbors, then the distribution is
//!    renormalized.
//!
//! The whole pass is classical, `O(N²)` in the number of distinct
//! observed outcomes and `O(n)` in memory.
//!
//! # Example
//!
//! ```
//! use hammer_core::{Hammer, HammerConfig};
//! use hammer_dist::{BitString, Distribution};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The correct outcome "11111" trails the isolated spurious outcome
//! // "00100", but its halo of single-flip errors reveals it.
//! let noisy = Distribution::from_probs(5, [
//!     (BitString::parse("11111")?, 0.15), // correct, outgunned
//!     (BitString::parse("00100")?, 0.25), // dominant error
//!     (BitString::parse("11110")?, 0.08),
//!     (BitString::parse("11101")?, 0.08),
//!     (BitString::parse("11011")?, 0.08),
//!     (BitString::parse("10111")?, 0.08),
//!     (BitString::parse("01111")?, 0.08),
//!     (BitString::parse("11100")?, 0.05),
//!     (BitString::parse("11010")?, 0.05),
//!     (BitString::parse("00111")?, 0.05),
//!     (BitString::parse("01011")?, 0.05),
//! ])?;
//! let fixed = Hammer::with_config(HammerConfig::paper()).reconstruct(&noisy);
//! assert_eq!(fixed.most_probable().unwrap().0, BitString::parse("11111")?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
mod config;
pub mod kernel;
pub(crate) mod obs_hooks;
mod reconstruct;
mod trace;

pub use ann::{AnnIndex, AnnParams};
pub use config::{
    AnnTuning, FilterRule, HammerConfig, KernelTuning, NeighborhoodLimit, WeightScheme,
};
pub use hammer_pool::{CancelToken, Cancelled};
pub use kernel::reference::score_one;
pub use kernel::{global_chs_parallel, scores_parallel};
pub use reconstruct::{operation_count, Hammer};
pub use trace::{HammerTrace, ScoreBreakdown};
