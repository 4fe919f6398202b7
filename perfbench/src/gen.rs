//! Seeded input generators.
//!
//! Every input the benchmark sends is built here from the `--seed`
//! argument with the benchmark's own SplitMix64 stream. Nothing is
//! sampled through `hammer_sim` or the vendored `rand`, so a change to
//! either RNG stream cannot change the kernel workloads.

use std::collections::HashMap;

use hammer_dist::{BitString, Counts};

/// SplitMix64: a small, fast, well-mixed stream, fixed by this file.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_4841_4D4D_4552)
    }

    /// An independent stream for sub-task `tag` (one per input, thread
    /// or class), so adding an input never shifts the others.
    #[must_use]
    pub fn fork(&self, tag: u64) -> Self {
        let mut s = Self(self.0 ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly random `n_bits`-wide key.
    pub fn key(&mut self, n_bits: usize) -> u128 {
        let k = u128::from(self.next_u64()) | (u128::from(self.next_u64()) << 64);
        k & mask(n_bits)
    }
}

fn mask(n_bits: usize) -> u128 {
    if n_bits == 128 {
        u128::MAX
    } else {
        (1u128 << n_bits) - 1
    }
}

/// Shape of one synthetic measured histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloSpec {
    /// Register width.
    pub n_bits: usize,
    /// Exact number of distinct outcomes in the result.
    pub n_unique: usize,
    /// Planted correct outcomes (error-halo centres).
    pub answers: usize,
    /// Share of trials that land on a uniformly random outcome.
    pub background: f64,
    /// Whether an isolated spurious outcome outweighs every answer.
    pub spurious: bool,
}

/// A histogram together with what the generator planted in it.
#[derive(Debug, Clone)]
pub struct Planted {
    /// The measured histogram.
    pub counts: Counts,
    /// The planted correct outcomes.
    pub answers: Vec<BitString>,
    /// The isolated spurious outcome, if one was planted.
    pub spurious: Option<BitString>,
}

/// Mean bit flips per trial: a device whose outcomes mostly land within
/// a few flips of the answer (the paper's Hamming-halo behaviour). Low
/// enough that the heaviest outcomes carry hundreds of trials, so the
/// fidelity figures of two seeds differ little.
const MEAN_FLIPS: f64 = 1.5;

/// The usual [`HaloSpec::background`]: a device whose errors mostly
/// stay near the answer.
pub const BACKGROUND: f64 = 0.02;

/// How much the spurious outcome outweighs the heaviest answer.
const SPURIOUS_FACTOR: f64 = 3.0;

/// Candidate placements tried for the spurious outcome.
const SPURIOUS_CANDIDATES: usize = 64;

/// Simulated trials with independent bit flips around the planted
/// answers (equally weighted), plus a uniform background, until exactly
/// `n_unique` distinct outcomes are seen.
///
/// A spurious outcome sits `n/2 + 12` flips (at most `n`) from the
/// first answer, so that answer's whole halo lies outside its `d < n/2`
/// neighbourhood, and is the most isolated of a few such placements:
/// the Fig. 4 / §4.5 case of an isolated error that outweighs the
/// answer.
///
/// # Panics
///
/// Panics if the spec asks for no answer, a width outside `1..=128`, or
/// fewer than two distinct outcomes.
#[must_use]
pub fn halo(rng: &mut SplitMix, spec: &HaloSpec) -> Planted {
    assert!(spec.answers >= 1 && spec.n_unique >= 2);
    let n = spec.n_bits;
    let centres: Vec<u128> = (0..spec.answers).map(|_| rng.key(n)).collect();
    let flip_p = (MEAN_FLIPS / n as f64).min(0.5);
    let log_q = (1.0 - flip_p).ln();
    let target = spec.n_unique - usize::from(spec.spurious);
    let mut seen: HashMap<u128, u64> = HashMap::with_capacity(target);
    // Every centre is observed at least once, even in tiny supports, so
    // PST and IST of the input are never zero.
    for &c in centres.iter().take(target) {
        seen.insert(c, 1);
    }
    while seen.len() < target {
        let outcome = if rng.unit() < spec.background {
            rng.key(n)
        } else {
            let i = rng.below(centres.len() as u64) as usize;
            // Independent flips with probability flip_p per bit, drawn
            // as geometric gaps between flipped positions.
            let mut x = centres[i];
            let mut pos = 0usize;
            loop {
                let gap = ((1.0 - rng.unit()).ln() / log_q).floor();
                if gap >= (n - pos) as f64 {
                    break;
                }
                pos += gap as usize;
                x ^= 1u128 << pos;
                pos += 1;
            }
            x
        };
        *seen.entry(outcome).or_insert(0) += 1;
    }
    let mut counts = Counts::new(n).expect("width is within 1..=128");
    for (&k, &c) in &seen {
        counts.record_n(BitString::from_u128(k, n), c);
    }
    let answers: Vec<BitString> = centres
        .iter()
        .map(|&k| BitString::from_u128(k, n))
        .collect();
    let spurious = spec.spurious.then(|| {
        let heaviest = answers.iter().map(|&a| counts.count(a)).max().unwrap_or(1);
        let far = (n / 2 + 12).min(n);
        let candidate = |rng: &mut SplitMix| {
            let mut s = centres[0];
            let mut flipped = 0;
            while flipped < far {
                let bit = 1u128 << rng.below(n as u64);
                if (s ^ centres[0]) & bit == 0 {
                    s ^= bit;
                    flipped += 1;
                }
            }
            s
        };
        // The most isolated of a few candidates: on a heavy uniform
        // background a random one often has a neighbour by chance.
        let nearest = |s: u128| {
            seen.keys()
                .map(|&k| (s ^ k).count_ones())
                .min()
                .unwrap_or(0)
        };
        let s = (0..SPURIOUS_CANDIDATES)
            .map(|_| candidate(rng))
            .max_by_key(|&s| nearest(s))
            .expect("at least one candidate");
        let s = BitString::from_u128(s, n);
        let already = counts.count(s);
        let weight = (heaviest as f64 * SPURIOUS_FACTOR).ceil() as u64;
        counts.record_n(s, weight.saturating_sub(already).max(1));
        s
    });
    Planted {
        counts,
        answers,
        spurious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n_bits: usize, n_unique: usize, spurious: bool) -> HaloSpec {
        HaloSpec {
            n_bits,
            n_unique,
            answers: 1,
            background: BACKGROUND,
            spurious,
        }
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_differs() {
        let s = spec(64, 2000, true);
        let a = halo(&mut SplitMix::new(7), &s).counts.fingerprint();
        let b = halo(&mut SplitMix::new(7), &s).counts.fingerprint();
        let c = halo(&mut SplitMix::new(8), &s).counts.fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lands_on_the_stated_support_size() {
        for (n_bits, n_unique, spurious) in [(64, 8192, true), (100, 1500, false), (16, 11, true)] {
            let p = halo(&mut SplitMix::new(3), &spec(n_bits, n_unique, spurious));
            let off = p.counts.len().abs_diff(n_unique) as f64 / n_unique as f64;
            assert!(
                off <= 0.01,
                "{n_bits}-bit N={n_unique}: got {}",
                p.counts.len()
            );
        }
    }

    #[test]
    fn spurious_outcome_is_the_mode_and_isolated() {
        let p = halo(&mut SplitMix::new(11), &spec(64, 4096, true));
        let dist = p.counts.to_distribution();
        let s = p.spurious.expect("planted");
        assert_eq!(dist.mode().expect("non-empty").0, s);
        assert!(s.hamming_distance(p.answers[0]) >= 32 + 12);
    }

    #[test]
    fn answers_stay_the_heaviest_outcomes_over_a_heavy_background() {
        let p = halo(
            &mut SplitMix::new(5),
            &HaloSpec {
                n_bits: 64,
                n_unique: 8192,
                answers: 3,
                background: 0.8,
                spurious: false,
            },
        );
        assert_eq!(p.answers.len(), 3);
        let dist = p.counts.to_distribution();
        assert!(p.answers.contains(&dist.mode().expect("non-empty").0));
    }

    #[test]
    fn forks_are_independent_streams() {
        let root = SplitMix::new(1);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
    }
}
