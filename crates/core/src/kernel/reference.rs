//! The PR 1 scalar `O(N²)` kernel, kept verbatim as the **reference
//! oracle**.
//!
//! This is the simplest correct statement of Algorithm 1's pairwise
//! pass: array-of-structs `(u128, f64)` entries, one XOR + POPCNT +
//! branch per pair, static `chunks_mut` parallelism. (The keys widened
//! from `u64` to `u128` when the workspace grew 64–128-qubit registers;
//! the loop structure is otherwise the PR 1 kernel, and it doubles as
//! the oracle for both the narrow and the wide blocked kernels.) The optimized
//! kernel in the parent module is property-tested against it
//! (`crates/core/tests/kernel_oracle.rs`), and `repro bench-kernel` records
//! speedups relative to it — so it must stay untouched by further
//! optimization work.

use crate::config::FilterRule;

/// Computes the distribution-wide CHS of Algorithm 1 (lines 3–8):
/// `chs[d] = Σ_x Σ_y [hamming(x,y) = d] · P(y)` for `d < max_d`.
#[must_use]
pub fn global_chs(entries: &[(u128, f64)], max_d: usize) -> Vec<f64> {
    let mut out = vec![0.0; max_d];
    for &(xk, _) in entries {
        for &(yk, py) in entries {
            let d = (xk ^ yk).count_ones() as usize;
            if d < max_d {
                out[d] += py;
            }
        }
    }
    out
}

/// Computes the neighborhood term of every string's score
/// (Algorithm 1 lines 16–21): for each `x`,
/// `score(x) = P(x) + Σ_y [hd(x,y) < max_d ∧ filter(x,y)] · W[d] · P(y)`.
#[must_use]
pub fn scores(entries: &[(u128, f64)], weights: &[f64], filter: FilterRule) -> Vec<f64> {
    entries
        .iter()
        .map(|&(xk, px)| score_one(xk, px, entries, weights, filter))
        .collect()
}

/// Score of a single string against the whole distribution.
#[must_use]
pub fn score_one(
    xk: u128,
    px: f64,
    entries: &[(u128, f64)],
    weights: &[f64],
    filter: FilterRule,
) -> f64 {
    let max_d = weights.len();
    let mut score = px;
    match filter {
        FilterRule::LowerProbabilityOnly => {
            for &(yk, py) in entries {
                let d = (xk ^ yk).count_ones() as usize;
                if d < max_d && px > py {
                    score += weights[d] * py;
                }
            }
        }
        FilterRule::None => {
            for &(yk, py) in entries {
                let d = (xk ^ yk).count_ones() as usize;
                if d < max_d && yk != xk {
                    score += weights[d] * py;
                }
            }
        }
    }
    score
}

/// Parallel version of [`scores`]: splits the outer loop over
/// `threads` scoped threads. Falls back to the serial kernel
/// for small inputs where spawning would dominate.
#[must_use]
pub fn scores_parallel(
    entries: &[(u128, f64)],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
) -> Vec<f64> {
    const PARALLEL_THRESHOLD: usize = 2048;
    if threads <= 1 || entries.len() < PARALLEL_THRESHOLD {
        return scores(entries, weights, filter);
    }
    let n = entries.len();
    let chunk = n.div_ceil(threads);
    let mut out = vec![0.0; n];
    std::thread::scope(|scope| {
        for (slot, xs) in out.chunks_mut(chunk).zip(entries.chunks(chunk)) {
            scope.spawn(move || {
                for (o, &(xk, px)) in slot.iter_mut().zip(xs) {
                    *o = score_one(xk, px, entries, weights, filter);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<(u128, f64)> {
        vec![
            (0b111, 0.30),
            (0b101, 0.40),
            (0b110, 0.05),
            (0b011, 0.10),
            (0b010, 0.10),
            (0b001, 0.05),
        ]
    }

    #[test]
    fn global_chs_diagonal_is_total_mass() {
        // chs[0] = Σ_x P(x) = 1 for a normalized distribution.
        let chs = global_chs(&entries(), 2);
        assert!((chs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_chs_symmetric_counting() {
        // chs[1] counts each ordered pair once:
        // Σ_x Σ_{y: hd=1} P(y).
        let e = entries();
        let chs = global_chs(&e, 4);
        let mut manual = 0.0;
        for &(xk, _) in &e {
            for &(yk, py) in &e {
                if (xk ^ yk).count_ones() == 1 {
                    manual += py;
                }
            }
        }
        assert!((chs[1] - manual).abs() < 1e-12);
    }

    #[test]
    fn filter_excludes_higher_probability_neighbors() {
        let e = entries();
        let w = vec![1.0, 1.0];
        // 0b110 (p=0.05): neighbors at d≤1 with lower prob: 0b010? hd(110,010)=1,
        // p=0.10 — higher. 0b111 hd=1 p=0.30 higher. 0b100 absent.
        // Only strictly lower-probability strings contribute; none here
        // at d=1... and d=0 is itself (not strictly lower).
        let s = score_one(0b110, 0.05, &e, &w, FilterRule::LowerProbabilityOnly);
        assert!((s - 0.05).abs() < 1e-12);
        // Without the filter it collects every distinct neighbor at d≤1.
        let s2 = score_one(0b110, 0.05, &e, &w, FilterRule::None);
        assert!(s2 > s);
    }

    #[test]
    fn rich_neighborhood_scores_higher() {
        let e = entries();
        let w = vec![0.5, 0.5];
        // 111 has neighbors 101, 110, 011 (all lower prob than 0.30 except 101).
        let s_correct = score_one(0b111, 0.30, &e, &w, FilterRule::LowerProbabilityOnly);
        // 001 (p=0.05) has no strictly-lower neighbors.
        let s_isolated = score_one(0b001, 0.05, &e, &w, FilterRule::LowerProbabilityOnly);
        assert!(s_correct > s_isolated);
    }

    #[test]
    fn parallel_matches_serial() {
        // Build a larger synthetic distribution to cross the threshold.
        let mut e: Vec<(u128, f64)> = Vec::new();
        let mut state = 12345u64;
        for i in 0..4096u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            e.push((u128::from(state % (1 << 12)), 1.0 + (i % 7) as f64));
        }
        let w = vec![0.9, 0.5, 0.25, 0.1, 0.05, 0.02];
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let serial = scores(&e, &w, filter);
            let parallel = scores_parallel(&e, &w, filter, 4);
            for (a, b) in serial.iter().zip(&parallel) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_weights_leave_probability_seed() {
        let e = entries();
        let s = score_one(0b111, 0.30, &e, &[], FilterRule::LowerProbabilityOnly);
        assert!((s - 0.30).abs() < 1e-12);
    }
}
