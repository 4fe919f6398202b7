//! Tables 1–3: dataset inventories and HAMMER's complexity/runtime.

use std::fmt::Write as _;
use std::time::Instant;

use hammer_core::{operation_count, Hammer};
use hammer_dist::{BitString, Distribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets;
use crate::report::{fnum, section, Table};

/// Table 1: the Google dataset inventory.
#[must_use]
pub fn table1() -> String {
    let mut out = section(
        "table1",
        "Benchmarks from the (synthetic) Google dataset",
        "QAOA Maxcut on grid (6-20 nodes, p=1-5, 120 circuits) and 3-regular \
         graphs (4-16 nodes, p=1-3, 200 circuits); figure of merit CR",
    );
    let grid = datasets::google_grid_suite(false);
    let reg = datasets::google_3reg_suite(false);
    let mut table = Table::new(&[
        "name",
        "algorithm details",
        "#qubits",
        "p layers",
        "total circuits",
        "figure of merit",
    ]);
    let span = |v: &[datasets::QaoaInstance]| {
        let ns: Vec<usize> = v.iter().map(datasets::QaoaInstance::n).collect();
        let ps: Vec<usize> = v.iter().map(|i| i.p).collect();
        (
            format!("{}-{}", ns.iter().min().unwrap(), ns.iter().max().unwrap()),
            format!(
                "{} to {}",
                ps.iter().min().unwrap(),
                ps.iter().max().unwrap()
            ),
        )
    };
    let (gn, gp) = span(&grid);
    table.row_owned(vec![
        "QAOA".into(),
        "Maxcut on Grid".into(),
        gn,
        gp,
        grid.len().to_string(),
        "CR".into(),
    ]);
    let (rn, rp) = span(&reg);
    table.row_owned(vec![
        "QAOA".into(),
        "Maxcut on 3-Reg Graphs".into(),
        rn,
        rp,
        reg.len().to_string(),
        "CR".into(),
    ]);
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\ntrials per circuit: {}",
        datasets::trials(true, false)
    );
    out
}

/// Table 2: the IBM benchmark inventory.
#[must_use]
pub fn table2() -> String {
    let mut out = section(
        "table2",
        "NISQ benchmarks on the (synthetic) IBM machines",
        "BV 5-15 qubits (88 circuits, PST/IST), QAOA 3-regular and random \
         graphs 5-20 qubits at p in {2,4} (70 circuits each, CR)",
    );
    let bv = datasets::ibm_bv_suite(false);
    let reg = datasets::ibm_qaoa_3reg_suite(false);
    let rand = datasets::ibm_qaoa_rand_suite(false);

    let mut table = Table::new(&[
        "name",
        "algorithm details",
        "#qubits",
        "p layers",
        "total circuits",
        "figure of merit",
    ]);
    let widths: Vec<usize> = bv.iter().map(|i| i.bench.num_data_qubits()).collect();
    table.row_owned(vec![
        "BV".into(),
        "Bernstein-Vazirani".into(),
        format!(
            "{}-{}",
            widths.iter().min().unwrap(),
            widths.iter().max().unwrap()
        ),
        "-".into(),
        bv.len().to_string(),
        "IST, PST".into(),
    ]);
    let span = |v: &[datasets::QaoaInstance]| {
        let ns: Vec<usize> = v.iter().map(datasets::QaoaInstance::n).collect();
        format!("{}-{}", ns.iter().min().unwrap(), ns.iter().max().unwrap())
    };
    table.row_owned(vec![
        "QAOA".into(),
        "Maxcut on 3-Reg Graphs".into(),
        span(&reg),
        "2 and 4".into(),
        reg.len().to_string(),
        "CR, PF".into(),
    ]);
    table.row_owned(vec![
        "QAOA".into(),
        "Maxcut Rand Graphs".into(),
        span(&rand),
        "2 and 4".into(),
        rand.len().to_string(),
        "CR, PF".into(),
    ]);
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nbackends: ibm-paris / ibm-manhattan / ibm-casablanca (heavy-hex, QV32-class); \
         trials per circuit: {}",
        datasets::trials(false, false)
    );
    out
}

/// A synthetic noisy distribution with exactly `unique` outcomes over
/// `n_bits`-bit strings (what a `trials`-shot job with that many unique
/// outcomes looks like to HAMMER).
fn synthetic_distribution(unique: usize, n_bits: usize, rng: &mut StdRng) -> Distribution {
    let mut keys = std::collections::HashSet::with_capacity(unique);
    let mask = if n_bits == 64 {
        u64::MAX
    } else {
        (1u64 << n_bits) - 1
    };
    while keys.len() < unique {
        keys.insert(rng.gen::<u64>() & mask);
    }
    let pairs = keys
        .into_iter()
        .map(|k| (BitString::new(k, n_bits), rng.gen::<f64>() + 1e-6));
    Distribution::from_probs(n_bits, pairs).expect("valid distribution")
}

/// Table 3: operation counts and measured single-run times of HAMMER.
#[must_use]
pub fn table3(quick: bool) -> String {
    let mut out = section(
        "table3",
        "HAMMER complexity: operations and measured runtime vs unique outcomes",
        "O(N^2) ops, O(n) memory; 64 G-ops at 256K unique outcomes; \
         independent of qubit count (paper reports identical counts for \
         n = 100 and n = 500)",
    );
    // The paper's rows: trials x unique-fraction.
    let rows: &[(u64, f64)] = if quick {
        &[(32_768, 0.1), (32_768, 1.0)]
    } else {
        &[(32_768, 0.1), (32_768, 1.0), (262_144, 0.1), (262_144, 1.0)]
    };
    // Our bitstrings cap at 64 bits; the op count is width-independent
    // (one XOR+POPCNT per pair regardless of n), which is exactly the
    // paper's point about n = 100 vs n = 500.
    let n_bits = 64;
    // The blocked/branchless/work-stealing kernel makes every row —
    // including the 256K-unique one the paper only extrapolates —
    // cheap enough to measure outright.
    let hammer = Hammer::new();
    let threads = hammer.threads();
    let mut table = Table::new(&[
        "trials",
        "unique outcomes",
        "ops (billions)",
        "time (s)",
        "throughput (Mpairs/s)",
    ]);
    let mut rng = StdRng::seed_from_u64(0x7AB3);
    for &(trials, frac) in rows {
        let unique = (trials as f64 * frac) as usize;
        let pairs = (unique as f64) * (unique as f64) * 2.0;
        let dist = synthetic_distribution(unique, n_bits, &mut rng);
        let start = Instant::now();
        let _ = hammer.reconstruct(&dist);
        let secs = start.elapsed().as_secs_f64();
        table.row_owned(vec![
            trials.to_string(),
            format!("{unique} ({:.0}%)", frac * 100.0),
            fnum(operation_count(unique as u64) as f64 / 1e9, 3),
            fnum(secs, 3),
            fnum(pairs / secs / 1e6, 1),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nevery row measured (blocked kernel, {threads} workers); memory: two \
         O(n/2) vectors (CHS + weights) -> well under 1 MB even at 500 qubits; \
         see also `repro bench-kernel`"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_inventories() {
        let t1 = table1();
        assert!(t1.contains("120"));
        assert!(t1.contains("200"));
        let t2 = table2();
        assert!(t2.contains("88"));
        assert!(t2.contains("70"));
    }

    #[test]
    fn synthetic_distribution_has_exact_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = synthetic_distribution(500, 64, &mut rng);
        assert_eq!(d.len(), 500);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table3_quick_measures() {
        let t = table3(true);
        assert!(t.contains("throughput"));
    }
}
