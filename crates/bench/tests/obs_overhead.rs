//! The `bench-obs --quick` sweep, end to end, in a process of its own.
//!
//! `obs_bench::run(true)` asserts the <2% hot-path overhead rows and
//! flips the process-global timing switch between rounds. Run next to
//! the other bench tests it would share the CPUs with them, and a
//! sibling reading or flipping the switch would perturb its rounds, so
//! it lives alone in this test binary.

use hammer_bench::obs_bench::run;
use hammer_bench::report::{assert_same_schema, Cell};

#[test]
fn quick_sweep_runs_end_to_end() {
    let artifact = run(true);
    assert_eq!(artifact.row_count(), 3);
    for row in 0..3 {
        for key in ["off_ops_per_sec", "on_ops_per_sec"] {
            let ops = artifact.cell(row, key).and_then(Cell::as_f64);
            assert!(ops.expect("numeric cell") > 0.0);
        }
    }
    assert!(
        hammer_obs::timing_enabled(),
        "the sweep must leave timing enabled"
    );
    let json = artifact.to_json();
    assert!(json.contains("\"artifact\": \"BENCH_obs\""));
    assert!(json.contains("\"overhead_pct\""));
    assert_same_schema(&json, include_str!("../../../BENCH_obs.json"));
    assert!(artifact.render().contains("overhead"));
}
