//! The host record printed with every result, so figures from different
//! machines and builds are never compared blind.

use std::path::Path;
use std::process::Command;

/// `(field, value)` pairs describing the machine and the build.
#[must_use]
pub fn record() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (rev, dirty) = git_state();
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("target_features", target_features().join(" ")),
        ("rustflags", env!("PERFBENCH_RUSTFLAGS").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_rev", rev),
        ("git_dirty", dirty),
    ]
}

/// The popcount-relevant target features compiled in.
fn target_features() -> Vec<&'static str> {
    let mut on = Vec::new();
    if cfg!(target_feature = "popcnt") {
        on.push("popcnt");
    }
    if cfg!(target_feature = "avx2") {
        on.push("avx2");
    }
    if cfg!(target_feature = "avx512vpopcntdq") {
        on.push("avx512vpopcntdq");
    }
    if on.is_empty() {
        on.push("none");
    }
    on
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Revision and dirty flag of the checkout holding the benchmark, or
/// `unknown` when it is not a git work tree. Git is pointed at this
/// checkout's own `.git` only, never at an enclosing repository.
fn git_state() -> (String, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root");
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return ("unknown".into(), "unknown".into());
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("--no-optional-locks")
            .arg(format!("--git-dir={}", git_dir.display()))
            .arg(format!("--work-tree={}", root.display()))
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or_else(|| "unknown".into(), |s| (!s.is_empty()).to_string());
    (rev, dirty)
}
