//! A short pass of all three workloads against a live server: every
//! reply must pass its correctness check.
//!
//! The server binary is taken from `PERFBENCH_SERVER` when set;
//! otherwise `slope-pmc` is built from the repository in release mode.

use perfbench::traced;
use perfbench::workloads::{self, Options, Workload};
use std::path::PathBuf;
use std::process::Command;

fn target_dir() -> PathBuf {
    // <target>/<profile>/deps/<test binary>
    let exe = std::env::current_exe().expect("test binary path");
    exe.ancestors()
        .nth(3)
        .expect("target directory")
        .to_path_buf()
}

fn server_binary() -> PathBuf {
    if let Some(path) = std::env::var_os("PERFBENCH_SERVER") {
        return PathBuf::from(path);
    }
    let target = target_dir().join("smoke-server");
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "pmca-cli",
            "--bin",
            "slope-pmc",
        ])
        .current_dir(&repo)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building slope-pmc failed");
    target.join("release").join("slope-pmc")
}

#[test]
fn all_three_workloads_pass_their_checks() {
    let server = server_binary();
    let work_dir = target_dir().join("perfbench-smoke");
    std::fs::create_dir_all(&work_dir).unwrap();
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: 5,
            seconds: 0.5,
            server: server.clone(),
            work_dir: work_dir.clone(),
        };
        let mut setup = workloads::setup(&opts, 0).unwrap();
        let phase =
            workloads::timed_phase(workload, &mut setup, opts.seed, opts.seconds, false).unwrap();
        assert!(phase.ops > 0, "{}: no ops", workload.name());
        // failed_ratio = 0: every attempted op succeeded and passed its check.
        assert_eq!(
            phase.ops,
            phase.attempted,
            "{}: {:?}",
            workload.name(),
            phase.tally
        );
        assert_eq!(phase.tally.failed, 0);
        if workload == Workload::EstimateBatchRf {
            let misses = phase.after.delta(&phase.before, "pmca_cache_misses_total");
            assert_eq!(misses.value(), Some(0.0), "cache.hit_ratio must be 1");
        }
        if workload == Workload::StreamFleet {
            let err = workloads::model_err_pct(&mut setup, opts.seed).unwrap();
            assert!(err.is_finite() && err < 50.0, "model error {err}%");
        }
        let inproc = traced::run(workload, &setup, opts.seed).unwrap();
        assert!(inproc.breakdown.ops > 0);
        assert_eq!(inproc.breakdown.rows.last().unwrap().name, "other");
    }
    workloads::clean(&work_dir);
}
