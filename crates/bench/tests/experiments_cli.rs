//! The `experiments` binary's usage errors: exit 2, and nothing written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh results directory of this test's own.
fn results_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetsort-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_zero_host_size_is_a_usage_error() {
    let dir = results_dir("zero-host-size");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["host_fig04", "0"])
        .env("HETSORT_RESULTS", &dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least 1"), "{stderr}");
    assert!(written.is_empty(), "wrote {written:?}");
}
