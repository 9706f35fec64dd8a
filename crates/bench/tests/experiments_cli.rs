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

/// Run `experiments args` into a fresh results directory and assert
/// a usage error naming `reason` that wrote nothing.
fn refused(name: &str, args: &[&str], reason: &str) {
    let dir = results_dir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("HETSORT_RESULTS", &dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn a_zero_host_size_is_a_usage_error() {
    refused("zero-host-size", &["host_fig04", "0"], "at least 1");
}

#[test]
fn a_size_above_the_host_bound_is_a_usage_error() {
    // Only the refusal runs: an accepted size this large would allocate
    // gigabytes.
    for (i, args) in [
        ["host_fig04", "200000001"],
        ["18446744073709551615", "host_fig06"],
    ]
    .iter()
    .enumerate()
    {
        refused(
            &format!("huge-host-size-{i}"),
            args,
            "must be at most 2e8 (got ",
        );
    }
}

#[test]
fn a_size_without_a_host_timed_entry_is_a_usage_error() {
    for (i, args) in [
        &["fig05", "7"][..],
        &["7", "all"],
        &["list", "host_fig04", "7"],
    ]
    .iter()
    .enumerate()
    {
        refused(
            &format!("unread-size-{i}"),
            args,
            "a size is read only by the host-timed entries",
        );
    }
}
