//! `hetsort … | head -1`: a reader that closes stdout early is not an
//! error. Every subcommand prints through one writer whose
//! `BrokenPipe` is exit 0.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_exit_zero_without_a_panic() {
    let cases: [&[&str]; 3] = [
        &["help"],
        &["dag", "-n", "2e9", "-a", "pipemerge", "-p", "p2"],
        // Larger than any pipe buffer: even a child that starts writing
        // before the reader is gone blocks until it is, then sees EPIPE.
        &["trace", "-n", "2e9", "-a", "pipemerge", "--chrome", "-"],
    ];
    for args in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hetsort"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hetsort");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for hetsort");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
