//! The `loadgen` binary's flag handling, run as a child process.

use std::process::Command;

#[test]
fn misspelt_flag_is_rejected_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--self-host",
            "--conections",
            "1",
            "--requests",
            "1",
            "--rows",
            "1",
        ])
        .output()
        .expect("loadgen runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --conections"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no storm may run");
}

#[test]
fn retired_batching_flags_are_rejected_with_usage() {
    for flag in ["--window-us", "--max-rows"] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(["--self-host", flag, "1", "--requests", "1", "--rows", "1"])
            .output()
            .expect("loadgen runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag}: no storm may run");
    }
}
