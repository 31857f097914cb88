//! The `env2vec` binary's flag handling, run as a child process.

use std::process::Command;

#[test]
fn misspelt_flag_is_rejected_and_nothing_is_written() {
    let out_path =
        std::env::temp_dir().join(format!("env2vec-misspelt-flag-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_env2vec"))
        .args(["generate", "--preset", "small", "--sed", "5", "--out"])
        .arg(&out_path)
        .output()
        .expect("env2vec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --sed"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!out_path.exists(), "no dataset may be written");
}
