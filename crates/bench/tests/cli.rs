//! `repro`'s argument handling, run as a child process on `table3`
//! (which needs no shared study, so each run takes milliseconds).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// The `preset: …, runs: …, seed: …` part of the header line.
fn header(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().unwrap_or_default();
    let start = first.find("preset:").expect("header names the preset");
    let end = first.find(", threads:").expect("header names the threads");
    first[start..end].to_string()
}

#[test]
fn seed_and_runs_override_the_preset_wherever_they_appear() {
    assert_eq!(
        header(&["--seed", "5", "--fast", "table3"]),
        "preset: fast, runs: 2, seed: 5"
    );
    assert_eq!(
        header(&["--runs", "7", "--fast", "table3"]),
        "preset: fast, runs: 7, seed: 9"
    );
    assert_eq!(
        header(&["--fast", "--seed", "5", "--runs", "7", "table3"]),
        "preset: fast, runs: 7, seed: 5"
    );
}

#[test]
fn the_last_preset_flag_picks_the_preset() {
    assert_eq!(
        header(&["--fast", "--full", "table3"]),
        "preset: standard, runs: 10, seed: 2020"
    );
    assert_eq!(
        header(&["--full", "--fast", "table3"]),
        "preset: fast, runs: 2, seed: 9"
    );
}

#[test]
fn retired_bench_flags_and_serve_are_unknown_arguments() {
    for args in [
        &["--fast", "--bench-json", "bench.json", "table3"][..],
        &["--fast", "--bench-history", ".", "table3"],
        &["--fast", "--bench-gate", "table3"],
        &["--fast", "serve"],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "repro {args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}
