//! `repro`'s argument handling, run as a child process on `table3`
//! (which needs no shared study, so each run takes milliseconds), and
//! the self-telemetry its report shows.

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
        &["--fast", "tsdb"],
        &["--fast", "gemm"],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "repro {args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

/// The `series=`, `samples=` and `inserts=` totals of the report's
/// `tsdb storage engine:` section.
fn tsdb_totals(stdout: &str) -> (u64, u64, u64) {
    let section = stdout
        .split("tsdb storage engine:\n")
        .nth(1)
        .expect("report has the tsdb section");
    let line = section.lines().next().unwrap_or_default();
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
    };
    (field("series"), field("samples"), field("inserts"))
}

#[test]
fn report_and_metrics_out_show_the_tsdb_without_shards() {
    let path = std::env::temp_dir().join(format!("repro-metrics-out-{}.prom", std::process::id()));
    let out = repro(&[
        "--fast",
        "--metrics-out",
        path.to_str().expect("utf-8 temp path"),
        "table3",
        "report",
    ]);
    let exposition = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let section = stdout
        .split("tsdb storage engine:\n")
        .nth(1)
        .expect("report has the tsdb section");
    assert!(
        section
            .lines()
            .next()
            .is_some_and(|l| l.trim_start().starts_with("series=") && l.contains(" samples=")),
        "{section}"
    );
    assert!(!section.contains("shard"), "{section}");
    assert!(!section.contains("sealed_chunks="), "{section}");
    // table3 trains nothing, so no self-telemetry is filed.
    let (series, samples, _) = tsdb_totals(&stdout);
    assert_eq!((series, samples), (0, 0), "{section}");
    let exposition = exposition.expect("metrics file written");
    for gauge in ["inserts", "queries", "series", "samples"] {
        assert!(
            exposition.contains(&format!("# TYPE tsdb_{gauge} gauge\n")),
            "tsdb_{gauge} missing: {exposition}"
        );
    }
    assert!(exposition.contains("# TYPE tsdb_append_seconds histogram"));
    assert!(exposition.contains("# TYPE tsdb_query_range_seconds histogram"));
    // One sorted vector per series: no shards, sealed chunks,
    // compression, out-of-order counter or instant queries to report.
    for gone in [
        "tsdb_shard_",
        "tsdb_sealed_",
        "tsdb_compression_ratio",
        "tsdb_out_of_order_inserts",
        "tsdb_query_instant_seconds",
    ] {
        assert!(!exposition.contains(gone), "{gone}: {exposition}");
    }
}

#[test]
fn only_the_training_observer_writes_self_telemetry() {
    let out = repro(&["--fast", "fig3", "report"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The study's four trainings × the observer's eight per-epoch
    // curves, each point written once: nothing overwrites a curve.
    let (series, samples, inserts) = tsdb_totals(&stdout);
    assert_eq!(series, 32, "{stdout}");
    assert_eq!(samples, inserts, "{stdout}");
    assert!(stdout.contains("self-monitor: no alarms"), "{stdout}");
}
