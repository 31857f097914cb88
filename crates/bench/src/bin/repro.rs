//! `repro` — regenerates every table and figure of the Env2Vec paper.
//!
//! Usage:
//!
//! ```text
//! repro [--fast|--full] [--seed N] [--runs N] [--threads N] [--verbose]
//!       [--trace-out FILE] [--metrics-out FILE] [--profile-ops DIR]
//!       <experiment>...
//! repro all              # every experiment in paper order
//! repro report           # introspection report (quantiles + alarms)
//! ```
//!
//! Experiments: `fig1`, `table3`, `table4` (alias `kdn`), `fig3`,
//! `fig4`, `table5`, `table6`, `table7`, `fig6`, `timing`, `ablation`,
//! `finetune`, plus the `report` pseudo-experiment. The performance
//! record of the system is the separate `perfbench` package.
//!
//! `--fast` shrinks datasets/grids for a smoke run (minutes); the default
//! preset uses the paper's 125 build chains at reduced execution length;
//! `--full` additionally averages neural methods over 10 runs. The last
//! of `--fast`/`--full` picks the preset; `--seed` and `--runs` override
//! it wherever they appear.
//!
//! Parallelism: `--threads N` bounds how many threads run the
//! study's independent fits and chains (default: `ENV2VEC_THREADS` or
//! the machine's available parallelism). Results are bit-identical at
//! every thread count — see the `env2vec-par` determinism contract — so
//! the flag trades wall-clock only.
//!
//! Observability: `--trace-out FILE` dumps the run's hierarchical spans
//! as a Chrome trace (open in `chrome://tracing` or Perfetto);
//! `--metrics-out FILE` dumps the metrics registry in Prometheus text
//! exposition format; `--verbose` streams structured logfmt progress to
//! stderr. Every run ends with a timing summary table.
//!
//! Introspection: the registry is self-scraped into the telemetry TSDB
//! under the reserved `__introspect` environment after every experiment,
//! and the closed-loop self-monitor (threshold rules + the repo's own
//! HTM detector) runs over those series at the end of the run.
//! `--profile-ops DIR` enables the op-level tape profiler and writes a
//! ranked hot-op table (`hot_ops.txt`) plus flamegraph-ready collapsed
//! stacks (`tape.collapsed`).

use std::process::ExitCode;
use std::time::Instant;

use env2vec_eval::experiments::{
    ablation, fig1, fig3, fig4, fig6, finetune, table3, table4, table5, table6, table7, timing,
};
use env2vec_eval::telecom_study::TelecomStudy;
use env2vec_eval::EvalOptions;

/// Experiments in the paper's presentation order.
const ALL: [&str; 12] = [
    "fig1", "table3", "table4", "fig3", "fig4", "table5", "table6", "table7", "fig6", "timing",
    "ablation", "finetune",
];

const NEEDS_STUDY: [&str; 10] = [
    "fig1", "fig3", "fig4", "table5", "table6", "table7", "fig6", "timing", "ablation", "finetune",
];

fn usage() -> &'static str {
    "usage: repro [--fast|--full] [--seed N] [--runs N] [--threads N] [--verbose]\n\
     \x20            [--trace-out FILE] [--metrics-out FILE] [--profile-ops DIR] <experiment>...\n\
     experiments: fig1 table3 table4 (alias: kdn) fig3 fig4 table5 table6 table7 fig6 timing\n\
     \x20            ablation finetune | all; plus `report` (introspection report)"
}

/// Per-experiment outcome for the timing table.
struct ExperimentTiming {
    name: String,
    wall_seconds: f64,
}

fn main() -> ExitCode {
    let mut preset = EvalOptions::standard();
    let mut seed: Option<u64> = None;
    let mut runs: Option<usize> = None;
    let mut chosen: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut profile_ops: Option<String> = None;
    let mut want_report = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => preset = EvalOptions::fast(),
            "--full" => preset = EvalOptions::full(),
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = Some(n),
                None => {
                    eprintln!("--seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => runs = Some(n),
                None => {
                    eprintln!("--runs needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => env2vec_par::set_threads(n),
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--verbose" => env2vec_obs::set_verbose(true),
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => {
                    eprintln!("--metrics-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--profile-ops" => match args.next() {
                Some(dir) => profile_ops = Some(dir),
                None => {
                    eprintln!("--profile-ops needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "kdn" => chosen.push("table4".to_string()),
            "report" => want_report = true,
            "all" => chosen.extend(ALL.iter().map(|s| s.to_string())),
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if ALL.contains(&other) => chosen.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if chosen.is_empty() && !want_report {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let opts = EvalOptions {
        seed: seed.unwrap_or(preset.seed),
        runs: runs.unwrap_or(preset.runs),
        ..preset
    };
    if let Some(dir) = &profile_ops {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create --profile-ops dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
        env2vec_nn::profile::enable();
    }

    println!(
        "Env2Vec reproduction harness (preset: {}, runs: {}, seed: {}, threads: {})\n",
        if opts.fast { "fast" } else { "standard" },
        opts.runs,
        opts.seed,
        env2vec_par::max_threads(),
    );

    let run_span = env2vec_obs::collector().start(
        "repro/run".to_string(),
        vec![
            (
                "preset".to_string(),
                if opts.fast { "fast" } else { "standard" }.to_string(),
            ),
            ("seed".to_string(), opts.seed.to_string()),
        ],
    );

    // Build the shared telecom study once if any experiment needs it.
    let mut setup_seconds = None;
    let study = if chosen.iter().any(|c| NEEDS_STUDY.contains(&c.as_str())) {
        let t0 = Instant::now();
        let _setup_span = env2vec_obs::span!("repro/setup", chains = "telecom");
        println!("[setup] generating telecom dataset and training shared models...");
        env2vec_obs::info!("study build started"; seed = opts.seed);
        match TelecomStudy::build(&opts) {
            Ok(study) => {
                setup_seconds = Some(t0.elapsed().as_secs_f64());
                println!(
                    "[setup] done in {:.1} s ({} chains, {} timesteps, {} Env2Vec weights)\n",
                    t0.elapsed().as_secs_f64(),
                    study.dataset.chains.len(),
                    study.dataset.total_timesteps(),
                    study.env2vec.params().num_weights(),
                );
                Some(study)
            }
            Err(e) => {
                eprintln!("failed to build telecom study: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // Self-scrape: file the registry's state into the telemetry TSDB
    // under the reserved `__introspect` environment at deterministic
    // logical timestamps — once after setup, then after each experiment.
    // The TSDB's own stats are published as gauges first, so the engine's
    // health rides its own storage.
    let self_scrape = || {
        env2vec_obs::tsdb::publish_stats(
            env2vec_obs::metrics(),
            &env2vec_introspect::global_db().stats(),
        );
        env2vec_obs::scrape_into_with(
            env2vec_obs::metrics(),
            env2vec_introspect::global_db(),
            env2vec_introspect::next_tick(),
            &env2vec_introspect::introspect_labels(),
        );
    };
    self_scrape();

    let mut timings: Vec<ExperimentTiming> = Vec::new();
    for name in &chosen {
        let t0 = Instant::now();
        let result = {
            let _span = env2vec_obs::span!("repro/experiment", name = name);
            env2vec_obs::info!("experiment started"; name = name);
            // Name validation and NEEDS_STUDY mean `study` is always
            // `Some` here, but an error report beats a panic if the two
            // lists ever drift apart.
            let need_study = || {
                study
                    .as_ref()
                    .ok_or(env2vec_linalg::Error::InvalidArgument {
                        what: "experiment requires the telecom study",
                    })
            };
            match name.as_str() {
                "table3" => table3::run(&opts),
                "table4" => table4::run(&opts),
                "fig1" => need_study().and_then(fig1::run),
                "fig3" => need_study().and_then(fig3::run),
                "fig4" => need_study().and_then(fig4::run),
                "table5" => need_study().and_then(table5::run),
                "table6" => need_study().and_then(table6::run),
                "table7" => need_study().and_then(table7::run),
                "fig6" => need_study().and_then(fig6::run),
                "timing" => need_study().and_then(timing::run),
                "ablation" => need_study().and_then(ablation::run),
                "finetune" => need_study().and_then(finetune::run),
                _ => Err(env2vec_linalg::Error::InvalidArgument {
                    what: "unknown experiment name (validated above)",
                }),
            }
        };
        match result {
            Ok(text) => {
                let wall = t0.elapsed().as_secs_f64();
                println!("=== {name} ({wall:.1} s) ===\n");
                println!("{text}");
                timings.push(ExperimentTiming {
                    name: name.clone(),
                    wall_seconds: wall,
                });
                self_scrape();
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    drop(run_span);

    // End-of-run timing summary.
    println!("=== timing summary ===\n");
    if let Some(s) = setup_seconds {
        println!("  {:<12} {:>9.2} s", "[setup]", s);
    }
    for t in &timings {
        println!("  {:<12} {:>9.2} s", t.name, t.wall_seconds);
    }
    let total: f64 =
        timings.iter().map(|t| t.wall_seconds).sum::<f64>() + setup_seconds.unwrap_or(0.0);
    println!("  {:<12} {:>9.2} s", "total", total);

    // Final scrape, then the closed-loop self-monitor over everything
    // this run filed under `__introspect`.
    self_scrape();
    let alarms = env2vec_introspect::global_alarms();
    let raised = env2vec_introspect::SelfMonitor::new(env2vec_introspect::global_db()).run(alarms);
    if raised > 0 {
        println!("\nself-monitor: {raised} alarm(s) raised");
        for a in alarms.all() {
            println!("  {}", a.message);
        }
    } else {
        println!("\nself-monitor: no alarms — run health nominal");
    }

    if want_report {
        let tsdb_stats = env2vec_introspect::global_db().stats();
        println!(
            "\n{}",
            env2vec_introspect::report::render(
                &env2vec_obs::metrics().snapshot(),
                alarms,
                Some(&tsdb_stats),
            )
        );
    }

    if let Some(path) = trace_out {
        let trace = env2vec_obs::collector().to_chrome_trace();
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("failed to write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "\nwrote {} spans to {path} (open in chrome://tracing or Perfetto)",
            env2vec_obs::collector().len()
        );
    }
    if let Some(path) = metrics_out {
        let mut text = env2vec_obs::prometheus::render(env2vec_obs::metrics());
        // The TSDB's own latency histograms live outside the registry;
        // append them so the exposition file is the complete picture.
        text.push_str(&env2vec_obs::prometheus::render_snapshot(
            &env2vec_obs::tsdb::latency_samples(&env2vec_introspect::global_db().stats()),
        ));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Prometheus exposition snapshot to {path}");
    }
    if let Some(dir) = profile_ops {
        env2vec_nn::profile::disable();
        let stats = env2vec_nn::profile::snapshot();
        let table = env2vec_nn::profile::hot_op_table(&stats, 30);
        let stacks = env2vec_nn::profile::collapsed_stacks(&stats);
        for (name, contents) in [("hot_ops.txt", table), ("tape.collapsed", stacks)] {
            let path = format!("{dir}/{name}");
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "wrote op-level tape profile ({} sites) to {dir}/hot_ops.txt and {dir}/tape.collapsed",
            stats.len()
        );
    }
    ExitCode::SUCCESS
}
