//! Quickstart: train Env2Vec on one build chain and screen a new build.
//!
//! This is the smallest end-to-end use of the public API:
//!
//! 1. generate a synthetic telecom build chain,
//! 2. assemble dataframes (CFs ∪ EM ∪ RU-history, paper Table 2),
//! 3. train the Env2Vec model (FNN + GRU + environment embeddings),
//! 4. fit the chain's prediction-error distribution on its history,
//! 5. screen the new build with the γ·σ contextual anomaly rule.
//!
//! Run with: `cargo run --release -p env2vec --example quickstart`

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{history_error_distribution, Resource};
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic testing campaign: several build chains, the
    //    final build of some chains carries injected performance problems.
    let mut gen = TelecomConfig::small();
    gen.fault_fraction = 1.0; // make sure the demo chain has a problem
    let dataset = TelecomDataset::generate(gen);
    let window = 2;

    // 2. Training data: every chain's *historical* builds. The vocabulary
    //    grows as EM tuples are encoded.
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            frames.push(Dataframe::from_series(
                &ex.cf,
                &ex.cpu,
                &ex.labels.values(),
                window,
                &mut vocab,
            )?);
        }
    }
    let (train, val) = Dataframe::pooled_split(&frames, 0.15)?;
    println!(
        "training on {} rows from {} chains ({} EM features)",
        train.len(),
        dataset.chains.len(),
        vocab.num_features()
    );

    // 3. Train the single generic model.
    let (model, report) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val)?;
    println!(
        "trained: {} weights, best epoch {} (val MSE {:.4})",
        model.params().num_weights(),
        report.best_epoch,
        report.val_losses[report.best_epoch]
    );

    // 4–5. Screen one chain's new build.
    let chain = &dataset.chains[0];
    let dist = history_error_distribution(&model, chain, Resource::Cpu)?;
    println!(
        "chain {} error distribution: mu {:+.2}, sigma {:.2}",
        chain.id, dist.mean, dist.std_dev
    );

    let current = chain.current();
    let df = Dataframe::from_series_frozen(
        &current.cf,
        &current.cpu,
        &current.labels.values(),
        window,
        model.vocab(),
    )?;
    let predicted = model.predict(&df)?;
    let detector = AnomalyDetector::new(2.0);
    let alarms = detector.detect(&dist, &predicted, &df.target)?;

    println!(
        "\nscreening build {} on {} ({} ground-truth problems injected):",
        current.labels.build,
        chain.testbed,
        current.faults.len()
    );
    for a in &alarms {
        println!(
            "  ALARM timesteps {}..{}: observed {:.1}% CPU, predicted {:.1}%",
            a.start + window,
            a.end + window,
            a.observed_at_peak,
            a.predicted_at_peak
        );
    }
    if alarms.is_empty() {
        println!("  no anomalies at gamma = 2");
    }
    for f in &current.faults {
        println!(
            "  ground truth: {:?} at {}..{} (+{:.1} CPU points)",
            f.kind, f.start, f.end, f.magnitude
        );
    }
    Ok(())
}
