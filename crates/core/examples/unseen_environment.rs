//! §4.3 / Figure 5: detecting problems in a previously unseen environment
//! by reusing learned environment embeddings.
//!
//! One chain is held out entirely: the model never sees any of its data.
//! Its EM tuple is nonetheless *constructible* from embeddings learned on
//! other chains (same testbed under a different SUT, same test case on a
//! different testbed, ...), so Env2Vec screens the execution immediately —
//! "while other approaches still need to collect new training data".
//!
//! Run with: `cargo run --release -p env2vec --example unseen_environment`

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = TelecomConfig::small();
    gen.fault_fraction = 1.0;
    let dataset = TelecomDataset::generate(gen);
    let window = 2;

    // Hold out chain 0 completely — the "new previously unseen
    // environment" of Figure 5.
    let held_out = &dataset.chains[0];
    println!(
        "held-out environment: <{}, {}, {}, {}>",
        held_out.testbed,
        held_out.sut,
        held_out.testcase,
        held_out.current().labels.build
    );

    // Train on everything else.
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in dataset.chains.iter().filter(|c| c.id != held_out.id) {
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
    let (model, _) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val)?;

    // Show the Figure 5 mix-and-match: which of the held-out tuple's
    // components were learned from *other* environments?
    let values = held_out.current().labels.values();
    let encoded = model.vocab().encode(&values);
    for (name, (value, idx)) in ["testbed", "sut", "testcase", "build"]
        .iter()
        .zip(values.iter().zip(&encoded))
    {
        println!(
            "  {name:<9} {value:<22} -> {}",
            if *idx == 0 {
                "UNKNOWN (falls back to the learned <unk> embedding)".to_string()
            } else {
                format!("embedding row {idx} learned from other chains")
            }
        );
    }

    // Screen the unseen execution: no per-environment history exists, so
    // the error distribution comes from the execution itself (§4.3).
    let current = held_out.current();
    let df =
        Dataframe::from_series_frozen(&current.cf, &current.cpu, &values, window, model.vocab())?;
    let predicted = model.predict(&df)?;
    let detector = AnomalyDetector::new(2.0);
    let alarms = detector.detect_unseen(&predicted, &df.target)?;

    println!(
        "\nscreening the unseen execution ({} injected problems):",
        current.faults.len()
    );
    for a in &alarms {
        let hits_truth = current
            .faults
            .iter()
            .any(|f| a.start + window < f.end + window && f.start < a.end + window);
        println!(
            "  ALARM t={}..{} observed {:.1}% vs predicted {:.1}% [{}]",
            a.start + window,
            a.end + window,
            a.observed_at_peak,
            a.predicted_at_peak,
            if hits_truth {
                "matches ground truth"
            } else {
                "false alarm"
            }
        );
    }
    if alarms.is_empty() {
        println!("  no alarms raised");
    }

    // Contrast: per-environment baselines are simply not applicable.
    println!(
        "\nRidge/Ridge_ts on this environment: N/A — no historical data to \
         train on (the paper's Table 6)."
    );
    Ok(())
}
