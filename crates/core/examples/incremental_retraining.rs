//! §4.3's closing loop: detect in an unseen environment, then absorb its
//! data by incremental retraining.
//!
//! A model trained without a target environment first screens it blind
//! (embeddings reused from similar environments, error distribution over
//! the execution itself). Once the environment's history is available,
//! [`env2vec::train::fine_tune_env2vec`] continues training on it — "This
//! problem is resolved by retraining Env2Vec incrementally with the new
//! data from the environment" — and the fit visibly improves.
//!
//! Run with: `cargo run --release -p env2vec --example incremental_retraining`

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::train::{fine_tune_env2vec, train_env2vec};
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};

fn mae(pred: &[f64], actual: &[f64]) -> f64 {
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / actual.len() as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = TelecomDataset::generate(TelecomConfig::small());
    let window = 2;

    // Hold out three chains entirely — the unseen environments.
    let held_out: Vec<usize> = vec![1, 2, 3];

    // Train the blind model on everything else.
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in dataset.chains.iter().filter(|c| !held_out.contains(&c.id)) {
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
    let (mut model, _) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val)?;

    // Phase 1: blind fit on the held-out chains' current builds.
    let score = |model: &env2vec::Env2VecModel| -> Result<f64, Box<dyn std::error::Error>> {
        let mut total = 0.0;
        for &id in &held_out {
            let current = dataset.chains[id].current();
            let df = Dataframe::from_series_frozen(
                &current.cf,
                &current.clean_cpu,
                &current.labels.values(),
                window,
                model.vocab(),
            )?;
            total += mae(&model.predict(&df)?, &df.target);
        }
        Ok(total / held_out.len() as f64)
    };
    let before = score(&model)?;
    println!("blind model, unseen environments: mean MAE {before:.3} CPU points");

    // Phase 2: their history becomes available — retrain incrementally.
    let mut new_frames = Vec::new();
    for &id in &held_out {
        for ex in dataset.chains[id].history() {
            new_frames.push(Dataframe::from_series_frozen(
                &ex.cf,
                &ex.cpu,
                &ex.labels.values(),
                window,
                model.vocab(),
            )?);
        }
    }
    let (new_train, new_val) = Dataframe::pooled_split(&new_frames, 0.2)?;
    let report = fine_tune_env2vec(&mut model, 20, 3e-3, &new_train, &new_val)?;
    let after = score(&model)?;
    println!(
        "after incremental retraining ({} epochs, best val MSE {:.5}): mean MAE {after:.3}",
        report.val_losses.len(),
        report.val_losses[report.best_epoch],
    );
    println!(
        "improvement: {:.1}% — the §4.3 loop closes without retraining from scratch.",
        100.0 * (before - after) / before
    );
    Ok(())
}
