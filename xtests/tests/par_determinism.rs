//! Tier-1 determinism: the parallel execution layer must be
//! numerically invisible.
//!
//! `env2vec-par` fans out whole jobs only, and the numeric kernels under
//! one training run are sequential, so training must never read the
//! thread count. This test pins that: training one small Env2Vec model
//! produces bit-identical weights and predictions with a limit of 1
//! worker and of 4.

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};

fn small_dataset() -> TelecomDataset {
    let mut cfg = TelecomConfig::small();
    cfg.num_chains = 4;
    TelecomDataset::generate(cfg)
}

/// Trains a model and returns its serialised weights plus validation
/// predictions. Everything is seeded, so two calls differ only through
/// the execution layer under test.
fn train_and_predict(dataset: &TelecomDataset) -> (String, Vec<f64>) {
    let window = 2;
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            frames.push(
                Dataframe::from_series(&ex.cf, &ex.cpu, &ex.labels.values(), window, &mut vocab)
                    .unwrap(),
            );
        }
    }
    let (train, val) = Dataframe::pooled_split(&frames, 0.15).unwrap();
    let mut cfg = Env2VecConfig::fast();
    // Wide enough that the batch × features × hidden products take the
    // packed GEMM path.
    cfg.fnn_hidden = 128;
    cfg.max_epochs = 6;
    let model = train_env2vec(cfg, vocab, &train, &val).unwrap().0;
    let preds = model.predict(&val).unwrap();
    (model.params().to_json(), preds)
}

#[test]
fn env2vec_training_is_bit_identical_across_thread_counts() {
    let dataset = small_dataset();
    let (weights_1, preds_1) = env2vec_par::with_thread_limit(1, || train_and_predict(&dataset));
    let (weights_4, preds_4) = env2vec_par::with_thread_limit(4, || train_and_predict(&dataset));
    assert_eq!(
        weights_1, weights_4,
        "trained weights diverged between 1 and 4 threads"
    );
    assert!(!preds_1.is_empty(), "validation frame must not be empty");
    assert_eq!(preds_1.len(), preds_4.len());
    for (i, (a, b)) in preds_1.iter().zip(&preds_4).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "prediction {i} diverged: {a} vs {b}"
        );
    }
}
