//! Whole-model persistence.
//!
//! §6 of the paper: "our Env2Vec model requires less than 10MB storage
//! space, for a file containing the environment embeddings and the DL
//! model". The saved document carries the configuration, the EM
//! vocabularies, the scaler statistics, and every weight matrix (the
//! embeddings live inside the parameter set). Loading rebuilds the layer
//! structure from the configuration and then restores the weights by
//! parameter name, verifying shapes.

use env2vec_linalg::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::config::Env2VecConfig;
use crate::model::{Env2VecModel, Scaler, TargetScaler};
use crate::vocab::EmVocabulary;

/// The on-disk model document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Format version for forward compatibility.
    pub format_version: u32,
    /// Model hyper-parameters.
    pub config: Env2VecConfig,
    /// EM vocabularies.
    pub vocab: EmVocabulary,
    /// Contextual-feature scaler.
    pub cf_scaler: Scaler,
    /// Target scaler.
    pub y_scaler: TargetScaler,
    /// Number of contextual features.
    pub num_cf: usize,
    /// All weights, including the embedding tables.
    pub params: env2vec_nn::ParamSet,
}

/// Current save-format version.
pub const FORMAT_VERSION: u32 = 1;

/// Serialises a trained model to JSON.
pub fn save_model(model: &Env2VecModel) -> String {
    let doc = SavedModel {
        format_version: FORMAT_VERSION,
        config: model.config,
        vocab: model.vocab().clone(),
        cf_scaler: model.cf_scaler.clone(),
        y_scaler: model.y_scaler,
        num_cf: model.num_cf(),
        params: model.params().clone(),
    };
    // envlint: allow(no-panic) — the vendored serializer has no error
    // paths for these plain data structures; a panic here means the
    // vendor stub itself is broken.
    serde_json::to_string(&doc).expect("model serialises infallibly")
}

/// Restores a model saved by [`save_model`].
///
/// Returns an error for malformed JSON, an unknown format version, or
/// weight shapes that do not match the rebuilt structure.
pub fn load_model(json: &str) -> Result<Env2VecModel> {
    let doc: SavedModel = serde_json::from_str(json).map_err(|_| Error::InvalidArgument {
        what: "malformed model JSON",
    })?;
    if doc.format_version != FORMAT_VERSION {
        return Err(Error::InvalidArgument {
            what: "unsupported model format version",
        });
    }
    let mut model = Env2VecModel::with_scalers(
        doc.config,
        doc.vocab,
        doc.num_cf,
        doc.cf_scaler,
        doc.y_scaler,
    )?;
    // Restore weights by name, enforcing shape agreement.
    let fresh = model.params().clone();
    let mut restored = env2vec_nn::ParamSet::new();
    for (_, name, value) in fresh.iter() {
        let saved_id = doc.params.find(name).ok_or(Error::InvalidArgument {
            what: "saved model is missing a parameter",
        })?;
        let saved = doc.params.value(saved_id);
        if saved.shape() != value.shape() {
            return Err(Error::ShapeMismatch {
                op: "load_model",
                lhs: value.shape(),
                rhs: saved.shape(),
            });
        }
        restored.add(name, saved.clone())?;
    }
    model.set_params(restored);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataframe::Dataframe;
    use env2vec_linalg::Matrix;

    fn trained_ish_model() -> (Env2VecModel, Dataframe) {
        let mut vocab = EmVocabulary::telecom();
        let cf = Matrix::from_fn(40, 3, |i, j| ((i + j) % 9) as f64);
        let ru: Vec<f64> = (0..40).map(|i| 30.0 + (i % 7) as f64).collect();
        let df = Dataframe::from_series(&cf, &ru, &["tb", "s", "tc", "b"], 2, &mut vocab).unwrap();
        let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).unwrap();
        (model, df)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (model, df) = trained_ish_model();
        let json = save_model(&model);
        let restored = load_model(&json).unwrap();
        assert_eq!(model.predict(&df).unwrap(), restored.predict(&df).unwrap());
        assert_eq!(
            model
                .environment_embedding(&["tb", "s", "tc", "b"])
                .unwrap(),
            restored
                .environment_embedding(&["tb", "s", "tc", "b"])
                .unwrap()
        );
    }

    #[test]
    fn saved_size_is_well_under_paper_limit() {
        // §6: "less than 10MB storage space".
        let (model, _) = trained_ish_model();
        let json = save_model(&model);
        assert!(
            json.len() < 10 * 1024 * 1024,
            "model file is {} bytes",
            json.len()
        );
    }

    #[test]
    fn rejects_malformed_and_wrong_version() {
        assert!(load_model("{not json").is_err());
        let (model, _) = trained_ish_model();
        let mut doc: SavedModel = serde_json::from_str(&save_model(&model)).unwrap();
        doc.format_version = 99;
        let json = serde_json::to_string(&doc).unwrap();
        assert!(load_model(&json).is_err());
    }

    #[test]
    fn round_trip_preserves_every_combination_mode() {
        use crate::config::Combination;
        for combination in [
            Combination::HadamardSum,
            Combination::Bilinear,
            Combination::MlpHead,
            Combination::NoEmbeddings,
        ] {
            let mut vocab = EmVocabulary::telecom();
            let cf = Matrix::from_fn(30, 3, |i, j| ((i + j) % 5) as f64);
            let ru: Vec<f64> = (0..30).map(|i| 20.0 + (i % 4) as f64).collect();
            let df =
                Dataframe::from_series(&cf, &ru, &["t", "s", "c", "b"], 2, &mut vocab).unwrap();
            let cfg = Env2VecConfig {
                combination,
                ..Env2VecConfig::fast()
            };
            let model = Env2VecModel::new(cfg, vocab, &df).unwrap();
            let restored = load_model(&save_model(&model)).unwrap();
            assert_eq!(
                model.predict(&df).unwrap(),
                restored.predict(&df).unwrap(),
                "{combination:?}"
            );
        }
    }

    #[test]
    fn rejects_missing_parameter() {
        let (model, _) = trained_ish_model();
        let mut doc: SavedModel = serde_json::from_str(&save_model(&model)).unwrap();
        doc.params = env2vec_nn::ParamSet::new();
        let json = serde_json::to_string(&doc).unwrap();
        assert!(load_model(&json).is_err());
    }
}
