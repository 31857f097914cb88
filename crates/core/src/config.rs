//! Env2Vec hyper-parameters.

use serde::{Deserialize, Serialize};

/// How the dense representation `v_d` combines with the concatenated
/// environment embedding `C` to produce the prediction.
///
/// §3.2 of the paper defaults to the sum of the element-wise product
/// (Equation 2) and notes two alternatives: "the prediction can be done
/// with an additional matrix R, i.e., `ŷ = v_d · R · C`; or ... using
/// additional neural network layers with the concatenated vector of `v_d`
/// and `C` as an input. Both approaches require more parameters to learn
/// but yield similar results." All three are implemented so the claim can
/// be checked (see the `ablation` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Combination {
    /// `ŷ = Σ (v_d ⊙ C)` — the paper's Equation 2 (default).
    HadamardSum,
    /// `ŷ = v_d · R · C` with a learned square matrix `R`.
    Bilinear,
    /// A small MLP over `[v_d, C]`.
    MlpHead,
    /// No `C` at all: a linear head on `v_d` — the paper's `RFNN`, "a
    /// variant of Env2Vec ... without using the embeddings of
    /// environments" (§4.1.3); trained on pooled data it is `RFNN_all`.
    NoEmbeddings,
}

/// Hyper-parameters of the Env2Vec model and its training loop.
///
/// Defaults follow the paper where it is explicit — embedding dimension 10
/// (§3.1), MSE loss with the Adam update rule and dropout + early stopping
/// (Appendix A.1), a short RU-history window (the paper tunes `n` in 1..9
/// and lands on 1–2 for the KDN data) — and use modest layer sizes
/// elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Env2VecConfig {
    /// Hidden width of the contextual-feature FNN (`v_fs` dimension).
    pub fnn_hidden: usize,
    /// GRU hidden width (`v_ts` dimension).
    pub gru_hidden: usize,
    /// Embedding dimension per EM feature (paper: 10).
    pub embedding_dim: usize,
    /// RU-history window length `n`.
    pub history_window: usize,
    /// Dropout rate on the FNN hidden layer during training.
    pub dropout: f64,
    /// Probability of replacing an EM value with `<unk>` during training,
    /// so the unknown embedding learns an "average environment" fallback
    /// and predictions stay sane for EM values never seen in training.
    pub unk_rate: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// RNG seed for initialisation, dropout and batching.
    pub seed: u64,
    /// How `v_d` combines with the environment embedding `C`.
    pub combination: Combination,
    /// Pool the GRU states with learned attention instead of keeping only
    /// the last hidden state — the extension the paper's §6 proposes
    /// ("incorporating the attention mechanism ... to learn relationships
    /// between metric values from previous timesteps").
    pub attention: bool,
}

impl Default for Env2VecConfig {
    fn default() -> Self {
        Env2VecConfig {
            fnn_hidden: 64,
            gru_hidden: 16,
            embedding_dim: 10,
            history_window: 2,
            dropout: 0.1,
            unk_rate: 0.03,
            learning_rate: 1e-3,
            batch_size: 64,
            max_epochs: 60,
            patience: 8,
            seed: 42,
            combination: Combination::HadamardSum,
            attention: false,
        }
    }
}

impl Env2VecConfig {
    /// A faster configuration for tests: smaller layers, fewer epochs.
    pub fn fast() -> Self {
        Env2VecConfig {
            fnn_hidden: 24,
            gru_hidden: 8,
            embedding_dim: 6,
            history_window: 2,
            dropout: 0.0,
            unk_rate: 0.03,
            learning_rate: 3e-3,
            batch_size: 64,
            max_epochs: 25,
            patience: 5,
            seed: 42,
            combination: Combination::HadamardSum,
            attention: false,
        }
    }

    /// Validates internal consistency.
    ///
    /// Returns a description of the first violated constraint, if any.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.fnn_hidden == 0 || self.gru_hidden == 0 || self.embedding_dim == 0 {
            return Err("layer widths must be positive");
        }
        if self.history_window == 0 {
            return Err("history window must be at least 1");
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)");
        }
        if !(0.0..1.0).contains(&self.unk_rate) {
            return Err("unk_rate must be in [0, 1)");
        }
        if self.learning_rate <= 0.0 {
            return Err("learning rate must be positive");
        }
        if self.max_epochs == 0 {
            return Err("training needs at least one epoch");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper_constants() {
        let c = Env2VecConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.embedding_dim, 10, "paper §3.1: dimension of 10");
        assert!(c.history_window >= 1 && c.history_window <= 9);
    }

    #[test]
    fn fast_config_is_valid() {
        assert!(Env2VecConfig::fast().validate().is_ok());
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = Env2VecConfig::default();
        let cases = [
            Env2VecConfig {
                fnn_hidden: 0,
                ..base
            },
            Env2VecConfig {
                history_window: 0,
                ..base
            },
            Env2VecConfig {
                dropout: 1.0,
                ..base
            },
            Env2VecConfig {
                dropout: -0.1,
                ..base
            },
            Env2VecConfig {
                learning_rate: 0.0,
                ..base
            },
            Env2VecConfig {
                unk_rate: 1.0,
                ..base
            },
            Env2VecConfig {
                max_epochs: 0,
                ..base
            },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn serde_round_trip() {
        let c = Env2VecConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: Env2VecConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
