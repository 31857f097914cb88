//! The Env2Vec model.
//!
//! [`Env2VecModel`] implements the architecture of §3.1–§3.2: an FNN over
//! the contextual features (`v_fs`), a GRU over the RU history (`v_ts`), a
//! dense layer mapping `[v_ts, v_fs]` to `v_d`, and per-EM-feature lookup
//! tables whose concatenation `C` combines with `v_d` through the paper's
//! Equation 2, `ŷ = Σ (v_d ⊙ C)`.
//!
//! With [`Combination::NoEmbeddings`] the same model is "a variant of
//! Env2Vec ... without using the embeddings of environments" (§4.1.3):
//! the FNN+GRU front end with a regression head on the dense layer and no
//! lookup tables. Trained per environment it is the paper's `RFNN`;
//! trained on pooled data it is `RFNN_all`.

pub use env2vec_linalg::Scaler;
use env2vec_linalg::{Error, Matrix, Result};
use env2vec_nn::graph::{Graph, NodeId};
use env2vec_nn::layers::{dropout_mask, Activation, AttentionPool, Dense, Embedding, GruCell};
use env2vec_nn::params::{Bound, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::{Combination, Env2VecConfig};
use crate::dataframe::Dataframe;
use crate::vocab::EmVocabulary;

/// Initialiser for the bilinear combination matrix: near-identity so the
/// Bilinear mode starts close to the Hadamard behaviour.
pub(crate) fn model_init_bilinear(rng: &mut StdRng, dim: usize) -> Matrix {
    let mut m = env2vec_nn::init::uniform(rng, dim, dim, 0.02);
    for i in 0..dim {
        let v = m.get(i, i) + 1.0;
        m.set(i, i, v);
    }
    m
}

/// Scalar standardisation for the target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetScaler {
    /// Target mean.
    pub mean: f64,
    /// Target standard deviation (1 when degenerate).
    pub std: f64,
}

impl TargetScaler {
    /// Fits on a target vector.
    ///
    /// Returns an error for empty input.
    pub fn fit(y: &[f64]) -> Result<Self> {
        if y.is_empty() {
            return Err(Error::Empty {
                routine: "target scaler fit",
            });
        }
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64;
        let std = var.sqrt();
        Ok(TargetScaler {
            mean,
            // envlint: allow(float-cmp) — exact zero-guard: a constant target
            // has std identically 0.0 and must not become a divisor.
            std: if std == 0.0 { 1.0 } else { std },
        })
    }

    /// Standardises one value.
    pub fn scale(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Inverts the standardisation.
    pub fn unscale(&self, y: f64) -> f64 {
        y * self.std + self.mean
    }
}

/// The layers implementing the configured [`Combination`] mode.
#[derive(Debug, Clone)]
enum CombinationLayers {
    /// Equation 2: no extra parameters.
    HadamardSum,
    /// Learned square matrix `R`.
    Bilinear { r: env2vec_nn::ParamId },
    /// Hidden + output layers over `[v_d, C]`.
    MlpHead { hidden: Dense, out: Dense },
    /// A linear regression head on `v_d` alone (RFNN).
    NoEmbeddings { head: Dense },
}

/// The Env2Vec deep-learning model.
#[derive(Debug, Clone)]
pub struct Env2VecModel {
    /// Hyper-parameters the model was built with.
    pub config: Env2VecConfig,
    pub(crate) params: ParamSet,
    fnn: Dense,
    gru: GruCell,
    dense: Dense,
    embeddings: Vec<Embedding>,
    combination: CombinationLayers,
    attention: Option<AttentionPool>,
    vocab: EmVocabulary,
    pub(crate) cf_scaler: Scaler,
    pub(crate) y_scaler: TargetScaler,
    num_cf: usize,
}

impl Env2VecModel {
    /// Creates an untrained model.
    ///
    /// `vocab` must already contain every EM value of the training data
    /// (embedding-table sizes are fixed here); `train` provides the
    /// scaler statistics. Returns an error for invalid configuration or
    /// empty training data.
    pub fn new(config: Env2VecConfig, vocab: EmVocabulary, train: &Dataframe) -> Result<Self> {
        if train.is_empty() {
            return Err(Error::Empty {
                routine: "Env2VecModel::new",
            });
        }
        let cf_scaler = Scaler::fit(&train.cf)?;
        let y_scaler = TargetScaler::fit(&train.target)?;
        Self::with_scalers(config, vocab, train.cf.cols(), cf_scaler, y_scaler)
    }

    /// Creates an untrained model from explicit scaler statistics (used by
    /// deserialisation, which must rebuild the exact layer structure).
    ///
    /// Returns an error for an invalid configuration.
    pub(crate) fn with_scalers(
        config: Env2VecConfig,
        vocab: EmVocabulary,
        num_cf: usize,
        cf_scaler: Scaler,
        y_scaler: TargetScaler,
    ) -> Result<Self> {
        config
            .validate()
            .map_err(|what| Error::InvalidArgument { what })?;
        let k = vocab.num_features();
        let c_dim = k * config.embedding_dim;
        // RFNN has no lookup tables. Its v_d is a sigmoid layer four
        // embeddings wide (Env2Vec's C width on the four telecom EM
        // features) for every vocabulary, so its capacity and published
        // scores do not move with k.
        let (num_tables, v_d_dim, v_d_activation) = match config.combination {
            Combination::NoEmbeddings => (0, 4 * config.embedding_dim, Activation::Sigmoid),
            _ => (k, c_dim, Activation::Linear),
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let fnn = Dense::new(
            &mut params,
            &mut rng,
            "fnn",
            num_cf,
            config.fnn_hidden,
            Activation::Sigmoid,
        )?;
        let gru = GruCell::new(
            &mut params,
            &mut rng,
            "gru",
            1,
            config.gru_hidden,
            Activation::Relu,
        )?;
        let dense = Dense::new(
            &mut params,
            &mut rng,
            "dense",
            config.gru_hidden + config.fnn_hidden,
            v_d_dim,
            v_d_activation,
        )?;
        let embeddings = (0..num_tables)
            .map(|f| {
                Embedding::new(
                    &mut params,
                    &mut rng,
                    &format!("em.{}", vocab.feature_names()[f]),
                    vocab.feature(f).len(),
                    config.embedding_dim,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let attention = if config.attention {
            Some(AttentionPool::new(
                &mut params,
                &mut rng,
                "attn",
                config.gru_hidden,
            )?)
        } else {
            None
        };
        let combination = match config.combination {
            Combination::HadamardSum => CombinationLayers::HadamardSum,
            Combination::Bilinear => CombinationLayers::Bilinear {
                r: params.add("comb.r", model_init_bilinear(&mut rng, c_dim))?,
            },
            Combination::MlpHead => CombinationLayers::MlpHead {
                hidden: Dense::new(
                    &mut params,
                    &mut rng,
                    "comb.hidden",
                    2 * c_dim,
                    c_dim,
                    Activation::Sigmoid,
                )?,
                out: Dense::new(
                    &mut params,
                    &mut rng,
                    "comb.out",
                    c_dim,
                    1,
                    Activation::Linear,
                )?,
            },
            Combination::NoEmbeddings => CombinationLayers::NoEmbeddings {
                head: Dense::new(
                    &mut params,
                    &mut rng,
                    "head",
                    v_d_dim,
                    1,
                    Activation::Linear,
                )?,
            },
        };
        Ok(Env2VecModel {
            config,
            params,
            fnn,
            gru,
            dense,
            embeddings,
            combination,
            attention,
            vocab,
            cf_scaler,
            y_scaler,
            num_cf,
        })
    }

    /// The EM vocabulary the model was trained with.
    pub fn vocab(&self) -> &EmVocabulary {
        &self.vocab
    }

    /// Number of contextual features expected per row.
    pub fn num_cf(&self) -> usize {
        self.num_cf
    }

    /// Learned parameters (for inspection and persistence).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Replaces the parameter values (used by training to restore the
    /// best epoch).
    pub(crate) fn set_params(&mut self, params: ParamSet) {
        self.params = params;
    }

    /// Builds the forward graph for a batch, returning the *scaled*
    /// prediction node.
    ///
    /// With `dropout_rng` set, inverted dropout is applied to the FNN
    /// hidden output (training mode).
    pub(crate) fn forward(
        &self,
        graph: &mut Graph,
        bound: &Bound,
        batch: &Dataframe,
        mut dropout_rng: Option<&mut StdRng>,
    ) -> Result<NodeId> {
        let b = batch.len();
        if b == 0 {
            return Err(Error::Empty { routine: "forward" });
        }
        // FNN branch.
        let cf_scaled = self.cf_scaler.transform(&batch.cf)?;
        let cf = graph.constant(cf_scaled);
        let mut v_fs = self.fnn.forward(graph, bound, cf)?;
        if let Some(rng) = dropout_rng.as_deref_mut() {
            if self.config.dropout > 0.0 {
                let mask = dropout_mask(rng, b, self.config.fnn_hidden, self.config.dropout)?;
                v_fs = graph.dropout(v_fs, mask)?;
            }
        }
        // GRU branch over the scaled history, oldest first.
        let steps: Vec<NodeId> = (0..batch.history.cols())
            .map(|t| {
                let col: Vec<f64> = (0..b)
                    .map(|i| self.y_scaler.scale(batch.history.get(i, t)))
                    .collect();
                graph.constant(Matrix::col_vector(&col))
            })
            .collect();
        let v_ts = match &self.attention {
            None => self.gru.run_sequence(graph, bound, &steps)?,
            Some(pool) => {
                let states = self.gru.run_sequence_all(graph, bound, &steps)?;
                pool.forward(graph, bound, &states)?
            }
        };

        // v_s = [v_ts, v_fs] → dense → v_d.
        let v_s = graph.concat_cols(&[v_ts, v_fs])?;
        let v_d = self.dense.forward(graph, bound, v_s)?;

        // C = [ec¹, …, ecᵏ], looked up by the modes that use it. During
        // training, a small fraction of EM values is replaced with <unk>
        // so the unknown embedding learns a usable average-environment
        // fallback (used at inference for EM values outside the
        // vocabulary).
        let mut environment = |graph: &mut Graph| -> Result<NodeId> {
            let mut parts: Vec<NodeId> = Vec::with_capacity(self.embeddings.len());
            for (f, emb) in self.embeddings.iter().enumerate() {
                let mut idx: Vec<usize> = batch.em.iter().map(|row| row[f]).collect();
                if let Some(rng) = dropout_rng.as_deref_mut() {
                    if self.config.unk_rate > 0.0 {
                        use rand::Rng;
                        for i in &mut idx {
                            if rng.gen::<f64>() < self.config.unk_rate {
                                *i = crate::vocab::FeatureVocab::UNK;
                            }
                        }
                    }
                }
                parts.push(emb.lookup(graph, bound, &idx)?);
            }
            graph.concat_cols(&parts)
        };

        match &self.combination {
            // ŷ = Σ (v_d ⊙ C), Equation 2.
            CombinationLayers::HadamardSum => {
                let c = environment(graph)?;
                let prod = graph.mul(v_d, c)?;
                Ok(graph.row_sums(prod))
            }
            // ŷ = v_d · R · C, batched as Σ ((v_d R) ⊙ C) per row.
            CombinationLayers::Bilinear { r } => {
                let c = environment(graph)?;
                let vr = graph.matmul(v_d, bound.node(*r))?;
                let prod = graph.mul(vr, c)?;
                Ok(graph.row_sums(prod))
            }
            // An MLP over the concatenated [v_d, C].
            CombinationLayers::MlpHead { hidden, out } => {
                let c = environment(graph)?;
                let joined = graph.concat_cols(&[v_d, c])?;
                let h = hidden.forward(graph, bound, joined)?;
                out.forward(graph, bound, h)
            }
            // RFNN: ŷ = head(v_d). No EM lookup, so no <unk> draw moves
            // the dropout RNG.
            CombinationLayers::NoEmbeddings { head } => head.forward(graph, bound, v_d),
        }
    }

    /// Predicts RU values for every row of a dataframe.
    ///
    /// Returns an error on shape mismatch.
    pub fn predict(&self, batch: &Dataframe) -> Result<Vec<f64>> {
        let mut graph = Graph::new();
        let bound = self.params.bind(&mut graph);
        let pred = self.forward(&mut graph, &bound, batch, None)?;
        Ok(graph
            .value(pred)
            .col_iter(0)
            .map(|v| self.y_scaler.unscale(v))
            .collect())
    }

    /// The concatenated environment embedding `C` for an EM value tuple,
    /// read from the current parameters (used for the Figure 6
    /// visualisation and the unseen-environment analysis).
    ///
    /// Unknown values contribute the `<unk>` embedding; a
    /// [`Combination::NoEmbeddings`] model has none, so its `C` is empty.
    /// Returns an error when the tuple width is wrong.
    pub fn environment_embedding(&self, em_values: &[&str]) -> Result<Vec<f64>> {
        if em_values.len() != self.vocab.num_features() {
            return Err(Error::ShapeMismatch {
                op: "environment_embedding",
                lhs: (em_values.len(), 1),
                rhs: (self.vocab.num_features(), 1),
            });
        }
        let encoded = self.vocab.encode(em_values);
        let mut out = Vec::with_capacity(self.vocab.num_features() * self.config.embedding_dim);
        for (f, emb) in self.embeddings.iter().enumerate() {
            out.extend_from_slice(emb.vector(&self.params, encoded[f])?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_frame(n: usize, em: &[&str], vocab: &mut EmVocabulary) -> Dataframe {
        let cf = Matrix::from_fn(n, 3, |i, j| (i * (j + 1)) as f64 * 0.1);
        let ru: Vec<f64> = (0..n)
            .map(|i| 40.0 + (i as f64 * 0.7).sin() * 10.0)
            .collect();
        Dataframe::from_series(&cf, &ru, em, 2, vocab).unwrap()
    }

    #[test]
    fn untrained_model_predicts_finite_values() {
        let mut vocab = EmVocabulary::telecom();
        let df = toy_frame(30, &["tb", "s", "tc", "b"], &mut vocab);
        let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).unwrap();
        let pred = model.predict(&df).unwrap();
        assert_eq!(pred.len(), df.len());
        assert!(pred.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn prediction_depends_on_environment() {
        let mut vocab = EmVocabulary::telecom();
        let a = toy_frame(30, &["tb1", "s", "tc", "b"], &mut vocab);
        let b = toy_frame(30, &["tb2", "s", "tc", "b"], &mut vocab);
        let train = Dataframe::concat(&[a.clone(), b.clone()]).unwrap();
        let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &train).unwrap();
        // Identical CFs/history but different EM tuple → different output.
        let pa = model.predict(&a).unwrap();
        let pb = model.predict(&b).unwrap();
        assert_ne!(pa, pb);
    }

    #[test]
    fn environment_embedding_dimension_and_unk() {
        let mut vocab = EmVocabulary::telecom();
        let df = toy_frame(20, &["tb", "s", "tc", "b"], &mut vocab);
        let cfg = Env2VecConfig::fast();
        let model = Env2VecModel::new(cfg, vocab, &df).unwrap();
        let e = model
            .environment_embedding(&["tb", "s", "tc", "b"])
            .unwrap();
        assert_eq!(e.len(), 4 * cfg.embedding_dim);
        // Unknown testbed reuses the <unk> row but keeps the other three
        // learned components (the Figure 5 mix-and-match).
        let mixed = model
            .environment_embedding(&["NEW", "s", "tc", "b"])
            .unwrap();
        assert_eq!(
            e[cfg.embedding_dim..],
            mixed[cfg.embedding_dim..],
            "shared features must reuse their embeddings"
        );
        assert_ne!(e[..cfg.embedding_dim], mixed[..cfg.embedding_dim]);
        assert!(model.environment_embedding(&["just-one"]).is_err());
    }

    #[test]
    fn rfnn_predicts_and_ignores_environment() {
        let mut vocab = EmVocabulary::telecom();
        let a = toy_frame(30, &["tb1", "s", "tc", "b"], &mut vocab);
        let b = toy_frame(30, &["tb2", "s", "tc", "b"], &mut vocab);
        let train = Dataframe::concat(&[a.clone(), b.clone()]).unwrap();
        let cfg = Env2VecConfig {
            combination: Combination::NoEmbeddings,
            ..Env2VecConfig::fast()
        };
        let model = Env2VecModel::new(cfg, vocab, &train).unwrap();
        let pa = model.predict(&a).unwrap();
        assert_eq!(pa.len(), a.len());
        assert!(pa.iter().all(|p| p.is_finite()));
        // Identical CFs/history under two EM tuples → the same bits.
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pa), bits(&model.predict(&b).unwrap()));
        assert!(model
            .params()
            .iter()
            .all(|(_, name, _)| !name.starts_with("em.")));
        assert!(model
            .environment_embedding(&["tb1", "s", "tc", "b"])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_empty_training_data() {
        let vocab = EmVocabulary::telecom();
        let empty = Dataframe {
            cf: Matrix::zeros(0, 3),
            history: Matrix::zeros(0, 2),
            em: vec![],
            target: vec![],
        };
        assert!(Env2VecModel::new(Env2VecConfig::fast(), vocab, &empty).is_err());
    }

    #[test]
    fn scalers_standardise_and_invert() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
        let s = Scaler::fit(&m).unwrap();
        let t = s.transform(&m).unwrap();
        assert!((t.get(0, 0) + 1.0).abs() < 1e-12);
        assert!((t.get(1, 0) - 1.0).abs() < 1e-12);
        let ts = TargetScaler::fit(&[10.0, 20.0, 30.0]).unwrap();
        assert!((ts.unscale(ts.scale(17.3)) - 17.3).abs() < 1e-12);
        let degenerate = TargetScaler::fit(&[5.0, 5.0]).unwrap();
        assert_eq!(degenerate.scale(5.0), 0.0);
    }
}
