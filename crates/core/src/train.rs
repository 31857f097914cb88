//! Training loops.
//!
//! Appendix A.1 of the paper: MSE loss, the Adam update rule, dropout on
//! the hidden layer, and early stopping on a validation set. One loop
//! trains every [`Combination`](crate::config::Combination) mode,
//! including the embedding-free RFNN.

use env2vec_linalg::{Error, Matrix, Result};
use env2vec_nn::graph::Graph;
use env2vec_nn::optim::{Adam, Optimizer};
use env2vec_nn::trainer::{
    grad_norm, param_distance, param_distance_filtered, param_norm, shuffled_batches,
    EarlyStopping, EpochStats, NullObserver, TrainObserver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::Env2VecConfig;
use crate::dataframe::Dataframe;
use crate::model::Env2VecModel;
use crate::vocab::EmVocabulary;

/// Per-run training telemetry.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Validation MSE (on scaled targets) after each completed epoch.
    pub val_losses: Vec<f64>,
    /// Epoch index whose parameters were kept.
    pub best_epoch: usize,
    /// Whether early stopping fired before `max_epochs`.
    pub stopped_early: bool,
}

/// A [`TrainObserver`] that bridges epoch telemetry into the
/// observability layer: per-epoch `info!` log lines when `--verbose` is
/// on, and `train_*` metrics (labelled by model name) in the global
/// registry.
#[derive(Debug, Clone)]
pub struct ObsTrainObserver {
    model: String,
}

impl ObsTrainObserver {
    /// An observer reporting under `model` (e.g. `"env2vec"`, `"rfnn"`).
    pub fn new(model: impl Into<String>) -> Self {
        ObsTrainObserver {
            model: model.into(),
        }
    }

    fn labels(&self) -> env2vec_telemetry::LabelSet {
        env2vec_telemetry::LabelSet::new().with("model", self.model.as_str())
    }
}

impl TrainObserver for ObsTrainObserver {
    fn wants_epoch_stats(&self) -> bool {
        true
    }

    fn on_epoch_stats(&mut self, stats: &EpochStats) {
        let m = env2vec_obs::metrics();
        m.gauge_with("train_param_norm", self.labels())
            .set(stats.param_norm);
        m.gauge_with("train_update_norm", self.labels())
            .set(stats.update_norm);
        m.gauge_with("train_update_ratio", self.labels())
            .set(stats.update_ratio);
        m.gauge_with("train_embedding_drift", self.labels())
            .set(stats.embedding_drift);
        m.gauge_with("train_val_loss_delta", self.labels())
            .set(stats.val_loss_delta);
        m.gauge_with("train_best_val_loss", self.labels())
            .set(stats.best_val_loss);
    }

    fn on_epoch(&mut self, epoch: usize, val_loss: f64, grad_norm: f64) {
        let m = env2vec_obs::metrics();
        m.counter_with("train_epochs_total", self.labels()).inc();
        m.gauge_with("train_val_loss", self.labels()).set(val_loss);
        m.gauge_with("train_grad_norm", self.labels())
            .set(grad_norm);
        env2vec_obs::info!(
            "epoch complete";
            model = self.model,
            epoch = epoch,
            val_loss = val_loss,
            grad_norm = grad_norm,
        );
    }

    fn on_early_stop(&mut self, epoch: usize) {
        env2vec_obs::metrics()
            .counter_with("train_early_stops_total", self.labels())
            .inc();
        env2vec_obs::info!("early stop"; model = self.model, epoch = epoch);
    }

    fn on_complete(&mut self, best_epoch: usize, stopped_early: bool) {
        env2vec_obs::metrics()
            .counter_with("train_runs_total", self.labels())
            .inc();
        env2vec_obs::info!(
            "training complete";
            model = self.model,
            best_epoch = best_epoch,
            stopped_early = stopped_early,
        );
    }
}

/// Trains an Env2Vec model on `train`, early-stopping on `val`.
///
/// `vocab` must already contain every EM value present in `train` (build
/// it while assembling the dataframes). Returns the trained model and the
/// per-epoch report, or an error for invalid inputs.
pub fn train_env2vec(
    config: Env2VecConfig,
    vocab: EmVocabulary,
    train: &Dataframe,
    val: &Dataframe,
) -> Result<(Env2VecModel, TrainingReport)> {
    train_env2vec_observed(config, vocab, train, val, &mut NullObserver)
}

/// [`train_env2vec`] with per-epoch [`TrainObserver`] hooks. The
/// observer only reads values the loop computes anyway, so results are
/// identical to the unobserved variant.
pub fn train_env2vec_observed(
    config: Env2VecConfig,
    vocab: EmVocabulary,
    train: &Dataframe,
    val: &Dataframe,
    observer: &mut dyn TrainObserver,
) -> Result<(Env2VecModel, TrainingReport)> {
    let mut model = Env2VecModel::new(config, vocab, train)?;
    let report = fit(&mut model, &config, train, val, observer)?;
    Ok((model, report))
}

/// Continues training an existing Env2Vec model on new data — the
/// incremental retraining §4.3 prescribes once an unseen environment has
/// produced data ("This problem is resolved by retraining Env2Vec
/// incrementally with the new data from the environment").
///
/// The model's vocabulary is frozen: new EM *values* still map to
/// `<unk>`, but new data for constructible environments sharpens their
/// embeddings. Scalers are kept from the original fit so predictions stay
/// on the same scale. Returns the per-epoch report.
pub fn fine_tune_env2vec(
    model: &mut Env2VecModel,
    epochs: usize,
    learning_rate: f64,
    train: &Dataframe,
    val: &Dataframe,
) -> Result<TrainingReport> {
    let config = Env2VecConfig {
        max_epochs: epochs,
        learning_rate,
        ..model.config
    };
    config
        .validate()
        .map_err(|what| Error::InvalidArgument { what })?;
    fit(model, &config, train, val, &mut NullObserver)
}

/// Validation MSE in scaled-target space (no dropout).
fn scaled_val_mse(model: &Env2VecModel, val: &Dataframe) -> Result<f64> {
    let mut graph = Graph::new();
    let bound = model.params().bind(&mut graph);
    let pred = model.forward(&mut graph, &bound, val, None)?;
    let value = graph.value(pred);
    let n = value.rows() as f64;
    Ok(value
        .col_iter(0)
        .zip(&val.target)
        .map(|(p, &y)| {
            let t = model.y_scaler.scale(y);
            (p - t) * (p - t)
        })
        .sum::<f64>()
        / n)
}

/// The shared mini-batch Adam + early-stopping loop.
fn fit(
    model: &mut Env2VecModel,
    config: &Env2VecConfig,
    train: &Dataframe,
    val: &Dataframe,
    observer: &mut dyn TrainObserver,
) -> Result<TrainingReport> {
    if train.is_empty() || val.is_empty() {
        return Err(Error::Empty { routine: "fit" });
    }
    let mut opt = Adam::new(config.learning_rate);
    let mut stopper = EarlyStopping::new(config.patience, 1e-6);
    let mut dropout_rng = StdRng::seed_from_u64(config.seed ^ 0xd20f);
    let mut val_losses = Vec::new();
    let mut stopped_early = false;
    // Stats collection is read-only but clones the parameter set once
    // per epoch, so only pay for it when the observer opted in.
    let wants_stats = observer.wants_epoch_stats();
    let initial_params = wants_stats.then(|| model.params().clone());
    let mut prev_val_loss = f64::NAN;
    let mut best_val_loss = f64::INFINITY;

    // One graph for the whole fit: `reset` recycles every node's
    // value/gradient storage through the tape's scratch arena, so
    // steady-state steps run allocation-free where the per-batch
    // `Graph::new` used to rebuild everything from the allocator.
    let mut graph = Graph::new();
    for epoch in 0..config.max_epochs {
        let epoch_start_params = wants_stats.then(|| model.params().clone());
        let mut last_grad_norm = 0.0;
        for batch_idx in
            shuffled_batches(train.len(), config.batch_size, config.seed + epoch as u64)
        {
            let batch = train.select(&batch_idx)?;
            let scaled_targets: Vec<f64> = batch
                .target
                .iter()
                .map(|&y| model.y_scaler.scale(y))
                .collect();
            graph.reset();
            let bound = model.params().bind(&mut graph);
            let pred = model.forward(&mut graph, &bound, &batch, Some(&mut dropout_rng))?;
            let target = graph.constant(Matrix::col_vector(&scaled_targets));
            let loss = graph.mse(pred, target)?;
            graph.backward(loss)?;
            let grads = model.params().gradients(&graph, &bound)?;
            last_grad_norm = grad_norm(&grads);
            opt.step(&mut model.params, &grads)?;
        }
        let loss = scaled_val_mse(model, val)?;
        val_losses.push(loss);
        observer.on_epoch(epoch, loss, last_grad_norm);
        if let (Some(initial), Some(start)) = (&initial_params, &epoch_start_params) {
            // f64::min ignores a NaN loss, so best_val_loss stays at the
            // best real value even after a divergence.
            best_val_loss = best_val_loss.min(loss);
            let p_norm = param_norm(model.params());
            let u_norm = param_distance(start, model.params());
            observer.on_epoch_stats(&EpochStats {
                epoch,
                val_loss: loss,
                grad_norm: last_grad_norm,
                param_norm: p_norm,
                update_norm: u_norm,
                update_ratio: if p_norm > 0.0 { u_norm / p_norm } else { 0.0 },
                embedding_drift: param_distance_filtered(initial, model.params(), |n| {
                    n.starts_with("em.")
                }),
                val_loss_delta: if prev_val_loss.is_nan() {
                    0.0
                } else {
                    loss - prev_val_loss
                },
                best_val_loss,
            });
            prev_val_loss = loss;
        }
        if stopper.observe(loss, model.params()) {
            stopped_early = true;
            observer.on_early_stop(epoch);
            break;
        }
    }
    // The epoch whose parameters are restored, which is not always the
    // lowest loss (an improvement must exceed `min_delta`).
    let best_epoch = stopper.best_epoch();
    let current = model.params().clone();
    model.set_params(stopper.into_best(current));
    observer.on_complete(best_epoch, stopped_early);
    Ok(TrainingReport {
        val_losses,
        best_epoch,
        stopped_early,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Combination;
    use env2vec_linalg::stats::mae;

    /// A synthetic two-environment task where the environment shifts the
    /// target: y = f(cf) + offset(env) + AR carry-over.
    fn two_env_data(
        vocab: &mut EmVocabulary,
        offset_a: f64,
        offset_b: f64,
        n: usize,
    ) -> (Dataframe, Dataframe, Dataframe) {
        let make = |offset: f64, env: [&str; 4], vocab: &mut EmVocabulary| {
            let cf = Matrix::from_fn(n, 4, |i, j| {
                (((i * 13 + j * 7) % 17) as f64 / 17.0) + 0.1 * (i as f64 * 0.4).sin()
            });
            let mut ru = vec![offset];
            for t in 1..n {
                let drive = 20.0 * cf.get(t, 0) + 8.0 * cf.get(t, 1) * cf.get(t, 1);
                ru.push(0.3 * ru[t - 1] + 0.7 * (offset + drive));
            }
            Dataframe::from_series(&cf, &ru, &env, 2, vocab).unwrap()
        };
        let a = make(offset_a, ["tb1", "sutA", "tc", "S01"], vocab);
        let b = make(offset_b, ["tb2", "sutB", "tc", "S01"], vocab);
        let all = Dataframe::concat(&[a.clone(), b.clone()]).unwrap();
        (all, a, b)
    }

    #[test]
    fn env2vec_training_reduces_validation_loss() {
        let mut vocab = EmVocabulary::telecom();
        let (all, _, _) = two_env_data(&mut vocab, 30.0, 60.0, 120);
        let (train, val) = all.split_validation(0.2).unwrap();
        let (model, report) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val).unwrap();
        assert!(
            report.val_losses.last().copied().unwrap_or(f64::INFINITY) < report.val_losses[0],
            "losses {:?}",
            report.val_losses
        );
        let pred = model.predict(&val).unwrap();
        let err = mae(&pred, &val.target).unwrap();
        assert!(err < 8.0, "validation MAE {err}");
    }

    #[test]
    fn embeddings_beat_pooled_rfnn_on_env_shifted_data() {
        // The defining experiment in miniature (paper §4.1.4): pooled
        // training without embeddings cannot tell environments apart when
        // their targets differ by a large offset, Env2Vec can.
        let mut vocab = EmVocabulary::telecom();
        let (all, a, b) = two_env_data(&mut vocab, 20.0, 70.0, 150);
        let (train, val) = all.split_validation(0.15).unwrap();
        let cfg = Env2VecConfig::fast();
        let (env2vec, _) = train_env2vec(cfg, vocab.clone(), &train, &val).unwrap();
        let rfnn_cfg = Env2VecConfig {
            combination: Combination::NoEmbeddings,
            ..cfg
        };
        let (rfnn_all, _) = train_env2vec(rfnn_cfg, vocab, &train, &val).unwrap();

        let score = |pred: &[f64], t: &[f64]| mae(pred, t).unwrap();
        let e_a = score(&env2vec.predict(&a).unwrap(), &a.target);
        let e_b = score(&env2vec.predict(&b).unwrap(), &b.target);
        let r_a = score(&rfnn_all.predict(&a).unwrap(), &a.target);
        let r_b = score(&rfnn_all.predict(&b).unwrap(), &b.target);
        let env2vec_mae = (e_a + e_b) / 2.0;
        let rfnn_mae = (r_a + r_b) / 2.0;
        assert!(
            env2vec_mae < rfnn_mae,
            "Env2Vec {env2vec_mae} should beat pooled RFNN {rfnn_mae}"
        );
    }

    #[test]
    fn early_stopping_restores_best_epoch() {
        let mut vocab = EmVocabulary::telecom();
        let (all, _, _) = two_env_data(&mut vocab, 30.0, 60.0, 80);
        let (train, val) = all.split_validation(0.2).unwrap();
        let cfg = Env2VecConfig {
            max_epochs: 40,
            patience: 3,
            ..Env2VecConfig::fast()
        };
        let (_, report) = train_env2vec(cfg, vocab, &train, &val).unwrap();
        let best = report.val_losses[report.best_epoch];
        assert!(report.val_losses.iter().all(|&l| l >= best - 1e-12));
    }

    #[test]
    fn all_combination_modes_train_and_fit() {
        // §3.2's claim: the alternatives "yield similar results". Each
        // mode must train to a sane fit on the same data.
        let mut results = Vec::new();
        for combination in [
            Combination::HadamardSum,
            Combination::Bilinear,
            Combination::MlpHead,
        ] {
            let mut vocab = EmVocabulary::telecom();
            let (all, a, b) = two_env_data(&mut vocab, 25.0, 65.0, 120);
            let (train, val) = all.split_validation(0.15).unwrap();
            let cfg = Env2VecConfig {
                combination,
                max_epochs: 30,
                ..Env2VecConfig::fast()
            };
            let (model, _) = train_env2vec(cfg, vocab, &train, &val).unwrap();
            let err = (mae(&model.predict(&a).unwrap(), &a.target).unwrap()
                + mae(&model.predict(&b).unwrap(), &b.target).unwrap())
                / 2.0;
            assert!(err < 8.0, "{combination:?} mae {err}");
            results.push(err);
        }
        // No mode is wildly worse than the best (the "similar results"
        // claim, loosely).
        let best = results.iter().cloned().fold(f64::INFINITY, f64::min);
        for (i, err) in results.iter().enumerate() {
            assert!(*err < best * 4.0 + 1.0, "mode {i} err {err} vs best {best}");
        }
    }

    #[test]
    fn attention_variant_trains_and_serialises() {
        // The §6 attention extension must train to a comparable fit and
        // survive persistence (its extra parameters restore by name).
        let mut vocab = EmVocabulary::telecom();
        let (all, a, _) = two_env_data(&mut vocab, 25.0, 65.0, 120);
        let (train, val) = all.split_validation(0.15).unwrap();
        let cfg = Env2VecConfig {
            attention: true,
            history_window: 4,
            max_epochs: 30,
            ..Env2VecConfig::fast()
        };
        let (model, _) = train_env2vec(cfg, vocab, &train, &val).unwrap();
        let err = mae(&model.predict(&a).unwrap(), &a.target).unwrap();
        assert!(err < 8.0, "attention variant mae {err}");
        assert!(model.params().find("attn.w").is_some());

        let json = crate::serialize::save_model(&model);
        let restored = crate::serialize::load_model(&json).unwrap();
        assert_eq!(model.predict(&a).unwrap(), restored.predict(&a).unwrap());
    }

    #[test]
    fn fine_tune_improves_fit_on_new_environment_data() {
        // Train on environment A only, then incrementally absorb B.
        let mut vocab = EmVocabulary::telecom();
        let (_, a, b) = two_env_data(&mut vocab, 25.0, 65.0, 120);
        let (train_a, val_a) = a.split_validation(0.2).unwrap();
        let cfg = Env2VecConfig::fast();
        let (mut model, _) = train_env2vec(cfg, vocab, &train_a, &val_a).unwrap();

        let before = mae(&model.predict(&b).unwrap(), &b.target).unwrap();
        let (train_b, val_b) = b.split_validation(0.2).unwrap();
        fine_tune_env2vec(&mut model, 20, 3e-3, &train_b, &val_b).unwrap();
        let after = mae(&model.predict(&b).unwrap(), &b.target).unwrap();
        assert!(
            after < before / 2.0,
            "fine-tuning must absorb the new environment: {before} -> {after}"
        );
        // The original environment must not be catastrophically forgotten.
        let a_after = mae(&model.predict(&a).unwrap(), &a.target).unwrap();
        assert!(a_after < 20.0, "environment A forgotten: mae {a_after}");
    }

    #[test]
    fn fine_tune_rejects_invalid_overrides() {
        let mut vocab = EmVocabulary::telecom();
        let (all, _, _) = two_env_data(&mut vocab, 25.0, 65.0, 60);
        let (train, val) = all.split_validation(0.2).unwrap();
        let (mut model, _) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val).unwrap();
        assert!(fine_tune_env2vec(&mut model, 0, 1e-3, &train, &val).is_err());
        assert!(fine_tune_env2vec(&mut model, 5, -1.0, &train, &val).is_err());
    }

    #[test]
    fn observer_does_not_change_numerics() {
        // Acceptance criterion for the observability layer: observed and
        // unobserved training with the same seed produce byte-identical
        // models (here checked via exact prediction equality).
        struct Recorder {
            epochs: usize,
            stats: usize,
            completed: bool,
        }
        impl env2vec_nn::trainer::TrainObserver for Recorder {
            fn on_epoch(&mut self, _epoch: usize, val_loss: f64, grad_norm: f64) {
                assert!(val_loss.is_finite() && grad_norm.is_finite());
                self.epochs += 1;
            }
            // Opting into stats exercises the per-epoch snapshot path, so
            // this test also proves stats collection is numerics-inert.
            fn wants_epoch_stats(&self) -> bool {
                true
            }
            fn on_epoch_stats(&mut self, stats: &env2vec_nn::trainer::EpochStats) {
                assert!(stats.param_norm.is_finite() && stats.param_norm > 0.0);
                assert!(stats.update_norm.is_finite());
                assert!(stats.update_ratio.is_finite());
                assert!(stats.embedding_drift.is_finite());
                assert!(stats.best_val_loss <= stats.val_loss + 1e-15);
                self.stats += 1;
            }
            fn on_complete(&mut self, _best_epoch: usize, _stopped_early: bool) {
                self.completed = true;
            }
        }

        let mut vocab_a = EmVocabulary::telecom();
        let (all, a, _) = two_env_data(&mut vocab_a, 30.0, 60.0, 100);
        let vocab_b = vocab_a.clone();
        let (train, val) = all.split_validation(0.2).unwrap();
        let cfg = Env2VecConfig::fast();

        let (plain, plain_report) = train_env2vec(cfg, vocab_a, &train, &val).unwrap();
        let mut rec = Recorder {
            epochs: 0,
            stats: 0,
            completed: false,
        };
        let (observed, observed_report) =
            train_env2vec_observed(cfg, vocab_b, &train, &val, &mut rec).unwrap();

        assert_eq!(plain_report.val_losses, observed_report.val_losses);
        assert_eq!(plain_report.best_epoch, observed_report.best_epoch);
        assert_eq!(plain.predict(&a).unwrap(), observed.predict(&a).unwrap());
        assert_eq!(rec.epochs, observed_report.val_losses.len());
        assert_eq!(rec.stats, rec.epochs);
        assert!(rec.completed);
    }

    #[test]
    fn obs_observer_records_metrics() {
        let mut vocab = EmVocabulary::telecom();
        let (all, _, _) = two_env_data(&mut vocab, 30.0, 60.0, 60);
        let (train, val) = all.split_validation(0.2).unwrap();
        let mut obs = ObsTrainObserver::new("test_numerics_check");
        let labels = env2vec_telemetry::LabelSet::new().with("model", "test_numerics_check");
        let before = env2vec_obs::metrics()
            .counter_with("train_epochs_total", labels.clone())
            .get();
        let (_, report) =
            train_env2vec_observed(Env2VecConfig::fast(), vocab, &train, &val, &mut obs).unwrap();
        let after = env2vec_obs::metrics()
            .counter_with("train_epochs_total", labels.clone())
            .get();
        assert_eq!((after - before) as usize, report.val_losses.len());
        assert!(env2vec_obs::metrics()
            .gauge_with("train_val_loss", labels.clone())
            .get()
            .is_finite());
        // The introspection-stream gauges are published too.
        for name in [
            "train_param_norm",
            "train_update_ratio",
            "train_embedding_drift",
            "train_best_val_loss",
        ] {
            let v = env2vec_obs::metrics()
                .gauge_with(name, labels.clone())
                .get();
            assert!(v.is_finite(), "{name} should be finite, got {v}");
        }
        assert!(
            env2vec_obs::metrics()
                .gauge_with("train_param_norm", labels)
                .get()
                > 0.0
        );
    }

    #[test]
    fn training_rejects_empty_sets() {
        let mut vocab = EmVocabulary::telecom();
        let (all, _, _) = two_env_data(&mut vocab, 30.0, 60.0, 40);
        let empty = Dataframe {
            cf: Matrix::zeros(0, all.cf.cols()),
            history: Matrix::zeros(0, all.history.cols()),
            em: vec![],
            target: vec![],
        };
        assert!(train_env2vec(Env2VecConfig::fast(), vocab, &all, &empty).is_err());
    }
}
