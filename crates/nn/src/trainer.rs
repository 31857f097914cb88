//! Mini-batching and early stopping.
//!
//! The paper regularises with dropout plus "an early stopping strategy,
//! which stops the training if there is no improvement on a validation
//! set" (Appendix A.1). [`EarlyStopping`] implements that rule with a
//! patience window and best-weights restoration; [`shuffled_batches`]
//! provides seeded mini-batch index sets so training is reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use env2vec_linalg::Matrix;

use crate::params::ParamSet;

/// Per-epoch training-health statistics handed to
/// [`TrainObserver::on_epoch_stats`].
///
/// Everything here is *derived* from values the loop computes anyway —
/// collecting the struct reads parameters and gradients but never writes
/// them, so stats collection cannot perturb training.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Validation loss after this epoch's updates.
    pub val_loss: f64,
    /// Global L2 norm of the last mini-batch's gradients.
    pub grad_norm: f64,
    /// Global L2 norm of all parameters after the epoch.
    pub param_norm: f64,
    /// Global L2 norm of `params_after − params_before` for the epoch.
    pub update_norm: f64,
    /// `update_norm / param_norm` — the classic "how fast are we moving
    /// relative to where we are" learning-rate health signal (0 when the
    /// parameter norm is 0).
    pub update_ratio: f64,
    /// L2 distance of embedding-table parameters from their values at the
    /// start of training (0 when the model has no embedding tables).
    pub embedding_drift: f64,
    /// `val_loss − previous val_loss` (0 at the first epoch).
    pub val_loss_delta: f64,
    /// Best validation loss seen so far, including this epoch.
    pub best_val_loss: f64,
}

/// Read-only hooks into a training loop.
///
/// Implementations receive values the loop already computes — they must
/// not (and cannot, through this interface) influence batching, RNG
/// streams, or parameter updates, so an observed run is numerically
/// identical to an unobserved one.
pub trait TrainObserver {
    /// One epoch finished. `grad_norm` is the global L2 norm of the last
    /// mini-batch's gradients (a cheap divergence/vanishing signal).
    fn on_epoch(&mut self, epoch: usize, val_loss: f64, grad_norm: f64) {
        let _ = (epoch, val_loss, grad_norm);
    }

    /// Whether this observer wants [`TrainObserver::on_epoch_stats`].
    /// Collecting [`EpochStats`] clones the parameter set once per epoch,
    /// so loops only pay that when an observer opts in (the default is
    /// `false`).
    fn wants_epoch_stats(&self) -> bool {
        false
    }

    /// Richer per-epoch statistics (norms, update ratio, embedding
    /// drift). Fires right after [`TrainObserver::on_epoch`] for the same
    /// epoch when [`TrainObserver::wants_epoch_stats`] returns `true`;
    /// the default does nothing so existing observers are unaffected.
    fn on_epoch_stats(&mut self, stats: &EpochStats) {
        let _ = stats;
    }

    /// Early stopping fired after `epoch`.
    fn on_early_stop(&mut self, epoch: usize) {
        let _ = epoch;
    }

    /// Training finished; `best_epoch` indexes the kept parameters.
    fn on_complete(&mut self, best_epoch: usize, stopped_early: bool) {
        let _ = (best_epoch, stopped_early);
    }
}

/// The do-nothing observer used by un-instrumented training entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl TrainObserver for NullObserver {}

/// Global L2 norm across a gradient set (the scalar observers receive).
pub fn grad_norm(grads: &[Matrix]) -> f64 {
    grads
        .iter()
        .flat_map(|g| g.as_slice())
        .map(|&v| v * v)
        .sum::<f64>()
        .sqrt()
}

/// Global L2 norm over every weight in a parameter set.
pub fn param_norm(params: &ParamSet) -> f64 {
    params
        .iter()
        .flat_map(|(_, _, v)| v.as_slice())
        .map(|&x| x * x)
        .sum::<f64>()
        .sqrt()
}

/// Global L2 distance between two snapshots of the *same* parameter-set
/// layout, restricted to parameters whose name satisfies `keep`.
///
/// Entries whose names or shapes disagree between the snapshots are
/// skipped, so comparing unrelated sets degrades to 0 instead of
/// panicking.
pub fn param_distance_filtered(
    before: &ParamSet,
    after: &ParamSet,
    keep: impl Fn(&str) -> bool,
) -> f64 {
    let mut sum = 0.0;
    for ((_, name_b, vb), (_, name_a, va)) in before.iter().zip(after.iter()) {
        if name_b != name_a || vb.shape() != va.shape() || !keep(name_b) {
            continue;
        }
        sum += vb
            .as_slice()
            .iter()
            .zip(va.as_slice())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>();
    }
    sum.sqrt()
}

/// Global L2 distance between two snapshots of the same parameter-set
/// layout (see [`param_distance_filtered`]).
pub fn param_distance(before: &ParamSet, after: &ParamSet) -> f64 {
    param_distance_filtered(before, after, |_| true)
}

/// Splits `0..n` into shuffled mini-batches of at most `batch_size`.
///
/// An empty dataset yields no batches; `batch_size == 0` is treated as one
/// full batch.
pub fn shuffled_batches(n: usize, batch_size: usize, seed: u64) -> Vec<Vec<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let batch_size = if batch_size == 0 { n } else { batch_size };
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.chunks(batch_size).map(<[usize]>::to_vec).collect()
}

/// Early-stopping monitor with best-weights checkpointing.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    min_delta: f64,
    best_loss: f64,
    best_params: Option<ParamSet>,
    /// Epoch index of `best_params`.
    best_epoch: usize,
    epochs_seen: usize,
    epochs_without_improvement: usize,
}

impl EarlyStopping {
    /// Creates a monitor that stops after `patience` consecutive epochs
    /// without the validation loss improving by at least `min_delta`.
    pub fn new(patience: usize, min_delta: f64) -> Self {
        EarlyStopping {
            patience,
            min_delta,
            best_loss: f64::INFINITY,
            best_params: None,
            best_epoch: 0,
            epochs_seen: 0,
            epochs_without_improvement: 0,
        }
    }

    /// Records one epoch's validation loss; returns `true` when training
    /// should stop.
    ///
    /// The parameter snapshot accompanying the best loss so far is kept for
    /// [`EarlyStopping::best`].
    pub fn observe(&mut self, val_loss: f64, params: &ParamSet) -> bool {
        self.epochs_seen += 1;
        if val_loss < self.best_loss - self.min_delta {
            self.best_loss = val_loss;
            self.best_params = Some(params.clone());
            self.best_epoch = self.epochs_seen - 1;
            self.epochs_without_improvement = 0;
        } else {
            self.epochs_without_improvement += 1;
        }
        self.epochs_without_improvement >= self.patience
    }

    /// Best validation loss seen so far (`+inf` before the first epoch).
    pub fn best_loss(&self) -> f64 {
        self.best_loss
    }

    /// The parameter snapshot from the best epoch, if any epoch has been
    /// observed.
    pub fn best(&self) -> Option<&ParamSet> {
        self.best_params.as_ref()
    }

    /// The epoch (0-based) whose parameters [`EarlyStopping::into_best`]
    /// returns: the kept snapshot's, or the last observed epoch when no
    /// loss improved on `+inf` by more than `min_delta` (all NaN, say),
    /// since the fallback is then the current parameters. `0` before
    /// any epoch.
    ///
    /// A later loss lower by at most `min_delta` is not an improvement,
    /// so this is not always the epoch with the lowest loss.
    pub fn best_epoch(&self) -> usize {
        if self.best_params.is_some() {
            self.best_epoch
        } else {
            self.epochs_seen.saturating_sub(1)
        }
    }

    /// Consumes the monitor, returning the best snapshot (falling back to
    /// `current` when no epoch was observed).
    pub fn into_best(self, current: ParamSet) -> ParamSet {
        self.best_params.unwrap_or(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec_linalg::Matrix;

    #[test]
    fn batches_cover_all_indices_exactly_once() {
        let batches = shuffled_batches(10, 3, 42);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Last batch is the remainder.
        assert_eq!(batches.last().unwrap().len(), 1);
    }

    #[test]
    fn batches_deterministic_per_seed() {
        assert_eq!(shuffled_batches(20, 4, 7), shuffled_batches(20, 4, 7));
        assert_ne!(shuffled_batches(20, 4, 7), shuffled_batches(20, 4, 8));
    }

    #[test]
    fn zero_batch_size_is_full_batch_and_empty_is_empty() {
        let b = shuffled_batches(5, 0, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 5);
        assert!(shuffled_batches(0, 4, 1).is_empty());
    }

    fn params_with(v: f64) -> ParamSet {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::filled(1, 1, v)).unwrap();
        ps
    }

    #[test]
    fn stops_after_patience_and_restores_best() {
        let mut es = EarlyStopping::new(2, 0.0);
        assert!(!es.observe(1.0, &params_with(1.0)));
        assert!(!es.observe(0.5, &params_with(2.0))); // best epoch
        assert!(!es.observe(0.6, &params_with(3.0))); // 1 bad epoch
        assert!(es.observe(0.7, &params_with(4.0))); // 2 bad epochs → stop
        assert_eq!(es.best_loss(), 0.5);
        let best = es.into_best(params_with(99.0));
        assert_eq!(best.value(best.find("w").unwrap()).get(0, 0), 2.0);
    }

    #[test]
    fn min_delta_requires_meaningful_improvement() {
        let mut es = EarlyStopping::new(1, 0.1);
        assert!(!es.observe(1.0, &params_with(1.0)));
        // 0.95 improves by less than min_delta → counts as no improvement.
        assert!(es.observe(0.95, &params_with(2.0)));
        assert_eq!(es.best_loss(), 1.0);
    }

    #[test]
    fn best_epoch_names_the_kept_snapshot_not_the_lowest_loss() {
        // The second loss is lower, but by less than min_delta, so the
        // stopper keeps epoch 0's parameters and must report epoch 0.
        let mut es = EarlyStopping::new(5, 1e-6);
        assert!(!es.observe(0.5, &params_with(1.0)));
        assert!(!es.observe(0.4999995, &params_with(2.0)));
        assert_eq!(es.best_epoch(), 0);
        let best = es.into_best(params_with(99.0));
        assert_eq!(best.value(best.find("w").unwrap()).get(0, 0), 1.0);
    }

    #[test]
    fn best_epoch_is_the_last_epoch_when_every_loss_is_nan() {
        // No NaN loss is an improvement, so no snapshot is kept and the
        // current (last epoch's) parameters are what training keeps.
        let mut es = EarlyStopping::new(5, 1e-6);
        assert_eq!(es.best_epoch(), 0);
        for epoch in 0..3 {
            assert!(!es.observe(f64::NAN, &params_with(epoch as f64)));
        }
        assert!(es.best().is_none());
        assert_eq!(es.best_epoch(), 2);
        let kept = es.into_best(params_with(2.0));
        assert_eq!(kept.value(kept.find("w").unwrap()).get(0, 0), 2.0);
    }

    #[test]
    fn best_epoch_follows_improvements() {
        let mut es = EarlyStopping::new(5, 0.0);
        es.observe(1.0, &params_with(1.0));
        es.observe(0.5, &params_with(2.0));
        es.observe(0.7, &params_with(3.0));
        assert_eq!(es.best_epoch(), 1);
    }

    #[test]
    fn grad_norm_is_global_l2() {
        let grads = vec![Matrix::filled(1, 2, 3.0), Matrix::filled(1, 1, 4.0)];
        // sqrt(9 + 9 + 16) = sqrt(34)
        assert!((grad_norm(&grads) - 34f64.sqrt()).abs() < 1e-12);
        assert_eq!(grad_norm(&[]), 0.0);
    }

    #[test]
    fn null_observer_accepts_all_hooks() {
        let mut obs = NullObserver;
        obs.on_epoch(0, 1.0, 0.5);
        obs.on_epoch_stats(&EpochStats {
            epoch: 0,
            val_loss: 1.0,
            grad_norm: 0.5,
            param_norm: 2.0,
            update_norm: 0.1,
            update_ratio: 0.05,
            embedding_drift: 0.0,
            val_loss_delta: 0.0,
            best_val_loss: 1.0,
        });
        obs.on_early_stop(3);
        obs.on_complete(2, true);
    }

    #[test]
    fn param_norm_and_distance_are_global_l2() {
        let mut a = ParamSet::new();
        a.add("em.vnf", Matrix::filled(1, 2, 3.0)).unwrap();
        a.add("dense.w", Matrix::filled(1, 1, 4.0)).unwrap();
        // sqrt(9 + 9 + 16) = sqrt(34)
        assert!((param_norm(&a) - 34f64.sqrt()).abs() < 1e-12);

        let mut b = ParamSet::new();
        b.add("em.vnf", Matrix::filled(1, 2, 3.0)).unwrap();
        b.add("dense.w", Matrix::filled(1, 1, 1.0)).unwrap();
        // Only dense.w moved, by 3.
        assert!((param_distance(&a, &b) - 3.0).abs() < 1e-12);
        // Restricting to embedding tables sees no movement.
        assert_eq!(
            param_distance_filtered(&a, &b, |n| n.starts_with("em.")),
            0.0
        );
    }

    #[test]
    fn param_distance_skips_mismatched_layouts() {
        let mut a = ParamSet::new();
        a.add("w", Matrix::filled(1, 1, 1.0)).unwrap();
        let mut b = ParamSet::new();
        b.add("other", Matrix::filled(1, 1, 9.0)).unwrap();
        assert_eq!(param_distance(&a, &b), 0.0);
        let mut c = ParamSet::new();
        c.add("w", Matrix::filled(2, 2, 1.0)).unwrap();
        assert_eq!(param_distance(&a, &c), 0.0);
    }

    #[test]
    fn into_best_falls_back_to_current() {
        let es = EarlyStopping::new(3, 0.0);
        let fallback = es.into_best(params_with(7.0));
        assert_eq!(fallback.value(fallback.find("w").unwrap()).get(0, 0), 7.0);
    }
}
