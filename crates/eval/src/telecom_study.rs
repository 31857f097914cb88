//! Shared experiment state for the telecom evaluation (§4.2–§4.3).
//!
//! Figures 1/3/4/6 and Tables 5/6/7 all draw on the same expensive
//! artefacts: the generated dataset, per-chain ridge baselines, the pooled
//! Env2Vec and RFNN_all models, and a second pair of pooled models trained
//! *blind* to the evaluation chains (for the unseen-environment study).
//! [`TelecomStudy::build`] computes them once.
//!
//! Scoring conventions:
//!
//! - **Characterisation accuracy** (Figures 3/4) is measured on each
//!   chain's current build against its *clean* CPU series — the
//!   counterfactual the paper approximates by evaluating on mostly
//!   problem-free data.
//! - **Anomaly detection** (Tables 5/6) predicts the current build from
//!   the contextual features and the *observed* history (all a tester
//!   has), fits each chain's error distribution on its historical builds,
//!   and applies the γ·σ + 5-point rule.

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::{Combination, Env2VecConfig};
use env2vec::dataframe::Dataframe;
use env2vec::model::Env2VecModel;
use env2vec::pipeline::{history_error_distribution, Resource};
use env2vec::train::train_env2vec_observed;
use env2vec::vocab::EmVocabulary;
use env2vec_baselines::ridge::{self, Ridge, ALPHA_GRID};
use env2vec_datagen::telecom::{BuildChain, Execution, TelecomConfig, TelecomDataset};
use env2vec_htm::{HtmAnomalyDetector, HtmConfig};
use env2vec_introspect::IntrospectObserver;
use env2vec_linalg::stats::{mae, mse, Gaussian};
use env2vec_linalg::{Matrix, Result};

use crate::alarm_eval::{flags_to_intervals, score_alarms, AlarmCounts};
use crate::options::EvalOptions;

/// Number of evaluation executions (the paper screens 11 new builds).
pub const NUM_EVAL_EXECUTIONS: usize = 11;

/// Identifier of a contextual method in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Per-chain ridge on CFs.
    Ridge,
    /// Per-chain ridge on CFs + RU history.
    RidgeTs,
    /// Pooled neural model without embeddings.
    RfnnAll,
    /// The Env2Vec model.
    Env2Vec,
}

impl Method {
    /// All contextual methods in display order.
    pub const ALL: [Method; 4] = [
        Method::Ridge,
        Method::RidgeTs,
        Method::RfnnAll,
        Method::Env2Vec,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ridge => "Ridge",
            Method::RidgeTs => "Ridge_ts",
            Method::RfnnAll => "RFNN_all",
            Method::Env2Vec => "Env2Vec",
        }
    }
}

/// Per-chain artefacts.
#[derive(Debug)]
pub struct ChainState {
    /// Chain id in the dataset.
    pub chain_id: usize,
    /// Per-chain ridge model (CFs only).
    pub ridge: Ridge,
    /// Per-chain ridge model with history features.
    pub ridge_ts: Ridge,
    /// Characterisation MAE of each method on the clean current build,
    /// indexed as [`Method::ALL`].
    pub clean_mae: [f64; 4],
    /// Characterisation MSE of each method on the clean current build.
    pub clean_mse: [f64; 4],
    /// Error distribution of each method over the chain's history.
    pub error_dist: [Gaussian; 4],
}

/// The assembled study.
pub struct TelecomStudy {
    /// The generated dataset.
    pub dataset: TelecomDataset,
    /// Vocabulary grown over historical executions only.
    pub vocab: EmVocabulary,
    /// RU-history window shared by every history-using method.
    pub window: usize,
    /// Pooled Env2Vec model (trained on all chains' histories).
    pub env2vec: Env2VecModel,
    /// Pooled RFNN model without embeddings.
    pub rfnn_all: Env2VecModel,
    /// Pooled models trained with the evaluation chains *excluded*
    /// (§4.3's unseen-environment setting): `(env2vec, rfnn_all)`.
    pub blind: (Env2VecModel, Env2VecModel),
    /// Vocabulary of the blind models.
    pub blind_vocab: EmVocabulary,
    /// Per-chain state, in chain order.
    pub chains: Vec<ChainState>,
    /// The chains whose current builds are screened in Tables 5–7.
    pub eval_chain_ids: Vec<usize>,
    /// Wall-clock seconds spent training the four shared models.
    pub training_seconds: f64,
}

/// Builds per-execution dataframes for a chain's history with a growing
/// vocabulary.
fn history_frames(
    executions: &[Execution],
    window: usize,
    vocab: &mut EmVocabulary,
) -> Result<Vec<Dataframe>> {
    executions
        .iter()
        .map(|ex| Dataframe::from_series(&ex.cf, &ex.cpu, &ex.labels.values(), window, vocab))
        .collect()
}

impl TelecomStudy {
    /// Generates the dataset and trains every shared model.
    pub fn build(opts: &EvalOptions) -> Result<TelecomStudy> {
        let mut gen_cfg = if opts.fast {
            TelecomConfig::small()
        } else {
            TelecomConfig::medium()
        };
        gen_cfg.seed = opts.seed;
        let dataset = {
            let _span = env2vec_obs::span!("study/generate", seed = opts.seed);
            TelecomDataset::generate(gen_cfg)
        };
        let window = 2;

        // Evaluation chains: the first NUM_EVAL faulty current builds (the
        // paper's 11 screened executions), padded with clean chains if the
        // dataset is tiny.
        let mut eval_chain_ids: Vec<usize> = dataset
            .chains
            .iter()
            .filter(|c| c.current().has_faults())
            .map(|c| c.id)
            .take(NUM_EVAL_EXECUTIONS.min(dataset.chains.len()))
            .collect();
        for c in &dataset.chains {
            if eval_chain_ids.len() >= NUM_EVAL_EXECUTIONS.min(dataset.chains.len()) {
                break;
            }
            if !eval_chain_ids.contains(&c.id) {
                eval_chain_ids.push(c.id);
            }
        }

        // Pooled training data over every chain's history.
        let mut vocab = EmVocabulary::telecom();
        let mut frames = Vec::new();
        for chain in &dataset.chains {
            frames.extend(history_frames(chain.history(), window, &mut vocab)?);
        }
        let (train, val) = Dataframe::pooled_split(&frames, 0.12)?;

        // envlint: allow(wall-clock) — deliberate measurement: training
        // wall time is itself a reported result (§6 timing comparison);
        // it never feeds back into the model.
        let train_start = std::time::Instant::now();
        let nn_cfg = Env2VecConfig {
            history_window: window,
            fnn_hidden: if opts.fast { 32 } else { 64 },
            gru_hidden: if opts.fast { 8 } else { 16 },
            embedding_dim: if opts.fast { 8 } else { 10 },
            max_epochs: if opts.fast { 40 } else { 80 },
            learning_rate: if opts.fast { 3e-3 } else { 2e-3 },
            patience: if opts.fast { 6 } else { 10 },
            seed: opts.seed,
            ..Env2VecConfig::default()
        };
        let rfnn_cfg = Env2VecConfig {
            combination: Combination::NoEmbeddings,
            ..nn_cfg
        };
        let (env2vec, rfnn_all) = {
            let _span = env2vec_obs::span!("study/train_pooled", rows = train.len());
            let (env2vec, _) = train_env2vec_observed(
                nn_cfg,
                vocab.clone(),
                &train,
                &val,
                &mut IntrospectObserver::global("env2vec_pooled"),
            )?;
            let (rfnn_all, _) = train_env2vec_observed(
                rfnn_cfg,
                vocab.clone(),
                &train,
                &val,
                &mut IntrospectObserver::global("rfnn_all"),
            )?;
            (env2vec, rfnn_all)
        };

        // Blind models: exclude the evaluation chains entirely.
        let mut blind_vocab = EmVocabulary::telecom();
        let mut blind_frames = Vec::new();
        for chain in &dataset.chains {
            if eval_chain_ids.contains(&chain.id) {
                continue;
            }
            blind_frames.extend(history_frames(chain.history(), window, &mut blind_vocab)?);
            // The blind models may also see the non-eval chains' current
            // builds (they are "the rest of the data" in §4.3), except
            // their faulty tails would pollute training; use clean ones.
            let cur = chain.current();
            if !cur.has_faults() {
                blind_frames.push(Dataframe::from_series(
                    &cur.cf,
                    &cur.cpu,
                    &cur.labels.values(),
                    window,
                    &mut blind_vocab,
                )?);
            }
        }
        let (btrain, bval) = Dataframe::pooled_split(&blind_frames, 0.12)?;
        let (blind_env2vec, blind_rfnn) = {
            let _span = env2vec_obs::span!("study/train_blind", rows = btrain.len());
            let (blind_env2vec, _) = train_env2vec_observed(
                nn_cfg,
                blind_vocab.clone(),
                &btrain,
                &bval,
                &mut IntrospectObserver::global("env2vec_blind"),
            )?;
            let (blind_rfnn, _) = train_env2vec_observed(
                rfnn_cfg,
                blind_vocab.clone(),
                &btrain,
                &bval,
                &mut IntrospectObserver::global("rfnn_blind"),
            )?;
            (blind_env2vec, blind_rfnn)
        };
        let training_seconds = train_start.elapsed().as_secs_f64();

        let chains = {
            let _span = env2vec_obs::span!("study/chain_states", chains = dataset.chains.len());
            Self::chain_states(&dataset.chains, window, &vocab, &env2vec, &rfnn_all)?
        };

        Ok(TelecomStudy {
            dataset,
            vocab,
            window,
            env2vec,
            rfnn_all,
            blind: (blind_env2vec, blind_rfnn),
            blind_vocab,
            chains,
            eval_chain_ids,
            training_seconds,
        })
    }

    /// Per-chain state for every chain, in chain order. Chains are
    /// independent, so the ridge fits and model inference fan out over
    /// `par`'s threads; `par_map` returns results in input order, so the
    /// states do not depend on the thread count.
    fn chain_states(
        chains: &[BuildChain],
        window: usize,
        vocab: &EmVocabulary,
        env2vec: &Env2VecModel,
        rfnn_all: &Env2VecModel,
    ) -> Result<Vec<ChainState>> {
        env2vec_par::par_map(chains.iter().collect(), |_, chain| {
            Self::build_chain_state(chain, window, vocab, env2vec, rfnn_all)
        })
        .into_iter()
        .collect()
    }

    fn build_chain_state(
        chain: &BuildChain,
        window: usize,
        vocab: &EmVocabulary,
        env2vec: &Env2VecModel,
        rfnn_all: &Env2VecModel,
    ) -> Result<ChainState> {
        // Per-chain ridge models on concatenated history.
        let hist_cf =
            Matrix::vstack_all(&chain.history().iter().map(|ex| &ex.cf).collect::<Vec<_>>())?;
        let hist_cpu: Vec<f64> = chain
            .history()
            .iter()
            .flat_map(|e| e.cpu.iter().copied())
            .collect();
        let n = hist_cpu.len();
        let split = (n as f64 * 0.85) as usize;
        let tr: Vec<usize> = (0..split).collect();
        let va: Vec<usize> = (split..n).collect();
        let (ridge_model, _) = ridge::fit_best_alpha(
            &hist_cf.select_rows(&tr)?,
            &hist_cpu[..split],
            &hist_cf.select_rows(&va)?,
            &hist_cpu[split..],
            &ALPHA_GRID,
        )?;
        let (ax, ay, offset) = ridge::append_history(&hist_cf, &hist_cpu, window)?;
        let asplit = split - offset;
        let atr: Vec<usize> = (0..asplit).collect();
        let ava: Vec<usize> = (asplit..ax.rows()).collect();
        let (ridge_ts_model, _) = ridge::fit_best_alpha(
            &ax.select_rows(&atr)?,
            &ay[..asplit],
            &ax.select_rows(&ava)?,
            &ay[asplit..],
            &ALPHA_GRID,
        )?;

        // Error distributions on the history itself.
        let mut dists = Vec::with_capacity(4);
        {
            // Ridge on raw history CFs.
            let pred = ridge_model.predict(&hist_cf)?;
            dists.push(AnomalyDetector::fit_error_distribution(&pred, &hist_cpu)?);
            // Ridge_ts on augmented history.
            let pred = ridge_ts_model.predict(&ax)?;
            dists.push(AnomalyDetector::fit_error_distribution(&pred, &ay)?);
        }
        for model in [rfnn_all, env2vec] {
            dists.push(history_error_distribution(model, chain, Resource::Cpu)?);
        }

        // Characterisation accuracy on the clean current build.
        let current = chain.current();
        let clean_df = Dataframe::from_series_frozen(
            &current.cf,
            &current.clean_cpu,
            &current.labels.values(),
            window,
            vocab,
        )?;
        let (ats_x, ats_y, _) = ridge::append_history(&current.cf, &current.clean_cpu, window)?;
        let preds: [(Vec<f64>, &[f64]); 4] = [
            (ridge_model.predict(&current.cf)?, &current.clean_cpu),
            (ridge_ts_model.predict(&ats_x)?, &ats_y),
            (rfnn_all.predict(&clean_df)?, &clean_df.target),
            (env2vec.predict(&clean_df)?, &clean_df.target),
        ];
        let mut clean_mae = [0.0; 4];
        let mut clean_mse = [0.0; 4];
        for (i, (pred, actual)) in preds.iter().enumerate() {
            clean_mae[i] = mae(pred, actual)?;
            clean_mse[i] = mse(pred, actual)?;
        }

        Ok(ChainState {
            chain_id: chain.id,
            ridge: ridge_model,
            ridge_ts: ridge_ts_model,
            clean_mae,
            clean_mse,
            error_dist: [dists[0], dists[1], dists[2], dists[3]],
        })
    }

    /// Predicted and observed series for a method on a chain's current
    /// build (observed history, as at screening time).
    pub fn current_predictions(
        &self,
        chain_id: usize,
        method: Method,
    ) -> Result<(Vec<f64>, Vec<f64>, usize)> {
        let chain = &self.dataset.chains[chain_id];
        let state = &self.chains[chain_id];
        let current = chain.current();
        match method {
            Method::Ridge => {
                let pred = state.ridge.predict(&current.cf)?;
                Ok((pred, current.cpu.clone(), 0))
            }
            Method::RidgeTs => {
                let (cx, cy, offset) =
                    ridge::append_history(&current.cf, &current.cpu, self.window)?;
                Ok((state.ridge_ts.predict(&cx)?, cy, offset))
            }
            Method::RfnnAll => {
                let df = self.current_frame(current)?;
                Ok((self.rfnn_all.predict(&df)?, df.target, self.window))
            }
            Method::Env2Vec => {
                let df = self.current_frame(current)?;
                Ok((self.env2vec.predict(&df)?, df.target, self.window))
            }
        }
    }

    fn current_frame(&self, current: &Execution) -> Result<Dataframe> {
        Dataframe::from_series_frozen(
            &current.cf,
            &current.cpu,
            &current.labels.values(),
            self.window,
            &self.vocab,
        )
    }

    /// Screens one evaluation chain with one contextual method at γ,
    /// scoring alarms against ground truth (Table 5 inner loop).
    pub fn detect_on_chain(
        &self,
        chain_id: usize,
        method: Method,
        gamma: f64,
    ) -> Result<AlarmCounts> {
        let (pred, obs, offset) = self.current_predictions(chain_id, method)?;
        let dist = self.chains[chain_id].error_dist[method_index(method)];
        let detector = AnomalyDetector::new(gamma);
        let intervals = detector.detect(&dist, &pred, &obs)?;
        let faults = &self.dataset.chains[chain_id].current().faults;
        // Pad by the history window: history-fed detectors echo a fault
        // for a few steps after it clears.
        Ok(score_alarms(&intervals, faults, offset, self.window))
    }

    /// Unseen-environment screening (Table 6): blind models, error
    /// distribution over the execution itself.
    pub fn detect_unseen_on_chain(
        &self,
        chain_id: usize,
        method: Method,
        gamma: f64,
    ) -> Result<Option<AlarmCounts>> {
        let chain = &self.dataset.chains[chain_id];
        let current = chain.current();
        let df = Dataframe::from_series_frozen(
            &current.cf,
            &current.cpu,
            &current.labels.values(),
            self.window,
            &self.blind_vocab,
        )?;
        let pred = match method {
            Method::Ridge | Method::RidgeTs => return Ok(None), // N/A per the paper
            Method::RfnnAll => self.blind.1.predict(&df)?,
            Method::Env2Vec => self.blind.0.predict(&df)?,
        };
        let detector = AnomalyDetector::new(gamma);
        let intervals = detector.detect_unseen(&pred, &df.target)?;
        Ok(Some(score_alarms(
            &intervals,
            &current.faults,
            self.window,
            self.window,
        )))
    }

    /// HTM-AD screening of one chain: streams the chain's history, then
    /// the current build, alarming where the raw score reaches 1.0.
    pub fn detect_htm_on_chain(&self, chain_id: usize) -> AlarmCounts {
        let chain = &self.dataset.chains[chain_id];
        let mut det = HtmAnomalyDetector::new(HtmConfig::for_range(0.0, 100.0));
        for ex in chain.history() {
            for &v in &ex.cpu {
                det.process(v);
            }
        }
        let current = chain.current();
        let flags: Vec<bool> = current
            .cpu
            .iter()
            .map(|&v| det.process(v).alarms_at(1.0))
            .collect();
        let intervals = flags_to_intervals(&flags);
        // HTM's sequence memory also echoes past faults briefly.
        score_alarms(&intervals, &current.faults, 0, self.window)
    }

    /// Total ground-truth problems across the evaluation executions.
    pub fn total_eval_problems(&self) -> usize {
        self.eval_chain_ids
            .iter()
            .map(|&id| self.dataset.chains[id].current().faults.len())
            .sum()
    }
}

/// Index of a method in per-chain arrays.
pub fn method_index(method: Method) -> usize {
    match method {
        Method::Ridge => 0,
        Method::RidgeTs => 1,
        Method::RfnnAll => 2,
        Method::Env2Vec => 3,
    }
}

/// Shared fast-preset study for the crate's tests: building one is the
/// expensive part of every experiment test, so they all borrow this one.
#[cfg(test)]
pub(crate) fn test_study() -> &'static TelecomStudy {
    use std::sync::OnceLock;
    static STUDY: OnceLock<TelecomStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        TelecomStudy::build(&crate::options::EvalOptions::fast()).expect("study builds")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate-wide shared study.
    fn study() -> &'static TelecomStudy {
        crate::telecom_study::test_study()
    }

    #[test]
    fn study_has_expected_structure() {
        let s = study();
        assert_eq!(s.chains.len(), s.dataset.chains.len());
        assert!(!s.eval_chain_ids.is_empty());
        assert!(s.eval_chain_ids.len() <= NUM_EVAL_EXECUTIONS);
        // Eval chains lead with faulty current builds.
        assert!(s.dataset.chains[s.eval_chain_ids[0]].current().has_faults());
    }

    #[test]
    fn chain_states_are_thread_count_invariant() {
        let s = study();
        let build = |threads| {
            env2vec_par::with_thread_limit(threads, || {
                TelecomStudy::chain_states(
                    &s.dataset.chains,
                    s.window,
                    &s.vocab,
                    &s.env2vec,
                    &s.rfnn_all,
                )
            })
            .expect("chain states build")
        };
        // Every float a chain state carries or produces, as bits: the
        // clean-build scores, the error distributions (fitted on the
        // neural models' history predictions), and both ridge models'
        // predictions on the current build.
        let bits = |state: &ChainState| -> Vec<u64> {
            let current = s.dataset.chains[state.chain_id].current();
            let (ats_x, _, _) =
                ridge::append_history(&current.cf, &current.cpu, s.window).expect("history");
            let ridge = state.ridge.predict(&current.cf).expect("ridge");
            let ridge_ts = state.ridge_ts.predict(&ats_x).expect("ridge_ts");
            state
                .clean_mae
                .iter()
                .chain(&state.clean_mse)
                .chain(state.error_dist.iter().flat_map(|g| [&g.mean, &g.std_dev]))
                .chain(&ridge)
                .chain(&ridge_ts)
                .map(|v| v.to_bits())
                .collect()
        };
        let one = build(1);
        let four = build(4);
        assert_eq!(one.len(), s.chains.len());
        assert_eq!(four.len(), s.chains.len());
        for ((a, b), shared) in one.iter().zip(&four).zip(&s.chains) {
            assert_eq!(a.chain_id, shared.chain_id);
            assert_eq!(b.chain_id, shared.chain_id);
            assert_eq!(bits(a), bits(b), "chain {}: 1 vs 4 threads", a.chain_id);
            assert_eq!(
                bits(a),
                bits(shared),
                "chain {}: vs the shared study",
                a.chain_id
            );
        }
    }

    #[test]
    fn characterisation_mae_is_finite_and_reasonable() {
        let s = study();
        for chain in &s.chains {
            for (i, m) in chain.clean_mae.iter().enumerate() {
                assert!(m.is_finite(), "chain {} method {i} mae {m}", chain.chain_id);
                assert!(*m < 50.0, "chain {} method {i} mae {m}", chain.chain_id);
            }
        }
    }

    #[test]
    fn env2vec_single_model_is_competitive_with_per_chain_ridge_ts() {
        let s = study();
        let avg = |idx: usize| {
            s.chains.iter().map(|c| c.clean_mae[idx]).sum::<f64>() / s.chains.len() as f64
        };
        let ridge_ts = avg(method_index(Method::RidgeTs));
        let env2vec = avg(method_index(Method::Env2Vec));
        // The paper's core claim: one model ≈ per-chain models.
        assert!(
            env2vec < ridge_ts * 1.6,
            "Env2Vec {env2vec} vs per-chain Ridge_ts {ridge_ts}"
        );
    }

    #[test]
    fn env2vec_beats_pooled_rfnn_without_embeddings() {
        // Median over chains: robust to the planted rare-testbed outlier
        // (whose weakly-trained embedding is exactly Table 7's point).
        let s = study();
        let median = |idx: usize| {
            let mut v: Vec<f64> = s.chains.iter().map(|c| c.clean_mae[idx]).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite MAE"));
            v[v.len() / 2]
        };
        assert!(
            median(method_index(Method::Env2Vec)) < median(method_index(Method::RfnnAll)) * 1.1,
            "embeddings must help the pooled model: Env2Vec {} vs RFNN_all {}",
            median(method_index(Method::Env2Vec)),
            median(method_index(Method::RfnnAll)),
        );
    }

    #[test]
    fn detection_counts_are_consistent() {
        let s = study();
        let id = s.eval_chain_ids[0];
        for method in Method::ALL {
            let c = s.detect_on_chain(id, method, 2.0).unwrap();
            assert!(c.correct <= c.alarms);
            assert!(c.problems_found <= s.dataset.chains[id].current().faults.len());
        }
    }

    #[test]
    fn gamma_monotonicity_on_eval_chains() {
        let s = study();
        for &id in s.eval_chain_ids.iter().take(3) {
            let a1 = s.detect_on_chain(id, Method::Env2Vec, 1.0).unwrap();
            let a3 = s.detect_on_chain(id, Method::Env2Vec, 3.0).unwrap();
            // Merged interval counts can split at a stricter γ, but the
            // flagged-timestep total is strictly monotone.
            assert!(
                a3.flagged_steps <= a1.flagged_steps,
                "chain {id}: γ=3 flagged more timesteps"
            );
        }
    }

    #[test]
    fn unseen_detection_not_applicable_for_ridge() {
        let s = study();
        let id = s.eval_chain_ids[0];
        assert!(s
            .detect_unseen_on_chain(id, Method::Ridge, 1.0)
            .unwrap()
            .is_none());
        assert!(s
            .detect_unseen_on_chain(id, Method::Env2Vec, 1.0)
            .unwrap()
            .is_some());
    }

    #[test]
    fn faulty_chains_yield_detections_with_env2vec() {
        let s = study();
        let mut total = AlarmCounts::default();
        for &id in &s.eval_chain_ids {
            total.add(s.detect_on_chain(id, Method::Env2Vec, 1.0).unwrap());
        }
        assert!(total.alarms > 0, "Env2Vec must alarm on injected faults");
        assert!(total.correct > 0, "some alarms must hit ground truth");
    }
}
