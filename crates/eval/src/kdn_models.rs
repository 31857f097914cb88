//! Trains every §4.1.3 method on the KDN benchmark datasets.
//!
//! The paper compares eight approaches on each VNF dataset: `Ridge`,
//! `Ridge_ts`, `RFReg`, `SVR`, `FNN`, `RFNN` (per environment),
//! `RFNN_all` (pooled, no embeddings), and `Env2Vec` (pooled, with a
//! per-VNF embedding). Deterministic methods are fitted once; neural
//! methods are averaged over `runs` seeds, as the paper averages 10 runs.
//!
//! Hyper-parameters are tuned on each dataset's validation split with the
//! paper's grids (reduced in `fast` mode; the widest FNN widths of the
//! paper's `{32..1024}` grid are thinned to keep wall-clock sane — see
//! `DESIGN.md`).

use env2vec::config::{Combination, Env2VecConfig};
use env2vec::dataframe::Dataframe;
use env2vec::model::TargetScaler;
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec::Env2VecModel;
use env2vec_baselines::forest;
use env2vec_baselines::ridge::{self, ALPHA_GRID};
use env2vec_baselines::svr::{self, Kernel};
use env2vec_datagen::kdn::{KdnDataset, Vnf};
use env2vec_linalg::stats::{mae, mse, paired_t_test};
use env2vec_linalg::{Matrix, Result, Scaler};
use env2vec_nn::graph::{Graph, NodeId};
use env2vec_nn::layers::{dropout_mask, Activation, Dense};
use env2vec_nn::optim::{Adam, Optimizer};
use env2vec_nn::params::{Bound, ParamSet};
use env2vec_nn::trainer::{shuffled_batches, EarlyStopping};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::RunStats;
use crate::options::EvalOptions;

/// Scores of one method on one dataset's test split.
#[derive(Debug, Clone)]
pub struct MethodScores {
    /// Method name as in Table 4.
    pub name: &'static str,
    /// MAE over runs.
    pub mae: RunStats,
    /// MSE over runs.
    pub mse: RunStats,
    /// Per-run MAEs (for significance testing).
    pub run_maes: Vec<f64>,
}

/// The full Table 4 payload for one VNF.
#[derive(Debug, Clone)]
pub struct VnfResults {
    /// Which VNF.
    pub vnf: Vnf,
    /// One entry per method, in the paper's row order.
    pub methods: Vec<MethodScores>,
}

impl VnfResults {
    /// Scores of a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodScores> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Significance of Env2Vec versus each repeated-run method (paired
/// t-test over per-run MAEs, α = 0.05 as in §4.1.2).
#[derive(Debug, Clone)]
pub struct Significance {
    /// Compared method name.
    pub versus: &'static str,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Whether the difference is significant at 0.05.
    pub significant: bool,
}

/// Splits of one KDN dataset as model dataframes sharing one vocabulary.
struct KdnFrames {
    train: Dataframe,
    val: Dataframe,
    test: Dataframe,
}

/// Builds time-aligned train/val/test dataframes for one VNF.
fn kdn_frames(ds: &KdnDataset, window: usize, vocab: &mut EmVocabulary) -> Result<KdnFrames> {
    let full = Dataframe::from_series(&ds.features, &ds.cpu, &[ds.vnf.name()], window, vocab)?;
    // Dataframe row i corresponds to timestep p = i + window.
    let train_rows: Vec<usize> = (0..ds.n_train - window).collect();
    let val_rows: Vec<usize> = (ds.n_train - window..ds.n_train + ds.n_val - window).collect();
    let test_rows: Vec<usize> = (ds.n_train + ds.n_val - window..full.len()).collect();
    Ok(KdnFrames {
        train: full.select(&train_rows)?,
        val: full.select(&val_rows)?,
        test: full.select(&test_rows)?,
    })
}

/// A plain one-hidden-layer FNN regressor — the paper's `FNN` baseline
/// (Mestres et al.), trained on the CFs of the current timestep only.
struct FnnBaseline {
    params: ParamSet,
    hidden: Dense,
    head: Dense,
    cf_scaler: Scaler,
    y_scaler: TargetScaler,
}

impl FnnBaseline {
    // The grid search passes every hyper-parameter explicitly; bundling
    // them into a struct for one private call site would add noise.
    #[allow(clippy::too_many_arguments)]
    fn train(
        x: &Matrix,
        y: &[f64],
        val_x: &Matrix,
        val_y: &[f64],
        width: usize,
        dropout: f64,
        seed: u64,
        max_epochs: usize,
    ) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let hidden = Dense::new(
            &mut params,
            &mut rng,
            "h",
            x.cols(),
            width,
            Activation::Sigmoid,
        )?;
        let head = Dense::new(&mut params, &mut rng, "o", width, 1, Activation::Linear)?;
        let mut model = FnnBaseline {
            params,
            hidden,
            head,
            cf_scaler: Scaler::fit(x)?,
            y_scaler: TargetScaler::fit(y)?,
        };
        let mut opt = Adam::new(5e-3);
        let mut stopper = EarlyStopping::new(6, 1e-6);
        let mut drop_rng = StdRng::seed_from_u64(seed ^ 0xaa);
        // One graph across all steps; `reset` recycles node storage
        // through the tape's scratch arena instead of reallocating.
        let mut g = Graph::new();
        for epoch in 0..max_epochs {
            for batch in shuffled_batches(x.rows(), 64, seed + epoch as u64) {
                let bx = x.select_rows(&batch)?;
                let by: Vec<f64> = batch.iter().map(|&i| model.y_scaler.scale(y[i])).collect();
                let mask = if dropout > 0.0 {
                    Some(dropout_mask(&mut drop_rng, batch.len(), width, dropout)?)
                } else {
                    None
                };
                g.reset();
                let bound = model.params.bind(&mut g);
                let o = model.forward(&mut g, &bound, &bx, mask)?;
                let t = g.leaf(Matrix::col_vector(&by));
                let loss = g.mse(o, t)?;
                g.backward(loss)?;
                let grads = model.params.gradients(&g, &bound)?;
                opt.step(&mut model.params, &grads)?;
            }
            let pred = model.predict(val_x)?;
            let loss = mse(&pred, val_y)?;
            if stopper.observe(loss, &model.params) {
                break;
            }
        }
        model.params = stopper.into_best(model.params.clone());
        Ok(model)
    }

    /// The network on raw CFs, returning the scaled prediction node;
    /// `mask` applies inverted dropout to the hidden layer (training).
    fn forward(
        &self,
        g: &mut Graph,
        bound: &Bound,
        x: &Matrix,
        mask: Option<Matrix>,
    ) -> Result<NodeId> {
        let inp = g.leaf(self.cf_scaler.transform(x)?);
        let mut h = self.hidden.forward(g, bound, inp)?;
        if let Some(mask) = mask {
            h = g.dropout(h, mask)?;
        }
        self.head.forward(g, bound, h)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut g = Graph::new();
        let bound = self.params.bind(&mut g);
        let o = self.forward(&mut g, &bound, x, None)?;
        Ok(g.value(o)
            .col_iter(0)
            .map(|v| self.y_scaler.unscale(v))
            .collect())
    }
}

/// Evaluates all methods on the three KDN datasets.
///
/// Returns one [`VnfResults`] per VNF (Snort, Firewall, Switch order) and
/// the Env2Vec-vs-neural significance tests.
pub fn evaluate_kdn(opts: &EvalOptions) -> Result<(Vec<VnfResults>, Vec<Significance>)> {
    let datasets: Vec<KdnDataset> = if opts.fast {
        Vnf::ALL
            .iter()
            .map(|&v| KdnDataset::generate_sized(v, 360, 240, 60, 60, opts.seed))
            .collect()
    } else {
        Vnf::ALL
            .iter()
            .map(|&v| KdnDataset::generate(v, opts.seed))
            .collect()
    };
    let window = 2;

    // Shared vocabulary + pooled frames for Env2Vec / RFNN_all.
    let mut vocab = EmVocabulary::new(&["vnf"]);
    let mut frames = Vec::new();
    for ds in &datasets {
        frames.push(kdn_frames(ds, window, &mut vocab)?);
    }
    let pooled_train =
        Dataframe::concat(&frames.iter().map(|f| f.train.clone()).collect::<Vec<_>>())?;
    let pooled_val = Dataframe::concat(&frames.iter().map(|f| f.val.clone()).collect::<Vec<_>>())?;

    // Grids.
    let (fnn_widths, dropouts): (Vec<usize>, Vec<f64>) = if opts.fast {
        (vec![32, 64], vec![0.0])
    } else {
        (vec![64, 256, 1024], vec![0.0, 0.3, 0.6])
    };
    let (depth_grid, est_grid): (Vec<usize>, Vec<usize>) = if opts.fast {
        (vec![4, 8], vec![10, 50])
    } else {
        (forest::MAX_DEPTH_GRID.to_vec(), vec![10, 50, 100])
    };
    let (svr_cs, svr_eps): (Vec<f64>, Vec<f64>) = if opts.fast {
        (vec![1.0, 10.0], vec![0.1, 0.5])
    } else {
        (vec![0.1, 1.0, 10.0, 100.0], vec![0.1, 0.3, 0.5, 1.0])
    };
    let nn_epochs = if opts.fast { 60 } else { 160 };

    let grids = Grids {
        fnn_widths,
        dropouts,
        depth_grid,
        est_grid,
        svr_cs,
        svr_eps,
        nn_epochs,
    };

    // Fan out every independent training job — one per pooled run seed,
    // plus six per VNF — over `par`'s threads. Each job is a pure
    // function of explicit seeds writing into its own slot, and the
    // results are assembled below in fixed (run, VNF, method) order, so
    // scheduling never reaches the numbers: output is bit-identical to
    // the sequential evaluation at any thread count.
    let n_vnfs = datasets.len();
    let pooled_slots = env2vec_par::slots(opts.runs);
    let ridge_slots = env2vec_par::slots(n_vnfs);
    let ridge_ts_slots = env2vec_par::slots(n_vnfs);
    let rfreg_slots = env2vec_par::slots(n_vnfs);
    let svr_slots = env2vec_par::slots(n_vnfs);
    let fnn_slots = env2vec_par::slots(n_vnfs);
    let rfnn_slots = env2vec_par::slots(n_vnfs);

    env2vec_par::scope(|s| {
        for (run, slot) in pooled_slots.iter().enumerate() {
            let (vocab, grids) = (&vocab, &grids);
            let (pooled_train, pooled_val) = (&pooled_train, &pooled_val);
            s.spawn_named(format!("eval/kdn/pooled/run{run}"), move || {
                slot.set(train_pooled_run(
                    opts,
                    window,
                    grids.nn_epochs,
                    run,
                    vocab,
                    pooled_train,
                    pooled_val,
                ));
            });
        }
        for (vi, (ds, frame)) in datasets.iter().zip(&frames).enumerate() {
            let grids = &grids;
            let vnf = ds.vnf.name();
            let slot = &ridge_slots[vi];
            s.spawn_named(format!("eval/kdn/{vnf}/ridge"), move || {
                slot.set(fit_ridge(ds));
            });
            let slot = &ridge_ts_slots[vi];
            s.spawn_named(format!("eval/kdn/{vnf}/ridge_ts"), move || {
                slot.set(fit_ridge_ts(ds, window));
            });
            let slot = &rfreg_slots[vi];
            s.spawn_named(format!("eval/kdn/{vnf}/rfreg"), move || {
                slot.set(fit_rfreg(ds, grids, opts.seed));
            });
            let slot = &svr_slots[vi];
            s.spawn_named(format!("eval/kdn/{vnf}/svr"), move || {
                slot.set(fit_svr(ds, grids));
            });
            let slot = &fnn_slots[vi];
            s.spawn_named(format!("eval/kdn/{vnf}/fnn"), move || {
                slot.set(fit_fnn(ds, grids, opts));
            });
            let slot = &rfnn_slots[vi];
            let vocab = &vocab;
            s.spawn_named(format!("eval/kdn/{vnf}/rfnn"), move || {
                slot.set(fit_rfnn_per_vnf(
                    frame,
                    vocab,
                    opts,
                    grids.nn_epochs,
                    window,
                ));
            });
        }
    });

    let mut env2vec_models = Vec::new();
    let mut rfnn_all_models = Vec::new();
    for slot in &pooled_slots {
        let (e, r) = crate::take_job_result(slot)?;
        env2vec_models.push(e);
        rfnn_all_models.push(r);
    }

    let mut out = Vec::new();
    let mut env2vec_run_maes_all: Vec<f64> = Vec::new();
    let mut rfnn_run_maes_all: Vec<f64> = Vec::new();

    for (vi, (ds, frame)) in datasets.iter().zip(&frames).enumerate() {
        // Paper row order: the six per-VNF jobs, then the pooled models.
        let mut methods = vec![
            crate::take_job_result(&ridge_slots[vi])?,
            crate::take_job_result(&ridge_ts_slots[vi])?,
            crate::take_job_result(&rfreg_slots[vi])?,
            crate::take_job_result(&svr_slots[vi])?,
            crate::take_job_result(&fnn_slots[vi])?,
            crate::take_job_result(&rfnn_slots[vi])?,
        ];

        // RFNN_all and Env2Vec: the pooled models, scored on this VNF
        // (prediction is cheap; no need to farm it out).
        for (name, models, run_maes_all) in [
            ("RFNN_all", &rfnn_all_models, &mut rfnn_run_maes_all),
            ("Env2Vec", &env2vec_models, &mut env2vec_run_maes_all),
        ] {
            let mut maes = Vec::new();
            let mut mses = Vec::new();
            for m in models {
                let pred = m.predict(&frame.test)?;
                maes.push(mae(&pred, &frame.test.target)?);
                mses.push(mse(&pred, &frame.test.target)?);
            }
            run_maes_all.extend_from_slice(&maes);
            methods.push(MethodScores {
                name,
                mae: RunStats::of(&maes)?,
                mse: RunStats::of(&mses)?,
                run_maes: maes,
            });
        }

        out.push(VnfResults {
            vnf: ds.vnf,
            methods,
        });
    }

    // Significance: Env2Vec vs RFNN_all over paired per-run MAEs pooled
    // across datasets.
    let mut significance = Vec::new();
    if env2vec_run_maes_all.len() >= 2 {
        let t = paired_t_test(&env2vec_run_maes_all, &rfnn_run_maes_all)?;
        significance.push(Significance {
            versus: "RFNN_all",
            p_value: t.p_value,
            significant: t.significant(0.05),
        });
    }
    Ok((out, significance))
}

/// Hyper-parameter grids resolved once from the run options and shared
/// (immutably) by every parallel job.
struct Grids {
    fnn_widths: Vec<usize>,
    dropouts: Vec<f64>,
    depth_grid: Vec<usize>,
    est_grid: Vec<usize>,
    svr_cs: Vec<f64>,
    svr_eps: Vec<f64>,
    nn_epochs: usize,
}

/// Shared pooled-model config for run `run` (Env2Vec and RFNN_all).
fn pooled_cfg(opts: &EvalOptions, window: usize, nn_epochs: usize, run: usize) -> Env2VecConfig {
    Env2VecConfig {
        fnn_hidden: if opts.fast { 32 } else { 64 },
        gru_hidden: if opts.fast { 8 } else { 16 },
        history_window: window,
        max_epochs: nn_epochs,
        learning_rate: 2e-3,
        patience: 16,
        seed: opts.seed + run as u64 * 101,
        dropout: 0.1,
        ..Env2VecConfig::default()
    }
}

/// Trains the pooled Env2Vec + RFNN_all pair for one run seed.
fn train_pooled_run(
    opts: &EvalOptions,
    window: usize,
    nn_epochs: usize,
    run: usize,
    vocab: &EmVocabulary,
    pooled_train: &Dataframe,
    pooled_val: &Dataframe,
) -> Result<(Env2VecModel, Env2VecModel)> {
    let cfg = pooled_cfg(opts, window, nn_epochs, run);
    let (m, _) = train_env2vec(cfg, vocab.clone(), pooled_train, pooled_val)?;
    let rfnn_cfg = Env2VecConfig {
        combination: Combination::NoEmbeddings,
        ..cfg
    };
    let (r, _) = train_env2vec(rfnn_cfg, vocab.clone(), pooled_train, pooled_val)?;
    Ok((m, r))
}

/// `Ridge` row: closed-form fit on the current-timestep CFs.
fn fit_ridge(ds: &KdnDataset) -> Result<MethodScores> {
    let (train_x, train_y) = ds.train();
    let (val_x, val_y) = ds.validation();
    let (test_x, test_y) = ds.test();
    let (model, _) = ridge::fit_best_alpha(&train_x, train_y, &val_x, val_y, &ALPHA_GRID)?;
    let pred = model.predict(&test_x)?;
    single("Ridge", &pred, test_y)
}

/// `Ridge_ts` row: history-augmented design matrix over the whole
/// series, split at the same timesteps.
fn fit_ridge_ts(ds: &KdnDataset, window: usize) -> Result<MethodScores> {
    let (ax, ay, offset) = ridge::append_history(&ds.features, &ds.cpu, window)?;
    let tr: Vec<usize> = (0..ds.n_train - offset).collect();
    let va: Vec<usize> = (ds.n_train - offset..ds.n_train + ds.n_val - offset).collect();
    let te: Vec<usize> = (ds.n_train + ds.n_val - offset..ax.rows()).collect();
    let (model, _) = ridge::fit_best_alpha(
        &ax.select_rows(&tr)?,
        &ay[..tr.len()],
        &ax.select_rows(&va)?,
        &ay[tr.len()..tr.len() + va.len()],
        &ALPHA_GRID,
    )?;
    let pred = model.predict(&ax.select_rows(&te)?)?;
    single("Ridge_ts", &pred, &ay[tr.len() + va.len()..])
}

/// `RFReg` row: random-forest regressor tuned on validation.
fn fit_rfreg(ds: &KdnDataset, grids: &Grids, seed: u64) -> Result<MethodScores> {
    let (train_x, train_y) = ds.train();
    let (val_x, val_y) = ds.validation();
    let (test_x, test_y) = ds.test();
    let (model, _, _) = forest::fit_best(
        &train_x,
        train_y,
        &val_x,
        val_y,
        &grids.depth_grid,
        &grids.est_grid,
        seed,
    )?;
    let pred = model.predict(&test_x)?;
    single("RFReg", &pred, test_y)
}

/// `SVR` row: support-vector regressor over the paper's kernel grid.
fn fit_svr(ds: &KdnDataset, grids: &Grids) -> Result<MethodScores> {
    let (train_x, train_y) = ds.train();
    let (val_x, val_y) = ds.validation();
    let (test_x, test_y) = ds.test();
    let kernels = Kernel::paper_grid(train_x.cols());
    let (model, _, _) = svr::fit_best(
        &train_x,
        train_y,
        &val_x,
        val_y,
        &kernels,
        &grids.svr_cs,
        &grids.svr_eps,
    )?;
    let pred = model.predict(&test_x)?;
    single("SVR", &pred, test_y)
}

/// `FNN` row: tune width/dropout on validation with the first seed, then
/// average test scores over runs.
fn fit_fnn(ds: &KdnDataset, grids: &Grids, opts: &EvalOptions) -> Result<MethodScores> {
    let (train_x, train_y) = ds.train();
    let (val_x, val_y) = ds.validation();
    let (test_x, test_y) = ds.test();
    let mut best: Option<(usize, f64, f64)> = None;
    for &w in &grids.fnn_widths {
        for &d in &grids.dropouts {
            let m = FnnBaseline::train(
                &train_x,
                train_y,
                &val_x,
                val_y,
                w,
                d,
                opts.seed,
                grids.nn_epochs,
            )?;
            let score = mae(&m.predict(&val_x)?, val_y)?;
            if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                best = Some((w, d, score));
            }
        }
    }
    // envlint: allow(no-panic) — the hyper-parameter grids above are
    // non-empty literals, so at least one candidate was scored.
    let (w, d, _) = best.expect("non-empty grid");
    let mut maes = Vec::new();
    let mut mses = Vec::new();
    for run in 0..opts.runs {
        let m = FnnBaseline::train(
            &train_x,
            train_y,
            &val_x,
            val_y,
            w,
            d,
            opts.seed + run as u64 * 101,
            grids.nn_epochs,
        )?;
        let pred = m.predict(&test_x)?;
        maes.push(mae(&pred, test_y)?);
        mses.push(mse(&pred, test_y)?);
    }
    Ok(MethodScores {
        name: "FNN",
        mae: RunStats::of(&maes)?,
        mse: RunStats::of(&mses)?,
        run_maes: maes,
    })
}

/// `RFNN` row: per-VNF model with GRU + FNN, no embeddings.
fn fit_rfnn_per_vnf(
    frame: &KdnFrames,
    vocab: &EmVocabulary,
    opts: &EvalOptions,
    nn_epochs: usize,
    window: usize,
) -> Result<MethodScores> {
    let mut maes = Vec::new();
    let mut mses = Vec::new();
    for run in 0..opts.runs {
        let cfg = Env2VecConfig {
            fnn_hidden: if opts.fast { 32 } else { 64 },
            gru_hidden: if opts.fast { 8 } else { 16 },
            history_window: window,
            max_epochs: nn_epochs,
            learning_rate: 3e-3,
            patience: 10,
            seed: opts.seed + run as u64 * 101,
            dropout: 0.1,
            combination: Combination::NoEmbeddings,
            ..Env2VecConfig::default()
        };
        let (m, _) = train_env2vec(cfg, vocab.clone(), &frame.train, &frame.val)?;
        let pred = m.predict(&frame.test)?;
        maes.push(mae(&pred, &frame.test.target)?);
        mses.push(mse(&pred, &frame.test.target)?);
    }
    Ok(MethodScores {
        name: "RFNN",
        mae: RunStats::of(&maes)?,
        mse: RunStats::of(&mses)?,
        run_maes: maes,
    })
}

fn single(name: &'static str, pred: &[f64], actual: &[f64]) -> Result<MethodScores> {
    let m = mae(pred, actual)?;
    let s = mse(pred, actual)?;
    Ok(MethodScores {
        name,
        mae: RunStats { mean: m, std: 0.0 },
        mse: RunStats { mean: s, std: 0.0 },
        run_maes: vec![m],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kdn_frames_split_sizes_align_with_dataset() {
        let ds = KdnDataset::generate_sized(Vnf::Snort, 200, 140, 30, 30, 1);
        let mut vocab = EmVocabulary::new(&["vnf"]);
        let frames = kdn_frames(&ds, 2, &mut vocab).unwrap();
        assert_eq!(frames.train.len(), 138); // 140 - window
        assert_eq!(frames.val.len(), 30);
        assert_eq!(frames.test.len(), 30);
        // Targets line up with the raw CPU series.
        assert_eq!(frames.test.target[29], ds.cpu[199]);
    }

    #[test]
    fn fnn_baseline_learns_linear_map() {
        let x = Matrix::from_fn(120, 3, |i, j| ((i * (j + 2)) % 13) as f64);
        let y: Vec<f64> = (0..120)
            .map(|i| 2.0 * x.get(i, 0) - 0.5 * x.get(i, 1) + 30.0)
            .collect();
        let m = FnnBaseline::train(&x, &y, &x, &y, 16, 0.0, 3, 60).unwrap();
        let pred = m.predict(&x).unwrap();
        let err = mae(&pred, &y).unwrap();
        assert!(err < 2.0, "FNN baseline mae {err}");
    }
}
