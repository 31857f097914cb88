//! Cross-method sanity: on shared synthetic data, every learning method
//! must beat a trivial mean predictor, and methods with access to more
//! signal must not lose to methods with less.

use env2vec::config::{Combination, Env2VecConfig};
use env2vec::dataframe::Dataframe;
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_baselines::forest::{ForestConfig, RandomForest};
use env2vec_baselines::ridge::{append_history, Ridge};
use env2vec_baselines::svr::{Kernel, Svr, SvrConfig};
use env2vec_datagen::kdn::{KdnDataset, Vnf};
use env2vec_linalg::Matrix;

fn mae(pred: &[f64], actual: &[f64]) -> f64 {
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / actual.len() as f64
}

/// Mean-predictor MAE — the floor every method must beat.
fn mean_predictor_mae(train_y: &[f64], test_y: &[f64]) -> f64 {
    let mean = train_y.iter().sum::<f64>() / train_y.len() as f64;
    test_y.iter().map(|y| (y - mean).abs()).sum::<f64>() / test_y.len() as f64
}

#[test]
fn all_methods_beat_the_mean_predictor_on_kdn() {
    let ds = KdnDataset::generate_sized(Vnf::Firewall, 400, 280, 60, 60, 3);
    let (train_x, train_y) = ds.train();
    let (test_x, test_y) = ds.test();
    let floor = mean_predictor_mae(train_y, test_y);

    let ridge = Ridge::fit(&train_x, train_y, 1.0).unwrap();
    assert!(mae(&ridge.predict(&test_x).unwrap(), test_y) < floor);

    let forest = RandomForest::fit(&train_x, train_y, &ForestConfig::default()).unwrap();
    assert!(mae(&forest.predict(&test_x).unwrap(), test_y) < floor);

    let svr = Svr::fit(
        &train_x,
        train_y,
        &SvrConfig::new(10.0, 0.1, Kernel::Rbf { gamma: 1.0 / 86.0 }),
    )
    .unwrap();
    assert!(mae(&svr.predict(&test_x).unwrap(), test_y) < floor);
}

#[test]
fn history_helps_on_the_autocorrelated_switch() {
    // Ridge_ts vs Ridge on the switch dataset: the paper's Table 4 shows
    // history features win where the CPU carries over between intervals.
    let ds = KdnDataset::generate_sized(Vnf::Switch, 500, 350, 75, 75, 5);
    let (train_x, train_y) = ds.train();
    let (test_x, test_y) = ds.test();

    let plain = Ridge::fit(&train_x, train_y, 1.0).unwrap();
    let plain_mae = mae(&plain.predict(&test_x).unwrap(), test_y);

    let (ax, ay, offset) = append_history(&ds.features, &ds.cpu, 2).unwrap();
    let tr: Vec<usize> = (0..ds.n_train - offset).collect();
    let te: Vec<usize> = (ds.n_train + ds.n_val - offset..ax.rows()).collect();
    let ts = Ridge::fit(&ax.select_rows(&tr).unwrap(), &ay[..tr.len()], 1.0).unwrap();
    let ts_mae = mae(
        &ts.predict(&ax.select_rows(&te).unwrap()).unwrap(),
        &ay[ay.len() - te.len()..],
    );
    assert!(
        ts_mae < plain_mae,
        "Ridge_ts {ts_mae} must beat Ridge {plain_mae} on Switch"
    );
}

#[test]
fn env2vec_and_rfnn_share_front_end_but_embeddings_separate_environments() {
    // Two environments, same CFs, targets offset by 40 points: RFNN_all
    // must predict near the midpoint (irreducible error ~20), Env2Vec must
    // separate them.
    let n = 150;
    let window = 2;
    let cf = Matrix::from_fn(n, 3, |i, j| (((i * 7 + j * 3) % 13) as f64) / 13.0);
    let make = |offset: f64| -> Vec<f64> {
        (0..n)
            .map(|i| offset + 10.0 * cf.get(i, 0) + 5.0 * cf.get(i, 1))
            .collect()
    };
    let mut vocab = EmVocabulary::telecom();
    let df_a = Dataframe::from_series(
        &cf,
        &make(20.0),
        &["tb1", "s1", "tc", "b1"],
        window,
        &mut vocab,
    )
    .unwrap();
    let df_b = Dataframe::from_series(
        &cf,
        &make(60.0),
        &["tb2", "s2", "tc", "b2"],
        window,
        &mut vocab,
    )
    .unwrap();
    let all = Dataframe::concat(&[df_a.clone(), df_b.clone()]).unwrap();
    let (train, val) = all.split_validation(0.2).unwrap();

    let cfg = Env2VecConfig {
        max_epochs: 40,
        ..Env2VecConfig::fast()
    };
    let (env2vec, _) = train_env2vec(cfg, vocab.clone(), &train, &val).unwrap();
    let rfnn_cfg = Env2VecConfig {
        combination: Combination::NoEmbeddings,
        ..cfg
    };
    let (rfnn, _) = train_env2vec(rfnn_cfg, vocab, &train, &val).unwrap();

    let e = (mae(&env2vec.predict(&df_a).unwrap(), &df_a.target)
        + mae(&env2vec.predict(&df_b).unwrap(), &df_b.target))
        / 2.0;
    let r = (mae(&rfnn.predict(&df_a).unwrap(), &df_a.target)
        + mae(&rfnn.predict(&df_b).unwrap(), &df_b.target))
        / 2.0;
    // RFNN_all still has the RU history — y_{t-1} correlates with the
    // environment offset — so it is not fully blind here; embeddings must
    // simply give a clear additional edge.
    assert!(
        e < r * 0.9,
        "embeddings must separate offset environments: Env2Vec {e}, RFNN_all {r}"
    );
}
