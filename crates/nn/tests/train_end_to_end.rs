//! End-to-end training tests: the engine must actually fit functions.

use env2vec_linalg::stats::mse;
use env2vec_linalg::Matrix;
use env2vec_nn::graph::Graph;
use env2vec_nn::layers::{Activation, Dense, Embedding, GruCell};
use env2vec_nn::optim::{Adam, Optimizer};
use env2vec_nn::params::ParamSet;
use env2vec_nn::trainer::{shuffled_batches, EarlyStopping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains a one-hidden-layer FNN on a smooth nonlinear target and checks
/// the fit improves by an order of magnitude.
#[test]
fn fnn_fits_nonlinear_function() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 200;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (x[0] * 2.0).sin() * 0.5 + x[1] * x[1])
        .collect();

    let mut ps = ParamSet::new();
    let hidden = Dense::new(&mut ps, &mut rng, "h", 2, 16, Activation::Sigmoid).unwrap();
    let out = Dense::new(&mut ps, &mut rng, "o", 16, 1, Activation::Linear).unwrap();
    let mut opt = Adam::new(0.01);

    let eval = |ps: &ParamSet| -> f64 {
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let x = g.leaf(Matrix::from_rows(&xs).unwrap());
        let h = hidden.forward(&mut g, &bound, x).unwrap();
        let o = out.forward(&mut g, &bound, h).unwrap();
        let pred: Vec<f64> = g.value(o).col(0);
        mse(&pred, &ys).unwrap()
    };

    let initial = eval(&ps);
    for epoch in 0..300 {
        for batch in shuffled_batches(n, 32, epoch) {
            let bx: Vec<Vec<f64>> = batch.iter().map(|&i| xs[i].clone()).collect();
            let by: Vec<f64> = batch.iter().map(|&i| ys[i]).collect();
            let mut g = Graph::new();
            let bound = ps.bind(&mut g);
            let x = g.leaf(Matrix::from_rows(&bx).unwrap());
            let h = hidden.forward(&mut g, &bound, x).unwrap();
            let o = out.forward(&mut g, &bound, h).unwrap();
            let t = g.leaf(Matrix::col_vector(&by));
            let loss = g.mse(o, t).unwrap();
            g.backward(loss).unwrap();
            let grads = ps.gradients(&g, &bound).unwrap();
            opt.step(&mut ps, &grads).unwrap();
        }
    }
    let fitted = eval(&ps);
    assert!(
        fitted < initial / 10.0,
        "training did not fit: initial mse {initial}, fitted {fitted}"
    );
}

/// A GRU must learn a sequence-order-dependent target that a memoryless
/// model cannot express: y = last value minus first value of the window.
#[test]
fn gru_learns_order_dependent_target() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 256;
    let window = 4;
    let seqs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..window).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = seqs.iter().map(|s| s[window - 1] - s[0]).collect();

    let mut ps = ParamSet::new();
    let cell = GruCell::new(&mut ps, &mut rng, "gru", 1, 8, Activation::Tanh).unwrap();
    let head = Dense::new(&mut ps, &mut rng, "head", 8, 1, Activation::Linear).unwrap();
    let mut opt = Adam::new(0.02);

    let forward = |ps: &ParamSet, idx: &[usize]| -> (Graph, env2vec_nn::NodeId) {
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let steps: Vec<env2vec_nn::NodeId> = (0..window)
            .map(|t| {
                let col: Vec<f64> = idx.iter().map(|&i| seqs[i][t]).collect();
                g.leaf(Matrix::col_vector(&col))
            })
            .collect();
        let h = cell.run_sequence(&mut g, &bound, &steps).unwrap();
        let o = head.forward(&mut g, &bound, h).unwrap();
        (g, o)
    };

    let all: Vec<usize> = (0..n).collect();
    let eval = |ps: &ParamSet| -> f64 {
        let (g, o) = forward(ps, &all);
        mse(&g.value(o).col(0), &ys).unwrap()
    };

    let initial = eval(&ps);
    for epoch in 0..150 {
        for batch in shuffled_batches(n, 64, epoch) {
            let by: Vec<f64> = batch.iter().map(|&i| ys[i]).collect();
            let mut g = Graph::new();
            let bound = ps.bind(&mut g);
            let steps: Vec<env2vec_nn::NodeId> = (0..window)
                .map(|t| {
                    let col: Vec<f64> = batch.iter().map(|&i| seqs[i][t]).collect();
                    g.leaf(Matrix::col_vector(&col))
                })
                .collect();
            let h = cell.run_sequence(&mut g, &bound, &steps).unwrap();
            let o = head.forward(&mut g, &bound, h).unwrap();
            let t = g.leaf(Matrix::col_vector(&by));
            let loss = g.mse(o, t).unwrap();
            g.backward(loss).unwrap();
            let grads = ps.gradients(&g, &bound).unwrap();
            opt.step(&mut ps, &grads).unwrap();
        }
    }
    let fitted = eval(&ps);
    assert!(
        fitted < initial / 5.0,
        "GRU did not learn: initial {initial}, fitted {fitted}"
    );
    assert!(fitted < 0.02, "GRU final mse too high: {fitted}");
}

/// Embeddings must absorb a per-category offset: y = x + offset[cat].
#[test]
fn embedding_learns_category_offsets() {
    let mut rng = StdRng::seed_from_u64(9);
    let offsets = [0.0, 1.0, -1.5, 2.5];
    let n = 400;
    let cats: Vec<usize> = (0..n).map(|i| i % offsets.len()).collect();
    let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ys: Vec<f64> = xs.iter().zip(&cats).map(|(x, &c)| x + offsets[c]).collect();

    let mut ps = ParamSet::new();
    // Encoded indices are 1-based (0 is <unk>).
    let emb = Embedding::new(&mut ps, &mut rng, "em", offsets.len(), 4).unwrap();
    let head = Dense::new(&mut ps, &mut rng, "head", 5, 1, Activation::Linear).unwrap();
    let mut opt = Adam::new(0.02);

    let run = |ps: &ParamSet, idx: &[usize]| -> (Graph, env2vec_nn::NodeId) {
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let x_col: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
        let enc: Vec<usize> = idx.iter().map(|&i| cats[i] + 1).collect();
        let x = g.leaf(Matrix::col_vector(&x_col));
        let e = emb.lookup(&mut g, &bound, &enc).unwrap();
        let joined = g.concat_cols(&[x, e]).unwrap();
        let o = head.forward(&mut g, &bound, joined).unwrap();
        (g, o)
    };

    let all: Vec<usize> = (0..n).collect();
    let initial = {
        let (g, o) = run(&ps, &all);
        mse(&g.value(o).col(0), &ys).unwrap()
    };

    let mut stopper = EarlyStopping::new(20, 1e-6);
    for epoch in 0..400 {
        for batch in shuffled_batches(n, 64, epoch) {
            let mut g = Graph::new();
            let bound = ps.bind(&mut g);
            let x_col: Vec<f64> = batch.iter().map(|&i| xs[i]).collect();
            let enc: Vec<usize> = batch.iter().map(|&i| cats[i] + 1).collect();
            let by: Vec<f64> = batch.iter().map(|&i| ys[i]).collect();
            let x = g.leaf(Matrix::col_vector(&x_col));
            let e = emb.lookup(&mut g, &bound, &enc).unwrap();
            let joined = g.concat_cols(&[x, e]).unwrap();
            let o = head.forward(&mut g, &bound, joined).unwrap();
            let t = g.leaf(Matrix::col_vector(&by));
            let loss = g.mse(o, t).unwrap();
            g.backward(loss).unwrap();
            let grads = ps.gradients(&g, &bound).unwrap();
            opt.step(&mut ps, &grads).unwrap();
        }
        let (g, o) = run(&ps, &all);
        let val = mse(&g.value(o).col(0), &ys).unwrap();
        if stopper.observe(val, &ps) {
            break;
        }
    }
    let best = stopper.into_best(ps);
    let (g, o) = run(&best, &all);
    let fitted = mse(&g.value(o).col(0), &ys).unwrap();
    assert!(
        fitted < initial / 50.0 && fitted < 0.01,
        "embedding model did not fit: initial {initial}, fitted {fitted}"
    );
}

/// Serialised parameters must reproduce identical predictions.
#[test]
fn serialized_model_predicts_identically() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut ps = ParamSet::new();
    let layer = Dense::new(&mut ps, &mut rng, "d", 3, 2, Activation::Tanh).unwrap();
    let input = Matrix::from_vec(2, 3, vec![0.1, -0.5, 0.9, 1.1, 0.0, -0.2]).unwrap();

    let predict = |ps: &ParamSet| -> Matrix {
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let x = g.leaf(input.clone());
        let y = layer.forward(&mut g, &bound, x).unwrap();
        g.value(y).clone()
    };

    let before = predict(&ps);
    let restored = ParamSet::from_json(&ps.to_json()).unwrap();
    let after = predict(&restored);
    assert_eq!(before, after);
}
