//! The op profiler counts the allocations the tape really makes.
//!
//! This file holds one test on purpose: the profiler is process-global,
//! and a second test building graphs on another thread while it is on
//! would add its allocations to these counts.

use env2vec_linalg::Matrix;
use env2vec_nn::graph::Graph;
use env2vec_nn::layers::{Activation, Dense, GruCell};
use env2vec_nn::params::ParamSet;
use env2vec_nn::profile::{self, OpStat};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations one profiled run of `step` made, in total and in `MatMul`
/// ops (forward and backward).
fn profiled_allocs(step: impl FnOnce()) -> (u64, u64) {
    profile::reset();
    profile::enable();
    step();
    profile::disable();
    let stats: Vec<OpStat> = profile::snapshot();
    let total = stats.iter().map(|s| s.allocs).sum();
    let matmul = stats
        .iter()
        .filter(|s| s.op == "MatMul")
        .map(|s| s.allocs)
        .sum();
    (total, matmul)
}

#[test]
fn a_repeated_step_on_a_reset_graph_allocates_less_and_matmul_nothing() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let fnn = Dense::new(&mut ps, &mut rng, "fnn", 3, 8, Activation::Sigmoid).unwrap();
    let gru = GruCell::new(&mut ps, &mut rng, "gru", 1, 4, Activation::Relu).unwrap();
    let head = Dense::new(&mut ps, &mut rng, "head", 12, 1, Activation::Linear).unwrap();
    let cf = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 * 0.1 - 0.5);
    let target = Matrix::from_fn(6, 1, |i, _| i as f64 * 0.2);

    let mut graph = Graph::new();
    let mut step = || {
        graph.reset();
        let bound = ps.bind(&mut graph);
        let x = graph.constant(cf.clone());
        let v_fs = fnn.forward(&mut graph, &bound, x).unwrap();
        let steps: Vec<_> = (0..3)
            .map(|t| graph.constant(Matrix::filled(6, 1, 0.3 * t as f64 - 0.2)))
            .collect();
        let v_ts = gru.run_sequence(&mut graph, &bound, &steps).unwrap();
        let joined = graph.concat_cols(&[v_ts, v_fs]).unwrap();
        let pred = head.forward(&mut graph, &bound, joined).unwrap();
        let t = graph.constant(target.clone());
        let loss = graph.mse(pred, t).unwrap();
        graph.backward(loss).unwrap();
        ps.gradients(&graph, &bound).unwrap();
    };

    let (first, first_matmul) = profiled_allocs(&mut step);
    assert!(
        first_matmul > 0,
        "a cold arena must allocate MatMul outputs"
    );
    for run in 2..=4 {
        let (total, matmul) = profiled_allocs(&mut step);
        assert!(
            total < first,
            "run {run}: {total} allocations, not fewer than the first run's {first}"
        );
        assert_eq!(matmul, 0, "run {run}: MatMul allocated on a warm arena");
    }
}
