//! The GRU's stateless first step against the zero-state formulation.
//!
//! `GruCell` unrolls from no state: its first step leaves out every term
//! of `h_0 = 0`. The oracle here builds the full cell from `Graph` ops
//! on a `Matrix::zeros` state, as the unroll once did, and the two must
//! agree on the output and every parameter gradient bit for bit, and on
//! every state under `==` (a tanh candidate under a saturated update
//! gate gives `-0.0` where the zero state gave `+0.0`).

use env2vec_linalg::Matrix;
use env2vec_nn::graph::{Graph, NodeId};
use env2vec_nn::layers::{activate, Activation, Dense, GruCell};
use env2vec_nn::params::{Bound, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 64;
const HIDDEN: usize = 16;

/// The zero-state unroll: every step is the full cell, the first one on
/// a zero leaf.
fn zero_state_unroll(
    g: &mut Graph,
    ps: &ParamSet,
    bound: &Bound,
    steps: &[NodeId],
    candidate: Activation,
) -> Vec<NodeId> {
    let p = |name: &str| bound.node(ps.find(&format!("gru.{name}")).unwrap());
    let mut h = g.leaf(Matrix::zeros(BATCH, HIDDEN));
    let mut states = Vec::new();
    for &x in steps {
        let gate = |g: &mut Graph, h: NodeId, gate: &str| {
            let xw = g.matmul(x, p(&format!("w_{gate}"))).unwrap();
            let hu = g.matmul(h, p(&format!("u_{gate}"))).unwrap();
            let sum = g.add(xw, hu).unwrap();
            g.add_row_broadcast(sum, p(&format!("b_{gate}"))).unwrap()
        };
        let z_pre = gate(g, h, "z");
        let z = g.sigmoid(z_pre);
        let r_pre = gate(g, h, "r");
        let r = g.sigmoid(r_pre);
        let xw = g.matmul(x, p("w_h")).unwrap();
        let rh = g.mul(r, h).unwrap();
        let rhu = g.matmul(rh, p("u_h")).unwrap();
        let pre = g.add(xw, rhu).unwrap();
        let pre = g.add_row_broadcast(pre, p("b_h")).unwrap();
        let cand = activate(g, pre, candidate);
        let one_minus_z = g.one_minus(z);
        let a = g.mul(one_minus_z, cand).unwrap();
        let b = g.mul(z, h).unwrap();
        h = g.add(a, b).unwrap();
        states.push(h);
    }
    states
}

/// History inputs with exact zeros of both signs and negative values.
fn input(t: usize) -> Matrix {
    Matrix::from_fn(BATCH, 1, |i, _| match (i + t) % 7 {
        0 => 0.0,
        1 => -0.0,
        k => (k as f64 - 3.5) * 0.3 * if i % 2 == 0 { 1.0 } else { -0.7 },
    })
}

/// Every state, the head output and every parameter gradient of one
/// forward and backward pass.
struct Run {
    states: Vec<Matrix>,
    output: Matrix,
    grads: Vec<Matrix>,
}

fn run(window: usize, candidate: Activation, zero_state: bool) -> Run {
    let mut rng = StdRng::seed_from_u64(window as u64 * 31 + 7);
    let mut ps = ParamSet::new();
    let cell = GruCell::new(&mut ps, &mut rng, "gru", 1, HIDDEN, candidate).unwrap();
    let head = Dense::new(
        &mut ps,
        &mut rng,
        "head",
        window * HIDDEN,
        1,
        Activation::Linear,
    )
    .unwrap();
    // Unit 0 saturates its update gate (z = 1 exactly) over a negative
    // candidate, so its new state is `0 · cand`, a `-0.0` under tanh.
    for (name, value) in [("gru.b_z", 40.0), ("gru.b_h", -3.0)] {
        let id = ps.find(name).unwrap();
        ps.value_mut(id).set(0, 0, value);
    }

    let mut g = Graph::new();
    let bound = ps.bind(&mut g);
    let steps: Vec<NodeId> = (0..window).map(|t| g.constant(input(t))).collect();
    let states = if zero_state {
        zero_state_unroll(&mut g, &ps, &bound, &steps, candidate)
    } else {
        cell.run_sequence_all(&mut g, &bound, &steps).unwrap()
    };
    let joined = g.concat_cols(&states).unwrap();
    let out = head.forward(&mut g, &bound, joined).unwrap();
    let target = g.constant(Matrix::from_fn(BATCH, 1, |i, _| i as f64 * 0.05 - 1.0));
    let loss = g.mse(out, target).unwrap();
    g.backward(loss).unwrap();
    Run {
        states: states.iter().map(|&s| g.value(s).clone()).collect(),
        output: g.value(out).clone(),
        grads: ps.gradients(&g, &bound).unwrap(),
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn stateless_first_step_matches_the_zero_state_unroll_bit_for_bit() {
    for candidate in [Activation::Relu, Activation::Tanh] {
        for window in [1, 2, 4] {
            let what = format!("{candidate:?} window {window}");
            let oracle = run(window, candidate, true);
            let got = run(window, candidate, false);
            assert_eq!(bits(&got.output), bits(&oracle.output), "{what}: output");
            assert_eq!(got.grads.len(), oracle.grads.len());
            for (p, (a, b)) in got.grads.iter().zip(&oracle.grads).enumerate() {
                assert_eq!(bits(a), bits(b), "{what}: gradient of parameter {p}");
            }
            assert_eq!(got.states, oracle.states, "{what}: states");
            let signed_zeros_differ = got
                .states
                .iter()
                .zip(&oracle.states)
                .any(|(a, b)| bits(a) != bits(b));
            // Only a tanh candidate can make `0 · cand` a `-0.0`; the
            // saturated unit above must actually reach that case.
            assert_eq!(signed_zeros_differ, candidate == Activation::Tanh, "{what}");
        }
    }
}
