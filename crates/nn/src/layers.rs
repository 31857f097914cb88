//! Neural-network layers used by the Env2Vec architecture.
//!
//! The paper's model (§3.1, Appendix A) combines three kinds of layers:
//! a one-hidden-layer sigmoid FNN over the contextual features, a GRU over
//! the resource-usage history, and per-EM-feature embedding lookup tables.
//! Each layer here registers its weights in a [`ParamSet`] at construction
//! and emits graph ops at forward time, so the same layer object serves
//! both training (fresh graph per step) and inference.

use env2vec_linalg::{Error, Matrix, Result};
use rand::Rng;

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::params::{Bound, ParamId, ParamSet};

/// Element-wise activation applied after a dense transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (identity).
    Linear,
    /// Logistic sigmoid — the paper's FNN hidden activation (Appendix A).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit — the paper's GRU candidate activation.
    Relu,
}

/// Applies an [`Activation`] to a node.
pub fn activate(graph: &mut Graph, x: NodeId, activation: Activation) -> NodeId {
    match activation {
        Activation::Linear => x,
        Activation::Sigmoid => graph.sigmoid(x),
        Activation::Tanh => graph.tanh(x),
        Activation::Relu => graph.relu(x),
    }
}

/// Fully-connected layer `act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer, registering `W` (`in_dim x out_dim`) and `b`
    /// (`1 x out_dim`) under `prefix` in `params`.
    ///
    /// Weights use Xavier initialisation for sigmoid/tanh/linear and He for
    /// ReLU. Returns an error when the prefix collides with existing
    /// parameter names.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Result<Self> {
        let w_init = match activation {
            Activation::Relu => init::he_uniform(rng, in_dim, out_dim),
            _ => init::xavier_uniform(rng, in_dim, out_dim),
        };
        let w = params.add(format!("{prefix}.w"), w_init)?;
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, out_dim))?;
        Ok(Dense {
            w,
            b,
            activation,
            in_dim,
            out_dim,
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Emits the layer's ops for a batch `x` (`B x in_dim`).
    ///
    /// Returns an error on shape mismatch.
    pub fn forward(&self, graph: &mut Graph, bound: &Bound, x: NodeId) -> Result<NodeId> {
        let wx = graph.matmul(x, bound.node(self.w))?;
        let z = graph.add_row_broadcast(wx, bound.node(self.b))?;
        Ok(activate(graph, z, self.activation))
    }
}

/// Gated recurrent unit (Cho et al. 2014) as formalised in the paper's
/// Appendix A.
///
/// Gates:
/// `z_t = σ(y_t W_z + h_{t-1} U_z + b_z)`,
/// `r_t = σ(y_t W_r + h_{t-1} U_r + b_r)`,
/// candidate `h'_t = f(y_t W_h + (r_t ⊙ h_{t-1}) U_h + b_h)` with `f`
/// configurable (the paper empirically adopts ReLU),
/// state `h_t = (1 - z_t) ⊙ h'_t + z_t ⊙ h_{t-1}`.
///
/// An unroll starts from no state rather than a zero matrix: with
/// `h_0 = 0` every `h_0`-term of the first step is an exact zero, so
/// that step is `z_1 = σ(y_1 W_z + b_z)`, `h_1 = (1 - z_1) ⊙ f(y_1 W_h +
/// b_h)`, and its reset gate feeds nothing. Dropping those terms moves
/// no output or parameter-gradient bit: `y W` is a GEMM chain from
/// `+0.0`, never `-0.0`, so adding the zero products would return it
/// unchanged, and every zero the backward pass leaves out would land on
/// a parameter-gradient chain that starts at `+0.0`. With a tanh
/// candidate and a saturated `z = 1`, `h_1` can be `-0.0` where the
/// zero-state step gave `+0.0`; every consumer of a state (a GEMM chain,
/// or a sum with a nonzero term) absorbs that sign, so outputs stay the
/// same bits and states compare equal.
#[derive(Debug, Clone)]
pub struct GruCell {
    w_z: ParamId,
    u_z: ParamId,
    b_z: ParamId,
    w_r: ParamId,
    u_r: ParamId,
    b_r: ParamId,
    w_h: ParamId,
    u_h: ParamId,
    b_h: ParamId,
    in_dim: usize,
    hidden: usize,
    candidate: Activation,
}

impl GruCell {
    /// Creates a GRU cell, registering its nine weight matrices under
    /// `prefix`.
    ///
    /// Returns an error when the prefix collides with existing names.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        candidate: Activation,
    ) -> Result<Self> {
        fn gate<R: Rng>(
            params: &mut ParamSet,
            rng: &mut R,
            prefix: &str,
            name: &str,
            in_dim: usize,
            hidden: usize,
        ) -> Result<(ParamId, ParamId, ParamId)> {
            let w = params.add(
                format!("{prefix}.w_{name}"),
                init::xavier_uniform(rng, in_dim, hidden),
            )?;
            let u = params.add(
                format!("{prefix}.u_{name}"),
                init::xavier_uniform(rng, hidden, hidden),
            )?;
            let b = params.add(format!("{prefix}.b_{name}"), Matrix::zeros(1, hidden))?;
            Ok((w, u, b))
        }
        let (w_z, u_z, b_z) = gate(params, rng, prefix, "z", in_dim, hidden)?;
        let (w_r, u_r, b_r) = gate(params, rng, prefix, "r", in_dim, hidden)?;
        let (w_h, u_h, b_h) = gate(params, rng, prefix, "h", in_dim, hidden)?;
        Ok(GruCell {
            w_z,
            u_z,
            b_z,
            w_r,
            u_r,
            b_r,
            w_h,
            u_h,
            b_h,
            in_dim,
            hidden,
            candidate,
        })
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width per timestep.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// One recurrence step: `x` is `B x in_dim`, `h` is the previous
    /// `B x hidden` state, or `None` for the first step of an unroll
    /// (the zero state, whose terms are left out; see the type docs).
    ///
    /// Returns the new hidden state node, or an error on shape mismatch.
    pub fn step(
        &self,
        graph: &mut Graph,
        bound: &Bound,
        x: NodeId,
        h: Option<NodeId>,
    ) -> Result<NodeId> {
        let gate = |graph: &mut Graph, w, u, b| -> Result<NodeId> {
            let xw = graph.matmul(x, bound.node(w))?;
            let sum = match h {
                Some(h) => {
                    let hu = graph.matmul(h, bound.node(u))?;
                    graph.add(xw, hu)?
                }
                None => xw,
            };
            graph.add_row_broadcast(sum, bound.node(b))
        };
        let z_pre = gate(graph, self.w_z, self.u_z, self.b_z)?;
        let z = graph.sigmoid(z_pre);
        // The reset gate only scales `h`, so a first step has none.
        let reset = match h {
            Some(h) => {
                let r_pre = gate(graph, self.w_r, self.u_r, self.b_r)?;
                Some((graph.sigmoid(r_pre), h))
            }
            None => None,
        };

        // Candidate: f(x W_h + (r ⊙ h) U_h + b_h).
        let xw = graph.matmul(x, bound.node(self.w_h))?;
        let pre = match reset {
            Some((r, h)) => {
                let rh = graph.mul(r, h)?;
                let rhu = graph.matmul(rh, bound.node(self.u_h))?;
                graph.add(xw, rhu)?
            }
            None => xw,
        };
        let pre = graph.add_row_broadcast(pre, bound.node(self.b_h))?;
        let cand = activate(graph, pre, self.candidate);

        // h_t = (1 - z) ⊙ h' + z ⊙ h_{t-1}.
        let one_minus_z = graph.one_minus(z);
        let a = graph.mul(one_minus_z, cand)?;
        match h {
            Some(h) => {
                let b = graph.mul(z, h)?;
                graph.add(a, b)
            }
            None => Ok(a),
        }
    }

    /// Unrolls the cell over a sequence of `B x in_dim` nodes (oldest
    /// first), starting from no state (the zero state), and returns the
    /// final hidden state (`v_ts` in the paper's Figure 2).
    ///
    /// Returns an error for an empty sequence or shape mismatch.
    pub fn run_sequence(
        &self,
        graph: &mut Graph,
        bound: &Bound,
        steps: &[NodeId],
    ) -> Result<NodeId> {
        Ok(*self
            .run_sequence_all(graph, bound, steps)?
            .last()
            // envlint: allow(no-panic) — run_sequence_all errors on an empty
            // unroll, so the returned state list is never empty.
            .expect("non-empty sequence yields states"))
    }

    /// Unrolls the cell and returns *every* hidden state, oldest first —
    /// the input to attention pooling.
    ///
    /// Returns an error for an empty sequence or shape mismatch.
    pub fn run_sequence_all(
        &self,
        graph: &mut Graph,
        bound: &Bound,
        steps: &[NodeId],
    ) -> Result<Vec<NodeId>> {
        if steps.is_empty() {
            return Err(Error::Empty {
                routine: "gru run_sequence",
            });
        }
        let mut states: Vec<NodeId> = Vec::with_capacity(steps.len());
        for &x in steps {
            let h = self.step(graph, bound, x, states.last().copied())?;
            states.push(h);
        }
        Ok(states)
    }
}

/// Additive attention pooling over a sequence of hidden states.
///
/// The paper's §6 names attention as the natural extension for learning
/// "relationships between metric values from previous timesteps": instead
/// of keeping only the last GRU state, score every state with a learned
/// vector, softmax the scores over time, and return the weighted sum.
#[derive(Debug, Clone)]
pub struct AttentionPool {
    w: ParamId,
    b: ParamId,
    hidden: usize,
}

impl AttentionPool {
    /// Creates an attention pool over `hidden`-wide states, registering
    /// its score vector under `prefix`.
    ///
    /// Returns an error when the prefix collides with existing names.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        prefix: &str,
        hidden: usize,
    ) -> Result<Self> {
        let w = params.add(format!("{prefix}.w"), init::xavier_uniform(rng, hidden, 1))?;
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, 1))?;
        Ok(AttentionPool { w, b, hidden })
    }

    /// Pools a sequence of `B x hidden` states into one `B x hidden`
    /// summary: `Σ_t softmax_t(h_t w + b) h_t`.
    ///
    /// Returns an error for an empty sequence or width mismatch.
    pub fn forward(&self, graph: &mut Graph, bound: &Bound, states: &[NodeId]) -> Result<NodeId> {
        if states.is_empty() {
            return Err(Error::Empty {
                routine: "attention forward",
            });
        }
        // Scores per timestep, concatenated into B x T.
        let scores: Vec<NodeId> = states
            .iter()
            .map(|&h| {
                let s = graph.matmul(h, bound.node(self.w))?;
                graph.add_row_broadcast(s, bound.node(self.b))
            })
            .collect::<Result<Vec<_>>>()?;
        let stacked = graph.concat_cols(&scores)?;
        let alpha = graph.row_softmax(stacked);

        // Weighted sum: broadcast each alpha column across the state width.
        let ones = graph.constant(Matrix::filled(1, self.hidden, 1.0));
        let mut pooled: Option<NodeId> = None;
        for (t, &h) in states.iter().enumerate() {
            let a_col = graph.slice_cols(alpha, t, 1)?;
            let a_wide = graph.matmul(a_col, ones)?;
            let weighted = graph.mul(a_wide, h)?;
            pooled = Some(match pooled {
                None => weighted,
                Some(acc) => graph.add(acc, weighted)?,
            });
        }
        // envlint: allow(no-panic) — run_sequence_all errors on an empty
        // unroll, so the loop above executed at least once.
        Ok(pooled.expect("at least one state"))
    }
}

/// Embedding lookup table with a reserved `<unk>` row.
///
/// Row `0` is the unknown-value embedding the paper uses for environment
/// values never seen in training (§3.1: "the lookup table also contains an
/// additional unknown vector/embedding"); known values occupy rows
/// `1..=vocab`.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Index of the `<unk>` row.
    pub const UNK: usize = 0;

    /// Creates an embedding table of `vocab + 1` rows (`<unk>` + known
    /// values), each of width `dim`, initialised `U(-0.05, 0.05)`.
    ///
    /// Returns an error when `name` collides with existing parameters.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Result<Self> {
        let table = params.add(name, init::uniform(rng, vocab + 1, dim, 0.05))?;
        Ok(Embedding { table, vocab, dim })
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of known values (excluding `<unk>`).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Parameter id of the underlying table.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Looks up a batch of row indices, producing a `B x dim` node.
    ///
    /// Indices must already be encoded (0 for `<unk>`, `1..=vocab`
    /// otherwise); out-of-range indices are an error.
    pub fn lookup(&self, graph: &mut Graph, bound: &Bound, indices: &[usize]) -> Result<NodeId> {
        for &i in indices {
            if i > self.vocab {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    len: self.vocab + 1,
                });
            }
        }
        graph.gather_rows(bound.node(self.table), indices)
    }

    /// Reads the current embedding vector for an encoded index, outside any
    /// graph.
    ///
    /// Returns an error for an out-of-range index.
    pub fn vector<'p>(&self, params: &'p ParamSet, index: usize) -> Result<&'p [f64]> {
        if index > self.vocab {
            return Err(Error::IndexOutOfBounds {
                index,
                len: self.vocab + 1,
            });
        }
        Ok(params.value(self.table).row(index))
    }
}

/// Builds an inverted-dropout mask: each element is `0` with probability
/// `rate`, else `1 / (1 - rate)`.
///
/// Returns an error when `rate` is outside `[0, 1)`. A rate of `0` yields
/// an all-ones mask.
pub fn dropout_mask(rng: &mut impl Rng, rows: usize, cols: usize, rate: f64) -> Result<Matrix> {
    if !(0.0..1.0).contains(&rate) {
        return Err(Error::InvalidArgument {
            what: "dropout rate must be in [0, 1)",
        });
    }
    // envlint: allow(float-cmp) — exact fast path: only a rate of
    // bitwise 0.0 may skip mask sampling without changing results.
    if rate == 0.0 {
        return Ok(Matrix::filled(rows, cols, 1.0));
    }
    let keep = 1.0 - rate;
    Ok(Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen::<f64>() < rate {
            0.0
        } else {
            1.0 / keep
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn dense_forward_shape_and_activation() {
        let mut ps = ParamSet::new();
        let layer = Dense::new(&mut ps, &mut rng(), "fnn", 3, 4, Activation::Sigmoid).unwrap();
        assert_eq!(layer.in_dim(), 3);
        assert_eq!(layer.out_dim(), 4);

        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let x = g.leaf(Matrix::filled(2, 3, 0.5));
        let y = layer.forward(&mut g, &bound, x).unwrap();
        assert_eq!(g.value(y).shape(), (2, 4));
        // Sigmoid output strictly within (0, 1).
        assert!(g.value(y).as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn dense_linear_matches_manual_matmul() {
        let mut ps = ParamSet::new();
        let layer = Dense::new(&mut ps, &mut rng(), "lin", 2, 2, Activation::Linear).unwrap();
        let w = ps.value(ps.find("lin.w").unwrap()).clone();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let xv = Matrix::from_vec(1, 2, vec![1.0, -2.0]).unwrap();
        let x = g.leaf(xv.clone());
        let y = layer.forward(&mut g, &bound, x).unwrap();
        let expect = xv.matmul(&w).unwrap();
        for (a, b) in g.value(y).as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gru_step_and_sequence_shapes() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 5, Activation::Relu).unwrap();
        assert_eq!(cell.hidden(), 5);

        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let steps: Vec<NodeId> = (0..3)
            .map(|i| g.leaf(Matrix::filled(2, 1, i as f64 * 0.1)))
            .collect();
        let h = cell.run_sequence(&mut g, &bound, &steps).unwrap();
        assert_eq!(g.value(h).shape(), (2, 5));
        assert!(g.value(h).is_finite());
    }

    #[test]
    fn gru_rejects_empty_sequence() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 3, Activation::Tanh).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        assert!(cell.run_sequence(&mut g, &bound, &[]).is_err());
    }

    #[test]
    fn gru_state_depends_on_input_history() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 4, Activation::Relu).unwrap();
        let run = |vals: &[f64]| -> Matrix {
            let mut g = Graph::new();
            let bound = ps.bind(&mut g);
            let steps: Vec<NodeId> = vals
                .iter()
                .map(|&v| g.leaf(Matrix::filled(1, 1, v)))
                .collect();
            let h = cell.run_sequence(&mut g, &bound, &steps).unwrap();
            g.value(h).clone()
        };
        // Mixed-sign inputs: with a ReLU candidate and uniform init, an
        // all-positive sequence can leave every hidden unit dead (state
        // pinned at zero) for an unlucky draw, which would vacuously pass
        // the inequality below.
        let a = run(&[0.4, -0.2, 0.3]);
        let b = run(&[0.3, -0.2, 0.4]);
        // Same multiset of inputs, different order → different state.
        assert_ne!(a, b);
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 3, Activation::Relu).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let steps: Vec<NodeId> = (0..4)
            .map(|i| g.leaf(Matrix::filled(2, 1, 0.3 + 0.1 * i as f64)))
            .collect();
        let h = cell.run_sequence(&mut g, &bound, &steps).unwrap();
        let target = g.leaf(Matrix::filled(2, 3, 0.5));
        let loss = g.mse(h, target).unwrap();
        g.backward(loss).unwrap();
        let grads = ps.gradients(&g, &bound).unwrap();
        // Every GRU weight matrix participates, so every grad is non-zero.
        for ((_, name, _), grad) in ps.iter().zip(&grads) {
            assert!(grad.max_abs() > 0.0, "parameter {name} got a zero gradient");
        }
    }

    #[test]
    fn embedding_lookup_unknown_and_bounds() {
        let mut ps = ParamSet::new();
        let emb = Embedding::new(&mut ps, &mut rng(), "em.testbed", 3, 10).unwrap();
        assert_eq!(emb.dim(), 10);
        assert_eq!(emb.vocab(), 3);

        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let looked = emb.lookup(&mut g, &bound, &[0, 1, 3]).unwrap();
        let out = g.value(looked).clone();
        assert_eq!(out.shape(), (3, 10));
        // Row 0 of the output is the <unk> vector.
        assert_eq!(out.row(0), emb.vector(&ps, Embedding::UNK).unwrap());

        let mut g2 = Graph::new();
        let bound2 = ps.bind(&mut g2);
        assert!(emb.lookup(&mut g2, &bound2, &[4]).is_err());
        assert!(emb.vector(&ps, 4).is_err());
    }

    #[test]
    fn embedding_gradient_only_touches_looked_up_rows() {
        let mut ps = ParamSet::new();
        let emb = Embedding::new(&mut ps, &mut rng(), "em", 4, 3).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let looked = emb.lookup(&mut g, &bound, &[2, 2]).unwrap();
        let sq = g.square(looked);
        let loss = g.mean_all(sq).unwrap();
        g.backward(loss).unwrap();
        let grad = ps
            .gradients(&g, &bound)
            .unwrap()
            .remove(emb.table().index());
        for row in 0..grad.rows() {
            let nz = grad.row(row).iter().any(|&x| x != 0.0);
            assert_eq!(nz, row == 2, "row {row}");
        }
    }

    #[test]
    fn attention_pool_shapes_and_weighted_sum() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 4, Activation::Tanh).unwrap();
        let pool = AttentionPool::new(&mut ps, &mut rng(), "attn", 4).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let steps: Vec<NodeId> = (0..5)
            .map(|i| g.leaf(Matrix::filled(3, 1, 0.1 * i as f64)))
            .collect();
        let states = cell.run_sequence_all(&mut g, &bound, &steps).unwrap();
        assert_eq!(states.len(), 5);
        let pooled = pool.forward(&mut g, &bound, &states).unwrap();
        assert_eq!(g.value(pooled).shape(), (3, 4));
        assert!(g.value(pooled).is_finite());
        // The pooled state is a convex combination of hidden states, so
        // each element lies within the per-element min/max across time.
        let vals: Vec<&Matrix> = states.iter().map(|&s| g.value(s)).collect();
        for r in 0..3 {
            for c in 0..4 {
                let lo = vals
                    .iter()
                    .map(|m| m.get(r, c))
                    .fold(f64::INFINITY, f64::min);
                let hi = vals
                    .iter()
                    .map(|m| m.get(r, c))
                    .fold(f64::NEG_INFINITY, f64::max);
                let p = g.value(pooled).get(r, c);
                assert!(
                    p >= lo - 1e-9 && p <= hi + 1e-9,
                    "({r},{c}): {p} not in [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn attention_gradients_reach_score_vector() {
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, &mut rng(), "gru", 1, 3, Activation::Tanh).unwrap();
        let pool = AttentionPool::new(&mut ps, &mut rng(), "attn", 3).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        let steps: Vec<NodeId> = (0..4)
            .map(|i| g.leaf(Matrix::filled(2, 1, 0.2 + 0.3 * i as f64)))
            .collect();
        let states = cell.run_sequence_all(&mut g, &bound, &steps).unwrap();
        let pooled = pool.forward(&mut g, &bound, &states).unwrap();
        let target = g.leaf(Matrix::filled(2, 3, 0.4));
        let loss = g.mse(pooled, target).unwrap();
        g.backward(loss).unwrap();
        let grads = ps.gradients(&g, &bound).unwrap();
        let attn_w = ps.find("attn.w").unwrap();
        assert!(
            grads[attn_w.index()].max_abs() > 0.0,
            "score vector got no gradient"
        );
    }

    #[test]
    fn attention_rejects_empty_sequence() {
        let mut ps = ParamSet::new();
        let pool = AttentionPool::new(&mut ps, &mut rng(), "attn", 3).unwrap();
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        assert!(pool.forward(&mut g, &bound, &[]).is_err());
    }

    #[test]
    fn dropout_mask_properties() {
        let mask = dropout_mask(&mut rng(), 50, 50, 0.4).unwrap();
        let keep = 1.0 / 0.6;
        let mut zeros = 0usize;
        for &v in mask.as_slice() {
            assert!(v == 0.0 || (v - keep).abs() < 1e-12);
            if v == 0.0 {
                zeros += 1;
            }
        }
        let frac = zeros as f64 / 2500.0;
        assert!((frac - 0.4).abs() < 0.05, "dropout fraction {frac}");
        assert_eq!(
            dropout_mask(&mut rng(), 2, 2, 0.0).unwrap(),
            Matrix::filled(2, 2, 1.0)
        );
        assert!(dropout_mask(&mut rng(), 2, 2, 1.0).is_err());
        assert!(dropout_mask(&mut rng(), 2, 2, -0.1).is_err());
    }
}
