//! Define-by-run computation graph with reverse-mode autodiff.
//!
//! A [`Graph`] is a tape: every operation appends a node holding its forward
//! value and the identity of its inputs. Because an op can only reference
//! nodes created before it, the insertion order is already a topological
//! order, and [`Graph::backward`] is a single reverse sweep accumulating
//! gradients.
//!
//! Graphs are cheap and short-lived: a training step builds one, runs
//! backward, pulls out the parameter gradients, and drops it.
//!
//! Leaves come in two kinds. A [`Graph::leaf`] (every bound parameter)
//! takes a gradient; a [`Graph::constant`] (a data input: features,
//! history, targets) does not. Every node records whether any operand
//! leads back to a leaf, and [`Graph::backward`] computes only those
//! gradients: it skips nodes built from constants alone, and each
//! operand side of a binary op that leads only to constants (a model's
//! first `x·W` never computes `dx`). Parameter gradients never read a
//! constant's gradient, so skipping them moves no bit.

use env2vec_linalg::{Error, Matrix, Result};

use crate::profile::{OpCost, OpTimer, Phase};

/// The arena class of a buffer with capacity `capacity` (at least 1):
/// `floor(log2(capacity))`.
fn capacity_class(capacity: usize) -> usize {
    capacity.ilog2() as usize
}

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index of the node in its graph's tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The operation that produced a node.
#[derive(Debug, Clone)]
enum Op {
    /// A leaf value that takes a gradient (a bound parameter).
    Leaf,
    /// A leaf value that takes no gradient (a data input).
    Constant,
    /// Matrix product `a * b`.
    MatMul(NodeId, NodeId),
    /// Element-wise sum of two same-shape nodes.
    Add(NodeId, NodeId),
    /// Adds a `1 x C` row to every row of an `R x C` node.
    AddRowBroadcast(NodeId, NodeId),
    /// Element-wise difference `a - b`.
    Sub(NodeId, NodeId),
    /// Element-wise (Hadamard) product.
    Mul(NodeId, NodeId),
    /// Scalar multiple `alpha * a`.
    Scale(NodeId, f64),
    /// Element-wise `a + alpha`.
    AddScalar(NodeId),
    /// Element-wise logistic sigmoid.
    Sigmoid(NodeId),
    /// Element-wise hyperbolic tangent.
    Tanh(NodeId),
    /// Element-wise rectified linear unit.
    Relu(NodeId),
    /// Element-wise square.
    Square(NodeId),
    /// Column-wise concatenation of same-row-count nodes.
    ConcatCols(Vec<NodeId>),
    /// Gathers the listed rows of a table node (embedding lookup).
    GatherRows { table: NodeId, indices: Vec<usize> },
    /// Sums each row to produce an `R x 1` column.
    RowSums(NodeId),
    /// Mean over all elements, producing a `1 x 1` scalar node.
    MeanAll(NodeId),
    /// Element-wise product with a fixed (inverted-dropout) mask.
    DropoutMask { input: NodeId, mask: Matrix },
    /// Row-wise softmax (used by attention pooling).
    RowSoftmax(NodeId),
    /// Contiguous column slice `[start, start + len)`.
    SliceCols {
        input: NodeId,
        start: usize,
        len: usize,
    },
}

impl Op {
    /// The op's name for profiler attribution and sanitizer diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "Leaf",
            Op::Constant => "Constant",
            Op::MatMul(..) => "MatMul",
            Op::Add(..) => "Add",
            Op::AddRowBroadcast(..) => "AddRowBroadcast",
            Op::Sub(..) => "Sub",
            Op::Mul(..) => "Mul",
            Op::Scale(..) => "Scale",
            Op::AddScalar(..) => "AddScalar",
            Op::Sigmoid(..) => "Sigmoid",
            Op::Tanh(..) => "Tanh",
            Op::Relu(..) => "Relu",
            Op::Square(..) => "Square",
            Op::ConcatCols(..) => "ConcatCols",
            Op::GatherRows { .. } => "GatherRows",
            Op::RowSums(..) => "RowSums",
            Op::MeanAll(..) => "MeanAll",
            Op::DropoutMask { .. } => "DropoutMask",
            Op::RowSoftmax(..) => "RowSoftmax",
            Op::SliceCols { .. } => "SliceCols",
        }
    }

    /// Whether a node built by this op takes a gradient, given which
    /// nodes do: a leaf does, a constant does not, and any other op does
    /// when one of its operands does.
    fn needs_grad(&self, needs: impl Fn(NodeId) -> bool) -> bool {
        match *self {
            Op::Leaf => true,
            Op::Constant => false,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b) => needs(a) || needs(b),
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Square(a)
            | Op::RowSums(a)
            | Op::MeanAll(a)
            | Op::RowSoftmax(a) => needs(a),
            Op::ConcatCols(ref parts) => parts.iter().any(|&p| needs(p)),
            Op::GatherRows { table, .. } => needs(table),
            Op::DropoutMask { input, .. } | Op::SliceCols { input, .. } => needs(input),
        }
    }
}

/// One tape entry.
#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// Whether a gradient flows into this node (see [`Op::needs_grad`]).
    needs_grad: bool,
}

/// A define-by-run computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Scratch arena: spent value/gradient buffers harvested by
    /// [`Graph::reset`], handed back out to ops that build fresh
    /// matrices. Class `c` holds buffers whose capacity is at least
    /// `2^c` and less than `2^(c+1)`, and a request for `len` doubles
    /// takes from the smallest class that must fit it, so a step that
    /// repeats the last one's shapes finds a large-enough buffer for
    /// every output. After the first step of a training loop that reuses
    /// its graph, forward MatMuls, backward MatMuls and gradient clones
    /// all draw from here instead of the allocator (the profiler's
    /// allocation counts measure exactly this).
    arena: Vec<Vec<Vec<f64>>>,
    /// Allocations the running op has made so far: buffers the arena
    /// could not supply at the size asked for, and the op's own lists.
    /// The profiler reads and clears it as each op finishes.
    allocs: u64,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for the next step while keeping every node's
    /// value and gradient storage in the scratch arena, so a training
    /// loop that holds one `Graph` across steps stops allocating once
    /// warm.
    pub fn reset(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.give_buf(node.value.into_vec());
            if let Some(grad) = node.grad {
                self.give_buf(grad.into_vec());
            }
        }
        self.nodes = nodes;
    }

    /// Takes a spent buffer with capacity for `len` doubles from the
    /// scratch arena. When no class that must fit holds one, the buffer
    /// is allocated with capacity `len` rounded up to a power of two (so
    /// it lands in the class that serves `len` again) and the allocation
    /// is counted for the profiler.
    fn take_buf(&mut self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let fits = len.next_power_of_two();
        for class in self.arena.iter_mut().skip(capacity_class(fits)) {
            if let Some(buf) = class.pop() {
                return buf;
            }
        }
        self.allocs += 1;
        Vec::with_capacity(fits)
    }

    /// Returns a spent buffer to the scratch arena.
    fn give_buf(&mut self, buf: Vec<f64>) {
        // Backstop: a steady-state step takes as many buffers of each
        // class as it gives back, but an unusually large step must not
        // leave its high-water mark pinned in the pool forever.
        const CLASS_CAP: usize = 256;
        if buf.capacity() == 0 {
            return;
        }
        let class = capacity_class(buf.capacity());
        if self.arena.len() <= class {
            self.arena.resize_with(class + 1, Vec::new);
        }
        if self.arena[class].len() < CLASS_CAP {
            self.arena[class].push(buf);
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, timer: OpTimer) -> NodeId {
        #[cfg(feature = "numeric-sanitizer")]
        assert!(
            value.is_finite(),
            "numeric-sanitizer: non-finite forward value out of op `{}` (node {})",
            op.name(),
            self.nodes.len()
        );
        let site = self.nodes.len();
        let allocs = std::mem::take(&mut self.allocs);
        let needs_grad = op.needs_grad(|id| self.needs_grad(id));
        let profiled = timer
            .armed()
            .then(|| (op.name(), self.forward_cost(&op, &value, allocs)));
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        if let Some((name, cost)) = profiled {
            timer.finish(Phase::Forward, name, site, cost);
        }
        NodeId(site)
    }

    /// Whether a gradient flows into node `id`.
    fn needs_grad(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Cost of one forward op execution: `allocs` as counted, and a
    /// static flop estimate from the op's shapes (MatMul `2·m·k·n`,
    /// transcendentals a small multiple of the element count, pure data
    /// movement zero).
    fn forward_cost(&self, op: &Op, out: &Matrix, allocs: u64) -> OpCost {
        let n = out.len() as u64;
        let flops = match op {
            Op::Leaf | Op::Constant => 0,
            Op::MatMul(a, b) => {
                let av = &self.nodes[a.0].value;
                let cols = self.nodes[b.0].value.cols();
                (2 * av.rows() * av.cols() * cols) as u64
            }
            Op::Add(..)
            | Op::AddRowBroadcast(..)
            | Op::Sub(..)
            | Op::Mul(..)
            | Op::Scale(..)
            | Op::AddScalar(..)
            | Op::Relu(..)
            | Op::Square(..)
            | Op::DropoutMask { .. } => n,
            // exp-based activations: a few flops per element.
            Op::Sigmoid(..) | Op::Tanh(..) => 4 * n,
            Op::RowSums(a) | Op::MeanAll(a) => self.nodes[a.0].value.len() as u64,
            // max + exp + normalise per element.
            Op::RowSoftmax(..) => 5 * n,
            // Pure data movement.
            Op::ConcatCols(..) | Op::GatherRows { .. } | Op::SliceCols { .. } => 0,
        };
        OpCost {
            flops,
            allocs,
            out_elems: n,
        }
    }

    /// Estimated flops of one backward step through `op`, given the
    /// output gradient flowing into it. Only the operand sides that
    /// take a gradient are computed, and only they are counted.
    fn backward_flops(&self, op: &Op, out_grad: &Matrix) -> u64 {
        let n = out_grad.len() as u64;
        let sides =
            |a: NodeId, b: NodeId| u64::from(self.needs_grad(a)) + u64::from(self.needs_grad(b));
        match *op {
            Op::Leaf | Op::Constant => 0,
            // dA = dY·Bᵀ and dB = Aᵀ·dY through the transposed GEMM
            // entry points, `2·|dY|·k` flops each — no transposed copies.
            Op::MatMul(a, b) => {
                let k = self.nodes[b.0].value.rows() as u64;
                2 * n * k * sides(a, b)
            }
            Op::Mul(a, b) => n * sides(a, b),
            Op::Add(..) | Op::Sub(..) => n,
            Op::AddRowBroadcast(..) => 2 * n,
            Op::Scale(..) | Op::AddScalar(..) => n,
            // Local derivative from the cached activation (2 flops per
            // element) times the output gradient.
            Op::Sigmoid(..) | Op::Tanh(..) => 3 * n,
            Op::Relu(..) | Op::Square(..) | Op::DropoutMask { .. } => 2 * n,
            Op::ConcatCols(..) => 0,
            Op::GatherRows { .. } | Op::SliceCols { .. } => n,
            Op::RowSums(a) | Op::MeanAll(a) => self.nodes[a.0].value.len() as u64,
            Op::RowSoftmax(..) => 4 * n,
        }
    }

    /// Adds a leaf node holding `value` that takes a gradient (a bound
    /// parameter, or an input whose gradient is wanted).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        let timer = OpTimer::start();
        self.push(value, Op::Leaf, timer)
    }

    /// Adds a leaf node holding a copy of `value`, drawing the copy's
    /// storage from the scratch arena (the zero-allocation counterpart
    /// of `leaf(value.clone())` for graphs reused via [`Graph::reset`]).
    pub fn leaf_from(&mut self, value: &Matrix) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(value.len());
        self.push(value.clone_with(buf), Op::Leaf, timer)
    }

    /// Adds a constant node holding `value`: a data input that takes no
    /// gradient. [`Graph::backward`] computes none for it, nor for any
    /// op over constants alone, so their [`Graph::grad`] stays `None`.
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        let timer = OpTimer::start();
        self.push(value, Op::Constant, timer)
    }

    /// Forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this graph.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Gradient of the loss with respect to a node, if backward has reached
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this graph.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Matrix product node.
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.rows() * self.nodes[b.0].value.cols());
        let v = self.nodes[a.0]
            .value
            .matmul_with(&self.nodes[b.0].value, buf)?;
        Ok(self.push(v, Op::MatMul(a, b), timer))
    }

    /// Element-wise sum node.
    ///
    /// Returns an error on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0]
            .value
            .add_with(&self.nodes[b.0].value, buf)?;
        Ok(self.push(v, Op::Add(a, b), timer))
    }

    /// Adds the `1 x C` row `bias` to every row of `a`.
    ///
    /// Returns an error when `bias` is not a single row of matching width.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        if bv.rows() != 1 || bv.cols() != av.cols() {
            return Err(Error::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: av.shape(),
                rhs: bv.shape(),
            });
        }
        // One pass: each output row is written as `a + b` straight from
        // both operands.
        let mut buf = self.take_buf(self.nodes[a.0].value.len());
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        buf.clear();
        buf.reserve(av.len());
        for i in 0..av.rows() {
            buf.extend(av.row(i).iter().zip(bv.row(0)).map(|(&x, &b)| x + b));
        }
        let v = Matrix::from_vec(av.rows(), av.cols(), buf)?;
        Ok(self.push(v, Op::AddRowBroadcast(a, bias), timer))
    }

    /// Element-wise difference node.
    ///
    /// Returns an error on shape mismatch.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0]
            .value
            .sub_with(&self.nodes[b.0].value, buf)?;
        Ok(self.push(v, Op::Sub(a, b), timer))
    }

    /// Element-wise product node.
    ///
    /// Returns an error on shape mismatch.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0]
            .value
            .hadamard_with(&self.nodes[b.0].value, buf)?;
        Ok(self.push(v, Op::Mul(a, b), timer))
    }

    /// Scalar multiple node.
    pub fn scale(&mut self, a: NodeId, alpha: f64) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.scale_with(alpha, buf);
        self.push(v, Op::Scale(a, alpha), timer)
    }

    /// Element-wise `a + alpha` node.
    pub fn add_scalar(&mut self, a: NodeId, alpha: f64) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.map_with(buf, |x| x + alpha);
        self.push(v, Op::AddScalar(a), timer)
    }

    /// `1 - a`, the complement used by the GRU interpolation gate.
    pub fn one_minus(&mut self, a: NodeId) -> NodeId {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// Logistic-sigmoid node.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0]
            .value
            .map_with(buf, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a), timer)
    }

    /// Hyperbolic-tangent node.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.map_with(buf, f64::tanh);
        self.push(v, Op::Tanh(a), timer)
    }

    /// ReLU node.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.map_with(buf, |x| x.max(0.0));
        self.push(v, Op::Relu(a), timer)
    }

    /// Element-wise square node.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.map_with(buf, |x| x * x);
        self.push(v, Op::Square(a), timer)
    }

    /// Column-wise concatenation of nodes with equal row counts.
    ///
    /// Returns an error for an empty list or mismatched row counts.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> Result<NodeId> {
        let timer = OpTimer::start();
        if parts.is_empty() {
            return Err(Error::Empty {
                routine: "concat_cols",
            });
        }
        let rows = self.nodes[parts[0].0].value.rows();
        let mut cols = 0;
        for &p in parts {
            let pv = &self.nodes[p.0].value;
            if pv.rows() != rows {
                return Err(Error::ShapeMismatch {
                    op: "concat_cols",
                    lhs: (rows, cols),
                    rhs: pv.shape(),
                });
            }
            cols += pv.cols();
        }
        // Single gather into one arena buffer instead of the old
        // clone-then-repeated-hstack cascade (quadratic allocation).
        let mut buf = self.take_buf(rows * cols);
        buf.clear();
        buf.reserve(rows * cols);
        for r in 0..rows {
            for &p in parts {
                buf.extend_from_slice(self.nodes[p.0].value.row(r));
            }
        }
        let v = Matrix::from_vec(rows, cols, buf)?;
        let parts = self.counted_copy(parts);
        Ok(self.push(v, Op::ConcatCols(parts), timer))
    }

    /// Gathers `indices` rows of `table` (an embedding lookup).
    ///
    /// Returns an error when an index is out of range.
    pub fn gather_rows(&mut self, table: NodeId, indices: &[usize]) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(indices.len() * self.nodes[table.0].value.cols());
        let v = self.nodes[table.0].value.select_rows_with(indices, buf)?;
        let indices = self.counted_copy(indices);
        Ok(self.push(v, Op::GatherRows { table, indices }, timer))
    }

    /// Sums each row, producing an `R x 1` node — the `Σ v_d ⊙ C`
    /// reduction of the paper's Equation 2.
    pub fn row_sums(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.rows());
        let av = &self.nodes[a.0].value;
        let v = Matrix::from_fn_with(av.rows(), 1, buf, |i, _| av.row(i).iter().sum());
        self.push(v, Op::RowSums(a), timer)
    }

    /// Mean over all elements, producing a `1 x 1` scalar node.
    ///
    /// Returns an error for an empty input.
    pub fn mean_all(&mut self, a: NodeId) -> Result<NodeId> {
        let timer = OpTimer::start();
        if self.nodes[a.0].value.is_empty() {
            return Err(Error::Empty {
                routine: "mean_all",
            });
        }
        let buf = self.take_buf(1);
        let av = &self.nodes[a.0].value;
        let v = Matrix::from_fn_with(1, 1, buf, |_, _| av.sum() / av.len() as f64);
        Ok(self.push(v, Op::MeanAll(a), timer))
    }

    /// Applies a precomputed inverted-dropout mask (entries `0` or
    /// `1 / keep_prob`).
    ///
    /// Returns an error on shape mismatch. Callers build masks with
    /// [`crate::layers::dropout_mask`]; at inference time no mask op is
    /// recorded at all.
    pub fn dropout(&mut self, a: NodeId, mask: Matrix) -> Result<NodeId> {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let v = self.nodes[a.0].value.hadamard_with(&mask, buf)?;
        Ok(self.push(v, Op::DropoutMask { input: a, mask }, timer))
    }

    /// Contiguous column slice `[start, start + len)` of a node.
    ///
    /// Returns an error when the slice exceeds the node's width.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> Result<NodeId> {
        let timer = OpTimer::start();
        let av = &self.nodes[a.0].value;
        if start + len > av.cols() || len == 0 {
            return Err(Error::InvalidArgument {
                what: "slice_cols out of range or empty",
            });
        }
        let buf = self.take_buf(av.rows() * len);
        let av = &self.nodes[a.0].value;
        let v = Matrix::from_fn_with(av.rows(), len, buf, |i, j| av.get(i, start + j));
        Ok(self.push(
            v,
            Op::SliceCols {
                input: a,
                start,
                len,
            },
            timer,
        ))
    }

    /// Row-wise softmax node: each row becomes a probability
    /// distribution. Numerically stabilised by subtracting the row max.
    pub fn row_softmax(&mut self, a: NodeId) -> NodeId {
        let timer = OpTimer::start();
        let buf = self.take_buf(self.nodes[a.0].value.len());
        let av = &self.nodes[a.0].value;
        let mut v = av.clone_with(buf);
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        self.push(v, Op::RowSoftmax(a), timer)
    }

    /// Convenience: mean-squared-error node between prediction and target.
    ///
    /// Returns an error on shape mismatch.
    pub fn mse(&mut self, pred: NodeId, target: NodeId) -> Result<NodeId> {
        let diff = self.sub(pred, target)?;
        let sq = self.square(diff);
        self.mean_all(sq)
    }

    /// Runs reverse-mode differentiation from `loss`, accumulating
    /// gradients into every reachable node that takes one (a loss built
    /// from constants alone gets none).
    ///
    /// Returns an error when `loss` is not a `1 x 1` scalar node.
    pub fn backward(&mut self, loss: NodeId) -> Result<()> {
        if self.nodes[loss.0].value.shape() != (1, 1) {
            return Err(Error::InvalidArgument {
                what: "backward requires a 1x1 scalar loss node",
            });
        }
        for i in 0..self.nodes.len() {
            if let Some(g) = self.nodes[i].grad.take() {
                self.give_buf(g.into_vec());
            }
        }
        self.allocs = 0;
        if self.needs_grad(loss) {
            let buf = self.take_buf(1);
            self.nodes[loss.0].grad = Some(Matrix::from_fn_with(1, 1, buf, |_, _| 1.0));
        }

        for i in (0..=loss.0).rev() {
            // Take the gradient out of the tape for the duration of this
            // node's step (restored below) — ops only read it, so no
            // per-node clone is needed.
            let Some(out_grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // The op comes out the same way, so its dropout mask and
            // index lists are not copied; both go back before an error
            // returns.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            let timer = OpTimer::start();
            let flops = timer.armed().then(|| self.backward_flops(&op, &out_grad));
            let step = self.backward_step(i, &op, &out_grad);
            let allocs = std::mem::take(&mut self.allocs);
            let name = op.name();
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(out_grad);
            step?;
            if let Some(flops) = flops {
                let cost = OpCost {
                    flops,
                    allocs,
                    out_elems: 0,
                };
                timer.finish(Phase::Backward, name, i, cost);
            }
        }
        Ok(())
    }

    /// Applies node `i`'s backward rule: routes `out_grad`, the
    /// gradient of node `i` (whose op is `op`), into those of its inputs
    /// that take a gradient. A unary op's input always does when the op
    /// itself does; a binary op skips each side that does not.
    fn backward_step(&mut self, i: usize, op: &Op, out_grad: &Matrix) -> Result<()> {
        match *op {
            Op::Leaf | Op::Constant => {}
            Op::MatMul(a, b) => {
                // dA = dY·Bᵀ and dB = Aᵀ·dY via the transposed GEMM
                // entry points: no transposed copy of A or B is ever
                // materialised, and the results are bit-identical to
                // the transpose-then-matmul formulation.
                if self.needs_grad(a) {
                    let bv = &self.nodes[b.0].value;
                    let buf = self.take_buf(out_grad.rows() * bv.rows());
                    let da = out_grad.matmul_nt_with(&self.nodes[b.0].value, buf)?;
                    self.accumulate(a, da)?;
                }
                if self.needs_grad(b) {
                    let buf = self.take_buf(self.nodes[a.0].value.cols() * out_grad.cols());
                    let db = self.nodes[a.0].value.matmul_tn_with(out_grad, buf)?;
                    self.accumulate(b, db)?;
                }
            }
            Op::Add(a, b) => {
                for side in [a, b] {
                    if self.needs_grad(side) {
                        let g = self.pooled_clone(out_grad);
                        self.accumulate(side, g)?;
                    }
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.needs_grad(a) {
                    let g = self.pooled_clone(out_grad);
                    self.accumulate(a, g)?;
                }
                if self.needs_grad(bias) {
                    // Bias gradient is the column-sum of the output grad.
                    let cols = out_grad.cols();
                    let buf = self.take_buf(cols);
                    let mut bias_grad = Matrix::zeros_with(1, cols, buf);
                    for r in 0..out_grad.rows() {
                        for (bg, &g) in bias_grad.row_mut(0).iter_mut().zip(out_grad.row(r)) {
                            *bg += g;
                        }
                    }
                    self.accumulate(bias, bias_grad)?;
                }
            }
            Op::Sub(a, b) => {
                if self.needs_grad(a) {
                    let g = self.pooled_clone(out_grad);
                    self.accumulate(a, g)?;
                }
                if self.needs_grad(b) {
                    let buf = self.take_buf(out_grad.len());
                    let g = out_grad.scale_with(-1.0, buf);
                    self.accumulate(b, g)?;
                }
            }
            Op::Mul(a, b) => {
                for (side, other) in [(a, b), (b, a)] {
                    if self.needs_grad(side) {
                        let buf = self.take_buf(out_grad.len());
                        let d = out_grad.hadamard_with(&self.nodes[other.0].value, buf)?;
                        self.accumulate(side, d)?;
                    }
                }
            }
            Op::Scale(a, alpha) => {
                let buf = self.take_buf(out_grad.len());
                let g = out_grad.scale_with(alpha, buf);
                self.accumulate(a, g)?;
            }
            Op::AddScalar(a) => {
                let g = self.pooled_clone(out_grad);
                self.accumulate(a, g)?;
            }
            // Each element-wise rule is one pass `g · local`, with the
            // local derivative taken from the cached value: this node's
            // (`σ(1 − σ)`, `1 − tanh²`) or the input's (ReLU's step,
            // `2x`).
            Op::Sigmoid(a) => {
                let g = self.grad_times(out_grad, i, |g, s| g * (s * (1.0 - s)))?;
                self.accumulate(a, g)?;
            }
            Op::Tanh(a) => {
                let g = self.grad_times(out_grad, i, |g, t| g * (1.0 - t * t))?;
                self.accumulate(a, g)?;
            }
            Op::Relu(a) => {
                let g =
                    self.grad_times(out_grad, a.0, |g, x| g * if x > 0.0 { 1.0 } else { 0.0 })?;
                self.accumulate(a, g)?;
            }
            Op::Square(a) => {
                let g = self.grad_times(out_grad, a.0, |g, x| g * (2.0 * x))?;
                self.accumulate(a, g)?;
            }
            Op::ConcatCols(ref parts) => {
                let rows = out_grad.rows();
                let mut offset = 0;
                for &p in parts {
                    let w = self.nodes[p.0].value.cols();
                    if self.needs_grad(p) {
                        let mut buf = self.take_buf(rows * w);
                        buf.clear();
                        buf.reserve(rows * w);
                        for r in 0..rows {
                            buf.extend_from_slice(&out_grad.row(r)[offset..offset + w]);
                        }
                        let slice = Matrix::from_vec(rows, w, buf)?;
                        self.accumulate(p, slice)?;
                    }
                    offset += w;
                }
            }
            Op::GatherRows { table, ref indices } => {
                let tv = self.nodes[table.0].value.shape();
                let buf = self.take_buf(tv.0 * tv.1);
                let mut tg = Matrix::zeros_with(tv.0, tv.1, buf);
                for (out_row, &idx) in indices.iter().enumerate() {
                    for (g, &og) in tg.row_mut(idx).iter_mut().zip(out_grad.row(out_row)) {
                        *g += og;
                    }
                }
                self.accumulate(table, tg)?;
            }
            Op::RowSums(a) => {
                // Every element of row `r` receives that row's gradient.
                let (rows, cols) = self.nodes[a.0].value.shape();
                let mut buf = self.take_buf(rows * cols);
                buf.clear();
                buf.reserve(rows * cols);
                for r in 0..rows {
                    buf.extend(std::iter::repeat_n(out_grad.get(r, 0), cols));
                }
                let da = Matrix::from_vec(rows, cols, buf)?;
                self.accumulate(a, da)?;
            }
            Op::MeanAll(a) => {
                let shape = self.nodes[a.0].value.shape();
                let g = out_grad.get(0, 0) / (shape.0 * shape.1) as f64;
                let buf = self.take_buf(shape.0 * shape.1);
                let da = Matrix::from_fn_with(shape.0, shape.1, buf, |_, _| g);
                self.accumulate(a, da)?;
            }
            Op::DropoutMask { input, ref mask } => {
                let buf = self.take_buf(out_grad.len());
                let g = out_grad.hadamard_with(mask, buf)?;
                self.accumulate(input, g)?;
            }
            Op::SliceCols { input, start, len } => {
                let shape = self.nodes[input.0].value.shape();
                let buf = self.take_buf(shape.0 * shape.1);
                let mut da = Matrix::zeros_with(shape.0, shape.1, buf);
                for r in 0..out_grad.rows() {
                    for jj in 0..len {
                        da.set(r, start + jj, out_grad.get(r, jj));
                    }
                }
                self.accumulate(input, da)?;
            }
            Op::RowSoftmax(a) => {
                // dX_i = p_i ⊙ (dY_i − (dY_i · p_i) 1), per row.
                let buf = self.take_buf(out_grad.len());
                let p = &self.nodes[i].value;
                let mut da = Matrix::zeros_with(p.rows(), p.cols(), buf);
                for r in 0..p.rows() {
                    let dot: f64 = out_grad
                        .row(r)
                        .iter()
                        .zip(p.row(r))
                        .map(|(g, q)| g * q)
                        .sum();
                    for ((d, &g), &q) in da.row_mut(r).iter_mut().zip(out_grad.row(r)).zip(p.row(r))
                    {
                        *d = q * (g - dot);
                    }
                }
                self.accumulate(a, da)?;
            }
        }
        Ok(())
    }

    /// `f(g, x)` for every element `g` of `out_grad` and the matching
    /// element `x` of node `node`'s value, in one pass into an arena
    /// buffer.
    fn grad_times(
        &mut self,
        out_grad: &Matrix,
        node: usize,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        let mut buf = self.take_buf(out_grad.len());
        let x = &self.nodes[node].value;
        if x.shape() != out_grad.shape() {
            return Err(Error::ShapeMismatch {
                op: "backward",
                lhs: out_grad.shape(),
                rhs: x.shape(),
            });
        }
        buf.clear();
        buf.extend(
            out_grad
                .as_slice()
                .iter()
                .zip(x.as_slice())
                .map(|(&g, &x)| f(g, x)),
        );
        Matrix::from_vec(x.rows(), x.cols(), buf)
    }

    /// Copy of `items` for an op to keep, counted as one allocation.
    fn counted_copy<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        if !items.is_empty() {
            self.allocs += 1;
        }
        items.to_vec()
    }

    /// Copy of `m` backed by an arena buffer.
    fn pooled_clone(&mut self, m: &Matrix) -> Matrix {
        let buf = self.take_buf(m.len());
        m.clone_with(buf)
    }

    fn accumulate(&mut self, id: NodeId, grad: Matrix) -> Result<()> {
        #[cfg(feature = "numeric-sanitizer")]
        assert!(
            grad.is_finite(),
            "numeric-sanitizer: non-finite gradient flowing into op `{}` (node {})",
            self.nodes[id.0].op.name(),
            id.0
        );
        match self.nodes[id.0].grad.as_mut() {
            Some(existing) => existing.axpy(1.0, &grad)?,
            None => {
                self.nodes[id.0].grad = Some(grad);
                return Ok(());
            }
        }
        // The summed-in gradient's storage goes back to the arena.
        self.give_buf(grad.into_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;

    /// Central finite-difference check of `d loss / d leaf`.
    ///
    /// `build` constructs the graph from the leaf value and returns
    /// `(leaf_id, loss_id)`.
    fn grad_check(leaf: Matrix, build: impl Fn(&mut Graph, Matrix) -> (NodeId, NodeId)) {
        let mut g = Graph::new();
        let (leaf_id, loss_id) = build(&mut g, leaf.clone());
        g.backward(loss_id).unwrap();
        let analytic = g.grad(leaf_id).expect("leaf reached by backward").clone();

        let eps = 1e-5;
        for i in 0..leaf.rows() {
            for j in 0..leaf.cols() {
                let mut plus = leaf.clone();
                plus.set(i, j, leaf.get(i, j) + eps);
                let mut minus = leaf.clone();
                minus.set(i, j, leaf.get(i, j) - eps);
                let mut gp = Graph::new();
                let (_, lp) = build(&mut gp, plus);
                let mut gm = Graph::new();
                let (_, lm) = build(&mut gm, minus);
                let numeric = (gp.value(lp).get(0, 0) - gm.value(lm).get(0, 0)) / (2.0 * eps);
                let got = analytic.get(i, j);
                assert!(
                    (numeric - got).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "grad mismatch at ({i},{j}): numeric {numeric}, analytic {got}"
                );
            }
        }
    }

    fn leaf_2x3() -> Matrix {
        Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.1, -0.3]).unwrap()
    }

    #[test]
    fn grad_matmul_mean() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let w = g.leaf(Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.9]).unwrap());
            let y = g.matmul(x_id, w).unwrap();
            let loss = g.mean_all(y).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_matmul_right_operand() {
        let w = Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.9]).unwrap();
        grad_check(w, |g, w_val| {
            let x = g.leaf(leaf_2x3());
            let w_id = g.leaf(w_val);
            let y = g.matmul(x, w_id).unwrap();
            let sq = g.square(y);
            let loss = g.mean_all(sq).unwrap();
            (w_id, loss)
        });
    }

    #[test]
    fn grad_sigmoid_chain() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let s = g.sigmoid(x_id);
            let sq = g.square(s);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_tanh_chain() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let t = g.tanh(x_id);
            let loss = g.mean_all(t).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_relu_chain() {
        // Avoid points exactly at zero where ReLU is non-differentiable.
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let r = g.relu(x_id);
            let sq = g.square(r);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_hadamard_and_broadcast_bias() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let other =
                g.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, 0.5, 3.0]).unwrap());
            let prod = g.mul(x_id, other).unwrap();
            let bias = g.leaf(Matrix::row_vector(&[0.1, -0.2, 0.3]));
            let shifted = g.add_row_broadcast(prod, bias).unwrap();
            let loss = g.mean_all(shifted).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_bias_itself() {
        let bias = Matrix::row_vector(&[0.1, -0.2, 0.3]);
        grad_check(bias, |g, b| {
            let x = g.leaf(leaf_2x3());
            let b_id = g.leaf(b);
            let shifted = g.add_row_broadcast(x, b_id).unwrap();
            let sq = g.square(shifted);
            let loss = g.mean_all(sq).unwrap();
            (b_id, loss)
        });
    }

    #[test]
    fn grad_concat_and_row_sums() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let other = g.leaf(Matrix::filled(2, 2, 0.7));
            let cat = g.concat_cols(&[x_id, other]).unwrap();
            let rs = g.row_sums(cat);
            let sq = g.square(rs);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_gather_rows_scatter_adds() {
        let table = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        grad_check(table, |g, t| {
            let t_id = g.leaf(t);
            // Row 1 gathered twice: its gradient must be the sum of both uses.
            let picked = g.gather_rows(t_id, &[1, 1, 0]).unwrap();
            let sq = g.square(picked);
            let loss = g.mean_all(sq).unwrap();
            (t_id, loss)
        });
    }

    #[test]
    fn grad_mse_composition() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let target = g.leaf(Matrix::filled(2, 3, 0.25));
            let loss = g.mse(x_id, target).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_one_minus_and_scale() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let om = g.one_minus(x_id);
            let scaled = g.scale(om, 3.0);
            let sq = g.square(scaled);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_sub_both_sides() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let c = g.leaf(Matrix::filled(2, 3, 0.4));
            let d = g.sub(c, x_id).unwrap();
            let sq = g.square(d);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_through_shared_node() {
        // x used twice: y = x ⊙ x; gradient must accumulate both paths.
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let prod = g.mul(x_id, x_id).unwrap();
            let loss = g.mean_all(prod).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn grad_slice_cols() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let mid = g.slice_cols(x_id, 1, 2).unwrap();
            let sq = g.square(mid);
            let loss = g.mean_all(sq).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn slice_cols_bounds_and_values() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap());
        let s = g.slice_cols(x, 1, 2).unwrap();
        assert_eq!(g.value(s).as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        assert!(g.slice_cols(x, 2, 2).is_err());
        assert!(g.slice_cols(x, 0, 0).is_err());
    }

    #[test]
    fn grad_row_softmax() {
        grad_check(leaf_2x3(), |g, x| {
            let x_id = g.leaf(x);
            let sm = g.row_softmax(x_id);
            let weights =
                g.leaf(Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.3, 2.0, -1.0]).unwrap());
            let weighted = g.mul(sm, weights).unwrap();
            let loss = g.mean_all(weighted).unwrap();
            (x_id, loss)
        });
    }

    #[test]
    fn row_softmax_rows_are_distributions() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap());
        let sm = g.row_softmax(x);
        let v = g.value(sm);
        for r in 0..2 {
            let sum: f64 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(v.row(r).iter().all(|&p| p > 0.0));
        }
        // Larger logits get larger mass.
        assert!(v.get(0, 2) > v.get(0, 1));
        // Extreme logits are handled without overflow.
        let mut g2 = Graph::new();
        let x2 = g2.leaf(Matrix::row_vector(&[1000.0, 999.0]));
        let sm2 = g2.row_softmax(x2);
        assert!(g2.value(sm2).is_finite());
    }

    #[test]
    fn dropout_mask_scales_forward_and_backward() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 3.0));
        let mask = Matrix::from_vec(2, 2, vec![2.0, 0.0, 2.0, 0.0]).unwrap();
        let d = g.dropout(x, mask).unwrap();
        assert_eq!(g.value(d).as_slice(), &[6.0, 0.0, 6.0, 0.0]);
        let loss = g.mean_all(d).unwrap();
        g.backward(loss).unwrap();
        let grad = g.grad(x).unwrap();
        assert_eq!(grad.as_slice(), &[0.5, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn backward_rejects_non_scalar_loss() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 1.0));
        assert!(g.backward(x).is_err());
    }

    #[test]
    fn unreached_nodes_have_no_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 1.0));
        let unrelated = g.leaf(Matrix::filled(1, 1, 5.0));
        let loss = g.mean_all(x).unwrap();
        g.backward(loss).unwrap();
        assert!(g.grad(unrelated).is_none());
        assert!(g.grad(x).is_some());
    }

    #[test]
    fn constant_inputs_take_no_gradient_and_move_no_parameter_bit() {
        // The same graph with its data inputs as leaves and as
        // constants: parameter gradients are bit-identical, and neither
        // a constant nor an op over constants alone gets a gradient.
        let build = |g: &mut Graph, as_constant: bool| {
            let mut input = |m: Matrix| {
                if as_constant {
                    g.constant(m)
                } else {
                    g.leaf(m)
                }
            };
            let x = input(leaf_2x3());
            let target = input(Matrix::from_vec(2, 2, vec![0.3, -0.1, 0.0, 0.8]).unwrap());
            let scale = input(Matrix::filled(2, 2, 0.5));
            let w = g.leaf(Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.9]).unwrap());
            let b = g.leaf(Matrix::row_vector(&[0.1, -0.2]));
            let xw = g.matmul(x, w).unwrap();
            let pre = g.add_row_broadcast(xw, b).unwrap();
            let s = g.sigmoid(pre);
            let doubled = g.scale(scale, 2.0);
            let weighted = g.mul(s, doubled).unwrap();
            let loss = g.mse(weighted, target).unwrap();
            g.backward(loss).unwrap();
            [x, target, scale, doubled, w, b]
        };
        let mut leaves = Graph::new();
        let l = build(&mut leaves, false);
        let mut constants = Graph::new();
        let c = build(&mut constants, true);
        for i in 4..6 {
            let (a, b) = (leaves.grad(l[i]).unwrap(), constants.grad(c[i]).unwrap());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "parameter {i}");
        }
        for &id in &c[..4] {
            assert!(
                constants.grad(id).is_none(),
                "node {} got a gradient",
                id.index()
            );
        }
        for &id in &l[..4] {
            assert!(leaves.grad(id).is_some());
        }

        // A loss over constants alone runs backward and yields nothing.
        let mut g = Graph::new();
        let k = g.constant(leaf_2x3());
        let sq = g.square(k);
        let loss = g.mean_all(sq).unwrap();
        g.backward(loss).unwrap();
        assert!(g.grad(loss).is_none() && g.grad(sq).is_none() && g.grad(k).is_none());
    }

    #[test]
    fn concat_rejects_empty_and_mismatched() {
        let mut g = Graph::new();
        assert!(g.concat_cols(&[]).is_err());
        let a = g.leaf(Matrix::zeros(2, 2));
        let b = g.leaf(Matrix::zeros(3, 2));
        assert!(g.concat_cols(&[a, b]).is_err());
    }

    #[cfg(feature = "numeric-sanitizer")]
    #[test]
    #[should_panic(expected = "numeric-sanitizer: non-finite forward value out of op `Scale`")]
    fn sanitizer_catches_nan_forward_and_names_the_op() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 1.0));
        let _ = g.scale(x, f64::NAN);
    }

    #[cfg(feature = "numeric-sanitizer")]
    #[test]
    #[should_panic(expected = "numeric-sanitizer: non-finite forward value out of op `Leaf`")]
    fn sanitizer_catches_nan_leaf() {
        let mut g = Graph::new();
        let _ = g.leaf(Matrix::filled(1, 1, f64::NAN));
    }

    #[cfg(feature = "numeric-sanitizer")]
    #[test]
    #[should_panic(expected = "numeric-sanitizer: non-finite gradient flowing into op `Leaf`")]
    fn sanitizer_catches_overflowing_gradient_in_backward() {
        // Forward stays finite (1e-300 · 1e200 · 1e200 = 1e100), but the
        // chain rule multiplies the two scale factors: the gradient at the
        // leaf is 1e400 = +inf, caught during the reverse sweep.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 1e-300));
        let a = g.scale(x, 1e200);
        let b = g.scale(a, 1e200);
        let loss = g.mean_all(b).unwrap();
        let _ = g.backward(loss);
    }

    #[cfg(feature = "numeric-sanitizer")]
    #[test]
    fn sanitizer_is_silent_on_finite_graphs() {
        let mut g = Graph::new();
        let x = g.leaf(leaf_2x3());
        let s = g.sigmoid(x);
        let loss = g.mean_all(s).unwrap();
        g.backward(loss).unwrap();
        assert!(g.grad(x).is_some());
    }

    #[test]
    fn profiler_attributes_forward_and_backward_ops() {
        // The profiler table is process-global and other tests may run
        // concurrently, so assert only on presence and lower bounds of
        // the cells this graph creates — never on absence or totals.
        let _profiler = profile::test_lock();
        profile::enable();
        let mut g = Graph::new();
        let x = g.leaf(leaf_2x3());
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.9]).unwrap());
        let y = g.matmul(x, w).unwrap();
        let s = g.sigmoid(y);
        let loss = g.mean_all(s).unwrap();
        let matmul_site = y.index();
        g.backward(loss).unwrap();
        profile::disable();

        let stats = profile::snapshot();
        let fwd = stats
            .iter()
            .find(|s| {
                s.phase == profile::Phase::Forward && s.op == "MatMul" && s.site == matmul_site
            })
            .expect("forward MatMul cell recorded");
        assert!(fwd.calls >= 1);
        // 2 * 2 * 3 * 2 flops per call.
        assert!(fwd.flops >= 24);
        assert!(fwd.out_elems >= 4);
        let bwd = stats
            .iter()
            .find(|s| {
                s.phase == profile::Phase::Backward && s.op == "MatMul" && s.site == matmul_site
            })
            .expect("backward MatMul cell recorded");
        assert!(bwd.calls >= 1);
        assert!(bwd.flops >= 48);

        // The renderers accept the live snapshot.
        let table = profile::hot_op_table(&stats, 5);
        assert!(table.contains("MatMul"));
        let collapsed = profile::collapsed_stacks(&stats);
        for line in collapsed.lines() {
            assert!(line.starts_with("env2vec;"));
        }
    }

    #[test]
    fn profiler_disabled_records_nothing_and_is_numerics_inert() {
        // Identical graphs with the profiler on and off must produce
        // bit-identical values and gradients.
        let build = |g: &mut Graph| {
            let x = g.leaf(leaf_2x3());
            let s = g.sigmoid(x);
            let sq = g.square(s);
            let loss = g.mean_all(sq).unwrap();
            (x, loss)
        };
        let _profiler = profile::test_lock();
        profile::disable();
        let mut g_off = Graph::new();
        let (x_off, loss_off) = build(&mut g_off);
        g_off.backward(loss_off).unwrap();

        profile::enable();
        let mut g_on = Graph::new();
        let (x_on, loss_on) = build(&mut g_on);
        g_on.backward(loss_on).unwrap();
        profile::disable();

        assert_eq!(g_off.value(loss_off), g_on.value(loss_on));
        assert_eq!(g_off.grad(x_off), g_on.grad(x_on));
    }

    #[test]
    fn repeated_backward_resets_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 2, 2.0));
        let sq = g.square(x);
        let loss = g.mean_all(sq).unwrap();
        g.backward(loss).unwrap();
        let first = g.grad(x).unwrap().clone();
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap(), &first);
    }
}
