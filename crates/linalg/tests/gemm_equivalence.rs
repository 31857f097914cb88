//! Property-style equivalence suite for the packed GEMM kernels.
//!
//! The packed/blocked kernels behind `matmul`, `matmul_nt` and
//! `matmul_tn` promise results **bit-identical** (`f64::to_bits`) to the
//! textbook reference loop, for every shape. This suite sweeps
//! deterministic pseudo-random matrices over ragged and prime shapes
//! (1×1 up to sizes well past the packing gate), injects NaN/inf and
//! signed-zero patterns, and compares against a self-contained naive
//! reference implemented here — not against any code path in the crate
//! under test. The reference keeps the zero-skip the kernels once had;
//! a second, skip-free reference shows that dropping the skip changes no
//! bit. A golden checksum pins the bits of the model-shaped products.

use env2vec_linalg::Matrix;

/// SplitMix64: a tiny deterministic generator so the sweep needs no
/// external crates and reproduces exactly on every run.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in roughly [-4, 4), with occasional exact
    /// zeros (both signs) so signed-zero products occur constantly.
    fn value(&mut self) -> f64 {
        match self.next_u64() % 16 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next_u64() % 8192) as f64 / 1024.0 - 4.0,
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.value())
    }
}

/// Reference `A·B`: ascending-`k` accumulation from 0.0, skipping
/// bitwise-zero left entries against entirely finite right rows (the
/// skipping kernels' semantics).
fn reference_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let row_finite: Vec<bool> = (0..b.rows())
        .map(|r| b.row(r).iter().all(|x| x.is_finite()))
        .collect();
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for (k, fin) in row_finite.iter().enumerate() {
            let av = a.get(i, k);
            if av == 0.0 && *fin {
                continue;
            }
            acc += av * b.get(k, j);
        }
        acc
    })
}

/// Skip-free reference `A·B`: `acc += a·b` for every `k`, ascending,
/// from `+0.0` — what the kernels compute.
fn skip_free_nn(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(k, j);
        }
        acc
    })
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} diverged: {g} ({:#018x}) vs {w} ({:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Shapes chosen to straddle the packing gate: tiny (naive), medium and
/// large (packed), with ragged `% 4 != 0` / `% 8 != 0` edges and prime
/// dimensions throughout, plus the study model's own products (batch 64
/// through the FNN, dense layer and GRU recurrence, and a 158-row dense
/// forward).
fn shape_sweep() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 7, 1),
        (3, 2, 5),
        (5, 5, 5),
        (4, 8, 8),
        (7, 13, 11),
        (16, 16, 16),
        (17, 19, 23),
        (31, 7, 9),
        (33, 64, 5),
        (64, 33, 32),
        (64, 64, 64),
        (65, 67, 71),
        (100, 70, 90),
        (128, 31, 127),
        (130, 67, 90),
        (300, 80, 500),
        (64, 14, 64),
        (64, 80, 40),
        (64, 16, 16),
        (158, 80, 40),
    ]
}

#[test]
fn matmul_matches_reference_bitwise_across_shapes() {
    let mut rng = Rng(0x5eed);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        let want = reference_nn(&a, &b);
        let got = a.matmul(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nn {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_nt_matches_explicit_transpose_bitwise() {
    let mut rng = Rng(0xabcd);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(m, k);
        let b = rng.matrix(n, k);
        let want = reference_nn(&a, &b.transpose());
        let got = a.matmul_nt(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nt {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_tn_matches_explicit_transpose_bitwise() {
    let mut rng = Rng(0x7777);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(k, m);
        let b = rng.matrix(k, n);
        let want = reference_nn(&a.transpose(), &b);
        let got = a.matmul_tn(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("tn {m}x{k}x{n}"));
    }
}

/// Plants NaN and inf entries in scattered positions so some right-hand
/// rows/columns are non-finite: a zero left entry against them must
/// still give NaN (IEEE-754: 0·NaN = 0·inf = NaN).
#[test]
fn nonfinite_columns_survive_all_layouts_bitwise() {
    let mut rng = Rng(0xfeed);
    for (m, k, n) in [(7, 13, 11), (64, 33, 32), (65, 67, 71)] {
        let mut a = rng.matrix(m, k);
        let mut b = rng.matrix(k, n);
        // A few exact zeros on the left, guaranteed.
        for idx in [0, 3, 5] {
            a.set(idx % m, (idx * 7) % k, 0.0);
        }
        for (r, c, v) in [
            (0, 0, f64::NAN),
            (1, 2, f64::INFINITY),
            (2, 1, f64::NEG_INFINITY),
        ] {
            b.set(r % k, c % n, v);
        }
        let want = reference_nn(&a, &b);
        let got = a.matmul(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nn-nonfinite {m}x{k}x{n}"));
        assert!(
            got.as_slice().iter().any(|x| !x.is_finite()),
            "expected non-finite values to propagate"
        );

        let bt = b.transpose();
        let got_nt = a.matmul_nt(&bt).unwrap();
        assert_bits_eq(&got_nt, &want, &format!("nt-nonfinite {m}x{k}x{n}"));

        let at = a.transpose();
        let got_tn = at.matmul_tn(&b).unwrap();
        assert_bits_eq(&got_tn, &want, &format!("tn-nonfinite {m}x{k}x{n}"));
    }
}

/// A row of `-0.0` left entries against a finite right-hand side sums
/// to `+0.0` with or without the skip: an unskipped chain adds `±0.0`
/// products to a `+0.0` start, and `+0.0 + -0.0` is `+0.0`.
#[test]
fn signed_zero_rows_match_reference_bitwise() {
    let m = 9;
    let k = 17;
    let n = 13;
    let mut rng = Rng(0x2020);
    let mut a = rng.matrix(m, k);
    for j in 0..k {
        a.set(4, j, -0.0);
    }
    let b = rng.matrix(k, n);
    let want = reference_nn(&a, &b);
    let got = a.matmul(&b).unwrap();
    assert_bits_eq(&got, &want, "signed-zero nn");
    for j in 0..n {
        assert_eq!(got.get(4, j).to_bits(), 0.0_f64.to_bits());
    }
}

/// Uniform in [-1, 1), with an exact 1/16 chance of ±0.0 so signed-zero
/// products are exercised.
fn golden_value(rng: &mut Rng) -> f64 {
    let r = rng.next_u64();
    if r.is_multiple_of(16) {
        return if r & 16 == 0 { 0.0 } else { -0.0 };
    }
    (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn fnv1a_fold(mut hash: u64, m: &Matrix) -> u64 {
    for &x in m.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The golden bits: the model's training-shaped products (batch 64 into
/// hidden 32, the single-column head, the GRU's 8-wide products) and two
/// packed-path squares, all three layouts folded into one FNV-1a
/// checksum.
#[test]
fn training_shaped_products_match_the_golden_checksum() {
    let mut rng = Rng(9 ^ 0x9e37_79b9_7f4a_7c15);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis.
    for (m, k, n) in [
        (64, 41, 32),
        (64, 32, 1),
        (64, 8, 8),
        (128, 128, 128),
        (256, 192, 160),
    ] {
        let a = Matrix::from_fn(m, k, |_, _| golden_value(&mut rng));
        let b = Matrix::from_fn(k, n, |_, _| golden_value(&mut rng));
        let c_nn = a.matmul(&b).unwrap();
        let c_nt = a.matmul_nt(&b.transpose()).unwrap();
        let c_tn = a.transpose().matmul_tn(&b).unwrap();
        assert_bits_eq(&c_nt, &c_nn, &format!("nt {m}x{k}x{n}"));
        assert_bits_eq(&c_tn, &c_nn, &format!("tn {m}x{k}x{n}"));
        for c in [&c_nn, &c_nt, &c_tn] {
            checksum = fnv1a_fold(checksum, c);
        }
    }
    assert_eq!(
        checksum, 0x3f27_5ef4_60c6_15a2,
        "golden checksum {checksum:016x}"
    );
}

#[test]
fn buffer_reusing_variants_match_and_recycle() {
    let mut rng = Rng(0x1234);
    let a = rng.matrix(33, 21);
    let b = rng.matrix(21, 18);
    let plain = a.matmul(&b).unwrap();
    // A dirty, differently-sized buffer must not leak into the result.
    let dirty = vec![f64::NAN; 7];
    let reused = a.matmul_with(&b, dirty).unwrap();
    assert_bits_eq(&reused, &plain, "matmul_with dirty buffer");

    let nt_plain = a.matmul_nt(&a).unwrap();
    let nt_reused = a.matmul_nt_with(&a, plain.clone().into_vec()).unwrap();
    assert_bits_eq(&nt_reused, &nt_plain, "matmul_nt_with");

    let tn_plain = a.matmul_tn(&a).unwrap();
    let tn_reused = a.matmul_tn_with(&a, vec![1.0; 2048]).unwrap();
    assert_bits_eq(&tn_reused, &tn_plain, "matmul_tn_with");
}

#[test]
fn transposed_variants_reject_mismatched_shapes() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(5, 6);
    assert!(a.matmul_nt(&b).is_err(), "nt needs equal col counts");
    assert!(a.matmul_tn(&b).is_err(), "tn needs equal row counts");
    assert!(a.matmul_nt(&Matrix::zeros(9, 4)).is_ok());
    assert!(a.matmul_tn(&Matrix::zeros(3, 9)).is_ok());
}

/// Blocked transpose equals the naive definition on ragged shapes.
#[test]
fn blocked_transpose_matches_naive_on_ragged_shapes() {
    let mut rng = Rng(0x9999);
    for (r, c) in [(1, 1), (1, 37), (33, 1), (31, 33), (32, 32), (67, 129)] {
        let m = rng.matrix(r, c);
        let t = m.transpose();
        assert_eq!(t.shape(), (c, r));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(
                    m.get(i, j).to_bits(),
                    t.get(j, i).to_bits(),
                    "({r}x{c}) at ({i},{j})"
                );
            }
        }
        assert_eq!(t.transpose(), m, "double transpose round-trips");
    }
}

/// The zero-skip never changes a bit: the skip-free reference equals the
/// skipping one on the shape sweep, on right operands holding NaN and
/// inf, and on left rows of all `+0.0`, all `-0.0` and mixed zeros.
#[test]
fn skipping_and_skip_free_references_agree_bitwise() {
    let mut rng = Rng(0x51f7);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        let what = format!("sweep {m}x{k}x{n}");
        assert_bits_eq(&skip_free_nn(&a, &b), &reference_nn(&a, &b), &what);
    }
    for (m, k, n) in [(7, 13, 11), (64, 33, 32), (65, 67, 71)] {
        let mut a = rng.matrix(m, k);
        let mut b = rng.matrix(k, n);
        for c in 0..k {
            a.set(0, c, 0.0);
            a.set(1 % m, c, -0.0);
            a.set(2 % m, c, if c % 2 == 0 { 0.0 } else { -0.0 });
        }
        for (r, c, v) in [
            (0, 0, f64::NAN),
            (1, 2, f64::INFINITY),
            (2, 1, f64::NEG_INFINITY),
            (5, 3, f64::NAN),
        ] {
            b.set(r % k, c % n, v);
        }
        let want = reference_nn(&a, &b);
        assert!(want.as_slice().iter().any(|x| x.is_nan()));
        let what = format!("non-finite {m}x{k}x{n}");
        assert_bits_eq(&skip_free_nn(&a, &b), &want, &what);
        let b = rng.matrix(k, n);
        let what = format!("zero rows {m}x{k}x{n}");
        assert_bits_eq(&skip_free_nn(&a, &b), &reference_nn(&a, &b), &what);
    }
}
