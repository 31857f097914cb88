//! Packed, register-blocked GEMM kernels behind [`crate::Matrix::matmul`]
//! and its transposed variants.
//!
//! Three layouts share one microkernel: `nn` (`A·B`), `nt` (`A·Bᵀ`) and
//! `tn` (`Aᵀ·B`). The left operand is packed into `MR`-row panels, one
//! at a time, with each of a panel's `MR` values stored twice per `k`
//! (a pre-broadcast pair, so the kernel's 128-bit loads need no
//! shuffle); the right operand into `NR`-column panels (`NR` values
//! contiguous per `k`); and an `MR×NR` register accumulator walks the
//! **full** inner dimension in ascending order. Full-width tiles store,
//! and full-width B panels pack, fixed `[f64; NR]` runs; only ragged
//! edges loop element by element.
//!
//! # Why results are bit-identical to the naive `ikj` loop
//!
//! Every output element is one IEEE-754 accumulation chain: start at
//! `+0.0`, add `a[i][k]·b[k][j]` for every `k` in ascending order.
//! Register accumulation instead of memory accumulation does not
//! reassociate that chain, and Rust never contracts `mul`+`add` into a
//! fused multiply-add implicitly, so the packed and naive kernels
//! produce identical bits. The one thing that *would* break this is
//! KC-blocking (partial sums over `k` re-added to memory) — deliberately
//! not done here.
//!
//! Every product runs sequentially on the calling thread. At the model's
//! shapes (batch 64, a few dozen features and hidden units) a product is
//! tens of microseconds of work, less than fanning row blocks out to
//! threads costs; parallelism lives one level up, at whole
//! evaluation jobs.
//!
//! No kernel skips a zero left entry: skipping could not change a bit.
//! Under round-to-nearest a sum is `-0.0` only when both addends are
//! `-0.0`, so a chain that starts at `+0.0` never holds `-0.0`. Adding
//! `±0.0` to any value other than `-0.0` returns that value unchanged,
//! and a zero `a` times a finite `b` is `±0.0`, so such a product adds
//! nothing to the bits. Against a non-finite `b` the product is NaN
//! (`0·NaN = 0·inf = NaN`) and must be added anyway. Every chain is
//! therefore the same one a kernel skipping bitwise-zero `a` against
//! finite `b` builds, without the branch or a finiteness scan of B.

use std::cell::Cell;
use std::thread::LocalKey;

/// Rows per register tile of the microkernel.
pub(crate) const MR: usize = 4;

/// Columns per register tile of the microkernel. The builds here target
/// baseline x86-64 (SSE2: sixteen 128-bit registers), so the 4×4
/// accumulator is 16 doubles = 8 vector registers — register-resident
/// with room left for the `a` broadcast and the packed-B loads. A wider
/// tile (4×8) needs the whole register file and spills every update.
pub(crate) const NR: usize = 4;

/// Minimum `2·m·k·n` flops before packing pays for itself; below this
/// the naive loops win on overhead. Per-element accumulation chains are
/// identical in both paths, so the gate affects wall-clock only, never
/// bits.
const PACK_MIN_FLOPS: usize = 8192;

/// Minimum output columns for the packed path: narrower products waste
/// most of the `NR`-wide tile on padding.
const PACK_MIN_COLS: usize = NR;

thread_local! {
    /// Packed right-operand panels, reused across calls on each thread.
    static PB_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// The one packed left-operand panel, reused across calls on each
    /// thread (steady-state training loops stop allocating here
    /// entirely).
    static PA_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with the thread-local buffer taken out of its cell, putting
/// it back afterwards so the allocation is reused by the next call.
fn with_scratch<T: Default, R>(key: &'static LocalKey<Cell<T>>, f: impl FnOnce(&mut T) -> R) -> R {
    key.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// Doubles per `k` step of a packed A panel: each of the `MR` rows'
/// values stored twice, so one 128-bit load is already the broadcast
/// pair that `mulpd` multiplies against two packed-B lanes.
const PA_STEP: usize = 2 * MR;

/// The `MR×NR` register microkernel: one full-`k` pass over a packed A
/// panel (`PA_STEP` values per `k`) and a packed B panel (`NR` values
/// per `k`), one branch-free rank-1 update per `k` into an accumulator
/// that starts at `+0.0` and lives in registers.
///
/// Output column `c` multiplies by copy `c % 2` of its row's value. Both
/// copies are the same double, so every product is `a[r][k]·b[k][c]`;
/// the pair lets one 128-bit load feed `mulpd` without a shuffle.
#[inline]
fn microkernel(pa: &[f64], pb: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0_f64; NR]; MR];
    let (a_steps, _) = pa.as_chunks::<PA_STEP>();
    let (b_rows, _) = pb.as_chunks::<NR>();
    for (a_step, b_row) in a_steps.iter().zip(b_rows) {
        let (a_pairs, _) = a_step.as_chunks::<2>();
        for (acc_row, a) in acc.iter_mut().zip(a_pairs) {
            for (c, (o, &b)) in acc_row.iter_mut().zip(b_row).enumerate() {
                *o += a[c % 2] * b;
            }
        }
    }
    acc
}

/// Computes all `m` rows of C (`out`, row stride `n`) from pre-packed B
/// panels. `pack_a_panel(first, h, dest)` fills `dest` (`k·PA_STEP`
/// doubles) with rows `first..first+h` of the effective left operand
/// through [`pack_a`].
///
/// A panels are packed one at a time into one `k·PA_STEP` scratch
/// buffer, whatever `m` is; each is reused across every B panel while
/// it is cache-hot, and the tile stores walk its `MR` output rows left
/// to right.
fn gemm_rows(
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    pb: &[f64],
    mut pack_a_panel: impl FnMut(usize, usize, &mut [f64]),
) {
    with_scratch(&PA_SCRATCH, |pa| {
        let need = k * PA_STEP;
        if pa.len() < need {
            pa.resize(need, 0.0);
        }
        let pa = &mut pa[..need];
        for p0 in (0..m).step_by(MR) {
            let h = MR.min(m - p0);
            pack_a_panel(p0, h, pa);
            for j0 in (0..n).step_by(NR) {
                let b_panel = &pb[(j0 / NR) * k * NR..][..k * NR];
                let acc = microkernel(pa, b_panel);
                let w = NR.min(n - j0);
                for (r, acc_row) in acc.iter().enumerate().take(h) {
                    let dst = &mut out[(p0 + r) * n + j0..][..w];
                    match <&mut [f64; NR]>::try_from(&mut *dst) {
                        Ok(full) => *full = *acc_row,
                        Err(_) => {
                            for (o, &v) in dst.iter_mut().zip(acc_row) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Doubles a packed B copy needs for a `k`-deep right operand with `n`
/// effective columns.
fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs `b` (`k×n`, row-major) into `NR`-column panels, zero-padding
/// the last panel's unused lanes (the scratch buffer may hold stale
/// data from a previous product, so every lane is written). A full
/// panel copies one fixed `[f64; NR]` run per `k`.
fn pack_b_nn(b: &[f64], k: usize, n: usize, pb: &mut Vec<f64>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let (lanes, _) = dst.as_chunks_mut::<NR>();
        for (lane, src) in lanes.iter_mut().zip(b[j0..].chunks(n)) {
            match <&[f64; NR]>::try_from(&src[..w]) {
                Ok(full) => *lane = *full,
                Err(_) => {
                    for (c, l) in lane.iter_mut().enumerate() {
                        *l = if c < w { src[c] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// Packs `b` (`n×k`, row-major; the `nt` right operand) into
/// `NR`-column panels of `Bᵀ`, zero-padding as [`pack_b_nn`] does.
fn pack_b_nt(b: &[f64], n: usize, k: usize, pb: &mut Vec<f64>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for c in 0..NR {
            if c < w {
                let src = &b[(j0 + c) * k..][..k];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * NR + c] = v;
                }
            } else {
                for kk in 0..k {
                    dst[kk * NR + c] = 0.0;
                }
            }
        }
    }
}

/// Whether a product of this shape should take the packed path.
fn packable(m: usize, k: usize, n: usize) -> bool {
    n >= PACK_MIN_COLS && m >= 2 && k >= 2 && 2 * m * k * n >= PACK_MIN_FLOPS
}

/// Computes `out = A·B` (`a` is `m×k`, `b` is `k×n`), matching the
/// naive kernel bit-for-bit.
pub(crate) fn gemm_nn(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        with_scratch(&PB_SCRATCH, |pb| {
            pack_b_nn(b, k, n, pb);
            gemm_rows(out, m, n, k, &pb[..packed_b_len(k, n)], |first, h, dest| {
                pack_a(dest, h, |r, kk| a[(first + r) * k + kk]);
            });
        });
    } else {
        naive_nn(a, m, k, b, n, out);
    }
}

/// Computes `out = A·Bᵀ` (`a` is `m×k`, `b` is `n×k`), bit-identical
/// to `a.matmul(&b.transpose())`.
pub(crate) fn gemm_nt(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        with_scratch(&PB_SCRATCH, |pb| {
            pack_b_nt(b, n, k, pb);
            gemm_rows(out, m, n, k, &pb[..packed_b_len(k, n)], |first, h, dest| {
                pack_a(dest, h, |r, kk| a[(first + r) * k + kk]);
            });
        });
    } else {
        naive_nt(a, m, k, b, n, out);
    }
}

/// Computes `out = Aᵀ·B` (`a` is `k×m`, `b` is `k×n`), bit-identical
/// to `a.transpose().matmul(&b)`.
pub(crate) fn gemm_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        with_scratch(&PB_SCRATCH, |pb| {
            pack_b_nn(b, k, n, pb);
            gemm_rows(out, m, n, k, &pb[..packed_b_len(k, n)], |first, h, dest| {
                pack_a(dest, h, |r, kk| a[kk * m + first + r]);
            });
        });
    } else {
        naive_tn(a, k, m, b, n, out);
    }
}

/// Fills a packed A panel (`k·PA_STEP` doubles): at every `k` step,
/// lane pair `r` holds `at(r, k)` twice for the `h` live rows and
/// zeros for the rest (their results are discarded at store).
fn pack_a(dest: &mut [f64], h: usize, at: impl Fn(usize, usize) -> f64) {
    let (steps, _) = dest.as_chunks_mut::<PA_STEP>();
    for (kk, step) in steps.iter_mut().enumerate() {
        let (pairs, _) = step.as_chunks_mut::<2>();
        for (r, pair) in pairs.iter_mut().enumerate() {
            let v = if r < h { at(r, kk) } else { 0.0 };
            *pair = [v, v];
        }
    }
}

/// Naive `A·B` in `ikj` order for the shapes the packed path declines
/// (e.g. single-column outputs).
fn naive_nn(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n == 1 {
        // Single-column product (the model's output heads): keep the
        // accumulator in a register instead of re-loading the one-element
        // output row on every `k` step. Same chain: `out` is pre-zeroed,
        // so both forms start at `0.0` and add the same terms ascending.
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&av, &bv) in a[i * k..(i + 1) * k].iter().zip(b) {
                acc += av * bv;
            }
            *o = acc;
        }
        return;
    }
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                *o += av * bv;
            }
        }
    }
}

/// Naive `A·Bᵀ` as row-by-row dot products (`b` is `n×k`, so both
/// streams are contiguous).
fn naive_nt(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if k == 1 {
        // Rank-1 outer product (the backward pass of a single-column
        // forward product): one multiply per output element, streamed
        // row-major. `out` is pre-zeroed, so accumulating into it is the
        // same `0.0 + a·b` chain the dot-product loop builds.
        for (i, &av) in a.iter().enumerate().take(m) {
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(b) {
                *o += av * bv;
            }
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(&b[j * k..(j + 1) * k]) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Naive `Aᵀ·B` in `k`-outer order (`a` is `k×m`): both operands are
/// streamed row-major and every output element still accumulates in
/// ascending-`k` order.
fn naive_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n == 1 {
        // Single-column product (the output head's weight gradient):
        // `out[i] = Σ_k a[k·m+i]·b[k]` with the accumulator in a
        // register. The per-element chain is ascending `k` in both loop
        // orders.
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (kk, &bv) in b.iter().enumerate() {
                acc += a[kk * m + i] * bv;
            }
            *o = acc;
        }
        return;
    }
    for kk in 0..k {
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &av) in a[kk * m..(kk + 1) * m].iter().enumerate() {
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}
