//! Packed, register-blocked GEMM kernels behind [`crate::Matrix::matmul`]
//! and its transposed variants.
//!
//! Three layouts share one microkernel: `nn` (`A·B`), `nt` (`A·Bᵀ`) and
//! `tn` (`Aᵀ·B`). The left operand is packed into `MR`-row panels
//! (`MR` values contiguous per `k`), the right operand into `NR`-column
//! panels (`NR` values contiguous per `k`), and an `MR×NR` register
//! accumulator walks the **full** inner dimension in ascending order.
//! The per-`k` finiteness of the right operand — which the zero-skip
//! predicate needs — is computed *during* packing, which already reads
//! every element, so the skip support costs no extra pass over B.
//!
//! # Why results are bit-identical to the naive `ikj` loop
//!
//! Every output element is one IEEE-754 accumulation chain: start at
//! `0.0`, add `a[i][k]·b[k][j]` for ascending `k`, skipping exactly the
//! terms the naive kernel skips (bitwise-zero `a` against a finite `b`
//! row). Register accumulation instead of memory accumulation does not
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
//! The zero-skip follows the same IEEE-754 reasoning as the original
//! kernel: `0·NaN = 0·inf = NaN`, so a bitwise-zero left entry is only
//! skipped when the opposing `k`-slice of the right operand is entirely
//! finite. Skipping also matters for `-0.0` arithmetic (a chain of all
//! skipped terms yields `+0.0`, a chain of `-0.0` products yields
//! `-0.0`), which is why the packed and naive paths share the exact
//! same skip predicate rather than approximating it.

use std::cell::Cell;
use std::sync::OnceLock;
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
    /// Packed left-operand panels, reused across calls on each thread
    /// (steady-state training loops stop allocating here entirely).
    static PA_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// Per-`k` finiteness of the right operand (1 = finite slice),
    /// filled as a by-product of packing B.
    static FIN_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
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

/// The `MR×NR` register microkernel: one full-`k` pass over a packed A
/// panel (`MR` values per `k`) and a packed B panel (`NR` values per
/// `k`), accumulating into registers in ascending-`k` order.
///
/// Each `k` step dispatches once: if the A column holds no bitwise zero
/// — or the opposing B slice is non-finite, which forbids skipping —
/// no skip can fire, so the update runs a branch-free `MR×NR` rank-1
/// accumulation that the compiler vectorizes. Only columns that really
/// contain a skippable zero take the per-row branchy lane. Both lanes
/// add the exact same terms in the exact same order, so the dispatch is
/// invisible in the bits.
#[inline]
fn microkernel(pa: &[f64], pb: &[f64], finite: &[u8], acc: &mut [[f64; NR]; MR]) {
    let (a_cols, _) = pa.as_chunks::<MR>();
    let (b_rows, _) = pb.as_chunks::<NR>();
    for ((a_col, b_row), &fin) in a_cols.iter().zip(b_rows).zip(finite.iter()) {
        // envlint: allow(float-cmp) — exact sparsity test: only a
        // bitwise-zero left entry is ever skippable.
        let any_zero = a_col.contains(&0.0);
        if any_zero && fin != 0 {
            for (acc_row, &a) in acc.iter_mut().zip(a_col) {
                // envlint: allow(float-cmp) — exact sparsity skip: only
                // a bitwise zero contributes nothing, and only against a
                // finite rhs slice (IEEE-754: 0·NaN = 0·inf = NaN).
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in acc_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        } else {
            for (acc_row, &a) in acc.iter_mut().zip(a_col) {
                for (o, &b) in acc_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }
}

/// Computes all `m` rows of C (`out`, row stride `n`) from pre-packed B
/// panels. `pack_a_panel(first, h, dest)` fills `dest` (`k·MR` doubles)
/// with rows `first..first+h` of the effective left operand; the unused
/// `MR - h` lanes are padded with `1.0` (never `0.0`, so padding cannot
/// push a dense column onto the microkernel's skipping lane — padded
/// results are discarded at store).
///
/// All A panels are packed once up front; the B-panel loop is outermost
/// so each packed B panel is reused across every A panel while it is
/// cache-hot.
fn gemm_rows(
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    pb: &[f64],
    finite: &[u8],
    mut pack_a_panel: impl FnMut(usize, usize, &mut [f64]),
) {
    with_scratch(&PA_SCRATCH, |pa| {
        let need = m.div_ceil(MR) * k * MR;
        if pa.len() < need {
            pa.resize(need, 0.0);
        }
        let pa = &mut pa[..need];
        for (pi, panel) in pa.chunks_exact_mut(k * MR).enumerate() {
            let p0 = pi * MR;
            pack_a_panel(p0, MR.min(m - p0), panel);
        }
        let mut j0 = 0;
        while j0 < n {
            let w = NR.min(n - j0);
            let b_panel = &pb[(j0 / NR) * k * NR..][..k * NR];
            for (pi, a_panel) in pa.chunks_exact(k * MR).enumerate() {
                let p0 = pi * MR;
                let h = MR.min(m - p0);
                let mut acc = [[0.0_f64; NR]; MR];
                microkernel(a_panel, b_panel, finite, &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(h) {
                    let dst = &mut out[(p0 + r) * n + j0..][..w];
                    dst.copy_from_slice(&acc_row[..w]);
                }
            }
            j0 += NR;
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
/// data from a previous product, so every lane is written). Also fills
/// `fin[kk]` with row `kk`'s finiteness — the pack touches every
/// element anyway, so the skip predicate's scan of B rides along free.
fn pack_b_nn(b: &[f64], k: usize, n: usize, pb: &mut Vec<f64>, fin: &mut Vec<u8>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    fin.clear();
    fin.resize(k, 1);
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (kk, lane) in dst.chunks_exact_mut(NR).enumerate() {
            let src = &b[kk * n + j0..][..w];
            lane[..w].copy_from_slice(src);
            lane[w..].fill(0.0);
            if !src.iter().all(|x| x.is_finite()) {
                fin[kk] = 0;
            }
        }
    }
}

/// Packs `b` (`n×k`, row-major; the `nt` right operand) into
/// `NR`-column panels of `Bᵀ`, accumulating per-`k` finiteness of the
/// gathered columns into `fin` as it goes (see [`pack_b_nn`]).
fn pack_b_nt(b: &[f64], n: usize, k: usize, pb: &mut Vec<f64>, fin: &mut Vec<u8>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    fin.clear();
    fin.resize(k, 1);
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for c in 0..NR {
            if c < w {
                let src = &b[(j0 + c) * k..][..k];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * NR + c] = v;
                    if !v.is_finite() {
                        fin[kk] = 0;
                    }
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
            with_scratch(&FIN_SCRATCH, |fin| {
                pack_b_nn(b, k, n, pb, fin);
                let pb = &pb[..packed_b_len(k, n)];
                gemm_rows(out, m, n, k, pb, fin, |first, h, dest| {
                    pack_a_rows(a, k, first, h, dest);
                });
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
            with_scratch(&FIN_SCRATCH, |fin| {
                pack_b_nt(b, n, k, pb, fin);
                let pb = &pb[..packed_b_len(k, n)];
                gemm_rows(out, m, n, k, pb, fin, |first, h, dest| {
                    pack_a_rows(a, k, first, h, dest);
                });
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
            with_scratch(&FIN_SCRATCH, |fin| {
                pack_b_nn(b, k, n, pb, fin);
                let pb = &pb[..packed_b_len(k, n)];
                gemm_rows(out, m, n, k, pb, fin, |first, h, dest| {
                    pack_a_cols(a, m, k, first, h, dest);
                });
            });
        });
    } else {
        naive_tn(a, k, m, b, n, out);
    }
}

/// Packs `h` rows of a row-major `·×k` slab (rows `first..first+h`)
/// into a `k·MR` panel. Lanes `h..MR` are padded with `1.0` — a value
/// the zero-skip can never fire on — so a ragged panel still takes the
/// microkernel's dense lane; the padded products land in accumulator
/// rows the caller discards.
fn pack_a_rows(a: &[f64], k: usize, first: usize, h: usize, dest: &mut [f64]) {
    for r in 0..MR {
        if r < h {
            for (kk, &v) in a[(first + r) * k..][..k].iter().enumerate() {
                dest[kk * MR + r] = v;
            }
        } else {
            for kk in 0..k {
                dest[kk * MR + r] = 1.0;
            }
        }
    }
}

/// Packs `h` columns of a row-major `k×m` slab (columns
/// `first..first+h`) into a `k·MR` panel, padding lanes `h..MR` with
/// `1.0` (see [`pack_a_rows`]).
fn pack_a_cols(a: &[f64], m: usize, k: usize, first: usize, h: usize, dest: &mut [f64]) {
    for kk in 0..k {
        let src = &a[kk * m..][..m];
        for r in 0..MR {
            dest[kk * MR + r] = if r < h { src[first + r] } else { 1.0 };
        }
    }
}

/// Per-row finiteness of the right operand, computed at most once per
/// product and only when a bitwise zero is first encountered on the
/// left (the naive paths keep the original lazy behaviour).
fn lazy_row_finite(b: &[f64], k: usize, n: usize, cache: &OnceLock<Vec<bool>>, kk: usize) -> bool {
    cache.get_or_init(|| {
        (0..k)
            .map(|r| b[r * n..(r + 1) * n].iter().all(|x| x.is_finite()))
            .collect()
    })[kk]
}

/// The original `ikj` kernel: accumulates `a_row · b` into one output
/// row.
fn mul_row_into(
    a_row: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    out_row: &mut [f64],
    row_finite: &OnceLock<Vec<bool>>,
) {
    for (kk, &a) in a_row.iter().enumerate() {
        // envlint: allow(float-cmp) — exact sparsity skip: only a bitwise
        // zero contributes nothing, and only against a finite rhs row.
        if a == 0.0 && lazy_row_finite(b, k, n, row_finite, kk) {
            continue;
        }
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += a * bv;
        }
    }
}

/// Naive `A·B` for the shapes the packed path declines (e.g.
/// single-column outputs).
fn naive_nn(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    let row_finite = OnceLock::new();
    if n == 1 {
        // Single-column product (the model's output heads): keep the
        // accumulator in a register instead of re-loading the one-element
        // output row on every `k` step. Same chain: `out` is pre-zeroed,
        // so both forms start at `0.0` and add the same terms ascending.
        // The `n == 1` "row" of B is the single element already in hand,
        // so the skip predicate needs no finiteness table at all.
        for (i, o) in out.iter_mut().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b.iter()) {
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as `mul_row_into` specialised to one column.
                if av == 0.0 && bv.is_finite() {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
    } else {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            mul_row_into(&a[i * k..(i + 1) * k], b, k, n, out_row, &row_finite);
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
        // same `0.0 + a·b` chain the dot-product loop builds. The single
        // `k`-slice's finiteness is one bool, scanned on first demand.
        let mut fin0: Option<bool> = None;
        for (a_row, out_row) in a.chunks_exact(1).zip(out.chunks_exact_mut(n)).take(m) {
            let av = a_row[0];
            // envlint: allow(float-cmp) — exact sparsity skip, same
            // predicate as the general loop with `kk == 0`.
            if av == 0.0 && *fin0.get_or_insert_with(|| b.iter().all(|x| x.is_finite())) {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.iter()) {
                *o += av * bv;
            }
        }
        return;
    }
    with_scratch(&FIN_SCRATCH, |fin| {
        col_finiteness(b, n, k, fin);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (kk, (&av, &bv)) in a_row.iter().zip(b_row.iter()).enumerate() {
                    // envlint: allow(float-cmp) — exact sparsity skip,
                    // same predicate as the packed kernel.
                    if av == 0.0 && fin[kk] != 0 {
                        continue;
                    }
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
    });
}

/// Naive `Aᵀ·B` in `k`-outer order (`a` is `k×m`): both operands are
/// streamed row-major and every output element still accumulates in
/// ascending-`k` order.
fn naive_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n == 1 {
        // Single-column product (the output head's weight gradient):
        // `out[i] = Σ_k a[k·m+i]·b[k]` with the accumulator in a
        // register. The per-element chain is ascending `k` in both loop
        // orders, and the `n == 1` "row" of B is the element in hand, so
        // no finiteness table is needed.
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (kk, &bv) in b.iter().enumerate() {
                let av = a[kk * m + i];
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as the general loop specialised to one column.
                if av == 0.0 && bv.is_finite() {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
        return;
    }
    with_scratch(&FIN_SCRATCH, |fin| {
        row_finiteness(b, k, n, fin);
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as the packed kernel.
                if av == 0.0 && fin[kk] != 0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// Per-row finiteness of a `rows×cols` row-major slab (1 = finite row).
fn row_finiteness(data: &[f64], rows: usize, cols: usize, fin: &mut Vec<u8>) {
    fin.clear();
    fin.extend(
        (0..rows).map(|r| u8::from(data[r * cols..(r + 1) * cols].iter().all(|x| x.is_finite()))),
    );
}

/// Per-column finiteness of a `rows×cols` row-major slab.
fn col_finiteness(data: &[f64], rows: usize, cols: usize, fin: &mut Vec<u8>) {
    fin.clear();
    fin.resize(cols, 1);
    for r in 0..rows {
        for (f, x) in fin.iter_mut().zip(&data[r * cols..(r + 1) * cols]) {
            *f &= u8::from(x.is_finite());
        }
    }
}
