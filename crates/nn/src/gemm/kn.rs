//! The Reference tier's SIMD kernel: `C = bias ⊕ A·B` with `B` stored
//! k-major (`[k][n]`) and vector lanes across **output columns**.
//!
//! Each lane owns one output element and accumulates that element's `k`
//! terms in ascending order, one separate multiply and one add per term —
//! the exact rounding sequence of the scalar [`gemm_nt`](super::gemm_nt)
//! tile and of [`gemm_nt_reference`](super::gemm_nt_reference).  Lanes
//! never exchange values, so the vector width can change speed but never
//! bits; what a SIMD kernel must not do — split one element's sum across
//! lanes, or fuse the multiply into the add — this one never does.
//!
//! The AVX2 body lives in the audited leaf [`super::simd_avx2`]; the
//! portable fallback below runs the same tile loop in safe Rust.  Both
//! only ever compute `C += A·B` from the current contents of `C`; the
//! [`BiasMode`]s are applied around that core by [`gemm_kn`] as the
//! starting value (`None`, `RowInit`) or a final add (`ColAfter`), which
//! is where the scalar kernels apply them too.

// lint: pinned-path — reductions here feed golden-pinned statistics; use berry_nn::reduce helpers

use super::{detected_fast_backend, BiasMode, FastBackend};

/// Output rows per register tile.
pub(crate) const MR_K: usize = 4;
/// Output columns per register tile (two eight-lane vectors).
pub(crate) const NR_K: usize = 16;

/// A read-only `m×k` matrix over a slice, element `(i, p)` at
/// `data[i·row_stride + p·col_stride]` — so a row-major matrix and the
/// transpose of one are both views without a copy.
#[derive(Debug, Clone, Copy)]
pub struct StridedA<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> StridedA<'a> {
    /// A row-major `m×k` matrix: rows `k` apart, columns adjacent.
    pub fn row_major(data: &'a [f32], k: usize) -> Self {
        Self {
            data,
            row_stride: k,
            col_stride: 1,
        }
    }

    /// The transpose of a row-major `k×m` matrix, read as `m×k`:
    /// element `(i, p)` is the stored `[p][i]`.
    pub fn transposed(data: &'a [f32], m: usize) -> Self {
        Self {
            data,
            row_stride: 1,
            col_stride: m,
        }
    }
}

/// `C[i][j] = bias ⊕ Σₚ A(i, p) · B[p][j]` over a strided `A` (`m×k`),
/// row-major `B` (`k×n`) and row-major `C` (`m×n`), at the Reference
/// tier: bitwise equal to [`gemm_nt`](super::gemm_nt) on the same
/// products, every `BiasMode` included.
///
/// Runs the AVX2 kernel when [`detected_fast_backend`] reports AVX2 and
/// the portable one otherwise (so `BERRY_GEMM_FORCE_SCALAR=1` selects the
/// portable kernel); both produce the same bits.
///
/// # Panics
///
/// Panics if a slice (the bias included) is shorter than its extent
/// implies.
pub fn gemm_kn(
    m: usize,
    n: usize,
    k: usize,
    a: StridedA,
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
) {
    gemm_kn_with_backend(m, n, k, a, b, bias, c, detected_fast_backend());
}

/// Test/bench hook: [`gemm_kn`] on an explicitly chosen backend, so the
/// AVX2 and portable kernels can be compared in one process.  Any backend
/// but an executable [`FastBackend::Avx2`] runs the portable kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`gemm_kn`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_kn_with_backend(
    m: usize,
    n: usize,
    k: usize,
    a: StridedA,
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
    backend: FastBackend,
) {
    check_kn_shapes(m, n, k, &a, b, &bias, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    match bias {
        BiasMode::None | BiasMode::ColAfter(_) => c.fill(0.0),
        BiasMode::RowInit(bias) => {
            for (row, &b0) in c.chunks_exact_mut(n).zip(bias) {
                row.fill(b0);
            }
        }
        BiasMode::Accumulate => {}
    }
    accumulate(m, n, k, &a, b, c, backend);
    if let BiasMode::ColAfter(bias) = bias {
        for row in c.chunks_exact_mut(n) {
            for (v, &b0) in row.iter_mut().zip(bias) {
                *v += b0;
            }
        }
    }
}

/// Validates every slice against the `m`/`n`/`k` extents.
fn check_kn_shapes(
    m: usize,
    n: usize,
    k: usize,
    a: &StridedA,
    b: &[f32],
    bias: &BiasMode,
    c: &[f32],
) {
    if m > 0 && k > 0 {
        let last = (m - 1) * a.row_stride + (k - 1) * a.col_stride;
        assert!(
            last < a.data.len(),
            "gemm_kn: A holds {} elements but its {m}×{k} view reaches index {last}",
            a.data.len()
        );
    }
    assert!(
        b.len() >= k * n,
        "gemm_kn: B holds {} elements but k×n = {k}×{n} requires {}",
        b.len(),
        k * n
    );
    assert!(
        c.len() >= m * n,
        "gemm_kn: C holds {} elements but m×n = {m}×{n} requires {}",
        c.len(),
        m * n
    );
    match bias {
        BiasMode::RowInit(bias) => assert!(bias.len() >= m, "gemm_kn: row bias shorter than m"),
        BiasMode::ColAfter(bias) => assert!(bias.len() >= n, "gemm_kn: column bias shorter than n"),
        _ => {}
    }
}

/// `C += A·B` on the chosen backend.
fn accumulate(
    m: usize,
    n: usize,
    k: usize,
    a: &StridedA,
    b: &[f32],
    c: &mut [f32],
    backend: FastBackend,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if backend == FastBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            super::simd_avx2::kn_accumulate_at(m, n, k, a.data, a.row_stride, a.col_stride, b, c);
            return;
        }
    }
    let _ = backend;
    let mut i0 = 0;
    while i0 < m {
        let rows = MR_K.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let cols = PORTABLE_COLS.min(n - j0);
            let at = Tile { i0, j0, n, k };
            match rows {
                4 => at.columns::<4>(cols, a, b, c),
                3 => at.columns::<3>(cols, a, b, c),
                2 => at.columns::<2>(cols, a, b, c),
                _ => at.columns::<1>(cols, a, b, c),
            }
            j0 += PORTABLE_COLS;
        }
        i0 += MR_K;
    }
}

/// Output columns per portable register tile: one tile's accumulators
/// fill the 128-bit registers every target has (4×8 = eight 4-lane
/// vectors), so the compiler can keep them in registers.
const PORTABLE_COLS: usize = 8;

/// One portable register tile's rows `[i0, i0 + R)` and its first
/// column `j0`.
struct Tile {
    i0: usize,
    j0: usize,
    n: usize,
    k: usize,
}

impl Tile {
    /// Dispatches to the tile's column count (`cols` ≤ [`PORTABLE_COLS`]),
    /// so every tile runs with a compile-time width.
    #[inline]
    fn columns<const R: usize>(&self, cols: usize, a: &StridedA, b: &[f32], c: &mut [f32]) {
        match cols {
            8 => self.accumulate::<R, 8>(a, b, c),
            7 => self.accumulate::<R, 7>(a, b, c),
            6 => self.accumulate::<R, 6>(a, b, c),
            5 => self.accumulate::<R, 5>(a, b, c),
            4 => self.accumulate::<R, 4>(a, b, c),
            3 => self.accumulate::<R, 3>(a, b, c),
            2 => self.accumulate::<R, 2>(a, b, c),
            _ => self.accumulate::<R, 1>(a, b, c),
        }
    }

    #[inline]
    fn accumulate<const R: usize, const C: usize>(&self, a: &StridedA, b: &[f32], c: &mut [f32]) {
        let Tile { i0, j0, n, k } = *self;
        let mut acc = [[0.0f32; C]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let at = (i0 + r) * n + j0;
            acc_row.copy_from_slice(&c[at..at + C]);
        }
        for p in 0..k {
            let b_row: &[f32; C] = b[p * n + j0..p * n + j0 + C]
                .try_into()
                .expect("a tile's B row holds C columns");
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = a.data[(i0 + r) * a.row_stride + p * a.col_stride];
                for (accv, &bv) in acc_row.iter_mut().zip(b_row) {
                    // Separate mul + add, as in every Reference kernel.
                    *accv += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (i0 + r) * n + j0;
            c[at..at + C].copy_from_slice(acc_row);
        }
    }
}
