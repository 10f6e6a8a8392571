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
//! The kernel has three bodies, one per rung of an instruction-set
//! ladder ([`KnBody`]): 16-lane AVX-512 tiles, 8-lane AVX2 tiles (both in
//! the audited leaf [`super::simd_avx2`]) and a portable fallback below
//! that runs the same tile loop in safe Rust.  Each rung gives the same
//! bits; a process runs the widest one its CPU reports.  All three only
//! ever compute `C += A·B` from the current contents of `C`; the
//! [`BiasMode`]s are applied around that core by [`gemm_kn`] as the
//! starting value (`None`, `RowInit`) or a final add (`ColAfter`), which
//! is where the scalar kernels apply them too.
//!
//! [`gemm_kn`] takes dense operands.  Inside the crate the same kernel
//! also reads operands through offset tables ([`KnOperands`]), which is
//! how the convolution runs its batch-lane passes on windows of its
//! zero-bordered input and output-gradient buffers without copying them
//! out first.

// lint: pinned-path — reductions here feed golden-pinned statistics; use berry_nn::reduce helpers

use super::{detected_fast_backend, BiasMode, FastBackend};
use std::sync::OnceLock;

/// Output rows per AVX2 and portable register tile.
pub(crate) const MR_K: usize = 4;
/// Output columns per AVX2 register tile (two eight-lane vectors).
pub(crate) const NR_K: usize = 16;

/// The body the lanes kernel runs: the width of its tiles.  Every body
/// adds each element's terms in the same order with the same operations,
/// so the choice changes speed and never bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Other targets never pick the x86 bodies outside the tests.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum KnBody {
    /// 16-lane AVX-512 tiles (x86_64 with `avx512f`); a product of at most
    /// eight output columns, which would fill half a vector, runs the AVX2
    /// tile instead.
    Avx512,
    /// 8-lane AVX2 tiles (x86_64 with `avx2`).
    Avx2,
    /// Safe Rust on every target.
    Portable,
}

impl KnBody {
    /// The body this process runs, decided once: the portable one when
    /// [`detected_fast_backend`] is not AVX2 (`BERRY_GEMM_FORCE_SCALAR=1`,
    /// or no AVX2 on the CPU — aarch64 included), otherwise AVX-512 if the
    /// CPU reports `avx512f` and AVX2 if not.
    pub(crate) fn detected() -> Self {
        static BODY: OnceLock<KnBody> = OnceLock::new();
        *BODY.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if detected_fast_backend() == FastBackend::Avx2 {
                    return if std::arch::is_x86_feature_detected!("avx512f") {
                        KnBody::Avx512
                    } else {
                        KnBody::Avx2
                    };
                }
            }
            KnBody::Portable
        })
    }

    /// Lowercase body name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KnBody::Avx512 => "avx512",
            KnBody::Avx2 => "avx2",
            KnBody::Portable => "portable",
        }
    }
}

/// The name of the body [`gemm_kn`] and the layers' lanes products run in
/// this process: `"avx512"`, `"avx2"` or `"portable"`.
pub fn lanes_kernel_body() -> &'static str {
    KnBody::detected().name()
}

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

/// Element offsets along one axis of a kernel operand: index `i` lies
/// `at(i)` elements past the operand's start.  A [`Stride`] is the dense
/// case; an offset [`Table`] lets the kernel read operands that are
/// windows of a larger buffer — the convolution's zero-bordered,
/// batch-innermost planes — in place, without an unrolling copy.
///
/// For every `i < len`, `at(i)` must not exceed `last(len)`: the x86
/// bodies bound their unchecked reads by `last` alone, and in debug builds
/// their entry checks every offset of every product against it.
pub(crate) trait Offsets: Copy {
    /// The offset of index `i`.
    fn at(self, i: usize) -> usize;

    /// An upper bound on the offsets of indices `0..len` (`len ≥ 1`): the
    /// largest of them for a stride, and for a table read whole.  O(1),
    /// since every product asserts its reach from it.
    ///
    /// # Panics
    ///
    /// Panics if a table holds fewer than `len` entries.
    fn last(self, len: usize) -> usize;
}

/// Evenly spaced offsets: index `i` at `i·stride`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stride(pub(crate) usize);

impl Offsets for Stride {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        i * self.0
    }

    fn last(self, len: usize) -> usize {
        (len - 1) * self.0
    }
}

/// An offset table with its largest entry, taken once when the table is
/// built, so a product's reach is asserted without rescanning the table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    offsets: Vec<usize>,
    max: usize,
}

impl FromIterator<usize> for Table {
    fn from_iter<I: IntoIterator<Item = usize>>(offsets: I) -> Self {
        let offsets: Vec<usize> = offsets.into_iter().collect();
        let max = offsets.iter().copied().max().unwrap_or(0);
        Self { offsets, max }
    }
}

impl Offsets for &Table {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.offsets[i]
    }

    fn last(self, len: usize) -> usize {
        assert!(len <= self.offsets.len(), "{len} offsets read from a table of {}", self.offsets.len());
        self.max
    }
}

/// The operands of one `C = bias ⊕ A·B` call of the lanes kernel, each
/// addressed through [`Offsets`]:
///
/// * `A(i, p) = a[a_rows.at(i) + a_cols.at(p)]`;
/// * row `p` of `B` is the `n` consecutive elements at `b[b_rows.at(p)..]`;
/// * row `i` of `C` is the `n` consecutive elements at `c[i·ldc..]`.
///
/// [`gemm_kn`] is the dense special case: strided `A`, `B` rows `n`
/// apart and `ldc = n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KnOperands<'a, AR, AC, BR> {
    pub(crate) a: &'a [f32],
    pub(crate) a_rows: AR,
    pub(crate) a_cols: AC,
    pub(crate) b: &'a [f32],
    pub(crate) b_rows: BR,
    pub(crate) ldc: usize,
}

/// `C[i][j] = bias ⊕ Σₚ A(i, p) · B[p][j]` over a strided `A` (`m×k`),
/// row-major `B` (`k×n`) and row-major `C` (`m×n`), at the Reference
/// tier: bitwise equal to [`gemm_nt`](super::gemm_nt) on the same
/// products, every `BiasMode` included.
///
/// Runs the widest body the CPU has ([`lanes_kernel_body`]): AVX-512 or
/// AVX2 when [`detected_fast_backend`] reports AVX2 and the portable one
/// otherwise (so `BERRY_GEMM_FORCE_SCALAR=1` selects the portable
/// kernel); all produce the same bits.
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
    gemm_kn_on(m, n, k, a, b, bias, c, KnBody::detected());
}

/// Test/bench hook: [`gemm_kn`] on an explicitly chosen backend, so the
/// AVX2 and portable bodies can be compared in one process.  An
/// executable [`FastBackend::Avx2`] runs the AVX2 body — even on a CPU
/// with AVX-512, whose body [`gemm_kn`] runs — and any other backend the
/// portable one.
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
    let body = if backend == FastBackend::Avx2 { KnBody::Avx2 } else { KnBody::Portable };
    gemm_kn_on(m, n, k, a, b, bias, c, body);
}

/// [`gemm_kn`] on the given body.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_kn_on(
    m: usize,
    n: usize,
    k: usize,
    a: StridedA,
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
    body: KnBody,
) {
    let ops = KnOperands {
        a: a.data,
        a_rows: Stride(a.row_stride),
        a_cols: Stride(a.col_stride),
        b,
        b_rows: Stride(n),
        ldc: n,
    };
    gemm_kn_at(m, n, k, &ops, bias, c, body);
}

/// [`gemm_kn_on`] over operands addressed through offset
/// tables or strides (see [`KnOperands`]): the same kernel, the same
/// per-element order, the same bits.  `C`'s rows may lie `ldc ≥ n`
/// apart; elements between them are left untouched.
///
/// # Panics
///
/// Panics if an offset reaches past its slice, if `ldc < n`, or if the
/// bias is shorter than its extent.
pub(crate) fn gemm_kn_at<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    bias: BiasMode,
    c: &mut [f32],
    body: KnBody,
) {
    check_kn_shapes(m, n, k, ops, &bias, c);
    if m == 0 || n == 0 {
        return;
    }
    let ldc = ops.ldc;
    let rows = || (0..m).map(move |i| i * ldc..i * ldc + n);
    match bias {
        BiasMode::None | BiasMode::ColAfter(_) => {
            for row in rows() {
                c[row].fill(0.0);
            }
        }
        BiasMode::RowInit(bias) => {
            for (row, &b0) in rows().zip(bias) {
                c[row].fill(b0);
            }
        }
        BiasMode::Accumulate => {}
    }
    accumulate(m, n, k, ops, c, body);
    if let BiasMode::ColAfter(bias) = bias {
        for row in rows() {
            for (v, &b0) in c[row].iter_mut().zip(bias) {
                *v += b0;
            }
        }
    }
}

/// Validates every operand's reach against the `m`/`n`/`k` extents.
fn check_kn_shapes<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    bias: &BiasMode,
    c: &[f32],
) {
    if m > 0 && k > 0 {
        let last = ops.a_rows.last(m) + ops.a_cols.last(k);
        assert!(
            last < ops.a.len(),
            "gemm_kn: A holds {} elements but its {m}×{k} view reaches index {last}",
            ops.a.len()
        );
    }
    if n > 0 && k > 0 {
        let end = ops.b_rows.last(k) + n;
        assert!(
            end <= ops.b.len(),
            "gemm_kn: B holds {} elements but its k×n = {k}×{n} view reaches index {}",
            ops.b.len(),
            end - 1
        );
    }
    if m > 0 && n > 0 {
        assert!(ops.ldc >= n, "gemm_kn: C rows {} apart overlap their {n} columns", ops.ldc);
        let end = (m - 1) * ops.ldc + n;
        assert!(
            c.len() >= end,
            "gemm_kn: C holds {} elements but m×n = {m}×{n} requires {end}",
            c.len()
        );
    }
    match bias {
        BiasMode::RowInit(bias) => assert!(bias.len() >= m, "gemm_kn: row bias shorter than m"),
        BiasMode::ColAfter(bias) => assert!(bias.len() >= n, "gemm_kn: column bias shorter than n"),
        _ => {}
    }
}

/// `C += A·B` on the chosen body; `m`, `n` ≥ 1 and the extents checked.
/// A body the CPU cannot run steps down the ladder (AVX-512, AVX2,
/// portable) to one it can.
fn accumulate<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    c: &mut [f32],
    body: KnBody,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if body != KnBody::Portable && std::arch::is_x86_feature_detected!("avx2") {
            let avx512 = body == KnBody::Avx512 && std::arch::is_x86_feature_detected!("avx512f");
            super::simd_avx2::kn_accumulate_at(m, n, k, ops, c, avx512);
            return;
        }
    }
    let _ = body;
    let mut i0 = 0;
    while i0 < m {
        let rows = MR_K.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let cols = PORTABLE_COLS.min(n - j0);
            let at = Tile { i0, j0, k };
            match rows {
                4 => at.columns::<4, _, _, _>(cols, ops, c),
                3 => at.columns::<3, _, _, _>(cols, ops, c),
                2 => at.columns::<2, _, _, _>(cols, ops, c),
                _ => at.columns::<1, _, _, _>(cols, ops, c),
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
    k: usize,
}

impl Tile {
    /// Dispatches to the tile's column count (`cols` ≤ [`PORTABLE_COLS`]),
    /// so every tile runs with a compile-time width.
    #[inline]
    fn columns<const R: usize, AR: Offsets, AC: Offsets, BR: Offsets>(
        &self,
        cols: usize,
        ops: &KnOperands<AR, AC, BR>,
        c: &mut [f32],
    ) {
        match cols {
            8 => self.accumulate::<R, 8, _, _, _>(ops, c),
            7 => self.accumulate::<R, 7, _, _, _>(ops, c),
            6 => self.accumulate::<R, 6, _, _, _>(ops, c),
            5 => self.accumulate::<R, 5, _, _, _>(ops, c),
            4 => self.accumulate::<R, 4, _, _, _>(ops, c),
            3 => self.accumulate::<R, 3, _, _, _>(ops, c),
            2 => self.accumulate::<R, 2, _, _, _>(ops, c),
            _ => self.accumulate::<R, 1, _, _, _>(ops, c),
        }
    }

    #[inline]
    fn accumulate<const R: usize, const C: usize, AR: Offsets, AC: Offsets, BR: Offsets>(
        &self,
        ops: &KnOperands<AR, AC, BR>,
        c: &mut [f32],
    ) {
        let Tile { i0, j0, k } = *self;
        let ldc = ops.ldc;
        let a_rows: [usize; R] = std::array::from_fn(|r| ops.a_rows.at(i0 + r));
        let mut acc = [[0.0f32; C]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let at = (i0 + r) * ldc + j0;
            acc_row.copy_from_slice(&c[at..at + C]);
        }
        for p in 0..k {
            let b_at = ops.b_rows.at(p) + j0;
            let b_row: &[f32; C] = ops.b[b_at..b_at + C]
                .try_into()
                .expect("a tile's B row holds C columns");
            let a_col = ops.a_cols.at(p);
            for (acc_row, &a_row) in acc.iter_mut().zip(&a_rows) {
                let av = ops.a[a_row + a_col];
                for (accv, &bv) in acc_row.iter_mut().zip(b_row) {
                    // Separate mul + add, as in every Reference kernel.
                    *accv += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (i0 + r) * ldc + j0;
            c[at..at + C].copy_from_slice(acc_row);
        }
    }
}
