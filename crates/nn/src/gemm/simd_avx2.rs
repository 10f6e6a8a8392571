//! x86 bodies of both precision tiers.
//!
//! * **Fast** — the eight-lane accumulation spec (see [`super::fast`]):
//!   one 256-bit AVX2 register *is* the spec's eight lanes, so each
//!   `vfmadd231ps` performs one spec step for all lanes of one output
//!   element at once.
//! * **Reference** — the lanes-across-outputs kernel (see [`super::kn`])
//!   at two widths: 16-lane AVX-512 tiles and 8-lane AVX2 tiles.  Each
//!   lane is a different output element, and each element's terms are
//!   added in ascending order by a `vmulps` then a `vaddps`, never fused,
//!   so every lane replays the scalar kernel's rounding sequence and the
//!   width changes speed, never bits.
//!
//! * **Layout** — the 8×8 block transpose of [`super::transpose`]: pure
//!   data movement, no arithmetic.
//!
//! This module is the crate's only x86 unsafe surface (with its NEON
//! twin); the crate root demotes `forbid(unsafe_code)` to `deny` solely
//! so these two leaf modules can opt in.  All pointer arithmetic is
//! bounds-justified by the invariants asserted in the safe entries
//! [`strip_at`] and [`kn_accumulate_at`].
#![allow(unsafe_code)]

use super::fast::{KR, MR_F, NR_F};
use super::kn::{KnOperands, Offsets, MR_K, NR_K};
use std::arch::x86_64::{
    __m128, __m256, __m256i, __mmask16, _mm512_add_ps, _mm512_loadu_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_storeu_ps, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cmpgt_epi32,
    _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps,
    _mm256_maskstore_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_epi32,
    _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps,
    _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_add_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps,
    _mm_unpackhi_ps, _mm_unpacklo_ps,
};

/// Safe strip entry used by the [`super::fast`] driver: `A` rows
/// `[i_begin, i_end)` (a multiple of [`MR_F`] rows) against `B` rows
/// `[j0, j0 + NR_F)`, raw spec dots written row-major into `out`.  All
/// unsafe preconditions are discharged here — panel bounds by assertion,
/// ISA availability by (cached) runtime detection — and amortize over the
/// strip's whole column of microtiles.
pub(crate) fn strip_at(
    kp: usize,
    pa: &[f32],
    i_begin: usize,
    i_end: usize,
    pb: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    assert_eq!(kp % KR, 0);
    assert!(i_begin <= i_end && (i_end - i_begin).is_multiple_of(MR_F));
    assert!(pa.len() >= i_end * kp);
    assert!(pb.len() >= (j0 + NR_F) * kp);
    assert_eq!(out.len(), (i_end - i_begin) * NR_F);
    assert!(
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"),
        "AVX2 backend selected on a CPU without avx2+fma"
    );
    // SAFETY: the asserts above guarantee the strip's row-bounds contract
    // and that the required target features are present.
    unsafe {
        strip(
            kp,
            pa.as_ptr().add(i_begin * kp),
            i_end - i_begin,
            pb.as_ptr().add(j0 * kp),
            out.as_mut_ptr(),
        );
    }
}

/// Sweeps `rows / MR_F` microtiles down the strip, one uninterrupted
/// spec-order accumulation per output element.
///
/// # Safety
///
/// The caller must guarantee AVX2 and FMA are available (runtime
/// detection), `kp % 8 == 0`, `rows % MR_F == 0`, that `a` points at
/// `rows` and `b` at `NR_F` consecutive `kp`-stride rows of readable
/// `f32`s, and that `out` holds `rows * NR_F` writable `f32`s.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn strip(kp: usize, a: *const f32, rows: usize, b: *const f32, out: *mut f32) {
    let mut i0 = 0;
    while i0 < rows {
        let mut acc = [[_mm256_setzero_ps(); NR_F]; MR_F];
        let a0 = a.add(i0 * kp);
        // One spec step: terms [p, p+KR) of all eight accumulators, each
        // one fused multiply-add.  The two-step unroll below only trims
        // loop overhead — each accumulator's FMA chain stays sequential
        // in ascending p, so the unroll cannot change bits.
        macro_rules! spec_step {
            ($p:expr) => {{
                let p = $p;
                let va0 = _mm256_loadu_ps(a0.add(p));
                let va1 = _mm256_loadu_ps(a0.add(kp + p));
                let vb0 = _mm256_loadu_ps(b.add(p));
                acc[0][0] = _mm256_fmadd_ps(va0, vb0, acc[0][0]);
                acc[1][0] = _mm256_fmadd_ps(va1, vb0, acc[1][0]);
                let vb1 = _mm256_loadu_ps(b.add(kp + p));
                acc[0][1] = _mm256_fmadd_ps(va0, vb1, acc[0][1]);
                acc[1][1] = _mm256_fmadd_ps(va1, vb1, acc[1][1]);
                let vb2 = _mm256_loadu_ps(b.add(2 * kp + p));
                acc[0][2] = _mm256_fmadd_ps(va0, vb2, acc[0][2]);
                acc[1][2] = _mm256_fmadd_ps(va1, vb2, acc[1][2]);
                let vb3 = _mm256_loadu_ps(b.add(3 * kp + p));
                acc[0][3] = _mm256_fmadd_ps(va0, vb3, acc[0][3]);
                acc[1][3] = _mm256_fmadd_ps(va1, vb3, acc[1][3]);
            }};
        }
        let mut p = 0;
        while p + 2 * KR <= kp {
            spec_step!(p);
            spec_step!(p + KR);
            p += 2 * KR;
        }
        if p < kp {
            spec_step!(p);
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let dots = reduce_row(acc_row);
            _mm_storeu_ps(out.add((i0 + r) * NR_F), dots);
        }
        i0 += MR_F;
    }
}

/// Applies the spec's fixed reduction tree to one microtile row's four
/// accumulators **in registers**, yielding their four dots as one vector.
///
/// Per accumulator `j`, `lo + hi` performs `s0..s3 = l0+l4 .. l3+l7` as
/// four parallel IEEE adds; the 4×4 transpose then lines the four
/// accumulators' `s`-terms up lanewise, so `(p0+p2) + (p1+p3)` computes
/// every dot's `(s0+s2) + (s1+s3)` — each spec add one distinct IEEE
/// operation, bitwise identical to the other backends' reductions
/// ([`super::fast_scalar::reduce8`]) at a fraction of the
/// spill-and-rescan cost.
#[inline]
unsafe fn reduce_row(acc_row: &[__m256; NR_F]) -> __m128 {
    let s: [__m128; NR_F] = [
        _mm_add_ps(_mm256_castps256_ps128(acc_row[0]), _mm256_extractf128_ps::<1>(acc_row[0])),
        _mm_add_ps(_mm256_castps256_ps128(acc_row[1]), _mm256_extractf128_ps::<1>(acc_row[1])),
        _mm_add_ps(_mm256_castps256_ps128(acc_row[2]), _mm256_extractf128_ps::<1>(acc_row[2])),
        _mm_add_ps(_mm256_castps256_ps128(acc_row[3]), _mm256_extractf128_ps::<1>(acc_row[3])),
    ];
    // 4×4 transpose: p_t[j] = s[j][t].
    let t0 = _mm_unpacklo_ps(s[0], s[1]); // s00 s10 s01 s11
    let t1 = _mm_unpackhi_ps(s[0], s[1]); // s02 s12 s03 s13
    let t2 = _mm_unpacklo_ps(s[2], s[3]); // s20 s30 s21 s31
    let t3 = _mm_unpackhi_ps(s[2], s[3]); // s22 s32 s23 s33
    let p0 = _mm_movelh_ps(t0, t2); // s00 s10 s20 s30
    let p1 = _mm_movehl_ps(t2, t0); // s01 s11 s21 s31
    let p2 = _mm_movelh_ps(t1, t3); // s02 s12 s22 s32
    let p3 = _mm_movehl_ps(t3, t1); // s03 s13 s23 s33
    _mm_add_ps(_mm_add_ps(p0, p2), _mm_add_ps(p1, p3)) // (s0+s2)+(s1+s3), per j
}

/// Output rows per AVX-512 register tile.
const MR_Z: usize = 8;
/// Output columns per AVX-512 register tile (two 16-lane vectors).
const NR_Z: usize = 32;

/// Safe entry of the Reference tier's lanes-across-outputs kernel:
/// `C[i][j] += Σₚ A(i, p) · B[p][j]` over the operands `ops` addresses
/// (see [`KnOperands`]), each element's terms added in ascending `p`.
/// With `avx512`, a product of more than eight output columns runs the
/// 16-lane tiles; the rest run the 8-lane ones, which a product that
/// would fill half a 16-lane vector runs faster.  All unsafe
/// preconditions are discharged here: the operands' reach by assertion
/// over their offsets, the target features by (cached) runtime detection.
pub(crate) fn kn_accumulate_at<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    c: &mut [f32],
    avx512: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(
        within_last(ops.a_rows, m) && within_last(ops.a_cols, k) && within_last(ops.b_rows, k),
        "an offset lies past its operand's `Offsets::last`"
    );
    assert!(ops.a_rows.last(m) + ops.a_cols.last(k) < ops.a.len());
    assert!(ops.b_rows.last(k) + n <= ops.b.len());
    assert!(ops.ldc >= n && (m - 1) * ops.ldc + n <= c.len());
    if avx512 && n > 8 {
        assert!(
            std::arch::is_x86_feature_detected!("avx512f"),
            "AVX-512 body selected on a CPU without avx512f"
        );
        // SAFETY: the asserts above bound every `A`, `B` and `C` access of
        // the sweep, as for the 8-lane body below (the 16-lane body reads
        // and writes no column past `n`: its last vector is masked), and
        // guarantee the required target feature is present.
        unsafe { kn_accumulate_512(m, n, k, ops, c.as_mut_ptr()) }
    } else {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 backend selected on a CPU without avx2"
        );
        // SAFETY: the asserts above bound every `A`, `B` and `C` access of
        // the sweep — every offset the tables or strides yield for `i < m`,
        // `p < k` is at most their asserted maxima — and guarantee the
        // required target feature is present.
        unsafe { kn_accumulate(m, n, k, ops, c.as_mut_ptr()) }
    }
}

/// Whether every offset of indices `0..len` is at most `last(len)` — the
/// [`Offsets`] contract [`kn_accumulate_at`]'s bounds rest on, checked one
/// offset at a time.
fn within_last<O: Offsets>(offsets: O, len: usize) -> bool {
    let last = offsets.last(len);
    (0..len).all(|i| offsets.at(i) <= last)
}

/// Sweeps `MR_K × NR_K` register tiles over `C`; fringe tiles keep fewer
/// rows and mask their last vector's columns.
///
/// # Safety
///
/// The caller must guarantee AVX2 is available, `m`, `n`, `k` ≥ 1, that
/// `ops.a` is readable at every `a_rows.at(i) + a_cols.at(p)` (`i < m`,
/// `p < k`), `ops.b` at `n` consecutive `f32`s from every `b_rows.at(p)`,
/// and `c` readable and writable at `n` consecutive `f32`s from every
/// `i·ldc`.
#[target_feature(enable = "avx2")]
unsafe fn kn_accumulate<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    c: *mut f32,
) {
    let mut i0 = 0;
    while i0 < m {
        let rows = MR_K.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let cols = NR_K.min(n - j0);
            // Lanes `cols % 8 ..` of the last vector are masked off (a
            // full vector when `cols` is a multiple of eight).
            let tail = cols - (cols - 1) / 8 * 8;
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(tail as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let t = KnTile {
                k,
                i0,
                j0,
                ops,
                c: c.add(i0 * ops.ldc + j0),
                mask,
            };
            match (rows, cols > 8, tail == 8) {
                (4, true, true) => t.run::<4, 2, false>(),
                (4, true, false) => t.run::<4, 2, true>(),
                (4, false, true) => t.run::<4, 1, false>(),
                (4, false, false) => t.run::<4, 1, true>(),
                (3, true, true) => t.run::<3, 2, false>(),
                (3, true, false) => t.run::<3, 2, true>(),
                (3, false, true) => t.run::<3, 1, false>(),
                (3, false, false) => t.run::<3, 1, true>(),
                (2, true, true) => t.run::<2, 2, false>(),
                (2, true, false) => t.run::<2, 2, true>(),
                (2, false, true) => t.run::<2, 1, false>(),
                (2, false, false) => t.run::<2, 1, true>(),
                (_, true, true) => t.run::<1, 2, false>(),
                (_, true, false) => t.run::<1, 2, true>(),
                (_, false, true) => t.run::<1, 1, false>(),
                (_, false, false) => t.run::<1, 1, true>(),
            }
            j0 += NR_K;
        }
        i0 += MR_K;
    }
}

/// One register tile of [`kn_accumulate`]: rows from `i0`, columns from
/// `j0`, `c` at the tile's first element.
struct KnTile<'o, 'a, AR, AC, BR> {
    k: usize,
    i0: usize,
    j0: usize,
    ops: &'o KnOperands<'a, AR, AC, BR>,
    c: *mut f32,
    mask: __m256i,
}

impl<AR: Offsets, AC: Offsets, BR: Offsets> KnTile<'_, '_, AR, AC, BR> {
    /// `R` rows × `V` vectors of accumulators held in registers across
    /// the whole `k` sweep; when `MASKED`, the last vector covers only the
    /// lanes of `mask`.
    ///
    /// # Safety
    ///
    /// As for [`kn_accumulate`], for the tile's `R` rows and
    /// `8·(V − 1) + popcount(mask)` columns.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn run<const R: usize, const V: usize, const MASKED: bool>(&self) {
        let (ops, ldc, mask) = (self.ops, self.ops.ldc, self.mask);
        let a = ops.a.as_ptr();
        let b = ops.b.as_ptr().add(self.j0);
        let a_rows: [usize; R] = std::array::from_fn(|r| ops.a_rows.at(self.i0 + r));
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let c_row = self.c.add(r * ldc);
            for (v, accv) in acc_row.iter_mut().enumerate() {
                *accv = if MASKED && v == V - 1 {
                    _mm256_maskload_ps(c_row.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(c_row.add(8 * v))
                };
            }
        }
        for p in 0..self.k {
            let b_row = b.add(ops.b_rows.at(p));
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = if MASKED && v == V - 1 {
                    _mm256_maskload_ps(b_row.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(b_row.add(8 * v))
                };
            }
            let a_col = a.add(ops.a_cols.at(p));
            for (acc_row, &a_row) in acc.iter_mut().zip(&a_rows) {
                let av = _mm256_set1_ps(*a_col.add(a_row));
                for (accv, &bvv) in acc_row.iter_mut().zip(bv.iter()) {
                    // Separate multiply and add: the scalar kernel's two
                    // roundings per term, in every lane.
                    *accv = _mm256_add_ps(*accv, _mm256_mul_ps(av, bvv));
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let c_row = self.c.add(r * ldc);
            for (v, &accv) in acc_row.iter().enumerate() {
                if MASKED && v == V - 1 {
                    _mm256_maskstore_ps(c_row.add(8 * v), mask, accv);
                } else {
                    _mm256_storeu_ps(c_row.add(8 * v), accv);
                }
            }
        }
    }
}

/// The 16-lane body of [`kn_accumulate`]: `MR_Z × NR_Z` register tiles
/// swept over `C`; fringe tiles keep fewer rows and mask their last
/// vector's columns.
///
/// # Safety
///
/// As for [`kn_accumulate`], with AVX-512F in place of AVX2.
#[target_feature(enable = "avx512f")]
unsafe fn kn_accumulate_512<AR: Offsets, AC: Offsets, BR: Offsets>(
    m: usize,
    n: usize,
    k: usize,
    ops: &KnOperands<AR, AC, BR>,
    c: *mut f32,
) {
    let mut i0 = 0;
    while i0 < m {
        let rows = MR_Z.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let cols = NR_Z.min(n - j0);
            // The last vector's lanes: `cols % 16` of them (all sixteen when
            // `cols` is a multiple of sixteen).
            let tail = cols - (cols - 1) / 16 * 16;
            let t = ZmmTile {
                k,
                i0,
                j0,
                ops,
                c: c.add(i0 * ops.ldc + j0),
                mask: ((1u32 << tail) - 1) as __mmask16,
            };
            macro_rules! by_rows {
                ($($r:literal)*) => {
                    match (rows, cols > 16) {
                        $(($r, true) => t.run::<$r, 2>(), ($r, false) => t.run::<$r, 1>(),)*
                        _ => unreachable!("a tile holds 1 to {MR_Z} rows"),
                    }
                };
            }
            by_rows!(1 2 3 4 5 6 7 8);
            j0 += NR_Z;
        }
        i0 += MR_Z;
    }
}

/// One register tile of [`kn_accumulate_512`]: rows from `i0`, columns
/// from `j0`, `c` at the tile's first element; `mask` holds the lanes of
/// the tile's last vector.
struct ZmmTile<'o, 'a, AR, AC, BR> {
    k: usize,
    i0: usize,
    j0: usize,
    ops: &'o KnOperands<'a, AR, AC, BR>,
    c: *mut f32,
    mask: __mmask16,
}

impl<AR: Offsets, AC: Offsets, BR: Offsets> ZmmTile<'_, '_, AR, AC, BR> {
    /// `R` rows × `V` vectors of accumulators held in registers across
    /// the whole `k` sweep; the last vector loads and stores only the
    /// lanes of `mask` (masked-off lanes are neither read nor written).
    ///
    /// # Safety
    ///
    /// As for [`kn_accumulate_512`], for the tile's `R` rows and
    /// `16·(V − 1) + popcount(mask)` columns.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn run<const R: usize, const V: usize>(&self) {
        let (ops, ldc, mask) = (self.ops, self.ops.ldc, self.mask);
        let a = ops.a.as_ptr();
        let b = ops.b.as_ptr().add(self.j0);
        let a_rows: [usize; R] = std::array::from_fn(|r| ops.a_rows.at(self.i0 + r));
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let c_row = self.c.add(r * ldc);
            for (v, accv) in acc_row.iter_mut().enumerate() {
                *accv = if v == V - 1 {
                    _mm512_maskz_loadu_ps(mask, c_row.add(16 * v))
                } else {
                    _mm512_loadu_ps(c_row.add(16 * v))
                };
            }
        }
        for p in 0..self.k {
            let b_row = b.add(ops.b_rows.at(p));
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = if v == V - 1 {
                    _mm512_maskz_loadu_ps(mask, b_row.add(16 * v))
                } else {
                    _mm512_loadu_ps(b_row.add(16 * v))
                };
            }
            let a_col = a.add(ops.a_cols.at(p));
            for (acc_row, &a_row) in acc.iter_mut().zip(&a_rows) {
                let av = _mm512_set1_ps(*a_col.add(a_row));
                for (accv, &bvv) in acc_row.iter_mut().zip(bv.iter()) {
                    // Separate multiply and add, as in the 8-lane tile.
                    *accv = _mm512_add_ps(*accv, _mm512_mul_ps(av, bvv));
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let c_row = self.c.add(r * ldc);
            for (v, &accv) in acc_row.iter().enumerate() {
                if v == V - 1 {
                    _mm512_mask_storeu_ps(c_row.add(16 * v), mask, accv);
                } else {
                    _mm512_storeu_ps(c_row.add(16 * v), accv);
                }
            }
        }
    }
}

/// Safe entry of the 8×8 block transpose: `dst[at[t] + i0 + i] =
/// src[i·src_stride + t]` for `i`, `t < 8`.  The reach of every read and
/// write is asserted here, AVX2 by (cached) runtime detection.
pub(crate) fn transpose8_at(src: &[f32], src_stride: usize, dst: &mut [f32], at: &[usize; 8], i0: usize) {
    assert!(7 * src_stride + 8 <= src.len());
    assert!(at.iter().all(|&a| a + i0 + 8 <= dst.len()));
    assert!(
        std::arch::is_x86_feature_detected!("avx"),
        "AVX2 backend selected on a CPU without avx"
    );
    // SAFETY: the asserts above bound all eight row reads and all eight
    // row writes, and guarantee the required target feature is present.
    unsafe { transpose8(src.as_ptr(), src_stride, dst.as_mut_ptr().add(i0), at) }
}

/// Loads eight rows, transposes them in registers (unpack, shuffle, then
/// 128-bit lane swap) and stores column `t` at `dst + at[t]`.
///
/// # Safety
///
/// The caller must guarantee AVX is available, that `src` is readable at
/// eight consecutive `f32`s from every `i·src_stride` (`i < 8`) and `dst`
/// writable at eight from every `at[t]`.
#[target_feature(enable = "avx")]
unsafe fn transpose8(src: *const f32, src_stride: usize, dst: *mut f32, at: &[usize; 8]) {
    let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(src.add(i * src_stride)));
    // Pairs of rows interleaved: [r0₀ r1₀ r0₁ r1₁ | r0₄ r1₄ r0₅ r1₅], …
    let lo01 = _mm256_unpacklo_ps(r[0], r[1]);
    let hi01 = _mm256_unpackhi_ps(r[0], r[1]);
    let lo23 = _mm256_unpacklo_ps(r[2], r[3]);
    let hi23 = _mm256_unpackhi_ps(r[2], r[3]);
    let lo45 = _mm256_unpacklo_ps(r[4], r[5]);
    let hi45 = _mm256_unpackhi_ps(r[4], r[5]);
    let lo67 = _mm256_unpacklo_ps(r[6], r[7]);
    let hi67 = _mm256_unpackhi_ps(r[6], r[7]);
    // Quads: columns t and t + 4 of rows 0–3 (or 4–7).
    let q0 = _mm256_shuffle_ps::<0x44>(lo01, lo23);
    let q1 = _mm256_shuffle_ps::<0xEE>(lo01, lo23);
    let q2 = _mm256_shuffle_ps::<0x44>(hi01, hi23);
    let q3 = _mm256_shuffle_ps::<0xEE>(hi01, hi23);
    let q4 = _mm256_shuffle_ps::<0x44>(lo45, lo67);
    let q5 = _mm256_shuffle_ps::<0xEE>(lo45, lo67);
    let q6 = _mm256_shuffle_ps::<0x44>(hi45, hi67);
    let q7 = _mm256_shuffle_ps::<0xEE>(hi45, hi67);
    let columns = [
        _mm256_permute2f128_ps::<0x20>(q0, q4),
        _mm256_permute2f128_ps::<0x20>(q1, q5),
        _mm256_permute2f128_ps::<0x20>(q2, q6),
        _mm256_permute2f128_ps::<0x20>(q3, q7),
        _mm256_permute2f128_ps::<0x31>(q0, q4),
        _mm256_permute2f128_ps::<0x31>(q1, q5),
        _mm256_permute2f128_ps::<0x31>(q2, q6),
        _mm256_permute2f128_ps::<0x31>(q3, q7),
    ];
    for (column, &a) in columns.iter().zip(at) {
        _mm256_storeu_ps(dst.add(a), *column);
    }
}
