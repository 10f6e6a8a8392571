//! The Fast tier: packed, cache-blocked microkernels behind one
//! backend-independent accumulation spec.
//!
//! # The eight-lane accumulation spec
//!
//! Every Fast-tier output element `C[i][j]` is computed as follows, and
//! *every* backend — AVX2+FMA ([`super::simd_avx2`]), NEON
//! ([`super::simd_neon`]) and the portable scalar fallback
//! ([`super::fast_scalar`]) — implements these exact steps:
//!
//! 1. Round `k` up to `kp`, the next multiple of [`KR`] (= 8), and
//!    zero-pad both operand rows to `kp` terms.  `fma(0, 0, acc) == acc`
//!    bitwise for the finite values networks hold, so the padding terms
//!    are arithmetic no-ops.
//! 2. Keep eight lane accumulators `l[0..8]`, all starting at `+0.0`.
//!    Lane `t` accumulates the terms with index `p ≡ t (mod 8)` in
//!    ascending `p` order, each via one *fused* multiply-add
//!    (`l[t] = fma(a[p], b[p], l[t])`) — a single rounding per term.
//! 3. Reduce with a fixed tree:
//!    `s0 = l0+l4`, `s1 = l1+l5`, `s2 = l2+l6`, `s3 = l3+l7`,
//!    `dot = (s0+s2) + (s1+s3)`.
//! 4. Apply the bias with one plain IEEE add:
//!    `RowInit` → `bias[i] + dot`, `ColAfter` → `dot + bias[j]`,
//!    `Accumulate` → `C[i][j] + dot`, `None` → `dot`.
//!
//! `f32::mul_add`, AVX2 `vfmadd231ps` and NEON `fmla` are all
//! correctly-rounded fused operations, and IEEE adds are identical on
//! every target, so the three backends agree *bit for bit* — which is
//! what lets the Fast tier ship its own golden snapshot and lets CI prove
//! the scalar fallback equals the SIMD path on the same host.
//!
//! # Packing and blocking
//!
//! Operands are packed into zero-padded row-major panels (`kp`-strided
//! rows, row counts rounded up to the microtile extents).  Packing buys
//! three things: unit-stride loads, a tail-free `k` loop, and — because
//! the SIMD entry points assert the panel bounds — safely encapsulated
//! raw-pointer access for the microkernels.
//!
//! When an operand **already is** a valid panel, packing is skipped and
//! the microkernels read the caller's slice directly: `A` when `kp == k`
//! and `m` is a multiple of [`MR_F`], and every full row group of `B`
//! when `kp == k` (only `B`'s final partial group, if any, is packed).
//! The policy networks' hot shapes — even batches, `k` a multiple of
//! eight — take the zero-copy path for `A` and for all of dense `B`; the
//! aliased rows hold exactly the bytes packing would have copied, so the
//! skip cannot change bits.
//!
//! The microtile sweep is blocked over `m` and `n` only ([`MC`]×[`NC`]),
//! never over `k`: each output element is still produced by one
//! uninterrupted spec-order accumulation, so block sizes can change cache
//! behaviour but never bits.  (Policy-network `k` extents are at most a
//! few thousand — two microtile operand sets stay resident in L1.)

use super::{fast_scalar, BiasMode, FastBackend, PackScratch};

#[cfg(target_arch = "x86_64")]
use super::simd_avx2;
#[cfg(target_arch = "aarch64")]
use super::simd_neon;

/// Lane count of the accumulation spec (terms per fused step).
pub(crate) const KR: usize = 8;
/// `A` rows per microtile.
pub(crate) const MR_F: usize = 2;
/// `B` rows per microtile.
pub(crate) const NR_F: usize = 4;
/// `A`-row block extent of the microtile sweep (L2-resident panel slice).
const MC: usize = 64;
/// `B`-row block extent of the microtile sweep (L1-resident panel slice).
const NC: usize = 48;

/// The Fast-tier `C = A · Bᵀ` driver: packs both operands, then sweeps
/// `MR_F`×`NR_F` microtiles of the chosen backend over the panels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nt_fast(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
    packs: &mut PackScratch,
    backend: FastBackend,
) {
    super::check_gemm_shapes(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let kp = k.next_multiple_of(KR);
    let mp = m.next_multiple_of(MR_F);
    let np = n.next_multiple_of(NR_F);

    // Zero-copy fast paths: an operand whose rows already have the panel
    // layout is read in place (see the module docs), so the hot policy
    // shapes copy nothing for `A` and only `B`'s partial final row group.
    let alias_a = kp == k && mp == m;
    let alias_b = kp == k;
    // First `B` panel row group that is *not* fully backed by `b`.
    let n_full = if alias_b { n - n % NR_F } else { 0 };
    let (pa, pb) = packs.panels(
        if alias_a { 0 } else { mp * kp },
        if alias_b { np * kp - n_full * kp } else { np * kp },
    );
    if !alias_a {
        pack_rows(a, m, k, kp, mp, pa);
    }
    if alias_b {
        if n_full < n {
            pack_rows(&b[n_full * k..], n - n_full, k, kp, NR_F, pb);
        }
    } else {
        pack_rows(b, n, k, kp, np, pb);
    }
    let (pa, pb): (&[f32], &[f32]) = (pa, pb);

    // m/n-blocked strip sweep: one backend call covers a whole column of
    // microtiles ([`MR_F`] ≤ MC rows against one NR_F row group), so the
    // SIMD entry points' per-call costs amortize over the column.  The
    // padded fringe rows multiply into dots we simply never store, which
    // keeps every microtile the full MR_F×NR_F shape (no edge-kernel
    // variants to keep in bitwise sync).
    let mut dots = [0.0f32; MC * NR_F];
    let mut jc = 0;
    while jc < np {
        let jc_end = (jc + NC).min(np);
        let mut ic = 0;
        while ic < mp {
            let ic_end = (ic + MC).min(mp);
            let ra: &[f32] = if alias_a { a } else { pa };
            let mut j0 = jc;
            while j0 < jc_end {
                // Resolve the strip's B rows: the caller's slice on the
                // zero-copy path, the packed panel otherwise (B's packed
                // fringe group sits at offset 0).
                let (rb, bj) = if !alias_b {
                    (pb, j0)
                } else if j0 < n_full {
                    (b, j0)
                } else {
                    (pb, j0 - n_full)
                };
                let strip = &mut dots[..(ic_end - ic) * NR_F];
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    FastBackend::Avx2 => simd_avx2::strip_at(kp, ra, ic, ic_end, rb, bj, strip),
                    #[cfg(target_arch = "aarch64")]
                    FastBackend::Neon => simd_neon::strip_at(kp, ra, ic, ic_end, rb, bj, strip),
                    _ => fast_scalar::strip(kp, ra, ic, ic_end, rb, bj, strip),
                }
                // Store the strip's in-bounds dots (`ni` rows × `nj`
                // columns; the rest is padded fringe), bias applied per
                // the mode — resolved once out here, so the inner loops
                // stay branch-free.
                let ni = (ic_end - ic).min(m - ic);
                let nj = NR_F.min(n - j0);
                match bias {
                    BiasMode::None => {
                        for (r, dot_row) in strip.chunks_exact(NR_F).take(ni).enumerate() {
                            let at = (ic + r) * n + j0;
                            c[at..at + nj].copy_from_slice(&dot_row[..nj]);
                        }
                    }
                    BiasMode::RowInit(bias) if nj == NR_F => {
                        // Full-width groups get a fixed-trip inner loop
                        // the compiler unrolls flat.
                        for (r, dot_row) in strip.chunks_exact(NR_F).take(ni).enumerate() {
                            let i = ic + r;
                            let row_bias = bias[i];
                            let out = &mut c[i * n + j0..i * n + j0 + NR_F];
                            for (out_el, &dot) in out.iter_mut().zip(dot_row) {
                                *out_el = row_bias + dot;
                            }
                        }
                    }
                    BiasMode::RowInit(bias) => {
                        for (r, dot_row) in strip.chunks_exact(NR_F).take(ni).enumerate() {
                            let i = ic + r;
                            let row_bias = bias[i];
                            for (out, &dot) in
                                c[i * n + j0..i * n + j0 + nj].iter_mut().zip(dot_row)
                            {
                                *out = row_bias + dot;
                            }
                        }
                    }
                    BiasMode::Accumulate => {
                        for (r, dot_row) in strip.chunks_exact(NR_F).take(ni).enumerate() {
                            let at = (ic + r) * n + j0;
                            for (out, &dot) in c[at..at + nj].iter_mut().zip(dot_row) {
                                *out += dot;
                            }
                        }
                    }
                    BiasMode::ColAfter(bias) => {
                        let col_bias = &bias[j0..j0 + nj];
                        for (r, dot_row) in strip.chunks_exact(NR_F).take(ni).enumerate() {
                            let at = (ic + r) * n + j0;
                            for ((out, &dot), &cb) in
                                c[at..at + nj].iter_mut().zip(dot_row).zip(col_bias)
                            {
                                *out = dot + cb;
                            }
                        }
                    }
                }
                j0 += NR_F;
            }
            ic += MC;
        }
        jc += NC;
    }
}

/// Packs `rows`×`k` row-major `src` into a `rows_padded`×`kp` panel:
/// each row's `k..kp` tail and every row past `rows` is zero-filled, so
/// the microkernels can run tail-free full-shape loops.
fn pack_rows(src: &[f32], rows: usize, k: usize, kp: usize, rows_padded: usize, dst: &mut [f32]) {
    for r in 0..rows {
        dst[r * kp..r * kp + k].copy_from_slice(&src[r * k..(r + 1) * k]);
        dst[r * kp + k..(r + 1) * kp].fill(0.0);
    }
    dst[rows * kp..rows_padded * kp].fill(0.0);
}
