//! GEMM-level pins of the packed Fast kernel behind `gemm_nt_with`.
//!
//! No layer, evaluation or campaign runs the Fast kernel: inference and
//! evaluation have one tier, the bit-pinned Reference kernels.  The Fast
//! kernel (packed SIMD microkernels, see `berry_nn::gemm::fast`) remains
//! as a GEMM function the benchmark probes time.  It deliberately
//! reassociates the contraction, so it cannot share the Reference golden
//! bits.  What this file pins at the GEMM level is:
//!
//! 1. **Reference is untouched**: routing `Precision::Reference` through
//!    `gemm_nt_with` is bitwise the plain [`gemm_nt`] kernel.
//! 2. **Fast is close**: Fast agrees with Reference within an explicit
//!    error bound derived from the term-magnitude sum, across randomized
//!    dense shapes and full conv geometries (odd extents, strides,
//!    paddings, every bias mode).
//! 3. **Fast is *itself* deterministic**: the eight-lane accumulation
//!    spec makes every backend (AVX2, NEON, scalar) agree bit for bit,
//!    so the Fast GEMM outputs carry their own golden snapshot that must
//!    reproduce on any host and under `BERRY_GEMM_FORCE_SCALAR=1` (the CI
//!    tier-matrix leg).

use berry_nn::gemm::{
    gemm_nt, gemm_nt_fast_with_backend, gemm_nt_with, im2col, BiasMode, FastBackend, Im2colShape,
    PackScratch, Precision,
};
use berry_nn::tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn rand_vec(len: usize, r: &mut rand::rngs::StdRng) -> Vec<f32> {
    Tensor::rand_uniform(&[len.max(1)], -1.0, 1.0, r).data()[..len].to_vec()
}

/// FNV-1a over the little-endian bytes of each element's bit pattern: one
/// u64 pins a whole output tensor exactly, and the observed value is
/// printed on failure so an *intentional* re-baseline is a copy-paste.
fn fnv1a_bits(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Shapes that cross every interesting boundary of the Fast driver:
/// microtile fringes in both extents, `k` tails, the zero-copy aliasing
/// paths (`k % 8 == 0`), and the MC/NC block boundaries.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (2, 4, 8),
    (5, 9, 13),
    (16, 25, 72),
    (7, 81, 18),
    (70, 55, 19),
];

/// Tolerance for one Fast-vs-Reference element: both tiers are exact-sum
/// approximations whose error is a few ULP of the term-magnitude sum.
fn fast_bound(k: usize, mag: f32) -> f32 {
    2.0 * (k as f32) * f32::EPSILON * mag + 1e-30
}

#[allow(clippy::too_many_arguments)]
fn assert_close(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c_ref: &[f32],
    c_fast: &[f32],
    label: &str,
) {
    for i in 0..m {
        for j in 0..n {
            let mag: f32 = a[i * k..(i + 1) * k]
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .map(|(x, y)| (x * y).abs())
                .sum();
            let bound = fast_bound(k, mag);
            let diff = (c_ref[i * n + j] - c_fast[i * n + j]).abs();
            assert!(
                diff <= bound,
                "{label} ({m},{n},{k}) element ({i},{j}): |{} - {}| = {diff} > {bound}",
                c_ref[i * n + j],
                c_fast[i * n + j]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Reference-tier bits are untouched by the tiered entry point.
// ---------------------------------------------------------------------------

/// `Precision::Reference` through `gemm_nt_with` must be bitwise the plain
/// `gemm_nt` kernel, so the Fast-over-Reference figures of the benchmark
/// probes compare against the kernel the layers run.
#[test]
fn reference_tier_is_bitwise_plain_gemm_nt() {
    let mut r = rng(41);
    let mut packs = PackScratch::new();
    for &(m, n, k) in SHAPES {
        let a = rand_vec(m * k, &mut r);
        let b = rand_vec(n * k, &mut r);
        let row_bias = rand_vec(m, &mut r);
        let col_bias = rand_vec(n, &mut r);
        // Prior contents of C, which only `Accumulate` reads.
        let c_prior = rand_vec(m * n, &mut r);
        for (label, bias) in [
            ("none", BiasMode::None),
            ("row", BiasMode::RowInit(&row_bias)),
            ("col", BiasMode::ColAfter(&col_bias)),
            ("accumulate", BiasMode::Accumulate),
        ] {
            let mut c_plain = c_prior.clone();
            let mut c_tiered = c_prior.clone();
            gemm_nt(m, n, k, &a, &b, bias, &mut c_plain);
            gemm_nt_with(
                m,
                n,
                k,
                &a,
                &b,
                bias,
                &mut c_tiered,
                Precision::Reference,
                &mut packs,
            );
            let plain: Vec<u32> = c_plain.iter().map(|v| v.to_bits()).collect();
            let tiered: Vec<u32> = c_tiered.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                plain, tiered,
                "Reference tier drifted from gemm_nt at ({m},{n},{k}) bias={label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Fast tracks Reference within the explicit bound (property tests).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dense shapes — odd extents included — at every bias mode.
    #[test]
    fn fast_tracks_reference_on_random_dense_shapes(seed in 0u64..500) {
        let mut r = rng(seed ^ 0xD3_5E);
        let m = r.gen_range(1..=40usize);
        let n = r.gen_range(1..=40usize);
        let k = r.gen_range(1..=100usize);
        let a = rand_vec(m * k, &mut r);
        let b = rand_vec(n * k, &mut r);
        let row_bias = rand_vec(m, &mut r);
        let col_bias = rand_vec(n, &mut r);
        let c_prior = rand_vec(m * n, &mut r);
        let mut packs = PackScratch::new();
        for bias in [
            BiasMode::None,
            BiasMode::RowInit(&row_bias),
            BiasMode::ColAfter(&col_bias),
            BiasMode::Accumulate,
        ] {
            let mut c_ref = c_prior.clone();
            let mut c_fast = c_prior.clone();
            gemm_nt(m, n, k, &a, &b, bias, &mut c_ref);
            gemm_nt_with(m, n, k, &a, &b, bias, &mut c_fast, Precision::Fast, &mut packs);
            // The bias (or prior C) term shifts both tiers by the same IEEE
            // add, so the raw-dot bound still applies to the difference.
            assert_close(m, n, k, &a, &b, &c_ref, &c_fast, "dense");
        }
    }

    /// Random *conv* geometries: channels, spatial extents, kernel,
    /// stride and padding are all drawn (validated via `Im2colShape`),
    /// the patch matrix is built by `im2col`, and the filter GEMM runs on
    /// both kernels.
    #[test]
    fn fast_tracks_reference_on_random_conv_geometry(seed in 0u64..300) {
        let mut r = rng(seed ^ 0xC0_47);
        let channels = r.gen_range(1..=5usize);
        let kernel = r.gen_range(1..=4usize);
        let stride = r.gen_range(1..=3usize);
        let padding = r.gen_range(0..=2usize);
        // Draw spatial extents large enough for the padded kernel to fit.
        let min_extent = kernel.saturating_sub(2 * padding).max(1);
        let height = min_extent + r.gen_range(0..9usize);
        let width = min_extent + r.gen_range(0..9usize);
        let shape = Im2colShape {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
            out_h: (height + 2 * padding - kernel) / stride + 1,
            out_w: (width + 2 * padding - kernel) / stride + 1,
        };
        prop_assert!(shape.validate().is_ok(), "drawn geometry must be valid: {shape:?}");
        let filters = r.gen_range(1..=8usize);
        let (n, k) = (shape.rows(), shape.cols());
        let input = rand_vec(channels * height * width, &mut r);
        let weights = rand_vec(filters * k, &mut r);
        let bias = rand_vec(filters, &mut r);
        let mut col = vec![0.0f32; n * k];
        im2col(&input, &shape, &mut col);
        let mut c_ref = vec![0.0f32; filters * n];
        let mut c_fast = vec![0.0f32; filters * n];
        let mut packs = PackScratch::new();
        gemm_nt(filters, n, k, &weights, &col, BiasMode::RowInit(&bias), &mut c_ref);
        gemm_nt_with(
            filters, n, k, &weights, &col,
            BiasMode::RowInit(&bias), &mut c_fast, Precision::Fast, &mut packs,
        );
        assert_close(filters, n, k, &weights, &col, &c_ref, &c_fast, "conv");
    }
}

// ---------------------------------------------------------------------------
// 3. The Fast tier's own golden snapshot.
// ---------------------------------------------------------------------------

/// Pinned FNV-1a hash of the Fast-tier dense GEMM output
/// (m=16, n=10, k=24, `RowInit` bias, seed 52).
const FAST_DENSE_GOLDEN: u64 = 0x90b2_2616_d518_7797;
/// Pinned FNV-1a hash of the Fast-tier C3F2-conv2 GEMM output
/// (8×9×9 input, 3×3 kernel, stride 2, padding 1, 16 filters, seed 53).
const FAST_CONV_GOLDEN: u64 = 0x06bf_0127_4dce_8192;

/// The Fast tier's GEMM outputs are pinned bit for bit — on *every*
/// backend, because the eight-lane accumulation spec makes AVX2, NEON and
/// the scalar fallback agree exactly.  The same assertions run against
/// the detected backend and the forced-scalar backend, which is precisely
/// what the CI tier-matrix proves across its two legs.
#[test]
fn fast_gemm_matches_fast_golden_snapshot() {
    // Dense: m=16, n=10, k=24 with a row bias.
    let mut r = rng(52);
    let (m, n, k) = (16usize, 10usize, 24usize);
    let a = rand_vec(m * k, &mut r);
    let b = rand_vec(n * k, &mut r);
    let bias = rand_vec(m, &mut r);
    // Conv: the C3F2 conv2 geometry (the acceptance benchmark's shape).
    let conv = Im2colShape {
        channels: 8,
        height: 9,
        width: 9,
        kernel: 3,
        stride: 2,
        padding: 1,
        out_h: 5,
        out_w: 5,
    };
    conv.validate().unwrap();
    let mut rc = rng(53);
    let (cm, cn, ck) = (16usize, conv.rows(), conv.cols());
    let input = rand_vec(conv.channels * conv.height * conv.width, &mut rc);
    let weights = rand_vec(cm * ck, &mut rc);
    let conv_bias = rand_vec(cm, &mut rc);
    let mut col = vec![0.0f32; cn * ck];
    im2col(&input, &conv, &mut col);

    let mut packs = PackScratch::new();
    for backend in [FastBackend::Avx2, FastBackend::Neon, FastBackend::Scalar] {
        let mut c = vec![0.0f32; m * n];
        gemm_nt_fast_with_backend(
            m,
            n,
            k,
            &a,
            &b,
            BiasMode::RowInit(&bias),
            &mut c,
            &mut packs,
            backend,
        );
        let dense_hash = fnv1a_bits(&c);
        let mut cc = vec![0.0f32; cm * cn];
        gemm_nt_fast_with_backend(
            cm,
            cn,
            ck,
            &weights,
            &col,
            BiasMode::RowInit(&conv_bias),
            &mut cc,
            &mut packs,
            backend,
        );
        let conv_hash = fnv1a_bits(&cc);
        eprintln!(
            "observed fast gemm hashes ({}): dense {dense_hash:#018x} conv {conv_hash:#018x}",
            backend.name()
        );
        assert_eq!(
            dense_hash,
            FAST_DENSE_GOLDEN,
            "Fast dense GEMM bits drifted on backend {}",
            backend.name()
        );
        assert_eq!(
            conv_hash,
            FAST_CONV_GOLDEN,
            "Fast conv GEMM bits drifted on backend {}",
            backend.name()
        );
    }
}
