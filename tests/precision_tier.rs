//! Integration pins of the explicit GEMM precision tier.
//!
//! The Fast tier (packed SIMD microkernels, see `berry_nn::gemm::fast`)
//! deliberately reassociates the contraction, so it cannot share the
//! Reference tier's golden bits.  What it *does* promise — and what this
//! file pins — is:
//!
//! 1. **Reference is untouched**: routing `Precision::Reference` through
//!    the tiered entry point is bitwise the plain [`gemm_nt`] kernel, so
//!    every pre-existing golden snapshot keeps its bits.
//! 2. **Fast is close**: Fast agrees with Reference within an explicit
//!    error bound derived from the term-magnitude sum, across randomized
//!    dense shapes and full conv geometries (odd extents, strides,
//!    paddings, every bias mode).
//! 3. **Fast is *itself* deterministic**: the eight-lane accumulation
//!    spec makes every backend (AVX2, NEON, scalar) agree bit for bit,
//!    so the Fast tier carries its *own* golden snapshot — GEMM outputs,
//!    whole-network inference and a full seeded fault evaluation — that
//!    must reproduce on any host and under `BERRY_GEMM_FORCE_SCALAR=1`
//!    (the CI tier-matrix leg).

use berry_core::evaluate::{evaluate_under_faults_seeded, FaultEvaluationConfig};
use berry_faults::chip::ChipProfile;
use berry_nn::gemm::{
    gemm_nt, gemm_nt_fast_with_backend, gemm_nt_with, im2col, BiasMode, FastBackend, Im2colShape,
    PackScratch, Precision,
};
use berry_nn::network::InferScratch;
use berry_nn::tensor::Tensor;
use berry_rl::Environment;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::world::ObstacleDensity;
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
/// `gemm_nt` kernel — the guarantee that every pre-existing golden
/// snapshot in this repo survives the tier introduction unchanged.
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

/// A default `InferScratch` runs the Reference tier, and saying so
/// explicitly changes nothing — network inference bits are governed only
/// by the tier, never by how the scratch was constructed.
#[test]
fn default_inference_is_reference_tier() {
    let (policy, env, _) = fixture();
    let obs = observation(&env);
    let mut default_scratch = InferScratch::new();
    let mut explicit_scratch = InferScratch::with_precision(Precision::Reference);
    let out_default = policy.infer_into(&obs, &mut default_scratch).clone();
    let out_explicit = policy.infer_into(&obs, &mut explicit_scratch).clone();
    assert_eq!(
        fnv1a_bits(out_default.data()),
        fnv1a_bits(out_explicit.data())
    );
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
    /// the patch matrix is built by `im2col`, and the filter GEMM runs at
    /// both tiers — the exact path `Conv2d` layers take at inference.
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

fn fixture() -> (berry_nn::network::Sequential, NavigationEnv, ChipProfile) {
    // Policy seed 33 — same fixture as `golden_snapshot.rs`, so the Fast
    // pins and the Reference pins describe the same network and maps.
    let mut r = rng(33);
    let env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Sparse)).unwrap();
    let policy = berry_rl::policy::QNetworkSpec::mlp(vec![24, 16])
        .build(&env.observation_shape(), env.num_actions(), &mut r)
        .unwrap();
    (policy, env, ChipProfile::generic())
}

fn observation(env: &NavigationEnv) -> Tensor {
    // A real reset observation (seed 7), stacked as a one-lane batch —
    // the exact tensor shape the evaluation hot path feeds the network.
    let mut env = env.clone();
    let mut r = rng(7);
    let obs = env.reset(&mut r);
    let len = obs.len();
    obs.reshape(&[1, len]).unwrap()
}

/// Pinned FNV-1a hash of the Fast-tier dense GEMM output
/// (m=16, n=10, k=24, `RowInit` bias, seed 52).
const FAST_DENSE_GOLDEN: u64 = 0x90b2_2616_d518_7797;
/// Pinned FNV-1a hash of the Fast-tier C3F2-conv2 GEMM output
/// (8×9×9 input, 3×3 kernel, stride 2, padding 1, 16 filters, seed 53).
const FAST_CONV_GOLDEN: u64 = 0x06bf_0127_4dce_8192;
/// Pinned FNV-1a hash of a Fast-tier whole-network inference output
/// (the seed-33 policy on the seed-7 observation).
const FAST_INFER_GOLDEN: u64 = 0x6a28_7ea0_ad95_8c08;

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

/// Whole-network inference at the Fast tier is pinned too: the tier flows
/// from `InferScratch` through every conv and dense layer, so this pin
/// breaks if any layer stops honoring the requested precision.
#[test]
fn fast_inference_matches_fast_golden_snapshot() {
    let (policy, env, _) = fixture();
    let obs = observation(&env);
    let mut scratch = InferScratch::with_precision(Precision::Fast);
    let out = policy.infer_into(&obs, &mut scratch);
    let hash = fnv1a_bits(out.data());
    eprintln!("observed fast inference hash: {hash:#018x}");
    assert_eq!(hash, FAST_INFER_GOLDEN, "Fast-tier inference bits drifted");
    // The tier must actually be live: Fast reassociates a k=162 dense
    // contraction, so its bits cannot coincide with Reference — if they
    // do, some layer stopped honoring the scratch's precision.
    let mut ref_scratch = InferScratch::new();
    let ref_hash = fnv1a_bits(policy.infer_into(&obs, &mut ref_scratch).data());
    assert_ne!(
        hash, ref_hash,
        "Fast-tier inference returned Reference bits — the precision knob is not reaching the GEMM"
    );
}

/// Bit patterns of the Fast-tier golden evaluation, in `EvalStats` field
/// order — same fixture, seed and BER as the Reference pins in
/// `golden_snapshot.rs`, with `precision: Fast`.
///
/// These happen to coincide with the Reference pins: evaluation statistics
/// are aggregates of argmax *action* trajectories, and on this small
/// fixture the ULP-level Q-value shifts the Fast tier introduces never
/// flip a greedy choice.  That coincidence is a measurement, not a law —
/// the tier is proven live by `fast_inference_matches_fast_golden_snapshot`
/// (whose raw network bits must *differ* from Reference), and a drifted
/// Fast kernel would still land here the moment it perturbs any action.
const FAST_EVAL_GOLDEN_BITS: [u64; 7] = [
    0x3fd9_9999_9999_999a, // success_rate (0.4)
    0x3fe0_0000_0000_0000, // collision_rate (0.5)
    0x3fb9_9999_9999_999a, // timeout_rate (0.1)
    0x401d_46e3_4a19_999a, // mean_return
    0x4028_6666_6666_6666, // mean_steps
    0x4028_132e_7b7a_d7ce, // mean_distance
    0x402f_b522_2e0f_6f8e, // mean_success_distance
];

/// A full seeded fault evaluation at the Fast tier lands on its own
/// golden bits, and — like the Reference protocol — is lane-count
/// invariant: the precision tier changes which GEMM kernel runs, never
/// how episodes are seeded or scheduled.
#[test]
fn fast_evaluation_matches_fast_golden_snapshot() {
    let (policy, env, chip) = fixture();
    let cfg = FaultEvaluationConfig {
        fault_maps: 5,
        episodes_per_map: 2,
        max_steps: 20,
        quant_bits: 8,
        lanes: 2,
        precision: Precision::Fast,
    };
    let base_seed: u64 = 0x60_1D_5E_ED;
    let ber = 0.01;
    let stats = evaluate_under_faults_seeded(&policy, &env, &chip, ber, &cfg, base_seed).unwrap();
    let wide = FaultEvaluationConfig { lanes: 16, ..cfg };
    let stats_wide =
        evaluate_under_faults_seeded(&policy, &env, &chip, ber, &wide, base_seed).unwrap();
    let observed = [
        stats.success_rate.to_bits(),
        stats.collision_rate.to_bits(),
        stats.timeout_rate.to_bits(),
        stats.mean_return.to_bits(),
        stats.mean_steps.to_bits(),
        stats.mean_distance.to_bits(),
        stats.mean_success_distance.to_bits(),
    ];
    eprintln!(
        "observed fast eval: [{:#x}, {:#x}, {:#x}, {:#x}, {:#x}, {:#x}, {:#x}] episodes={} \
         success={} return={}",
        observed[0],
        observed[1],
        observed[2],
        observed[3],
        observed[4],
        observed[5],
        observed[6],
        stats.episodes,
        stats.success_rate,
        stats.mean_return,
    );
    assert_eq!(stats.episodes, 10);
    assert_eq!(
        observed, FAST_EVAL_GOLDEN_BITS,
        "Fast-tier evaluation drifted from its golden bits"
    );
    let wide_bits = [
        stats_wide.success_rate.to_bits(),
        stats_wide.collision_rate.to_bits(),
        stats_wide.timeout_rate.to_bits(),
        stats_wide.mean_return.to_bits(),
        stats_wide.mean_steps.to_bits(),
        stats_wide.mean_distance.to_bits(),
        stats_wide.mean_success_distance.to_bits(),
    ];
    assert_eq!(
        wide_bits, observed,
        "Fast-tier evaluation is not lane-count invariant"
    );
}
