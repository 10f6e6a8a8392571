//! Property tests pinning the batched lockstep rollout seams.
//!
//! The hot path was restructured around two new seams that later scaling
//! work (sharding, async sweeps, multi-backend kernels) will optimize
//! through, so both get property-level guarantees:
//!
//! 1. **lane-count invariance** — `evaluate_policy_batched` is bitwise
//!    identical to the serial per-episode-seeded reference for lane counts
//!    {1, 3, 8}, over random policies, seeds and episode budgets;
//! 2. **GEMM-vs-scalar-reference equality** — the im2col/GEMM inference
//!    kernels produce bitwise-identical outputs to a scalar reference (the
//!    direct six-loop convolution; `Tensor::matmul` then the bias) across
//!    odd shapes, strides and paddings.

use berry_nn::gemm::GemmScratch;
use berry_nn::layer::{Conv2d, Dense, Layer};
use berry_nn::network::InferScratch;
use berry_nn::tensor::Tensor;
use berry_rl::eval::{evaluate_policy_batched, evaluate_policy_seeded_serial, EvalStats};
use berry_rl::policy::QNetworkSpec;
use berry_rl::Environment;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::world::{ObstacleDensity, WorldVariant};
use proptest::prelude::*;
use rand::SeedableRng;

/// The direct six-loop convolution: each output starts from its bias and
/// adds its in-bounds taps in `(ic, kh, kw)` order.
fn direct_conv(conv: &Conv2d, input: &Tensor) -> Tensor {
    let (weight, bias) = (conv.params()[0].data(), conv.params()[1].data());
    let s = input.shape();
    let (batch, c, h, w) = (s[0], s[1], s[2], s[3]);
    let (k, stride, pad) = (conv.kernel(), conv.stride(), conv.padding());
    let (oh, ow) = (conv.output_size(h), conv.output_size(w));
    let oc_n = conv.out_channels();
    let mut out = Tensor::zeros(&[batch, oc_n, oh, ow]);
    let (x, o) = (input.data(), out.data_mut());
    for n in 0..batch {
        for oc in 0..oc_n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..c {
                        for kh in 0..k {
                            let iy = (oy * stride + kh) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kw in 0..k {
                                let ix = (ox * stride + kw) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += x[((n * c + ic) * h + iy as usize) * w + ix as usize]
                                    * weight[((oc * c + ic) * k + kh) * k + kw];
                            }
                        }
                    }
                    o[((n * oc_n + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// `Tensor::matmul` against the transposed weight (k ascending, zero
/// activations skipped), then the bias added last.
fn matmul_dense(dense: &Dense, input: &Tensor) -> Tensor {
    let mut out = input.matmul(&dense.weight().transpose().unwrap()).unwrap();
    for n in 0..input.shape()[0] {
        for o in 0..dense.out_features() {
            *out.at2_mut(n, o) += dense.bias().data()[o];
        }
    }
    out
}

fn assert_stats_bitwise(a: &EvalStats, b: &EvalStats, label: &str) {
    assert_eq!(a.episodes, b.episodes, "{label}: episodes");
    for (name, x, y) in [
        ("success_rate", a.success_rate, b.success_rate),
        ("collision_rate", a.collision_rate, b.collision_rate),
        ("timeout_rate", a.timeout_rate, b.timeout_rate),
        ("mean_return", a.mean_return, b.mean_return),
        ("mean_steps", a.mean_steps, b.mean_steps),
        ("mean_distance", a.mean_distance, b.mean_distance),
        (
            "mean_success_distance",
            a.mean_success_distance,
            b.mean_success_distance,
        ),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: {name} differs ({x} vs {y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: for any random policy, seed and episode budget, the
    /// lockstep engine at lane counts {1, 3, 8} reproduces the serial
    /// per-episode-seeded reference bit for bit on the real navigation
    /// environment.
    #[test]
    fn prop_batched_rollout_equals_serial_reference_for_lanes_1_3_8(
        policy_seed in 0u64..1000,
        map_seed in 0u64..u64::MAX,
        episodes in 1usize..10,
        hidden in 8usize..24,
    ) {
        let env = NavigationEnv::new(NavigationConfig::with_density(
            ObstacleDensity::Sparse,
        ))
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(policy_seed);
        let policy = QNetworkSpec::mlp(vec![hidden])
            .build(&env.observation_shape(), env.num_actions(), &mut rng)
            .unwrap();
        let mut scratch = InferScratch::new();
        let serial = evaluate_policy_seeded_serial(
            &policy, &env, episodes, 15, map_seed, &mut scratch,
        );
        prop_assert_eq!(serial.episodes, episodes);
        for lanes in [1usize, 3, 8] {
            let batched = evaluate_policy_batched(
                &policy, &env, episodes, 15, lanes, map_seed, &mut scratch,
            );
            assert_stats_bitwise(&serial, &batched, &format!("{lanes} lanes"));
        }
    }

    /// Property 1b: the disturbance variants keep both rollout-engine
    /// guarantees the campaign engine builds on.  On wind-gust **and**
    /// sensor-dropout environments (whose gusts and dropout masks draw
    /// extra randomness from the episode streams), the same seed replays
    /// the identical episode traces bit for bit, and the lockstep engine
    /// at lane counts {1, 3, 8} still reproduces the serial reference.
    #[test]
    fn prop_world_variants_keep_seed_determinism_and_lane_invariance(
        policy_seed in 0u64..1000,
        map_seed in 0u64..u64::MAX,
        episodes in 1usize..8,
        hidden in 8usize..20,
        variant_index in 0usize..2,
    ) {
        let variant = [
            WorldVariant::wind_gust_default(),
            WorldVariant::sensor_dropout_default(),
        ][variant_index];
        let env = NavigationEnv::new(NavigationConfig {
            variant,
            ..NavigationConfig::with_density(ObstacleDensity::Sparse)
        })
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(policy_seed);
        let policy = QNetworkSpec::mlp(vec![hidden])
            .build(&env.observation_shape(), env.num_actions(), &mut rng)
            .unwrap();
        let mut scratch = InferScratch::new();
        let serial = evaluate_policy_seeded_serial(
            &policy, &env, episodes, 12, map_seed, &mut scratch,
        );
        prop_assert_eq!(serial.episodes, episodes);
        // Same seed ⇒ identical traces (aggregates are bitwise equal).
        let replay = evaluate_policy_seeded_serial(
            &policy, &env, episodes, 12, map_seed, &mut scratch,
        );
        assert_stats_bitwise(&serial, &replay, &format!("{} replay", variant.label()));
        // Lane-count invariance holds under disturbance randomness too.
        for lanes in [1usize, 3, 8] {
            let batched = evaluate_policy_batched(
                &policy, &env, episodes, 12, lanes, map_seed, &mut scratch,
            );
            assert_stats_bitwise(
                &serial,
                &batched,
                &format!("{} {lanes} lanes", variant.label()),
            );
        }
    }

    /// Property 2a: the convolution GEMM path is bitwise identical to the
    /// scalar reference across random odd geometries.
    #[test]
    fn prop_conv_gemm_matches_scalar_reference(
        seed in 0u64..500,
        in_c in 1usize..4,
        out_c in 1usize..6,
        kernel in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..3,
        extra in 0usize..6,
        batch in 1usize..5,
    ) {
        // Keep the input at least as large as the unpadded kernel so the
        // output is non-empty.
        let h = kernel + extra;
        let w = kernel + (extra % 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(in_c, out_c, kernel, stride, padding, &mut rng);
        let bias = Tensor::rand_uniform(&[out_c], -0.5, 0.5, &mut rng);
        conv.params_mut()[1].data_mut().copy_from_slice(bias.data());
        let x = Tensor::rand_uniform(&[batch, in_c, h, w], -1.0, 1.0, &mut rng);
        let scalar = direct_conv(&conv, &x);
        let mut gemmed = Tensor::default();
        let mut gemm = GemmScratch::new();
        conv.infer_with(&x, &mut gemmed, &mut gemm);
        prop_assert_eq!(gemmed.shape(), scalar.shape());
        for (i, (g, s)) in gemmed.data().iter().zip(scalar.data()).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                s.to_bits(),
                "conv ({},{},{},{},{})@{}x{}x{} element {}: {} vs {}",
                in_c, out_c, kernel, stride, padding, batch, h, w, i, g, s
            );
        }
    }

    /// Property 2b: the dense GEMM path is bitwise identical to the scalar
    /// reference, including inputs with exact (and negative) zeros that the
    /// reference's zero-skip elides.
    #[test]
    fn prop_dense_gemm_matches_scalar_reference(
        seed in 0u64..500,
        in_f in 1usize..96,
        out_f in 1usize..48,
        batch in 1usize..10,
        zero_stride in 1usize..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dense = Dense::new(in_f, out_f, &mut rng);
        let mut x = Tensor::rand_uniform(&[batch, in_f], -1.0, 1.0, &mut rng);
        for i in (0..x.len()).step_by(zero_stride) {
            x.data_mut()[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let scalar = matmul_dense(&dense, &x);
        let mut gemmed = Tensor::default();
        let mut gemm = GemmScratch::new();
        dense.infer_with(&x, &mut gemmed, &mut gemm);
        prop_assert_eq!(gemmed.shape(), scalar.shape());
        for (i, (g, s)) in gemmed.data().iter().zip(scalar.data()).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                s.to_bits(),
                "dense ({},{})@{} element {}: {} vs {}",
                in_f, out_f, batch, i, g, s
            );
        }
    }
}
