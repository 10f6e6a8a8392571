//! Criterion micro-benchmarks of the kernels behind every table and figure.
//!
//! The full tables are regenerated by the `berry-bench` binaries (they
//! involve minutes of DQN training); these benches time the inner kernels
//! each artefact rests on, so `cargo bench` stays fast while still covering
//! every experiment's critical path:
//!
//! * `fig2/*` — voltage→BER curve and SRAM energy model,
//! * `fig6/*` — the cyber-physical voltage→velocity chain,
//! * `table1_fig3/*` — quantized perturbation + policy inference (the
//!   fault-averaged evaluation kernel),
//! * `table2/*` — accelerator processing report and mission QoF arithmetic,
//! * `fig5_fig7/*` — navigation environment stepping and perception,
//! * `table3/*` — fault-map generation for both chip profiles,
//! * `table4_ablation/*` — one BERRY dual-pass training update.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use berry_core::evaluate::{
    evaluate_under_faults_seeded, evaluate_under_faults_serial, fault_map_seed,
    FaultEvaluationConfig, MissionContext,
};
use berry_core::perturb::NetworkPerturber;
use berry_core::robust::berry_update_step;
use berry_faults::ber::VoltageBerModel;
use berry_faults::chip::ChipProfile;
use berry_hw::accelerator::Accelerator;
use berry_hw::workload::NetworkWorkload;
use berry_nn::gemm::GemmScratch;
use berry_nn::layer::{Conv2d, Dense, Layer};
use berry_nn::network::InferScratch;
use berry_nn::tensor::Tensor;
use berry_rl::dqn::{DqnAgent, DqnConfig};
use berry_rl::env::{Environment, Transition};
use berry_rl::policy::QNetworkSpec;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::flight::FlightEnergyModel;
use berry_uav::physics::{FlightPhysics, PhysicsConfig};
use berry_uav::platform::UavPlatform;
use berry_uav::world::ObstacleDensity;

fn bench_fig2(c: &mut Criterion) {
    let model = VoltageBerModel::from_table2();
    let accel = Accelerator::default_edge_accelerator();
    let mut group = c.benchmark_group("fig2");
    group.bench_function("voltage_to_ber_curve", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut v = 0.62;
            while v < 1.0 {
                acc += model.ber_percent(black_box(v)).unwrap();
                v += 0.005;
            }
            acc
        })
    });
    group.bench_function("sram_energy_curve", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut v = 0.62;
            while v < 1.4 {
                acc += accel.sram().energy_per_access_j(black_box(v)).unwrap();
                v += 0.005;
            }
            acc
        })
    });
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let physics = FlightPhysics::new(UavPlatform::crazyflie(), PhysicsConfig::default()).unwrap();
    let flight = FlightEnergyModel::new(UavPlatform::crazyflie());
    let mut group = c.benchmark_group("fig6");
    group.bench_function("cyber_physical_chain", |b| {
        b.iter(|| {
            let condition = physics.condition(black_box(2.5)).unwrap();
            flight
                .quality_of_flight(&condition, 0.88, 14.9, 0.3)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_table1_fig3(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let policy = QNetworkSpec::C3F2.build(&[2, 9, 9], 25, &mut rng).unwrap();
    let perturber = NetworkPerturber::new(8).unwrap();
    let chip = ChipProfile::generic();
    let obs = Tensor::zeros(&[1, 2, 9, 9]);
    let mut group = c.benchmark_group("table1_fig3");
    group.bench_function("perturb_c3f2_at_p0.5pct", |b| {
        b.iter(|| {
            perturber
                .perturb_random(black_box(&policy), &chip, 0.005, &mut rng)
                .unwrap()
        })
    });
    // Per-map cost of the two perturbation pipelines on a pre-sampled map:
    // one-shot re-quantization vs quantize-once byte copy + dequantize.
    let map = perturber
        .sample_fault_map(&policy, &chip, 0.005, &mut rng)
        .unwrap();
    group.bench_function("perturb_with_map_requantize", |b| {
        b.iter(|| perturber.perturb_with_map(black_box(&policy), &map).unwrap())
    });
    group.bench_function("perturb_context_quantize_once", |b| {
        let context = perturber.context(&policy).unwrap();
        let mut scratch = context.checkout();
        b.iter(|| {
            context
                .perturb_map_into(black_box(&map), &mut scratch)
                .unwrap()
        })
    });
    group.bench_function("c3f2_inference", |b| {
        let mut net = policy.clone();
        b.iter(|| net.forward(black_box(&obs)))
    });
    group.bench_function("c3f2_infer_immutable", |b| {
        let mut scratch = InferScratch::new();
        b.iter(|| policy.infer_into(black_box(&obs), &mut scratch).argmax())
    });
    group.finish();
}

/// The inner loop of every table/figure harness: `evaluate_under_faults`
/// on the C3F2 policy at 100 fault maps.  `quantize_once_*` is the shipped
/// pipeline; `legacy_requantize_per_map` re-creates the pre-quantize-once
/// hot path (full re-quantization + owned network per map, caching
/// `forward` rollouts) so the speedup is measurable in one run.
fn bench_evaluate_under_faults(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Sparse)).unwrap();
    let policy = QNetworkSpec::C3F2
        .build(&env.observation_shape(), env.num_actions(), &mut rng)
        .unwrap();
    let chip = ChipProfile::generic();
    let cfg = FaultEvaluationConfig {
        fault_maps: 100,
        episodes_per_map: 1,
        max_steps: 10,
        quant_bits: 8,
        lanes: 8,
    };
    const BASE_SEED: u64 = 0xBE11C4;
    const BER: f64 = 0.005;

    let mut group = c.benchmark_group("evaluate");
    group.bench_function("legacy_requantize_per_map_c3f2_100maps", |b| {
        let perturber = NetworkPerturber::new(cfg.quant_bits).unwrap();
        let obs_shape = env.observation_shape();
        let mut batched_shape = vec![1usize];
        batched_shape.extend_from_slice(&obs_shape);
        b.iter(|| {
            let mut total_steps = 0usize;
            for map_index in 0..cfg.fault_maps {
                let mut map_rng =
                    StdRng::seed_from_u64(fault_map_seed(BASE_SEED, map_index as u64));
                let mut map_env = env.clone();
                let map = perturber
                    .sample_fault_map(&policy, &chip, BER, &mut map_rng)
                    .unwrap();
                let mut perturbed = perturber.perturb_with_map(&policy, &map).unwrap();
                for _ in 0..cfg.episodes_per_map {
                    let mut obs = map_env.reset(&mut map_rng);
                    for _ in 0..cfg.max_steps {
                        let batched = obs.reshape(&batched_shape).unwrap();
                        let q = perturbed.forward(&batched);
                        let action = q.argmax().unwrap();
                        let outcome = map_env.step(action, &mut map_rng);
                        total_steps += 1;
                        obs = outcome.observation;
                        if outcome.terminal.is_some() {
                            break;
                        }
                    }
                }
            }
            total_steps
        })
    });
    group.bench_function("quantize_once_c3f2_100maps_serial", |b| {
        b.iter(|| {
            evaluate_under_faults_serial(
                black_box(&policy),
                &env,
                &chip,
                BER,
                &cfg,
                BASE_SEED,
            )
            .unwrap()
        })
    });
    group.bench_function("quantize_once_c3f2_100maps_parallel", |b| {
        b.iter(|| {
            evaluate_under_faults_seeded(
                black_box(&policy),
                &env,
                &chip,
                BER,
                &cfg,
                BASE_SEED,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// GEMM inference kernels at the paper's policy shapes: the widest
/// convolution of each policy (C3F2's 8→16 stride-2 layer on 9×9 patches,
/// C5F4's 24→24 layer on 5×5 maps) and each policy's first dense layer,
/// at batch 1 (single-lane rollout) and batch 8 (lockstep lanes).
fn bench_gemm_core(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("gemm");
    let conv_shapes: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
        // (label, in_c, out_c, kernel, stride, padding, spatial)
        ("c3f2_conv2_8to16_s2", 8, 16, 3, 2, 1, 9),
        ("c5f4_conv5_24to24", 24, 24, 3, 1, 1, 5),
    ];
    for &(label, ic, oc, k, s, p, hw) in conv_shapes {
        let conv = Conv2d::new(ic, oc, k, s, p, &mut rng);
        for batch in [1usize, 8] {
            let x = Tensor::rand_uniform(&[batch, ic, hw, hw], -1.0, 1.0, &mut rng);
            let mut out = Tensor::default();
            let mut gemm = GemmScratch::new();
            group.bench_function(&format!("{label}_b{batch}_gemm"), |b| {
                b.iter(|| conv.infer_with(black_box(&x), &mut out, &mut gemm))
            });
        }
    }
    let dense_shapes: &[(&str, usize, usize)] = &[
        ("c3f2_fc1_400to64", 16 * 5 * 5, 64),
        ("c5f4_fc1_600to128", 24 * 5 * 5, 128),
    ];
    for &(label, in_f, out_f) in dense_shapes {
        let dense = Dense::new(in_f, out_f, &mut rng);
        for batch in [1usize, 8] {
            let x = Tensor::rand_uniform(&[batch, in_f], -1.0, 1.0, &mut rng);
            let mut out = Tensor::default();
            let mut gemm = GemmScratch::new();
            group.bench_function(&format!("{label}_b{batch}_gemm"), |b| {
                b.iter(|| dense.infer_with(black_box(&x), &mut out, &mut gemm))
            });
        }
    }
    group.finish();
}

/// Rollout throughput (env-steps/sec) of the lockstep engine in isolation
/// (one perturbed C3F2 policy, no rayon): 32 greedy episodes at 1 lane
/// (serial lockstep) vs 8 and 16 lanes (one stacked forward pass per
/// timestep for all concurrent episodes).  The statistics are bitwise
/// identical across the variants; only the wall clock moves.
fn bench_rollout_throughput(c: &mut Criterion) {
    use berry_rl::eval::evaluate_policy_batched;

    let mut rng = StdRng::seed_from_u64(13);
    let env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Sparse)).unwrap();
    let policy = QNetworkSpec::C3F2
        .build(&env.observation_shape(), env.num_actions(), &mut rng)
        .unwrap();
    let chip = ChipProfile::generic();
    let perturber = NetworkPerturber::new(8).unwrap();
    let perturbed = perturber
        .perturb_random(&policy, &chip, 0.005, &mut rng)
        .unwrap();
    let mut group = c.benchmark_group("rollout");
    for lanes in [1usize, 8, 16] {
        let mut scratch = InferScratch::new();
        group.bench_function(&format!("c3f2_32ep_lanes{lanes}"), |b| {
            b.iter(|| {
                evaluate_policy_batched(
                    black_box(&perturbed),
                    &env,
                    32,
                    12,
                    lanes,
                    0xBE11C4,
                    &mut scratch,
                )
            })
        });
    }
    group.finish();
}

fn bench_table2(c: &mut Criterion) {
    let accel = Accelerator::default_edge_accelerator();
    let c3f2 = NetworkWorkload::c3f2();
    let context = MissionContext::crazyflie_c3f2();
    let mut group = c.benchmark_group("table2");
    group.bench_function("accelerator_report", |b| {
        b.iter(|| accel.evaluate(black_box(&c3f2), black_box(0.77)).unwrap())
    });
    group.bench_function("voltage_grid_reports", |b| {
        b.iter(|| {
            let voltages: Vec<f64> = (0..14).map(|i| 0.64 + i as f64 * 0.05).collect();
            accel.sweep(&c3f2, &voltages).unwrap()
        })
    });
    group.bench_function("policy_mac_ratio", |b| b.iter(|| context.policy_mac_ratio()));
    group.finish();
}

fn bench_fig5_fig7(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Dense)).unwrap();
    let mut group = c.benchmark_group("fig5_fig7");
    group.bench_function("navigation_episode_random_policy", |b| {
        b.iter(|| {
            let mut obs = env.reset(&mut rng);
            let mut total = 0.0f32;
            for step in 0..30 {
                let action = (step * 7) % 25;
                let outcome = env.step(action, &mut rng);
                total += outcome.reward;
                obs = outcome.observation;
                if outcome.terminal.is_some() {
                    break;
                }
            }
            black_box(obs);
            total
        })
    });
    group.finish();
}

fn bench_table3(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let bits = 8 * 250_000;
    let mut group = c.benchmark_group("table3");
    group.bench_function("fault_map_random_chip", |b| {
        let chip = ChipProfile::chip1_random();
        b.iter(|| chip.fault_map_at_ber(&mut rng, bits, 0.0016).unwrap())
    });
    group.bench_function("fault_map_column_aligned_chip", |b| {
        let chip = ChipProfile::chip2_column_aligned();
        b.iter(|| chip.fault_map_at_ber(&mut rng, bits, 0.0032).unwrap())
    });
    group.finish();
}

fn bench_table4_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut agent = DqnAgent::new(
        &QNetworkSpec::mlp(vec![64, 64]),
        &[50],
        25,
        DqnConfig::default(),
        &mut rng,
    )
    .unwrap();
    let perturber = NetworkPerturber::new(8).unwrap();
    let chip = ChipProfile::generic();
    let batch: Vec<Transition> = (0..32)
        .map(|i| Transition {
            state: Tensor::rand_uniform(&[50], -1.0, 1.0, &mut rng),
            action: i % 25,
            reward: (i % 3) as f32 - 1.0,
            next_state: Tensor::rand_uniform(&[50], -1.0, 1.0, &mut rng),
            done: i % 8 == 0,
        })
        .collect();
    let mut group = c.benchmark_group("table4_ablation");
    group.bench_function("berry_dual_pass_update", |b| {
        b.iter(|| {
            let map = perturber
                .sample_fault_map(agent.q_net(), &chip, 0.005, &mut rng)
                .unwrap();
            berry_update_step(&mut agent, black_box(&batch), &perturber, &map).unwrap()
        })
    });
    group.bench_function("classical_update", |b| {
        b.iter(|| agent.train_on_batch(black_box(&batch)).unwrap())
    });
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_fig2, bench_fig6, bench_table1_fig3, bench_evaluate_under_faults, bench_gemm_core, bench_rollout_throughput, bench_table2, bench_fig5_fig7, bench_table3, bench_table4_ablation
}
criterion_main!(benches);
