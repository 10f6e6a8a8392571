//! Machine-readable performance report of the evaluation hot path.
//!
//! Writes `BENCH_PR{N}.json` — `N` is [`PR`], the one constant every
//! label in this report derives from; path overridable via
//! `BERRY_BENCH_OUT` — with the throughput figures the perf trajectory is
//! tracked by:
//!
//! * **rollout throughput** — env-steps/sec of the batched lockstep engine
//!   at 1 / 8 / 16 lanes on a perturbed C3F2 policy, plus the legacy PR 2
//!   derivation (re-quantize per map, shared-RNG batch-1 `forward`
//!   rollouts) as the baseline the speedup is measured against;
//! * **per-map latency** — wall-clock per fault map of the full
//!   `evaluate_under_faults` protocol (C3F2, 100 maps, serial-over-maps so
//!   the number is core-count independent);
//! * **GEMM GFLOP/s** — the inference core's arithmetic throughput on the
//!   paper's policy shapes at batch 8: the C3F2 conv2 and C5F4 fc1 layers'
//!   `infer_lanes`, the pass a batch-8 rollout runs (`_lanes_b8_reference`
//!   keys; BENCH_PR19.json's `_b8_reference` keys timed the batch-outer
//!   `infer_with`, which no rollout runs), and the conv2 product alone
//!   through `gemm_nt_with` on the Reference kernel and on the packed
//!   Fast kernel (`_fast` keys, with the Fast-over-Reference speedup) —
//!   the only place the Fast kernel still runs, since no layer calls it;
//! * **training** — `Sequential::forward` / `backward` at the training
//!   batch (32) for C3F2 and C5F4, and one C3F2 Classical update
//!   (`DqnAgent::train_on_batch`) and one BERRY dual-pass update
//!   (`berry_update_step_with_scratch`) on an ε = 1 Quick replay — the
//!   calls that make up nearly all of a Quick campaign's wall-clock;
//! * **pair update** — where one C3F2 pair update (a Classical and a
//!   BERRY update, batch 32) spends its time, every figure timed around
//!   public calls: each layer's batch-lane forward and backward, the
//!   network-edge transposes, `PerturbContext::refresh`,
//!   `sample_fault_map`, `perturb_map_into`, one `Adam::step` (fresh, and
//!   once first moments have gone subnormal), and the pair update timed
//!   in alternation with its GEMM products on dense operands, which
//!   leaves an estimate of its non-GEMM time (the products mirror the
//!   layers' split by hand and read dense operands, not the offset-table
//!   ones the real products read); the products are also timed per layer
//!   and pass, on the lanes kernel's detected body and (`_avx2` keys) on
//!   its 256-bit AVX2 body, so one report shows both widths on one host;
//! * **Reference kernels** — GFLOP/s of the Reference tier's two GEMM
//!   kernels on the per-sample conv2/conv3 shapes of C3F2 (what batch-1
//!   inference runs): the scalar register tile (`gemm_nt`) and the
//!   lanes-across-outputs kernel (`gemm_kn`) on the body it runs here
//!   (`backend`: `avx512`, `avx2` or `portable`), on its AVX2 body and on
//!   its portable fallback (same products, same bits); the C3F2
//!   convolutions' batch-lane routines — forward, dW and dX at batch 32,
//!   inference at batch 2, 8, 16 and 32, operands copied outside the timer
//!   (`_lanes_` keys; BENCH_PR15.json's `_b32_forward_us`-style keys
//!   timed the batch-outer calls with their edge transposes inside) —
//!   the bordered-copy fill `infer_lanes` runs before its products at
//!   batch 8 and 32 (`_fill_` keys), and their per-sample `infer_with` at
//!   batch 8, in µs; and C3F2
//!   `infer_into` at batch 1, 2, 4 and 8;
//! * **scheduler comparison** — wall-clock and worker-idle tail of the
//!   smoke campaign grid under a deliberately skewed per-cell cost, run
//!   once under the legacy contiguous partition and once under the
//!   chunked work-stealing scheduler (both against a warm policy store,
//!   so the difference is pure scheduling).  Both runs are asserted
//!   bitwise-identical to the serial reference before timing is reported.
//!
//! CI runs this binary on every push and uploads the JSON as an artifact,
//! so regressions show up as a diffable number, not a feeling.

use berry_bench::{print_header, rng_from_env, seed_from_env};
use berry_core::campaign::{run_grid_resumable_in, run_grid_serial_in, CompletedSet};
use berry_core::evaluate::{
    evaluate_under_faults_serial, fault_map_seed, FaultEvaluationConfig,
};
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::{NetworkPerturber, PerturbContext};
use berry_core::robust::{berry_update_step_with_scratch, DualPassScratch};
use berry_core::{CampaignRow, PolicyStore, Scenario};
use berry_faults::chip::ChipProfile;
use berry_nn::gemm::{
    gemm_flops, gemm_kn, gemm_kn_with_backend, gemm_nt, gemm_nt_with, im2col, lanes_kernel_body,
    BiasMode, FastBackend, GemmScratch, Im2colShape, PackScratch, Precision, StridedA,
};
use berry_nn::layer::{from_batch_lanes, to_batch_lanes, Conv2d, Dense, Flatten, Layer, Relu};
use berry_nn::optim::{Adam, Optimizer};
use berry_nn::network::{InferScratch, Sequential};
use berry_nn::tensor::Tensor;
use berry_rl::dqn::DqnAgent;
use berry_rl::env::Transition;
use berry_rl::eval::evaluate_policy_batched;
use berry_rl::policy::QNetworkSpec;
use berry_rl::replay::ReplayBuffer;
use berry_rl::Environment;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// The PR this report describes.  Every label that names the PR — the
/// report header, the `"pr"` JSON field and the default output filename —
/// derives from this one constant, so bumping the report is a one-line
/// change.
const PR: u32 = 20;

const BER: f64 = 0.005;
const ROLLOUT_EPISODES: usize = 64;
const ROLLOUT_MAX_STEPS: usize = 12;

/// Base seed of the scheduler-comparison campaign (any value works; fixed
/// so the two modes and the serial reference share one policy cache).
const SCHED_SEED: u64 = 0x5CED_0006;
/// Injected per-cell skew (ms of sleep before each grid cell): the first
/// cells are deliberately expensive so a contiguous partition strands one
/// worker behind them while its peers idle.
const SKEW_MS: [u64; 4] = [320, 160, 0, 0];
/// Worker count of the scheduler comparison (explicit, so the numbers do
/// not depend on the host's core count).
const SCHED_WORKERS: usize = 3;

/// Seed of the training section's networks, replay and fault maps (fixed,
/// so the section measures the same work in every report).
const TRAIN_SEED: u64 = 0x7EA1_0013;
/// Timed repetitions per training figure (the median is reported).
const TRAIN_REPS: usize = 15;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let default_out = format!("BENCH_PR{PR}.json");
    print_header(&format!("{default_out} perf report"), ExperimentScale::Quick);
    let mut rng = rng_from_env();
    let env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Sparse))?;
    let policy = QNetworkSpec::C3F2.build(&env.observation_shape(), env.num_actions(), &mut rng)?;
    let chip = ChipProfile::generic();
    let perturber = NetworkPerturber::new(8)?;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"pr\": {PR},");
    let _ = writeln!(json, "  \"seed\": {},", seed_from_env());
    let _ = writeln!(json, "  \"ber\": {BER},");

    // --- Rollout throughput: lockstep lanes vs the legacy derivation. ---
    let perturbed = perturber.perturb_random(&policy, &chip, BER, &mut rng)?;
    let mut scratch = InferScratch::new();
    let _ = writeln!(json, "  \"rollout\": {{");
    let _ = writeln!(json, "    \"episodes\": {ROLLOUT_EPISODES},");
    let _ = writeln!(json, "    \"max_steps\": {ROLLOUT_MAX_STEPS},");
    let mut lane_rates: Vec<(usize, f64)> = Vec::new();
    for lanes in [1usize, 8, 16] {
        // Warm-up pass, then the timed passes.
        let warm = evaluate_policy_batched(
            &perturbed,
            &env,
            ROLLOUT_EPISODES,
            ROLLOUT_MAX_STEPS,
            lanes,
            0xBE11C4,
            &mut scratch,
        );
        let start = Instant::now();
        let reps = 5;
        let mut steps = 0.0f64;
        for _ in 0..reps {
            let stats = evaluate_policy_batched(
                &perturbed,
                &env,
                ROLLOUT_EPISODES,
                ROLLOUT_MAX_STEPS,
                lanes,
                0xBE11C4,
                &mut scratch,
            );
            steps += stats.mean_steps * stats.episodes as f64;
            assert_eq!(stats.mean_return.to_bits(), warm.mean_return.to_bits());
        }
        let rate = steps / start.elapsed().as_secs_f64();
        lane_rates.push((lanes, rate));
        println!("rollout  lanes={lanes:<2}  {:>10.0} env-steps/sec", rate);
        let _ = writeln!(json, "    \"engine_steps_per_sec_lanes{lanes}\": {rate:.1},");
    }
    // Legacy PR 2 derivation: re-quantize per map, shared-RNG batch-1
    // `forward` rollouts — the baseline the acceptance speedup is against.
    let legacy_rate = {
        let maps = ROLLOUT_EPISODES / 2;
        let warmup_and_timed = |count: usize| -> (f64, f64) {
            let start = Instant::now();
            let mut steps = 0usize;
            let mut batched_shape = vec![1usize];
            batched_shape.extend_from_slice(&env.observation_shape());
            for map_index in 0..count {
                let mut map_rng =
                    StdRng::seed_from_u64(fault_map_seed(0xBE11C4, map_index as u64));
                let mut map_env = env.clone();
                let map = perturber
                    .sample_fault_map(&policy, &chip, BER, &mut map_rng)
                    .unwrap();
                let mut net = perturber.perturb_with_map(&policy, &map).unwrap();
                for _ in 0..2 {
                    let mut obs = map_env.reset(&mut map_rng);
                    for _ in 0..ROLLOUT_MAX_STEPS {
                        let batched = obs.reshape(&batched_shape).unwrap();
                        let q = net.forward(&batched);
                        let action = q.argmax().unwrap();
                        let outcome = map_env.step(action, &mut map_rng);
                        steps += 1;
                        obs = outcome.observation;
                        if outcome.terminal.is_some() {
                            break;
                        }
                    }
                }
            }
            (steps as f64, start.elapsed().as_secs_f64())
        };
        let _ = warmup_and_timed(3);
        let (steps, secs) = warmup_and_timed(maps);
        steps / secs
    };
    println!("rollout  legacy    {legacy_rate:>10.0} env-steps/sec (PR 2 derivation)");
    let _ = writeln!(json, "    \"legacy_steps_per_sec\": {legacy_rate:.1},");
    for (i, (lanes, rate)) in lane_rates.iter().enumerate() {
        let comma = if i + 1 == lane_rates.len() { "" } else { "," };
        let speedup = rate / legacy_rate.max(1e-9);
        println!("rollout  lanes={lanes:<2}  speedup vs legacy: {speedup:.2}x");
        let _ = writeln!(json, "    \"speedup_lanes{lanes}_vs_legacy\": {speedup:.2}{comma}");
    }
    let _ = writeln!(json, "  }},");

    // --- Per-map latency of the full protocol (serial over maps). ---
    let cfg = FaultEvaluationConfig {
        fault_maps: 100,
        episodes_per_map: 1,
        max_steps: 10,
        quant_bits: 8,
        lanes: 8,
    };
    let _ = evaluate_under_faults_serial(&policy, &env, &chip, BER, &cfg, 0xBE11C4)?;
    let start = Instant::now();
    let _ = evaluate_under_faults_serial(&policy, &env, &chip, BER, &cfg, 0xBE11C4)?;
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let per_map_us = total_ms * 1e3 / cfg.fault_maps as f64;
    println!(
        "evaluate c3f2 100maps (serial): {total_ms:.1} ms total, {per_map_us:.0} µs/map"
    );
    let _ = writeln!(json, "  \"evaluate_c3f2_100maps\": {{");
    let _ = writeln!(json, "    \"total_ms\": {total_ms:.2},");
    let _ = writeln!(json, "    \"per_map_latency_us\": {per_map_us:.1}");
    let _ = writeln!(json, "  }},");

    // --- GEMM GFLOP/s at the policy shapes (batch 8). ---
    // The layers' inference path, and the conv layer's product alone on
    // both kernels behind `gemm_nt_with`, so the `_fast_speedup` ratio
    // isolates the packed microkernel.
    let mut gemm_rows: Vec<(&str, f64)> = Vec::new();
    {
        let mut r = StdRng::seed_from_u64(17);
        // C3F2 conv2: 8→16, stride 2, 9×9 input → 5×5 output.
        let conv = Conv2d::new(8, 16, 3, 2, 1, &mut r);
        let x = Tensor::rand_uniform(&[8, 8, 9, 9], -1.0, 1.0, &mut r);
        let flops = 8 * 2 * conv.macs_per_sample(9, 9) as u64;
        let mut out = Tensor::default();
        let x_lanes = to_batch_lanes(&x);
        let layer = time_gflops(|| conv.infer_lanes(&x_lanes, &mut out), flops);
        gemm_rows.push(("c3f2_conv2_lanes_b8_reference", layer));
        // The conv layer's GEMM alone (16×25×72, one sample).
        let shape = Im2colShape {
            channels: 8,
            height: 9,
            width: 9,
            kernel: 3,
            stride: 2,
            padding: 1,
            out_h: 5,
            out_w: 5,
        };
        let mut col = vec![0.0f32; 25 * 72];
        im2col(&x.data()[..8 * 9 * 9], &shape, &mut col);
        let weights: Vec<f32> = Tensor::rand_uniform(&[16, 72], -1.0, 1.0, &mut r)
            .data()
            .to_vec();
        let bias = vec![0.1f32; 16];
        let mut cbuf = vec![0.0f32; 16 * 25];
        let flops = gemm_flops(16, 25, 72);
        let mut packs = PackScratch::new();
        let mut kernel = |precision: Precision| {
            time_gflops(
                || {
                    gemm_nt_with(
                        16,
                        25,
                        72,
                        &weights,
                        &col,
                        BiasMode::RowInit(&bias),
                        &mut cbuf,
                        precision,
                        &mut packs,
                    );
                },
                flops,
            )
        };
        let (reference, fast) = (kernel(Precision::Reference), kernel(Precision::Fast));
        gemm_rows.push(("c3f2_conv2_gemm_reference", reference));
        gemm_rows.push(("c3f2_conv2_gemm_fast", fast));
        gemm_rows.push(("c3f2_conv2_gemm_fast_speedup", fast / reference.max(1e-9)));
        // C5F4 fc1: 600→128.
        let dense = Dense::new(600, 128, &mut r);
        let xd = Tensor::rand_uniform(&[8, 600], -1.0, 1.0, &mut r);
        let flops = gemm_flops(8, 128, 600);
        let xd_lanes = to_batch_lanes(&xd);
        let layer = time_gflops(|| dense.infer_lanes(&xd_lanes, &mut out), flops);
        gemm_rows.push(("c5f4_fc1_lanes_b8_reference", layer));
    }
    let _ = writeln!(json, "  \"gemm_gflops\": {{");
    for (i, (name, value)) in gemm_rows.iter().enumerate() {
        let comma = if i + 1 == gemm_rows.len() { "" } else { "," };
        println!("gemm     {name:<32} {value:>7.2}");
        let _ = writeln!(json, "    \"{name}\": {value:.3}{comma}");
    }
    let _ = writeln!(json, "  }},");

    // --- Training: forward/backward passes and pair updates, batch 32. ---
    let training = training_ms()?;
    let _ = writeln!(json, "  \"training\": {{");
    let _ = writeln!(json, "    \"batch\": 32,");
    for (i, (name, ms)) in training.iter().enumerate() {
        let comma = if i + 1 == training.len() { "" } else { "," };
        println!("training {name:<24} {ms:>8.3} ms");
        let _ = writeln!(json, "    \"{name}\": {ms:.3}{comma}");
    }
    let _ = writeln!(json, "  }},");

    // --- Pair update: where a Classical + BERRY update spends its time. ---
    let pair_update = pair_update_us()?;
    let _ = writeln!(json, "  \"pair_update\": {{");
    let _ = writeln!(json, "    \"batch\": 32,");
    for (i, (name, us)) in pair_update.iter().enumerate() {
        let comma = if i + 1 == pair_update.len() { "" } else { "," };
        println!("pair     {name:<32} {us:>9.1} µs");
        let _ = writeln!(json, "    \"{name}\": {us:.1}{comma}");
    }
    let _ = writeln!(json, "  }},");

    // --- Reference tier: scalar tile vs lanes-across-outputs kernel. ---
    let _ = writeln!(json, "  \"reference_kernels\": {{");
    let _ = writeln!(json, "    \"backend\": \"{}\",", lanes_kernel_body());
    for (name, gflops) in reference_kernel_gflops() {
        println!("kernels  {name:<32} {gflops:>7.2} GFLOP/s");
        let _ = writeln!(json, "    \"{name}\": {gflops:.3},");
    }
    for (name, us) in conv_pass_us() {
        println!("kernels  {name:<32} {us:>7.2} µs");
        let _ = writeln!(json, "    \"{name}\": {us:.2},");
    }
    let mut infer_scratch = InferScratch::new();
    let mut infer_rows = Vec::new();
    for batch in [1usize, 2, 4, 8] {
        let mut dims = vec![batch];
        dims.extend_from_slice(&env.observation_shape());
        let x = Tensor::rand_uniform(&dims, 0.0, 1.0, &mut rng);
        let ms = median_ms(|| {
            for _ in 0..100 {
                std::hint::black_box(policy.infer_into(&x, &mut infer_scratch));
            }
        });
        infer_rows.push((format!("c3f2_infer_b{batch}_us"), ms * 10.0));
    }
    for (i, (name, us)) in infer_rows.iter().enumerate() {
        let comma = if i + 1 == infer_rows.len() { "" } else { "," };
        println!("kernels  {name:<32} {us:>7.2} µs");
        let _ = writeln!(json, "    \"{name}\": {us:.2}{comma}");
    }
    let _ = writeln!(json, "  }},");

    // --- Scheduler: contiguous vs work-stealing on a skewed grid. ---
    // One serial reference run trains every pair into a shared in-memory
    // store; the timed runs then evaluate against the warm cache, so the
    // contiguous/stealing gap is pure scheduling, not training noise.
    let grid = Scenario::smoke_grid();
    let store = PolicyStore::in_memory();
    let reference = run_grid_serial_in(&grid, ExperimentScale::Smoke, SCHED_SEED, &store)?;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(SCHED_WORKERS).build()?;
    let pre_cell =
        |index: usize| std::thread::sleep(std::time::Duration::from_millis(SKEW_MS[index]));
    let mut measured: Vec<(&str, f64, rayon::RunStats)> = Vec::new();
    for (name, sched) in [
        ("contiguous", rayon::SchedulerMode::Contiguous),
        ("work_stealing", rayon::SchedulerMode::WorkStealing),
    ] {
        // Best of two passes: the first also warms caches/page faults.
        let mut best: Option<(f64, rayon::RunStats)> = None;
        for _ in 0..2 {
            let start = Instant::now();
            let (rows, _) = rayon::with_scheduler_mode(sched, || {
                pool.install(|| {
                    run_grid_resumable_in(
                        &grid,
                        ExperimentScale::Smoke,
                        SCHED_SEED,
                        &store,
                        &[],
                        &CompletedSet::empty(),
                        &pre_cell,
                        |_: usize, _: &CampaignRow| -> berry_core::Result<()> { Ok(()) },
                    )
                })
            })?;
            let wall = start.elapsed().as_secs_f64();
            // Both modes must reproduce the serial reference bitwise —
            // the timing comparison is only meaningful if they do.
            assert_eq!(rows.len(), reference.len());
            for (row, reference_row) in rows.iter().zip(&reference) {
                assert_eq!(
                    row.to_json_line(),
                    reference_row.to_json_line(),
                    "{name} run diverged from the serial reference"
                );
            }
            let stats = rayon::last_run_stats().expect("grid run records scheduler stats");
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                best = Some((wall, stats));
            }
        }
        let (wall, stats) = best.expect("two timed passes ran");
        measured.push((name, wall, stats));
    }
    let _ = writeln!(json, "  \"scheduler_skewed_grid\": {{");
    let _ = writeln!(json, "    \"cells\": {},", grid.len());
    let _ = writeln!(json, "    \"workers\": {SCHED_WORKERS},");
    let _ = writeln!(
        json,
        "    \"skew_ms\": [{}],",
        SKEW_MS.map(|ms| ms.to_string()).join(", ")
    );
    for (name, wall, stats) in &measured {
        // Idle tail: how long the slowest-finishing worker outlived the
        // quickest — the stranded time a static partition cannot shed.
        let min_busy = stats.per_worker_busy_s.iter().copied().fold(f64::INFINITY, f64::min);
        let idle_tail = (wall - min_busy).max(0.0);
        let busy = stats
            .per_worker_busy_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "schedule {name:<14} {:>7.0} ms wall, {} steals, idle tail {:>6.0} ms",
            wall * 1e3,
            stats.steals,
            idle_tail * 1e3
        );
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"wall_s\": {wall:.4},");
        let _ = writeln!(json, "      \"steals\": {},", stats.steals);
        let _ = writeln!(json, "      \"worker_busy_s\": [{busy}],");
        let _ = writeln!(json, "      \"idle_tail_s\": {idle_tail:.4}");
        let _ = writeln!(json, "    }},");
    }
    let speedup = measured[0].1 / measured[1].1.max(1e-9);
    println!("schedule stealing speedup vs contiguous: {speedup:.2}x");
    let _ = writeln!(json, "    \"stealing_speedup_vs_contiguous\": {speedup:.2}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out_path = std::env::var("BERRY_BENCH_OUT").unwrap_or(default_out);
    std::fs::write(&out_path, &json)?;
    println!("\nwrote {out_path}");
    Ok(())
}

/// The median of timing samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of `f` over [`TRAIN_REPS`] calls, after
/// two warm-up calls.
fn median_ms<F: FnMut()>(mut f: F) -> f64 {
    f();
    f();
    median(
        (0..TRAIN_REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Median µs per call of `f`, timed in samples of 20 calls (so a sample
/// spans ≥ ~1 ms) with [`median_ms`].
fn median_call_us<F: FnMut()>(mut f: F) -> f64 {
    const CALLS: usize = 20;
    median_ms(|| {
        for _ in 0..CALLS {
            f();
        }
    }) * 1e3
        / CALLS as f64
}

/// The training section: `forward` / `backward` of C3F2 and C5F4 at batch
/// 32, then one C3F2 Classical update and one BERRY dual-pass update at
/// the Quick `DqnConfig` on an ε = 1 Quick replay.
fn training_ms() -> Result<Vec<(&'static str, f64)>, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    let mut env =
        NavigationEnv::new(ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium))?;
    let shape = env.observation_shape();
    let actions = env.num_actions();
    let mut batched = vec![32usize];
    batched.extend_from_slice(&shape);
    let mut rows = Vec::new();
    for (spec, forward, backward) in [
        (QNetworkSpec::C3F2, "c3f2_forward_ms", "c3f2_backward_ms"),
        (QNetworkSpec::C5F4, "c5f4_forward_ms", "c5f4_backward_ms"),
    ] {
        let mut net = spec.build(&shape, actions, &mut rng)?;
        let input = Tensor::rand_uniform(&batched, 0.0, 1.0, &mut rng);
        let grad = Tensor::rand_uniform(&[32, actions], -1.0, 1.0, &mut rng);
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for rep in 0..TRAIN_REPS + 2 {
            let start = Instant::now();
            drop(net.forward(&input));
            let forward_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            drop(net.backward(&grad));
            let backward_ms = start.elapsed().as_secs_f64() * 1e3;
            net.zero_grad();
            // The first two passes warm the buffers.
            if rep >= 2 {
                fwd.push(forward_ms);
                bwd.push(backward_ms);
            }
        }
        rows.push((forward, median(fwd)));
        rows.push((backward, median(bwd)));
    }

    let config = ExperimentScale::Quick.trainer_config();
    let replay = quick_replay(&mut env, &mut rng)?;
    let batch_size = config.dqn.batch_size;
    let mut classical = DqnAgent::new(&QNetworkSpec::C3F2, &shape, actions, config.dqn, &mut rng)?;
    let mut berry = DqnAgent::new(&QNetworkSpec::C3F2, &shape, actions, config.dqn, &mut rng)?;
    let perturber = NetworkPerturber::new(8)?;
    let chip = ChipProfile::generic();
    let mut scratch = DualPassScratch::new();
    let mut batch_rng = StdRng::seed_from_u64(TRAIN_SEED ^ 1);
    let classical_ms = median_ms(|| {
        let batch = replay.sample(batch_size, &mut batch_rng).expect("replay is full");
        classical.train_on_batch(&batch).expect("classical update");
    });
    let berry_ms = median_ms(|| {
        let batch = replay.sample(batch_size, &mut batch_rng).expect("replay is full");
        let map = perturber
            .sample_fault_map(berry.q_net(), &chip, BER, &mut batch_rng)
            .expect("fault map");
        berry_update_step_with_scratch(&mut berry, &batch, &perturber, &map, &mut scratch)
            .expect("berry update");
    });
    rows.push(("c3f2_classical_update_ms", classical_ms));
    rows.push(("c3f2_berry_update_ms", berry_ms));
    Ok(rows)
}

/// A full 1 024-transition replay of ε = 1 Quick episodes.
fn quick_replay(env: &mut NavigationEnv, rng: &mut StdRng) -> Result<ReplayBuffer, Box<dyn std::error::Error>> {
    let max_steps = ExperimentScale::Quick.trainer_config().max_steps_per_episode;
    let actions = env.num_actions();
    let mut replay = ReplayBuffer::new(1_024)?;
    while replay.len() < 1_024 {
        let mut obs = env.reset(rng);
        for _ in 0..max_steps {
            let action = rng.gen_range(0..actions);
            let outcome = env.step(action, rng);
            let done = outcome.is_terminal();
            replay.push(Transition {
                state: obs,
                action,
                reward: outcome.reward,
                next_state: outcome.observation.clone(),
                done,
            });
            obs = outcome.observation;
            if done || replay.len() == 1_024 {
                break;
            }
        }
    }
    Ok(replay)
}

/// The pair-update section, in µs at batch 32 on the Quick C3F2 policy:
///
/// * per layer, the batch-lane forward and backward of a training pass
///   (the first layer's backward computes dW only, as in a training
///   step), and the transposes at the network's edges (input, output and
///   output gradient);
/// * the rest of BERRY's step: `PerturbContext::refresh` (re-quantizing
///   θ), `sample_fault_map` and `perturb_map_into`, one `Adam::step`, and
///   one once first moments have gone subnormal ([`adam_subnormal_us`]);
/// * a pair update (a Classical and a BERRY update on an ε = 1 Quick
///   replay) and its GEMM time: the lanes-kernel products one pair
///   update runs, each on dense operands of its shape (see
///   [`pair_update_products`]), on the body the lanes kernel runs here
///   and (`gemm_estimate_avx2_us`) on its AVX2 body.  The three are timed
///   in alternation, each warm, so a change in host load reaches all,
///   and `non_gemm_estimate_us` is the median of the per-round
///   differences to the first — an estimate, as the GEMM times are: the
///   product list is a hand copy of the layers' split, run on dense
///   operands;
/// * per layer and pass (forward, dW, dX), the same products of one pass
///   on both bodies: `{layer}_{pass}_gemm_us` and `_gemm_avx2_us`.
fn pair_update_us() -> Result<Vec<(String, f64)>, Box<dyn std::error::Error>> {
    const N: usize = 32;
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED ^ 2);
    let mut env = NavigationEnv::new(ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium))?;
    let shape = env.observation_shape();
    let actions = env.num_actions();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (h2, w2) = ((h - 1) / 2 + 1, (w - 1) / 2 + 1);
    // QNetworkSpec::C3F2, layer by layer.
    let mut layers: Vec<(&str, Box<dyn Layer>)> = vec![
        ("conv1", Box::new(Conv2d::new(c, 8, 3, 1, 1, &mut rng))),
        ("relu1", Box::new(Relu::new())),
        ("conv2", Box::new(Conv2d::new(8, 16, 3, 2, 1, &mut rng))),
        ("relu2", Box::new(Relu::new())),
        ("conv3", Box::new(Conv2d::new(16, 16, 3, 1, 1, &mut rng))),
        ("relu3", Box::new(Relu::new())),
        ("flatten", Box::new(Flatten::new())),
        ("fc1", Box::new(Dense::new(16 * h2 * w2, 64, &mut rng))),
        ("relu4", Box::new(Relu::new())),
        ("fc2", Box::new(Dense::new_xavier(64, actions, &mut rng))),
    ];
    let input = Tensor::rand_uniform(&[N, c, h, w], 0.0, 1.0, &mut rng);
    let grad = Tensor::rand_uniform(&[N, actions], -1.0, 1.0, &mut rng);
    let mut forward = vec![Vec::new(); layers.len()];
    let mut backward = vec![Vec::new(); layers.len()];
    let mut edges = Vec::new();
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    for rep in 0..10 * TRAIN_REPS + 2 {
        let start = Instant::now();
        let mut x = to_batch_lanes(&input);
        let mut edge_us = us(start);
        let mut pass = vec![(0.0, 0.0); layers.len()];
        for ((_, layer), (f, _)) in layers.iter_mut().zip(pass.iter_mut()) {
            let start = Instant::now();
            x = layer.forward_lanes(x);
            *f = us(start);
        }
        let start = Instant::now();
        drop(from_batch_lanes(&x));
        let mut g = to_batch_lanes(&grad);
        edge_us += us(start);
        for (i, ((_, layer), (_, b))) in layers.iter_mut().zip(pass.iter_mut()).enumerate().rev() {
            let start = Instant::now();
            if i == 0 {
                layer.backward_params_lanes(std::mem::take(&mut g));
            } else {
                g = layer.backward_lanes(g);
            }
            *b = us(start);
        }
        for (_, layer) in &mut layers {
            layer.zero_grad();
        }
        // The first two passes warm the buffers.
        if rep >= 2 {
            for (i, (f, b)) in pass.into_iter().enumerate() {
                forward[i].push(f);
                backward[i].push(b);
            }
            edges.push(edge_us);
        }
    }
    let mut rows = Vec::new();
    for (((name, _), f), b) in layers.iter().zip(forward).zip(backward) {
        rows.push((format!("{name}_forward_us"), median(f)));
        rows.push((format!("{name}_backward_us"), median(b)));
    }
    rows.push(("edges_us".into(), median(edges)));

    let mut net = QNetworkSpec::C3F2.build(&shape, actions, &mut rng)?;
    let mut context = PerturbContext::new(&net, 8)?;
    rows.push(("refresh_us".into(), median_call_us(|| context.refresh(&net).expect("refresh"))));
    let (perturber, chip) = (NetworkPerturber::new(8)?, ChipProfile::generic());
    let sample = median_call_us(|| {
        drop(perturber.sample_fault_map(&net, &chip, BER, &mut rng).expect("fault map"));
    });
    rows.push(("sample_fault_map_us".into(), sample));
    let map = perturber.sample_fault_map(&net, &chip, BER, &mut rng)?;
    let mut perturbed = context.checkout();
    let perturb = median_call_us(|| context.perturb_map_into(&map, &mut perturbed).expect("perturb"));
    rows.push(("perturb_map_into_us".into(), perturb));
    net.forward(&input);
    net.backward_params(&grad);
    let dqn = ExperimentScale::Quick.trainer_config().dqn;
    let mut adam = Adam::new(dqn.learning_rate).with_grad_clip(dqn.grad_clip);
    rows.push(("adam_step_us".into(), median_call_us(|| adam.step(&mut net))));
    let mut net = QNetworkSpec::C3F2.build(&shape, actions, &mut rng)?;
    net.forward(&input);
    net.backward_params(&grad);
    let adam = Adam::new(dqn.learning_rate).with_grad_clip(dqn.grad_clip);
    rows.push(("adam_step_subnormal_us".into(), adam_subnormal_us(&mut net, adam)));

    let replay = quick_replay(&mut env, &mut rng)?;
    let dqn = ExperimentScale::Quick.trainer_config().dqn;
    let mut classical = DqnAgent::new(&QNetworkSpec::C3F2, &shape, actions, dqn, &mut rng)?;
    let mut berry = DqnAgent::new(&QNetworkSpec::C3F2, &shape, actions, dqn, &mut rng)?;
    let mut scratch = DualPassScratch::new();
    let mut products = pair_update_products(c, (h, w), actions, &mut rng);
    let (mut pair, mut gemm, mut gemm_avx2, mut non_gemm) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..TRAIN_REPS + 2 {
        // Each side runs once untimed first: the other side's data
        // (≈ 2 MB of dense operands) would otherwise have evicted its
        // own from the caches.
        let mut pair_us = 0.0;
        for _ in 0..2 {
            let (classical_batch, berry_batch) = (replay.sample(N, &mut rng)?, replay.sample(N, &mut rng)?);
            let map = perturber.sample_fault_map(berry.q_net(), &chip, BER, &mut rng)?;
            let start = Instant::now();
            classical.train_on_batch(&classical_batch)?;
            berry_update_step_with_scratch(&mut berry, &berry_batch, &perturber, &map, &mut scratch)?;
            pair_us = us(start);
        }
        let mut products_us = |avx2: bool| {
            let mut gemm_us = 0.0;
            for _ in 0..2 {
                let start = Instant::now();
                for product in &mut products {
                    product.run(product.count * product.passes, avx2);
                }
                gemm_us = us(start);
            }
            gemm_us
        };
        let (gemm_us, gemm_avx2_us) = (products_us(false), products_us(true));
        // The first two rounds warm the buffers.
        if rep >= 2 {
            pair.push(pair_us);
            gemm.push(gemm_us);
            gemm_avx2.push(gemm_avx2_us);
            non_gemm.push(pair_us - gemm_us);
        }
    }
    rows.push(("pair_us".into(), median(pair)));
    rows.push(("gemm_estimate_us".into(), median(gemm)));
    rows.push(("gemm_estimate_avx2_us".into(), median(gemm_avx2)));
    rows.push(("non_gemm_estimate_us".into(), median(non_gemm)));
    let mut passes: Vec<(&str, &str)> = Vec::new();
    for product in &products {
        if !passes.contains(&(product.layer, product.pass)) {
            passes.push((product.layer, product.pass));
        }
    }
    for (layer, pass) in passes {
        for (suffix, avx2) in [("", false), ("_avx2", true)] {
            let us = median_call_us(|| {
                for product in products.iter_mut().filter(|p| (p.layer, p.pass) == (layer, pass)) {
                    product.run(product.count, avx2);
                }
            });
            rows.push((format!("{layer}_{pass}_gemm{suffix}_us"), us));
        }
    }
    Ok(rows)
}

/// Median µs of a C3F2 `Adam::step` once first moments have gone
/// subnormal, the phase most updates of a long Quick training run in:
/// `net` holds a full gradient for step 1, then 40 % of every gradient
/// tensor (elements `i % 5 < 2`) is zeroed, as a dead ReLU unit's are,
/// and each step of 2–1500 is timed; the median is over steps 1000–1500,
/// by which time the zeroed elements' first moments, shrinking by β₁ per
/// step, have left the normal range.
fn adam_subnormal_us(net: &mut Sequential, mut adam: Adam) -> f64 {
    adam.step(net);
    for grad in net.grads_mut() {
        for (i, g) in grad.data_mut().iter_mut().enumerate() {
            if i % 5 < 2 {
                *g = 0.0;
            }
        }
    }
    let steps: Vec<f64> = (2..=1500)
        .map(|_| {
            let start = Instant::now();
            adam.step(net);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(steps[1000 - 2..].to_vec())
}

/// One lanes-kernel product shape of the pair update, with dense
/// operands: the layer and pass it belongs to, how many times one pass
/// runs it and how many such passes a pair update makes.
struct Product {
    layer: &'static str,
    pass: &'static str,
    m: usize,
    n: usize,
    k: usize,
    count: usize,
    passes: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Product {
    /// Runs the product `calls` times on the body the lanes kernel runs
    /// here, or on its AVX2 body when `avx2`.
    fn run(&mut self, calls: usize, avx2: bool) {
        let Product { m, n, k, .. } = *self;
        for _ in 0..calls {
            let a = StridedA::row_major(&self.a, k);
            if avx2 {
                gemm_kn_with_backend(m, n, k, a, &self.b, BiasMode::None, &mut self.c, FastBackend::Avx2);
            } else {
                gemm_kn(m, n, k, a, &self.b, BiasMode::None, &mut self.c);
            }
        }
        std::hint::black_box(&self.c);
    }
}

/// The Reference lanes-kernel products of one C3F2 pair update at batch
/// 32 — three training passes (forward, then dW of every layer and dX of
/// all but the first) and three target inferences — on dense operands.
/// The list is a hand copy of how `Conv2d` (`Lanes::forward`,
/// `Lanes::input_gradient`) and `Dense` split a pass into products, so
/// the GEMM time it gives is an estimate.
///
/// # Panics
///
/// Panics unless the observation is 9×9, the plane the product list
/// below (conv2's stride phases in particular) is written for.
fn pair_update_products(c: usize, (h, w): (usize, usize), actions: usize, rng: &mut StdRng) -> Vec<Product> {
    const N: usize = 32;
    assert_eq!((h, w), (9, 9), "the product list is written for a 9×9 observation");
    // (layer, pass, m, n, k, products per pass)
    let forward = [
        ("conv1", "forward", 8, 9 * N, 9 * c, 9),
        ("conv2", "forward", 16, 5 * N, 72, 5),
        ("conv3", "forward", 16, 5 * N, 144, 5),
        ("fc1", "forward", 64, N, 400, 1),
        ("fc2", "forward", actions, N, 64, 1),
    ];
    let backward = [
        ("conv1", "dw", 9 * c, 8, 81 * N, 1),
        ("conv2", "dw", 72, 16, 25 * N, 1),
        ("conv3", "dw", 144, 16, 25 * N, 1),
        ("fc1", "dw", 64, 400, N, 1),
        ("fc2", "dw", actions, 64, N, 1),
        // dX: conv3 runs one product per input row, conv2 one per row of
        // each stride phase (4×4 pixels with 4 taps, 4×5 and 5×4 with 2,
        // 5×5 with 1).
        ("fc2", "dx", 64, N, actions, 1),
        ("fc1", "dx", 400, N, 64, 1),
        ("conv3", "dx", 16, 5 * N, 144, 5),
        ("conv2", "dx", 8, 4 * N, 64, 4),
        ("conv2", "dx", 8, 5 * N, 32, 4),
        ("conv2", "dx", 8, 4 * N, 32, 5),
        ("conv2", "dx", 8, 5 * N, 16, 5),
    ];
    let passes = forward.map(|shape| (shape, 6)).into_iter().chain(backward.map(|shape| (shape, 3)));
    passes
        .map(|((layer, pass, m, n, k, count), passes)| Product {
            layer,
            pass,
            m,
            n,
            k,
            count,
            passes,
            a: Tensor::rand_uniform(&[m * k], -1.0, 1.0, rng).into_data(),
            b: Tensor::rand_uniform(&[k * n], -1.0, 1.0, rng).into_data(),
            c: vec![0.0; m * n],
        })
        .collect()
}

/// GFLOP/s of the Reference tier's kernels on one sample's C3F2 conv2 and
/// conv3 training GEMMs: `_scalar_tile` is `gemm_nt` over the NT operands,
/// `_lanes`, `_lanes_avx2` and `_lanes_portable` are `gemm_kn` over the
/// same products in k-major form on the body it runs here, on its AVX2
/// body and on its portable fallback.
fn reference_kernel_gflops() -> Vec<(String, f64)> {
    let mut r = StdRng::seed_from_u64(19);
    let mut rows = Vec::new();
    // (name, m, n, k) of forward (oc × pixels × taps), dW (oc × taps ×
    // pixels) and dX (in-channels × pixels × oc·taps per stride phase).
    for (name, m, n, k) in [
        ("c3f2_conv2_forward", 16usize, 25usize, 72usize),
        ("c3f2_conv2_dw", 16, 72, 25),
        ("c3f2_conv3_forward", 16, 25, 144),
        ("c3f2_conv3_dw", 16, 144, 25),
        ("c3f2_conv3_dx", 16, 25, 144),
    ] {
        let a = Tensor::rand_uniform(&[m * k], -1.0, 1.0, &mut r);
        let b_kn = Tensor::rand_uniform(&[k * n], -1.0, 1.0, &mut r);
        let b_nt: Vec<f32> = (0..n * k).map(|at| b_kn.data()[(at % k) * n + at / k]).collect();
        let mut c = vec![0.0f32; m * n];
        let flops = gemm_flops(m, n, k);
        let tile = time_gflops(|| gemm_nt(m, n, k, a.data(), &b_nt, BiasMode::None, &mut c), flops);
        let view = StridedA::row_major(a.data(), k);
        let simd = time_gflops(|| gemm_kn(m, n, k, view, b_kn.data(), BiasMode::None, &mut c), flops);
        let mut lanes = |backend: FastBackend| {
            time_gflops(
                || gemm_kn_with_backend(m, n, k, view, b_kn.data(), BiasMode::None, &mut c, backend),
                flops,
            )
        };
        let avx2 = lanes(FastBackend::Avx2);
        let portable = lanes(FastBackend::Scalar);
        rows.push((format!("{name}_scalar_tile"), tile));
        rows.push((format!("{name}_lanes"), simd));
        rows.push((format!("{name}_lanes_avx2"), avx2));
        rows.push((format!("{name}_lanes_portable"), portable));
    }
    rows
}

/// Median µs of the C3F2 convolutions' batch-lane routines at batch 32:
/// `forward_lanes`, `backward_params_lanes` (dW and the bias gradient) and
/// the dX share of `backward_lanes` (its median less
/// `backward_params_lanes`'), each call's operand copied outside the
/// timed call; `infer_lanes` at batch 2, 8, 16 and 32; the bordered-copy
/// fill alone ([`Conv2d::fill_bordered_input`]) at batch 8 and 32; and the
/// per-sample Reference `infer_with` at batch 8.
fn conv_pass_us() -> Vec<(String, f64)> {
    let mut r = StdRng::seed_from_u64(23);
    let mut rows = Vec::new();
    // (in, out, stride) over the 2×9×9 observation, as QNetworkSpec::C3F2.
    for (index, (ic, oc, stride, size)) in [(2usize, 8usize, 1usize, 9usize), (8, 16, 2, 9), (16, 16, 1, 5)]
        .into_iter()
        .enumerate()
    {
        let name = format!("c3f2_conv{}", index + 1);
        let mut conv = Conv2d::new(ic, oc, 3, stride, 1, &mut r);
        let x = to_batch_lanes(&Tensor::rand_uniform(&[32, ic, size, size], -1.0, 1.0, &mut r));
        let out = conv.output_size(size);
        let go = to_batch_lanes(&Tensor::rand_uniform(&[32, oc, out, out], -1.0, 1.0, &mut r));
        let forward = median_owned_call_us(&x, |x| drop(std::hint::black_box(conv.forward_lanes(x))));
        let dw = median_owned_call_us(&go, |go| conv.backward_params_lanes(go));
        let backward = median_owned_call_us(&go, |go| drop(std::hint::black_box(conv.backward_lanes(go))));
        rows.push((format!("{name}_b32_lanes_forward_us"), forward));
        rows.push((format!("{name}_b32_lanes_dw_us"), dw));
        rows.push((format!("{name}_b32_lanes_dx_us"), (backward - dw).max(0.0)));
        let mut gemm = GemmScratch::new();
        let mut y = Tensor::default();
        let xb = Tensor::rand_uniform(&[8, ic, size, size], -1.0, 1.0, &mut r);
        let infer = median_call_us(|| conv.infer_with(&xb, &mut y, &mut gemm));
        rows.push((format!("{name}_infer_b8_us"), infer));
        for batch in [2usize, 8, 16, 32] {
            let xb = to_batch_lanes(&Tensor::rand_uniform(&[batch, ic, size, size], -1.0, 1.0, &mut r));
            let infer = median_call_us(|| conv.infer_lanes(&xb, &mut y));
            rows.push((format!("{name}_infer_lanes_b{batch}_us"), infer));
            if batch == 8 || batch == 32 {
                let fill = median_call_us(|| conv.fill_bordered_input(&xb));
                rows.push((format!("{name}_fill_b{batch}_us"), fill));
            }
        }
    }
    rows
}

/// Median µs of `f` over 201 calls after 20 warm-up calls, each handed a
/// fresh copy of `operand` made outside the timed call.
fn median_owned_call_us<F: FnMut(Tensor)>(operand: &Tensor, mut f: F) -> f64 {
    for _ in 0..20 {
        f(operand.clone());
    }
    median(
        (0..201)
            .map(|_| {
                let owned = operand.clone();
                let start = Instant::now();
                f(owned);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

/// Runs `f` repeatedly in three ≥ ~0.1 s windows (after one warm-up
/// call) and returns the best window's GFLOP/s given the per-call FLOP
/// count — best-of-N because a shared host's scheduling noise only ever
/// subtracts throughput.
fn time_gflops<F: FnMut()>(mut f: F, flops_per_call: u64) -> f64 {
    f();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed().as_secs_f64() < 0.1 {
            f();
            calls += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        best = best.max((calls * flops_per_call) as f64 / secs / 1e9);
    }
    best
}
