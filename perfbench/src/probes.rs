//! Per-layer probes for the traced run: each times public calls of one
//! layer at the shapes the workloads use (C3F2 and C5F4, training batch
//! 32, evaluation batch 8, the Quick navigation task, the Smoke serving
//! grid) and reports the median.  Every traced run executes all of them,
//! so each workload's trace carries every per-layer metric; values a
//! workload measured inside its own ops take precedence (see `main`).

use crate::deploy::{quick_cell, POLICY_SEED};
use crate::fail;
use crate::harness::{median, time_samples};
use crate::serve::{reference_rows, LocalServer};
use crate::train_step::{fill_replay, quick_agent, quick_env, TRAIN_BER};
use berry_core::campaign::{pair_request_for, run_grid_serial_in, run_grid_streamed_in};
use berry_core::evaluate::{evaluate_mission_seeded, evaluate_under_faults_serial};
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::{NetworkPerturber, PerturbContext};
use berry_core::robust::{berry_update_step_with_scratch, DualPassScratch};
use berry_core::scenario::Scenario;
use berry_core::{ParsedRow, PolicyStore};
use berry_faults::chip::ChipProfile;
use berry_hw::accelerator::Accelerator;
use berry_hw::workload::NetworkWorkload;
use berry_nn::gemm::{gemm_flops, gemm_nt_with, BiasMode, PackScratch, Precision};
use berry_nn::network::InferScratch;
use berry_nn::tensor::Tensor;
use berry_rl::env::Environment;
use berry_rl::eval::evaluate_policy_batched;
use berry_rl::policy::QNetworkSpec;
use berry_serve::protocol::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Per-layer values keyed by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Runs every probe and returns one value per per-layer metric (all but
/// the host and trace metrics, which come from the timed windows).
///
/// # Errors
///
/// Returns a message if a probed call fails.
pub fn run_all(seed: u64, scratch_dir: &Path) -> Result<Metrics, String> {
    let mut metrics = Metrics::new();
    let mut rng = StdRng::seed_from_u64(berry_core::seed::splitmix64(seed));
    nn(&mut metrics, &mut rng)?;
    gemm(&mut metrics, &mut rng);
    training(&mut metrics, &mut rng)?;
    evaluation(&mut metrics, &mut rng)?;
    serving(&mut metrics, seed, scratch_dir)?;
    Ok(metrics)
}

/// `Sequential::forward` / `backward` at training batch 32 and
/// `infer_into` (Reference tier) at evaluation batch 8.
fn nn(metrics: &mut Metrics, rng: &mut StdRng) -> Result<(), String> {
    let env = quick_env()?;
    let shape = env.observation_shape();
    let actions = env.num_actions();
    let batched = |n: usize| [&[n][..], &shape[..]].concat();
    for (spec, forward, backward, infer) in [
        (
            QNetworkSpec::C3F2,
            "nn.forward_ms.c3f2_b32",
            "nn.backward_ms.c3f2_b32",
            "nn.infer_us.c3f2_b8",
        ),
        (
            QNetworkSpec::C5F4,
            "nn.forward_ms.c5f4_b32",
            "nn.backward_ms.c5f4_b32",
            "nn.infer_us.c5f4_b8",
        ),
    ] {
        let mut net = spec
            .build(&shape, actions, rng)
            .map_err(fail("probe net"))?;
        let input = Tensor::rand_uniform(&batched(32), 0.0, 1.0, rng);
        let grad = Tensor::rand_uniform(&[32, actions], -1.0, 1.0, rng);
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let started = Instant::now();
            black_box(net.forward(&input));
            fwd.push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            black_box(net.backward(&grad));
            bwd.push(started.elapsed().as_secs_f64() * 1e3);
            net.zero_grad();
        }
        metrics.insert(forward, median(&fwd));
        metrics.insert(backward, median(&bwd));

        let input = Tensor::rand_uniform(&batched(8), 0.0, 1.0, rng);
        let mut scratch = InferScratch::new();
        let samples = time_samples(200, 1e6, || {
            black_box(net.infer_into(&input, &mut scratch));
        });
        metrics.insert(infer, median(&samples[10..]));
    }
    Ok(())
}

/// `gemm_nt_with` on the C3F2 conv2 lowering (16 output channels × 25
/// output pixels × 72 taps), both tiers.  The op and byte counts are
/// computed from the shape, not measured.
fn gemm(metrics: &mut Metrics, rng: &mut StdRng) {
    const CALLS: usize = 2_000;
    let (m, n, k) = (16, 25, 72);
    let mut draw = |len: usize| {
        (0..len)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect::<Vec<_>>()
    };
    let (a, b, bias) = (draw(m * k), draw(n * k), draw(m));
    let mut c = vec![0.0f32; m * n];
    let mut packs = PackScratch::new();
    let flops = gemm_flops(m, n, k);
    for (precision, name) in [
        (Precision::Reference, "nn.gemm.gflops.reference"),
        (Precision::Fast, "nn.gemm.gflops.fast"),
    ] {
        let seconds = time_samples(9, 1.0, || {
            for _ in 0..CALLS {
                gemm_nt_with(
                    m,
                    n,
                    k,
                    black_box(&a),
                    black_box(&b),
                    BiasMode::RowInit(&bias),
                    &mut c,
                    precision,
                    &mut packs,
                );
                black_box(&c);
            }
        });
        metrics.insert(name, flops as f64 * CALLS as f64 / median(&seconds) / 1e9);
    }
    metrics.insert("nn.gemm.flops", flops as f64);
    metrics.insert(
        "nn.gemm.bytes_computed",
        (4 * (m * k + n * k + m * n)) as f64,
    );
}

/// Replay sampling, both update kinds, fault-map sampling and the
/// quantize-once refresh/inject pair on the C3F2 training network.
fn training(metrics: &mut Metrics, rng: &mut StdRng) -> Result<(), String> {
    let mut env = quick_env()?;
    let replay = fill_replay(&mut env, 1_024, rng)?;
    let mut classical = quick_agent(&QNetworkSpec::C3F2, &env, rng)?;
    let mut berry = quick_agent(&QNetworkSpec::C3F2, &env, rng)?;
    let size = classical.config().batch_size;
    let perturber = NetworkPerturber::new(8).map_err(fail("perturber"))?;
    let chip = ChipProfile::generic();

    let sample = time_samples(300, 1e6, || {
        black_box(replay.sample(size, &mut *rng).map(|b| b.len()).unwrap_or(0));
    });
    metrics.insert("rl.replay.sample_us", median(&sample));

    let (mut dqn, mut robust) = (Vec::new(), Vec::new());
    let mut scratch = DualPassScratch::new();
    for _ in 0..9 {
        let batch = replay.sample(size, rng).map_err(fail("replay sample"))?;
        let started = Instant::now();
        classical
            .train_on_batch(&batch)
            .map_err(fail("classical update"))?;
        dqn.push(started.elapsed().as_secs_f64() * 1e3);
        let map = perturber
            .sample_fault_map(berry.q_net(), &chip, TRAIN_BER, rng)
            .map_err(fail("fault map"))?;
        let started = Instant::now();
        berry_update_step_with_scratch(&mut berry, &batch, &perturber, &map, &mut scratch)
            .map_err(fail("berry update"))?;
        robust.push(started.elapsed().as_secs_f64() * 1e3);
    }
    metrics.insert("rl.dqn.update_ms", median(&dqn[1..]));
    metrics.insert("core.robust.update_ms", median(&robust[1..]));

    let net = berry.q_net();
    let (mut sample_us, mut flips) = (Vec::new(), Vec::new());
    let mut maps = Vec::new();
    for _ in 0..300 {
        let started = Instant::now();
        let map = perturber
            .sample_fault_map(net, &chip, TRAIN_BER, rng)
            .map_err(fail("fault map"))?;
        sample_us.push(started.elapsed().as_secs_f64() * 1e6);
        flips.push(map.len() as f64);
        maps.push(map);
    }
    metrics.insert("faults.sample_map_us", median(&sample_us));
    metrics.insert("faults.flips_per_map", median(&flips));

    let mut context = PerturbContext::new(net, 8).map_err(fail("perturb context"))?;
    let refresh = (0..300)
        .map(|_| {
            let started = Instant::now();
            context
                .refresh(net)
                .map(|()| started.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("refresh"))?;
    metrics.insert("core.perturb.refresh_us", median(&refresh));
    let mut scratch = context.checkout();
    let inject = maps
        .iter()
        .map(|map| {
            let started = Instant::now();
            context
                .perturb_map_into(map, &mut scratch)
                .map(|()| started.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("inject"))?;
    metrics.insert("core.perturb.inject_us", median(&inject));
    Ok(())
}

/// One C3F2 deploy cell (both evaluation calls, one rayon worker), the
/// 8-lane batched rollout, env step/reset and the accelerator model.  The
/// policies come from the workload's fixed policy seed, as in
/// `deploy_rollout`, so the episode lengths behind these times do not vary
/// with the run's seed.
fn evaluation(metrics: &mut Metrics, rng: &mut StdRng) -> Result<(), String> {
    let cell = quick_cell()?;
    let shape = cell.env.observation_shape();
    let actions = cell.env.num_actions();
    let mut policy_rng = StdRng::seed_from_u64(POLICY_SEED);
    let mut policy = || {
        QNetworkSpec::C3F2
            .build(&shape, actions, &mut policy_rng)
            .map_err(fail("probe net"))
    };
    let (classical, berry) = (policy()?, policy()?);
    let config = ExperimentScale::Quick.evaluation_config();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(fail("thread pool"))?;
    let (mut classical_ms, mut mission_ms, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (seed_a, seed_b) = (rng.gen::<u64>(), rng.gen::<u64>());
        let started = Instant::now();
        let nav = pool
            .install(|| {
                evaluate_under_faults_serial(
                    &classical,
                    &cell.env,
                    &cell.context.chip,
                    cell.ber,
                    &config,
                    seed_a,
                )
            })
            .map_err(fail("classical evaluation"))?;
        classical_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let mission = pool
            .install(|| {
                evaluate_mission_seeded(
                    &berry,
                    &cell.env,
                    &cell.context,
                    cell.voltage_norm,
                    &config,
                    seed_b,
                )
            })
            .map_err(fail("mission evaluation"))?;
        mission_ms.push(started.elapsed().as_secs_f64() * 1e3);
        steps.push(
            nav.mean_steps * nav.episodes as f64
                + mission.navigation.mean_steps * mission.navigation.episodes as f64,
        );
    }
    metrics.insert("core.eval.classical_ms", median(&classical_ms));
    metrics.insert("core.eval.mission_ms", median(&mission_ms));
    metrics.insert("eval.env_steps", median(&steps).round());
    metrics.insert(
        "eval.episodes",
        (2 * config.fault_maps * config.episodes_per_map) as f64,
    );

    let context = NetworkPerturber::new(8)
        .and_then(|p| p.context(&classical))
        .map_err(fail("perturb context"))?;
    let mut scratch = InferScratch::new();
    let mut rates = Vec::new();
    for round in 0..7u64 {
        let map = context
            .sample_fault_map(&cell.context.chip, cell.ber, rng)
            .map_err(fail("fault map"))?;
        let net = context.perturbed(&map).map_err(fail("perturb"))?;
        let started = Instant::now();
        let stats = evaluate_policy_batched(
            &net,
            &cell.env,
            32,
            config.max_steps,
            8,
            round,
            &mut scratch,
        );
        rates.push(stats.mean_steps * stats.episodes as f64 / started.elapsed().as_secs_f64());
    }
    metrics.insert("rl.rollout.steps_per_s", median(&rates));

    let mut env = cell.env.clone();
    let (mut step_us, mut reset_us) = (Vec::new(), Vec::new());
    while step_us.len() < 3_000 {
        let started = Instant::now();
        black_box(env.reset(rng));
        reset_us.push(started.elapsed().as_secs_f64() * 1e6);
        loop {
            let action = rng.gen_range(0..actions);
            let started = Instant::now();
            let outcome = env.step(action, rng);
            step_us.push(started.elapsed().as_secs_f64() * 1e6);
            if outcome.is_terminal() {
                break;
            }
        }
    }
    metrics.insert("uav.env.step_us", median(&step_us));
    metrics.insert("uav.env.reset_us", median(&reset_us));

    let accelerator = Accelerator::default_edge_accelerator();
    let workload = NetworkWorkload::c3f2();
    let mut failed = None;
    let hw = time_samples(500, 1e6, || {
        if let Err(e) = accelerator.evaluate(black_box(&workload), black_box(cell.voltage_norm)) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("accelerator: {e}"));
    }
    metrics.insert("hw.accelerator.evaluate_us", median(&hw));
    Ok(())
}

/// Per-call time in µs of `f`, from batches of `per_batch` calls.
fn batched_us(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples = time_samples(batches, 1e6, || {
        for i in 0..per_batch {
            f(i);
        }
    });
    median(&samples) / per_batch as f64
}

/// A local server over a store warmed with one Smoke campaign: time to
/// first row, request parsing, row encode/parse, the engine's Smoke grid
/// without a server, store hits and disk loads, and the scheduler's steals
/// and idle tail on a parallel grid run.  Every streamed request must end
/// `ok` with rows byte-identical to the engine's, and the warm store must
/// train nothing.
fn serving(metrics: &mut Metrics, seed: u64, scratch_dir: &Path) -> Result<(), String> {
    let server = LocalServer::start()?;
    let base_seed = berry_core::seed::scenario_seed(seed, u64::MAX);
    server.campaign(base_seed, |_| ())?;
    let store = server.store();
    let lines = reference_rows(store, base_seed)?;
    let before = store.stats();
    let mut first_row = Vec::new();
    let mut streamed = Vec::new();
    for _ in 0..30 {
        let started = Instant::now();
        let mut first = None;
        streamed.clear();
        let terminal = server.campaign(base_seed, |line| {
            first.get_or_insert_with(|| started.elapsed().as_secs_f64() * 1e3);
            streamed.push(line.to_string());
        })?;
        if terminal.status != "ok" {
            return Err(format!("probe request ended with {:?}", terminal.error));
        }
        if streamed != lines {
            return Err(format!(
                "{} streamed rows differ from the {} engine rows",
                streamed.len(),
                lines.len()
            ));
        }
        first_row.extend(first);
    }
    let after = store.stats();
    metrics.insert("serve.first_row_ms", median(&first_row));
    metrics.insert("store.trained", (after.trained - before.trained) as f64);
    metrics.insert(
        "store.memory_hits",
        (after.memory_hits - before.memory_hits) as f64 / 30.0,
    );

    let line = Request::Campaign {
        scale: ExperimentScale::Smoke,
        base_seed,
        cells: None,
    }
    .to_json_line();
    let mut bad = 0usize;
    metrics.insert(
        "serve.protocol.parse_us",
        batched_us(21, 200, |_| {
            bad += usize::from(Request::parse(black_box(&line)).is_err())
        }),
    );

    let grid = Scenario::smoke_grid();
    let rows = run_grid_serial_in(&grid, ExperimentScale::Smoke, base_seed, store)
        .map_err(fail("smoke grid"))?;
    metrics.insert(
        "core.rows.encode_us",
        batched_us(21, 200, |i| {
            black_box(rows[i % rows.len()].to_json_line());
        }),
    );
    metrics.insert(
        "core.rows.parse_us",
        batched_us(21, 200, |i| {
            bad += usize::from(ParsedRow::parse(black_box(&lines[i % lines.len()])).is_err());
        }),
    );
    if bad > 0 {
        return Err(format!("{bad} request or row lines failed to parse"));
    }

    let grid_ms = (0..11)
        .map(|_| {
            let started = Instant::now();
            run_grid_serial_in(&grid, ExperimentScale::Smoke, base_seed, store)
                .map(|_| started.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("smoke grid"))?;
    metrics.insert("core.campaign.smoke_grid_ms", median(&grid_ms));

    let request = pair_request_for(&grid[0], ExperimentScale::Smoke, base_seed)
        .map_err(fail("pair request"))?;
    let mut missing = 0usize;
    metrics.insert(
        "core.store.hit_us",
        batched_us(21, 200, |_| {
            missing += usize::from(store.get_or_train(&request).is_err())
        }),
    );
    let dir = scratch_dir.join(format!("store-probe-{}", std::process::id()));
    let disk = disk_load_ms(&dir, &request);
    // The probe's directory goes whether or not the loads succeeded.
    let _ = std::fs::remove_dir_all(&dir);
    metrics.insert("core.store.disk_load_ms", disk?);

    let (mut steals, mut tails) = (Vec::new(), Vec::new());
    for _ in 0..11 {
        run_grid_streamed_in(&grid, ExperimentScale::Smoke, base_seed, store, &[], |_| {
            Ok(())
        })
        .map_err(fail("parallel smoke grid"))?;
        let stats = rayon::last_run_stats().ok_or("no scheduler stats recorded")?;
        steals.push(stats.steals as f64);
        let busy = &stats.per_worker_busy_s;
        let longest = busy.iter().copied().fold(0.0, f64::max);
        let shortest = busy.iter().copied().fold(longest, f64::min);
        tails.push((longest - shortest) * 1e3);
    }
    metrics.insert("rayon.steals", median(&steals));
    metrics.insert("rayon.idle_tail_ms", median(&tails));
    if missing > 0 || store.stats().trained != after.trained {
        return Err("warm-store probes trained or failed to fetch a pair".to_string());
    }
    server.stop()
}

/// Median time of `get_or_train` on a fresh `with_dir` store over a
/// directory a first store has already written the pair to.
fn disk_load_ms(dir: &Path, request: &berry_core::PairRequest) -> Result<f64, String> {
    let warm = PolicyStore::with_dir(dir).map_err(fail("store dir"))?;
    warm.get_or_train(request).map_err(fail("warm store"))?;
    let mut loads = Vec::new();
    for _ in 0..11 {
        let fresh = PolicyStore::with_dir(dir).map_err(fail("store dir"))?;
        let started = Instant::now();
        fresh.get_or_train(request).map_err(fail("disk load"))?;
        loads.push(started.elapsed().as_secs_f64() * 1e3);
        if fresh.stats().disk_hits != 1 {
            return Err("fresh store did not load the pair from disk".to_string());
        }
    }
    Ok(median(&loads))
}
