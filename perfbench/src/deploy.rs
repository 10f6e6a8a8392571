//! `deploy_rollout`: one fault map of deploy-time evaluation per op, the
//! step the campaign engine's sharded evaluation (`evaluate_one_fault_map`
//! behind `evaluate_under_faults_seeded`) repeats for every map: sample a
//! fault map at the cell's deploy bit-error rate, inject it into a pooled
//! copy of the quantized policy, and roll out greedy episodes over the
//! dequantized network on the batched lockstep engine.  The op rolls out
//! 32 episodes over 8 lanes, the `rl.rollout.steps_per_s` shape, so its
//! inference runs at batch 8.  Also home of the grid-cell helpers the
//! layer probes share.

use crate::fail;
use crate::harness::Workload;
use crate::trace::Tracer;
use berry_core::evaluate::{
    evaluate_under_faults_seeded, evaluate_under_faults_serial, FaultEvaluationConfig,
    MissionContext,
};
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::{NetworkPerturber, PerturbContext};
use berry_core::scenario::Scenario;
use berry_hw::accelerator::Accelerator;
use berry_nn::network::{InferScratch, Sequential};
use berry_rl::env::Environment;
use berry_rl::eval::{evaluate_policy_batched, EvalStats};
use berry_rl::policy::QNetworkSpec;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::physics::PhysicsConfig;
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Seed of the untrained policy (the campaign engine's default base
/// seed).  It is fixed rather than drawn from the workload seed: an
/// untrained policy's greedy actions decide how long its episodes last,
/// and across policy seeds the work per deploy cell varied by 3×, which
/// would swamp every timing.  The workload seed varies the fault maps and
/// the episodes.
pub const POLICY_SEED: u64 = 2023;
/// Episodes rolled out under each fault map.
const EPISODES_PER_OP: usize = 32;
/// Lockstep lanes of the batched rollout.
const LANES: usize = 8;
/// Ops run during set-up, so the timed window starts with warm scratch
/// buffers and a filled scratch pool.
const WARM_OPS: u64 = 2;

/// One grid cell, resolved once at set-up.
pub struct Cell {
    /// The cell's Quick-scale navigation environment.
    pub env: NavigationEnv,
    /// Platform, accelerator, workload and chip of the mission chain.
    pub context: MissionContext,
    /// Deploy voltage in Vmin units.
    pub voltage_norm: f64,
    /// The chip's bit-error rate at the deploy voltage.
    pub ber: f64,
}

fn resolve_cell(scenario: &Scenario) -> Result<Cell, String> {
    let scale = ExperimentScale::Quick;
    let chip = scenario.chip_profile().map_err(fail("chip"))?;
    let voltage_norm = scenario.deploy_voltage_norm();
    let ber = chip.ber_at_voltage(voltage_norm).map_err(fail("ber"))?;
    let env = NavigationEnv::new(NavigationConfig {
        variant: scenario.variant,
        ..scale.navigation_config(scenario.density)
    })
    .map_err(fail("navigation env"))?;
    let context = MissionContext {
        platform: scenario.uav_platform().map_err(fail("platform"))?,
        accelerator: Accelerator::default_edge_accelerator(),
        workload: scenario.workload().map_err(fail("workload"))?,
        chip,
        physics: PhysicsConfig::default(),
    };
    Ok(Cell {
        env,
        context,
        voltage_norm,
        ber,
    })
}

/// The first C3F2 medium-density cell of the grid: the cell of the
/// `deploy_rollout` workload and of the layer probes.
///
/// # Errors
///
/// Returns a message if the cell cannot be resolved.
pub fn quick_cell() -> Result<Cell, String> {
    let scenario = Scenario::grid()
        .into_iter()
        .find(|s| s.policy == "C3F2" && s.density == ObstacleDensity::Medium)
        .ok_or("the grid has no C3F2 medium cell")?;
    resolve_cell(&scenario)
}

/// Total environment steps behind a statistics block.
fn env_steps(stats: &EvalStats) -> u64 {
    (stats.mean_steps * stats.episodes as f64).round() as u64
}

/// Whether two statistics blocks are bitwise equal, field by field.
fn bitwise_equal(a: &EvalStats, b: &EvalStats) -> bool {
    let bits = |s: &EvalStats| {
        [
            s.success_rate,
            s.collision_rate,
            s.timeout_rate,
            s.mean_return,
            s.mean_steps,
            s.mean_distance,
            s.mean_success_distance,
        ]
        .map(f64::to_bits)
    };
    a.episodes == b.episodes && bits(a) == bits(b)
}


/// Set-up state of the `deploy_rollout` workload.
pub struct DeployRollout {
    cell: Cell,
    policy: Sequential,
    context: PerturbContext,
    config: FaultEvaluationConfig,
    rng: StdRng,
}

impl DeployRollout {
    /// Builds the workload: resolves the cell, builds the untrained C3F2
    /// policy, quantizes it once and runs the warm-up ops.  None of this
    /// depends on `seed`, which only seeds the timed ops.
    ///
    /// # Errors
    ///
    /// Returns a message if any layer rejects its input.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cell = quick_cell()?;
        let mut policy_rng = StdRng::seed_from_u64(POLICY_SEED);
        let policy = QNetworkSpec::C3F2
            .build(
                &cell.env.observation_shape(),
                cell.env.num_actions(),
                &mut policy_rng,
            )
            .map_err(fail("policy net"))?;
        let config = ExperimentScale::Quick.evaluation_config();
        let context = NetworkPerturber::new(config.quant_bits)
            .and_then(|perturber| perturber.context(&policy))
            .map_err(fail("perturb context"))?;
        let mut state = Self {
            cell,
            policy,
            context,
            config,
            rng: policy_rng,
        };
        let mut off = Tracer::new(false);
        for index in 0..WARM_OPS {
            state.op(index, &mut off)?;
        }
        state.rng = StdRng::seed_from_u64(seed);
        Ok(state)
    }

    /// Checks the evaluation paths against each other once per run:
    /// the cell's Classical statistics from `evaluate_under_faults_serial`
    /// must equal bitwise those of `evaluate_under_faults_seeded` at the
    /// default worker count (sharded == serial), and one fault map rolled
    /// out over 8 lanes must give bitwise the statistics of 1 lane.
    ///
    /// # Errors
    ///
    /// Returns a message if a path fails or two paths disagree.
    pub fn check_paths_agree(&mut self) -> Result<(), String> {
        let seed = self.rng.next_u64();
        let (cell, config) = (&self.cell, &self.config);
        let (env, chip) = (&cell.env, &cell.context.chip);
        let serial = evaluate_under_faults_serial(&self.policy, env, chip, cell.ber, config, seed)
            .map_err(fail("serial evaluation"))?;
        let sharded =
            evaluate_under_faults_seeded(&self.policy, env, chip, cell.ber, config, seed)
                .map_err(fail("sharded evaluation"))?;
        if !bitwise_equal(&serial, &sharded) {
            return Err(format!(
                "sharded statistics {sharded:?} differ from serial {serial:?}"
            ));
        }
        let map = self
            .context
            .sample_fault_map(chip, cell.ber, &mut self.rng)
            .map_err(fail("fault map"))?;
        let network = self.context.perturbed(&map).map_err(fail("perturb"))?;
        let [wide, narrow] = [LANES, 1].map(|lanes| {
            evaluate_policy_batched(
                &network,
                env,
                EPISODES_PER_OP,
                config.max_steps,
                lanes,
                seed,
                &mut InferScratch::new(),
            )
        });
        if !bitwise_equal(&wide, &narrow) {
            return Err(format!(
                "{LANES}-lane statistics {wide:?} differ from 1-lane {narrow:?}"
            ));
        }
        Ok(())
    }

    fn rollout(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let (context, cell, rng) = (&self.context, &self.cell, &mut self.rng);
        let map = tracer
            .span("faults.sample_map_us", || {
                context.sample_fault_map(&cell.context.chip, cell.ber, rng)
            })
            .map_err(fail("fault map"))?;
        tracer.sample("faults.flips_per_map", map.len() as f64);
        let map_seed = rng.next_u64();
        let mut scratch = context.checkout();
        tracer
            .span("core.perturb.inject_us", || {
                context.perturb_map_into(&map, &mut scratch)
            })
            .map_err(fail("perturb"))?;
        let (network, infer) = scratch.network_and_infer();
        let max_steps = self.config.max_steps;
        let stats = tracer.span("rl.rollout.batched_ms", || {
            evaluate_policy_batched(
                network,
                &cell.env,
                EPISODES_PER_OP,
                max_steps,
                LANES,
                map_seed,
                infer,
            )
        });
        context.checkin(scratch);

        if stats.episodes != EPISODES_PER_OP {
            return Err(format!(
                "{} episodes, expected {EPISODES_PER_OP}",
                stats.episodes
            ));
        }
        let rates = stats.success_rate + stats.collision_rate + stats.timeout_rate;
        if (rates - 1.0).abs() > 1e-9 || stats.mean_steps < 1.0 || !stats.mean_return.is_finite() {
            return Err(format!("inconsistent statistics {stats:?}"));
        }
        Ok(env_steps(&stats))
    }
}

impl Workload for DeployRollout {
    /// Nearly all of the op is batch-8 inference, whose GEMMs run in the
    /// reference kernel's 4 × 4 tiles, the pattern of the host probe.
    const HOST_SCALED: bool = true;

    fn ops_per_block(&self) -> usize {
        16
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<u64, String> {
        let op = tracer.begin_op(index);
        let result = self.rollout(tracer);
        tracer.end(op);
        result
    }
}
