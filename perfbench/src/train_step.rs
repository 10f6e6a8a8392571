//! `train_step`: one C3F2 pair update per op — a Classical DQN update and
//! a BERRY dual-pass update, each on its own replay batch — run back to
//! back on one thread, exactly the two calls that make up nearly all of a
//! Quick campaign's training time.

use crate::fail;
use crate::harness::Workload;
use crate::trace::Tracer;
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::NetworkPerturber;
use berry_core::robust::{berry_update_step_with_scratch, DualPassScratch};
use berry_faults::chip::ChipProfile;
use berry_rl::dqn::DqnAgent;
use berry_rl::env::{Environment, Transition};
use berry_rl::policy::QNetworkSpec;
use berry_rl::replay::ReplayBuffer;
use berry_uav::env::NavigationEnv;
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The BERRY training bit-error rate (the paper's p = 0.5 %).
pub const TRAIN_BER: f64 = 0.005;
/// Transitions collected into the replay buffer during set-up.
const FILL_TRANSITIONS: usize = 2_048;
/// Pair updates run during set-up, before the weight digest is taken, so
/// the timed window starts with warm scratch buffers.
const WARM_OPS: u64 = 3;

/// Fills a replay buffer with ε = 1 (uniformly random action) transitions
/// of the Quick navigation task — what Quick training stores while ε is
/// still near 1.
///
/// # Errors
///
/// Returns a message if the buffer cannot be built.
pub fn fill_replay(
    env: &mut NavigationEnv,
    transitions: usize,
    rng: &mut StdRng,
) -> Result<ReplayBuffer, String> {
    let max_steps = ExperimentScale::Quick
        .trainer_config()
        .max_steps_per_episode;
    let mut buffer = ReplayBuffer::new(transitions).map_err(fail("replay buffer"))?;
    while buffer.len() < transitions {
        let mut obs = env.reset(rng);
        for _ in 0..max_steps {
            let action = rng.gen_range(0..env.num_actions());
            let outcome = env.step(action, rng);
            let done = outcome.is_terminal();
            buffer.push(Transition {
                state: obs,
                action,
                reward: outcome.reward,
                next_state: outcome.observation.clone(),
                done,
            });
            obs = outcome.observation;
            if done || buffer.len() == transitions {
                break;
            }
        }
    }
    Ok(buffer)
}

/// The Quick-scale navigation environment (medium obstacles) the training
/// workload and the layer probes draw transitions from.
///
/// # Errors
///
/// Returns a message if the configuration is rejected.
pub fn quick_env() -> Result<NavigationEnv, String> {
    NavigationEnv::new(ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium))
        .map_err(fail("navigation env"))
}

/// A seeded, untrained agent for `spec` with the Quick DQN configuration.
///
/// # Errors
///
/// Returns a message if the agent cannot be built.
pub fn quick_agent(
    spec: &QNetworkSpec,
    env: &NavigationEnv,
    rng: &mut StdRng,
) -> Result<DqnAgent, String> {
    let dqn = ExperimentScale::Quick.trainer_config().dqn;
    DqnAgent::new(spec, &env.observation_shape(), env.num_actions(), dqn, rng)
        .map_err(fail("dqn agent"))
}

/// Set-up state of the `train_step` workload.
pub struct TrainStep {
    replay: ReplayBuffer,
    classical: DqnAgent,
    berry: DqnAgent,
    perturber: NetworkPerturber,
    chip: ChipProfile,
    scratch: DualPassScratch,
    rng: StdRng,
    batch_size: usize,
    /// FNV-1a digest of both agents' weights after the warm-up updates.
    pub warm_digest: u64,
}

impl TrainStep {
    /// Builds the workload from `seed`: fills the replay buffer, creates
    /// both agents and runs the warm-up updates.
    ///
    /// # Errors
    ///
    /// Returns a message if any layer rejects its input.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = quick_env()?;
        let replay = fill_replay(&mut env, FILL_TRANSITIONS, &mut rng)?;
        let classical = quick_agent(&QNetworkSpec::C3F2, &env, &mut rng)?;
        let berry = quick_agent(&QNetworkSpec::C3F2, &env, &mut rng)?;
        let batch_size = classical.config().batch_size;
        let mut state = Self {
            replay,
            classical,
            berry,
            perturber: NetworkPerturber::new(8).map_err(fail("perturber"))?,
            chip: ChipProfile::generic(),
            scratch: DualPassScratch::new(),
            rng,
            batch_size,
            warm_digest: 0,
        };
        let mut off = Tracer::new(false);
        for index in 0..WARM_OPS {
            state.op(index, &mut off)?;
        }
        state.warm_digest = state.weight_digest();
        Ok(state)
    }

    /// FNV-1a digest over both agents' Q-network weights.
    pub fn weight_digest(&self) -> u64 {
        let bytes: Vec<u8> = [self.classical.q_net(), self.berry.q_net()]
            .iter()
            .flat_map(|net| net.to_flat_weights())
            .flat_map(f32::to_le_bytes)
            .collect();
        berry_core::seed::fnv1a64_bytes(&bytes)
    }

    fn pair_update(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let (replay, rng, size) = (&self.replay, &mut self.rng, self.batch_size);
        let batch = tracer
            .span("rl.replay.sample_us", || replay.sample(size, rng))
            .map_err(fail("replay sample"))?;
        let classical = &mut self.classical;
        let classical_loss = tracer
            .span("rl.dqn.update_ms", || classical.train_on_batch(&batch))
            .map_err(fail("classical update"))?;

        let batch = tracer
            .span("rl.replay.sample_us", || replay.sample(size, rng))
            .map_err(fail("replay sample"))?;
        let (perturber, chip, berry) = (&self.perturber, &self.chip, &mut self.berry);
        let map = tracer
            .span("faults.sample_map_us", || {
                perturber.sample_fault_map(berry.q_net(), chip, TRAIN_BER, rng)
            })
            .map_err(fail("fault map"))?;
        tracer.sample("faults.flips_per_map", map.len() as f64);
        let scratch = &mut self.scratch;
        let (clean_loss, perturbed_loss) = tracer
            .span("core.robust.update_ms", || {
                berry_update_step_with_scratch(berry, &batch, perturber, &map, scratch)
            })
            .map_err(fail("berry update"))?;

        for (what, loss) in [
            ("classical", classical_loss),
            ("berry clean", clean_loss),
            ("berry perturbed", perturbed_loss),
        ] {
            if !loss.is_finite() {
                return Err(format!("{what} loss is not finite: {loss}"));
            }
        }
        Ok(1)
    }
}

impl Workload for TrainStep {
    /// Nearly all of a pair update is the reference GEMM's tiles, the
    /// pattern of the host probe.
    const HOST_SCALED: bool = true;

    fn ops_per_block(&self) -> usize {
        8
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<u64, String> {
        let op = tracer.begin_op(index);
        let result = self.pair_update(tracer);
        tracer.end(op);
        result
    }
}
