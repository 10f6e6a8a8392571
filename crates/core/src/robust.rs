//! The BERRY robust error-aware training framework (paper Algorithm 1).
//!
//! Every optimizer step runs two passes over the same replay mini-batch:
//!
//! 1. a **clean pass** — the standard DQN TD loss through the unperturbed
//!    Q-network `θ` and target network `θ⁻`, producing gradient `∆`;
//! 2. a **perturbed pass** — the same loss through bit-error-perturbed
//!    copies `˜θ = BErr_p(θ)` and `˜θ⁻ = BErr_p(θ⁻)`, producing gradient
//!    `˜∆`;
//!
//! and then applies a single update `θ ← θ − α(∆ + ˜∆)` (line 19).  In the
//! paper's **offline** mode a fresh random fault map at training rate `p`
//! is drawn every step (so the policy generalizes across chips and
//! voltages); in the **on-device** mode the *same* persistent fault map —
//! the one the deployed chip actually exhibits at its operating voltage —
//! is used for every step, specializing the policy to that chip.

use crate::error::CoreError;
use crate::perturb::{NetworkPerturber, PerturbContext, PerturbScratch};
use crate::Result;
use berry_faults::chip::ChipProfile;
use berry_faults::fault_map::FaultMap;
use berry_nn::network::Sequential;
use berry_rl::dqn::{accumulate_td_gradients, DqnAgent};
use berry_rl::env::{Environment, Transition};
use berry_rl::policy::QNetworkSpec;
use berry_rl::replay::ReplayBuffer;
use berry_rl::trainer::{TrainerConfig, TrainingReport};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where the bit errors injected during training come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LearningMode {
    /// Offline learning on error-free hardware: inject a *fresh random*
    /// fault map at bit-error rate `train_ber` each step (paper Fig. 4,
    /// left).
    Offline {
        /// Training bit-error rate as a fraction (the paper trains at
        /// `p = 0.5 %`, i.e. `0.005`).
        train_ber: f64,
    },
    /// On-device learning on the low-voltage chip itself: the same
    /// persistent fault map (drawn once from the chip at `voltage_norm`)
    /// perturbs every step (paper Fig. 4, right).
    OnDevice {
        /// Normalized operating voltage (Vmin units) of the device during
        /// learning and deployment.
        voltage_norm: f64,
    },
}

impl LearningMode {
    /// Convenience constructor for offline learning.
    pub fn offline(train_ber: f64) -> Self {
        LearningMode::Offline { train_ber }
    }

    /// Convenience constructor for on-device learning.
    pub fn on_device(voltage_norm: f64) -> Self {
        LearningMode::OnDevice { voltage_norm }
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            LearningMode::Offline { .. } => "offline",
            LearningMode::OnDevice { .. } => "on-device",
        }
    }
}

/// Configuration of a BERRY training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BerryConfig {
    /// Episode-level training hyper-parameters (shared with the classical
    /// baseline so comparisons are apples-to-apples).
    pub trainer: TrainerConfig,
    /// Offline vs on-device learning.
    pub mode: LearningMode,
    /// Chip profile supplying the spatial fault pattern and flip bias.
    pub chip: ChipProfile,
    /// Quantization width used for fault injection (the paper uses 8).
    pub quant_bits: u8,
}

impl Default for BerryConfig {
    fn default() -> Self {
        Self {
            trainer: TrainerConfig::default(),
            mode: LearningMode::offline(0.005),
            chip: ChipProfile::generic(),
            quant_bits: 8,
        }
    }
}

impl BerryConfig {
    /// A small configuration for fast tests and smoke runs.
    pub fn smoke_test() -> Self {
        Self {
            trainer: TrainerConfig::smoke_test(),
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid rates, voltages or
    /// trainer settings.
    pub fn validate(&self) -> Result<()> {
        self.trainer.validate().map_err(CoreError::from)?;
        match self.mode {
            LearningMode::Offline { train_ber } => {
                if !(0.0..=1.0).contains(&train_ber) || !train_ber.is_finite() {
                    return Err(CoreError::InvalidConfig(format!(
                        "training bit-error rate must lie in [0, 1], got {train_ber}"
                    )));
                }
            }
            LearningMode::OnDevice { voltage_norm } => {
                // Validate through the chip's BER curve.
                self.chip
                    .ber_at_voltage(voltage_norm)
                    .map_err(CoreError::from)?;
            }
        }
        if self.quant_bits == 0 || self.quant_bits > 8 {
            return Err(CoreError::InvalidConfig(format!(
                "quantization width must be in 1..=8, got {}",
                self.quant_bits
            )));
        }
        Ok(())
    }
}

/// The result of a BERRY training run.
#[derive(Debug, Clone)]
pub struct BerryOutcome {
    /// The trained agent (clean weights; quantize/perturb for deployment).
    pub agent: DqnAgent,
    /// Episode-level training statistics.
    pub report: TrainingReport,
    /// The persistent fault map used during on-device learning, if any —
    /// deployment on the *same* chip should reuse it.
    pub ondevice_fault_map: Option<FaultMap>,
    /// Number of dual-pass optimizer steps performed (equals the number of
    /// perturbed forward/backward passes).
    pub robust_updates: u64,
}

/// Reusable quantize/perturb state for the dual-pass update: one
/// quantize-once [`PerturbContext`] (plus its scratch network) per network
/// being perturbed.
///
/// The Q-network's weights change on every optimizer step, so each step
/// re-quantizes it — through [`PerturbContext::refresh`], which reuses the
/// byte images, scratch `Sequential`s and activation buffers instead of
/// reallocating them on every one of the run's thousands of updates.  The
/// target network changes only when it is synchronized, so its image is
/// re-quantized only when [`DqnAgent::target_generation`] moved.
#[derive(Debug, Default)]
pub struct DualPassScratch {
    q: Option<(PerturbContext, PerturbScratch)>,
    target: Option<(PerturbContext, PerturbScratch)>,
    /// The target generation the target slot's image was quantized from.
    target_generation: Option<u64>,
}

impl DualPassScratch {
    /// Creates an empty scratch; contexts are built on the first update.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refreshes one slot's context from the current clean weights (unless
    /// `stale` is false: the image already holds them) and injects the
    /// fault map into its scratch network.
    fn perturb_slot(
        slot: &mut Option<(PerturbContext, PerturbScratch)>,
        net: &Sequential,
        stale: bool,
        bits: u8,
        map: &FaultMap,
    ) -> Result<()> {
        if let Some((context, scratch)) = slot {
            if stale {
                context.refresh(net)?;
            }
            context.perturb_map_into(map, scratch)?;
        } else {
            let context = PerturbContext::new(net, bits)?;
            let mut scratch = context.checkout();
            context.perturb_map_into(map, &mut scratch)?;
            *slot = Some((context, scratch));
        }
        Ok(())
    }
}

/// One BERRY dual-pass gradient update on a replay mini-batch.
///
/// Exposed so ablation studies can call it directly; regular users should
/// prefer [`train_berry`].  This convenience wrapper allocates its own
/// [`DualPassScratch`]; the training loop reuses one across all updates via
/// [`berry_update_step_with_scratch`].
///
/// # Errors
///
/// Returns an error if the batch is malformed or perturbation fails.
pub fn berry_update_step(
    agent: &mut DqnAgent,
    batch: &[Transition],
    perturber: &NetworkPerturber,
    fault_map: &FaultMap,
) -> Result<(f32, f32)> {
    let mut scratch = DualPassScratch::new();
    berry_update_step_with_scratch(agent, batch, perturber, fault_map, &mut scratch)
}

/// [`berry_update_step`] with caller-owned quantize/perturb scratch, so the
/// per-step perturbed copies `˜θ` and `˜θ⁻` reuse their byte images and
/// networks across updates.
///
/// # Errors
///
/// Returns an error if the batch is malformed or perturbation fails.
pub fn berry_update_step_with_scratch(
    agent: &mut DqnAgent,
    batch: &[Transition],
    perturber: &NetworkPerturber,
    fault_map: &FaultMap,
    scratch: &mut DualPassScratch,
) -> Result<(f32, f32)> {
    let observation_shape = agent.observation_shape().to_vec();
    let num_actions = agent.num_actions();
    let gamma = agent.config().gamma;

    // Perturbed copies ˜θ and ˜θ⁻ (line 15), through the quantize-once
    // byte-image pipeline: θ is re-quantized because it moved last step,
    // θ⁻ only when it was synchronized (or otherwise changed) since.
    DualPassScratch::perturb_slot(&mut scratch.q, agent.q_net(), true, perturber.bits(), fault_map)?;
    let generation = Some(agent.target_generation());
    let target_stale = scratch.target_generation != generation;
    scratch.target_generation = None;
    DualPassScratch::perturb_slot(
        &mut scratch.target,
        agent.target_net(),
        target_stale,
        perturber.bits(),
        fault_map,
    )?;
    scratch.target_generation = generation;

    let (_, q_scratch) = scratch
        .q
        .as_mut()
        .ok_or_else(|| CoreError::Internal("q scratch slot not prepared".to_string()))?;
    let (_, target_scratch) = scratch
        .target
        .as_mut()
        .ok_or_else(|| CoreError::Internal("target scratch slot not prepared".to_string()))?;

    // Clean pass: accumulate ∆ in the agent's Q-network (lines 11-13).
    // Both passes run Q(s′) through the target slot's inference scratch.
    agent.q_net_mut().zero_grad();
    let clean_loss = {
        let (q_net, target_net) = agent.q_net_mut_with_target();
        let (_, infer) = target_scratch.network_and_infer();
        accumulate_td_gradients(
            q_net,
            target_net,
            batch,
            &observation_shape,
            num_actions,
            gamma,
            infer,
        )?
    };

    // Perturbed pass: accumulate ˜∆ in the perturbed copy (lines 14-17).
    let q_perturbed = q_scratch.network_mut();
    let (target_perturbed, infer) = target_scratch.network_and_infer();
    q_perturbed.zero_grad();
    let perturbed_loss = accumulate_td_gradients(
        q_perturbed,
        target_perturbed,
        batch,
        &observation_shape,
        num_actions,
        gamma,
        infer,
    )?;

    // θ ← θ − α(∆ + ˜∆) (line 19); target sync every C steps (line 21).
    agent
        .q_net_mut()
        .add_gradients_from(q_perturbed, 1.0)
        .map_err(CoreError::from)?;
    agent.apply_accumulated_gradients();
    Ok((clean_loss, perturbed_loss))
}

/// Trains a bit-error-robust DQN policy with BERRY's dual-pass update.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or training fails.
pub fn train_berry<E: Environment, R: Rng>(
    env: &mut E,
    spec: &QNetworkSpec,
    config: &BerryConfig,
    rng: &mut R,
) -> Result<BerryOutcome> {
    train_berry_with_fault_map(env, spec, config, rng)
}

/// Continues BERRY training on an existing agent.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or training fails.
pub fn continue_berry_training<E: Environment, R: Rng>(
    env: &mut E,
    agent: &mut DqnAgent,
    config: &BerryConfig,
    rng: &mut R,
) -> Result<TrainingReport> {
    Ok(run_berry_loop(env, agent, config, rng)?.0)
}

/// Trains with BERRY and also returns the persistent on-device fault map
/// (when the mode is on-device), so deployment can target the same chip.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or training fails.
pub fn train_berry_with_fault_map<E: Environment, R: Rng>(
    env: &mut E,
    spec: &QNetworkSpec,
    config: &BerryConfig,
    rng: &mut R,
) -> Result<BerryOutcome> {
    config.validate()?;
    let mut agent = DqnAgent::new(
        spec,
        &env.observation_shape(),
        env.num_actions(),
        config.trainer.dqn,
        rng,
    )?;
    let (report, map) = run_berry_loop(env, &mut agent, config, rng)?;
    Ok(BerryOutcome {
        robust_updates: agent.train_steps(),
        report,
        ondevice_fault_map: map,
        agent,
    })
}

fn run_berry_loop<E: Environment, R: Rng>(
    env: &mut E,
    agent: &mut DqnAgent,
    config: &BerryConfig,
    rng: &mut R,
) -> Result<(TrainingReport, Option<FaultMap>)> {
    config.validate()?;
    let perturber = NetworkPerturber::new(config.quant_bits)?;
    let memory_bits = perturber.memory_bits(agent.q_net());

    // On-device mode: one persistent fault map for the whole run.
    let persistent_map = match config.mode {
        LearningMode::OnDevice { voltage_norm } => Some(
            config
                .chip
                .fault_map_at_voltage(rng, memory_bits, voltage_norm)?,
        ),
        LearningMode::Offline { .. } => None,
    };

    let mut buffer = ReplayBuffer::new(config.trainer.buffer_capacity)?;
    let mut dual_scratch = DualPassScratch::new();
    // One warm scratch for every ε-greedy action selection of the run; the
    // dual-pass scratch already covers the perturbed training passes.
    let mut infer_scratch = berry_nn::network::InferScratch::new();
    let mut episode_returns = Vec::with_capacity(config.trainer.episodes);
    let mut episode_successes = Vec::with_capacity(config.trainer.episodes);
    let mut losses = Vec::new();
    let mut env_steps = 0u64;

    for _ in 0..config.trainer.episodes {
        let mut obs = env.reset(rng);
        let mut episode_return = 0.0f32;
        let mut success = false;
        for _ in 0..config.trainer.max_steps_per_episode {
            let epsilon = config.trainer.epsilon.value(env_steps);
            let action = agent.act_epsilon_with_scratch(&obs, epsilon, rng, &mut infer_scratch);
            let outcome = env.step(action, rng);
            episode_return += outcome.reward;
            buffer.push(Transition {
                state: obs.clone(),
                action,
                reward: outcome.reward,
                next_state: outcome.observation.clone(),
                done: outcome.is_terminal(),
            });
            obs = outcome.observation;
            env_steps += 1;

            let ready = buffer.len()
                >= config
                    .trainer
                    .learning_starts
                    .max(config.trainer.dqn.batch_size);
            if ready && env_steps.is_multiple_of(config.trainer.train_every as u64) {
                let batch = buffer.sample(config.trainer.dqn.batch_size, rng)?;
                let fault_map = match (&config.mode, &persistent_map) {
                    (LearningMode::Offline { train_ber }, _) => {
                        perturber.sample_fault_map(agent.q_net(), &config.chip, *train_ber, rng)?
                    }
                    (LearningMode::OnDevice { .. }, Some(map)) => map.clone(),
                    (LearningMode::OnDevice { .. }, None) => {
                        return Err(CoreError::Internal(
                            "on-device mode reached a train step with no persistent fault map"
                                .to_string(),
                        ))
                    }
                };
                let (clean_loss, perturbed_loss) = berry_update_step_with_scratch(
                    agent,
                    &batch,
                    &perturber,
                    &fault_map,
                    &mut dual_scratch,
                )?;
                losses.push(0.5 * (clean_loss + perturbed_loss));
            }

            if let Some(terminal) = outcome.terminal {
                success = terminal.is_success();
                break;
            }
        }
        episode_returns.push(episode_return);
        episode_successes.push(success);
    }

    Ok((
        TrainingReport {
            episode_returns,
            episode_successes,
            losses,
            total_env_steps: env_steps,
            total_train_steps: agent.train_steps(),
        },
        persistent_map,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use berry_nn::tensor::Tensor;
    use berry_rl::schedule::EpsilonSchedule;
    // The shared corridor fixture from `berry_rl::testenv` (this file's
    // historical copy used a 30-step episode budget, preserved here so the
    // training dynamics of these tests are unchanged).
    use berry_rl::testenv::Corridor;
    use rand::SeedableRng;

    fn corridor(length: i32) -> Corridor {
        Corridor::with_timeout(length, 30)
    }

    fn small_config(mode: LearningMode, episodes: usize) -> BerryConfig {
        BerryConfig {
            trainer: TrainerConfig {
                episodes,
                max_steps_per_episode: 30,
                buffer_capacity: 4_000,
                learning_starts: 48,
                train_every: 1,
                epsilon: EpsilonSchedule::new(1.0, 0.05, 600).unwrap(),
                dqn: berry_rl::dqn::DqnConfig {
                    gamma: 0.9,
                    learning_rate: 2e-3,
                    batch_size: 16,
                    target_sync_every: 50,
                    grad_clip: 1.0,
                },
            },
            mode,
            chip: ChipProfile::generic(),
            quant_bits: 8,
        }
    }

    #[test]
    fn config_validation_catches_bad_values() {
        assert!(BerryConfig::default().validate().is_ok());
        assert!(BerryConfig {
            mode: LearningMode::offline(1.5),
            ..BerryConfig::default()
        }
        .validate()
        .is_err());
        assert!(BerryConfig {
            mode: LearningMode::on_device(0.1),
            ..BerryConfig::default()
        }
        .validate()
        .is_err());
        assert!(BerryConfig {
            quant_bits: 0,
            ..BerryConfig::default()
        }
        .validate()
        .is_err());
        assert_eq!(LearningMode::offline(0.01).label(), "offline");
        assert_eq!(LearningMode::on_device(0.8).label(), "on-device");
    }

    #[test]
    fn offline_berry_learns_the_corridor() {
        let mut env = corridor(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = small_config(LearningMode::offline(0.005), 120);
        let outcome =
            train_berry(&mut env, &QNetworkSpec::mlp(vec![24]), &config, &mut rng).unwrap();
        assert!(outcome.robust_updates > 0);
        assert!(!outcome.report.losses.is_empty());
        // The greedy policy solves the corridor.
        let agent = outcome.agent;
        let mut eval_env = corridor(4);
        let mut obs = eval_env.reset(&mut rng);
        let mut reached = false;
        for _ in 0..10 {
            let action = agent.act_greedy(&obs);
            let o = eval_env.step(action, &mut rng);
            obs = o.observation;
            if let Some(t) = o.terminal {
                reached = t.is_success();
                break;
            }
        }
        assert!(reached, "BERRY-trained policy failed the corridor");
    }

    #[test]
    fn ondevice_mode_returns_a_persistent_fault_map() {
        let mut env = corridor(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = small_config(LearningMode::on_device(0.72), 40);
        let outcome = train_berry_with_fault_map(
            &mut env,
            &QNetworkSpec::mlp(vec![16]),
            &config,
            &mut rng,
        )
        .unwrap();
        let map = outcome.ondevice_fault_map.expect("on-device map present");
        assert!(!map.is_empty(), "0.72 Vmin should produce bit errors");
        assert_eq!(
            map.total_bits(),
            outcome.agent.q_net().param_count() * 8
        );
    }

    #[test]
    fn offline_mode_has_no_persistent_fault_map() {
        let mut env = corridor(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = small_config(LearningMode::offline(0.01), 30);
        let outcome = train_berry_with_fault_map(
            &mut env,
            &QNetworkSpec::mlp(vec![16]),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(outcome.ondevice_fault_map.is_none());
    }

    #[test]
    fn berry_update_step_changes_weights_and_reports_two_losses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut agent = DqnAgent::new(
            &QNetworkSpec::mlp(vec![16]),
            &[1],
            2,
            berry_rl::dqn::DqnConfig::default(),
            &mut rng,
        )
        .unwrap();
        let perturber = NetworkPerturber::new(8).unwrap();
        let map = perturber
            .sample_fault_map(agent.q_net(), &ChipProfile::generic(), 0.02, &mut rng)
            .unwrap();
        let batch: Vec<Transition> = (0..8)
            .map(|i| Transition {
                state: Tensor::from_vec(vec![1], vec![i as f32 / 8.0]).unwrap(),
                action: i % 2,
                reward: if i % 2 == 0 { 1.0 } else { -1.0 },
                next_state: Tensor::from_vec(vec![1], vec![(i + 1) as f32 / 8.0]).unwrap(),
                done: i == 7,
            })
            .collect();
        let before = agent.q_net().to_flat_weights();
        let (clean, perturbed) = berry_update_step(&mut agent, &batch, &perturber, &map).unwrap();
        assert!(clean.is_finite() && perturbed.is_finite());
        assert_ne!(agent.q_net().to_flat_weights(), before);
        assert_eq!(agent.train_steps(), 1);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_target_syncs() {
        // The target image is re-quantized only when the target moves; a
        // scratch reused across syncs must give the same bits as a fresh
        // scratch (which always quantizes the current target).
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = berry_rl::dqn::DqnConfig {
            target_sync_every: 3,
            ..Default::default()
        };
        let mut reused = DqnAgent::new(&QNetworkSpec::mlp(vec![16]), &[1], 2, config, &mut rng)
            .unwrap();
        let mut fresh = reused.clone();
        let perturber = NetworkPerturber::new(8).unwrap();
        let batch: Vec<Transition> = (0..8)
            .map(|i| Transition {
                state: Tensor::from_vec(vec![1], vec![i as f32 / 8.0]).unwrap(),
                action: i % 2,
                reward: if i % 3 == 0 { 1.0 } else { -0.5 },
                next_state: Tensor::from_vec(vec![1], vec![(i + 1) as f32 / 8.0]).unwrap(),
                done: i == 7,
            })
            .collect();
        let mut scratch = DualPassScratch::new();
        let bits = |agent: &DqnAgent| -> Vec<u32> {
            agent.q_net().to_flat_weights().iter().map(|v| v.to_bits()).collect()
        };
        for step in 0..11 {
            if step == 7 {
                // A target edited in place must be picked up too.
                for agent in [&mut reused, &mut fresh] {
                    agent.target_net_mut().params_mut()[0].data_mut()[0] += 0.25;
                }
            }
            let map = perturber
                .sample_fault_map(reused.q_net(), &ChipProfile::generic(), 0.02, &mut rng)
                .unwrap();
            let a = berry_update_step_with_scratch(&mut reused, &batch, &perturber, &map, &mut scratch)
                .unwrap();
            let b = berry_update_step(&mut fresh, &batch, &perturber, &map).unwrap();
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "clean loss at step {step}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "perturbed loss at step {step}");
            assert_eq!(bits(&reused), bits(&fresh), "weights after step {step}");
        }
    }

    #[test]
    fn smoke_test_config_is_valid() {
        assert!(BerryConfig::smoke_test().validate().is_ok());
    }
}
