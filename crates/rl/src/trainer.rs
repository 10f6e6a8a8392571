//! Classical (non-robust) DQN training loop — the paper's baseline policy.

use crate::dqn::{DqnAgent, DqnConfig};
use crate::env::{Environment, Transition};
use crate::error::RlError;
use crate::policy::QNetworkSpec;
use crate::replay::ReplayBuffer;
use crate::schedule::EpsilonSchedule;
use crate::Result;
use berry_nn::network::InferScratch;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the episode-level training loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of training episodes E.
    pub episodes: usize,
    /// Maximum environment steps per episode T.
    pub max_steps_per_episode: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Environment steps to collect before learning starts.
    pub learning_starts: usize,
    /// Run one optimizer step every this many environment steps.
    pub train_every: usize,
    /// ε-greedy exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Agent-level hyper-parameters (γ, α, batch size, target sync).
    pub dqn: DqnConfig,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            episodes: 300,
            max_steps_per_episode: 60,
            buffer_capacity: 20_000,
            learning_starts: 200,
            train_every: 1,
            epsilon: EpsilonSchedule::default(),
            dqn: DqnConfig::default(),
        }
    }
}

impl TrainerConfig {
    /// A small configuration for fast unit tests and smoke runs.
    pub fn smoke_test() -> Self {
        Self {
            episodes: 30,
            max_steps_per_episode: 30,
            buffer_capacity: 2_000,
            learning_starts: 50,
            train_every: 1,
            epsilon: EpsilonSchedule::new(1.0, 0.1, 500).expect("valid schedule"),
            dqn: DqnConfig {
                batch_size: 16,
                target_sync_every: 50,
                ..DqnConfig::default()
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for zero-valued counts.
    pub fn validate(&self) -> Result<()> {
        if self.episodes == 0 || self.max_steps_per_episode == 0 {
            return Err(RlError::InvalidConfig(
                "episodes and max_steps_per_episode must be positive".into(),
            ));
        }
        if self.train_every == 0 {
            return Err(RlError::InvalidConfig("train_every must be positive".into()));
        }
        self.dqn.validate()
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Undiscounted return of every episode, in order.
    pub episode_returns: Vec<f32>,
    /// Whether each episode reached the goal.
    pub episode_successes: Vec<bool>,
    /// TD loss of every optimizer step (may be empty if learning never
    /// started).
    pub losses: Vec<f32>,
    /// Total environment steps taken.
    pub total_env_steps: u64,
    /// Total optimizer steps taken.
    pub total_train_steps: u64,
}

impl TrainingReport {
    /// Success rate over the last `window` episodes (or all episodes if
    /// fewer were run).
    pub fn recent_success_rate(&self, window: usize) -> f64 {
        if self.episode_successes.is_empty() {
            return 0.0;
        }
        let n = window.min(self.episode_successes.len()).max(1);
        let tail = &self.episode_successes[self.episode_successes.len() - n..];
        tail.iter().filter(|&&s| s).count() as f64 / n as f64
    }

    /// Mean undiscounted return over the last `window` episodes.
    pub fn recent_mean_return(&self, window: usize) -> f64 {
        if self.episode_returns.is_empty() {
            return 0.0;
        }
        let n = window.min(self.episode_returns.len()).max(1);
        let tail = &self.episode_returns[self.episode_returns.len() - n..];
        tail.iter().map(|&r| r as f64).sum::<f64>() / n as f64
    }
}

/// Runs one episode with ε-greedy exploration, pushing transitions into the
/// replay buffer and training the agent.  Returns `(return, success, steps)`.
#[allow(clippy::too_many_arguments)]
fn run_training_episode<E: Environment, R: Rng>(
    env: &mut E,
    agent: &mut DqnAgent,
    buffer: &mut ReplayBuffer,
    config: &TrainerConfig,
    env_steps: &mut u64,
    losses: &mut Vec<f32>,
    rng: &mut R,
    infer: &mut InferScratch,
) -> Result<(f32, bool, usize)> {
    let mut obs = env.reset(rng);
    let mut episode_return = 0.0f32;
    let mut success = false;
    let mut steps = 0usize;
    for _ in 0..config.max_steps_per_episode {
        let epsilon = config.epsilon.value(*env_steps);
        let action = agent.act_epsilon(&obs, epsilon, rng, infer);
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
        *env_steps += 1;
        steps += 1;

        if buffer.len() >= config.learning_starts.max(config.dqn.batch_size)
            && (*env_steps).is_multiple_of(config.train_every as u64)
        {
            let batch = buffer.sample(config.dqn.batch_size, rng)?;
            losses.push(agent.train_on_batch(&batch)?);
        }

        if let Some(terminal) = outcome.terminal {
            success = terminal.is_success();
            break;
        }
    }
    Ok((episode_return, success, steps))
}

/// Trains a classical DQN agent on `env` from scratch.
///
/// This is the "Classical" baseline of the paper's Tables I–II and Figs. 3
/// and 5: standard Deep-Q-Learning with no bit-error injection.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or training encounters a
/// malformed batch.
pub fn train_classical<E: Environment, R: Rng>(
    env: &mut E,
    spec: &QNetworkSpec,
    config: &TrainerConfig,
    rng: &mut R,
) -> Result<(DqnAgent, TrainingReport)> {
    config.validate()?;
    let mut agent = DqnAgent::new(
        spec,
        &env.observation_shape(),
        env.num_actions(),
        config.dqn,
        rng,
    )?;
    let report = continue_training(env, &mut agent, config, rng)?;
    Ok((agent, report))
}

/// Continues training an existing agent (used for fine-tuning experiments).
///
/// # Errors
///
/// Returns an error if the configuration is invalid or training encounters a
/// malformed batch.
pub fn continue_training<E: Environment, R: Rng>(
    env: &mut E,
    agent: &mut DqnAgent,
    config: &TrainerConfig,
    rng: &mut R,
) -> Result<TrainingReport> {
    config.validate()?;
    let mut buffer = ReplayBuffer::new(config.buffer_capacity)?;
    let mut episode_returns = Vec::with_capacity(config.episodes);
    let mut episode_successes = Vec::with_capacity(config.episodes);
    let mut losses = Vec::new();
    let mut env_steps = 0u64;
    // One warm inference scratch serves every ε-greedy action selection of
    // the run — action selection goes through the shared GEMM inference
    // core without per-step allocation.
    let mut infer = InferScratch::new();
    for _ in 0..config.episodes {
        let (ret, success, _steps) = run_training_episode(
            env,
            agent,
            &mut buffer,
            config,
            &mut env_steps,
            &mut losses,
            rng,
            &mut infer,
        )?;
        episode_returns.push(ret);
        episode_successes.push(success);
    }
    Ok(TrainingReport {
        episode_returns,
        episode_successes,
        losses,
        total_env_steps: env_steps,
        total_train_steps: agent.train_steps(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // The corridor fixture lives in `crate::testenv` so `berry-core`'s
    // robust-trainer tests exercise the identical MDP (it used to be
    // copy-pasted in both places).  `Corridor::new` keeps this file's
    // historical 40-step episode budget.
    use crate::testenv::Corridor;
    use rand::SeedableRng;

    #[test]
    fn classical_training_learns_the_corridor() {
        let mut env = Corridor::new(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = TrainerConfig {
            episodes: 200,
            max_steps_per_episode: 40,
            buffer_capacity: 5_000,
            learning_starts: 64,
            train_every: 1,
            epsilon: EpsilonSchedule::new(1.0, 0.02, 1_000).unwrap(),
            dqn: DqnConfig {
                gamma: 0.9,
                learning_rate: 2e-3,
                batch_size: 32,
                target_sync_every: 100,
                grad_clip: 1.0,
            },
        };
        let (agent, report) =
            train_classical(&mut env, &QNetworkSpec::mlp(vec![24]), &config, &mut rng).unwrap();
        // Exploration noise keeps the on-policy success rate below 100 %, but
        // the trend must be clearly upward by the end of training.
        assert!(
            report.recent_success_rate(40) > 0.6,
            "success rate {} too low",
            report.recent_success_rate(40)
        );
        // The greedy policy must solve the corridor outright.
        let mut eval_env = Corridor::new(4);
        let mut obs = eval_env.reset(&mut rng);
        let mut reached_goal = false;
        let mut scratch = InferScratch::new();
        for _ in 0..10 {
            let action = agent.act_greedy(&obs, &mut scratch);
            let outcome = eval_env.step(action, &mut rng);
            obs = outcome.observation;
            if let Some(t) = outcome.terminal {
                reached_goal = t.is_success();
                break;
            }
        }
        assert!(reached_goal, "greedy policy failed to reach the corridor end");
        assert!(report.total_train_steps > 0);
        assert!(!report.losses.is_empty());
    }

    #[test]
    fn report_statistics_handle_short_histories() {
        let report = TrainingReport {
            episode_returns: vec![1.0, 2.0],
            episode_successes: vec![false, true],
            losses: vec![],
            total_env_steps: 10,
            total_train_steps: 0,
        };
        assert_eq!(report.recent_success_rate(100), 0.5);
        assert_eq!(report.recent_mean_return(1), 2.0);
        let empty = TrainingReport {
            episode_returns: vec![],
            episode_successes: vec![],
            losses: vec![],
            total_env_steps: 0,
            total_train_steps: 0,
        };
        assert_eq!(empty.recent_success_rate(10), 0.0);
        assert_eq!(empty.recent_mean_return(10), 0.0);
    }

    #[test]
    fn invalid_trainer_config_is_rejected() {
        let mut env = Corridor::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bad = TrainerConfig {
            episodes: 0,
            ..TrainerConfig::smoke_test()
        };
        assert!(train_classical(&mut env, &QNetworkSpec::mlp(vec![8]), &bad, &mut rng).is_err());
        let bad2 = TrainerConfig {
            train_every: 0,
            ..TrainerConfig::smoke_test()
        };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn smoke_test_config_is_valid_and_fast() {
        let cfg = TrainerConfig::smoke_test();
        assert!(cfg.validate().is_ok());
        assert!(cfg.episodes <= 50);
    }
}
