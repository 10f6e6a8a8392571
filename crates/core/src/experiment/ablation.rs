//! Ablation of BERRY's dual-pass gradient (design-choice study).
//!
//! Algorithm 1 updates with the *sum* of the clean gradient `∆` and the
//! perturbed gradient `˜∆`.  Two natural ablations bracket that choice:
//!
//! * **clean-only** — ordinary DQN (the classical baseline); robust to
//!   nothing but the quantization noise floor;
//! * **perturbed-only** — training exclusively through the perturbed
//!   network, which tracks the faults seen during training but degrades
//!   error-free accuracy and destabilizes learning at higher injection
//!   rates;
//! * **dual-pass (BERRY)** — the paper's choice, keeping error-free accuracy
//!   while buying robustness.

use crate::evaluate::{evaluate_error_free_seeded, evaluate_under_faults_seeded};
use crate::experiment::{format_table, ExperimentScale};
use crate::perturb::NetworkPerturber;
use crate::robust::{BerryConfig, LearningMode};
use crate::store::{PairRequest, PolicyStore};
use crate::Result;
use berry_faults::chip::ChipProfile;
use berry_nn::network::{InferScratch, Sequential};
use berry_rl::dqn::{accumulate_td_gradients, DqnAgent};
use berry_rl::env::{Environment, Transition};
use berry_rl::replay::ReplayBuffer;
use berry_uav::env::NavigationEnv;
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// The gradient-composition variants compared by the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GradientMode {
    /// Standard DQN: clean gradient only.
    CleanOnly,
    /// Train exclusively through the bit-error-perturbed network.
    PerturbedOnly,
    /// BERRY's dual-pass sum of clean and perturbed gradients.
    DualPass,
}

impl GradientMode {
    /// All variants.
    pub fn all() -> [GradientMode; 3] {
        [
            GradientMode::CleanOnly,
            GradientMode::PerturbedOnly,
            GradientMode::DualPass,
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            GradientMode::CleanOnly => "clean-only",
            GradientMode::PerturbedOnly => "perturbed-only",
            GradientMode::DualPass => "dual-pass (BERRY)",
        }
    }
}

/// One row of the ablation study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which gradient composition was trained.
    pub mode: String,
    /// Error-free success rate (percent).
    pub error_free_success_pct: f64,
    /// Success rate (percent) under bit errors at the evaluation rate.
    pub faulty_success_pct: f64,
}

/// Trains a policy with a perturbed-only gradient (the middle ablation).
///
/// # Errors
///
/// Returns an error if training fails.
fn train_perturbed_only<E: Environment, R: Rng>(
    env: &mut E,
    config: &BerryConfig,
    train_ber: f64,
    rng: &mut R,
) -> Result<Sequential> {
    let spec = berry_rl::policy::QNetworkSpec::mlp(vec![32]);
    let mut agent = DqnAgent::new(
        &spec,
        &env.observation_shape(),
        env.num_actions(),
        config.trainer.dqn,
        rng,
    )?;
    let perturber = NetworkPerturber::new(config.quant_bits)?;
    let chip = ChipProfile::generic();
    let mut buffer = ReplayBuffer::new(config.trainer.buffer_capacity)?;
    let mut env_steps = 0u64;
    let observation_shape = agent.observation_shape().to_vec();
    let num_actions = agent.num_actions();
    let gamma = agent.config().gamma;
    let mut target_scratch = InferScratch::new();

    for _ in 0..config.trainer.episodes {
        let mut obs = env.reset(rng);
        for _ in 0..config.trainer.max_steps_per_episode {
            let epsilon = config.trainer.epsilon.value(env_steps);
            let action = agent.act_epsilon(&obs, epsilon, rng);
            let outcome = env.step(action, rng);
            let terminal = outcome.is_terminal();
            buffer.push(Transition {
                state: obs.clone(),
                action,
                reward: outcome.reward,
                next_state: outcome.observation.clone(),
                done: terminal,
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
                let map = perturber.sample_fault_map(agent.q_net(), &chip, train_ber, rng)?;
                let mut q_perturbed = perturber.perturb_with_map(agent.q_net(), &map)?;
                let t_perturbed = perturber.perturb_with_map(agent.target_net(), &map)?;
                q_perturbed.zero_grad();
                accumulate_td_gradients(
                    &mut q_perturbed,
                    &t_perturbed,
                    &batch,
                    &observation_shape,
                    num_actions,
                    gamma,
                    &mut target_scratch,
                )?;
                agent.q_net_mut().zero_grad();
                agent
                    .q_net_mut()
                    .add_gradients_from(&q_perturbed, 1.0)
                    .map_err(crate::CoreError::from)?;
                agent.apply_accumulated_gradients();
            }
            if terminal {
                break;
            }
        }
    }
    Ok(agent.q_net().clone())
}

/// Runs the gradient-composition ablation at a given evaluation bit-error
/// rate (fraction).
///
/// The clean-only and dual-pass variants *are* the Classical/BERRY pair of
/// one store request (trained under identical hyper-parameters), so the
/// ablation shares its training with every other artefact of the same base
/// seed; only the perturbed-only middle variant — which no other
/// experiment uses — trains its bespoke loop here.
///
/// # Errors
///
/// Returns an error if training or evaluation fails.
pub fn gradient_ablation(
    store: &PolicyStore,
    scale: ExperimentScale,
    eval_ber: f64,
    base_seed: u64,
) -> Result<Vec<AblationRow>> {
    let eval_cfg = scale.evaluation_config();
    let env_cfg = scale.navigation_config(ObstacleDensity::Sparse);
    let trainer = scale.trainer_config();
    let chip = ChipProfile::generic();
    // The ablation uses the MLP policy at every scale: it isolates the
    // gradient-composition question from the architecture question and keeps
    // the three training runs cheap.
    let spec = berry_rl::policy::QNetworkSpec::mlp(vec![32]);

    let request = PairRequest::new(
        spec.clone(),
        env_cfg.clone(),
        trainer.clone(),
        LearningMode::offline(scale.train_ber()),
        chip.clone(),
        8,
        base_seed,
    );
    let pair = store.get_or_train(&request)?;

    // Per-variant seeds, drawn up front in a fixed order.
    let mut seed_rng = StdRng::seed_from_u64(base_seed);
    let perturbed_train_seed = seed_rng.next_u64();
    let eval_seeds: Vec<(u64, u64)> = GradientMode::all()
        .iter()
        .map(|_| (seed_rng.next_u64(), seed_rng.next_u64()))
        .collect();

    let mut rows = Vec::new();
    for (mode, (clean_seed, faulty_seed)) in GradientMode::all().into_iter().zip(eval_seeds) {
        let policy: Sequential = match mode {
            GradientMode::CleanOnly => pair.classical.clone(),
            GradientMode::PerturbedOnly => {
                let config = BerryConfig {
                    trainer: trainer.clone(),
                    mode: LearningMode::offline(scale.train_ber()),
                    ..BerryConfig::default()
                };
                let mut env = NavigationEnv::new(env_cfg.clone())?;
                let mut train_rng = StdRng::seed_from_u64(perturbed_train_seed);
                train_perturbed_only(&mut env, &config, scale.train_ber(), &mut train_rng)?
            }
            GradientMode::DualPass => pair.berry.clone(),
        };
        let env = NavigationEnv::new(env_cfg.clone())?;
        let clean = evaluate_error_free_seeded(&policy, &env, &eval_cfg, clean_seed)?;
        let faulty =
            evaluate_under_faults_seeded(&policy, &env, &chip, eval_ber, &eval_cfg, faulty_seed)?;
        rows.push(AblationRow {
            mode: mode.label().to_string(),
            error_free_success_pct: clean.success_rate * 100.0,
            faulty_success_pct: faulty.success_rate * 100.0,
        });
    }
    Ok(rows)
}

/// Formats the ablation table.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.1}", r.error_free_success_pct),
                format!("{:.1}", r.faulty_success_pct),
            ]
        })
        .collect();
    format_table(&["Gradient", "Error-Free %", "Under Faults %"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_all_three_modes() {
        let store = PolicyStore::in_memory();
        let rows = gradient_ablation(&store, ExperimentScale::Smoke, 0.005, 0).unwrap();
        // Clean-only + dual-pass come from one cached pair; only the
        // perturbed-only variant trains outside the store.
        assert_eq!(store.stats().trained, 1);
        assert_eq!(rows.len(), 3);
        let labels: Vec<&str> = rows.iter().map(|r| r.mode.as_str()).collect();
        assert!(labels.contains(&"clean-only"));
        assert!(labels.contains(&"perturbed-only"));
        assert!(labels.contains(&"dual-pass (BERRY)"));
        for r in &rows {
            assert!((0.0..=100.0).contains(&r.error_free_success_pct));
            assert!((0.0..=100.0).contains(&r.faulty_success_pct));
        }
        let text = format_ablation(&rows);
        assert!(text.contains("Gradient"));
    }

    #[test]
    fn gradient_mode_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            GradientMode::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
