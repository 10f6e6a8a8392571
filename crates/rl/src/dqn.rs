//! Deep Q-Network agent: Q-network / target-network pair and TD updates.
//!
//! This module implements the *classical* DQN machinery of the paper's
//! Algorithm 1 (lines 2–13 and 19–21): ε-greedy acting, Bellman targets
//! computed by a periodically synchronized target network, and gradient
//! accumulation of the TD loss.  The bit-error-aware *perturbed* pass
//! (lines 14–18) lives in `berry-core`, which reuses
//! [`accumulate_td_gradients`] on a perturbed copy of both networks and sums
//! the two gradient sets before a single optimizer step.

use crate::env::Transition;
use crate::error::RlError;
use crate::policy::QNetworkSpec;
use crate::Result;
use berry_nn::loss::masked_mse_loss;
use berry_nn::network::{InferScratch, Sequential};
use berry_nn::optim::{Adam, Optimizer};
use berry_nn::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hyper-parameters of the DQN agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// Adam learning rate α.
    pub learning_rate: f32,
    /// Mini-batch size B sampled from the replay buffer.
    pub batch_size: usize,
    /// Target-network synchronization period C (in optimizer steps).
    pub target_sync_every: u64,
    /// Element-wise gradient clip applied inside the optimizer.
    pub grad_clip: f32,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            gamma: 0.95,
            learning_rate: 1.0e-3,
            batch_size: 32,
            target_sync_every: 200,
            grad_clip: 1.0,
        }
    }
}

impl DqnConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.gamma) {
            return Err(RlError::InvalidConfig("gamma must lie in [0, 1)".into()));
        }
        if self.learning_rate <= 0.0 {
            return Err(RlError::InvalidConfig(
                "learning rate must be positive".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(RlError::InvalidConfig("batch size must be positive".into()));
        }
        if self.target_sync_every == 0 {
            return Err(RlError::InvalidConfig(
                "target_sync_every must be positive".into(),
            ));
        }
        if self.grad_clip <= 0.0 {
            return Err(RlError::InvalidConfig("grad_clip must be positive".into()));
        }
        Ok(())
    }
}

/// Stacks the `state` (or `next_state`) tensors of a batch into one
/// `[batch, ...observation_shape]` tensor.
fn stack_observations(
    batch: &[Transition],
    observation_shape: &[usize],
    next: bool,
) -> Result<Tensor> {
    let per_obs: usize = observation_shape.iter().product();
    let mut shape = Vec::with_capacity(observation_shape.len() + 1);
    shape.push(batch.len());
    shape.extend_from_slice(observation_shape);
    let mut out = Tensor::zeros(&shape);
    for (i, t) in batch.iter().enumerate() {
        let obs = if next { &t.next_state } else { &t.state };
        if obs.len() != per_obs {
            return Err(RlError::ObservationShapeMismatch {
                expected: observation_shape.to_vec(),
                actual: obs.shape().to_vec(),
            });
        }
        out.data_mut()[i * per_obs..(i + 1) * per_obs].copy_from_slice(obs.data());
    }
    Ok(out)
}

/// Computes the TD loss of `q_net` against Bellman targets produced by
/// `target_net` on `batch`, runs the backward pass and **accumulates** the
/// gradients in `q_net`.
///
/// The target network is never backpropagated, so its `Q(s′)` runs on the
/// immutable inference path through the caller's reused `scratch` (bitwise
/// identical to a `forward`, without caching a batch nobody reads).
///
/// Returns the scalar loss.  The caller owns zeroing gradients and stepping
/// the optimizer, which is what lets BERRY accumulate a clean pass and a
/// perturbed pass before one update (Algorithm 1 line 19).
///
/// # Errors
///
/// Returns an error if observation shapes are inconsistent or an action
/// index is out of range.
pub fn accumulate_td_gradients(
    q_net: &mut Sequential,
    target_net: &Sequential,
    batch: &[Transition],
    observation_shape: &[usize],
    num_actions: usize,
    gamma: f32,
    scratch: &mut InferScratch,
) -> Result<f32> {
    if batch.is_empty() {
        return Err(RlError::InvalidConfig(
            "cannot train on an empty batch".into(),
        ));
    }
    let states = stack_observations(batch, observation_shape, false)?;
    let next_states = stack_observations(batch, observation_shape, true)?;

    // y_j = r_j + γ max_a' Q(s_{j+1}, a'; θ⁻)            (paper Eq. 1 / line 12)
    let next_q = target_net.infer_into(&next_states, scratch);
    let pred = q_net.forward(&states);

    let mut target = pred.clone();
    let mut mask = Tensor::zeros(pred.shape());
    for (j, transition) in batch.iter().enumerate() {
        if transition.action >= num_actions {
            return Err(RlError::InvalidAction {
                action: transition.action,
                num_actions,
            });
        }
        let mut max_next = f32::NEG_INFINITY;
        for a in 0..num_actions {
            max_next = max_next.max(next_q.at2(j, a));
        }
        let bootstrap = if transition.done { 0.0 } else { gamma * max_next };
        let y = transition.reward + bootstrap;
        *target.at2_mut(j, transition.action) = y;
        *mask.at2_mut(j, transition.action) = 1.0;
    }

    let (loss, grad) = masked_mse_loss(&pred, &target, &mask);
    q_net.backward_params(&grad);
    Ok(loss)
}

/// A Deep-Q-Network agent: evaluation network, target network and optimizer.
///
/// # Examples
///
/// ```
/// use berry_rl::dqn::{DqnAgent, DqnConfig};
/// use berry_rl::policy::QNetworkSpec;
/// use berry_nn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_rl::RlError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut agent = DqnAgent::new(
///     &QNetworkSpec::mlp(vec![16]),
///     &[3],
///     4,
///     DqnConfig::default(),
///     &mut rng,
/// )?;
/// let action = agent.act_epsilon(&Tensor::zeros(&[3]), 0.1, &mut rng);
/// assert!(action < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DqnAgent {
    q_net: Sequential,
    target_net: Sequential,
    optimizer: Adam,
    config: DqnConfig,
    num_actions: usize,
    observation_shape: Vec<usize>,
    train_steps: u64,
    /// Stamp of the target network's current weights; see
    /// [`DqnAgent::target_generation`].
    target_generation: u64,
    /// Reused inference buffers of the target network's `Q(s′)`.
    td_scratch: InferScratch,
}

/// A stamp no target network in this process has carried before.
fn next_target_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Relaxed: the stamp publishes no data, and `fetch_add` alone makes
    // every value unique.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl DqnAgent {
    /// Creates an agent with freshly initialized Q and target networks
    /// (θ⁻ = θ, Algorithm 1 lines 2–3).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or network spec is invalid.
    pub fn new<R: Rng + ?Sized>(
        spec: &QNetworkSpec,
        observation_shape: &[usize],
        num_actions: usize,
        config: DqnConfig,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        let q_net = spec.build(observation_shape, num_actions, rng)?;
        let target_net = q_net.clone();
        let optimizer = Adam::new(config.learning_rate).with_grad_clip(config.grad_clip);
        Ok(Self {
            q_net,
            target_net,
            optimizer,
            config,
            num_actions,
            observation_shape: observation_shape.to_vec(),
            train_steps: 0,
            target_generation: next_target_generation(),
            td_scratch: InferScratch::new(),
        })
    }

    /// The agent's hyper-parameters.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Number of discrete actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Observation shape the agent was built for.
    pub fn observation_shape(&self) -> &[usize] {
        &self.observation_shape
    }

    /// Number of optimizer steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Borrow of the evaluation (Q) network.
    pub fn q_net(&self) -> &Sequential {
        &self.q_net
    }

    /// Mutable borrow of the evaluation (Q) network.
    pub fn q_net_mut(&mut self) -> &mut Sequential {
        &mut self.q_net
    }

    /// Borrow of the target network.
    pub fn target_net(&self) -> &Sequential {
        &self.target_net
    }

    /// Mutable borrow of the target network.  Counts as a change of the
    /// target weights (see [`DqnAgent::target_generation`]).
    pub fn target_net_mut(&mut self) -> &mut Sequential {
        self.target_generation = next_target_generation();
        &mut self.target_net
    }

    /// The Q-network mutably and the target network immutably at once —
    /// what trainers that run [`accumulate_td_gradients`] themselves need.
    pub fn q_net_mut_with_target(&mut self) -> (&mut Sequential, &Sequential) {
        (&mut self.q_net, &self.target_net)
    }

    /// A stamp of the target network's weights, unique within the process:
    /// it changes whenever the target may have changed
    /// ([`DqnAgent::sync_target`], [`DqnAgent::load_weights`],
    /// [`DqnAgent::target_net_mut`]) and is shared only by agents whose
    /// targets are equal (a clone keeps it until either side changes its
    /// target).  Caches derived from the target — such as its quantized
    /// image — stay valid while the stamp does.
    pub fn target_generation(&self) -> u64 {
        self.target_generation
    }

    /// Replaces the Q-network weights (used when loading a trained policy).
    ///
    /// # Errors
    ///
    /// Returns an error if the weight buffer does not match the network.
    pub fn load_weights(&mut self, weights: &[f32]) -> Result<f32> {
        self.q_net.load_flat_weights(weights)?;
        self.target_generation = next_target_generation();
        self.target_net.copy_params_from(&self.q_net)?;
        Ok(0.0)
    }

    /// Q-values for a single observation, as a `[1, num_actions]` tensor.
    ///
    /// Uses the immutable inference path ([`Sequential::infer`]), which is
    /// bitwise identical to a `forward` pass but leaves the network's
    /// training caches untouched, so action selection never needs `&mut`
    /// access to the agent.
    ///
    /// # Panics
    ///
    /// Panics if the observation's element count does not match the shape
    /// the agent was built for.
    pub fn q_values(&self, observation: &Tensor) -> Tensor {
        let mut scratch = InferScratch::new();
        self.q_values_into(observation, &mut scratch).clone()
    }

    /// [`DqnAgent::q_values`] through a caller-owned inference scratch —
    /// the allocation-free form every in-repo rollout loop uses; the
    /// returned borrow lives inside `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if the observation's element count does not match the shape
    /// the agent was built for.
    #[must_use = "the Q-values live in the scratch; dropping them wastes the forward pass"]
    pub fn q_values_into<'s>(
        &self,
        observation: &Tensor,
        scratch: &'s mut InferScratch,
    ) -> &'s Tensor {
        let per_obs: usize = self.observation_shape.iter().product();
        assert_eq!(
            observation.len(),
            per_obs,
            "observation has {} elements, agent expects {}",
            observation.len(),
            per_obs
        );
        let mut shape = Vec::with_capacity(self.observation_shape.len() + 1);
        shape.push(1);
        shape.extend_from_slice(&self.observation_shape);
        let batched = observation
            .reshape(&shape)
            .expect("element count already checked");
        self.q_net.infer_into(&batched, scratch)
    }

    /// Greedy action for an observation.
    ///
    /// Allocates a fresh inference scratch per call; loops should prefer
    /// [`DqnAgent::act_greedy_with_scratch`].
    pub fn act_greedy(&self, observation: &Tensor) -> usize {
        let mut scratch = InferScratch::new();
        self.act_greedy_with_scratch(observation, &mut scratch)
    }

    /// Greedy action through a caller-owned inference scratch.
    pub fn act_greedy_with_scratch(
        &self,
        observation: &Tensor,
        scratch: &mut InferScratch,
    ) -> usize {
        self.q_values_into(observation, scratch)
            .argmax()
            .expect("num_actions is positive")
    }

    /// ε-greedy action for an observation (Algorithm 1 line 6).
    ///
    /// Allocates a fresh inference scratch on greedy steps; training loops
    /// should prefer [`DqnAgent::act_epsilon_with_scratch`].
    pub fn act_epsilon<R: Rng + ?Sized>(
        &self,
        observation: &Tensor,
        epsilon: f32,
        rng: &mut R,
    ) -> usize {
        let mut scratch = InferScratch::new();
        self.act_epsilon_with_scratch(observation, epsilon, rng, &mut scratch)
    }

    /// ε-greedy action through a caller-owned inference scratch, so the
    /// exploitation branch's forward pass reuses warm buffers across the
    /// whole training run.
    pub fn act_epsilon_with_scratch<R: Rng + ?Sized>(
        &self,
        observation: &Tensor,
        epsilon: f32,
        rng: &mut R,
        scratch: &mut InferScratch,
    ) -> usize {
        if rng.gen::<f32>() < epsilon {
            rng.gen_range(0..self.num_actions)
        } else {
            self.act_greedy_with_scratch(observation, scratch)
        }
    }

    /// Copies the Q-network parameters into the target network
    /// (θ⁻ ← θ, Algorithm 1 line 21).
    pub fn sync_target(&mut self) {
        self.target_generation = next_target_generation();
        self.target_net
            .copy_params_from(&self.q_net)
            .expect("networks share a structure by construction");
    }

    /// One classical DQN optimizer step on a replay batch.
    ///
    /// Returns the TD loss.  The target network is synchronized every
    /// `target_sync_every` steps.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch is malformed.
    pub fn train_on_batch(&mut self, batch: &[Transition]) -> Result<f32> {
        self.q_net.zero_grad();
        let loss = accumulate_td_gradients(
            &mut self.q_net,
            &self.target_net,
            batch,
            &self.observation_shape,
            self.num_actions,
            self.config.gamma,
            &mut self.td_scratch,
        )?;
        self.optimizer.step(&mut self.q_net);
        self.q_net.zero_grad();
        self.register_step();
        Ok(loss)
    }

    /// Applies one optimizer step using whatever gradients are currently
    /// accumulated in the Q-network, then handles target synchronization.
    ///
    /// This is the entry point BERRY's dual-pass trainer uses after it has
    /// accumulated both the clean and the perturbed gradients.
    pub fn apply_accumulated_gradients(&mut self) {
        self.optimizer.step(&mut self.q_net);
        self.q_net.zero_grad();
        self.register_step();
    }

    fn register_step(&mut self) {
        self.train_steps += 1;
        if self.train_steps.is_multiple_of(self.config.target_sync_every) {
            self.sync_target();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn transition(state: Vec<f32>, action: usize, reward: f32, next: Vec<f32>, done: bool) -> Transition {
        let n = state.len();
        Transition {
            state: Tensor::from_vec(vec![n], state).unwrap(),
            action,
            reward,
            next_state: Tensor::from_vec(vec![n], next).unwrap(),
            done,
        }
    }

    fn small_agent(seed: u64) -> DqnAgent {
        let mut r = rng(seed);
        DqnAgent::new(
            &QNetworkSpec::mlp(vec![24]),
            &[2],
            3,
            DqnConfig {
                gamma: 0.9,
                learning_rate: 5e-3,
                batch_size: 8,
                target_sync_every: 10,
                grad_clip: 1.0,
            },
            &mut r,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(DqnConfig::default().validate().is_ok());
        assert!(DqnConfig { gamma: 1.0, ..Default::default() }.validate().is_err());
        assert!(DqnConfig { learning_rate: 0.0, ..Default::default() }.validate().is_err());
        assert!(DqnConfig { batch_size: 0, ..Default::default() }.validate().is_err());
        assert!(DqnConfig { target_sync_every: 0, ..Default::default() }.validate().is_err());
        assert!(DqnConfig { grad_clip: 0.0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn greedy_action_matches_argmax_of_q_values() {
        let agent = small_agent(1);
        let obs = Tensor::from_vec(vec![2], vec![0.3, -0.7]).unwrap();
        let q = agent.q_values(&obs);
        assert_eq!(q.shape(), &[1, 3]);
        assert_eq!(agent.act_greedy(&obs), q.argmax().unwrap());
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let agent = small_agent(2);
        let mut r = rng(3);
        let obs = Tensor::zeros(&[2]);
        let mut counts = [0usize; 3];
        for _ in 0..300 {
            counts[agent.act_epsilon(&obs, 1.0, &mut r)] += 1;
        }
        for c in counts {
            assert!(c > 50, "action distribution {counts:?} is not uniform-ish");
        }
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let agent = small_agent(4);
        let mut r = rng(5);
        let obs = Tensor::from_vec(vec![2], vec![0.1, 0.9]).unwrap();
        let greedy = agent.act_greedy(&obs);
        for _ in 0..20 {
            assert_eq!(agent.act_epsilon(&obs, 0.0, &mut r), greedy);
        }
    }

    #[test]
    fn training_reduces_td_loss_on_fixed_batch() {
        let mut agent = small_agent(6);
        // A deterministic 2-state problem: action 1 from state A yields +1 and ends.
        let batch: Vec<Transition> = (0..8)
            .map(|i| {
                transition(
                    vec![1.0, 0.0],
                    i % 3,
                    if i % 3 == 1 { 1.0 } else { -0.2 },
                    vec![0.0, 1.0],
                    true,
                )
            })
            .collect();
        let first = agent.train_on_batch(&batch).unwrap();
        let mut last = first;
        for _ in 0..150 {
            last = agent.train_on_batch(&batch).unwrap();
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
        // The learned policy should prefer the rewarded action.
        let obs = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        assert_eq!(agent.act_greedy(&obs), 1);
    }

    #[test]
    fn target_network_syncs_periodically() {
        let mut agent = small_agent(7);
        let batch = vec![transition(vec![0.5, 0.5], 0, 1.0, vec![0.0, 0.0], true); 4];
        // Before any sync the target differs from the online net after training.
        for _ in 0..9 {
            agent.train_on_batch(&batch).unwrap();
        }
        assert_ne!(
            agent.q_net().to_flat_weights(),
            agent.target_net().to_flat_weights()
        );
        // The 10th step triggers the periodic sync (target_sync_every = 10).
        agent.train_on_batch(&batch).unwrap();
        assert_eq!(
            agent.q_net().to_flat_weights(),
            agent.target_net().to_flat_weights()
        );
        assert_eq!(agent.train_steps(), 10);
    }

    #[test]
    fn bellman_target_uses_bootstrap_only_when_not_done() {
        // Single transition, zero rewards: with done=true the target is 0, so
        // training drives Q(s, a) toward 0. With done=false it bootstraps.
        let mut r = rng(8);
        let mut q = QNetworkSpec::mlp(vec![8]).build(&[1], 2, &mut r).unwrap();
        let tgt = q.clone();
        let mut scratch = InferScratch::new();
        let done_batch = vec![transition(vec![1.0], 0, 0.0, vec![1.0], true)];
        let not_done_batch = vec![transition(vec![1.0], 0, 0.0, vec![1.0], false)];
        q.zero_grad();
        let loss_done =
            accumulate_td_gradients(&mut q, &tgt, &done_batch, &[1], 2, 0.9, &mut scratch)
                .unwrap();
        q.zero_grad();
        let loss_not_done =
            accumulate_td_gradients(&mut q, &tgt, &not_done_batch, &[1], 2, 0.9, &mut scratch)
                .unwrap();
        // With bootstrapping the target moves toward gamma*maxQ which is closer
        // to the prediction than 0 only if maxQ has the same sign; the two
        // losses must simply differ, proving the done flag is honoured.
        assert_ne!(loss_done, loss_not_done);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let mut agent = small_agent(9);
        assert!(agent.train_on_batch(&[]).is_err());
        let bad_action = vec![transition(vec![0.0, 0.0], 7, 0.0, vec![0.0, 0.0], true)];
        assert!(matches!(
            agent.train_on_batch(&bad_action),
            Err(RlError::InvalidAction { .. })
        ));
        let bad_shape = vec![transition(vec![0.0, 0.0, 0.0], 1, 0.0, vec![0.0, 0.0, 0.0], true)];
        assert!(matches!(
            agent.train_on_batch(&bad_shape),
            Err(RlError::ObservationShapeMismatch { .. })
        ));
    }

    #[test]
    fn target_generation_changes_exactly_when_the_target_may_change() {
        let mut agent = small_agent(12);
        let other = small_agent(12);
        assert_ne!(agent.target_generation(), other.target_generation());
        let start = agent.target_generation();
        let batch: Vec<Transition> = (0..8)
            .map(|i| transition(vec![i as f32 / 8.0, 0.5], i % 3, 1.0, vec![0.1, 0.2], i == 7))
            .collect();
        // Steps 1..9 leave the target alone; the 10th syncs it.
        for _ in 0..9 {
            agent.train_on_batch(&batch).unwrap();
        }
        let _ = agent.q_net_mut_with_target();
        assert_eq!(agent.target_generation(), start);
        let clone = agent.clone();
        assert_eq!(clone.target_generation(), start);
        agent.train_on_batch(&batch).unwrap();
        let synced = agent.target_generation();
        assert_ne!(synced, start);
        let _ = agent.target_net_mut();
        assert_ne!(agent.target_generation(), synced);
        let before_load = agent.target_generation();
        let weights = agent.q_net().to_flat_weights();
        agent.load_weights(&weights).unwrap();
        assert_ne!(agent.target_generation(), before_load);
        assert_eq!(clone.target_generation(), start);
    }

    #[test]
    fn load_weights_round_trips_and_syncs_target() {
        let mut a = small_agent(10);
        let b = small_agent(11);
        let w = b.q_net().to_flat_weights();
        a.load_weights(&w).unwrap();
        assert_eq!(a.q_net().to_flat_weights(), w);
        assert_eq!(a.target_net().to_flat_weights(), w);
        assert!(a.load_weights(&w[..5]).is_err());
    }

    #[test]
    fn apply_accumulated_gradients_changes_weights() {
        let mut agent = small_agent(12);
        let batch = vec![transition(vec![1.0, -1.0], 2, 1.0, vec![0.0, 0.0], true); 4];
        let before = agent.q_net().to_flat_weights();
        agent.q_net_mut().zero_grad();
        let shape = agent.observation_shape().to_vec();
        let actions = agent.num_actions();
        let gamma = agent.config().gamma;
        // Split borrows: accumulate manually, then apply.
        {
            let DqnAgent {
                ref mut q_net,
                ref target_net,
                ref mut td_scratch,
                ..
            } = agent;
            accumulate_td_gradients(q_net, target_net, &batch, &shape, actions, gamma, td_scratch)
                .unwrap();
        }
        agent.apply_accumulated_gradients();
        assert_ne!(agent.q_net().to_flat_weights(), before);
        assert_eq!(agent.train_steps(), 1);
    }
}
