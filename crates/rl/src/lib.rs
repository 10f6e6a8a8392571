//! # berry-rl
//!
//! The reinforcement-learning substrate of the BERRY reproduction
//! (DAC 2023): everything a classical Deep-Q-Network needs, factored so
//! that the bit-error-robust trainer in `berry-core` can reuse the same
//! pieces while replacing the gradient step with the paper's dual-pass
//! (clean + perturbed) update.
//!
//! * [`env::Environment`] — the episodic MDP interface the UAV navigation
//!   simulator implements,
//! * [`replay::ReplayBuffer`] — uniform experience replay,
//! * [`schedule::EpsilonSchedule`] — linear ε-greedy exploration decay,
//! * [`policy::QNetworkSpec`] — the C3F2 / C5F4 convolutional Q-network
//!   architectures from the paper plus an MLP variant for fast tests,
//! * [`dqn::DqnAgent`] — the Q-network/target-network pair with the
//!   Bellman-target machinery (Eq. 1 of the paper),
//! * [`trainer`] — the classical (non-robust) training loop used as the
//!   paper's baseline,
//! * [`eval`] — greedy policy evaluation returning success rate and path
//!   statistics, and
//! * [`testenv`] — tiny deterministic MDPs shared by training-loop tests
//!   across the workspace.
//!
//! ## Example
//!
//! ```
//! use berry_rl::dqn::{DqnAgent, DqnConfig};
//! use berry_rl::policy::QNetworkSpec;
//! use berry_nn::network::InferScratch;
//! use berry_nn::tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), berry_rl::RlError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let spec = QNetworkSpec::mlp(vec![32, 32]);
//! let mut agent = DqnAgent::new(&spec, &[4], 5, DqnConfig::default(), &mut rng)?;
//! let obs = Tensor::zeros(&[4]);
//! let action = agent.act_greedy(&obs, &mut InferScratch::new());
//! assert!(action < 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dqn;
pub mod env;
pub mod error;
pub mod eval;
pub mod policy;
pub mod replay;
pub mod schedule;
pub mod testenv;
pub mod trainer;
pub mod vecenv;

pub use dqn::{DqnAgent, DqnConfig};
pub use env::{Environment, StepOutcome, TerminalKind, Transition};
pub use error::RlError;
pub use eval::EvalStats;
pub use policy::QNetworkSpec;
pub use replay::ReplayBuffer;
pub use schedule::EpsilonSchedule;
pub use vecenv::{episode_seed, EpisodeRecord, VecEnv};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RlError>;
