//! Golden digests of Conv2d **training**: the C3F2 and C5F4 Q-network
//! weights after a few Classical DQN updates and a few BERRY dual-pass
//! updates, on a fixed seed with the Quick `DqnConfig`.
//!
//! Every other training-derived pin in the suite trains smoke-scale MLPs,
//! so without this file no test would notice a convolution forward or
//! backward that changes a single bit.  The digests are FNV-1a over the
//! little-endian bytes of `Sequential::to_flat_weights`; the
//! floating-point order of every layer's forward, backward and the Adam
//! step is part of what they pin.  Training runs the Reference GEMM
//! kernels, whose bits do not depend on `BERRY_GEMM_FORCE_SCALAR`, so the
//! digests must not depend on the host's SIMD backend either.

use berry_core::experiment::ExperimentScale;
use berry_core::perturb::NetworkPerturber;
use berry_core::robust::{berry_update_step_with_scratch, DualPassScratch};
use berry_core::seed::fnv1a64_bytes;
use berry_faults::chip::ChipProfile;
use berry_rl::dqn::DqnAgent;
use berry_rl::env::{Environment, Transition};
use berry_rl::policy::QNetworkSpec;
use berry_rl::replay::ReplayBuffer;
use berry_uav::env::NavigationEnv;
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x7EA1_0013;
/// Transitions in the ε = 1 replay buffer the batches are drawn from.
const REPLAY: usize = 256;
/// Optimizer steps per digest.
const STEPS: usize = 3;
/// The paper's training bit-error rate (p = 0.5 %).
const TRAIN_BER: f64 = 0.005;

#[derive(Clone, Copy)]
enum Update {
    Classical,
    Berry,
}

/// Replay buffer of uniformly random Quick navigation transitions, and the
/// environment they came from.
fn replay(rng: &mut StdRng) -> (ReplayBuffer, NavigationEnv) {
    let mut env =
        NavigationEnv::new(ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium))
            .unwrap();
    let max_steps = ExperimentScale::Quick
        .trainer_config()
        .max_steps_per_episode;
    let mut buffer = ReplayBuffer::new(REPLAY).unwrap();
    while buffer.len() < REPLAY {
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
            if done || buffer.len() == REPLAY {
                break;
            }
        }
    }
    (buffer, env)
}

/// Trains a fresh `spec` agent for [`STEPS`] updates of the given kind and
/// returns the FNV-1a digest of its Q-network weights.
fn trained_digest(spec: QNetworkSpec, update: Update) -> u64 {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (buffer, env) = replay(&mut rng);
    let dqn = ExperimentScale::Quick.trainer_config().dqn;
    let mut agent = DqnAgent::new(
        &spec,
        &env.observation_shape(),
        env.num_actions(),
        dqn,
        &mut rng,
    )
    .unwrap();
    let perturber = NetworkPerturber::new(8).unwrap();
    let chip = ChipProfile::generic();
    let mut scratch = DualPassScratch::new();
    for _ in 0..STEPS {
        let batch = buffer.sample(dqn.batch_size, &mut rng).unwrap();
        let loss = match update {
            Update::Classical => agent.train_on_batch(&batch).unwrap(),
            Update::Berry => {
                let map = perturber
                    .sample_fault_map(agent.q_net(), &chip, TRAIN_BER, &mut rng)
                    .unwrap();
                let (clean, perturbed) = berry_update_step_with_scratch(
                    &mut agent,
                    &batch,
                    &perturber,
                    &map,
                    &mut scratch,
                )
                .unwrap();
                assert!(perturbed.is_finite());
                clean
            }
        };
        assert!(loss.is_finite());
    }
    let bytes: Vec<u8> = agent
        .q_net()
        .to_flat_weights()
        .into_iter()
        .flat_map(f32::to_le_bytes)
        .collect();
    fnv1a64_bytes(&bytes)
}

fn assert_digest(spec: QNetworkSpec, update: Update, expected: u64) {
    let name = spec.name();
    let observed = trained_digest(spec, update);
    assert_eq!(
        observed, expected,
        "{name} training digest drifted: observed {observed:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn c3f2_classical_updates_match_golden_digest() {
    assert_digest(QNetworkSpec::C3F2, Update::Classical, 0x734e_55c3_e448_89b9);
}

#[test]
fn c3f2_berry_dual_pass_updates_match_golden_digest() {
    assert_digest(QNetworkSpec::C3F2, Update::Berry, 0xb403_1584_8b59_b73b);
}

#[test]
fn c5f4_classical_updates_match_golden_digest() {
    assert_digest(QNetworkSpec::C5F4, Update::Classical, 0x2cbd_89b8_c842_635d);
}

#[test]
fn c5f4_berry_dual_pass_updates_match_golden_digest() {
    assert_digest(QNetworkSpec::C5F4, Update::Berry, 0x2c6b_b332_2005_e2a3);
}
