//! Fault-averaged policy evaluation and the mission-level pipeline.
//!
//! The paper's evaluation protocol (Section V-A): "For each case, we
//! evaluate 500 different fault maps and report the average quantity for all
//! metrics."  [`evaluate_under_faults`] implements that protocol — draw a
//! fault map, perturb the quantized policy, run greedy navigation episodes,
//! repeat, and average.  [`evaluate_mission`] then chains the result through
//! the accelerator energy model and the cyber-physical flight model to
//! produce the quality-of-flight rows of Table II / Fig. 5 / Fig. 7.

// lint: pinned-path — reductions here feed golden-pinned statistics; use berry_nn::reduce helpers

use crate::error::CoreError;
use crate::perturb::{NetworkPerturber, PerturbContext};
use crate::Result;
use berry_faults::chip::ChipProfile;
use berry_hw::accelerator::{Accelerator, ProcessingReport};
use berry_hw::workload::NetworkWorkload;
use berry_nn::network::Sequential;
use berry_rl::env::Environment;
use berry_rl::eval::{evaluate_policy_batched, evaluate_policy_seeded_serial, EvalStats};
use berry_uav::flight::{compute_power_w, FlightEnergyModel, QualityOfFlight};
use berry_uav::physics::{FlightPhysics, PhysicsConfig};
use berry_uav::platform::UavPlatform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How much evaluation to do per operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvaluationConfig {
    /// Number of independent fault maps (the paper uses 500).
    pub fault_maps: usize,
    /// Greedy episodes evaluated per fault map.
    pub episodes_per_map: usize,
    /// Step limit per episode.
    pub max_steps: usize,
    /// Quantization width for deployment (8 in the paper).
    pub quant_bits: u8,
    /// Concurrent episode lanes of the batched lockstep rollout engine
    /// (capped at the episode count; the statistics are bitwise identical
    /// for any value, so this is purely a throughput knob).
    pub lanes: usize,
}

impl Default for FaultEvaluationConfig {
    fn default() -> Self {
        Self {
            fault_maps: 20,
            episodes_per_map: 5,
            max_steps: 60,
            quant_bits: 8,
            lanes: 8,
        }
    }
}

impl FaultEvaluationConfig {
    /// A minimal configuration for unit tests.
    pub fn smoke_test() -> Self {
        Self {
            fault_maps: 3,
            episodes_per_map: 2,
            max_steps: 30,
            ..Self::default()
        }
    }

    /// The paper's full protocol: 500 fault maps per operating point.
    pub fn paper_scale() -> Self {
        Self {
            fault_maps: 500,
            episodes_per_map: 2,
            max_steps: 60,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero counts or an invalid
    /// quantization width.
    pub fn validate(&self) -> Result<()> {
        if self.fault_maps == 0 || self.episodes_per_map == 0 || self.max_steps == 0 {
            return Err(CoreError::InvalidConfig(
                "fault_maps, episodes_per_map and max_steps must be positive".into(),
            ));
        }
        if self.lanes == 0 {
            return Err(CoreError::InvalidConfig(
                "lanes must be positive (1 = serial lockstep)".into(),
            ));
        }
        if self.quant_bits == 0 || self.quant_bits > 8 {
            return Err(CoreError::InvalidConfig(
                "quant_bits must be in 1..=8".into(),
            ));
        }
        Ok(())
    }
}

/// Evaluates a policy with *no* bit errors (quantization noise only).
///
/// Runs through the same quantize-once [`PerturbContext`] + pooled-scratch
/// pipeline as the fault-map paths (with an error-free map, so the scratch
/// network is exactly the quantize→dequantize copy) and rolls the episodes
/// out on the batched lockstep engine — the error-free row of a table costs
/// the same machinery as every other row, not a private slow path.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or quantization fails.
pub fn evaluate_error_free<E, R>(
    policy: &Sequential,
    env: &E,
    config: &FaultEvaluationConfig,
    rng: &mut R,
) -> Result<EvalStats>
where
    E: Environment + Clone,
    R: Rng,
{
    let episode_seed_base = rng.next_u64();
    evaluate_error_free_seeded(policy, env, config, episode_seed_base)
}

/// [`evaluate_error_free`] with an explicit episode-seed base, so sweep
/// runners can fan error-free rows out across cores while every row keeps
/// its own deterministic stream.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or quantization fails.
pub fn evaluate_error_free_seeded<E>(
    policy: &Sequential,
    env: &E,
    config: &FaultEvaluationConfig,
    episode_seed_base: u64,
) -> Result<EvalStats>
where
    E: Environment + Clone,
{
    config.validate()?;
    let context = NetworkPerturber::new(config.quant_bits)?.context(policy)?;
    let map = berry_faults::fault_map::FaultMap::error_free(context.memory_bits());
    let mut scratch = context.checkout();
    context.perturb_map_into(&map, &mut scratch)?;
    let episodes = config.fault_maps * config.episodes_per_map;
    let (network, infer) = scratch.network_and_infer();
    let stats = evaluate_policy_batched(
        network,
        env,
        episodes,
        config.max_steps,
        config.lanes,
        episode_seed_base,
        infer,
    );
    context.checkin(scratch);
    Ok(stats)
}

// The fault-map seed family lives in the central seed registry; the
// historical path `evaluate::fault_map_seed` stays valid via this
// re-export.
pub use crate::seed::fault_map_seed;

/// Evaluates a policy under bit errors at an explicit bit-error rate,
/// averaging over `config.fault_maps` independent fault maps.
///
/// The per-fault-map work — sampling the map, perturbing the quantized
/// policy and rolling out greedy episodes — fans out across CPU cores.
/// Each map's RNG is seeded from a base seed drawn once from `rng` (see
/// [`fault_map_seed`]), and the per-map statistics are merged in map order,
/// so the result is independent of the worker count and identical to the
/// serial reference path ([`evaluate_under_faults_serial`]).
///
/// # Errors
///
/// Returns an error if the configuration or rate is invalid.
pub fn evaluate_under_faults<E, R>(
    policy: &Sequential,
    env: &E,
    chip: &ChipProfile,
    ber: f64,
    config: &FaultEvaluationConfig,
    rng: &mut R,
) -> Result<EvalStats>
where
    E: Environment + Clone + Sync,
    R: Rng,
{
    let base_seed = rng.next_u64();
    evaluate_under_faults_seeded(policy, env, chip, ber, config, base_seed)
}

/// The parallel fault-map evaluation path, with an explicit base seed.
///
/// # Errors
///
/// Returns an error if the configuration or rate is invalid.
pub fn evaluate_under_faults_seeded<E>(
    policy: &Sequential,
    env: &E,
    chip: &ChipProfile,
    ber: f64,
    config: &FaultEvaluationConfig,
    base_seed: u64,
) -> Result<EvalStats>
where
    E: Environment + Clone + Sync,
{
    config.validate()?;
    // Quantize the clean policy exactly once; every worker below only pays
    // a byte copy + flip injection + dequantize per fault map.
    let context = NetworkPerturber::new(config.quant_bits)?.context(policy)?;
    let per_map: Vec<Result<EvalStats>> = (0..config.fault_maps)
        .into_par_iter()
        .map(|map_index| {
            let map_seed = fault_map_seed(base_seed, map_index as u64);
            let mut map_rng = StdRng::seed_from_u64(map_seed);
            evaluate_one_fault_map(&context, env, chip, ber, config, &mut map_rng, map_seed)
        })
        .collect();
    merge_in_order(per_map)
}

/// The serial reference implementation of the fault-map evaluation
/// protocol: maps evaluated one at a time, episodes rolled out one at a
/// time through the serial per-episode-seeded engine
/// ([`evaluate_policy_seeded_serial`]) instead of the lockstep lanes.
///
/// Uses the same per-map seeding ([`fault_map_seed`]), the same per-episode
/// seeding ([`berry_rl::vecenv::episode_seed`]) and the same in-order merge
/// as [`evaluate_under_faults_seeded`], so for any base seed — and any lane
/// count on the parallel side — the two return bitwise-identical
/// statistics; the determinism tests in `tests/parallel_determinism.rs` pin
/// that equivalence.  (The pre-PR-3 shared-RNG episode derivation survives
/// as [`berry_rl::eval::evaluate_policy`], which the golden-snapshot legacy
/// test still re-derives the original pinned statistics through.)
///
/// # Errors
///
/// Returns an error if the configuration or rate is invalid.
pub fn evaluate_under_faults_serial<E: Environment + Clone>(
    policy: &Sequential,
    env: &E,
    chip: &ChipProfile,
    ber: f64,
    config: &FaultEvaluationConfig,
    base_seed: u64,
) -> Result<EvalStats> {
    config.validate()?;
    let context = NetworkPerturber::new(config.quant_bits)?.context(policy)?;
    let per_map: Vec<Result<EvalStats>> = (0..config.fault_maps)
        .map(|map_index| {
            let map_seed = fault_map_seed(base_seed, map_index as u64);
            let mut map_rng = StdRng::seed_from_u64(map_seed);
            let map = context.sample_fault_map(chip, ber, &mut map_rng)?;
            let mut scratch = context.checkout();
            context.perturb_map_into(&map, &mut scratch)?;
            let (network, infer) = scratch.network_and_infer();
            let stats = evaluate_policy_seeded_serial(
                network,
                env,
                config.episodes_per_map,
                config.max_steps,
                map_seed,
                infer,
            );
            context.checkin(scratch);
            Ok(stats)
        })
        .collect();
    merge_in_order(per_map)
}

/// Samples one fault map, injects it into a pooled copy of the quantized
/// byte image and rolls out the configured number of greedy episodes over
/// the dequantized scratch network on the **batched lockstep engine**.
///
/// The fault map's RNG stream and the resulting weights are bitwise
/// identical to the pre-quantize-once path (sample, `perturb_with_map`,
/// fresh network); the episodes draw their randomness from per-episode
/// streams derived from `map_seed`, so the statistics are independent of
/// the lane count — the golden snapshot test pins the whole composition.
#[allow(clippy::too_many_arguments)]
fn evaluate_one_fault_map<E: Environment + Clone>(
    context: &PerturbContext,
    env: &E,
    chip: &ChipProfile,
    ber: f64,
    config: &FaultEvaluationConfig,
    rng: &mut StdRng,
    map_seed: u64,
) -> Result<EvalStats> {
    let map = context.sample_fault_map(chip, ber, rng)?;
    let mut scratch = context.checkout();
    context.perturb_map_into(&map, &mut scratch)?;
    let (network, infer) = scratch.network_and_infer();
    let stats = evaluate_policy_batched(
        network,
        env,
        config.episodes_per_map,
        config.max_steps,
        config.lanes,
        map_seed,
        infer,
    );
    context.checkin(scratch);
    Ok(stats)
}

/// Merges per-map statistics strictly in map order so the aggregate is
/// independent of evaluation order and worker count.
fn merge_in_order(per_map: Vec<Result<EvalStats>>) -> Result<EvalStats> {
    let mut combined = EvalStats::empty();
    for stats in per_map {
        combined = combined.merge(&stats?);
    }
    Ok(combined)
}

/// Everything the mission-level tables report about one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionEvaluation {
    /// Normalized operating voltage (Vmin units).
    pub voltage_norm: f64,
    /// Bit error rate (fraction) at that voltage on the evaluation chip.
    pub ber: f64,
    /// Navigation statistics under bit errors (averaged over fault maps).
    pub navigation: EvalStats,
    /// Accelerator latency/energy/thermal figures at that voltage.
    pub processing: ProcessingReport,
    /// Mission-level quality-of-flight metrics.
    pub quality_of_flight: QualityOfFlight,
}

/// The fixed context a mission evaluation runs in: platform, accelerator,
/// policy workload and chip.
#[derive(Debug, Clone)]
pub struct MissionContext {
    /// The UAV platform flying the mission.
    pub platform: UavPlatform,
    /// The accelerator running the policy.
    pub accelerator: Accelerator,
    /// The deployed policy's hardware workload (C3F2 or C5F4).
    pub workload: NetworkWorkload,
    /// The chip whose fault behaviour is being modelled.
    pub chip: ChipProfile,
    /// Flight-physics constants.
    pub physics: PhysicsConfig,
}

impl MissionContext {
    /// The default context of the paper's main experiments: Crazyflie +
    /// C3F2 + the generic random-fault chip.
    pub fn crazyflie_c3f2() -> Self {
        Self {
            platform: UavPlatform::crazyflie(),
            accelerator: Accelerator::default_edge_accelerator(),
            workload: NetworkWorkload::c3f2(),
            chip: ChipProfile::generic(),
            physics: PhysicsConfig::default(),
        }
    }

    /// The DJI Tello + C3F2 context of the paper's Fig. 7 (top).
    pub fn tello_c3f2() -> Self {
        Self {
            platform: UavPlatform::dji_tello(),
            ..Self::crazyflie_c3f2()
        }
    }

    /// The DJI Tello + C5F4 context of the paper's Fig. 7 (bottom row).
    pub fn tello_c5f4() -> Self {
        Self {
            platform: UavPlatform::dji_tello(),
            workload: NetworkWorkload::c5f4(),
            ..Self::crazyflie_c3f2()
        }
    }

    /// Ratio between this context's policy MACs and the reference C3F2
    /// policy (used to scale compute power).
    pub fn policy_mac_ratio(&self) -> f64 {
        self.workload.total_macs() as f64 / NetworkWorkload::c3f2().total_macs() as f64
    }
}

/// Runs the full mission-level evaluation of a policy at one voltage.
///
/// The navigation success rate and successful-trajectory length come from
/// fault-averaged greedy rollouts; the processing figures from the
/// accelerator model; the heatsink mass feeds the flight-physics chain; and
/// the flight model turns it all into flight time, flight energy and
/// missions per battery charge.
///
/// # Errors
///
/// Returns an error for invalid voltages or configurations.
pub fn evaluate_mission<E, R>(
    policy: &Sequential,
    env: &E,
    context: &MissionContext,
    voltage_norm: f64,
    config: &FaultEvaluationConfig,
    rng: &mut R,
) -> Result<MissionEvaluation>
where
    E: Environment + Clone + Sync,
    R: Rng,
{
    let base_seed = rng.next_u64();
    evaluate_mission_seeded(policy, env, context, voltage_norm, config, base_seed)
}

/// [`evaluate_mission`] with an explicit base seed for the fault-map
/// averaging, so sweep runners can fan out whole operating points across
/// cores while every point keeps its own deterministic stream.
///
/// # Errors
///
/// Returns an error for invalid voltages or configurations.
pub fn evaluate_mission_seeded<E>(
    policy: &Sequential,
    env: &E,
    context: &MissionContext,
    voltage_norm: f64,
    config: &FaultEvaluationConfig,
    base_seed: u64,
) -> Result<MissionEvaluation>
where
    E: Environment + Clone + Sync,
{
    let ber = context.chip.ber_at_voltage(voltage_norm)?;
    let navigation =
        evaluate_under_faults_seeded(policy, env, &context.chip, ber, config, base_seed)?;
    let processing = context.accelerator.evaluate(&context.workload, voltage_norm)?;

    let physics = FlightPhysics::new(context.platform.clone(), context.physics)?;
    let condition = physics.condition(processing.heatsink_mass_g)?;
    let compute_w = compute_power_w(
        &context.platform,
        context.policy_mac_ratio(),
        processing.savings_vs_nominal,
    )?;

    // Flight distance: average successful trajectory; if no episode succeeded
    // at this operating point fall back to the average attempted trajectory
    // (the UAV still burns that energy before crashing or being recovered).
    let mut distance = navigation.mean_success_distance;
    if distance <= 0.0 {
        distance = navigation.mean_distance.max(1.0);
    }
    let flight_model = FlightEnergyModel::new(context.platform.clone());
    let quality_of_flight =
        flight_model.quality_of_flight(&condition, navigation.success_rate, distance, compute_w)?;

    Ok(MissionEvaluation {
        voltage_norm,
        ber,
        navigation,
        processing,
        quality_of_flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use berry_nn::tensor::Tensor;
    use berry_rl::env::{StepOutcome, TerminalKind};
    use berry_rl::policy::QNetworkSpec;
    use rand::SeedableRng;

    /// A tiny environment whose success depends on the policy's weights:
    /// the agent succeeds when the Q-network prefers action 0 for a fixed
    /// observation, so bit errors that change the argmax cause failures.
    #[derive(Clone)]
    struct ArgmaxEnv;

    impl Environment for ArgmaxEnv {
        fn reset(&mut self, _rng: &mut dyn rand::RngCore) -> Tensor {
            Tensor::from_vec(vec![4], vec![0.4, -0.2, 0.7, -0.5]).unwrap()
        }

        fn step(&mut self, action: usize, _rng: &mut dyn rand::RngCore) -> StepOutcome {
            let success = action == 0;
            StepOutcome {
                observation: Tensor::zeros(&[4]),
                reward: if success { 1.0 } else { -1.0 },
                terminal: Some(if success {
                    TerminalKind::Goal
                } else {
                    TerminalKind::Collision
                }),
                distance_travelled: 14.9,
            }
        }

        fn num_actions(&self) -> usize {
            4
        }

        fn observation_shape(&self) -> Vec<usize> {
            vec![4]
        }
    }

    fn aligned_policy(seed: u64) -> Sequential {
        // Train-free construction: search seeds until the fresh policy
        // already prefers action 0 on the fixed observation, so the
        // error-free success rate is 1.0.  The probe loop reuses one
        // inference scratch instead of the allocating `infer` wrapper.
        let mut scratch = berry_nn::network::InferScratch::new();
        let obs = Tensor::from_vec(vec![1, 4], vec![0.4, -0.2, 0.7, -0.5]).unwrap();
        let mut seed = seed;
        loop {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let net = QNetworkSpec::mlp(vec![16]).build(&[4], 4, &mut rng).unwrap();
            if net.infer_into(&obs, &mut scratch).argmax() == Some(0) {
                return net;
            }
            seed += 1;
        }
    }

    #[test]
    fn config_validation() {
        assert!(FaultEvaluationConfig::default().validate().is_ok());
        assert!(FaultEvaluationConfig {
            fault_maps: 0,
            ..FaultEvaluationConfig::default()
        }
        .validate()
        .is_err());
        assert!(FaultEvaluationConfig {
            quant_bits: 12,
            ..FaultEvaluationConfig::default()
        }
        .validate()
        .is_err());
        assert_eq!(FaultEvaluationConfig::paper_scale().fault_maps, 500);
    }

    #[test]
    fn error_free_evaluation_of_aligned_policy_succeeds() {
        let policy = aligned_policy(0);
        let env = ArgmaxEnv;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let stats = evaluate_error_free(
            &policy,
            &env,
            &FaultEvaluationConfig::smoke_test(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.success_rate, 1.0);
        assert_eq!(stats.episodes, 6);
    }

    #[test]
    fn success_rate_degrades_with_bit_error_rate() {
        let policy = aligned_policy(10);
        let env = ArgmaxEnv;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = FaultEvaluationConfig {
            fault_maps: 30,
            episodes_per_map: 1,
            max_steps: 5,
            ..FaultEvaluationConfig::default()
        };
        let chip = ChipProfile::generic();
        let low = evaluate_under_faults(&policy, &env, &chip, 1e-4, &cfg, &mut rng).unwrap();
        let high = evaluate_under_faults(&policy, &env, &chip, 0.08, &cfg, &mut rng).unwrap();
        assert!(
            low.success_rate >= high.success_rate,
            "low-BER {} vs high-BER {}",
            low.success_rate,
            high.success_rate
        );
        assert!(high.success_rate < 1.0);
        assert_eq!(low.episodes, 30);
    }

    #[test]
    fn mission_evaluation_produces_consistent_report() {
        let policy = aligned_policy(30);
        let env = ArgmaxEnv;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let context = MissionContext::crazyflie_c3f2();
        let cfg = FaultEvaluationConfig::smoke_test();
        let mission =
            evaluate_mission(&policy, &env, &context, 0.80, &cfg, &mut rng).unwrap();
        assert_eq!(mission.voltage_norm, 0.80);
        assert!(mission.ber > 0.0);
        assert!(mission.processing.savings_vs_nominal > 1.0);
        assert!(mission.quality_of_flight.flight_energy_j > 0.0);
        assert!(mission.quality_of_flight.num_missions > 0.0);
        // Success rate flows through unchanged.
        assert!(
            (mission.quality_of_flight.success_rate - mission.navigation.success_rate).abs()
                < 1e-12
        );
    }

    #[test]
    fn mission_context_policy_ratios() {
        assert!((MissionContext::crazyflie_c3f2().policy_mac_ratio() - 1.0).abs() < 1e-12);
        assert!(MissionContext::tello_c5f4().policy_mac_ratio() > 1.0);
        assert_eq!(
            MissionContext::tello_c3f2().platform.name(),
            "DJI Tello"
        );
    }
}
