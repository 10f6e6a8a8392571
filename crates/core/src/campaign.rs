//! The campaign engine: the whole scenario grid, end to end.
//!
//! The paper's headline claim is generalization across "72 UAV deployment
//! scenarios" (Section V).  This module executes that claim as one
//! deterministic pipeline: for every [`Scenario`] of a grid it trains the
//! Classical/BERRY policy pair, runs fault-averaged navigation evaluation
//! through the batched lockstep engine at the scenario's deployment
//! voltage, attaches the `berry-hw` processing-energy and quality-of-flight
//! numbers, and emits one [`CampaignRow`].
//!
//! # Sharding and determinism
//!
//! Scenarios fan out across rayon workers.  Each scenario's entire pipeline
//! (training included) draws from a private `StdRng` seeded by
//! [`scenario_seed`]`(base_seed, grid_index)` — a SplitMix64-style mix
//! mirroring [`crate::evaluate::fault_map_seed`] and
//! [`berry_rl::vecenv::episode_seed`] with distinct constants, so the three
//! seed families never collide.  Rows are merged in grid order.  Because no
//! state is shared between scenarios, the sharded run
//! ([`run_campaign`]) is **bitwise identical** to the serial reference
//! ([`run_campaign_serial`]) for any worker count; the golden-snapshot
//! tests pin the row bits of the smoke campaign.
//!
//! # Scale
//!
//! [`ExperimentScale::Smoke`] runs the 4-cell [`Scenario::smoke_grid`] with
//! tiny MLP policies (seconds, used by CI and the golden pins);
//! `Quick` runs the paper's 72-cell grid; `Paper` runs the 216-cell
//! [`Scenario::extended_grid`] that crosses the 72 cells with the wind-gust
//! and sensor-dropout disturbance variants.

// lint: pinned-path — reductions here feed golden-pinned statistics; use berry_nn::reduce helpers

use crate::error::CoreError;
use crate::evaluate::{
    evaluate_error_free_seeded, evaluate_mission_seeded, evaluate_under_faults_seeded,
    evaluate_under_faults_serial, FaultEvaluationConfig, MissionContext,
};
use crate::experiment::ExperimentScale;
use crate::robust::LearningMode;
use crate::rows::{encode_json_f64 as json_f64, encode_json_string as json_string};
use crate::scenario::{Scenario, ScenarioMode, DEPLOY_VOLTAGE_FLOOR_NORM};
use crate::store::{PairRequest, PolicyStore, TrainedPair};
use crate::Result;
use berry_faults::chip::ChipProfile;
use berry_hw::accelerator::{Accelerator, ProcessingReport};
use berry_nn::network::Sequential;
use berry_rl::eval::EvalStats;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::flight::QualityOfFlight;
use berry_uav::physics::PhysicsConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Derives the RNG seed of scenario `grid_index` from a campaign's base
/// seed (a SplitMix64-style mix, so neighbouring grid cells draw unrelated
/// streams).
///
/// The add-multiplier/offset pair is distinct from both
/// [`crate::evaluate::fault_map_seed`] and
/// [`berry_rl::vecenv::episode_seed`], keeping the three derivation
/// families disjoint; `tests/parallel_determinism.rs` checks the
/// no-collision property across all three.
pub use crate::seed::scenario_seed;

/// Configuration of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// How much compute each grid cell spends (training episodes, fault
    /// maps, policy sizes) *and* which grid is executed — see
    /// [`CampaignConfig::grid`].
    pub scale: ExperimentScale,
    /// Base seed every per-scenario stream is derived from.
    pub base_seed: u64,
}

impl CampaignConfig {
    /// A campaign at the given scale with the default base seed (2023, the
    /// paper's year).
    pub fn at_scale(scale: ExperimentScale) -> Self {
        Self {
            scale,
            base_seed: 2023,
        }
    }

    /// The CI micro-campaign: smoke grid, smoke training, default seed.
    pub fn smoke_test() -> Self {
        Self::at_scale(ExperimentScale::Smoke)
    }

    /// The scenario grid this campaign executes: the 4-cell smoke grid at
    /// `Smoke`, the paper's 72-cell grid at `Quick`, and the 216-cell
    /// extended (disturbance-variant) grid at `Paper`.
    pub fn grid(&self) -> Vec<Scenario> {
        match self.scale {
            ExperimentScale::Smoke => Scenario::smoke_grid(),
            ExperimentScale::Quick => Scenario::grid(),
            ExperimentScale::Paper => Scenario::extended_grid(),
        }
    }
}

/// Which trained policy of a cell's Classical/BERRY pair an evaluation
/// axis runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyRole {
    /// The classically trained baseline.
    Classical,
    /// The BERRY error-aware policy.
    Berry,
}

impl PolicyRole {
    /// Scheme label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyRole::Classical => "Classical",
            PolicyRole::Berry => "BERRY",
        }
    }
}

/// The operating point one evaluation axis probes.
///
/// Every "voltage matching this BER" lookup clamps to
/// [`DEPLOY_VOLTAGE_FLOOR_NORM`] — the same floor the scenario grid's
/// deployment voltages respect, defined once in `scenario.rs` so the two
/// paths cannot drift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OperatingPoint {
    /// Quantization noise only (the error-free column of a table).
    ErrorFree,
    /// Navigation statistics under bit errors at an explicit rate
    /// (fraction) on the scenario's chip.
    Ber(f64),
    /// Full mission-level evaluation at an explicit voltage (Vmin units)
    /// on the scenario's chip.
    MissionAtVoltage(f64),
    /// Mission-level evaluation at the scenario's own deployment voltage
    /// ([`Scenario::deploy_voltage_norm`], resolved per cell).
    MissionAtDeployVoltage,
    /// Mission-level evaluation at the lowest voltage whose BER reaches
    /// the given rate (fraction) on the scenario's chip.
    MissionAtBer(f64),
    /// Mission-level evaluation on a *different* chip (by built-in name)
    /// at the voltage matching the given BER (fraction) on that chip.
    MissionOnChip {
        /// Built-in chip profile name.
        chip: String,
        /// Bit error rate (fraction) selecting the operating voltage.
        ber: f64,
    },
}

/// One extra evaluation a grid cell performs beyond its standard
/// deploy-point evaluation — the declarative unit the table/figure runners
/// are built from (Table I is "one cell × twelve axes", Table II is "one
/// cell × fourteen voltage axes", …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalAxis {
    /// Free-form label identifying the axis in results.
    pub label: String,
    /// Which policy of the pair is evaluated.
    pub role: PolicyRole,
    /// The operating point probed.
    pub point: OperatingPoint,
}

impl EvalAxis {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, role: PolicyRole, point: OperatingPoint) -> Self {
        Self {
            label: label.into(),
            role,
            point,
        }
    }
}

/// The outcome of one [`EvalAxis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisResult {
    /// The axis label, copied through.
    pub label: String,
    /// Scheme label of the evaluated policy ("Classical" / "BERRY").
    pub scheme: String,
    /// The resolved operating voltage, for mission-level axes.
    pub voltage_norm: Option<f64>,
    /// The bit-error rate the axis evaluated at (0 for error-free).
    pub ber: f64,
    /// Fault-averaged navigation statistics.
    pub nav: EvalStats,
    /// Accelerator figures (mission-level axes only).
    pub processing: Option<ProcessingReport>,
    /// Quality-of-flight metrics (mission-level axes only).
    pub quality_of_flight: Option<QualityOfFlight>,
}

/// Builds the training request of a grid cell — the *only* place the
/// campaign's training work is described.  The request deliberately omits
/// every evaluation-side axis (platform, deploy voltage, grid index), so
/// cells that train identically — e.g. the same policy on the same chip
/// deployed on two different UAVs — resolve to the same fingerprint and
/// share one cached pair.
///
/// # Errors
///
/// Returns an error if the scenario's names cannot be resolved.
pub fn pair_request_for(
    scenario: &Scenario,
    scale: ExperimentScale,
    base_seed: u64,
) -> Result<PairRequest> {
    let spec = scenario.policy_spec(scale)?;
    let chip = scenario.chip_profile()?;
    let env_config = NavigationConfig {
        variant: scenario.variant,
        ..scale.navigation_config(scenario.density)
    };
    let mode = match scenario.mode {
        ScenarioMode::Offline => LearningMode::offline(scale.train_ber()),
        ScenarioMode::OnDevice => LearningMode::on_device(scenario.deploy_voltage_norm()),
    };
    Ok(PairRequest::new(
        spec,
        env_config,
        scale.trainer_config(),
        mode,
        chip,
        8,
        base_seed,
    ))
}

/// Everything the campaign reports about one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Position of the scenario in the campaign grid.
    pub index: usize,
    /// The scenario's unique identifier ([`Scenario::id`]).
    pub id: String,
    /// The scenario itself.
    pub scenario: Scenario,
    /// The per-scenario RNG seed ([`scenario_seed`]).
    pub seed: u64,
    /// Deployment voltage in Vmin units ([`Scenario::deploy_voltage_norm`]).
    pub voltage_norm: f64,
    /// Bit error rate (fraction) at that voltage on the scenario's chip.
    pub ber: f64,
    /// Success rate of the classical baseline over its last 20 training
    /// episodes (a cheap trained-at-all signal).
    pub classical_train_success: f64,
    /// Success rate of the BERRY policy over its last 20 training episodes.
    pub berry_train_success: f64,
    /// Number of BERRY dual-pass optimizer updates performed.
    pub robust_updates: u64,
    /// Fault-averaged navigation statistics of the classical baseline at
    /// the deployment operating point.
    pub classical_nav: EvalStats,
    /// Fault-averaged navigation statistics of the BERRY policy at the same
    /// operating point.
    pub berry_nav: EvalStats,
    /// Accelerator latency/energy/thermal figures at the deployment voltage
    /// for the scenario's published workload (C3F2/C5F4).
    pub processing: ProcessingReport,
    /// Mission-level quality-of-flight metrics of the BERRY policy.
    pub quality_of_flight: QualityOfFlight,
    /// Results of the cell's extra evaluation axes, in request order
    /// (empty for a plain campaign; the table/figure runners read their
    /// rows out of here).  Not part of the JSON-lines serialization — the
    /// streamed campaign artifact stays the per-cell deploy-point record.
    pub axis_results: Vec<AxisResult>,
}

impl CampaignRow {
    /// BERRY's success-rate advantage over the classical baseline at the
    /// deployment operating point (fractional, positive = BERRY better).
    pub fn success_gain(&self) -> f64 {
        self.berry_nav.success_rate - self.classical_nav.success_rate
    }

    /// Serializes the row as one JSON-lines record.
    ///
    /// Hand-rolled (the workspace vendors a serde API shim without a JSON
    /// backend); keys are stable and finite floats are emitted with full
    /// `{:?}` round-trip precision so artifacts diff cleanly across runs,
    /// while non-finite floats are emitted as `null` (see
    /// [`crate::rows::encode_json_f64`]) so every line is valid JSON even
    /// for degenerate cells (e.g. a zero-success cell's NaN
    /// `mean_success_distance`).  Every scalar field of the row is
    /// serialized — [`crate::rows::ParsedRow`] reconstructs the row
    /// bit-for-bit from this line (non-finite values come back as NaN,
    /// which re-encodes as the same `null` bytes), which is what makes
    /// `--resume` artifacts byte-identical to one-shot runs.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"index\":{},\"id\":{},\"density\":{},\"platform\":{},\"policy\":{},\
             \"mode\":{},\"chip\":{},\"variant\":{},\"seed\":{},\"voltage_norm\":{},\
             \"ber\":{},\"classical_train_success\":{},\"berry_train_success\":{},\
             \"robust_updates\":{},\"classical_nav\":{},\"berry_nav\":{},\
             \"processing\":{},\"quality_of_flight\":{}}}",
            self.index,
            json_string(&self.id),
            json_string(self.scenario.density.label()),
            json_string(&self.scenario.platform),
            json_string(&self.scenario.policy),
            json_string(self.scenario.mode.label()),
            json_string(&self.scenario.chip),
            json_string(self.scenario.variant.label()),
            self.seed,
            json_f64(self.voltage_norm),
            json_f64(self.ber),
            json_f64(self.classical_train_success),
            json_f64(self.berry_train_success),
            self.robust_updates,
            eval_stats_json(&self.classical_nav),
            eval_stats_json(&self.berry_nav),
            processing_json(&self.processing),
            quality_of_flight_json(&self.quality_of_flight),
        )
    }
}

/// Serializes [`EvalStats`] as a JSON object (shared by campaign rows and
/// the served axis-result lines).
pub(crate) fn eval_stats_json(s: &EvalStats) -> String {
    format!(
        "{{\"episodes\":{},\"success_rate\":{},\"collision_rate\":{},\
         \"timeout_rate\":{},\"mean_return\":{},\"mean_steps\":{},\
         \"mean_distance\":{},\"mean_success_distance\":{}}}",
        s.episodes,
        json_f64(s.success_rate),
        json_f64(s.collision_rate),
        json_f64(s.timeout_rate),
        json_f64(s.mean_return),
        json_f64(s.mean_steps),
        json_f64(s.mean_distance),
        json_f64(s.mean_success_distance),
    )
}

/// Serializes a [`ProcessingReport`] as a JSON object.
pub(crate) fn processing_json(p: &ProcessingReport) -> String {
    format!(
        "{{\"voltage_norm\":{},\"frequency_hz\":{},\"latency_s\":{},\
         \"energy_per_inference_j\":{},\"compute_power_w\":{},\
         \"savings_vs_nominal\":{},\"savings_vs_vmin\":{},\"tdp_w\":{},\
         \"heatsink_mass_g\":{},\"utilization\":{}}}",
        json_f64(p.voltage_norm),
        json_f64(p.frequency_hz),
        json_f64(p.latency_s),
        json_f64(p.energy_per_inference_j),
        json_f64(p.compute_power_w),
        json_f64(p.savings_vs_nominal),
        json_f64(p.savings_vs_vmin),
        json_f64(p.tdp_w),
        json_f64(p.heatsink_mass_g),
        json_f64(p.utilization),
    )
}

/// Serializes [`QualityOfFlight`] as a JSON object.
pub(crate) fn quality_of_flight_json(q: &QualityOfFlight) -> String {
    format!(
        "{{\"success_rate\":{},\"flight_distance_m\":{},\"flight_time_s\":{},\
         \"flight_energy_j\":{},\"rotor_power_w\":{},\"compute_power_w\":{},\
         \"num_missions\":{}}}",
        json_f64(q.success_rate),
        json_f64(q.flight_distance_m),
        json_f64(q.flight_time_s),
        json_f64(q.flight_energy_j),
        json_f64(q.rotor_power_w),
        json_f64(q.compute_power_w),
        json_f64(q.num_missions),
    )
}


/// Aggregate of a finished campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Number of grid cells executed.
    pub scenarios: usize,
    /// Total navigation episodes evaluated across all cells and policies.
    pub episodes: usize,
    /// Mean classical success rate across cells.
    pub mean_classical_success: f64,
    /// Mean BERRY success rate across cells.
    pub mean_berry_success: f64,
    /// Fraction of cells where BERRY's success rate is at least the
    /// classical baseline's.
    pub berry_wins_or_ties: f64,
    /// Mean processing-energy saving factor vs nominal across cells.
    pub mean_energy_savings: f64,
    /// Identifier of the cell with the largest BERRY success gain.
    pub best_cell: String,
    /// Identifier of the cell with the smallest BERRY success gain.
    pub worst_cell: String,
    /// Scheduler and resume telemetry of the run that produced the rows
    /// (`None` for summaries folded from rows alone, e.g. in tests).
    ///
    /// Serialized as a **single** `"scheduler"` line in [`Self::to_json`]:
    /// worker/steal counts are timing-dependent, so byte-comparing two
    /// summaries of the same campaign means filtering that one line
    /// (`grep -v '"scheduler"'`), which is exactly what CI does.
    pub scheduler: Option<SchedulerStats>,
}

impl CampaignSummary {
    /// Folds rows (in grid order) into the campaign summary.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty — a campaign always has at least one cell.
    pub fn from_rows(rows: &[CampaignRow]) -> Self {
        assert!(!rows.is_empty(), "campaign produced no rows");
        let n = rows.len() as f64;
        let best = rows
            .iter()
            .max_by(|a, b| a.success_gain().total_cmp(&b.success_gain()))
            .unwrap_or(&rows[0]);
        let worst = rows
            .iter()
            .min_by(|a, b| a.success_gain().total_cmp(&b.success_gain()))
            .unwrap_or(&rows[0]);
        Self {
            scenarios: rows.len(),
            episodes: rows
                .iter()
                .map(|r| r.classical_nav.episodes + r.berry_nav.episodes)
                .sum(),
            mean_classical_success: berry_nn::reduce::sum_f64_in_order(
                rows.iter().map(|r| r.classical_nav.success_rate),
            ) / n,
            mean_berry_success: berry_nn::reduce::sum_f64_in_order(
                rows.iter().map(|r| r.berry_nav.success_rate),
            ) / n,
            berry_wins_or_ties: rows.iter().filter(|r| r.success_gain() >= 0.0).count() as f64
                / n,
            mean_energy_savings: berry_nn::reduce::sum_f64_in_order(
                rows.iter().map(|r| r.processing.savings_vs_nominal),
            ) / n,
            best_cell: best.id.clone(),
            worst_cell: worst.id.clone(),
            scheduler: None,
        }
    }

    /// Attaches the scheduler/resume telemetry of the run that produced
    /// the rows.
    #[must_use]
    pub fn with_scheduler(mut self, stats: SchedulerStats) -> Self {
        self.scheduler = Some(stats);
        self
    }

    /// Serializes the summary as a JSON object (`"status": "ok"`; the
    /// failure path of a campaign run writes [`error_summary_json`]
    /// instead, so a summary artifact always exists and always says which
    /// of the two outcomes it describes).
    pub fn to_json(&self) -> String {
        let scheduler_line = match &self.scheduler {
            Some(stats) => format!("  \"scheduler\": {},\n", stats.to_json()),
            None => String::new(),
        };
        format!(
            "{{\n  \"status\": \"ok\",\n  \
             \"scenarios\": {},\n  \"episodes\": {},\n  \
             \"mean_classical_success\": {},\n  \"mean_berry_success\": {},\n  \
             \"berry_wins_or_ties\": {},\n  \"mean_energy_savings\": {},\n\
             {}  \"best_cell\": {},\n  \"worst_cell\": {}\n}}\n",
            self.scenarios,
            self.episodes,
            json_f64(self.mean_classical_success),
            json_f64(self.mean_berry_success),
            json_f64(self.berry_wins_or_ties),
            json_f64(self.mean_energy_savings),
            scheduler_line,
            json_string(&self.best_cell),
            json_string(&self.worst_cell),
        )
    }
}

/// The summary JSON a campaign run writes when a cell (or the row sink)
/// fails: `"status": "error"` plus how far the run got and why it stopped.
///
/// A failed campaign used to leave the summary file missing — or worse,
/// stale from a previous run — while the streamed rows said otherwise; CI
/// consumers now always find a fresh summary whose status matches the
/// process exit code.
pub fn error_summary_json(rows_completed: usize, grid_size: usize, error: &str) -> String {
    format!(
        "{{\n  \"status\": \"error\",\n  \"rows_completed\": {},\n  \
         \"scenarios\": {},\n  \"error\": {}\n}}\n",
        rows_completed,
        grid_size,
        json_string(error),
    )
}

/// The summary JSON a deliberately stopped campaign writes (`--max-rows`
/// in the runner): `"status": "interrupted"` plus how far it got — a
/// partial run is not an error, and CI's interrupt-resume job relies on
/// the distinction to keep the stopped half of the job green.
pub fn interrupted_summary_json(rows_completed: usize, grid_size: usize) -> String {
    format!(
        "{{\n  \"status\": \"interrupted\",\n  \"rows_completed\": {},\n  \
         \"scenarios\": {}\n}}\n",
        rows_completed, grid_size,
    )
}

/// Scheduler and resume telemetry of one campaign run — the campaign-level
/// view of the rayon shim's [`rayon::RunStats`] plus the resume skip count.
///
/// Everything here is **observability, not results**: worker/steal counts
/// depend on timing, so this struct is serialized on a single summary line
/// that byte-comparisons filter out (see [`CampaignSummary::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Scheduling policy label: `"work-stealing"`, `"contiguous"`, or
    /// `"idle"` when every cell was resumed and nothing ran.
    pub mode: String,
    /// Worker budget of the run (`rayon::current_num_threads`).
    pub workers: usize,
    /// Grid cells executed by each spawned worker (empty for idle or
    /// single-threaded inline runs — the shim reports those as one slot).
    pub per_worker_cells: Vec<usize>,
    /// Index ranges claimed beyond each worker's first — work that
    /// work-stealing moved off the critical path.
    pub steals: usize,
    /// Cells skipped because a resumed `rows.jsonl` already had their rows.
    pub rows_skipped_resumed: usize,
}

impl SchedulerStats {
    /// Telemetry of a run where nothing executed (fully resumed campaign).
    pub fn idle(rows_skipped_resumed: usize) -> Self {
        Self {
            mode: "idle".to_string(),
            workers: 0,
            per_worker_cells: Vec::new(),
            steals: 0,
            rows_skipped_resumed,
        }
    }

    /// Captures the rayon shim's stats of the parallel run that just
    /// finished on this thread.  Falls back to [`Self::idle`] if no run
    /// was recorded.
    pub fn from_last_run(rows_skipped_resumed: usize) -> Self {
        match rayon::last_run_stats() {
            Some(stats) => Self {
                mode: match stats.mode {
                    rayon::SchedulerMode::WorkStealing => "work-stealing",
                    rayon::SchedulerMode::Contiguous => "contiguous",
                }
                .to_string(),
                workers: stats.workers,
                per_worker_cells: stats.per_worker_items,
                steals: stats.steals,
                rows_skipped_resumed,
            },
            None => Self::idle(rows_skipped_resumed),
        }
    }

    /// Serializes the stats as a **single-line** JSON object, so a summary
    /// byte-comparison can drop exactly this telemetry with
    /// `grep -v '"scheduler"'`.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.per_worker_cells.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"mode\":{},\"workers\":{},\"per_worker_cells\":[{}],\"steals\":{},\
             \"rows_skipped_resumed\":{}}}",
            json_string(&self.mode),
            self.workers,
            cells.join(","),
            self.steals,
            self.rows_skipped_resumed,
        )
    }
}

/// One grid cell's execution ticket: its position, scenario, and
/// pre-drawn [`scenario_seed`].
///
/// The plan layer makes the campaign's seed protocol explicit: **all**
/// seeds are derived from the base seed and the global grid index before
/// any cell executes, so filtering the plan (resume) or reordering its
/// execution (work-stealing) cannot shift any cell's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlan {
    /// Position of the scenario in the campaign grid.
    pub index: usize,
    /// The scenario to execute.
    pub scenario: Scenario,
    /// The cell's private RNG seed, `scenario_seed(base_seed, index)`.
    pub seed: u64,
}

/// Draws the full execution plan of a grid up front — one [`CellPlan`] per
/// cell, seeds included.
pub fn plan_cells(grid: &[Scenario], base_seed: u64) -> Vec<CellPlan> {
    grid.iter()
        .enumerate()
        .map(|(index, scenario)| CellPlan {
            index,
            scenario: scenario.clone(),
            seed: scenario_seed(base_seed, index as u64),
        })
        .collect()
}

/// The set of grid indices a campaign run already has rows for — the
/// filter a resumed run applies to its [`CellPlan`] list.
///
/// Backed by a `BTreeSet` so iteration is in grid order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletedSet {
    indices: std::collections::BTreeSet<usize>,
}

impl CompletedSet {
    /// The empty set — a fresh (non-resumed) run.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the cell at `index` already has a row.
    pub fn contains(&self, index: usize) -> bool {
        self.indices.contains(&index)
    }

    /// Marks `index` complete; returns `false` if it already was.
    pub fn insert(&mut self, index: usize) -> bool {
        self.indices.insert(index)
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether no cell is complete.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Completed indices in grid order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().copied()
    }
}

impl FromIterator<usize> for CompletedSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self {
            indices: iter.into_iter().collect(),
        }
    }
}

/// Executes one grid cell with a private in-memory store and no extra
/// axes — the standalone-cell convenience over [`run_scenario_in`].
///
/// The cell `seed` doubles as the training base seed, so the row is a pure
/// function of `(scenario, scale, seed)`; grid runs derive both from a
/// campaign base seed instead (cell seed per index, one shared training
/// base), which is what lets cells share cached pairs.
///
/// # Errors
///
/// Returns an error if the scenario names cannot be resolved, or training
/// or evaluation fails.
pub fn run_scenario(
    scenario: &Scenario,
    index: usize,
    scale: ExperimentScale,
    seed: u64,
) -> Result<CampaignRow> {
    run_scenario_in(
        scenario,
        index,
        scale,
        seed,
        seed,
        &PolicyStore::in_memory(),
        &[],
    )
}

/// Executes one grid cell: pull the Classical/BERRY pair from the policy
/// store (training it on a cache miss), fault-evaluate both at the
/// scenario's deployment operating point, attach the hardware and
/// quality-of-flight numbers, and run any extra evaluation axes.
///
/// Every seed the cell consumes — the classical and BERRY deploy-point
/// evaluation seeds and one seed per axis — is drawn up front from a
/// stream seeded with `cell_seed`, and training is a pure function of the
/// store request (derived from `train_base_seed`, *not* from the grid
/// index).  The row is therefore bitwise identical whether the store was
/// cold, warm in memory or warm on disk, and whether the cell ran serial
/// or sharded.
///
/// # Errors
///
/// Returns an error if the scenario names cannot be resolved, or training
/// or evaluation fails.
pub fn run_scenario_in(
    scenario: &Scenario,
    index: usize,
    scale: ExperimentScale,
    cell_seed: u64,
    train_base_seed: u64,
    store: &PolicyStore,
    axes: &[EvalAxis],
) -> Result<CampaignRow> {
    let cell = prepare_cell(scenario, scale, cell_seed, train_base_seed, store, axes.len())?;

    // Deployment evaluation: fault-averaged navigation for both policies,
    // then the mission-level chain for BERRY through the scenario's
    // platform, chip and published workload.  The classical half runs the
    // serial per-map path; the BERRY half goes through
    // `evaluate_mission_seeded`, whose inner per-map fan-out nests under
    // the cell-level sharding (rayon work-steals across both levels, and
    // the two paths are pinned bitwise-identical, so this only affects
    // scheduling, never results).
    let classical_nav = evaluate_under_faults_serial(
        &cell.pair.classical,
        &cell.eval_env,
        &cell.context.chip,
        cell.ber,
        &cell.eval_cfg,
        cell.classical_eval_seed,
    )?;
    let mission = evaluate_mission_seeded(
        &cell.pair.berry,
        &cell.eval_env,
        &cell.context,
        cell.voltage_norm,
        &cell.eval_cfg,
        cell.berry_eval_seed,
    )?;

    let axis_results = cell.run_axes(scenario, axes)?;

    Ok(CampaignRow {
        index,
        id: scenario.id(),
        scenario: scenario.clone(),
        seed: cell_seed,
        voltage_norm: cell.voltage_norm,
        ber: cell.ber,
        classical_train_success: cell.pair.classical_train_success,
        berry_train_success: cell.pair.berry_train_success,
        robust_updates: cell.pair.robust_updates,
        classical_nav,
        berry_nav: mission.navigation,
        processing: mission.processing,
        quality_of_flight: mission.quality_of_flight,
        axis_results,
    })
}

/// The shared per-cell prologue of the campaign engine: every evaluation
/// seed drawn up front in the fixed cell-stream order, the scenario's
/// models resolved, and the policy pair fetched from the store.
struct PreparedCell {
    classical_eval_seed: u64,
    berry_eval_seed: u64,
    axis_seeds: Vec<u64>,
    voltage_norm: f64,
    ber: f64,
    pair: std::sync::Arc<TrainedPair>,
    eval_cfg: FaultEvaluationConfig,
    eval_env: NavigationEnv,
    context: MissionContext,
}

fn prepare_cell(
    scenario: &Scenario,
    scale: ExperimentScale,
    cell_seed: u64,
    train_base_seed: u64,
    store: &PolicyStore,
    axis_count: usize,
) -> Result<PreparedCell> {
    // Draw every evaluation seed before any work, in a fixed order: the
    // seeds cannot depend on whether training was cached — and the two
    // deploy-point seeds are always drawn, so axis seeds land on the same
    // stream positions whether or not the deploy evaluation itself runs.
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let classical_eval_seed = rng.next_u64();
    let berry_eval_seed = rng.next_u64();
    let axis_seeds: Vec<u64> = (0..axis_count).map(|_| rng.next_u64()).collect();

    let chip = scenario.chip_profile()?;
    let platform = scenario.uav_platform()?;
    let workload = scenario.workload()?;
    let voltage_norm = scenario.deploy_voltage_norm();
    let ber = chip.ber_at_voltage(voltage_norm)?;

    let request = pair_request_for(scenario, scale, train_base_seed)?;
    let pair = store.get_or_train(&request)?;

    let eval_cfg = scale.evaluation_config();
    let env_config = NavigationConfig {
        variant: scenario.variant,
        ..scale.navigation_config(scenario.density)
    };
    let eval_env = NavigationEnv::new(env_config)?;
    let context = MissionContext {
        platform,
        accelerator: Accelerator::default_edge_accelerator(),
        workload,
        chip,
        physics: PhysicsConfig::default(),
    };
    Ok(PreparedCell {
        classical_eval_seed,
        berry_eval_seed,
        axis_seeds,
        voltage_norm,
        ber,
        pair,
        eval_cfg,
        eval_env,
        context,
    })
}

impl PreparedCell {
    fn run_axes(&self, scenario: &Scenario, axes: &[EvalAxis]) -> Result<Vec<AxisResult>> {
        axes.iter()
            .zip(&self.axis_seeds)
            .map(|(axis, &axis_seed)| {
                run_axis(
                    axis,
                    axis_seed,
                    &self.pair,
                    &self.eval_env,
                    &self.context,
                    scenario,
                    &self.eval_cfg,
                )
            })
            .collect()
    }
}

/// A grid cell's identity plus its axis results — what an **axes-only**
/// grid run ([`run_axes_grid_in`]) produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisCell {
    /// Position of the scenario in the requested grid slice.
    pub index: usize,
    /// The scenario's unique identifier.
    pub id: String,
    /// The scenario itself.
    pub scenario: Scenario,
    /// The per-cell RNG seed ([`scenario_seed`]).
    pub seed: u64,
    /// Results of the cell's evaluation axes, in request order.
    pub axis_results: Vec<AxisResult>,
}

impl AxisCell {
    /// Serializes the cell as JSON-lines records, **one line per axis
    /// result** — the wire format `berry-serve` streams for axis requests.
    ///
    /// Optional fields (`voltage_norm`, `processing`, `quality_of_flight`
    /// on navigation-only axes) are emitted as `null`; floats follow the
    /// campaign-row convention (`{:?}` finite, `null` non-finite).
    pub fn to_json_lines(&self) -> Vec<String> {
        self.axis_results
            .iter()
            .enumerate()
            .map(|(axis_index, r)| {
                format!(
                    "{{\"index\":{},\"id\":{},\"seed\":{},\"axis\":{},\"label\":{},\
                     \"scheme\":{},\"voltage_norm\":{},\"ber\":{},\"nav\":{},\
                     \"processing\":{},\"quality_of_flight\":{}}}",
                    self.index,
                    json_string(&self.id),
                    self.seed,
                    axis_index,
                    json_string(&r.label),
                    json_string(&r.scheme),
                    r.voltage_norm.map_or_else(|| "null".to_string(), json_f64),
                    json_f64(r.ber),
                    eval_stats_json(&r.nav),
                    r.processing
                        .as_ref()
                        .map_or_else(|| "null".to_string(), processing_json),
                    r.quality_of_flight
                        .as_ref()
                        .map_or_else(|| "null".to_string(), quality_of_flight_json),
                )
            })
            .collect()
    }
}

/// Runs a grid slice evaluating **only** the requested axes per cell —
/// the table/figure runners' entry point, which skips the standard
/// deploy-point evaluation their tables never read (at paper scale that
/// is two full 500-fault-map sweeps of saved wall-clock per cell).
///
/// The seed protocol is identical to [`run_grid_streamed_in`]: the two
/// deploy-point seeds are still drawn (and discarded) before the axis
/// seeds, so every axis result here is **bitwise identical** to the same
/// axis evaluated by a full campaign cell.
///
/// # Errors
///
/// Returns the first (in grid order) cell error.
pub fn run_axes_grid_in(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
    store: &PolicyStore,
    axes: &[EvalAxis],
) -> Result<Vec<AxisCell>> {
    grid.iter()
        .enumerate()
        .map(|(index, scenario)| {
            let cell_seed = scenario_seed(base_seed, index as u64);
            let cell = prepare_cell(scenario, scale, cell_seed, base_seed, store, axes.len())
                .map_err(|e| tag_cell_error(scenario, e))?;
            let axis_results = cell
                .run_axes(scenario, axes)
                .map_err(|e| tag_cell_error(scenario, e))?;
            Ok(AxisCell {
                index,
                id: scenario.id(),
                scenario: scenario.clone(),
                seed: cell_seed,
                axis_results,
            })
        })
        .collect()
}

fn resolve_builtin_chip(name: &str) -> Result<ChipProfile> {
    ChipProfile::all_builtin()
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| CoreError::InvalidConfig(format!("unknown chip profile `{name}`")))
}

/// The voltage an axis evaluates at for a requested BER: the lowest
/// voltage whose error rate reaches it, clamped to the shared
/// [`DEPLOY_VOLTAGE_FLOOR_NORM`] so very high rates stay inside the BER
/// model's tabulated range.
fn voltage_for_ber(chip: &ChipProfile, ber: f64) -> Result<f64> {
    Ok(chip
        .ber_model()
        .min_voltage_for_ber(ber)?
        .max(DEPLOY_VOLTAGE_FLOOR_NORM))
}

/// Executes one evaluation axis of a cell.
fn run_axis(
    axis: &EvalAxis,
    seed: u64,
    pair: &TrainedPair,
    eval_env: &NavigationEnv,
    base_context: &MissionContext,
    scenario: &Scenario,
    eval_cfg: &FaultEvaluationConfig,
) -> Result<AxisResult> {
    let policy: &Sequential = match axis.role {
        PolicyRole::Classical => &pair.classical,
        PolicyRole::Berry => &pair.berry,
    };
    let nav_only = |nav: EvalStats, ber: f64| AxisResult {
        label: axis.label.clone(),
        scheme: axis.role.label().to_string(),
        voltage_norm: None,
        ber,
        nav,
        processing: None,
        quality_of_flight: None,
    };
    match &axis.point {
        OperatingPoint::ErrorFree => {
            let nav = evaluate_error_free_seeded(policy, eval_env, eval_cfg, seed)?;
            Ok(nav_only(nav, 0.0))
        }
        OperatingPoint::Ber(ber) => {
            let nav = evaluate_under_faults_seeded(
                policy,
                eval_env,
                &base_context.chip,
                *ber,
                eval_cfg,
                seed,
            )?;
            Ok(nav_only(nav, *ber))
        }
        mission_point => {
            let (context, voltage) = match mission_point {
                OperatingPoint::MissionAtVoltage(v) => (base_context.clone(), *v),
                OperatingPoint::MissionAtDeployVoltage => {
                    (base_context.clone(), scenario.deploy_voltage_norm())
                }
                OperatingPoint::MissionAtBer(ber) => {
                    (base_context.clone(), voltage_for_ber(&base_context.chip, *ber)?)
                }
                OperatingPoint::MissionOnChip { chip, ber } => {
                    let chip = resolve_builtin_chip(chip)?;
                    let voltage = voltage_for_ber(&chip, *ber)?;
                    (
                        MissionContext {
                            chip,
                            ..base_context.clone()
                        },
                        voltage,
                    )
                }
                OperatingPoint::ErrorFree | OperatingPoint::Ber(_) => {
                    return Err(CoreError::Internal(
                        "non-mission operating point reached the mission arm".to_string(),
                    ))
                }
            };
            let mission =
                evaluate_mission_seeded(policy, eval_env, &context, voltage, eval_cfg, seed)?;
            Ok(AxisResult {
                label: axis.label.clone(),
                scheme: axis.role.label().to_string(),
                voltage_norm: Some(mission.voltage_norm),
                ber: mission.ber,
                nav: mission.navigation,
                processing: Some(mission.processing),
                quality_of_flight: Some(mission.quality_of_flight),
            })
        }
    }
}

/// Runs the campaign **sharded across rayon workers**, one task per grid
/// cell, and merges the rows in grid order.
///
/// Bitwise identical to [`run_campaign_serial`] for any worker count (each
/// cell's stream is derived from [`scenario_seed`], nothing is shared);
/// the golden-snapshot and thread-count tests pin this.  The first failing
/// cell's error is returned, tagged with its scenario id — a campaign with
/// any errored cell is a failed campaign.
///
/// # Errors
///
/// Returns the first (in grid order) cell error.
pub fn run_campaign(config: &CampaignConfig) -> Result<Vec<CampaignRow>> {
    run_campaign_in(config, &PolicyStore::in_memory())
}

/// [`run_campaign`] against a caller-owned policy store — with an on-disk
/// store, a rerun of the same campaign retrains nothing.
///
/// # Errors
///
/// Returns the first (in grid order) cell error.
pub fn run_campaign_in(config: &CampaignConfig, store: &PolicyStore) -> Result<Vec<CampaignRow>> {
    let (rows, _) = run_grid_resumable_in(
        &config.grid(),
        config.scale,
        config.base_seed,
        store,
        &[],
        &CompletedSet::empty(),
        &|_| {},
        |_, _| Ok(()),
    )?;
    Ok(rows)
}

/// The serial reference implementation: the same per-cell pipeline and the
/// same [`scenario_seed`] derivation, executed one cell at a time in grid
/// order.
///
/// # Errors
///
/// Returns the first cell error.
pub fn run_campaign_serial(config: &CampaignConfig) -> Result<Vec<CampaignRow>> {
    run_grid_serial_in(
        &config.grid(),
        config.scale,
        config.base_seed,
        &PolicyStore::in_memory(),
    )
}

/// Runs an explicit scenario list as a sharded campaign (the engine under
/// [`run_campaign`], exposed so tests and custom sweeps can campaign over
/// a hand-picked sub-grid).
///
/// # Errors
///
/// Returns the first (in grid order) cell error.
pub fn run_grid(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
) -> Result<Vec<CampaignRow>> {
    run_grid_streamed(grid, scale, base_seed, |_| Ok(()))
}

/// [`run_grid`] with **per-row streaming**: cells fan out across the
/// work-stealing scheduler and `sink` receives every finished row in grid
/// order, as early as the in-order merge allows — so a long campaign (72
/// or 216 cells of real training) persists rows incrementally instead of
/// losing everything to a crash or timeout near the end.
///
/// Scheduling never changes the results: each cell's seed is drawn up
/// front from its **global** grid index (see [`plan_cells`]), so any
/// worker count and any steal pattern produce bitwise-identical rows.
///
/// # Errors
///
/// Returns the first (in grid order) cell error, or the first error the
/// sink reports — a failing sink (e.g. a full disk) cancels the remaining
/// cells instead of burning their compute.  Rows already handed to `sink`
/// stay written.
pub fn run_grid_streamed(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
    sink: impl FnMut(&CampaignRow) -> Result<()>,
) -> Result<Vec<CampaignRow>> {
    run_grid_streamed_in(grid, scale, base_seed, &PolicyStore::in_memory(), &[], sink)
}

/// [`run_grid_streamed`] against a caller-owned [`PolicyStore`] and with
/// per-cell evaluation [`EvalAxis`] requests — the execution path
/// **every** table/figure runner is a declarative request to (a grid
/// slice plus its evaluation axes).
///
/// Cells that resolve to the same training fingerprint share a single
/// training run through the store (the second requester blocks instead of
/// retraining); across runner processes the store's disk layer does the
/// same.  None of this sharing is observable in the rows: training is a
/// pure function of the request.
///
/// # Errors
///
/// Returns the first (in grid order) cell error, or the first error the
/// sink reports.
pub fn run_grid_streamed_in(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
    store: &PolicyStore,
    axes: &[EvalAxis],
    mut sink: impl FnMut(&CampaignRow) -> Result<()>,
) -> Result<Vec<CampaignRow>> {
    let (rows, _) = run_grid_resumable_in(
        grid,
        scale,
        base_seed,
        store,
        axes,
        &CompletedSet::empty(),
        &|_| {},
        |_, row| sink(row),
    )?;
    Ok(rows)
}

/// The campaign engine's core: executes every cell of the plan **not** in
/// `completed`, streaming `(cell_index, row)` to `sink` in grid order.
///
/// This is the four-layer determinism story in one signature:
/// [`plan_cells`] draws all seeds before execution, the rayon shim's
/// work-stealing scheduler runs the filtered plan in whatever order the
/// workers reach it, and the shim's in-order merge hands rows to `sink`
/// strictly by plan position — so execution order (worker count, steal
/// pattern, per-cell skew) is unobservable in every artifact.  `pre_cell`
/// runs on the worker before its cell starts; tests and the bench inject
/// per-cell delays through it to prove exactly that.
///
/// Returns the freshly executed rows (in grid order; resumed cells are
/// **not** re-materialized here — the caller holds their rows) plus the
/// run's [`SchedulerStats`].
///
/// # Errors
///
/// Returns the first (in grid order) cell error, or the first error the
/// sink reports; either cancels the cells still in flight.
#[allow(clippy::too_many_arguments)]
pub fn run_grid_resumable_in(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
    store: &PolicyStore,
    axes: &[EvalAxis],
    completed: &CompletedSet,
    pre_cell: &(impl Fn(usize) + Sync),
    mut sink: impl FnMut(usize, &CampaignRow) -> Result<()>,
) -> Result<(Vec<CampaignRow>, SchedulerStats)> {
    let pending: Vec<CellPlan> = plan_cells(grid, base_seed)
        .into_iter()
        .filter(|cell| !completed.contains(cell.index))
        .collect();
    let skipped = grid.len() - pending.len();
    if pending.is_empty() {
        return Ok((Vec::new(), SchedulerStats::idle(skipped)));
    }
    let mut rows: Vec<CampaignRow> = Vec::with_capacity(pending.len());
    pending
        .into_par_iter()
        .map(|cell| {
            pre_cell(cell.index);
            run_scenario_in(
                &cell.scenario,
                cell.index,
                scale,
                cell.seed,
                base_seed,
                store,
                axes,
            )
            .map_err(|e| tag_cell_error(&cell.scenario, e))
        })
        .try_for_each_ordered(|_, row| -> Result<()> {
            let row = row?;
            sink(row.index, &row)?;
            rows.push(row);
            Ok(())
        })?;
    Ok((rows, SchedulerStats::from_last_run(skipped)))
}

/// Runs an explicit scenario list serially, one cell at a time in grid
/// order, with the identical per-cell seed derivation as [`run_grid`].
///
/// # Errors
///
/// Returns the first cell error.
pub fn run_grid_serial(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
) -> Result<Vec<CampaignRow>> {
    run_grid_serial_in(grid, scale, base_seed, &PolicyStore::in_memory())
}

/// [`run_grid_serial`] against a caller-owned policy store.
///
/// # Errors
///
/// Returns the first cell error.
pub fn run_grid_serial_in(
    grid: &[Scenario],
    scale: ExperimentScale,
    base_seed: u64,
    store: &PolicyStore,
) -> Result<Vec<CampaignRow>> {
    grid.iter()
        .enumerate()
        .map(|(index, scenario)| {
            run_scenario_in(
                scenario,
                index,
                scale,
                scenario_seed(base_seed, index as u64),
                base_seed,
                store,
                &[],
            )
            .map_err(|e| tag_cell_error(scenario, e))
        })
        .collect()
}

fn tag_cell_error(scenario: &Scenario, e: crate::CoreError) -> crate::CoreError {
    crate::CoreError::InvalidConfig(format!("campaign cell `{}` failed: {e}", scenario.id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seeds_are_distinct_and_differ_from_identity() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| scenario_seed(2023, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(scenario_seed(2023, 0), 2023);
        // Distinct base seeds shift the whole family.
        assert_ne!(scenario_seed(1, 5), scenario_seed(2, 5));
    }

    #[test]
    fn config_selects_the_grid_by_scale() {
        assert_eq!(CampaignConfig::smoke_test().grid().len(), 4);
        assert_eq!(
            CampaignConfig::at_scale(ExperimentScale::Quick).grid().len(),
            72
        );
        assert_eq!(
            CampaignConfig::at_scale(ExperimentScale::Paper).grid().len(),
            216
        );
        assert_eq!(CampaignConfig::smoke_test().base_seed, 2023);
    }

    #[test]
    fn single_scenario_runs_end_to_end_and_serializes() {
        let grid = Scenario::smoke_grid();
        let row = run_scenario(&grid[0], 0, ExperimentScale::Smoke, 42).unwrap();
        assert_eq!(row.index, 0);
        assert_eq!(row.id, grid[0].id());
        assert!(row.classical_nav.episodes > 0);
        assert_eq!(row.classical_nav.episodes, row.berry_nav.episodes);
        assert!(row.robust_updates > 0);
        assert!(row.ber > 0.0);
        assert!(row.processing.savings_vs_nominal > 1.0);
        assert!(row.quality_of_flight.flight_energy_j > 0.0);
        let line = row.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"classical_nav\""));
        assert!(line.contains("\"savings_vs_nominal\""));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn rerunning_a_scenario_is_bitwise_reproducible() {
        let grid = Scenario::smoke_grid();
        let a = run_scenario(&grid[2], 2, ExperimentScale::Smoke, 7).unwrap();
        let b = run_scenario(&grid[2], 2, ExperimentScale::Smoke, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_line(), b.to_json_line());
        // A different seed produces a genuinely different row.
        let c = run_scenario(&grid[2], 2, ExperimentScale::Smoke, 8).unwrap();
        assert_ne!(a.berry_nav.mean_return.to_bits(), c.berry_nav.mean_return.to_bits());
    }

    #[test]
    fn streaming_matches_the_serial_reference() {
        let grid: Vec<Scenario> = Scenario::smoke_grid().into_iter().take(2).collect();
        let serial = run_grid_serial(&grid, ExperimentScale::Smoke, 5).unwrap();
        // The sink must see the rows in grid order regardless of which
        // worker finishes first.
        let mut streamed_ids = Vec::new();
        let streamed = run_grid_streamed(&grid, ExperimentScale::Smoke, 5, |row| {
            streamed_ids.push(row.index);
            Ok(())
        })
        .unwrap();
        assert_eq!(streamed, serial);
        assert_eq!(streamed_ids, vec![0, 1]);
        // A failing sink cancels the campaign after the first row.
        let mut seen = 0;
        let err = run_grid_streamed(&grid, ExperimentScale::Smoke, 5, |_| {
            seen += 1;
            Err(crate::CoreError::InvalidConfig("sink full".into()))
        });
        assert!(err.is_err());
        assert_eq!(seen, 1, "campaign must stop after the first sink error");
    }

    #[test]
    fn plan_draws_all_seeds_up_front_in_grid_order() {
        let grid = Scenario::smoke_grid();
        let plan = plan_cells(&grid, 2023);
        assert_eq!(plan.len(), grid.len());
        for (i, cell) in plan.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.scenario, grid[i]);
            assert_eq!(cell.seed, scenario_seed(2023, i as u64));
        }
    }

    #[test]
    fn completed_set_filters_and_iterates_in_order() {
        let mut set = CompletedSet::empty();
        assert!(set.is_empty());
        assert!(set.insert(3));
        assert!(set.insert(1));
        assert!(!set.insert(3), "double insert reports false");
        assert_eq!(set.len(), 2);
        assert!(set.contains(1) && set.contains(3) && !set.contains(0));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 3]);
        let from_iter: CompletedSet = [1usize, 3].into_iter().collect();
        assert_eq!(set, from_iter);
    }

    #[test]
    fn resumable_run_skips_completed_cells_and_reports_stats() {
        let grid: Vec<Scenario> = Scenario::smoke_grid().into_iter().take(2).collect();
        let store = PolicyStore::in_memory();
        let (all, stats) = run_grid_resumable_in(
            &grid,
            ExperimentScale::Smoke,
            5,
            &store,
            &[],
            &CompletedSet::empty(),
            &|_| {},
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(stats.rows_skipped_resumed, 0);
        assert!(stats.mode == "work-stealing" || stats.mode == "contiguous");
        // Resume with cell 0 done: only cell 1 executes, bitwise equal to
        // the fresh run's row, and the sink reports its grid index.
        let completed: CompletedSet = [0usize].into_iter().collect();
        let mut sunk = Vec::new();
        let (fresh, stats) = run_grid_resumable_in(
            &grid,
            ExperimentScale::Smoke,
            5,
            &store,
            &[],
            &completed,
            &|_| {},
            |index, row| {
                sunk.push((index, row.id.clone()));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0], all[1]);
        assert_eq!(sunk, vec![(1, all[1].id.clone())]);
        assert_eq!(stats.rows_skipped_resumed, 1);
        // Everything resumed: nothing runs, the stats say idle.
        let completed: CompletedSet = [0usize, 1].into_iter().collect();
        let (none, stats) = run_grid_resumable_in(
            &grid,
            ExperimentScale::Smoke,
            5,
            &store,
            &[],
            &completed,
            &|_| {},
            |_, _| Ok(()),
        )
        .unwrap();
        assert!(none.is_empty());
        assert_eq!(stats, SchedulerStats::idle(2));
        assert_eq!(stats.mode, "idle");
    }

    #[test]
    fn scheduler_stats_serialize_on_one_line() {
        let stats = SchedulerStats {
            mode: "work-stealing".to_string(),
            workers: 3,
            per_worker_cells: vec![2, 1, 1],
            steals: 1,
            rows_skipped_resumed: 4,
        };
        let json = stats.to_json();
        assert!(!json.contains('\n'), "scheduler stats must stay on one line");
        assert_eq!(
            json,
            "{\"mode\":\"work-stealing\",\"workers\":3,\"per_worker_cells\":[2,1,1],\
             \"steals\":1,\"rows_skipped_resumed\":4}"
        );
        // Attached to a summary it occupies exactly one filterable line.
        let grid = Scenario::smoke_grid();
        let rows =
            vec![run_scenario(&grid[0], 0, ExperimentScale::Smoke, scenario_seed(9, 0)).unwrap()];
        let summary = CampaignSummary::from_rows(&rows).with_scheduler(stats);
        let json = summary.to_json();
        let scheduler_lines: Vec<&str> =
            json.lines().filter(|l| l.contains("\"scheduler\"")).collect();
        assert_eq!(scheduler_lines.len(), 1);
        let filtered: String = json
            .lines()
            .filter(|l| !l.contains("\"scheduler\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(filtered, CampaignSummary::from_rows(&rows).to_json());
    }

    #[test]
    fn summary_folds_rows_and_serializes() {
        let grid = Scenario::smoke_grid();
        let rows: Vec<CampaignRow> = grid
            .iter()
            .take(2)
            .enumerate()
            .map(|(i, s)| run_scenario(s, i, ExperimentScale::Smoke, scenario_seed(9, i as u64)))
            .collect::<Result<_>>()
            .unwrap();
        let summary = CampaignSummary::from_rows(&rows);
        assert_eq!(summary.scenarios, 2);
        assert!(summary.episodes > 0);
        assert!((0.0..=1.0).contains(&summary.berry_wins_or_ties));
        assert!(summary.mean_energy_savings > 1.0);
        assert!(!summary.best_cell.is_empty());
        let json = summary.to_json();
        assert!(json.contains("\"mean_berry_success\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn axes_extend_a_cell_without_disturbing_its_row() {
        let grid = Scenario::smoke_grid();
        let scenario = &grid[0];
        let axes = vec![
            EvalAxis::new("error-free", PolicyRole::Classical, OperatingPoint::ErrorFree),
            EvalAxis::new("ber:0.005", PolicyRole::Berry, OperatingPoint::Ber(0.005)),
            EvalAxis::new(
                "deploy",
                PolicyRole::Berry,
                OperatingPoint::MissionAtDeployVoltage,
            ),
            EvalAxis::new(
                "chip1",
                PolicyRole::Berry,
                OperatingPoint::MissionOnChip {
                    chip: "chip1-random".into(),
                    ber: 0.0016,
                },
            ),
        ];
        let store = PolicyStore::in_memory();
        let with_axes =
            run_scenario_in(scenario, 0, ExperimentScale::Smoke, 21, 21, &store, &axes).unwrap();
        let plain = run_scenario(scenario, 0, ExperimentScale::Smoke, 21).unwrap();
        // One training for base row + four axes.
        assert_eq!(store.stats().trained, 1);
        assert_eq!(with_axes.axis_results.len(), 4);
        // The axes never leak into the standard deploy-point row.
        let mut stripped = with_axes.clone();
        stripped.axis_results.clear();
        assert_eq!(stripped, plain);
        let [ef, ber, deploy, chip1] = &with_axes.axis_results[..] else {
            panic!("expected four axis results");
        };
        assert_eq!(ef.scheme, "Classical");
        assert_eq!(ef.ber, 0.0);
        assert!(ef.processing.is_none());
        assert_eq!(ber.ber, 0.005);
        assert_eq!(deploy.voltage_norm, Some(scenario.deploy_voltage_norm()));
        assert!(deploy.quality_of_flight.is_some());
        assert!(chip1.processing.is_some());
        assert!(chip1.voltage_norm.unwrap() >= DEPLOY_VOLTAGE_FLOOR_NORM);
        // Unknown chips are rejected, not silently substituted.
        let bad = vec![EvalAxis::new(
            "bad",
            PolicyRole::Berry,
            OperatingPoint::MissionOnChip {
                chip: "no-such-chip".into(),
                ber: 0.001,
            },
        )];
        assert!(
            run_scenario_in(
                scenario,
                0,
                ExperimentScale::Smoke,
                21,
                21,
                &store,
                &bad,
            )
            .is_err()
        );
    }

    #[test]
    fn axes_only_grid_matches_full_cell_axis_results_bitwise() {
        let grid: Vec<Scenario> = Scenario::smoke_grid().into_iter().take(1).collect();
        let axes = vec![
            EvalAxis::new("ef", PolicyRole::Berry, OperatingPoint::ErrorFree),
            EvalAxis::new(
                "deploy",
                PolicyRole::Classical,
                OperatingPoint::MissionAtDeployVoltage,
            ),
        ];
        let store = PolicyStore::in_memory();
        let full =
            run_grid_streamed_in(&grid, ExperimentScale::Smoke, 31, &store, &axes, |_| Ok(()))
                .unwrap();
        let axes_only = run_axes_grid_in(&grid, ExperimentScale::Smoke, 31, &store, &axes).unwrap();
        assert_eq!(axes_only.len(), 1);
        // Same seed protocol (deploy seeds drawn then discarded), same
        // pair: the axis results must be bitwise identical even though the
        // axes-only path never paid the deploy-point evaluation.
        assert_eq!(axes_only[0].axis_results, full[0].axis_results);
        assert_eq!(axes_only[0].seed, full[0].seed);
        assert_eq!(axes_only[0].id, full[0].id);
        // And the pair was shared, not retrained.
        assert_eq!(store.stats().trained, 1);
    }

    #[test]
    fn cells_differing_only_by_platform_share_one_cached_pair() {
        let base = Scenario::smoke_grid()[0].clone();
        assert!(base.platform.contains("Crazyflie"));
        let other_platform = Scenario {
            platform: berry_uav::platform::UavPlatform::dji_tello().name().to_string(),
            ..base.clone()
        };
        let req_a = pair_request_for(&base, ExperimentScale::Smoke, 5).unwrap();
        let req_b = pair_request_for(&other_platform, ExperimentScale::Smoke, 5).unwrap();
        assert_eq!(
            req_a.fingerprint(),
            req_b.fingerprint(),
            "platform is evaluation-side only and must not enter the training fingerprint"
        );
        let store = PolicyStore::in_memory();
        let grid = vec![base, other_platform];
        let rows =
            run_grid_streamed_in(&grid, ExperimentScale::Smoke, 5, &store, &[], |_| Ok(()))
                .unwrap();
        assert_eq!(rows.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.trained, 1, "the two cells must share one training run");
        assert_eq!(stats.memory_hits, 1);
        // Same pair, different platforms: identical train metadata, but the
        // platform-dependent mission numbers differ.
        assert_eq!(
            rows[0].berry_train_success.to_bits(),
            rows[1].berry_train_success.to_bits()
        );
        assert_ne!(
            rows[0].quality_of_flight.flight_energy_j.to_bits(),
            rows[1].quality_of_flight.flight_energy_j.to_bits()
        );
    }

    #[test]
    fn error_summary_reports_status_and_progress() {
        let json = error_summary_json(3, 72, "campaign cell `x` failed: boom \"quoted\"");
        assert!(json.contains("\"status\": \"error\""));
        assert!(json.contains("\"rows_completed\": 3"));
        assert!(json.contains("\"scenarios\": 72"));
        assert!(json.contains("boom \\\"quoted\\\""));
        assert!(json.ends_with("}\n"));
        // The success summary declares its status too.
        let grid = Scenario::smoke_grid();
        let rows =
            vec![run_scenario(&grid[0], 0, ExperimentScale::Smoke, scenario_seed(9, 0)).unwrap()];
        assert!(CampaignSummary::from_rows(&rows).to_json().contains("\"status\": \"ok\""));
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\tb"), "\"a\\u0009b\"");
    }
}
