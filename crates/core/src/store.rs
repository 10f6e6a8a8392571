//! The train-once policy store: a content-addressed cache of trained
//! Classical/BERRY policy pairs.
//!
//! Every table and figure of the paper evaluates the *same* trained policy
//! pairs under different fault conditions, yet each runner used to retrain
//! its pairs from scratch.  [`PolicyStore`] amortizes that cost the way
//! Stutz et al.'s bit-error robustness study amortizes one trained model
//! across an entire voltage/BER sweep: training is keyed by a
//! **fingerprint** of everything the trained weights are a function of —
//! network spec, environment (density + disturbance variant), trainer
//! hyper-parameters, learning mode, chip fault profile, quantization width
//! and the derived training seed — and each fingerprint is trained at most
//! once per store (and, with the on-disk layer, at most once per machine).
//!
//! # Determinism
//!
//! A [`PairRequest`]'s training seed is derived from the campaign base seed
//! and the request's *seedless* fingerprint hash via [`pair_seed`] — a
//! fourth SplitMix64-style family, disjoint from
//! [`crate::evaluate::fault_map_seed`], `berry_rl::vecenv::episode_seed`
//! and [`crate::campaign::scenario_seed`].  Training is a pure function of
//! the request, so a cache hit (memory or disk) returns **bitwise** the
//! weights a miss would have trained; downstream evaluation rows therefore
//! cannot tell whether the store was warm.  Notably the seed does *not*
//! depend on any grid index: two campaign cells (or two different runner
//! binaries sharing one store and base seed) that need the same pair
//! resolve to the same fingerprint and share one training run.
//!
//! # On-disk layer
//!
//! [`PolicyStore::with_dir`] adds a directory layer: each pair is stored as
//! `<hash>.pair` (a little-endian binary record of the fingerprint string,
//! training metadata and both flat-weight vectors — f32 bits are preserved
//! exactly — sealed by an FNV-1a checksum of every preceding byte) plus a
//! human-readable `<hash>.fingerprint.json` sidecar.  Loads verify the
//! checksum, the embedded fingerprint string and the sidecar against the
//! request, so a hash collision, a stale file, a torn write or a flipped
//! bit degrades to a retrain, never to wrong weights.
//!
//! # Crash safety
//!
//! The store is built to survive its own failures, not just serve hits:
//!
//! * **Persist errors are counted, never fatal.**  A full disk degrades
//!   the cache (the pair stays served from memory); the first failure is
//!   logged to stderr and every one is counted in
//!   [`StoreStats::persist_errors`].
//! * **Corrupt records are quarantined, not retrained over silently.**  A
//!   `.pair` file that exists but fails to decode — truncated, bit-flipped,
//!   undecodable, missing or garbled sidecar — is renamed to
//!   `<hash>.pair.corrupt` (sidecar to `<hash>.fingerprint.json.corrupt`),
//!   counted in [`StoreStats::corrupt_quarantined`], and the pair retrains;
//!   the evidence stays on disk for a post-mortem.
//! * **A panicking training marks only its own slot failed.**  The panic
//!   is caught at the store boundary, cached as that fingerprint's error
//!   ([`StoreStats::training_panics`]) and the slots mutex recovers from
//!   poisoning — one broken cell can never brick every later request of a
//!   resident server.
//!
//! Chaos tests drive these paths deterministically through the
//! [`crate::failpoint`] sites `store.persist` (return/torn-write),
//! `store.load` (treat a good record as corrupt) and `store.train`
//! (panic/error mid-training).

// lint: codec — wire/persist format: length and index conversions must be overflow-checked

use crate::error::CoreError;
use crate::robust::{train_berry_with_fault_map, BerryConfig, LearningMode};
use crate::Result;
use berry_faults::chip::ChipProfile;
use berry_nn::network::Sequential;
use berry_rl::env::Environment;
use berry_rl::policy::QNetworkSpec;
use berry_rl::trainer::{train_classical, TrainerConfig};
use berry_uav::env::{NavigationConfig, NavigationEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Episode window used for the cached train-success metadata (matches the
/// campaign's "trained at all" signal).
pub const TRAIN_SUCCESS_WINDOW: usize = 20;

/// Magic prefix of the on-disk pair record (versioned: bump on layout
/// change so stale caches degrade to retrains; `PS2` added the trailing
/// FNV-1a checksum that catches torn writes and flipped payload bits).
const PAIR_MAGIC: &[u8; 8] = b"BERRYPS2";

// The pair seed family and the fingerprint hash live in the central seed
// registry; the historical path `store::pair_seed` stays valid via this
// re-export.
pub use crate::seed::pair_seed;

use crate::seed::fnv1a64;

/// Everything a Classical/BERRY pair training run is a function of.
///
/// The classical baseline and the BERRY policy train sequentially off one
/// RNG stream seeded with [`PairRequest::seed`], exactly as the campaign
/// engine always trained its cells — the pair is the cache unit because
/// splitting it would change the BERRY policy's stream.
#[derive(Debug, Clone)]
pub struct PairRequest {
    /// Q-network architecture to train.
    pub spec: QNetworkSpec,
    /// Navigation-environment configuration (density, arena, disturbance
    /// variant, …) both policies train on.
    pub env: NavigationConfig,
    /// Episode-level training hyper-parameters shared by both policies.
    pub trainer: TrainerConfig,
    /// BERRY learning mode (offline train-BER or on-device voltage).
    pub mode: LearningMode,
    /// Chip profile supplying the spatial fault pattern during BERRY
    /// training.
    pub chip: ChipProfile,
    /// Quantization width used for fault injection.
    pub quant_bits: u8,
    /// The derived training seed (see [`PairRequest::new`]).
    pub seed: u64,
}

impl PairRequest {
    /// Builds a request whose training seed is derived from `base_seed` and
    /// the request's own (seedless) fingerprint via [`pair_seed`] — the
    /// canonical constructor: every consumer that derives seeds this way
    /// shares cache entries for identical training work.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: QNetworkSpec,
        env: NavigationConfig,
        trainer: TrainerConfig,
        mode: LearningMode,
        chip: ChipProfile,
        quant_bits: u8,
        base_seed: u64,
    ) -> Self {
        let mut request = Self {
            spec,
            env,
            trainer,
            mode,
            chip,
            quant_bits,
            seed: 0,
        };
        request.seed = pair_seed(base_seed, fnv1a64(&request.fingerprint_body()));
        request
    }

    /// The canonical fingerprint text *without* the seed — what the seed
    /// derivation hashes over.
    fn fingerprint_body(&self) -> String {
        format!(
            "berry-pair-v1;spec={:?};env={:?};trainer={:?};mode={:?};chip={:?};quant_bits={}",
            self.spec, self.env, self.trainer, self.mode, self.chip, self.quant_bits
        )
    }

    /// The full canonical fingerprint (cache key) of this request.
    pub fn fingerprint(&self) -> String {
        format!("{};seed={}", self.fingerprint_body(), self.seed)
    }

    /// 64-bit content hash of the fingerprint (used for file names).
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a64(&self.fingerprint())
    }
}

/// A cached Classical/BERRY policy pair plus the training metadata the
/// campaign rows report.
#[derive(Debug, Clone)]
pub struct TrainedPair {
    /// The architecture both policies share.
    pub spec: QNetworkSpec,
    /// Classically trained policy (no error injection).
    pub classical: Sequential,
    /// BERRY error-aware policy.
    pub berry: Sequential,
    /// Classical success rate over the last [`TRAIN_SUCCESS_WINDOW`]
    /// training episodes.
    pub classical_train_success: f64,
    /// BERRY success rate over the last [`TRAIN_SUCCESS_WINDOW`] training
    /// episodes.
    pub berry_train_success: f64,
    /// Number of BERRY dual-pass optimizer updates performed.
    pub robust_updates: u64,
}

/// Hit/miss counters of a [`PolicyStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Pairs trained from scratch by this store instance.
    pub trained: u64,
    /// Requests served from the in-memory map (including in-flight joins).
    pub memory_hits: u64,
    /// Requests served from the on-disk layer.
    pub disk_hits: u64,
    /// The subset of `memory_hits` that arrived while the pair was still
    /// **being trained** and blocked on the in-flight run instead of
    /// retraining — the dedup signal `berry-serve` reports when N
    /// concurrent clients request the same cell.
    pub inflight_joins: u64,
    /// On-disk persists that failed (full disk, injected fault, torn
    /// write).  The pair stays served from memory; only the cache layer
    /// degraded.
    pub persist_errors: u64,
    /// Corrupt `.pair` records (truncated, bit-flipped, bad sidecar)
    /// renamed to `<hash>.pair.corrupt` instead of silently retrained
    /// over.
    pub corrupt_quarantined: u64,
    /// Training runs that panicked and were caught at the store boundary,
    /// failing only their own fingerprint slot.
    pub training_panics: u64,
}

type Slot = Arc<OnceLock<std::result::Result<Arc<TrainedPair>, CoreError>>>;

/// A content-addressed cache of trained policy pairs: an in-memory map
/// (always) plus an optional on-disk layer.
///
/// Thread-safe: campaign cells sharded across rayon workers can request
/// pairs concurrently; two workers racing on the same fingerprint
/// deduplicate onto one training run (the second blocks on the first's
/// `OnceLock` instead of retraining).
#[derive(Debug)]
pub struct PolicyStore {
    slots: Mutex<HashMap<String, Slot>>,
    dir: Option<PathBuf>,
    trained: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    inflight_joins: AtomicU64,
    persist_errors: AtomicU64,
    corrupt_quarantined: AtomicU64,
    training_panics: AtomicU64,
    /// Whether the one-time persist-failure stderr notice has been
    /// printed (later failures only count, so a dying disk cannot flood
    /// the log at one line per trained pair).
    persist_error_logged: std::sync::atomic::AtomicBool,
}

impl Default for PolicyStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl PolicyStore {
    /// A purely in-memory store (the default for one-shot runs and tests).
    pub fn in_memory() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            dir: None,
            trained: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            inflight_joins: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
            corrupt_quarantined: AtomicU64::new(0),
            training_panics: AtomicU64::new(0),
            persist_error_logged: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A store backed by `dir`: misses consult (and populate) flat-weight
    /// records on disk, so repeated runs — even across processes — retrain
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            CoreError::InvalidConfig(format!(
                "cannot create policy-store directory {}: {e}",
                dir.display()
            ))
        })?;
        Ok(Self {
            dir: Some(dir),
            ..Self::in_memory()
        })
    }

    /// The on-disk layer's directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            trained: self.trained.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            inflight_joins: self.inflight_joins.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::Relaxed),
            training_panics: self.training_panics.load(Ordering::Relaxed),
        }
    }

    /// The fingerprints of every resident slot, **sorted** — the slot map
    /// hashes its keys, so any emitted ordering (status lines, debug
    /// dumps) must be imposed here rather than inherited from HashMap
    /// iteration order (house rule: `hashmap-iteration`).
    pub fn cached_fingerprints(&self) -> Vec<String> {
        let slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // lint: allow(hashmap-iteration) why: the only slot-map traversal; the collected keys are sorted on the next line before anything observes them
        let mut keys: Vec<String> = slots.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Returns the trained pair for `request`, training it (at most once
    /// per fingerprint) on a miss.
    ///
    /// # Errors
    ///
    /// Returns an error if training fails *or panics* (the panic is caught
    /// here, so it poisons nothing); either way the error is cached, so
    /// concurrent requesters of the same broken fingerprint all observe it
    /// without retraining — and requests for other fingerprints are
    /// entirely unaffected.
    pub fn get_or_train(&self, request: &PairRequest) -> Result<Arc<TrainedPair>> {
        let key = request.fingerprint();
        let slot = {
            // Recover the map from a poisoned lock: the map itself is
            // only ever mutated by `entry().or_default()`, which cannot
            // leave it half-written, so the inner value is always safe to
            // take — a panicked requester must not brick the whole store.
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(slots.entry(key).or_default())
        };
        // Distinguish a hit on a *finished* slot from joining a training
        // still in flight: the join blocks inside `get_or_init` until the
        // initializing thread finishes, sharing its single training run.
        let was_complete = slot.get().is_some();
        let mut initialized = false;
        let outcome = slot.get_or_init(|| {
            initialized = true;
            if let Some(pair) = self.load_from_disk(request) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::new(pair));
            }
            match self.train_pair_caught(request) {
                Ok(pair) => {
                    self.trained.fetch_add(1, Ordering::Relaxed);
                    let pair = Arc::new(pair);
                    self.persist(request, &pair);
                    Ok(pair)
                }
                Err(e) => Err(e),
            }
        });
        if !initialized {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            if !was_complete {
                self.inflight_joins.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome.clone()
    }

    /// Runs the training behind a panic guard: a panicking trainer fails
    /// only this fingerprint's slot (with a cached, descriptive error)
    /// instead of unwinding through the `OnceLock` and every thread
    /// blocked on it.
    fn train_pair_caught(&self, request: &PairRequest) -> Result<TrainedPair> {
        let guarded = || -> Result<TrainedPair> {
            // The `store.train` site lives inside the guard on purpose:
            // an injected panic exercises exactly the isolation path a
            // real trainer panic would take.
            if let Some(action) = crate::failpoint::hit("store.train") {
                match action {
                    crate::failpoint::Action::ReturnError(msg) => {
                        return Err(CoreError::Internal(format!("failpoint store.train: {msg}")));
                    }
                    crate::failpoint::Action::Delay(d) => std::thread::sleep(d),
                    crate::failpoint::Action::Panic => {
                        // lint: allow(panic-in-lib) why: injected panic is the point — it exercises the catch_unwind isolation below
                        panic!("failpoint `store.train`: injected panic")
                    }
                    _ => {}
                }
            }
            train_pair(request)
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(guarded)) {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.training_panics.fetch_add(1, Ordering::Relaxed);
                let msg = crate::failpoint::panic_message(&*payload);
                eprintln!(
                    "store: training panicked for fingerprint {:016x} \
                     (only this slot is marked failed): {msg}",
                    request.fingerprint_hash()
                );
                Err(CoreError::Internal(format!(
                    "training panicked for fingerprint {:016x}: {msg}",
                    request.fingerprint_hash()
                )))
            }
        }
    }

    fn pair_path(&self, request: &PairRequest) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.pair", request.fingerprint_hash())))
    }

    /// Writes the binary pair record and its JSON sidecar (best effort: a
    /// full disk degrades the cache, it does not fail the run — but the
    /// failure is **counted** in [`StoreStats::persist_errors`] and the
    /// first one is logged to stderr, never silently swallowed).
    fn persist(&self, request: &PairRequest, pair: &TrainedPair) {
        let Some(path) = self.pair_path(request) else {
            return;
        };
        let bytes = encode_pair(&request.fingerprint(), pair);
        if let Err(e) = self.persist_record(&path, &bytes, request) {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
            if !self
                .persist_error_logged
                .swap(true, std::sync::atomic::Ordering::Relaxed)
            {
                eprintln!(
                    "store: failed to persist {}: {e} (pair stays served from \
                     memory; counting later persist errors silently)",
                    path.display()
                );
            }
        }
    }

    /// The fallible body of [`Self::persist`], with the `store.persist`
    /// failpoint threaded through: `return` fails the write outright,
    /// `torn(K)` leaves a truncated record at the **final** path — exactly
    /// the wreckage a crash mid-write leaves — for the next load to
    /// quarantine.
    fn persist_record(
        &self,
        path: &Path,
        bytes: &[u8],
        request: &PairRequest,
    ) -> std::io::Result<()> {
        match crate::failpoint::hit("store.persist") {
            Some(crate::failpoint::Action::ReturnError(msg)) => {
                return Err(std::io::Error::other(format!(
                    "failpoint store.persist: {msg}"
                )));
            }
            Some(crate::failpoint::Action::TornWrite(n)) => {
                let n = n.min(bytes.len());
                std::fs::write(path, &bytes[..n])?;
                return Err(std::io::Error::other(format!(
                    "failpoint store.persist: torn write ({n} of {} bytes)",
                    bytes.len()
                )));
            }
            Some(crate::failpoint::Action::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
        write_atomically(path, bytes)?;
        let sidecar = path.with_extension("fingerprint.json");
        write_atomically(&sidecar, fingerprint_json(request).as_bytes())
    }

    /// Renames a corrupt on-disk record (and its sidecar) to `.corrupt`
    /// siblings so the evidence survives the retrain that overwrites the
    /// live paths.
    fn quarantine(&self, path: &Path, why: &str) {
        self.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
        let dest = path.with_extension("pair.corrupt");
        let renamed = std::fs::rename(path, &dest);
        let sidecar = path.with_extension("fingerprint.json");
        if sidecar.exists() {
            let _ = std::fs::rename(&sidecar, path.with_extension("fingerprint.json.corrupt"));
        }
        eprintln!(
            "store: corrupt pair record {} ({why}); {} — the pair will retrain",
            path.display(),
            match renamed {
                Ok(()) => format!("quarantined to {}", dest.display()),
                Err(e) => format!("quarantine rename failed: {e}"),
            }
        );
    }

    /// Attempts to load `request` from the on-disk layer.
    ///
    /// A *missing* file (or a valid record for a different fingerprint —
    /// a hash collision) is a plain miss.  A file that **exists but is
    /// broken** — truncated, checksum-failed, undecodable, inconsistent
    /// with its sidecar, or weights that no longer fit the architecture —
    /// is quarantined to `<hash>.pair.corrupt` and then missed, so the
    /// retrain never silently papers over disk corruption.
    fn load_from_disk(&self, request: &PairRequest) -> Option<TrainedPair> {
        let path = self.pair_path(request)?;
        let mut bytes = Vec::new();
        match std::fs::File::open(&path) {
            Ok(mut file) => file.read_to_end(&mut bytes).ok()?,
            Err(_) => return None,
        };
        if let Some(crate::failpoint::Action::ReturnError(msg)) =
            crate::failpoint::hit("store.load")
        {
            self.quarantine(&path, &format!("failpoint store.load: {msg}"));
            return None;
        }
        let Some(record) = decode_pair(&bytes) else {
            self.quarantine(&path, "record does not decode (truncated or bit-flipped)");
            return None;
        };
        if record.fingerprint != request.fingerprint() {
            // Self-consistent record for some other request: stale hash
            // collision, not corruption.  Plain miss; the retrain
            // overwrites it.
            return None;
        }
        // The sidecar is part of the record's integrity story: a pair
        // whose human-readable identity vanished or no longer matches is
        // evidence of a half-destroyed cache directory.
        let sidecar = path.with_extension("fingerprint.json");
        let hash_line = format!("\"hash\": \"{:016x}\"", request.fingerprint_hash());
        match std::fs::read_to_string(&sidecar) {
            Ok(text) if text.contains(&hash_line) => {}
            Ok(_) => {
                self.quarantine(&path, "sidecar does not match the record");
                return None;
            }
            Err(_) => {
                self.quarantine(&path, "sidecar missing or unreadable");
                return None;
            }
        }
        // Rebuild the networks through the spec → flat-weights round trip;
        // the environment supplies the observation/action geometry.
        let env = NavigationEnv::new(request.env.clone()).ok()?;
        let shape = env.observation_shape();
        let actions = env.num_actions();
        let built = request
            .spec
            .build_with_flat_weights(&shape, actions, &record.classical)
            .and_then(|classical| {
                let berry = request
                    .spec
                    .build_with_flat_weights(&shape, actions, &record.berry)?;
                Ok((classical, berry))
            });
        let (classical, berry) = match built {
            Ok(pair) => pair,
            Err(_) => {
                self.quarantine(&path, "weights do not fit the requested architecture");
                return None;
            }
        };
        Some(TrainedPair {
            spec: request.spec.clone(),
            classical,
            berry,
            classical_train_success: record.classical_train_success,
            berry_train_success: record.berry_train_success,
            robust_updates: record.robust_updates,
        })
    }
}

/// Trains the Classical/BERRY pair for a request — the single training
/// call site every runner now funnels through.  Classical first, BERRY
/// second, both off one stream seeded by the request (the structure the
/// campaign engine has always used for its cells).
fn train_pair(request: &PairRequest) -> Result<TrainedPair> {
    let mut rng = StdRng::seed_from_u64(request.seed);
    let mut env = NavigationEnv::new(request.env.clone())?;
    let (classical_agent, classical_report) =
        train_classical(&mut env, &request.spec, &request.trainer, &mut rng)?;
    let berry_config = BerryConfig {
        trainer: request.trainer.clone(),
        mode: request.mode,
        chip: request.chip.clone(),
        quant_bits: request.quant_bits,
    };
    let mut env = NavigationEnv::new(request.env.clone())?;
    let outcome = train_berry_with_fault_map(&mut env, &request.spec, &berry_config, &mut rng)?;
    Ok(TrainedPair {
        spec: request.spec.clone(),
        classical: classical_agent.q_net().clone(),
        berry: outcome.agent.q_net().clone(),
        classical_train_success: classical_report.recent_success_rate(TRAIN_SUCCESS_WINDOW),
        berry_train_success: outcome.report.recent_success_rate(TRAIN_SUCCESS_WINDOW),
        robust_updates: outcome.robust_updates,
    })
}

// ---------------------------------------------------------------------------
// On-disk record encoding (little-endian, exact f32/f64 bit preservation).
// ---------------------------------------------------------------------------

struct PairRecord {
    fingerprint: String,
    classical_train_success: f64,
    berry_train_success: f64,
    robust_updates: u64,
    classical: Vec<f32>,
    berry: Vec<f32>,
}

// The pair record's integrity seal — FNV-1a over raw bytes, from the
// central seed registry.
use crate::seed::fnv1a64_bytes;

fn encode_pair(fingerprint: &str, pair: &TrainedPair) -> Vec<u8> {
    let classical = pair.classical.to_flat_weights();
    let berry = pair.berry.to_flat_weights();
    let mut out = Vec::with_capacity(72 + fingerprint.len() + 4 * (classical.len() + berry.len()));
    out.extend_from_slice(PAIR_MAGIC);
    out.extend_from_slice(&(fingerprint.len() as u64).to_le_bytes());
    out.extend_from_slice(fingerprint.as_bytes());
    out.extend_from_slice(&pair.classical_train_success.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.berry_train_success.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.robust_updates.to_le_bytes());
    for weights in [&classical, &berry] {
        out.extend_from_slice(&(weights.len() as u64).to_le_bytes());
        for w in weights.iter() {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    // Trailing checksum over every preceding byte: a torn write or a
    // flipped payload bit is detected at load, not trained over.
    let checksum = fnv1a64_bytes(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn decode_pair(bytes: &[u8]) -> Option<PairRecord> {
    // The checksum guards everything before it; verify first so decoding
    // below never touches corrupted lengths.
    let body_len = bytes.len().checked_sub(8)?;
    let (body, seal) = bytes.split_at(body_len);
    let stored = u64::from_le_bytes(seal.try_into().ok()?);
    if fnv1a64_bytes(body) != stored {
        return None;
    }
    let bytes = body;
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Option<&[u8]> {
        let end = cursor.checked_add(n)?;
        let slice = bytes.get(*cursor..end)?;
        *cursor = end;
        Some(slice)
    };
    let take_u64 = |cursor: &mut usize| -> Option<u64> {
        Some(u64::from_le_bytes(take(cursor, 8)?.try_into().ok()?))
    };
    if take(&mut cursor, PAIR_MAGIC.len())? != PAIR_MAGIC {
        return None;
    }
    let fp_len = usize::try_from(take_u64(&mut cursor)?).ok()?;
    let fingerprint = std::str::from_utf8(take(&mut cursor, fp_len)?).ok()?.to_string();
    let classical_train_success = f64::from_bits(take_u64(&mut cursor)?);
    let berry_train_success = f64::from_bits(take_u64(&mut cursor)?);
    let robust_updates = take_u64(&mut cursor)?;
    let read_weights = |cursor: &mut usize| -> Option<Vec<f32>> {
        let count = usize::try_from(take_u64(cursor)?).ok()?;
        let raw = take(cursor, count.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
        )
    };
    let classical = read_weights(&mut cursor)?;
    let berry = read_weights(&mut cursor)?;
    if cursor != bytes.len() {
        return None;
    }
    Some(PairRecord {
        fingerprint,
        classical_train_success,
        berry_train_success,
        robust_updates,
        classical,
        berry,
    })
}

fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Minimal JSON escaping for the sidecar.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            // lint: allow(unchecked-len-cast) why: char to u32 is lossless by definition, not a length narrowing
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The human-readable fingerprint sidecar written next to each pair record.
fn fingerprint_json(request: &PairRequest) -> String {
    format!(
        "{{\n  \"hash\": \"{:016x}\",\n  \"spec\": \"{}\",\n  \"density\": \"{}\",\n  \
         \"variant\": \"{}\",\n  \"mode\": \"{}\",\n  \"chip\": \"{}\",\n  \
         \"quant_bits\": {},\n  \"seed\": {},\n  \"fingerprint\": \"{}\"\n}}\n",
        request.fingerprint_hash(),
        request.spec.name(),
        request.env.density.label(),
        request.env.variant.label(),
        request.mode.label(),
        json_escape(request.chip.name()),
        request.quant_bits,
        request.seed,
        json_escape(&request.fingerprint()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use berry_uav::world::ObstacleDensity;

    /// Serializes the tests that persist to or load from disk with the
    /// failpoint test, which arms the process-global `store.persist` and
    /// `store.load` sites: a disk test running while they are armed would
    /// have its own writes and reads fail.
    fn disk_sites_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn smoke_request(base_seed: u64) -> PairRequest {
        let scale = crate::experiment::ExperimentScale::Smoke;
        PairRequest::new(
            QNetworkSpec::mlp(vec![16]),
            scale.navigation_config(ObstacleDensity::Sparse),
            TrainerConfig::smoke_test(),
            LearningMode::offline(0.005),
            ChipProfile::generic(),
            8,
            base_seed,
        )
    }

    #[test]
    fn cached_fingerprints_are_sorted_regardless_of_insertion_order() {
        // The slot map is a HashMap; the listing must not leak its
        // iteration order.
        let keys = ["fp=charlie", "fp=alpha", "fp=bravo"];
        let forward = PolicyStore::in_memory();
        let reverse = PolicyStore::in_memory();
        for key in keys {
            forward.slots.lock().unwrap().entry(key.to_string()).or_default();
        }
        for key in keys.iter().rev() {
            reverse.slots.lock().unwrap().entry(key.to_string()).or_default();
        }
        let listed = forward.cached_fingerprints();
        assert_eq!(listed, ["fp=alpha", "fp=bravo", "fp=charlie"]);
        assert_eq!(listed, reverse.cached_fingerprints());
    }

    #[test]
    fn fingerprints_are_canonical_and_seed_sensitive() {
        let a = smoke_request(1);
        let b = smoke_request(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.seed, b.seed);
        let c = smoke_request(2);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.seed, c.seed);
        // Any training-relevant field moves the fingerprint.
        let mut d = smoke_request(1);
        d.quant_bits = 4;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let e = PairRequest::new(
            QNetworkSpec::mlp(vec![17]),
            a.env.clone(),
            a.trainer.clone(),
            a.mode,
            a.chip.clone(),
            a.quant_bits,
            1,
        );
        assert_ne!(a.fingerprint(), e.fingerprint());
        assert_ne!(a.seed, e.seed, "spec must shift the derived seed");
    }

    #[test]
    fn pair_seed_family_mixes_and_differs_from_identity() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|h| pair_seed(2023, h)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(pair_seed(2023, 0), 2023);
        assert_ne!(pair_seed(1, 9), pair_seed(2, 9));
    }

    #[test]
    fn memory_store_trains_once_and_serves_hits() {
        let store = PolicyStore::in_memory();
        let request = smoke_request(7);
        let first = store.get_or_train(&request).unwrap();
        let second = store.get_or_train(&request).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = store.stats();
        assert_eq!(stats.trained, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.disk_hits, 0);
        // The cached pair is a real trained pair.
        assert_eq!(first.classical.param_count(), first.berry.param_count());
        assert_ne!(first.classical.to_flat_weights(), first.berry.to_flat_weights());
        assert!(first.robust_updates > 0);
    }

    #[test]
    fn concurrent_requests_share_one_training_and_count_joins() {
        let store = PolicyStore::in_memory();
        let request = smoke_request(21);
        const CLIENTS: usize = 4;
        let pairs: Vec<Arc<TrainedPair>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| scope.spawn(|| store.get_or_train(&request).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in &pairs[1..] {
            assert!(Arc::ptr_eq(&pairs[0], pair));
        }
        let stats = store.stats();
        assert_eq!(stats.trained, 1, "duplicates must share one training");
        assert_eq!(stats.memory_hits as usize, CLIENTS - 1);
        // Every non-training client either joined in flight or hit the
        // finished slot; joins never exceed the hit count.
        assert!(stats.inflight_joins <= stats.memory_hits);
        // A request after completion is a plain hit, not a join.
        let joins_before = stats.inflight_joins;
        store.get_or_train(&request).unwrap();
        let after = store.stats();
        assert_eq!(after.memory_hits as usize, CLIENTS);
        assert_eq!(after.inflight_joins, joins_before);
    }

    #[test]
    fn training_is_a_pure_function_of_the_request() {
        let request = smoke_request(11);
        let a = PolicyStore::in_memory().get_or_train(&request).unwrap();
        let b = PolicyStore::in_memory().get_or_train(&request).unwrap();
        assert_eq!(a.classical.to_flat_weights(), b.classical.to_flat_weights());
        assert_eq!(a.berry.to_flat_weights(), b.berry.to_flat_weights());
        assert_eq!(a.classical_train_success.to_bits(), b.classical_train_success.to_bits());
        assert_eq!(a.robust_updates, b.robust_updates);
    }

    #[test]
    fn disk_layer_round_trips_bitwise_and_counts_disk_hits() {
        let _disk = disk_sites_lock();
        let dir = std::env::temp_dir().join(format!(
            "berry-policy-store-test-{}-{:x}",
            std::process::id(),
            pair_seed(0xD15C, 0)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let request = smoke_request(13);

        let cold = PolicyStore::with_dir(&dir).unwrap();
        let trained = cold.get_or_train(&request).unwrap();
        assert_eq!(cold.stats().trained, 1);
        // Both the record and its JSON sidecar exist.
        let pair_file = dir.join(format!("{:016x}.pair", request.fingerprint_hash()));
        assert!(pair_file.exists());
        assert!(pair_file.with_extension("fingerprint.json").exists());
        let sidecar =
            std::fs::read_to_string(pair_file.with_extension("fingerprint.json")).unwrap();
        assert!(sidecar.contains("\"spec\": \"MLP\""));
        assert!(sidecar.contains("\"mode\": \"offline\""));

        // A fresh store over the same directory loads instead of training.
        let warm = PolicyStore::with_dir(&dir).unwrap();
        let loaded = warm.get_or_train(&request).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.trained, 0, "warm store must not retrain");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(loaded.classical.to_flat_weights(), trained.classical.to_flat_weights());
        assert_eq!(loaded.berry.to_flat_weights(), trained.berry.to_flat_weights());
        assert_eq!(
            loaded.classical_train_success.to_bits(),
            trained.classical_train_success.to_bits()
        );
        assert_eq!(
            loaded.berry_train_success.to_bits(),
            trained.berry_train_success.to_bits()
        );
        assert_eq!(loaded.robust_updates, trained.robust_updates);

        // A different request misses the stale file and trains its own pair.
        let other = smoke_request(14);
        warm.get_or_train(&other).unwrap();
        assert_eq!(warm.stats().trained, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_records_degrade_to_retrains() {
        let record = encode_pair("fp", &TrainedPair {
            spec: QNetworkSpec::mlp(vec![4]),
            classical: QNetworkSpec::mlp(vec![4])
                .build(&[2], 2, &mut StdRng::seed_from_u64(0))
                .unwrap(),
            berry: QNetworkSpec::mlp(vec![4])
                .build(&[2], 2, &mut StdRng::seed_from_u64(1))
                .unwrap(),
            classical_train_success: 0.5,
            berry_train_success: 0.25,
            robust_updates: 3,
        });
        assert!(decode_pair(&record).is_some());
        // Truncation, trailing junk and a foreign magic are all rejected.
        assert!(decode_pair(&record[..record.len() - 1]).is_none());
        let mut long = record.clone();
        long.push(0);
        assert!(decode_pair(&long).is_none());
        let mut bad_magic = record.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode_pair(&bad_magic).is_none());
        assert!(decode_pair(b"").is_none());
    }

    #[test]
    fn encode_decode_preserves_every_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = QNetworkSpec::mlp(vec![8, 4]);
        let pair = TrainedPair {
            spec: spec.clone(),
            classical: spec.build(&[3], 5, &mut rng).unwrap(),
            berry: spec.build(&[3], 5, &mut rng).unwrap(),
            classical_train_success: 0.123_456_789,
            berry_train_success: f64::from_bits(0x3FE5_5555_5555_5555),
            robust_updates: 42,
        };
        let bytes = encode_pair("some fingerprint", &pair);
        let record = decode_pair(&bytes).unwrap();
        assert_eq!(record.fingerprint, "some fingerprint");
        assert_eq!(record.classical, pair.classical.to_flat_weights());
        assert_eq!(record.berry, pair.berry.to_flat_weights());
        assert_eq!(
            record.classical_train_success.to_bits(),
            pair.classical_train_success.to_bits()
        );
        assert_eq!(
            record.berry_train_success.to_bits(),
            pair.berry_train_success.to_bits()
        );
        assert_eq!(record.robust_updates, 42);
    }

    #[test]
    fn checksum_catches_any_single_flipped_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = QNetworkSpec::mlp(vec![4]);
        let pair = TrainedPair {
            spec: spec.clone(),
            classical: spec.build(&[2], 2, &mut rng).unwrap(),
            berry: spec.build(&[2], 2, &mut rng).unwrap(),
            classical_train_success: 0.5,
            berry_train_success: 0.5,
            robust_updates: 1,
        };
        let bytes = encode_pair("fp", &pair);
        // Every byte position — header, fingerprint, floats, lengths,
        // weights and the seal itself — must be covered.
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            assert!(
                decode_pair(&flipped).is_none(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    // -- crash-safety: the satellite corruption matrix ---------------------

    /// Trains one pair into a fresh scratch directory and returns the
    /// pieces the corruption matrix mutates.
    fn seeded_disk_store(tag: u64) -> (PathBuf, PairRequest, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "berry-store-corrupt-{}-{:x}",
            std::process::id(),
            pair_seed(0xC0DE, tag)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let request = smoke_request(40 + tag);
        let cold = PolicyStore::with_dir(&dir).unwrap();
        cold.get_or_train(&request).unwrap();
        assert_eq!(cold.stats().trained, 1);
        let pair_file = dir.join(format!("{:016x}.pair", request.fingerprint_hash()));
        assert!(pair_file.exists());
        (dir, request, pair_file)
    }

    /// The common second half of every corruption-matrix test: a warm
    /// store over the damaged directory quarantines the evidence,
    /// retrains, and re-persists a record the *next* store hits cleanly.
    fn assert_quarantined_and_retrained(dir: &Path, request: &PairRequest, pair_file: &Path) {
        let warm = PolicyStore::with_dir(dir).unwrap();
        warm.get_or_train(request).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.corrupt_quarantined, 1, "must quarantine exactly once");
        assert_eq!(stats.trained, 1, "a corrupt record must retrain");
        assert_eq!(stats.disk_hits, 0);
        assert!(
            pair_file.with_extension("pair.corrupt").exists(),
            "the corrupt record must survive as evidence"
        );
        let healed = PolicyStore::with_dir(dir).unwrap();
        healed.get_or_train(request).unwrap();
        let healed_stats = healed.stats();
        assert_eq!(healed_stats.trained, 0, "the retrain must have re-persisted");
        assert_eq!(healed_stats.disk_hits, 1);
        assert_eq!(healed_stats.corrupt_quarantined, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_pair_record_is_quarantined_and_retrained() {
        let _disk = disk_sites_lock();
        let (dir, request, pair_file) = seeded_disk_store(1);
        let bytes = std::fs::read(&pair_file).unwrap();
        std::fs::write(&pair_file, &bytes[..bytes.len() / 2]).unwrap();
        assert_quarantined_and_retrained(&dir, &request, &pair_file);
    }

    #[test]
    fn bit_flipped_pair_record_is_quarantined_and_retrained() {
        let _disk = disk_sites_lock();
        let (dir, request, pair_file) = seeded_disk_store(2);
        let mut bytes = std::fs::read(&pair_file).unwrap();
        let target = bytes.len() * 3 / 4; // deep in the weight payload
        bytes[target] ^= 0x01;
        std::fs::write(&pair_file, &bytes).unwrap();
        assert_quarantined_and_retrained(&dir, &request, &pair_file);
    }

    #[test]
    fn missing_sidecar_is_quarantined_and_retrained() {
        let _disk = disk_sites_lock();
        let (dir, request, pair_file) = seeded_disk_store(3);
        std::fs::remove_file(pair_file.with_extension("fingerprint.json")).unwrap();
        assert_quarantined_and_retrained(&dir, &request, &pair_file);
    }

    #[test]
    fn garbled_sidecar_is_quarantined_and_retrained() {
        let _disk = disk_sites_lock();
        let (dir, request, pair_file) = seeded_disk_store(4);
        std::fs::write(
            pair_file.with_extension("fingerprint.json"),
            "{\"hash\": \"0000000000000000\"}\n",
        )
        .unwrap();
        assert_quarantined_and_retrained(&dir, &request, &pair_file);
    }

    #[test]
    fn poisoned_slots_mutex_recovers() {
        let store = PolicyStore::in_memory();
        let request = smoke_request(31);
        store.get_or_train(&request).unwrap();
        // Panic while holding the slots lock — the canonical way a mutex
        // gets poisoned in production.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.slots.lock().unwrap();
            panic!("poison the slots mutex");
        }));
        assert!(store.slots.is_poisoned());
        // The store still serves hits and still trains new fingerprints.
        store.get_or_train(&request).unwrap();
        assert_eq!(store.stats().memory_hits, 1);
        let other = smoke_request(32);
        store.get_or_train(&other).unwrap();
        assert_eq!(store.stats().trained, 2);
    }

    /// The failpoint-driven chaos pass: one sequential test (sites are
    /// process-global, so splitting these into parallel tests would race
    /// on the registry).
    #[test]
    #[cfg(feature = "failpoints")]
    fn failpoints_drive_persist_torn_write_and_train_panic() {
        use crate::failpoint;
        let _disk = disk_sites_lock();

        let dir = std::env::temp_dir().join(format!(
            "berry-store-chaos-{}-{:x}",
            std::process::id(),
            pair_seed(0xFA11, 0)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 1: every persist fails outright.  The run still succeeds
        // from memory; the error is counted and nothing lands on disk.
        failpoint::arm("store.persist", "return(disk gone)").unwrap();
        let store = PolicyStore::with_dir(&dir).unwrap();
        let request = smoke_request(60);
        store.get_or_train(&request).unwrap();
        assert_eq!(store.stats().persist_errors, 1);
        assert_eq!(store.stats().trained, 1);
        let pair_file = dir.join(format!("{:016x}.pair", request.fingerprint_hash()));
        assert!(!pair_file.exists(), "a failed persist must leave no record");

        // Phase 2: a torn write leaves a truncated record at the final
        // path; the next store quarantines it and retrains.
        failpoint::arm("store.persist", "torn(24)").unwrap();
        let torn = PolicyStore::with_dir(&dir).unwrap();
        torn.get_or_train(&request).unwrap();
        assert_eq!(torn.stats().persist_errors, 1);
        assert_eq!(std::fs::read(&pair_file).unwrap().len(), 24);
        failpoint::disarm("store.persist");
        let recovering = PolicyStore::with_dir(&dir).unwrap();
        recovering.get_or_train(&request).unwrap();
        let stats = recovering.stats();
        assert_eq!(stats.corrupt_quarantined, 1);
        assert_eq!(stats.trained, 1);
        assert!(pair_file.with_extension("pair.corrupt").exists());

        // Phase 3: an injected training panic fails only its own slot and
        // is cached; a different fingerprint trains fine afterwards.
        failpoint::arm("store.train", "times(1)*panic").unwrap();
        let isolated = PolicyStore::in_memory();
        let doomed = smoke_request(61);
        let err = isolated.get_or_train(&doomed).unwrap_err();
        assert!(matches!(err, CoreError::Internal(_)), "got {err}");
        assert!(err.to_string().contains("panicked"));
        assert_eq!(isolated.stats().training_panics, 1);
        // The cached error is returned without re-running training.
        let again = isolated.get_or_train(&doomed).unwrap_err();
        assert_eq!(err, again);
        assert_eq!(isolated.stats().training_panics, 1);
        // Other fingerprints are unaffected.
        isolated.get_or_train(&smoke_request(62)).unwrap();
        assert_eq!(isolated.stats().trained, 1);
        failpoint::disarm("store.train");

        // Phase 4: an injected load error quarantines a perfectly good
        // record (the "reads are lying" scenario).
        failpoint::arm("store.load", "return(read smeared)").unwrap();
        let distrusting = PolicyStore::with_dir(&dir).unwrap();
        distrusting.get_or_train(&request).unwrap();
        assert_eq!(distrusting.stats().corrupt_quarantined, 1);
        assert_eq!(distrusting.stats().trained, 1);
        failpoint::disarm("store.load");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
