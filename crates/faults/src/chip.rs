//! Profiled-chip models combining a BER curve, a spatial pattern and a flip
//! bias.
//!
//! The paper evaluates BERRY against bit errors measured on two different
//! test chips (Table III): "Chip 1" with a random spatial error pattern and
//! "Chip 2" with a column-aligned pattern biased towards 0→1 flips.  A
//! [`ChipProfile`] bundles everything needed to draw fault maps for such a
//! chip at any operating voltage.

use crate::ber::VoltageBerModel;
use crate::fault_map::FaultMap;
use crate::pattern::ErrorPattern;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A model of one physical chip's low-voltage bit-error behaviour.
///
/// # Examples
///
/// ```
/// use berry_faults::chip::ChipProfile;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_faults::FaultError> {
/// let chip = ChipProfile::chip1_random();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let map = chip.fault_map_at_voltage(&mut rng, 8 * 4096, 0.77)?;
/// assert!(map.realized_ber() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipProfile {
    name: String,
    ber_model: VoltageBerModel,
    pattern: ErrorPattern,
    stuck_at_one_bias: f64,
    vmin_volts: f64,
}

impl ChipProfile {
    /// Creates a chip profile from its components.
    pub fn new(
        name: impl Into<String>,
        ber_model: VoltageBerModel,
        pattern: ErrorPattern,
        stuck_at_one_bias: f64,
        vmin_volts: f64,
    ) -> Self {
        Self {
            name: name.into(),
            ber_model,
            pattern,
            stuck_at_one_bias,
            vmin_volts,
        }
    }

    /// The generic chip used for training-time fault injection: Table II
    /// BER curve, uniform-random spatial pattern, unbiased flips, Vmin of
    /// 0.70 V (so that nominal 1 V operation is ≈ 1.43 Vmin, matching the
    /// paper's 2.05× energy gap between 1 V and Vmin).
    pub fn generic() -> Self {
        Self::new(
            "generic-14nm-sram",
            VoltageBerModel::from_table2(),
            ErrorPattern::UniformRandom,
            0.5,
            0.70,
        )
    }

    /// "Chip 1" of Table III: random spatial error pattern, unbiased flips.
    pub fn chip1_random() -> Self {
        Self::new(
            "chip1-random",
            VoltageBerModel::from_table2(),
            ErrorPattern::UniformRandom,
            0.5,
            0.70,
        )
    }

    /// "Chip 2" of Table III: column-aligned error pattern with a bias
    /// towards 0→1 flips.
    pub fn chip2_column_aligned() -> Self {
        Self::new(
            "chip2-column-aligned",
            VoltageBerModel::from_table2(),
            ErrorPattern::column_aligned_default(),
            0.8,
            0.70,
        )
    }

    /// All built-in chip profiles (used by the scenario grid).
    pub fn all_builtin() -> Vec<ChipProfile> {
        vec![
            Self::generic(),
            Self::chip1_random(),
            Self::chip2_column_aligned(),
        ]
    }

    /// The chip's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chip's voltage → BER curve.
    pub fn ber_model(&self) -> &VoltageBerModel {
        &self.ber_model
    }

    /// The chip's spatial fault pattern.
    pub fn pattern(&self) -> &ErrorPattern {
        &self.pattern
    }

    /// Probability that a faulty cell reads as 1.
    pub fn stuck_at_one_bias(&self) -> f64 {
        self.stuck_at_one_bias
    }

    /// The chip's Vmin in volts (lowest error-free voltage).
    pub fn vmin_volts(&self) -> f64 {
        self.vmin_volts
    }

    /// Converts an absolute supply voltage (volts) to the normalized
    /// Vmin-relative voltage this crate's models use.
    pub fn normalize_voltage(&self, volts: f64) -> f64 {
        volts / self.vmin_volts
    }

    /// Bit error rate (fraction) at a normalized voltage.
    ///
    /// # Errors
    ///
    /// Returns an error if the voltage is outside the supported range.
    pub fn ber_at_voltage(&self, voltage_norm: f64) -> Result<f64> {
        self.ber_model.ber_fraction(voltage_norm)
    }

    /// Draws a fault map for a memory of `total_bits` bits at the given
    /// normalized voltage.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range voltages or invalid pattern
    /// parameters.
    pub fn fault_map_at_voltage<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        total_bits: usize,
        voltage_norm: f64,
    ) -> Result<FaultMap> {
        let ber = self.ber_model.ber_fraction(voltage_norm)?;
        FaultMap::generate(rng, total_bits, ber, &self.pattern, self.stuck_at_one_bias)
    }

    /// Draws a fault map at an explicit bit error rate (fraction), ignoring
    /// the voltage curve — used when sweeping BER directly as in the paper's
    /// Table I and Fig. 3.
    ///
    /// # Errors
    ///
    /// Returns an error if `ber` is not a valid probability.
    pub fn fault_map_at_ber<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        total_bits: usize,
        ber: f64,
    ) -> Result<FaultMap> {
        FaultMap::generate(rng, total_bits, ber, &self.pattern, self.stuck_at_one_bias)
    }
}

impl Default for ChipProfile {
    fn default() -> Self {
        Self::generic()
    }
}

impl std::fmt::Display for ChipProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} pattern, stuck-at-1 bias {:.2}, Vmin {:.2} V)",
            self.name,
            self.pattern.name(),
            self.stuck_at_one_bias,
            self.vmin_volts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn builtin_profiles_have_distinct_names() {
        let names: Vec<String> = ChipProfile::all_builtin()
            .into_iter()
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(names.len(), 3);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn chip2_is_column_aligned_and_biased() {
        let chip = ChipProfile::chip2_column_aligned();
        assert_eq!(chip.pattern().name(), "column-aligned");
        assert!(chip.stuck_at_one_bias() > 0.5);
        let mut r = rng(1);
        let map = chip.fault_map_at_ber(&mut r, 200_000, 0.01).unwrap();
        assert!(map.stuck_at_one_fraction() > 0.7);
    }

    #[test]
    fn fault_map_at_voltage_scales_with_voltage() {
        let chip = ChipProfile::generic();
        let mut r = rng(2);
        let bits = 500_000;
        let high_v = chip.fault_map_at_voltage(&mut r, bits, 0.85).unwrap();
        let low_v = chip.fault_map_at_voltage(&mut r, bits, 0.68).unwrap();
        assert!(low_v.len() > high_v.len() * 10);
        let at_vmin = chip.fault_map_at_voltage(&mut r, bits, 1.0).unwrap();
        assert!(at_vmin.is_empty());
    }

    #[test]
    fn normalize_voltage_uses_vmin() {
        let chip = ChipProfile::generic();
        let norm = chip.normalize_voltage(1.0);
        assert!((norm - 1.0 / 0.70).abs() < 1e-9);
        assert!((chip.normalize_voltage(chip.vmin_volts()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_pattern() {
        let chip = ChipProfile::chip2_column_aligned();
        let s = chip.to_string();
        assert!(s.contains("column-aligned"));
        assert!(s.contains("chip2"));
    }

    #[test]
    fn default_is_generic() {
        assert_eq!(ChipProfile::default().name(), "generic-14nm-sram");
    }

    #[test]
    fn ber_at_voltage_matches_model() {
        let chip = ChipProfile::generic();
        let direct = chip.ber_model().ber_fraction(0.77).unwrap();
        assert_eq!(chip.ber_at_voltage(0.77).unwrap(), direct);
        // Outside the curve's supported range the chip reports an error.
        assert!(chip.ber_at_voltage(3.0).is_err());
        assert!(chip.ber_at_voltage(0.1).is_err());
    }
}
