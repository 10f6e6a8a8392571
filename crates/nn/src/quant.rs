//! Per-layer symmetric fixed-point quantization.
//!
//! The paper's fault model (Section IV, "Fault injection") injects bit
//! errors "following per-layer 8-bit quantization with rounding" into the
//! parameters held in on-chip SRAM.  This module provides that integer view:
//! every parameter tensor is quantized independently with a symmetric scale
//! `s = max|w| / (2^{bits-1} - 1)`, stored as raw two's-complement bytes so
//! that the `berry-faults` crate can flip individual bits, and dequantized
//! back into `f32` weights for inference or the perturbed training pass.

use crate::error::NnError;
use crate::network::Sequential;
use crate::tensor::Tensor;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Maximum supported quantization width in bits.
pub const MAX_BITS: u8 = 8;

/// `1.5·2²³`: adding it to an `f32` of magnitude below `2²²` rounds away
/// the fraction (to nearest, ties to even) and leaves the integer, two's
/// complement, in the low mantissa bits.
const ROUNDING_MAGIC: f32 = 12_582_912.0;

/// The two's-complement byte of `x.round().clamp(-qmax, qmax) as i8` for
/// an integer `qmax` ≤ 127 — rounding half away from zero, NaN to 0 —
/// without the per-value libm call `f32::round` is on the x86-64
/// baseline, and without a branch, so the quantization loops vectorize.
///
/// Clamping first is exact (clamp and rounding commute at an integer
/// bound) and keeps the magic-number rounding in range; its ties go to
/// even, so an exact half is moved away from zero instead.
#[inline(always)]
fn quantize_byte(x: f32, qmax: f32) -> u8 {
    let c = x.clamp(-qmax, qmax);
    let even = (c + ROUNDING_MAGIC) - ROUNDING_MAGIC;
    let r = if (c - even).abs() == 0.5 { c + 0.5f32.copysign(c) } else { even };
    let byte = (r + ROUNDING_MAGIC).to_bits() as u8;
    if c.is_nan() {
        0
    } else {
        byte
    }
}

/// A quantized view of a single parameter tensor.
///
/// Values are stored as the two's-complement byte pattern of the signed
/// quantized integer, so external code (the bit-error injector) can operate
/// on raw bytes without any unsafe casting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    shape: Vec<usize>,
    scale: f32,
    bits: u8,
    values: Vec<u8>,
}

impl QuantizedTensor {
    /// Quantizes a tensor with a symmetric per-tensor scale and rounding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] if `bits` is zero or greater
    /// than [`MAX_BITS`].
    pub fn quantize(tensor: &Tensor, bits: u8) -> Result<Self> {
        if bits == 0 || bits > MAX_BITS {
            return Err(NnError::InvalidArgument(format!(
                "quantization width must be in 1..={MAX_BITS}, got {bits}"
            )));
        }
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let abs_max = tensor.abs_max();
        // An all-zero tensor carries no information, so its scale is zero and
        // bit errors in its (all-zero) payload dequantize back to zero.  This
        // mirrors range-based quantization, where the stored range of a
        // constant-zero tensor collapses.
        let scale = if abs_max > 0.0 { abs_max / qmax } else { 0.0 };
        let values = tensor
            .data()
            .iter()
            .map(|&w| if scale == 0.0 { 0u8 } else { quantize_byte(w / scale, qmax) })
            .collect();
        Ok(Self {
            shape: tensor.shape().to_vec(),
            scale,
            bits,
            values,
        })
    }

    /// Reconstructs the floating-point tensor from the quantized bytes.
    pub fn dequantize(&self) -> Tensor {
        let data = self
            .values
            .iter()
            .map(|&b| (b as i8) as f32 * self.scale)
            .collect();
        Tensor::from_vec(self.shape.clone(), data)
            .expect("quantized tensor preserves element count")
    }

    /// Dequantizes directly into a caller-owned slice (the allocation-free
    /// variant used by the perturbation hot path).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have exactly `self.len()` elements.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "dequantize_into length mismatch");
        for (o, &b) in out.iter_mut().zip(self.values.iter()) {
            *o = (b as i8) as f32 * self.scale;
        }
    }

    /// Re-quantizes `tensor` into this snapshot in place (fresh scale and
    /// bytes, reusing the byte buffer), producing exactly the same state as
    /// [`QuantizedTensor::quantize`] at the same width.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `tensor`'s shape differs from
    /// the snapshot's.
    pub fn requantize_from(&mut self, tensor: &Tensor) -> Result<()> {
        if tensor.shape() != self.shape.as_slice() {
            return Err(NnError::ShapeMismatch {
                left: self.shape.clone(),
                right: tensor.shape().to_vec(),
            });
        }
        let qmax = ((1i32 << (self.bits - 1)) - 1) as f32;
        let abs_max = tensor.abs_max();
        let scale = if abs_max > 0.0 { abs_max / qmax } else { 0.0 };
        self.scale = scale;
        if scale == 0.0 {
            self.values.fill(0);
        } else {
            for (v, &w) in self.values.iter_mut().zip(tensor.data().iter()) {
                *v = quantize_byte(w / scale, qmax);
            }
        }
        Ok(())
    }

    /// Copies another snapshot's payload (scale and bytes) into this one,
    /// reusing this snapshot's allocations.
    ///
    /// # Errors
    ///
    /// Returns an error if the two snapshots differ in shape or bit width.
    pub fn copy_payload_from(&mut self, other: &QuantizedTensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        if self.bits != other.bits {
            return Err(NnError::InvalidArgument(format!(
                "bit width mismatch: {} vs {}",
                self.bits, other.bits
            )));
        }
        self.scale = other.scale;
        self.values.copy_from_slice(&other.values);
        Ok(())
    }

    /// The quantization scale (`f32` per integer step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantization width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Shape of the original tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of quantized values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of bits occupied in the (modelled) SRAM.
    pub fn total_bits(&self) -> usize {
        self.values.len() * self.bits as usize
    }

    /// Immutable view of the raw two's-complement bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.values
    }

    /// Mutable view of the raw two's-complement bytes — the surface into
    /// which low-voltage bit errors are injected.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.values
    }

    /// Maximum absolute quantization error for the given source tensor, in
    /// the original floating-point units.
    ///
    /// # Panics
    ///
    /// Panics if `original` has a different number of elements.
    pub fn max_error(&self, original: &Tensor) -> f32 {
        assert_eq!(original.len(), self.len());
        let deq = self.dequantize();
        deq.data()
            .iter()
            .zip(original.data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// A quantized snapshot of every parameter tensor in a network.
///
/// # Examples
///
/// ```
/// use berry_nn::network::Sequential;
/// use berry_nn::layer::Dense;
/// use berry_nn::quant::QuantizedNetwork;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 2, &mut rng));
/// let snapshot = QuantizedNetwork::from_network(&net, 8)?;
/// let mut copy = net.clone();
/// snapshot.write_to_network(&mut copy)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    tensors: Vec<QuantizedTensor>,
    bits: u8,
}

impl QuantizedNetwork {
    /// Quantizes every parameter tensor of `net` at the given bit width.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] if the bit width is unsupported.
    pub fn from_network(net: &Sequential, bits: u8) -> Result<Self> {
        let tensors = net
            .params()
            .iter()
            .map(|p| QuantizedTensor::quantize(p, bits))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { tensors, bits })
    }

    /// Writes the (possibly perturbed) quantized values back into `net`,
    /// replacing its floating-point parameters with their dequantized
    /// counterparts.
    ///
    /// # Errors
    ///
    /// Returns an error if `net` does not structurally match the snapshot.
    pub fn write_to_network(&self, net: &mut Sequential) -> Result<()> {
        let params = net.params_mut();
        if params.len() != self.tensors.len() {
            return Err(NnError::InvalidArgument(format!(
                "network has {} parameter tensors, snapshot has {}",
                params.len(),
                self.tensors.len()
            )));
        }
        for (p, q) in params.into_iter().zip(self.tensors.iter()) {
            if p.shape() != q.shape() {
                return Err(NnError::ShapeMismatch {
                    left: p.shape().to_vec(),
                    right: q.shape().to_vec(),
                });
            }
            q.dequantize_into(p.data_mut());
        }
        Ok(())
    }

    /// Re-quantizes every parameter tensor of `net` into this snapshot in
    /// place, reusing all allocations — the state afterwards is identical to
    /// a fresh [`QuantizedNetwork::from_network`] at the same width.
    ///
    /// # Errors
    ///
    /// Returns an error if `net` does not structurally match the snapshot.
    pub fn requantize_from(&mut self, net: &Sequential) -> Result<()> {
        let params = net.params();
        if params.len() != self.tensors.len() {
            return Err(NnError::InvalidArgument(format!(
                "network has {} parameter tensors, snapshot has {}",
                params.len(),
                self.tensors.len()
            )));
        }
        for (q, p) in self.tensors.iter_mut().zip(params) {
            q.requantize_from(p)?;
        }
        Ok(())
    }

    /// Copies another snapshot's payload (per-tensor scales and bytes) into
    /// this one, reusing this snapshot's allocations.  This is the cheap
    /// "reset to clean bytes" step each fault-map worker performs before
    /// injecting its flips.
    ///
    /// # Errors
    ///
    /// Returns an error if the two snapshots are not structurally identical.
    pub fn copy_payload_from(&mut self, other: &QuantizedNetwork) -> Result<()> {
        if self.tensors.len() != other.tensors.len() {
            return Err(NnError::InvalidArgument(format!(
                "snapshot has {} tensors, source has {}",
                self.tensors.len(),
                other.tensors.len()
            )));
        }
        for (d, s) in self.tensors.iter_mut().zip(other.tensors.iter()) {
            d.copy_payload_from(s)?;
        }
        Ok(())
    }

    /// The per-tensor quantized views.
    pub fn tensors(&self) -> &[QuantizedTensor] {
        &self.tensors
    }

    /// Mutable access to the per-tensor quantized views (for fault
    /// injection).
    pub fn tensors_mut(&mut self) -> &mut [QuantizedTensor] {
        &mut self.tensors
    }

    /// The quantization width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Total number of parameter bits held in the modelled SRAM.
    pub fn total_bits(&self) -> usize {
        self.tensors.iter().map(|t| t.total_bits()).sum()
    }

    /// Total number of quantized parameter values.
    pub fn total_values(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }
}

/// Quantizes and immediately dequantizes a network's parameters in place,
/// returning the number of parameter tensors processed.
///
/// This emulates running inference from quantized weights *without* bit
/// errors, i.e. the pure quantization noise floor of the deployment.
///
/// # Errors
///
/// Returns an error if the bit width is unsupported.
pub fn quantize_dequantize_in_place(net: &mut Sequential, bits: u8) -> Result<usize> {
    let snapshot = QuantizedNetwork::from_network(net, bits)?;
    snapshot.write_to_network(net)?;
    Ok(snapshot.tensors().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn small_net(seed: u64) -> Sequential {
        let mut r = rng(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 12, &mut r));
        net.push(Relu::new());
        net.push(Dense::new(12, 4, &mut r));
        net
    }

    #[test]
    fn quantize_byte_matches_libm_round_then_clamp() {
        let oracle = |x: f32, qmax: f32| x.round().clamp(-qmax, qmax) as i8 as u8;
        let mut values = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_00ff),
            f32::from_bits(0xffa0_0001),
            f32::MAX,
            f32::MIN,
        ];
        // Every halfway point |k + ½| ≤ 300.5 and both neighbours one ulp
        // away, and the integers themselves.
        for k in -301i32..=300 {
            for v in [k as f32 + 0.5, k as f32] {
                values.extend([v, f32::from_bits(v.to_bits() + 1), f32::from_bits(v.to_bits().wrapping_sub(1))]);
            }
        }
        // A strided sweep of every sign, exponent and mantissa region.
        values.extend((0..=u32::MAX).step_by(9_973).map(f32::from_bits));
        for bits in 1..=MAX_BITS {
            let qmax = ((1i32 << (bits - 1)) - 1) as f32;
            for &x in &values {
                assert_eq!(quantize_byte(x, qmax), oracle(x, qmax), "{x:e} ({:#010x}) at {bits} bits", x.to_bits());
            }
        }
    }

    #[test]
    fn quantize_round_trip_error_is_bounded_by_half_scale() {
        let mut r = rng(1);
        let t = Tensor::rand_uniform(&[64], -2.0, 2.0, &mut r);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        let err = q.max_error(&t);
        assert!(err <= q.scale() * 0.5 + 1e-6, "error {err} vs scale {}", q.scale());
    }

    #[test]
    fn lower_bit_widths_have_larger_error() {
        let mut r = rng(2);
        let t = Tensor::rand_uniform(&[256], -1.0, 1.0, &mut r);
        let q8 = QuantizedTensor::quantize(&t, 8).unwrap();
        let q4 = QuantizedTensor::quantize(&t, 4).unwrap();
        assert!(q4.max_error(&t) > q8.max_error(&t));
        assert_eq!(q8.bits(), 8);
        assert_eq!(q4.bits(), 4);
    }

    #[test]
    fn rejects_unsupported_bit_widths() {
        let t = Tensor::ones(&[4]);
        assert!(QuantizedTensor::quantize(&t, 0).is_err());
        assert!(QuantizedTensor::quantize(&t, 9).is_err());
    }

    #[test]
    fn all_zero_tensor_quantizes_to_zero_bytes() {
        let t = Tensor::zeros(&[10]);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert!(q.bytes().iter().all(|&b| b == 0));
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn extreme_value_maps_to_qmax() {
        let t = Tensor::from_vec(vec![2], vec![1.0, -1.0]).unwrap();
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert_eq!(q.bytes()[0] as i8, 127);
        assert_eq!(q.bytes()[1] as i8, -127);
    }

    #[test]
    fn byte_mutation_changes_dequantized_value() {
        let t = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let mut q = QuantizedTensor::quantize(&t, 8).unwrap();
        let before = q.dequantize();
        // Flip the most significant bit of the first value.
        q.bytes_mut()[0] ^= 0x80;
        let after = q.dequantize();
        assert_ne!(before.data()[0], after.data()[0]);
        assert_eq!(before.data()[1], after.data()[1]);
    }

    #[test]
    fn dequantize_into_matches_dequantize() {
        let mut r = rng(10);
        let t = Tensor::rand_uniform(&[33], -3.0, 3.0, &mut r);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        let mut out = vec![0.0f32; 33];
        q.dequantize_into(&mut out);
        assert_eq!(out.as_slice(), q.dequantize().data());
    }

    #[test]
    fn requantize_from_equals_fresh_quantization() {
        let mut r = rng(11);
        let a = Tensor::rand_uniform(&[40], -2.0, 2.0, &mut r);
        let b = Tensor::rand_uniform(&[40], -5.0, 5.0, &mut r);
        let mut q = QuantizedTensor::quantize(&a, 8).unwrap();
        q.requantize_from(&b).unwrap();
        let fresh = QuantizedTensor::quantize(&b, 8).unwrap();
        assert_eq!(q, fresh);
        // Shape mismatch is rejected.
        let wrong = Tensor::zeros(&[7]);
        assert!(q.requantize_from(&wrong).is_err());
    }

    #[test]
    fn network_requantize_and_payload_copy() {
        let net_a = small_net(12);
        let net_b = small_net(13);
        let mut snapshot = QuantizedNetwork::from_network(&net_a, 8).unwrap();
        snapshot.requantize_from(&net_b).unwrap();
        assert_eq!(snapshot, QuantizedNetwork::from_network(&net_b, 8).unwrap());

        // Payload copy restores the clean bytes after a mutation.
        let clean = snapshot.clone();
        snapshot.tensors_mut()[0].bytes_mut()[0] ^= 0xFF;
        assert_ne!(snapshot, clean);
        snapshot.copy_payload_from(&clean).unwrap();
        assert_eq!(snapshot, clean);

        // Structural mismatches are rejected.
        let mut r = rng(14);
        let mut other = Sequential::new();
        other.push(Dense::new(3, 3, &mut r));
        let other_snapshot = QuantizedNetwork::from_network(&other, 8).unwrap();
        assert!(snapshot.copy_payload_from(&other_snapshot).is_err());
        assert!(snapshot.requantize_from(&other).is_err());
    }

    #[test]
    fn network_snapshot_round_trip_is_close() {
        let net = small_net(3);
        let snapshot = QuantizedNetwork::from_network(&net, 8).unwrap();
        let mut copy = net.clone();
        snapshot.write_to_network(&mut copy).unwrap();
        for (a, b) in net.to_flat_weights().iter().zip(copy.to_flat_weights().iter()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
        assert_eq!(snapshot.total_values(), net.param_count());
        assert_eq!(snapshot.total_bits(), net.param_count() * 8);
    }

    #[test]
    fn write_to_mismatched_network_fails() {
        let net = small_net(4);
        let snapshot = QuantizedNetwork::from_network(&net, 8).unwrap();
        let mut other = Sequential::new();
        let mut r = rng(5);
        other.push(Dense::new(3, 3, &mut r));
        assert!(snapshot.write_to_network(&mut other).is_err());
    }

    #[test]
    fn quantize_dequantize_in_place_keeps_behaviour_close() {
        let mut net = small_net(6);
        let x = Tensor::rand_uniform(&[1, 6], -1.0, 1.0, &mut rng(7));
        let before = net.forward(&x);
        let count = quantize_dequantize_in_place(&mut net, 8).unwrap();
        assert_eq!(count, 4); // two dense layers x (weight, bias)
        let after = net.forward(&x);
        for (a, b) in before.data().iter().zip(after.data().iter()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    proptest! {
        #[test]
        fn prop_quantization_error_bounded(values in proptest::collection::vec(-10.0f32..10.0, 1..128), bits in 2u8..=8) {
            let n = values.len();
            let t = Tensor::from_vec(vec![n], values).unwrap();
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            // Symmetric quantization with rounding: error is at most half a step.
            prop_assert!(q.max_error(&t) <= 0.5 * q.scale() + 1e-5);
        }

        #[test]
        fn prop_dequantized_values_do_not_exceed_original_range(values in proptest::collection::vec(-10.0f32..10.0, 1..128)) {
            let n = values.len();
            let t = Tensor::from_vec(vec![n], values).unwrap();
            let q = QuantizedTensor::quantize(&t, 8).unwrap();
            let deq = q.dequantize();
            let bound = t.abs_max() + 1e-5;
            prop_assert!(deq.data().iter().all(|v| v.abs() <= bound));
        }
    }
}
