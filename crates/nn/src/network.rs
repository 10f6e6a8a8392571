//! Sequential composition of layers into a trainable network.

use crate::error::NnError;
use crate::gemm::GemmScratch;
use crate::layer::{
    from_batch_lanes, from_batch_lanes_into, to_batch_lanes, to_batch_lanes_into, Layer, BATCH_LANES_MIN,
};
use crate::tensor::Tensor;
use crate::Result;

/// Caller-owned scratch buffers for the immutable inference path.
///
/// [`Sequential::infer_into`] ping-pongs layer activations between two
/// reusable tensors instead of allocating a fresh output per layer, and
/// [`Sequential::infer_batch`] additionally reuses a stacking buffer for
/// batched observations.  Keep one `InferScratch` per worker (or per
/// evaluation loop) and the whole greedy-rollout hot path stops allocating
/// once the buffers reach their steady-state capacity.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    input: Tensor,
    ping: Tensor,
    pong: Tensor,
    gemm: GemmScratch,
}

impl InferScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// `Sequential` is the model type used for both the Q-network and the target
/// network in the BERRY DQN, and for the bit-error-perturbed snapshots the
/// robust trainer builds each step.  Cloning a `Sequential` deep-copies every
/// layer (parameters and gradients), which is exactly what target-network
/// synchronization and perturbation snapshots need.
///
/// A pass over [`BATCH_LANES_MIN`] (16) samples or more — every training
/// batch, and inference at such batches — runs in the
/// batch-lane layout (see the [`crate::layer`] module docs): the network
/// transposes its input once, every layer runs its `_lanes` routine, and
/// only the output (and, in `backward`, the input gradient) is transposed
/// back.  Smaller batches run layer by layer batch-outer.  Both produce
/// the same bits.
///
/// # Examples
///
/// ```
/// use berry_nn::network::Sequential;
/// use berry_nn::layer::{Dense, Relu};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 16, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(16, 2, &mut rng));
/// assert_eq!(net.param_count(), 4 * 16 + 16 + 16 * 2 + 2);
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Whether the last `forward` ran in the batch-lane layout, which the
    /// backward pass then runs in too.
    lanes_cached: bool,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a pass over `input` runs in the batch-lane layout.
    fn takes_lanes(&self, input: &Tensor) -> bool {
        !self.layers.is_empty() && input.rank() >= 2 && input.shape()[0] >= BATCH_LANES_MIN
    }

    /// Appends a layer to the end of the network.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers (including parameter-free activations).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs a forward pass through every layer, caching activations for a
    /// subsequent [`Sequential::backward`] call.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.lanes_cached = self.takes_lanes(input);
        if self.lanes_cached {
            let mut x = to_batch_lanes(input);
            for layer in &mut self.layers {
                x = layer.forward_lanes(x);
            }
            return from_batch_lanes(&x);
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Runs an immutable, cache-free forward pass through every layer,
    /// using the caller-owned scratch buffers, and returns a borrow of the
    /// final activations living inside `scratch`.
    ///
    /// The output is **bitwise identical** to [`Sequential::forward`] on the
    /// same input (each layer's [`Layer::infer`] pins that contract), but
    /// the network is only borrowed — which is what lets hundreds of
    /// data-parallel fault-map workers share one policy by reference — and
    /// nothing is allocated once the scratch has warmed up.
    #[must_use = "the output lives in the scratch; dropping it wastes the whole forward pass"]
    pub fn infer_into<'s>(&self, input: &Tensor, scratch: &'s mut InferScratch) -> &'s Tensor {
        let in_ping =
            self.infer_ping_pong(input, &mut scratch.ping, &mut scratch.pong, &mut scratch.gemm);
        if in_ping {
            &scratch.ping
        } else {
            &scratch.pong
        }
    }

    /// Convenience wrapper around [`Sequential::infer_into`] that owns its
    /// scratch and returns an owned output tensor.
    ///
    /// This allocates a fresh [`InferScratch`] (activation buffers *and*
    /// im2col patch buffers) and clones the output on **every call** — fine
    /// for one-off probes and doctests, wasteful anywhere warm.  Hot loops
    /// (rollouts, sweeps, per-step action selection) must hold one scratch
    /// and call [`Sequential::infer_into`] or [`Sequential::infer_batch`]
    /// instead, which is what every in-repo evaluation path does.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut scratch = InferScratch::new();
        self.infer_into(input, &mut scratch).clone()
    }

    /// Stacks per-sample observations (all sharing one shape) into a single
    /// `[n, ...]` batch inside the scratch's input buffer and runs one
    /// immutable inference pass over the whole stack — the batched
    /// dense/conv forward used by greedy rollouts over stacked
    /// observations.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] if `observations` is empty or
    /// the observations do not all share the same shape.
    #[must_use = "the batched Q-values live in the scratch; dropping them wastes the forward pass"]
    pub fn infer_batch<'s>(
        &self,
        observations: &[&Tensor],
        scratch: &'s mut InferScratch,
    ) -> Result<&'s Tensor> {
        let first = observations.first().ok_or_else(|| {
            NnError::InvalidArgument("infer_batch requires at least one observation".into())
        })?;
        let mut batched_shape = Vec::with_capacity(first.rank() + 1);
        batched_shape.push(observations.len());
        batched_shape.extend_from_slice(first.shape());
        scratch.input.reset(&batched_shape);
        let per_obs = first.len();
        for (i, obs) in observations.iter().enumerate() {
            if obs.shape() != first.shape() {
                return Err(NnError::InvalidArgument(format!(
                    "infer_batch: observation {i} has shape {:?}, expected {:?}",
                    obs.shape(),
                    first.shape()
                )));
            }
            scratch.input.data_mut()[i * per_obs..(i + 1) * per_obs]
                .copy_from_slice(obs.data());
        }
        let InferScratch {
            input,
            ping,
            pong,
            gemm,
        } = scratch;
        let in_ping = self.infer_ping_pong(input, ping, pong, gemm);
        Ok(if in_ping { &*ping } else { &*pong })
    }

    /// Shared ping-pong driver: runs the layer stack through the shared
    /// im2col/GEMM inference core — in the batch-lane layout at
    /// [`BATCH_LANES_MIN`] samples or more — returning
    /// `true` when the final activations ended up in `ping` and `false`
    /// for `pong`.
    fn infer_ping_pong(
        &self,
        input: &Tensor,
        ping: &mut Tensor,
        pong: &mut Tensor,
        gemm: &mut GemmScratch,
    ) -> bool {
        if self.layers.is_empty() {
            ping.copy_from(input);
            return true;
        }
        if self.takes_lanes(input) {
            // Batch-innermost from the input's copy in `ping` on; the
            // output is transposed back into the other buffer.
            to_batch_lanes_into(input, ping);
            let mut in_ping = true;
            for layer in &self.layers {
                if in_ping {
                    layer.infer_lanes(ping, pong);
                } else {
                    layer.infer_lanes(pong, ping);
                }
                in_ping = !in_ping;
            }
            if in_ping {
                from_batch_lanes_into(ping, pong);
            } else {
                from_batch_lanes_into(pong, ping);
            }
            return !in_ping;
        }
        let mut in_ping = false;
        for (i, layer) in self.layers.iter().enumerate() {
            if i == 0 {
                layer.infer_with(input, ping, gemm);
                in_ping = true;
            } else if in_ping {
                layer.infer_with(ping, pong, gemm);
                in_ping = false;
            } else {
                layer.infer_with(pong, ping, gemm);
                in_ping = true;
            }
        }
        in_ping
    }

    /// Runs a backward pass, accumulating parameter gradients in every layer
    /// and returning the gradient with respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        if self.lanes_cached {
            let mut g = to_batch_lanes(grad_output);
            for layer in self.layers.iter_mut().rev() {
                g = layer.backward_lanes(g);
            }
            return from_batch_lanes(&g);
        }
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Sequential::backward`] for a training step: accumulates every
    /// layer's parameter gradients with the same bits, but skips the
    /// gradient with respect to the network input, which the step never
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        if self.lanes_cached {
            let mut g = to_batch_lanes(grad_output);
            for layer in rest.iter_mut().rev() {
                g = layer.backward_lanes(g);
            }
            first.backward_params_lanes(g);
            return;
        }
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output));
    }

    /// Resets every layer's accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Borrowed views of every trainable parameter tensor, layer by layer.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable views of every trainable parameter tensor, layer by layer.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Borrowed views of every accumulated gradient tensor, matching the
    /// order of [`Sequential::params`].
    pub fn grads(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Mutable views of every accumulated gradient tensor, matching the
    /// order of [`Sequential::params`].
    pub fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.grads_mut()).collect()
    }

    /// Every trainable parameter with its accumulated gradient, in the
    /// order of [`Sequential::params`]: what an optimizer step reads and
    /// writes in one pass per tensor.
    pub(crate) fn params_and_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.layers.iter_mut().flat_map(|l| l.params_and_grads_mut()).collect()
    }

    /// Accumulates `scale ×` the gradients of `source` into this network's
    /// gradients.
    ///
    /// This is the glue for BERRY's dual-pass update (Algorithm 1 line 19):
    /// the perturbed pass runs on a *copy* of the Q-network whose quantized
    /// weights have bit errors injected, and its gradients `˜∆` are then
    /// added onto the clean gradients `∆` accumulated here before a single
    /// optimizer step applies `θ ← θ − α(∆ + ˜∆)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the two networks do not share an identical
    /// parameter structure.
    pub fn add_gradients_from(&mut self, source: &Sequential, scale: f32) -> Result<()> {
        let src = source.grads();
        let dst = self.grads_mut();
        if src.len() != dst.len() {
            return Err(NnError::InvalidArgument(format!(
                "gradient tensor count mismatch: {} vs {}",
                dst.len(),
                src.len()
            )));
        }
        for (d, s) in dst.into_iter().zip(src) {
            d.add_scaled(s, scale)?;
        }
        Ok(())
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Approximate in-memory size of the parameters in bytes, assuming the
    /// given bit width per parameter (8 for the quantized deployment the
    /// paper assumes, 32 for the training representation).
    pub fn param_bytes(&self, bits_per_param: usize) -> usize {
        (self.param_count() * bits_per_param).div_ceil(8)
    }

    /// Copies all parameter values from `source` into `self`.
    ///
    /// This is the target-network synchronization step (`θ⁻ ← θ`, Algorithm 1
    /// line 21).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the two networks do not have an
    /// identical parameter structure.
    pub fn copy_params_from(&mut self, source: &Sequential) -> Result<()> {
        let src = source.params();
        let dst = self.params_mut();
        if src.len() != dst.len() {
            return Err(NnError::InvalidArgument(format!(
                "parameter tensor count mismatch: {} vs {}",
                dst.len(),
                src.len()
            )));
        }
        for (d, s) in dst.into_iter().zip(src) {
            if d.shape() != s.shape() {
                return Err(NnError::ShapeMismatch {
                    left: d.shape().to_vec(),
                    right: s.shape().to_vec(),
                });
            }
            d.data_mut().copy_from_slice(s.data());
        }
        Ok(())
    }

    /// Serializes all parameters into a single flat `f32` buffer
    /// (layer order, row-major within each tensor).
    pub fn to_flat_weights(&self) -> Vec<f32> {
        self.params()
            .iter()
            .flat_map(|p| p.data().iter().copied())
            .collect()
    }

    /// Restores parameters from a flat buffer produced by
    /// [`Sequential::to_flat_weights`] on a structurally identical network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the buffer length does not
    /// match the network's parameter count.
    pub fn load_flat_weights(&mut self, weights: &[f32]) -> Result<()> {
        if weights.len() != self.param_count() {
            return Err(NnError::ShapeDataMismatch {
                expected: self.param_count(),
                actual: weights.len(),
            });
        }
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.len();
            p.data_mut().copy_from_slice(&weights[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// A short human-readable summary: layer names and parameter counts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "{:>2}: {:<10} params={}\n",
                i,
                layer.name(),
                layer.param_count()
            ));
        }
        out.push_str(&format!("total params: {}", self.param_count()));
        out
    }

    /// Names of the layers in order (useful for diagnostics and tests).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .field("param_count", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Dense, Flatten, Relu};
    use crate::loss::mse_loss;
    use crate::optim::{Optimizer, Sgd};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn small_mlp(seed: u64) -> Sequential {
        let mut r = rng(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 8, &mut r));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut r));
        net
    }

    #[test]
    fn forward_through_conv_stack_has_expected_shape() {
        let mut r = rng(0);
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 4, 3, 1, 1, &mut r));
        net.push(Relu::new());
        net.push(Conv2d::new(4, 8, 3, 2, 1, &mut r));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Dense::new(8 * 5 * 5, 16, &mut r));
        net.push(Relu::new());
        net.push(Dense::new(16, 25, &mut r));
        let x = Tensor::zeros(&[3, 2, 9, 9]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[3, 25]);
    }

    #[test]
    fn infer_matches_forward_bitwise_through_conv_stack() {
        let mut r = rng(30);
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 4, 3, 1, 1, &mut r));
        net.push(Relu::new());
        net.push(Conv2d::new(4, 8, 3, 2, 1, &mut r));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Dense::new(8 * 5 * 5, 16, &mut r));
        net.push(Relu::new());
        net.push(Dense::new(16, 25, &mut r));
        let x = Tensor::rand_uniform(&[3, 2, 9, 9], -1.0, 1.0, &mut r);
        let expected = net.forward(&x);
        let mut scratch = InferScratch::new();
        let got = net.infer_into(&x, &mut scratch);
        assert_eq!(got.shape(), expected.shape());
        for (a, b) in got.data().iter().zip(expected.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The owned-output convenience agrees too.
        assert_eq!(net.infer(&x).data(), expected.data());
    }

    #[test]
    fn infer_batch_stacks_observations() {
        let mut r = rng(31);
        let mut net = small_mlp(32);
        let rows: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[3], -1.0, 1.0, &mut r))
            .collect();
        let mut scratch = InferScratch::new();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let batched = net.infer_batch(&refs, &mut scratch).unwrap().clone();
        assert_eq!(batched.shape(), &[4, 2]);
        // Row-by-row forward over a [1, 3] batch matches the stacked pass.
        for (i, row) in rows.iter().enumerate() {
            let single = net.forward(&row.reshape(&[1, 3]).unwrap());
            for (a, b) in batched.row(i).data().iter().zip(single.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Empty and ragged stacks are rejected.
        assert!(net.infer_batch(&[], &mut scratch).is_err());
        let ragged = Tensor::zeros(&[5]);
        assert!(net.infer_batch(&[&rows[0], &ragged], &mut scratch).is_err());
    }

    #[test]
    fn infer_on_empty_network_is_identity() {
        let net = Sequential::new();
        let x = Tensor::from_vec(vec![2], vec![1.5, -2.5]).unwrap();
        assert_eq!(net.infer(&x).data(), x.data());
    }

    #[test]
    fn param_count_and_bytes() {
        let net = small_mlp(1);
        assert_eq!(net.param_count(), 3 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.param_bytes(8), net.param_count());
        assert_eq!(net.param_bytes(32), net.param_count() * 4);
    }

    #[test]
    fn copy_params_from_synchronizes_networks() {
        let mut a = small_mlp(2);
        let mut b = small_mlp(3);
        assert_ne!(a.to_flat_weights(), b.to_flat_weights());
        b.copy_params_from(&a).unwrap();
        assert_eq!(a.to_flat_weights(), b.to_flat_weights());
        // and the copy is deep: training `a` further does not change `b`.
        let x = Tensor::ones(&[1, 3]);
        let y = Tensor::ones(&[1, 2]);
        let mut opt = Sgd::new(0.1);
        let pred = a.forward(&x);
        let (_, grad) = mse_loss(&pred, &y);
        a.backward(&grad);
        opt.step(&mut a);
        assert_ne!(a.to_flat_weights(), b.to_flat_weights());
    }

    #[test]
    fn copy_params_from_rejects_structural_mismatch() {
        let mut a = small_mlp(4);
        let mut r = rng(5);
        let mut b = Sequential::new();
        b.push(Dense::new(3, 4, &mut r));
        assert!(a.copy_params_from(&b).is_err());
    }

    #[test]
    fn flat_weights_round_trip() {
        let mut a = small_mlp(6);
        let w = a.to_flat_weights();
        let mut b = small_mlp(7);
        b.load_flat_weights(&w).unwrap();
        assert_eq!(a.to_flat_weights(), b.to_flat_weights());
        // identical inputs now produce identical outputs
        let x = Tensor::from_vec(vec![1, 3], vec![0.1, 0.2, 0.3]).unwrap();
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
        assert!(b.load_flat_weights(&w[..3]).is_err());
    }

    #[test]
    fn cloned_network_is_independent() {
        let mut a = small_mlp(8);
        let b = a.clone();
        let x = Tensor::ones(&[1, 3]);
        let y = Tensor::zeros(&[1, 2]);
        let mut opt = Sgd::new(0.5);
        for _ in 0..5 {
            let pred = a.forward(&x);
            let (_, grad) = mse_loss(&pred, &y);
            a.backward(&grad);
            opt.step(&mut a);
            a.zero_grad();
        }
        assert_ne!(a.to_flat_weights(), b.to_flat_weights());
    }

    #[test]
    fn backward_produces_input_gradient_of_input_shape() {
        let mut net = small_mlp(9);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng(10));
        let y = net.forward(&x);
        let g = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn backward_params_matches_backward_gradients_bitwise() {
        let mut r = rng(12);
        let mut conv_net = Sequential::new();
        conv_net.push(Conv2d::new(2, 4, 3, 2, 1, &mut r));
        conv_net.push(Relu::new());
        conv_net.push(Flatten::new());
        conv_net.push(Dense::new(4 * 3 * 3, 3, &mut r));
        let conv_x = Tensor::rand_uniform(&[3, 2, 5, 5], -1.0, 1.0, &mut r);
        let mlp_x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut r);
        for (mut full, x) in [(conv_net, conv_x), (small_mlp(13), mlp_x)] {
            let mut params_only = full.clone();
            // Two passes without zero_grad: the gradients accumulate.
            for _ in 0..2 {
                let y = full.forward(&x);
                let go = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut r);
                full.backward(&go);
                params_only.forward(&x);
                params_only.backward_params(&go);
            }
            for (a, b) in full.grads().iter().zip(params_only.grads()) {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b));
            }
        }
    }

    /// The policy architectures over a `[2, 9, 9]` observation with five
    /// actions: C3F2, C5F4 and a flattening MLP.
    fn policy_shaped_nets(r: &mut rand::rngs::StdRng) -> Vec<(&'static str, Sequential)> {
        let convs = |r: &mut rand::rngs::StdRng, widths: &[usize], fc: &[usize]| {
            let mut net = Sequential::new();
            let mut prev = 2;
            for (i, &width) in widths.iter().enumerate() {
                net.push(Conv2d::new(prev, width, 3, if i == 1 { 2 } else { 1 }, 1, r));
                net.push(Relu::new());
                prev = width;
            }
            net.push(Flatten::new());
            let mut prev = prev * 5 * 5;
            for &width in fc {
                net.push(Dense::new(prev, width, r));
                net.push(Relu::new());
                prev = width;
            }
            net.push(Dense::new_xavier(prev, 5, r));
            net
        };
        vec![
            ("C3F2", convs(r, &[8, 16, 16], &[64])),
            ("C5F4", convs(r, &[8, 16, 16, 24, 24], &[96, 64, 32])),
            ("MLP", {
                let mut net = Sequential::new();
                net.push(Flatten::new());
                net.push(Dense::new(2 * 9 * 9, 32, r));
                net.push(Relu::new());
                net.push(Dense::new(32, 16, r));
                net.push(Relu::new());
                net.push(Dense::new_xavier(16, 5, r));
                net
            }),
        ]
    }

    fn assert_bits_eq(actual: &Tensor, expected: &Tensor, what: &str) {
        assert_eq!(actual.shape(), expected.shape(), "{what}: shape");
        for (i, (a, e)) in actual.data().iter().zip(expected.data()).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "{what} element {i}: {a} vs {e}");
        }
    }

    #[test]
    fn batch_lane_pass_matches_per_layer_pass_bitwise() {
        // The batch-lane pass (one layout for the whole network) against
        // every layer's batch-outer pass: forward, `infer_into`, the
        // parameter gradients of `backward_params` and then of a second
        // `backward` without `zero_grad`, and its input gradient.  Batches
        // 17 and 33 leave lanes of the kernel's vectors masked.
        let mut r = rng(40);
        for (name, template) in policy_shaped_nets(&mut r) {
            for batch in [16usize, 17, 32, 33] {
                let at = format!("{name} batch {batch}");
                let (mut lanes, mut layered) = (template.clone(), template.clone());
                let mut scratch = InferScratch::new();
                let mut relu_negative_zeros = 0;
                for round in 0..2 {
                    let mut x = Tensor::rand_uniform(&[batch, 2, 9, 9], -1.0, 1.0, &mut r);
                    for (i, v) in x.data_mut().iter_mut().enumerate().step_by(7) {
                        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
                    }
                    let mut expected = x.clone();
                    for layer in &mut layered.layers {
                        expected = layer.forward(&expected);
                        if layer.name() == "Relu" {
                            relu_negative_zeros += expected.data().iter().filter(|v| v.to_bits() == (-0.0f32).to_bits()).count();
                        }
                    }
                    let y = lanes.forward(&x);
                    assert!(lanes.lanes_cached, "{at}: the pass took the batch-lane layout");
                    assert_bits_eq(&y, &expected, &format!("{at} forward"));
                    assert_bits_eq(lanes.infer_into(&x, &mut scratch), &expected, &format!("{at} infer_into"));
                    // The per-sample path agrees on single samples too.
                    for n in [0, batch - 1] {
                        let sample = Tensor::from_vec(vec![1, 2, 9, 9], x.data()[n * 162..(n + 1) * 162].to_vec()).unwrap();
                        let single = lanes.infer(&sample);
                        assert_bits_eq(&single, &expected.row(n), &format!("{at} sample {n}"));
                    }

                    let mut go = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut r);
                    for v in go.data_mut().iter_mut().step_by(4) {
                        *v = 0.0;
                    }
                    let (first, rest) = layered.layers.split_first_mut().unwrap();
                    let mut g = go.clone();
                    for layer in rest.iter_mut().rev() {
                        g = layer.backward(&g);
                    }
                    if round == 0 {
                        first.backward_params(&g);
                        lanes.backward_params(&go);
                    } else {
                        let expected_dx = first.backward(&g);
                        let dx = lanes.backward(&go);
                        assert_bits_eq(&dx, &expected_dx, &format!("{at} input gradient"));
                    }
                    for (i, (a, e)) in lanes.grads().iter().zip(layered.grads()).enumerate() {
                        assert_bits_eq(a, e, &format!("{at} round {round} gradient {i}"));
                    }
                }
                assert!(relu_negative_zeros > 0, "{at}: no ReLU output was -0.0");
            }
        }
    }

    #[test]
    fn summary_lists_layers_and_total() {
        let net = small_mlp(11);
        let s = net.summary();
        assert!(s.contains("Dense"));
        assert!(s.contains("Relu"));
        assert!(s.contains("total params"));
        assert_eq!(net.layer_names(), vec!["Dense", "Relu", "Dense"]);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let net = small_mlp(12);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("Sequential"));
        assert!(dbg.contains("param_count"));
    }

    #[test]
    fn add_gradients_from_sums_per_parameter() {
        let mut a = small_mlp(20);
        let mut b = a.clone();
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng(21));
        let target = Tensor::zeros(&[2, 2]);
        let pred_a = a.forward(&x);
        let (_, grad_a) = mse_loss(&pred_a, &target);
        a.backward(&grad_a);
        let pred_b = b.forward(&x);
        let (_, grad_b) = mse_loss(&pred_b, &target);
        b.backward(&grad_b);
        // a and b are identical networks on identical data, so summing b's
        // gradients into a's must exactly double them.
        let before: Vec<f32> = a.grads().iter().flat_map(|g| g.data().to_vec()).collect();
        a.add_gradients_from(&b, 1.0).unwrap();
        let after: Vec<f32> = a.grads().iter().flat_map(|g| g.data().to_vec()).collect();
        for (x1, x2) in before.iter().zip(after.iter()) {
            assert!((x2 - 2.0 * x1).abs() < 1e-6);
        }
        // Structural mismatch is rejected.
        let mut r = rng(22);
        let mut other = Sequential::new();
        other.push(Dense::new(3, 4, &mut r));
        assert!(a.add_gradients_from(&other, 1.0).is_err());
    }

    #[test]
    fn gradient_check_through_whole_network() {
        let mut net = small_mlp(13);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng(14));
        let target = Tensor::zeros(&[2, 2]);
        let pred = net.forward(&x);
        let (loss0, grad) = mse_loss(&pred, &target);
        net.backward(&grad);
        let analytic: Vec<f32> = net.grads().iter().flat_map(|g| g.data().to_vec()).collect();
        let weights = net.to_flat_weights();

        let eps = 1e-3;
        let mut max_err = 0.0f32;
        for idx in (0..weights.len()).step_by(5) {
            let mut w2 = weights.clone();
            w2[idx] += eps;
            let mut net2 = small_mlp(13);
            net2.load_flat_weights(&w2).unwrap();
            let pred2 = net2.forward(&x);
            let (loss2, _) = mse_loss(&pred2, &target);
            let numeric = (loss2 - loss0) / eps;
            max_err = max_err.max((numeric - analytic[idx]).abs());
        }
        assert!(max_err < 2e-2, "gradient check error {max_err}");
    }
}
