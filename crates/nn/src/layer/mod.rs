//! Neural-network layers with explicit forward and backward passes.
//!
//! Each layer caches whatever it needs from its most recent forward pass so
//! that a subsequent [`Layer::backward`] call can produce parameter gradients
//! and the gradient with respect to the layer input.  Gradients accumulate
//! until [`Layer::zero_grad`] is called, which is what lets the BERRY
//! trainer *average* the clean-pass and perturbed-pass gradients (Algorithm 1
//! line 19) simply by running two backward passes before one optimizer step.
//!
//! Every pass exists in two layouts.  The batch-outer one (`forward`,
//! `infer_with`, `backward`) takes `[batch, …]` tensors.  The batch-lane
//! one (`forward_lanes`, `infer_lanes`, `backward_lanes`) takes the same
//! tensors with the batch axis moved last, `[…, batch]`, which is the
//! layout the Reference lanes kernel reads and writes.  A
//! [`crate::network::Sequential`] pass at [`BATCH_LANES_MIN`] samples or
//! more converts its input once ([`to_batch_lanes`]) and keeps every
//! activation and output gradient batch-innermost from layer to layer.

mod conv;
mod dense;

pub use conv::Conv2d;
pub use dense::Dense;

use crate::gemm::{transpose, GemmScratch};
use crate::tensor::Tensor;

/// Smallest batch a [`crate::network::Sequential`] pass runs in the
/// batch-lane layout (training and inference).  Both layouts produce the
/// same bits, so this moves speed only.  It is the crossover of
/// `Sequential::infer_into` on the policy networks (2×9×9 observation,
/// 25 actions), measured on a 2-vCPU AVX-512 host under co-tenant load:
/// the batch-lane pass's time over the per-sample pass's, each run a
/// median of 15 alternating rounds, the table the median over runs (five
/// on the AVX-512 body, three on the portable one):
///
/// | body     | net  | b1   | b2   | b3   | b4   | b5   | b8   |
/// |----------|------|------|------|------|------|------|------|
/// | AVX-512  | C3F2 | 1.26 | 0.90 | 0.67 | 0.66 | 0.51 | 0.45 |
/// | AVX-512  | C5F4 | 1.29 | 0.93 | 0.68 | 0.70 | 0.53 | 0.49 |
/// | portable | C3F2 | 1.51 | 1.28 | 1.16 | 0.93 | 0.90 | 0.75 |
/// | portable | C5F4 | 1.49 | 1.30 | 1.16 | 0.96 | 0.99 | 0.79 |
///
/// The AVX-512 body's batch lanes win from batch 2 in every run (0.85–0.98
/// at batch 2), which sets this value; they lost at batch 2 (1.13–1.17)
/// while the stride-2 convolution's bordered copy was filled by a library
/// call per `n`-sample cell and rebuilt its border every pass.  The
/// portable body (`BERRY_GEMM_FORCE_SCALAR=1`, aarch64) crosses over at
/// batch 4, so batches 2–3 run slower there than they could.  The AVX2
/// body was not timed.
pub(crate) const BATCH_LANES_MIN: usize = 2;

/// The batch-lane copy of a batch-outer tensor: `[n, d…]` becomes
/// `[d…, n]`, element `(i, f)` moving to `(f, i)`.
///
/// # Panics
///
/// Panics if the tensor has rank 0.
pub fn to_batch_lanes(batch_outer: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    to_batch_lanes_into(batch_outer, &mut out);
    out
}

/// The batch-outer copy of a batch-lane tensor: the inverse of
/// [`to_batch_lanes`], `[d…, n]` becoming `[n, d…]`.
///
/// # Panics
///
/// Panics if the tensor has rank 0.
pub fn from_batch_lanes(lanes: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    from_batch_lanes_into(lanes, &mut out);
    out
}

/// [`to_batch_lanes`] into a reused tensor.
pub(crate) fn to_batch_lanes_into(src: &Tensor, dst: &mut Tensor) {
    let (&batch, rest) = src.shape().split_first().expect("a batch axis");
    let mut shape = rest.to_vec();
    shape.push(batch);
    dst.reset(&shape);
    let features = rest.iter().product();
    transpose(src.data(), batch, features, dst.data_mut());
}

/// [`from_batch_lanes`] into a reused tensor.
pub(crate) fn from_batch_lanes_into(src: &Tensor, dst: &mut Tensor) {
    let (&batch, rest) = src.shape().split_last().expect("a batch axis");
    let mut shape = vec![batch];
    shape.extend_from_slice(rest);
    dst.reset(&shape);
    let features = rest.iter().product();
    transpose(src.data(), features, batch, dst.data_mut());
}

/// A differentiable network layer.
///
/// Layers operate on *batched* inputs: dense layers expect `[batch, features]`
/// tensors and convolutions expect `[batch, channels, height, width]` —
/// or, in the `_lanes` passes, the same tensors batch-innermost (see the
/// module docs).  A backward pass runs in the layout of the forward it
/// follows.
///
/// `Send + Sync` is part of the contract so whole networks can be shared
/// by reference across the data-parallel fault-map evaluation workers;
/// layers are plain buffers of `f32`, so every implementation satisfies it
/// automatically.
pub trait Layer: Send + Sync {
    /// Runs the forward pass, caching anything needed by [`Layer::backward`].
    ///
    /// Layers with a matrix-product forward (dense, convolution) compute
    /// it on the Reference GEMM kernels, as [`Layer::infer`] does — the
    /// convolution, from [`BATCH_LANES_MIN`] samples on, converting at its
    /// edges around its batch-lane routine ([`Layer::forward_lanes`]) —
    /// so training and inference share their bits.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Runs an immutable, cache-free forward pass, writing the layer output
    /// into the caller-owned `out` scratch tensor (resizing it in place).
    ///
    /// It takes `&self`, so one network can be shared by reference across
    /// data-parallel fault-map workers.  Implementations MUST produce
    /// outputs that are **bitwise identical** to [`Layer::forward`] for the
    /// same input — the floating-point operations and their order are part
    /// of the contract (pinned by `tests/parallel_determinism.rs`), because
    /// the evaluation harnesses mix the two paths and average hundreds of
    /// fault maps whose statistics must not depend on which path ran.
    /// The convolution implements it as [`Layer::infer_with`] with a
    /// fresh [`GemmScratch`]; hot loops should hold a scratch
    /// and call `infer_with` (through [`crate::network::Sequential`]).
    fn infer(&self, input: &Tensor, out: &mut Tensor);

    /// [`Layer::infer`] through the shared im2col/GEMM core with a
    /// caller-owned scratch.
    ///
    /// This is the batch-outer inference path of the convolution, which
    /// unrolls its patches into the scratch and whose `infer` delegates
    /// to it.  Dense layers (whose scalar tile needs no scratch) and
    /// element-wise layers fall back to their `infer`.  Each output
    /// element accumulates its terms in the order of the layer's scalar
    /// oracle (the direct convolution; matmul then bias), which the
    /// layers' unit tests pin bitwise.
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch) {
        let _ = gemm;
        self.infer(input, out);
    }

    /// Runs the backward pass for the most recent forward input, accumulating
    /// parameter gradients and returning the gradient with respect to the
    /// layer input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any forward pass.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] without the gradient with respect to the layer
    /// input: accumulates the same parameter gradients, bit for bit.  A
    /// network's first layer runs this in a training step
    /// ([`crate::network::Sequential::backward_params`]), since nothing
    /// reads the gradient of the network input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any forward pass.
    fn backward_params(&mut self, grad_output: &Tensor) {
        drop(self.backward(grad_output));
    }

    /// [`Layer::forward`] in the batch-lane layout: `input` and the
    /// returned output are batch-innermost (`[c, h, w, n]`,
    /// `[features, n]`), with the bits of `forward` on the batch-outer
    /// tensors.  The layer may reuse `input`'s buffer for its output.
    fn forward_lanes(&mut self, input: Tensor) -> Tensor;

    /// [`Layer::infer`] in the batch-lane layout.
    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor);

    /// [`Layer::backward`] in the batch-lane layout, after a
    /// [`Layer::forward_lanes`]: takes the output gradient and returns the
    /// input gradient batch-innermost.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any forward pass.
    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor;

    /// [`Layer::backward_lanes`] without the input gradient, as
    /// [`Layer::backward_params`] is to [`Layer::backward`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any forward pass.
    fn backward_params_lanes(&mut self, grad_output: Tensor) {
        drop(self.backward_lanes(grad_output));
    }

    /// Borrowed views of the layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Borrowed views of the accumulated parameter gradients, in the same
    /// order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Mutable views of the accumulated parameter gradients, in the same
    /// order as [`Layer::params`] (empty for parameter-free layers).
    fn grads_mut(&mut self) -> Vec<&mut Tensor>;

    /// Each trainable parameter with its accumulated gradient, in the
    /// order of [`Layer::params`] — what an optimizer step reads and
    /// writes in one pass.
    ///
    /// The default serves parameter-free layers.
    ///
    /// # Panics
    ///
    /// The default panics if the layer has parameters.
    fn params_and_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        assert!(
            self.params().is_empty(),
            "{} has parameters and must implement params_and_grads_mut",
            self.name()
        );
        Vec::new()
    }

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self);

    /// Human-readable layer name used in summaries.
    fn name(&self) -> &'static str;

    /// Total number of trainable scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Clones the layer into a boxed trait object (parameters and gradients
    /// included), enabling target-network copies and perturbed snapshots.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rectified linear unit activation, applied element-wise.
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Layer, Relu};
/// use berry_nn::tensor::Tensor;
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0])?;
/// let y = relu.forward(&x);
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_lanes(input.clone())
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        out.reset(input.shape());
        // Same mask-multiply arithmetic as `forward` (v * 0.0 keeps the sign
        // of zero identical between the two paths).
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = v * if v > 0.0 { 1.0 } else { 0.0 };
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_lanes(grad_output.clone())
    }

    /// Element-wise, so one pass in place serves either layout: the
    /// output and the reused mask buffer together, with the `v * mask`
    /// arithmetic `infer` shares.
    fn forward_lanes(&mut self, mut input: Tensor) -> Tensor {
        let mask = self.mask.get_or_insert_with(Tensor::default);
        mask.reset(input.shape());
        for (v, m) in input.data_mut().iter_mut().zip(mask.data_mut()) {
            *m = if *v > 0.0 { 1.0 } else { 0.0 };
            *v *= *m;
        }
        input
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        self.infer(input, out);
    }

    fn backward_lanes(&mut self, mut grad_output: Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on Relu");
        assert_eq!(grad_output.shape(), mask.shape(), "gradient must share the forward shape");
        for (g, &m) in grad_output.data_mut().iter_mut().zip(mask.data()) {
            *g *= m;
        }
        grad_output
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Leaky rectified linear unit with configurable negative slope.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    slope: f32,
    mask: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope.
    pub fn new(slope: f32) -> Self {
        Self { slope, mask: None }
    }

    /// The configured negative-side slope.
    pub fn slope(&self) -> f32 {
        self.slope
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let slope = self.slope;
        let mask = input.map(|v| if v > 0.0 { 1.0 } else { slope });
        let out = input.mul(&mask).expect("mask shares input shape");
        self.mask = Some(mask);
        out
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        let slope = self.slope;
        out.reset(input.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = v * if v > 0.0 { 1.0 } else { slope };
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on LeakyRelu");
        grad_output
            .mul(mask)
            .expect("gradient must share the forward shape")
    }

    fn forward_lanes(&mut self, input: Tensor) -> Tensor {
        self.forward(&input)
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        self.infer(input, out);
    }

    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor {
        self.backward(&grad_output)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "LeakyRelu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic-tangent activation, applied element-wise.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a new tanh activation layer.
    pub fn new() -> Self {
        Self { output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(f32::tanh);
        self.output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        out.reset(input.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = v.tanh();
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self
            .output
            .as_ref()
            .expect("backward called before forward on Tanh");
        let deriv = out.map(|y| 1.0 - y * y);
        grad_output
            .mul(&deriv)
            .expect("gradient must share the forward shape")
    }

    fn forward_lanes(&mut self, input: Tensor) -> Tensor {
        self.forward(&input)
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        self.infer(input, out);
    }

    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor {
        self.backward(&grad_output)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[batch, ...]` inputs into `[batch, features]`, remembering the
/// original shape so the gradient can be restored on the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let shape = input.shape().to_vec();
        assert!(
            !shape.is_empty(),
            "Flatten requires an input with at least one dimension"
        );
        let batch = shape[0];
        let features: usize = shape[1..].iter().product();
        self.input_shape = Some(shape);
        input
            .reshape(&[batch, features])
            .expect("flatten preserves element count")
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        let shape = input.shape();
        assert!(
            !shape.is_empty(),
            "Flatten requires an input with at least one dimension"
        );
        let batch = shape[0];
        let features: usize = shape[1..].iter().product();
        out.reset(&[batch, features]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .as_ref()
            .expect("backward called before forward on Flatten");
        grad_output
            .reshape(shape)
            .expect("flatten gradient preserves element count")
    }

    /// A reshape: `[c, h, w, n]` becomes `[c·h·w, n]`, the batch-lane
    /// layout of the batch-outer `[n, c·h·w]`.
    fn forward_lanes(&mut self, input: Tensor) -> Tensor {
        let shape = input.shape().to_vec();
        let (&batch, rest) = shape
            .split_last()
            .expect("Flatten requires an input with at least one dimension");
        let features: usize = rest.iter().product();
        self.input_shape = Some(shape);
        input
            .into_reshaped(&[features, batch])
            .expect("flatten preserves element count")
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        let (&batch, rest) = input
            .shape()
            .split_last()
            .expect("Flatten requires an input with at least one dimension");
        out.reset(&[rest.iter().product(), batch]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor {
        let shape = self
            .input_shape
            .as_ref()
            .expect("backward called before forward on Flatten");
        grad_output
            .into_reshaped(shape)
            .expect("flatten gradient preserves element count")
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::ones(&[1, 4]);
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![1, 2], vec![-1.0, 1.0]).unwrap();
        let y = l.forward(&x);
        assert!((y.data()[0] + 0.1).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        let gx = l.backward(&Tensor::ones(&[1, 2]));
        assert!((gx.data()[0] - 0.1).abs() < 1e-6);
        assert!((gx.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_analytic_derivative() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 0.5]).unwrap();
        let y = t.forward(&x);
        let gx = t.backward(&Tensor::ones(&[1, 3]));
        for (out, grad) in y.data().iter().zip(gx.data().iter()) {
            assert!((grad - (1.0 - out * out)).abs() < 1e-6);
        }
    }

    #[test]
    fn flatten_round_trips_gradient_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn activations_have_no_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
        assert!(relu.params().is_empty());
        assert!(relu.grads().is_empty());
        let tanh = Tanh::new();
        assert_eq!(tanh.param_count(), 0);
        let flat = Flatten::new();
        assert_eq!(flat.param_count(), 0);
    }

    #[test]
    fn infer_matches_forward_bitwise_for_parameter_free_layers() {
        let x =
            Tensor::from_vec(vec![2, 3], vec![-2.0, -0.0, 0.0, 0.5, 1.5, -0.25]).unwrap();
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new()),
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Tanh::new()),
            Box::new(Flatten::new()),
        ];
        for mut layer in layers {
            let expected = layer.forward(&x);
            let mut out = Tensor::default();
            layer.infer(&x, &mut out);
            assert_eq!(out.shape(), expected.shape(), "{}", layer.name());
            for (a, b) in out.data().iter().zip(expected.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", layer.name());
            }
        }
    }

    #[test]
    fn boxed_layer_clone_is_independent() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]).unwrap();
        relu.forward(&x);
        let boxed: Box<dyn Layer> = Box::new(relu);
        let mut cloned = boxed.clone();
        // The clone can run its own forward/backward without touching the original.
        let y = cloned.forward(&x);
        assert_eq!(y.data(), &[1.0, 0.0]);
    }
}
