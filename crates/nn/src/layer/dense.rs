//! Fully-connected (dense) layer.

use super::{from_batch_lanes, to_batch_lanes, Layer};
use crate::gemm::{gemm_kn, gemm_nt, transpose, BiasMode, GemmScratch, StridedA};
use crate::init;
use crate::tensor::Tensor;

/// A fully-connected layer computing `y = x · Wᵀ + b` on batched inputs.
///
/// * weights have shape `[out_features, in_features]`,
/// * bias has shape `[out_features]`,
/// * inputs have shape `[batch, in_features]` and outputs `[batch, out_features]`.
///
/// Its one training implementation runs in the batch-lane layout
/// (`xᵀ` in, `yᵀ` out, see the [`super`] module docs); the batch-outer
/// passes convert at the layer's edges.
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Dense, Layer};
/// use berry_nn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let x = Tensor::from_vec(vec![4, 3], vec![0.1; 12])?;
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The last training forward's input, batch-outer `[batch, in]` — the
    /// `k`-major operand of dW.
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
    scratch: TrainScratch,
}

/// Smallest batch whose Reference forward runs with SIMD lanes across the
/// batch; smaller batches (single-observation action selection) use the
/// scalar tile, which needs no transposes.  Both paths produce the same
/// bits, so this only moves speed.
const LANES_OVER_BATCH_MIN: usize = 8;

/// Reusable buffers of the training passes.  A cache, not state: cloning
/// a layer starts the clone with empty buffers.
#[derive(Debug, Default)]
struct TrainScratch {
    /// The forward's transposed operands.
    gemm: GemmScratch,
    /// `dyᵀ·x` of the current backward, before it joins `grad_weight`.
    weight_step: Vec<f32>,
}

impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new<R: rand::Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        let weight = init::he_normal(&[out_features, in_features], in_features, rng);
        Self {
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
            in_features,
            out_features,
            scratch: TrainScratch::default(),
        }
    }

    /// Creates a dense layer with Xavier-uniform weights (appropriate for an
    /// output head that is not followed by a ReLU).
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new_xavier<R: rand::Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        let weight = init::xavier_uniform(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        );
        Self {
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
            in_features,
            out_features,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Borrow of the weight tensor (`[out_features, in_features]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Borrow of the bias tensor (`[out_features]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// `yᵀ = W · xᵀ` over the batch-lane `xt` (`[in][batch]`) into `yt`
    /// (`[out][batch]`), with SIMD lanes across the batch: W is already
    /// the row-major A, `xᵀ` the k-major B.  Each element accumulates
    /// k-ascending from +0.0 and the callers add the bias last, so the
    /// bits match `Tensor::matmul` followed by the bias add (exact-zero
    /// activations that matmul skips contribute ±0.0, which cannot change
    /// a +0.0-initialized accumulator).
    fn forward_product(&self, xt: &[f32], batch: usize, yt: &mut [f32]) {
        let weights = StridedA::row_major(self.weight.data(), self.in_features);
        gemm_kn(self.out_features, batch, self.in_features, weights, xt, BiasMode::None, yt);
    }

    /// The parameter half of [`Layer::backward_lanes`]: `grad_w += dyᵀ · x`
    /// and `grad_b +=` the batch sums of the batch-lane `dyt`
    /// (`[out][batch]`).
    ///
    /// `dyᵀ · x` is summed from `+0.0` over the batch in ascending order
    /// and then added to `grad_w` — the association of `Tensor::matmul`
    /// followed by `add_scaled(…, 1.0)`; the `dy == 0` terms `matmul`
    /// skips are `±0.0` products that cannot change a sum started at
    /// `+0.0`.
    fn accumulate_gradients(&mut self, dyt: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Dense");
        let (batch, out_f, in_f) = (input.shape()[0], self.out_features, self.in_features);
        assert_eq!(dyt.shape(), &[out_f, batch], "Dense gradient shape mismatch");

        // grad_w += dyᵀ · x   ([out, batch] x [batch, in] -> [out, in])
        let step = &mut self.scratch.weight_step;
        step.resize(out_f * in_f, 0.0);
        let dy_t = StridedA::row_major(dyt.data(), batch);
        gemm_kn(out_f, in_f, batch, dy_t, input.data(), BiasMode::None, step);
        for (g, &d) in self.grad_weight.data_mut().iter_mut().zip(step.iter()) {
            *g += d;
        }

        // grad_b += batch sums of dy
        for (gb, dy_row) in self.grad_bias.data_mut().iter_mut().zip(dyt.data().chunks_exact(batch)) {
            for &d in dy_row {
                *gb += d;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        let mut gemm = std::mem::take(&mut self.scratch.gemm);
        self.infer_with(input, &mut out, &mut gemm);
        self.scratch.gemm = gemm;
        match &mut self.cached_input {
            Some(cached) => cached.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        out
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        self.infer_with(input, out, &mut GemmScratch::new());
    }

    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch) {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Dense input feature mismatch"
        );
        let (batch, in_f, out_f) = (input.shape()[0], self.in_features, self.out_features);
        out.reset(&[batch, out_f]);
        // The batch-lane product between the scratch's transposes, the
        // bias added as `y` is read back.
        if batch >= LANES_OVER_BATCH_MIN {
            let (xt, yt) = gemm.transpose_buffers(in_f * batch, out_f * batch);
            transpose(input.data(), batch, in_f, xt);
            self.forward_product(xt, batch, yt);
            for (n, y_row) in out.data_mut().chunks_exact_mut(out_f).enumerate() {
                for ((y, yt_row), &b) in y_row.iter_mut().zip(yt.chunks_exact(batch)).zip(self.bias.data()) {
                    *y = yt_row[n] + b;
                }
            }
            return;
        }
        // Both operands are already stored as rows over the contraction
        // dimension, so the scalar tile needs no transpose.
        gemm_nt(
            batch,
            self.out_features,
            self.in_features,
            input.data(),
            self.weight.data(),
            BiasMode::ColAfter(self.bias.data()),
            out.data_mut(),
        );
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        from_batch_lanes(&self.backward_lanes(to_batch_lanes(grad_output)))
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_params_lanes(to_batch_lanes(grad_output));
    }

    fn forward_lanes(&mut self, input: Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_lanes(&input, &mut out);
        let batch = input.shape()[1];
        let cached = self.cached_input.get_or_insert_with(Tensor::default);
        cached.reset(&[batch, self.in_features]);
        transpose(input.data(), self.in_features, batch, cached.data_mut());
        out
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        assert!(
            input.rank() == 2 && input.shape()[0] == self.in_features,
            "Dense expects [features, batch] batch-lane input"
        );
        let batch = input.shape()[1];
        out.reset(&[self.out_features, batch]);
        self.forward_product(input.data(), batch, out.data_mut());
        for (y_row, &b) in out.data_mut().chunks_exact_mut(batch).zip(self.bias.data()) {
            for y in y_row {
                *y += b;
            }
        }
    }

    /// `dxᵀ = Wᵀ · dyᵀ` (`[in, out] x [out, batch]`), lanes across the
    /// batch: each element sums over `out` ascending from +0.0, as
    /// `dy · W` through `Tensor::matmul` does.
    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor {
        self.accumulate_gradients(&grad_output);
        let batch = grad_output.shape()[1];
        let mut grad_input = Tensor::zeros(&[self.in_features, batch]);
        gemm_kn(
            self.in_features,
            batch,
            self.out_features,
            StridedA::transposed(self.weight.data(), self.in_features),
            grad_output.data(),
            BiasMode::None,
            grad_input.data_mut(),
        );
        grad_input
    }

    fn backward_params_lanes(&mut self, grad_output: Tensor) {
        self.accumulate_gradients(&grad_output);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn params_and_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![(&mut self.weight, &self.grad_weight), (&mut self.bias, &self.grad_bias)]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, &mut r);
        // Zero the weights so output equals the bias.
        layer.params_mut()[0].fill(0.0);
        layer.params_mut()[1].data_mut()[1] = 2.5;
        let x = Tensor::ones(&[2, 4]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.at2(0, 1), 2.5);
        assert_eq!(y.at2(1, 0), 0.0);
    }

    #[test]
    fn param_count_matches_dimensions() {
        let mut r = rng();
        let layer = Dense::new(10, 7, &mut r);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
        assert_eq!(layer.in_features(), 10);
        assert_eq!(layer.out_features(), 7);
    }

    /// The scalar oracle of the dense forward: `Tensor::matmul` against
    /// the transposed weight (k-ascending, zero activations skipped), then
    /// the bias added last.
    fn matmul_forward(layer: &Dense, input: &Tensor) -> Tensor {
        let wt = layer.weight.transpose().unwrap();
        let mut out = input.matmul(&wt).unwrap();
        for n in 0..input.shape()[0] {
            for o in 0..layer.out_features {
                *out.at2_mut(n, o) += layer.bias.data()[o];
            }
        }
        out
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut r = rng();
        let mut layer = Dense::new(7, 5, &mut r);
        let mut x = Tensor::rand_uniform(&[3, 7], -1.0, 1.0, &mut r);
        // Include exact zeros so the matmul zero-skip is exercised.
        x.data_mut()[0] = 0.0;
        x.data_mut()[10] = 0.0;
        let expected = layer.forward(&x);
        let mut out = Tensor::default();
        layer.infer(&x, &mut out);
        assert_eq!(out.shape(), expected.shape());
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gemm_path_matches_scalar_reference_bitwise_across_shapes() {
        let mut r = rng();
        let mut gemm = GemmScratch::new();
        for &(in_f, out_f, batch) in &[
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (13, 9, 8),
            (64, 25, 6),
            (200, 64, 11),
            (3, 17, 4),
        ] {
            let mut layer = Dense::new(in_f, out_f, &mut r);
            let mut x = Tensor::rand_uniform(&[batch, in_f], -1.0, 1.0, &mut r);
            // Exact zeros (and a negative zero) exercise the reference
            // path's zero-skip, which the GEMM must match bitwise anyway.
            x.data_mut()[0] = 0.0;
            if x.len() > 2 {
                x.data_mut()[2] = -0.0;
            }
            layer.bias = Tensor::rand_uniform(&[out_f], -0.5, 0.5, &mut r);
            let scalar = matmul_forward(&layer, &x);
            let forward = layer.forward(&x);
            let mut gemmed = Tensor::default();
            layer.infer_with(&x, &mut gemmed, &mut gemm);
            assert_eq!(gemmed.shape(), scalar.shape());
            for (i, ((g, sc), f)) in gemmed
                .data()
                .iter()
                .zip(scalar.data())
                .zip(forward.data())
                .enumerate()
            {
                assert_eq!(
                    g.to_bits(),
                    sc.to_bits(),
                    "gemm vs scalar at ({in_f},{out_f},{batch}) elem {i}"
                );
                assert_eq!(
                    f.to_bits(),
                    sc.to_bits(),
                    "forward vs scalar at ({in_f},{out_f},{batch}) elem {i}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_matmul_oracle_bitwise() {
        // The pre-GEMM backward: grad_w += (dyᵀ·x) via add_scaled, and
        // dx = dy·W, both through `Tensor::matmul` (which skips zero
        // left-hand entries).
        let mut r = rng();
        for &(in_f, out_f, batch) in &[
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (13, 9, 8),
            (400, 64, 32),
            (64, 25, 32),
            (3, 17, 4),
        ] {
            let mut layer = Dense::new(in_f, out_f, &mut r);
            let mut oracle_gw = Tensor::zeros(&[out_f, in_f]);
            // Two backward calls without zero_grad: gradients accumulate.
            for _ in 0..2 {
                let mut x = Tensor::rand_uniform(&[batch, in_f], -1.0, 1.0, &mut r);
                let mut dy = Tensor::rand_uniform(&[batch, out_f], -1.0, 1.0, &mut r);
                for (i, v) in x.data_mut().iter_mut().enumerate().step_by(4) {
                    *v = if i % 8 == 0 { -0.0 } else { 0.0 };
                }
                for (i, v) in dy.data_mut().iter_mut().enumerate().step_by(3) {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let gw = dy.transpose().unwrap().matmul(&x).unwrap();
                oracle_gw.add_scaled(&gw, 1.0).unwrap();
                let oracle_dx = dy.matmul(&layer.weight).unwrap();

                layer.forward(&x);
                let dx = layer.backward(&dy);
                let at = format!("({in_f},{out_f},{batch})");
                assert_eq!(dx.shape(), oracle_dx.shape());
                for (i, (a, e)) in dx.data().iter().zip(oracle_dx.data()).enumerate() {
                    assert_eq!(a.to_bits(), e.to_bits(), "dx at {at} elem {i}: {a} vs {e}");
                }
                for (i, (a, e)) in layer.grad_weight.data().iter().zip(oracle_gw.data()).enumerate() {
                    assert_eq!(a.to_bits(), e.to_bits(), "dW at {at} elem {i}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, &mut r);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut r);
        // Loss = sum(forward(x)) so dL/dy = ones.
        let y = layer.forward(&x);
        let base_loss: f32 = y.sum();
        layer.backward(&Tensor::ones(&[2, 2]));
        let analytic = layer.grads()[0].clone();

        let eps = 1e-3;
        let mut max_err = 0.0f32;
        for idx in 0..layer.weight.len() {
            let mut perturbed = layer.clone();
            perturbed.params_mut()[0].data_mut()[idx] += eps;
            let y2 = perturbed.forward(&x);
            let num = (y2.sum() - base_loss) / eps;
            let ana = analytic.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 1e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Tensor::rand_uniform(&[5, 2], -1.0, 1.0, &mut r);
        layer.forward(&x);
        let dy = Tensor::ones(&[5, 2]);
        layer.backward(&dy);
        let gb = layer.grads()[1].clone();
        assert!((gb.data()[0] - 5.0).abs() < 1e-5);
        assert!((gb.data()[1] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Tensor::ones(&[1, 2]);
        layer.forward(&x);
        layer.backward(&Tensor::ones(&[1, 2]));
        let g1 = layer.grads()[0].clone();
        layer.forward(&x);
        layer.backward(&Tensor::ones(&[1, 2]));
        let g2 = layer.grads()[0].clone();
        for (a, b) in g1.data().iter().zip(g2.data().iter()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
        layer.zero_grad();
        assert!(layer.grads()[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn input_gradient_shape_matches_input() {
        let mut r = rng();
        let mut layer = Dense::new(6, 4, &mut r);
        let x = Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut r);
        layer.forward(&x);
        let gx = layer.backward(&Tensor::ones(&[3, 4]));
        assert_eq!(gx.shape(), &[3, 6]);
    }

    #[test]
    #[should_panic(expected = "in_features must be positive")]
    fn zero_in_features_panics() {
        let mut r = rng();
        let _ = Dense::new(0, 4, &mut r);
    }
}
