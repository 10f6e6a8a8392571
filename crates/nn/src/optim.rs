//! First-order optimizers operating on a [`Sequential`] network.
//!
//! The BERRY update (Algorithm 1 line 19) is
//! `θ(t+1) = θ(t) − α (∆(t) + ˜∆(t))`: because gradients accumulate across
//! backward passes in this crate, running the clean and perturbed backward
//! passes and then a single optimizer step implements that sum directly.

use crate::network::Sequential;
use crate::tensor::Tensor;

/// An optimizer that updates a network's parameters from its accumulated
/// gradients.
pub trait Optimizer: Send {
    /// Applies one update step using the gradients currently accumulated in
    /// `net`.  Does **not** zero the gradients; call
    /// [`Sequential::zero_grad`] afterwards.
    fn step(&mut self, net: &mut Sequential);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// `g` clamped to `[-clip, clip]` when clipping is on — `f32::clamp`, as
/// [`Tensor::clamp_in_place`] does — and `g` unchanged otherwise.
#[inline(always)]
fn clip_grad(g: f32, clip: Option<f32>) -> f32 {
    match clip {
        Some(clip) => g.clamp(-clip, clip),
        None => g,
    }
}

/// Stochastic gradient descent with optional momentum and gradient clipping.
///
/// # Examples
///
/// ```
/// use berry_nn::optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.01).with_momentum(0.9).with_grad_clip(1.0);
/// assert_eq!(opt.learning_rate(), 0.01);
/// opt.set_learning_rate(0.005);
/// assert_eq!(opt.learning_rate(), 0.005);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    grad_clip: Option<f32>,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates a plain SGD optimizer with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            grad_clip: None,
            velocity: Vec::new(),
        }
    }

    /// Enables classical momentum with coefficient `momentum`.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not strictly positive.
    pub fn with_grad_clip(mut self, clip: f32) -> Self {
        assert!(clip > 0.0, "gradient clip must be positive");
        self.grad_clip = Some(clip);
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Sequential) {
        let params = net.params_and_grads_mut();
        if self.momentum > 0.0 && self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|(_, g)| Tensor::zeros(g.shape())).collect();
        }
        for (i, (param, grad)) in params.into_iter().enumerate() {
            assert_eq!(param.shape(), grad.shape(), "parameter matches gradient");
            // One pass per tensor, each element with the arithmetic of
            // clamp, `v = v·μ + 1·g`, `θ += −lr·v` (or `θ += −lr·g`).
            let grads = grad.data().iter().map(|g| clip_grad(*g, self.grad_clip));
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                for ((p, v), g) in param.data_mut().iter_mut().zip(v.data_mut()).zip(grads) {
                    *v *= self.momentum;
                    *v += 1.0 * g;
                    *p += -self.lr * *v;
                }
            } else {
                for (p, g) in param.data_mut().iter_mut().zip(grads) {
                    *p += -self.lr * g;
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

/// Adam optimizer with bias correction and optional gradient clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    grad_clip: Option<f32>,
    step_count: u64,
    first_moment: Vec<Tensor>,
    second_moment: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and default
    /// coefficients (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: None,
            step_count: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Overrides the exponential-decay coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is outside `[0, 1)`.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not strictly positive.
    pub fn with_grad_clip(mut self, clip: f32) -> Self {
        assert!(clip > 0.0, "gradient clip must be positive");
        self.grad_clip = Some(clip);
        self
    }

    /// Number of optimizer steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Sequential) {
        let params = net.params_and_grads_mut();
        if self.first_moment.len() != params.len() {
            self.first_moment = params.iter().map(|(_, g)| Tensor::zeros(g.shape())).collect();
            self.second_moment = params.iter().map(|(_, g)| Tensor::zeros(g.shape())).collect();
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);

        for (i, (param, grad)) in params.into_iter().enumerate() {
            let m = self.first_moment[i].data_mut();
            let v = self.second_moment[i].data_mut();
            assert_eq!(param.len(), grad.len(), "parameter matches gradient");
            // One pass per tensor: the clamped gradient, both moments and
            // the parameter, each with its two-pass arithmetic.
            for (((p_i, m_i), v_i), &g_i) in
                param.data_mut().iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(grad.data())
            {
                let g_i = clip_grad(g_i, self.grad_clip);
                *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * g_i;
                *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * g_i * g_i;
                let m_hat = *m_i / bias1;
                let v_hat = *v_i / bias2;
                *p_i -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use crate::loss::mse_loss;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    fn toy_net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(16, 1, &mut rng));
        net
    }

    fn train_step(net: &mut Sequential, opt: &mut dyn Optimizer, x: &Tensor, y: &Tensor) -> f32 {
        let pred = net.forward(x);
        let (loss, grad) = mse_loss(&pred, y);
        net.backward(&grad);
        opt.step(net);
        net.zero_grad();
        loss
    }

    #[test]
    fn sgd_reduces_loss_on_regression() {
        let mut net = toy_net(1);
        let mut opt = Sgd::new(0.05);
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let y = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let first = train_step(&mut net, &mut opt, &x, &y);
        let mut last = first;
        for _ in 0..300 {
            last = train_step(&mut net, &mut opt, &x, &y);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn momentum_sgd_converges() {
        let mut net = toy_net(2);
        let mut opt = Sgd::new(0.02).with_momentum(0.9);
        let x = Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, -0.25, 0.75]).unwrap();
        let y = Tensor::from_vec(vec![2, 1], vec![1.0, -1.0]).unwrap();
        let first = train_step(&mut net, &mut opt, &x, &y);
        let mut last = first;
        for _ in 0..200 {
            last = train_step(&mut net, &mut opt, &x, &y);
        }
        assert!(last < first * 0.1, "loss {first} -> {last}");
    }

    #[test]
    fn adam_converges_faster_than_needed_tolerance() {
        let mut net = toy_net(3);
        let mut opt = Adam::new(0.01);
        let x = Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, -0.25, 0.75]).unwrap();
        let y = Tensor::from_vec(vec![2, 1], vec![0.3, -0.7]).unwrap();
        let mut last = f32::MAX;
        for _ in 0..300 {
            last = train_step(&mut net, &mut opt, &x, &y);
        }
        assert!(last < 1e-3, "final Adam loss {last}");
        assert_eq!(opt.step_count(), 300);
    }

    #[test]
    fn grad_clip_limits_update_magnitude() {
        let mut net = toy_net(4);
        let before: Vec<f32> = net.params().iter().flat_map(|p| p.data().to_vec()).collect();
        // Huge targets produce huge gradients; clipping keeps the step bounded.
        let mut opt = Sgd::new(0.1).with_grad_clip(0.5);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = Tensor::from_vec(vec![1, 1], vec![1e6]).unwrap();
        train_step(&mut net, &mut opt, &x, &y);
        let after: Vec<f32> = net.params().iter().flat_map(|p| p.data().to_vec()).collect();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((a - b).abs() <= 0.1 * 0.5 + 1e-6);
        }
    }

    #[test]
    fn set_learning_rate_round_trips() {
        let mut sgd = Sgd::new(0.1);
        sgd.set_learning_rate(0.02);
        assert_eq!(sgd.learning_rate(), 0.02);
        let mut adam = Adam::new(0.1).with_betas(0.8, 0.99);
        adam.set_learning_rate(0.001);
        assert_eq!(adam.learning_rate(), 0.001);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_learning_rate_panics() {
        let _ = Sgd::new(0.0);
    }
}
