//! # berry-nn
//!
//! A small, dependency-light neural-network substrate used by the BERRY
//! reproduction (bit-error-robust reinforcement learning for low-voltage
//! autonomous systems, DAC 2023).
//!
//! The crate provides exactly the pieces Algorithm 1 of the paper needs:
//!
//! * an owned, contiguous [`Tensor`] type with the handful of operations a
//!   DQN requires (element-wise arithmetic, matrix multiply, reductions),
//! * explicit forward/backward [`layer::Layer`]s (dense, 2-D convolution,
//!   activations, flatten) composed into a [`network::Sequential`] model,
//! * [`optim`] — stochastic gradient descent (with momentum) and Adam,
//! * [`loss`] — mean-squared-error and Huber losses for temporal-difference
//!   targets,
//! * [`quant`] — per-layer symmetric 8-bit quantization with rounding, the
//!   integer representation into which low-voltage SRAM bit errors are
//!   injected by the `berry-faults` crate.
//!
//! The implementation favours clarity and determinism: almost every
//! operation is plain safe Rust over `Vec<f32>`, and all random
//! initialization goes through a caller-supplied [`rand::Rng`] so that
//! experiments are reproducible bit-for-bit.  Training, inference and
//! evaluation run one GEMM tier, the bit-pinned Reference kernels.  The
//! one deliberate exception to plain safe Rust is the [`gemm`] module's
//! SIMD leaf code: the Reference lanes kernel's AVX2/AVX-512 bodies and
//! the packed Fast kernel, a GEMM function no layer calls that is kept
//! for throughput probes (see the [`gemm`] module docs).
//!
//! ## Example
//!
//! ```
//! use berry_nn::network::Sequential;
//! use berry_nn::layer::{Dense, Relu};
//! use berry_nn::optim::{Optimizer, Sgd};
//! use berry_nn::loss::mse_loss;
//! use berry_nn::tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), berry_nn::NnError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(2, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 1, &mut rng));
//!
//! let x = Tensor::from_vec(vec![1, 2], vec![0.5, -0.25])?;
//! let target = Tensor::from_vec(vec![1, 1], vec![0.75])?;
//! let mut opt = Sgd::new(0.05);
//! for _ in 0..50 {
//!     let y = net.forward(&x);
//!     let (loss, grad) = mse_loss(&y, &target);
//!     net.backward(&grad);
//!     opt.step(&mut net);
//!     net.zero_grad();
//!     let _ = loss;
//! }
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the two SIMD leaf modules of `gemm`
// (`simd_avx2`, `simd_neon`) opt back in with a scoped `allow` — every
// other module in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod gemm;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optim;
pub mod quant;
pub mod reduce;
pub mod tensor;

pub use error::NnError;
pub use network::Sequential;
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
