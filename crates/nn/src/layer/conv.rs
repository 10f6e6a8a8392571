//! 2-D convolution layer, lowered onto the shared im2col/GEMM core.

use super::Layer;
use crate::gemm::{gemm_kn, gemm_nt_with, BiasMode, GemmScratch, Im2colShape, Precision, StridedA};
use crate::init;
use crate::tensor::Tensor;

/// A 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights have shape `[out_channels, in_channels, kernel, kernel]` and the
/// bias `[out_channels]`.  Every pass — training `forward`, `backward` and
/// the immutable `infer`/`infer_with` — runs on the im2col +
/// [`gemm_kn`] core at the Reference tier (the inference path follows its
/// scratch's tier), and each output and gradient element accumulates its
/// terms in the order of the direct six-loop convolution, so the bits
/// equal that kernel's (see [`Conv2d::backward`](Layer::backward) and
/// DESIGN.md "Training on the GEMM core").
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Conv2d, Layer};
/// use berry_nn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[1, 2, 9, 9]);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), &[1, 4, 9, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    scratch: TrainScratch,
}

/// Reusable per-layer buffers of the training passes, sized for **one**
/// sample: backward re-runs im2col per sample from the cached input
/// rather than keeping a batch-sized patch matrix.
///
/// A cache, not state: cloning a layer (target-network copies, perturbed
/// snapshots) starts the clone with empty buffers.
#[derive(Debug, Default)]
struct TrainScratch {
    /// One sample's im2col patch matrix; always at the Reference tier.
    gemm: GemmScratch,
    /// The input pixels grouped by stride phase; depends only on the
    /// input extent.
    phases: Vec<StridePhase>,
    /// The `(height, width)` the phases were built for.
    phase_extent: (usize, usize),
    /// Per phase (concatenated), the flipped weight restricted to the
    /// phase's taps: `Wf[ic][(oc, tap)]`.
    flipped: Vec<f32>,
    /// One sample's output gradient with a `0.0` appended to every
    /// channel plane, `[oc][plane + 1]`: the gather tables' zero slot.
    go_padded: Vec<f32>,
    /// One phase of one sample's gathered output gradient, k-major:
    /// `G[(oc, tap)][pixel]`.
    gathered: Vec<f32>,
    /// One phase of one sample's input gradient, `[ic][pixel]`.
    dx_block: Vec<f32>,
}

/// The input pixels at one phase of the stride grid — `(iy + padding)`
/// and `(ix + padding)` fixed modulo the stride — and the kernel taps
/// that can reach an output pixel from them.  Every other tap only ever
/// meets a stride gap, so leaving it out drops exact-zero terms and
/// nothing else.
#[derive(Debug)]
struct StridePhase {
    /// Flat input-pixel indices `iy·w + ix`, ascending.
    pixels: Vec<u32>,
    /// The reaching taps `(kh, kw)` in flipped order: `kh` descending,
    /// then `kw` descending.
    taps: Vec<(usize, usize)>,
    /// `[tap][pixel]` → the output pixel the tap reaches, or the plane
    /// size (the zero slot of [`TrainScratch::go_padded`]) where it falls
    /// past the output's border.
    gather: Vec<u32>,
}

impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel` or `stride`
    /// is zero.
    pub fn new<R: rand::Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0, "in_channels must be positive");
        assert!(out_channels > 0, "out_channels must be positive");
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let weight = init::he_normal(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            rng,
        );
        Self {
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            bias: Tensor::zeros(&[out_channels]),
            weight,
            cached_input: None,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            scratch: TrainScratch::default(),
        }
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// Follows the usual `floor((size + 2·padding − kernel) / stride) + 1`
    /// convention.
    pub fn output_size(&self, input_size: usize) -> usize {
        (input_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (square kernels only).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding applied to each spatial border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Number of multiply–accumulate operations required for one forward
    /// pass over a single sample with the given input spatial size.
    ///
    /// Used by the `berry-hw` energy model to cost the layer on a systolic
    /// accelerator.
    pub fn macs_per_sample(&self, height: usize, width: usize) -> usize {
        let oh = self.output_size(height);
        let ow = self.output_size(width);
        oh * ow * self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// The im2col geometry of this layer over an `h×w` input plane.
    fn im2col_shape(&self, height: usize, width: usize) -> Im2colShape {
        Im2colShape {
            channels: self.in_channels,
            height,
            width,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out_h: self.output_size(height),
            out_w: self.output_size(width),
        }
    }

    /// Rebuilds the per-phase flipped weights (the weights moved since the
    /// last backward) and, when the input extent changed, the stride
    /// phases with their gather tables.
    fn prepare_input_gradient(&mut self, shape: &Im2colShape) {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let extent = (shape.height, shape.width);
        if self.scratch.phase_extent != extent || self.scratch.phases.is_empty() {
            let phases = &mut self.scratch.phases;
            phases.clear();
            for phase_y in 0..s {
                for phase_x in 0..s {
                    let mut taps = Vec::new();
                    for kh in (0..k).rev().filter(|kh| kh % s == phase_y) {
                        for kw in (0..k).rev().filter(|kw| kw % s == phase_x) {
                            taps.push((kh, kw));
                        }
                    }
                    let mut pixels = Vec::new();
                    for iy in (0..shape.height).filter(|iy| (iy + p) % s == phase_y) {
                        for ix in (0..shape.width).filter(|ix| (ix + p) % s == phase_x) {
                            pixels.push(
                                u32::try_from(iy * shape.width + ix)
                                    .expect("input plane fits a u32 index"),
                            );
                        }
                    }
                    let mut gather = Vec::with_capacity(taps.len() * pixels.len());
                    for &(kh, kw) in &taps {
                        for &pix in &pixels {
                            let (iy, ix) = (pix as usize / shape.width, pix as usize % shape.width);
                            // On this phase `iy + p − kh` is a multiple of
                            // the stride whenever it is non-negative.
                            let oy = (iy + p).checked_sub(kh).map(|v| v / s);
                            let ox = (ix + p).checked_sub(kw).map(|v| v / s);
                            let slot = match (oy, ox) {
                                (Some(oy), Some(ox)) if oy < shape.out_h && ox < shape.out_w => {
                                    oy * shape.out_w + ox
                                }
                                _ => shape.rows(),
                            };
                            gather.push(u32::try_from(slot).expect("output plane fits a u32 index"));
                        }
                    }
                    // A phase without pixels or taps has nothing to add:
                    // its dX entries stay at their +0.0 start.
                    if !pixels.is_empty() && !taps.is_empty() {
                        phases.push(StridePhase {
                            pixels,
                            taps,
                            gather,
                        });
                    }
                }
            }
            self.scratch.phase_extent = extent;
        }

        let (ic_n, oc_n) = (self.in_channels, self.out_channels);
        let w = self.weight.data();
        let flipped = &mut self.scratch.flipped;
        flipped.clear();
        for phase in &self.scratch.phases {
            for ic in 0..ic_n {
                for oc in 0..oc_n {
                    let filter = &w[(oc * ic_n + ic) * k * k..(oc * ic_n + ic + 1) * k * k];
                    flipped.extend(phase.taps.iter().map(|&(kh, kw)| filter[kh * k + kw]));
                }
            }
        }
    }

    /// The body of [`Layer::backward`]: accumulates dW and the bias
    /// gradient, and writes dX into `grad_input` (a `+0.0`-filled tensor of
    /// the input's shape) when one is given.
    fn accumulate_gradients(
        &mut self,
        grad_output: &Tensor,
        mut grad_input: Option<&mut Tensor>,
    ) {
        let input = self
            .cached_input
            .take()
            .expect("backward called before forward on Conv2d");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let shape = self.im2col_shape(h, w);
        let (oc_n, plane) = (self.out_channels, shape.rows());
        assert_eq!(
            grad_output.shape(),
            &[batch, oc_n, shape.out_h, shape.out_w],
            "Conv2d gradient shape mismatch"
        );
        if grad_input.is_some() {
            self.prepare_input_gradient(&shape);
        }
        let taps = shape.cols();
        let in_pixels = h * w;
        let go_data = grad_output.data();

        for n in 0..batch {
            let go_n = &go_data[n * oc_n * plane..(n + 1) * oc_n * plane];
            let sample = n * c * in_pixels..(n + 1) * c * in_pixels;

            // dW += goₙ · colₙ, contracting over the pixel index (the rows
            // of colₙ, so colₙ is already the k-major operand).
            let (col, _, _) = self
                .scratch
                .gemm
                .im2col_packs_precision(&input.data()[sample.clone()], &shape);
            gemm_kn(
                oc_n,
                taps,
                plane,
                StridedA::row_major(go_n, plane),
                col,
                BiasMode::Accumulate,
                self.grad_weight.data_mut(),
            );

            if let Some(grad_input) = grad_input.as_deref_mut() {
                self.input_gradient(go_n, plane, &mut grad_input.data_mut()[sample]);
            }
        }

        let grad_bias = self.grad_bias.data_mut();
        for go_n in go_data.chunks_exact(oc_n * plane) {
            for (gb, go_oc) in grad_bias.iter_mut().zip(go_n.chunks_exact(plane)) {
                for &go in go_oc {
                    *gb += go;
                }
            }
        }
        self.cached_input = Some(input);
    }

    /// One sample's `dXₙ = Wf · Gₙ`, one GEMM per stride phase, written
    /// into `grad_in_n` (`[c][h·w]`).  Needs [`Conv2d::prepare_input_gradient`]
    /// for the current weights and input extent.
    fn input_gradient(&mut self, go_n: &[f32], plane: usize, grad_in_n: &mut [f32]) {
        let (c, oc_n) = (self.in_channels, self.out_channels);
        let in_pixels = grad_in_n.len() / c;
        let TrainScratch {
            phases,
            flipped,
            go_padded,
            gathered,
            dx_block,
            ..
        } = &mut self.scratch;
        go_padded.resize(oc_n * (plane + 1), 0.0);
        for (dst, src) in go_padded.chunks_exact_mut(plane + 1).zip(go_n.chunks_exact(plane)) {
            dst[..plane].copy_from_slice(src);
            dst[plane] = 0.0;
        }
        let mut flipped_at = 0;
        for phase in phases.iter() {
            let (npix, ntaps) = (phase.pixels.len(), phase.taps.len());
            let kc = oc_n * ntaps;
            gathered.resize(kc * npix, 0.0);
            for (g_oc, go_oc) in gathered
                .chunks_exact_mut(ntaps * npix)
                .zip(go_padded.chunks_exact(plane + 1))
            {
                for (g_row, idx_row) in g_oc
                    .chunks_exact_mut(npix)
                    .zip(phase.gather.chunks_exact(npix))
                {
                    for (g, &slot) in g_row.iter_mut().zip(idx_row) {
                        *g = go_oc[slot as usize];
                    }
                }
            }
            dx_block.resize(c * npix, 0.0);
            gemm_kn(
                c,
                npix,
                kc,
                StridedA::row_major(&flipped[flipped_at..flipped_at + c * kc], kc),
                gathered,
                BiasMode::None,
                dx_block,
            );
            flipped_at += c * kc;
            for (dst, src) in grad_in_n
                .chunks_exact_mut(in_pixels)
                .zip(dx_block.chunks_exact(npix))
            {
                for (&pix, &v) in phase.pixels.iter().zip(src) {
                    dst[pix as usize] = v;
                }
            }
        }
    }
}

impl Layer for Conv2d {
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
        assert_eq!(input.rank(), 4, "Conv2d expects [batch, c, h, w] input");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "Conv2d input channel mismatch");
        let shape = self.im2col_shape(h, w);
        let (oh, ow) = (shape.out_h, shape.out_w);
        let (rows, taps) = (shape.rows(), shape.cols());
        out.reset(&[batch, self.out_channels, oh, ow]);
        let in_data = input.data();
        let out_data = out.data_mut();
        let w_data = self.weight.data();
        let bias = self.bias.data();

        // im2col + GEMM lowering: out[n][oc][p] = bias[oc] + w_row(oc)·col_row(p).
        // Patch columns follow the (ic, kh, kw) tap order.  At the default
        // Reference tier the GEMM accumulates them ascending (lanes across
        // the output pixels of the transposed patch matrix), so every
        // output element replays the direct convolution's floating-point
        // sequence exactly (padding cells contribute ±0.0 products, which
        // never change an accumulator that is not −0.0 — see the gemm
        // module docs); the Fast tier follows the scratch's precision
        // setting and trades that bitwise identity for its own spec.
        for n in 0..batch {
            let plane = &in_data[n * c * h * w..(n + 1) * c * h * w];
            let out_block =
                &mut out_data[n * self.out_channels * rows..(n + 1) * self.out_channels * rows];
            let bias = BiasMode::RowInit(bias);
            if gemm.precision() == Precision::Reference {
                let col_t = gemm.im2col_transposed(plane, &shape);
                let weights = StridedA::row_major(w_data, taps);
                gemm_kn(self.out_channels, rows, taps, weights, col_t, bias, out_block);
            } else {
                let (col, packs, precision) = gemm.im2col_packs_precision(plane, &shape);
                gemm_nt_with(
                    self.out_channels,
                    rows,
                    taps,
                    w_data,
                    col,
                    bias,
                    out_block,
                    precision,
                    packs,
                );
            }
        }
    }

    /// Reference GEMMs per sample, in the direct convolution's order.
    ///
    /// The direct kernel loops `(n, oc, oy, ox)`, skips `go == 0`, and
    /// for every in-bounds tap adds `go·x` to `dW[oc][tap]` and `go·w` to
    /// `dX[ic][iy][ix]`.  Here:
    ///
    /// * **dW** — `dW[oc][tap] += Σₚ goₙ[oc][p]·colₙ[p][tap]`, one
    ///   [`BiasMode::Accumulate`] GEMM per sample with samples ascending,
    ///   which replays each weight's `(n, oy, ox)` term sequence.
    /// * **dX** — `dXₙ[ic][pix] = Σₖ Wf[ic][k]·Gₙ[k][pix]` with
    ///   `k = (oc, kh, kw)` over `kh`, `kw` *descending*; `Wf` is the
    ///   flipped weight and `Gₙ` gathers `goₙ` through a per-shape table
    ///   (`0` where a tap falls past the output's border).  For a fixed
    ///   input pixel, ascending `(oy, ox)` is descending `(kh, kw)`, so
    ///   ascending `k` is exactly the direct kernel's `(oc, oy, ox)`
    ///   order: no term is reassociated.  One GEMM runs per stride phase
    ///   of the input pixels, over only the taps that can reach an output
    ///   from that phase (the rest only ever meet stride gaps).
    /// * **bias** — a per-channel sum in the same `(n, p)` order.
    ///
    /// The extra terms (the `go == 0` entries, padding taps, border gather
    /// slots) are all exact `±0.0` products for finite inputs.  Every
    /// gradient accumulator starts at `+0.0` (`zero_grad`, a fresh `dX`)
    /// and only ever has values added to it; under round-to-nearest such a
    /// sum can never become `−0.0`, and adding `±0.0` to anything that is
    /// not `−0.0` leaves its bits unchanged — so including those terms
    /// cannot change a bit.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad_input = Tensor::zeros(
            self.cached_input
                .as_ref()
                .expect("backward called before forward on Conv2d")
                .shape(),
        );
        self.accumulate_gradients(grad_output, Some(&mut grad_input));
        grad_input
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.accumulate_gradients(grad_output, None);
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

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
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
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn output_size_follows_convention() {
        let mut r = rng();
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        assert_eq!(conv.output_size(9), 9);
        let conv2 = Conv2d::new(1, 1, 3, 2, 1, &mut r);
        assert_eq!(conv2.output_size(9), 5);
        let conv3 = Conv2d::new(1, 1, 3, 1, 0, &mut r);
        assert_eq!(conv3.output_size(9), 7);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        // Set the kernel to a centred delta so the convolution is identity.
        conv.params_mut()[0].fill(0.0);
        conv.params_mut()[1].fill(0.0);
        {
            let w = conv.params_mut().remove(0);
            // index [0,0,1,1] in a 3x3 kernel
            w.data_mut()[4] = 1.0;
        }
        let x = Tensor::rand_uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn known_small_convolution() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        conv.params_mut()[1].fill(0.5);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x);
        // 1*1 + 2*2 + 3*3 + 4*4 + 0.5 = 30.5
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 30.5).abs() < 1e-6);
    }

    /// The direct six-nested-loop convolution, forward: the scalar oracle
    /// every GEMM forward must reproduce bit for bit.
    fn direct_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding);
        let (oh, ow) = (conv.output_size(h), conv.output_size(w));
        let mut out = Tensor::zeros(&[batch, conv.out_channels, oh, ow]);
        let (x, wt) = (input.data(), conv.weight.data());
        let o = out.data_mut();
        for n in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = conv.bias.data()[oc];
                        for ic in 0..c {
                            for kh in 0..k {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix = (ox * s + kw) as isize - p as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx = ((n * c + ic) * h + iy as usize) * w + ix as usize;
                                    acc += x[in_idx] * wt[((oc * c + ic) * k + kh) * k + kw];
                                }
                            }
                        }
                        o[((n * conv.out_channels + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// The direct six-nested-loop convolution, backward: accumulates into
    /// `grad_weight`/`grad_bias` (skipping `go == 0` and out-of-bounds
    /// taps) and returns dX — the scalar oracle of the GEMM backward.
    fn direct_backward(
        conv: &Conv2d,
        input: &Tensor,
        grad_output: &Tensor,
        grad_weight: &mut [f32],
        grad_bias: &mut [f32],
    ) -> Tensor {
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding);
        let (oh, ow) = (conv.output_size(h), conv.output_size(w));
        let mut grad_input = Tensor::zeros(&[batch, c, h, w]);
        let (x, wt, gos) = (input.data(), conv.weight.data(), grad_output.data());
        let gi = grad_input.data_mut();
        for n in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = gos[((n * conv.out_channels + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        grad_bias[oc] += go;
                        for ic in 0..c {
                            for kh in 0..k {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix = (ox * s + kw) as isize - p as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx = ((n * c + ic) * h + iy as usize) * w + ix as usize;
                                    let w_idx = ((oc * c + ic) * k + kh) * k + kw;
                                    grad_weight[w_idx] += go * x[in_idx];
                                    gi[in_idx] += go * wt[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn assert_bits_eq(actual: &[f32], expected: &[f32], what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}: length");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "{what} element {i}: {a} vs {e}");
        }
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut r);
        let x = Tensor::rand_uniform(&[2, 2, 9, 9], -1.0, 1.0, &mut r);
        let expected = conv.forward(&x);
        let mut out = Tensor::default();
        conv.infer(&x, &mut out);
        assert_eq!(out.shape(), expected.shape());
        assert_bits_eq(out.data(), expected.data(), "infer vs forward");
    }

    #[test]
    fn gemm_path_matches_scalar_reference_bitwise_across_shapes() {
        let mut r = rng();
        let mut gemm = GemmScratch::new();
        // (in_c, out_c, kernel, stride, padding, h, w, batch) — odd sizes,
        // stride 1/2/3, padding 0..=2 (also wider than the kernel), kernels
        // larger than the input and smaller than the stride.
        for &(ic, oc, k, s, p, h, w, batch) in &[
            (1usize, 1usize, 1usize, 1usize, 0usize, 1usize, 1usize, 1usize),
            (2, 3, 3, 1, 1, 9, 9, 2),
            (3, 5, 3, 2, 1, 9, 7, 3),
            (2, 4, 5, 3, 2, 11, 13, 1),
            (4, 2, 3, 1, 0, 5, 5, 5),
            (1, 7, 3, 2, 2, 4, 4, 2),
            (2, 2, 5, 1, 2, 3, 3, 1),
            (3, 4, 2, 3, 1, 8, 6, 2),
            (2, 3, 1, 2, 2, 5, 4, 2),
        ] {
            let at = format!("({ic},{oc},{k},{s},{p},{h},{w},{batch})");
            let mut conv = Conv2d::new(ic, oc, k, s, p, &mut r);
            // Nonzero biases, so the forward's bias-initialized
            // accumulators are exercised too.
            conv.bias = Tensor::rand_uniform(&[oc], -0.5, 0.5, &mut r);
            let mut xs = Vec::new();
            let mut gos = Vec::new();
            for _ in 0..2 {
                let mut x = Tensor::rand_uniform(&[batch, ic, h, w], -1.0, 1.0, &mut r);
                // −0.0 and +0.0 inputs.
                for (i, v) in x.data_mut().iter_mut().enumerate().step_by(5) {
                    *v = if i % 2 == 0 { -0.0 } else { 0.0 };
                }
                let (oh, ow) = (conv.output_size(h), conv.output_size(w));
                let mut go = Tensor::rand_uniform(&[batch, oc, oh, ow], -1.0, 1.0, &mut r);
                // Exact-zero output gradients (both signs), which the
                // direct kernel skips.
                for (i, v) in go.data_mut().iter_mut().enumerate().step_by(3) {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                xs.push(x);
                gos.push(go);
            }

            let mut oracle_gw = vec![0.0f32; conv.weight.len()];
            let mut oracle_gb = vec![0.0f32; oc];
            // Two backward calls without zero_grad: gradients accumulate.
            for (x, go) in xs.iter().zip(&gos) {
                let expected = direct_forward(&conv, x);
                let expected_gi = direct_backward(&conv, x, go, &mut oracle_gw, &mut oracle_gb);

                let mut scalar = Tensor::default();
                conv.infer(x, &mut scalar);
                assert_bits_eq(scalar.data(), expected.data(), &format!("infer at {at}"));
                let mut gemmed = Tensor::default();
                conv.infer_with(x, &mut gemmed, &mut gemm);
                assert_eq!(gemmed.shape(), expected.shape());
                assert_bits_eq(gemmed.data(), expected.data(), &format!("infer_with at {at}"));
                let y = conv.forward(x);
                assert_bits_eq(y.data(), expected.data(), &format!("forward at {at}"));

                let gi = conv.backward(go);
                assert_eq!(gi.shape(), x.shape());
                assert_bits_eq(gi.data(), expected_gi.data(), &format!("dX at {at}"));
                assert_bits_eq(conv.grad_weight.data(), &oracle_gw, &format!("dW at {at}"));
                assert_bits_eq(conv.grad_bias.data(), &oracle_gb, &format!("grad_bias at {at}"));
            }
        }
    }

    #[test]
    fn zero_products_never_change_gradient_accumulators() {
        // The argument the GEMM backward rests on: accumulators start at
        // +0.0 and only receive additions, so they are never −0.0, and
        // adding a ±0.0 product to such a value keeps its bits.
        for start in [0.0f32, 1.5, -2.25, f32::MIN_POSITIVE, -f32::MIN_POSITIVE] {
            for (a, b) in [(0.0f32, 3.0f32), (-0.0, 3.0), (0.0, -3.0), (-0.0, -3.0)] {
                let sum = start + a * b;
                assert_eq!(sum.to_bits(), start.to_bits(), "{start} + {a}·{b}");
            }
        }
        // Sums starting at +0.0 never reach −0.0, even when every term is
        // a −0.0 product or the terms cancel exactly.
        let mut acc = 0.0f32;
        for term in [-0.0f32, 0.5, -0.5, -0.0, 1e-30, -1e-30, -0.0] {
            acc += term;
            assert!(acc != 0.0 || acc.is_sign_positive(), "accumulator became -0.0");
        }
        assert_eq!(acc.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let base: f32 = y.sum();
        let go = Tensor::ones(&[1, 2, 4, 4]);
        conv.backward(&go);
        let analytic = conv.grads()[0].clone();

        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for idx in (0..conv.weight.len()).step_by(7) {
            let mut p = conv.clone();
            p.params_mut()[0].data_mut()[idx] += eps;
            let y2 = p.forward(&x);
            let num = (y2.sum() - base) / eps;
            let ana = analytic.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 5e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let base: f32 = y.sum();
        let gx = conv.backward(&Tensor::ones(&[1, 2, 4, 4]));

        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for idx in 0..x.len() {
            let mut x2 = x.clone();
            x2.data_mut()[idx] += eps;
            let y2 = conv.forward(&x2);
            let num = (y2.sum() - base) / eps;
            let ana = gx.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 5e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn strided_convolution_downsamples() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut r);
        let x = Tensor::zeros(&[2, 3, 9, 9]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 8, 5, 5]);
        let gx = conv.backward(&Tensor::ones(&[2, 8, 5, 5]));
        assert_eq!(gx.shape(), &[2, 3, 9, 9]);
    }

    #[test]
    fn macs_per_sample_counts_kernel_work() {
        let mut r = rng();
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut r);
        // 9x9 output, 4 out channels, 2 in channels, 3x3 kernel
        assert_eq!(conv.macs_per_sample(9, 9), 81 * 4 * 2 * 9);
    }

    #[test]
    fn param_count_matches_dimensions() {
        let mut r = rng();
        let conv = Conv2d::new(3, 5, 3, 1, 1, &mut r);
        assert_eq!(conv.param_count(), 5 * 3 * 9 + 5);
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        conv.forward(&x);
        conv.backward(&Tensor::ones(&[1, 1, 3, 3]));
        let g1: f32 = conv.grads()[0].sum();
        conv.forward(&x);
        conv.backward(&Tensor::ones(&[1, 1, 3, 3]));
        let g2: f32 = conv.grads()[0].sum();
        assert!((g2 - 2.0 * g1).abs() < 1e-4);
        conv.zero_grad();
        assert_eq!(conv.grads()[0].sum(), 0.0);
    }
}
