//! 2-D convolution layer on the Reference lanes kernel.
//!
//! The layer's one training implementation runs in the batch-lane layout
//! (see the [`super`] module docs), with SIMD lanes across the **batch**.
//! Its input `[ic][iy][ix][n]` is copied once, row by row, into a
//! zero-bordered buffer `xb[ic][iy + p][ix + p][n]`; there, every kernel
//! tap of every output pixel is one contiguous run of samples, so the
//! forward, dW and dX products read their operands in place through
//! offset tables — no im2col, no re-unrolling, no gather copy — and the
//! forward's product `C[oc][oy][ox][n]` is the output itself.  The
//! batch-outer `forward`/`backward` convert at the layer's edges around
//! those routines.  The batch-outer `infer`/`infer_with` (action
//! selection, the lockstep rollout lanes — a `Sequential` pass of
//! [`BATCH_LANES_MIN`] samples or more runs `infer_lanes` instead) unroll
//! each sample's patches and run lanes across output pixels.

use super::{from_batch_lanes, to_batch_lanes, Layer, BATCH_LANES_MIN};
use crate::gemm::{
    gemm_kn, gemm_kn_at, transpose, transpose_rows, BiasMode, GemmScratch, Im2colShape, KnBody,
    KnOperands, Stride, StridedA,
};
use crate::init;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// A 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights have shape `[out_channels, in_channels, kernel, kernel]` and the
/// bias `[out_channels]`.  Every pass — training `forward`, `backward` and
/// the immutable `infer`/`infer_with` — runs on the [`gemm_kn`] lanes
/// kernel, and each output and gradient element accumulates its terms in
/// the order of the direct six-loop convolution, so the bits equal that
/// kernel's (see [`Conv2d::backward`](Layer::backward) and DESIGN.md
/// "Training on the GEMM core").
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
    /// The last training forward's input in its bordered batch-lane copy —
    /// the one copy backward reads; `None` before the first forward.
    cached_input: Option<LaneInput>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    scratch: TrainScratch,
}

/// An input batch in the bordered batch-lane layout: `xb[ic][iy + p][ix +
/// p][n]` with `+0.0` in the `p`-wide border.
#[derive(Debug, Clone, Default)]
struct LaneInput {
    xb: Vec<f32>,
    /// The input's batch-lane `[channels, height, width, batch]`.
    dims: [usize; 4],
}

/// The buffers one batch-lane pass uses and drops, sized for the whole
/// batch.  Only one pass runs at a time on a thread, so every convolution
/// on the thread shares one set ([`PASS_SCRATCH`]) — a set per layer
/// would multiply this memory by the layers of every training, target
/// and perturbed network.  Contents are unspecified between passes.
#[derive(Debug, Default)]
struct PassScratch {
    /// The offset tables of the current product.
    offsets: Vec<usize>,
    /// Backward: the weight gradient transposed, `[tap][oc]`, then at
    /// stride > 1 the input gradient phase by phase (see
    /// [`Lanes::input_gradient`]).
    c: Vec<f32>,
    /// Backward: the output gradient transposed to `[n][pixel][oc]`, then
    /// in the bordered batch-lane layout with a border wide enough for
    /// every tap of the flipped kernel (see [`Lanes::go_extent`]).
    go: Vec<f32>,
    /// Inference: the input's bordered batch-lane copy.
    xb: Vec<f32>,
    /// Training forward below [`BATCH_LANES_MIN`]: the per-sample path's
    /// patch buffers.
    gemm: GemmScratch,
}

thread_local! {
    /// This thread's [`PassScratch`].
    static PASS_SCRATCH: RefCell<PassScratch> = RefCell::new(PassScratch::default());
}

/// Per-layer tables of the input gradient.
///
/// A cache, not state: cloning a layer (target-network copies, perturbed
/// snapshots) starts the clone with empty tables.
#[derive(Debug, Default)]
struct TrainScratch {
    /// The input pixels grouped by stride phase; depends only on the
    /// geometry in `phase_key`.
    phases: Vec<StridePhase>,
    /// The `(batch, height, width)` the phases were built for.
    phase_key: (usize, usize, usize),
    /// Per phase (concatenated), the flipped weight restricted to the
    /// phase's taps: `Wf[ic][(oc, tap)]`.
    flipped: Vec<f32>,
}

/// The input pixels at one phase of the stride grid — `(iy + padding)`
/// and `(ix + padding)` fixed modulo the stride — and the kernel taps
/// that can reach an output pixel from them.  Every other tap only ever
/// meets a stride gap, so leaving it out drops exact-zero terms and
/// nothing else.
///
/// The phase's pixels form a grid, `(iy0 + r·s, ix0 + c·s)`; its input
/// gradient is computed into a phase-major `[ic][r][c][n]` block, where
/// the pixels of one phase row are adjacent — and so are their B rows in
/// the output gradient's bordered copy, so one product covers the row.
#[derive(Debug)]
struct StridePhase {
    /// The first pixel `(iy0, ix0)`.
    origin: (usize, usize),
    /// The grid's `(rows, cols)`.
    extent: (usize, usize),
    /// Runs of the grid's pixels, ascending: the first pixel's index
    /// `r·cols + c`, the offset in the output gradient's bordered copy its
    /// B rows are relative to, and the run's length.  A run's pixels are
    /// adjacent both in the block and in that copy, so one product covers
    /// it.
    runs: Vec<(usize, usize, usize)>,
    /// The reaching taps `(kh, kw)` in flipped order: `kh` descending,
    /// then `kw` descending.
    taps: Vec<(usize, usize)>,
    /// Per `k = (oc, tap)`, the offset of B row `k` from a pixel's base.
    rows: Vec<usize>,
}

impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// One layer's geometry over one input batch: the per-sample im2col
/// geometry plus the batch and the output channels.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    batch: usize,
    out_c: usize,
    shape: Im2colShape,
}

impl Lanes {
    /// Kernel taps per output element, `in_c·k·k`.
    fn taps(&self) -> usize {
        self.shape.cols()
    }

    /// Output pixels per channel.
    fn out_plane(&self) -> usize {
        self.shape.rows()
    }

    /// The input's batch-lane `[channels, height, width, batch]`.
    fn in_dims(&self) -> [usize; 4] {
        let Im2colShape { channels, height, width, .. } = self.shape;
        [channels, height, width, self.batch]
    }

    /// The output's batch-lane `[out_channels, out_h, out_w, batch]`.
    fn out_dims(&self) -> [usize; 4] {
        [self.out_c, self.shape.out_h, self.shape.out_w, self.batch]
    }

    /// The bordered extent of the input's batch-lane copy.
    fn padded(&self) -> (usize, usize) {
        let Im2colShape { height, width, padding, .. } = self.shape;
        (height + 2 * padding, width + 2 * padding)
    }

    /// Copies a batch-lane input into its bordered copy `xb`.
    fn fill_input(&self, input: &[f32], xb: &mut Vec<f32>) {
        let Im2colShape { channels, height, width, padding, .. } = self.shape;
        fill_bordered(input, self.batch, channels, (height, width), self.padded(), padding, xb);
    }

    /// Appends the offset in `xb` of every tap `(ic, kh, kw)`, ascending,
    /// from an output pixel's window corner.
    fn push_tap_offsets(&self, offsets: &mut Vec<usize>) {
        let (hp, wp) = self.padded();
        let k = self.shape.kernel;
        for ic in 0..self.shape.channels {
            for kh in 0..k {
                for kw in 0..k {
                    offsets.push(((ic * hp + kh) * wp + kw) * self.batch);
                }
            }
        }
    }

    /// Appends the offset in `xb` of every output pixel's window corner
    /// plus `lane`, pixels ascending.
    fn push_pixel_offsets(&self, lane: usize, offsets: &mut Vec<usize>) {
        let wp = self.padded().1;
        let Im2colShape { stride: s, out_h, out_w, .. } = self.shape;
        for oy in 0..out_h {
            for ox in 0..out_w {
                offsets.push((oy * s * wp + ox * s) * self.batch + lane);
            }
        }
    }

    /// `out = bias ⊕ W ⊛ x` from the input's bordered copy `xb`, into the
    /// batch-lane output `out` (`[oc][q][n]`): per output pixel `q`,
    /// `out[oc][q][n] = bias[oc] ⊕ Σ_tap W[oc][tap] · xb[tap_at[tap] +
    /// pixel_at[q] + n]` with taps ascending — the direct kernel's order,
    /// padding taps reading the `+0.0` border.  (`bench_report`'s
    /// `pair_update_products` mirrors this split into products — one per
    /// output row at stride 1, one per pixel otherwise; change both
    /// together.)
    fn forward(&self, weight: &[f32], bias: &[f32], xb: &[f32], offsets: &mut Vec<usize>, out: &mut [f32]) {
        let (n, plane, taps) = (self.batch, self.out_plane(), self.taps());
        offsets.clear();
        self.push_tap_offsets(offsets);
        self.push_pixel_offsets(0, offsets);
        let (tap_at, pixel_at) = offsets.split_at(taps);
        let body = KnBody::detected();
        // At stride 1 a whole output row's windows are adjacent in `xb`,
        // so one product covers the row: its lanes run over `(ox, n)`.
        let run = if self.shape.stride == 1 { self.shape.out_w } else { 1 };
        for (q, &corner) in pixel_at.iter().enumerate().step_by(run) {
            let ops = KnOperands {
                a: weight,
                a_rows: Stride(taps),
                a_cols: Stride(1),
                b: &xb[corner..],
                b_rows: tap_at,
                ldc: plane * n,
            };
            let bias = BiasMode::RowInit(bias);
            gemm_kn_at(self.out_c, run * n, taps, &ops, bias, &mut out[q * n..], body);
        }
    }

    /// `dW += Σ_(n, q) x·go` and `db += Σ_(n, q) go` in the direct
    /// kernel's `(n, oy, ox)` order, from the batch-lane output gradient
    /// `go` (`[oc][q][n]`): `dWᵀ[tap][oc] += Σ_(n,q) xb[tap_at[tap] +
    /// pixel_at[q] + n] · goᵀ[(n, q)][oc]`, lanes across `oc`, `A` read
    /// from `xb` through its row (tap) and column (sample, pixel) tables.
    fn weight_gradient(
        &self,
        xb: &[f32],
        go: &[f32],
        pass: &mut PassScratch,
        grad_weight: &mut [f32],
        grad_bias: &mut [f32],
    ) {
        let (n, plane, taps, oc) = (self.batch, self.out_plane(), self.taps(), self.out_c);
        let PassScratch {
            offsets,
            c,
            go: go_t,
            ..
        } = pass;
        offsets.clear();
        self.push_tap_offsets(offsets);
        for lane in 0..n {
            self.push_pixel_offsets(lane, offsets);
        }
        let (tap_at, col_at) = offsets.split_at(taps);
        // goᵀ[(n, q)][oc]: source column `q·n + lane` lands on row
        // `lane·plane + q`.
        go_t.resize(go.len(), 0.0);
        let row_at = (0..plane * n).map(|j| (j % n * plane + j / n) * oc);
        transpose_rows(go, plane * n, oc, plane * n, go_t, row_at);
        for go_row in go_t.chunks_exact(oc) {
            for (gb, &g) in grad_bias.iter_mut().zip(go_row) {
                *gb += g;
            }
        }
        // The accumulator is dWᵀ, so `BiasMode::Accumulate` continues each
        // weight's sum from its current gradient.
        c.resize(taps * oc, 0.0);
        transpose(grad_weight, oc, taps, c);
        let ops = KnOperands {
            a: xb,
            a_rows: tap_at,
            a_cols: col_at,
            b: go_t,
            b_rows: Stride(oc),
            ldc: oc,
        };
        gemm_kn_at(taps, oc, n * plane, &ops, BiasMode::Accumulate, c, KnBody::detected());
        transpose(c, taps, oc, grad_weight);
    }

    /// The extent `(rows, cols)` of the output gradient's bordered copy
    /// and the width of its top and left zero border.  The border holds
    /// every flipped tap that falls before the output (`oy < 0`), the
    /// extent every one past it, so out-of-range taps read `+0.0`.
    fn go_extent(&self) -> ((usize, usize), usize) {
        let Im2colShape { height: h, width: w, kernel: k, stride: s, padding: p, out_h, out_w, .. } =
            self.shape;
        let border = (k - 1) / s;
        let rows = border + out_h.max((h - 1 + p) / s + 1);
        let cols = border + out_w.max((w - 1 + p) / s + 1);
        ((rows, cols), border)
    }

    /// Copies the batch-lane output gradient into its bordered copy.
    fn fill_output_gradient(&self, go: &[f32], gb: &mut Vec<f32>) {
        let (extent, border) = self.go_extent();
        let out = (self.shape.out_h, self.shape.out_w);
        fill_bordered(go, self.batch, self.out_c, out, extent, border, gb);
    }

    /// Rebuilds the stride phases with their offset tables when the
    /// geometry changed.
    fn prepare_phases(&self, scratch: &mut TrainScratch) {
        let Im2colShape { height: h, width: w, kernel: k, stride: s, padding: p, .. } = self.shape;
        let n = self.batch;
        let key = (n, h, w);
        if scratch.phase_key == key && !scratch.phases.is_empty() {
            return;
        }
        let ((gh, gw), border) = self.go_extent();
        let phases = &mut scratch.phases;
        phases.clear();
        for phase_y in 0..s {
            for phase_x in 0..s {
                // On this phase `iy + p − kh` is a multiple of the stride
                // whenever `kh` is a reaching tap, so the output pixel a
                // tap reaches is `((iy + p)/s − kh/s, (ix + p)/s − kw/s)`:
                // a per-pixel base plus a per-tap offset.
                let taps: Vec<(usize, usize)> = (0..k)
                    .rev()
                    .filter(|kh| kh % s == phase_y)
                    .flat_map(|kh| (0..k).rev().filter(move |kw| kw % s == phase_x).map(move |kw| (kh, kw)))
                    .collect();
                let mut rows = Vec::with_capacity(self.out_c * taps.len());
                for oc in 0..self.out_c {
                    for &(kh, kw) in &taps {
                        rows.push(((oc * gh + border - kh / s) * gw + border - kw / s) * n);
                    }
                }
                // The first pixel on the phase, and the grid's extent.
                let (iy0, ix0) = ((phase_y + s - p % s) % s, (phase_x + s - p % s) % s);
                let extent = (h.saturating_sub(iy0).div_ceil(s), w.saturating_sub(ix0).div_ceil(s));
                let mut runs: Vec<(usize, usize, usize)> = Vec::new();
                for r in 0..extent.0 {
                    for c in 0..extent.1 {
                        let (iy, ix) = (iy0 + r * s, ix0 + c * s);
                        let (pixel, base) = (r * extent.1 + c, ((iy + p) / s * gw + (ix + p) / s) * n);
                        // Adjacent pixels whose B rows are adjacent too (a
                        // phase row, or more) share one product.
                        match runs.last_mut() {
                            Some((first, first_base, len))
                                if *first + *len == pixel && *first_base + *len * n == base =>
                            {
                                *len += 1;
                            }
                            _ => runs.push((pixel, base, 1)),
                        }
                    }
                }
                // A phase without taps keeps its pixels: their `k = 0`
                // products write the `+0.0` the direct kernel leaves.
                if !runs.is_empty() {
                    phases.push(StridePhase { origin: (iy0, ix0), extent, runs, taps, rows });
                }
            }
        }
        scratch.phase_key = key;
    }

    /// `dX = Wf ⊛ go` from the output gradient's bordered copy `gb`
    /// (`pass.go`, see [`Lanes::fill_output_gradient`]) into the
    /// batch-lane `grad_input` (`[ic][iy][ix][n]`): per stride phase and
    /// run of its pixels, `dX[ic][n] = Σ_(oc, kh↓, kw↓) Wf[ic][k] ·
    /// gb[base + rows[k] + n]`.  At stride 1 the one phase is the whole
    /// plane and the products write `grad_input` in place; at larger
    /// strides each phase's block is computed in `pass.c`, then copied to
    /// its pixels sample run by sample run.  (`bench_report`'s
    /// `pair_update_products` mirrors this split into products — one per
    /// entry of `phase.runs`, a row of each phase for C3F2's 3×3 kernels;
    /// change both together.)
    fn input_gradient(&self, weight: &[f32], tables: &mut TrainScratch, pass: &mut PassScratch, grad_input: &mut [f32]) {
        self.prepare_phases(tables);
        let Im2colShape { channels: ic_n, height: h, width: w, kernel: k, stride: s, .. } = self.shape;
        let (n, oc_n) = (self.batch, self.out_c);
        let TrainScratch { phases, flipped, .. } = tables;
        let PassScratch { go: gb, c: block, .. } = pass;

        // The weights moved since the last backward: re-flip them.
        flipped.clear();
        for phase in phases.iter() {
            for ic in 0..ic_n {
                for oc in 0..oc_n {
                    let filter = &weight[(oc * ic_n + ic) * k * k..(oc * ic_n + ic + 1) * k * k];
                    flipped.extend(phase.taps.iter().map(|&(kh, kw)| filter[kh * k + kw]));
                }
            }
        }
        let body = KnBody::detected();
        let mut flipped_at = 0;
        for phase in phases.iter() {
            let kc = oc_n * phase.taps.len();
            let wf = &flipped[flipped_at..flipped_at + ic_n * kc];
            flipped_at += ic_n * kc;
            let (rows, cols) = phase.extent;
            let plane = rows * cols * n;
            let dst: &mut [f32] = if s == 1 {
                &mut *grad_input
            } else {
                block.resize(ic_n * plane, 0.0);
                block
            };
            for &(pixel, base, len) in &phase.runs {
                let ops = KnOperands {
                    a: wf,
                    a_rows: Stride(kc),
                    a_cols: Stride(1),
                    b: &gb[base..],
                    b_rows: &phase.rows[..],
                    ldc: plane,
                };
                gemm_kn_at(ic_n, len * n, kc, &ops, BiasMode::None, &mut dst[pixel * n..], body);
            }
            if s > 1 {
                let (iy0, ix0) = phase.origin;
                for (ic, block_plane) in block.chunks_exact(plane).enumerate() {
                    for (r, block_row) in block_plane.chunks_exact(cols * n).enumerate() {
                        let row_at = (ic * h + iy0 + r * s) * w + ix0;
                        for (c, samples) in block_row.chunks_exact(n).enumerate() {
                            let at = (row_at + c * s) * n;
                            grad_input[at..at + n].copy_from_slice(samples);
                        }
                    }
                }
            }
        }
    }
}

/// Copies the batch-lane `src` (`[ch][y][x][n]`, `h×w` per channel) into
/// `dst[ch][border + y][border + x][n]` of a `rows×cols` plane per
/// channel, one contiguous run per input row, `+0.0` everywhere outside
/// the copied window.  Every element of `dst` is written once, so a
/// reused buffer needs no clearing.
fn fill_bordered(
    src: &[f32],
    batch: usize,
    channels: usize,
    (h, w): (usize, usize),
    (rows, cols): (usize, usize),
    border: usize,
    dst: &mut Vec<f32>,
) {
    let (line, run) = (cols * batch, w * batch);
    dst.resize(channels * rows * line, 0.0);
    if dst.is_empty() || run == 0 {
        dst.fill(0.0);
        return;
    }
    for (dst_plane, src_plane) in dst.chunks_exact_mut(rows * line).zip(src.chunks_exact(h * run)) {
        let (top, rest) = dst_plane.split_at_mut(border * line);
        top.fill(0.0);
        let (window, bottom) = rest.split_at_mut(h * line);
        bottom.fill(0.0);
        for (row, src_row) in window.chunks_exact_mut(line).zip(src_plane.chunks_exact(run)) {
            let (left, rest) = row.split_at_mut(border * batch);
            left.fill(0.0);
            rest[..run].copy_from_slice(src_row);
            rest[run..].fill(0.0);
        }
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

    /// This layer's geometry over a batch-lane `[channels, height, width,
    /// batch]` input.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 or its channels do not match.
    fn lanes(&self, dims: &[usize]) -> Lanes {
        assert_eq!(dims.len(), 4, "Conv2d expects [c, h, w, batch] batch-lane input");
        assert_eq!(dims[0], self.in_channels, "Conv2d input channel mismatch");
        Lanes {
            batch: dims[3],
            out_c: self.out_channels,
            shape: self.im2col_shape(dims[1], dims[2]),
        }
    }

    /// [`Conv2d::lanes`] over a batch-outer `[batch, channels, height,
    /// width]` input.
    fn batch_outer_lanes(&self, shape: &[usize]) -> Lanes {
        assert_eq!(shape.len(), 4, "Conv2d expects [batch, c, h, w] input");
        self.lanes(&[shape[1], shape[2], shape[3], shape[0]])
    }

    /// Caches a batch-lane input's bordered copy for backward.
    fn cache_input(&mut self, input: &Tensor) -> Lanes {
        let lanes = self.lanes(input.shape());
        let cached = self.cached_input.get_or_insert_with(LaneInput::default);
        lanes.fill_input(input.data(), &mut cached.xb);
        cached.dims = lanes.in_dims();
        lanes
    }

    /// The body of [`Layer::backward_lanes`]: accumulates dW and the bias
    /// gradient from the batch-lane `grad_output`, and returns dX in the
    /// batch-lane layout — in `grad_output`'s buffer — when asked for.
    fn accumulate_gradients(&mut self, grad_output: Tensor, input_gradient: bool) -> Option<Tensor> {
        let cached = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Conv2d");
        let lanes = self.lanes(&cached.dims);
        assert_eq!(
            grad_output.shape(),
            &lanes.out_dims(),
            "Conv2d gradient shape mismatch"
        );
        PASS_SCRATCH.with_borrow_mut(|pass| {
            let (grad_weight, grad_bias) = (self.grad_weight.data_mut(), self.grad_bias.data_mut());
            lanes.weight_gradient(&cached.xb, grad_output.data(), pass, grad_weight, grad_bias);
            if !input_gradient {
                return None;
            }
            lanes.fill_output_gradient(grad_output.data(), &mut pass.go);
            let mut grad_input = grad_output;
            grad_input.reset(&cached.dims);
            lanes.input_gradient(self.weight.data(), &mut self.scratch, pass, grad_input.data_mut());
            Some(grad_input)
        })
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let lanes = self.batch_outer_lanes(input.shape());
        if lanes.batch >= BATCH_LANES_MIN {
            return from_batch_lanes(&self.forward_lanes(to_batch_lanes(input)));
        }
        // Same bits, faster at small batches; backward still reads the
        // bordered batch-lane copy.
        let mut out = Tensor::default();
        PASS_SCRATCH.with_borrow_mut(|pass| self.infer_with(input, &mut out, &mut pass.gemm));
        self.cache_input(&to_batch_lanes(input));
        out
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor) {
        self.infer_with(input, out, &mut GemmScratch::new());
    }

    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch) {
        let lanes = self.batch_outer_lanes(input.shape());
        let [out_c, out_h, out_w, batch] = lanes.out_dims();
        out.reset(&[batch, out_c, out_h, out_w]);
        let w_data = self.weight.data();
        let bias = self.bias.data();

        // Per sample, im2col + GEMM: out[n][oc][p] = bias[oc] +
        // w_row(oc)·col_row(p).  Patch columns follow the (ic, kh, kw) tap
        // order.  The GEMM accumulates them ascending (lanes across the
        // output pixels of the transposed patch matrix), so every output
        // element replays the direct convolution's floating-point
        // sequence exactly (padding cells contribute ±0.0 products, which
        // never change an accumulator that is not −0.0 — see the gemm
        // module docs).
        let shape = lanes.shape;
        let (rows, taps) = (shape.rows(), shape.cols());
        let in_plane = shape.channels * shape.height * shape.width;
        let in_data = input.data();
        let out_data = out.data_mut();
        for n in 0..batch {
            let plane = &in_data[n * in_plane..(n + 1) * in_plane];
            let out_block =
                &mut out_data[n * self.out_channels * rows..(n + 1) * self.out_channels * rows];
            let col_t = gemm.im2col_transposed(plane, &shape);
            let weights = StridedA::row_major(w_data, taps);
            let bias = BiasMode::RowInit(bias);
            gemm_kn(self.out_channels, rows, taps, weights, col_t, bias, out_block);
        }
    }

    /// Reference GEMMs over the whole batch, in the direct convolution's
    /// order (this converts at the layer's edges around
    /// [`Layer::backward_lanes`], which runs them).
    ///
    /// The direct kernel loops `(n, oc, oy, ox)`, skips `go == 0`, and
    /// for every in-bounds tap adds `go·x` to `dW[oc][tap]` and `go·w` to
    /// `dX[ic][iy][ix]`.  Here:
    ///
    /// * **dW** — `dWᵀ[tap][oc] += Σ_(n,q) x·go` over `k = (n, q)`
    ///   ascending, one [`BiasMode::Accumulate`] GEMM per batch with lanes
    ///   across `oc`; the `x` operand is read in place from forward's
    ///   bordered batch-lane copy of the input, which replays each
    ///   weight's `(n, oy, ox)` term sequence.
    /// * **dX** — per run of input pixels, `dX[ic][n] = Σₖ
    ///   Wf[ic][k]·go[…][n]` with lanes across the batch and `k = (oc, kh,
    ///   kw)` over `kh`, `kw` *descending*; `Wf` is the flipped weight and
    ///   the `go` rows come from a zero-bordered batch-lane copy of the
    ///   output gradient through a per-shape offset table (the border
    ///   where a tap falls past the output).  For a fixed input pixel,
    ///   ascending `(oy, ox)` is descending `(kh, kw)`, so ascending `k` is
    ///   exactly the direct kernel's `(oc, oy, ox)` order: no term is
    ///   reassociated.  Pixels are grouped by stride phase, over only the
    ///   taps that can reach an output from that phase (the rest only ever
    ///   meet stride gaps).
    /// * **bias** — a per-channel sum in the same `(n, p)` order.
    ///
    /// The extra terms (the `go == 0` entries, padding taps, border
    /// reads) are all exact `±0.0` products for finite inputs.  Every
    /// gradient accumulator starts at `+0.0` (`zero_grad`, a fresh `dX`)
    /// and only ever has values added to it; under round-to-nearest such a
    /// sum can never become `−0.0`, and adding `±0.0` to anything that is
    /// not `−0.0` leaves its bits unchanged — so including those terms
    /// cannot change a bit.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        from_batch_lanes(&self.backward_lanes(to_batch_lanes(grad_output)))
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_params_lanes(to_batch_lanes(grad_output));
    }

    /// The output is computed in `input`'s buffer, after its bordered
    /// copy is cached.
    fn forward_lanes(&mut self, input: Tensor) -> Tensor {
        let lanes = self.cache_input(&input);
        let mut out = input;
        out.reset(&lanes.out_dims());
        let xb = &self.cached_input.as_ref().expect("input cached above").xb;
        let (weight, bias) = (self.weight.data(), self.bias.data());
        PASS_SCRATCH
            .with_borrow_mut(|pass| lanes.forward(weight, bias, xb, &mut pass.offsets, out.data_mut()));
        out
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        let lanes = self.lanes(input.shape());
        out.reset(&lanes.out_dims());
        PASS_SCRATCH.with_borrow_mut(|pass| {
            let PassScratch { xb, offsets, .. } = pass;
            lanes.fill_input(input.data(), xb);
            lanes.forward(self.weight.data(), self.bias.data(), xb, offsets, out.data_mut());
        });
    }

    fn backward_lanes(&mut self, grad_output: Tensor) -> Tensor {
        self.accumulate_gradients(grad_output, true)
            .expect("the input gradient was asked for")
    }

    fn backward_params_lanes(&mut self, grad_output: Tensor) {
        self.accumulate_gradients(grad_output, false);
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
        // larger than the input and smaller than the stride.  `infer_lanes`
        // and training run with lanes across the batch, 17 and 24 with
        // masked lanes.  A 1×1 kernel at stride 1 without padding makes
        // one dX product span several input rows.
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
            (2, 8, 3, 1, 1, 9, 9, 16),
            (8, 16, 3, 2, 1, 9, 9, 17),
            (16, 5, 3, 1, 1, 5, 5, 24),
            (3, 4, 5, 3, 2, 11, 7, 17),
            (2, 3, 2, 3, 1, 8, 6, 24),
            (1, 9, 1, 2, 2, 5, 4, 32),
            (3, 4, 1, 1, 0, 4, 5, 17),
            (3, 4, 1, 1, 0, 4, 5, 2),
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
                // The first (up to) 8 samples alone take the per-sample path.
                let few = batch.min(8);
                let head = Tensor::from_vec(
                    vec![few, ic, h, w],
                    x.data()[..few * ic * h * w].to_vec(),
                )
                .unwrap();
                conv.infer_with(&head, &mut gemmed, &mut gemm);
                let expected_head = &expected.data()[..gemmed.len()];
                assert_bits_eq(gemmed.data(), expected_head, &format!("infer_with b{few} at {at}"));
                let mut lane_out = Tensor::default();
                conv.infer_lanes(&to_batch_lanes(x), &mut lane_out);
                let lane_out = from_batch_lanes(&lane_out);
                assert_bits_eq(lane_out.data(), expected.data(), &format!("infer_lanes at {at}"));
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
