//! 2-D convolution layer on the Reference lanes kernel.
//!
//! The layer's one training implementation runs in the batch-lane layout
//! (see the [`super`] module docs), with SIMD lanes across the **batch**.
//! Its input `[ic][iy][ix][n]` is copied once into a zero-bordered buffer
//! split into the stride's phases, `xb[ic][ry][rx][y′][x′][n]` holding
//! bordered pixel `(y′·s + ry, x′·s + rx)` (at stride 1, simply
//! `xb[ic][iy + p][ix + p][n]`).  There a kernel tap's inputs for a whole
//! output row are one contiguous run over `(ox, n)`, at every stride, so
//! the forward, dW and dX products read their operands in place through
//! offset tables — no im2col, no re-unrolling, no gather copy — and the
//! forward's product `C[oc][oy][ox][n]` is the output itself.  The
//! offset tables, and the zero borders of the bordered copies, are built
//! once per geometry and thread (a [`Plan`]); a pass writes only the
//! copies' interiors.  The batch-outer `forward`/`backward` convert at
//! the layer's edges around those routines.  The batch-outer
//! `infer`/`infer_with` (single-sample action selection — a `Sequential`
//! pass of [`BATCH_LANES_MIN`] samples or more runs `infer_lanes`
//! instead) unroll each sample's patches and run lanes across output
//! pixels.

use super::{from_batch_lanes, to_batch_lanes, Layer, BATCH_LANES_MIN};
use crate::gemm::{
    gemm_kn, gemm_kn_at, transpose, transpose_rows, BiasMode, GemmScratch, Im2colShape, KnBody,
    KnOperands, Stride, StridedA, Table,
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
}

/// An input batch in the bordered batch-lane layout, split into stride
/// phases (see [`Lanes::fill_input`]), with `+0.0` in the `p`-wide
/// border.  The border is written when the input's dims change and kept
/// after that: a forward over the same dims writes only the interior.
#[derive(Debug, Clone, Default)]
struct LaneInput {
    xb: Vec<f32>,
    /// The input's batch-lane `[channels, height, width, batch]`.
    dims: [usize; 4],
}

/// This thread's [`Plan`]s and the buffers one batch-lane pass uses and
/// drops, sized for the whole batch.  Only one pass runs at a time on a
/// thread, so every convolution on the thread shares one set
/// ([`PASS_SCRATCH`]) — a set per layer would multiply this memory by the
/// layers of every training, target and perturbed network.  The pass
/// buffers' contents are unspecified between passes.
#[derive(Debug, Default)]
struct PassScratch {
    /// The plans of the last [`PLANS_MAX`] geometries the thread ran,
    /// oldest first.
    plans: Vec<Plan>,
    /// Backward: the weight gradient transposed, `[tap][oc]`, then at
    /// stride > 1 the input gradient phase by phase (see
    /// [`Lanes::input_gradient`]).
    c: Vec<f32>,
    /// Backward: the output gradient transposed to `[n][pixel][oc]`.
    go_t: Vec<f32>,
    /// Backward: per stride phase (concatenated), the flipped weight
    /// restricted to the phase's taps, `Wf[ic][(oc, tap)]`.
    flipped: Vec<f32>,
    /// Training forward below [`BATCH_LANES_MIN`]: the per-sample path's
    /// patch buffers.
    gemm: GemmScratch,
}

thread_local! {
    /// This thread's [`PassScratch`].
    static PASS_SCRATCH: RefCell<PassScratch> = RefCell::new(PassScratch::default());
}

/// The most [`Plan`]s a thread keeps.  The policy networks have three
/// (C3F2) and five (C5F4) convolutions; past this many geometries the
/// oldest plan is dropped, which bounds a thread's plan memory whatever
/// shapes it runs.
const PLANS_MAX: usize = 8;

/// What every batch-lane pass over one geometry — one layer shape over
/// one input shape and batch — reads besides its operands, built once
/// and reused by each pass over it on the thread: the offset tables,
/// each with its maximum, and the bordered copies, whose `+0.0` border is
/// written when the plan is built for a batch and kept after that, so a
/// pass writes only their interiors.  A new batch rebuilds the plan in
/// place (tables rebuilt, buffers zeroed again), so a thread holds one
/// plan per geometry, not one per batch.
#[derive(Debug)]
struct Plan {
    lanes: Lanes,
    /// Per tap `(ic, kh, kw)`, ascending, its offset in the input's
    /// bordered copy from an output pixel's cell: the row table of the
    /// forward's and dW's products.
    taps: Table,
    /// Inference: the input's bordered copy; empty until the first
    /// inference at this batch.
    xb: Vec<f32>,
    /// Backward's tables and buffer, built by the first backward at this
    /// batch (an inference-only geometry never builds them).
    backward: Option<BackwardPlan>,
}

/// The part of a [`Plan`] only backward reads.
#[derive(Debug)]
struct BackwardPlan {
    /// dW's column table: per `(n, q)`, ascending, the offset of output
    /// pixel `q`'s cell plus lane `n` in the input's bordered copy.
    pixels: Table,
    /// dX: the input pixels grouped by stride phase.
    phases: Vec<StridePhase>,
    /// dX: the output gradient's bordered copy (see
    /// [`Lanes::go_extent`]); empty until the first input gradient.
    gb: Vec<f32>,
}

impl Plan {
    /// The plan for `lanes` among a thread's `plans`: the one of the same
    /// geometry, rebuilt first if it was built for another batch, or a
    /// new one (dropping the oldest at [`PLANS_MAX`]).
    fn find(plans: &mut Vec<Plan>, lanes: Lanes) -> &mut Plan {
        let at = match plans.iter().position(|plan| plan.lanes.same_geometry(&lanes)) {
            Some(at) => at,
            None => {
                if plans.len() == PLANS_MAX {
                    plans.remove(0);
                }
                plans.push(Plan { lanes, taps: lanes.tap_offsets(), xb: Vec::new(), backward: None });
                plans.len() - 1
            }
        };
        let plan = &mut plans[at];
        if plan.lanes.batch != lanes.batch {
            // Every table offset and buffer cell moves with the batch.
            plan.lanes = lanes;
            plan.taps = lanes.tap_offsets();
            plan.xb.clear();
            plan.backward = None;
        }
        plan
    }

    /// The tap table and the backward part, built on first use.
    fn backward(&mut self) -> (&Table, &mut BackwardPlan) {
        let lanes = self.lanes;
        let back = self.backward.get_or_insert_with(|| BackwardPlan {
            pixels: lanes.pixel_offsets(),
            phases: lanes.stride_phases(),
            gb: Vec::new(),
        });
        (&self.taps, back)
    }
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
    rows: Table,
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

    /// Whether `other` is this geometry, at any batch.
    fn same_geometry(&self, other: &Lanes) -> bool {
        self.out_c == other.out_c && self.shape == other.shape
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

    /// The bordered extent of the input plane, `(h + 2p, w + 2p)`.
    fn padded(&self) -> (usize, usize) {
        let Im2colShape { height, width, padding, .. } = self.shape;
        (height + 2 * padding, width + 2 * padding)
    }

    /// The `(rows, cols)` of every stride phase's grid in the input's
    /// bordered copy (see [`fill_interior`]).
    fn phase_extent(&self) -> (usize, usize) {
        let ((hp, wp), s) = (self.padded(), self.shape.stride);
        (hp.div_ceil(s), wp.div_ceil(s))
    }

    /// Writes a batch-lane input into its bordered copy `xb`, split into
    /// stride phases: `xb[ic][ry][rx][y′][x′][n]` holds bordered pixel
    /// `(y′·s + ry, x′·s + rx)`.  Only the cells holding input pixels are
    /// written; `xb` must be empty or hold an earlier fill of this
    /// geometry (see [`fill_interior`]).
    fn fill_input(&self, input: &[f32], xb: &mut Vec<f32>) {
        let Im2colShape { channels, height, width, padding, stride, .. } = self.shape;
        let extent = self.padded();
        fill_interior(input, self.batch, channels, (height, width), extent, padding, stride, xb);
    }

    /// The offset in `xb` of every tap `(ic, kh, kw)`, ascending, from an
    /// output pixel's cell: the tap reads phase `(kh % s, kw % s)` at
    /// `kh / s` rows and `kw / s` columns past it.
    fn tap_offsets(&self) -> Table {
        let (rows, cols) = self.phase_extent();
        let Im2colShape { channels, kernel: k, stride: s, .. } = self.shape;
        let n = self.batch;
        (0..channels * k * k)
            .map(|tap| {
                let (ic, kh, kw) = (tap / (k * k), tap / k % k, tap % k);
                let phase = (ic * s + kh % s) * s + kw % s;
                ((phase * rows + kh / s) * cols + kw / s) * n
            })
            .collect()
    }

    /// The offset in `xb` of every output pixel's cell `(oy, ox)` plus
    /// `lane`, over `(lane, oy, ox)` ascending.
    fn pixel_offsets(&self) -> Table {
        let cols = self.phase_extent().1;
        let Im2colShape { out_h, out_w, .. } = self.shape;
        let n = self.batch;
        (0..n * out_h * out_w)
            .map(|j| {
                let (lane, q) = (j / (out_h * out_w), j % (out_h * out_w));
                (q / out_w * cols + q % out_w) * n + lane
            })
            .collect()
    }

    /// `out = bias ⊕ W ⊛ x` from the input's bordered copy `xb`, into the
    /// batch-lane output `out` (`[oc][q][n]`): per output pixel `q`,
    /// `out[oc][q][n] = bias[oc] ⊕ Σ_tap W[oc][tap] · xb[taps[tap] +
    /// cell(q) + n]` with taps ascending — the direct kernel's order,
    /// padding taps reading the `+0.0` border.  A tap's cells for one
    /// output row are adjacent in its phase at every stride, so one
    /// product covers the row, its lanes running over `(ox, n)`.
    /// (`bench_report`'s `pair_update_products` mirrors this split into
    /// products — one per output row; change both together.)
    fn forward(&self, weight: &[f32], bias: &[f32], xb: &[f32], taps: &Table, out: &mut [f32]) {
        let (n, plane, k) = (self.batch, self.out_plane(), self.taps());
        let body = KnBody::detected();
        let (row, run) = (self.phase_extent().1 * n, self.shape.out_w * n);
        for oy in 0..self.shape.out_h {
            let ops = KnOperands {
                a: weight,
                a_rows: Stride(k),
                a_cols: Stride(1),
                b: &xb[oy * row..],
                b_rows: taps,
                ldc: plane * n,
            };
            let bias = BiasMode::RowInit(bias);
            gemm_kn_at(self.out_c, run, k, &ops, bias, &mut out[oy * run..], body);
        }
    }

    /// The batch-lane output gradient `go` (`[oc][q][n]`) transposed to
    /// `go_t` (`[(n, q)][oc]`): source column `q·n + lane` lands on row
    /// `lane·plane + q`.
    fn transpose_output_gradient(&self, go: &[f32], go_t: &mut Vec<f32>) {
        let (n, plane, oc) = (self.batch, self.out_plane(), self.out_c);
        go_t.resize(go.len(), 0.0);
        let row_at = (0..plane * n).map(|j| (j % n * plane + j / n) * oc);
        transpose_rows(go, plane * n, oc, plane * n, go_t, row_at);
    }

    /// `dW += Σ_(n, q) x·go` in the direct kernel's `(n, oy, ox)` order,
    /// from the transposed output gradient `go_t` (`[(n, q)][oc]`, see
    /// [`Lanes::transpose_output_gradient`]): `dWᵀ[tap][oc] += Σ_(n,q)
    /// xb[taps[tap] + pixels[(n, q)]] · go_t[(n, q)][oc]`, lanes across
    /// `oc`, `A` read from `xb` through its row (tap) and column (sample,
    /// pixel) tables; `c` holds `dWᵀ`.
    fn weight_gradient(
        &self,
        xb: &[f32],
        go_t: &[f32],
        taps: &Table,
        pixels: &Table,
        c: &mut Vec<f32>,
        grad_weight: &mut [f32],
    ) {
        let (n, plane, k, oc) = (self.batch, self.out_plane(), self.taps(), self.out_c);
        // The accumulator is dWᵀ, so `BiasMode::Accumulate` continues each
        // weight's sum from its current gradient.
        c.resize(k * oc, 0.0);
        transpose(grad_weight, oc, k, c);
        let ops = KnOperands {
            a: xb,
            a_rows: taps,
            a_cols: pixels,
            b: go_t,
            b_rows: Stride(oc),
            ldc: oc,
        };
        gemm_kn_at(k, oc, n * plane, &ops, BiasMode::Accumulate, c, KnBody::detected());
        transpose(c, k, oc, grad_weight);
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

    /// Writes the batch-lane output gradient into its bordered copy `gb`,
    /// which must be empty or hold an earlier fill of this geometry (see
    /// [`fill_interior`]).
    fn fill_output_gradient(&self, go: &[f32], gb: &mut Vec<f32>) {
        let (extent, border) = self.go_extent();
        let out = (self.shape.out_h, self.shape.out_w);
        fill_interior(go, self.batch, self.out_c, out, extent, border, 1, gb);
    }

    /// The input pixels grouped by stride phase, with their offset tables
    /// into the output gradient's bordered copy.
    fn stride_phases(&self) -> Vec<StridePhase> {
        let Im2colShape { height: h, width: w, kernel: k, stride: s, padding: p, .. } = self.shape;
        let n = self.batch;
        let ((gh, gw), border) = self.go_extent();
        let mut phases = Vec::new();
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
                let rows = (0..self.out_c)
                    .flat_map(|oc| {
                        taps.iter().map(move |&(kh, kw)| ((oc * gh + border - kh / s) * gw + border - kw / s) * n)
                    })
                    .collect();
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
        phases
    }

    /// `dX = Wf ⊛ go` from the output gradient's bordered copy
    /// (`back.gb`, see [`Lanes::fill_output_gradient`]) into the
    /// batch-lane `grad_input` (`[ic][iy][ix][n]`): per stride phase and
    /// run of its pixels, `dX[ic][n] = Σ_(oc, kh↓, kw↓) Wf[ic][k] ·
    /// gb[base + rows[k] + n]`.  At stride 1 the one phase is the whole
    /// plane and the products write `grad_input` in place; at larger
    /// strides each phase's block is computed in `block`, then copied to
    /// its pixels sample run by sample run.  (`bench_report`'s
    /// `pair_update_products` mirrors this split into products — one per
    /// entry of `phase.runs`, a row of each phase for C3F2's 3×3 kernels;
    /// change both together.)
    fn input_gradient(
        &self,
        weight: &[f32],
        back: &BackwardPlan,
        flipped: &mut Vec<f32>,
        block: &mut Vec<f32>,
        grad_input: &mut [f32],
    ) {
        let Im2colShape { channels: ic_n, height: h, width: w, kernel: k, stride: s, .. } = self.shape;
        let (n, oc_n) = (self.batch, self.out_c);
        let BackwardPlan { phases, gb, .. } = back;

        // The weights moved since the last backward: re-flip them.
        flipped.clear();
        for phase in phases {
            for ic in 0..ic_n {
                for oc in 0..oc_n {
                    let filter = &weight[(oc * ic_n + ic) * k * k..(oc * ic_n + ic + 1) * k * k];
                    flipped.extend(phase.taps.iter().map(|&(kh, kw)| filter[kh * k + kw]));
                }
            }
        }
        let body = KnBody::detected();
        let mut flipped_at = 0;
        for phase in phases {
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
                    b_rows: &phase.rows,
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

/// `grad_bias[oc] += Σ_(n, q) go_t[(n, q)][oc]`, each channel's terms in
/// the direct kernel's `(n, q)` order, summed in a local copy written
/// back once.
fn accumulate_bias_gradient(go_t: &[f32], grad_bias: &mut [f32]) {
    const TILE: usize = 16;
    let oc = grad_bias.len();
    for (j0, sums_out) in (0..oc).step_by(TILE).zip(grad_bias.chunks_mut(TILE)) {
        let mut sums = [0.0f32; TILE];
        let sums = &mut sums[..sums_out.len()];
        sums.copy_from_slice(sums_out);
        for go_row in go_t.chunks_exact(oc) {
            for (sum, &g) in sums.iter_mut().zip(&go_row[j0..]) {
                *sum += g;
            }
        }
        sums_out.copy_from_slice(sums);
    }
}

/// Writes the batch-lane `src` (`[ch][y][x][n]`, `h×w` per channel) into
/// the interior of a bordered plane of `rows×cols` cells per channel —
/// `src` at `(border + y, border + x)`, `+0.0` in every other cell —
/// stored split into its `stride` phases: cell `(y′·s + ry, x′·s + rx)`
/// lies at `dst[ch][ry][rx][y′][x′][n]`, every phase a full
/// `⌈rows/s⌉×⌈cols/s⌉` grid (cells past the plane hold `+0.0` too).
///
/// Only the cells holding `src` are written: `dst` must be empty or hold
/// an earlier fill of this same geometry, whose other cells are `+0.0`
/// already.  An empty `dst` (or one of another size) is zeroed whole
/// first; its owner empties it when the geometry changes.
#[allow(clippy::too_many_arguments)]
fn fill_interior(
    src: &[f32],
    batch: usize,
    channels: usize,
    (h, w): (usize, usize),
    (rows, cols): (usize, usize),
    border: usize,
    stride: usize,
    dst: &mut Vec<f32>,
) {
    let s = stride;
    let (grid_rows, line) = (rows.div_ceil(s), cols.div_ceil(s) * batch);
    let len = channels * s * s * grid_rows * line;
    if dst.len() != len {
        dst.clear();
        dst.resize(len, 0.0);
    }
    if len == 0 || h * w * batch == 0 {
        return;
    }
    // Column phase by column phase, so the divisions run once per phase,
    // not once per row.
    for rx in 0..s {
        // The grid columns `x′` whose cells hold input pixels:
        // `border ≤ x′·s + rx < border + w`.
        let first = border.saturating_sub(rx).div_ceil(s);
        let end = (border + w).saturating_sub(rx).div_ceil(s).max(first);
        if first == end {
            continue;
        }
        // The input row from the pixel of grid column `first` on.
        let (cells, from) = ((end - first) * batch, (first * s + rx - border) * batch);
        let channel_planes = dst.chunks_exact_mut(s * s * grid_rows * line);
        for (dst_channel, src_plane) in channel_planes.zip(src.chunks_exact(h * w * batch)) {
            // Bordered row `border + y` is row `grid_y` of row phase `ry`.
            let (mut ry, mut grid_y) = (border % s, border / s);
            for src_row in src_plane.chunks_exact(w * batch) {
                let at = ((ry * s + rx) * grid_rows + grid_y) * line + first * batch;
                let window = &mut dst_channel[at..at + cells];
                if s == 1 {
                    window.copy_from_slice(&src_row[from..from + cells]);
                } else {
                    deal_cells(window, &src_row[from..], s, batch);
                }
                ry += 1;
                if ry == s {
                    (ry, grid_y) = (0, grid_y + 1);
                }
            }
        }
    }
}

/// Copies every `s`-th `batch`-sample cell of `src` into the adjacent
/// cells of `window`, each cell as fixed-width moves at the batches the
/// rollouts and training run (a library call per cell costs more than
/// the copy).
fn deal_cells(window: &mut [f32], src: &[f32], s: usize, batch: usize) {
    match batch {
        1 => deal_cells_of::<1>(window, src, s),
        2 => deal_cells_of::<2>(window, src, s),
        3 => deal_cells_of::<3>(window, src, s),
        4 => deal_cells_of::<4>(window, src, s),
        5 => deal_cells_of::<5>(window, src, s),
        6 => deal_cells_of::<6>(window, src, s),
        7 => deal_cells_of::<7>(window, src, s),
        8 => deal_cells_of::<8>(window, src, s),
        16 => deal_cells_of::<16>(window, src, s),
        32 => deal_cells_of::<32>(window, src, s),
        _ => {
            for (cell, samples) in window.chunks_exact_mut(batch).zip(src.chunks(batch).step_by(s)) {
                cell.copy_from_slice(samples);
            }
        }
    }
}

/// [`deal_cells`] at a compile-time batch `N`.
#[inline(always)]
fn deal_cells_of<const N: usize>(window: &mut [f32], src: &[f32], s: usize) {
    for (c, cell) in window.chunks_exact_mut(N).enumerate() {
        let (cell, at): (&mut [f32; N], usize) = (cell.try_into().expect("a whole cell"), c * s * N);
        *cell = src[at..at + N].try_into().expect("a whole input cell");
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

    /// Bench hook: writes a batch-lane `[channels, height, width, batch]`
    /// input into this thread's bordered copy for the layer's geometry —
    /// the data movement [`Layer::infer_lanes`] runs before its products
    /// — and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 or its channels do not match.
    pub fn fill_bordered_input(&self, input: &Tensor) {
        let lanes = self.lanes(input.shape());
        PASS_SCRATCH.with_borrow_mut(|pass| {
            lanes.fill_input(input.data(), &mut Plan::find(&mut pass.plans, lanes).xb);
        });
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
        if cached.dims != lanes.in_dims() {
            // Other dims put the border in other cells: zero it all again.
            cached.xb.clear();
            cached.dims = lanes.in_dims();
        }
        lanes.fill_input(input.data(), &mut cached.xb);
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
            let PassScratch { plans, c, go_t, flipped, .. } = pass;
            let (taps, back) = Plan::find(plans, lanes).backward();
            lanes.transpose_output_gradient(grad_output.data(), go_t);
            accumulate_bias_gradient(go_t, self.grad_bias.data_mut());
            lanes.weight_gradient(&cached.xb, go_t, taps, &back.pixels, c, self.grad_weight.data_mut());
            if !input_gradient {
                return None;
            }
            lanes.fill_output_gradient(grad_output.data(), &mut back.gb);
            let mut grad_input = grad_output;
            grad_input.reset(&cached.dims);
            lanes.input_gradient(self.weight.data(), back, flipped, c, grad_input.data_mut());
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
        PASS_SCRATCH.with_borrow_mut(|pass| {
            let plan = Plan::find(&mut pass.plans, lanes);
            lanes.forward(weight, bias, xb, &plan.taps, out.data_mut());
        });
        out
    }

    fn infer_lanes(&self, input: &Tensor, out: &mut Tensor) {
        let lanes = self.lanes(input.shape());
        out.reset(&lanes.out_dims());
        PASS_SCRATCH.with_borrow_mut(|pass| {
            let plan = Plan::find(&mut pass.plans, lanes);
            lanes.fill_input(input.data(), &mut plan.xb);
            lanes.forward(self.weight.data(), self.bias.data(), &plan.xb, &plan.taps, out.data_mut());
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
        let shapes = [
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
        ];
        // Stride 2 and 3 over even, odd and non-square planes at every
        // padding, on both sides of `BATCH_LANES_MIN`: the bordered copy's
        // stride phases then hold partial rows and columns and cells past
        // the plane.
        let strided = [2usize, 3].into_iter().flat_map(|s| {
            [(8usize, 8usize), (9, 9), (10, 7)].into_iter().flat_map(move |(h, w)| {
                (0..=2usize).flat_map(move |p| {
                    [1usize, 2, 3, 8, 17].map(|batch| (3usize, 4usize, 3usize, s, p, h, w, batch))
                })
            })
        });
        for (ic, oc, k, s, p, h, w, batch) in shapes.into_iter().chain(strided) {
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
    fn alternating_geometries_on_one_thread_match_the_direct_kernel_bitwise() {
        // Plans, their tables with their maxima and the bordered copies
        // with their persistent borders are reused across passes on a
        // thread.  Alternate batches (each change rebuilds a plan) and
        // input planes (new dims re-zero the cached copy), at every stride,
        // over layers of one geometry and of others — more geometries than
        // a thread keeps plans for — so a stale border, table or maximum
        // shows as a wrong bit.
        let mut r = rng();
        let mut layers = Vec::new();
        for s in [1usize, 2, 3] {
            // Two layers of one geometry (different weights), one of
            // another width only, and one of another kernel and padding.
            for (oc, k, p) in [(4usize, 3usize, 1usize), (4, 3, 1), (6, 3, 1), (5, 2, 0)] {
                let mut conv = Conv2d::new(3, oc, k, s, p, &mut r);
                conv.bias = Tensor::rand_uniform(&[oc], -0.5, 0.5, &mut r);
                layers.push(conv);
            }
        }
        // 8×7 and 7×8 make bordered copies of one length, with their
        // borders in different cells.
        let planes = [(9usize, 9usize), (8, 7), (7, 8)];
        for batch in [8usize, 5, 8, 3, 32] {
            for sweep in 0..planes.len() {
                let mut passes = Vec::new();
                // Forward through every layer, then backward in reverse, as
                // a network runs: other geometries' passes fall between a
                // layer's forward and its backward.
                for (i, conv) in layers.iter_mut().enumerate() {
                    // The layers of one stride share a plane in a sweep.
                    let (h, w) = planes[(i / 4 + sweep) % planes.len()];
                    let at = format!("layer {i}, batch {batch}, {h}×{w}");
                    let mut x = Tensor::rand_uniform(&[batch, 3, h, w], -1.0, 1.0, &mut r);
                    for v in x.data_mut().iter_mut().step_by(7) {
                        *v = -0.0;
                    }
                    let expected = direct_forward(conv, &x);
                    let mut inferred = Tensor::default();
                    conv.infer_lanes(&to_batch_lanes(&x), &mut inferred);
                    assert_bits_eq(from_batch_lanes(&inferred).data(), expected.data(), &format!("infer_lanes, {at}"));
                    let y = conv.forward_lanes(to_batch_lanes(&x));
                    assert_bits_eq(from_batch_lanes(&y).data(), expected.data(), &format!("forward_lanes, {at}"));
                    let go = Tensor::rand_uniform(expected.shape(), -1.0, 1.0, &mut r);
                    passes.push((x, go, at));
                }
                for (conv, (x, go, at)) in layers.iter_mut().zip(passes).rev() {
                    conv.zero_grad();
                    let mut oracle_gw = vec![0.0f32; conv.weight.len()];
                    let mut oracle_gb = vec![0.0f32; conv.out_channels];
                    let expected_gi = direct_backward(conv, &x, &go, &mut oracle_gw, &mut oracle_gb);
                    let gi = from_batch_lanes(&conv.backward_lanes(to_batch_lanes(&go)));
                    assert_bits_eq(gi.data(), expected_gi.data(), &format!("dX, {at}"));
                    assert_bits_eq(conv.grad_weight.data(), &oracle_gw, &format!("dW, {at}"));
                    assert_bits_eq(conv.grad_bias.data(), &oracle_gb, &format!("grad_bias, {at}"));
                }
            }
        }
    }

    #[test]
    fn dealt_cells_match_a_cell_by_cell_copy() {
        // Every fixed-width arm of `deal_cells` and its fallback.
        for batch in 1usize..=33 {
            for s in [2usize, 3] {
                let cells = 5;
                let src: Vec<f32> = (0..(cells * s) * batch).map(|i| i as f32 + 0.5).collect();
                let mut window = vec![f32::NAN; cells * batch];
                deal_cells(&mut window, &src, s, batch);
                for (c, cell) in window.chunks_exact(batch).enumerate() {
                    assert_bits_eq(cell, &src[c * s * batch..(c * s + 1) * batch], &format!("b{batch} s{s} cell {c}"));
                }
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
