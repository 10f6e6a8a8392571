//! The shared im2col/GEMM core of training and inference.
//!
//! Every matrix product of the dense and convolution layers — forward,
//! the weight and input gradients, and batched inference — funnels
//! through two Reference-tier kernels with one arithmetic contract:
//!
//! * [`gemm_nt`] — a register-tiled scalar `C = A · Bᵀ` over row-major
//!   operands whose rows share the contraction dimension (dense forward
//!   below batch 8);
//! * [`gemm_kn`] — `C = A · B` with `B` stored k-major (`[k][n]`) and a
//!   strided `A`, vectorized with SIMD lanes across *output columns*
//!   (the convolution's forward, dW and dX — whose batch-lane passes
//!   address its operands through offset tables — dense backward, and
//!   dense forward at batch ≥ 8).
//!
//! This is what makes the batched lockstep rollout engine pay a *single*
//! well-optimized forward pass per timestep for all concurrent episode
//! lanes, and what lets training run at SIMD speed with the scalar
//! kernels' bits.
//!
//! # Bitwise contract
//!
//! Both kernels are register-tiled over the *output* dimensions only:
//! every output element still accumulates its `k` terms in strictly
//! ascending order with separate multiply and add (no FMA contraction),
//! so each element's floating-point sequence — and therefore its bits —
//! is identical to the naive scalar reference regardless of the tile
//! shape, the vector width or the batch size.  Two consequences the
//! evaluation protocol relies on:
//!
//! * **batch invariance** — row `i` of a batched product is bitwise equal
//!   to the same row computed alone, which is what lets the lockstep
//!   rollout engine retire and refill episode lanes without perturbing the
//!   surviving lanes' Q-values;
//! * **reference equality** — the GEMM path is bitwise identical to the
//!   direct scalar kernels each layer's unit tests keep as their oracle
//!   (the six-loop convolution forward and backward; matmul then bias),
//!   pinned by the GEMM-vs-scalar layer tests.
//!
//! Zero-valued contraction terms (im2col padding cells, exact-zero
//! activations skipped by [`crate::tensor::Tensor::matmul`], exact-zero
//! output gradients skipped by the direct convolution backward)
//! contribute `±0.0` products; since accumulators start from `+0.0` (or a
//! real-valued bias, or a gradient that itself started at `+0.0`) and
//! IEEE-754 round-to-nearest addition never turns such a sum into `-0.0`,
//! including the terms is bitwise equivalent to skipping them.
//!
//! # One inference tier, and the Fast kernel
//!
//! The contract above — one strictly ascending accumulation chain per
//! output element — rules out the usual ways a kernel goes fast *along*
//! `k`: SIMD lanes or multiple accumulators over one element's terms
//! reassociate its sum, and FMA skips an intermediate rounding.  SIMD
//! lanes *across* output elements keep every chain intact — that is
//! [`gemm_kn`] — but they need many independent outputs and the k-major
//! operand layout.
//!
//! Training, inference and evaluation all run these bit-pinned kernels;
//! there is no tier to choose above this module.  The packed Fast kernel
//! ([`fast`]: cache-blocked microkernels on an **eight-lane mod-8
//! accumulation spec** with fused multiply-adds and a fixed reduction
//! tree, which every backend — AVX2+FMA, NEON and the scalar
//! `f32::mul_add` fallback — implements bit for bit) remains only as a
//! GEMM function: [`gemm_nt_with`] at [`Precision::Fast`] and
//! [`gemm_nt_fast_with_backend`], which the benchmark's
//! `nn.gemm.gflops.fast` probe and `bench_report` time.  No layer calls
//! it.
//!
//! The instruction set is picked once per process by
//! [`detected_fast_backend`]: the [`gemm_kn`] lanes kernel runs its
//! AVX-512 body where the CPU has `avx512f`, its AVX2 body elsewhere on
//! x86_64, and its portable body on every other target, aarch64 included
//! (see [`lanes_kernel_body`]); `BERRY_GEMM_FORCE_SCALAR=1` pins both
//! kernels to their portable fallbacks.

// lint: pinned-path — reductions here feed golden-pinned statistics; use berry_nn::reduce helpers

mod fast;
mod fast_scalar;
mod kn;
#[cfg(target_arch = "x86_64")]
mod simd_avx2;
#[cfg(target_arch = "aarch64")]
mod simd_neon;
mod transpose;

pub(crate) use kn::{gemm_kn_at, KnBody, KnOperands, Stride, Table};
pub(crate) use transpose::{transpose, transpose_rows};
pub use kn::{gemm_kn, gemm_kn_with_backend, lanes_kernel_body, StridedA};
use std::sync::OnceLock;

/// Rows of `A` (output rows) processed per register tile.
const MR: usize = 4;
/// Rows of `B` (output columns) processed per register tile.
const NR: usize = 4;

/// Where the bias enters the accumulation, mirroring the layer
/// conventions of the forward and backward passes.
#[derive(Debug, Clone, Copy)]
pub enum BiasMode<'a> {
    /// No bias: accumulators start from `+0.0`.
    None,
    /// One bias value per output **row** (`A` row), *initializing* the
    /// accumulator — the convolution convention (`acc = bias; acc += taps`).
    RowInit(&'a [f32]),
    /// One bias value per output **column** (`B` row), added *after* the
    /// accumulation — the dense convention (`y = x·Wᵀ + b`).
    ColAfter(&'a [f32]),
    /// No bias: each accumulator starts from the *current* `C[i][j]`, so
    /// the call computes `C += A · Bᵀ` — the gradient-accumulation
    /// convention of the convolution weight gradient.
    Accumulate,
}

impl BiasMode<'_> {
    /// The accumulator's starting value for output row `row`, given the
    /// element's current contents in `C`.
    #[inline]
    fn init(&self, row: usize, current: f32) -> f32 {
        match self {
            BiasMode::RowInit(bias) => bias[row],
            BiasMode::Accumulate => current,
            _ => 0.0,
        }
    }

    #[inline]
    fn finish(&self, col: usize, acc: f32) -> f32 {
        match self {
            BiasMode::ColAfter(bias) => acc + bias[col],
            _ => acc,
        }
    }
}

/// `C[i][j] = bias ⊕ Σₚ A[i][p] · B[j][p]` over row-major `A` (`m×k`),
/// row-major `B` (`n×k`) and row-major `C` (`m×n`).
///
/// Both operands are indexed by *rows sharing the contraction dimension*
/// (`NT` layout: `A · Bᵀ`), which is exactly how the layers store their
/// data — dense weights are `[out, in]`, im2col patches are
/// `[pixels, taps]` — so no packing or transposition is ever needed.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`n`/`k` extent implies.
/// These are real (release-mode) asserts: they name the offending shape
/// instead of letting the kernel die mid-tile on an opaque slice index,
/// and they are the soundness precondition the unsafe SIMD microkernels
/// of the Fast tier rely on.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], bias: BiasMode, c: &mut [f32]) {
    check_gemm_shapes(m, n, k, a, b, c);
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            match mr {
                4 => tile_rows::<4>(nr, i0, j0, n, k, a, b, &bias, c),
                3 => tile_rows::<3>(nr, i0, j0, n, k, a, b, &bias, c),
                2 => tile_rows::<2>(nr, i0, j0, n, k, a, b, &bias, c),
                _ => tile_rows::<1>(nr, i0, j0, n, k, a, b, &bias, c),
            }
            j0 += NR;
        }
        i0 += MR;
    }
}

/// Validates `A`/`B`/`C` slice lengths against the `m`/`n`/`k` extents at
/// the API boundary, shared by both precision tiers.
#[inline]
pub(crate) fn check_gemm_shapes(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() >= m * k,
        "gemm_nt: A holds {} elements but m×k = {m}×{k} requires {}",
        a.len(),
        m * k
    );
    assert!(
        b.len() >= n * k,
        "gemm_nt: B holds {} elements but n×k = {n}×{k} requires {}",
        b.len(),
        n * k
    );
    assert!(
        c.len() >= m * n,
        "gemm_nt: C holds {} elements but m×n = {m}×{n} requires {}",
        c.len(),
        m * n
    );
}

/// Which kernel a [`gemm_nt_with`] call runs — see the [module
/// docs](self) for the contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// k-ascending separate mul+add; bitwise identical to the scalar layer
    /// references and to every historical golden pin.  The default.
    #[default]
    Reference,
    /// Eight-lane mod-8 FMA accumulation with a fixed reduction tree;
    /// bitwise-reproducible across AVX2/NEON/scalar backends but *not*
    /// bitwise-equal to `Reference` (FMA skips a rounding and the lanes
    /// reassociate the sum).
    Fast,
}

impl Precision {
    /// Parses a tier name (`reference`, `fast`, case-insensitive).
    /// Returns `None` for anything else so callers can distinguish
    /// "not given" from "given but wrong".
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_lowercase().as_str() {
            "reference" | "ref" => Some(Precision::Reference),
            "fast" => Some(Precision::Fast),
            _ => None,
        }
    }

    /// The canonical lowercase name [`Precision::parse`] inverts.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Reference => "reference",
            Precision::Fast => "fast",
        }
    }
}

/// The instruction-set backend executing the Fast tier's accumulation
/// spec — and, for [`gemm_kn_with_backend`], the Reference tier's lanes
/// kernel (its AVX2 body, or the portable one for any other value;
/// [`gemm_kn`] itself also runs an AVX-512 body where the CPU has one).
/// Within a tier all backends produce identical bits; the choice only
/// affects speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastBackend {
    /// 256-bit AVX2 + FMA microkernel (x86_64).
    Avx2,
    /// 128-bit NEON microkernel (aarch64; FMA is baseline there).
    Neon,
    /// Portable `f32::mul_add` fallback — correct on every target, and the
    /// path the CI tier matrix forces with `BERRY_GEMM_FORCE_SCALAR=1` to
    /// prove backend equivalence on SIMD-capable hosts.
    Scalar,
}

impl FastBackend {
    /// Lowercase backend name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            FastBackend::Avx2 => "avx2",
            FastBackend::Neon => "neon",
            FastBackend::Scalar => "scalar",
        }
    }
}

/// The SIMD backend this process uses, decided once: the scalar
/// fallback if `BERRY_GEMM_FORCE_SCALAR` is set to `1`/`true`, otherwise
/// the widest SIMD extension the CPU reports at runtime.
pub fn detected_fast_backend() -> FastBackend {
    static BACKEND: OnceLock<FastBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let forced = std::env::var("BERRY_GEMM_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if forced {
            return FastBackend::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return FastBackend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return FastBackend::Neon;
            }
        }
        FastBackend::Scalar
    })
}

/// [`gemm_nt`] with an explicit precision tier: `Reference` delegates to
/// the bitwise kernel unchanged, `Fast` routes through the packed SIMD
/// driver using the process-wide [`detected_fast_backend`].
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`n`/`k` extent implies.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
    precision: Precision,
    packs: &mut PackScratch,
) {
    match precision {
        Precision::Reference => gemm_nt(m, n, k, a, b, bias, c),
        Precision::Fast => fast::gemm_nt_fast(m, n, k, a, b, bias, c, packs, detected_fast_backend()),
    }
}

/// Test/bench hook: the Fast tier on an explicitly chosen backend, so the
/// cross-backend bitwise-equivalence guarantee can be asserted in-process.
/// A backend the current CPU cannot execute is silently demoted to
/// [`FastBackend::Scalar`] (which is bitwise-identical anyway).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_fast_with_backend(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
    packs: &mut PackScratch,
    backend: FastBackend,
) {
    let backend = match backend {
        #[cfg(target_arch = "x86_64")]
        FastBackend::Avx2
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma") =>
        {
            FastBackend::Avx2
        }
        #[cfg(target_arch = "aarch64")]
        FastBackend::Neon if std::arch::is_aarch64_feature_detected!("neon") => FastBackend::Neon,
        _ => FastBackend::Scalar,
    };
    fast::gemm_nt_fast(m, n, k, a, b, bias, c, packs, backend);
}

/// Dispatches an `R`-row tile to its column count (`nr` ≤ [`NR`]).
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_rows<const R: usize>(
    nr: usize,
    i0: usize,
    j0: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &BiasMode,
    c: &mut [f32],
) {
    match nr {
        4 => tile::<R, 4>(i0, j0, n, k, a, b, bias, c),
        3 => tile::<R, 3>(i0, j0, n, k, a, b, bias, c),
        2 => tile::<R, 2>(i0, j0, n, k, a, b, bias, c),
        _ => tile::<R, 1>(i0, j0, n, k, a, b, bias, c),
    }
}

/// One `R×C` register tile (`R` ≤ [`MR`], `C` ≤ [`NR`]): `R·C` scalar
/// accumulators live in registers across the whole `k` sweep, and each
/// `k` step reuses `R` loads of `A` and `C` of `B` for `R·C`
/// multiply-adds.  Fringe tiles (`m % MR`, `n % NR`) get the same
/// independent accumulator chains as full ones instead of one
/// latency-bound chain per element.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const C: usize>(
    i0: usize,
    j0: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &BiasMode,
    c: &mut [f32],
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
    let b_rows: [&[f32]; C] = std::array::from_fn(|j| &b[(j0 + j) * k..(j0 + j + 1) * k]);

    let mut acc = [[0.0f32; C]; R];
    for (row, acc_row) in acc.iter_mut().enumerate() {
        let c_row = &c[(i0 + row) * n + j0..(i0 + row) * n + j0 + C];
        for (accv, &current) in acc_row.iter_mut().zip(c_row) {
            *accv = bias.init(i0 + row, current);
        }
    }
    for p in 0..k {
        let bv: [f32; C] = std::array::from_fn(|j| b_rows[j][p]);
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            let avi = a_row[p];
            for (accv, &bvj) in acc_row.iter_mut().zip(bv.iter()) {
                // Separate mul + add (not mul_add): the rounding sequence is
                // part of the bitwise contract with the scalar reference.
                *accv += avi * bvj;
            }
        }
    }
    for (row, acc_row) in acc.iter().enumerate() {
        let c_row = &mut c[(i0 + row) * n + j0..(i0 + row) * n + j0 + C];
        for (col, (dst, &accv)) in c_row.iter_mut().zip(acc_row.iter()).enumerate() {
            *dst = bias.finish(j0 + col, accv);
        }
    }
}

/// Convenience used by tests and benches: the naive triple loop (one
/// accumulator per output element, `k` ascending) the tiled kernel must
/// agree with bitwise.
pub fn gemm_nt_reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: BiasMode,
    c: &mut [f32],
) {
    check_gemm_shapes(m, n, k, a, b, c);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = bias.init(i, c[i * n + j]);
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            c[i * n + j] = bias.finish(j, acc);
        }
    }
}

/// Reusable zero-padded operand panels for the Fast kernel's packed
/// microkernels, passed to [`gemm_nt_with`]; a `Reference` call never
/// touches (or grows) these buffers.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
}

impl PackScratch {
    /// Creates an empty scratch; panels grow on first Fast-tier use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Both packing panels, resized to at least the requested lengths.
    /// Contents are unspecified; the packing routine overwrites every
    /// element (including the zero padding) on each call.
    pub(crate) fn panels(&mut self, a_len: usize, b_len: usize) -> (&mut [f32], &mut [f32]) {
        if self.pack_a.len() < a_len {
            self.pack_a.resize(a_len, 0.0);
        }
        if self.pack_b.len() < b_len {
            self.pack_b.resize(b_len, 0.0);
        }
        (&mut self.pack_a[..a_len], &mut self.pack_b[..b_len])
    }
}

/// Reusable buffers of the im2col/GEMM inference core.
///
/// One `GemmScratch` lives inside every
/// [`crate::network::InferScratch`], so the whole lockstep rollout hot
/// path — im2col patch matrices included — stops allocating once the
/// buffers reach steady-state capacity.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    col: Vec<f32>,
    /// Zero-bordered copy of the plane being unrolled (see
    /// [`GemmScratch::im2col_transposed`]).
    padded: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The im2col patch buffer, resized to at least `len` elements.
    ///
    /// Contents are unspecified; callers overwrite every element they read.
    pub fn col_buffer(&mut self, len: usize) -> &mut [f32] {
        if self.col.len() < len {
            self.col.resize(len, 0.0);
        }
        &mut self.col[..len]
    }

    /// [`im2col`]'s transpose into the scratch's patch buffer: the
    /// `[taps][pixels]` matrix
    /// `col_t[(ic·kernel + kh)·kernel + kw][oy·out_w + ox] = input[ic][iy][ix]`
    /// (`+0.0` in padding cells) — the k-major operand of the
    /// convolution's Reference forward, which runs [`gemm_kn`] with lanes
    /// across pixels.  The plane is first copied into a zero-bordered
    /// buffer, so every tap is in bounds.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`im2col`].
    pub fn im2col_transposed(&mut self, input: &[f32], shape: &Im2colShape) -> &[f32] {
        let len = self.pad_plane(input, shape);
        let col_t = &mut self.col[..len];
        // The policy networks' output planes are 9 or 5 wide: a constant
        // run length lets every run compile to plain moves.
        match shape.out_w {
            9 => im2col_transposed_from_padded(&self.padded, shape, 9, col_t),
            5 => im2col_transposed_from_padded(&self.padded, shape, 5, col_t),
            out_w => im2col_transposed_from_padded(&self.padded, shape, out_w, col_t),
        }
        col_t
    }

    /// Copies one `[c, h, w]` plane into the zero-bordered
    /// `[c, h + 2p, w + 2p]` buffer, grows the patch buffer to the shape's
    /// patch matrix, and returns the patch matrix's length.
    fn pad_plane(&mut self, input: &[f32], shape: &Im2colShape) -> usize {
        let len = shape.rows() * shape.cols();
        if self.col.len() < len {
            self.col.resize(len, 0.0);
        }
        check_im2col(input, shape, &self.col[..len]);
        let Im2colShape {
            channels,
            height,
            width,
            padding,
            ..
        } = *shape;
        let (ph, pw) = (height + 2 * padding, width + 2 * padding);
        self.padded.clear();
        self.padded.resize(channels * ph * pw, 0.0);
        for (dst, src) in self
            .padded
            .chunks_exact_mut(ph * pw)
            .zip(input.chunks_exact(height * width))
        {
            for (dst_row, src_row) in dst[padding * pw..]
                .chunks_exact_mut(pw)
                .zip(src.chunks_exact(width))
            {
                dst_row[padding..padding + width].copy_from_slice(src_row);
            }
        }
        len
    }

}

/// Geometry of one im2col lowering: a `[c, h, w]` input plane unrolled into
/// a `[out_h·out_w, c·kernel·kernel]` row-major patch matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2colShape {
    /// Input channels.
    pub channels: usize,
    /// Input spatial height.
    pub height: usize,
    /// Input spatial width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub padding: usize,
    /// Output spatial height.
    pub out_h: usize,
    /// Output spatial width.
    pub out_w: usize,
}

impl Im2colShape {
    /// Patch-matrix row count (one row per output pixel).
    pub fn rows(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Patch-matrix column count (one column per kernel tap), i.e. the GEMM
    /// contraction dimension.
    pub fn cols(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Checks internal consistency: non-degenerate extents, a kernel that
    /// fits the padded input, and — crucially — that the caller-supplied
    /// `out_h`/`out_w` equal the geometry the convolution formula implies.
    /// An inconsistent output extent would otherwise make [`im2col`]
    /// silently unroll the wrong input rows.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] naming the first inconsistent
    /// field.
    pub fn validate(&self) -> crate::Result<()> {
        let Im2colShape {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
            out_h,
            out_w,
        } = *self;
        let invalid = |msg: String| Err(crate::NnError::InvalidArgument(msg));
        if channels == 0 || height == 0 || width == 0 {
            return invalid(format!(
                "im2col input plane is degenerate: channels={channels}, height={height}, width={width}"
            ));
        }
        if kernel == 0 || stride == 0 {
            return invalid(format!(
                "im2col kernel geometry is degenerate: kernel={kernel}, stride={stride}"
            ));
        }
        if height + 2 * padding < kernel || width + 2 * padding < kernel {
            return invalid(format!(
                "im2col kernel {kernel}×{kernel} does not fit the padded {height}×{width} input (padding {padding})"
            ));
        }
        let expect_h = (height + 2 * padding - kernel) / stride + 1;
        let expect_w = (width + 2 * padding - kernel) / stride + 1;
        if out_h != expect_h || out_w != expect_w {
            return invalid(format!(
                "im2col output extent {out_h}×{out_w} does not match the \
                 {expect_h}×{expect_w} implied by input {height}×{width}, kernel {kernel}, \
                 stride {stride}, padding {padding}"
            ));
        }
        Ok(())
    }
}

/// Validates an im2col call: a consistent shape, exactly one input plane,
/// and room for the patch matrix.
fn check_im2col(input: &[f32], shape: &Im2colShape, col: &[f32]) {
    if let Err(e) = shape.validate() {
        panic!("im2col: {e}");
    }
    let Im2colShape {
        channels,
        height,
        width,
        ..
    } = *shape;
    assert_eq!(
        input.len(),
        channels * height * width,
        "im2col: input holds {} elements but [c, h, w] = [{channels}, {height}, {width}] requires {}",
        input.len(),
        channels * height * width
    );
    assert!(
        col.len() >= shape.rows() * shape.cols(),
        "im2col: col buffer holds {} elements but the {}×{} patch matrix requires {}",
        col.len(),
        shape.rows(),
        shape.cols(),
        shape.rows() * shape.cols()
    );
}

/// Unrolls one sample's `[c, h, w]` plane into the row-major patch matrix
/// `col[p][(ic·kernel + kh)·kernel + kw] = input[ic][iy][ix]` with `+0.0`
/// in padding cells.
///
/// Column order matches the `(ic, kh, kw)` tap order of the scalar
/// convolution kernels, so a `k`-ascending GEMM over these rows replays the
/// reference accumulation sequence exactly.
///
/// # Panics
///
/// Panics if `shape` fails [`Im2colShape::validate`], if `input` is not
/// exactly one `[c, h, w]` plane, or if `col` cannot hold the patch
/// matrix — an inconsistent shape must fail loudly rather than silently
/// unroll the wrong input rows.
pub fn im2col(input: &[f32], shape: &Im2colShape, col: &mut [f32]) {
    check_im2col(input, shape, col);
    let Im2colShape {
        channels,
        height,
        width,
        kernel,
        stride,
        padding,
        out_h,
        out_w,
    } = *shape;
    let cols = shape.cols();
    for oy in 0..out_h {
        for ox in 0..out_w {
            let row = &mut col[(oy * out_w + ox) * cols..(oy * out_w + ox + 1) * cols];
            let mut tap = 0usize;
            for ic in 0..channels {
                let plane = &input[ic * height * width..(ic + 1) * height * width];
                for kh in 0..kernel {
                    let iy = (oy * stride + kh) as isize - padding as isize;
                    if iy < 0 || iy >= height as isize {
                        row[tap..tap + kernel].fill(0.0);
                        tap += kernel;
                        continue;
                    }
                    let in_row = &plane[iy as usize * width..(iy as usize + 1) * width];
                    for kw in 0..kernel {
                        let ix = (ox * stride + kw) as isize - padding as isize;
                        row[tap] = if ix < 0 || ix >= width as isize {
                            0.0
                        } else {
                            in_row[ix as usize]
                        };
                        tap += 1;
                    }
                }
            }
        }
    }
}

/// [`GemmScratch::im2col_transposed`] from a zero-bordered
/// `[c, h + 2p, w + 2p]` plane: each tap row is `out_h` runs of `out_w`
/// values, copied whole at stride 1 and stepped through otherwise.
#[inline(always)]
fn im2col_transposed_from_padded(padded: &[f32], shape: &Im2colShape, out_w: usize, col_t: &mut [f32]) {
    let (ph, pw) = (
        shape.height + 2 * shape.padding,
        shape.width + 2 * shape.padding,
    );
    let (k, stride) = (shape.kernel, shape.stride);
    let span = (out_w - 1) * stride + 1;
    for (tap, tap_row) in col_t.chunks_exact_mut(shape.rows()).enumerate() {
        let (ic, kh, kw) = (tap / (k * k), tap / k % k, tap % k);
        let corner = ic * ph * pw + kh * pw + kw;
        let in_rows = padded[corner..].chunks(stride * pw);
        for (out_row, in_row) in tap_row.chunks_exact_mut(out_w).zip(in_rows) {
            if stride == 1 {
                out_row.copy_from_slice(&in_row[..out_w]);
            } else {
                for (v, &x) in out_row.iter_mut().zip(in_row[..span].iter().step_by(stride)) {
                    *v = x;
                }
            }
        }
    }
}

/// FLOP count of one `gemm_nt` call (a multiply and an add per `(i, j, p)`
/// triple), used by the throughput reports.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn::Offsets;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn rand_vec(len: usize, r: &mut rand::rngs::StdRng) -> Vec<f32> {
        Tensor::rand_uniform(&[len.max(1)], -1.0, 1.0, r).data()[..len].to_vec()
    }

    #[test]
    fn tiled_gemm_matches_reference_bitwise_across_shapes() {
        let mut r = rng(0);
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (4, 4, 7),
            (5, 9, 13),
            (8, 3, 1),
            (3, 17, 45),
            (16, 25, 72),
            (7, 81, 18),
        ] {
            let a = rand_vec(m * k, &mut r);
            let b = rand_vec(n * k, &mut r);
            let row_bias = rand_vec(m, &mut r);
            let col_bias = rand_vec(n, &mut r);
            // Prior contents of C: overwritten by every mode but
            // `Accumulate`, which adds the product onto them.
            let c_prior = rand_vec(m * n, &mut r);
            for bias in [
                BiasMode::None,
                BiasMode::RowInit(&row_bias),
                BiasMode::ColAfter(&col_bias),
                BiasMode::Accumulate,
            ] {
                let mut c_tiled = c_prior.clone();
                let mut c_ref = c_prior.clone();
                gemm_nt(m, n, k, &a, &b, bias, &mut c_tiled);
                gemm_nt_reference(m, n, k, &a, &b, bias, &mut c_ref);
                for (i, (x, y)) in c_tiled.iter().zip(c_ref.iter()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "({m},{n},{k}) {bias:?} element {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// The lanes-kernel bodies this CPU runs; each one it cannot run is
    /// named on stderr, so a test over them never passes silently without
    /// it.
    fn kn_bodies() -> Vec<KnBody> {
        let mut bodies = Vec::new();
        #[cfg(target_arch = "x86_64")]
        for (body, feature, present) in [
            (KnBody::Avx512, "avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (KnBody::Avx2, "avx2", std::arch::is_x86_feature_detected!("avx2")),
        ] {
            if present {
                bodies.push(body);
            } else {
                eprintln!("skipping the {} lanes-kernel body: this CPU lacks {feature}", body.name());
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipping the avx512 and avx2 lanes-kernel bodies: not an x86_64 target");
        bodies.push(KnBody::Portable);
        bodies
    }

    #[test]
    fn kn_kernel_matches_reference_bitwise_on_every_backend() {
        // Fringe rows (m % 4, m % 8), fringe columns (n % 8, n % 16,
        // n % 32) and products of at most eight columns, k = 1, every bias
        // mode, a row-major and a transposed (strided) A, and −0.0 /
        // exact-zero operands and priors.
        let mut r = rng(10);
        let mut shapes = Vec::new();
        for m in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 15, 17] {
            for n in [1usize, 5, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 47, 81, 160, 400] {
                shapes.push((m, n, [1usize, 7, 25][(m + n) % 3]));
            }
        }
        shapes.extend([(16, 144, 25), (64, 400, 32), (32, 64, 25), (18, 8, 300), (144, 16, 40)]);
        let signed_zeros = |v: &mut Vec<f32>, every: usize| {
            for (i, x) in v.iter_mut().enumerate().step_by(every) {
                *x = if i % 2 == 0 { -0.0 } else { 0.0 };
            }
        };
        let bodies = kn_bodies();
        for &(m, n, k) in &shapes {
            let mut a = rand_vec(m * k, &mut r);
            let mut b_kn = rand_vec(k * n, &mut r);
            signed_zeros(&mut a, 3);
            signed_zeros(&mut b_kn, 5);
            let mut row_bias = rand_vec(m, &mut r);
            row_bias[0] = -0.0;
            let mut col_bias = rand_vec(n, &mut r);
            col_bias[0] = -0.0;
            let mut c_prior = rand_vec(m * n, &mut r);
            signed_zeros(&mut c_prior, 4);
            // The oracle's NT operands: B as [n][k]; A row-major.
            let b_nt: Vec<f32> = (0..n * k).map(|at| b_kn[(at % k) * n + at / k]).collect();
            // A also stored transposed ([k][m]) and read through strides.
            let a_t: Vec<f32> = (0..k * m).map(|at| a[(at % m) * k + at / m]).collect();
            for bias in [
                BiasMode::None,
                BiasMode::RowInit(&row_bias),
                BiasMode::ColAfter(&col_bias),
                BiasMode::Accumulate,
            ] {
                let mut c_ref = c_prior.clone();
                gemm_nt_reference(m, n, k, &a, &b_nt, bias, &mut c_ref);
                for &body in &bodies {
                    for (view, layout) in [
                        (StridedA::row_major(&a, k), "row-major A"),
                        (StridedA::transposed(&a_t, m), "transposed A"),
                    ] {
                        let mut c_kn = c_prior.clone();
                        kn::gemm_kn_on(m, n, k, view, &b_kn, bias, &mut c_kn, body);
                        for (i, (x, y)) in c_kn.iter().zip(&c_ref).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "({m},{n},{k}) {bias:?} {body:?} {layout} element {i}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kn_kernel_reads_offset_table_operands_bitwise_on_every_backend() {
        // The addressing the convolution's batch-lane passes use — `B` rows
        // from an offset table with a strided `A` (forward, dX), and `A`
        // rows and columns from tables with strided `B` (dW) — scattered
        // through larger buffers, with `C` rows `ldc > n` apart.  Fringe
        // rows (m % 4, m % 8), fringe columns (n % 8, n % 16, n % 32) and
        // products of at most eight columns, k = 1, every bias mode,
        // `Accumulate` from a random prior C, and ±0.0 operands.
        let mut r = rng(12);
        let shuffled = |len: usize, r: &mut rand::rngs::StdRng| {
            let mut v: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                v.swap(i, r.gen_range(0..i + 1));
            }
            v
        };
        let signed_zeros = |v: &mut Vec<f32>, every: usize| {
            for (i, x) in v.iter_mut().enumerate().step_by(every) {
                *x = if i % 2 == 0 { -0.0 } else { 0.0 };
            }
        };
        let bodies = kn_bodies();
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 8, 1),
            (4, 9, 7),
            (5, 17, 18),
            (7, 24, 25),
            (8, 32, 72),
            (13, 5, 33),
            (16, 288, 18),
            (9, 31, 5),
            (15, 32, 12),
            (17, 33, 9),
            (6, 47, 3),
            (18, 8, 40),
            (16, 160, 14),
            (11, 400, 4),
        ] {
            // A scattered: rows `k + 3` apart in shuffled order, columns at
            // shuffled positions within a row.
            let mut a_pool = rand_vec(m * (k + 3), &mut r);
            signed_zeros(&mut a_pool, 3);
            let a_rows: Vec<usize> = shuffled(m, &mut r).iter().map(|&i| i * (k + 3)).collect();
            let a_cols = shuffled(k, &mut r);
            let a: Vec<f32> = (0..m * k).map(|at| a_pool[a_rows[at / k] + a_cols[at % k]]).collect();
            // B rows `n + 5` apart in shuffled order, 2 elements in.
            let mut b_pool = rand_vec(k * (n + 5) + 2, &mut r);
            signed_zeros(&mut b_pool, 5);
            let b_rows: Vec<usize> = shuffled(k, &mut r).iter().map(|&p| p * (n + 5) + 2).collect();
            let b_kn: Vec<f32> = (0..k * n).map(|at| b_pool[b_rows[at / n] + at % n]).collect();
            let b_nt: Vec<f32> = (0..n * k).map(|at| b_kn[(at % k) * n + at / k]).collect();
            // The tables the kernel reads, each carrying its maximum.
            let [a_rows, a_cols, b_rows] = [a_rows, a_cols, b_rows].map(Table::from_iter);
            let mut row_bias = rand_vec(m, &mut r);
            row_bias[0] = -0.0;
            let col_bias = rand_vec(n, &mut r);
            let mut c_prior = rand_vec(m * n, &mut r);
            signed_zeros(&mut c_prior, 4);
            let ldc = n + 3;
            for bias in [
                BiasMode::None,
                BiasMode::RowInit(&row_bias),
                BiasMode::ColAfter(&col_bias),
                BiasMode::Accumulate,
            ] {
                let mut c_ref = c_prior.clone();
                gemm_nt_reference(m, n, k, &a, &b_nt, bias, &mut c_ref);
                for &body in &bodies {
                    let strided_a = KnOperands {
                        a: &a,
                        a_rows: Stride(k),
                        a_cols: Stride(1),
                        b: &b_pool,
                        b_rows: &b_rows,
                        ldc,
                    };
                    let tabled_a = KnOperands {
                        a: &a_pool,
                        a_rows: &a_rows,
                        a_cols: &a_cols,
                        b: &b_kn,
                        b_rows: Stride(n),
                        ldc,
                    };
                    let mut outs = Vec::new();
                    for layout in ["table B", "table A"] {
                        let mut c = vec![f32::NAN; (m - 1) * ldc + n + 2];
                        for (i, row) in c_prior.chunks_exact(n).enumerate() {
                            c[i * ldc..i * ldc + n].copy_from_slice(row);
                        }
                        if layout == "table B" {
                            gemm_kn_at(m, n, k, &strided_a, bias, &mut c, body);
                        } else {
                            gemm_kn_at(m, n, k, &tabled_a, bias, &mut c, body);
                        }
                        outs.push((layout, c));
                    }
                    for (layout, c) in outs {
                        for i in 0..m {
                            for j in 0..n {
                                let (x, y) = (c[i * ldc + j], c_ref[i * n + j]);
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "({m},{n},{k}) {bias:?} {body:?} {layout} element ({i},{j}): {x} vs {y}"
                                );
                            }
                            // Between C's rows nothing is written.
                            let gap = (i * ldc + n..((i + 1) * ldc).min(c.len())).map(|at| c[at]);
                            assert!(gap.into_iter().all(f32::is_nan), "{layout}: row gap written");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn table_maximum_is_a_full_scan() {
        // A product bounds its reads by the maximum a table stored when it
        // was built; it must be the largest entry, wherever that lies.
        let mut r = rng(13);
        for len in [1usize, 2, 7, 72, 400] {
            let offsets: Vec<usize> = (0..len).map(|_| r.gen_range(0..10_000)).collect();
            let scan = offsets.iter().copied().max().expect("len ≥ 1");
            for rotation in [0, len / 2, len - 1] {
                let mut rotated = offsets.clone();
                rotated.rotate_left(rotation);
                let table: Table = rotated.iter().copied().collect();
                assert_eq!((&table).last(len), scan, "len {len}, rotation {rotation}");
                assert!((0..len).all(|i| (&table).at(i) == rotated[i]));
            }
        }
        let strided: Table = (0..9).map(|i| i * 8).collect();
        assert_eq!((&strided).last(9), Stride(8).last(9));
    }

    #[test]
    fn kn_kernel_leaves_c_past_its_extent_untouched() {
        // Masked stores write only the tile's own columns.
        let mut r = rng(11);
        for (m, n, k) in [(3usize, 13usize, 4usize), (9, 45, 3)] {
            let a = rand_vec(m * k, &mut r);
            let b = rand_vec(k * n, &mut r);
            for body in kn_bodies() {
                let mut c = vec![f32::NAN; m * n + 17];
                kn::gemm_kn_on(m, n, k, StridedA::row_major(&a, k), &b, BiasMode::None, &mut c, body);
                assert!(c[..m * n].iter().all(|v| v.is_finite()), "{body:?}");
                assert!(c[m * n..].iter().all(|v| v.is_nan()), "{body:?}");
            }
        }
    }

    #[test]
    fn gemm_rows_are_batch_invariant() {
        // Row i of a batched product equals the same row computed alone —
        // the property that makes lane retirement bitwise-safe.
        let (m, n, k) = (6usize, 10usize, 23usize);
        let mut r = rng(1);
        let a = rand_vec(m * k, &mut r);
        let b = rand_vec(n * k, &mut r);
        let bias = rand_vec(n, &mut r);
        let mut full = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &b, BiasMode::ColAfter(&bias), &mut full);
        for i in 0..m {
            let mut single = vec![0.0f32; n];
            gemm_nt(
                1,
                n,
                k,
                &a[i * k..(i + 1) * k],
                &b,
                BiasMode::ColAfter(&bias),
                &mut single,
            );
            for (j, (x, y)) in single.iter().zip(full[i * n..(i + 1) * n].iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn im2col_layout_matches_tap_order() {
        // 1 channel, 3×3 input, 2×2 kernel, stride 1, no padding.
        let input: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let shape = Im2colShape {
            channels: 1,
            height: 3,
            width: 3,
            kernel: 2,
            stride: 1,
            padding: 0,
            out_h: 2,
            out_w: 2,
        };
        let mut col = vec![0.0f32; shape.rows() * shape.cols()];
        im2col(&input, &shape, &mut col);
        // First output pixel sees the top-left 2×2 patch in (kh, kw) order.
        assert_eq!(&col[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Last output pixel sees the bottom-right patch.
        assert_eq!(&col[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_variants_match_im2col_bitwise() {
        let mut r = rng(3);
        // (channels, h, w, kernel, stride, padding) — strides 1–3, padding
        // wider than the kernel reach, kernels larger than the input.
        for &(c, h, w, k, s, p) in &[
            (1usize, 1usize, 1usize, 1usize, 1usize, 0usize),
            (2, 9, 9, 3, 1, 1),
            (8, 9, 9, 3, 2, 1),
            (3, 11, 13, 5, 3, 2),
            (2, 3, 3, 5, 1, 2),
            (1, 4, 7, 2, 3, 2),
            (2, 5, 4, 1, 2, 2),
        ] {
            let shape = Im2colShape {
                channels: c,
                height: h,
                width: w,
                kernel: k,
                stride: s,
                padding: p,
                out_h: (h + 2 * p - k) / s + 1,
                out_w: (w + 2 * p - k) / s + 1,
            };
            let input = rand_vec(c * h * w, &mut r);
            let (rows, cols) = (shape.rows(), shape.cols());
            let mut col = vec![0.0f32; rows * cols];
            im2col(&input, &shape, &mut col);
            let mut scratch = GemmScratch::new();
            // Stale contents from a larger shape must not leak through.
            scratch.col_buffer(4 * rows * cols + 64).fill(f32::NAN);
            let col_t = scratch.im2col_transposed(&input, &shape);
            for pix in 0..rows {
                for tap in 0..cols {
                    assert_eq!(
                        col_t[tap * rows + pix].to_bits(),
                        col[pix * cols + tap].to_bits(),
                        "{shape:?} pixel {pix} tap {tap}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_pads_with_positive_zero() {
        let input = vec![-3.0f32];
        let shape = Im2colShape {
            channels: 1,
            height: 1,
            width: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
            out_h: 1,
            out_w: 1,
        };
        let mut col = vec![f32::NAN; 9];
        im2col(&input, &shape, &mut col);
        assert_eq!(col[4], -3.0);
        for (i, v) in col.iter().enumerate() {
            if i != 4 {
                assert_eq!(v.to_bits(), 0.0f32.to_bits(), "padding cell {i} must be +0.0");
            }
        }
    }

    #[test]
    fn scratch_buffer_grows_and_is_reused() {
        let mut scratch = GemmScratch::new();
        assert_eq!(scratch.col_buffer(16).len(), 16);
        scratch.col_buffer(16)[3] = 7.0;
        // Asking for less never shrinks; asking for more grows.
        assert_eq!(scratch.col_buffer(8).len(), 8);
        assert_eq!(scratch.col_buffer(64).len(), 64);
    }

    #[test]
    fn flops_count_both_mul_and_add() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    /// The Fast tier's spec, written as directly as possible: the oracle
    /// the packed/blocked/SIMD machinery must reproduce bit for bit.
    fn fast_spec_dot(a_row: &[f32], b_row: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (p, (&av, &bv)) in a_row.iter().zip(b_row.iter()).enumerate() {
            lanes[p % 8] = av.mul_add(bv, lanes[p % 8]);
        }
        let s0 = lanes[0] + lanes[4];
        let s1 = lanes[1] + lanes[5];
        let s2 = lanes[2] + lanes[6];
        let s3 = lanes[3] + lanes[7];
        (s0 + s2) + (s1 + s3)
    }

    fn fast_spec_gemm(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        bias: BiasMode,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let dot = fast_spec_dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                c[i * n + j] = match bias {
                    BiasMode::None => dot,
                    BiasMode::RowInit(bb) => bb[i] + dot,
                    BiasMode::ColAfter(bb) => dot + bb[j],
                    BiasMode::Accumulate => c[i * n + j] + dot,
                };
            }
        }
    }

    const FAST_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 4, 8),
        (4, 4, 7),
        (5, 9, 13),
        (8, 3, 1),
        (3, 17, 45),
        (16, 25, 72),
        (7, 81, 18),
        (70, 55, 19), // crosses both MC and NC block boundaries
        (1, 130, 600),
    ];

    #[test]
    fn fast_tier_matches_spec_oracle_bitwise_across_shapes_and_backends() {
        // Packing, m/n blocking and every backend must reproduce the
        // eight-lane spec exactly — this is what makes Fast-tier goldens
        // portable across machines and force-scalar CI legs.
        let mut r = rng(7);
        let mut packs = PackScratch::new();
        for &(m, n, k) in FAST_SHAPES {
            let a = rand_vec(m * k, &mut r);
            let b = rand_vec(n * k, &mut r);
            let row_bias = rand_vec(m, &mut r);
            let col_bias = rand_vec(n, &mut r);
            let c_prior = rand_vec(m * n, &mut r);
            for bias in [
                BiasMode::None,
                BiasMode::RowInit(&row_bias),
                BiasMode::ColAfter(&col_bias),
                BiasMode::Accumulate,
            ] {
                let mut c_spec = c_prior.clone();
                fast_spec_gemm(m, n, k, &a, &b, bias, &mut c_spec);
                for backend in [FastBackend::Scalar, FastBackend::Avx2, FastBackend::Neon] {
                    let mut c_fast = c_prior.clone();
                    gemm_nt_fast_with_backend(
                        m, n, k, &a, &b, bias, &mut c_fast, &mut packs, backend,
                    );
                    for (i, (x, y)) in c_fast.iter().zip(c_spec.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "({m},{n},{k}) {bias:?} {backend:?} element {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_tier_is_close_to_reference() {
        // Fast reassociates, so equality is tolerance-based: both tiers
        // approximate the exact sum, and for these magnitudes and k
        // extents a few ULP of the term-magnitude sum is a generous bound.
        let mut r = rng(8);
        let mut packs = PackScratch::new();
        for &(m, n, k) in FAST_SHAPES {
            let a = rand_vec(m * k, &mut r);
            let b = rand_vec(n * k, &mut r);
            let mut c_ref = vec![0.0f32; m * n];
            let mut c_fast = vec![0.0f32; m * n];
            gemm_nt(m, n, k, &a, &b, BiasMode::None, &mut c_ref);
            gemm_nt_with(
                m,
                n,
                k,
                &a,
                &b,
                BiasMode::None,
                &mut c_fast,
                Precision::Fast,
                &mut packs,
            );
            for i in 0..m {
                for j in 0..n {
                    let mag: f32 = a[i * k..(i + 1) * k]
                        .iter()
                        .zip(&b[j * k..(j + 1) * k])
                        .map(|(x, y)| (x * y).abs())
                        .sum();
                    let bound = 2.0 * (k as f32) * f32::EPSILON * mag + 1e-30;
                    let diff = (c_ref[i * n + j] - c_fast[i * n + j]).abs();
                    assert!(
                        diff <= bound,
                        "({m},{n},{k}) element ({i},{j}): |{}-{}| = {diff} > {bound}",
                        c_ref[i * n + j],
                        c_fast[i * n + j]
                    );
                }
            }
        }
    }

    #[test]
    fn reference_precision_through_gemm_nt_with_is_bitwise_gemm_nt() {
        let (m, n, k) = (6usize, 10usize, 23usize);
        let mut r = rng(9);
        let a = rand_vec(m * k, &mut r);
        let b = rand_vec(n * k, &mut r);
        let bias = rand_vec(n, &mut r);
        let mut c_direct = vec![0.0f32; m * n];
        let mut c_with = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &b, BiasMode::ColAfter(&bias), &mut c_direct);
        let mut packs = PackScratch::new();
        gemm_nt_with(
            m,
            n,
            k,
            &a,
            &b,
            BiasMode::ColAfter(&bias),
            &mut c_with,
            Precision::Reference,
            &mut packs,
        );
        assert_eq!(
            c_direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c_with.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn precision_parse_inverts_name() {
        for p in [Precision::Reference, Precision::Fast] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("REF"), Some(Precision::Reference));
        assert_eq!(Precision::parse("bogus"), None);
    }

    #[test]
    fn gemm_shape_asserts_fire_in_release_builds() {
        let a = vec![0.0f32; 3];
        let b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 4];
        let err = std::panic::catch_unwind(move || {
            gemm_nt(2, 2, 2, &a, &b, BiasMode::None, &mut c);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("m×k = 2×2"), "unexpected panic message: {msg}");
    }

    #[test]
    fn im2col_shape_validate_rejects_mismatched_output_extent() {
        // The regression shape: consistent input geometry, wrong out_h.
        let shape = Im2colShape {
            channels: 1,
            height: 5,
            width: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
            out_h: 4, // correct value is 3
            out_w: 2, // correct value is 3
        };
        let err = shape.validate().unwrap_err();
        assert!(
            err.to_string().contains("does not match"),
            "unexpected error: {err}"
        );
        let mut good = shape;
        good.out_h = 3;
        good.out_w = 3;
        good.validate().expect("consistent shape must validate");
        // And im2col itself must refuse the bad shape loudly.
        let input = vec![0.0f32; 25];
        let mut col = vec![0.0f32; shape.rows() * shape.cols()];
        let result = std::panic::catch_unwind(move || {
            im2col(&input, &shape, &mut col);
        });
        assert!(result.is_err(), "im2col accepted an inconsistent shape");
    }

    #[test]
    fn im2col_shape_validate_rejects_degenerate_geometry() {
        let mut shape = Im2colShape {
            channels: 1,
            height: 3,
            width: 3,
            kernel: 2,
            stride: 1,
            padding: 0,
            out_h: 2,
            out_w: 2,
        };
        shape.kernel = 0;
        assert!(shape.validate().is_err());
        shape.kernel = 5;
        assert!(shape.validate().is_err(), "kernel larger than padded input");
    }
}
