//! Exact layout moves around the lanes kernel: transposes that turn a
//! batch-outermost tensor into the batch-lane layout and back.  They copy
//! values and compute nothing, so which backend runs them never shows in
//! a bit.

use super::{detected_fast_backend, FastBackend};

/// Side of the square blocks the transpose moves at once.
const BLOCK: usize = 8;

/// `dst[row_at[j] + i] = src[i·src_stride + j]` for `i < rows`,
/// `j < cols`: the transpose of a strided `rows×cols` matrix whose output
/// rows — one per source column, `rows` long — each land at their own
/// offset, so a transpose can write straight into a bordered layout.
/// `row_at` yields those offsets in source-column order.
///
/// Runs in 8×8 blocks (AVX2 shuffles when [`detected_fast_backend`]
/// reports AVX2), with the fringe rows and columns moved one by one.
///
/// # Panics
///
/// Panics if a read or a write falls outside its slice, or if `row_at`
/// yields fewer than `cols` offsets.
pub(crate) fn transpose_rows(
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    row_at: impl Iterator<Item = usize>,
) {
    let simd = detected_fast_backend() == FastBackend::Avx2;
    transpose_rows_on(simd, src, src_stride, rows, cols, dst, row_at);
}

/// `dst[j·rows + i] = src[i·cols + j]`: the transpose of a row-major
/// `rows×cols` matrix.
///
/// # Panics
///
/// Panics if `src` or `dst` holds fewer than `rows·cols` elements.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    transpose_rows(src, cols, rows, cols, dst, (0..cols).map(|j| j * rows));
}

/// [`transpose_rows`] with the AVX2 blocks switched on or off.
fn transpose_rows_on(
    simd: bool,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    mut row_at: impl Iterator<Item = usize>,
) {
    let mut next_row = || row_at.next().expect("an output row offset per source column");
    let (full_rows, full_cols) = (rows / BLOCK * BLOCK, cols / BLOCK * BLOCK);
    for j0 in (0..full_cols).step_by(BLOCK) {
        let at: [usize; BLOCK] = std::array::from_fn(|_| next_row());
        for i0 in (0..full_rows).step_by(BLOCK) {
            let block = &src[i0 * src_stride + j0..];
            block8(block, src_stride, dst, &at, i0, simd);
        }
        for i in full_rows..rows {
            for (t, &a) in at.iter().enumerate() {
                dst[a + i] = src[i * src_stride + j0 + t];
            }
        }
    }
    for j in full_cols..cols {
        let a = next_row();
        for i in 0..rows {
            dst[a + i] = src[i * src_stride + j];
        }
    }
}

/// One 8×8 block: `dst[at[t] + i0 + i] = src[i·src_stride + t]`.
fn block8(src: &[f32], src_stride: usize, dst: &mut [f32], at: &[usize; BLOCK], i0: usize, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd {
            super::simd_avx2::transpose8_at(src, src_stride, dst, at, i0);
            return;
        }
    }
    let _ = simd;
    let mut block = [[0.0f32; BLOCK]; BLOCK];
    for (i, row) in block.iter_mut().enumerate() {
        row.copy_from_slice(&src[i * src_stride..i * src_stride + BLOCK]);
    }
    for (t, &a) in at.iter().enumerate() {
        for (i, row) in block.iter().enumerate() {
            dst[a + i0 + i] = row[t];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_rows_moves_every_element_to_its_row_offset() {
        // Full blocks, fringe rows and fringe columns, a strided source
        // and output rows placed with gaps between them, on the AVX2
        // blocks (where the CPU has them) and the portable ones.
        for (rows, cols) in [(1usize, 1usize), (8, 8), (17, 9), (32, 25), (5, 16), (24, 81)] {
            let stride = cols + 3;
            let src: Vec<f32> = (0..rows * stride).map(|v| v as f32).collect();
            let gap = rows + 2;
            for simd in [true, false] {
                let mut dst = vec![f32::NAN; cols * gap];
                let row_at = (0..cols).map(|j| j * gap);
                transpose_rows_on(simd, &src, stride, rows, cols, &mut dst, row_at);
                for j in 0..cols {
                    for i in 0..rows {
                        assert_eq!(dst[j * gap + i].to_bits(), src[i * stride + j].to_bits());
                    }
                    assert!(dst[j * gap + rows..(j + 1) * gap].iter().all(|v| v.is_nan()));
                }
            }
        }
    }
}
