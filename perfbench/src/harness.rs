//! The measurement loop shared by every workload: set-up timing, a
//! closed-loop timed window split into fixed-composition blocks, the host
//! probe that tells how busy the machine is, and the order statistics the
//! metrics report.

use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds of the timed window between two rebuilds of the workload.
const REBUILD_EVERY_S: f64 = 1.5;

/// [`host_probe_ms`] on an uncontended core of the 2-vCPU Xeon VM the
/// benchmark was tuned on.  It only fixes the unit of host-scaled times
/// (see [`Workload::HOST_SCALED`]): on that host, when quiet, a host-scaled
/// time equals the wall-clock time.
pub const REFERENCE_PROBE_MS: f64 = 1.25;

/// One benchmark workload after set-up: something that runs one op at a
/// time in a closed loop.
pub trait Workload {
    /// Whether the workload's op and set-up times are reported in
    /// reference-host time: each wall-clock time is multiplied by
    /// [`REFERENCE_PROBE_MS`] over the mean of the [`host_probe_ms`] times
    /// measured just before and just after it.  This is for a workload
    /// whose hot path is the same throughput-bound scalar arithmetic as the
    /// probe, so that a co-tenant on the core's other hardware thread slows
    /// both by the same factor.
    const HOST_SCALED: bool = false;

    /// Consecutive ops that form one throughput block.  Blocks are chosen
    /// so that every whole block does the same mix of work.
    fn ops_per_block(&self) -> usize;

    /// Runs op `index` and returns the units of work it completed, or a
    /// description of why its output was wrong.
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<u64, String>;
}

/// One successful op of a window.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Latency in milliseconds, host-scaled if the workload is.
    pub latency_ms: f64,
    /// Wall-clock latency in milliseconds.
    pub wall_ms: f64,
    /// Whether the op ran with spans recorded.
    pub traced: bool,
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops started.
    pub attempted: u64,
    /// Ops whose call or output check failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Every successful op, in order.
    pub ops: Vec<OpSample>,
    /// Work units per second of every whole block, over the sum of the
    /// block's op latencies.
    pub block_rates: Vec<f64>,
    /// Work units completed in the window.
    pub work: u64,
    /// [`host_probe_ms`] times measured between ops, in milliseconds.
    pub calib_ms: Vec<f64>,
}

impl Window {
    /// Median block throughput in work units per second.
    pub fn throughput(&self) -> f64 {
        median(&self.block_rates)
    }

    /// Median op latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ms_of(|_| true)
    }

    /// Median latency of the ops `keep` selects, in milliseconds.
    pub fn p50_ms_of(&self, keep: impl Fn(&OpSample) -> bool) -> f64 {
        let kept: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| keep(op))
            .map(|op| op.latency_ms)
            .collect();
        median(&kept)
    }

    /// Median wall-clock op latency in milliseconds.
    pub fn wall_p50_ms(&self) -> f64 {
        median(&self.ops.iter().map(|op| op.wall_ms).collect::<Vec<_>>())
    }

    /// Pooled op latency at p90, in milliseconds.
    pub fn p90_ms(&self) -> f64 {
        quantile(&self.latencies_ms(), 0.9)
    }

    /// Every op's latency in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.latency_ms).collect()
    }
}

/// The factor that turns a wall-clock time into reference-host time, from
/// the host probe times measured just before and just after it.
fn host_scale(probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    2.0 * REFERENCE_PROBE_MS / (probe_before_ms + probe_after_ms)
}

/// Runs the workload of `setups` in a closed loop for `seconds`.  The host
/// probe runs before the first op and after every op, and the workload is
/// rebuilt between blocks every [`REBUILD_EVERY_S`] seconds; neither is
/// part of any op's time.  A set-up lasts well under a second, so set-ups made
/// in one stretch all see one host phase; made across the window, they see
/// the phases the ops see.  With `alternate_tracing`, spans are recorded
/// in every second block only, so traced and untraced ops interleave under
/// the same host conditions.
///
/// # Errors
///
/// Returns the error of a failed rebuild.
pub fn run_window<W: Workload>(
    setups: &mut Setups<W, impl FnMut() -> Result<W, String>>,
    seconds: f64,
    tracer: &mut Tracer,
    alternate_tracing: bool,
) -> Result<Window, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut workload = setups.rebuild()?;
    let mut rebuilt = Instant::now();
    let per_block = workload.ops_per_block().max(1);
    let mut window = Window::default();
    let mut index = 0u64;
    let mut block = 0u64;
    let mut probe_ms = host_probe_ms();
    while Instant::now() < deadline {
        if rebuilt.elapsed().as_secs_f64() >= REBUILD_EVERY_S {
            workload = setups.rebuild()?;
            rebuilt = Instant::now();
            probe_ms = host_probe_ms();
        }
        let traced = alternate_tracing && block % 2 == 1;
        tracer.set_enabled(traced);
        block += 1;
        let mut block_ms = 0.0;
        let mut block_work = 0u64;
        let mut whole = true;
        for done in 1..=per_block {
            let started = Instant::now();
            let result = workload.op(index, tracer);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let next_probe_ms = host_probe_ms();
            window.calib_ms.push(next_probe_ms);
            let latency_ms = if W::HOST_SCALED {
                wall_ms * host_scale(probe_ms, next_probe_ms)
            } else {
                wall_ms
            };
            probe_ms = next_probe_ms;
            block_ms += latency_ms;
            window.attempted += 1;
            match result {
                Ok(work) => {
                    window.ops.push(OpSample {
                        latency_ms,
                        wall_ms,
                        traced,
                    });
                    block_work += work;
                }
                Err(error) => {
                    window.failed += 1;
                    window.first_error.get_or_insert(error);
                }
            }
            index += 1;
            if done < per_block && Instant::now() >= deadline {
                whole = false;
                break;
            }
        }
        window.work += block_work;
        if whole {
            window.block_rates.push(block_work as f64 / (block_ms / 1e3));
        }
    }
    tracer.set_enabled(false);
    Ok(window)
}

/// The workload under measurement and the times of its set-ups.
/// [`Setups::rebuild`] drops the current workload before it builds the
/// next, so memory holds one at a time, and times the build (host-scaled
/// if the workload is); the median build time is the set-up time.
pub struct Setups<W, F> {
    build: F,
    workload: Option<W>,
    times_s: Vec<f64>,
}

impl<W: Workload, F: FnMut() -> Result<W, String>> Setups<W, F> {
    /// No workload yet; `build` makes one.
    pub fn new(build: F) -> Self {
        Self {
            build,
            workload: None,
            times_s: Vec::new(),
        }
    }

    /// Drops the current workload and builds a new one, timing the build.
    ///
    /// # Errors
    ///
    /// Returns the build's error; the workload is then gone.
    pub fn rebuild(&mut self) -> Result<&mut W, String> {
        self.workload = None;
        let probe_ms = if W::HOST_SCALED { host_probe_ms() } else { 0.0 };
        let started = Instant::now();
        let built = (self.build)()?;
        let mut seconds = started.elapsed().as_secs_f64();
        if W::HOST_SCALED {
            seconds *= host_scale(probe_ms, host_probe_ms());
        }
        self.times_s.push(seconds);
        Ok(self.workload.insert(built))
    }

    /// The median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times_s)
    }

    /// How many set-ups were timed.
    pub fn count(&self) -> usize {
        self.times_s.len()
    }
}

/// The host probe: a fixed scalar matrix product timed in milliseconds.
/// It multiplies a 128 × 72 by a 72 × 64 matrix eight times in 4 × 4 output
/// tiles of sixteen independent multiply-add chains, the throughput-bound
/// pattern of the networks' reference GEMM, on data that stays in L2.  Its
/// work never changes, so its time moves only with the host.  On a shared
/// host it runs up to about 1.8× slower while another tenant keeps the
/// core's second hardware thread busy, as the training ops do; a kernel of
/// dependent multiply-adds, which leaves the core's arithmetic units half
/// idle, slows by only 10–20 % and would not show it.
pub fn host_probe_ms() -> f64 {
    const M: usize = 128;
    const N: usize = 64;
    const K: usize = 72;
    const REPS: usize = 8;
    let a: Vec<f32> = (0..M * K).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..N * K).map(|i| (i % 7) as f32 * 0.02).collect();
    let mut c = vec![0.0f32; M * N];
    let started = Instant::now();
    for _ in 0..REPS {
        let (a, b) = (black_box(&a), black_box(&b));
        for i0 in (0..M).step_by(4) {
            for j0 in (0..N).step_by(4) {
                let mut acc = [[0.0f32; 4]; 4];
                for p in 0..K {
                    let av = [0, 1, 2, 3].map(|r| a[(i0 + r) * K + p]);
                    let bv = [0, 1, 2, 3].map(|s| b[(j0 + s) * K + p]);
                    for (acc_row, &ar) in acc.iter_mut().zip(&av) {
                        for (accv, &bs) in acc_row.iter_mut().zip(&bv) {
                            *accv += ar * bs;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    c[(i0 + r) * N + j0..(i0 + r) * N + j0 + 4].copy_from_slice(acc_row);
                }
            }
        }
        black_box(&mut c);
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f` `samples` times and returns each duration in `unit_scale`
/// units of a second (1e3 for ms, 1e6 for µs).
pub fn time_samples(samples: usize, unit_scale: f64, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * unit_scale
        })
        .collect()
}

/// This process's peak resident set in MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
