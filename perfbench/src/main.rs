//! `berry-perfbench`: the BERRY reproduction's end-to-end benchmark.
//!
//! ```text
//! berry-perfbench --workload <train_step|deploy_rollout> \
//!                 --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed` and sets up, then runs its
//! op in a closed loop on one client for `--seconds`, checking every op's
//! output; it sets up again every few seconds between blocks of ops and
//! reports the median set-up time.  Both workloads report their times in
//! reference-host time, scaled by a host probe run between ops (see
//! `harness::Workload::HOST_SCALED`).  With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` spans are recorded in every second block of the window and
//! the line carries the per-layer metrics instead (spans written to
//! `.bench_out/`).  `perfbench/run.py` builds this binary and forwards
//! the same arguments; `perfbench/NOTES.md` explains the metrics.

mod deploy;
mod harness;
mod probes;
mod serve;
mod trace;
mod train_step;

use deploy::DeployRollout;
use harness::{median, peak_rss_mb, run_window, Setups, Window, Workload};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use trace::{Record, Tracer};
use train_step::TrainStep;

/// Where traced runs write their spans and probes keep scratch files,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics of an untraced run, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, with units.
const PER_LAYER: [(&str, &str); 40] = [
    ("rl.dqn.update_ms", "ms"),
    ("core.robust.update_ms", "ms"),
    ("rl.replay.sample_us", "us"),
    ("nn.forward_ms.c3f2_b32", "ms"),
    ("nn.forward_ms.c5f4_b32", "ms"),
    ("nn.backward_ms.c3f2_b32", "ms"),
    ("nn.backward_ms.c5f4_b32", "ms"),
    ("nn.infer_us.c3f2_b8", "us"),
    ("nn.infer_us.c5f4_b8", "us"),
    ("nn.gemm.gflops.reference", "GFLOP/s"),
    ("nn.gemm.gflops.fast", "GFLOP/s"),
    ("nn.gemm.flops", "count"),
    ("nn.gemm.bytes_computed", "bytes"),
    ("faults.sample_map_us", "us"),
    ("faults.flips_per_map", "count"),
    ("core.perturb.refresh_us", "us"),
    ("core.perturb.inject_us", "us"),
    ("core.eval.classical_ms", "ms"),
    ("core.eval.mission_ms", "ms"),
    ("rl.rollout.steps_per_s", "1/s"),
    ("uav.env.step_us", "us"),
    ("uav.env.reset_us", "us"),
    ("eval.env_steps", "count"),
    ("eval.episodes", "count"),
    ("hw.accelerator.evaluate_us", "us"),
    ("serve.first_row_ms", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("core.rows.encode_us", "us"),
    ("core.rows.parse_us", "us"),
    ("core.campaign.smoke_grid_ms", "ms"),
    ("core.store.hit_us", "us"),
    ("core.store.disk_load_ms", "ms"),
    ("store.trained", "count"),
    ("store.memory_hits", "count"),
    ("rayon.steals", "count"),
    ("rayon.idle_tail_ms", "ms"),
    ("host.calib_ms_p50", "ms"),
    ("host.calib_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.op_covered_pct", "%"),
];

/// Maps an error into a message prefixed with what failed.
pub(crate) fn fail<E: Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        values
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let seed = take("seed")?
        .parse()
        .map_err(fail("--seed must be an unsigned integer"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(fail("--seconds must be a number"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Ops and checks attempted and failed, plus the metrics to print.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one output check as an attempted op.
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {e}");
        }
    }

    fn add_window(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        if let Some(e) = &window.first_error {
            eprintln!("perfbench: {} ops failed, first: {e}", window.failed);
        }
    }

    /// Adds a metric; a non-finite value fails the run and prints as 0.
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.check(Err(format!("metric {name} is {value}")));
            self.metrics.push((name, 0.0, unit));
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Logs what a window measured, with the host probe beside it so a slow
/// host can be told apart from a slow program, and fails the run when
/// fewer than 10 latency samples lie above the p90 it reports.
fn log_window(label: &str, window: &Window, report: &mut Report) {
    let p90 = window.p90_ms();
    let above = window.ops.iter().filter(|op| op.latency_ms > p90).count();
    eprintln!(
        "perfbench: {label}: {} ops ({} failed), {} work units, {} blocks, \
         p50 {:.3} ms (wall clock {:.3} ms), p90 {:.3} ms ({above} samples above), \
         host calib min {:.3} ms p50 {:.3} ms max {:.3} ms",
        window.attempted,
        window.failed,
        window.work,
        window.block_rates.len(),
        window.p50_ms(),
        window.wall_p50_ms(),
        p90,
        window.calib_ms.iter().copied().fold(f64::NAN, f64::min),
        median(&window.calib_ms),
        window.calib_ms.iter().copied().fold(f64::NAN, f64::max),
    );
    report.add_window(window);
    report.check(if above >= 10 {
        Ok(())
    } else {
        Err(format!(
            "only {above} latency samples above p90; the window is too short for a p90"
        ))
    });
}

/// Per-name medians of trace records.
fn layer_medians<'r>(records: impl Iterator<Item = &'r Record>) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(name, _, value) in records {
        by_name.entry(name).or_default().push(value);
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// Runs the timed window and adds the metrics of the requested mode.
fn measure<W: Workload>(
    args: &Args,
    setups: &mut Setups<W, impl FnMut() -> Result<W, String>>,
    report: &mut Report,
) -> Result<(), String> {
    if !args.trace {
        let window = run_window(setups, args.seconds, &mut Tracer::new(false), false)?;
        log_window(&args.workload, &window, report);
        let values = [
            window.throughput(),
            window.p50_ms(),
            window.p90_ms(),
            setups.median_s(),
            peak_rss_mb()?,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            report.metric(name, value, unit);
        }
        return Ok(());
    }

    let mut tracer = Tracer::new(false);
    let window = run_window(setups, args.seconds, &mut tracer, true)?;
    log_window(
        &format!("{} (every second block traced)", args.workload),
        &window,
        report,
    );
    let out = Path::new(OUT_DIR);
    let spans = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&spans)
        .map_err(fail("writing the span file"))?;

    // Layer values the workload's own ops measured win over the probes.
    let span_records: Vec<Record> = tracer
        .self_times()
        .into_iter()
        .filter_map(|(name, op, ns)| {
            let ns_per_unit = if name.ends_with("_ms") {
                1e6
            } else if name.ends_with("_us") {
                1e3
            } else {
                return None;
            };
            Some((name, op, ns / ns_per_unit))
        })
        .collect();
    let mut layer = layer_medians(span_records.iter().chain(tracer.samples()));
    for (name, value) in probes::run_all(args.seed, out)? {
        layer.entry(name).or_insert(value);
    }
    layer.insert("host.calib_ms_p50", median(&window.calib_ms));
    layer.insert(
        "host.calib_ms_max",
        window.calib_ms.iter().copied().fold(f64::NAN, f64::max),
    );
    layer.insert(
        "trace.overhead_pct",
        100.0 * (window.p50_ms_of(|op| op.traced) / window.p50_ms_of(|op| !op.traced) - 1.0),
    );
    layer.insert("trace.op_covered_pct", tracer.op_coverage_pct());
    for (name, unit) in PER_LAYER {
        let value = layer
            .get(name)
            .copied()
            .ok_or_else(|| format!("no value for per-layer metric {name}"))?;
        report.metric(name, value, unit);
    }
    eprintln!(
        "perfbench: spans in {}; setup {:.4} s (median of {})",
        spans.display(),
        setups.median_s(),
        setups.count()
    );
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "train_step" => {
            let mut digests = Vec::new();
            let mut setups = Setups::new(|| {
                let built = TrainStep::setup(args.seed)?;
                digests.push(built.warm_digest);
                Ok(built)
            });
            measure(args, &mut setups, &mut report)?;
            drop(setups);
            eprintln!(
                "perfbench: train_step warm weight digest {:016x}",
                digests[0]
            );
            report.check(if digests.windows(2).all(|d| d[0] == d[1]) {
                Ok(())
            } else {
                Err(format!(
                    "weight digests differ across set-ups of one seed: {digests:x?}"
                ))
            });
        }
        "deploy_rollout" => {
            let mut setups = Setups::new(|| DeployRollout::setup(args.seed));
            report.check(setups.rebuild()?.check_paths_agree());
            measure(args, &mut setups, &mut report)?;
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected train_step or deploy_rollout)"
            ))
        }
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
