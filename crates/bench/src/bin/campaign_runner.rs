//! Executes the full scenario-grid campaign and streams its artifacts.
//!
//! For every cell of the grid selected by the scale (4-cell smoke grid,
//! the paper's 72-cell grid at `quick`, or the 216-cell extended
//! disturbance grid at `paper`), the campaign engine trains the
//! Classical/BERRY policy pair, fault-evaluates both at the scenario's
//! deployment voltage, and attaches the hardware energy and
//! quality-of-flight numbers.  Cells fan out across the rayon shim's
//! work-stealing scheduler with deterministic per-cell seeds and an
//! in-order merge, so re-running with the same `--seed` reproduces the
//! artifacts bit for bit (and `--serial` provably lands on the same rows,
//! one cell at a time).
//!
//! ```text
//! campaign_runner [--scale smoke|quick|paper] [--seed N] [--serial]
//!                 [--out rows.jsonl] [--summary summary.json] [--store DIR]
//!                 [--resume] [--max-rows N]
//!                 [--serve [--addr HOST:PORT] [--max-connections N]]
//! ```
//!
//! Defaults: scale/seed from `BERRY_SCALE` / `BERRY_SEED` (quick / 2023),
//! store from `BERRY_STORE` (in-memory when unset), rows to
//! `CAMPAIGN.jsonl`, summary to `CAMPAIGN_SUMMARY.json`.  Training and
//! evaluation both run the bit-pinned Reference GEMM kernels.  The
//! process exits non-zero if **any** grid cell errors — a campaign with a
//! failed cell is a failed campaign, which is what lets CI gate on it —
//! and the summary is written on *both* paths:
//! `"status": "ok"` with the campaign aggregates on success, `"status":
//! "error"` with the failure and the number of completed rows otherwise
//! (never missing, never stale).
//!
//! **Resume.** `--resume` parses an existing `--out` file, validates every
//! row against the campaign plan (same grid, same seeds), and executes
//! only the cells without rows; a truncated final line — the signature of
//! a killed run — is dropped and its cell re-runs.  Resumed lines are
//! rewritten verbatim and fresh rows interleave in grid order, so the
//! finished artifact is byte-identical to a one-shot run's; with a warm
//! `--store` a resumed campaign retrains **zero** policies.  `--max-rows
//! N` stops the run after N freshly executed rows (exit 0, `"status":
//! "interrupted"` summary) — CI uses it to interrupt a campaign
//! deterministically and then prove `--resume` completes it.
//!
//! **Serve.** `--serve` turns the runner into the resident evaluation
//! server from `berry-serve`: it binds `--addr` (default
//! `127.0.0.1:7878`), keeps one policy store warm across requests, and
//! streams campaign/axis rows to any number of `campaign_client`
//! processes until a shutdown request arrives.  Served rows are
//! byte-identical to this binary's own `--out` artifact — the CI
//! service-smoke job `cmp`s exactly that.
//!
//! With `--store DIR`, trained Classical/BERRY pairs persist as
//! content-addressed flat-weight records: a rerun of the same campaign (or
//! any table runner sharing the seed and scale) retrains **zero** policies
//! and reproduces its artifacts byte for byte — the CI cache-determinism
//! job asserts exactly that.

use berry_bench::{
    parse_scale, print_header, print_store_stats, scale_from_env, seed_from_env, store_from_env,
};
use berry_core::campaign::{
    error_summary_json, interrupted_summary_json, plan_cells, run_grid_resumable_in,
    run_grid_serial_in, CampaignConfig, CampaignSummary, SchedulerStats,
};
use berry_core::experiment::format_table;
use berry_core::rows::{load_resume_state, ResumeState};
use berry_core::{CampaignRow, PolicyStore};
use std::io::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: campaign_runner [--scale smoke|quick|paper] [--seed N] \
                     [--serial] \
                     [--out rows.jsonl] [--summary summary.json] [--store DIR] \
                     [--resume] [--max-rows N] \
                     [--serve [--addr HOST:PORT] [--max-connections N]]";

struct Args {
    config: CampaignConfig,
    serial: bool,
    out: String,
    summary: String,
    store_dir: Option<String>,
    resume: bool,
    max_rows: Option<usize>,
    serve: bool,
    addr: String,
    max_connections: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: CampaignConfig {
            scale: scale_from_env(),
            base_seed: seed_from_env(),
        },
        serial: false,
        out: "CAMPAIGN.jsonl".to_string(),
        summary: "CAMPAIGN_SUMMARY.json".to_string(),
        store_dir: None,
        resume: false,
        max_rows: None,
        serve: false,
        addr: "127.0.0.1:7878".to_string(),
        max_connections: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let name = value(&mut i, "--scale")?;
                args.config.scale = parse_scale(&name)
                    .ok_or_else(|| format!("unknown scale `{name}` (smoke|quick|paper)"))?;
            }
            "--seed" => {
                let raw = value(&mut i, "--seed")?;
                args.config.base_seed = raw
                    .parse()
                    .map_err(|_| format!("--seed needs a u64, got `{raw}`"))?;
            }
            "--serial" => args.serial = true,
            "--out" => args.out = value(&mut i, "--out")?,
            "--summary" => args.summary = value(&mut i, "--summary")?,
            "--store" => args.store_dir = Some(value(&mut i, "--store")?),
            "--resume" => args.resume = true,
            "--max-rows" => {
                let raw = value(&mut i, "--max-rows")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("--max-rows needs a positive integer, got `{raw}`"))?;
                if n == 0 {
                    return Err("--max-rows needs a positive integer, got `0`".to_string());
                }
                args.max_rows = Some(n);
            }
            "--serve" => args.serve = true,
            "--addr" => args.addr = value(&mut i, "--addr")?,
            "--max-connections" => {
                let raw = value(&mut i, "--max-connections")?;
                let n: usize = raw.parse().map_err(|_| {
                    format!("--max-connections needs a positive integer, got `{raw}`")
                })?;
                if n == 0 {
                    return Err("--max-connections needs a positive integer, got `0`".to_string());
                }
                args.max_connections = Some(n);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }
    if args.serial && (args.resume || args.max_rows.is_some()) {
        return Err("--resume/--max-rows need the sharded engine (drop --serial)".to_string());
    }
    if args.serve && (args.serial || args.resume || args.max_rows.is_some()) {
        return Err("--serve is a resident server; drop --serial/--resume/--max-rows".to_string());
    }
    if args.max_connections.is_some() && !args.serve {
        return Err("--max-connections only applies to --serve".to_string());
    }
    Ok(args)
}

/// The artifact writer of a (possibly resumed) run: emits the `rows.jsonl`
/// lines strictly in grid order, interleaving resumed verbatim lines with
/// freshly executed rows, and flushes after every fresh row so a killed
/// process keeps a valid line-complete prefix on disk.
struct RowWriter<'a> {
    out: std::io::BufWriter<std::fs::File>,
    path: &'a str,
    resumed: &'a ResumeState,
    /// Next grid index to write — everything below is on disk.
    next_index: usize,
}

impl<'a> RowWriter<'a> {
    fn new(path: &'a str, resumed: &'a ResumeState) -> std::io::Result<Self> {
        Ok(Self {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            path,
            resumed,
            next_index: 0,
        })
    }

    fn io_error(&self, index: usize, e: std::io::Error) -> berry_core::CoreError {
        berry_core::CoreError::InvalidConfig(format!(
            "failed to stream campaign row {index} to {}: {e}",
            self.path
        ))
    }

    /// Writes every consecutive resumed line starting at the cursor.
    fn drain_resumed(&mut self) -> berry_core::Result<()> {
        while let Some(line) = self.resumed.line(self.next_index) {
            writeln!(self.out, "{line}")
                .map_err(|e| self.io_error(self.next_index, e))?;
            self.next_index += 1;
        }
        self.out.flush().map_err(|e| self.io_error(self.next_index, e))
    }

    /// Writes one freshly executed row (which the engine hands over in
    /// grid order), then any resumed lines it unblocks.
    fn write_fresh(&mut self, row: &CampaignRow) -> berry_core::Result<()> {
        assert_eq!(
            row.index, self.next_index,
            "fresh rows must arrive in grid order with no holes"
        );
        berry_core::failpoint::io_check("rows.write")
            .and_then(|()| writeln!(self.out, "{}", row.to_json_line()))
            .and_then(|()| self.out.flush())
            .map_err(|e| self.io_error(row.index, e))?;
        self.next_index += 1;
        self.drain_resumed()
    }
}

/// What one engine invocation produced: every row of the campaign in grid
/// order (resumed + fresh) and the scheduler telemetry.
struct RunOutcome {
    rows: Vec<CampaignRow>,
    stats: SchedulerStats,
}

/// Runs the campaign, streaming rows through `writer` and tracking the
/// fresh-row count in `fresh_rows` (also maintained on the error path, for
/// diagnostics).  A `--max-rows` stop surfaces as an error with
/// `limit_hit` set — the caller downgrades it to a clean interruption.
fn run(
    args: &Args,
    store: &PolicyStore,
    resumed: &ResumeState,
    writer: &mut RowWriter<'_>,
    fresh_rows: &mut usize,
    limit_hit: &mut bool,
) -> berry_core::Result<RunOutcome> {
    let grid = args.config.grid();
    if args.serial {
        // The serial reference path (one cell at a time, no fan-out);
        // rows are written once the reference run completes.
        let rows = run_grid_serial_in(&grid, args.config.scale, args.config.base_seed, store)?;
        for row in &rows {
            writer.write_fresh(row)?;
            *fresh_rows += 1;
        }
        return Ok(RunOutcome {
            rows,
            stats: SchedulerStats::idle(0),
        });
    }
    // Sharded with per-row streaming: rows flush to disk in grid order as
    // the in-order merge releases them, so a campaign killed midway keeps
    // every flushed row — and a failing write (full disk) cancels the
    // remaining cells instead of burning their compute.
    writer.drain_resumed()?;
    let completed = resumed.completed();
    let (fresh, stats) = run_grid_resumable_in(
        &grid,
        args.config.scale,
        args.config.base_seed,
        store,
        &[],
        &completed,
        &|_| {},
        |_, row| {
            writer.write_fresh(row)?;
            *fresh_rows += 1;
            if args.max_rows == Some(*fresh_rows) {
                *limit_hit = true;
                return Err(berry_core::CoreError::InvalidConfig(format!(
                    "row limit reached ({} fresh rows)",
                    *fresh_rows
                )));
            }
            Ok(())
        },
    )?;
    // Merge resumed and fresh rows back into grid order for the summary.
    let mut rows: Vec<CampaignRow> = resumed.rows_in_order().cloned().collect();
    rows.extend(fresh);
    rows.sort_by_key(|row| row.index);
    Ok(RunOutcome { rows, stats })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Err(e) = berry_core::failpoint::arm_from_env() {
        eprintln!("campaign_runner: bad BERRY_FAILPOINTS: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_runner: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    print_header("scenario-grid campaign", args.config.scale);
    let store = match &args.store_dir {
        Some(dir) => PolicyStore::with_dir(dir)?,
        None => store_from_env(),
    };
    if args.serve {
        // Resident service mode: the campaign flags above still pick the
        // store, but scale/seed/grid come per request from each client.
        let config = berry_serve::ServerConfig {
            max_connections: args
                .max_connections
                .unwrap_or(berry_serve::ServerConfig::default().max_connections),
            ..berry_serve::ServerConfig::default()
        };
        let server = berry_serve::Server::bind_with(&args.addr, store, config)?;
        println!("serving campaign requests on {}", server.local_addr()?);
        server.run()?;
        print_store_stats(server.store());
        println!("server shut down");
        return Ok(());
    }
    let grid = args.config.grid();
    println!(
        "grid:  {} scenarios, base seed {}, {} execution",
        grid.len(),
        args.config.base_seed,
        if args.serial { "serial" } else { "sharded" },
    );

    // An existing artifact is only read under --resume; every row is
    // validated against the plan before its cell is skipped.
    let resumed = if args.resume {
        let plan = plan_cells(&grid, args.config.base_seed);
        match std::fs::read_to_string(&args.out) {
            Ok(text) => {
                let state = load_resume_state(&text, &plan)?;
                println!(
                    "resume: {} of {} rows loaded from {}{}{}",
                    state.len(),
                    grid.len(),
                    args.out,
                    if state.dropped_truncated {
                        " (dropped a truncated final line)"
                    } else {
                        ""
                    },
                    if state.duplicates > 0 {
                        " (ignored duplicate lines)"
                    } else {
                        ""
                    },
                );
                state
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("resume: {} not found, running fresh", args.out);
                ResumeState::empty()
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        ResumeState::empty()
    };

    let start = Instant::now();
    let mut writer = RowWriter::new(&args.out, &resumed)?;
    let mut fresh_rows = 0usize;
    let mut limit_hit = false;
    let outcome = match run(&args, &store, &resumed, &mut writer, &mut fresh_rows, &mut limit_hit) {
        Ok(outcome) => outcome,
        Err(e) if limit_hit => {
            // A --max-rows stop is a controlled interruption, not a
            // failure: the rows on disk are a valid prefix, the summary
            // says "interrupted", and the exit code stays zero so CI can
            // resume in the next step.
            let rows_on_disk = writer.next_index;
            std::fs::write(&args.summary, interrupted_summary_json(rows_on_disk, grid.len()))?;
            print_store_stats(&store);
            println!(
                "campaign interrupted by --max-rows after {rows_on_disk}/{} rows \
                 ({fresh_rows} fresh): {e}",
                grid.len()
            );
            println!("wrote {} and {}", args.out, args.summary);
            return Ok(());
        }
        Err(e) => {
            // A failed cell (or sink) must still leave a *fresh* summary
            // whose status matches the non-zero exit — CI consumers never
            // see streamed rows next to a missing or stale summary.  Both
            // writes are best-effort: if the disk itself is what broke,
            // the original cell/sink error must still reach the exit code
            // and the diagnostics below, not be shadowed by a second
            // write failure.
            let rows_on_disk = writer.next_index;
            if let Err(write_err) = std::fs::write(
                &args.summary,
                error_summary_json(rows_on_disk, grid.len(), &e.to_string()),
            ) {
                eprintln!("could not write error summary {}: {write_err}", args.summary);
            }
            print_store_stats(&store);
            eprintln!(
                "campaign failed after {rows_on_disk}/{} rows: {e}",
                grid.len()
            );
            return Err(e.into());
        }
    };
    let elapsed = start.elapsed().as_secs_f64();

    let summary = CampaignSummary::from_rows(&outcome.rows)
        .with_scheduler(outcome.stats.clone());
    std::fs::write(&args.summary, summary.to_json())?;

    // Human-readable digest: one line per cell.
    let body: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.id.clone(),
                format!("{:.2}", r.voltage_norm),
                format!("{:.1}", r.classical_nav.success_rate * 100.0),
                format!("{:.1}", r.berry_nav.success_rate * 100.0),
                format!("{:.2}x", r.processing.savings_vs_nominal),
                format!("{:.1}", r.quality_of_flight.flight_energy_j),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "Scenario",
                "V/Vmin",
                "Classical %",
                "BERRY %",
                "E-save",
                "E_flight (J)",
            ],
            &body,
        )
    );
    println!(
        "campaign: {} cells in {elapsed:.1} s — mean success classical {:.1} % vs BERRY {:.1} %, \
         BERRY >= classical in {:.0} % of cells",
        summary.scenarios,
        summary.mean_classical_success * 100.0,
        summary.mean_berry_success * 100.0,
        summary.berry_wins_or_ties * 100.0,
    );
    let stats = &outcome.stats;
    println!(
        "scheduler: {} with {} workers, {} steals, {} rows resumed",
        stats.mode, stats.workers, stats.steals, stats.rows_skipped_resumed
    );
    print_store_stats(&store);
    println!("wrote {} and {}", args.out, args.summary);
    Ok(())
}
