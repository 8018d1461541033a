//! Regenerates every table and figure of the paper on the full 25-frame
//! QCIF workload and prints a paper-vs-measured comparison.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rvliw-bench --bin tables \
//!     [-- --write] [--frames N] [--csv DIR] [--bench-json]
//!     [--metrics-out FILE] [--trace FILE] [--threads N] [--spec PATH]
//!     [--cache-dir DIR] [--no-cache] [--substrate S]
//!     [--fault-seed N] [--fault-profile PROFILE]
//!     [--journal FILE] [--resume FILE] [--max-retries N] [--timeout-secs S]
//! cargo run --release -p rvliw-bench --bin tables -- --check BENCH_tables.json \
//!     [--min-cycles-per-sec-ratio R]
//! ```
//!
//! Flags are parsed strictly, through the run-flag parser `rvliw sweep`
//! and `rvliw explore` share: an unknown flag, a missing or malformed
//! value, `--frames 0` or `--timeout-secs 0` is a usage error (exit 2)
//! naming the flag.
//!
//! `--write` replaces the generated block of `EXPERIMENTS.md` at the
//! workspace root, the text between its `BEGIN GENERATED` and `END
//! GENERATED` marker comments; the prose around the block is edited by
//! hand. Missing or misordered markers leave the file untouched. A failed
//! output write (`--write`, `--bench-json`, `--csv`, `--metrics-out`,
//! `--trace`) exits 1 with a message naming the flag and the path.
//! `--threads N` overrides the worker-thread count (default: the
//! `RVLIW_THREADS` environment variable, else all cores; `0` means auto).
//! `--cache-dir DIR` enables the content-addressed scenario result cache:
//! previously simulated scenarios are served from disk instead of being
//! re-simulated, and every table stays bit-identical to the cold path —
//! `--check` against a warm cache is the proof. Without the flag the cache
//! directory comes from `RVLIW_CACHE_DIR` (unset = caching off);
//! `--no-cache` disables it regardless. A `cache: hits=… misses=…` summary
//! goes to stderr, and `--metrics-out` gains a top-level `"cache"` object.
//! `--spec PATH` drives the run from declarative experiment specs instead
//! of the built-in grid: a single `.json` spec file, or a directory whose
//! `table*.json` files (the seven checked-in paper tables under `specs/`)
//! are unioned. The specs must cover the paper grid exactly — this is the
//! proof that the spec layer is behavior-preserving; combine with
//! `--check` to assert the result bit-identical to the golden snapshot.
//! Off-grid specs run through `rvliw sweep` instead.
//! `--bench-json` writes `BENCH_tables.json` (wall time per phase and per
//! table, simulated cycles, cycles per wall second, thread count, and a
//! `"tables"` snapshot of every integer table cell). Host-time
//! measurement beyond that one throughput figure — per-engine cycles/s,
//! the block engine's speedup and fallbacks — is `perfbench/`'s job.
//! `--metrics-out FILE` re-runs every scenario with a counting tracer and
//! writes per-scenario stall/cache/RFU metrics as JSON; scenarios carrying
//! speed-vs-quality metrics contribute a top-level `"quality"` object
//! (never the exact paper grid, so golden artifacts stay byte-stable).
//! `--trace FILE` captures a Chrome `trace_event` JSON (Perfetto-loadable)
//! of the ORIG scenario.
//!
//! `--substrate S` (one of `vliw4`, `scalar`) pins every built-in-grid
//! scenario to that fetch/issue substrate: the paper grid re-runs on a
//! scalar in-order core with the paper's labels, so the printed tables
//! show that core's cycle counts. The substrate *is* the experiment — it
//! changes every cycle number — so it conflicts with
//! `--check`, `--write` and `--bench-json` (the golden artifacts are
//! VLIW-only) and with `--spec` (give the spec a `"substrate"` axis
//! instead; see `specs/cross_substrate.json`). A non-default substrate is
//! recorded in the `--metrics-out` envelope as a top-level `"substrate"`
//! key; the default emits nothing, keeping existing reports byte-stable.
//!
//! `--check FILE` is the regression gate: it re-runs the case study and
//! compares every integer cell of Tables 1–7 against the `"tables"`
//! snapshot committed in FILE, exiting non-zero on any drift. With
//! `--min-cycles-per-sec-ratio R` it additionally fails when the check
//! run's simulation throughput falls below `R` times the
//! `cycles_per_sec` recorded in FILE — the throughput ratchet CI runs at
//! `R = 0.8` to catch >20 % simulator slowdowns (skip it on warm-cache
//! runs only if you want the trivial pass: cached scenarios are served
//! from disk, so the ratio is then meaningless in the other direction).
//!
//! `--fault-profile PROFILE` (one of `none`, `latency`, `flush`,
//! `linebuffer`, `bitflip`, `chaos`) with `--fault-seed N` runs the whole
//! case study under a deterministic seeded fault plan. Failing scenarios
//! are isolated: every other scenario still completes and keeps its
//! measurement, the tables render partially with `[failed]` annotations,
//! a per-scenario failure report goes to stderr, and the process exits
//! non-zero. `--bench-json`, `--write` and `--check` refuse to run under
//! a non-inert plan so golden artifacts are never polluted.
//!
//! `--journal FILE` appends every scenario outcome to FILE (JSONL) as it
//! lands; `--resume FILE` replays the completed entries of a previous
//! run's journal instead of re-simulating them, bit-identically.
//! `--max-retries N` retries transient failures with deterministically
//! reseeded fault substreams; `--timeout-secs S` arms a wall-clock
//! watchdog per scenario attempt. Supervised runs print a `health: …`
//! summary line and `--metrics-out` gains a top-level `"health"` object.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mpeg4_enc::QualityMetrics;
use rvliw_bench::{paper, splice_generated};
use rvliw_core::{
    arch, flag_parse, flag_value, grid_from_specs, run_me_with_tracer, run_summary, CaseStudy,
    ExperimentSpec, HealthReport, RunFlags, Scenario, ScenarioCache, SupervisorConfig,
    TablesSnapshot,
};
use rvliw_fault::{FaultPlan, FaultProfile};
use rvliw_isa::{MachineConfig, Substrate};
use rvliw_mem::MemConfig;
use rvliw_trace::{ChromeTracer, CountingTracer, Json};

/// Writes one CSV per table (machine-readable series for plotting).
fn write_csvs(dir: &str, cs: &CaseStudy) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = |n: &str| format!("{dir}/{n}.csv");
    let mut t1 = String::from("scenario,cycles,speedup,improvement\n");
    for r in &cs.table1().rows {
        t1.push_str(&format!(
            "{},{},{:.4},{:.4}\n",
            r.name, r.cycles, r.speedup, r.improvement
        ));
    }
    std::fs::write(path("table1"), t1)?;

    let mut t2 = String::from("bandwidth,beta,lat,cycles,speedup\n");
    for r in &cs.table2().rows {
        t2.push_str(&format!(
            "{},1,{},{},{:.4}\n{},5,{},{},{:.4}\n",
            r.bw.label(),
            r.lat_b1,
            r.cycles_b1,
            r.speedup_b1,
            r.bw.label(),
            r.lat_b5,
            r.cycles_b5,
            r.speedup_b5
        ));
    }
    std::fs::write(path("table2"), t2)?;

    let mut t3 =
        String::from("bandwidth,lat_b1,lat_b5,pct_latency_increase,pct_speedup_reduction\n");
    for r in &cs.table3().rows {
        t3.push_str(&format!(
            "{},{},{},{:.4},{:.4}\n",
            r.bw.label(),
            r.lat_b1,
            r.lat_b5,
            r.pct_latency_increase,
            r.pct_speedup_reduction
        ));
    }
    std::fs::write(path("table3"), t3)?;

    let mut t4 = String::from("scenario,beta,stall_cycles,reduction_vs_orig\n");
    let tbl4 = cs.table4();
    t4.push_str(&format!("Orig,,{},0\n", tbl4.orig_stalls));
    for r in &tbl4.rows {
        t4.push_str(&format!(
            "{},1,{},{:.4}\n{},5,{},{:.4}\n",
            r.bw.label(),
            r.stalls_b1,
            r.reduction_b1,
            r.bw.label(),
            r.stalls_b5,
            r.reduction_b5
        ));
    }
    std::fs::write(path("table4"), t4)?;

    let tbl5 = cs.table5();
    let mut t5 = String::from("scenario,beta,stall_share\n");
    t5.push_str(&format!("Orig,,{:.5}\n", tbl5.orig_share));
    for r in &tbl5.rows {
        t5.push_str(&format!(
            "{},1,{:.5}\n{},5,{:.5}\n",
            r.bw.label(),
            r.share_b1,
            r.bw.label(),
            r.share_b5
        ));
    }
    std::fs::write(path("table5"), t5)?;

    let mut t6 = String::from("bandwidth,beta,static_cycles,th_speedup,speedup,ratio\n");
    for r in &cs.table6().rows {
        t6.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.4}\n",
            r.bw.label(),
            r.beta,
            r.static_cycles,
            r.th_speedup,
            r.speedup,
            r.ratio
        ));
    }
    std::fs::write(path("table6"), t6)?;

    let mut t7 = String::from("beta,lat,cycles,speedup,rel_share,stalls,stall_reduction\n");
    for r in &cs.table7().rows {
        t7.push_str(&format!(
            "{},{},{},{:.4},{:.4},{},{:.4}\n",
            r.beta, r.lat, r.ex_cycles, r.speedup, r.rel_share, r.stalls, r.stall_reduction
        ));
    }
    std::fs::write(path("table7"), t7)?;
    Ok(())
}

/// Wall-clock of `f`, in seconds.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Reports a usage error and returns the usage-error exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("tables: {message}");
    ExitCode::from(2)
}

/// Reports a failed output write naming its flag and path, and returns
/// the failure exit code (1).
fn output_error(flag: &str, path: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("tables: {flag} {path}: {e}");
    ExitCode::FAILURE
}

/// The per-scenario progress line.
fn progress(label: &str) {
    eprintln!("  scenario {label} …");
}

/// Loads experiment specs from `path`: a single `.json` file, or a
/// directory whose `table*.json` files are loaded in sorted order (other
/// spec files in the directory — off-grid sweeps — are ignored, since they
/// are not part of the paper grid the tables pipeline asserts).
fn load_specs(path: &str) -> Result<Vec<ExperimentSpec>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = if meta.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("table") && n.ends_with(".json"))
            })
            .collect();
        v.sort();
        if v.is_empty() {
            return Err(format!("{path}: no table*.json spec files found"));
        }
        v
    } else {
        vec![std::path::PathBuf::from(path)]
    };
    files
        .drain(..)
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            ExperimentSpec::from_json_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The scenario list of a run: the paper grid from `specs` when given,
/// else the built-in grid under `plan`.
///
/// `substrate` pins every built-in-grid scenario to that fetch/issue
/// substrate (the labels stay the paper's, so the tables render normally
/// with that core's cycle counts). It never reaches the spec path — the
/// CLI rejects `--spec --substrate` and points at the spec's own
/// `"substrate"` axis, whose label suffixes would break the paper-grid
/// coverage check of [`grid_from_specs`].
fn case_grid(
    specs: Option<&[ExperimentSpec]>,
    plan: FaultPlan,
    substrate: Option<Substrate>,
) -> Result<Vec<Scenario>, String> {
    match specs {
        Some(specs) => grid_from_specs(specs).map_err(|e| e.to_string()),
        None => Ok(CaseStudy::scenarios()
            .into_iter()
            .map(|sc| sc.with_fault_plan(plan))
            .map(|sc| match substrate {
                Some(su) => sc.with_substrate(su),
                None => sc,
            })
            .collect()),
    }
}

/// `v` as a JSON number with `decimals` decimals, or `null` when it is not
/// finite (a workload without `GetSad` calls simulates zero cycles).
fn json_f64(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_owned()
    }
}

/// The `"quality"` JSON object: per-scenario speed-vs-quality metrics.
/// Only scenarios carrying a quality block contribute — the exact paper
/// grid never does, which keeps the golden bench envelope byte-stable.
fn quality_json(items: &[(String, QualityMetrics)]) -> String {
    let mut s = String::from("{\n");
    for (i, (label, q)) in items.iter().enumerate() {
        let comma = if i + 1 == items.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    \"{label}\": {{\"sad_inflation\": {}, \"psnr_delta_db\": {}}}{comma}",
            json_f64(q.sad_inflation, 6),
            json_f64(q.psnr_delta_db, 6)
        );
    }
    s.push_str("  }");
    s
}

/// The per-scenario quality blocks of every successful result, in run
/// order (empty for exact full-quality grids).
fn collect_quality(cs: &CaseStudy) -> Vec<(String, QualityMetrics)> {
    cs.results()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|r| r.quality.map(|q| (r.label.clone(), q)))
        .collect()
}

/// Prints the shared run summary (cache traffic + supervision health)
/// after a run, through the same formatting helper `rvliw sweep` uses.
fn report_run(cache: Option<&ScenarioCache>, health: Option<&HealthReport>) {
    let summary = run_summary(cache.map(ScenarioCache::counts).as_ref(), health);
    if !summary.is_empty() {
        eprintln!("{summary}");
    }
}

/// The regression gate: re-runs the case study (spec-driven when `specs`
/// is given) and diffs every integer table cell against the `"tables"`
/// snapshot committed in `path`.
fn run_check(
    path: &str,
    specs: Option<&[ExperimentSpec]>,
    flags: &RunFlags,
    min_cps_ratio: Option<f64>,
    config: &SupervisorConfig,
) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tables --check: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("tables --check: {path}: invalid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(tables) = json.get("tables") else {
        eprintln!(
            "tables --check: {path} has no \"tables\" snapshot; \
             regenerate it with `tables --bench-json`"
        );
        return ExitCode::from(2);
    };
    let baseline = match TablesSnapshot::from_json(tables) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("tables --check: {path}: bad \"tables\" snapshot: {e}");
            return ExitCode::from(2);
        }
    };
    let frames = json.get("frames").and_then(Json::as_u64).unwrap_or(25) as usize;
    let how = if specs.is_some() {
        "from specs"
    } else {
        "from the built-in grid"
    };
    eprintln!("tables --check: re-running the case study {how} on {frames} QCIF frames …");
    let run = case_grid(specs, FaultPlan::none(), None)
        .and_then(|scenarios| Ok((scenarios, flags.open_workload(frames)?)));
    let (scenarios, (workload, cache)) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tables --check: {e}");
            return ExitCode::from(2);
        }
    };
    let t_run = Instant::now();
    let (cs, health) = CaseStudy::run_scenarios_supervised(
        &scenarios,
        &workload,
        flags.threads,
        progress,
        cache.as_ref(),
        config,
    );
    let run_wall_s = t_run.elapsed().as_secs_f64();
    report_run(cache.as_ref(), config.is_active().then_some(&health));
    let fresh = TablesSnapshot::capture(&cs);
    let drift = fresh.diff(&baseline);
    if drift.is_empty() {
        eprintln!(
            "tables --check: OK — {} table cells bit-identical to {path}",
            fresh.cells.len()
        );
        if let Some(ratio) = min_cps_ratio {
            // The throughput ratchet: the check run must sustain at least
            // `ratio` of the cycles/sec recorded in the golden envelope.
            let Some(recorded) = json
                .get("cycles_per_sec")
                .and_then(Json::as_f64)
                .filter(|v| *v > 0.0)
            else {
                eprintln!(
                    "tables --check: {path} records no usable \"cycles_per_sec\"; \
                     regenerate it with `tables --bench-json` before gating throughput"
                );
                return ExitCode::from(2);
            };
            let simulated: u64 = cs
                .results()
                .filter_map(|r| r.as_ref().ok())
                .map(|r| r.me_cycles)
                .sum();
            let achieved = simulated as f64 / run_wall_s;
            eprintln!(
                "tables --check: throughput {:.1}M cycles/sec vs recorded {:.1}M \
                 (ratio {:.2}, floor {ratio:.2})",
                achieved / 1e6,
                recorded / 1e6,
                achieved / recorded
            );
            if achieved < ratio * recorded {
                eprintln!(
                    "tables --check: FAIL — simulation throughput regressed below \
                     {ratio:.2}x the recorded baseline"
                );
                return ExitCode::FAILURE;
            }
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tables --check: FAIL — {} cell(s) drifted from {path}:",
            drift.len()
        );
        for line in &drift {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut bench_json = false;
    let mut check_path: Option<&str> = None;
    let mut csv_dir: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut spec_path: Option<&str> = None;
    let mut min_cps_ratio: Option<f64> = None;
    let mut fault_seed = 0u64;
    let mut fault_profile = FaultProfile::None;
    let mut substrate: Option<Substrate> = None;
    let parsed = RunFlags::parse(&args, |arg, it| {
        match arg {
            "--write" => write = true,
            "--bench-json" => bench_json = true,
            "--check" => check_path = Some(flag_value(arg, it)?),
            "--csv" => csv_dir = Some(flag_value(arg, it)?),
            "--metrics-out" => metrics_path = Some(flag_value(arg, it)?),
            "--trace" => trace_path = Some(flag_value(arg, it)?),
            "--spec" => spec_path = Some(flag_value(arg, it)?),
            "--min-cycles-per-sec-ratio" => match flag_parse::<f64>(arg, it)? {
                r if r > 0.0 && r.is_finite() => min_cps_ratio = Some(r),
                r => return Err(format!("{arg}: {r} is not a positive ratio")),
            },
            "--fault-seed" => fault_seed = flag_parse(arg, it)?,
            "--fault-profile" => fault_profile = flag_parse(arg, it)?,
            "--substrate" => substrate = Some(flag_parse(arg, it)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let flags = match parsed {
        Ok(flags) => flags,
        Err(e) => return usage_error(&e),
    };
    let threads = flags.threads;
    let plan = FaultPlan::from_profile(fault_profile, fault_seed);
    let specs = match spec_path.map(load_specs).transpose() {
        Ok(specs) => specs,
        Err(e) => return usage_error(&format!("--spec: {e}")),
    };
    if specs.is_some() && !plan.is_inert() {
        return usage_error(
            "--spec and --fault-profile conflict; put the fault profile \
             in the spec's \"fault\" object instead",
        );
    }
    if substrate.is_some() && specs.is_some() {
        return usage_error(
            "--spec and --substrate conflict; put the substrate in the \
             spec's \"substrate\" axis instead",
        );
    }
    let config = match flags.supervisor() {
        Ok(config) => config,
        Err(e) => return usage_error(&e),
    };
    if let Some(file) = check_path {
        if !plan.is_inert() {
            return usage_error("--check compares against golden tables; drop --fault-profile");
        }
        if substrate.is_some() {
            return usage_error("--check compares against golden VLIW tables; drop --substrate");
        }
        return run_check(file, specs.as_deref(), &flags, min_cps_ratio, &config);
    }
    if min_cps_ratio.is_some() {
        return usage_error("--min-cycles-per-sec-ratio only applies with --check");
    }
    if !plan.is_inert() && (write || bench_json) {
        return usage_error(&format!(
            "refusing to rewrite golden artifacts (--write / --bench-json) \
             under fault profile `{fault_profile}`"
        ));
    }
    if substrate.is_some() && (write || bench_json) {
        return usage_error(
            "refusing to rewrite golden artifacts (--write / --bench-json) \
             under a forced --substrate; the checked-in tables are VLIW-only",
        );
    }
    let scenarios = match case_grid(specs.as_deref(), plan, substrate) {
        Ok(scenarios) => scenarios,
        Err(e) => return usage_error(&e),
    };
    let frames = match (flags.frames, &specs) {
        (Some(n), _) => n,
        // Without an explicit override every spec must agree on the
        // workload length — the scenarios share one encoded sequence.
        (None, Some(specs)) => {
            let frames = specs.first().map_or(25, |s| s.frames);
            if let Some(odd) = specs.iter().find(|s| s.frames != frames) {
                return usage_error(&format!(
                    "specs disagree on frames ({} wants {}, `{}` wants {}); \
                     pass --frames to override",
                    specs[0].name, frames, odd.name, odd.frames
                ));
            }
            frames
        }
        (None, None) => 25,
    };

    let mut out = String::new();
    let t0 = Instant::now();
    eprintln!("generating + encoding the {frames}-frame QCIF workload …");
    let t_encode = Instant::now();
    let (workload, cache) = match flags.open_workload(frames) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let encode_wall_s = t_encode.elapsed().as_secs_f64();
    let (n, h, v, d) = workload.report.interp_shares();
    let _ = writeln!(
        out,
        "# Reproduction run: {} frames QCIF, {} GetSad calls\n",
        frames,
        workload.num_calls()
    );
    let _ = writeln!(
        out,
        "workload: mean luma PSNR {:.2} dB, {} bits total; GetSad interpolation mix:",
        workload.report.mean_psnr_y(),
        workload.report.total_bits
    );
    let _ = writeln!(
        out,
        "  none {:.1}%  H {:.1}%  V {:.1}%  diagonal {:.1}%  (paper: diagonal ≈ {:.0}%)\n",
        n * 100.0,
        h * 100.0,
        v * 100.0,
        d * 100.0,
        paper::DIAG_CALL_SHARE * 100.0
    );

    if let Some(su) = substrate {
        eprintln!("pinning every scenario to the `{su}` substrate");
    }
    if plan.is_inert() {
        eprintln!("running the 12 architecture scenarios on {threads} thread(s) …");
    } else {
        eprintln!(
            "running the 12 architecture scenarios on {threads} thread(s) \
             under fault profile `{fault_profile}`, seed {fault_seed} …"
        );
    }
    let t_scenarios = Instant::now();
    let (cs, health) = CaseStudy::run_scenarios_supervised(
        &scenarios,
        &workload,
        threads,
        progress,
        cache.as_ref(),
        &config,
    );
    let scenarios_wall_s = t_scenarios.elapsed().as_secs_f64();
    report_run(cache.as_ref(), config.is_active().then_some(&health));

    let _ = writeln!(out, "```\n{}\n```\n", cs.table1());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table2());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table3());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table4());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table5());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table6());
    let _ = writeln!(out, "```\n{}\n```\n", cs.table7());

    // ---- paper vs measured ------------------------------------------------
    let _ = writeln!(out, "## Paper vs measured\n");
    let _ = writeln!(out, "| experiment | quantity | paper | measured |");
    let _ = writeln!(out, "|---|---|---|---|");
    let t1 = cs.table1();
    for (name, p) in paper::T1_IMPROVEMENT {
        let m = t1
            .rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.improvement)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "| Table 1 | {name} %improvement | {:.0}% | {:.1}% |",
            p * 100.0,
            m * 100.0
        );
    }
    let t2 = cs.table2();
    for (label, p) in paper::T2_SPEEDUP_B1 {
        let m = t2
            .rows
            .iter()
            .find(|r| r.bw.label() == label)
            .map(|r| r.speedup_b1)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "| Table 2 | {label} speedup (b=1) | {p:.2} | {m:.2} |");
    }
    let _ = writeln!(
        out,
        "| Table 2 | 1x32 speedup (b=5) | {:.2} | {:.2} |",
        paper::T2_SPEEDUP_1X32_B5,
        t2.rows.first().map_or(f64::NAN, |r| r.speedup_b5)
    );
    let t3 = cs.table3();
    let _ = writeln!(
        out,
        "| Table 3 | latency increase b=1→5 | +{} cycles (all) | +{} cycles (all) |",
        paper::T3_FIXED_LATENCY_INCREASE,
        t3.rows.first().map_or(0, |r| r.lat_b5 - r.lat_b1)
    );
    let _ = writeln!(
        out,
        "| Table 3 | 2x64 speedup reduction | {:.1}% | {:.1}% |",
        paper::T3_SPEEDUP_REDUCTION_2X64 * 100.0,
        t3.rows.get(2).map_or(f64::NAN, |r| r.pct_speedup_reduction) * 100.0
    );
    let t5 = cs.table5();
    let _ = writeln!(
        out,
        "| Table 5 | Orig stall share of ME | {:.2}% | {:.2}% |",
        paper::T5_ORIG_STALL_SHARE * 100.0,
        t5.orig_share * 100.0
    );
    for (label, p) in paper::T5_STALL_SHARE_B5 {
        let m = t5
            .rows
            .iter()
            .find(|r| r.bw.label() == label)
            .map(|r| r.share_b5)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "| Table 5 | {label} stall share (b=5) | {:.1}% | {:.1}% |",
            p * 100.0,
            m * 100.0
        );
    }
    let t6 = cs.table6();
    let min_ratio = t6.rows.iter().map(|r| r.ratio).fold(f64::NAN, f64::min);
    let _ = writeln!(
        out,
        "| Table 6 | min S.Up/Th.S.Up ratio | > {:.0}% | {:.0}% |",
        paper::T6_MIN_RATIO * 100.0,
        min_ratio * 100.0
    );
    let t7 = cs.table7();
    for (beta, p) in paper::T7_SPEEDUP {
        let m = t7
            .rows
            .iter()
            .find(|r| r.beta == beta)
            .map(|r| r.speedup)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "| Table 7 | 2-LB speedup (b={beta}) | {p:.1} | {m:.2} |"
        );
    }
    for (beta, p) in paper::T7_REL_SHARE {
        let m = t7
            .rows
            .iter()
            .find(|r| r.beta == beta)
            .map(|r| r.rel_share)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "| Table 7 | %Rel (b={beta}) | {:.2}% | {:.2}% |",
            p * 100.0,
            m * 100.0
        );
    }
    let min_red = t7
        .rows
        .iter()
        .map(|r| r.stall_reduction)
        .fold(f64::NAN, f64::min);
    let _ = writeln!(
        out,
        "| Table 7 | stall reduction | ≥ {:.0}% | {:.0}% |",
        paper::T7_MIN_STALL_REDUCTION * 100.0,
        min_red * 100.0
    );

    // ---- cycle breakdown -----------------------------------------------------
    let _ = writeln!(out, "\n## Where the cycles go (per scenario)\n");
    let _ = writeln!(out, "```");
    for r in cs.results() {
        match r {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:>10}: {}",
                    r.label,
                    rvliw_core::CycleBreakdown::of(r)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:>10}: [failed] {e}", e.label());
            }
        }
    }
    let _ = writeln!(out, "```\n");

    // ---- figures -----------------------------------------------------------
    let _ = writeln!(out, "## Figure 1 (architecture)\n");
    let _ = writeln!(
        out,
        "```\n{}\n```",
        arch::describe(&MachineConfig::st200(), &MemConfig::st200_loop_level())
    );
    let _ = writeln!(
        out,
        "\n## Figure 2 (predictor data set, alignment 3, diagonal)\n"
    );
    let _ = writeln!(
        out,
        "```\n{}```",
        mpeg4_enc::footprint::render(3, mpeg4_enc::sad::InterpKind::Diag)
    );

    println!("{out}");
    let total_wall_s = t0.elapsed().as_secs_f64();
    eprintln!("total runtime: {total_wall_s:.1}s");
    if bench_json {
        let table_wall_s: Vec<(&str, f64)> = vec![
            ("table1", secs(|| drop(cs.table1()))),
            ("table2", secs(|| drop(cs.table2()))),
            ("table3", secs(|| drop(cs.table3()))),
            ("table4", secs(|| drop(cs.table4()))),
            ("table5", secs(|| drop(cs.table5()))),
            ("table6", secs(|| drop(cs.table6()))),
            ("table7", secs(|| drop(cs.table7()))),
        ];
        let simulated_cycles: u64 = cs
            .results()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.me_cycles)
            .sum();
        let cycles_per_sec = simulated_cycles as f64 / scenarios_wall_s;
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bin\": \"tables\",");
        let _ = writeln!(json, "  \"threads\": {threads},");
        let _ = writeln!(json, "  \"frames\": {frames},");
        let _ = writeln!(json, "  \"getsad_calls\": {},", workload.num_calls());
        let _ = writeln!(json, "  \"scenarios\": 12,");
        let _ = writeln!(json, "  \"encode_wall_s\": {encode_wall_s:.3},");
        let _ = writeln!(json, "  \"scenarios_wall_s\": {scenarios_wall_s:.3},");
        let _ = writeln!(json, "  \"tables_wall_s\": {{");
        let tables_total: f64 = table_wall_s.iter().map(|(_, s)| s).sum();
        for (name, s) in &table_wall_s {
            let _ = writeln!(json, "    \"{name}\": {s:.6},");
        }
        let _ = writeln!(json, "    \"total\": {tables_total:.6}");
        let _ = writeln!(json, "  }},");
        let _ = writeln!(json, "  \"total_wall_s\": {total_wall_s:.3},");
        let _ = writeln!(json, "  \"simulated_cycles\": {simulated_cycles},");
        let _ = writeln!(json, "  \"cycles_per_sec\": {cycles_per_sec:.0},");
        let quality = collect_quality(&cs);
        if !quality.is_empty() {
            let _ = writeln!(json, "  \"quality\": {},", quality_json(&quality));
        }
        let _ = writeln!(
            json,
            "  \"tables\": {}",
            TablesSnapshot::capture(&cs).to_json()
        );
        json.push_str("}\n");
        Json::parse(&json).expect("generated bench report must be valid JSON");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tables.json");
        if let Err(e) = std::fs::write(path, json) {
            return output_error("--bench-json", path, e);
        }
        eprintln!("wrote {path}");
    }
    if let Some(dir) = csv_dir {
        if let Err(e) = write_csvs(dir, &cs) {
            return output_error("--csv", dir, e);
        }
        eprintln!("wrote table CSVs to {dir}");
    }
    if let Some(path) = metrics_path {
        eprintln!("collecting per-scenario tracer metrics …");
        let mut entries = Vec::new();
        // Non-default substrates are recorded in the envelope so a scalar
        // metrics file can never be mistaken for a VLIW one; the default
        // emits nothing, keeping existing reports byte-stable.
        if let Some(su) = substrate.filter(|&su| su != Substrate::default()) {
            entries.push(format!("\"substrate\": \"{}\"", su.name()));
        }
        let mut quality: Vec<(String, QualityMetrics)> = Vec::new();
        for sc in &scenarios {
            let mut tracer = CountingTracer::new();
            match run_me_with_tracer(sc, &workload, &mut tracer) {
                Ok(r) => {
                    if let Some(q) = r.quality {
                        quality.push((r.label.clone(), q));
                    }
                    entries.push(format!(
                        "\"{}\": {}",
                        r.label,
                        tracer.to_metrics_json().trim_end()
                    ));
                }
                Err(e) => eprintln!("  metrics: skipping failed scenario: {e}"),
            }
        }
        if !quality.is_empty() {
            entries.push(format!("\"quality\": {}", quality_json(&quality)));
        }
        if let Some(cache) = &cache {
            // Cache traffic of the table run above (the tracer replays are
            // never cached — they measure, they don't simulate afresh).
            entries.push(format!("\"cache\": {}", cache.counts().to_json()));
        }
        // Health of the table run above: attempts, retries, timeouts,
        // quarantined keys, slowest scenarios.
        entries.push(format!("\"health\": {}", health.to_json()));
        let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
        Json::parse(&json).expect("generated metrics must be valid JSON");
        if let Err(e) = std::fs::write(path, &json) {
            return output_error("--metrics-out", path, e);
        }
        eprintln!("wrote per-scenario metrics to {path}");
    }
    if let Some(path) = trace_path {
        eprintln!("capturing a Chrome trace of the ORIG scenario …");
        let mut tracer = ChromeTracer::without_bundles();
        if let Err(e) = run_me_with_tracer(
            &Scenario::orig().with_fault_plan(plan),
            &workload,
            &mut tracer,
        ) {
            eprintln!("  note: ORIG replay failed ({e}); the trace covers the run up to the fault");
        }
        if tracer.dropped > 0 {
            eprintln!(
                "  note: {} events dropped past the {}-event cap",
                tracer.dropped,
                ChromeTracer::DEFAULT_MAX_EVENTS
            );
        }
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            return output_error("--trace", path, e);
        }
        eprintln!("wrote Chrome trace ({} events) to {path}", tracer.len());
    }
    if write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let written = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|doc| splice_generated(&doc, &out))
            .and_then(|doc| std::fs::write(path, doc).map_err(|e| e.to_string()));
        if let Err(e) = written {
            return output_error("--write", path, e);
        }
        eprintln!("wrote the generated block of {path}");
    }
    let failures = cs.failures();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tables: {} of {} scenarios failed (the others completed and keep \
             their measurements):",
            failures.len(),
            cs.results().count()
        );
        for e in &failures {
            eprintln!("  {e}");
        }
        ExitCode::FAILURE
    }
}
