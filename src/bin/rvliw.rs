//! `rvliw` — command-line front end for the toolchain.
//!
//! ```text
//! rvliw tables                 run the paper's 12 scenarios on the 25-frame
//!                              QCIF workload and print Tables 1–7, the
//!                              paper-vs-measured comparison, the cycle
//!                              breakdown and Figures 1–2
//! rvliw sweep <spec.json>      expand and run a declarative experiment spec
//!                              (also: rvliw sweep --spec <spec.json>)
//! rvliw explore <spec.json>    budgeted design-space exploration: run a
//!                              search strategy over an explore spec and
//!                              print the Pareto-front JSON
//! rvliw asm <file.s>           parse + schedule, print the bundled code
//! rvliw run <file.s> [rN=V..]  assemble and execute; prints changed GPRs
//! rvliw trace <file.s> [rN=V]  like run, with a per-bundle execution trace
//! rvliw cache <stats|clear|verify>  inspect the scenario result cache
//! rvliw arch                   print the Figure 1 block diagram
//! ```
//!
//! `tables`, `sweep` and `explore` share the run flags (one strict parser,
//! `RunFlags`, except `--metrics-out`, which each command fills itself):
//!
//! ```text
//! --threads N         worker threads (0 = auto; default: RVLIW_THREADS or
//!                     all cores)
//! --frames N          QCIF workload length (tables: default 25; sweep and
//!                     explore: override the spec's)
//! --cache-dir DIR     reuse cached scenario results from DIR (also:
//!                     RVLIW_CACHE_DIR); results are bit-identical to an
//!                     uncached run, a summary line reports hits/misses
//! --no-cache          ignore --cache-dir / RVLIW_CACHE_DIR for this run
//! --journal FILE      append every scenario outcome to FILE (JSONL) as
//!                     it lands, so an interrupted run can resume
//! --resume FILE       replay completed entries from a previous run's
//!                     journal instead of re-simulating them; the results
//!                     are bit-identical to an uninterrupted run
//! --max-retries N     retry transient failures (injected faults, cycle
//!                     budget trips, timeouts) up to N extra attempts
//!                     with deterministic reseeded fault substreams
//! --timeout-secs N    wall-clock watchdog per scenario attempt; a hung
//!                     simulation becomes a TimedOut error instead of
//!                     stalling the run
//! --metrics-out FILE  write the run's metrics envelope as JSON (schema 1)
//!                     from its own results, re-simulating nothing: cache
//!                     counters, and for tables and sweep every successful
//!                     scenario's measurement under "scenarios", quality
//!                     blocks and the health report (attempts, retries,
//!                     timeouts, quarantined keys, slowest scenarios);
//!                     explore records evaluation and revisit counts with
//!                     an empty "scenarios" object (its frontier JSON is
//!                     the result, and stays byte-stable)
//! ```
//!
//! Supervised runs (any of `--journal`, `--resume`, `--max-retries`,
//! `--timeout-secs`) print a `health: …` summary line to stderr.
//!
//! `tables` also accepts:
//!
//! ```text
//! --check FILE        gate the run it prints on the snapshot in FILE
//!                     (BENCH_tables.json): FILE's "frames" sets the
//!                     workload length, and after every other output is
//!                     written any Table 1–7 cell that differs fails the run
//! --write             replace the text between the BEGIN/END GENERATED
//!                     markers of EXPERIMENTS.md with the report
//! --bench-json        write BENCH_tables.json: wall time per phase,
//!                     simulated cycles, cycles per wall second, thread
//!                     count and a "tables" snapshot of every integer cell
//! --csv DIR           write one CSV per table (table1.csv … table7.csv)
//! --trace FILE        write a Chrome trace_event JSON of the ORIG scenario
//! --fault-profile P   run every scenario under a deterministic seeded
//!                     fault plan (none | latency | flush | linebuffer |
//!                     bitflip | chaos); failed scenarios render as
//!                     [failed] and the run exits 1
//! --fault-seed N      seed for the fault plan (default 0)
//! --substrate S       run the paper grid, with its labels, on one
//!                     fetch/issue substrate (vliw4 | scalar)
//! ```
//!
//! `--write` and `--bench-json` write into the repository the binary was
//! built from. They and `--check` refuse a fault plan or `--substrate`
//! (the golden artifacts are fault-free VLIW runs), and `--check` refuses
//! `--bench-json`, which would rewrite the snapshot it checks.
//!
//! `sweep` also accepts:
//!
//! ```text
//! --spec FILE         the spec file (equivalent to the positional path)
//! --out FILE          also write the result matrix as JSON
//! --pareto            print the cycles-vs-quality Pareto partition as
//!                     JSON (rows without a quality block are skipped)
//! --pareto-out FILE   write that partition to FILE instead of stdout
//! --substrate S       force one fetch/issue substrate (vliw4 | scalar) on
//!                     every sweep axis, overriding the spec's `substrate`
//!                     arrays; cross-substrate specs report per-scenario
//!                     cycle ratios after the matrix
//! ```
//!
//! `explore` also accepts:
//!
//! ```text
//! --spec FILE         the explore spec (equivalent to the positional path)
//! --seed N            search seed (default 0); for a fixed seed the
//!                     printed frontier JSON is byte-identical at any
//!                     thread count and on cold or warm caches
//! --out FILE          also write the outcome JSON to FILE
//! ```
//!
//! `run` and `trace` accept:
//!
//! ```text
//! --trace FILE        write a Chrome trace_event JSON of the run (load it
//!                     in chrome://tracing or https://ui.perfetto.dev)
//! --metrics-out FILE  write stall/cache/RFU counters and per-PC stall
//!                     histograms as JSON
//! --fault-profile P   run under a deterministic seeded fault plan
//!                     (none | latency | flush | linebuffer | bitflip | chaos)
//! --fault-seed N      seed for the fault plan (default 0)
//! --substrate S       fetch/issue substrate (vliw4 | scalar); same
//!                     architectural results, different cycle counts
//! ```
//!
//! `cache` manages the scenario result cache (the directory comes from
//! `--cache-dir` or `RVLIW_CACHE_DIR`) with its own strict argument list:
//!
//! ```text
//! rvliw cache stats   [--cache-dir DIR] [--json]        entry count + size
//! rvliw cache clear   [--cache-dir DIR]                 delete every entry
//! rvliw cache verify  [--cache-dir DIR] [--sample N] [--threads N]
//!                     re-simulate up to N entries (default 4) and compare
//!                     with the stored results; a divergence is a typed
//!                     error and a non-zero exit
//! ```
//!
//! An argument error (an unknown or malformed flag, a bad register
//! override, a missing spec path, an unreadable `--check` snapshot) exits
//! 2 with a message naming it; a run that fails (a failed scenario, a
//! drifted table cell, a failed output write) exits 1.
//!
//! Programs use the listing syntax of `rvliw::asm::parse_program` (see
//! `examples/assemble_and_run.rs`); spec files use the schema documented
//! in EXPERIMENTS.md § "Writing your own sweep".

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rvliw::asm::{parse_program, schedule_st200, Code};
use rvliw::exp::{
    arch, flag_parse, flag_value, quality_json, run_explore, run_me_with_tracer, run_summary,
    CaseStudy, ExperimentSpec, ExploreSpec, RunFlags, RunMetrics, Scenario, ScenarioCache,
    SimSession, Sweep, TablesSnapshot,
};
use rvliw::fault::{FaultPlan, FaultProfile};
use rvliw::isa::{Bundle, Gpr, MachineConfig, Substrate};
use rvliw::mem::MemConfig;
use rvliw::trace::{ChromeTracer, CountingTracer, Json, NullTracer, TeeTracer, Tracer};
use rvliw_bench::{report, splice_generated, write_csvs};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvliw tables [--check FILE] [--write] [--bench-json] [--csv DIR] [--trace FILE]\n       \
         [--fault-profile PROFILE] [--fault-seed N] [--substrate S] [RUN FLAGS]\n       \
         rvliw sweep <spec.json | --spec FILE> [--out FILE] [--pareto] [--pareto-out FILE]\n       \
         [--substrate S] [RUN FLAGS]\n       \
         rvliw explore <spec.json | --spec FILE> [--seed N] [--out FILE] [RUN FLAGS]\n       \
         rvliw <asm|run|trace> <file.s> [rN=value ...] [--trace FILE] [--metrics-out FILE]\n       \
         [--fault-profile PROFILE] [--fault-seed N] [--substrate S]\n       \
         rvliw cache <stats|clear|verify> [--cache-dir DIR] [--json] [--sample N] [--threads N]\n       \
         rvliw arch\n\
         RUN FLAGS: [--threads N] [--frames N] [--cache-dir DIR] [--no-cache] [--journal FILE]\n       \
         [--resume FILE] [--max-retries N] [--timeout-secs N] [--metrics-out FILE]"
    );
    ExitCode::from(2)
}

/// Why a command failed: bad arguments (exit 2, as for [`usage`]) or a
/// run that could not complete (exit 1).
enum Fail {
    Usage(String),
    Run(String),
}

impl From<String> for Fail {
    fn from(e: String) -> Self {
        Fail::Run(e)
    }
}

fn load(path: &str) -> Result<Code, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_program(path, &text).map_err(|e| format!("{path}:{e}"))?;
    program.validate().map_err(|e| format!("{path}: {e}"))?;
    schedule_st200(&program).map_err(|e| format!("{path}: {e}"))
}

/// Parses `rN=value` argument overrides. A value is decimal (negative
/// values wrap to their two's-complement bit pattern) or `0x` hex, and
/// must fit a 32-bit register: `i32::MIN..=u32::MAX`.
fn parse_regs(args: &[String]) -> Result<Vec<(Gpr, u32)>, String> {
    let mut out = Vec::new();
    for a in args {
        let (reg, val) = a
            .split_once('=')
            .ok_or_else(|| format!("bad register override `{a}` (want rN=value)"))?;
        let reg: Gpr = reg.parse().map_err(|e| format!("`{a}`: {e}"))?;
        let val = if let Some(hex) = val.strip_prefix("0x") {
            u32::from_str_radix(hex, 16).map_err(|e| format!("`{a}`: {e}"))?
        } else {
            let v = val.parse::<i64>().map_err(|e| format!("`{a}`: {e}"))?;
            if v < i64::from(i32::MIN) || v > i64::from(u32::MAX) {
                return Err(format!(
                    "`{a}`: {v} does not fit a 32-bit register (want {}..={})",
                    i32::MIN,
                    u32::MAX
                ));
            }
            v as u32
        };
        out.push((reg, val));
    }
    Ok(out)
}

/// The per-bundle listing printed by `rvliw trace`.
fn print_bundle(cycle: u64, pc: usize, bundle: &Bundle) {
    let ops: Vec<String> = bundle.ops().iter().map(ToString::to_string).collect();
    println!("{cycle:>6} {pc:>4}  {}", ops.join("  ||  "));
}

fn execute(path: &str, rest: &[String], trace: bool) -> Result<(), Fail> {
    let mut regs: Vec<String> = Vec::new();
    let mut trace_out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut fault_seed = 0u64;
    let mut fault_profile = FaultProfile::None;
    let mut substrate = Substrate::Vliw4;
    let mut parse_args = || -> Result<(), String> {
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            let arg = a.as_str();
            match arg {
                "--trace" => trace_out = Some(flag_value(arg, &mut it)?),
                "--metrics-out" => metrics_out = Some(flag_value(arg, &mut it)?),
                "--fault-seed" => fault_seed = flag_parse(arg, &mut it)?,
                "--fault-profile" => fault_profile = flag_parse(arg, &mut it)?,
                "--substrate" => substrate = flag_parse(arg, &mut it)?,
                _ => regs.push(a.clone()),
            }
        }
        Ok(())
    };
    parse_args().map_err(Fail::Usage)?;
    let regs = parse_regs(&regs).map_err(Fail::Usage)?;
    let code = load(path)?;
    // Salt the fault substreams with the program path so distinct programs
    // under the same seed draw independent perturbations.
    let mut m = SimSession::st200()
        .substrate(substrate)
        .fault_plan(FaultPlan::from_profile(fault_profile, fault_seed), path)
        .build();
    for &(r, v) in &regs {
        m.set_gpr(r, v);
    }
    let before: Vec<u32> = (0..64).map(|i| m.gpr(Gpr::new(i))).collect();
    let mut chrome = trace_out.map(|_| ChromeTracer::new());
    let mut counting = metrics_out.map(|_| CountingTracer::new());
    // One event sink for the run. Without `--trace`/`--metrics-out` it is
    // the `NullTracer`, which lets the simulator keep its block engine.
    let mut null = NullTracer;
    let mut tee;
    let tracer: &mut dyn Tracer = match (chrome.as_mut(), counting.as_mut()) {
        (Some(c), Some(k)) => {
            tee = TeeTracer::new(c, k);
            &mut tee
        }
        (Some(c), None) => c,
        (None, Some(k)) => k,
        (None, None) => &mut null,
    };
    let summary = if trace {
        m.run_traced_with_tracer(&code, print_bundle, tracer)
    } else {
        m.run_with_tracer(&code, tracer)
    }
    .map_err(|e| format!("execution failed: {e}"))?;
    if let (Some(path), Some(c)) = (trace_out, &chrome) {
        std::fs::write(path, c.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace ({} events) to {path}", c.len());
    }
    if let (Some(path), Some(k)) = (metrics_out, &counting) {
        std::fs::write(path, k.to_metrics_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    println!(
        "halted after {} cycles ({} ops, ipc {:.2}, D$ stalls {})",
        summary.cycles,
        summary.stats.ops,
        summary.stats.ipc(),
        summary.mem.d_stall_cycles
    );
    for i in 0..64u8 {
        let r = Gpr::new(i);
        let v = m.gpr(r);
        if v != before[i as usize] {
            println!("  {r} = {v} ({v:#x})");
        }
    }
    Ok(())
}

/// The committed snapshot `rvliw tables --check FILE` gates the run on.
struct Baseline<'a> {
    path: &'a str,
    tables: TablesSnapshot,
    /// The workload length the snapshot was measured on (25 when FILE
    /// records none).
    frames: usize,
}

impl<'a> Baseline<'a> {
    /// Reads and validates the snapshot in `path`.
    fn load(path: &'a str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let tables = json.get("tables").ok_or_else(|| {
            format!(
                "{path} has no \"tables\" snapshot; regenerate it with `rvliw tables --bench-json`"
            )
        })?;
        let tables = TablesSnapshot::from_json(tables)
            .map_err(|e| format!("{path}: bad \"tables\" snapshot: {e}"))?;
        let frames = match json.get("frames") {
            None => 25,
            Some(f) => f
                .as_u64()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{path}: \"frames\" is not a positive integer"))?
                as usize,
        };
        Ok(Baseline {
            path,
            tables,
            frames,
        })
    }

    /// The `--check` verdict on the run `cs`: every integer table cell
    /// equals the snapshot's. The error lists the drifted cells.
    fn holds(&self, cs: &CaseStudy) -> Result<(), String> {
        let path = self.path;
        let fresh = TablesSnapshot::capture(cs);
        let drift = fresh.diff(&self.tables);
        if !drift.is_empty() {
            return Err(format!(
                "--check: FAIL — {} cell(s) drifted from {path}:\n  {}",
                drift.len(),
                drift.join("\n  ")
            ));
        }
        eprintln!(
            "rvliw tables --check: OK — {} table cells bit-identical to {path}",
            fresh.cells.len()
        );
        Ok(())
    }
}

/// A failed output write, naming its flag and path.
fn output_failed(flag: &str, path: &str, e: impl std::fmt::Display) -> Fail {
    Fail::Run(format!("{flag} {path}: {e}"))
}

/// `rvliw tables`: run the paper grid once, print the report, write every
/// output the flags ask for, then gate the run on `--check`.
fn run_tables(rest: &[String]) -> Result<(), Fail> {
    let mut write = false;
    let mut bench_json = false;
    let mut check_path: Option<&str> = None;
    let mut csv_dir: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut fault_seed = 0u64;
    let mut fault_profile = FaultProfile::None;
    let mut substrate: Option<Substrate> = None;
    let flags = RunFlags::parse(rest, |arg, it| {
        match arg {
            "--write" => write = true,
            "--bench-json" => bench_json = true,
            "--check" => check_path = Some(flag_value(arg, it)?),
            "--csv" => csv_dir = Some(flag_value(arg, it)?),
            "--metrics-out" => metrics_path = Some(flag_value(arg, it)?),
            "--trace" => trace_path = Some(flag_value(arg, it)?),
            "--fault-seed" => fault_seed = flag_parse(arg, it)?,
            "--fault-profile" => fault_profile = flag_parse(arg, it)?,
            "--substrate" => substrate = Some(flag_parse(arg, it)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(Fail::Usage)?;
    let threads = flags.threads;
    let plan = FaultPlan::from_profile(fault_profile, fault_seed);
    let config = flags.supervisor().map_err(Fail::Usage)?;
    let forced = if plan.is_inert() {
        substrate.map(|su| format!("--substrate {su}"))
    } else {
        Some(format!("fault profile `{fault_profile}`"))
    };
    if let Some(forced) = forced.filter(|_| write || bench_json || check_path.is_some()) {
        return Err(Fail::Usage(format!(
            "refusing to rewrite or check golden artifacts (--write / --bench-json / \
             --check) under {forced}; the checked-in tables are fault-free VLIW runs"
        )));
    }
    let check = match check_path {
        None => None,
        Some(_) if bench_json => {
            return Err(Fail::Usage(
                "--check and --bench-json conflict: --bench-json rewrites the baseline".into(),
            ))
        }
        Some(path) => Some(Baseline::load(path).map_err(|e| Fail::Usage(format!("--check {e}")))?),
    };
    let frames = match (&check, flags.frames) {
        (Some(b), Some(n)) if n != b.frames => {
            return Err(Fail::Usage(format!(
                "--frames {n} conflicts with --check {}, measured on {} frame(s)",
                b.path, b.frames
            )))
        }
        (Some(b), _) => b.frames,
        (None, n) => n.unwrap_or(25),
    };
    let scenarios: Vec<Scenario> = CaseStudy::scenarios()
        .into_iter()
        .map(|sc| sc.with_fault_plan(plan))
        .map(|sc| match substrate {
            Some(su) => sc.with_substrate(su),
            None => sc,
        })
        .collect();

    let t0 = Instant::now();
    eprintln!("generating + encoding the {frames}-frame QCIF workload …");
    let (workload, cache) = flags.open_workload(frames).map_err(Fail::Usage)?;
    let encode_wall_s = t0.elapsed().as_secs_f64();
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
        |label| eprintln!("  scenario {label} …"),
        cache.as_ref(),
        &config,
    );
    let scenarios_wall_s = t_scenarios.elapsed().as_secs_f64();
    let summary = run_summary(
        cache.as_ref().map(ScenarioCache::counts).as_ref(),
        config.is_active().then_some(&health),
    );
    if !summary.is_empty() {
        eprintln!("{summary}");
    }

    let out = report(&cs, &workload);
    println!("{out}");
    let total_wall_s = t0.elapsed().as_secs_f64();
    eprintln!("total runtime: {total_wall_s:.1}s");
    if bench_json {
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
        let _ = writeln!(json, "  \"total_wall_s\": {total_wall_s:.3},");
        let _ = writeln!(json, "  \"simulated_cycles\": {simulated_cycles},");
        let _ = writeln!(json, "  \"cycles_per_sec\": {cycles_per_sec:.0},");
        if let Some(q) = quality_json(cs.results().filter_map(|r| r.as_ref().ok())) {
            let _ = writeln!(json, "  \"quality\": {q},");
        }
        let _ = writeln!(
            json,
            "  \"tables\": {}",
            TablesSnapshot::capture(&cs).to_json()
        );
        json.push_str("}\n");
        Json::parse(&json).map_err(|e| format!("generated bench report is not JSON: {e}"))?;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_tables.json");
        std::fs::write(path, json).map_err(|e| output_failed("--bench-json", path, e))?;
        eprintln!("wrote {path}");
    }
    if let Some(dir) = csv_dir {
        write_csvs(dir, &cs).map_err(|e| output_failed("--csv", dir, e))?;
        eprintln!("wrote table CSVs to {dir}");
    }
    if let Some(path) = metrics_path {
        let mut metrics = RunMetrics::new()
            .results(cs.results())
            .cache(cache.as_ref())
            .health(&health);
        // Non-default substrates are recorded in the envelope so a scalar
        // metrics file can never be mistaken for a VLIW one.
        if let Some(su) = substrate.filter(|&su| su != Substrate::default()) {
            metrics = metrics.insert("substrate", Json::Str(su.name().to_owned()));
        }
        metrics
            .write(path)
            .map_err(|e| output_failed("--metrics-out", path, e))?;
        eprintln!("wrote run metrics to {path}");
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
        std::fs::write(path, tracer.to_json()).map_err(|e| output_failed("--trace", path, e))?;
        eprintln!("wrote Chrome trace ({} events) to {path}", tracer.len());
    }
    if write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|doc| splice_generated(&doc, &out))
            .and_then(|doc| std::fs::write(path, doc).map_err(|e| e.to_string()))
            .map_err(|e| output_failed("--write", path, e))?;
        eprintln!("wrote the generated block of {path}");
    }
    let held = check.map_or(Ok(()), |b| b.holds(&cs));
    let failures = cs.failures();
    if failures.is_empty() {
        return held.map_err(Fail::Run);
    }
    if let Err(e) = held {
        eprintln!("rvliw: {e}");
    }
    let labels: Vec<String> = failures.iter().map(ToString::to_string).collect();
    Err(Fail::Run(format!(
        "{} of {} scenarios failed (the others completed and keep their measurements):\n  {}",
        labels.len(),
        cs.results().count(),
        labels.join("\n  ")
    )))
}

/// The usage error of `sweep` and `explore` without a spec path.
fn no_spec() -> Fail {
    Fail::Usage("no spec file (pass a spec path, positionally or through --spec FILE)".into())
}

/// `rvliw sweep <spec.json>` (or `--spec <spec.json>`): expand a
/// declarative experiment spec and run its scenario matrix on the
/// deterministic parallel runner.
fn run_sweep(rest: &[String]) -> Result<(), Fail> {
    let mut path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut pareto = false;
    let mut pareto_out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut substrate: Option<Substrate> = None;
    let flags = RunFlags::parse(rest, |arg, it| {
        match arg {
            "--spec" => path = Some(flag_value(arg, it)?),
            "--out" => out_path = Some(flag_value(arg, it)?),
            "--pareto" => pareto = true,
            "--pareto-out" => pareto_out = Some(flag_value(arg, it)?),
            "--metrics-out" => metrics_out = Some(flag_value(arg, it)?),
            "--substrate" => substrate = Some(flag_parse(arg, it)?),
            _ if !arg.starts_with('-') && path.is_none() => path = Some(arg),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(Fail::Usage)?;
    let path = path.ok_or_else(no_spec)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = ExperimentSpec::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(su) = substrate {
        spec.sweeps = spec
            .sweeps
            .into_iter()
            .map(|s| s.with_substrate_axis(vec![su]))
            .collect();
    }
    let sweep = Sweep::expand(spec).map_err(|e| format!("{path}: {e}"))?;
    let frames = flags.frames.unwrap_or(sweep.spec().frames);
    eprintln!(
        "encoding {frames}-frame workload, then {} scenarios on {} thread(s)",
        sweep.scenarios().len(),
        flags.threads
    );
    let (workload, cache) = flags.open_workload(frames)?;
    let config = flags.supervisor()?;
    let supervised = config.is_active();
    let (outcome, health) = sweep.run_supervised(
        &workload,
        flags.threads,
        |label| eprintln!("  running {label}"),
        cache.as_ref(),
        &config,
    );
    print!("{outcome}");
    // Cross-substrate sweeps get a per-scenario cycle-ratio table: each
    // alternate-substrate row against its default-substrate twin.
    let ratios = outcome.substrate_ratios();
    if !ratios.is_empty() {
        println!("Substrate cycle ratios (alternate vs vliw4):");
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>8}",
            "Scenario", "Substrate", "VliwCycles", "SubCycles", "Ratio"
        );
        for r in &ratios {
            println!(
                "{:<24} {:>10} {:>12} {:>12} {:>8.2}",
                r.label,
                r.substrate,
                r.vliw_cycles,
                r.substrate_cycles,
                r.ratio()
            );
        }
    }
    let summary = run_summary(
        cache.as_ref().map(ScenarioCache::counts).as_ref(),
        supervised.then_some(&health),
    );
    if !summary.is_empty() {
        eprintln!("{summary}");
    }
    if let Some(mpath) = metrics_out {
        RunMetrics::new()
            .results(outcome.rows.iter().map(|r| &r.result))
            .cache(cache.as_ref())
            .health(&health)
            .write(mpath)
            .map_err(|e| format!("{mpath}: {e}"))?;
        eprintln!("wrote run metrics to {mpath}");
    }
    if let Some(out_path) = out_path {
        std::fs::write(out_path, outcome.to_json_string())
            .map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote result matrix to {out_path}");
    }
    if pareto || pareto_out.is_some() {
        let partition = outcome.pareto();
        if pareto {
            print!("{}", partition.to_json_string());
        }
        if let Some(pp) = pareto_out {
            std::fs::write(pp, partition.to_json_string()).map_err(|e| format!("{pp}: {e}"))?;
            eprintln!("wrote Pareto partition to {pp}");
        }
    }
    if outcome.is_complete() {
        Ok(())
    } else {
        let labels: Vec<String> = outcome.failures().map(ToString::to_string).collect();
        Err(Fail::Run(format!(
            "{} scenario(s) failed:\n  {}",
            labels.len(),
            labels.join("\n  ")
        )))
    }
}

/// `rvliw explore <spec.json>` (or `--spec <spec.json>`): run a budgeted
/// design-space search over an explore spec and print the Pareto-front
/// JSON on stdout. Progress and cache/health summaries go to stderr so
/// stdout stays byte-stable for a fixed seed.
fn run_explore_cmd(rest: &[String]) -> Result<(), Fail> {
    let mut path: Option<&str> = None;
    let mut seed = 0u64;
    let mut out_path: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let flags = RunFlags::parse(rest, |arg, it| {
        match arg {
            "--spec" => path = Some(flag_value(arg, it)?),
            "--seed" => seed = flag_parse(arg, it)?,
            "--out" => out_path = Some(flag_value(arg, it)?),
            "--metrics-out" => metrics_out = Some(flag_value(arg, it)?),
            _ if !arg.starts_with('-') && path.is_none() => path = Some(arg),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(Fail::Usage)?;
    let path = path.ok_or_else(no_spec)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = ExploreSpec::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(frames) = flags.frames {
        spec.frames = frames;
    }
    eprintln!(
        "exploring {} ({} design points, budget {}, strategy {}, seed {seed}) on {} \
         thread(s)",
        spec.name,
        spec.space.size(),
        spec.budget,
        spec.strategy.token(),
        flags.threads
    );
    let (workload, cache) = flags.open_workload(spec.frames)?;
    let config = flags.supervisor()?;
    let outcome = run_explore(
        &spec,
        seed,
        &workload,
        flags.threads,
        |label| eprintln!("  evaluating {label}"),
        cache.as_ref(),
        &config,
    );
    print!("{}", outcome.to_json_string());
    eprintln!(
        "explored {} point(s) ({} revisits, {} failures): {} on the frontier",
        outcome.evaluations,
        outcome.revisits,
        outcome.failures.len(),
        outcome.frontier.len()
    );
    let summary = run_summary(cache.as_ref().map(ScenarioCache::counts).as_ref(), None);
    if !summary.is_empty() {
        eprintln!("{summary}");
    }
    if let Some(mpath) = metrics_out {
        // The frontier JSON is explore's result, so no scenario entries.
        RunMetrics::new()
            .cache(cache.as_ref())
            .insert("evaluations", Json::Num(outcome.evaluations.to_string()))
            .insert("revisits", Json::Num(outcome.revisits.to_string()))
            .write(mpath)
            .map_err(|e| format!("{mpath}: {e}"))?;
        eprintln!("wrote run metrics to {mpath}");
    }
    if let Some(out_path) = out_path {
        std::fs::write(out_path, outcome.to_json_string())
            .map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote outcome to {out_path}");
    }
    Ok(())
}

/// `rvliw cache <stats|clear|verify>`: inspect, empty or spot-check the
/// scenario result cache. The cache directory comes from `--cache-dir` or
/// the `RVLIW_CACHE_DIR` environment variable.
fn run_cache(cmd: &str, rest: &[String]) -> Result<(), Fail> {
    let mut dir = rvliw::exp::default_cache_dir();
    let mut sample = 4usize;
    let mut threads = rvliw::exp::default_threads();
    let mut json = false;
    let mut parse_args = || -> Result<(), String> {
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            let arg = a.as_str();
            match arg {
                "--cache-dir" => dir = Some(flag_value(arg, &mut it)?.into()),
                "--json" => json = true,
                "--sample" => match flag_parse(arg, &mut it)? {
                    0 => return Err(format!("{arg}: 0 checks nothing; want a positive integer")),
                    n => sample = n,
                },
                "--threads" => {
                    threads = rvliw::exp::parse_threads(flag_value(arg, &mut it)?)
                        .map_err(|e| format!("{arg}: {e}"))?;
                }
                other => return Err(format!("unknown cache argument `{other}`")),
            }
        }
        Ok(())
    };
    parse_args().map_err(Fail::Usage)?;
    let dir = dir.ok_or_else(|| {
        Fail::Usage("no cache directory (pass --cache-dir or set RVLIW_CACHE_DIR)".into())
    })?;
    match cmd {
        "stats" => {
            let store = rvliw::cache::ResultCache::open(&dir).map_err(|e| e.to_string())?;
            let (entries, bad) = store.entries().map_err(|e| e.to_string())?;
            for e in &bad {
                eprintln!("warning: {e}");
            }
            let bytes: u64 = entries
                .iter()
                .filter_map(|e| std::fs::metadata(&e.path).ok())
                .map(|m| m.len())
                .sum();
            let quarantined = store.quarantined_entries();
            let quarantine_bytes: u64 = quarantined
                .iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum();
            if json {
                let mut m = std::collections::BTreeMap::new();
                m.insert("cache_dir".to_owned(), Json::Str(dir.display().to_string()));
                m.insert("entries".to_owned(), Json::Num(entries.len().to_string()));
                m.insert("bytes".to_owned(), Json::Num(bytes.to_string()));
                m.insert("unreadable".to_owned(), Json::Num(bad.len().to_string()));
                m.insert(
                    "quarantined".to_owned(),
                    Json::Num(quarantined.len().to_string()),
                );
                m.insert(
                    "quarantine_bytes".to_owned(),
                    Json::Num(quarantine_bytes.to_string()),
                );
                println!("{}", Json::Obj(m));
            } else {
                println!("cache dir: {}", dir.display());
                println!(
                    "entries={} bytes={} unreadable={} quarantined={} quarantine_bytes={}",
                    entries.len(),
                    bytes,
                    bad.len(),
                    quarantined.len(),
                    quarantine_bytes
                );
            }
            Ok(())
        }
        "clear" => {
            let store = rvliw::cache::ResultCache::open(&dir).map_err(|e| e.to_string())?;
            let removed = store.clear().map_err(|e| e.to_string())?;
            println!("removed {removed} file(s) from {}", dir.display());
            Ok(())
        }
        "verify" => {
            let report =
                rvliw::exp::verify_cache(&dir, sample, threads).map_err(|e| e.to_string())?;
            println!("{report}");
            if report.is_clean() {
                Ok(())
            } else {
                for d in &report.divergent {
                    eprintln!("rvliw: {d}");
                }
                Err(Fail::Run(format!(
                    "{} divergent cache entr{}",
                    report.divergent.len(),
                    if report.divergent.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                )))
            }
        }
        other => Err(Fail::Usage(format!(
            "unknown cache command `{other}` (want stats, clear or verify)"
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("arch") => {
            println!(
                "{}",
                arch::describe(&MachineConfig::st200(), &MemConfig::st200())
            );
            Ok(())
        }
        Some("asm") => match args.get(1) {
            Some(path) => load(path)
                .map(|code| println!("{}", code.disassemble()))
                .map_err(Fail::Run),
            None => return usage(),
        },
        Some(cmd @ ("run" | "trace")) => match args.get(1) {
            Some(path) => execute(path, &args[2..], cmd == "trace"),
            None => return usage(),
        },
        Some("tables") => run_tables(&args[1..]),
        Some("sweep") => match args.get(1) {
            Some(_) => run_sweep(&args[1..]),
            None => return usage(),
        },
        Some("explore") => match args.get(1) {
            Some(_) => run_explore_cmd(&args[1..]),
            None => return usage(),
        },
        Some("cache") => match args.get(1) {
            Some(cmd) => run_cache(cmd, &args[2..]),
            None => return usage(),
        },
        _ => return usage(),
    };
    let (e, code) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Fail::Usage(e)) => (e, ExitCode::from(2)),
        Err(Fail::Run(e)) => (e, ExitCode::FAILURE),
    };
    eprintln!("rvliw: {e}");
    code
}
