//! `rvliw` — command-line front end for the toolchain.
//!
//! ```text
//! rvliw asm <file.s>           parse + schedule, print the bundled code
//! rvliw run <file.s> [rN=V..]  assemble and execute; prints changed GPRs
//! rvliw trace <file.s> [rN=V]  like run, with a per-bundle execution trace
//! rvliw sweep <spec.json>      expand and run a declarative experiment spec
//!                              (also: rvliw sweep --spec <spec.json>)
//! rvliw explore <spec.json>    budgeted design-space exploration: run a
//!                              search strategy over an explore spec and
//!                              print the Pareto-front JSON
//! rvliw cache <stats|clear|verify>  inspect the scenario result cache
//! rvliw arch                   print the Figure 1 block diagram
//! ```
//!
//! `run` and `trace` also accept:
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
//! `sweep` accepts:
//!
//! ```text
//! --spec FILE         the spec file (equivalent to the positional path)
//! --threads N         worker threads (0 = auto; default: RVLIW_THREADS or
//!                     all cores)
//! --frames N          override the spec's QCIF workload length
//! --out FILE          also write the result matrix as JSON
//! --pareto            print the cycles-vs-quality Pareto partition as
//!                     JSON (rows without a quality block are skipped)
//! --pareto-out FILE   write that partition to FILE instead of stdout
//! --cache-dir DIR     reuse cached scenario results from DIR (also:
//!                     RVLIW_CACHE_DIR); results are bit-identical to an
//!                     uncached run, a summary line reports hits/misses
//! --no-cache          ignore --cache-dir / RVLIW_CACHE_DIR for this run
//! --substrate S       force one fetch/issue substrate (vliw4 | scalar) on
//!                     every sweep axis, overriding the spec's `substrate`
//!                     arrays; cross-substrate specs report per-scenario
//!                     cycle ratios after the matrix
//! --journal FILE      append every scenario outcome to FILE (JSONL) as
//!                     it lands, so an interrupted sweep can resume
//! --resume FILE       replay completed entries from a previous run's
//!                     journal instead of re-simulating them; the final
//!                     matrix is bit-identical to an uninterrupted run
//! --max-retries N     retry transient failures (injected faults, cycle
//!                     budget trips, timeouts) up to N extra attempts
//!                     with deterministic reseeded fault substreams
//! --timeout-secs N    wall-clock watchdog per scenario attempt; a hung
//!                     simulation becomes a TimedOut error instead of
//!                     stalling the sweep
//! --metrics-out FILE  write the run's metrics envelope as JSON (schema 1,
//!                     shared with `tables` and `explore`): every
//!                     successful row's measurement under "scenarios",
//!                     quality blocks, cache counters and the health
//!                     report (attempts, retries, timeouts, quarantined
//!                     keys, slowest scenarios); nothing is re-simulated
//! ```
//!
//! `explore` accepts:
//!
//! ```text
//! --spec FILE         the explore spec (equivalent to the positional path)
//! --seed N            search seed (default 0); for a fixed seed the
//!                     printed frontier JSON is byte-identical at any
//!                     thread count and on cold or warm caches
//! --threads N         worker threads for fitness batches (0 = auto)
//! --frames N          override the spec's QCIF workload length
//! --out FILE          also write the outcome JSON to FILE
//! --cache-dir DIR     memoize scenario evaluations in DIR (also:
//!                     RVLIW_CACHE_DIR); hits never change the trajectory
//! --no-cache          ignore --cache-dir / RVLIW_CACHE_DIR for this run
//! --journal FILE      append every evaluation outcome to FILE (JSONL)
//! --resume FILE       replay completed evaluations from a journal
//! --max-retries N     retry transient evaluation failures up to N times
//! --timeout-secs N    wall-clock watchdog per evaluation attempt
//! --metrics-out FILE  write the run's metrics envelope as JSON (schema 1,
//!                     shared with `tables` and `sweep`): evaluation and
//!                     revisit counts and cache counters, with an empty
//!                     "scenarios" object (the frontier JSON is the
//!                     result, and stays byte-stable)
//! ```
//!
//! `cache` manages the scenario result cache (the directory comes from
//! `--cache-dir` or `RVLIW_CACHE_DIR`):
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
//! override, a missing spec path) exits 2 with a message naming it, as
//! `tables` does; a run that fails exits 1.
//!
//! Programs use the listing syntax of `rvliw::asm::parse_program` (see
//! `examples/assemble_and_run.rs`); spec files use the schema documented
//! in EXPERIMENTS.md § "Writing your own sweep".

use std::process::ExitCode;

use rvliw::asm::{parse_program, schedule_st200, Code};
use rvliw::exp::{
    arch, flag_parse, flag_value, run_explore, run_summary, ExperimentSpec, ExploreSpec, RunFlags,
    RunMetrics, ScenarioCache, SimSession, Sweep,
};
use rvliw::fault::{FaultPlan, FaultProfile};
use rvliw::isa::{Bundle, Gpr, MachineConfig, Substrate};
use rvliw::mem::MemConfig;
use rvliw::trace::{ChromeTracer, CountingTracer, Json, NullTracer, TeeTracer, Tracer};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvliw <asm|run|trace> <file.s> [rN=value ...] \
         [--trace FILE] [--metrics-out FILE]\n       \
         [--fault-profile PROFILE] [--fault-seed N] [--substrate S]\n       \
         rvliw sweep <spec.json | --spec FILE> [--threads N] [--frames N] [--out FILE]\n       \
         [--pareto] [--pareto-out FILE] [--cache-dir DIR] [--no-cache]\n       \
         [--substrate S] [--journal FILE] [--resume FILE] [--max-retries N]\n       \
         [--timeout-secs N] [--metrics-out FILE]\n       \
         rvliw explore <spec.json | --spec FILE> [--seed N] [--threads N] [--frames N]\n       \
         [--out FILE] [--cache-dir DIR] [--no-cache] [--journal FILE]\n       \
         [--resume FILE] [--max-retries N] [--timeout-secs N] [--metrics-out FILE]\n       \
         rvliw cache <stats|clear|verify> [--cache-dir DIR] [--json] [--sample N] [--threads N]\n       \
         rvliw arch"
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
