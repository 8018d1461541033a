//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints every metric by name with its
//! unit; the last line of standard output is the JSON result
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones of the traced run. Scratch files go under
//! `.perfbench/` in the working directory and are removed at exit; the
//! traced run leaves its span trace there.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::explore::{self, Child};
use perfbench::workloads::{Kind, PAPER_SEED};
use perfbench::{run, Options, Outcome, OUT_DIR};

const USAGE: &str = "usage: perfbench --workload <paper_grid|rfu_loop|explore_mixed> \
                     [--seed <n>] [--seconds <s>] [--trace 0|1]";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parsed command line: the options, plus the child mode when this
/// process was spawned by an `explore_mixed` run.
fn parse_args(args: &[String]) -> Result<(Options, Option<Child>), String> {
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = None;
    let mut child = None;
    let mut index = 0usize;
    let mut interpreter = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}` (0 or 1)")),
                };
            }
            "--work" => work = Some(PathBuf::from(value()?)),
            "--child" => child = Some(value()?.clone()),
            "--index" => {
                let v = value()?;
                index = v.parse().map_err(|_| format!("bad index `{v}`"))?;
            }
            "--backend" => match value()?.as_str() {
                "interpreter" => interpreter = true,
                v => return Err(format!("bad backend `{v}`")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let child = match child.as_deref() {
        None => None,
        Some("fixture") => Some(Child::Fixture),
        Some("pass") => Some(Child::Pass {
            index,
            traced: trace,
            interpreter,
        }),
        Some(other) => return Err(format!("unknown child mode `{other}`")),
    };
    let work =
        work.unwrap_or_else(|| Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        work,
    };
    Ok((opts, child))
}

fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    match (opts.workload, opts.trace) {
        (Kind::ExploreMixed, false) => explore::end_to_end(opts),
        (Kind::ExploreMixed, true) => explore::traced(opts),
        (_, false) => Ok(run::end_to_end(opts)),
        (_, true) => Ok(run::traced(opts)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, child) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(child) = child {
        explore::run_child(&opts, child);
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} (host parallelism {})",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.workload.threads(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    // Gone unless a traced run left its span trace there.
    let _ = std::fs::remove_dir(OUT_DIR);
    match result {
        Ok(outcome) => {
            print!("{}", outcome.report.human());
            println!(
                "{}",
                outcome
                    .report
                    .result_line(outcome.checks.attempted, outcome.checks.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let (o, child) =
            parse_args(&args("--workload rfu_loop --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Kind::RfuLoop, 3, 10.0, true)
        );
        assert!(child.is_none());
        let (o, _) = parse_args(&args("--workload paper_grid --seed 0x4652_4d4e")).unwrap();
        assert_eq!(o.seed, PAPER_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload paper_grid --trace 2",
            "--workload paper_grid --seconds -1",
            "--workload paper_grid --frobnicate",
            "--workload paper_grid --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
