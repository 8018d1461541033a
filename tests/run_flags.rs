//! The strict run-flag parser `rvliw sweep`, `rvliw explore` and `tables`
//! share: bad input is an error naming the flag — never a panic, a silent
//! default or an ignored argument — and every run flag reaches the
//! workload, cache and supervision it configures. The `rvliw cache`
//! arguments and the `rvliw run` register overrides are held to the same
//! rule.

use std::path::PathBuf;
use std::time::Duration;

use rvliw::exp::{flag_parse, flag_value, RunFlags};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvliw-run-flags-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses `line` with a command-specific handler shaped like the one
/// `tables` passes: a switch, a path-valued flag and two parsed values.
fn parse(line: &str) -> Result<RunFlags, String> {
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    RunFlags::parse(&args, |arg, it| {
        match arg {
            "--write" => {}
            "--check" => drop(flag_value(arg, it)?),
            "--fault-seed" => drop(flag_parse::<u64>(arg, it)?),
            "--min-cycles-per-sec-ratio" => drop(flag_parse::<f64>(arg, it)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
}

#[test]
fn bad_flags_are_errors_naming_the_flag() {
    for (line, flag) in [
        ("--frames 0", "--frames"),
        ("--frames two", "--frames"),
        ("--frames", "--frames"),
        ("--no-such-flag", "--no-such-flag"),
        ("--write stray", "stray"),
        ("--threads many", "--threads"),
        ("--max-retries -1", "--max-retries"),
        ("--timeout-secs 0", "--timeout-secs"),
        ("--backend auto", "--backend"),
        ("--cache-dir", "--cache-dir"),
        ("--fault-seed", "--fault-seed"),
        (
            "--min-cycles-per-sec-ratio abc",
            "--min-cycles-per-sec-ratio",
        ),
        ("--check", "--check"),
    ] {
        match parse(line) {
            Ok(_) => panic!("`{line}` must be rejected"),
            Err(e) => assert!(
                e.contains(flag),
                "`{line}`: error `{e}` does not name {flag}"
            ),
        }
    }
}

#[test]
fn every_run_flag_is_accepted_and_applied() {
    let dir = tmpdir("all");
    let journal = dir.join("run.jsonl");
    let line = format!(
        "--write --threads 3 --frames 2 --cache-dir {} --no-cache \
         --journal {j} --resume {j} --max-retries 2 --timeout-secs 9 \
         --fault-seed 7 --min-cycles-per-sec-ratio 0.8 --check BENCH_tables.json",
        dir.display(),
        j = journal.display()
    );
    let flags = parse(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    assert_eq!(flags.threads, 3);
    assert_eq!(flags.frames, Some(2));
    // The journal is opened before the resume file is read, so resuming
    // from the journal being written works on a fresh path.
    let config = flags.supervisor().unwrap();
    assert_eq!(config.max_retries, 2);
    assert_eq!(config.timeout, Some(Duration::from_secs(9)));
    assert!(config.journal.is_some() && config.resume.is_empty());
    // `--no-cache` wins over `--cache-dir`.
    let (workload, cache) = flags.open_workload(2).unwrap();
    assert_eq!(workload.frames.len(), 2);
    assert!(cache.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_run_flags_mean_no_supervision() {
    let flags = parse("").unwrap();
    assert!(flags.threads >= 1);
    assert_eq!(flags.frames, None);
    assert!(!flags.supervisor().unwrap().is_active());
}

/// `rvliw cache verify --sample 0` would check nothing and report a clean
/// cache; it is an error naming `--sample` instead (exit 2, like every
/// other `rvliw` argument error).
#[test]
fn cache_verify_rejects_a_zero_sample() {
    let dir = tmpdir("verify");
    let verify = |sample: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rvliw"))
            .args(["cache", "verify", "--sample", sample, "--cache-dir"])
            .arg(&dir)
            .output()
            .unwrap()
    };
    let zero = verify("0");
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert_eq!(zero.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--sample"), "{stderr}");
    assert!(zero.stdout.is_empty(), "nothing may be reported as checked");
    // A positive sample over the (empty) cache is a clean verify.
    let one = verify("1");
    assert!(
        one.status.success(),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rvliw run` register overrides must fit a 32-bit register: decimal
/// values in `i32::MIN..=u32::MAX` are accepted (negative ones as their
/// two's-complement bits), anything wider is an error naming the override
/// instead of a silently truncated register.
#[test]
fn run_rejects_register_overrides_wider_than_32_bits() {
    let dir = tmpdir("regs");
    let program = dir.join("inc.s");
    std::fs::write(&program, "    add $r2 = $r1, 1\n    halt\n").unwrap();
    let run = |value: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rvliw"))
            .arg("run")
            .arg(&program)
            .arg(format!("r1={value}"))
            .output()
            .unwrap()
    };
    for bad in ["4294967296", "99999999999999", "-2147483649"] {
        let out = run(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "r1={bad}: {stderr}");
        assert!(stderr.contains(&format!("r1={bad}")), "r1={bad}: {stderr}");
        assert!(out.stdout.is_empty(), "r1={bad} must not run");
    }
    for (good, r2) in [
        ("4294967294", "= 4294967295 (0xffffffff)"),
        ("-2147483648", "= 2147483649 (0x80000001)"),
        ("41", "= 42 (0x2a)"),
    ] {
        let out = run(good);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "r1={good}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(r2), "r1={good}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Argument errors of `rvliw sweep` are usage errors (exit 2, the code of
/// `tables` and of `rvliw` without a command); a failed run exits 1.
#[test]
fn sweep_argument_errors_exit_2_and_run_failures_exit_1() {
    let sweep = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rvliw"))
            .arg("sweep")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .unwrap()
    };
    for args in [
        &["specs/table1.json", "--frames", "0"][..],
        &["specs/table1.json", "--no-such-flag"],
        &["--frames", "2"],
    ] {
        let out = sweep(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
    let missing = sweep(&["no/such/spec.json"]);
    assert_eq!(
        missing.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&missing.stderr)
    );
}
