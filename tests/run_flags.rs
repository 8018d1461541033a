//! The strict run-flag parser `rvliw tables`, `rvliw sweep` and `rvliw
//! explore` share: bad input is an error naming the flag — never a panic,
//! a silent default or an ignored argument — and every run flag reaches
//! the workload, cache and supervision it configures. The `rvliw cache`
//! arguments and the `rvliw run` register overrides are held to the same
//! rule.
//!
//! The process tests drive the `rvliw` binary. `rvliw tables --check`
//! gates the very run it prints and writes every requested output, usage
//! errors exit 2 naming the flag, failed writes exit 1 naming the flag,
//! and a chaos fault run fails cleanly instead of panicking. Their golden
//! snapshot is a 2-frame one built in the test process (the shortest
//! workload with motion estimation), so every spawned run stays short. No test passes `--write` or `--bench-json`: both write
//! to fixed paths in the repository.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::Duration;

use rvliw::exp::{flag_parse, flag_value, CaseStudy, RunFlags, TablesSnapshot, Workload};
use rvliw::fault::FaultProfile;
use rvliw::trace::Json;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvliw-run-flags-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `rvliw` with `args` from the workspace root (where `specs/` and
/// `BENCH_tables.json` live), with no cache directory from the
/// environment.
fn rvliw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rvliw"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("RVLIW_CACHE_DIR")
        .output()
        .unwrap()
}

/// Runs `rvliw tables` with `args`.
fn tables(args: &[&str]) -> Output {
    rvliw(&[&["tables"], args].concat())
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Parses `line` with a command-specific handler shaped like the one
/// `rvliw tables` passes: a switch, a path-valued flag and two parsed
/// values.
fn parse(line: &str) -> Result<RunFlags, String> {
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    RunFlags::parse(&args, |arg, it| {
        match arg {
            "--write" => {}
            "--check" => drop(flag_value(arg, it)?),
            "--fault-seed" => drop(flag_parse::<u64>(arg, it)?),
            "--fault-profile" => drop(flag_parse::<FaultProfile>(arg, it)?),
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
        ("--fault-profile loud", "--fault-profile"),
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
         --fault-seed 7 --fault-profile chaos --check BENCH_tables.json",
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
        let dir = dir.to_str().unwrap();
        rvliw(&["cache", "verify", "--sample", sample, "--cache-dir", dir])
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
    let run = |value: &str| rvliw(&["run", program.to_str().unwrap(), &format!("r1={value}")]);
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
/// `rvliw` without a command); a failed run exits 1.
#[test]
fn sweep_argument_errors_exit_2_and_run_failures_exit_1() {
    let sweep = |args: &[&str]| rvliw(&[&["sweep"], args].concat());
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

/// The 2-frame case study, run once per test binary. Two frames is the
/// shortest workload with motion estimation: the first frame is
/// intra-coded, so a 1-frame run makes no `GetSad` call and every table
/// cell is 0 or `NaN`.
fn two_frame_run() -> &'static CaseStudy {
    static RUN: OnceLock<CaseStudy> = OnceLock::new();
    RUN.get_or_init(|| CaseStudy::run(&Workload::qcif_frames(2)))
}

/// Asserts a report or CSV text has no `NaN` cell.
fn assert_no_nan(what: &str, text: &str) {
    assert!(!text.contains("NaN"), "{what} has a NaN cell:\n{text}");
}

/// Writes a `--check` baseline for the 2-frame workload into `dir`, with
/// `edit` applied to its cells first.
fn write_snapshot(dir: &Path, edit: impl FnOnce(&mut BTreeMap<String, u64>)) -> String {
    let mut cells = TablesSnapshot::capture(two_frame_run()).cells;
    assert!(
        cells.get("table1/Orig/cycles").is_some_and(|&c| c > 0),
        "the 2-frame workload must simulate motion estimation"
    );
    edit(&mut cells);
    let mut doc = BTreeMap::new();
    doc.insert("frames".to_owned(), Json::Num("2".to_owned()));
    doc.insert("tables".to_owned(), TablesSnapshot { cells }.to_json());
    let path = dir.join("snap.json");
    std::fs::write(&path, Json::Obj(doc).to_string()).unwrap();
    path.to_str().unwrap().to_owned()
}

/// `--check` is not a separate run: the outputs asked for alongside it
/// are written, here the `--metrics-out` envelope.
#[test]
fn check_writes_the_metrics_of_the_run_it_gates() {
    let dir = tmpdir("metrics");
    let snap = write_snapshot(&dir, |_| {});
    let metrics = dir.join("m.json");
    let out = tables(&["--check", &snap, "--metrics-out", metrics.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("bit-identical"), "{}", stderr(&out));
    assert_no_nan("stdout", &String::from_utf8_lossy(&out.stdout));
    let text = std::fs::read_to_string(&metrics).unwrap_or_else(|e| panic!("no envelope: {e}"));
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1), "{text}");
    assert!(
        matches!(doc.get("scenarios"), Some(Json::Obj(m)) if m.len() == 12),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_fails_naming_a_drifted_cell() {
    let dir = tmpdir("drift");
    let cell = "table1/Orig/cycles";
    let snap = write_snapshot(&dir, |cells| {
        *cells
            .get_mut(cell)
            .expect("snapshot has the ORIG cycle cell") += 1;
    });
    let out = tables(&["--check", &snap]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("1 cell(s) drifted"), "{err}");
    assert!(err.contains(cell), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot fixes the workload length; a different `--frames` would
/// compare two different workloads.
#[test]
fn check_rejects_frames_that_differ_from_the_snapshot() {
    let dir = tmpdir("frames");
    let snap = write_snapshot(&dir, |_| {});
    let out = tables(&["--check", &snap, "--frames", "1"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--frames"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Usage errors of `rvliw tables` exit 2 and name the flag; `--spec`,
/// `--backend` and `--min-cycles-per-sec-ratio` are retired flags, so they
/// are unknown ones now.
#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--no-such-flag"][..], "--no-such-flag"),
        (&["--frames", "0"], "--frames"),
        (&["--backend", "auto"], "--backend"),
        (&["--spec", "specs/", "--frames", "1"], "--spec"),
        (
            &["--min-cycles-per-sec-ratio", "0.8"],
            "--min-cycles-per-sec-ratio",
        ),
    ] {
        let out = tables(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
}

#[test]
fn unwritable_metrics_out_exits_1_naming_the_flag() {
    let dir = tmpdir("unwritable");
    let file = dir.join("plain-file");
    std::fs::write(&file, "").unwrap();
    let target = file.join("m.json");
    let out = tables(&["--frames", "2", "--metrics-out", target.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--metrics-out"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under the chaos fault profile some scenarios fail; the run still
/// completes and exits with a failure code, never a panic (101) or an
/// abort.
#[test]
fn chaos_run_fails_cleanly() {
    let out = tables(&[
        "--frames",
        "2",
        "--fault-profile",
        "chaos",
        "--fault-seed",
        "7",
    ]);
    let code = out.status.code();
    assert!(
        code.is_some_and(|c| c != 0 && c < 101),
        "exit {code:?}: {}",
        stderr(&out)
    );
}

/// `rvliw tables --csv DIR` writes `table1.csv` … `table7.csv`, each the
/// header `rvliw_bench::write_csvs` documents and one row per row of its
/// table, every row as wide as the header.
#[test]
fn csv_writes_one_file_per_table() {
    let dir = tmpdir("csv");
    let csv = dir.join("csv");
    let out = tables(&["--frames", "2", "--csv", csv.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_no_nan("stdout", &String::from_utf8_lossy(&out.stdout));
    let cs = two_frame_run();
    let headers = [
        "scenario,cycles,speedup,improvement",
        "bandwidth,beta,lat,cycles,speedup",
        "bandwidth,lat_b1,lat_b5,pct_latency_increase,pct_speedup_reduction",
        "scenario,beta,stall_cycles,reduction_vs_orig",
        "scenario,beta,stall_share",
        "bandwidth,beta,static_cycles,th_speedup,speedup,ratio",
        "beta,lat,cycles,speedup,rel_share,stalls,stall_reduction",
    ];
    // Tables 2, 4 and 5 give each bandwidth a row per β; 4 and 5 add Orig.
    let rows = [
        cs.table1().rows.len(),
        2 * cs.table2().rows.len(),
        cs.table3().rows.len(),
        1 + 2 * cs.table4().rows.len(),
        1 + 2 * cs.table5().rows.len(),
        cs.table6().rows.len(),
        cs.table7().rows.len(),
    ];
    for (i, (header, rows)) in headers.into_iter().zip(rows).enumerate() {
        let name = format!("table{}", i + 1);
        let path = csv.join(format!("{name}.csv"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(header), "{name}.csv header");
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), rows, "{name}.csv rows:\n{text}");
        assert!(rows > 0, "{name} renders no rows");
        let width = header.split(',').count();
        for row in &body {
            assert_eq!(row.split(',').count(), width, "{name}.csv row `{row}`");
            assert_no_nan(&format!("{name}.csv row"), row);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
