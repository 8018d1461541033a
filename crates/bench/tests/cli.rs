//! The `tables` command line, driven as a process: `--check` gates the
//! very run it prints and writes every requested output, usage errors exit
//! 2 naming the flag, failed writes exit 1 naming the flag, and a chaos
//! fault run fails cleanly instead of panicking.
//!
//! The golden snapshot here is a 1-frame one built in the test process, so
//! every spawned run stays short. No test passes `--write` or
//! `--bench-json`: both write to fixed paths in the repository.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use rvliw_core::{CaseStudy, TablesSnapshot, Workload};
use rvliw_trace::Json;

/// A fresh directory for one test's files.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvliw-tables-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `tables` with `args` from the workspace root (where `specs/`
/// lives), with no cache directory from the environment.
fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .env_remove("RVLIW_CACHE_DIR")
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The 1-frame table snapshot, measured once per test binary.
fn one_frame_cells() -> &'static BTreeMap<String, u64> {
    static CELLS: OnceLock<BTreeMap<String, u64>> = OnceLock::new();
    CELLS.get_or_init(|| TablesSnapshot::capture(&CaseStudy::run(&Workload::qcif_frames(1))).cells)
}

/// Writes a `--check` baseline for the 1-frame workload into `dir`, with
/// `edit` applied to its cells first.
fn write_snapshot(dir: &std::path::Path, edit: impl FnOnce(&mut BTreeMap<String, u64>)) -> String {
    let mut cells = one_frame_cells().clone();
    edit(&mut cells);
    let mut doc = BTreeMap::new();
    doc.insert("frames".to_owned(), Json::Num("1".to_owned()));
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
    let out = tables(&["--check", &snap, "--frames", "2"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--frames"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Usage errors exit 2 and name the flag; `--spec` and `--backend` are
/// retired flags, so they are unknown ones now.
#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--no-such-flag"][..], "--no-such-flag"),
        (&["--frames", "0"], "--frames"),
        (&["--backend", "auto"], "--backend"),
        (&["--spec", "specs/", "--frames", "1"], "--spec"),
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
    let out = tables(&["--frames", "1", "--metrics-out", target.to_str().unwrap()]);
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
