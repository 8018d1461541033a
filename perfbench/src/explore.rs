//! `explore_mixed`: `run_explore` at 2 threads with a journal over a
//! partly warm cache.
//!
//! `Workload::derived` memoizes derived and golden encodes process-wide,
//! and a user pays that memo once per `rvliw explore` invocation. Each
//! timed pass therefore runs in a fresh child process (this binary with
//! `--child pass`) that builds the workload untimed, opens a copy of the
//! fixture cache and a fresh journal, and times `run_explore` alone. The
//! fixture — the same spec explored from another seed — is prepared once
//! per run, untimed, by another child (`--child fixture`), so the parent
//! keeps a clean memo for the traced run's derive probe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use rvliw_cache::{CacheCounts, KeyBuilder};
use rvliw_core::cache::me_result_from_json;
use rvliw_core::explore::{ExploreSpec, AXES};
use rvliw_core::{run_explore, Journal, MeResult, Scenario, ScenarioCache, SupervisorConfig};
use rvliw_sim::{backend_totals, BackendStats, ExecBackend};
use rvliw_trace::Json;

use crate::layers::{backend_diff, Layers, SimSums, SELF_SPANS};
use crate::probe::{cache_probe, journal_probe};
use crate::replay::replay_list;
use crate::run::{
    derivations, end_to_end_report, model_layers, set_up_layers, traced_set_up, write_trace, SetUp,
};
use crate::spans::{Trace, NO_ID};
use crate::stats::{median, percentile};
use crate::workloads::{build_workload, explore_spec, Kind, EXPLORE_SEED, FIXTURE_SEED, FRAMES};
use crate::{check_digest, peak_rss_mb, sim_stats_digest, Checks, Options, Outcome, MIN_PASSES};

/// What a child process is asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// Explore from the fixture seed into `<work>/fixture`.
    Fixture,
    /// One timed pass over `<work>/pass-<index>`.
    Pass {
        /// Pass number (names its cache copy and journal).
        index: usize,
        /// After the pass, replay the simulated scenarios with spans and
        /// probe the cache and the journal.
        traced: bool,
        /// Run every machine on the interpreter.
        interpreter: bool,
    },
}

fn num(v: impl ToString) -> Json {
    Json::Num(v.to_string())
}

fn field_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn field_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// One journal line of a pass: the evaluation's label, attempts (0 for a
/// cache hit) and measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Scenario label.
    pub label: String,
    /// Simulation attempts (0 = served from the cache).
    pub attempts: u64,
    /// The measurement (`None` for a failed evaluation).
    pub result: Option<MeResult>,
    /// Whether the failure was a wall-clock timeout.
    pub timed_out: bool,
    /// Host milliseconds the runner spent on the evaluation.
    pub wall_ms: u64,
}

/// Parses a journal file written by `Journal::record`, sorted by label.
///
/// # Errors
///
/// When the file cannot be read or a line does not parse.
pub fn read_journal(path: &Path) -> Result<Vec<Evaluation>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let j = Json::parse(line)?;
        let label = j
            .get("label")
            .and_then(Json::as_str)
            .ok_or("journal line without label")?;
        out.push(Evaluation {
            label: label.to_owned(),
            attempts: field_u64(&j, "attempts"),
            result: j.get("result").and_then(me_result_from_json),
            timed_out: j
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("deadline")),
            wall_ms: field_u64(&j, "wall_ms"),
        });
    }
    out.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(out)
}

/// Every scenario of the explore space, by label.
#[must_use]
pub fn scenario_map(spec: &ExploreSpec) -> BTreeMap<String, Scenario> {
    let lens = spec.space.lens();
    let mut map = BTreeMap::new();
    for n in 0..spec.space.size() {
        let mut rest = n;
        let mut cand = vec![0usize; AXES];
        for (axis, &len) in lens.iter().enumerate().rev() {
            cand[axis] = rest % len;
            rest /= len;
        }
        let sc = spec
            .point_spec(&cand)
            .and_then(|p| p.scenarios().ok())
            .and_then(|v| v.into_iter().next());
        if let Some(sc) = sc {
            map.insert(sc.label.clone(), sc);
        }
    }
    map
}

fn pass_paths(work: &Path, index: usize) -> (PathBuf, PathBuf) {
    (
        work.join(format!("pass-{index}")),
        work.join(format!("pass-{index}.journal")),
    )
}

/// Runs a child mode and prints its report as one JSON line.
///
/// # Panics
///
/// When the scratch directories cannot be created or read: the parent
/// then sees a failed child.
pub fn run_child(opts: &Options, child: Child) {
    let spec = explore_spec(FRAMES);
    let workload =
        build_workload(opts.seed, FRAMES, &mut Trace::new(Instant::now()), None).workload;
    let threads = Kind::ExploreMixed.threads();
    let (index, traced, interpreter) = match child {
        Child::Fixture => {
            let cache = ScenarioCache::open(opts.work.join("fixture"), &workload, "perfbench")
                .expect("fixture cache directory");
            let outcome = run_explore(
                &spec,
                FIXTURE_SEED,
                &workload,
                threads,
                |_| {},
                Some(&cache),
                &SupervisorConfig::default(),
            );
            let mut o = BTreeMap::new();
            o.insert("evaluations".to_owned(), num(outcome.evaluations));
            println!("{}", Json::Obj(o));
            return;
        }
        Child::Pass {
            index,
            traced,
            interpreter,
        } => (index, traced, interpreter),
    };
    if interpreter {
        ExecBackend::Interpreter.set_process_default();
    }
    let (cache_dir, journal_path) = pass_paths(&opts.work, index);
    let cache =
        ScenarioCache::open(&cache_dir, &workload, "perfbench").expect("pass cache directory");
    let config = SupervisorConfig {
        journal: Some(Journal::open(&journal_path).expect("pass journal file")),
        ..SupervisorConfig::default()
    };
    let before = backend_totals();
    let t = Instant::now();
    let outcome = run_explore(
        &spec,
        EXPLORE_SEED,
        &workload,
        threads,
        |_| {},
        Some(&cache),
        &config,
    );
    let pass_s = t.elapsed().as_secs_f64();
    let backend = backend_diff(backend_totals(), before);
    drop(config);

    let mut o = BTreeMap::new();
    o.insert("pass_s".to_owned(), num(pass_s));
    let mut kb = KeyBuilder::new("perfbench-explore-outcome", 1);
    kb.field_str("outcome", &outcome.to_json_string());
    o.insert("outcome_digest".to_owned(), Json::Str(kb.finish().hex()));
    o.insert("evaluations".to_owned(), num(outcome.evaluations));
    o.insert("revisits".to_owned(), num(outcome.revisits));
    o.insert("frontier_points".to_owned(), num(outcome.frontier.len()));
    o.insert("failures".to_owned(), num(outcome.failures.len()));
    o.insert("cache".to_owned(), cache.counts().to_json());
    o.insert(
        "journal_bytes".to_owned(),
        num(std::fs::metadata(&journal_path).map_or(0, |m| m.len())),
    );
    o.insert("backend".to_owned(), backend_json(&backend));
    if traced {
        let evaluations = read_journal(&journal_path).expect("pass journal reads back");
        o.insert(
            "replay".to_owned(),
            replay_simulated(opts, &spec, &workload, &evaluations),
        );
    }
    o.insert("rss_mb".to_owned(), num(peak_rss_mb()));
    println!("{}", Json::Obj(o));
}

fn backend_json(b: &BackendStats) -> Json {
    let mut m = BTreeMap::new();
    m.insert("block_runs".to_owned(), num(b.block_runs));
    m.insert("interp_runs".to_owned(), num(b.interp_runs));
    m.insert("fallbacks".to_owned(), num(b.fallbacks));
    m.insert("compile_lookups".to_owned(), num(b.compile_lookups));
    m.insert("compile_misses".to_owned(), num(b.compile_misses));
    m.insert("block_cycles".to_owned(), num(b.block_cycles));
    Json::Obj(m)
}

fn backend_from_json(j: Option<&Json>) -> BackendStats {
    let Some(j) = j else {
        return BackendStats::default();
    };
    BackendStats {
        block_runs: field_u64(j, "block_runs"),
        interp_runs: field_u64(j, "interp_runs"),
        fallbacks: field_u64(j, "fallbacks"),
        compile_lookups: field_u64(j, "compile_lookups"),
        compile_misses: field_u64(j, "compile_misses"),
        block_cycles: field_u64(j, "block_cycles"),
    }
}

/// The traced child's second half: replays the scenarios the pass
/// simulated (cache misses) through the layers' public APIs with spans,
/// checks the replay against the journal, and probes the cache and the
/// journal on the pass's own evaluations.
fn replay_simulated(
    opts: &Options,
    spec: &ExploreSpec,
    workload: &rvliw_core::Workload,
    evaluations: &[Evaluation],
) -> Json {
    let map = scenario_map(spec);
    let simulated: Vec<&Evaluation> = evaluations.iter().filter(|e| e.attempts > 0).collect();
    let scenarios: Vec<Scenario> = simulated
        .iter()
        .filter_map(|e| map.get(&e.label).cloned())
        .collect();
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let pass_span = trace.open("pass", NO_ID, None);
    let (results, sub, totals) =
        replay_list(&scenarios, workload, Kind::ExploreMixed.threads(), origin);
    trace.merge(sub, Some(pass_span));
    trace.close(pass_span);
    let same = scenarios.len() == simulated.len()
        && results
            .iter()
            .zip(&simulated)
            .all(|(r, e)| r.as_ref().ok() == e.result.as_ref());

    let pairs: Vec<(&Scenario, &MeResult)> = evaluations
        .iter()
        .filter_map(|e| Some((map.get(&e.label)?, e.result.as_ref()?)))
        .collect();
    let probe = cache_probe(&pairs, workload, &opts.work.join("probe-cache"));
    let (append_us, _, _) = journal_probe(&pairs, workload, &opts.work.join("probe.journal"));
    write_trace(opts, &trace, "pass-");

    let call_us: Vec<f64> = totals
        .call_ns
        .iter()
        .map(|&ns| f64::from(ns) * 1e-3)
        .collect();
    let mut o = BTreeMap::new();
    o.insert("same_as_run_me".to_owned(), Json::Bool(same));
    o.insert("run_s".to_owned(), num(totals.run_ns as f64 * 1e-9));
    o.insert("runs".to_owned(), num(totals.runs));
    o.insert(
        "run_us_p50".to_owned(),
        num(percentile(&call_us, 50.0).unwrap_or(0.0)),
    );
    o.insert(
        "run_us_p99".to_owned(),
        num(percentile(&call_us, 99.0).unwrap_or(0.0)),
    );
    o.insert(
        "kernels_build_s".to_owned(),
        num(totals.kernel_ns as f64 * 1e-9),
    );
    o.insert("kernels_builds".to_owned(), num(totals.kernel_builds));
    o.insert(
        "session_build_s".to_owned(),
        num(totals.session_ns as f64 * 1e-9),
    );
    o.insert("session_builds".to_owned(), num(totals.session_builds));
    o.insert("cache_key_us".to_owned(), num(probe.key_us));
    o.insert("cache_record_us".to_owned(), num(probe.record_us));
    o.insert("cache_lookup_us".to_owned(), num(probe.lookup_us));
    o.insert("journal_append_us".to_owned(), num(append_us));
    let st = trace.self_times();
    o.insert(
        "self_s".to_owned(),
        Json::Obj(
            SELF_SPANS[4..]
                .iter()
                .map(|&n| ((*n).to_owned(), num(st.get(n).copied().unwrap_or(0.0))))
                .collect(),
        ),
    );
    Json::Obj(o)
}

/// A child's report, with the evaluations of the journal it wrote.
struct PassReport {
    json: Json,
    evaluations: Vec<Evaluation>,
}

impl PassReport {
    fn pass_s(&self) -> f64 {
        field_f64(&self.json, "pass_s")
    }

    fn simulated(&self) -> impl Iterator<Item = &MeResult> {
        self.evaluations
            .iter()
            .filter(|e| e.attempts > 0)
            .filter_map(|e| e.result.as_ref())
    }

    fn cycles_per_s(&self) -> f64 {
        SimSums::of(self.simulated()).me_cycles as f64 / self.pass_s()
    }

    fn outcome_digest(&self) -> String {
        self.json
            .get("outcome_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    }

    fn sim_digest(&self) -> String {
        sim_stats_digest(self.evaluations.iter().filter_map(|e| e.result.as_ref()))
    }

    fn cache(&self) -> CacheCounts {
        self.json
            .get("cache")
            .and_then(CacheCounts::from_json)
            .unwrap_or_default()
    }
}

/// Spawns this binary in a child mode and returns its parsed report.
fn spawn(opts: &Options, args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", Kind::ExploreMixed.name()])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--work")
        .arg(&opts.work)
        .args(args)
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
}

/// Copies the fixture cache into a fresh directory for pass `index`.
fn fresh_pass_dir(work: &Path, index: usize) -> std::io::Result<()> {
    let (dir, journal) = pass_paths(work, index);
    std::fs::create_dir_all(&dir)?;
    for entry in std::fs::read_dir(work.join("fixture"))? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
        }
    }
    match std::fs::remove_file(journal) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Runs pass `index` in a child over a fresh copy of the fixture.
fn run_pass(opts: &Options, index: usize, extra: &[&str]) -> Result<PassReport, String> {
    fresh_pass_dir(&opts.work, index).map_err(|e| format!("preparing pass {index}: {e}"))?;
    let idx = index.to_string();
    let mut args = vec!["--child", "pass", "--index", idx.as_str()];
    args.extend_from_slice(extra);
    let json = spawn(opts, &args)?;
    let (dir, journal) = pass_paths(&opts.work, index);
    let evaluations = read_journal(&journal)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(PassReport { json, evaluations })
}

/// The checks every pass must pass: no failed evaluation, and the same
/// outcome bytes and simulated stats as the first pass.
fn check_pass(report: &PassReport, first: &mut Option<(String, String)>, checks: &mut Checks) {
    checks.attempted += field_u64(&report.json, "evaluations");
    let failures = field_u64(&report.json, "failures");
    checks.failed += failures;
    if failures > 0 {
        println!("check failed: {failures} explore evaluations failed");
    }
    let digests = (report.outcome_digest(), report.sim_digest());
    match first {
        None => *first = Some(digests),
        Some(f) => {
            checks.expect(
                f.0 == digests.0,
                "the explore outcome JSON differs between passes",
            );
            checks.expect(f.1 == digests.1, "sim_stats_digest differs between passes");
        }
    }
}

/// Prepares the fixture cache in a child.
fn prepare(opts: &Options) -> Result<(), String> {
    let fixture = spawn(opts, &["--child", "fixture"])?;
    println!(
        "fixture: {} evaluations explored from seed {} into the cache",
        field_u64(&fixture, "evaluations"),
        FIXTURE_SEED
    );
    Ok(())
}

/// Consecutive child passes and their checks.
struct Passes<'a> {
    opts: &'a Options,
    /// Digests of the first pass (outcome JSON, simulated stats).
    first: Option<(String, String)>,
    checks: Checks,
    next_index: usize,
}

impl Passes<'_> {
    /// Passes until `seconds` elapse (at least `min`), each a child run
    /// followed by `after`.
    fn run(
        &mut self,
        seconds: f64,
        min: usize,
        extra: &[&str],
        after: &mut dyn FnMut(),
    ) -> Result<Vec<PassReport>, String> {
        let mut out = Vec::new();
        let t = Instant::now();
        while out.len() < min || t.elapsed().as_secs_f64() < seconds {
            let report = run_pass(self.opts, self.next_index, extra)?;
            self.next_index += 1;
            check_pass(&report, &mut self.first, &mut self.checks);
            out.push(report);
            after();
        }
        Ok(out)
    }
}

/// The untraced run of `explore_mixed`.
///
/// # Errors
///
/// When a child process cannot be run or reports garbage.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let mut untraced = Trace::new(Instant::now());
    let mut setup = SetUp::first(opts.seed, &opts.work, &mut untraced);
    prepare(opts)?;
    let mut passes = Passes {
        opts,
        first: None,
        checks: Checks::default(),
        next_index: 0,
    };
    let reports = passes.run(opts.seconds, MIN_PASSES, &[], &mut || {
        setup.again(opts.seed, &opts.work, &mut untraced);
    })?;
    let mut checks = passes.checks;
    let walls: Vec<f64> = reports.iter().map(PassReport::pass_s).collect();
    let cps: Vec<f64> = reports.iter().map(PassReport::cycles_per_s).collect();
    let rss = reports
        .iter()
        .map(|r| field_f64(&r.json, "rss_mb"))
        .fold(peak_rss_mb(), f64::max);
    let hits = reports.first().map(|r| r.cache()).unwrap_or_default();
    println!("cache per pass: {}", hits.summary_line());
    let digest = passes.first.map(|f| f.1).unwrap_or_default();
    check_digest(Kind::ExploreMixed, opts.seed, &digest, &mut checks);
    let report = end_to_end_report(&setup.setup_s, &walls, &cps, rss, &checks);
    Ok(Outcome { report, checks })
}

/// The traced run of `explore_mixed`: untraced passes, traced passes
/// (each followed by a replay of its simulated scenarios and the probes),
/// one pass on the interpreter, the derive probe and the paper anchors.
///
/// # Errors
///
/// When a child process cannot be run or reports garbage.
pub fn traced(opts: &Options) -> Result<Outcome, String> {
    let mut trace = Trace::new(Instant::now());
    let setup = traced_set_up(opts.seed, &opts.work, &mut trace);
    let workload = &setup.workload;
    prepare(opts)?;
    let mut layers = Layers::default();
    set_up_layers(&mut layers, &setup, &trace);

    let half = opts.seconds / 2.0;
    let mut passes = Passes {
        opts,
        first: None,
        checks: Checks::default(),
        next_index: 0,
    };
    let plain = passes.run(half, 2, &[], &mut || {})?;
    let traced = passes.run(half, 2, &["--trace", "1"], &mut || {})?;
    let interp = passes.run(0.0, 1, &["--backend", "interpreter"], &mut || {})?;
    let mut checks = passes.checks;

    let walls: Vec<f64> = plain.iter().map(PassReport::pass_s).collect();
    let cps: Vec<f64> = plain.iter().map(PassReport::cycles_per_s).collect();
    layers.untraced_wall_s = median(&walls).unwrap_or(0.0);
    layers.traced_wall_s =
        median(&traced.iter().map(PassReport::pass_s).collect::<Vec<_>>()).unwrap_or(0.0);
    layers.interpreter_cycles_per_s = interp[0].cycles_per_s();
    layers.block_speedup = median(&cps).unwrap_or(0.0) / layers.interpreter_cycles_per_s;

    // Counts repeat exactly across passes: take them from the first.
    let p = &plain[0];
    layers.sums = SimSums::of(p.simulated());
    layers.backend = backend_from_json(p.json.get("backend"));
    layers.cache = p.cache();
    layers.journal_appends = p.evaluations.len() as u64;
    layers.journal_bytes = field_u64(&p.json, "journal_bytes");
    layers.retries = p
        .evaluations
        .iter()
        .map(|e| e.attempts.saturating_sub(1))
        .sum();
    layers.timeouts = p.evaluations.iter().filter(|e| e.timed_out).count() as u64;
    layers.explore_evaluations = field_u64(&p.json, "evaluations");
    layers.explore_revisits = field_u64(&p.json, "revisits");
    layers.frontier_points = field_u64(&p.json, "frontier_points");

    // Replays and probes of the traced passes (host times are medians
    // over the traced passes).
    let replays: Vec<&Json> = traced.iter().filter_map(|r| r.json.get("replay")).collect();
    for r in &replays {
        checks.expect(
            r.get("same_as_run_me") == Some(&Json::Bool(true)),
            "the traced replay's stats differ from run_me's MeResult",
        );
    }
    let med = |key: &str| {
        median(
            &replays
                .iter()
                .map(|r| field_f64(r, key))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    layers.sim_run_s = med("run_s");
    layers.run_us_p50 = med("run_us_p50");
    layers.run_us_p99 = med("run_us_p99");
    layers.kernels_build_s = med("kernels_build_s");
    layers.session_build_s = med("session_build_s");
    layers.cache_probe.key_us = med("cache_key_us");
    layers.cache_probe.record_us = med("cache_record_us");
    layers.cache_probe.lookup_us = med("cache_lookup_us");
    layers.journal_append_us = med("journal_append_us");
    if let Some(r) = replays.first() {
        layers.sim_runs = field_u64(r, "runs");
        layers.kernels_builds = field_u64(r, "kernels_builds");
        layers.session_builds = field_u64(r, "session_builds");
    }
    for name in &SELF_SPANS[4..] {
        let v: Vec<f64> = replays
            .iter()
            .filter_map(|r| r.get("self_s")?.get(name)?.as_f64())
            .collect();
        layers.self_s.insert(name, median(&v).unwrap_or(0.0));
    }
    // Runner spans: the journal's per-evaluation wall_ms (run_explore
    // batches its evaluations, so the progress callback cannot tell when
    // a batch's last scenarios end). Cache hits take under the journal's
    // 1 ms resolution, so the percentiles cover the simulated evaluations.
    let mut busy = Vec::new();
    for r in plain.iter().chain(&traced) {
        let total_ms: u64 = r.evaluations.iter().map(|e| e.wall_ms).sum();
        busy.push(total_ms as f64 * 1e-3 / (Kind::ExploreMixed.threads() as f64 * r.pass_s()));
        let simulated = r.evaluations.iter().filter(|e| e.attempts > 0);
        layers
            .scenario_s
            .extend(simulated.map(|e| e.wall_ms as f64 * 1e-3));
    }
    layers.busy_ratio = median(&busy).unwrap_or(0.0);

    // The derive probe: what the pass's misses pay `Workload::derived`,
    // timed here because this process's memo is still empty.
    let map = scenario_map(&explore_spec(FRAMES));
    let simulated: Vec<&Scenario> = p
        .evaluations
        .iter()
        .filter(|e| e.attempts > 0)
        .filter_map(|e| map.get(&e.label))
        .collect();
    let derive = trace.open("mpeg4.derive", NO_ID, None);
    let t = Instant::now();
    let keys = derivations(&simulated);
    for (approx, search) in &keys {
        std::hint::black_box(workload.derived(*approx, *search));
    }
    layers.derive_s = t.elapsed().as_secs_f64();
    trace.close(derive);
    layers.derives = keys.len() as u64;

    model_layers(
        &mut layers,
        &[],
        workload,
        Kind::ExploreMixed.threads(),
        &mut checks,
    );
    let digest = passes.first.map(|f| f.1).unwrap_or_default();
    check_digest(Kind::ExploreMixed, opts.seed, &digest, &mut checks);
    write_trace(opts, &trace, "");
    Ok(Outcome {
        report: layers.report(),
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_map_covers_the_space() {
        let spec = explore_spec(FRAMES);
        let map = scenario_map(&spec);
        assert_eq!(map.len(), spec.space.size());
    }

    #[test]
    fn journal_lines_read_back() {
        let w = rvliw_core::Workload::tiny();
        let sc = Scenario::a2();
        let r = rvliw_core::run_me(&sc, &w).unwrap();
        let path =
            std::env::temp_dir().join(format!("perfbench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        let key = rvliw_core::scenario_key(&sc, rvliw_core::workload_digest(&w));
        j.record(&key, &Ok(r.clone()), 0, 3);
        j.record(
            &key,
            &Err(rvliw_core::ScenarioError::TimedOut {
                label: "late".to_owned(),
                secs: 9,
            }),
            2,
            9000,
        );
        let evals = read_journal(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0].label, "A2");
        assert_eq!((evals[0].attempts, evals[0].result.as_ref()), (0, Some(&r)));
        assert_eq!((evals[1].attempts, evals[1].timed_out), (2, true));
        assert!(evals[1].result.is_none());
    }
}
