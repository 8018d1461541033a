//! Set-up, the end-to-end report, and the in-process workloads
//! (`paper_grid`, `rfu_loop`): closed-loop passes of one scenario list
//! through the public runner, each starting when the last one ended.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use rvliw_core::sweep::ScenarioResult;
use rvliw_core::{run_scenario_list, CaseStudy, ScenarioCache, Sweep, TablesSnapshot, Workload};
use rvliw_core::{MeResult, Scenario};
use rvliw_sim::{backend_totals, ExecBackend};
use rvliw_trace::Json;

use crate::layers::{anchor_scenarios, backend_diff, model_errors, Layers, SimSums, SELF_SPANS};
use crate::probe::{cache_probe, journal_probe, RunnerSpans};
use crate::replay::{replay_list, ReplayTotals};
use crate::spans::{Trace, NO_ID};
use crate::stats::{median, percentile, Report};
use crate::workloads::{build_workload, rfu_loop_spec, Kind, FRAMES, PAPER_SEED};
use crate::{
    check_digest, ok_results, sim_stats_digest, Checks, Options, Outcome, MIN_PASSES, OUT_DIR,
};

/// The base workload plus the host seconds of each set-up.
#[derive(Debug)]
pub struct SetUp {
    /// The workload, from the last set-up.
    pub workload: Workload,
    /// Whole set-ups: generate, encode, `ScenarioCache::open`.
    pub setup_s: Vec<f64>,
    /// `SyntheticSequence::generate` per set-up.
    pub generate_s: Vec<f64>,
    /// `Encoder::encode` per set-up.
    pub encode_s: Vec<f64>,
    /// `ScenarioCache::open` (which digests the workload) per set-up.
    pub open_s: Vec<f64>,
}

impl SetUp {
    /// The first set-up, before any pass.
    #[must_use]
    pub fn first(seed: u64, work: &Path, trace: &mut Trace) -> SetUp {
        let mut out = SetUp {
            workload: Workload::tiny(),
            setup_s: Vec::new(),
            generate_s: Vec::new(),
            encode_s: Vec::new(),
            open_s: Vec::new(),
        };
        out.again(seed, work, trace);
        out
    }

    /// Sets the workload up once more — sequence generation, host encode
    /// and `ScenarioCache::open` on a fresh directory — recording a
    /// `setup` span with its children. Runs repeat it after every pass,
    /// so `setup_s` is a median over samples spread across the run.
    ///
    /// # Panics
    ///
    /// When the cache directory cannot be created.
    pub fn again(&mut self, seed: u64, work: &Path, trace: &mut Trace) {
        let root = trace.open("setup", NO_ID, None);
        let t = Instant::now();
        let built = build_workload(seed, FRAMES, trace, Some(root));
        let span = trace.open("cache.open", NO_ID, Some(root));
        let t_open = Instant::now();
        let dir = work.join(format!("setup-{}", self.setup_s.len()));
        let cache =
            ScenarioCache::open(dir, &built.workload, "perfbench").expect("set-up cache directory");
        self.open_s.push(t_open.elapsed().as_secs_f64());
        trace.close(span);
        self.setup_s.push(t.elapsed().as_secs_f64());
        trace.close(root);
        drop(cache);
        self.generate_s.push(built.generate.as_secs_f64());
        self.encode_s.push(built.encode.as_secs_f64());
        self.workload = built.workload;
    }
}

/// The end-to-end report, and the `failed_ratio` line beside it.
///
/// The time metrics are best-of-run: the fastest set-up, the fastest
/// pass and the highest pass rate. Co-tenants on the benchmark host slow
/// whole runs down by up to 2x for tens of seconds at a time; across runs
/// the fastest sample stayed within the bounds where the median did not
/// (see `README.md`). Medians and maxima are printed beside them.
#[must_use]
pub fn end_to_end_report(
    setup_s: &[f64],
    walls: &[f64],
    cps: &[f64],
    rss_mb: f64,
    checks: &Checks,
) -> Report {
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let mut r = Report::default();
    r.push("setup_s", min(setup_s), "s");
    r.push("wall_s", min(walls), "s");
    r.push("sim_cycles_per_s", max(cps), "cycles/s");
    r.push("peak_rss_mb", rss_mb, "MiB");
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (name, xs) in [("set-ups", setup_s), ("passes", walls)] {
        println!("{name} {}: {} s", xs.len(), list(xs));
        println!(
            "  min {:.4} median {:.4} max {:.4} s",
            min(xs),
            median(xs).unwrap_or(0.0),
            max(xs)
        );
    }
    println!(
        "failed_ratio = {} ratio ({} failed of {} attempted)",
        checks.failed_ratio(),
        checks.failed,
        checks.attempted
    );
    r
}

/// One runner pass: its results in scenario order, host seconds and,
/// for `paper_grid`, the tables snapshot.
struct Pass {
    results: Vec<ScenarioResult>,
    secs: f64,
    snapshot: Option<TablesSnapshot>,
}

/// The scenario list of an in-process workload and how it is submitted.
enum Grid {
    /// `CaseStudy::run_scenarios` — what `tables` runs.
    Paper(Vec<Scenario>),
    /// `Sweep::run` — what `rvliw sweep` runs.
    Sweep(Sweep),
}

impl Grid {
    fn new(kind: Kind) -> Grid {
        match kind {
            Kind::PaperGrid => Grid::Paper(CaseStudy::scenarios()),
            _ => Grid::Sweep(Sweep::expand(rfu_loop_spec(FRAMES)).expect("rfu_loop spec expands")),
        }
    }

    fn scenarios(&self) -> &[Scenario] {
        match self {
            Grid::Paper(s) => s,
            Grid::Sweep(s) => s.scenarios(),
        }
    }

    fn pass(&self, workload: &Workload, threads: usize, progress: &(impl Fn(&str) + Sync)) -> Pass {
        let t = Instant::now();
        match self {
            Grid::Paper(scenarios) => {
                let cs = CaseStudy::run_scenarios(scenarios, workload, threads, |l| progress(l));
                let secs = t.elapsed().as_secs_f64();
                Pass {
                    results: cs.results().cloned().collect(),
                    secs,
                    snapshot: Some(TablesSnapshot::capture(&cs)),
                }
            }
            Grid::Sweep(sweep) => {
                let outcome = sweep.run(workload, threads, |l| progress(l));
                let secs = t.elapsed().as_secs_f64();
                Pass {
                    results: outcome.rows.into_iter().map(|r| r.result).collect(),
                    secs,
                    snapshot: None,
                }
            }
        }
    }
}

/// The `"tables"` snapshot of `BENCH_tables.json` in the working
/// directory.
fn tables_baseline() -> Result<TablesSnapshot, String> {
    let text = std::fs::read_to_string("BENCH_tables.json")
        .map_err(|e| format!("BENCH_tables.json: {e}"))?;
    let json = Json::parse(&text)?;
    TablesSnapshot::from_json(
        json.get("tables")
            .ok_or("BENCH_tables.json has no `tables`")?,
    )
}

/// Checks one pass: every evaluation succeeded, its digest equals the
/// first pass's, and (at the paper seed) every table cell equals
/// `BENCH_tables.json`.
fn check_pass(
    pass: &Pass,
    digest: &mut Option<String>,
    baseline: Option<&Result<TablesSnapshot, String>>,
    checks: &mut Checks,
) {
    checks.evaluations(&pass.results);
    let d = sim_stats_digest(ok_results(&pass.results));
    match digest {
        None => *digest = Some(d),
        Some(first) => checks.expect(
            *first == d,
            format!("sim_stats_digest {d} differs from the first pass's {first}"),
        ),
    }
    if let (Some(baseline), Some(snapshot)) = (baseline, &pass.snapshot) {
        match baseline {
            Ok(base) => {
                let diff = snapshot.diff(base);
                for line in diff.iter().take(8) {
                    println!("  table drift: {line}");
                }
                checks.expect(
                    diff.is_empty(),
                    format!("{} table cells differ from BENCH_tables.json", diff.len()),
                );
            }
            Err(e) => checks.expect(false, format!("cannot read the tables baseline: {e}")),
        }
    }
}

fn cycles_per_s(results: &[ScenarioResult], secs: f64) -> f64 {
    SimSums::of(ok_results(results)).me_cycles as f64 / secs
}

/// The untraced run of `paper_grid` or `rfu_loop`: set-up, then passes
/// until `--seconds` have elapsed (at least [`MIN_PASSES`]), each followed
/// by another set-up.
#[must_use]
pub fn end_to_end(opts: &Options) -> Outcome {
    let kind = opts.workload;
    let mut untraced = Trace::new(Instant::now());
    let mut setup = SetUp::first(opts.seed, &opts.work, &mut untraced);
    let grid = Grid::new(kind);
    let baseline = (kind == Kind::PaperGrid && opts.seed == PAPER_SEED).then(tables_baseline);
    let mut checks = Checks::default();
    let mut digest = None;
    let (mut walls, mut cps) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while walls.len() < MIN_PASSES || t.elapsed().as_secs_f64() < opts.seconds {
        let pass = grid.pass(&setup.workload, kind.threads(), &|_| {});
        check_pass(&pass, &mut digest, baseline.as_ref(), &mut checks);
        cps.push(cycles_per_s(&pass.results, pass.secs));
        walls.push(pass.secs);
        setup.again(opts.seed, &opts.work, &mut untraced);
    }
    check_digest(
        kind,
        opts.seed,
        digest.as_deref().unwrap_or(""),
        &mut checks,
    );
    let report = end_to_end_report(&setup.setup_s, &walls, &cps, crate::peak_rss_mb(), &checks);
    Outcome { report, checks }
}

/// Scenario/result pairs of the successful evaluations.
fn pairs<'a>(
    scenarios: &'a [Scenario],
    results: &'a [ScenarioResult],
) -> Vec<(&'a Scenario, &'a MeResult)> {
    scenarios
        .iter()
        .zip(results)
        .filter_map(|(sc, r)| Some((sc, r.as_ref().ok()?)))
        .collect()
}

/// Distinct derived workloads `scenarios` need (approximation × search).
#[must_use]
pub fn derivations(
    scenarios: &[&Scenario],
) -> Vec<(mpeg4_enc::ApproxSad, Option<mpeg4_enc::SearchAlgorithm>)> {
    let mut seen = BTreeSet::new();
    scenarios
        .iter()
        .filter(|sc| sc.needs_derived_workload())
        .map(|sc| (sc.approx, sc.search))
        .filter(|k| seen.insert(format!("{k:?}")))
        .collect()
}

/// Set-ups at the start of a traced run.
pub const TRACED_SETUPS: usize = 3;

/// The set-ups of a traced run, recorded into `trace`.
#[must_use]
pub fn traced_set_up(seed: u64, work: &Path, trace: &mut Trace) -> SetUp {
    let mut setup = SetUp::first(seed, work, trace);
    for _ in 1..TRACED_SETUPS {
        setup.again(seed, work, trace);
    }
    setup
}

/// Fills the set-up fields of `layers` and the set-up spans' self times.
pub fn set_up_layers(layers: &mut Layers, setup: &SetUp, trace: &Trace) {
    layers.generate_s = median(&setup.generate_s).unwrap_or(0.0);
    layers.encode_s = median(&setup.encode_s).unwrap_or(0.0);
    layers.cache_open_s = median(&setup.open_s).unwrap_or(0.0);
    layers.sad_calls = setup.workload.num_calls() as u64;
    let st = trace.self_times();
    for name in &SELF_SPANS[..4] {
        layers.self_s.insert(
            name,
            st.get(name).copied().unwrap_or(0.0) / setup.setup_s.len() as f64,
        );
    }
}

/// Fills the replay fields of `layers` from per-pass totals (host times
/// are medians over passes; counts repeat exactly) and the pass spans'
/// self times (per traced pass).
pub fn replay_layers(layers: &mut Layers, per_pass: &[ReplayTotals], trace: &Trace) {
    let med = |f: &dyn Fn(&ReplayTotals) -> u64| {
        median(
            &per_pass
                .iter()
                .map(|t| f(t) as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    layers.sim_run_s = med(&|t| t.run_ns);
    layers.kernels_build_s = med(&|t| t.kernel_ns);
    layers.session_build_s = med(&|t| t.session_ns);
    layers.derive_s = med(&|t| t.derive_ns);
    if let Some(last) = per_pass.last() {
        layers.sim_runs = last.runs;
        layers.kernels_builds = last.kernel_builds;
        layers.session_builds = last.session_builds;
        let call_us: Vec<f64> = last
            .call_ns
            .iter()
            .map(|&ns| f64::from(ns) * 1e-3)
            .collect();
        layers.run_us_p50 = percentile(&call_us, 50.0).unwrap_or(0.0);
        layers.run_us_p99 = percentile(&call_us, 99.0).unwrap_or(0.0);
    }
    let st = trace.self_times();
    let passes = per_pass.len().max(1) as f64;
    for name in &SELF_SPANS[4..] {
        layers
            .self_s
            .insert(name, st.get(name).copied().unwrap_or(0.0) / passes);
    }
}

/// Writes the span trace of a traced run and says where.
pub fn write_trace(opts: &Options, trace: &Trace, tag: &str) {
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-{tag}seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace.to_jsonl()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Model error against the paper anchors, from `results` or, when they
/// lack the anchors, from an untimed run of the anchor scenarios.
pub fn model_layers(
    layers: &mut Layers,
    results: &[&MeResult],
    workload: &Workload,
    threads: usize,
    checks: &mut Checks,
) {
    let errors = model_errors(results).or_else(|| {
        let anchors = run_scenario_list(&anchor_scenarios(), workload, threads, &|_| {});
        checks.evaluations(&anchors);
        model_errors(&ok_results(&anchors).collect::<Vec<_>>())
    });
    checks.expect(errors.is_some(), "the paper anchors could not be measured");
    layers.model = errors.unwrap_or_default();
    for (name, err) in &layers.model {
        println!("accuracy {name} = {err:+.4} (a speed-only change leaves this untouched)");
    }
}

/// The traced run of `paper_grid` or `rfu_loop`: runner passes with
/// per-scenario spans, then the same list replayed through the layers'
/// public APIs with a span around every step, then one pass on the
/// interpreter, the paper anchors and the cache and journal probes.
#[must_use]
pub fn traced(opts: &Options) -> Outcome {
    let kind = opts.workload;
    let threads = kind.threads();
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let setup = traced_set_up(opts.seed, &opts.work, &mut trace);
    let workload = &setup.workload;
    let grid = Grid::new(kind);
    let baseline = (kind == Kind::PaperGrid && opts.seed == PAPER_SEED).then(tables_baseline);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    set_up_layers(&mut layers, &setup, &trace);

    // Runner passes, timed per scenario from the progress callback.
    let half = opts.seconds / 2.0;
    let mut digest = None;
    let mut runner_results: Option<Vec<ScenarioResult>> = None;
    let (mut walls, mut cps, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let t = Instant::now();
    while walls.len() < MIN_PASSES || t.elapsed().as_secs_f64() < half {
        let spans = RunnerSpans::default();
        let before = backend_totals();
        let pass = grid.pass(workload, threads, &|_| spans.note());
        let end = Instant::now();
        layers.backend = backend_diff(backend_totals(), before);
        check_pass(&pass, &mut digest, baseline.as_ref(), &mut checks);
        let durations = spans.durations(end);
        busy.push(durations.iter().sum::<f64>() / (threads as f64 * pass.secs));
        layers.scenario_s.extend(durations);
        cps.push(cycles_per_s(&pass.results, pass.secs));
        walls.push(pass.secs);
        runner_results.get_or_insert(pass.results);
    }
    let runner_results = runner_results.expect("at least one runner pass");
    layers.busy_ratio = median(&busy).unwrap_or(0.0);
    layers.sums = SimSums::of(ok_results(&runner_results));

    // Traced passes: the same list replayed step by step.
    let mut traced_walls = Vec::new();
    let mut per_pass = Vec::new();
    let t = Instant::now();
    while traced_walls.len() < 2 || t.elapsed().as_secs_f64() < half {
        let pass_span = trace.open("pass", NO_ID, None);
        let t0 = Instant::now();
        let (results, sub, totals) = replay_list(grid.scenarios(), workload, threads, origin);
        traced_walls.push(t0.elapsed().as_secs_f64());
        trace.merge(sub, Some(pass_span));
        trace.close(pass_span);
        checks.evaluations(&results);
        let same = results == runner_results;
        if !same {
            if let Some((a, b)) = results.iter().zip(&runner_results).find(|(a, b)| a != b) {
                println!("  replay: {a:?}\n  run_me: {b:?}");
            }
        }
        checks.expect(
            same,
            "the traced replay's stats differ from run_me's MeResult",
        );
        per_pass.push(totals);
    }
    replay_layers(&mut layers, &per_pass, &trace);
    layers.traced_wall_s = median(&traced_walls).unwrap_or(0.0);
    layers.untraced_wall_s = median(&walls).unwrap_or(0.0);

    // One pass on the interpreter, for the block backend's speed-up.
    ExecBackend::Interpreter.set_process_default();
    let pass = grid.pass(workload, threads, &|_| {});
    ExecBackend::Auto.set_process_default();
    check_pass(&pass, &mut digest, None, &mut checks);
    layers.interpreter_cycles_per_s = cycles_per_s(&pass.results, pass.secs);
    layers.block_speedup = median(&cps).unwrap_or(0.0) / layers.interpreter_cycles_per_s;

    let ok: Vec<&MeResult> = ok_results(&runner_results).collect();
    model_layers(&mut layers, &ok, workload, threads, &mut checks);

    let scenario_refs: Vec<&Scenario> = grid.scenarios().iter().collect();
    layers.derives = derivations(&scenario_refs).len() as u64;
    let pairs = pairs(grid.scenarios(), &runner_results);
    layers.cache_probe = cache_probe(&pairs, workload, &opts.work.join("probe-cache"));
    let (us, lines, bytes) = journal_probe(&pairs, workload, &opts.work.join("probe.journal"));
    layers.journal_append_us = us;
    layers.journal_appends = lines;
    layers.journal_bytes = bytes;

    check_digest(
        kind,
        opts.seed,
        digest.as_deref().unwrap_or(""),
        &mut checks,
    );
    write_trace(opts, &trace, "");
    Outcome {
        report: layers.report(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_report_is_best_of_run_and_matches_benchmark_json() {
        let r = end_to_end_report(
            &[0.3, 0.2, 0.25],
            &[2.5, 2.0, 3.0],
            &[4.0e7, 5.0e7, 3.0e7],
            14.5,
            &Checks::default(),
        );
        let got: Vec<(&str, f64, &str)> = r
            .metrics()
            .iter()
            .map(|m| (m.name.as_str(), m.value, m.unit))
            .collect();
        assert_eq!(
            got,
            [
                ("setup_s", 0.2, "s"),
                ("wall_s", 2.0, "s"),
                ("sim_cycles_per_s", 5.0e7, "cycles/s"),
                ("peak_rss_mb", 14.5, "MiB"),
            ]
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let want: Vec<(&str, &str)> = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("unit"))
            })
            .collect();
        let names: Vec<(&str, &str)> = got.iter().map(|(n, _, u)| (*n, *u)).collect();
        assert_eq!(names, want);
    }
}
