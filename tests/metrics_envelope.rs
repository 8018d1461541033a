//! The `--metrics-out` envelope ([`RunMetrics`]) describes the run that
//! made the results, with nothing re-simulated:
//!
//! 1. every `"scenarios"` entry decodes through `me_result_from_json` to
//!    exactly the `MeResult` the run returned;
//! 2. a warm-cache run and a `--resume` run give `"scenarios"` objects
//!    identical to the cold run's;
//! 3. a scenario that fails under a fault profile has no entry, and the
//!    `"health"` report counts it; one a retry rescued is described by
//!    the attempt that succeeded;
//! 4. only results carrying speed-vs-quality metrics fill `"quality"`;
//! 5. `rvliw sweep --metrics-out` writes that envelope for its rows.
//!
//! This file rides in the no-panic clippy gate, so fallible setup goes
//! through [`ok`] instead of `unwrap`.

use std::fmt::Display;
use std::path::PathBuf;

use rvliw::exp::cache::me_result_from_json;
use rvliw::exp::{
    run_me, run_scenario_list_supervised, CaseStudy, ExperimentSpec, HealthReport, Journal,
    RunMetrics, Scenario, ScenarioCache, ScenarioResult, SupervisorConfig, Sweep, Workload,
};
use rvliw::fault::{FaultPlan, FaultProfile};
use rvliw::mpeg4::ApproxSad;
use rvliw::trace::Json;

/// Unwraps a fallible setup step with a labelled panic.
fn ok<T, E: Display>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{what}: {e}"),
    }
}

fn some<T>(what: &str, v: Option<T>) -> T {
    match v {
        Some(v) => v,
        None => panic!("{what}: missing"),
    }
}

fn nop(_: &str) {}

const TABLE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/table1.json");

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rvliw-metrics-envelope-{tag}-{}",
        std::process::id()
    ));
    // A leftover from an earlier run with the same pid would warm the
    // "cold" cache.
    let _ = std::fs::remove_dir_all(&dir);
    ok("create tmpdir", std::fs::create_dir_all(&dir));
    dir
}

/// Instruction-level and loop-level scenarios, all completing on the
/// tiny workload.
fn grid() -> Vec<Scenario> {
    vec![
        Scenario::orig(),
        Scenario::a1(),
        Scenario::a3(),
        Scenario::loop_two_lb(5),
    ]
}

fn run(
    scenarios: &[Scenario],
    w: &Workload,
    cache: Option<&ScenarioCache>,
    config: &SupervisorConfig,
) -> (Vec<ScenarioResult>, HealthReport) {
    run_scenario_list_supervised(scenarios, w, 2, &nop, cache, config)
}

/// The envelope of a run, through its printed text as a reader sees it.
fn envelope(results: &[ScenarioResult], health: &HealthReport) -> Json {
    let m = RunMetrics::new().results(results).health(health);
    ok("parse envelope", Json::parse(&m.to_json().to_string()))
}

fn scenarios(doc: &Json) -> &std::collections::BTreeMap<String, Json> {
    match doc.get("scenarios") {
        Some(Json::Obj(m)) => m,
        other => panic!("\"scenarios\" is not an object: {other:?}"),
    }
}

#[test]
fn scenario_entries_decode_to_the_run_results() {
    let w = Workload::tiny();
    let (results, health) = run(&grid(), &w, None, &SupervisorConfig::default());
    let doc = envelope(&results, &health);
    assert_eq!(
        doc.get("schema").and_then(Json::as_u64),
        Some(RunMetrics::SCHEMA)
    );
    let entries = scenarios(&doc);
    assert_eq!(entries.len(), grid().len());
    for r in &results {
        let r = ok("grid scenario", r.as_ref());
        let entry = some(&r.label, entries.get(&r.label));
        assert_eq!(me_result_from_json(entry).as_ref(), Some(r), "{}", r.label);
    }
    assert!(doc.get("quality").is_none(), "exact scenarios carry none");
}

#[test]
fn warm_cache_and_resume_runs_give_the_cold_scenarios() {
    let w = Workload::tiny();
    let dir = tmpdir("cache");
    let journal = dir.join("run.jsonl");
    let cache = ok("open cache", ScenarioCache::open(dir.join("c"), &w, "tiny"));
    let config = SupervisorConfig {
        journal: Some(ok("open journal", Journal::open(&journal))),
        ..SupervisorConfig::default()
    };
    let (cold, cold_health) = run(&grid(), &w, Some(&cache), &config);
    assert_eq!(cache.counts().writes, grid().len() as u64);

    let warm_cache = ok(
        "reopen cache",
        ScenarioCache::open(dir.join("c"), &w, "tiny"),
    );
    let (warm, warm_health) = run(&grid(), &w, Some(&warm_cache), &SupervisorConfig::default());
    assert_eq!(warm_cache.counts().hits, grid().len() as u64);

    let resume = SupervisorConfig {
        resume: ok("load journal", Journal::load(&journal)),
        ..SupervisorConfig::default()
    };
    let (resumed, resumed_health) = run(&grid(), &w, None, &resume);
    assert_eq!(resumed_health.replayed, grid().len());

    let cold = envelope(&cold, &cold_health);
    assert_eq!(scenarios(&cold).len(), grid().len());
    assert_eq!(
        scenarios(&envelope(&warm, &warm_health)),
        scenarios(&cold),
        "warm cache"
    );
    assert_eq!(
        scenarios(&envelope(&resumed, &resumed_health)),
        scenarios(&cold),
        "resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_scenarios_are_counted_in_health_not_listed() {
    let w = Workload::tiny();
    let plan = FaultPlan::from_profile(FaultProfile::Chaos, 7);
    let grid: Vec<Scenario> = CaseStudy::scenarios()
        .into_iter()
        .map(|sc| sc.with_fault_plan(plan))
        .collect();
    let (results, health) = run(&grid, &w, None, &SupervisorConfig::default());
    let failed: Vec<&str> = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .map(|e| e.label())
        .collect();
    assert!(
        !failed.is_empty() && failed.len() < grid.len(),
        "chaos seed 7 must fail some scenarios and not all: {failed:?}"
    );

    let doc = envelope(&results, &health);
    let entries = scenarios(&doc);
    assert_eq!(entries.len(), grid.len() - failed.len());
    for label in &failed {
        assert!(!entries.contains_key(*label), "{label} failed");
    }
    let counted = doc
        .get("health")
        .and_then(|h| h.get("failed"))
        .and_then(Json::as_u64);
    assert_eq!(counted, Some(failed.len() as u64));
}

#[test]
fn retried_scenarios_are_described_by_the_attempt_that_succeeded() {
    // On the tiny workload, ORIG's longest kernel run takes 1003 cycles
    // under latency-profile seed 0 and 978 under the plan the first retry
    // reseeds: a 990-cycle budget fails attempt 0 and passes attempt 1.
    let w = Workload::tiny();
    let sc = Scenario::orig()
        .with_fault_plan(FaultPlan::from_profile(FaultProfile::Latency, 0))
        .with_cycle_limit(990);
    let first = run_me(&sc, &w);
    assert!(
        matches!(&first, Err(e) if e.is_transient()),
        "attempt 0 must trip the budget: {first:?}"
    );
    let config = SupervisorConfig {
        max_retries: 1,
        ..SupervisorConfig::default()
    };
    let (results, health) = run(&[sc], &w, None, &config);
    assert_eq!(health.retries, 1);
    let r = ok("retried ORIG", results[0].as_ref());
    let doc = envelope(&results, &health);
    let entry = some("ORIG entry", scenarios(&doc).get(&r.label));
    assert_eq!(me_result_from_json(entry).as_ref(), Some(r));
}

#[test]
fn only_approximate_results_fill_the_quality_object() {
    let w = Workload::tiny();
    let grid = [
        Scenario::orig(),
        Scenario::a3().with_approx(ApproxSad::SubsampledRows { step: 2 }),
    ];
    let (results, health) = run(&grid, &w, None, &SupervisorConfig::default());
    let doc = envelope(&results, &health);
    let a3 = ok("approximate A3", results[1].as_ref());
    let q = some("A3 quality block", a3.quality);
    let quality = match doc.get("quality") {
        Some(Json::Obj(m)) => m,
        other => panic!("\"quality\" is not an object: {other:?}"),
    };
    assert_eq!(quality.keys().collect::<Vec<_>>(), ["A3"]);
    let block = some("A3 entry", quality.get("A3"));
    for (key, v) in [
        ("sad_inflation", q.sad_inflation),
        ("psnr_delta_db", q.psnr_delta_db),
    ] {
        assert_eq!(block.get(key), Some(&Json::Num(format!("{v:.6}"))), "{key}");
    }
    let entry = some("A3 scenario", scenarios(&doc).get("A3"));
    assert_eq!(me_result_from_json(entry).as_ref(), Some(a3));
}

#[test]
fn sweep_metrics_out_writes_the_envelope_of_its_rows() {
    let dir = tmpdir("sweep");
    let path = dir.join("m.json");
    let out = ok(
        "spawn rvliw sweep",
        std::process::Command::new(env!("CARGO_BIN_EXE_rvliw"))
            .args(["sweep", TABLE1, "--frames", "2", "--no-cache"])
            .arg("--metrics-out")
            .arg(&path)
            .output(),
    );
    assert!(
        out.status.success(),
        "rvliw sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = ok("read metrics", std::fs::read_to_string(&path));
    let doc = ok("parse metrics", Json::parse(&text));
    assert_eq!(
        doc.get("schema").and_then(Json::as_u64),
        Some(RunMetrics::SCHEMA)
    );
    let entries = scenarios(&doc);

    // The same spec on the same workload in-process: the binary's entries
    // are exactly its rows.
    let text = ok("read spec", std::fs::read_to_string(TABLE1));
    let spec = ok("parse spec", ExperimentSpec::from_json_str(&text));
    let sweep = ok("expand spec", Sweep::expand(spec));
    let outcome = sweep.run(&Workload::qcif_frames(2), 2, nop);
    assert_eq!(entries.len(), outcome.rows.len());
    for row in &outcome.rows {
        let r = ok("table1 row", row.result.as_ref());
        assert!(r.calls > 0, "{} simulated nothing", r.label);
        let entry = some(&r.label, entries.get(&r.label));
        assert_eq!(me_result_from_json(entry).as_ref(), Some(r), "{}", r.label);
    }
    assert!(doc.get("health").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
