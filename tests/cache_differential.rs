//! Differential tests for the scenario result cache: the warm (cached)
//! path must be bit-identical to the cold (simulating) path for every
//! checked-in spec, at every thread count, and cached faulty runs must
//! never leak into clean runs (or vice versa).
//!
//! These run on `Workload::tiny()` for speed; the full 25-frame cold and
//! warm golden runs are
//! `tests/reproduction.rs::tables_through_one_cache_cold_at_four_threads_then_warm`.

use std::path::{Path, PathBuf};

use rvliw::exp::{
    verify_cache, CaseStudy, ExperimentSpec, Scenario, ScenarioCache, SupervisorConfig, Sweep,
    TablesSnapshot, Workload,
};
use rvliw::fault::{FaultPlan, FaultProfile};

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs")
}

fn load_spec(name: &str) -> ExperimentSpec {
    let path = specs_dir().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ExperimentSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rvliw-cache-diff-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path, w: &Workload) -> ScenarioCache {
    ScenarioCache::open(dir, w, "tiny").expect("cache opens")
}

/// The paper grid, run cold (simulating, populating the cache) and then
/// warm (served from disk) at 1 and 4 threads: every
/// `TablesSnapshot` cell is bit-identical, and the warm runs are pure
/// hits. An uncached run is the cross-check that caching never bends the
/// measurement.
#[test]
fn table_specs_cold_then_warm_are_bit_identical() {
    let w = Workload::tiny();
    let grid = CaseStudy::scenarios();
    let dir = tmpdir("tables");
    let cached = |threads: usize, cache: &ScenarioCache| {
        let config = SupervisorConfig::default();
        CaseStudy::run_scenarios_supervised(&grid, &w, threads, |_| {}, Some(cache), &config).0
    };

    let uncached = CaseStudy::run_scenarios(&grid, &w, 2, |_| {});
    let want = TablesSnapshot::capture(&uncached).cells;

    let cold = open(&dir, &w);
    assert_eq!(TablesSnapshot::capture(&cached(1, &cold)).cells, want);
    let counts = cold.counts();
    assert_eq!(counts.hits, 0, "first run over an empty cache cannot hit");
    assert_eq!(counts.misses, 12, "one miss per grid scenario");
    assert_eq!(counts.writes, 12, "every measurement is published");

    for threads in [1, 4] {
        let warm = open(&dir, &w);
        assert_eq!(
            TablesSnapshot::capture(&cached(threads, &warm)).cells,
            want,
            "warm tables drifted at {threads} thread(s)"
        );
        let counts = warm.counts();
        assert_eq!(counts.hits, 12, "warm run at {threads} thread(s)");
        assert_eq!(counts.misses, 0);
        assert_eq!(counts.stale, 0);
    }

    // And the populated cache re-simulates clean: zero divergent entries.
    let report = verify_cache(&dir, 12, 2).expect("verify runs");
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.checked, 12);
    assert_eq!(report.unverifiable, 0);
}

/// Every checked-in spec — the seven tables plus the off-grid β sweep —
/// through the `rvliw sweep` engine: the cold and warm JSON matrices are
/// byte-identical across thread counts.
#[test]
fn sweep_json_matrices_are_bit_identical_cold_and_warm() {
    let w = Workload::tiny();
    let config = SupervisorConfig::default();
    let names = [
        "table1.json",
        "table2.json",
        "table3.json",
        "table4.json",
        "table5.json",
        "table6.json",
        "table7.json",
        "offgrid_beta_sweep.json",
    ];
    for name in names {
        let dir = tmpdir("sweep");
        let sweep = Sweep::expand(load_spec(name)).expect("spec expands");
        let cold_cache = open(&dir, &w);
        let (cold, _) = sweep.run_supervised(&w, 1, |_| {}, Some(&cold_cache), &config);
        assert!(cold.is_complete(), "{name}: cold sweep must complete");
        for threads in [1, 4] {
            let warm_cache = open(&dir, &w);
            let (warm, _) = sweep.run_supervised(&w, threads, |_| {}, Some(&warm_cache), &config);
            assert_eq!(
                cold.to_json_string(),
                warm.to_json_string(),
                "{name}: warm matrix drifted at {threads} thread(s)"
            );
            let counts = warm_cache.counts();
            assert_eq!(counts.hits, sweep.scenarios().len() as u64, "{name}");
            assert_eq!(counts.misses, 0, "{name}");
        }
    }
}

/// The fault plan is part of the key: a cached faulty measurement is
/// never served for a clean run, and a cached clean measurement is never
/// served for a faulty run.
#[test]
fn faulty_and_clean_runs_never_share_cache_entries() {
    let w = Workload::tiny();
    let dir = tmpdir("fault");
    let clean = Scenario::orig();
    // `latency` only jitters timing — the scenario still completes, so
    // its (wrong-for-clean) measurement really lands in the cache.
    let faulty =
        Scenario::orig().with_fault_plan(FaultPlan::from_profile(FaultProfile::Latency, 7));

    let cache = open(&dir, &w);
    assert_ne!(
        cache.key_for(&clean),
        cache.key_for(&faulty),
        "fault seed/profile must be part of the cache key"
    );
    // Same profile, different seed: also a different key.
    let reseeded =
        Scenario::orig().with_fault_plan(FaultPlan::from_profile(FaultProfile::Latency, 8));
    assert_ne!(cache.key_for(&faulty), cache.key_for(&reseeded));

    let faulty_result = rvliw::exp::run_me(&faulty, &w).expect("latency jitter only slows the run");
    cache.record(&faulty, &faulty_result);
    assert_eq!(
        cache.lookup(&clean),
        None,
        "a faulty measurement must not satisfy a clean lookup"
    );

    let clean_result = rvliw::exp::run_me(&clean, &w).expect("clean run completes");
    cache.record(&clean, &clean_result);
    assert_eq!(cache.lookup(&clean), Some(clean_result.clone()));
    assert_eq!(cache.lookup(&faulty), Some(faulty_result.clone()));
    assert_ne!(
        clean_result.me_cycles, faulty_result.me_cycles,
        "sanity: the latency profile visibly perturbs the measurement"
    );
}
