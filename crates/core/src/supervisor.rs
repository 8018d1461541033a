//! Supervised sweep execution: run journal + resume, bounded retries with
//! deterministic backoff, wall-clock watchdogs, and a per-run health
//! report.
//!
//! The paper's tables come from multi-scenario simulation campaigns; this
//! module makes those campaigns survivable. Every scenario outcome is
//! appended to a [`Journal`] (one JSON envelope per line, atomic line
//! appends) as it lands, so an interrupted sweep restarted with
//! `--resume` replays the completed prefix (journal ∪ cache) and only
//! simulates the remainder — producing matrices bit-identical to an
//! uninterrupted run. Transient failures (fault-injected latency or
//! flushes, cycle-budget trips under a chaos profile, timeouts) are
//! retried up to a bound with per-(scenario, attempt) substream-seeded
//! fault plans, so reruns are reproducible; permanent failures
//! (mismatches, panics) fail fast. An optional wall-clock watchdog marks
//! a hung scenario [`ScenarioError::TimedOut`] and lets the worker pool
//! keep draining. Everything that happened is summarized in a
//! [`HealthReport`].
//!
//! [`run_scenario_list_supervised`] is the only scenario runner: every
//! table, sweep and exploration goes through it. With
//! [`SupervisorConfig::default`] it journals nothing, resumes nothing,
//! retries nothing and spawns no watchdog threads, which is how
//! [`crate::run_scenario_list`], [`crate::Sweep::run`] and
//! [`crate::CaseStudy::run_scenarios`] call it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rvliw_cache::{CacheCounts, CacheKey};
use rvliw_trace::Json;

use crate::cache::{
    me_result_from_json, me_result_to_json, scenario_key, workload_digest, ScenarioCache,
};
use crate::runner::{MeResult, ScenarioError};
use crate::scenario::Scenario;
use crate::sweep::{run_isolated, ScenarioResult};
use crate::workload::Workload;

/// Version of the journal line envelope. Bump when the line layout
/// changes; old journals then replay nothing (safe: re-simulation).
pub const JOURNAL_SCHEMA: u64 = 1;

/// An append-only JSONL run journal.
///
/// One JSON envelope per line:
///
/// ```json
/// {"schema":1,"kind":"scenario","key":"<32 hex>","label":"...","outcome":"ok","attempts":1,"wall_ms":12,"me_cycles":34,"result":{...}}
/// {"schema":1,"kind":"scenario","key":"<32 hex>","label":"...","outcome":"err","attempts":3,"wall_ms":40,"error":"..."}
/// ```
///
/// Lines are written with a single `write_all` on an append-mode file
/// under a mutex, so concurrent workers never interleave partial lines;
/// a crash can only truncate the final line, which [`Journal::load`]
/// skips.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Opens `path` for appending, creating it (and its parent
    /// directories) when absent.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or opening the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one scenario outcome. Write failures are warned on stderr,
    /// never fatal — the journal is a safety net, not a dependency.
    pub fn record(&self, key: &CacheKey, result: &ScenarioResult, attempts: u64, wall_ms: u64) {
        let mut o = BTreeMap::new();
        o.insert("schema".to_owned(), Json::Num(JOURNAL_SCHEMA.to_string()));
        o.insert("kind".to_owned(), Json::Str("scenario".to_owned()));
        o.insert("key".to_owned(), Json::Str(key.hex()));
        o.insert("attempts".to_owned(), Json::Num(attempts.to_string()));
        o.insert("wall_ms".to_owned(), Json::Num(wall_ms.to_string()));
        match result {
            Ok(r) => {
                o.insert("label".to_owned(), Json::Str(r.label.clone()));
                o.insert("outcome".to_owned(), Json::Str("ok".to_owned()));
                o.insert("me_cycles".to_owned(), Json::Num(r.me_cycles.to_string()));
                o.insert("result".to_owned(), me_result_to_json(r));
            }
            Err(e) => {
                o.insert("label".to_owned(), Json::Str(e.label().to_owned()));
                o.insert("outcome".to_owned(), Json::Str("err".to_owned()));
                o.insert("error".to_owned(), Json::Str(e.to_string()));
            }
        }
        let line = format!("{}\n", Json::Obj(o));
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            eprintln!(
                "warning: journal append failed for {}: {e}",
                self.path.display()
            );
        }
    }

    /// Loads the replayable outcomes of a journal file: the map from
    /// content key (hex) to the successful measurement recorded under it.
    ///
    /// Tolerant by construction: a truncated final line, a corrupt line,
    /// an unknown schema or a failed (`"err"`) outcome is skipped — those
    /// scenarios simply re-simulate. Later lines win when a key repeats.
    ///
    /// # Errors
    ///
    /// Any I/O error reading the file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<BTreeMap<String, MeResult>> {
        let text = fs::read_to_string(path)?;
        let mut replay = BTreeMap::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(env) = Json::parse(line) else { continue };
            if env.get("schema").and_then(Json::as_u64) != Some(JOURNAL_SCHEMA)
                || env.get("kind").and_then(Json::as_str) != Some("scenario")
                || env.get("outcome").and_then(Json::as_str) != Some("ok")
            {
                continue;
            }
            let key = env.get("key").and_then(Json::as_str);
            let result = env.get("result").and_then(me_result_from_json);
            let label = env.get("label").and_then(Json::as_str);
            if let (Some(key), Some(result), Some(label)) = (key, result, label) {
                if CacheKey::from_hex(key).is_some() && result.label == label {
                    replay.insert(key.to_owned(), result);
                }
            }
        }
        Ok(replay)
    }
}

/// Policy knobs for one supervised run. [`Default`] is "no supervision":
/// each scenario is looked up in the cache (when one is attached) or
/// simulated once.
#[derive(Debug, Default)]
pub struct SupervisorConfig {
    /// Retry a transient failure up to this many extra attempts.
    pub max_retries: u32,
    /// Wall-clock deadline per attempt. `None` disables the watchdog (no
    /// extra threads are spawned).
    pub timeout: Option<Duration>,
    /// Journal to append every outcome to.
    pub journal: Option<Journal>,
    /// Completed outcomes from a previous run's journal, replayed instead
    /// of re-simulated.
    pub resume: BTreeMap<String, MeResult>,
}

impl SupervisorConfig {
    /// Whether any knob deviates from [`SupervisorConfig::default`].
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.max_retries > 0
            || self.timeout.is_some()
            || self.journal.is_some()
            || !self.resume.is_empty()
    }

    /// Whether per-scenario content keys are needed (journal or resume).
    fn needs_keys(&self) -> bool {
        self.journal.is_some() || !self.resume.is_empty()
    }
}

/// What happened during one supervised run, for the stderr summary and
/// `--metrics-out`.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Scenarios in the run.
    pub scenarios: usize,
    /// Scenarios that ended with a measurement.
    pub completed: usize,
    /// Scenarios that ended with an error.
    pub failed: usize,
    /// Scenarios replayed from the resume journal without simulating.
    pub replayed: usize,
    /// Simulation attempts, including retries.
    pub attempts: u64,
    /// Retries of transient failures.
    pub retries: u64,
    /// Attempts killed by the wall-clock watchdog.
    pub timeouts: u64,
    /// Cache keys quarantined during the run (bad entries hit at lookup).
    pub quarantined: Vec<String>,
    /// The slowest scenarios, as `(label, wall_ms)`, slowest first.
    pub slowest: Vec<(String, u64)>,
}

impl HealthReport {
    /// The machine-greppable one-line summary
    /// (`health: scenarios=N completed=C failed=F replayed=R retries=T timeouts=X quarantined=Q`).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "health: scenarios={} completed={} failed={} replayed={} retries={} timeouts={} quarantined={}",
            self.scenarios,
            self.completed,
            self.failed,
            self.replayed,
            self.retries,
            self.timeouts,
            self.quarantined.len()
        )
    }

    /// The report as a JSON object (for `--metrics-out`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert(
            "scenarios".to_owned(),
            Json::Num(self.scenarios.to_string()),
        );
        m.insert(
            "completed".to_owned(),
            Json::Num(self.completed.to_string()),
        );
        m.insert("failed".to_owned(), Json::Num(self.failed.to_string()));
        m.insert("replayed".to_owned(), Json::Num(self.replayed.to_string()));
        m.insert("attempts".to_owned(), Json::Num(self.attempts.to_string()));
        m.insert("retries".to_owned(), Json::Num(self.retries.to_string()));
        m.insert("timeouts".to_owned(), Json::Num(self.timeouts.to_string()));
        m.insert(
            "quarantined".to_owned(),
            Json::Arr(
                self.quarantined
                    .iter()
                    .map(|k| Json::Str(k.clone()))
                    .collect(),
            ),
        );
        m.insert(
            "slowest".to_owned(),
            Json::Arr(
                self.slowest
                    .iter()
                    .map(|(label, wall_ms)| {
                        let mut s = BTreeMap::new();
                        s.insert("label".to_owned(), Json::Str(label.clone()));
                        s.insert("wall_ms".to_owned(), Json::Num(wall_ms.to_string()));
                        Json::Obj(s)
                    })
                    .collect(),
            ),
        );
        Json::Obj(m)
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary_line())
    }
}

/// The shared stderr summary both `rvliw sweep` and `tables` print after
/// a run: the cache counters line and, when supervision was active, the
/// health line. Empty when there is nothing to report.
#[must_use]
pub fn run_summary(cache: Option<&CacheCounts>, health: Option<&HealthReport>) -> String {
    let mut lines = Vec::new();
    if let Some(counts) = cache {
        lines.push(counts.summary_line());
    }
    if let Some(health) = health {
        lines.push(health.summary_line());
    }
    lines.join("\n")
}

/// How many scenarios the health report keeps in its slowest-first list.
const SLOWEST_KEPT: usize = 5;

/// Thread-safe accumulators the workers update while a supervised run is
/// in flight.
#[derive(Debug, Default)]
struct RunMetrics {
    replayed: AtomicU64,
    attempts: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    wall: Mutex<Vec<(String, u64)>>,
}

/// Runs one attempt of `sc`, optionally under a wall-clock watchdog.
///
/// The watchdog spawns the simulation on a detached thread and waits on a
/// channel with a deadline; on expiry the scenario becomes
/// [`ScenarioError::TimedOut`] and the worker moves on. The hung thread is
/// deliberately leaked — aborting a thread is unsound, and a handful of
/// leaked simulations is cheaper than a stalled sweep.
fn run_attempt(
    sc: &Scenario,
    workload: &Workload,
    arc: Option<&Arc<Workload>>,
    timeout: Option<Duration>,
) -> ScenarioResult {
    match (timeout, arc) {
        (Some(deadline), Some(arc)) => {
            let (tx, rx) = mpsc::channel();
            let sc_owned = sc.clone();
            let wl = Arc::clone(arc);
            let label = sc.label.clone();
            std::thread::spawn(move || {
                let _ = tx.send(run_isolated(&sc_owned, &wl));
            });
            match rx.recv_timeout(deadline) {
                Ok(result) => result,
                Err(_) => Err(ScenarioError::TimedOut {
                    label,
                    secs: deadline.as_secs(),
                }),
            }
        }
        _ => run_isolated(sc, workload),
    }
}

/// Supervises one scenario: resume replay, cache lookup, then simulate
/// with bounded retries (reseeded fault substreams per attempt) under the
/// optional watchdog, journaling whatever lands.
fn supervise_one(
    sc: &Scenario,
    workload: &Workload,
    arc: Option<&Arc<Workload>>,
    cache: Option<&ScenarioCache>,
    config: &SupervisorConfig,
    key: Option<CacheKey>,
    metrics: &RunMetrics,
) -> ScenarioResult {
    let started = Instant::now();
    // 1. Replay from the previous run's journal. Label must agree (a key
    // collision across labels is implausible but cheap to rule out), and
    // replays are not re-journaled: appending to the same journal file
    // already preserves them for the next resume.
    if let Some(key) = &key {
        if let Some(prev) = config.resume.get(&key.hex()) {
            if prev.label == sc.label {
                metrics.replayed.fetch_add(1, Ordering::Relaxed);
                return Ok(prev.clone());
            }
        }
    }
    // 2. The content-addressed cache (a hit is journaled with attempts=0
    // so a later resume can replay it without the cache).
    if let Some(hit) = cache.and_then(|c| c.lookup(sc)) {
        if let (Some(journal), Some(key)) = (&config.journal, &key) {
            journal.record(key, &Ok(hit.clone()), 0, wall_ms_since(started));
        }
        return Ok(hit);
    }
    // 3. Simulate, retrying transients with per-(scenario, attempt)
    // reseeded fault substreams and a deterministic bounded backoff.
    let mut attempt: u32 = 0;
    let result = loop {
        let run_sc = if attempt == 0 {
            sc.clone()
        } else {
            let mut reseeded = sc.clone();
            reseeded.fault = sc.fault.reseed_for_attempt(attempt);
            reseeded
        };
        let result = run_attempt(&run_sc, workload, arc, config.timeout);
        metrics.attempts.fetch_add(1, Ordering::Relaxed);
        match &result {
            Err(e) if e.is_transient() && attempt < config.max_retries => {
                if matches!(e, ScenarioError::TimedOut { .. }) {
                    metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                metrics.retries.fetch_add(1, Ordering::Relaxed);
                backoff(sc, attempt);
                attempt += 1;
            }
            _ => {
                if matches!(&result, Err(ScenarioError::TimedOut { .. })) {
                    metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break result;
            }
        }
    };
    // First-attempt successes are cached under the scenario's own key; a
    // retried success ran a reseeded fault plan (a different content
    // address), so it goes to the journal only — under the original key,
    // which is what resume looks up.
    if let (Some(cache), Ok(res), 0) = (cache, &result, attempt) {
        cache.record(sc, res);
    }
    if let (Some(journal), Some(key)) = (&config.journal, &key) {
        journal.record(key, &result, u64::from(attempt) + 1, wall_ms_since(started));
    }
    result
}

fn wall_ms_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Deterministic bounded backoff before retry `attempt + 1` of `sc`:
/// 1–16 ms of jitter drawn from a fault-style substream over
/// (seed, label, attempt), so two runs with the same seed sleep the same
/// schedule. Short on purpose — scenarios are compute-bound, the jitter
/// only de-synchronizes workers hammering a shared cache directory.
fn backoff(sc: &Scenario, attempt: u32) {
    let mut rng = sc
        .fault
        .reseed_for_attempt(attempt)
        .injector("backoff", &sc.label);
    let ms = 1 + rng.uniform(15);
    std::thread::sleep(Duration::from_millis(ms));
}

/// The scenario runner. Runs `scenarios` across `threads` workers (`<= 1`
/// runs serially on the calling thread) and returns one
/// [`ScenarioResult`] per scenario in input order, plus a
/// [`HealthReport`] of what happened. Each scenario is served from the
/// optional `cache` (lookup before simulate; fresh measurements are
/// recorded, failures never are) under the journal, resume, retries and
/// watchdog of `config`. The result vector is bit-identical for any
/// thread count and with or without the cache. `progress` is called with
/// a scenario label as each scenario starts.
#[must_use]
pub fn run_scenario_list_supervised(
    scenarios: &[Scenario],
    workload: &Workload,
    threads: usize,
    progress: &(impl Fn(&str) + Sync),
    cache: Option<&ScenarioCache>,
    config: &SupervisorConfig,
) -> (Vec<ScenarioResult>, HealthReport) {
    let n = scenarios.len();
    let metrics = RunMetrics::default();
    // The watchdog hands each attempt to a 'static thread, which needs an
    // owning handle on the workload; one clone up front covers the run.
    let arc = config.timeout.map(|_| Arc::new(workload.clone()));
    // Content keys are only needed when a journal or resume map is in
    // play; the digest is computed once, not per scenario.
    let digest = if config.needs_keys() && cache.is_none() {
        Some(workload_digest(workload))
    } else {
        None
    };
    let key_of = |sc: &Scenario| -> Option<CacheKey> {
        if !config.needs_keys() {
            return None;
        }
        match (cache, digest) {
            (Some(c), _) => Some(c.key_for(sc)),
            (None, Some(d)) => Some(scenario_key(sc, d)),
            (None, None) => None,
        }
    };
    let run_one = |sc: &Scenario| -> ScenarioResult {
        let started = Instant::now();
        let result = supervise_one(
            sc,
            workload,
            arc.as_ref(),
            cache,
            config,
            key_of(sc),
            &metrics,
        );
        metrics
            .wall
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((sc.label.clone(), wall_ms_since(started)));
        result
    };
    let results: Vec<ScenarioResult> = if threads <= 1 {
        scenarios
            .iter()
            .map(|sc| {
                progress(&sc.label);
                run_one(sc)
            })
            .collect()
    } else {
        // Work-stealing by atomic index: scenario costs are wildly uneven
        // (ORIG simulates ~10× the cycles of a loop-level point), so a
        // static partition would idle most workers.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ScenarioResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = scenarios.get(i) else { break };
                    progress(&sc.label);
                    let r = run_one(sc);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        Err(ScenarioError::Panic {
                            label: scenarios[i].label.clone(),
                            message: "scenario result missing (worker died)".to_owned(),
                            location: None,
                        })
                    })
            })
            .collect()
    };
    let mut report = HealthReport {
        scenarios: n,
        completed: results.iter().filter(|r| r.is_ok()).count(),
        failed: results.iter().filter(|r| r.is_err()).count(),
        replayed: usize::try_from(metrics.replayed.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
        attempts: metrics.attempts.load(Ordering::Relaxed),
        retries: metrics.retries.load(Ordering::Relaxed),
        timeouts: metrics.timeouts.load(Ordering::Relaxed),
        quarantined: cache
            .map(ScenarioCache::quarantined_keys)
            .unwrap_or_default(),
        slowest: Vec::new(),
    };
    let mut wall = metrics
        .wall
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // Sort by descending wall time, label as the tiebreak so the report
    // is stable when timings collide at millisecond resolution.
    wall.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    wall.truncate(SLOWEST_KEPT);
    report.slowest = wall;
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_me;

    fn tmp(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rvliw-supervisor-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ok_result(r: &ScenarioResult) -> &MeResult {
        match r {
            Ok(v) => v,
            Err(e) => panic!("expected success, got {e}"),
        }
    }

    #[test]
    fn default_config_matches_direct_simulation() {
        let w = Workload::tiny();
        let scenarios = vec![Scenario::orig(), Scenario::a2()];
        let (supervised, health) = run_scenario_list_supervised(
            &scenarios,
            &w,
            1,
            &|_| {},
            None,
            &SupervisorConfig::default(),
        );
        for (sc, got) in scenarios.iter().zip(&supervised) {
            assert_eq!(ok_result(&run_me(sc, &w)), ok_result(got));
        }
        assert_eq!(health.scenarios, 2);
        assert_eq!(health.completed, 2);
        assert_eq!(health.attempts, 2);
        assert_eq!(health.retries, 0);
        assert_eq!(health.replayed, 0);
    }

    #[test]
    fn journal_roundtrips_and_resume_replays_without_simulating() {
        let w = Workload::tiny();
        let scenarios = vec![Scenario::orig(), Scenario::a2()];
        let journal_path = tmp("journal").join("run.jsonl");
        let config = SupervisorConfig {
            journal: match Journal::open(&journal_path) {
                Ok(j) => Some(j),
                Err(e) => panic!("journal open failed: {e}"),
            },
            ..SupervisorConfig::default()
        };
        let (first, health) =
            run_scenario_list_supervised(&scenarios, &w, 1, &|_| {}, None, &config);
        assert_eq!(health.completed, 2);
        let replay = match Journal::load(&journal_path) {
            Ok(r) => r,
            Err(e) => panic!("journal load failed: {e}"),
        };
        assert_eq!(replay.len(), 2);
        // Resume: everything replays, nothing simulates.
        let resumed_config = SupervisorConfig {
            resume: replay,
            ..SupervisorConfig::default()
        };
        let (second, health2) =
            run_scenario_list_supervised(&scenarios, &w, 1, &|_| {}, None, &resumed_config);
        assert_eq!(health2.replayed, 2);
        assert_eq!(health2.attempts, 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(ok_result(a), ok_result(b));
        }
        let _ = fs::remove_dir_all(journal_path.parent().unwrap_or(Path::new(".")));
    }

    #[test]
    fn journal_skips_err_lines_and_garbage() {
        let dir = tmp("load");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("mixed.jsonl");
        let w = Workload::tiny();
        let sc = Scenario::a1();
        let good = match run_me(&sc, &w) {
            Ok(r) => r,
            Err(e) => panic!("a1 failed: {e}"),
        };
        let key = scenario_key(&sc, workload_digest(&w));
        let journal = match Journal::open(&path) {
            Ok(j) => j,
            Err(e) => panic!("open failed: {e}"),
        };
        journal.record(&key, &Ok(good.clone()), 1, 7);
        journal.record(
            &key,
            &Err(ScenarioError::TimedOut {
                label: "a1".to_owned(),
                secs: 1,
            }),
            2,
            9,
        );
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => panic!("read failed: {e}"),
        };
        let with_garbage = format!("not json at all\n{text}{{\"schema\":1,\"kind\":\"sce");
        let _ = fs::write(&path, with_garbage);
        let replay = match Journal::load(&path) {
            Ok(r) => r,
            Err(e) => panic!("load failed: {e}"),
        };
        // The ok line survives; the err line, the garbage line and the
        // truncated tail are all skipped.
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.get(&key.hex()).map(|r| r.label.as_str()), Some("A1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_summary_unifies_cache_and_health_lines() {
        assert_eq!(run_summary(None, None), "");
        let counts = CacheCounts {
            hits: 1,
            ..CacheCounts::default()
        };
        let health = HealthReport {
            scenarios: 3,
            completed: 3,
            ..HealthReport::default()
        };
        let both = run_summary(Some(&counts), Some(&health));
        assert!(both.starts_with("cache: hits=1"));
        assert!(both.contains("\nhealth: scenarios=3"));
        let j = health.to_json();
        assert_eq!(j.get("completed").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn watchdog_times_out_a_scenario_that_cannot_finish() {
        let w = Workload::tiny();
        // ORIG on the tiny workload takes well over a millisecond of
        // wall clock; a 0-second deadline must trip the watchdog.
        let scenarios = vec![Scenario::orig()];
        let config = SupervisorConfig {
            timeout: Some(Duration::from_millis(0)),
            ..SupervisorConfig::default()
        };
        let (results, health) =
            run_scenario_list_supervised(&scenarios, &w, 1, &|_| {}, None, &config);
        assert!(matches!(results[0], Err(ScenarioError::TimedOut { .. })));
        assert_eq!(health.timeouts, 1);
        assert_eq!(health.failed, 1);
    }

    #[test]
    fn transient_failures_retry_up_to_the_bound() {
        let w = Workload::tiny();
        // A cycle limit of 1 trips on every attempt: transient, but
        // deterministic — so the supervisor retries the full budget and
        // then reports the failure.
        let scenarios = vec![Scenario::orig().with_cycle_limit(1)];
        let config = SupervisorConfig {
            max_retries: 2,
            ..SupervisorConfig::default()
        };
        let (results, health) =
            run_scenario_list_supervised(&scenarios, &w, 1, &|_| {}, None, &config);
        assert!(results[0].is_err());
        assert_eq!(health.attempts, 3);
        assert_eq!(health.retries, 2);
        assert_eq!(health.failed, 1);
    }
}
