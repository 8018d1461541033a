//! Measurements taken from outside the runner: per-scenario runner spans
//! from its progress callback, and timed calls into the cache and the
//! journal on a workload's own scenarios and results.

use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use rvliw_core::{
    scenario_key, workload_digest, Journal, MeResult, Scenario, ScenarioCache, Workload,
};

use crate::stats::median;

/// Start times of the scenarios a runner pass dispatched, noted from its
/// progress callback (called on the worker thread as each scenario
/// starts).
#[derive(Debug, Default)]
pub struct RunnerSpans {
    starts: Mutex<Vec<(ThreadId, Instant)>>,
}

impl RunnerSpans {
    /// Notes that the calling worker starts a scenario now.
    pub fn note(&self) {
        let now = Instant::now();
        self.starts
            .lock()
            .expect("no thread panics while noting a start")
            .push((std::thread::current().id(), now));
    }

    /// Each scenario's host seconds: until the same worker starts its next
    /// scenario, or until `end` for a worker's last one.
    #[must_use]
    pub fn durations(self, end: Instant) -> Vec<f64> {
        let starts = self
            .starts
            .into_inner()
            .expect("no thread panics while noting a start");
        // A worker runs its scenarios in sequence.
        let mut by_worker: Vec<(ThreadId, Vec<Instant>)> = Vec::new();
        for (thread, start) in starts {
            match by_worker.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, v)) => v.push(start),
                None => by_worker.push((thread, vec![start])),
            }
        }
        let mut out = Vec::new();
        for (_, mut v) in by_worker {
            v.sort();
            for (i, start) in v.iter().enumerate() {
                let stop = v.get(i + 1).copied().unwrap_or(end);
                out.push(stop.saturating_duration_since(*start).as_secs_f64());
            }
        }
        out
    }
}

/// Host time of the cache's public calls on a workload's own scenarios.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheProbe {
    /// Median `scenario_key` µs (kernel builds and hashing included).
    pub key_us: f64,
    /// Median `ScenarioCache::record` µs (a fresh entry written).
    pub record_us: f64,
    /// Median `ScenarioCache::lookup` µs (a hit read back).
    pub lookup_us: f64,
}

/// Times `scenario_key`, then `record` and `lookup` of every result in a
/// fresh cache under `dir`.
///
/// # Panics
///
/// When `dir` cannot be created or a recorded result does not read back.
#[must_use]
pub fn cache_probe(
    pairs: &[(&Scenario, &MeResult)],
    workload: &Workload,
    dir: &Path,
) -> CacheProbe {
    let cache = ScenarioCache::open(dir, workload, "perfbench").expect("probe cache directory");
    let digest = workload_digest(workload);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut key = Vec::new();
    let mut record = Vec::new();
    let mut lookup = Vec::new();
    for (sc, _) in pairs {
        let t = Instant::now();
        std::hint::black_box(scenario_key(sc, digest));
        key.push(us(t));
    }
    for (sc, r) in pairs {
        let t = Instant::now();
        cache.record(sc, r);
        record.push(us(t));
    }
    for (sc, r) in pairs {
        let t = Instant::now();
        let hit = cache.lookup(sc);
        lookup.push(us(t));
        assert_eq!(hit.as_ref(), Some(*r), "probe cache returns what it stored");
    }
    CacheProbe {
        key_us: median(&key).unwrap_or(0.0),
        record_us: median(&record).unwrap_or(0.0),
        lookup_us: median(&lookup).unwrap_or(0.0),
    }
}

/// Host time of `Journal::record`: the median µs per appended result,
/// the lines appended and the journal's size in bytes.
///
/// # Panics
///
/// When the journal file cannot be created or read back.
#[must_use]
pub fn journal_probe(
    pairs: &[(&Scenario, &MeResult)],
    workload: &Workload,
    path: &Path,
) -> (f64, u64, u64) {
    let journal = Journal::open(path).expect("probe journal file");
    let digest = workload_digest(workload);
    let mut append = Vec::new();
    for (sc, r) in pairs {
        let key = scenario_key(sc, digest);
        let result = Ok((*r).clone());
        let t = Instant::now();
        journal.record(&key, &result, 1, 0);
        append.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let bytes = std::fs::metadata(path).expect("probe journal size").len();
    (median(&append).unwrap_or(0.0), pairs.len() as u64, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn runner_spans_split_each_worker_at_its_next_start() {
        let spans = RunnerSpans::default();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..3 {
                        spans.note();
                        std::thread::sleep(Duration::from_millis(3));
                    }
                });
            }
        });
        let d = spans.durations(Instant::now());
        assert_eq!(d.len(), 6);
        assert!(d.iter().all(|&s| s >= 0.003), "{d:?}");
    }

    #[test]
    fn probes_time_real_calls_on_real_results() {
        let w = Workload::tiny();
        let sc = Scenario::a2();
        let r = rvliw_core::run_me(&sc, &w).unwrap();
        let dir = std::env::temp_dir().join(format!("perfbench-probe-{}", std::process::id()));
        let c = cache_probe(&[(&sc, &r)], &w, &dir.join("cache"));
        assert!(c.key_us > 0.0 && c.record_us > 0.0 && c.lookup_us > 0.0);
        let (us, lines, bytes) = journal_probe(&[(&sc, &r)], &w, &dir.join("journal.jsonl"));
        assert!(us > 0.0);
        assert_eq!(lines, 1);
        assert!(bytes > 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
