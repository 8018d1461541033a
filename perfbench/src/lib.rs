//! # perfbench
//!
//! The repository's benchmark: end-to-end host-time metrics of three
//! workloads (`paper_grid`, `rfu_loop`, `explore_mixed`) and, in a
//! separate traced run, per-layer metrics measured by timing the
//! benchmark's own calls into each layer's public functions. See
//! `README.md` beside this crate for what each workload and metric is
//! for.

pub mod explore;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::fmt::Display;
use std::path::PathBuf;

use rvliw_cache::KeyBuilder;
use rvliw_core::cache::me_result_to_json;
use rvliw_core::sweep::ScenarioResult;
use rvliw_core::MeResult;

use crate::stats::Report;
use crate::workloads::Kind;

/// Directory, relative to the working directory, that holds each run's
/// scratch directory and the traced runs' span traces.
pub const OUT_DIR: &str = ".perfbench";

/// Passes every measuring loop runs, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// What one invocation is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Kind,
    /// Workload seed: feeds the synthetic sequence and the explore search.
    pub seed: u64,
    /// Seconds the measuring loop runs for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// end-to-end run.
    pub trace: bool,
    /// Scratch directory for caches and journals, removed at exit.
    pub work: PathBuf,
}

/// The verdict of every output check and scenario evaluation of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Scenario evaluations attempted.
    pub attempted: u64,
    /// Failed evaluations plus failed output checks.
    pub failed: u64,
}

impl Checks {
    /// Counts a batch of scenario evaluations, failing each error.
    pub fn evaluations<'a>(&mut self, results: impl IntoIterator<Item = &'a ScenarioResult>) {
        for r in results {
            self.attempted += 1;
            if let Err(e) = r {
                self.failed += 1;
                println!("check failed: {e}");
            }
        }
    }

    /// Counts one output check.
    pub fn expect(&mut self, ok: bool, what: impl Display) {
        if !ok {
            self.failed += 1;
            println!("check failed: {what}");
        }
    }

    /// Failed evaluations and checks over evaluations attempted.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The outcome of a benchmark run: its metrics and check verdicts.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub report: Report,
    /// Check verdicts.
    pub checks: Checks,
}

/// Digest of a list of measurements: every `MeResult` rendered with
/// `me_result_to_json`, in list order, through the cache's key hash.
#[must_use]
pub fn sim_stats_digest<'a>(results: impl IntoIterator<Item = &'a MeResult>) -> String {
    let mut kb = KeyBuilder::new("perfbench-sim-stats", 1);
    for r in results {
        kb.field_str("result", &me_result_to_json(r).to_string());
    }
    kb.finish().hex()
}

/// The successful measurements of `results`, in order.
pub fn ok_results(results: &[ScenarioResult]) -> impl Iterator<Item = &MeResult> {
    results.iter().filter_map(|r| r.as_ref().ok())
}

/// The digests recorded for the default seed, one per workload.
const EXPECTED: &str = include_str!("../expected.json");

/// The `sim_stats_digest` recorded for `kind` at the paper seed, if any.
#[must_use]
pub fn expected_digest(kind: Kind) -> Option<String> {
    let json = rvliw_trace::Json::parse(EXPECTED).ok()?;
    let d = json.get("sim_stats_digest")?.get(kind.name())?.as_str()?;
    Some(d.to_owned())
}

/// Peak resident memory of this process (`VmHWM`) in MiB; 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks the pass digest against the recorded one (paper seed only) and
/// prints it.
pub fn check_digest(kind: Kind, seed: u64, digest: &str, checks: &mut Checks) {
    println!("sim_stats_digest {} seed={seed} {digest}", kind.name());
    if seed == workloads::PAPER_SEED {
        match expected_digest(kind) {
            Some(want) => checks.expect(
                want == digest,
                format!("sim_stats_digest {digest} differs from the recorded {want}"),
            ),
            None => println!("note: no sim_stats_digest recorded for {}", kind.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        let ok: ScenarioResult =
            rvliw_core::run_me(&rvliw_core::Scenario::a2(), &rvliw_core::Workload::tiny());
        let err: ScenarioResult = Err(rvliw_core::ScenarioError::TimedOut {
            label: "x".to_owned(),
            secs: 1,
        });
        c.evaluations([&ok, &err]);
        c.expect(true, "fine");
        c.expect(false, "broken");
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 2
            }
        );
        assert!((c.failed_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(Checks::default().failed_ratio(), 0.0);
    }

    #[test]
    fn digest_depends_on_every_result_and_their_order() {
        let w = rvliw_core::Workload::tiny();
        let a = rvliw_core::run_me(&rvliw_core::Scenario::a1(), &w).unwrap();
        let b = rvliw_core::run_me(&rvliw_core::Scenario::a2(), &w).unwrap();
        let ab = sim_stats_digest([&a, &b]);
        assert_eq!(ab, sim_stats_digest([&a, &b]));
        assert_ne!(ab, sim_stats_digest([&b, &a]));
        let mut a2 = a.clone();
        a2.mem.pf_late += 1;
        assert_ne!(ab, sim_stats_digest([&a2, &b]));
    }

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for k in Kind::ALL {
            assert_eq!(
                expected_digest(k).map(|d| d.len()),
                Some(32),
                "{}",
                k.name()
            );
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
