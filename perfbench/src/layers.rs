//! The per-layer metrics of the traced run, gathered into one struct so
//! every workload reports exactly the same metric names.

use std::collections::BTreeMap;

use rvliw_bench::paper;
use rvliw_cache::CacheCounts;
use rvliw_core::{MeResult, Scenario};
use rvliw_rfu::RfuBandwidth;
use rvliw_sim::BackendStats;

use crate::probe::CacheProbe;
use crate::stats::{median, Report};

/// Span names whose self time the traced run reports, as
/// `self.<name>_s`. The first four are set-up spans (reported per
/// set-up), the rest pass spans (reported per traced pass).
pub const SELF_SPANS: [&str; 11] = [
    "setup",
    "mpeg4.generate",
    "mpeg4.encode",
    "cache.open",
    "pass",
    "scenario",
    "mpeg4.derive",
    "session.build",
    "kernels.build",
    "sim.replay",
    "sim.run",
];

/// Simulated counts summed over the scenarios a pass simulated. They are
/// deterministic: a speed-only change must leave every one untouched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SimSums {
    pub me_cycles: u64,
    pub bundles: u64,
    pub ops: u64,
    pub d_accesses: u64,
    pub d_misses: u64,
    pub d_stall_cycles: u64,
    pub i_misses: u64,
    pub pf_issued: u64,
    pub pf_useful: u64,
    pub pf_late: u64,
    pub loops: u64,
    pub loop_busy_cycles: u64,
    pub loop_stall_cycles: u64,
    pub lba_wait_cycles: u64,
    pub lbb_hits: u64,
    pub lbb_misses: u64,
    pub mb_prefetch_lines: u64,
}

impl SimSums {
    /// Sums `results`.
    pub fn of<'a>(results: impl IntoIterator<Item = &'a MeResult>) -> Self {
        let mut s = SimSums::default();
        for r in results {
            s.me_cycles += r.me_cycles;
            s.bundles += r.core.bundles;
            s.ops += r.core.ops;
            s.d_accesses += r.mem.d_hits + r.mem.d_misses;
            s.d_misses += r.mem.d_misses;
            s.d_stall_cycles += r.mem.d_stall_cycles;
            s.i_misses += r.mem.i_misses;
            s.pf_issued += r.mem.pf_issued;
            s.pf_useful += r.mem.pf_useful;
            s.pf_late += r.mem.pf_late;
            s.loops += r.rfu.loops;
            s.loop_busy_cycles += r.rfu.loop_busy_cycles;
            s.loop_stall_cycles += r.rfu.loop_stall_cycles;
            s.lba_wait_cycles += r.rfu.lba_wait_cycles;
            s.lbb_hits += r.rfu.lbb_hits;
            s.lbb_misses += r.rfu.lbb_misses;
            s.mb_prefetch_lines += r.rfu.mb_prefetch_lines;
        }
        s
    }
}

/// The backend telemetry accrued between two `backend_totals()` reads.
#[must_use]
pub fn backend_diff(after: BackendStats, before: BackendStats) -> BackendStats {
    BackendStats {
        block_runs: after.block_runs - before.block_runs,
        interp_runs: after.interp_runs - before.interp_runs,
        fallbacks: after.fallbacks - before.fallbacks,
        compile_lookups: after.compile_lookups - before.compile_lookups,
        compile_misses: after.compile_misses - before.compile_misses,
        block_cycles: after.block_cycles - before.block_cycles,
    }
}

/// The paper's legible speed-up anchors: metric name, the scenario
/// measured, and the published speed-up over ORIG.
#[must_use]
pub fn paper_anchors() -> Vec<(&'static str, Scenario, f64)> {
    let [(_, b32), (_, b64), (_, b2x64)] = paper::T2_SPEEDUP_B1;
    let [(_, t7_b1), (_, t7_b5)] = paper::T7_SPEEDUP;
    vec![
        (
            "model.t2_1x32_b1_err",
            Scenario::loop_level(RfuBandwidth::B1x32, 1),
            b32,
        ),
        (
            "model.t2_1x64_b1_err",
            Scenario::loop_level(RfuBandwidth::B1x64, 1),
            b64,
        ),
        (
            "model.t2_2x64_b1_err",
            Scenario::loop_level(RfuBandwidth::B2x64, 1),
            b2x64,
        ),
        (
            "model.t2_1x32_b5_err",
            Scenario::loop_level(RfuBandwidth::B1x32, 5),
            paper::T2_SPEEDUP_1X32_B5,
        ),
        ("model.t7_b1_err", Scenario::loop_two_lb(1), t7_b1),
        ("model.t7_b5_err", Scenario::loop_two_lb(5), t7_b5),
    ]
}

/// The scenarios [`model_errors`] needs measured: ORIG plus every anchor.
#[must_use]
pub fn anchor_scenarios() -> Vec<Scenario> {
    std::iter::once(Scenario::orig())
        .chain(paper_anchors().into_iter().map(|(_, sc, _)| sc))
        .collect()
}

/// The model's relative error against each paper anchor,
/// `measured speed-up / published − 1`, from measurements found by
/// label; `None` when ORIG or an anchor is missing.
#[must_use]
pub fn model_errors(results: &[&MeResult]) -> Option<Vec<(&'static str, f64)>> {
    let find = |label: &str| results.iter().find(|r| r.label == label);
    let orig = find(&Scenario::orig().label)?;
    paper_anchors()
        .into_iter()
        .map(|(name, sc, published)| {
            Some((name, find(&sc.label)?.speedup_vs(orig) / published - 1.0))
        })
        .collect()
}

/// Every per-layer metric of one traced run.
#[derive(Debug, Default, Clone)]
#[allow(missing_docs)]
pub struct Layers {
    pub generate_s: f64,
    pub encode_s: f64,
    pub sad_calls: u64,
    pub derive_s: f64,
    pub derives: u64,
    pub kernels_build_s: f64,
    pub kernels_builds: u64,
    pub session_build_s: f64,
    pub session_builds: u64,
    pub sim_run_s: f64,
    pub sim_runs: u64,
    pub run_us_p50: f64,
    pub run_us_p99: f64,
    pub sums: SimSums,
    pub backend: BackendStats,
    pub interpreter_cycles_per_s: f64,
    pub block_speedup: f64,
    pub scenario_s: Vec<f64>,
    pub busy_ratio: f64,
    pub retries: u64,
    pub timeouts: u64,
    pub cache: CacheCounts,
    pub cache_open_s: f64,
    pub cache_probe: CacheProbe,
    pub journal_appends: u64,
    pub journal_bytes: u64,
    pub journal_append_us: f64,
    pub explore_evaluations: u64,
    pub explore_revisits: u64,
    pub frontier_points: u64,
    pub model: Vec<(&'static str, f64)>,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Self seconds per span name (per set-up or per traced pass).
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// The per-layer report, in the order `BENCHMARK.json` lists it.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::default();
        r.push("mpeg4.generate_s", self.generate_s, "s");
        r.push("mpeg4.encode_s", self.encode_s, "s");
        r.count("mpeg4.sad_calls", self.sad_calls);
        r.push("mpeg4.derive_s", self.derive_s, "s");
        r.count("mpeg4.derives", self.derives);
        r.push("kernels.build_s", self.kernels_build_s, "s");
        r.count("kernels.builds", self.kernels_builds);
        r.push("session.build_s", self.session_build_s, "s");
        r.count("session.builds", self.session_builds);

        r.push("sim.run_s", self.sim_run_s, "s");
        r.count("sim.runs", self.sim_runs);
        r.push("sim.run_us.p50", self.run_us_p50, "us");
        r.push("sim.run_us.p99", self.run_us_p99, "us");
        let s = &self.sums;
        r.count("sim.bundles", s.bundles);
        r.count("sim.ops", s.ops);
        r.count("sim.cycles", s.me_cycles);
        r.push(
            "sim.ns_per_bundle",
            self.sim_run_s * 1e9 / s.bundles.max(1) as f64,
            "ns",
        );
        r.count("sim.block_runs", self.backend.block_runs);
        r.count("sim.interp_runs", self.backend.interp_runs);
        r.count("sim.fallbacks", self.backend.fallbacks);
        r.push(
            "sim.block_cache_hit_rate",
            self.backend.block_cache_hit_rate(),
            "ratio",
        );
        r.push(
            "sim.interpreter_cycles_per_s",
            self.interpreter_cycles_per_s,
            "cycles/s",
        );
        r.push("sim.block_speedup", self.block_speedup, "x");

        r.count("mem.d_accesses", s.d_accesses);
        r.count("mem.d_misses", s.d_misses);
        r.count("mem.d_stall_cycles", s.d_stall_cycles);
        r.count("mem.i_misses", s.i_misses);
        r.count("mem.pf_issued", s.pf_issued);
        r.count("mem.pf_useful", s.pf_useful);
        r.count("mem.pf_late", s.pf_late);
        r.count("rfu.loops", s.loops);
        r.count("rfu.loop_busy_cycles", s.loop_busy_cycles);
        r.count("rfu.loop_stall_cycles", s.loop_stall_cycles);
        r.count("rfu.lba_wait_cycles", s.lba_wait_cycles);
        r.count("rfu.lbb_hits", s.lbb_hits);
        r.count("rfu.lbb_misses", s.lbb_misses);
        r.count("rfu.mb_prefetch_lines", s.mb_prefetch_lines);

        r.push(
            "runner.scenario_s.p50",
            median(&self.scenario_s).unwrap_or(0.0),
            "s",
        );
        r.push(
            "runner.scenario_s.max",
            self.scenario_s.iter().copied().fold(0.0, f64::max),
            "s",
        );
        r.push("runner.busy_ratio", self.busy_ratio, "ratio");
        r.count("runner.retries", self.retries);
        r.count("runner.timeouts", self.timeouts);

        let c = &self.cache;
        r.count("cache.hits", c.hits);
        r.count("cache.misses", c.misses);
        r.count("cache.writes", c.writes);
        r.push(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "ratio",
        );
        r.push("cache.open_s", self.cache_open_s, "s");
        r.push("cache.lookup_us.p50", self.cache_probe.lookup_us, "us");
        r.push("cache.record_us.p50", self.cache_probe.record_us, "us");
        r.push("cache.key_us.p50", self.cache_probe.key_us, "us");

        r.count("journal.appends", self.journal_appends);
        r.count("journal.bytes", self.journal_bytes);
        r.push("journal.append_us.p50", self.journal_append_us, "us");

        r.count("explore.evaluations", self.explore_evaluations);
        r.count("explore.revisits", self.explore_revisits);
        r.count("explore.frontier_points", self.frontier_points);

        for (name, err) in &self.model {
            r.push(name, *err, "ratio");
        }

        r.push("trace.wall_s", self.traced_wall_s, "s");
        r.push("trace.untraced_wall_s", self.untraced_wall_s, "s");
        r.push(
            "trace.overhead_s",
            self.traced_wall_s - self.untraced_wall_s,
            "s",
        );
        for name in SELF_SPANS {
            let v = self.self_s.get(name).copied().unwrap_or(0.0);
            r.push(&format!("self.{name}_s"), v, "s");
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_report_matches_benchmark_json() {
        let l = Layers {
            model: paper_anchors()
                .into_iter()
                .map(|(n, _, _)| (n, 0.0))
                .collect(),
            ..Layers::default()
        };
        let got: Vec<(String, &str)> = l
            .report()
            .metrics()
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = rvliw_trace::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let want: Vec<(String, &str)> = json
            .get("per_layer")
            .and_then(rvliw_trace::Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(rvliw_trace::Json::as_str).unwrap();
                (field("name").to_owned(), field("unit"))
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn model_errors_compare_speedups_with_the_paper() {
        let w = rvliw_core::Workload::tiny();
        let results: Vec<MeResult> = anchor_scenarios()
            .iter()
            .map(|sc| rvliw_core::run_me(sc, &w).unwrap())
            .collect();
        let refs: Vec<&MeResult> = results.iter().collect();
        let errs = model_errors(&refs).unwrap();
        assert_eq!(errs.len(), 6);
        let speedup = results[3].speedup_vs(&results[0]);
        assert_eq!(errs[2], ("model.t2_2x64_b1_err", speedup / 5.29 - 1.0));
        assert!(model_errors(&refs[1..]).is_none(), "ORIG is required");
    }

    #[test]
    fn sums_add_up_results() {
        let w = rvliw_core::Workload::tiny();
        let r = rvliw_core::run_me(&Scenario::loop_two_lb(1), &w).unwrap();
        let one = SimSums::of([&r]);
        let two = SimSums::of([&r, &r]);
        assert_eq!(two.bundles, 2 * one.bundles);
        assert_eq!(one.d_accesses, r.mem.d_hits + r.mem.d_misses);
        assert!(one.loops > 0 && one.lbb_hits > 0);
    }
}
