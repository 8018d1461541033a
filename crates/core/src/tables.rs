//! Tables 1–7 of the paper, regenerated from measurements.

use std::fmt;

use rvliw_kernels::Variant;
use rvliw_rfu::RfuBandwidth;

use crate::app_model::AppModel;
use crate::cache::ScenarioCache;
use crate::runner::{MeResult, ScenarioError};
use crate::scenario::Scenario;
use crate::spec::ExperimentSpec;
use crate::supervisor::{run_scenario_list_supervised, HealthReport, SupervisorConfig};
use crate::threads::default_threads;
use crate::workload::Workload;

pub use crate::sweep::ScenarioResult;

/// All measurements needed for every table, collected in one pass.
///
/// Each scenario slot holds a [`ScenarioResult`]: a failing scenario (typed
/// simulator error, SAD divergence, or caught panic) is recorded in place
/// while every other scenario still runs and keeps its bit-exact
/// measurement. The table builders render partial tables, annotating what
/// failed.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The workload that was replayed.
    pub stride: u32,
    /// `GetSad` calls replayed per scenario (0 when every scenario failed).
    pub calls: u64,
    /// ORIG baseline.
    pub orig: ScenarioResult,
    /// Instruction-level results (A1, A2, A3).
    pub instr: Vec<(Variant, ScenarioResult)>,
    /// Loop-level, single line buffer: (bandwidth, β, static Lat, result).
    pub loops: Vec<(RfuBandwidth, u64, u64, ScenarioResult)>,
    /// Two line buffers: (β, static Lat, result).
    pub two_lb: Vec<(u64, u64, ScenarioResult)>,
    /// Whole-application model calibrated on ORIG (degenerate when ORIG
    /// failed).
    pub app: AppModel,
}

impl CaseStudy {
    /// The paper's scenarios in presentation order: ORIG; A1–A3; the six
    /// single-line-buffer loop points (bandwidth × β); the two
    /// two-line-buffer points. Each scenario is independent — it owns its
    /// machine, memory hierarchy and RFU — which is what makes the fan-out
    /// in [`CaseStudy::run_scenarios`] trivially sound.
    ///
    /// The grid is declared once, as [`ExperimentSpec::paper_grid`], and
    /// expanded here; the checked-in `specs/table*.json` files union to
    /// exactly this list.
    #[must_use]
    pub fn scenarios() -> Vec<Scenario> {
        match ExperimentSpec::paper_grid().scenarios() {
            Ok(v) => v,
            // The paper grid is a compile-time constant with unique labels.
            Err(e) => unreachable!("paper grid failed to expand: {e}"),
        }
    }

    /// Runs every scenario of the paper silently over `workload` on
    /// [`default_threads`] worker threads.
    #[must_use]
    pub fn run(workload: &Workload) -> Self {
        Self::run_scenarios(&Self::scenarios(), workload, default_threads(), |_| {})
    }

    /// Runs an explicit scenario list — [`Self::scenarios`], possibly with
    /// modified fault plans, substrates or cycle budgets — across `threads` workers (`<= 1` runs serially on the calling
    /// thread): [`Self::run_scenarios_supervised`] with no cache and no
    /// supervision. The list must keep the fixed presentation order (ORIG,
    /// A1–A3, the six loop points, the two two-line-buffer points); slots
    /// are reassembled positionally, so every table is bit-identical for
    /// any thread count. `progress` is called with a scenario label as each
    /// scenario starts (from worker threads when running parallel — labels
    /// may interleave, but every label appears exactly once).
    #[must_use]
    pub fn run_scenarios(
        scenarios: &[Scenario],
        workload: &Workload,
        threads: usize,
        progress: impl Fn(&str) + Sync,
    ) -> Self {
        let config = SupervisorConfig::default();
        Self::run_scenarios_supervised(scenarios, workload, threads, progress, None, &config).0
    }

    /// [`Self::run_scenarios`] with an optional result cache consulted
    /// before each simulation, under a [`SupervisorConfig`]: journal,
    /// resume, retries and watchdog per the config, returning the case
    /// study plus the run's [`HealthReport`]. Every table is bit-identical
    /// with or without the cache; cache traffic is reported separately via
    /// [`ScenarioCache::counts`].
    #[must_use]
    pub fn run_scenarios_supervised(
        scenarios: &[Scenario],
        workload: &Workload,
        threads: usize,
        progress: impl Fn(&str) + Sync,
        cache: Option<&ScenarioCache>,
        config: &SupervisorConfig,
    ) -> (Self, HealthReport) {
        let (results, health) =
            run_scenario_list_supervised(scenarios, workload, threads, &progress, cache, config);
        (Self::assemble(workload, scenarios, results), health)
    }

    /// Reassembles per-scenario results (in the fixed order [`Self::scenarios`]
    /// produced) into the named slots of a `CaseStudy`.
    fn assemble(workload: &Workload, scenarios: &[Scenario], results: Vec<ScenarioResult>) -> Self {
        let calls = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.calls)
            .next()
            .unwrap_or(0);
        let orig_me = results
            .first()
            .and_then(|r| r.as_ref().ok())
            .map_or(0, |r| r.me_cycles);
        let mut it = results.into_iter();
        let mut idx = 0usize;
        let mut take = |slot: &mut usize| -> ScenarioResult {
            let label = scenarios
                .get(*slot)
                .map_or("?", |sc| sc.label.as_str())
                .to_owned();
            *slot += 1;
            it.next().unwrap_or_else(|| {
                Err(ScenarioError::Panic {
                    label,
                    message: "scenario result missing".to_owned(),
                    location: None,
                })
            })
        };
        let orig = take(&mut idx);
        let instr = [Variant::A1, Variant::A2, Variant::A3]
            .into_iter()
            .map(|v| (v, take(&mut idx)))
            .collect();
        let mut loops = Vec::new();
        for bw in RfuBandwidth::all() {
            for beta in [1u64, 5] {
                let lat = Scenario::loop_level(bw, beta).static_latency(workload.stride);
                loops.push((bw, beta, lat, take(&mut idx)));
            }
        }
        let mut two_lb = Vec::new();
        for beta in [1u64, 5] {
            let lat = Scenario::loop_two_lb(beta).static_latency(workload.stride);
            two_lb.push((beta, lat, take(&mut idx)));
        }
        let app = AppModel::calibrated(orig_me);
        CaseStudy {
            stride: workload.stride,
            calls,
            orig,
            instr,
            loops,
            two_lb,
            app,
        }
    }

    /// Every scenario slot in presentation order.
    pub fn results(&self) -> impl Iterator<Item = &ScenarioResult> {
        std::iter::once(&self.orig)
            .chain(self.instr.iter().map(|(_, r)| r))
            .chain(self.loops.iter().map(|(_, _, _, r)| r))
            .chain(self.two_lb.iter().map(|(_, _, r)| r))
    }

    /// The errors of every failed scenario, in presentation order.
    #[must_use]
    pub fn failures(&self) -> Vec<&ScenarioError> {
        self.results().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Whether every scenario produced a measurement.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.results().all(Result::is_ok)
    }

    fn orig_ok(&self) -> Option<&MeResult> {
        self.orig.as_ref().ok()
    }

    /// ORIG, noting its failure in `failed` when it is unavailable.
    fn note_orig(&self, failed: &mut Vec<String>) -> Option<&MeResult> {
        match &self.orig {
            Ok(o) => Some(o),
            Err(e) => {
                failed.push(e.to_string());
                None
            }
        }
    }

    /// The (static latency, result) of a loop-level point, noting its
    /// failure in `failed` when it is unavailable.
    fn loop_ok(
        &self,
        bw: RfuBandwidth,
        beta: u64,
        failed: &mut Vec<String>,
    ) -> Option<(u64, &MeResult)> {
        let (_, _, lat, r) = self
            .loops
            .iter()
            .find(|(b, be, _, _)| *b == bw && *be == beta)?;
        match r {
            Ok(r) => Some((*lat, r)),
            Err(e) => {
                failed.push(e.to_string());
                None
            }
        }
    }

    fn speedup_of(&self, r: &MeResult) -> f64 {
        self.orig_ok().map_or(0.0, |o| r.speedup_vs(o))
    }

    /// Table 1: instruction-level optimization results. Failed scenarios
    /// lose their row and are listed in [`Table1::failed`].
    #[must_use]
    pub fn table1(&self) -> Table1 {
        let mut failed = Vec::new();
        let mut rows = Vec::new();
        if self.note_orig(&mut failed).is_some() {
            rows.push(Table1Row {
                name: "Orig".into(),
                cycles: self.orig_ok().map_or(0, |o| o.me_cycles),
                speedup: 1.0,
                improvement: 0.0,
            });
        }
        for (v, r) in &self.instr {
            match r {
                Ok(r) => rows.push(Table1Row {
                    name: v.name().into(),
                    cycles: r.me_cycles,
                    speedup: self.speedup_of(r),
                    improvement: self.orig_ok().map_or(0.0, |o| r.improvement_vs(o)),
                }),
                Err(e) => failed.push(e.to_string()),
            }
        }
        Table1 { rows, failed }
    }

    /// Table 2: loop-level results per bandwidth and β. A bandwidth row is
    /// rendered only when both of its β points succeeded.
    #[must_use]
    pub fn table2(&self) -> Table2 {
        let mut failed = Vec::new();
        let orig_cycles = self.note_orig(&mut failed).map_or(0, |o| o.me_cycles);
        let mut rows = Vec::new();
        for bw in RfuBandwidth::all() {
            let b1 = self.loop_ok(bw, 1, &mut failed);
            let b5 = self.loop_ok(bw, 5, &mut failed);
            if let (Some((lat1, r1)), Some((lat5, r5))) = (b1, b5) {
                rows.push(Table2Row {
                    bw,
                    lat_b1: lat1,
                    cycles_b1: r1.me_cycles,
                    speedup_b1: self.speedup_of(r1),
                    lat_b5: lat5,
                    cycles_b5: r5.me_cycles,
                    speedup_b5: self.speedup_of(r5),
                });
            }
        }
        Table2 {
            orig_cycles,
            rows,
            failed,
        }
    }

    /// Table 3: latency increase vs speedup reduction under technology
    /// scaling.
    #[must_use]
    pub fn table3(&self) -> Table3 {
        let mut failed = Vec::new();
        let mut rows = Vec::new();
        for bw in RfuBandwidth::all() {
            let b1 = self.loop_ok(bw, 1, &mut failed);
            let b5 = self.loop_ok(bw, 5, &mut failed);
            if let (Some((lat1, r1)), Some((lat5, r5))) = (b1, b5) {
                let s1 = self.speedup_of(r1);
                let s5 = self.speedup_of(r5);
                rows.push(Table3Row {
                    bw,
                    lat_b1: lat1,
                    lat_b5: lat5,
                    pct_latency_increase: (lat5 as f64 - lat1 as f64) / lat1 as f64,
                    pct_speedup_reduction: if s1 == 0.0 { 0.0 } else { (s5 - s1) / s1 },
                });
            }
        }
        Table3 { rows, failed }
    }

    /// Table 4: ME cache stalls with one line buffer.
    #[must_use]
    pub fn table4(&self) -> Table4 {
        let mut failed = Vec::new();
        let orig = self.note_orig(&mut failed);
        let orig_stalls = orig.map_or(0, |o| o.stall_cycles);
        let mut rows = Vec::new();
        for bw in RfuBandwidth::all() {
            let b1 = self.loop_ok(bw, 1, &mut failed);
            let b5 = self.loop_ok(bw, 5, &mut failed);
            if let (Some((_, r1)), Some((_, r5))) = (b1, b5) {
                rows.push(Table4Row {
                    bw,
                    stalls_b1: r1.stall_cycles,
                    reduction_b1: self.orig_ok().map_or(0.0, |o| r1.stall_reduction_vs(o)),
                    stalls_b5: r5.stall_cycles,
                    reduction_b5: self.orig_ok().map_or(0.0, |o| r5.stall_reduction_vs(o)),
                });
            }
        }
        Table4 {
            orig_stalls,
            rows,
            failed,
        }
    }

    /// Table 5: cache stalls as a share of ME execution time.
    #[must_use]
    pub fn table5(&self) -> Table5 {
        let mut failed = Vec::new();
        let orig_share = self
            .note_orig(&mut failed)
            .map_or(0.0, MeResult::stall_share);
        let mut rows = Vec::new();
        for bw in RfuBandwidth::all() {
            let b1 = self.loop_ok(bw, 1, &mut failed);
            let b5 = self.loop_ok(bw, 5, &mut failed);
            if let (Some((_, r1)), Some((_, r5))) = (b1, b5) {
                rows.push(Table5Row {
                    bw,
                    share_b1: r1.stall_share(),
                    share_b5: r5.stall_share(),
                });
            }
        }
        Table5 {
            orig_share,
            rows,
            failed,
        }
    }

    /// Table 6: theoretical vs experimental speedups.
    #[must_use]
    pub fn table6(&self) -> Table6 {
        let mut failed = Vec::new();
        let orig_me = self.note_orig(&mut failed).map_or(0, |o| o.me_cycles);
        let mut rows = Vec::new();
        for beta in [1u64, 5] {
            for bw in RfuBandwidth::all() {
                let Some((lat, r)) = self.loop_ok(bw, beta, &mut failed) else {
                    continue;
                };
                // The loop executes once per GetSad call.
                let static_cycles = lat * self.calls;
                let th = if static_cycles == 0 {
                    0.0
                } else {
                    orig_me as f64 / static_cycles as f64
                };
                let sup = self.speedup_of(r);
                rows.push(Table6Row {
                    bw,
                    beta,
                    static_cycles,
                    th_speedup: th,
                    speedup: sup,
                    ratio: if th == 0.0 { 0.0 } else { sup / th },
                });
            }
        }
        Table6 { rows, failed }
    }

    /// Table 7: the two-line-buffer scheme.
    #[must_use]
    pub fn table7(&self) -> Table7 {
        let mut failed = Vec::new();
        let orig = self.note_orig(&mut failed);
        let mut rows = Vec::new();
        for (beta, lat, r) in &self.two_lb {
            match r {
                Ok(r) => rows.push(Table7Row {
                    beta: *beta,
                    lat: *lat,
                    ex_cycles: r.me_cycles,
                    speedup: self.speedup_of(r),
                    rel_share: self.app.me_share(r.me_cycles),
                    stalls: r.stall_cycles,
                    stall_reduction: self.orig_ok().map_or(0.0, |o| r.stall_reduction_vs(o)),
                }),
                Err(e) => failed.push(e.to_string()),
            }
        }
        Table7 {
            orig_cycles: orig.map_or(0, |o| o.me_cycles),
            orig_rel_share: orig.map_or(0.0, |o| self.app.me_share(o.me_cycles)),
            orig_stalls: orig.map_or(0, |o| o.stall_cycles),
            rows,
            failed,
        }
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Scenario name.
    pub name: String,
    /// ME cycles.
    pub cycles: u64,
    /// Speedup vs ORIG.
    pub speedup: f64,
    /// `(orig − new) / orig`.
    pub improvement: f64,
}

/// Table 1: instruction-level optimizations.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in Orig/A1/A2/A3 order.
    pub rows: Vec<Table1Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: instruction-level optimizations")?;
        writeln!(
            f,
            "{:>6} {:>12} {:>7} {:>9}",
            "", "CYCLES", "S.Up", "%Improv"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>12} {:>7.2} {:>8.1}%",
                r.name,
                r.cycles,
                r.speedup,
                r.improvement * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 2 row (a bandwidth option across both β values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Bandwidth option.
    pub bw: RfuBandwidth,
    /// Static loop latency at β = 1.
    pub lat_b1: u64,
    /// ME cycles at β = 1.
    pub cycles_b1: u64,
    /// Speedup at β = 1.
    pub speedup_b1: f64,
    /// Static loop latency at β = 5.
    pub lat_b5: u64,
    /// ME cycles at β = 5.
    pub cycles_b5: u64,
    /// Speedup at β = 5.
    pub speedup_b5: f64,
}

/// Table 2: loop-level optimizations.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// The ORIG ME cycles the speedups are relative to.
    pub orig_cycles: u64,
    /// Rows in 1×32 / 1×64 / 2×64 order.
    pub rows: Vec<Table2Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: loop-level optimizations (ME kernel as one RFU instruction)"
        )?;
        writeln!(
            f,
            "{:>6} | {:>5} {:>12} {:>6} | {:>5} {:>12} {:>6}",
            "", "Lat", "Cycles", "S.Up", "Lat", "Cycles", "S.Up"
        )?;
        writeln!(f, "{:>6} | {:^26} | {:^26}", "", "b = 1", "b = 5")?;
        writeln!(
            f,
            "{:>6}   {:>5} {:>12} {:>6}",
            "Orig", "", self.orig_cycles, "1.00"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} | {:>5} {:>12} {:>6.2} | {:>5} {:>12} {:>6.2}",
                r.bw.label(),
                r.lat_b1,
                r.cycles_b1,
                r.speedup_b1,
                r.lat_b5,
                r.cycles_b5,
                r.speedup_b5
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Bandwidth option.
    pub bw: RfuBandwidth,
    /// Static latency at β = 1.
    pub lat_b1: u64,
    /// Static latency at β = 5.
    pub lat_b5: u64,
    /// Relative latency increase β = 1 → 5.
    pub pct_latency_increase: f64,
    /// Relative speedup change β = 1 → 5 (negative = reduction).
    pub pct_speedup_reduction: f64,
}

/// Table 3: technology-scaling effects.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Rows in bandwidth order.
    pub rows: Vec<Table3Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: static-latency increase and speedup reduction, b = 1 -> 5"
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>12} {:>14}",
            "", "Lat b=1", "Lat b=5", "%IncLatency", "%SUpReduction"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>8} {:>8} {:>11.1}% {:>13.1}%",
                r.bw.label(),
                r.lat_b1,
                r.lat_b5,
                r.pct_latency_increase * 100.0,
                r.pct_speedup_reduction * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 4 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// Bandwidth option.
    pub bw: RfuBandwidth,
    /// Stall cycles at β = 1.
    pub stalls_b1: u64,
    /// Reduction vs ORIG at β = 1.
    pub reduction_b1: f64,
    /// Stall cycles at β = 5.
    pub stalls_b5: u64,
    /// Reduction vs ORIG at β = 5.
    pub reduction_b5: f64,
}

/// Table 4: ME cache stalls with one line buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// ORIG stall cycles.
    pub orig_stalls: u64,
    /// Rows in bandwidth order.
    pub rows: Vec<Table4Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4: ME cache stalls (one line buffer)")?;
        writeln!(
            f,
            "{:>6} | {:>10} {:>7} | {:>10} {:>7}",
            "", "Cycles b=1", "%Red", "Cycles b=5", "%Red"
        )?;
        writeln!(f, "{:>6}   {:>10}", "Orig", self.orig_stalls)?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} | {:>10} {:>6.1}% | {:>10} {:>6.1}%",
                r.bw.label(),
                r.stalls_b1,
                r.reduction_b1 * 100.0,
                r.stalls_b5,
                r.reduction_b5 * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 5 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// Bandwidth option.
    pub bw: RfuBandwidth,
    /// Stall share of ME time at β = 1.
    pub share_b1: f64,
    /// Stall share of ME time at β = 5.
    pub share_b5: f64,
}

/// Table 5: stalls as a share of total ME execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// ORIG stall share.
    pub orig_share: f64,
    /// Rows in bandwidth order.
    pub rows: Vec<Table5Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 5: cache stalls as % of total ME execution time")?;
        writeln!(f, "{:>6} {:>12} {:>12}", "", "%ofTotal b=1", "%ofTotal b=5")?;
        writeln!(f, "{:>6} {:>11.2}%", "Orig", self.orig_share * 100.0)?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>11.2}% {:>11.2}%",
                r.bw.label(),
                r.share_b1 * 100.0,
                r.share_b5 * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 6 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table6Row {
    /// Bandwidth option.
    pub bw: RfuBandwidth,
    /// Technology-scaling factor.
    pub beta: u64,
    /// Static loop cycles (Lat × number of executions).
    pub static_cycles: u64,
    /// Theoretical speedup (no cache effects).
    pub th_speedup: f64,
    /// Measured speedup.
    pub speedup: f64,
    /// `S.Up / Th.S.Up`.
    pub ratio: f64,
}

/// Table 6: theoretical vs experimental loop speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Rows grouped by β, then bandwidth.
    pub rows: Vec<Table6Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 6: theoretical vs experimental speedups (one line buffer)"
        )?;
        writeln!(
            f,
            "{:>4} {:>6} {:>13} {:>9} {:>7} {:>7}",
            "b", "", "StaticCycles", "Th.S.Up", "S.Up", "Ratio"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>4} {:>6} {:>13} {:>9.2} {:>7.2} {:>6.1}%",
                r.beta,
                r.bw.label(),
                r.static_cycles,
                r.th_speedup,
                r.speedup,
                r.ratio * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

/// One Table 7 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table7Row {
    /// Technology-scaling factor.
    pub beta: u64,
    /// Static loop latency.
    pub lat: u64,
    /// ME cycles.
    pub ex_cycles: u64,
    /// Speedup vs ORIG.
    pub speedup: f64,
    /// ME share of the whole application (`%Rel`).
    pub rel_share: f64,
    /// Stall cycles.
    pub stalls: u64,
    /// Stall reduction vs ORIG.
    pub stall_reduction: f64,
}

/// Table 7: two line buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7 {
    /// ORIG ME cycles.
    pub orig_cycles: u64,
    /// ORIG `%Rel` (the paper's 25.6 % initial profile).
    pub orig_rel_share: f64,
    /// ORIG stall cycles.
    pub orig_stalls: u64,
    /// Rows for β = 1 and β = 5.
    pub rows: Vec<Table7Row>,
    /// Failed scenarios whose cells are absent from this table
    /// (one rendered error per scenario).
    pub failed: Vec<String>,
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 7: ME results with two line buffers")?;
        writeln!(
            f,
            "{:>6} {:>5} {:>12} {:>6} {:>7} {:>10} {:>7}",
            "", "Lat", "ExCycles", "S.Up", "%Rel", "Stalls", "%Red"
        )?;
        writeln!(
            f,
            "{:>6} {:>5} {:>12} {:>6.2} {:>6.1}% {:>10}",
            "Orig",
            "",
            self.orig_cycles,
            1.0,
            self.orig_rel_share * 100.0,
            self.orig_stalls
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>5} {:>12} {:>6.2} {:>6.2}% {:>10} {:>6.1}%",
                format!("b={}", r.beta),
                r.lat,
                r.ex_cycles,
                r.speedup,
                r.rel_share * 100.0,
                r.stalls,
                r.stall_reduction * 100.0
            )?;
        }
        for e in &self.failed {
            writeln!(f, "  [failed] {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end pass over the tiny workload exercising every table.
    #[test]
    fn case_study_tables_on_tiny_workload() {
        let w = Workload::tiny();
        let cs = CaseStudy::run(&w);

        let t1 = cs.table1();
        assert_eq!(t1.rows.len(), 4);
        assert!(t1.rows[3].speedup > 1.0, "A3 faster than ORIG");
        assert!(
            t1.rows[1].speedup <= t1.rows[3].speedup,
            "A1 <= A3 (paper ordering)"
        );

        let t2 = cs.table2();
        assert_eq!(t2.rows.len(), 3);
        // More bandwidth ⇒ shorter latency and at least as much speedup.
        assert!(t2.rows[0].lat_b1 > t2.rows[2].lat_b1);
        assert!(t2.rows[0].speedup_b1 > 1.0);
        // β = 5 never beats β = 1.
        for r in &t2.rows {
            assert!(r.speedup_b5 <= r.speedup_b1 + 1e-9);
            assert_eq!(r.lat_b5 - r.lat_b1, 12, "paper: fixed +12 cycles");
        }

        let t3 = cs.table3();
        // Relative latency increase grows with bandwidth.
        assert!(t3.rows[0].pct_latency_increase < t3.rows[2].pct_latency_increase);

        let t6 = cs.table6();
        for r in &t6.rows {
            assert!(r.ratio <= 1.0 + 1e-9, "measured <= theoretical");
        }

        let t7 = cs.table7();
        assert_eq!(t7.rows.len(), 2);
        assert!(t7.rows[0].speedup >= t2.rows[0].speedup_b1, "2 LB >= 1 LB");
        assert!(t7.rows[0].rel_share < t7.orig_rel_share);

        // Displays render without panicking and contain the headers.
        assert!(cs.table1().to_string().contains("Table 1"));
        assert!(cs.table4().to_string().contains("Table 4"));
        assert!(cs.table5().to_string().contains("Table 5"));
    }
}
