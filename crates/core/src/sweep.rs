//! The sweep engine: expand an [`ExperimentSpec`] into scenarios, run them
//! on the scenario runner, and collect a result matrix.
//!
//! There is one runner, [`run_scenario_list_supervised`]: it fans
//! scenarios out across worker threads with per-scenario panic isolation
//! and reassembles results in input order, so the outcome — every cell,
//! bit for bit — is independent of the thread count. [`run_scenario_list`]
//! and [`Sweep::run`] are that runner with no cache and
//! [`SupervisorConfig::default`].

use std::fmt;

use mpeg4_enc::QualityMetrics;
use rvliw_trace::Json;

use crate::cache::ScenarioCache;
use crate::runner::{run_me, MeResult, ScenarioError};
use crate::scenario::{Kind, Scenario};
use crate::spec::{pretty, ExperimentSpec, SpecError};
use crate::supervisor::{run_scenario_list_supervised, HealthReport, SupervisorConfig};
use crate::workload::Workload;

/// The per-scenario outcome slot of a sweep or case study.
pub type ScenarioResult = Result<MeResult, ScenarioError>;

std::thread_local! {
    /// The `file:line:col` of the most recent panic on this thread, captured
    /// by the hook below so [`run_isolated`] can attach it to
    /// [`ScenarioError::Panic`] (the unwind payload itself carries only the
    /// message).
    static LAST_PANIC_LOCATION: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that records the panic
/// location into [`LAST_PANIC_LOCATION`] and then chains to the previous
/// hook, so default panic reporting elsewhere is unaffected.
fn install_location_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
            LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = loc);
            prev(info);
        }));
    });
}

/// Runs one scenario with a panic backstop: a panicking scenario becomes
/// [`ScenarioError::Panic`] instead of tearing down the whole sweep (or
/// poisoning a worker thread in the parallel path).
pub(crate) fn run_isolated(sc: &Scenario, workload: &Workload) -> ScenarioResult {
    install_location_hook();
    LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = None);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_me(sc, workload))).unwrap_or_else(
        |payload| {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            let location = LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take());
            Err(ScenarioError::Panic {
                label: sc.label.clone(),
                message,
                location,
            })
        },
    )
}

/// Runs `scenarios` across `threads` workers (`<= 1` runs serially on the
/// calling thread), returning one [`ScenarioResult`] per scenario in input
/// order: [`run_scenario_list_supervised`] with no cache and no
/// supervision. A failing or panicking scenario occupies its own slot
/// without disturbing the others. `progress` is called with a scenario
/// label as each scenario starts (from worker threads when running
/// parallel — labels may interleave, but every label appears exactly
/// once).
#[must_use]
pub fn run_scenario_list(
    scenarios: &[Scenario],
    workload: &Workload,
    threads: usize,
    progress: &(impl Fn(&str) + Sync),
) -> Vec<ScenarioResult> {
    let config = SupervisorConfig::default();
    run_scenario_list_supervised(scenarios, workload, threads, progress, None, &config).0
}

/// An expanded [`ExperimentSpec`]: the spec plus its concrete scenario
/// list, ready to run.
#[derive(Debug, Clone)]
pub struct Sweep {
    spec: ExperimentSpec,
    scenarios: Vec<Scenario>,
}

impl Sweep {
    /// Expands `spec` into its scenario list.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from [`ExperimentSpec::scenarios`] (duplicate
    /// labels, chiefly).
    pub fn expand(spec: ExperimentSpec) -> Result<Self, SpecError> {
        let scenarios = spec.scenarios()?;
        Ok(Sweep { spec, scenarios })
    }

    /// The spec this sweep was expanded from.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The expanded scenarios, in run order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Runs every scenario over `workload` across `threads` workers and
    /// collects the result matrix: [`Sweep::run_supervised`] with no cache
    /// and no supervision. Bit-identical for any thread count.
    #[must_use]
    pub fn run(
        &self,
        workload: &Workload,
        threads: usize,
        progress: impl Fn(&str) + Sync,
    ) -> SweepOutcome {
        let config = SupervisorConfig::default();
        self.run_supervised(workload, threads, progress, None, &config)
            .0
    }

    /// Runs every scenario with an optional result cache under a
    /// [`SupervisorConfig`]: journal every outcome, replay a resume map,
    /// retry transients and watchdog each attempt per the config,
    /// returning the matrix plus the run's [`HealthReport`]. The outcome —
    /// including its JSON rendering — is bit-identical with or without the
    /// cache; cache traffic is reported separately (through
    /// [`ScenarioCache::counts`]), never embedded in the matrix.
    #[must_use]
    pub fn run_supervised(
        &self,
        workload: &Workload,
        threads: usize,
        progress: impl Fn(&str) + Sync,
        cache: Option<&ScenarioCache>,
        config: &SupervisorConfig,
    ) -> (SweepOutcome, HealthReport) {
        let (results, health) = run_scenario_list_supervised(
            &self.scenarios,
            workload,
            threads,
            &progress,
            cache,
            config,
        );
        (self.assemble(workload, results), health)
    }

    /// Zips per-scenario results back into the labeled row matrix.
    fn assemble(&self, workload: &Workload, results: Vec<ScenarioResult>) -> SweepOutcome {
        let rows = self
            .scenarios
            .iter()
            .zip(results)
            .map(|(sc, result)| SweepRow {
                label: sc.label.clone(),
                static_latency: match sc.kind {
                    Kind::Instruction(_) => None,
                    Kind::Loop { .. } => Some(sc.static_latency(workload.stride)),
                },
                result,
            })
            .collect();
        SweepOutcome {
            name: self.spec.name.clone(),
            baseline: self.spec.baseline.clone(),
            rows,
        }
    }
}

/// One row of a [`SweepOutcome`]: a scenario's label, its static RFU
/// latency (loop-level scenarios only) and its measurement or error.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The scenario label.
    pub label: String,
    /// Static `GetSadLoop` latency in cycles (`None` for instruction-level
    /// scenarios, which have no loop engine).
    pub static_latency: Option<u64>,
    /// The measurement, or the typed error that replaced it.
    pub result: ScenarioResult,
}

/// The result matrix of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec name.
    pub name: String,
    /// Baseline label speedups are computed against, when the spec set one.
    pub baseline: Option<String>,
    /// One row per scenario, in run order.
    pub rows: Vec<SweepRow>,
}

/// A cross-substrate pairing: two successful rows of the same sweep whose
/// labels differ only by the ` su=` suffix, compared on ME cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstrateRatio {
    /// The base scenario label (the default-substrate row).
    pub label: String,
    /// The alternate substrate token (the ` su=` suffix value, e.g.
    /// `scalar`).
    pub substrate: String,
    /// ME cycles of the default (VLIW) row.
    pub vliw_cycles: u64,
    /// ME cycles of the alternate-substrate row.
    pub substrate_cycles: u64,
}

impl SubstrateRatio {
    /// Cycle ratio of the alternate substrate over the VLIW row
    /// (`> 1` means the alternate substrate is slower).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.substrate_cycles as f64 / self.vliw_cycles as f64
    }
}

/// Renders a quality block as the compact speed-vs-quality cell used by
/// the text matrix: `+1.23%/+0.05dB` (SAD inflation, PSNR delta). Rows
/// with no quality block (exact full-quality scenarios) render `-`.
fn quality_cell(q: Option<&QualityMetrics>) -> String {
    match q {
        None => "-".to_owned(),
        Some(q) => format!("{:+.2}%/{:+.2}dB", q.sad_inflation * 100.0, q.psnr_delta_db),
    }
}

/// A finite float as a JSON number; non-finite values (infinite SAD
/// inflation against a zero-cost golden field) degrade to `null` rather
/// than emitting invalid JSON.
pub(crate) fn fnum(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v:.6}"))
    } else {
        Json::Null
    }
}

impl SweepOutcome {
    /// The baseline row's measurement, when a baseline label was set and
    /// that row succeeded.
    #[must_use]
    pub fn baseline_result(&self) -> Option<&MeResult> {
        let label = self.baseline.as_deref()?;
        self.rows
            .iter()
            .find(|r| r.label == label)?
            .result
            .as_ref()
            .ok()
    }

    /// The errors of every failed row, in run order.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioError> {
        self.rows.iter().filter_map(|r| r.result.as_ref().err())
    }

    /// Whether every row succeeded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Every cross-substrate pairing in this outcome, in run order of the
    /// alternate-substrate rows.
    ///
    /// A row whose label carries a ` su=` suffix (the substrate sweep
    /// axis) is paired with the row whose label is the same minus that
    /// suffix — the default-substrate run of the same scenario point.
    /// Pairs where either side failed, or where the base row is absent,
    /// are skipped.
    #[must_use]
    pub fn substrate_ratios(&self) -> Vec<SubstrateRatio> {
        let mut out = Vec::new();
        for row in &self.rows {
            // ` su=` is always the last label suffix the expander appends,
            // so splitting from the right recovers the base label exactly.
            let Some((base, su)) = row.label.rsplit_once(" su=") else {
                continue;
            };
            let Ok(res) = &row.result else { continue };
            let Some(base_res) = self
                .rows
                .iter()
                .find(|r| r.label == base)
                .and_then(|r| r.result.as_ref().ok())
            else {
                continue;
            };
            out.push(SubstrateRatio {
                label: base.to_owned(),
                substrate: su.to_owned(),
                vliw_cycles: base_res.me_cycles,
                substrate_cycles: res.me_cycles,
            });
        }
        out
    }

    /// The outcome as a JSON value (the `rvliw sweep --out` format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let base = self.baseline_result();
        let mut m = std::collections::BTreeMap::new();
        m.insert("sweep".to_owned(), Json::Str(self.name.clone()));
        m.insert(
            "baseline".to_owned(),
            match &self.baseline {
                Some(b) => Json::Str(b.clone()),
                None => Json::Null,
            },
        );
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut r = std::collections::BTreeMap::new();
                r.insert("label".to_owned(), Json::Str(row.label.clone()));
                r.insert(
                    "static_latency".to_owned(),
                    match row.static_latency {
                        Some(l) => Json::Num(l.to_string()),
                        None => Json::Null,
                    },
                );
                match &row.result {
                    Ok(res) => {
                        r.insert("me_cycles".to_owned(), Json::Num(res.me_cycles.to_string()));
                        r.insert(
                            "stall_cycles".to_owned(),
                            Json::Num(res.stall_cycles.to_string()),
                        );
                        r.insert("calls".to_owned(), Json::Num(res.calls.to_string()));
                        r.insert(
                            "speedup".to_owned(),
                            match base {
                                Some(b) => Json::Num(format!("{:.4}", res.speedup_vs(b))),
                                None => Json::Null,
                            },
                        );
                        r.insert(
                            "quality".to_owned(),
                            match &res.quality {
                                Some(q) => {
                                    let mut qm = std::collections::BTreeMap::new();
                                    qm.insert("sad_inflation".to_owned(), fnum(q.sad_inflation));
                                    qm.insert("psnr_delta_db".to_owned(), fnum(q.psnr_delta_db));
                                    Json::Obj(qm)
                                }
                                None => Json::Null,
                            },
                        );
                        r.insert("error".to_owned(), Json::Null);
                    }
                    Err(e) => {
                        r.insert("error".to_owned(), Json::Str(e.to_string()));
                    }
                }
                Json::Obj(r)
            })
            .collect();
        m.insert("rows".to_owned(), Json::Arr(rows));
        // Cross-substrate pairings are emitted only when the sweep has
        // any, so single-substrate sweep output keeps its exact shape.
        let ratios = self.substrate_ratios();
        if !ratios.is_empty() {
            m.insert(
                "substrate_ratios".to_owned(),
                Json::Arr(
                    ratios
                        .iter()
                        .map(|r| {
                            let mut j = std::collections::BTreeMap::new();
                            j.insert("label".to_owned(), Json::Str(r.label.clone()));
                            j.insert("substrate".to_owned(), Json::Str(r.substrate.clone()));
                            j.insert(
                                "vliw_cycles".to_owned(),
                                Json::Num(r.vliw_cycles.to_string()),
                            );
                            j.insert(
                                "substrate_cycles".to_owned(),
                                Json::Num(r.substrate_cycles.to_string()),
                            );
                            j.insert("ratio".to_owned(), fnum(r.ratio()));
                            Json::Obj(j)
                        })
                        .collect(),
                ),
            );
        }
        Json::Obj(m)
    }

    /// The outcome as pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }

    /// The cycles-vs-quality Pareto partition of this outcome.
    ///
    /// Only successful rows carrying a quality block participate — exact
    /// full-quality rows have no quality number to trade against and are
    /// skipped, as are failed rows and rows whose inflation is NaN (a NaN
    /// coordinate would compare incomparable to everything and pollute the
    /// frontier). A point is *dominated* when some other
    /// point is no worse on both axes (ME cycles, SAD inflation) and
    /// strictly better on at least one; the frontier is every point no
    /// other point dominates. Coincident points dominate neither way and
    /// share the frontier.
    #[must_use]
    pub fn pareto(&self) -> Pareto {
        let mut points: Vec<ParetoPoint> = self
            .rows
            .iter()
            .filter_map(|row| {
                let res = row.result.as_ref().ok()?;
                let q = res.quality?;
                if q.sad_inflation.is_nan() {
                    return None;
                }
                Some(ParetoPoint {
                    label: row.label.clone(),
                    me_cycles: res.me_cycles,
                    sad_inflation: q.sad_inflation,
                    psnr_delta_db: q.psnr_delta_db,
                })
            })
            .collect();
        // Deterministic order for both partitions: cheapest first, then
        // best quality, then label as the final tie-break.
        points.sort_by(|a, b| {
            a.me_cycles
                .cmp(&b.me_cycles)
                .then(a.sad_inflation.total_cmp(&b.sad_inflation))
                .then_with(|| a.label.cmp(&b.label))
        });
        let all = points.clone();
        let (mut frontier, mut dominated) = (Vec::new(), Vec::new());
        for p in points {
            if all.iter().any(|o| o.dominates(&p)) {
                dominated.push(p);
            } else {
                frontier.push(p);
            }
        }
        Pareto {
            name: self.name.clone(),
            frontier,
            dominated,
        }
    }
}

/// One scenario's position in the cycles-vs-quality plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The scenario label.
    pub label: String,
    /// ME cycles (the speed axis — lower is better).
    pub me_cycles: u64,
    /// Exact-SAD inflation vs the golden encode (the quality axis —
    /// lower is better).
    pub sad_inflation: f64,
    /// PSNR delta vs the golden encode, carried along for reporting (not
    /// a dominance axis).
    pub psnr_delta_db: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other`: no worse on both axes, strictly
    /// better on at least one. Irreflexive — a point never dominates
    /// itself or a coincident twin.
    #[must_use]
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.me_cycles <= other.me_cycles
            && self.sad_inflation <= other.sad_inflation
            && (self.me_cycles < other.me_cycles || self.sad_inflation < other.sad_inflation)
    }

    fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("label".to_owned(), Json::Str(self.label.clone()));
        m.insert(
            "me_cycles".to_owned(),
            Json::Num(self.me_cycles.to_string()),
        );
        m.insert("sad_inflation".to_owned(), fnum(self.sad_inflation));
        m.insert("psnr_delta_db".to_owned(), fnum(self.psnr_delta_db));
        Json::Obj(m)
    }
}

/// The Pareto partition of a sweep: the cycles-vs-quality frontier plus
/// every dominated point, both sorted by ascending ME cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Pareto {
    /// The sweep name the partition was computed from.
    pub name: String,
    /// Non-dominated points, cheapest first.
    pub frontier: Vec<ParetoPoint>,
    /// Dominated points, cheapest first.
    pub dominated: Vec<ParetoPoint>,
}

impl Pareto {
    /// The partition as a JSON value (the `rvliw sweep --pareto` format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("sweep".to_owned(), Json::Str(self.name.clone()));
        m.insert(
            "frontier".to_owned(),
            Json::Arr(self.frontier.iter().map(ParetoPoint::to_json).collect()),
        );
        m.insert(
            "dominated".to_owned(),
            Json::Arr(self.dominated.iter().map(ParetoPoint::to_json).collect()),
        );
        Json::Obj(m)
    }

    /// The partition as pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }
}

impl fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Sweep `{}`:", self.name)?;
        let base = self.baseline_result();
        writeln!(
            f,
            "{:<24} {:>8} {:>12} {:>12} {:>8} {:>8} {:>16}",
            "Scenario", "Lat", "MeCycles", "Stalls", "Calls", "S.Up", "Quality"
        )?;
        for row in &self.rows {
            let lat = row
                .static_latency
                .map_or_else(|| "-".to_owned(), |l| l.to_string());
            match &row.result {
                Ok(res) => {
                    let speedup = base
                        .map_or_else(|| "-".to_owned(), |b| format!("{:.2}", res.speedup_vs(b)));
                    writeln!(
                        f,
                        "{:<24} {:>8} {:>12} {:>12} {:>8} {:>8} {:>16}",
                        row.label,
                        lat,
                        res.me_cycles,
                        res.stall_cycles,
                        res.calls,
                        speedup,
                        quality_cell(res.quality.as_ref())
                    )?;
                }
                Err(e) => {
                    writeln!(f, "{:<24} {:>8} [failed] {e}", row.label, lat)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_labels_fail_expansion() {
        use crate::spec::SweepAxes;
        use rvliw_kernels::Variant;
        let spec = ExperimentSpec::new("dup")
            .sweep(SweepAxes::instruction(vec![Variant::Orig]))
            .sweep(SweepAxes::instruction(vec![Variant::Orig]));
        assert!(matches!(
            Sweep::expand(spec),
            Err(SpecError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn sweep_runs_and_reports_speedups() {
        use crate::spec::SweepAxes;
        use rvliw_kernels::Variant;
        use rvliw_rfu::RfuBandwidth;
        let spec = ExperimentSpec::new("smoke")
            .with_baseline("Orig")
            .sweep(SweepAxes::instruction(vec![Variant::Orig]))
            .sweep(SweepAxes::loop_grid(vec![RfuBandwidth::B2x64], vec![5]));
        let sweep = Sweep::expand(spec).unwrap();
        let workload = Workload::tiny();
        let out = sweep.run(&workload, 1, |_| {});
        assert!(out.is_complete(), "failures: {:?}", out.failures().count());
        assert_eq!(out.rows.len(), 2);
        assert!(out.baseline_result().is_some());
        // The loop-level point must beat the software baseline.
        let base = out.baseline_result().unwrap().me_cycles;
        let fast = out.rows[1].result.as_ref().unwrap().me_cycles;
        assert!(fast < base);
        assert!(out.rows[1].static_latency.is_some());
        assert!(out.rows[0].static_latency.is_none());
        // JSON rendering round-trips through the parser.
        let json = Json::parse(&out.to_json_string()).unwrap();
        assert_eq!(json.get("sweep").and_then(Json::as_str), Some("smoke"));
        assert_eq!(
            json.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        // Text rendering mentions every label.
        let text = out.to_string();
        assert!(text.contains("Orig") && text.contains("2x64 b=5"));
        // Exact scenarios have no quality block: the column shows `-` and
        // the JSON rows carry an explicit null.
        assert!(text.contains("Quality"));
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        assert!(rows
            .iter()
            .all(|r| matches!(r.get("quality"), Some(Json::Null))));
    }

    /// A synthetic successful row with the given cost and quality block.
    fn row(label: &str, me_cycles: u64, quality: Option<QualityMetrics>) -> SweepRow {
        SweepRow {
            label: label.to_owned(),
            static_latency: None,
            result: Ok(MeResult {
                label: label.to_owned(),
                me_cycles,
                stall_cycles: 0,
                calls: 1,
                mem: Default::default(),
                core: Default::default(),
                rfu: Default::default(),
                quality,
            }),
        }
    }

    fn q(sad_inflation: f64, psnr_delta_db: f64) -> Option<QualityMetrics> {
        Some(QualityMetrics {
            sad_inflation,
            psnr_delta_db,
        })
    }

    #[test]
    fn quality_cell_renders_metrics_or_dash() {
        assert_eq!(quality_cell(None), "-");
        let m = QualityMetrics {
            sad_inflation: 0.0123,
            psnr_delta_db: -0.05,
        };
        assert_eq!(quality_cell(Some(&m)), "+1.23%/-0.05dB");
    }

    #[test]
    fn quality_rows_serialize_finite_floats_and_null_infinities() {
        let out = SweepOutcome {
            name: "q".to_owned(),
            baseline: None,
            rows: vec![
                row("ap", 10, q(0.5, 1.25)),
                row("inf", 20, q(f64::INFINITY, 0.0)),
            ],
        };
        let json = Json::parse(&out.to_json_string()).unwrap();
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        let quality = rows[0].get("quality").unwrap();
        assert_eq!(
            quality.get("sad_inflation").map(ToString::to_string),
            Some("0.500000".to_owned())
        );
        assert_eq!(
            quality.get("psnr_delta_db").map(ToString::to_string),
            Some("1.250000".to_owned())
        );
        // Infinite inflation (zero-cost golden field) degrades to null
        // instead of emitting invalid JSON.
        assert!(matches!(
            rows[1]
                .get("quality")
                .and_then(|qj| qj.get("sad_inflation")),
            Some(Json::Null)
        ));
    }

    #[test]
    fn pareto_partition_is_sorted_and_dominance_free() {
        let out = SweepOutcome {
            name: "pareto".to_owned(),
            baseline: None,
            rows: vec![
                row("exact", 200, None), // no quality block: not a point
                row("a", 100, q(0.00, 0.0)),
                row("c", 120, q(0.005, 0.1)), // dominated by `a`
                row("b", 80, q(0.01, 0.2)),
                row("d", 90, q(0.02, 0.3)), // dominated by `b`
                SweepRow {
                    label: "boom".to_owned(),
                    static_latency: None,
                    result: Err(ScenarioError::Panic {
                        label: "boom".to_owned(),
                        message: "x".to_owned(),
                        location: None,
                    }),
                },
            ],
        };
        let p = out.pareto();
        let labels: Vec<&str> = p.frontier.iter().map(|pt| pt.label.as_str()).collect();
        assert_eq!(labels, ["b", "a"]);
        // Both partitions are sorted by ascending ME cycles.
        for part in [&p.frontier, &p.dominated] {
            assert!(part.windows(2).all(|w| w[0].me_cycles <= w[1].me_cycles));
        }
        // The frontier is dominance-free...
        for x in &p.frontier {
            for y in &p.frontier {
                assert!(!x.dominates(y), "{} dominates {}", x.label, y.label);
            }
        }
        // ...and every dominated point has a frontier witness.
        assert_eq!(p.dominated.len(), 2);
        for d in &p.dominated {
            assert!(
                p.frontier.iter().any(|f| f.dominates(d)),
                "{} dominated without witness",
                d.label
            );
        }
        // JSON rendering parses and keeps the partition sizes.
        let json = Json::parse(&p.to_json_string()).unwrap();
        assert_eq!(json.get("sweep").and_then(Json::as_str), Some("pareto"));
        assert_eq!(
            json.get("frontier")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            json.get("dominated")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn pareto_single_point_and_empty_inputs() {
        // A single quality-bearing point is its own frontier.
        let out = SweepOutcome {
            name: "one".to_owned(),
            baseline: None,
            rows: vec![row("solo", 100, q(0.01, 0.1))],
        };
        let p = out.pareto();
        assert_eq!(p.frontier.len(), 1);
        assert!(p.dominated.is_empty());
        // No quality-bearing rows at all: both partitions empty, no panic.
        let out = SweepOutcome {
            name: "none".to_owned(),
            baseline: None,
            rows: vec![row("exact", 100, None)],
        };
        let p = out.pareto();
        assert!(p.frontier.is_empty() && p.dominated.is_empty());
        let out = SweepOutcome {
            name: "zero".to_owned(),
            baseline: None,
            rows: vec![],
        };
        let p = out.pareto();
        assert!(p.frontier.is_empty() && p.dominated.is_empty());
    }

    #[test]
    fn pareto_duplicate_points_share_the_frontier() {
        // Coincident points dominate neither way: both stay on the
        // frontier (dominance is irreflexive and strict).
        let out = SweepOutcome {
            name: "dup".to_owned(),
            baseline: None,
            rows: vec![
                row("twin-b", 100, q(0.01, 0.1)),
                row("twin-a", 100, q(0.01, 0.1)),
                row("worse", 200, q(0.02, 0.2)),
            ],
        };
        let p = out.pareto();
        let labels: Vec<&str> = p.frontier.iter().map(|pt| pt.label.as_str()).collect();
        // Label is the final tie-break, so coincident twins sort by name.
        assert_eq!(labels, ["twin-a", "twin-b"]);
        assert_eq!(p.dominated.len(), 1);
    }

    #[test]
    fn pareto_all_dominated_but_one() {
        // A strictly better point on both axes dominates everything else.
        let out = SweepOutcome {
            name: "alldom".to_owned(),
            baseline: None,
            rows: vec![
                row("best", 10, q(0.0, 0.0)),
                row("d1", 20, q(0.01, 0.1)),
                row("d2", 30, q(0.02, 0.2)),
                row("d3", 40, q(0.03, 0.3)),
            ],
        };
        let p = out.pareto();
        assert_eq!(p.frontier.len(), 1);
        assert_eq!(p.frontier[0].label, "best");
        assert_eq!(p.dominated.len(), 3);
    }

    #[test]
    fn pareto_skips_nan_inflation_rows() {
        // A NaN inflation coordinate is incomparable to everything: it
        // would neither dominate nor be dominated and pollute the
        // frontier. Such rows are excluded from the partition entirely.
        let out = SweepOutcome {
            name: "nan".to_owned(),
            baseline: None,
            rows: vec![
                row("good", 100, q(0.01, 0.1)),
                row("nan", 10, q(f64::NAN, 0.0)),
            ],
        };
        let p = out.pareto();
        let labels: Vec<&str> = p.frontier.iter().map(|pt| pt.label.as_str()).collect();
        assert_eq!(labels, ["good"]);
        assert!(p.dominated.is_empty());
    }

    #[test]
    fn substrate_ratios_pair_rows_by_label_suffix() {
        let out = SweepOutcome {
            name: "xsub".to_owned(),
            baseline: None,
            rows: vec![
                row("A3", 100, None),
                row("A3 su=scalar", 250, None),
                row("Orig", 400, None),
                // No base row: skipped.
                row("1x32 b=1 su=scalar", 70, None),
                // Failed alternate row: skipped.
                SweepRow {
                    label: "Orig su=scalar".to_owned(),
                    static_latency: None,
                    result: Err(ScenarioError::Panic {
                        label: "Orig su=scalar".to_owned(),
                        message: "x".to_owned(),
                        location: None,
                    }),
                },
            ],
        };
        let ratios = out.substrate_ratios();
        assert_eq!(
            ratios,
            [SubstrateRatio {
                label: "A3".to_owned(),
                substrate: "scalar".to_owned(),
                vliw_cycles: 100,
                substrate_cycles: 250,
            }]
        );
        assert!((ratios[0].ratio() - 2.5).abs() < 1e-12);
        // The JSON gains a `substrate_ratios` array...
        let json = Json::parse(&out.to_json_string()).unwrap();
        let jr = json.get("substrate_ratios").and_then(Json::as_array);
        assert_eq!(jr.map(<[Json]>::len), Some(1));
        assert_eq!(
            jr.unwrap()[0].get("ratio").map(ToString::to_string),
            Some("2.500000".to_owned())
        );
        // ...but only when pairings exist: single-substrate output keeps
        // its exact shape.
        let plain = SweepOutcome {
            name: "plain".to_owned(),
            baseline: None,
            rows: vec![row("A3", 100, None)],
        };
        assert!(plain.substrate_ratios().is_empty());
        assert!(!plain.to_json_string().contains("substrate_ratios"));
    }

    #[test]
    fn coincident_points_share_the_frontier() {
        let out = SweepOutcome {
            name: "tie".to_owned(),
            baseline: None,
            rows: vec![row("x", 50, q(0.01, 0.0)), row("y", 50, q(0.01, 0.0))],
        };
        let p = out.pareto();
        assert_eq!(p.frontier.len(), 2);
        assert!(p.dominated.is_empty());
    }
}
