//! Budgeted design-space exploration over the RFU configuration space.
//!
//! The paper fixes one design point and reports Tables 1–7 for it; this
//! module searches the space instead. An [`ExploreSpec`] names the axes
//! to search (RFU bandwidth / two-line-buffer engine, β, Line Buffer B
//! geometry, reconfiguration model, prefetch depth, data-cache geometry,
//! SAD approximation, search algorithm, substrate), an evaluation budget
//! and a strategy; [`run_explore`] drives one of two budgeted searches —
//! coordinate descent or a small generational/mutation loop — over it and
//! returns an [`ExploreOutcome`]: the cycles-vs-quality Pareto archive
//! plus, for every frontier point, a single-point [`ExperimentSpec`]
//! replayable with `rvliw sweep --spec`.
//!
//! Determinism contract:
//!
//! * All randomness comes from the fault crate's per-(seed, component,
//!   salt) substream derivation ([`FaultPlan::injector`]), so the same
//!   seed reproduces the same trajectory — candidate for candidate — at
//!   any thread count.
//! * Fitness batches run on the deterministic parallel runner (results
//!   are reassembled in input order), optionally through the supervised
//!   wrapper and the on-disk [`ScenarioCache`].
//! * The **budget counts unique design points evaluated** (including
//!   failed evaluations). Revisits of an already-evaluated point are
//!   served from an in-run memo and are free, and on-disk cache hits make
//!   warm runs faster but never alter the trajectory — which is what
//!   makes cold-cache and warm-cache runs byte-identical.
//!
//! Candidates are index vectors over the nine axes (engine, β, lbb,
//! reconfig, prefetch, dcache, approx, search, substrate). Each candidate
//! maps to a one-point [`ExperimentSpec`] and is evaluated by expanding
//! and running that spec, so an explore evaluation and a later
//! `rvliw sweep --spec` replay of the emitted frontier spec are the same
//! scenario by construction — same label, same cache key, same numbers.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use mpeg4_enc::me::SearchAlgorithm;
use mpeg4_enc::ApproxSad;
use rvliw_fault::{FaultInjector, FaultPlan, FaultProfile};
use rvliw_isa::Substrate;
use rvliw_rfu::RfuBandwidth;
use rvliw_trace::Json;

use crate::cache::ScenarioCache;
use crate::scenario::Scenario;
use crate::spec::{
    as_obj, bind, check_keys, parse_usize, pretty, req_str, schema, DcacheSpec, ExperimentSpec,
    Grid, ReconfigSpec, SpecError, SweepAxes, APPROX, BANDWIDTHS, BETAS, DCACHE, ENGINE,
    LBB_BANK_LINES, PREFETCH, RECONFIG, SEARCH, SUBSTRATE, TWO_LINE_BUFFERS,
};
use crate::supervisor::{run_scenario_list_supervised, SupervisorConfig};
use crate::sweep::{fnum, ParetoPoint};
use crate::workload::Workload;

/// Number of search axes in a candidate index vector.
pub const AXES: usize = 9;

/// Which budgeted search drives the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStrategy {
    /// Axis-at-a-time hill climbing with random restarts, alternating
    /// the lexicographic objective (cycles-first / inflation-first)
    /// between passes so both ends of the front are pulled on.
    CoordinateDescent,
    /// A small (μ+λ)-style generational loop: keep the better half of
    /// the population, refill with 1–2-axis mutants of kept parents.
    Generational,
}

impl ExploreStrategy {
    /// The canonical spec token (`coordinate-descent` / `generational`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ExploreStrategy::CoordinateDescent => "coordinate-descent",
            ExploreStrategy::Generational => "generational",
        }
    }

    /// Parses a [`Self::token`] back; `None` for unknown strategies.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "coordinate-descent" => Some(ExploreStrategy::CoordinateDescent),
            "generational" => Some(ExploreStrategy::Generational),
            _ => None,
        }
    }
}

/// A search objective token. The exploration always optimizes the full
/// cycles-vs-quality plane (the Pareto archive keys on both axes); the
/// spec field exists so a typo'd objective is a typed error instead of a
/// silently ignored key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Motion-estimation cycles (lower is better).
    MeCycles,
    /// Exact-SAD inflation vs the golden encode (lower is better).
    SadInflation,
}

impl Objective {
    /// The canonical spec token (`me_cycles` / `sad_inflation`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Objective::MeCycles => "me_cycles",
            Objective::SadInflation => "sad_inflation",
        }
    }

    /// Parses a [`Self::token`] back; `None` for unknown objectives.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "me_cycles" => Some(Objective::MeCycles),
            "sad_inflation" => Some(Objective::SadInflation),
            _ => None,
        }
    }
}

/// One value of the engine axis: which loop-level acceleration scheme a
/// candidate uses. Bandwidth and the two-line-buffer scheme are a single
/// axis because the two-buffer scheme forces 1×32 bandwidth — keeping
/// them separate would alias distinct candidates onto one scenario label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Single line buffer at the given RFU data bandwidth.
    Loop(RfuBandwidth),
    /// The two-line-buffer scheme (bandwidth forced to 1×32).
    TwoLb,
}

impl EngineChoice {
    /// Every engine choice, in spec-token order.
    #[must_use]
    pub fn all() -> [EngineChoice; 4] {
        [
            EngineChoice::Loop(RfuBandwidth::B1x32),
            EngineChoice::Loop(RfuBandwidth::B1x64),
            EngineChoice::Loop(RfuBandwidth::B2x64),
            EngineChoice::TwoLb,
        ]
    }

    /// The canonical spec token (`1x32`, `1x64`, `2x64`, `2lb`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            EngineChoice::Loop(bw) => bw.label(),
            EngineChoice::TwoLb => "2lb",
        }
    }

    /// Parses a [`Self::token`] back; `None` for unknown engines.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        EngineChoice::all().into_iter().find(|e| e.token() == s)
    }

    /// The loop-level bandwidth and line-buffer scheme this engine runs.
    pub(crate) fn loop_fields(self) -> (RfuBandwidth, bool) {
        match self {
            EngineChoice::Loop(bw) => (bw, false),
            EngineChoice::TwoLb => (RfuBandwidth::B1x32, true),
        }
    }
}

/// The searchable axes. Every axis is a non-empty, duplicate-free list
/// of values; a candidate picks one index per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpace {
    /// Loop-level engine choices (required).
    pub engine: Vec<EngineChoice>,
    /// Technology-scaling factors β (required, each ≥ 1).
    pub betas: Vec<u64>,
    /// Line Buffer B per-bank capacities (`None` = the paper's 34).
    pub lbb_bank_lines: Vec<Option<usize>>,
    /// Reconfiguration-penalty models.
    pub reconfig: Vec<ReconfigSpec>,
    /// Prefetch-buffer depths (`None` = the loop-level default, 64).
    pub prefetch: Vec<Option<usize>>,
    /// Data-cache geometry overrides (`None` = the paper's 32 KB 4-way).
    pub dcache: Vec<Option<DcacheSpec>>,
    /// SAD approximations.
    pub approx: Vec<ApproxSad>,
    /// Search-algorithm overrides (`None` = the workload's own search).
    pub search: Vec<Option<SearchAlgorithm>>,
    /// Fetch/issue substrates.
    pub substrate: Vec<Substrate>,
}

impl ExploreSpace {
    /// A minimal space: the given engines and betas, every other axis at
    /// its single default value.
    #[must_use]
    pub fn new(engine: Vec<EngineChoice>, betas: Vec<u64>) -> Self {
        ExploreSpace {
            engine,
            betas,
            lbb_bank_lines: LBB_BANK_LINES.defaults(),
            reconfig: RECONFIG.defaults(),
            prefetch: PREFETCH.defaults(),
            dcache: DCACHE.defaults(),
            approx: APPROX.defaults(),
            search: SEARCH.defaults(),
            substrate: SUBSTRATE.defaults(),
        }
    }

    /// The axes bound to their values, in candidate-index order.
    fn grid(&self) -> Grid<'_> {
        Grid {
            template: Scenario::loop_level(RfuBandwidth::B1x32, 1),
            columns: vec![
                bind(&ENGINE, &self.engine),
                bind(&BETAS, &self.betas),
                bind(&LBB_BANK_LINES, &self.lbb_bank_lines),
                bind(&RECONFIG, &self.reconfig),
                bind(&PREFETCH, &self.prefetch),
                bind(&DCACHE, &self.dcache),
                bind(&APPROX, &self.approx),
                bind(&SEARCH, &self.search),
                bind(&SUBSTRATE, &self.substrate),
            ],
        }
    }

    /// Per-axis cardinalities, candidate-index order.
    #[must_use]
    pub fn lens(&self) -> [usize; AXES] {
        let mut lens = [0; AXES];
        for (len, c) in lens.iter_mut().zip(&self.grid().columns) {
            *len = c.len();
        }
        lens
    }

    /// Total number of design points (saturating).
    #[must_use]
    pub fn size(&self) -> usize {
        self.lens()
            .iter()
            .fold(1usize, |acc, &n| acc.saturating_mul(n))
    }

    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        self.grid().emit(&mut m);
        Json::Obj(m)
    }

    /// Parses the space at `path`. Every axis must be non-empty and free
    /// of values that label a point alike — a duplicate would alias two
    /// candidate indices onto one scenario label, corrupting both the
    /// memo and the archive.
    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        let m = as_obj(j, path)?;
        check_keys(m, &Self::new(Vec::new(), Vec::new()).grid().keys(), path)?;
        let space = ExploreSpace {
            engine: ENGINE.parse_axis(m, path)?,
            betas: BETAS.parse_axis(m, path)?,
            lbb_bank_lines: LBB_BANK_LINES.parse_axis(m, path)?,
            reconfig: RECONFIG.parse_axis(m, path)?,
            prefetch: PREFETCH.parse_axis(m, path)?,
            dcache: DCACHE.parse_axis(m, path)?,
            approx: APPROX.parse_axis(m, path)?,
            search: SEARCH.parse_axis(m, path)?,
            substrate: SUBSTRATE.parse_axis(m, path)?,
        };
        space.grid().check_distinct(path)?;
        Ok(space)
    }
}

/// A declarative exploration: the search space, the strategy, and the
/// evaluation budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Exploration name (reported in results).
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// QCIF workload frames (the paper uses 25).
    pub frames: usize,
    /// Maximum number of **unique** design points to evaluate (≥ 1).
    /// Failed evaluations count; in-run revisits and on-disk cache hits
    /// do not change what counts — a point is charged exactly once.
    pub budget: usize,
    /// The search strategy.
    pub strategy: ExploreStrategy,
    /// Generational population size (≥ 2; ignored by coordinate
    /// descent).
    pub population: usize,
    /// The searchable axes.
    pub space: ExploreSpace,
}

/// Default generational population size.
const DEFAULT_POPULATION: usize = 8;

impl ExploreSpec {
    /// A spec over `space` with the defaults: 25 frames, population 8.
    #[must_use]
    pub fn new(name: &str, strategy: ExploreStrategy, budget: usize, space: ExploreSpace) -> Self {
        ExploreSpec {
            name: name.to_owned(),
            title: None,
            frames: 25,
            budget,
            strategy,
            population: DEFAULT_POPULATION,
            space,
        }
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] when the text is not JSON, otherwise any
    /// schema violation as [`SpecError::Schema`].
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let json = Json::parse(text).map_err(SpecError::Json)?;
        Self::from_json(&json)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] on any schema violation (wrong type,
    /// unknown key, empty axis, zero budget, unknown strategy or
    /// objective).
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let m = as_obj(json, "explore")?;
        check_keys(
            m,
            &[
                "name",
                "title",
                "frames",
                "budget",
                "strategy",
                "population",
                "objectives",
                "space",
            ],
            "explore",
        )?;
        let name = req_str(m, "name", "explore")?.to_owned();
        if name.is_empty() {
            return Err(schema("explore.name", "must not be empty"));
        }
        let title = match m.get("title") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| schema("explore.title", "expected a string"))?
                    .to_owned(),
            ),
        };
        let frames = match m.get("frames") {
            None => 25,
            Some(v) => {
                let n = parse_usize(v, "explore.frames")?;
                if n == 0 {
                    return Err(schema("explore.frames", "must be at least 1"));
                }
                n
            }
        };
        let budget = match m.get("budget") {
            None => return Err(schema("explore.budget", "missing (evaluation budget, ≥ 1)")),
            Some(v) => parse_usize(v, "explore.budget")?,
        };
        if budget == 0 {
            return Err(schema("explore.budget", "must allow at least 1 evaluation"));
        }
        let strategy_tok = req_str(m, "strategy", "explore")?;
        let strategy = ExploreStrategy::parse(strategy_tok).ok_or_else(|| {
            schema(
                "explore.strategy",
                format!(
                    "unknown strategy `{strategy_tok}` (want coordinate-descent or generational)"
                ),
            )
        })?;
        let population = match m.get("population") {
            None => DEFAULT_POPULATION,
            Some(v) => {
                let n = parse_usize(v, "explore.population")?;
                if n < 2 {
                    return Err(schema("explore.population", "must be at least 2"));
                }
                n
            }
        };
        // `objectives` is validated, not stored: the archive always keys
        // on both axes. Spelling one wrong is an error, not a no-op.
        if let Some(v) = m.get("objectives") {
            let arr = v
                .as_array()
                .ok_or_else(|| schema("explore.objectives", "expected an array of tokens"))?;
            let mut seen = Vec::new();
            for (i, o) in arr.iter().enumerate() {
                let p = format!("explore.objectives[{i}]");
                let s = o.as_str().ok_or_else(|| schema(&p, "expected a string"))?;
                let obj = Objective::parse(s).ok_or_else(|| {
                    schema(
                        &p,
                        format!("unknown objective `{s}` (want me_cycles, sad_inflation)"),
                    )
                })?;
                if seen.contains(&obj) {
                    return Err(schema(p, format!("duplicate objective `{s}`")));
                }
                seen.push(obj);
            }
            if seen.len() != 2 {
                return Err(schema(
                    "explore.objectives",
                    "must list exactly me_cycles and sad_inflation \
                     (the archive always keys on both)",
                ));
            }
        }
        let space_json = m
            .get("space")
            .ok_or_else(|| schema("explore.space", "missing (the search axes)"))?;
        let space = ExploreSpace::from_json(space_json, "explore.space")?;
        Ok(ExploreSpec {
            name,
            title,
            frames,
            budget,
            strategy,
            population,
            space,
        })
    }

    /// The spec as a JSON value. Defaulted fields are omitted, so
    /// [`Self::from_json`] round-trips to an equal spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("name".to_owned(), Json::Str(self.name.clone()));
        if let Some(t) = &self.title {
            m.insert("title".to_owned(), Json::Str(t.clone()));
        }
        m.insert("frames".to_owned(), Json::Num(self.frames.to_string()));
        m.insert("budget".to_owned(), Json::Num(self.budget.to_string()));
        m.insert(
            "strategy".to_owned(),
            Json::Str(self.strategy.token().to_owned()),
        );
        if self.population != DEFAULT_POPULATION {
            m.insert(
                "population".to_owned(),
                Json::Num(self.population.to_string()),
            );
        }
        m.insert("space".to_owned(), self.space.to_json());
        Json::Obj(m)
    }

    /// The spec as pretty-printed JSON text (the `specs/explore_*.json`
    /// format).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }

    /// The single-point [`ExperimentSpec`] for one candidate (an index
    /// per axis, [`AXES`] entries). `None` when any index is out of
    /// range. This is both how candidates are evaluated and what the
    /// frontier emits, so an explore evaluation and a `rvliw sweep
    /// --spec` replay are the same scenario by construction.
    #[must_use]
    pub fn point_spec(&self, candidate: &[usize]) -> Option<ExperimentSpec> {
        if candidate.len() != AXES {
            return None;
        }
        // The point is the one-value loop sweep whose JSON names the
        // candidate's values, parsed the way `rvliw sweep --spec` parses
        // it. The engine splits into the sweep's bandwidth and scheme.
        let (bandwidth, two_lb) = self.space.engine.get(candidate[0])?.loop_fields();
        let mut m = BTreeMap::new();
        m.insert("kind".to_owned(), Json::Str("loop".to_owned()));
        BANDWIDTHS.emit_axis(&[bandwidth], &mut m);
        TWO_LINE_BUFFERS.emit_axis(&[two_lb], &mut m);
        for (c, &i) in self.space.grid().columns.iter().zip(candidate).skip(1) {
            m.insert(c.key().to_owned(), Json::Arr(vec![c.value(i)?]));
        }
        let sweep = SweepAxes::from_json(&Json::Obj(m), "point").ok()?;
        let mut point = ExperimentSpec::new(&format!("{}-point", self.name)).sweep(sweep);
        point.frames = self.frames;
        Some(point)
    }
}

/// An incremental Pareto archive over the cycles-vs-inflation plane,
/// using the same dominance relation as [`SweepOutcome::pareto`]
/// ([`ParetoPoint::dominates`]): coincident points share the archive,
/// a strictly dominating insertion evicts what it dominates.
///
/// [`SweepOutcome::pareto`]: crate::sweep::SweepOutcome::pareto
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive {
    points: Vec<ParetoPoint>,
}

impl ParetoArchive {
    /// An empty archive.
    #[must_use]
    pub fn new() -> Self {
        ParetoArchive::default()
    }

    /// Offers a point. Returns `true` when the point was archived (it is
    /// not dominated by any archived point and its label is new);
    /// archiving evicts every point the newcomer strictly dominates.
    pub fn insert(&mut self, p: ParetoPoint) -> bool {
        if self.points.iter().any(|q| q.label == p.label) {
            return false;
        }
        if self.points.iter().any(|q| q.dominates(&p)) {
            return false;
        }
        self.points.retain(|q| !p.dominates(q));
        self.points.push(p);
        true
    }

    /// Whether the archive accounts for `p`: archived under its label,
    /// or strictly dominated by an archived point.
    #[must_use]
    pub fn covers(&self, p: &ParetoPoint) -> bool {
        self.points
            .iter()
            .any(|q| q.label == p.label || q.dominates(p))
    }

    /// Number of archived points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the archive is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The archived points sorted ascending by (ME cycles, SAD
    /// inflation, label) — the deterministic frontier order.
    #[must_use]
    pub fn sorted(&self) -> Vec<ParetoPoint> {
        let mut out = self.points.clone();
        out.sort_by(|a, b| {
            a.me_cycles
                .cmp(&b.me_cycles)
                .then(a.sad_inflation.total_cmp(&b.sad_inflation))
                .then_with(|| a.label.cmp(&b.label))
        });
        out
    }
}

/// One archived frontier point plus the single-point spec that replays
/// it through `rvliw sweep --spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The archived measurement.
    pub point: ParetoPoint,
    /// A one-scenario [`ExperimentSpec`] reproducing it.
    pub spec: ExperimentSpec,
}

/// The result of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The spec name.
    pub name: String,
    /// The strategy that ran.
    pub strategy: ExploreStrategy,
    /// The search seed.
    pub seed: u64,
    /// Workload frames evaluated points ran over.
    pub frames: usize,
    /// The evaluation budget.
    pub budget: usize,
    /// Unique design points actually evaluated (≤ budget; failed
    /// evaluations count).
    pub evaluations: usize,
    /// Evaluation requests served from the in-run memo (free).
    pub revisits: usize,
    /// Labels of evaluations that failed (simulation error or
    /// non-finite quality), sorted.
    pub failures: Vec<String>,
    /// The Pareto frontier, ascending (cycles, inflation, label).
    pub frontier: Vec<FrontierPoint>,
}

impl ExploreOutcome {
    /// The outcome as a JSON value — the `rvliw explore` output format.
    ///
    /// Deliberately free of wall-clock, thread-count and cache-counter
    /// fields: for a fixed seed the bytes are identical at any thread
    /// count and on cold or warm caches.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("explore".to_owned(), Json::Str(self.name.clone()));
        m.insert(
            "strategy".to_owned(),
            Json::Str(self.strategy.token().to_owned()),
        );
        m.insert("seed".to_owned(), Json::Num(self.seed.to_string()));
        m.insert("frames".to_owned(), Json::Num(self.frames.to_string()));
        m.insert("budget".to_owned(), Json::Num(self.budget.to_string()));
        m.insert(
            "evaluations".to_owned(),
            Json::Num(self.evaluations.to_string()),
        );
        m.insert("revisits".to_owned(), Json::Num(self.revisits.to_string()));
        m.insert(
            "failures".to_owned(),
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        m.insert(
            "frontier".to_owned(),
            Json::Arr(
                self.frontier
                    .iter()
                    .map(|f| {
                        let mut fm = BTreeMap::new();
                        fm.insert("label".to_owned(), Json::Str(f.point.label.clone()));
                        fm.insert(
                            "me_cycles".to_owned(),
                            Json::Num(f.point.me_cycles.to_string()),
                        );
                        fm.insert("sad_inflation".to_owned(), fnum(f.point.sad_inflation));
                        fm.insert("psnr_delta_db".to_owned(), fnum(f.point.psnr_delta_db));
                        fm.insert("spec".to_owned(), f.spec.to_json());
                        Json::Obj(fm)
                    })
                    .collect(),
            ),
        );
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
}

/// Lexicographic fitness comparison: cycles-first or inflation-first,
/// label as the final deterministic tie-break.
fn objective_cmp(a: &ParetoPoint, b: &ParetoPoint, cycles_first: bool) -> Ordering {
    let primary = if cycles_first {
        a.me_cycles
            .cmp(&b.me_cycles)
            .then(a.sad_inflation.total_cmp(&b.sad_inflation))
    } else {
        a.sad_inflation
            .total_cmp(&b.sad_inflation)
            .then(a.me_cycles.cmp(&b.me_cycles))
    };
    primary.then_with(|| a.label.cmp(&b.label))
}

/// Whether evaluation `a` strictly improves on `b` under the alternating
/// objective. Failed evaluations never improve on anything; anything
/// improves on a failure.
fn improves(a: Option<&ParetoPoint>, b: Option<&ParetoPoint>, cycles_first: bool) -> bool {
    match (a, b) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(a), Some(b)) => objective_cmp(a, b, cycles_first) == Ordering::Less,
    }
}

/// A uniformly drawn candidate (one index per axis).
fn random_candidate(inj: &mut FaultInjector, lens: &[usize; AXES]) -> Vec<usize> {
    lens.iter()
        .map(|&n| usize::try_from(inj.uniform((n as u64).saturating_sub(1))).unwrap_or(0))
        .collect()
}

/// The search driver: memoized fitness evaluation over the batched
/// (optionally supervised, optionally cached) parallel runner, plus the
/// incremental archive and the budget ledger.
struct Explorer<'a, F: Fn(&str) + Sync> {
    spec: &'a ExploreSpec,
    plan: FaultPlan,
    workload: &'a Workload,
    threads: usize,
    progress: &'a F,
    cache: Option<&'a ScenarioCache>,
    config: &'a SupervisorConfig,
    /// Candidate → evaluation (`None` = failed). Presence means the
    /// budget was charged.
    memo: BTreeMap<Vec<usize>, Option<ParetoPoint>>,
    /// Label → candidate, for re-deriving frontier specs at the end.
    labels: BTreeMap<String, Vec<usize>>,
    archive: ParetoArchive,
    /// Monotone count of successful archive insertions (the dry-restart
    /// progress signal; unlike `archive.len()` it never decreases).
    archive_inserts: usize,
    evaluations: usize,
    revisits: usize,
    failures: BTreeSet<String>,
}

impl<'a, F: Fn(&str) + Sync> Explorer<'a, F> {
    fn budget_left(&self) -> usize {
        self.spec.budget.saturating_sub(self.evaluations)
    }

    /// Whether every design point in the space has been evaluated.
    fn saturated(&self) -> bool {
        self.memo.len() >= self.spec.space.size()
    }

    /// Evaluates a batch of candidates: revisits are served from the
    /// memo for free; fresh candidates are charged against the budget
    /// (first-come within the batch) and run as one deterministic batch
    /// on the parallel runner. Returns one slot per input candidate;
    /// `None` means failed, budget-truncated, or out-of-range.
    fn evaluate_batch(&mut self, cands: &[Vec<usize>]) -> Vec<Option<ParetoPoint>> {
        let mut fresh: Vec<Vec<usize>> = Vec::new();
        for c in cands {
            if self.memo.contains_key(c) || fresh.contains(c) {
                self.revisits += 1;
                continue;
            }
            if fresh.len() < self.budget_left() {
                fresh.push(c.clone());
            }
        }
        let mut scenarios = Vec::new();
        let mut runnable: Vec<Vec<usize>> = Vec::new();
        for c in &fresh {
            let expanded = self
                .spec
                .point_spec(c)
                .map(|point| point.scenarios())
                .and_then(|r| r.ok())
                .and_then(|scs| scs.into_iter().next());
            match expanded {
                Some(sc) => {
                    scenarios.push(sc);
                    runnable.push(c.clone());
                }
                None => {
                    // Out-of-range candidate: unreachable from the
                    // strategies, but charged and recorded as a failure
                    // rather than panicking.
                    self.evaluations += 1;
                    self.failures.insert(format!("candidate {c:?}"));
                    self.memo.insert(c.clone(), None);
                }
            }
        }
        if !scenarios.is_empty() {
            let (results, _health) = run_scenario_list_supervised(
                &scenarios,
                self.workload,
                self.threads,
                self.progress,
                self.cache,
                self.config,
            );
            for ((c, sc), res) in runnable.iter().zip(&scenarios).zip(results) {
                self.evaluations += 1;
                let point = match res {
                    Ok(me) => {
                        // Exact scenarios carry no quality block: they are
                        // golden-identical, i.e. zero inflation.
                        let (inflation, psnr) = match me.quality {
                            Some(q) => (q.sad_inflation, q.psnr_delta_db),
                            None => (0.0, 0.0),
                        };
                        if inflation.is_nan() {
                            None
                        } else {
                            Some(ParetoPoint {
                                label: sc.label.clone(),
                                me_cycles: me.me_cycles,
                                sad_inflation: inflation,
                                psnr_delta_db: psnr,
                            })
                        }
                    }
                    Err(_) => None,
                };
                match &point {
                    Some(p) => {
                        if self.archive.insert(p.clone()) {
                            self.archive_inserts += 1;
                        }
                        self.labels.insert(p.label.clone(), c.clone());
                    }
                    None => {
                        self.failures.insert(sc.label.clone());
                    }
                }
                self.memo.insert(c.clone(), point);
            }
        }
        cands
            .iter()
            .map(|c| self.memo.get(c).cloned().flatten())
            .collect()
    }

    fn evaluate_one(&mut self, cand: &[usize]) -> Option<ParetoPoint> {
        self.evaluate_batch(std::slice::from_ref(&cand.to_vec()))
            .into_iter()
            .next()
            .flatten()
    }

    /// Coordinate descent with random restarts. Each restart draws a
    /// start point from the `explore-cd` substream, then climbs one axis
    /// at a time; passes alternate the lexicographic objective
    /// (cycles-first on even passes, inflation-first on odd) so both
    /// ends of the front are pulled on. Stops on budget exhaustion,
    /// space saturation, or two consecutive restarts that archive
    /// nothing new.
    fn coordinate_descent(&mut self) {
        let lens = self.spec.space.lens();
        let mut dry = 0usize;
        let mut restart: u64 = 0;
        while dry < 2 && self.budget_left() > 0 && !self.saturated() {
            let inserts_before = self.archive_inserts;
            let mut inj = self.plan.injector("explore-cd", &restart.to_string());
            let mut current = random_candidate(&mut inj, &lens);
            let mut best = self.evaluate_one(&current);
            let max_passes = AXES + 4;
            let mut stale_passes = 0usize;
            for pass in 0..max_passes {
                if self.budget_left() == 0 {
                    break;
                }
                let cycles_first = pass.is_multiple_of(2);
                let mut improved = false;
                for (axis, &len) in lens.iter().enumerate() {
                    if len <= 1 || self.budget_left() == 0 {
                        continue;
                    }
                    let alts: Vec<Vec<usize>> = (0..len)
                        .filter(|&v| current.get(axis) != Some(&v))
                        .map(|v| {
                            let mut c = current.clone();
                            if let Some(slot) = c.get_mut(axis) {
                                *slot = v;
                            }
                            c
                        })
                        .collect();
                    let evals = self.evaluate_batch(&alts);
                    for (c, e) in alts.iter().zip(evals) {
                        if improves(e.as_ref(), best.as_ref(), cycles_first) {
                            best = e;
                            current = c.clone();
                            improved = true;
                        }
                    }
                }
                if improved {
                    stale_passes = 0;
                } else {
                    stale_passes += 1;
                    // One dry pass per objective direction: converged.
                    if stale_passes >= 2 {
                        break;
                    }
                }
            }
            if self.archive_inserts == inserts_before {
                dry += 1;
            } else {
                dry = 0;
            }
            restart = restart.wrapping_add(1);
        }
    }

    /// A small (μ+λ) generational loop. The initial population comes
    /// from the `explore-gen-init` substream; each generation keeps the
    /// better half under the alternating objective and refills with
    /// children that mutate 1–2 axes of a kept parent (substream
    /// `explore-gen-mutate`, salted per generation and child). Stops on
    /// budget exhaustion, space saturation, or two consecutive
    /// generations that archive nothing new.
    fn generational(&mut self) {
        let lens = self.spec.space.lens();
        let pop_target = self.spec.population.min(self.spec.space.size()).max(2);
        let mut inj = self.plan.injector("explore-gen-init", "0");
        let mut pop: Vec<Vec<usize>> = Vec::new();
        let mut tries = 0usize;
        while pop.len() < pop_target && tries < pop_target.saturating_mul(16) {
            let c = random_candidate(&mut inj, &lens);
            if !pop.contains(&c) {
                pop.push(c);
            }
            tries += 1;
        }
        self.evaluate_batch(&pop);
        let mut dry = 0usize;
        let mut generation: u64 = 0;
        while dry < 2 && self.budget_left() > 0 && !self.saturated() {
            let inserts_before = self.archive_inserts;
            let cycles_first = generation.is_multiple_of(2);
            let mut ranked = pop.clone();
            ranked.sort_by(|x, y| {
                let ex = self.memo.get(x).cloned().flatten();
                let ey = self.memo.get(y).cloned().flatten();
                match (&ex, &ey) {
                    (Some(a), Some(b)) => objective_cmp(a, b, cycles_first).then_with(|| x.cmp(y)),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => x.cmp(y),
                }
            });
            let keep = ranked.len().div_ceil(2).max(1);
            ranked.truncate(keep);
            let mut children: Vec<Vec<usize>> = Vec::new();
            for i in 0..pop_target.saturating_sub(keep).max(1) {
                let salt = format!("{generation}/{i}");
                let mut inj = self.plan.injector("explore-gen-mutate", &salt);
                let parent_idx =
                    usize::try_from(inj.uniform(keep.saturating_sub(1) as u64)).unwrap_or(0);
                let Some(parent) = ranked.get(parent_idx) else {
                    continue;
                };
                let mut child = parent.clone();
                let mutations = 1 + usize::try_from(inj.uniform(1)).unwrap_or(0);
                for _ in 0..mutations {
                    let axis =
                        usize::try_from(inj.uniform((AXES as u64).saturating_sub(1))).unwrap_or(0);
                    let Some(&len) = lens.get(axis) else {
                        continue;
                    };
                    if len <= 1 {
                        continue;
                    }
                    // A step in 1..len keeps the mutated index distinct.
                    let step = 1 + usize::try_from(inj.uniform((len as u64).saturating_sub(2)))
                        .unwrap_or(0);
                    if let Some(slot) = child.get_mut(axis) {
                        *slot = (*slot + step) % len;
                    }
                }
                children.push(child);
            }
            self.evaluate_batch(&children);
            pop = ranked;
            pop.extend(children);
            if self.archive_inserts == inserts_before {
                dry += 1;
            } else {
                dry = 0;
            }
            generation = generation.wrapping_add(1);
        }
    }

    fn into_outcome(self, seed: u64) -> ExploreOutcome {
        let frontier = self
            .archive
            .sorted()
            .into_iter()
            .filter_map(|point| {
                let cand = self.labels.get(&point.label)?;
                let spec = self.spec.point_spec(cand)?;
                Some(FrontierPoint { point, spec })
            })
            .collect();
        ExploreOutcome {
            name: self.spec.name.clone(),
            strategy: self.spec.strategy,
            seed,
            frames: self.spec.frames,
            budget: self.spec.budget,
            evaluations: self.evaluations,
            revisits: self.revisits,
            failures: self.failures.into_iter().collect(),
            frontier,
        }
    }
}

/// Runs one exploration: `spec`'s strategy over `spec`'s space, seeded
/// with `seed`, evaluating fitness on `workload` across `threads`
/// workers (optionally through the on-disk `cache` and the supervised
/// runner `config`).
///
/// For a fixed `(spec, seed)` the returned outcome — and its JSON
/// rendering — is identical at any thread count and on cold or warm
/// caches; see the module docs for the contract.
pub fn run_explore(
    spec: &ExploreSpec,
    seed: u64,
    workload: &Workload,
    threads: usize,
    progress: impl Fn(&str) + Sync,
    cache: Option<&ScenarioCache>,
    config: &SupervisorConfig,
) -> ExploreOutcome {
    let mut explorer = Explorer {
        spec,
        plan: FaultPlan::from_profile(FaultProfile::None, seed),
        workload,
        threads,
        progress: &progress,
        cache,
        config,
        memo: BTreeMap::new(),
        labels: BTreeMap::new(),
        archive: ParetoArchive::new(),
        archive_inserts: 0,
        evaluations: 0,
        revisits: 0,
        failures: BTreeSet::new(),
    };
    match spec.strategy {
        ExploreStrategy::CoordinateDescent => explorer.coordinate_descent(),
        ExploreStrategy::Generational => explorer.generational(),
    }
    explorer.into_outcome(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ExploreSpace {
        let mut s = ExploreSpace::new(
            vec![
                EngineChoice::Loop(RfuBandwidth::B1x32),
                EngineChoice::Loop(RfuBandwidth::B2x64),
                EngineChoice::TwoLb,
            ],
            vec![1, 5],
        );
        s.lbb_bank_lines = vec![None, Some(17)];
        s
    }

    fn spec() -> ExploreSpec {
        let mut sp = ExploreSpec::new("t", ExploreStrategy::CoordinateDescent, 6, space());
        sp.frames = 1;
        sp
    }

    #[test]
    fn spec_round_trips_through_json() {
        let sp = spec();
        let parsed = ExploreSpec::from_json_str(&sp.to_json_string()).unwrap();
        assert_eq!(parsed, sp);
        // Non-default axes survive too.
        let mut sp = spec();
        sp.strategy = ExploreStrategy::Generational;
        sp.population = 4;
        sp.space.prefetch = vec![None, Some(16)];
        sp.space.dcache = vec![
            None,
            Some(DcacheSpec {
                capacity_kb: 16,
                ways: 2,
            }),
        ];
        sp.space.approx = vec![ApproxSad::Exact, ApproxSad::SubsampledRows { step: 2 }];
        sp.space.reconfig = vec![
            ReconfigSpec::zero(),
            ReconfigSpec {
                penalty: 100,
                contexts: 2,
                prefetch_hiding: true,
            },
        ];
        let parsed = ExploreSpec::from_json_str(&sp.to_json_string()).unwrap();
        assert_eq!(parsed, sp);
    }

    #[test]
    fn point_spec_expands_to_exactly_one_scenario() {
        let sp = spec();
        let lens = sp.space.lens();
        let mut labels = BTreeSet::new();
        // Exhaustive over the first three axes (the rest are singleton).
        for e in 0..lens[0] {
            for b in 0..lens[1] {
                for l in 0..lens[2] {
                    let cand = vec![e, b, l, 0, 0, 0, 0, 0, 0];
                    let point = sp.point_spec(&cand).unwrap();
                    let scs = point.scenarios().unwrap();
                    assert_eq!(scs.len(), 1);
                    assert!(labels.insert(scs[0].label.clone()), "{}", scs[0].label);
                }
            }
        }
        assert_eq!(labels.len(), sp.space.size());
        // Out-of-range and wrong-arity candidates are None, not panics.
        assert!(sp.point_spec(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(sp.point_spec(&[0, 0, 0]).is_none());
    }

    #[test]
    fn archive_keeps_only_nondominated_points() {
        let p = |label: &str, cyc: u64, infl: f64| ParetoPoint {
            label: label.to_owned(),
            me_cycles: cyc,
            sad_inflation: infl,
            psnr_delta_db: 0.0,
        };
        let mut a = ParetoArchive::new();
        assert!(a.insert(p("x", 100, 0.02)));
        assert!(a.insert(p("y", 200, 0.01))); // trade-off: both stay
        assert!(!a.insert(p("z", 300, 0.03))); // dominated by both
        assert!(a.insert(p("w", 50, 0.0))); // dominates x and y
        assert_eq!(a.len(), 1);
        assert_eq!(a.sorted()[0].label, "w");
        // Coincident twin shares the archive; same-label re-offer is a
        // no-op.
        assert!(a.insert(p("w2", 50, 0.0)));
        assert!(!a.insert(p("w", 50, 0.0)));
        assert_eq!(a.len(), 2);
        // Every offered point is covered: archived or dominated.
        for q in [p("x", 100, 0.02), p("y", 200, 0.01), p("z", 300, 0.03)] {
            assert!(a.covers(&q), "{}", q.label);
        }
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let mut s = space();
        s.betas = vec![1, 5, 1];
        let sp = ExploreSpec::new("dup", ExploreStrategy::Generational, 4, s);
        let err = ExploreSpec::from_json_str(&sp.to_json_string()).unwrap_err();
        assert!(matches!(err, SpecError::Schema { .. }), "{err}");
        // Two zero-penalty reconfig models normalize to the same label.
        let mut s = space();
        s.reconfig = vec![
            ReconfigSpec::zero(),
            ReconfigSpec {
                penalty: 0,
                contexts: 2,
                prefetch_hiding: false,
            },
        ];
        let sp = ExploreSpec::new("dup2", ExploreStrategy::Generational, 4, s);
        let err = ExploreSpec::from_json_str(&sp.to_json_string()).unwrap_err();
        assert!(matches!(err, SpecError::Schema { .. }), "{err}");
    }
}
