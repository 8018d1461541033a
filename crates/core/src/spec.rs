//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is a serializable description of a scenario grid:
//! which design-space axes to sweep (kernel variant, RFU bandwidth,
//! technology scaling β, line-buffer scheme and geometry, reconfiguration
//! model, prefetch depth, data-cache geometry, SAD approximation, search
//! algorithm, substrate) plus run-wide knobs (workload frames, baseline
//! label, fault profile/seed, cycle budget). The sweep engine
//! (`crate::sweep`) expands it into concrete [`Scenario`]s and runs them
//! on the deterministic parallel runner. Every axis is one entry of the
//! axis table below, which explorations and cache descriptors share.
//!
//! Specs serialize as hand-rolled JSON over [`rvliw_trace::Json`] — the
//! build environment is offline, so no serde. Parsing is strict: unknown
//! keys, wrong types and out-of-range values are typed [`SpecError`]s,
//! never panics, and `parse(serialize(spec)) == spec` holds for every
//! representable spec.
//!
//! The seven `specs/table*.json` files at the workspace root describe the
//! paper's Tables 1–7; their union is exactly the hardcoded grid of
//! [`CaseStudy::scenarios`](crate::CaseStudy::scenarios), which CI asserts
//! bit-identical against the golden `BENCH_tables.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mpeg4_enc::me::SearchAlgorithm;
use mpeg4_enc::ApproxSad;
use rvliw_fault::{FaultPlan, FaultProfile};
use rvliw_isa::Substrate;
use rvliw_kernels::Variant;
use rvliw_mem::{CacheGeometry, ReplacementPolicy};
use rvliw_rfu::{ReconfigModel, RfuBandwidth};
use rvliw_trace::Json;

use crate::explore::EngineChoice;
use crate::scenario::{approx_token, parse_approx, parse_search, search_token, Kind, Scenario};

/// Why a spec could not be parsed or expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text is not JSON at all.
    Json(String),
    /// The JSON does not match the spec schema; `path` names the
    /// offending location (e.g. `sweeps[1].betas[0]`).
    Schema {
        /// Dotted path of the offending field.
        path: String,
        /// What was wrong with it.
        message: String,
    },
    /// Two expanded scenarios share a label. Labels key fault substreams
    /// and snapshot cells, so duplicates would silently alias state.
    DuplicateLabel {
        /// The label that appeared twice.
        label: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid spec JSON: {e}"),
            SpecError::Schema { path, message } => write!(f, "spec field `{path}`: {message}"),
            SpecError::DuplicateLabel { label } => write!(
                f,
                "duplicate scenario label `{label}` (labels key fault substreams \
                 and snapshot cells and must be unique within a spec)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

pub(crate) fn schema(path: impl Into<String>, message: impl Into<String>) -> SpecError {
    SpecError::Schema {
        path: path.into(),
        message: message.into(),
    }
}

/// A serializable reconfiguration model: the paper's zero-penalty baseline
/// or a multi-context penalty model (optionally with configuration
/// prefetch hiding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigSpec {
    /// Cycles per configuration load (0 = the paper's free baseline).
    pub penalty: u64,
    /// Resident configuration contexts (ignored when `penalty` is 0).
    pub contexts: usize,
    /// Whether idle time since the previous activation hides the penalty.
    pub prefetch_hiding: bool,
}

impl ReconfigSpec {
    /// The paper's baseline: reconfiguration is free.
    #[must_use]
    pub const fn zero() -> Self {
        ReconfigSpec {
            penalty: 0,
            contexts: 1,
            prefetch_hiding: false,
        }
    }

    /// The runnable [`ReconfigModel`] this spec describes.
    #[must_use]
    pub fn model(&self) -> ReconfigModel {
        if self.penalty == 0 {
            return ReconfigModel::zero_penalty();
        }
        let m = ReconfigModel::with_penalty(self.penalty, self.contexts.max(1));
        if self.prefetch_hiding {
            m.with_prefetch_hiding()
        } else {
            m
        }
    }

    pub(crate) fn to_json(self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("penalty".to_owned(), Json::Num(self.penalty.to_string()));
        m.insert("contexts".to_owned(), Json::Num(self.contexts.to_string()));
        m.insert(
            "prefetch_hiding".to_owned(),
            Json::Bool(self.prefetch_hiding),
        );
        Json::Obj(m)
    }

    pub(crate) fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        let m = as_obj(j, path)?;
        check_keys(m, &["penalty", "contexts", "prefetch_hiding"], path)?;
        let penalty = match m.get("penalty") {
            None => 0,
            Some(v) => parse_u64(v, &format!("{path}.penalty"))?,
        };
        let contexts = match m.get("contexts") {
            None => 1,
            Some(v) => parse_usize(v, &format!("{path}.contexts"))?,
        };
        if contexts == 0 {
            return Err(schema(
                format!("{path}.contexts"),
                "at least one resident context is required",
            ));
        }
        let prefetch_hiding = match m.get("prefetch_hiding") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => {
                return Err(schema(
                    format!("{path}.prefetch_hiding"),
                    "expected a boolean",
                ))
            }
        };
        Ok(ReconfigSpec {
            penalty,
            contexts,
            prefetch_hiding,
        })
    }
}

/// A serializable data-cache geometry override: total capacity (in KB)
/// and associativity, with the paper's 32-byte line size and LRU policy.
///
/// Serialized as a compact token, e.g. `"16k/2w"` (16 KB, 2-way). Both
/// numbers must be powers of two so the cache model's index math stays on
/// shift-and-mask paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcacheSpec {
    /// Total capacity in kilobytes (a power of two, at least 1).
    pub capacity_kb: u32,
    /// Associativity (ways; a power of two in 1..=16).
    pub ways: u32,
}

impl DcacheSpec {
    /// The compact token this spec serializes as (`"32k/4w"`).
    #[must_use]
    pub fn token(&self) -> String {
        format!("{}k/{}w", self.capacity_kb, self.ways)
    }

    /// The concrete [`CacheGeometry`] this spec describes (paper line size
    /// and replacement policy).
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry {
            capacity: self.capacity_kb * 1024,
            line_size: 32,
            ways: self.ways,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Parses a `"CAPk/WAYSw"` token; `None` when malformed or out of
    /// range.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let (cap, ways) = s.split_once('/')?;
        let cap: u32 = cap.strip_suffix('k')?.parse().ok()?;
        let ways: u32 = ways.strip_suffix('w')?.parse().ok()?;
        if !cap.is_power_of_two() || !ways.is_power_of_two() || ways > 16 || cap > 4096 {
            return None;
        }
        Some(DcacheSpec {
            capacity_kb: cap,
            ways,
        })
    }
}

// ---------------------------------------------------------------------------
// The axis table.
//
// Every design-space axis is written down once, below. Sweeps
// (`SweepAxes`), explorations (`ExploreSpace`) and the result cache's
// scenario descriptors bind these entries to their values and drive
// parsing, emitting, cross-product expansion, duplicate checks and
// descriptor round trips through them. A new axis is one entry here plus
// a field on the spaces that sweep it.
// ---------------------------------------------------------------------------

/// One design-space axis: its JSON key and default, the codec of one
/// value, and how a value lands on a [`Scenario`] and reads back from one.
pub(crate) struct Axis<T: 'static> {
    /// The JSON key (also the cache-descriptor key).
    pub(crate) key: &'static str,
    /// The error for a present key whose value is not an array.
    expected: &'static str,
    /// What a missing key stands for (`None`: the key is required).
    default: Option<T>,
    /// Parses one value found at `path`.
    parse: fn(&Json, &str) -> Result<T, SpecError>,
    /// Emits one value.
    emit: fn(&T) -> Json,
    /// Applies one value to the point being built. Kind axes (variant,
    /// bandwidth, β, line-buffer scheme, engine) re-derive the preset, so
    /// they come before every other axis of a space.
    apply: fn(&mut Scenario, &T),
    /// The label suffix of one value (empty for kind axes and defaults,
    /// so paper-grid labels and cache keys are unchanged).
    suffix: fn(&T) -> String,
    /// Reads the value back from a scenario, for cache descriptors
    /// (`None` for kind axes: descriptors store the scenario kind).
    read: Option<fn(&Scenario) -> T>,
}

impl<T: Clone + PartialEq> Axis<T> {
    /// The axis a spec with no entry for it sweeps: `[default]`, or
    /// empty for a required axis.
    pub(crate) fn defaults(&self) -> Vec<T> {
        self.default.iter().cloned().collect()
    }

    /// Parses this axis out of a spec object at `path`: a missing key
    /// means `[default]`; a present one must be a non-empty array.
    pub(crate) fn parse_axis(
        &self,
        m: &BTreeMap<String, Json>,
        path: &str,
    ) -> Result<Vec<T>, SpecError> {
        let p = format!("{path}.{}", self.key);
        let Some(v) = m.get(self.key) else {
            return match &self.default {
                Some(d) => Ok(vec![d.clone()]),
                None => Err(schema(p, "missing required key")),
            };
        };
        let arr = v.as_array().ok_or_else(|| schema(&p, self.expected))?;
        if arr.is_empty() {
            return Err(schema(p, "must not be empty"));
        }
        arr.iter()
            .enumerate()
            .map(|(i, v)| (self.parse)(v, &format!("{p}[{i}]")))
            .collect()
    }

    /// Writes `values` into a spec object, omitting them when they are
    /// exactly `[default]`.
    pub(crate) fn emit_axis(&self, values: &[T], m: &mut BTreeMap<String, Json>) {
        if self
            .default
            .as_ref()
            .is_some_and(|d| values == std::slice::from_ref(d))
        {
            return;
        }
        m.insert(
            self.key.to_owned(),
            Json::Arr(values.iter().map(self.emit).collect()),
        );
    }
}

/// An [`Axis`] bound to its values in one sweep or exploration space.
pub(crate) trait Column {
    /// The axis key.
    fn key(&self) -> &'static str;
    /// The number of values.
    fn len(&self) -> usize;
    /// Applies value `i` to the point being built and appends its label
    /// suffix.
    fn apply(&self, i: usize, sc: &mut Scenario);
    /// Writes the whole axis into a spec object (omitted at its default).
    fn emit(&self, m: &mut BTreeMap<String, Json>);
    /// Value `i` as JSON (`None` when out of range).
    fn value(&self, i: usize) -> Option<Json>;
}

struct Bound<'a, T: 'static> {
    axis: &'static Axis<T>,
    values: &'a [T],
}

impl<T: Clone + PartialEq> Column for Bound<'_, T> {
    fn key(&self) -> &'static str {
        self.axis.key
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn apply(&self, i: usize, sc: &mut Scenario) {
        if let Some(v) = self.values.get(i) {
            (self.axis.apply)(sc, v);
            sc.label.push_str(&(self.axis.suffix)(v));
        }
    }

    fn emit(&self, m: &mut BTreeMap<String, Json>) {
        self.axis.emit_axis(self.values, m);
    }

    fn value(&self, i: usize) -> Option<Json> {
        self.values.get(i).map(self.axis.emit)
    }
}

/// Binds `axis` to `values`.
pub(crate) fn bind<'a, T: Clone + PartialEq>(
    axis: &'static Axis<T>,
    values: &'a [T],
) -> Box<dyn Column + 'a> {
    Box::new(Bound { axis, values })
}

/// A sweep or exploration space as the axis table sees it: the preset
/// every point starts from and the bound axes, in expansion order.
pub(crate) struct Grid<'a> {
    pub(crate) template: Scenario,
    pub(crate) columns: Vec<Box<dyn Column + 'a>>,
}

impl Grid<'_> {
    /// The axis keys, in order.
    pub(crate) fn keys(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.key()).collect()
    }

    /// The number of points (the product of the axis lengths,
    /// saturating: spec input sizes the axes).
    pub(crate) fn len(&self) -> usize {
        self.columns
            .iter()
            .fold(1usize, |acc, c| acc.saturating_mul(c.len()))
    }

    /// Writes every axis into a spec object.
    pub(crate) fn emit(&self, m: &mut BTreeMap<String, Json>) {
        for c in &self.columns {
            c.emit(m);
        }
    }

    /// The scenario at one index per axis.
    pub(crate) fn point(&self, idx: &[usize]) -> Scenario {
        let mut sc = self.template.clone();
        for (c, &i) in self.columns.iter().zip(idx) {
            c.apply(i, &mut sc);
        }
        sc
    }

    /// Every point of the cross product, leftmost axis outermost.
    pub(crate) fn points(&self) -> impl Iterator<Item = Scenario> + '_ {
        let lens: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        (0..self.len()).map(move |mut rest| {
            let mut idx = vec![0; lens.len()];
            for (slot, &len) in idx.iter_mut().zip(&lens).rev() {
                *slot = rest % len;
                rest /= len;
            }
            self.point(&idx)
        })
    }

    /// Rejects an axis holding two values that label a point alike —
    /// they would alias two candidates onto one scenario label. (All
    /// zero-penalty reconfiguration models share the empty suffix, for
    /// instance.)
    pub(crate) fn check_distinct(&self, path: &str) -> Result<(), SpecError> {
        for c in &self.columns {
            let labels: Vec<String> = (0..c.len())
                .map(|i| {
                    let mut sc = self.template.clone();
                    c.apply(i, &mut sc);
                    sc.label
                })
                .collect();
            for i in 1..labels.len() {
                if labels[..i].contains(&labels[i]) {
                    return Err(schema(
                        format!("{path}.{}[{i}]", c.key()),
                        "duplicate axis value (it would alias scenario labels)",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// An axis a cache descriptor records (one with [`Axis::read`]).
pub(crate) trait Described: Sync {
    /// Writes the scenario's value into `m` when it is not the default.
    fn describe(&self, sc: &Scenario, m: &mut BTreeMap<String, Json>);
    /// Applies the value `desc` records, if any (`None` when it does not
    /// parse).
    fn restore(&self, desc: &Json, sc: &mut Scenario) -> Option<()>;
}

impl<T: PartialEq + Sync> Described for Axis<T> {
    fn describe(&self, sc: &Scenario, m: &mut BTreeMap<String, Json>) {
        if let Some(read) = self.read {
            let v = read(sc);
            if self.default.as_ref() != Some(&v) {
                m.insert(self.key.to_owned(), (self.emit)(&v));
            }
        }
    }

    fn restore(&self, desc: &Json, sc: &mut Scenario) -> Option<()> {
        if let Some(j) = desc.get(self.key) {
            let v = (self.parse)(j, self.key).ok()?;
            (self.apply)(sc, &v);
        }
        Some(())
    }
}

/// The axes a cache descriptor records beside the scenario kind.
pub(crate) static DESCRIBED: [&dyn Described; 7] = [
    &LBB_BANK_LINES,
    &RECONFIG,
    &PREFETCH,
    &DCACHE,
    &APPROX,
    &SEARCH,
    &SUBSTRATE,
];

fn no_suffix<T>(_: &T) -> String {
    String::new()
}

fn string<'a>(v: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| schema(path, "expected a string"))
}

fn string_or_null<T>(
    v: &Json,
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    match v {
        Json::Null => Ok(None),
        other => parse(
            other
                .as_str()
                .ok_or_else(|| schema(path, "expected a string or null"))?,
        )
        .map(Some),
    }
}

/// A positive count or `null`; `zero` is the error for 0.
fn count_or_null(v: &Json, path: &str, zero: &str) -> Result<Option<usize>, SpecError> {
    match v {
        Json::Null => Ok(None),
        other => match parse_usize(other, path)? {
            0 => Err(schema(path, zero)),
            n => Ok(Some(n)),
        },
    }
}

fn count_json(n: &Option<usize>) -> Json {
    n.map_or(Json::Null, |n| Json::Num(n.to_string()))
}

/// Edits the loop kind of the point being built and re-derives its
/// preset (label, memory configuration) from the edited kind.
fn edit_loop(sc: &mut Scenario, edit: impl FnOnce(&mut RfuBandwidth, &mut u64, &mut bool)) {
    if let Kind::Loop {
        mut bandwidth,
        mut beta,
        mut two_line_buffers,
    } = sc.kind
    {
        edit(&mut bandwidth, &mut beta, &mut two_line_buffers);
        *sc = Scenario::preset(&Kind::Loop {
            bandwidth,
            beta,
            two_line_buffers,
        });
    }
}

/// Instruction-level kernel variants (Table 1).
pub(crate) static VARIANTS: Axis<Variant> = Axis {
    key: "variants",
    expected: "expected an array",
    default: None,
    parse: |v, p| {
        let s = string(v, p)?;
        Variant::all()
            .into_iter()
            .find(|var| var.name() == s)
            .ok_or_else(|| schema(p, format!("unknown variant `{s}` (want Orig, A1, A2, A3)")))
    },
    emit: |v| Json::Str(v.name().to_owned()),
    apply: |sc, &v| *sc = Scenario::instruction(v),
    suffix: no_suffix,
    read: None,
};

/// RFU data bandwidths (Tables 2–6).
pub(crate) static BANDWIDTHS: Axis<RfuBandwidth> = Axis {
    key: "bandwidths",
    expected: "expected an array",
    default: None,
    parse: |v, p| {
        let s = string(v, p)?;
        RfuBandwidth::all()
            .into_iter()
            .find(|b| b.label() == s)
            .ok_or_else(|| {
                schema(
                    p,
                    format!("unknown bandwidth `{s}` (want 1x32, 1x64, 2x64)"),
                )
            })
    },
    emit: |b| Json::Str(b.label().to_owned()),
    apply: |sc, &b| edit_loop(sc, |bandwidth, _, _| *bandwidth = b),
    suffix: no_suffix,
    read: None,
};

/// Technology-scaling factors β (each ≥ 1).
pub(crate) static BETAS: Axis<u64> = Axis {
    key: "betas",
    expected: "expected an array",
    default: None,
    parse: |v, p| match parse_u64(v, p)? {
        0 => Err(schema(p, "beta must be at least 1")),
        b => Ok(b),
    },
    emit: |b| Json::Num(b.to_string()),
    apply: |sc, &b| edit_loop(sc, |_, beta, _| *beta = b),
    suffix: no_suffix,
    read: None,
};

/// Line-buffer schemes (`true` = the two-buffer scheme of Table 7).
pub(crate) static TWO_LINE_BUFFERS: Axis<bool> = Axis {
    key: "two_line_buffers",
    expected: "expected an array of booleans",
    default: Some(false),
    parse: |v, p| match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(schema(p, "expected a boolean")),
    },
    emit: |&b| Json::Bool(b),
    apply: |sc, &two| edit_loop(sc, |_, _, two_lb| *two_lb = two),
    suffix: no_suffix,
    read: None,
};

/// Explore's combined engine axis: a loop-level bandwidth or the
/// two-line-buffer scheme (one axis, so candidates never alias).
pub(crate) static ENGINE: Axis<EngineChoice> = Axis {
    key: "engine",
    expected: "expected an array",
    default: None,
    parse: |v, p| {
        let s = string(v, p)?;
        EngineChoice::parse(s).ok_or_else(|| {
            schema(
                p,
                format!("unknown engine `{s}` (want 1x32, 1x64, 2x64, 2lb)"),
            )
        })
    },
    emit: |e| Json::Str(e.token().to_owned()),
    apply: |sc, &e| {
        edit_loop(sc, |bandwidth, _, two_lb| {
            (*bandwidth, *two_lb) = e.loop_fields();
        });
    },
    suffix: no_suffix,
    read: None,
};

/// Line Buffer B per-bank capacities (`None` = the paper's 34).
pub(crate) static LBB_BANK_LINES: Axis<Option<usize>> = Axis {
    key: "lbb_bank_lines",
    expected: "expected an array of lines-or-null",
    default: Some(None),
    parse: |v, p| count_or_null(v, p, "per-bank capacity must be at least 1 line"),
    emit: count_json,
    apply: |sc, &lines| sc.lbb_bank_lines = lines,
    suffix: |l| l.map_or_else(String::new, |n| format!(" lbb={n}")),
    read: Some(|sc| sc.lbb_bank_lines),
};

/// Reconfiguration models.
pub(crate) static RECONFIG: Axis<ReconfigSpec> = Axis {
    key: "reconfig",
    expected: "expected an array of reconfig objects",
    default: Some(ReconfigSpec::zero()),
    parse: ReconfigSpec::from_json,
    emit: |r| r.to_json(),
    apply: |sc, r| sc.reconfig = r.model(),
    suffix: |r| {
        if r.penalty == 0 {
            String::new()
        } else {
            let pf = if r.prefetch_hiding { "+pf" } else { "" };
            format!(" rc={}x{}{}", r.penalty, r.contexts, pf)
        }
    },
    read: Some(|sc| {
        let m = &sc.reconfig;
        if m.penalty() == 0 {
            ReconfigSpec::zero()
        } else {
            ReconfigSpec {
                penalty: m.penalty(),
                contexts: m.contexts(),
                prefetch_hiding: m.prefetch_hiding(),
            }
        }
    }),
};

/// Prefetch-buffer depths (`None` = the kind's default: 8 entries for
/// instruction-level points, 64 for loop-level).
pub(crate) static PREFETCH: Axis<Option<usize>> = Axis {
    key: "prefetch",
    expected: "expected an array of depths-or-null",
    default: Some(None),
    parse: |v, p| count_or_null(v, p, "prefetch depth must be at least 1 entry"),
    emit: count_json,
    apply: |sc, &pf| {
        if let Some(n) = pf {
            sc.mem.prefetch_entries = n;
        }
    },
    suffix: |pf| pf.map_or_else(String::new, |n| format!(" pf={n}")),
    read: Some(|sc| {
        let n = sc.mem.prefetch_entries;
        (n != Scenario::preset(&sc.kind).mem.prefetch_entries).then_some(n)
    }),
};

/// Data-cache geometry overrides (`None` = the paper's 32 KB 4-way).
pub(crate) static DCACHE: Axis<Option<DcacheSpec>> = Axis {
    key: "dcache",
    expected: "expected an array of geometry tokens or nulls",
    default: Some(None),
    parse: |v, p| {
        string_or_null(v, p, |s| {
            DcacheSpec::parse(s).ok_or_else(|| {
                schema(
                    p,
                    format!(
                        "bad dcache geometry `{s}` (want CAPk/WAYSw with power-of-two \
                         capacity <= 4096k and ways <= 16, e.g. 16k/2w)"
                    ),
                )
            })
        })
    },
    emit: |d| d.map_or(Json::Null, |d| Json::Str(d.token())),
    apply: |sc, d| {
        if let Some(d) = d {
            sc.mem.dcache = d.geometry();
        }
    },
    suffix: |d| d.map_or_else(String::new, |d| format!(" dc={}", d.token())),
    read: Some(|sc| {
        let g = sc.mem.dcache;
        (g != Scenario::preset(&sc.kind).mem.dcache).then_some(DcacheSpec {
            capacity_kb: g.capacity / 1024,
            ways: g.ways,
        })
    }),
};

/// SAD approximations (default `[exact]`).
pub(crate) static APPROX: Axis<ApproxSad> = Axis {
    key: "approx",
    expected: "expected an array of approx tokens",
    default: Some(ApproxSad::Exact),
    parse: |v, p| {
        let s = string(v, p)?;
        parse_approx(s).ok_or_else(|| {
            schema(
                p,
                format!("unknown approximation `{s}` (want exact, rows/N, bits/N or early/N)"),
            )
        })
    },
    emit: |&a| Json::Str(approx_token(a)),
    apply: |sc, &a| sc.approx = a,
    suffix: |&a| {
        if a.is_exact() {
            String::new()
        } else {
            format!(" ap={}", approx_token(a))
        }
    },
    read: Some(|sc| sc.approx),
};

/// Search-algorithm overrides (`None` = the workload's own search).
pub(crate) static SEARCH: Axis<Option<SearchAlgorithm>> = Axis {
    key: "search",
    expected: "expected an array of search tokens or nulls",
    default: Some(None),
    parse: |v, p| {
        string_or_null(v, p, |s| {
            parse_search(s).ok_or_else(|| {
                schema(
                    p,
                    format!(
                        "unknown search `{s}` (want diamond, three-step, full/R or spiral/R/T)"
                    ),
                )
            })
        })
    },
    emit: |s| s.map_or(Json::Null, |s| Json::Str(search_token(s))),
    apply: |sc, &s| sc.search = s,
    suffix: |s| s.map_or_else(String::new, |s| format!(" se={}", search_token(s))),
    read: Some(|sc| sc.search),
};

/// Fetch/issue substrates (default `[vliw4]`).
pub(crate) static SUBSTRATE: Axis<Substrate> = Axis {
    key: "substrate",
    expected: "expected an array of substrate tokens",
    default: Some(Substrate::Vliw4),
    parse: |v, p| string(v, p)?.parse::<Substrate>().map_err(|e| schema(p, e)),
    emit: |s| Json::Str(s.name().to_owned()),
    apply: |sc, &s| sc.machine.substrate = s,
    suffix: |&s| {
        if s == Substrate::Vliw4 {
            String::new()
        } else {
            format!(" su={}", s.name())
        }
    },
    read: Some(Scenario::substrate),
};

/// One sweep of an [`ExperimentSpec`]: either a list of instruction-level
/// kernel variants or a cross-product of loop-level axes.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxes {
    /// Instruction-level points (Table 1):
    /// `variants × prefetch × dcache × approx × search × substrate`.
    Instruction {
        /// Kernel variants to run.
        variants: Vec<Variant>,
        /// Prefetch-buffer depths (`None` = the kind's default: 8 entries
        /// for instruction-level points, 64 for loop-level).
        prefetch: Vec<Option<usize>>,
        /// Data-cache geometry overrides (`None` = the paper's 32 KB
        /// 4-way).
        dcache: Vec<Option<DcacheSpec>>,
        /// SAD approximations (default `[exact]`).
        approx: Vec<ApproxSad>,
        /// Search-algorithm overrides (`None` = the workload's own search;
        /// default `[None]`).
        search: Vec<Option<SearchAlgorithm>>,
        /// Fetch/issue substrates (default `[vliw4]`).
        substrate: Vec<Substrate>,
    },
    /// Loop-level points (Tables 2–7): the full cross-product
    /// `bandwidths × betas × two_line_buffers × lbb_bank_lines ×
    /// reconfig × prefetch × dcache × approx × search × substrate`,
    /// expanded with the leftmost axis outermost.
    Loop {
        /// RFU data bandwidths.
        bandwidths: Vec<RfuBandwidth>,
        /// Technology-scaling factors β (each ≥ 1).
        betas: Vec<u64>,
        /// Line-buffer schemes (`false` = one buffer, `true` = two).
        two_line_buffers: Vec<bool>,
        /// Line Buffer B per-bank capacities (`None` = the paper's 34).
        lbb_bank_lines: Vec<Option<usize>>,
        /// Reconfiguration models.
        reconfig: Vec<ReconfigSpec>,
        /// Prefetch-buffer depths (`None` = the loop-level default, 64).
        prefetch: Vec<Option<usize>>,
        /// Data-cache geometry overrides (`None` = the paper's 32 KB
        /// 4-way).
        dcache: Vec<Option<DcacheSpec>>,
        /// SAD approximations (default `[exact]`).
        approx: Vec<ApproxSad>,
        /// Search-algorithm overrides (default `[None]`).
        search: Vec<Option<SearchAlgorithm>>,
        /// Fetch/issue substrates (default `[vliw4]`).
        substrate: Vec<Substrate>,
    },
}

impl SweepAxes {
    /// An instruction-level sweep over `variants`.
    #[must_use]
    pub fn instruction(variants: Vec<Variant>) -> Self {
        SweepAxes::Instruction {
            variants,
            prefetch: PREFETCH.defaults(),
            dcache: DCACHE.defaults(),
            approx: APPROX.defaults(),
            search: SEARCH.defaults(),
            substrate: SUBSTRATE.defaults(),
        }
    }

    /// A single-line-buffer loop-level sweep over `bandwidths × betas`
    /// with the paper's default line-buffer geometry and zero-penalty
    /// reconfiguration.
    #[must_use]
    pub fn loop_grid(bandwidths: Vec<RfuBandwidth>, betas: Vec<u64>) -> Self {
        SweepAxes::Loop {
            bandwidths,
            betas,
            two_line_buffers: TWO_LINE_BUFFERS.defaults(),
            lbb_bank_lines: LBB_BANK_LINES.defaults(),
            reconfig: RECONFIG.defaults(),
            prefetch: PREFETCH.defaults(),
            dcache: DCACHE.defaults(),
            approx: APPROX.defaults(),
            search: SEARCH.defaults(),
            substrate: SUBSTRATE.defaults(),
        }
    }

    /// A two-line-buffer sweep over `betas` (Table 7; bandwidth is forced
    /// to 1×32 by the scheme).
    #[must_use]
    pub fn loop_two_lb(betas: Vec<u64>) -> Self {
        let mut axes = Self::loop_grid(vec![RfuBandwidth::B1x32], betas);
        if let SweepAxes::Loop {
            two_line_buffers, ..
        } = &mut axes
        {
            *two_line_buffers = vec![true];
        }
        axes
    }

    /// Replaces the SAD-approximation axis (either sweep kind).
    #[must_use]
    pub fn with_approx_axis(mut self, axis: Vec<ApproxSad>) -> Self {
        match &mut self {
            SweepAxes::Instruction { approx, .. } | SweepAxes::Loop { approx, .. } => {
                *approx = axis;
            }
        }
        self
    }

    /// Replaces the search-algorithm axis (either sweep kind).
    #[must_use]
    pub fn with_search_axis(mut self, axis: Vec<Option<SearchAlgorithm>>) -> Self {
        match &mut self {
            SweepAxes::Instruction { search, .. } | SweepAxes::Loop { search, .. } => {
                *search = axis;
            }
        }
        self
    }

    /// Replaces the substrate axis (either sweep kind).
    #[must_use]
    pub fn with_substrate_axis(mut self, axis: Vec<Substrate>) -> Self {
        match &mut self {
            SweepAxes::Instruction { substrate, .. } | SweepAxes::Loop { substrate, .. } => {
                *substrate = axis;
            }
        }
        self
    }

    /// The number of scenarios this sweep expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.grid().len()
    }

    /// Whether the sweep expands to no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sweep's axes bound to their values, in expansion order.
    fn grid(&self) -> Grid<'_> {
        match self {
            SweepAxes::Instruction {
                variants,
                prefetch,
                dcache,
                approx,
                search,
                substrate,
            } => Grid {
                template: Scenario::orig(),
                columns: vec![
                    bind(&VARIANTS, variants),
                    bind(&PREFETCH, prefetch),
                    bind(&DCACHE, dcache),
                    bind(&APPROX, approx),
                    bind(&SEARCH, search),
                    bind(&SUBSTRATE, substrate),
                ],
            },
            SweepAxes::Loop {
                bandwidths,
                betas,
                two_line_buffers,
                lbb_bank_lines,
                reconfig,
                prefetch,
                dcache,
                approx,
                search,
                substrate,
            } => Grid {
                template: Scenario::loop_level(RfuBandwidth::B1x32, 1),
                columns: vec![
                    bind(&BANDWIDTHS, bandwidths),
                    bind(&BETAS, betas),
                    bind(&TWO_LINE_BUFFERS, two_line_buffers),
                    bind(&LBB_BANK_LINES, lbb_bank_lines),
                    bind(&RECONFIG, reconfig),
                    bind(&PREFETCH, prefetch),
                    bind(&DCACHE, dcache),
                    bind(&APPROX, approx),
                    bind(&SEARCH, search),
                    bind(&SUBSTRATE, substrate),
                ],
            },
        }
    }

    /// Rejects a bandwidth other than 1x32 beside the two-line-buffer
    /// scheme, which runs at 1x32 only: such a point would otherwise run
    /// silently at 1x32 under another bandwidth's name.
    fn check_two_lb(&self, path: &str) -> Result<(), SpecError> {
        if let SweepAxes::Loop {
            bandwidths,
            two_line_buffers,
            ..
        } = self
        {
            let other = bandwidths.iter().find(|&&b| b != RfuBandwidth::B1x32);
            if let (Some(bw), true) = (other, two_line_buffers.contains(&true)) {
                return Err(schema(
                    format!("{path}.{}", BANDWIDTHS.key),
                    format!(
                        "bandwidth {} cannot run the two-line-buffer scheme, which is \
                         1x32 only (split the sweep)",
                        bw.label()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        let kind = match self {
            SweepAxes::Instruction { .. } => "instruction",
            SweepAxes::Loop { .. } => "loop",
        };
        m.insert("kind".to_owned(), Json::Str(kind.to_owned()));
        self.grid().emit(&mut m);
        Json::Obj(m)
    }

    pub(crate) fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        let m = as_obj(j, path)?;
        let template = match req_str(m, "kind", path)? {
            "instruction" => Self::instruction(Vec::new()),
            "loop" => Self::loop_grid(Vec::new(), Vec::new()),
            other => {
                return Err(schema(
                    format!("{path}.kind"),
                    format!("unknown sweep kind `{other}` (want instruction or loop)"),
                ))
            }
        };
        let mut allowed = vec!["kind"];
        allowed.extend(template.grid().keys());
        check_keys(m, &allowed, path)?;
        let axes = match template {
            SweepAxes::Instruction { .. } => SweepAxes::Instruction {
                variants: VARIANTS.parse_axis(m, path)?,
                prefetch: PREFETCH.parse_axis(m, path)?,
                dcache: DCACHE.parse_axis(m, path)?,
                approx: APPROX.parse_axis(m, path)?,
                search: SEARCH.parse_axis(m, path)?,
                substrate: SUBSTRATE.parse_axis(m, path)?,
            },
            SweepAxes::Loop { .. } => SweepAxes::Loop {
                bandwidths: BANDWIDTHS.parse_axis(m, path)?,
                betas: BETAS.parse_axis(m, path)?,
                two_line_buffers: TWO_LINE_BUFFERS.parse_axis(m, path)?,
                lbb_bank_lines: LBB_BANK_LINES.parse_axis(m, path)?,
                reconfig: RECONFIG.parse_axis(m, path)?,
                prefetch: PREFETCH.parse_axis(m, path)?,
                dcache: DCACHE.parse_axis(m, path)?,
                approx: APPROX.parse_axis(m, path)?,
                search: SEARCH.parse_axis(m, path)?,
                substrate: SUBSTRATE.parse_axis(m, path)?,
            },
        };
        axes.check_two_lb(path)?;
        Ok(axes)
    }
}

/// A declarative experiment: run-wide knobs plus a list of sweeps whose
/// expansions concatenate into one scenario list.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Spec name (reported in results).
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// QCIF workload frames (the paper uses 25).
    pub frames: usize,
    /// Label of the baseline scenario speedups are computed against
    /// (usually `Orig`; `None` = no speedup column).
    pub baseline: Option<String>,
    /// Fault profile every scenario runs under (default: none).
    pub fault_profile: FaultProfile,
    /// Seed for the fault plan.
    pub fault_seed: u64,
    /// Per-scenario cycle budget override (`None` = the watchdog default).
    pub cycle_limit: Option<u64>,
    /// The sweeps, expanded in order.
    pub sweeps: Vec<SweepAxes>,
}

impl ExperimentSpec {
    /// An empty spec with the defaults: 25 frames, no baseline, no
    /// faults, no cycle-budget override.
    #[must_use]
    pub fn new(name: &str) -> Self {
        ExperimentSpec {
            name: name.to_owned(),
            title: None,
            frames: 25,
            baseline: None,
            fault_profile: FaultProfile::None,
            fault_seed: 0,
            cycle_limit: None,
            sweeps: Vec::new(),
        }
    }

    /// Sets the baseline scenario label.
    #[must_use]
    pub fn with_baseline(mut self, label: &str) -> Self {
        self.baseline = Some(label.to_owned());
        self
    }

    /// Appends a sweep.
    #[must_use]
    pub fn sweep(mut self, axes: SweepAxes) -> Self {
        self.sweeps.push(axes);
        self
    }

    /// The paper's full 12-scenario grid in presentation order: ORIG,
    /// A1–A3, the six single-line-buffer loop points (bandwidth × β ∈
    /// {1, 5}), the two two-line-buffer points. This is the grid
    /// [`CaseStudy::scenarios`](crate::CaseStudy::scenarios) expands, and
    /// the union of the seven checked-in `specs/table*.json` files.
    #[must_use]
    pub fn paper_grid() -> Self {
        ExperimentSpec::new("paper")
            .with_baseline("Orig")
            .sweep(SweepAxes::instruction(Variant::all().to_vec()))
            .sweep(SweepAxes::loop_grid(
                RfuBandwidth::all().to_vec(),
                vec![1, 5],
            ))
            .sweep(SweepAxes::loop_two_lb(vec![1, 5]))
    }

    /// The fault plan every expanded scenario runs under.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::from_profile(self.fault_profile, self.fault_seed)
    }

    /// Expands the sweeps into concrete scenarios, in order, with the
    /// run-wide fault plan and cycle budget applied and label-uniqueness
    /// enforced.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateLabel`] when two expanded points share a
    /// label (labels key fault substreams and snapshot cells), and
    /// [`SpecError::Schema`] when a sweep pairs the two-line-buffer scheme
    /// with a bandwidth other than 1x32.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, SpecError> {
        let plan = self.fault_plan();
        let mut out: Vec<Scenario> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for (i, sweep) in self.sweeps.iter().enumerate() {
            sweep.check_two_lb(&format!("spec.sweeps[{i}]"))?;
            for mut sc in sweep.grid().points() {
                sc = sc.with_fault_plan(plan);
                if let Some(limit) = self.cycle_limit {
                    sc = sc.with_cycle_limit(limit);
                }
                if !seen.insert(sc.label.clone()) {
                    return Err(SpecError::DuplicateLabel { label: sc.label });
                }
                out.push(sc);
            }
        }
        Ok(out)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON, [`SpecError::Schema`] on a
    /// schema violation. Never panics, whatever the input.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let json = Json::parse(text).map_err(SpecError::Json)?;
        Self::from_json(&json)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] on any schema violation (wrong type, unknown
    /// key, out-of-range value).
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let m = as_obj(json, "spec")?;
        check_keys(
            m,
            &[
                "name",
                "title",
                "frames",
                "baseline",
                "fault",
                "cycle_limit",
                "sweeps",
            ],
            "spec",
        )?;
        let name = req_str(m, "name", "spec")?.to_owned();
        if name.is_empty() {
            return Err(schema("spec.name", "must not be empty"));
        }
        let title = match m.get("title") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| schema("spec.title", "expected a string"))?
                    .to_owned(),
            ),
        };
        let frames = match m.get("frames") {
            None => 25,
            Some(v) => {
                let n = parse_usize(v, "spec.frames")?;
                if n == 0 {
                    return Err(schema("spec.frames", "must be at least 1"));
                }
                n
            }
        };
        let baseline = match m.get("baseline") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| schema("spec.baseline", "expected a string"))?
                    .to_owned(),
            ),
        };
        let (fault_profile, fault_seed) = match m.get("fault") {
            None => (FaultProfile::None, 0),
            Some(v) => {
                let fm = as_obj(v, "spec.fault")?;
                check_keys(fm, &["profile", "seed"], "spec.fault")?;
                let profile = match fm.get("profile") {
                    None => FaultProfile::None,
                    Some(p) => p
                        .as_str()
                        .ok_or_else(|| schema("spec.fault.profile", "expected a string"))?
                        .parse::<FaultProfile>()
                        .map_err(|e| schema("spec.fault.profile", e))?,
                };
                let seed = match fm.get("seed") {
                    None => 0,
                    Some(s) => parse_u64(s, "spec.fault.seed")?,
                };
                (profile, seed)
            }
        };
        let cycle_limit = match m.get("cycle_limit") {
            None | Some(Json::Null) => None,
            Some(v) => Some(parse_u64(v, "spec.cycle_limit")?),
        };
        let sweeps_arr = req_arr(m, "sweeps", "spec")?;
        if sweeps_arr.is_empty() {
            return Err(schema("spec.sweeps", "must not be empty"));
        }
        let sweeps = sweeps_arr
            .iter()
            .enumerate()
            .map(|(i, v)| SweepAxes::from_json(v, &format!("spec.sweeps[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExperimentSpec {
            name,
            title,
            frames,
            baseline,
            fault_profile,
            fault_seed,
            cycle_limit,
            sweeps,
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
        if let Some(b) = &self.baseline {
            m.insert("baseline".to_owned(), Json::Str(b.clone()));
        }
        if self.fault_profile != FaultProfile::None || self.fault_seed != 0 {
            let mut fm = BTreeMap::new();
            fm.insert(
                "profile".to_owned(),
                Json::Str(self.fault_profile.to_string()),
            );
            fm.insert("seed".to_owned(), Json::Num(self.fault_seed.to_string()));
            m.insert("fault".to_owned(), Json::Obj(fm));
        }
        if let Some(l) = self.cycle_limit {
            m.insert("cycle_limit".to_owned(), Json::Num(l.to_string()));
        }
        m.insert(
            "sweeps".to_owned(),
            Json::Arr(self.sweeps.iter().map(SweepAxes::to_json).collect()),
        );
        Json::Obj(m)
    }

    /// The spec as pretty-printed JSON text (the format of the checked-in
    /// `specs/*.json` files).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }
}

/// Pretty-prints `j` with two-space indentation (compact leaf arrays).
pub(crate) fn pretty(j: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match j {
        Json::Arr(v) if v.iter().any(|e| matches!(e, Json::Obj(_) | Json::Arr(_))) => {
            out.push_str("[\n");
            for (i, e) in v.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                pretty(e, indent + 1, out);
                if i + 1 < v.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(m) => {
            out.push_str("{\n");
            for (i, (k, v)) in m.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                out.push_str(&format!("\"{}\": ", rvliw_trace::json::escape_json(k)));
                pretty(v, indent + 1, out);
                if i + 1 < m.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

pub(crate) fn as_obj<'a>(j: &'a Json, path: &str) -> Result<&'a BTreeMap<String, Json>, SpecError> {
    match j {
        Json::Obj(m) => Ok(m),
        _ => Err(schema(path, "expected an object")),
    }
}

pub(crate) fn check_keys(
    m: &BTreeMap<String, Json>,
    allowed: &[&str],
    path: &str,
) -> Result<(), SpecError> {
    for k in m.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(schema(
                format!("{path}.{k}"),
                format!("unknown key (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

pub(crate) fn req_str<'a>(
    m: &'a BTreeMap<String, Json>,
    key: &str,
    path: &str,
) -> Result<&'a str, SpecError> {
    m.get(key)
        .ok_or_else(|| schema(format!("{path}.{key}"), "missing required key"))?
        .as_str()
        .ok_or_else(|| schema(format!("{path}.{key}"), "expected a string"))
}

pub(crate) fn req_arr<'a>(
    m: &'a BTreeMap<String, Json>,
    key: &str,
    path: &str,
) -> Result<&'a [Json], SpecError> {
    m.get(key)
        .ok_or_else(|| schema(format!("{path}.{key}"), "missing required key"))?
        .as_array()
        .ok_or_else(|| schema(format!("{path}.{key}"), "expected an array"))
}

pub(crate) fn parse_u64(j: &Json, path: &str) -> Result<u64, SpecError> {
    j.as_u64()
        .ok_or_else(|| schema(path, "expected a non-negative integer"))
}

pub(crate) fn parse_usize(j: &Json, path: &str) -> Result<usize, SpecError> {
    let n = parse_u64(j, path)?;
    usize::try_from(n).map_err(|_| schema(path, "integer too large"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_round_trips_through_json() {
        let spec = ExperimentSpec::paper_grid();
        let text = spec.to_json_string();
        let parsed = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(parsed, spec);
        // And the pretty text itself re-parses to the same value.
        let again = ExperimentSpec::from_json_str(&parsed.to_json_string()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn paper_grid_expands_to_twelve_unique_labels() {
        let scenarios = ExperimentSpec::paper_grid().scenarios().unwrap();
        let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "Orig", "A1", "A2", "A3", "1x32 b=1", "1x32 b=5", "1x64 b=1", "1x64 b=5",
                "2x64 b=1", "2x64 b=5", "2LB b=1", "2LB b=5"
            ]
        );
    }

    #[test]
    fn duplicate_labels_yield_a_typed_error() {
        let spec = ExperimentSpec::new("dup")
            .sweep(SweepAxes::loop_grid(vec![RfuBandwidth::B1x32], vec![1]))
            .sweep(SweepAxes::loop_grid(vec![RfuBandwidth::B1x32], vec![1]));
        assert_eq!(
            spec.scenarios(),
            Err(SpecError::DuplicateLabel {
                label: "1x32 b=1".to_owned()
            })
        );
    }

    #[test]
    fn two_lb_with_another_bandwidth_is_a_schema_error() {
        // The two-line-buffer scheme runs at 1x32 only, so another
        // bandwidth beside it is rejected rather than silently run at
        // 1x32 under its own name.
        let mut axes = SweepAxes::loop_two_lb(vec![1]);
        if let SweepAxes::Loop { bandwidths, .. } = &mut axes {
            *bandwidths = vec![RfuBandwidth::B1x32, RfuBandwidth::B1x64];
        }
        let spec = ExperimentSpec::new("dup2")
            .sweep(SweepAxes::instruction(vec![Variant::Orig]))
            .sweep(axes);
        match spec.scenarios() {
            Err(SpecError::Schema { path, message }) => {
                assert_eq!(path, "spec.sweeps[1].bandwidths");
                assert!(message.contains("1x64"), "{message}");
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn off_default_axes_get_label_suffixes() {
        let spec = ExperimentSpec::new("ablate").sweep(SweepAxes::Loop {
            bandwidths: vec![RfuBandwidth::B1x32],
            betas: vec![1],
            two_line_buffers: vec![false],
            lbb_bank_lines: vec![None, Some(17)],
            reconfig: vec![
                ReconfigSpec::zero(),
                ReconfigSpec {
                    penalty: 100,
                    contexts: 2,
                    prefetch_hiding: true,
                },
            ],
            prefetch: vec![None],
            dcache: vec![None],
            approx: vec![ApproxSad::Exact],
            search: vec![None],
            substrate: vec![Substrate::Vliw4],
        });
        let labels: Vec<String> = spec
            .scenarios()
            .unwrap()
            .into_iter()
            .map(|s| s.label)
            .collect();
        assert_eq!(
            labels,
            [
                "1x32 b=1",
                "1x32 b=1 rc=100x2+pf",
                "1x32 b=1 lbb=17",
                "1x32 b=1 lbb=17 rc=100x2+pf"
            ]
        );
    }

    #[test]
    fn expansion_counts_are_the_cross_product() {
        let axes = SweepAxes::Loop {
            bandwidths: vec![RfuBandwidth::B1x32, RfuBandwidth::B2x64],
            betas: vec![1, 2, 3],
            two_line_buffers: vec![false],
            lbb_bank_lines: vec![None, Some(8)],
            reconfig: vec![ReconfigSpec::zero()],
            prefetch: vec![None],
            dcache: vec![None],
            approx: vec![ApproxSad::Exact],
            search: vec![None],
            substrate: vec![Substrate::Vliw4],
        };
        assert_eq!(axes.len(), 12);
        let spec = ExperimentSpec::new("count")
            .sweep(SweepAxes::instruction(vec![Variant::Orig, Variant::A3]))
            .sweep(axes);
        assert_eq!(spec.scenarios().unwrap().len(), 14);
    }

    #[test]
    fn approx_and_search_axes_expand_with_label_suffixes() {
        let spec = ExperimentSpec::new("approx").sweep(
            SweepAxes::instruction(vec![Variant::A3])
                .with_approx_axis(vec![
                    ApproxSad::Exact,
                    ApproxSad::SubsampledRows { step: 2 },
                    ApproxSad::EarlyExit { threshold: 4096 },
                ])
                .with_search_axis(vec![None, Some(SearchAlgorithm::Full { range: 8 })]),
        );
        let scenarios = spec.scenarios().unwrap();
        let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "A3",
                "A3 se=full/8",
                "A3 ap=rows/2",
                "A3 ap=rows/2 se=full/8",
                "A3 ap=early/4096",
                "A3 ap=early/4096 se=full/8",
            ]
        );
        assert_eq!(scenarios[0].approx, ApproxSad::Exact);
        assert_eq!(scenarios[2].approx, ApproxSad::SubsampledRows { step: 2 });
        assert_eq!(
            scenarios[3].search,
            Some(SearchAlgorithm::Full { range: 8 })
        );
        // And the whole thing round-trips through JSON.
        let parsed = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn substrate_axis_expands_with_label_suffixes_and_round_trips() {
        let spec = ExperimentSpec::new("substrates").sweep(
            SweepAxes::instruction(vec![Variant::A3])
                .with_substrate_axis(vec![Substrate::Vliw4, Substrate::ScalarInOrder]),
        );
        let scenarios = spec.scenarios().unwrap();
        let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["A3", "A3 su=scalar"]);
        assert_eq!(scenarios[0].substrate(), Substrate::Vliw4);
        assert_eq!(scenarios[1].substrate(), Substrate::ScalarInOrder);
        let parsed = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(parsed, spec);
        // The default axis is omitted from the JSON rendering entirely, so
        // pre-substrate spec files keep their byte-for-byte shape.
        let default_spec =
            ExperimentSpec::new("d").sweep(SweepAxes::instruction(vec![Variant::A3]));
        assert!(!default_spec.to_json_string().contains("substrate"));
        let bad = "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"instruction\", \
                   \"variants\": [\"A3\"], \"substrate\": [\"mips\"]}]}";
        match ExperimentSpec::from_json_str(bad) {
            Err(SpecError::Schema { message, .. }) => {
                assert!(message.contains("unknown substrate"), "got `{message}`");
            }
            other => panic!("bad substrate token gave {other:?}"),
        }
    }

    #[test]
    fn approx_axes_parse_from_json_tokens() {
        let text = "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"loop\", \
                    \"bandwidths\": [\"1x32\"], \"betas\": [1], \
                    \"approx\": [\"exact\", \"rows/2\", \"bits/3\", \"early/100\"], \
                    \"search\": [null, \"diamond\", \"spiral/8/256\"]}]}";
        let spec = ExperimentSpec::from_json_str(text).unwrap();
        assert_eq!(spec.sweeps[0].len(), 12);
        for (bad, needle) in [
            ("\"approx\": [\"rows/1\"]", "unknown approximation"),
            ("\"approx\": []", "must not be empty"),
            ("\"search\": [\"warp\"]", "unknown search"),
        ] {
            let text = format!(
                "{{\"name\": \"x\", \"sweeps\": [{{\"kind\": \"instruction\", \
                 \"variants\": [\"A3\"], {bad}}}]}}"
            );
            match ExperimentSpec::from_json_str(&text) {
                Err(SpecError::Schema { message, .. }) => {
                    assert!(message.contains(needle), "`{bad}` gave `{message}`");
                }
                other => panic!("`{bad}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn schema_violations_are_typed_errors() {
        for (text, needle) in [
            ("[]", "expected an object"),
            ("{\"sweeps\": []}", "missing required key"),
            ("{\"name\": \"x\", \"sweeps\": []}", "must not be empty"),
            (
                "{\"name\": \"x\", \"bogus\": 1, \"sweeps\": [{\"kind\": \"loop\", \
                 \"bandwidths\": [\"1x32\"], \"betas\": [1]}]}",
                "unknown key",
            ),
            (
                "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"warp\"}]}",
                "unknown sweep kind",
            ),
            (
                "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"loop\", \
                 \"bandwidths\": [\"9x9\"], \"betas\": [1]}]}",
                "unknown bandwidth",
            ),
            (
                "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"loop\", \
                 \"bandwidths\": [\"1x32\"], \"betas\": [0]}]}",
                "beta must be at least 1",
            ),
            (
                "{\"name\": \"x\", \"frames\": 0, \"sweeps\": [{\"kind\": \
                 \"instruction\", \"variants\": [\"Orig\"]}]}",
                "at least 1",
            ),
            (
                "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"loop\", \
                 \"bandwidths\": [\"1x32\"], \"betas\": [1], \
                 \"reconfig\": [{\"penalty\": 5, \"contexts\": 0}]}]}",
                "resident context",
            ),
            (
                "{\"name\": \"x\", \"sweeps\": [{\"kind\": \"loop\", \
                 \"bandwidths\": [\"2x64\"], \"betas\": [1], \
                 \"two_line_buffers\": [true]}]}",
                "spec.sweeps[0].bandwidths: bandwidth 2x64 cannot run the two-line-buffer",
            ),
        ] {
            match ExperimentSpec::from_json_str(text) {
                Err(SpecError::Schema { message, path }) => assert!(
                    format!("{path}: {message}").contains(needle),
                    "`{text}` gave `{path}: {message}`, wanted `{needle}`"
                ),
                other => panic!("`{text}` gave {other:?}, wanted a Schema error"),
            }
        }
        assert!(matches!(
            ExperimentSpec::from_json_str("not json"),
            Err(SpecError::Json(_))
        ));
    }

    #[test]
    fn fault_and_cycle_limit_round_trip() {
        let mut spec =
            ExperimentSpec::new("faulty").sweep(SweepAxes::instruction(vec![Variant::Orig]));
        spec.fault_profile = FaultProfile::Chaos;
        spec.fault_seed = 7;
        spec.cycle_limit = Some(123_456);
        spec.frames = 2;
        let parsed = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(parsed, spec);
        let sc = &parsed.scenarios().unwrap()[0];
        assert_eq!(sc.cycle_limit, Some(123_456));
        assert!(!sc.fault.is_inert());
    }
}
