//! Content-addressed caching of scenario results.
//!
//! A scenario's measurement is a pure function of the scheduled kernel
//! programs, the machine/memory/RFU/fault configuration and the workload
//! trace. [`scenario_key`] hashes exactly those inputs (plus a schema
//! version) into a [`CacheKey`]; [`ScenarioCache`] stores each
//! [`MeResult`] under its key so repeated sweeps skip unchanged
//! scenarios. The runner consults the cache *before* simulating and
//! records *after* — a cached sweep is bit-identical to a cold one by
//! construction, because the stored value is the full measurement, not a
//! recomputation.
//!
//! Invalidation is by over-approximation: the canonicalized scenario is
//! its `Debug` rendering, which automatically covers every field (new
//! fields invalidate old keys — a safe failure mode: re-simulation, never
//! a wrong result). Program bytes are hashed from the scheduled bundles,
//! not from process-local code identities, so keys are stable across
//! processes. The scenario label participates in the key because fault
//! substreams are salted with it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mpeg4_enc::types::Plane;
use mpeg4_enc::QualityMetrics;
use rvliw_asm::Code;
use rvliw_cache::{CacheCounts, CacheError, CacheKey, KeyBuilder, ResultCache};
use rvliw_fault::FaultPlan;
use rvliw_isa::encode_op;
use rvliw_kernels::{build_getsad_approx, build_mb_prep, build_me_loop_call, DriverKind, Variant};
use rvliw_mem::MemStats;
use rvliw_rfu::{RfuBandwidth, RfuStats};
use rvliw_sim::SimStats;
use rvliw_trace::Json;

use crate::runner::MeResult;
use crate::scenario::{sad_approx_to_rfu, Kind, Scenario};
use crate::spec::DESCRIBED;
use crate::sweep::run_scenario_list;
use crate::workload::Workload;

/// Version of the core result payload layout inside a cache entry. Bump
/// when [`MeResult`] serialization changes shape; old entries then stop
/// matching by key and are re-simulated.
pub const RESULT_SCHEMA: u64 = 1;

/// The cache directory implied by the environment: `RVLIW_CACHE_DIR` when
/// set and non-empty. Caching stays off when this returns `None` and no
/// `--cache-dir` was given.
#[must_use]
pub fn default_cache_dir() -> Option<PathBuf> {
    std::env::var_os("RVLIW_CACHE_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

fn hash_plane(kb: &mut KeyBuilder, tag: &str, p: &Plane) {
    kb.field_u64(tag, p.width() as u64);
    kb.field_bytes(tag, p.data());
}

/// Digest of everything the replay reads from a workload: the stride, the
/// source and reconstructed luma planes, and the full `GetSad` call trace
/// (coordinates, interpolation kinds and golden SADs).
#[must_use]
pub fn workload_digest(w: &Workload) -> CacheKey {
    let mut kb = KeyBuilder::new("workload", rvliw_cache::SCHEMA_VERSION);
    kb.field_u64("stride", u64::from(w.stride));
    kb.field_u64("frames", w.frames.len() as u64);
    for (i, frame) in w.frames.iter().enumerate() {
        hash_plane(&mut kb, &format!("frame.{i}.y"), &frame.y);
    }
    for (i, frame) in w.report.recon.iter().enumerate() {
        hash_plane(&mut kb, &format!("recon.{i}.y"), &frame.y);
    }
    // Per frame: its macroblock count, then per macroblock its indices,
    // its call count and each call's four words.
    let motion = w.report.frames.iter().flat_map(|fr| {
        std::iter::once(fr.motion.len() as u32).chain(fr.motion.iter().flat_map(|mb| {
            [mb.mbx as u32, mb.mby as u32, mb.calls.len() as u32]
                .into_iter()
                .chain(
                    mb.calls
                        .iter()
                        .flat_map(|c| [u32::from(c.cx), u32::from(c.cy), c.kind.code(), c.sad]),
                )
        }))
    });
    kb.field_words_iter("motion", motion);
    kb.finish()
}

/// Hashes a scheduled program: its name, the encoded operation words and
/// the bundle boundaries (two schedules of the same operations must not
/// alias).
fn hash_code(kb: &mut KeyBuilder, tag: &str, code: &Code) {
    kb.field_str(tag, code.name());
    let mut words: Vec<u32> = Vec::new();
    let mut bundle_sizes: Vec<u32> = Vec::new();
    for bundle in code.bundles() {
        let before = words.len();
        for op in bundle.ops() {
            encode_op(op, &mut words);
        }
        bundle_sizes.push((words.len() - before) as u32);
    }
    kb.field_words(tag, &words);
    kb.field_words(tag, &bundle_sizes);
}

/// Hashes the exact programs the runner would build for this scenario
/// (mirroring `run_me`'s program construction).
fn hash_programs(kb: &mut KeyBuilder, sc: &Scenario) {
    match &sc.kind {
        Kind::Instruction(variant) => {
            // Exact scenarios build byte-identical code to the historical
            // `build_getsad`, so pre-existing keys are untouched.
            hash_code(
                kb,
                "prog.instr",
                &build_getsad_approx(*variant, sad_approx_to_rfu(sc.approx), &sc.machine),
            );
        }
        Kind::Loop {
            two_line_buffers, ..
        } => {
            let kind = if *two_line_buffers {
                DriverKind::DoubleLineBuffer
            } else {
                DriverKind::SingleLineBuffer
            };
            hash_code(kb, "prog.prep", &build_mb_prep(kind, &sc.machine));
            hash_code(kb, "prog.call", &build_me_loop_call(kind, &sc.machine));
        }
    }
}

/// The content address of one scenario's measurement over one workload.
///
/// Covers the canonicalized scenario (every field of [`Scenario`],
/// including machine, memory, reconfiguration, line-buffer, fault-plan
/// parameters and the label — fault substreams are salted with it), the
/// scheduled kernel program bytes, the workload digest and the schema
/// versions. Any single-field perturbation changes the key.
#[must_use]
pub fn scenario_key(sc: &Scenario, workload: CacheKey) -> CacheKey {
    let mut kb = KeyBuilder::new("scenario-result", rvliw_cache::SCHEMA_VERSION);
    kb.field_u64("result-schema", RESULT_SCHEMA);
    kb.field_str("scenario", &format!("{sc:?}"));
    hash_programs(&mut kb, sc);
    kb.field_str("workload", &workload.hex());
    kb.finish()
}

fn num(v: u64) -> Json {
    Json::Num(v.to_string())
}

// Each codec names its struct's fields once; the generated writer
// destructures exhaustively, so adding a field to one of these structs
// breaks the build until it is listed here (bump RESULT_SCHEMA with it).
rvliw_trace::json_codec!(
    mem_to_json,
    mem_from_json,
    MemStats {
        loads,
        stores,
        d_hits,
        d_misses,
        d_late_covered,
        d_stall_cycles,
        writebacks,
        i_misses,
        i_stall_cycles,
        pf_issued,
        pf_dropped,
        pf_redundant,
        pf_useful,
        pf_late,
    }
);

rvliw_trace::json_codec!(
    core_to_json,
    core_from_json,
    SimStats {
        cycles,
        bundles,
        ops,
        interlock_stalls,
        rfu_busy_stalls,
        branches_taken,
        branch_stall_cycles,
        ifetch_stall_cycles,
        ops_by_class,
    }
);

rvliw_trace::json_codec!(
    rfu_to_json,
    rfu_from_json,
    RfuStats {
        inits,
        reconfigs,
        reconfig_penalty_cycles,
        sends,
        execs,
        loops,
        dct_loops,
        mb_prefetches,
        mb_prefetch_lines,
        lba_waits,
        lba_wait_cycles,
        lbb_hits,
        lbb_late,
        lbb_misses,
        loop_stall_cycles,
        loop_busy_cycles,
    }
);

rvliw_trace::json_codec!(
    fault_to_json,
    fault_from_json,
    FaultPlan {
        seed,
        mem_latency_ppm,
        mem_latency_max,
        flush_ppm,
        lb_delay_ppm,
        lb_delay_max,
        lb_stuck_ppm,
        bitflip_ppm,
    }
);

fn field(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

/// Serializes a measurement for storage.
#[must_use]
pub fn me_result_to_json(r: &MeResult) -> Json {
    let MeResult {
        label,
        me_cycles,
        stall_cycles,
        calls,
        mem,
        core,
        rfu,
        quality,
    } = r;
    let mut o = BTreeMap::new();
    o.insert("label".to_owned(), Json::Str(label.clone()));
    o.insert("me_cycles".to_owned(), num(*me_cycles));
    o.insert("stall_cycles".to_owned(), num(*stall_cycles));
    o.insert("calls".to_owned(), num(*calls));
    o.insert("mem".to_owned(), mem_to_json(mem));
    o.insert("core".to_owned(), core_to_json(core));
    o.insert("rfu".to_owned(), rfu_to_json(rfu));
    if let Some(q) = quality {
        // Bit-exact float storage: the cache must round-trip the
        // measurement without decimal noise. Omitted entirely for
        // full-quality results so pre-existing payloads keep decoding.
        let mut qo = BTreeMap::new();
        qo.insert(
            "sad_inflation_bits".to_owned(),
            num(q.sad_inflation.to_bits()),
        );
        qo.insert(
            "psnr_delta_db_bits".to_owned(),
            num(q.psnr_delta_db.to_bits()),
        );
        o.insert("quality".to_owned(), Json::Obj(qo));
    }
    Json::Obj(o)
}

/// Deserializes a stored measurement (`None` when the payload does not
/// decode under this build — the caller treats that as a stale miss).
#[must_use]
pub fn me_result_from_json(j: &Json) -> Option<MeResult> {
    let quality = match j.get("quality") {
        None => None,
        Some(q) => Some(QualityMetrics {
            sad_inflation: f64::from_bits(field(q, "sad_inflation_bits")?),
            psnr_delta_db: f64::from_bits(field(q, "psnr_delta_db_bits")?),
        }),
    };
    Some(MeResult {
        label: j.get("label")?.as_str()?.to_owned(),
        me_cycles: field(j, "me_cycles")?,
        stall_cycles: field(j, "stall_cycles")?,
        calls: field(j, "calls")?,
        mem: mem_from_json(j.get("mem")?)?,
        core: core_from_json(j.get("core")?)?,
        rfu: rfu_from_json(j.get("rfu")?)?,
        quality,
    })
}

/// A descriptor of the scenario, enough for `verify` to rebuild it and
/// re-simulate: the kind, cycle budget, fault plan and label, plus every
/// spec axis whose value differs from the kind's preset (written and read
/// back through the spec axis table). Scenarios with settings no axis
/// expresses rebuild to a different key and are reported as unverifiable
/// rather than mis-verified.
#[must_use]
pub fn scenario_desc(sc: &Scenario) -> Json {
    let mut o = BTreeMap::new();
    match &sc.kind {
        Kind::Instruction(v) => {
            o.insert("kind".to_owned(), Json::Str("instruction".to_owned()));
            o.insert("variant".to_owned(), Json::Str(v.name().to_owned()));
        }
        Kind::Loop {
            bandwidth,
            beta,
            two_line_buffers,
        } => {
            o.insert("kind".to_owned(), Json::Str("loop".to_owned()));
            o.insert(
                "bandwidth".to_owned(),
                Json::Str(bandwidth.label().to_owned()),
            );
            o.insert("beta".to_owned(), num(*beta));
            o.insert("two_lb".to_owned(), Json::Bool(*two_line_buffers));
        }
    }
    o.insert(
        "cycle_limit".to_owned(),
        match sc.cycle_limit {
            Some(n) => num(n),
            None => Json::Null,
        },
    );
    o.insert("fault".to_owned(), fault_to_json(&sc.fault));
    o.insert("label".to_owned(), Json::Str(sc.label.clone()));
    for axis in DESCRIBED {
        axis.describe(sc, &mut o);
    }
    Json::Obj(o)
}

/// Rebuilds a scenario from its [`scenario_desc`] (`None` when the
/// descriptor does not parse).
#[must_use]
pub fn scenario_from_desc(j: &Json) -> Option<Scenario> {
    let kind = match j.get("kind")?.as_str()? {
        "instruction" => {
            let name = j.get("variant")?.as_str()?;
            Kind::Instruction(Variant::all().into_iter().find(|v| v.name() == name)?)
        }
        "loop" => {
            let label = j.get("bandwidth")?.as_str()?;
            Kind::Loop {
                bandwidth: RfuBandwidth::all()
                    .into_iter()
                    .find(|b| b.label() == label)?,
                beta: field(j, "beta")?,
                two_line_buffers: j.get("two_lb")? == &Json::Bool(true),
            }
        }
        _ => return None,
    };
    let mut sc = Scenario::preset(&kind);
    if sc.kind != kind {
        // A two-line-buffer entry at a bandwidth other than 1x32.
        return None;
    }
    for axis in DESCRIBED {
        axis.restore(j, &mut sc)?;
    }
    match j.get("cycle_limit")? {
        Json::Null => {}
        v => sc.cycle_limit = Some(v.as_u64()?),
    }
    sc.fault = fault_from_json(j.get("fault")?)?;
    sc.label = j.get("label")?.as_str()?.to_owned();
    Some(sc)
}

fn workload_desc(kind: &str, w: &Workload) -> Json {
    let mut o = BTreeMap::new();
    o.insert("kind".to_owned(), Json::Str(kind.to_owned()));
    o.insert("frames".to_owned(), num(w.frames.len() as u64));
    Json::Obj(o)
}

fn workload_from_desc(j: &Json) -> Option<Workload> {
    let frames = usize::try_from(field(j, "frames")?).ok()?;
    match j.get("kind")?.as_str()? {
        "paper" if frames == 25 => Some((*Workload::paper_shared()).clone()),
        "qcif" => Some(Workload::qcif_frames(frames)),
        "tiny" if frames == 3 => Some(Workload::tiny()),
        _ => None,
    }
}

/// A scenario result cache bound to one workload: the workload is
/// digested once at construction and folded into every key.
///
/// `Sync`: lookups and records happen from the parallel runner's worker
/// threads; the underlying store uses atomic counters and atomic
/// temp-file + rename writes.
#[derive(Debug)]
pub struct ScenarioCache {
    store: ResultCache,
    digest: CacheKey,
    workload: Json,
}

impl ScenarioCache {
    /// Opens a cache at `dir` for `workload`. `workload_kind` names how
    /// the workload was built (`"paper"`, `"qcif"`, `"tiny"`, or any
    /// other tag for custom workloads — those entries are still correct
    /// cache hits, but `verify` reports them as unverifiable).
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        workload: &Workload,
        workload_kind: &str,
    ) -> Result<Self, CacheError> {
        Ok(ScenarioCache {
            store: ResultCache::open(dir)?,
            digest: workload_digest(workload),
            workload: workload_desc(workload_kind, workload),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The content key of `sc` over this cache's workload.
    #[must_use]
    pub fn key_for(&self, sc: &Scenario) -> CacheKey {
        scenario_key(sc, self.digest)
    }

    /// Looks up the cached measurement for `sc`. Misses, corrupt entries
    /// and undecodable payloads all return `None` (and count as miss or
    /// stale); a hit whose stored label disagrees with the scenario is
    /// rejected as stale too.
    #[must_use]
    pub fn lookup(&self, sc: &Scenario) -> Option<MeResult> {
        let key = self.key_for(sc);
        self.store.lookup_map(&key, |payload| {
            let result = me_result_from_json(payload.get("result")?)?;
            if result.label != sc.label {
                return None;
            }
            Some(result)
        })
    }

    /// Records a successful measurement. Failed scenarios are never
    /// cached — they re-run (and re-report) on every sweep.
    pub fn record(&self, sc: &Scenario, result: &MeResult) {
        let key = self.key_for(sc);
        let mut o = BTreeMap::new();
        o.insert("result".to_owned(), me_result_to_json(result));
        o.insert("scenario".to_owned(), scenario_desc(sc));
        o.insert("workload".to_owned(), self.workload.clone());
        self.store.store(&key, &Json::Obj(o));
    }

    /// Lifetime hit/miss/stale/write counters for this handle.
    #[must_use]
    pub fn counts(&self) -> CacheCounts {
        self.store.counts()
    }

    /// Keys this handle moved into `quarantine/` (bad entries found at
    /// lookup), for the supervisor's health report.
    #[must_use]
    pub fn quarantined_keys(&self) -> Vec<String> {
        self.store.quarantined_keys()
    }
}

/// The outcome of [`verify_cache`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Entries re-simulated and compared.
    pub checked: usize,
    /// Entries whose scenario or workload could not be rebuilt from the
    /// stored descriptor (custom configurations) — skipped, not failed.
    pub unverifiable: usize,
    /// Entry files that did not read back as valid envelopes.
    pub unreadable: usize,
    /// Entries whose fresh re-simulation differed from the stored result.
    pub divergent: Vec<CacheError>,
    /// Bad entries (unreadable or divergent) moved into `quarantine/`.
    pub quarantined: usize,
}

impl VerifyReport {
    /// Whether no divergence was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache verify: checked={} divergent={} unverifiable={} unreadable={} quarantined={}",
            self.checked,
            self.divergent.len(),
            self.unverifiable,
            self.unreadable,
            self.quarantined
        )
    }
}

/// Re-simulates up to `sample` cache entries (in key order, so the choice
/// is deterministic) across `threads` workers and compares the fresh
/// measurements with the stored ones. Entries from custom scenario or
/// workload configurations that cannot be rebuilt from their stored
/// descriptors — detected by recomputing the content key — are counted as
/// unverifiable and skipped.
///
/// # Errors
///
/// [`CacheError::Io`] when the cache directory cannot be read.
pub fn verify_cache(
    dir: impl Into<PathBuf>,
    sample: usize,
    threads: usize,
) -> Result<VerifyReport, CacheError> {
    let store = ResultCache::open(dir)?;
    let (entries, bad) = store.entries()?;
    let mut report = VerifyReport {
        unreadable: bad.len(),
        ..VerifyReport::default()
    };
    for e in &bad {
        eprintln!("warning: {e}");
        // Unreadable entry files are structurally bad: route them through
        // quarantine so the next sweep does not trip over them again.
        let path = match e {
            CacheError::Io { path, .. }
            | CacheError::Corrupt { path, .. }
            | CacheError::Schema { path, .. }
            | CacheError::KeyMismatch { path } => Some(path),
            CacheError::Divergence { .. } => None,
        };
        if let Some(path) = path {
            if !matches!(e, CacheError::Io { .. }) && store.quarantine_path(path, &e.to_string()) {
                report.quarantined += 1;
            }
        }
    }
    // Group verifiable entries by workload descriptor so each workload is
    // rebuilt (and each group fanned out) once.
    type Group = Vec<(Scenario, MeResult, CacheKey)>;
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for entry in entries.into_iter().take(sample) {
        let rebuilt = entry.payload.get("scenario").and_then(scenario_from_desc);
        let expected = entry.payload.get("result").and_then(me_result_from_json);
        let wl_desc = entry.payload.get("workload");
        match (rebuilt, expected, wl_desc) {
            (Some(sc), Some(exp), Some(wl)) => groups
                .entry(wl.to_string())
                .or_default()
                .push((sc, exp, entry.key)),
            _ => report.unverifiable += 1,
        }
    }
    for (wl_desc, group) in groups {
        let parsed = Json::parse(&wl_desc).ok();
        let Some(workload) = parsed.as_ref().and_then(workload_from_desc) else {
            report.unverifiable += group.len();
            continue;
        };
        let digest = workload_digest(&workload);
        // An entry whose recomputed key differs was written from a
        // configuration the descriptor cannot express — skip it instead
        // of reporting a spurious divergence.
        let (verifiable, skipped): (Group, Group) = group
            .into_iter()
            .partition(|(sc, _, key)| scenario_key(sc, digest) == *key);
        report.unverifiable += skipped.len();
        let scenarios: Vec<Scenario> = verifiable.iter().map(|(sc, _, _)| sc.clone()).collect();
        let fresh = run_scenario_list(&scenarios, &workload, threads, &|_| {});
        for ((sc, expected, key), fresh) in verifiable.into_iter().zip(fresh) {
            report.checked += 1;
            let detail = match fresh {
                Ok(got) if got == expected => continue,
                Ok(got) => format!(
                    "stored me_cycles={} stall_cycles={}, fresh me_cycles={} stall_cycles={}",
                    expected.me_cycles, expected.stall_cycles, got.me_cycles, got.stall_cycles
                ),
                Err(e) => format!("fresh run failed: {e}"),
            };
            if store.quarantine_key(&key, &detail) {
                report.quarantined += 1;
            }
            report.divergent.push(CacheError::Divergence {
                label: sc.label,
                key: key.hex(),
                detail,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_me;
    use crate::spec::{DcacheSpec, ExperimentSpec, ReconfigSpec, SweepAxes};
    use rvliw_isa::Substrate;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rvliw-core-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn me_result_json_roundtrips() {
        let w = Workload::tiny();
        let r = run_me(&Scenario::a2(), &w).unwrap();
        let j = me_result_to_json(&r);
        assert!(j.get("quality").is_none(), "exact results omit quality");
        assert_eq!(me_result_from_json(&j), Some(r.clone()));
        // And through a textual round-trip (what the disk sees).
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(me_result_from_json(&back), Some(r));
    }

    #[test]
    fn me_result_json_roundtrips_quality_bit_exactly() {
        let w = Workload::tiny();
        let sc = Scenario::a2().with_approx(mpeg4_enc::ApproxSad::SubsampledRows { step: 2 });
        let r = run_me(&sc, &w).unwrap();
        assert!(r.quality.is_some());
        let j = me_result_to_json(&r);
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(me_result_from_json(&back), Some(r));
    }

    #[test]
    fn scenario_descriptors_rebuild_presets() {
        let w = Workload::tiny();
        let digest = workload_digest(&w);
        let scenarios = [
            Scenario::orig(),
            Scenario::a3(),
            Scenario::loop_level(RfuBandwidth::B2x64, 5),
            Scenario::loop_two_lb(1),
            Scenario::loop_level(RfuBandwidth::B1x32, 1)
                .with_fault_plan(FaultPlan::from_profile(rvliw_fault::FaultProfile::Chaos, 7))
                .with_cycle_limit(1_000_000),
            Scenario::a3().with_approx(mpeg4_enc::ApproxSad::EarlyExit { threshold: 4096 }),
            Scenario::loop_level(RfuBandwidth::B1x64, 1)
                .with_approx(mpeg4_enc::ApproxSad::SubsampledRows { step: 2 })
                .with_search(mpeg4_enc::me::SearchAlgorithm::Spiral {
                    range: 8,
                    threshold: 256,
                }),
            Scenario::a2().with_substrate(Substrate::ScalarInOrder),
            Scenario::loop_level(RfuBandwidth::B2x64, 1).with_substrate(Substrate::ScalarInOrder),
            Scenario::loop_two_lb(5).with_lbb_bank_lines(17),
        ];
        // Points only a spec expresses: D$ geometry, reconfiguration and
        // prefetch-depth axes (dc=, rc=, pf=), alone and combined.
        let spec = ExperimentSpec::from_json_str(
            r#"{"name": "desc", "sweeps": [
                {"kind": "instruction", "variants": ["A1"], "prefetch": [null, 4],
                 "dcache": [null, "16k/2w"]},
                {"kind": "loop", "bandwidths": ["1x64"], "betas": [3],
                 "reconfig": [{"penalty": 0}, {"penalty": 100, "contexts": 2,
                               "prefetch_hiding": true}],
                 "prefetch": [null, 16], "dcache": ["64k/8w"]}
            ]}"#,
        )
        .unwrap();
        let from_spec = spec.scenarios().unwrap();
        assert_eq!(from_spec.len(), 8);
        for sc in scenarios.into_iter().chain(from_spec) {
            let desc = scenario_desc(&sc);
            let back = scenario_from_desc(&desc).unwrap();
            assert_eq!(back, sc, "descriptor must rebuild {}", sc.label);
            assert_eq!(scenario_key(&back, digest), scenario_key(&sc, digest));
        }
    }

    #[test]
    fn parent_format_descriptors_still_rebuild() {
        // Written before descriptors went through the axis table: the
        // line-buffer key is always present (null by default).
        let desc = Json::parse(
            r#"{"approx":"rows/2","bandwidth":"1x32","beta":1,"cycle_limit":null,
                "fault":{"bitflip_ppm":0,"flush_ppm":0,"lb_delay_max":0,"lb_delay_ppm":0,
                         "lb_stuck_ppm":0,"mem_latency_max":0,"mem_latency_ppm":0,"seed":0},
                "kind":"loop","label":"2LB b=1 lbb=17 ap=rows/2","lbb_bank_lines":17,
                "substrate":"scalar","two_lb":true}"#,
        )
        .unwrap();
        let mut want = Scenario::loop_two_lb(1)
            .with_lbb_bank_lines(17)
            .with_approx(mpeg4_enc::ApproxSad::SubsampledRows { step: 2 })
            .with_substrate(Substrate::ScalarInOrder);
        want.label = "2LB b=1 lbb=17 ap=rows/2".to_owned();
        assert_eq!(scenario_from_desc(&desc), Some(want));
        let desc = Json::parse(
            r#"{"cycle_limit":null,"fault":{"bitflip_ppm":0,"flush_ppm":0,"lb_delay_max":0,
                "lb_delay_ppm":0,"lb_stuck_ppm":0,"mem_latency_max":0,"mem_latency_ppm":0,
                "seed":0},"kind":"instruction","label":"Orig","lbb_bank_lines":null,
                "variant":"Orig"}"#,
        )
        .unwrap();
        assert_eq!(scenario_from_desc(&desc), Some(Scenario::orig()));
    }

    #[test]
    fn spec_axis_entries_are_verifiable() {
        let dir = tmpdir("axes");
        let w = Workload::tiny();
        let cache = ScenarioCache::open(&dir, &w, "tiny").unwrap();
        let mut sweep = SweepAxes::loop_grid(vec![RfuBandwidth::B1x32], vec![1]);
        if let SweepAxes::Loop {
            dcache, reconfig, ..
        } = &mut sweep
        {
            *dcache = vec![
                None,
                Some(DcacheSpec {
                    capacity_kb: 16,
                    ways: 2,
                }),
            ];
            *reconfig = vec![
                ReconfigSpec::zero(),
                ReconfigSpec {
                    penalty: 50,
                    contexts: 1,
                    prefetch_hiding: false,
                },
            ];
        }
        let scenarios = ExperimentSpec::new("axes")
            .sweep(sweep)
            .scenarios()
            .unwrap();
        for sc in &scenarios {
            cache.record(sc, &run_me(sc, &w).unwrap());
        }
        let report = verify_cache(&dir, 10, 1).unwrap();
        assert!(report.is_clean(), "divergent: {:?}", report.divergent);
        assert_eq!((report.checked, report.unverifiable), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_round_trip_and_verify() {
        let dir = tmpdir("roundtrip");
        let w = Workload::tiny();
        let cache = ScenarioCache::open(&dir, &w, "tiny").unwrap();
        let sc = Scenario::a1();
        assert!(cache.lookup(&sc).is_none());
        let fresh = run_me(&sc, &w).unwrap();
        cache.record(&sc, &fresh);
        assert_eq!(cache.lookup(&sc), Some(fresh));
        let c = cache.counts();
        assert_eq!((c.hits, c.misses, c.writes), (1, 1, 1));

        let report = verify_cache(&dir, 10, 1).unwrap();
        assert!(report.is_clean(), "divergent: {:?}", report.divergent);
        assert_eq!(report.checked, 1);
        assert_eq!(report.unverifiable, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_a_tampered_entry() {
        let dir = tmpdir("tamper");
        let w = Workload::tiny();
        let cache = ScenarioCache::open(&dir, &w, "tiny").unwrap();
        let sc = Scenario::a2();
        let mut fresh = run_me(&sc, &w).unwrap();
        fresh.me_cycles += 1; // stored result lies about the measurement
        cache.record(&sc, &fresh);
        let report = verify_cache(&dir, 10, 1).unwrap();
        assert_eq!(report.checked, 1);
        assert_eq!(report.divergent.len(), 1);
        assert!(matches!(report.divergent[0], CacheError::Divergence { .. }));
        // The lying entry was quarantined, so a second verify is clean.
        assert_eq!(report.quarantined, 1);
        assert!(dir.join("quarantine").is_dir());
        let again = verify_cache(&dir, 10, 1).unwrap();
        assert_eq!(again.checked, 0);
        assert!(again.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn custom_configurations_are_unverifiable_not_divergent() {
        let dir = tmpdir("custom");
        let w = Workload::tiny();
        let cache = ScenarioCache::open(&dir, &w, "tiny").unwrap();
        // A knob no spec axis expresses: the memory fill latency.
        let mut sc = Scenario::loop_two_lb(1);
        sc.mem.fill_latency += 1;
        sc.label = "custom-mem".to_owned();
        let fresh = run_me(&sc, &w).unwrap();
        cache.record(&sc, &fresh);
        // The entry is a perfectly good hit for the same scenario…
        assert_eq!(cache.lookup(&sc), Some(fresh));
        // …but verify cannot rebuild it, and must say so rather than
        // report a divergence.
        let report = verify_cache(&dir, 10, 1).unwrap();
        assert_eq!(report.checked, 0);
        assert_eq!(report.unverifiable, 1);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
