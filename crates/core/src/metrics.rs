//! Machine-readable run reports: the golden table snapshot and the
//! `--metrics-out` envelope.
//!
//! [`TablesSnapshot`] flattens every integer cell of Tables 1–7 (cycle
//! counts, stall counts, static latencies) into named cells that serialize
//! to JSON and compare exactly. The floating-point columns of the tables
//! (speedups, shares, reductions) are ratios of these integers, so an
//! integer-only comparison is a complete drift detector while staying
//! bit-exact across platforms.
//!
//! The `rvliw tables --check BENCH_tables.json` regression gate diffs the
//! snapshot of the run it prints against the committed one; any difference
//! fails CI.
//!
//! [`RunMetrics`] is the one `--metrics-out` document of `rvliw tables`,
//! `rvliw sweep` and `rvliw explore`. It serializes the results the run
//! already holds, so writing it simulates nothing.

use std::collections::BTreeMap;

use rvliw_trace::Json;

use crate::cache::{me_result_to_json, ScenarioCache};
use crate::runner::MeResult;
use crate::supervisor::HealthReport;
use crate::sweep::{fnum, ScenarioResult};
use crate::tables::CaseStudy;

/// Every integer cell of Tables 1–7, keyed by a stable `table/row/column`
/// path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TablesSnapshot {
    /// Cell path → value. Sorted by path for stable serialization.
    pub cells: BTreeMap<String, u64>,
}

impl TablesSnapshot {
    /// Captures the integer cells of every table of `cs`.
    #[must_use]
    pub fn capture(cs: &CaseStudy) -> Self {
        let mut cells = BTreeMap::new();
        let mut put = |k: String, v: u64| {
            cells.insert(k, v);
        };

        put("workload/calls".into(), cs.calls);
        put("workload/stride".into(), u64::from(cs.stride));

        let t1 = cs.table1();
        for r in &t1.rows {
            put(format!("table1/{}/cycles", r.name), r.cycles);
        }

        let t2 = cs.table2();
        put("table2/Orig/cycles".into(), t2.orig_cycles);
        for r in &t2.rows {
            let bw = r.bw.label();
            put(format!("table2/{bw}/b1/lat"), r.lat_b1);
            put(format!("table2/{bw}/b1/cycles"), r.cycles_b1);
            put(format!("table2/{bw}/b5/lat"), r.lat_b5);
            put(format!("table2/{bw}/b5/cycles"), r.cycles_b5);
        }

        let t3 = cs.table3();
        for r in &t3.rows {
            let bw = r.bw.label();
            put(format!("table3/{bw}/lat_b1"), r.lat_b1);
            put(format!("table3/{bw}/lat_b5"), r.lat_b5);
        }

        let t4 = cs.table4();
        put("table4/Orig/stalls".into(), t4.orig_stalls);
        for r in &t4.rows {
            let bw = r.bw.label();
            put(format!("table4/{bw}/b1/stalls"), r.stalls_b1);
            put(format!("table4/{bw}/b5/stalls"), r.stalls_b5);
        }

        let t6 = cs.table6();
        for r in &t6.rows {
            put(
                format!("table6/b{}/{}/static_cycles", r.beta, r.bw.label()),
                r.static_cycles,
            );
        }

        let t7 = cs.table7();
        put("table7/Orig/cycles".into(), t7.orig_cycles);
        put("table7/Orig/stalls".into(), t7.orig_stalls);
        for r in &t7.rows {
            put(format!("table7/b{}/lat", r.beta), r.lat);
            put(format!("table7/b{}/ex_cycles", r.beta), r.ex_cycles);
            put(format!("table7/b{}/stalls", r.beta), r.stalls);
        }

        TablesSnapshot { cells }
    }

    /// Serializes the snapshot as a JSON object (cell path → integer).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.cells
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(v.to_string())))
                .collect(),
        )
    }

    /// Reads a snapshot back from the JSON produced by
    /// [`TablesSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending cell when the value is not an
    /// object of unsigned integers.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let Json::Obj(m) = json else {
            return Err("tables snapshot must be a JSON object".into());
        };
        let mut cells = BTreeMap::new();
        for (k, v) in m {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("cell `{k}` is not an unsigned integer"))?;
            cells.insert(k.clone(), n);
        }
        Ok(TablesSnapshot { cells })
    }

    /// Compares `self` (freshly measured) against `baseline` (committed).
    /// Returns one human-readable line per drifted, missing or unexpected
    /// cell; empty means bit-identical.
    #[must_use]
    pub fn diff(&self, baseline: &TablesSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        for (k, base) in &baseline.cells {
            match self.cells.get(k) {
                None => out.push(format!("{k}: missing from fresh run (baseline {base})")),
                Some(fresh) if fresh != base => {
                    let delta = *fresh as i128 - *base as i128;
                    out.push(format!(
                        "{k}: baseline {base}, measured {fresh} ({delta:+})"
                    ));
                }
                Some(_) => {}
            }
        }
        for k in self.cells.keys() {
            if !baseline.cells.contains_key(k) {
                out.push(format!("{k}: not present in baseline"));
            }
        }
        out
    }
}

/// The `--metrics-out` envelope shared by `rvliw tables`, `rvliw sweep` and
/// `rvliw explore`:
///
/// ```json
/// {"schema": 1, "scenarios": {"<label>": <MeResult>, …}, …}
/// ```
///
/// Each `"scenarios"` entry is [`me_result_to_json`] of one successful
/// result — the bytes the result cache stores, so
/// [`me_result_from_json`](crate::cache::me_result_from_json) decodes it
/// back to exactly that result. Failed scenarios have no entry; the
/// `"health"` report counts them. Results carrying speed-vs-quality
/// metrics also fill a top-level `"quality"` object (label →
/// `sad_inflation`, `psnr_delta_db`). `"cache"`, `"health"` and any
/// command-specific key are added by the caller.
#[derive(Debug, Default)]
pub struct RunMetrics {
    results: Vec<MeResult>,
    top: BTreeMap<String, Json>,
}

impl RunMetrics {
    /// The envelope's `"schema"` version.
    pub const SCHEMA: u64 = 1;

    /// An envelope with no scenarios and no extra keys.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every successful result, keyed by its label.
    #[must_use]
    pub fn results<'a>(mut self, results: impl IntoIterator<Item = &'a ScenarioResult>) -> Self {
        self.results
            .extend(results.into_iter().filter_map(|r| r.as_ref().ok()).cloned());
        self
    }

    /// Adds the run's cache counters as `"cache"` (nothing without a
    /// cache).
    #[must_use]
    pub fn cache(self, cache: Option<&ScenarioCache>) -> Self {
        match cache {
            Some(c) => self.insert("cache", c.counts().to_json()),
            None => self,
        }
    }

    /// Adds the run's supervision report as `"health"`.
    #[must_use]
    pub fn health(self, health: &HealthReport) -> Self {
        self.insert("health", health.to_json())
    }

    /// Adds a command-specific top-level key.
    #[must_use]
    pub fn insert(mut self, key: &str, value: Json) -> Self {
        self.top.insert(key.to_owned(), value);
        self
    }

    /// The envelope as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = self.top.clone();
        o.insert("schema".to_owned(), Json::Num(Self::SCHEMA.to_string()));
        let scenarios = self
            .results
            .iter()
            .map(|r| (r.label.clone(), me_result_to_json(r)))
            .collect();
        o.insert("scenarios".to_owned(), Json::Obj(scenarios));
        if let Some(q) = quality_json(&self.results) {
            o.insert("quality".to_owned(), q);
        }
        Json::Obj(o)
    }

    /// Writes the envelope to `path` as one line of JSON.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }
}

/// The top-level `"quality"` object of a run: label → `sad_inflation`,
/// `psnr_delta_db` for every result carrying speed-vs-quality metrics.
/// `None` when no result does — the exact paper grid never does, which
/// keeps golden reports byte-stable.
#[must_use]
pub fn quality_json<'a>(results: impl IntoIterator<Item = &'a MeResult>) -> Option<Json> {
    let items: BTreeMap<String, Json> = results
        .into_iter()
        .filter_map(|r| {
            let q = r.quality?;
            let mut o = BTreeMap::new();
            o.insert("sad_inflation".to_owned(), fnum(q.sad_inflation));
            o.insert("psnr_delta_db".to_owned(), fnum(q.psnr_delta_db));
            Some((r.label.clone(), Json::Obj(o)))
        })
        .collect();
    (!items.is_empty()).then_some(Json::Obj(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn snapshot_roundtrips_and_diffs() {
        let cs = CaseStudy::run(&Workload::tiny());
        let snap = TablesSnapshot::capture(&cs);
        assert!(snap.cells.len() > 30, "all tables contribute cells");
        assert!(snap.cells.contains_key("table1/Orig/cycles"));
        assert!(snap.cells.contains_key("table7/b5/ex_cycles"));

        let json = snap.to_json();
        let back = TablesSnapshot::from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert!(snap.diff(&back).is_empty());

        let mut drifted = snap.clone();
        *drifted.cells.get_mut("table1/Orig/cycles").unwrap() += 1;
        drifted.cells.remove("table7/b5/stalls");
        drifted.cells.insert("table9/bogus".into(), 1);
        let d = drifted.diff(&snap);
        assert_eq!(d.len(), 3);
        assert!(d.iter().any(|l| l.contains("(+1)")));
    }

    #[test]
    fn from_json_rejects_non_integer_cells() {
        let j = Json::parse(r#"{"a": "x"}"#).unwrap();
        assert!(TablesSnapshot::from_json(&j).is_err());
        let j = Json::parse("[1,2]").unwrap();
        assert!(TablesSnapshot::from_json(&j).is_err());
    }
}
