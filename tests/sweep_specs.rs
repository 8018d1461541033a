//! The checked-in `specs/` files against the built-in paper grid, and the
//! sweep engine's determinism guarantees.
//!
//! These are the behavior-preservation proofs for the spec-driven layer:
//! the seven `table*.json` specs union to exactly the built-in grid,
//! running them yields a bit-identical `TablesSnapshot`, the off-grid
//! example spec runs deterministically across thread counts, every
//! checked-in spec parses and expands, and the ablation specs expand to
//! the ablation scenarios they declare.

use std::path::{Path, PathBuf};

use rvliw::exp::explore::AXES;
use rvliw::exp::{
    CaseStudy, ExperimentSpec, ExploreSpec, Scenario, SpecError, Sweep, SweepAxes, TablesSnapshot,
    Workload,
};
use rvliw::rfu::{ReconfigModel, RfuBandwidth};

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs")
}

fn spec_text(name: &str) -> String {
    let path = specs_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn load_spec(name: &str) -> ExperimentSpec {
    ExperimentSpec::from_json_str(&spec_text(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn table_specs() -> Vec<ExperimentSpec> {
    (1..=7)
        .map(|i| load_spec(&format!("table{i}.json")))
        .collect()
}

/// The union of the seven table specs is exactly the built-in grid: same
/// labels, same order (after canonical reordering), same configuration.
#[test]
fn table_specs_union_to_the_paper_grid() {
    let mut by_label: Vec<Scenario> = Vec::new();
    for spec in table_specs() {
        assert_eq!(spec.frames, 25, "{}: paper tables use 25 frames", spec.name);
        assert_eq!(spec.baseline.as_deref(), Some("Orig"), "{}", spec.name);
        for sc in spec.scenarios().expect("table specs expand") {
            match by_label.iter().find(|s| s.label == sc.label) {
                None => by_label.push(sc),
                Some(existing) => {
                    assert_eq!(*existing, sc, "specs disagree about `{}`", existing.label)
                }
            }
        }
    }
    let canonical = CaseStudy::scenarios();
    assert_eq!(
        canonical
            .iter()
            .map(|s| s.label.as_str())
            .collect::<Vec<_>>(),
        [
            "Orig", "A1", "A2", "A3", "1x32 b=1", "1x32 b=5", "1x64 b=1", "1x64 b=5", "2x64 b=1",
            "2x64 b=5", "2LB b=1", "2LB b=5"
        ],
        "the canonical grid order is load-bearing (snapshot keys, fault salts)"
    );
    assert_eq!(by_label.len(), canonical.len());
    for want in &canonical {
        let got = by_label
            .iter()
            .find(|s| s.label == want.label)
            .unwrap_or_else(|| panic!("specs miss `{}`", want.label));
        assert_eq!(got, want, "spec scenario `{}` drifted", want.label);
    }
}

/// Spec-driven tables are bit-identical to the built-in grid on a tiny
/// workload. On the full 25-frame workload the built-in grid is pinned to
/// `BENCH_tables.json` by `tests/reproduction.rs`, and the specs equal
/// that grid scenario for scenario (the test above).
#[test]
fn spec_driven_tables_match_builtin_grid_bit_for_bit() {
    let workload = Workload::tiny();
    // The specs' scenarios in the built-in grid's order, which the tables
    // need: each spec carries ORIG, so take every label's first copy.
    let expanded: Vec<Scenario> = table_specs()
        .iter()
        .flat_map(|spec| spec.scenarios().expect("table specs expand"))
        .collect();
    let grid: Vec<Scenario> = CaseStudy::scenarios()
        .iter()
        .map(|want| {
            expanded
                .iter()
                .find(|s| s.label == want.label)
                .cloned()
                .unwrap_or_else(|| panic!("specs miss `{}`", want.label))
        })
        .collect();
    let from_specs = CaseStudy::run_scenarios(&grid, &workload, 2, |_| {});
    let builtin = CaseStudy::run_scenarios(&CaseStudy::scenarios(), &workload, 1, |_| {});
    assert!(from_specs.is_complete() && builtin.is_complete());
    assert_eq!(
        TablesSnapshot::capture(&from_specs).cells,
        TablesSnapshot::capture(&builtin).cells
    );
}

/// The off-grid example spec runs end-to-end and is bit-identical across
/// thread counts.
#[test]
fn offgrid_spec_runs_deterministically_across_thread_counts() {
    let spec = load_spec("offgrid_beta_sweep.json");
    let sweep = Sweep::expand(spec).expect("off-grid spec expands");
    // 1 ORIG + 8 betas at 2x64.
    assert_eq!(sweep.scenarios().len(), 9);
    let workload = Workload::tiny();
    let serial = sweep.run(&workload, 1, |_| {});
    let parallel = sweep.run(&workload, 4, |_| {});
    assert!(serial.is_complete(), "off-grid sweep must complete");
    assert_eq!(serial.to_json_string(), parallel.to_json_string());
    // Higher β slows the RFU: me_cycles must be non-decreasing in β.
    let cycles: Vec<u64> = serial.rows[1..]
        .iter()
        .map(|r| r.result.as_ref().expect("loop point runs").me_cycles)
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[0] <= w[1]),
        "me_cycles not monotone in beta: {cycles:?}"
    );
}

/// Duplicate labels across a single spec's sweeps are a typed error.
#[test]
fn duplicate_labels_are_a_typed_error() {
    let spec = ExperimentSpec::new("dup")
        .sweep(SweepAxes::loop_two_lb(vec![1]))
        .sweep(SweepAxes::loop_two_lb(vec![1]));
    assert_eq!(
        spec.scenarios().unwrap_err(),
        SpecError::DuplicateLabel {
            label: "2LB b=1".to_owned()
        }
    );
}

/// Every checked-in spec parses and expands: `explore_*.json` as an
/// exploration (whose first and last candidates are runnable one-point
/// sweeps), everything else but the golden frontier as an experiment.
#[test]
fn every_checked_in_spec_parses_and_expands() {
    let mut names: Vec<String> = std::fs::read_dir(specs_dir())
        .expect("specs/ is readable")
        .map(|e| {
            e.expect("specs/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".json") && !n.ends_with("_frontier.json"))
        .collect();
    names.sort();
    assert!(names.len() >= 13, "specs/ lost files: {names:?}");
    for name in &names {
        if name.starts_with("explore_") {
            let spec = ExploreSpec::from_json_str(&spec_text(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let lens = spec.space.lens();
            assert!(spec.space.size() > 0, "{name}: empty space");
            let last: Vec<usize> = lens.iter().map(|n| n - 1).collect();
            for candidate in [vec![0; AXES], last] {
                let point = spec
                    .point_spec(&candidate)
                    .unwrap_or_else(|| panic!("{name}: no point spec for {candidate:?}"));
                let scenarios = point.scenarios().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(scenarios.len(), 1, "{name}: {candidate:?}");
            }
        } else {
            let spec = load_spec(name);
            let scenarios = spec.scenarios().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!scenarios.is_empty(), "{name}: no scenarios");
            if let Some(base) = &spec.baseline {
                assert!(
                    scenarios.iter().any(|s| &s.label == base),
                    "{name}: baseline `{base}` is not one of its scenarios"
                );
            }
        }
    }
}

/// Asserts `spec` expands to `want` in order, comparing configurations
/// with the labels set aside.
fn assert_expands_to(spec: &ExperimentSpec, want: &[Scenario]) {
    let got = spec.scenarios().expect("ablation spec expands");
    assert_eq!(got.len(), want.len(), "{}: point count", spec.name);
    for (got, want) in got.iter().zip(want) {
        let mut unlabelled = got.clone();
        unlabelled.label.clone_from(&want.label);
        assert_eq!(
            &unlabelled, want,
            "{}: point `{}` drifted",
            spec.name, got.label
        );
    }
}

/// The reconfiguration ablation: zero penalty, then each penalty at one
/// and four resident contexts and with configuration prefetch hiding.
#[test]
fn ablation_reconfig_spec_expands_to_the_penalty_grid() {
    let spec = load_spec("ablation_reconfig.json");
    assert_eq!((spec.frames, spec.baseline.as_deref()), (4, Some("Orig")));
    let base = || Scenario::loop_level(RfuBandwidth::B1x32, 1);
    let mut want = vec![Scenario::orig(), base()];
    for penalty in [128, 512, 2048] {
        for contexts in [1, 4] {
            want.push(base().with_reconfig(ReconfigModel::with_penalty(penalty, contexts)));
        }
        want.push(
            base().with_reconfig(ReconfigModel::with_penalty(penalty, 1).with_prefetch_hiding()),
        );
    }
    assert_expands_to(&spec, &want);
}

/// The local-memory ablation: Line Buffer B lines per bank under the
/// two-line-buffer scheme, then prefetch-buffer depth at loop 1x32.
#[test]
fn ablation_linebuffer_spec_expands_to_the_sizing_grid() {
    let spec = load_spec("ablation_linebuffer.json");
    assert_eq!((spec.frames, spec.baseline.as_deref()), (4, Some("Orig")));
    let mut want = vec![Scenario::orig()];
    for lines in [8, 17, 34, 68] {
        want.push(Scenario::loop_two_lb(1).with_lbb_bank_lines(lines));
    }
    for entries in [8, 16, 64] {
        let mut sc = Scenario::loop_level(RfuBandwidth::B1x32, 1);
        sc.mem.prefetch_entries = entries;
        want.push(sc);
    }
    assert_expands_to(&spec, &want);
}
