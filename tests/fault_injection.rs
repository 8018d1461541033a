//! The fault-injection harness end to end: the zero-fault plan is inert
//! (bit-identical tables), seeded fault runs are deterministic across
//! thread counts, a runaway scenario trips the cycle-budget watchdog, and
//! one failing scenario never perturbs the measurements of the others.

use rvliw::exp::{run_me, CaseStudy, Scenario, ScenarioError, Workload};
use rvliw::fault::{FaultPlan, FaultProfile};
use rvliw::sim::SimError;

/// The paper grid with every scenario under `plan`.
fn grid_under(plan: FaultPlan) -> Vec<Scenario> {
    CaseStudy::scenarios()
        .into_iter()
        .map(|sc| sc.with_fault_plan(plan))
        .collect()
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    let w = Workload::tiny();
    let plain = CaseStudy::run_scenarios(&CaseStudy::scenarios(), &w, 2, |_| {});
    let zero = CaseStudy::run_scenarios(&grid_under(FaultPlan::none()), &w, 2, |_| {});
    assert!(plain.is_complete() && zero.is_complete());
    assert_eq!(plain.orig, zero.orig);
    assert_eq!(plain.instr, zero.instr);
    assert_eq!(plain.loops, zero.loops);
    assert_eq!(plain.two_lb, zero.two_lb);
}

#[test]
fn seeded_fault_runs_are_deterministic_across_thread_counts() {
    let w = Workload::tiny();
    let grid = grid_under(FaultPlan::from_profile(FaultProfile::Chaos, 42));
    let serial = CaseStudy::run_scenarios(&grid, &w, 1, |_| {});
    let parallel = CaseStudy::run_scenarios(&grid, &w, 4, |_| {});
    // Substreams are derived from (seed, component, scenario label), so
    // which faults fire — and every resulting measurement or error — is
    // independent of thread scheduling.
    for (a, b) in serial.results().zip(parallel.results()) {
        assert_eq!(a, b);
    }
}

#[test]
fn runaway_scenario_trips_the_cycle_budget() {
    let w = Workload::tiny();
    let sc = Scenario::orig().with_cycle_limit(50);
    match run_me(&sc, &w) {
        Err(ScenarioError::Sim {
            source: SimError::CycleLimit { limit },
            ..
        }) => assert_eq!(limit, 50),
        other => panic!("expected CycleLimit, got {other:?}"),
    }
}

#[test]
fn failing_scenario_leaves_every_other_cell_bit_identical() {
    let w = Workload::tiny();
    let baseline = CaseStudy::run_scenarios(&CaseStudy::scenarios(), &w, 2, |_| {});
    // Poison one scenario (A2) with an impossible cycle budget.
    let mut scenarios = CaseStudy::scenarios();
    let poisoned = 2;
    scenarios[poisoned] = scenarios[poisoned].clone().with_cycle_limit(10);
    let cs = CaseStudy::run_scenarios(&scenarios, &w, 2, |_| {});

    assert!(!cs.is_complete());
    let failures = cs.failures();
    assert_eq!(failures.len(), 1);
    assert!(matches!(
        failures[0],
        ScenarioError::Sim {
            source: SimError::CycleLimit { .. },
            ..
        }
    ));

    for (i, (a, b)) in baseline.results().zip(cs.results()).enumerate() {
        if i == poisoned {
            assert!(b.is_err(), "slot {i} must hold the failure");
        } else {
            assert_eq!(a, b, "slot {i} must be bit-identical to the baseline");
        }
    }

    // Partial tables render, annotate the failure, and keep every
    // unaffected row.
    let t1 = cs.table1().to_string();
    assert!(
        t1.contains("[failed]"),
        "table 1 must annotate the failure:\n{t1}"
    );
    assert_eq!(cs.table1().rows.len(), 3, "Orig, A1, A3 rows survive");
    assert_eq!(cs.table2().rows.len(), 3, "loop tables unaffected");
    assert_eq!(cs.table7().rows.len(), 2, "two-LB tables unaffected");
}
