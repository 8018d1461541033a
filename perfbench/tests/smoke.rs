//! A tiny-workload smoke run: the traced replay's stats equal `run_me`'s
//! field for field, on every scenario kind the workloads use.

use std::time::Instant;

use mpeg4_enc::ApproxSad;
use perfbench::replay::replay_list;
use rvliw_core::{run_scenario_list, CaseStudy, Scenario, Substrate, Workload};
use rvliw_rfu::RfuBandwidth;

fn scenarios() -> Vec<Scenario> {
    let mut list = CaseStudy::scenarios();
    list.push(Scenario::loop_two_lb(3).with_lbb_bank_lines(17));
    list.push(
        Scenario::loop_level(RfuBandwidth::B1x64, 3)
            .with_approx(ApproxSad::SubsampledRows { step: 2 }),
    );
    list.push(
        Scenario::loop_level(RfuBandwidth::B2x64, 1).with_substrate(Substrate::ScalarInOrder),
    );
    list.push(Scenario::a3().with_approx(ApproxSad::ReducedPrecision { bits: 2 }));
    list
}

#[test]
fn traced_replay_equals_run_me() {
    let w = Workload::tiny();
    let list = scenarios();
    let expected = run_scenario_list(&list, &w, 1, &|_| {});
    for threads in [1, 2] {
        let (results, trace, totals) = replay_list(&list, &w, threads, Instant::now());
        assert_eq!(results, expected, "{threads} thread(s)");
        // One span tree per scenario, tagged with its index.
        let roots: Vec<u64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == "scenario")
            .map(|s| s.id)
            .collect();
        assert_eq!(roots.len(), list.len());
        let calls: u64 = expected.iter().map(|r| r.as_ref().unwrap().calls).sum();
        assert_eq!(totals.call_ns.len() as u64, calls);
        assert_eq!(totals.session_builds, list.len() as u64);
        assert!(totals.runs > calls, "loop-level preps run too");
        let st = trace.self_times();
        for name in ["session.build", "kernels.build", "sim.replay", "sim.run"] {
            assert!(st[name] > 0.0, "{name}");
        }
    }
}
