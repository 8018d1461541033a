//! End-to-end reproduction bands: on a reduced workload, the measured
//! results must show the qualitative shape of the paper's Tables 1–7.
//!
//! The full 25-frame run (and the exact paper-vs-measured comparison) is
//! produced by `cargo run --release -p rvliw-bench --bin tables`; these
//! tests guard the shape on every `cargo test`.

use rvliw::exp::{CaseStudy, TablesSnapshot, Workload, GETSAD_SHARE_ORIG};
use rvliw::trace::Json;

fn case_study() -> CaseStudy {
    // QCIF, 2 frames: ~3000 GetSad calls — small enough for debug-mode CI,
    // large enough for stable ratios.
    let w = Workload::qcif_frames(2);
    CaseStudy::run(&w)
}

#[test]
fn tables_1_through_7_have_the_papers_shape() {
    let cs = case_study();

    // --- Table 1: Orig < A1 ≤ A2 ≤ A3, all modest (< 2x). --------------
    let t1 = cs.table1();
    assert_eq!(t1.rows[0].name, "Orig");
    let (a1, a2, a3) = (
        t1.rows[1].improvement,
        t1.rows[2].improvement,
        t1.rows[3].improvement,
    );
    assert!(a1 > 0.05, "A1 improves: {a1}");
    assert!(
        a1 <= a2 + 0.02 && a2 <= a3 + 0.02,
        "ordering {a1} {a2} {a3}"
    );
    assert!(
        t1.rows[3].speedup < 2.0,
        "instruction-level stays marginal (paper: 1-2x)"
    );

    // --- Table 2: loop-level 3-8x, increasing with bandwidth. -----------
    let t2 = cs.table2();
    assert!(
        t2.rows[0].speedup_b1 > 2.0,
        "1x32 {}",
        t2.rows[0].speedup_b1
    );
    assert!(t2.rows[0].speedup_b1 < t2.rows[1].speedup_b1);
    assert!(t2.rows[1].speedup_b1 < t2.rows[2].speedup_b1);
    // The kernel-loop approach dwarfs the instruction-level one.
    assert!(t2.rows[0].speedup_b1 > t1.rows[3].speedup * 1.5);

    // --- Table 3: the fixed +12 cycles hurts high bandwidth more. -------
    let t3 = cs.table3();
    for r in &t3.rows {
        assert_eq!(r.lat_b5 - r.lat_b1, 12);
        assert!(r.pct_speedup_reduction < 0.0, "β slows things down");
    }
    assert!(
        t3.rows[2].pct_speedup_reduction < t3.rows[0].pct_speedup_reduction,
        "2x64 loses more speedup than 1x32"
    );

    // --- Table 4: stalls grow with bandwidth (narrower prefetch window).
    let t4 = cs.table4();
    assert!(t4.rows[0].stalls_b1 <= t4.rows[1].stalls_b1);
    assert!(t4.rows[1].stalls_b1 <= t4.rows[2].stalls_b1);

    // --- Table 5: ORIG stall share near the paper's 1.96 %. -------------
    let t5 = cs.table5();
    assert!(
        (0.005..=0.06).contains(&t5.orig_share),
        "orig stall share {:.3}",
        t5.orig_share
    );

    // --- Table 6: measured ≤ theoretical; ratio worsens with bandwidth. -
    let t6 = cs.table6();
    for r in &t6.rows {
        assert!(r.ratio <= 1.0 + 1e-9 && r.ratio > 0.57, "ratio {}", r.ratio);
    }
    let b1: Vec<f64> = t6
        .rows
        .iter()
        .filter(|r| r.beta == 1)
        .map(|r| r.ratio)
        .collect();
    assert!(b1[0] >= b1[2], "accuracy drops as bandwidth grows: {b1:?}");

    // --- Table 7: two line buffers are the best point; %Rel collapses. --
    let t7 = cs.table7();
    assert!(t7.rows[0].speedup > t2.rows[0].speedup_b1);
    assert!(t7.rows[0].speedup > 5.0, "2LB b=1 {}", t7.rows[0].speedup);
    assert!(t7.rows[1].speedup > 3.5, "2LB b=5 {}", t7.rows[1].speedup);
    assert!((t7.orig_rel_share - GETSAD_SHARE_ORIG).abs() < 1e-6);
    assert!(t7.rows[0].rel_share < 0.08, "%Rel {}", t7.rows[0].rel_share);
    assert!(
        t7.rows[0].stall_reduction > 0.5,
        "stall reduction {}",
        t7.rows[0].stall_reduction
    );
}

#[test]
fn reference_prefetches_are_rarely_late() {
    // The paper: "the number of late and incomplete prefetch operations is
    // relatively low (<1%)" for the reference macroblock gathers.
    let w = Workload::qcif_frames(2);
    let r = rvliw::exp::run_me(&rvliw::exp::Scenario::loop_two_lb(1), &w)
        .expect("scenario replay succeeds");
    let late_rate = r.rfu.lba_waits as f64 / r.rfu.mb_prefetches.max(1) as f64 / 16.0;
    assert!(late_rate < 0.02, "late reference rows: {late_rate:.4}");
}

/// Golden exact-cycle test: every integer cell of Tables 1–7 on the full
/// 25-frame workload must bit-match the `"tables"` snapshot committed in
/// `BENCH_tables.json` (the same baseline `tables --check` gates CI on).
/// The simulation is fully deterministic, so any drift is a semantic
/// change that must be reviewed and re-baselined deliberately.
#[test]
fn tables_bit_match_the_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_tables.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_tables.json");
    let json = Json::parse(&text).expect("BENCH_tables.json is valid JSON");
    let baseline = TablesSnapshot::from_json(
        json.get("tables")
            .expect("BENCH_tables.json has a \"tables\" snapshot"),
    )
    .expect("snapshot well-formed");

    let cs = CaseStudy::run(&Workload::paper_shared());
    let drift = TablesSnapshot::capture(&cs).diff(&baseline);
    assert!(
        drift.is_empty(),
        "{} table cell(s) drifted from the committed baseline:\n{}",
        drift.len(),
        drift.join("\n")
    );
}

#[test]
fn workload_diag_share_matches_paper_sequence() {
    let w = Workload::qcif_frames(4);
    let d = w.diag_share();
    assert!(
        (0.10..=0.25).contains(&d),
        "diag share {d:.3} (paper ≈ 0.18)"
    );
}
