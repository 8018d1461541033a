//! A workload holds only what the replay and the quality metrics read. A
//! derived workload shares the source planes of the workload that derived
//! it instead of copying them, and the process-wide derive memo keeps at
//! most `DERIVED_MEMO_BOUND` finished points, re-deriving an evicted one
//! exactly as before.
//!
//! No `unwrap`/`expect`: failures carry a labelled message.

use std::sync::Arc;

use rvliw::exp::workload::{Workload, DERIVED_MEMO_BOUND};
use rvliw::mpeg4::me::SearchAlgorithm;
use rvliw::mpeg4::ApproxSad;

#[test]
fn derived_workloads_share_the_source_planes() {
    let w = Workload::tiny();
    // A point no other test derives, so this base derives it first.
    let d = w.derived(
        ApproxSad::EarlyExit { threshold: 777 },
        Some(SearchAlgorithm::ThreeStep),
    );
    assert!(d.frames == w.frames, "derived source frames differ");
    for (t, (a, b)) in d.frames.iter().zip(&w.frames).enumerate() {
        for y in 0..a.y.height() {
            assert!(
                std::ptr::eq(a.y.row(y), b.y.row(y)),
                "frame {t}, luma row {y}: the derived workload holds a copy"
            );
        }
        for (name, p, q) in [("u", &a.u, &b.u), ("v", &a.v, &b.v)] {
            assert!(
                std::ptr::eq(p.data(), q.data()),
                "frame {t}: the derived workload holds a copy of {name}"
            );
        }
    }
    // A write to a clone copies the clone's samples, and only those.
    let original = w.frames[1].y.at(5, 5);
    let mut edited = d.frames[1].clone();
    edited.y.set(5, 5, original.wrapping_add(1));
    assert!(
        !std::ptr::eq(edited.y.data(), w.frames[1].y.data()),
        "the write went to shared storage"
    );
    assert_eq!(edited.y.at(5, 5), original.wrapping_add(1));
    assert_eq!(w.frames[1].y.at(5, 5), original, "the base plane changed");
    assert_eq!(
        d.frames[1].y.at(5, 5),
        original,
        "the derived plane changed"
    );
}

#[test]
fn the_derive_memo_stays_within_its_bound() {
    let w = Workload::tiny();
    // Twelve points no other test derives.
    let points: Vec<(ApproxSad, Option<SearchAlgorithm>)> = (0..12u32)
        .map(|i| {
            (
                ApproxSad::EarlyExit {
                    threshold: 5000 + 100 * i,
                },
                None,
            )
        })
        .collect();
    assert!(points.len() > DERIVED_MEMO_BOUND);
    let (approx, search) = points[0];
    let first = w.derived(approx, search);
    let first_debug = format!("{first:?}");
    let first_weak = Arc::downgrade(&first);
    drop(first);
    for &(approx, search) in &points[1..] {
        drop(w.derived(approx, search));
        let resident = Workload::derived_memo_len();
        assert!(
            resident <= DERIVED_MEMO_BOUND,
            "{resident} derived workloads resident, bound {DERIVED_MEMO_BOUND}"
        );
    }
    assert!(
        first_weak.upgrade().is_none(),
        "the least recently used point outlived its eviction"
    );
    let again = w.derived(approx, search);
    assert!(
        format!("{again:?}") == first_debug,
        "a point re-derived after eviction differs from its first derive"
    );
    assert!(Workload::derived_memo_len() <= DERIVED_MEMO_BOUND);
}
