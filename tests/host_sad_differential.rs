//! Differential suite for the host `GetSad`: the row-slice
//! `mpeg4::sad::get_sad_approx` against the per-pixel definition kept in
//! `sad_reference`.
//!
//! 1. Random planes of random size, every interpolation kind and every
//!    approximation mode (`Exact`, `SubsampledRows{2,4}`,
//!    `ReducedPrecision{1..=4}`, `EarlyExit` with thresholds from 0 to
//!    `u32::MAX`), with candidates anywhere in the plane or ending exactly
//!    at its right edge, bottom edge or bottom-right corner.
//! 2. The same grid exhaustively on one plane pair, edges included.
//! 3. Subsampled and early-exit modes read only the rows they visit, so a
//!    vertical footprint that overhangs the bottom edge below the last
//!    visited row still gives the reference value.
//! 4. A footprint that overhangs the right or bottom edge by one column or
//!    row panics; it never wraps into the next row.
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

mod sad_reference;

use proptest::prelude::*;

use rvliw::mpeg4::sad::{get_sad, get_sad_approx, ApproxSad, InterpKind};
use rvliw::mpeg4::types::Plane;

const KINDS: [InterpKind; 4] = [
    InterpKind::None,
    InterpKind::H,
    InterpKind::V,
    InterpKind::Diag,
];

/// The largest plane the random cases draw.
const MAX_W: usize = 48;
const MAX_H: usize = 40;

/// Every approximation mode with its whole parameter range, plus the
/// early-exit thresholds at both ends of `u32`.
fn every_mode() -> Vec<ApproxSad> {
    let mut modes = vec![
        ApproxSad::Exact,
        ApproxSad::SubsampledRows { step: 2 },
        ApproxSad::SubsampledRows { step: 4 },
    ];
    modes.extend((1..=4).map(|bits| ApproxSad::ReducedPrecision { bits }));
    modes.extend(
        [0, 1, 255, 1_000, 4_000, 20_000, u32::MAX - 1, u32::MAX]
            .map(|threshold| ApproxSad::EarlyExit { threshold }),
    );
    modes
}

fn arb_mode() -> impl Strategy<Value = ApproxSad> {
    prop_oneof![
        Just(ApproxSad::Exact),
        prop_oneof![Just(2u8), Just(4u8)].prop_map(|step| ApproxSad::SubsampledRows { step }),
        (1u8..=4).prop_map(|bits| ApproxSad::ReducedPrecision { bits }),
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..5_000, any::<u32>(),]
            .prop_map(|threshold| ApproxSad::EarlyExit { threshold }),
    ]
}

/// Random samples for the largest plane; smaller planes use a prefix.
fn arb_pixels() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), MAX_W * MAX_H)
}

fn plane(w: usize, h: usize, pixels: &[u8]) -> Plane {
    Plane::from_data(w, h, pixels[..w * h].to_vec())
}

/// Places a `span`-wide footprint in `0..=extent - span`: anywhere
/// (`at_end == false`, position `frac` per mille) or flush with the end.
fn place(extent: usize, span: usize, frac: usize, at_end: bool) -> usize {
    let last = extent - span;
    if at_end {
        last
    } else {
        last * frac / 1000
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Row-slice and per-pixel SADs agree on random planes, kinds, modes
    /// and candidates, edge-flush candidates included.
    #[test]
    fn row_slices_match_the_per_pixel_reference(
        w in 17usize..=MAX_W,
        h in 17usize..=MAX_H,
        cur_px in arb_pixels(),
        prev_px in arb_pixels(),
        kind_ix in 0usize..4,
        approx in arb_mode(),
        fx in 0usize..=1000,
        fy in 0usize..=1000,
        frx in 0usize..=1000,
        fry in 0usize..=1000,
        edge in 0u8..4,
    ) {
        let kind = KINDS[kind_ix];
        let (cur, prev) = (plane(w, h, &cur_px), plane(w, h, &prev_px));
        let cx = place(w, kind.cols(), fx, edge & 1 == 1);
        let cy = place(h, kind.rows(), fy, edge & 2 == 2);
        let rx = place(w, 16, frx, false);
        let ry = place(h, 16, fry, false);
        prop_assert_eq!(
            get_sad_approx(&cur, rx, ry, &prev, cx, cy, kind, approx),
            sad_reference::get_sad_approx(&cur, rx, ry, &prev, cx, cy, kind, approx),
            "{}x{} {:?} {:?} ref ({}, {}) cand ({}, {})",
            w, h, kind, approx, rx, ry, cx, cy
        );
    }
}

/// Every kind × every mode × every candidate position on a 40×36 plane
/// pair, right and bottom edges included.
#[test]
fn every_kind_mode_and_position_matches_the_reference() {
    let (w, h) = (40, 36);
    let pixels = |salt: u32| -> Vec<u8> {
        (0..w * h)
            .map(|i| ((i as u32 ^ salt).wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    };
    let cur = Plane::from_data(w, h, pixels(0x5a5a));
    let prev = Plane::from_data(w, h, pixels(0x1234));
    for kind in KINDS {
        for approx in every_mode() {
            for cy in 0..=h - kind.rows() {
                for cx in 0..=w - kind.cols() {
                    let (rx, ry) = ((cx * 7) % (w - 15), (cy * 5) % (h - 15));
                    assert_eq!(
                        get_sad_approx(&cur, rx, ry, &prev, cx, cy, kind, approx),
                        sad_reference::get_sad_approx(&cur, rx, ry, &prev, cx, cy, kind, approx),
                        "{kind:?} {approx:?} ref ({rx}, {ry}) cand ({cx}, {cy})"
                    );
                }
            }
        }
    }
}

/// A vertical or diagonal footprint whose extra row lies below the plane
/// is never read when the mode stops before it: subsampled rows visit
/// rows `0, step, …` and their successors only, and an early exit after
/// the first row reads rows 0 and 1 only. Both bodies return the same
/// value rather than panicking.
#[test]
fn rows_past_the_last_visited_row_are_never_read() {
    let (w, h) = (32, 32);
    let cur = Plane::from_data(w, h, (0..w * h).map(|i| (i * 37 % 251) as u8).collect());
    let prev = Plane::from_data(w, h, (0..w * h).map(|i| (i * 11 % 253) as u8).collect());
    for kind in [InterpKind::V, InterpKind::Diag] {
        let cx = w - kind.cols();
        for approx in [
            ApproxSad::SubsampledRows { step: 2 },
            ApproxSad::SubsampledRows { step: 4 },
        ] {
            // The footprint's 17th row would be row `h`.
            let cy = h - 16;
            assert_eq!(
                get_sad_approx(&cur, 0, 0, &prev, cx, cy, kind, approx),
                sad_reference::get_sad_approx(&cur, 0, 0, &prev, cx, cy, kind, approx),
                "{kind:?} {approx:?}"
            );
        }
        // Only rows `cy` and `cy + 1` are read before the exit.
        let early = ApproxSad::EarlyExit { threshold: 0 };
        let cy = h - 2;
        let sad = get_sad_approx(&cur, 0, 0, &prev, cx, cy, kind, early);
        assert!(sad > 0, "{kind:?}: the first row must exceed threshold 0");
        assert_eq!(
            sad,
            sad_reference::get_sad_approx(&cur, 0, 0, &prev, cx, cy, kind, early),
            "{kind:?} early exit"
        );
    }
}

/// A 32×32 plane of a ramp: every row differs from the next, so a read
/// that wrapped into the next row would give a plausible, wrong SAD.
fn ramp() -> Plane {
    Plane::from_data(32, 32, (0..32 * 32).map(|i| (i % 251) as u8).collect())
}

#[test]
#[should_panic]
fn h_candidate_overhanging_the_right_edge_panics() {
    let p = ramp();
    let _ = get_sad(&p, 0, 0, &p, 32 - 16, 0, InterpKind::H);
}

#[test]
#[should_panic]
fn diag_candidate_overhanging_the_right_edge_panics() {
    let p = ramp();
    let _ = get_sad(&p, 0, 0, &p, 32 - 16, 0, InterpKind::Diag);
}

#[test]
#[should_panic]
fn v_candidate_overhanging_the_bottom_edge_panics() {
    let p = ramp();
    let _ = get_sad(&p, 0, 0, &p, 0, 32 - 16, InterpKind::V);
}

#[test]
#[should_panic]
fn diag_candidate_overhanging_the_bottom_edge_panics() {
    let p = ramp();
    let _ = get_sad(&p, 0, 0, &p, 0, 32 - 16, InterpKind::Diag);
}

#[test]
#[should_panic]
fn reference_block_overhanging_the_right_edge_panics() {
    let p = ramp();
    let _ = get_sad(&p, 32 - 15, 0, &p, 0, 0, InterpKind::None);
}
