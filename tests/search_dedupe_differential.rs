//! The motion search dedupes candidates with a stamped open-addressing
//! set that one encode reuses for every macroblock. This suite pins the
//! `GetSad` trace it produces to the original search, kept verbatim
//! below as the reference model, which dedupes with a fresh
//! `std::collections::HashSet` per macroblock. Every macroblock of a real
//! encode is re-searched by the reference on the same reconstructed
//! reference frame and median prediction, for every search algorithm,
//! with and without half-sample refinement, under every SAD
//! approximation. The set itself is also driven directly against a
//! `HashSet` with colliding keys, growth and reuse, which a search trace
//! alone exercises only sparsely (multiplicative hashing spreads a search
//! pattern's keys so evenly that they rarely collide).
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

use std::collections::HashSet;

use rvliw::mpeg4::me::{SadCall, SearchAlgorithm, VisitedSet};
use rvliw::mpeg4::sad::{candidate_fits, get_sad_approx, interp_mode_of, ApproxSad};
use rvliw::mpeg4::types::{Mv, Plane};
use rvliw::mpeg4::{Encoder, EncoderConfig, MotionSearch, SyntheticSequence};

/// Macroblock edge.
const MB: usize = 16;

/// The reference search state: a per-macroblock `HashSet` dedupe.
struct RefCtx<'a> {
    cur: &'a Plane,
    prev: &'a Plane,
    rx: usize,
    ry: usize,
    approx: ApproxSad,
    visited: HashSet<(i32, i32)>,
    calls: Vec<SadCall>,
    best: (Mv, u32),
}

impl RefCtx<'_> {
    fn try_mv(&mut self, mv: Mv) -> Option<u32> {
        let key = (i32::from(mv.x), i32::from(mv.y));
        if !self.visited.insert(key) {
            return None;
        }
        let kind = interp_mode_of(mv);
        let (ix, iy) = mv.int_part();
        let cx = self.rx as isize + isize::from(ix);
        let cy = self.ry as isize + isize::from(iy);
        if !candidate_fits(self.prev, cx, cy, kind) {
            return None;
        }
        let (cx, cy) = (cx as usize, cy as usize);
        let sad = get_sad_approx(
            self.cur,
            self.rx,
            self.ry,
            self.prev,
            cx,
            cy,
            kind,
            self.approx,
        );
        // The candidate lies inside `prev`, far below 65,536 px per side.
        let (cx, cy) = (cx as u16, cy as u16);
        self.calls.push(SadCall { cx, cy, kind, sad });
        if sad < self.best.1 {
            self.best = (mv, sad);
        }
        Some(sad)
    }
}

/// The reference `search_mb`: returns the chosen vector and the trace.
fn reference_search(
    ms: &MotionSearch,
    cur: &Plane,
    prev: &Plane,
    mbx: usize,
    mby: usize,
    pred: Mv,
) -> (Mv, Vec<SadCall>) {
    let mut ctx = RefCtx {
        cur,
        prev,
        rx: mbx * MB,
        ry: mby * MB,
        approx: ms.approx,
        visited: HashSet::new(),
        calls: Vec::new(),
        best: (Mv::default(), u32::MAX),
    };
    let _ = ctx.try_mv(Mv::default());
    let (px, py) = pred.int_part();
    let start = Mv::from_int(px, py);
    let _ = ctx.try_mv(start);
    let center = if ctx.best.0 == start {
        start
    } else {
        Mv::default()
    };
    match ms.algorithm {
        SearchAlgorithm::Full { range } => {
            for dy in -range..=range {
                for dx in -range..=range {
                    let _ = ctx.try_mv(Mv::from_int(dx, dy));
                }
            }
        }
        SearchAlgorithm::ThreeStep => {
            let mut center = center;
            for step in [4i16, 2, 1] {
                let mut best = center;
                for dy in [-step, 0, step] {
                    for dx in [-step, 0, step] {
                        let mv = Mv::new(center.x + dx * 2, center.y + dy * 2);
                        if ctx.try_mv(mv).is_some() && ctx.best.0 == mv {
                            best = mv;
                        }
                    }
                }
                center = best;
            }
        }
        SearchAlgorithm::Diamond => {
            const LDSP: [(i16, i16); 8] = [
                (0, -2),
                (1, -1),
                (2, 0),
                (1, 1),
                (0, 2),
                (-1, 1),
                (-2, 0),
                (-1, -1),
            ];
            const SDSP: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
            let mut center = center;
            let _ = ctx.try_mv(center);
            for _round in 0..32 {
                for (dx, dy) in LDSP {
                    let _ = ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
                }
                let best = ctx.best.0;
                if best == center {
                    break;
                }
                center = best;
            }
            for (dx, dy) in SDSP {
                let _ = ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
            }
        }
        SearchAlgorithm::Spiral { range, threshold } => {
            'outer: for radius in 0..=range {
                for dy in -radius..=radius {
                    for dx in -radius..=radius {
                        if dx.abs() != radius && dy.abs() != radius {
                            continue;
                        }
                        let _ = ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
                        if ctx.best.1 <= threshold {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    if ms.half_sample {
        let center = ctx.best.0;
        for dy in -1i16..=1 {
            for dx in -1i16..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let _ = ctx.try_mv(Mv::new(center.x + dx, center.y + dy));
            }
        }
    }
    (ctx.best.0, ctx.calls)
}

/// The encoder's median predictor over the left, top and top-right
/// neighbours' vectors.
fn median_predictor(mvs: &[Mv], mbs_x: usize, mbx: usize, mby: usize) -> Mv {
    let get = |dx: isize, dy: isize| -> Mv {
        let x = mbx as isize + dx;
        let y = mby as isize + dy;
        if x < 0 || y < 0 || x >= mbs_x as isize || (y as usize == mby && x as usize >= mbx) {
            Mv::default()
        } else {
            mvs[y as usize * mbs_x + x as usize]
        }
    };
    let (a, b, c) = (get(-1, 0), get(0, -1), get(1, -1));
    let med = |p: i16, q: i16, r: i16| -> i16 { p.max(q.min(r)).min(q.max(r)) };
    Mv::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

const ALGORITHMS: [SearchAlgorithm; 6] = [
    SearchAlgorithm::Diamond,
    SearchAlgorithm::ThreeStep,
    SearchAlgorithm::Full { range: 8 },
    // Over 512 keys per macroblock: the set grows past its first table.
    SearchAlgorithm::Full { range: 12 },
    SearchAlgorithm::Spiral {
        range: 8,
        threshold: 256,
    },
    SearchAlgorithm::Spiral {
        range: 6,
        threshold: 0,
    },
];

const APPROX: [ApproxSad; 4] = [
    ApproxSad::Exact,
    ApproxSad::SubsampledRows { step: 2 },
    ApproxSad::ReducedPrecision { bits: 2 },
    ApproxSad::EarlyExit { threshold: 4096 },
];

#[test]
fn encoder_traces_equal_a_hashset_deduped_search() {
    let frames = SyntheticSequence::new(64, 48, 3, 7).generate();
    for algorithm in ALGORITHMS {
        for half_sample in [true, false] {
            for approx in APPROX {
                let search = MotionSearch {
                    algorithm,
                    half_sample,
                    approx,
                };
                let report = Encoder::new(EncoderConfig { q: 10, search }).encode(&frames);
                let mut searched = 0;
                for (t, fr) in report.frames.iter().enumerate().skip(1) {
                    let (cur, prev) = (&frames[t].y, &report.recon[t - 1].y);
                    let mbs_x = cur.mbs_x();
                    let mut mvs = vec![Mv::default(); mbs_x * cur.mbs_y()];
                    for mb in &fr.motion {
                        let pred = median_predictor(&mvs, mbs_x, mb.mbx, mb.mby);
                        let (mv, calls) =
                            reference_search(&search, cur, prev, mb.mbx, mb.mby, pred);
                        let label = format!("{search:?}: frame {t}, MB ({}, {})", mb.mbx, mb.mby);
                        assert_eq!(mb.mv, mv, "{label}: vector");
                        assert!(mb.calls == calls, "{label}: trace differs");
                        mvs[mb.mby * mbs_x + mb.mbx] = mv;
                        searched += 1;
                    }
                }
                assert_eq!(searched, 2 * 12, "{search:?}: macroblocks compared");
            }
        }
    }
}

#[test]
fn one_off_search_equals_a_hashset_deduped_search() {
    // `MotionSearch::search_mb` on fresh scratch, including a prediction
    // far from the zero vector.
    let frames = SyntheticSequence::new(96, 64, 2, 1).generate();
    let (cur, prev) = (&frames[1].y, &frames[0].y);
    for algorithm in ALGORITHMS {
        for half_sample in [true, false] {
            let search = MotionSearch {
                algorithm,
                half_sample,
                approx: ApproxSad::Exact,
            };
            for pred in [Mv::default(), Mv::new(7, -5), Mv::new(-20, 12)] {
                let m = search.search_mb(cur, prev, 2, 1, pred);
                let (mv, calls) = reference_search(&search, cur, prev, 2, 1, pred);
                assert_eq!(m.mv, mv, "{search:?}, pred {pred:?}: vector");
                assert!(m.calls == calls, "{search:?}, pred {pred:?}: trace differs");
            }
        }
    }
}

#[test]
fn visited_set_equals_a_hashset_under_collisions_growth_and_reuse() {
    // A deterministic key stream: an LCG over a window of vectors small
    // enough that keys repeat often, large enough (up to ~1300 live keys)
    // that the table grows twice within one "macroblock".
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let mut set = VisitedSet::default();
    let mut reference: HashSet<(i32, i32)> = HashSet::new();
    for (round, inserts) in [40usize, 3000, 300, 5000, 10, 2500].into_iter().enumerate() {
        // Every round starts from the zero vector, as a search does.
        let zero = Mv::default();
        assert_eq!(
            set.insert(zero),
            reference.insert((0, 0)),
            "round {round}: zero"
        );
        for k in 0..inserts {
            let half = 1 + (k as u64 % 40);
            let mv = Mv::new(
                next(2 * half + 1) as i16 - half as i16,
                next(2 * half + 1) as i16 - half as i16,
            );
            let key = (i32::from(mv.x), i32::from(mv.y));
            assert_eq!(
                set.insert(mv),
                reference.insert(key),
                "round {round}, insert {k}: {mv:?}"
            );
        }
        // And re-tries every key it saw: all of them must be remembered.
        for &(x, y) in &reference {
            let mv = Mv::new(x as i16, y as i16);
            assert!(!set.insert(mv), "round {round}: forgot {mv:?}");
        }
        set.clear();
        reference.clear();
    }
}
